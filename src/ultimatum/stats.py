"""Statistical comparisons used in the reports.

One test covers every comparison in the summary tables: Pearson's
chi-square on a 2x2 contingency table, without continuity correction,
df = 1. The two-tailed p-value is the chi-square survival function at
1 df, which reduces to erfc(sqrt(x / 2)).

The two-proportion z-test with pooled variance is the same test: z is
the square root of the chi-square on the table the two samples form,
with the same p-value, so it is computed from the chi-square. The test
suite checks the chi-square against scipy's chi2_contingency. Rates are
kept as exact fractions so aggregation never accumulates float error;
rendering to percent happens only at the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class DegenerateTableError(ValueError):
    """The table or proportions have an empty margin; the test is undefined."""


@dataclass(frozen=True)
class ContingencyTable2x2:
    """Counts for two groups x two outcomes.

    Laid out as (group, outcome): a = group1/positive, b = group1/negative,
    c = group2/positive, d = group2/negative.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("cell counts must be non-negative")

    @classmethod
    def from_successes(cls, s1: int, n1: int, s2: int, n2: int) -> "ContingencyTable2x2":
        if not (0 <= s1 <= n1 and 0 <= s2 <= n2):
            raise ValueError("successes must lie within their trial counts")
        return cls(s1, n1 - s1, s2, n2 - s2)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: int
    p_two_tailed: float
    warning: str | None = None


def chi_square_survival_1df(x: float) -> float:
    """P(X >= x) for chi-square with one degree of freedom."""
    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


def chi_square_2x2(table: ContingencyTable2x2) -> TestResult:
    """Pearson chi-square on a 2x2 table, no continuity correction.

    Raises DegenerateTableError when a row or column margin is zero. Adds
    a validity warning when any expected cell count is below 5.
    """
    a, b, c, d = table.a, table.b, table.c, table.d
    n = a + b + c + d
    row1, row2 = a + b, c + d
    col1, col2 = a + c, b + d
    if 0 in (row1, row2, col1, col2):
        raise DegenerateTableError("a margin of the 2x2 table is zero")
    # Closed form of sum((obs - exp)^2 / exp) for the 2x2 case.
    statistic = n * (a * d - b * c) ** 2 / (row1 * row2 * col1 * col2)
    warning = None
    min_expected = min(
        r * col / n for r in (row1, row2) for col in (col1, col2)
    )
    if min_expected < 5:
        warning = f"smallest expected cell count is {min_expected:.2f} (< 5)"
    return TestResult(
        statistic=statistic,
        df=1,
        p_two_tailed=chi_square_survival_1df(statistic),
        warning=warning,
    )


def two_proportion_z(s1: int, n1: int, s2: int, n2: int) -> TestResult:
    """Two-proportion z-test with pooled variance, two-tailed.

    s1 of n1 versus s2 of n2 successes. |z| is the square root of the
    chi-square on the table of the two samples, with its p-value and its
    small-sample warning.
    Undefined (DegenerateTableError) when either sample is empty or the
    pooled proportion is 0 or 1, since then the pooled standard error
    vanishes.
    """
    if not (0 <= s1 <= n1 and 0 <= s2 <= n2):
        raise ValueError("successes must lie within their trial counts")
    if n1 == 0 or n2 == 0:
        raise DegenerateTableError("empty sample")
    if s1 + s2 in (0, n1 + n2):
        raise DegenerateTableError("pooled proportion is degenerate (0 or 1)")
    chi = chi_square_2x2(ContingencyTable2x2.from_successes(s1, n1, s2, n2))
    return TestResult(
        statistic=math.sqrt(chi.statistic),
        df=1,
        p_two_tailed=chi.p_two_tailed,
        warning=chi.warning,
    )


def format_percent(rate: Fraction | float) -> str:
    """Render a rate as a percent with one decimal, trimming '.0'.

    Fraction(35, 40) -> "87.5%", Fraction(0, 10) -> "0%".
    """
    value = float(rate) * 100.0
    text = f"{value:.1f}"
    if text.endswith(".0"):
        text = text[:-2]
    return text + "%"
