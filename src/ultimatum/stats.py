"""Statistical comparisons used in the reports.

Every comparison the reports print is "s1 successes of n1 trials versus
s2 of n2", and both tests take exactly those four counts.
`chi_square_2x2` is Pearson's chi-square on the 2x2 table the counts
form, without continuity correction, at one degree of freedom; its
two-tailed p-value is the chi-square survival function at 1 df, which
reduces to erfc(sqrt(x / 2)). `two_proportion_z` is the pooled-variance
two-proportion z-test, which is the same test: |z| is the square root of
the chi-square, with the same p-value and the same small-sample warning,
so it is computed from the chi-square. The test suite checks both against
scipy. Rates are kept as exact fractions so aggregation never accumulates
float error; rendering to percent happens only at the edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class DegenerateTableError(ValueError):
    """The table or proportions have an empty margin; the test is undefined."""


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_two_tailed: float
    warning: str | None = None


def chi_square_2x2(s1: int, n1: int, s2: int, n2: int) -> TestResult:
    """Pearson chi-square on s1 of n1 versus s2 of n2 successes, no
    continuity correction, df = 1.

    Raises DegenerateTableError when a row or column margin of the table
    is zero. Adds a validity warning when any expected cell count is
    below 5.
    """
    if not (0 <= s1 <= n1 and 0 <= s2 <= n2):
        raise ValueError("successes must lie within their trial counts")
    a, b, c, d = s1, n1 - s1, s2, n2 - s2
    n = n1 + n2
    col1, col2 = a + c, b + d
    if 0 in (n1, n2, col1, col2):
        raise DegenerateTableError("a margin of the 2x2 table is zero")
    # Closed form of sum((obs - exp)^2 / exp) for the 2x2 case.
    statistic = n * (a * d - b * c) ** 2 / (n1 * n2 * col1 * col2)
    warning = None
    min_expected = min(r * col / n for r in (n1, n2) for col in (col1, col2))
    if min_expected < 5:
        warning = f"smallest expected cell count is {min_expected:.2f} (< 5)"
    return TestResult(statistic, math.erfc(math.sqrt(statistic / 2.0)), warning)


def two_proportion_z(s1: int, n1: int, s2: int, n2: int) -> TestResult:
    """Two-proportion z-test with pooled variance, two-tailed.

    s1 of n1 versus s2 of n2 successes. |z| is the square root of the
    chi-square on the same counts, with its p-value and its small-sample
    warning.
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
    chi = chi_square_2x2(s1, n1, s2, n2)
    return TestResult(math.sqrt(chi.statistic), chi.p_two_tailed, chi.warning)


def format_percent(rate: Fraction | float) -> str:
    """Render a rate as a percent with one decimal, trimming '.0'.

    Fraction(35, 40) -> "87.5%", Fraction(0, 10) -> "0%".
    """
    value = float(rate) * 100.0
    text = f"{value:.1f}"
    if text.endswith(".0"):
        text = text[:-2]
    return text + "%"
