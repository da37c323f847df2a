import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ultimatum.stats import (
    ContingencyTable2x2,
    DegenerateTableError,
    chi_square_2x2,
    chi_square_survival_1df,
    format_percent,
    two_proportion_z,
)


class TestContingencyTable:
    def test_from_successes(self):
        table = ContingencyTable2x2.from_successes(35, 40, 20, 40)
        assert (table.a, table.b, table.c, table.d) == (35, 5, 20, 20)

    @pytest.mark.parametrize("args", [(-1, 2, 3, 4)])
    def test_negative_cells_are_rejected(self, args):
        with pytest.raises(ValueError):
            ContingencyTable2x2(*args)

    def test_successes_cannot_exceed_trials(self):
        with pytest.raises(ValueError):
            ContingencyTable2x2.from_successes(5, 4, 0, 4)

    @pytest.mark.parametrize(
        "cells",
        [(0, 0, 5, 5), (5, 0, 5, 0), (0, 5, 0, 5), (5, 5, 0, 0)],
    )
    def test_zero_margins_are_degenerate(self, cells):
        with pytest.raises(DegenerateTableError):
            chi_square_2x2(ContingencyTable2x2(*cells))


class TestKnownValues:
    def test_chi_square_thirteen_point_one(self):
        result = chi_square_2x2(ContingencyTable2x2.from_successes(35, 40, 20, 40))
        assert result.statistic == pytest.approx(144 / 11, rel=1e-12)
        assert result.statistic == pytest.approx(13.091, abs=1e-3)
        assert result.p_two_tailed == pytest.approx(0.000297, abs=2e-5)
        assert result.df == 1

    def test_chi_square_ten_point_three(self):
        result = chi_square_2x2(ContingencyTable2x2.from_successes(35, 40, 22, 40))
        assert result.statistic == pytest.approx(10.3127, abs=1e-3)
        assert result.p_two_tailed == pytest.approx(0.001321, rel=0.02)

    def test_z_for_seven_of_seven_vs_none(self):
        result = two_proportion_z(7, 7, 0, 7)
        assert result.statistic == pytest.approx(math.sqrt(14), rel=1e-12)
        assert result.p_two_tailed == pytest.approx(0.00018, abs=2e-5)

    def test_z_for_five_of_five_vs_none(self):
        result = two_proportion_z(5, 5, 0, 5)
        assert result.statistic == pytest.approx(math.sqrt(10), rel=1e-12)
        assert result.p_two_tailed == pytest.approx(0.00158, abs=2e-5)

    def test_z_for_seventeen_vs_nine_of_twenty_three(self):
        result = two_proportion_z(17, 23, 9, 23)
        assert result.statistic == pytest.approx(2.3794, abs=1e-4)
        assert result.p_two_tailed == pytest.approx(0.0173, abs=5e-4)

    def test_z_for_twenty_of_twenty_vs_five(self):
        result = two_proportion_z(20, 20, 5, 20)
        assert result.statistic == pytest.approx(4.898979, abs=1e-5)
        assert result.p_two_tailed < 0.00001

    def test_small_expected_cells_warn(self):
        result = chi_square_2x2(ContingencyTable2x2.from_successes(7, 7, 0, 7))
        assert result.warning is not None
        assert "expected" in result.warning

    def test_large_tables_do_not_warn(self):
        result = chi_square_2x2(ContingencyTable2x2.from_successes(35, 40, 20, 40))
        assert result.warning is None


class TestSurvivalFunctions:
    def test_chi_square_survival_at_zero_is_one(self):
        assert chi_square_survival_1df(0.0) == pytest.approx(1.0)

    def test_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 13.0909, 24.0):
            assert chi_square_survival_1df(x) == pytest.approx(
                scipy_stats.chi2.sf(x, df=1), rel=1e-10
            )


def test_chi_square_against_scipy_contingency():
    """The one 2x2 test (z is derived from it) against an outside
    implementation, on every non-degenerate table with cells up to 60."""
    scipy_stats = pytest.importorskip("scipy.stats")

    @given(*[st.integers(min_value=0, max_value=60)] * 4)
    def check(a, b, c, d):
        assume(0 not in (a + b, c + d, a + c, b + d))
        statistic, p, df, _ = scipy_stats.chi2_contingency([[a, b], [c, d]], correction=False)
        result = chi_square_2x2(ContingencyTable2x2(a, b, c, d))
        assert result.statistic == pytest.approx(statistic, rel=1e-9, abs=1e-12)
        assert result.p_two_tailed == pytest.approx(p, rel=1e-9, abs=1e-12)
        assert result.df == df

    check()


class TestZTest:
    def test_equal_proportions_give_z_zero_and_p_one(self):
        result = two_proportion_z(3, 6, 5, 10)
        assert (result.statistic, result.p_two_tailed) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((0, 0, 1, 2), "empty sample"),
            ((1, 2, 0, 0), "empty sample"),
            ((0, 5, 0, 3), "pooled proportion is degenerate (0 or 1)"),
            ((5, 5, 3, 3), "pooled proportion is degenerate (0 or 1)"),
        ],
    )
    def test_degenerate_samples_keep_their_messages(self, counts, message):
        with pytest.raises(DegenerateTableError) as excinfo:
            two_proportion_z(*counts)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "counts, warning",
        [
            ((7, 7, 0, 7), "smallest expected cell count is 3.50 (< 5)"),
            ((17, 23, 9, 23), None),
        ],
    )
    def test_the_warning_is_the_chi_squares(self, counts, warning):
        chi = chi_square_2x2(ContingencyTable2x2.from_successes(*counts))
        assert two_proportion_z(*counts).warning == chi.warning == warning


@given(
    a=st.integers(min_value=0, max_value=60),
    b=st.integers(min_value=0, max_value=60),
    c=st.integers(min_value=0, max_value=60),
    d=st.integers(min_value=0, max_value=60),
)
def test_chi_square_equals_z_squared(a, b, c, d):
    table = ContingencyTable2x2(a, b, c, d)
    try:
        chi = chi_square_2x2(table)
    except DegenerateTableError:
        return
    z = two_proportion_z(a, a + b, c, c + d)
    assert chi.statistic == pytest.approx(z.statistic**2, rel=1e-9, abs=1e-12)
    assert chi.p_two_tailed == pytest.approx(z.p_two_tailed, rel=1e-9, abs=1e-12)


class TestRates:
    @pytest.mark.parametrize(
        "fraction,text",
        [
            (Fraction(7, 8), "87.5%"),
            (Fraction(1, 2), "50%"),
            (Fraction(1), "100%"),
            (Fraction(17, 23), "73.9%"),
            (Fraction(9, 23), "39.1%"),
            (Fraction(3, 23), "13%"),
            (Fraction(0), "0%"),
        ],
    )
    def test_format_percent(self, fraction, text):
        assert format_percent(fraction) == text
