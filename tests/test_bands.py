"""The pot-relative personality bands and the pots they hold for.

Every grading and oracle threshold is a share of the pot, so the scripted
oracle grids keep their designed error classes at any pot a plan accepts.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import FIXTURES
from ultimatum.agents import DEVIATION_ROUND
from ultimatum.cli import EXIT_OK, EXIT_USAGE, main
from ultimatum.engine import MAX_POT
from ultimatum.experiment import InvalidPlanError, load_records, plan_from_dict, run_batch
from ultimatum.strategy import MIN_POT, Personality, bands_for
from ultimatum.transcripts import parse_canonical

FAIR, GREEDY = Personality.FAIR, Personality.GREEDY

GRIDS = {
    "clean": {},
    "incomplete": {"proposer": "incomplete"},
    "inconsistent_threshold": {"receiver": "inconsistent_threshold"},
    "deviator": {"proposer": "deviator"},
}


def designed_class(grid: str, rounds: int) -> str:
    if grid == "clean":
        return "none"
    if grid == "deviator":
        return "gameplay_only" if rounds >= DEVIATION_ROUND else "none"
    if grid == "incomplete":
        # The omitted after-accept rule is only needed from round 2 on.
        return "strategy_only" if rounds > 1 else "none"
    return "strategy_only"


def grid_classes(grid: str, pot: int, rounds: int) -> set[str]:
    """Error classes of one oracle run per cell, both structures, all pairs."""
    plan = plan_from_dict(
        {"pot": pot, "rounds": rounds, "runs_per_cell": 1, "flaws": GRIDS[grid]}
    )
    records = run_batch(plan).records
    assert len(records) == 8
    return {r["verdict"]["error_class"] if r["status"] == "ok" else r["cause"] for r in records}


class TestDefaultPot:
    def test_grading_bands_at_pot_100(self):
        bands = bands_for(100)
        assert bands.fair_offer == (40, 60)
        assert bands.greedy_offer_below == 50
        assert bands.fair_threshold == (40, 50)
        assert bands.greedy_min == 51
        assert bands.slack == 5
        assert bands.step == (1, 15)
        assert (bands.accept_min(FAIR), bands.accept_min(GREEDY)) == (40, 51)

    def test_oracle_play_at_pot_100(self):
        bands = bands_for(100)
        assert (bands.fair_open, bands.greedy_open, bands.oracle_step) == (50, 20, 5)
        assert (bands.fair_threshold[0], bands.greedy_hold) == (40, 55)
        assert bands.deviation == 20


class TestBandPredicates:
    @given(pot=st.integers(min_value=MIN_POT, max_value=10_000))
    def test_receiver_bands_are_disjoint(self, pot):
        # Opening-offer bands overlap on purpose (40..49 at pot 100); a
        # threshold is fair or greedy, never both.
        bands = bands_for(pot)
        for cents in range(pot + 2):
            assert not (bands.threshold_fits(FAIR, cents) and bands.threshold_fits(GREEDY, cents))

    @given(pot=st.integers(min_value=MIN_POT, max_value=10_000))
    def test_oracles_play_inside_their_bands(self, pot):
        bands = bands_for(pot)
        assert bands.offer_fits(FAIR, bands.fair_open)
        assert bands.offer_fits(GREEDY, bands.greedy_open)
        assert bands.threshold_fits(FAIR, bands.fair_threshold[0])
        assert bands.threshold_fits(GREEDY, bands.greedy_hold)
        assert bands.slack < bands.deviation


@settings(max_examples=30)
@given(
    pot=st.integers(min_value=20, max_value=10_000),
    rounds=st.integers(min_value=1, max_value=10),
)
@example(pot=20, rounds=1)
@example(pot=37, rounds=5)
@example(pot=150, rounds=3)
@example(pot=333, rounds=10)
@example(pot=10_000, rounds=10)
def test_oracle_grids_keep_their_designed_class_at_any_pot(pot, rounds):
    for grid in GRIDS:
        assert grid_classes(grid, pot, rounds) == {designed_class(grid, rounds)}, grid


class TestSmallestPot:
    @pytest.mark.parametrize("rounds", range(1, 11))
    def test_every_grid_holds_at_the_smallest_pot(self, rounds):
        for grid in GRIDS:
            assert grid_classes(grid, MIN_POT, rounds) == {designed_class(grid, rounds)}, grid

    @pytest.mark.parametrize("pot", range(MIN_POT, 20))
    def test_pots_under_twenty_cents_concede_one_cent(self, pot):
        # A twentieth of these pots rounds down to nothing: the oracles still
        # concede one cent, and the largest concession graded as modest is
        # three twentieths of the pot but never under one cent.
        bands = bands_for(pot)
        assert bands.oracle_step == 1
        assert bands.step == (1, 1 if pot < 14 else 2)

    @pytest.mark.parametrize("pot", range(MIN_POT, 41))
    def test_a_greedy_receiver_holds_out_for_eleven_twentieths_and_over_half(self, pot):
        # The smallest threshold that is both: under 20 cents, eleven
        # twentieths is not over half, and the hold is one cent over half.
        def holds(cents):
            return cents >= 11 * pot // 20 and 2 * cents > pot

        hold = bands_for(pot).greedy_hold
        assert holds(hold) and not holds(hold - 1)

    def test_a_plan_at_five_cents_runs_and_one_at_four_is_a_usage_error(self, tmp_path):
        for pot, code in ((5, EXIT_OK), (4, EXIT_USAGE)):
            plan = tmp_path / f"pot{pot}.yaml"
            plan.write_text(f"runs_per_cell: 1\npot: {pot}\nrounds: 1\n", encoding="utf-8")
            out = tmp_path / f"pot{pot}.jsonl"
            assert main(["run", "--plan", str(plan), "--out", str(out)]) == code, pot
        assert (tmp_path / "pot5.jsonl").exists()
        assert not (tmp_path / "pot4.jsonl").exists()

    def test_plans_reject_a_smaller_pot(self):
        with pytest.raises(InvalidPlanError, match=f"at least {MIN_POT} cents"):
            plan_from_dict({"pot": MIN_POT - 1})

    def test_grade_rejects_a_smaller_pot(self, capsys):
        log = FIXTURES / "fig_single_model_fair_fair.txt"
        argv = ["grade", "--single-log", str(log), "--pair", "fair-fair"]
        assert main(argv + ["--pot", str(MIN_POT - 1)]) == EXIT_USAGE
        assert f"at least {MIN_POT} cents" in capsys.readouterr().err


class TestLargestPot:
    """engine.MAX_POT: the largest pot whose amounts a canonical round line holds."""

    def test_a_plan_at_it_runs_and_regrades_and_one_above_is_a_usage_error(self, tmp_path, capsys):
        for pot, code in ((MAX_POT, EXIT_OK), (MAX_POT + 1, EXIT_USAGE)):
            plan = tmp_path / f"pot{pot}.yaml"
            plan.write_text(f"runs_per_cell: 1\npot: {pot}\n", encoding="utf-8")
            out = tmp_path / f"pot{pot}.jsonl"
            assert main(["run", "--plan", str(plan), "--out", str(out)]) == code, pot
        assert capsys.readouterr().err == (
            f"error: bad plan value: pot must be <= {MAX_POT} cents, got {MAX_POT + 1}\n"
        )
        assert not (tmp_path / f"pot{MAX_POT + 1}.jsonl").exists()
        store = tmp_path / f"pot{MAX_POT}.jsonl"
        assert main(["grade", "--records", str(store)]) == EXIT_OK
        assert "8 records, 8 graded, 0 failed" in capsys.readouterr().out
        # Each oracle opens at the offer its own plan names, written and
        # read back without rounding.
        bands = bands_for(MAX_POT)
        for record in load_records(store):
            transcript = parse_canonical(record["transcript"])
            planned = bands.fair_open if transcript.pair.proposer is FAIR else bands.greedy_open
            assert transcript.rounds[0].offer == planned, record["run_id"]

    @pytest.mark.parametrize("pot, code", [(MAX_POT, EXIT_OK), (MAX_POT + 1, EXIT_USAGE)])
    def test_grade_takes_pots_up_to_the_largest(self, capsys, pot, code):
        log = FIXTURES / "fig_single_model_fair_fair.txt"
        argv = ["grade", "--single-log", str(log), "--pair", "fair-fair"]
        assert main(argv + ["--pot", str(pot)]) == code
        err = "" if code == EXIT_OK else f"error: pot must be <= {MAX_POT} cents, got {pot}\n"
        assert capsys.readouterr().err == err
