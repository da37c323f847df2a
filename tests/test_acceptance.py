"""End-to-end acceptance checks.

One test per criterion; `pytest -v tests/test_acceptance.py` prints one
pass or fail line for each. Everything runs offline except the final
live-endpoint smoke test, which is skipped unless ULTIMATUM_LIVE_ENDPOINT
is set.
"""

import os
import random
from fractions import Fraction

import pytest

from helpers import ACC, REJ, FIXTURES, build_transcript, full_corpus
from ultimatum import engine
from ultimatum.engine import Decision, GameConfig
from ultimatum.experiment import aggregate, plan_from_dict, render_report, run_batch
from ultimatum.rubric import ErrorClass, evaluate_transcript
from ultimatum.stats import chi_square_2x2, format_percent, two_proportion_z
from ultimatum.strategy import Personality, PersonalityPair
from ultimatum.transcripts import (
    parse_agent_log,
    parse_canonical,
    parse_single_model_log,
    serialize_canonical,
)

PAIR_LABELS = ["fair-fair", "fair-greedy", "greedy-fair", "greedy-greedy"]


def test_ac1_pinned_reference_comparisons_reproduce():
    """The six reference comparisons come out at their pinned values."""
    chi_80 = chi_square_2x2(35, 40, 20, 40)
    assert chi_80.statistic == pytest.approx(13.091, abs=1e-3)
    assert chi_80.p_two_tailed == pytest.approx(0.000297, abs=2e-5)

    chi_sub = chi_square_2x2(35, 40, 22, 40)
    assert chi_sub.statistic == pytest.approx(10.3127, abs=1e-3)
    assert chi_sub.p_two_tailed == pytest.approx(0.001321, abs=1e-5)

    z_seven = two_proportion_z(7, 7, 0, 7)
    assert z_seven.statistic == pytest.approx(3.7417, abs=1e-3)
    assert z_seven.p_two_tailed == pytest.approx(0.00018, abs=5e-6)

    z_five = two_proportion_z(5, 5, 0, 5)
    # The pinned value carries a small transcription slip (3.1632 for
    # sqrt(10) = 3.16228); the tolerance absorbs it.
    assert z_five.statistic == pytest.approx(3.1632, abs=1e-2)
    assert z_five.p_two_tailed == pytest.approx(0.00158, abs=2e-5)

    z_shares = two_proportion_z(17, 23, 9, 23)
    assert z_shares.statistic == pytest.approx(2.379, abs=1e-3)
    assert z_shares.p_two_tailed == pytest.approx(0.017, abs=1e-3)

    z_best = two_proportion_z(20, 20, 5, 20)
    assert z_best.statistic == pytest.approx(4.899, abs=1e-3)
    assert z_best.p_two_tailed < 0.00001

    assert format_percent(Fraction(17, 23)) == "73.9%"
    assert format_percent(Fraction(9, 23)) == "39.1%"
    assert format_percent(Fraction(3, 23)) == "13%"


def test_ac2_chi_square_equals_z_squared_on_random_tables():
    """On 1,000 random non-degenerate 2x2 tables the chi-square statistic
    equals the squared two-proportion z and both tests agree on p."""
    rng = random.Random(414243)
    checked = 0
    while checked < 1000:
        a, b = rng.randint(0, 60), rng.randint(0, 60)
        c, d = rng.randint(0, 60), rng.randint(0, 60)
        if min(a + b, c + d, a + c, b + d) == 0:
            continue
        chi = chi_square_2x2(a, a + b, c, c + d)
        z = two_proportion_z(a, a + b, c, c + d)
        assert chi.statistic == pytest.approx(z.statistic**2, rel=1e-9, abs=1e-12)
        assert chi.p_two_tailed == pytest.approx(z.p_two_tailed, rel=1e-9, abs=1e-15)
        checked += 1


def test_ac3_reference_fixture_logs_grade_correctly():
    """The bundled reconstruction fixtures each earn their known grade."""
    fair_fair = PersonalityPair.from_label("fair-fair")
    game = GameConfig()

    text = (FIXTURES / "fig_single_model_fair_fair.txt").read_text()
    transcript, _ = parse_single_model_log(text, fair_fair, game)
    assert evaluate_transcript(transcript).error_class is ErrorClass.NONE

    logs = (
        (FIXTURES / "fig_agent_proposer.txt").read_text(),
        (FIXTURES / "fig_agent_receiver.txt").read_text(),
    )
    transcript, _ = parse_agent_log(logs, fair_fair, game)
    verdict = evaluate_transcript(transcript)
    assert verdict.error_class is ErrorClass.NONE
    assert verdict.per_round_flags == ()

    incomplete = build_transcript(
        offers=[10, 15, 20, 25, 30],
        decisions=[REJ, REJ, REJ, REJ, ACC],
        pair="greedy-greedy",
        proposer_text=(FIXTURES / "strategy_incomplete_proposer.txt").read_text(),
    )
    verdict = evaluate_transcript(incomplete)
    assert verdict.error_class is ErrorClass.STRATEGY_ONLY
    assert not verdict.proposer_strategy_complete

    inconsistent = build_transcript(
        offers=[50] * 5,
        decisions=[ACC] * 5,
        pair="fair-greedy",
        receiver_text=(FIXTURES / "strategy_inconsistent_receiver.txt").read_text(),
    )
    verdict = evaluate_transcript(inconsistent)
    assert verdict.error_class is ErrorClass.STRATEGY_ONLY
    assert not verdict.receiver_strategy_consistent

    text = (FIXTURES / "single_model_stubborn_greedy.txt").read_text()
    transcript, _ = parse_single_model_log(
        text, PersonalityPair.from_label("greedy-greedy"), game
    )
    verdict = evaluate_transcript(transcript)
    assert verdict.error_class is ErrorClass.GAMEPLAY_ONLY
    assert verdict.strategy_ok
    assert [(f.round, f.rule) for f in verdict.per_round_flags] == [
        (5, "final_round_capitulation")
    ]


def test_ac4_oracle_batches_reproduce_designed_outcomes():
    """Scripted players grade exactly as designed, at batch scale and
    fast enough to run offline: an 80-run clean grid is 100% clean in
    under 5 seconds, planted flaws grade uniformly as their error class,
    and the designed 30-run error mix reproduces the pinned error-share
    rates and z."""
    clean = run_batch(plan_from_dict({"runs_per_cell": 10}))
    assert len(clean.records) == 80
    assert clean.failed_count == 0
    assert {r["verdict"]["error_class"] for r in clean.records} == {"none"}
    assert clean.elapsed_seconds < 5.0

    designed = {
        ("incomplete", None): "strategy_only",
        ("deviator", None): "gameplay_only",
        (None, "inconsistent_threshold"): "strategy_only",
        ("deviator", "inconsistent_threshold"): "both",
    }
    for structure in ("single_model", "multi_agent"):
        for (proposer_flaw, receiver_flaw), expected in designed.items():
            flaws = {}
            if proposer_flaw:
                flaws["proposer"] = proposer_flaw
            if receiver_flaw:
                flaws["receiver"] = receiver_flaw
            batch = run_batch(
                plan_from_dict(
                    {
                        "structures": [structure],
                        "pairs": ["fair-fair"],
                        "runs_per_cell": 3,
                        "flaws": flaws,
                    }
                )
            )
            classes = [r["verdict"]["error_class"] for r in batch.records]
            assert classes == [expected] * 3, (structure, flaws)

    def mix(runs, flaws=None):
        data = {
            "structures": ["single_model"],
            "pairs": ["fair-fair"],
            "runs_per_cell": runs,
        }
        if flaws:
            data["flaws"] = flaws
        return list(run_batch(plan_from_dict(data)).records)

    records = (
        mix(7)
        + mix(14, {"proposer": "incomplete"})
        + mix(6, {"proposer": "deviator"})
        + mix(3, {"proposer": "deviator", "receiver": "inconsistent_threshold"})
    )
    summary = aggregate(records)
    counts = summary.by_structure["single_model"]
    assert counts.ok == 30
    assert counts.errors == 23
    assert format_percent(Fraction(counts.strategy_errors, counts.errors)) == "73.9%"
    assert format_percent(Fraction(counts.gameplay_errors, counts.errors)) == "39.1%"
    assert format_percent(Fraction(counts.both, counts.errors)) == "13%"
    comparison, = summary.error_comparisons
    assert comparison.test.statistic == pytest.approx(2.3794, abs=1e-4)
    assert comparison.test.p_two_tailed == pytest.approx(0.01734, abs=5e-4)
    report = render_report(summary)
    assert "73.9%" in report and "39.1%" in report


def test_ac5_canonical_round_trips_and_corpus_recovery():
    """1,000 randomized transcripts serialize to canonical text and come
    back byte-identical; every messy corpus log is recovered without a
    fabricated round."""
    rng = random.Random(20260814)
    for _ in range(1000):
        pot = rng.randint(1, 300)
        rounds = rng.randint(1, 7)
        offers = [rng.randint(0, pot) for _ in range(rounds)]
        decisions = [rng.choice((ACC, REJ)) for _ in range(rounds)]
        transcript = build_transcript(
            offers,
            decisions,
            pair=rng.choice(PAIR_LABELS),
            pot=pot,
        )
        text = serialize_canonical(transcript)
        parsed = parse_canonical(text)
        assert parsed == transcript
        assert serialize_canonical(parsed) == text

    corpus = full_corpus()
    assert len(corpus) == 20
    for case in corpus:
        pair = PersonalityPair.from_label(case["pair"])
        game = GameConfig(pot=case["pot"], rounds=case["rounds"])
        if "single" in case["texts"]:
            transcript, diagnostics = parse_single_model_log(
                case["texts"]["single"], pair, game
            )
        else:
            logs = (case["texts"]["proposer"], case["texts"]["receiver"])
            transcript, diagnostics = parse_agent_log(logs, pair, game)
        assert [o.offer for o in transcript.rounds] == case["offers"], case["name"]
        assert [o.decision.value for o in transcript.rounds] == case["decisions"], case["name"]
        assert [o.round for o in transcript.rounds] == list(
            range(1, case["rounds"] + 1)
        ), case["name"]
        assert diagnostics.confidence.value == case["confidence"], case["name"]
        for fragment in case["warnings_contain"]:
            assert any(fragment in w for w in diagnostics.warnings), case["name"]


def test_ac6_engine_conserves_money_and_replays_deterministically():
    """10,000 randomized games: every accepted round splits exactly the
    pot, every rejected round pays zero, and replaying the recorded
    actions reproduces the identical history."""
    rng = random.Random(99)
    for _ in range(10_000):
        pot = rng.randint(1, 500)
        rounds = rng.randint(1, 8)
        config = GameConfig(pot=pot, rounds=rounds)
        state = engine.new_game(config)
        actions = []
        while not state.finished:
            offer = rng.randint(0, pot)
            state = engine.submit_offer(state, offer)
            decision = ACC if rng.random() < 0.5 else REJ
            state, outcome = engine.submit_decision(state, decision)
            actions.append((offer, decision))
            paid = outcome.proposer_payoff + outcome.receiver_payoff
            assert paid == (pot if decision is Decision.ACCEPT else 0)
            assert outcome.offer == offer
        assert [o.round for o in state.history] == list(range(1, rounds + 1))
        replayed, outcomes = engine.replay(config, actions)
        assert outcomes == state.history
        assert replayed == state


@pytest.mark.skipif(
    not os.environ.get("ULTIMATUM_LIVE_ENDPOINT"),
    reason="set ULTIMATUM_LIVE_ENDPOINT (and optionally ULTIMATUM_LIVE_MODEL, "
    "ULTIMATUM_API_KEY) to run one live run per cell",
)
def test_ac7_live_endpoint_smoke():
    """One live run per cell completes the full pipeline: every run is
    recorded, and every graded run carries a verdict."""
    plan = plan_from_dict(
        {
            "runs_per_cell": 1,
            "model": os.environ.get("ULTIMATUM_LIVE_MODEL", "gpt-4"),
            "endpoint": os.environ["ULTIMATUM_LIVE_ENDPOINT"],
        }
    )
    batch = run_batch(plan, mode="live")
    assert len(batch.records) == 8
    for record in batch.records:
        assert record["status"] in ("ok", "failed")
        if record["status"] == "ok":
            assert record["verdict"]["error_class"] in (
                "none",
                "strategy_only",
                "gameplay_only",
                "both",
            )
