import pytest

from helpers import ACC, REJ, FIXTURES, build_transcript
from ultimatum.engine import Decision
from ultimatum.rubric import (
    ErrorClass,
    MalformedTranscriptError,
    Verdict,
    evaluate_transcript,
)
from ultimatum.strategy import (
    PersonalityPair,
    ProposerStrategy,
    ReceiverStrategy,
    Role,
    StrategySpec,
)
from ultimatum.transcripts import parse_single_model_log

GREEDY_GREEDY = PersonalityPair.from_label("greedy-greedy")

# Empty plans cover no state, so grading against them excuses no action:
# the flags left are the observed-play rules alone.
NO_PLANS = (
    StrategySpec(Role.PROPOSER, "", ProposerStrategy()),
    StrategySpec(Role.RECEIVER, "", ReceiverStrategy()),
)


def opening_rules(offer, decision, pair):
    """Rules broken by a one-round game at the default pot."""
    t = build_transcript([offer], [decision], pair=pair)
    return {f.rule for f in evaluate_transcript(t, specs=NO_PLANS).per_round_flags}


class TestOpeningOffer:
    @pytest.mark.parametrize("offer,ok", [(39, False), (40, True), (60, True), (61, False)])
    def test_fair_band_is_forty_to_sixty(self, offer, ok):
        assert ("opening_offer_band" not in opening_rules(offer, ACC, "fair-fair")) is ok

    @pytest.mark.parametrize("offer,ok", [(49, True), (50, False), (80, False)])
    def test_greedy_opens_below_half(self, offer, ok):
        assert ("opening_offer_band" not in opening_rules(offer, ACC, "greedy-fair")) is ok


class TestOpeningDecision:
    @pytest.mark.parametrize(
        "offer,decision,ok",
        [
            (40, Decision.ACCEPT, True),
            (40, Decision.REJECT, False),
            (39, Decision.REJECT, True),
            (39, Decision.ACCEPT, False),
        ],
    )
    def test_fair_receiver_boundary_at_forty(self, offer, decision, ok):
        assert ("opening_decision_band" not in opening_rules(offer, decision, "fair-fair")) is ok

    @pytest.mark.parametrize(
        "offer,decision,ok",
        [
            (51, Decision.ACCEPT, True),
            (51, Decision.REJECT, False),
            (50, Decision.REJECT, True),
            (50, Decision.ACCEPT, False),
        ],
    )
    def test_greedy_receiver_boundary_at_fifty_one(self, offer, decision, ok):
        assert ("opening_decision_band" not in opening_rules(offer, decision, "fair-greedy")) is ok


class TestSubsequentRounds:
    def _flagged(self, offers, decisions, pair="fair-fair"):
        """Roles flagged in the last given round of a five-round game.

        Rounds after it are padded with accepted repeats of the last
        offer; flags only look back, so the padding cannot affect them.
        """
        round_no = len(offers)
        pad = 5 - round_no
        t = build_transcript(
            offers + [offers[-1]] * pad, decisions + [ACC] * pad, pair=pair, rounds=5
        )
        verdict = evaluate_transcript(t, specs=NO_PLANS)
        return {f.role for f in verdict.per_round_flags if f.round == round_no}

    def test_small_move_after_acceptance_is_fine(self):
        assert self._flagged([50, 45], [ACC, ACC]) == set()

    @pytest.mark.parametrize("offer,ok", [(44, False), (45, True), (55, True), (56, False)])
    def test_after_acceptance_offers_stay_within_five(self, offer, ok):
        assert (Role.PROPOSER not in self._flagged([50, offer], [ACC, ACC])) is ok

    @pytest.mark.parametrize("offer,ok", [(50, False), (51, True), (65, True), (66, False)])
    def test_after_rejection_offers_rise_by_one_to_fifteen(self, offer, ok):
        assert (Role.PROPOSER not in self._flagged([50, offer], [REJ, ACC])) is ok

    def test_rejecting_above_a_previous_acceptance_is_flagged(self):
        # Accepting 45 lowers what this greedy receiver may hold out for.
        assert Role.RECEIVER in self._flagged([45, 50], [ACC, REJ], pair="greedy-greedy")

    def test_rejecting_below_the_personality_ceiling_is_fine(self):
        assert Role.RECEIVER not in self._flagged([20, 30], [REJ, REJ], pair="greedy-greedy")

    def test_final_round_capitulation_rule(self):
        offers, rejections = [25, 30, 35, 40, 45], [REJ] * 4
        holdout = self._flagged(offers, rejections + [REJ], pair="greedy-greedy")
        gives_in = self._flagged(offers, rejections + [ACC], pair="greedy-greedy")
        assert Role.RECEIVER in holdout
        assert Role.RECEIVER not in gives_in


class TestEvaluateTranscript:
    def test_clean_game_has_no_errors(self):
        t = build_transcript([50, 50, 50, 50, 50], [ACC] * 5)
        verdict = evaluate_transcript(t)
        assert verdict.error_class is ErrorClass.NONE
        assert verdict.human_consistent
        assert verdict.per_round_flags == ()

    def test_incomplete_strategy_alone_is_a_strategy_error(self):
        text = (FIXTURES / "strategy_incomplete_proposer.txt").read_text().strip()
        t = build_transcript(
            [10, 15, 20, 25, 30],
            [REJ, REJ, REJ, REJ, ACC],
            pair="greedy-greedy",
            proposer_text=text,
            receiver_text="I will reject any offer below $0.60. In the final round, I will accept any non-zero offer.",
        )
        verdict = evaluate_transcript(t)
        assert not verdict.proposer_strategy_complete
        assert verdict.error_class is ErrorClass.STRATEGY_ONLY

    def test_inconsistent_threshold_is_a_strategy_error(self):
        text = (FIXTURES / "strategy_inconsistent_receiver.txt").read_text().strip()
        t = build_transcript(
            [20, 25, 30, 35, 40],
            [REJ, REJ, REJ, REJ, ACC],
            pair="greedy-greedy",
            receiver_text=text,
        )
        verdict = evaluate_transcript(t)
        assert not verdict.receiver_strategy_consistent
        assert verdict.receiver_strategy_complete
        assert verdict.error_class is ErrorClass.STRATEGY_ONLY

    def test_strategy_override_moves_band_breaks_to_strategy(self):
        # A greedy receiver declaring the fair threshold accepts 45 in round
        # 1. The action breaks the greedy band but follows the declared
        # plan, so it stays a strategy-only error.
        t = build_transcript(
            [45, 45, 45, 45, 45],
            [ACC] * 5,
            pair="fair-greedy",
            receiver_text="I will accept any offer of $0.40 or more in every round.",
        )
        verdict = evaluate_transcript(t)
        assert verdict.error_class is ErrorClass.STRATEGY_ONLY
        assert not verdict.receiver_strategy_consistent
        assert verdict.per_round_flags == ()

        # Graded against plans that sanction nothing, the break is gameplay too.
        verdict = evaluate_transcript(t, specs=NO_PLANS)
        assert verdict.error_class is ErrorClass.BOTH
        assert any(f.rule == "opening_decision_band" for f in verdict.per_round_flags)

    def test_capitulation_cannot_be_overridden(self):
        text = (FIXTURES / "single_model_stubborn_greedy.txt").read_text()
        t, _ = parse_single_model_log(text, GREEDY_GREEDY)
        verdict = evaluate_transcript(t)
        assert verdict.error_class is ErrorClass.GAMEPLAY_ONLY
        assert [f.rule for f in verdict.per_round_flags] == ["final_round_capitulation"]
        assert verdict.strategy_ok

    def test_deviation_is_a_gameplay_error(self):
        t = build_transcript([50, 50, 70, 70, 70], [ACC] * 5)
        verdict = evaluate_transcript(t)
        assert verdict.error_class is ErrorClass.GAMEPLAY_ONLY
        assert not verdict.proposer_adherent
        assert any(f.rule == "offer_change_after_accept" for f in verdict.per_round_flags)

    def test_strategy_and_gameplay_errors_combine_to_both(self):
        text = (FIXTURES / "strategy_incomplete_proposer.txt").read_text().strip()
        t = build_transcript(
            [10, 15, 40, 40, 40],
            [REJ, REJ, ACC, ACC, ACC],
            pair="greedy-fair",
            proposer_text=text,
        )
        verdict = evaluate_transcript(t)
        assert not verdict.proposer_strategy_complete
        assert any(f.rule == "offer_change_after_reject" for f in verdict.per_round_flags)
        assert verdict.error_class is ErrorClass.BOTH

    def test_flags_carry_round_and_role(self):
        t = build_transcript([50, 50, 70, 70, 70], [ACC] * 5)
        verdict = evaluate_transcript(t)
        flag = verdict.per_round_flags[0]
        assert flag.round == 3
        assert flag.role.value == "proposer"

    def test_incomplete_transcript_is_malformed(self):
        t = build_transcript([50, 50], [ACC, ACC], rounds=5)
        with pytest.raises(MalformedTranscriptError):
            evaluate_transcript(t)


class TestVerdictProperties:
    def test_error_class_matches_the_booleans(self):
        t = build_transcript([50, 50, 50, 50, 50], [ACC] * 5)
        verdict = evaluate_transcript(t)
        assert verdict.strategy_ok
        assert verdict.gameplay_ok
        assert verdict.human_consistent
