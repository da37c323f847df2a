import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ACC, REJ, build_transcript, oracle_text
from ultimatum import strategy
from ultimatum.engine import Decision, GameConfig
from ultimatum.transcripts import parse_strategy_text
from ultimatum.strategy import (
    ALL_PAIRS,
    AdjustKind,
    AdjustRule,
    CutoffRule,
    FinalRoundRule,
    Personality,
    PersonalityPair,
    PrescribedDecision,
    PrescribedOffer,
    ProposerStrategy,
    ReceiverStrategy,
    Role,
    StrategySpec,
    check_adherence,
    check_completeness,
    check_personality_consistency,
    bands_for,
    follows,
    prescribed_action,
)

CONFIG = GameConfig()


def proposer_spec(plan: ProposerStrategy) -> StrategySpec:
    return StrategySpec(Role.PROPOSER, "stub", plan)


def receiver_spec(plan: ReceiverStrategy) -> StrategySpec:
    return StrategySpec(Role.RECEIVER, "stub", plan)


FULL_PROPOSER = ProposerStrategy(
    initial_offer=50,
    on_accept=AdjustRule(AdjustKind.KEEP),
    on_reject=AdjustRule(AdjustKind.INCREASE_BY, 5),
)
FULL_RECEIVER = ReceiverStrategy(threshold=40)


class TestPersonalityPair:
    def test_label_round_trip(self):
        for pair in ALL_PAIRS:
            assert PersonalityPair.from_label(pair.label()) == pair

    def test_all_pairs_order(self):
        assert [p.label() for p in ALL_PAIRS] == [
            "fair-fair",
            "fair-greedy",
            "greedy-fair",
            "greedy-greedy",
        ]

    def test_bad_label_raises(self):
        with pytest.raises(ValueError):
            PersonalityPair.from_label("fair-stingy")


class TestAdjustRule:
    def test_keep_takes_no_amount(self):
        with pytest.raises(ValueError):
            AdjustRule(AdjustKind.KEEP, 5)

    def test_set_to_requires_an_amount(self):
        with pytest.raises(ValueError):
            AdjustRule(AdjustKind.SET_TO)

    def test_amounts_must_be_non_negative(self):
        with pytest.raises(ValueError):
            AdjustRule(AdjustKind.DECREASE_BY, -1)

    def test_open_amount_is_allowed(self):
        assert AdjustRule(AdjustKind.INCREASE_BY).amount is None


class TestThresholdLookup:
    def test_blanket_covers_every_round(self):
        plan = ReceiverStrategy(threshold=40)
        assert [plan.threshold_for(r) for r in range(1, 6)] == [40] * 5

    def test_round_entries_override_the_blanket(self):
        plan = ReceiverStrategy(threshold=40, round_thresholds={3: 30})
        assert plan.threshold_for(3) == 30
        assert plan.threshold_for(2) == 40

    def test_uncovered_round_is_none(self):
        plan = ReceiverStrategy(round_thresholds={1: 40})
        assert plan.threshold_for(2) is None


class TestCompleteness:
    def test_full_proposer_plan_is_complete(self):
        assert check_completeness(proposer_spec(FULL_PROPOSER), CONFIG) is True

    @pytest.mark.parametrize(
        "kwargs", [{"initial_offer": None}, {"on_accept": None}, {"on_reject": None}]
    )
    def test_each_missing_proposer_case_is_reported(self, kwargs):
        plan = ProposerStrategy(
            initial_offer=kwargs.get("initial_offer", 50),
            on_accept=kwargs.get("on_accept", AdjustRule(AdjustKind.KEEP)),
            on_reject=kwargs.get("on_reject", AdjustRule(AdjustKind.INCREASE_BY, 5)),
        )
        assert check_completeness(proposer_spec(plan), CONFIG) is False

    def test_cutoff_is_optional(self):
        with_cutoff = ProposerStrategy(
            initial_offer=50,
            on_accept=AdjustRule(AdjustKind.KEEP),
            on_reject=AdjustRule(AdjustKind.INCREASE_BY, 5),
            cutoff=CutoffRule(limit=None),
        )
        assert check_completeness(proposer_spec(with_cutoff), CONFIG)

    def test_a_one_round_game_needs_only_the_opening_offer(self):
        # Neither continuation is reachable when there is no second round.
        opening_only = proposer_spec(ProposerStrategy(initial_offer=50))
        assert check_completeness(opening_only, GameConfig(rounds=1))
        assert check_completeness(opening_only, GameConfig(rounds=2)) is False
        assert check_completeness(proposer_spec(ProposerStrategy()), GameConfig(rounds=1)) is False

    def test_blanket_receiver_plan_is_complete(self):
        assert check_completeness(receiver_spec(FULL_RECEIVER), CONFIG)

    def test_uncovered_rounds_are_listed(self):
        plan = ReceiverStrategy(round_thresholds={1: 40, 2: 40})
        assert check_completeness(receiver_spec(plan), CONFIG) is False
        for covered in range(3, 6):
            # Every round through the last needs its own threshold.
            plan = ReceiverStrategy(round_thresholds={r: 40 for r in range(1, covered + 1)})
            assert check_completeness(receiver_spec(plan), CONFIG) is (covered == 5)

    def test_final_round_rule_covers_the_last_round(self):
        plan = ReceiverStrategy(
            round_thresholds={1: 40, 2: 40, 3: 40, 4: 40},
            final_round_rule=FinalRoundRule.ACCEPT_ANY_NONZERO,
        )
        assert check_completeness(receiver_spec(plan), CONFIG)

    def test_keeping_the_threshold_needs_one_to_keep(self):
        keep = FinalRoundRule.KEEP_THRESHOLD
        kept = ReceiverStrategy(round_thresholds={1: 65, 2: 65, 3: 65, 4: 65}, final_round_rule=keep)
        assert check_completeness(receiver_spec(kept), CONFIG)
        # A one-round game has no earlier round whose threshold could be kept.
        nothing_to_keep = ReceiverStrategy(final_round_rule=keep)
        assert check_completeness(receiver_spec(nothing_to_keep), GameConfig(rounds=1)) is False

    def test_reject_everything_is_still_complete(self):
        plan = ReceiverStrategy(threshold=CONFIG.pot + 1)
        assert check_completeness(receiver_spec(plan), CONFIG)


class TestConsistency:
    @pytest.mark.parametrize("offer,expected", [(39, False), (40, True), (60, True), (61, False)])
    def test_fair_proposer_band_is_inclusive(self, offer, expected):
        plan = ProposerStrategy(initial_offer=offer, on_accept=None, on_reject=None)
        assert check_personality_consistency(proposer_spec(plan), Personality.FAIR, CONFIG) is expected

    @pytest.mark.parametrize("offer,expected", [(49, True), (50, False)])
    def test_greedy_proposer_opens_below_half(self, offer, expected):
        plan = ProposerStrategy(initial_offer=offer, on_accept=None, on_reject=None)
        assert check_personality_consistency(proposer_spec(plan), Personality.GREEDY, CONFIG) is expected

    @pytest.mark.parametrize("threshold,expected", [(39, False), (40, True), (50, True), (51, False)])
    def test_fair_receiver_band(self, threshold, expected):
        plan = ReceiverStrategy(threshold=threshold)
        assert check_personality_consistency(receiver_spec(plan), Personality.FAIR, CONFIG) is expected

    @pytest.mark.parametrize("threshold,expected", [(50, False), (51, True), (101, True)])
    def test_greedy_receiver_band(self, threshold, expected):
        plan = ReceiverStrategy(threshold=threshold)
        assert check_personality_consistency(receiver_spec(plan), Personality.GREEDY, CONFIG) is expected

    def test_missing_opening_intent_is_undecidable(self):
        plan = ProposerStrategy(initial_offer=None, on_accept=None, on_reject=None)
        # Completeness charges the gap, so consistency lets it pass.
        assert check_personality_consistency(proposer_spec(plan), Personality.FAIR, CONFIG) is True

    def test_receiver_round_one_entry_decides(self):
        plan = ReceiverStrategy(round_thresholds={1: 55})
        assert check_personality_consistency(receiver_spec(plan), Personality.GREEDY, CONFIG) is True


class TestPrescribedAction:
    def test_round_one_is_the_opening_offer(self):
        action = prescribed_action(proposer_spec(FULL_PROPOSER), CONFIG, [], 1)
        assert action == PrescribedOffer(50, 50)

    def test_keep_after_acceptance(self):
        t = build_transcript([50], [ACC])
        action = prescribed_action(proposer_spec(FULL_PROPOSER), CONFIG, t.rounds, 2)
        assert action == PrescribedOffer(50, 50)

    def test_increase_after_rejection(self):
        t = build_transcript([50], [REJ])
        action = prescribed_action(proposer_spec(FULL_PROPOSER), CONFIG, t.rounds, 2)
        assert action == PrescribedOffer(55, 55)

    def test_open_step_spans_the_default_range(self):
        plan = ProposerStrategy(
            initial_offer=50,
            on_accept=AdjustRule(AdjustKind.KEEP),
            on_reject=AdjustRule(AdjustKind.INCREASE_BY),
        )
        t = build_transcript([50], [REJ])
        action = prescribed_action(proposer_spec(plan), CONFIG, t.rounds, 2)
        lo, hi = bands_for(CONFIG.pot).step
        assert (lo, hi) == (1, 15)
        assert action == PrescribedOffer(50 + lo, 50 + hi)

    def test_cutoff_caps_the_prescription(self):
        plan = ProposerStrategy(
            initial_offer=50,
            on_accept=AdjustRule(AdjustKind.KEEP),
            on_reject=AdjustRule(AdjustKind.INCREASE_BY, 20),
            cutoff=CutoffRule(limit=60),
        )
        t = build_transcript([50], [REJ])
        action = prescribed_action(proposer_spec(plan), CONFIG, t.rounds, 2)
        assert action == PrescribedOffer(60, 60)

    def test_offers_never_exceed_the_pot(self):
        plan = ProposerStrategy(
            initial_offer=95,
            on_accept=AdjustRule(AdjustKind.KEEP),
            on_reject=AdjustRule(AdjustKind.INCREASE_BY, 20),
        )
        t = build_transcript([95], [REJ])
        action = prescribed_action(proposer_spec(plan), CONFIG, t.rounds, 2)
        assert action == PrescribedOffer(100, 100)

    def test_receiver_threshold_decides(self):
        spec = receiver_spec(FULL_RECEIVER)
        accept = prescribed_action(spec, CONFIG, [], 1, pending_offer=40)
        reject = prescribed_action(spec, CONFIG, [], 1, pending_offer=39)
        assert accept == PrescribedDecision(Decision.ACCEPT)
        assert reject == PrescribedDecision(Decision.REJECT)

    def test_final_round_accept_any_nonzero(self):
        plan = ReceiverStrategy(
            round_thresholds={r: 40 for r in range(1, 5)},
            final_round_rule=FinalRoundRule.ACCEPT_ANY_NONZERO,
        )
        t = build_transcript([10, 10, 10, 10], [REJ, REJ, REJ, REJ], rounds=5)
        spec = receiver_spec(plan)
        assert prescribed_action(spec, CONFIG, t.rounds, 5, pending_offer=1) == PrescribedDecision(Decision.ACCEPT)
        assert prescribed_action(spec, CONFIG, t.rounds, 5, pending_offer=0) == PrescribedDecision(Decision.REJECT)

    def test_final_round_accept_any_nonzero_lowers_a_named_threshold(self):
        # The plan names a threshold for the final round too; the rule
        # still takes a single cent there.
        plan = ReceiverStrategy(
            threshold=40, final_round_rule=FinalRoundRule.ACCEPT_ANY_NONZERO
        )
        t = build_transcript([10, 10, 10, 10], [REJ, REJ, REJ, REJ], rounds=5)
        spec = receiver_spec(plan)
        assert prescribed_action(spec, CONFIG, t.rounds, 5, pending_offer=1) == PrescribedDecision(Decision.ACCEPT)
        assert prescribed_action(spec, CONFIG, t.rounds, 5, pending_offer=0) == PrescribedDecision(Decision.REJECT)
        assert prescribed_action(spec, CONFIG, t.rounds, 4, pending_offer=39) == PrescribedDecision(Decision.REJECT)

    def test_final_round_keeps_the_previous_threshold(self):
        plan = ReceiverStrategy(
            round_thresholds={1: 65, 2: 65, 3: 65, 4: 65},
            final_round_rule=FinalRoundRule.KEEP_THRESHOLD,
        )
        t = build_transcript([50, 55, 60, 65], [REJ, REJ, REJ, ACC], rounds=5)
        spec = receiver_spec(plan)
        assert prescribed_action(spec, CONFIG, t.rounds, 5, pending_offer=65) == PrescribedDecision(Decision.ACCEPT)
        assert prescribed_action(spec, CONFIG, t.rounds, 5, pending_offer=64) == PrescribedDecision(Decision.REJECT)
        # With no round-4 threshold there is nothing to keep.
        gap = ReceiverStrategy(round_thresholds={1: 65, 2: 65, 3: 65}, final_round_rule=FinalRoundRule.KEEP_THRESHOLD)
        assert prescribed_action(receiver_spec(gap), CONFIG, t.rounds, 5, pending_offer=65) is None

    def test_uncovered_state_is_none(self):
        plan = ReceiverStrategy(round_thresholds={1: 40})
        t = build_transcript([10], [REJ], rounds=5)
        assert prescribed_action(receiver_spec(plan), CONFIG, t.rounds, 1, pending_offer=10) is not None
        assert prescribed_action(receiver_spec(plan), CONFIG, t.rounds, 2, pending_offer=10) is None

    def test_uncovered_proposer_branch_is_none(self):
        plan = ProposerStrategy(initial_offer=50, on_accept=None, on_reject=AdjustRule(AdjustKind.INCREASE_BY, 5))
        t = build_transcript([50], [ACC])
        assert prescribed_action(proposer_spec(plan), CONFIG, t.rounds, 2) is None

    def test_receiver_query_needs_a_pending_offer(self):
        with pytest.raises(ValueError):
            prescribed_action(receiver_spec(FULL_RECEIVER), CONFIG, [], 1)

    @pytest.mark.parametrize("round_no", [0, CONFIG.rounds + 1])
    def test_a_round_outside_the_game_is_refused(self, round_no):
        t = build_transcript([50] * 5, [REJ] * 5)
        with pytest.raises(ValueError, match=f"round {round_no} outside 1..5"):
            prescribed_action(proposer_spec(FULL_PROPOSER), CONFIG, t.rounds, round_no)

    def test_history_must_reach_the_queried_round(self):
        with pytest.raises(ValueError):
            prescribed_action(proposer_spec(FULL_PROPOSER), CONFIG, [], 3)

    @pytest.mark.parametrize(
        "spec, pending", [(proposer_spec(FULL_PROPOSER), None), (receiver_spec(FULL_RECEIVER), 50)]
    )
    def test_a_history_one_round_short_is_refused(self, spec, pending):
        t = build_transcript([50], [REJ])
        with pytest.raises(ValueError, match="history has 1 rounds, need 2"):
            prescribed_action(spec, CONFIG, t.rounds, 3, pending_offer=pending)


@pytest.mark.parametrize(
    "role, plan",
    [(Role.PROPOSER, FULL_RECEIVER), (Role.RECEIVER, FULL_PROPOSER)],
    ids=["proposer", "receiver"],
)
def test_a_spec_holding_the_other_roles_plan_is_refused(role, plan):
    with pytest.raises(ValueError, match=f"{role.value} spec holds {type(plan).__name__}"):
        StrategySpec(role, "stub", plan)


class TestPrescriptionValues:
    def test_fields_cannot_be_assigned(self):
        for value, field in ((PrescribedOffer(40, 60), "lo"), (PrescribedDecision(Decision.ACCEPT), "decision")):
            with pytest.raises(AttributeError):
                setattr(value, field, 0)

    def test_prescriptions_keep_their_repr_equality_and_hash(self):
        offer, decision = PrescribedOffer(40, 60), PrescribedDecision(Decision.REJECT)
        assert repr(offer) == "PrescribedOffer(lo=40, hi=60)"
        assert repr(decision) == "PrescribedDecision(decision=<Decision.REJECT: 'reject'>)"
        assert (offer.lo, offer.hi, decision.decision) == (40, 60, Decision.REJECT)
        same_offer, same_decision = PrescribedOffer(lo=40, hi=60), PrescribedDecision(Decision.REJECT)
        assert offer == same_offer and hash(offer) == hash(same_offer)
        assert decision == same_decision and hash(decision) == hash(same_decision)
        assert offer != PrescribedOffer(60, 40)
        assert decision != PrescribedDecision(Decision.ACCEPT)
        assert len({offer, same_offer, decision, same_decision}) == 2


class TestAdherence:
    def test_clean_oracle_game_is_adherent(self):
        t = build_transcript([20, 25, 30, 35, 40], [REJ, REJ, REJ, REJ, ACC], pair="greedy-fair")
        assert check_adherence(t.strategies, t) == (True, True)
        assert all(follows(spec, t, r) for spec in t.strategies for r in range(1, 6))

    def test_each_round_is_checked_against_the_whole_game_not_a_copy(self, monkeypatch):
        # A fresh slice of the earlier rounds for every round made grading
        # quadratic in the round count; prescribed_action reads one round.
        t = build_transcript([20, 25, 30, 35, 40], [REJ, REJ, REJ, REJ, ACC], pair="greedy-fair")
        histories, prescribe = [], strategy.prescribed_action

        def spy(spec, config, history, *args, **kwargs):
            histories.append(history)
            return prescribe(spec, config, history, *args, **kwargs)

        monkeypatch.setattr(strategy, "prescribed_action", spy)
        assert check_adherence(t.strategies, t) == (True, True)
        assert len(histories) == 10 and all(history is t.rounds for history in histories)

    def test_offer_tolerance_is_five_cents(self):
        inside = build_transcript([50, 55], [ACC, ACC])
        outside = build_transcript([50, 56], [ACC, ACC])
        assert check_adherence(inside.strategies, inside) == (True, True)
        assert check_adherence(outside.strategies, outside) == (False, True)
        proposer = outside.strategies[0]
        assert [follows(proposer, outside, r) for r in (1, 2)] == [True, False]

    def test_receiver_decisions_have_no_slack_by_default(self):
        t = build_transcript([39, 50, 50, 50, 50], [ACC, ACC, ACC, ACC, ACC])
        assert check_adherence(t.strategies, t)[1] is False
        receiver = t.strategies[1]
        assert [follows(receiver, t, r) for r in range(1, 6)] == [False, True, True, True, True]

    def test_uncovered_states_are_skipped(self):
        text = "I will offer $0.50 in the first round."
        t = build_transcript([50, 90], [REJ, ACC], proposer_text=text)
        assert follows(t.strategies[0], t, 2) is None
        assert check_adherence(t.strategies, t)[0] is True

    def test_specs_must_be_ordered(self):
        t = build_transcript([50], [ACC])
        with pytest.raises(ValueError):
            check_adherence((t.strategies[1], t.strategies[0]), t)

    @pytest.mark.parametrize("roles", [(0, 0), (1, 1)], ids=["two proposers", "two receivers"])
    def test_each_spec_must_hold_its_own_role(self, roles):
        t = build_transcript([50], [ACC])
        with pytest.raises(ValueError, match="specs must be"):
            check_adherence(tuple(t.strategies[i] for i in roles), t)


class TestOracleTexts:
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label())
    def test_oracle_texts_parse_complete_and_consistent(self, pair):
        for role, personality in ((Role.PROPOSER, pair.proposer), (Role.RECEIVER, pair.receiver)):
            text = oracle_text(role, personality)
            spec = StrategySpec(role, text, parse_strategy_text(text, role, CONFIG))
            assert check_completeness(spec, CONFIG)
            assert check_personality_consistency(spec, personality, CONFIG)


@given(
    initial=st.integers(min_value=0, max_value=100),
    accept_kind=st.sampled_from([AdjustKind.KEEP, AdjustKind.INCREASE_BY, AdjustKind.DECREASE_BY, AdjustKind.SET_TO]),
    reject_kind=st.sampled_from([AdjustKind.KEEP, AdjustKind.INCREASE_BY, AdjustKind.DECREASE_BY, AdjustKind.SET_TO]),
    amounts=st.tuples(st.integers(min_value=0, max_value=120), st.integers(min_value=0, max_value=120)),
    offers=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=4),
    decisions_seed=st.integers(min_value=0, max_value=2**16),
)
def test_complete_proposer_plans_always_prescribe_a_legal_offer(
    initial, accept_kind, reject_kind, amounts, offers, decisions_seed
):
    """A plan with no gaps yields an offer range inside [0, pot] at every state."""

    def rule(kind, amount):
        if kind is AdjustKind.KEEP:
            return AdjustRule(kind)
        return AdjustRule(kind, amount)

    plan = ProposerStrategy(
        initial_offer=initial,
        on_accept=rule(accept_kind, amounts[0]),
        on_reject=rule(reject_kind, amounts[1]),
    )
    import random

    rng = random.Random(decisions_seed)
    decisions = [rng.choice([ACC, REJ]) for _ in offers]
    t = build_transcript(offers, decisions, rounds=len(offers) + 1)
    action = prescribed_action(proposer_spec(plan), t.config, t.rounds, len(offers) + 1)
    assert isinstance(action, PrescribedOffer)
    assert 0 <= action.lo <= action.hi <= t.config.pot
