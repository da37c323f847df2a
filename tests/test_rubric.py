import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ACC, REJ, FIXTURES, any_text, build_transcript, raw_logs
from ultimatum import engine
from ultimatum.agents import Flaw, flaw_role, oracle_strategy
from ultimatum.engine import Decision, GameConfig
from ultimatum.rubric import (
    _NON_OVERRIDABLE_RULES,
    ErrorClass,
    MalformedTranscriptError,
    RoundFlag,
    Verdict,
    _round_flags,
    evaluate_transcript,
)
from ultimatum.strategy import (
    ALL_PAIRS,
    MIN_POT,
    AdjustKind,
    AdjustRule,
    CutoffRule,
    FinalRoundRule,
    PersonalityPair,
    ProposerStrategy,
    ReceiverStrategy,
    Role,
    StrategySpec,
    bands_for,
    check_adherence,
    check_completeness,
    check_personality_consistency,
    follows,
    prescribed_action,
)
from ultimatum.transcripts import (
    Structure,
    Transcript,
    game_text,
    parse_canonical,
    parse_single_model_log,
    serialize_canonical,
)

GREEDY_GREEDY = PersonalityPair.from_label("greedy-greedy")

# Empty plans cover no state, so grading against them excuses no action:
# the flags left are the observed-play rules alone.
NO_PLANS = (
    StrategySpec(Role.PROPOSER, "", ProposerStrategy()),
    StrategySpec(Role.RECEIVER, "", ReceiverStrategy()),
)


def without_plans(t: Transcript) -> Transcript:
    return dataclasses.replace(t, strategies=NO_PLANS)


def opening_rules(offer, decision, pair):
    """Rules broken by a one-round game at the default pot."""
    t = build_transcript([offer], [decision], pair=pair)
    return {f.rule for f in evaluate_transcript(without_plans(t)).per_round_flags}


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
        verdict = evaluate_transcript(without_plans(t))
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

    @pytest.mark.parametrize("offer,flagged", [(1, True), (0, False)])
    def test_holding_out_against_a_one_cent_final_offer_is_flagged(self, offer, flagged):
        # One cent is something over nothing; an empty offer is nothing.
        offers, decisions = [25, 30, 35, 40, offer], [REJ] * 5
        t = build_transcript(offers, decisions, pair="greedy-greedy", rounds=5)
        rules = {
            f.rule
            for f in evaluate_transcript(without_plans(t)).per_round_flags
            if f.round == 5 and f.role is Role.RECEIVER
        }
        assert rules == ({"final_round_capitulation"} if flagged else set())

    @pytest.mark.parametrize(
        "offers,decisions,flagged",
        [
            # The greedy ceiling at pot 100 is 51: rejecting exactly it raises it.
            ([20, 51], [REJ, REJ], True),
            ([20, 50], [REJ, REJ], False),
            # Accepting 45 lowers the ceiling to 45.
            ([45, 45], [ACC, REJ], True),
            ([45, 44], [ACC, REJ], False),
        ],
    )
    def test_rejecting_exactly_the_ceiling_is_flagged(self, offers, decisions, flagged):
        receiver_flagged = Role.RECEIVER in self._flagged(offers, decisions, pair="greedy-greedy")
        assert receiver_flagged is flagged


class TestEvaluateTranscript:
    def test_clean_game_has_no_errors(self):
        t = build_transcript([50, 50, 50, 50, 50], [ACC] * 5)
        verdict = evaluate_transcript(t)
        assert verdict.error_class is ErrorClass.NONE
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

    @pytest.mark.parametrize(
        "rounds, expected", [(1, ErrorClass.NONE), (2, ErrorClass.STRATEGY_ONLY)]
    )
    def test_an_opening_only_plan_is_complete_in_a_one_round_game(self, rounds, expected):
        t = build_transcript(
            [50] * rounds,
            [ACC] * rounds,
            proposer_text="I will offer $0.50 in the first round.",
        )
        verdict = evaluate_transcript(t)
        assert verdict.proposer_strategy_complete is (rounds == 1)
        assert verdict.error_class is expected

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
        verdict = evaluate_transcript(without_plans(t))
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

    def test_keeping_the_threshold_in_the_final_round_is_followed(self):
        # The final round keeps round 4's 65-cent threshold, so accepting 65
        # follows the plan.
        t = build_transcript(
            [50, 55, 60, 65, 65],
            [REJ, REJ, REJ, ACC, ACC],
            pair="fair-greedy",
            receiver_text="I will accept at least $0.65 in rounds 1 through 4. "
            "In the final round, I will keep the same threshold.",
        )
        assert t.strategies[1].parsed.final_round_rule is FinalRoundRule.KEEP_THRESHOLD
        verdict = evaluate_transcript(t)
        assert verdict.receiver_strategy_complete
        assert verdict.receiver_adherent
        assert verdict.error_class is ErrorClass.NONE

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
        assert verdict.error_class is ErrorClass.NONE


_STEPS = st.sampled_from([AdjustKind.INCREASE_BY, AdjustKind.DECREASE_BY])


@given(pot=st.integers(min_value=MIN_POT, max_value=1000), rounds=st.integers(1, 8), data=st.data())
def test_followed_complete_plans_excuse_every_overridable_flag(pot, rounds, data):
    """Adherence and the excusing of band breaks apply one rule.

    Both players follow complete plans (offers drift within the pot's
    slack), so the game is adherent, and every band break it shows is
    sanctioned by a plan except the capitulation rule, which no plan
    excuses.
    """
    amount = st.integers(0, pot)
    rule = st.one_of(
        st.just(AdjustRule(AdjustKind.KEEP)),
        st.builds(AdjustRule, _STEPS, st.none() | st.integers(0, pot // 4)),
        st.builds(AdjustRule, st.just(AdjustKind.SET_TO), amount),
    )
    proposer = ProposerStrategy(
        initial_offer=data.draw(amount),
        on_accept=data.draw(rule),
        on_reject=data.draw(rule),
        cutoff=data.draw(st.none() | st.builds(CutoffRule, amount)),
    )
    threshold = st.integers(0, pot + 1)
    receiver = ReceiverStrategy(
        threshold=data.draw(threshold),
        round_thresholds=data.draw(st.dictionaries(st.integers(1, rounds), threshold)),
        final_round_rule=data.draw(st.none() | st.sampled_from(FinalRoundRule)),
    )
    specs = (StrategySpec(Role.PROPOSER, "", proposer), StrategySpec(Role.RECEIVER, "", receiver))
    config = GameConfig(pot=pot, rounds=rounds)
    slack = bands_for(pot).slack
    state = engine.new_game(config)
    for r in range(1, rounds + 1):
        planned = prescribed_action(specs[0], config, state.history, r)
        offer = data.draw(st.integers(max(0, planned.lo - slack), min(pot, planned.hi + slack)))
        state = engine.submit_offer(state, offer)
        decision = prescribed_action(specs[1], config, state.history, r, pending_offer=offer)
        state, _ = engine.submit_decision(state, decision.decision)
    pair = data.draw(st.sampled_from(ALL_PAIRS))
    t = Transcript(config, pair, Structure.SINGLE_MODEL, specs, state.history)

    verdict = evaluate_transcript(t)
    assert verdict.proposer_strategy_complete and verdict.receiver_strategy_complete
    assert verdict.proposer_adherent and verdict.receiver_adherent
    assert {f.rule for f in verdict.per_round_flags} <= {"final_round_capitulation"}


# ---------------------------------------------------------------------------
# Reference: the band breaks judged one round at a time
# ---------------------------------------------------------------------------
# `_round_flags` judges every round in one walk that carries the round
# before, whether every round so far was rejected and the receiver's
# ceiling. The reference below is the per-round form it replaced, which
# rebuilt all three from the rounds before each one; the walk must give the
# same flags in the same order, and the same verdict.


def ref_round_flags(transcript, outcome):
    bands, pair = bands_for(transcript.config.pot), transcript.pair
    r, offer, decision = outcome.round, outcome.offer, outcome.decision
    flags = []
    if r == 1:
        if not bands.offer_fits(pair.proposer, offer):
            flags.append(RoundFlag(1, Role.PROPOSER, "opening_offer_band"))
        if (decision is Decision.ACCEPT) != (offer >= bands.accept_min(pair.receiver)):
            flags.append(RoundFlag(1, Role.RECEIVER, "opening_decision_band"))
        return flags
    history = transcript.rounds[: r - 1]
    prev = history[-1]
    if prev.decision is Decision.ACCEPT:
        if abs(offer - prev.offer) > bands.slack:
            flags.append(RoundFlag(r, Role.PROPOSER, "offer_change_after_accept"))
    else:
        lo, hi = bands.step
        if not lo <= offer - prev.offer <= hi:
            flags.append(RoundFlag(r, Role.PROPOSER, "offer_change_after_reject"))
    if decision is Decision.REJECT:
        all_rejected = all(o.decision is Decision.REJECT for o in history)
        ceiling = min(
            [bands.accept_min(pair.receiver)]
            + [o.offer for o in history if o.decision is Decision.ACCEPT]
        )
        if r == transcript.config.rounds and all_rejected and offer >= 1:
            flags.append(RoundFlag(r, Role.RECEIVER, "final_round_capitulation"))
        elif offer >= ceiling:
            flags.append(RoundFlag(r, Role.RECEIVER, "threshold_raised"))
    return flags


def ref_evaluate_transcript(transcript):
    game, pair, specs = transcript.config, transcript.pair, transcript.strategies
    prop_spec, recv_spec = specs
    proposer_adherent, receiver_adherent = check_adherence(specs, transcript)
    spec_of = {Role.PROPOSER: prop_spec, Role.RECEIVER: recv_spec}
    flags = [
        flag
        for outcome in transcript.rounds
        for flag in ref_round_flags(transcript, outcome)
        if flag.rule in _NON_OVERRIDABLE_RULES
        or not follows(spec_of[flag.role], transcript, flag.round)
    ]
    return Verdict(
        proposer_strategy_complete=check_completeness(prop_spec, game),
        receiver_strategy_complete=check_completeness(recv_spec, game),
        proposer_strategy_consistent=check_personality_consistency(prop_spec, pair.proposer, game),
        receiver_strategy_consistent=check_personality_consistency(recv_spec, pair.receiver, game),
        proposer_adherent=proposer_adherent,
        receiver_adherent=receiver_adherent,
        gameplay_human_consistent=not flags,
        per_round_flags=tuple(flags),
    )


@st.composite
def played_games(draw) -> Transcript:
    """A game of drawn pot, rounds and pair with every accept/reject
    history, whose offers sit at 0, 1, the pot, the band edges, the step
    bounds and the slack after the round before (each +-1) and at the
    accepted offers +-1, or anywhere in the pot. Its plans are none, the
    oracles' own (flawed or not), or drawn field by field."""
    config = GameConfig(pot=draw(st.integers(MIN_POT, 10_000)), rounds=draw(st.integers(1, 10)))
    pot, pair = config.pot, draw(st.sampled_from(ALL_PAIRS))
    bands = bands_for(pot)
    (lo, hi), slack = bands.step, bands.slack
    edges = {0, 1, pot, *bands.fair_offer, bands.greedy_offer_below, *bands.fair_threshold, bands.greedy_min}
    actions = []
    for _ in range(config.rounds):
        marks = set(edges)
        if actions:
            prev = actions[-1][0]
            marks.update(prev + d for d in (0, lo, hi, slack, -slack))
        marks.update(offer for offer, decision in actions if decision is Decision.ACCEPT)
        marks = {m + d for m in marks for d in (-1, 0, 1) if 0 <= m + d <= pot}
        offer = draw(st.sampled_from(sorted(marks)) | st.integers(0, pot))
        actions.append((offer, draw(st.sampled_from(Decision))))
    _, outcomes = engine.replay(config, actions)

    plans = draw(st.sampled_from(["none", "oracle", "drawn"]))
    if plans == "none":
        specs = NO_PLANS
    elif plans == "oracle":
        specs = tuple(
            StrategySpec(role, *oracle_strategy(
                role, personality, config,
                draw(st.sampled_from([None] + [f for f in Flaw if flaw_role(f) is role])),
            ))
            for role, personality in ((Role.PROPOSER, pair.proposer), (Role.RECEIVER, pair.receiver))
        )
    else:
        amount = st.none() | st.integers(0, pot + 1)
        rule = st.sampled_from([None, AdjustRule(AdjustKind.KEEP)]) | st.builds(
            AdjustRule, _STEPS, st.none() | st.integers(0, pot // 4)
        ) | st.builds(AdjustRule, st.just(AdjustKind.SET_TO), st.integers(0, pot))
        specs = (
            StrategySpec(Role.PROPOSER, "", ProposerStrategy(
                draw(amount), draw(rule), draw(rule), draw(st.none() | st.builds(CutoffRule, amount))
            )),
            StrategySpec(Role.RECEIVER, "", ReceiverStrategy(
                draw(amount),
                draw(st.dictionaries(st.integers(1, config.rounds), st.integers(0, pot + 1))),
                draw(st.none() | st.sampled_from(FinalRoundRule)),
            )),
        )
    return Transcript(config, pair, Structure.SINGLE_MODEL, specs, tuple(outcomes))


@settings(max_examples=300)
@given(transcript=played_games())
def test_round_flags_in_one_walk_match_the_per_round_reference(transcript):
    assert _round_flags(transcript) == [
        flag for outcome in transcript.rounds for flag in ref_round_flags(transcript, outcome)
    ]
    assert evaluate_transcript(transcript) == ref_evaluate_transcript(transcript)


# Raw-log text, including text that reads like a rawlog line once unquoted.
raw_log_text = any_text | st.sampled_from(["\nrawlog ", 'rawlog "a" "b"\n', " structure=multi_agent"])


@settings(max_examples=200)
@given(transcript=played_games(), data=st.data())
def test_transcripts_with_one_game_text_get_one_verdict(transcript, data):
    # The game under either structure, with any raw logs: one game text, and
    # every stored text of it reads back to the game's own verdict.
    variants = [
        dataclasses.replace(
            transcript,
            structure=data.draw(st.sampled_from(Structure)),
            raw_logs=data.draw(raw_logs(raw_log_text)),
        )
        for _ in range(2)
    ]
    texts = [serialize_canonical(variant) for variant in variants]
    assert game_text(texts[0]) == game_text(texts[1])
    verdict = evaluate_transcript(transcript)
    assert [evaluate_transcript(parse_canonical(text)) for text in texts] == [verdict, verdict]
    # The game text is the game's whole text less its structure, so games
    # that differ anywhere else have different game texts.
    bare = serialize_canonical(dataclasses.replace(transcript, raw_logs=()))
    assert game_text(texts[0]) == bare.replace(" structure=single_model", "", 1)
