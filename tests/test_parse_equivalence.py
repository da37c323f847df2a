"""The fast parse paths return exactly what the straightforward ones did.

Round segments are read once, marker first: the reference below is the
per-line loop that read markers and heuristics together, kept here as the
definition the marker-first reading must match. Strategy texts are parsed
through a process-wide cache, which must agree with an uncached parse and
must not let one caller's plan leak into another's.
"""

import dataclasses
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultimatum.agents import Flaw, flaw_role, oracle_strategy
from ultimatum.engine import Decision, GameConfig, format_money
from ultimatum.strategy import MIN_POT, Personality, ReceiverStrategy, Role
from ultimatum.transcripts import (
    _BRACKET_LABEL_RE,
    _DECISION_MARKER_RE,
    _OFFER_MARKER_RE,
    _OFFER_SKIP_RE,
    _OFFER_VERB_RE,
    _PAYOFF_LINE_RE,
    _check_payoffs,
    _decision_hits,
    _extract_decision,
    _extract_offer,
    _parse_strategy,
    _segment_lines,
    extract_amounts,
    parse_strategy_text,
)

# ---------------------------------------------------------------------------
# Reference: one interleaved pass per question, re-splitting the segment
# ---------------------------------------------------------------------------


def _ref_unlabel(line):
    m = _BRACKET_LABEL_RE.match(line)
    return m.group("rest") if m else line


def ref_extract_offer(segment):
    warnings = []
    fallback = None
    for line in segment.split("\n"):
        line = _ref_unlabel(line)
        m = _OFFER_MARKER_RE.match(line)
        if m:
            amounts = extract_amounts(m.group("rest"))
            if amounts:
                return amounts[0].cents, True, warnings
            warnings.append("OFFER marker without a readable amount")
        if fallback is None and _OFFER_VERB_RE.search(line) and not _OFFER_SKIP_RE.search(line):
            amounts = extract_amounts(line)
            if amounts:
                fallback = amounts[0].cents
    if fallback is not None:
        return fallback, False, warnings
    amounts = extract_amounts(segment)
    if amounts:
        warnings.append("offer taken without an offer verb nearby")
        return amounts[0].cents, False, warnings
    return None, False, warnings


def ref_extract_decision(segment):
    warnings = []
    hits = []
    for line in segment.split("\n"):
        line = _ref_unlabel(line)
        m = _DECISION_MARKER_RE.match(line)
        if m:
            marker_hits = _decision_hits(m.group("rest"))
            if marker_hits:
                return marker_hits[0], True, warnings
            warnings.append("DECISION marker without a readable decision")
        hits.extend(_decision_hits(line))
    if not hits:
        return None, False, warnings
    if any(h is not hits[0] for h in hits):
        warnings.append("conflicting decision words; using the first")
    return hits[0], False, warnings


def ref_check_payoffs(segment, offer, decision, pot, round_no):
    if decision is Decision.ACCEPT:
        expected = sorted((pot - offer, offer))
    else:
        expected = [0, 0]
    for line in segment.split("\n"):
        line = _ref_unlabel(line)
        if not _PAYOFF_LINE_RE.search(line) or _OFFER_VERB_RE.search(line):
            continue
        amounts = [a.cents for a in extract_amounts(line)]
        if len(amounts) >= 2 and sorted(amounts[:2]) != expected:
            return [
                f"round {round_no}: payoff line says {amounts[:2]}, engine computes {expected}"
            ]
    return []


# ---------------------------------------------------------------------------
# Generated round segments
# ---------------------------------------------------------------------------

# Each template takes two amounts, {a} and {b}; lines without an amount
# ignore them.
_LINE_TEMPLATES = (
    # markers, with and without an amount or a decision word
    "OFFER: {a}",
    "offer: I will give you {a}",
    "OFFER: to be decided",
    "** OFFER: {a} and later {b}",
    "DECISION: accept",
    "DECISION: reject",
    "DECISION: undecided",
    "- DECISION: I will not accept",
    "DECISION: if you insist, accept",
    # offer-verb prose, some with a word that disqualifies it
    "I offer {a} this round.",
    "We proposed {a}, then {b}.",
    "I am offering nothing yet.",
    "My threshold offer would be {a}.",
    "The strategy says to offer {a}.",
    # decision words with negations and conditionals
    "I accept.",
    "I accept your offer of {a}.",
    "I must decline.",
    "I will not accept this.",
    "I don't reject it.",
    "I never refuse a fair split.",
    "If I reject, we both get nothing.",
    "You should accept {a}.",
    "Accepted, and then rejected.",
    # payoff sentences
    "OUTCOME: the proposer receives {a} and the receiver receives {b}",
    "I get {a} and you get {b}.",
    "You keeps {a}; payoff {b}.",
    "The proposer earns {a} after offering {b}.",
    # bare amounts and noise
    "{a}",
    "Maybe {a} or {b}",
    "",
    "Let me think about it.",
    "Round over.",
)
_LABELS = ("", "[Say] ", "[Hear] ", "  [Outcome] ", "[Plan]")


def _money_forms(cents):
    return st.sampled_from(
        (format_money(cents), f"{cents} cents", f"{cents}¢", f"${cents / 100:,.2f}")
    )


_amounts = st.integers(min_value=0, max_value=200_000).flatmap(_money_forms)
_line = st.builds(
    lambda label, template, a, b: label + template.format(a=a, b=b),
    st.sampled_from(_LABELS),
    st.sampled_from(_LINE_TEMPLATES),
    _amounts,
    _amounts,
)
segments = st.lists(_line, max_size=7).map("\n".join)


@settings(max_examples=400)
@given(segment=segments)
@example(segment="I offer $0.40.\nOFFER: $0.50")
@example(segment="OFFER: soon\n[Say] DECISION: maybe\nI accept.\nI reject.")
@example(segment="[Say] 50\n[Hear] cents")
def test_offer_and_decision_match_the_interleaved_loops(segment):
    lines = _segment_lines(segment)
    assert _extract_offer(segment, lines) == ref_extract_offer(segment)
    assert _extract_decision(lines) == ref_extract_decision(segment)


@settings(max_examples=400)
@given(
    segment=segments,
    pot=st.integers(min_value=MIN_POT, max_value=10_000),
    offer_share=st.floats(min_value=0, max_value=1),
    decision=st.sampled_from(Decision),
    round_no=st.integers(min_value=1, max_value=10),
)
def test_payoff_checks_match_the_interleaved_loop(segment, pot, offer_share, decision, round_no):
    offer = int(pot * offer_share)
    assert _check_payoffs(_segment_lines(segment), offer, decision, pot, round_no) == (
        ref_check_payoffs(segment, offer, decision, pot, round_no)
    )


# ---------------------------------------------------------------------------
# Memoized strategy parses
# ---------------------------------------------------------------------------


def _fake_endpoint_text(role, personality, pot, rounds, keep_on_accept, low_threshold):
    """The strategy phrasings the benchmark's fake chat endpoint writes."""
    if role is Role.PROPOSER:
        opening = pot // 2 if personality is Personality.FAIR else pot // 5
        text = f"I will offer {format_money(opening)} in the first round."
        if keep_on_accept:
            text += " If an offer is accepted, I will keep the offer the same in the next round."
        step = max(1, pot // 20)
        return text + f" If an offer is rejected, I will increase the offer by {format_money(step)} in the next round."
    threshold = 2 * pot // 5 if personality is Personality.FAIR else 11 * pot // 20
    if low_threshold:
        threshold = pot // 4
    if rounds > 1:
        return (
            f"I will only accept offers of at least {format_money(threshold)} in rounds 1 "
            f"through {rounds - 1}. In the final round, I will accept any non-zero "
            "offer rather than walk away with nothing."
        )
    return f"I will only accept offers of at least {format_money(threshold)}."


@st.composite
def strategy_texts(draw):
    role = draw(st.sampled_from(Role))
    personality = draw(st.sampled_from(Personality))
    config = GameConfig(
        pot=draw(st.integers(min_value=MIN_POT, max_value=10_000)),
        rounds=draw(st.integers(min_value=1, max_value=10)),
    )
    if draw(st.booleans()):
        flaws = [None] + [f for f in Flaw if flaw_role(f) is role]
        text, _ = oracle_strategy(role, personality, config, draw(st.sampled_from(flaws)))
    else:
        text = _fake_endpoint_text(
            role, personality, config.pot, config.rounds, draw(st.booleans()), draw(st.booleans())
        )
    return text, role, config


@settings(max_examples=300)
@given(case=strategy_texts())
def test_memoized_parse_equals_an_uncached_parse(case):
    text, role, config = case
    uncached = _parse_strategy.__wrapped__(text, role, config)
    assert parse_strategy_text(text, role, config) == uncached
    assert parse_strategy_text(text, role, config) == uncached  # now from the cache


@pytest.mark.parametrize("rounds", [1, 5])
def test_mutating_a_returned_plan_does_not_change_a_later_parse(rounds):
    config = GameConfig(pot=100, rounds=rounds)
    text, expected = oracle_strategy(Role.RECEIVER, Personality.GREEDY, config)
    plan = parse_strategy_text(text, Role.RECEIVER, config)
    assert isinstance(plan, ReceiverStrategy) and plan == expected
    plan.round_thresholds[rounds] = 1
    plan.round_thresholds.clear()
    plan.round_thresholds[99] = 0
    assert parse_strategy_text(text, Role.RECEIVER, config) == expected

    proposer_text, _ = oracle_strategy(Role.PROPOSER, Personality.FAIR, config)
    proposer_plan = parse_strategy_text(proposer_text, Role.PROPOSER, config)
    with pytest.raises(dataclasses.FrozenInstanceError):
        proposer_plan.initial_offer = 0  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        proposer_plan.on_reject.amount = 0  # type: ignore[union-attr]


def test_parsed_plans_pickle():
    config = GameConfig(pot=250, rounds=4)
    for role in Role:
        text, _ = oracle_strategy(role, Personality.FAIR, config)
        plan = parse_strategy_text(text, role, config)
        assert pickle.loads(pickle.dumps(plan)) == plan
