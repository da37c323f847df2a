"""The fast parse paths return exactly what the straightforward ones did.

Round segments are read once, marker first: the reference below is the
per-line loop that read markers and heuristics together, kept here as the
definition the marker-first reading must match. Both log parsers read
their rounds through one shared round reader; the references below are
the two parsers as they were written before, each with its own loop, and
the shared reading must give the same transcripts, diagnostics and errors.
The log and reply patterns that open with a first-character test must
match exactly as the plain forms they replaced, which are kept below.
Strategy texts are parsed through a process-wide cache, which must agree
with an uncached parse and must not let one caller's plan leak into
another's. Single agent replies are read through process-wide caches too,
which must agree with an uncached reading. The round chain is chosen in one
pass from the last candidate, and must choose what the nested loop it
replaced chose. Replies and payoff lines read amounts as cents alone, which
must be the cents `extract_amounts` reads, and both the cents the reader
read before the long-number rule.
"""

import dataclasses
import json
import pickle
import re
import string
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ultimatum import engine, transcripts
from ultimatum.agents import Flaw, ReplayGateway, flaw_role, oracle_strategy
from ultimatum.engine import Decision, GameConfig, format_money
from ultimatum.experiment import load_plan, run_batch
from ultimatum.strategy import (
    ALL_PAIRS,
    MIN_POT,
    Personality,
    ReceiverStrategy,
    Role,
    StrategySpec,
)
from ultimatum.transcripts import (
    _AMOUNT_RE,
    _BRACKET_LABEL_RE,
    _DECISION_MARKER_RE,
    _OFFER_MARKER_RE,
    _OFFER_SKIP_RE,
    _OFFER_VERB_RE,
    _PAYOFF_LINE_RE,
    Confidence,
    InconsistentLogsError,
    ParseDiagnostics,
    Structure,
    Transcript,
    UnparseableLogError,
    _agent_strategy_text,
    _check_payoffs,
    _decision_hits,
    _extract_decision,
    _extract_offer,
    _amount_cents,
    _parse_strategy,
    _player_sections,
    _round_chain,
    _segment_lines,
    _strategy_marker_blocks,
    extract_amounts,
    extract_decision_reply,
    extract_offer_reply,
    parse_agent_log,
    parse_single_model_log,
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
    forms = (format_money(cents), f"{cents} cents", f"{cents}¢", f"${cents / 100:,.2f}")
    return st.sampled_from(forms + ((f"$.{cents:02d}",) if cents < 100 else ()))


# Amounts under a dollar are drawn often enough for the "$.50" spelling to show.
_amounts = st.one_of(st.integers(0, 99), st.integers(0, 200_000)).flatmap(_money_forms)
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


# ---------------------------------------------------------------------------
# Memoized reply extraction
# ---------------------------------------------------------------------------


_MALFORMED = (
    "OFFER $0.50",
    "OFFER:: fifty",
    "DECISION accept",
    "DECISION: acc ept",
    "$",
    "$.",
    "cents",
    "¢45",
    "$1,25.0",
    "OFFER: $-0.10",
    "[Say]",
    "[] OFFER: {a}",
)
_reply_line = st.one_of(
    st.builds(
        lambda label, template, a, b: label + template.format(a=a, b=b),
        st.sampled_from(_LABELS),
        st.sampled_from(_LINE_TEMPLATES + _MALFORMED),
        _amounts,
        _amounts,
    ),
    st.text(max_size=20),
)
replies = st.lists(_reply_line, max_size=4).map("\n".join)


@settings(max_examples=300)
@given(batch=st.lists(replies, min_size=1, max_size=6))
@example(batch=["OFFER: $.45", "OFFER: $.54"])
@example(batch=["I offer $0.40 this round.", "I offer $0.45 this round."])
@example(batch=["[Say] DECISION: I will not accept", "[Say] DECISION: I will accept"])
@example(batch=["I offer $1,250.00, then 45¢.", "45¢"])
def test_memoized_reply_extraction_equals_an_uncached_one(batch):
    # Replies that differ only in part must not share a cached reading.
    for extract in (extract_offer_reply, extract_decision_reply):
        uncached = [extract.__wrapped__(reply) for reply in batch]
        assert [extract(reply) for reply in batch] == uncached
        assert [extract(reply) for reply in batch] == uncached  # now from the cache


def test_the_reply_caches_are_bounded():
    assert extract_offer_reply.cache_info().maxsize == 4096
    assert extract_decision_reply.cache_info().maxsize == 4096


def test_a_replay_reads_the_same_from_warm_reply_caches(fixtures_dir):
    folder = fixtures_dir / "replay"
    plan = load_plan(folder / "plan.yaml")
    extract_offer_reply.cache_clear()
    extract_decision_reply.cache_clear()
    batches = [
        run_batch(plan, mode="replay", gateway=ReplayGateway(folder / "recording.jsonl"))
        for _ in range(2)
    ]
    assert extract_offer_reply.cache_info().hits > 0
    assert extract_decision_reply.cache_info().hits > 0
    first, second = (
        [{k: v for k, v in r.items() if k != "elapsed_seconds"} for r in batch.records]
        for batch in batches
    )
    assert first == second
    assert {r["run_id"]: r["verdict"] for r in first} == json.loads(
        (folder / "verdicts.json").read_text(encoding="utf-8")
    )


# ---------------------------------------------------------------------------
# Reference: the two log parsers, each with its own per-round loop
# ---------------------------------------------------------------------------


def _ref_segments(text, chain):
    pre = text[: chain[0][0]] if chain else text
    segs = []
    for i, (_, end, _) in enumerate(chain):
        stop = chain[i + 1][0] if i + 1 < len(chain) else len(text)
        segs.append(text[end:stop])
    return pre, segs


def ref_parse_single_model_log(text, pair, config):
    warnings = []
    exact = True

    chain = _round_chain(text, config.rounds)
    if len(chain) < config.rounds:
        raise UnparseableLogError(f"found {len(chain)} of {config.rounds} round sections")
    pre, segments = _ref_segments(text, chain)

    blocks = _strategy_marker_blocks(pre)
    if Role.PROPOSER in blocks and Role.RECEIVER in blocks:
        prop_text, recv_text = blocks[Role.PROPOSER], blocks[Role.RECEIVER]
    else:
        exact = False
        prop_text, recv_text = _player_sections(pre)

    actions = []
    for n, segment in enumerate(segments, start=1):
        lines = _segment_lines(segment)
        offer, from_marker, w = _extract_offer(segment, lines)
        warnings.extend(w)
        if offer is None:
            raise UnparseableLogError(f"round {n}: no offer found")
        if not 0 <= offer <= config.pot:
            raise UnparseableLogError(f"round {n}: offer {offer} outside [0, {config.pot}]")
        exact = exact and from_marker
        decision, from_marker, w = _extract_decision(lines)
        warnings.extend(w)
        if decision is None:
            raise UnparseableLogError(f"round {n}: no decision found")
        exact = exact and from_marker
        actions.append((offer, decision))
        warnings.extend(_check_payoffs(lines, offer, decision, config.pot, n))

    _, outcomes = engine.replay(config, actions)
    strategies = (
        StrategySpec(Role.PROPOSER, prop_text.strip(), parse_strategy_text(prop_text, Role.PROPOSER, config)),
        StrategySpec(Role.RECEIVER, recv_text.strip(), parse_strategy_text(recv_text, Role.RECEIVER, config)),
    )
    transcript = Transcript(
        config, pair, Structure.SINGLE_MODEL, strategies, tuple(outcomes), (("single_model", text),)
    )
    confidence = Confidence.EXACT if exact else Confidence.HEURISTIC
    return transcript, ParseDiagnostics(confidence, tuple(warnings))


def ref_parse_agent_log(logs, pair, config):
    prop_log, recv_log = logs
    warnings = []
    exact = True

    prop_chain = _round_chain(prop_log, config.rounds)
    recv_chain = _round_chain(recv_log, config.rounds)
    if len(prop_chain) != len(recv_chain):
        raise InconsistentLogsError(
            f"proposer log has {len(prop_chain)} round sections, receiver log has {len(recv_chain)}"
        )
    if len(prop_chain) < config.rounds:
        raise UnparseableLogError(f"found {len(prop_chain)} of {config.rounds} round sections")
    prop_pre, prop_segs = _ref_segments(prop_log, prop_chain)
    recv_pre, recv_segs = _ref_segments(recv_log, recv_chain)

    actions = []
    for n in range(1, config.rounds + 1):
        p_seg, r_seg = prop_segs[n - 1], recv_segs[n - 1]
        p_lines, r_lines = _segment_lines(p_seg), _segment_lines(r_seg)
        p_offer, p_mk, w1 = _extract_offer(p_seg, p_lines)
        r_offer, r_mk, w2 = _extract_offer(r_seg, r_lines)
        warnings.extend(w1 + w2)
        if p_offer is None and r_offer is None:
            raise UnparseableLogError(f"round {n}: no offer found in either log")
        if p_offer is not None and r_offer is not None and p_offer != r_offer:
            raise InconsistentLogsError(
                f"round {n}: logs disagree on the offer ({p_offer} vs {r_offer})"
            )
        if (p_offer is None) != (r_offer is None):
            warnings.append(f"round {n}: offer appears in only one log")
        offer = p_offer if p_offer is not None else r_offer
        if not 0 <= offer <= config.pot:
            raise UnparseableLogError(f"round {n}: offer {offer} outside [0, {config.pot}]")
        exact = exact and (p_mk or r_mk)

        p_dec, p_mk, w1 = _extract_decision(p_lines)
        r_dec, r_mk, w2 = _extract_decision(r_lines)
        warnings.extend(w1 + w2)
        if p_dec is None and r_dec is None:
            raise UnparseableLogError(f"round {n}: no decision found in either log")
        if p_dec is not None and r_dec is not None and p_dec is not r_dec:
            raise InconsistentLogsError(
                f"round {n}: logs disagree on the decision ({p_dec.value} vs {r_dec.value})"
            )
        if (p_dec is None) != (r_dec is None):
            warnings.append(f"round {n}: decision appears in only one log")
        decision = r_dec if r_dec is not None else p_dec
        exact = exact and (r_mk or p_mk)
        actions.append((offer, decision))
        warnings.extend(_check_payoffs(p_lines, offer, decision, config.pot, n))

    prop_text, p_mk = _agent_strategy_text(prop_pre, "proposer")
    recv_text, r_mk = _agent_strategy_text(recv_pre, "receiver")
    exact = exact and p_mk and r_mk

    _, outcomes = engine.replay(config, actions)
    strategies = (
        StrategySpec(Role.PROPOSER, prop_text, parse_strategy_text(prop_text, Role.PROPOSER, config)),
        StrategySpec(Role.RECEIVER, recv_text, parse_strategy_text(recv_text, Role.RECEIVER, config)),
    )
    transcript = Transcript(
        config,
        pair,
        Structure.MULTI_AGENT,
        strategies,
        tuple(outcomes),
        (("proposer", prop_log), ("receiver", recv_log)),
    )
    confidence = Confidence.EXACT if exact else Confidence.HEURISTIC
    return transcript, ParseDiagnostics(confidence, tuple(warnings))


def _outcome(parse, *args):
    """What a parse returns, or the type and message of what it raises."""
    try:
        return parse(*args)
    except (UnparseableLogError, InconsistentLogsError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Generated logs
# ---------------------------------------------------------------------------

_HEADINGS = ("ROUND {n}", "Round {n}:", "[Round {n}]", "**Round {n}**", "## Round {n}", "Then. Round {n}")
_STRATEGY_PROSE = (
    "I will play it by ear.",
    "If they reject, I raise my offer by $0.05.",
    "I accept anything in round 5.",
    "Round 2 is where I hold firm.",
)


# How many final rounds a log leaves out: mostly none.
_missing_rounds = st.sampled_from((0,) * 8 + (1, 2))
# True about one time in ten, so most generated logs still parse.
_rarely = st.sampled_from((False,) * 9 + (True,))


@st.composite
def game_configs(draw):
    return GameConfig(
        pot=draw(st.sampled_from((MIN_POT, 37, 100, 1000))),
        rounds=draw(st.integers(min_value=1, max_value=5)),
    )


@st.composite
def strategy_prose(draw, role, config):
    """An oracle or fake-endpoint strategy, or free prose, or nothing."""
    kind = draw(st.sampled_from(("oracle", "endpoint", "prose", "empty")))
    personality = draw(st.sampled_from(Personality))
    if kind == "oracle":
        return oracle_strategy(role, personality, config)[0]
    if kind == "endpoint":
        return _fake_endpoint_text(role, personality, config.pot, config.rounds, True, False)
    if kind == "prose":
        return " ".join(draw(st.lists(st.sampled_from(_STRATEGY_PROSE), min_size=1, max_size=3)))
    return ""


@st.composite
def offer_lines(draw, config):
    """A marked or prose offer, now and then outside the pot, or none."""
    outside = draw(_rarely)
    cents = draw(st.integers(min_value=config.pot + 1) if outside else st.integers(0, config.pot))
    template = draw(st.sampled_from(("OFFER: {a}",) * 4 + ("I offer {a} this round.", None)))
    return [] if template is None else [template.format(a=format_money(cents))]


@st.composite
def decision_lines(draw):
    """A marked or prose decision, or none."""
    word = draw(st.sampled_from(Decision)).value
    template = draw(st.sampled_from(("DECISION: {d}",) * 4 + ("I {d} the offer.", None)))
    return [] if template is None else [template.format(d=word)]


@st.composite
def outcome_lines(draw, config):
    """Now and then a payoff line, which the engine's arithmetic may contradict."""
    if not draw(_rarely):
        return []
    a, b = draw(st.lists(st.integers(0, config.pot), min_size=2, max_size=2))
    return [f"OUTCOME: the proposer receives {format_money(a)} and the receiver receives {format_money(b)}"]


@st.composite
def with_noise(draw, lines):
    """The lines with, now and then, a few generated segment lines among them."""
    noise = draw(st.lists(_line, min_size=1, max_size=2)) if draw(_rarely) else []
    at = draw(st.integers(min_value=0, max_value=len(lines)))
    return lines[:at] + noise + lines[at:]


@st.composite
def combined_logs(draw):
    config = draw(game_configs())
    lines = []
    for role, name in ((Role.PROPOSER, "Proposer"), (Role.RECEIVER, "Receiver")):
        text = draw(strategy_prose(role, config))
        form = draw(st.sampled_from(("marker",) * 3 + ("heading",) * 2 + ("missing",)))
        if form == "marker":
            lines.append(f"STRATEGY ({name}): {text}")
        elif form == "heading":
            lines += [f"{name} strategy:", text]
    heading = draw(st.sampled_from(_HEADINGS))
    for n in range(1, config.rounds + 1 - draw(_missing_rounds)):
        lines.append(heading.format(n=n))
        lines += draw(with_noise(draw(offer_lines(config)) + draw(decision_lines()) + draw(outcome_lines(config))))
    return "\n".join(lines) + "\n", config


@st.composite
def agent_log_pairs(draw):
    """(proposer log, receiver log) in the moderator's layout. Now and then a
    side leaves a fact out, states it differently, or stops a round early."""
    config = draw(game_configs())
    logs = []
    for role in Role:
        lines = [f"[Plan] Create a strategy for playing the ultimatum game as the {role.value}."]
        text = draw(strategy_prose(role, config))
        if draw(st.booleans()):
            lines.append(f"[Strategy] {text}")
        elif text:
            lines.append(text)
        logs.append((role, lines))
    shown = [config.rounds - draw(_missing_rounds) for _ in logs]
    for n in range(1, config.rounds + 1):
        facts = draw(offer_lines(config)), draw(decision_lines())
        for (role, lines), rounds_shown in zip(logs, shown):
            if n > rounds_shown:
                continue
            says = (role is Role.PROPOSER, role is Role.RECEIVER)
            body = []
            for fact, said, redraw in zip(facts, says, (offer_lines(config), decision_lines())):
                if draw(_rarely):
                    fact = [] if draw(st.booleans()) else draw(redraw)
                body += [("[Say] " if said else "[Hear] ") + line for line in fact]
            body += ["[Outcome] " + line for line in draw(outcome_lines(config))]
            lines.append(f"[Round {n}]")
            lines += draw(with_noise(body))
    return tuple("\n".join(lines) + "\n" for _, lines in logs), config


@settings(max_examples=300)
@given(case=combined_logs(), pair=st.sampled_from(ALL_PAIRS))
@example(
    case=("STRATEGY (Proposer): I offer $0.50.\nSTRATEGY (Receiver): I accept.\nROUND 1\nOFFER: $0.50\nDECISION: accept\n", GameConfig(100, 1)),
    pair=ALL_PAIRS[0],
)
@example(case=("Proposer strategy: x\nROUND 1\nOFFER: $2\n", GameConfig(100, 1)), pair=ALL_PAIRS[0])
@example(  # a marked offer with a decision in prose is no exact parse
    case=("STRATEGY (Proposer): x\nSTRATEGY (Receiver): y\nROUND 1\nOFFER: $0.50\nI accept the offer.\n", GameConfig(100, 1)),
    pair=ALL_PAIRS[0],
)
def test_single_model_parse_matches_its_own_loop(case, pair):
    text, config = case
    assert _outcome(parse_single_model_log, text, pair, config) == _outcome(
        ref_parse_single_model_log, text, pair, config
    )


@settings(max_examples=300)
@given(case=agent_log_pairs(), pair=st.sampled_from(ALL_PAIRS))
@example(
    case=(("[Strategy] I offer $0.50.\n[Round 1]\n[Say] OFFER: $0.50\n", "[Strategy] I accept.\n[Round 1]\n[Say] DECISION: reject\n"), GameConfig(100, 1)),
    pair=ALL_PAIRS[0],
)
@example(
    case=(("[Strategy] x\n[Round 1]\n[Say] OFFER: $0.50\n[Hear] DECISION: accept\n", "[Strategy] y\n[Round 1]\n[Hear] OFFER: $0.40\n"), GameConfig(100, 1)),
    pair=ALL_PAIRS[0],
)
@example(  # decision warnings from both logs, proposer's first
    case=(("[Strategy] x\n[Round 1]\n[Say] OFFER: $0.50\n[Hear] I accept.\n[Hear] I reject.\n", "[Strategy] y\n[Round 1]\n[Hear] OFFER: $0.50\n[Say] DECISION: unsure\n[Say] DECISION: accept\n"), GameConfig(100, 1)),
    pair=ALL_PAIRS[0],
)
@example(  # payoffs are checked against the proposer's log only
    case=(("[Strategy] x\n[Round 1]\n[Say] OFFER: $0.50\n[Hear] DECISION: accept\n", "[Strategy] y\n[Round 1]\n[Hear] OFFER: $0.50\n[Say] DECISION: accept\n[Outcome] I get $0.90 and you get $0.10.\n"), GameConfig(100, 1)),
    pair=ALL_PAIRS[0],
)
def test_agent_log_parse_matches_its_own_loop(case, pair):
    logs, config = case
    assert _outcome(parse_agent_log, logs, pair, config) == _outcome(
        ref_parse_agent_log, logs, pair, config
    )


# ---------------------------------------------------------------------------
# Patterns that open with a first-character test
# ---------------------------------------------------------------------------

# The plain forms of the rewritten patterns, verbatim as they read before
# each was made to open with a first-character class or lookahead.
PLAIN_PATTERNS = {
    "_AMOUNT_RE": re.compile(
        r"""
      \$(?P<dollars>\d{1,3}(?:,\d{3})+(?!\d)|\d+)\.(?P<frac>\d{1,2})   # $0.50, $1.25, $1.5
    | \$\.(?P<frac_only>\d{1,2})                                   # $.50
    | \$(?P<whole>\d{1,3}(?:,\d{3})+(?!\d)|\d+)                       # $1, $1,250
    | (?<!\d)(?P<cents>\d{1,3}(?:,\d{3})+(?!\d)|\d+)\s*(?:cents?\b|¢)  # 50 cents, 45¢
    """,
        re.VERBOSE | re.IGNORECASE,
    ),
    "_ROUND_INLINE_RE": re.compile(r"\bround\s+(\d+)\b", re.IGNORECASE),
    "_OFFER_VERB_RE": re.compile(r"\b(offer|offers|offered|offering|propose|proposes|proposed|proposing)\b", re.IGNORECASE),
    "_OFFER_SKIP_RE": re.compile(r"threshold|strateg", re.IGNORECASE),
    "_PAYOFF_LINE_RE": re.compile(r"\b(receive|receives|received|gets|get|earn|earns|payoff|pocket|pockets|keeps)\b", re.IGNORECASE),
    "_SECTION_WORD_RE": re.compile(r"\b(proposer|receiver)\b", re.IGNORECASE),
    "_STRATEGY_WORD_RE": re.compile(r"strateg", re.IGNORECASE),
}

# The words each pattern reads.
_PATTERN_WORDS = {
    "_AMOUNT_RE": ("cent", "cents"),
    "_ROUND_INLINE_RE": ("round", "rounds"),
    "_OFFER_VERB_RE": (
        "offer", "offers", "offered", "offering", "propose", "proposes", "proposed", "proposing",
    ),
    "_OFFER_SKIP_RE": ("threshold", "strategy", "strateg"),
    "_PAYOFF_LINE_RE": (
        "receive", "receives", "received", "gets", "get", "earn", "earns",
        "payoff", "pocket", "pockets", "keeps",
    ),
    "_SECTION_WORD_RE": ("proposer", "receiver"),
    "_STRATEGY_WORD_RE": ("strategy", "strateg"),
}

# Every spelling Python's case folding accepts for a letter: both cases,
# plus U+017F (long s) for "s", U+212A (Kelvin sign) for "k", and U+0130
# (capital I with dot) and U+0131 (dotless i) for "i".
_SPELLINGS = {c: (c, c.upper()) for c in string.ascii_lowercase}
_SPELLINGS["s"] += ("\u017f",)
_SPELLINGS["k"] += ("\u212a",)
_SPELLINGS["i"] += ("\u0130", "\u0131")


def _near_misses(words):
    """The words cut short, or run on into more word characters."""
    out = []
    for word in words:
        out += [word[:n] for n in range(1, len(word))]
        out += [word + "s", word + "er", "x" + word, word + "_"]
    return out


def _spellings(word):
    """The word with its first letter spelled each way case folding accepts,
    and the rest in lower case, in upper case, in alternating case, or with
    each letter in its last spelling (long s, Kelvin sign, dotless i)."""
    head, rest = word[0], word[1:]
    tails = (
        rest,
        rest.upper(),
        "".join(c.upper() if i % 2 else c for i, c in enumerate(rest)),
        "".join(_SPELLINGS.get(c, (c,))[-1] for c in rest),
    )
    return [first + tail for first in _SPELLINGS.get(head, (head,)) for tail in tails]


# Digits include Arabic-Indic three and fullwidth five, which `\d` reads.
_numbers = st.text(alphabet="0123456789٣５,.", min_size=1, max_size=9)
_noise = st.sampled_from(
    (" ", "  ", "\t", "\n", "$", "$.", ",", ".", "¢", "[", "]", "(", "*", "'", "-", "_",
     "x", "é", "\u212a", "\u017f", "\u0130", "\u0131", "٣", "５")
)


def pattern_texts(name):
    words = _PATTERN_WORDS[name]
    whole = st.sampled_from([w for word in words for w in _spellings(word)])
    near = st.sampled_from([w for word in _near_misses(words) for w in _spellings(word)])
    token = st.one_of(whole, whole, near, _numbers, _noise, st.just(" "))
    return st.lists(token, min_size=1, max_size=16).map("".join)


def _found(m):
    return None if m is None else (m.span(), m.groups())


def _assert_same_matches(new, plain, text):
    """finditer over the text, and search and match from every position,
    find the same spans and groups."""
    assert [_found(m) for m in new.finditer(text)] == [_found(m) for m in plain.finditer(text)]
    for pos in range(len(text) + 1):
        assert _found(new.search(text, pos)) == _found(plain.search(text, pos)), pos
        assert _found(new.match(text, pos)) == _found(plain.match(text, pos)), pos


@pytest.mark.parametrize("name", PLAIN_PATTERNS)
def test_rewritten_pattern_matches_as_its_plain_form(name):
    new, plain = getattr(transcripts, name), PLAIN_PATTERNS[name]

    @settings(max_examples=250)
    @given(text=pattern_texts(name))
    def check(text):
        _assert_same_matches(new, plain, text)

    check()


_PATTERN_EDGES = (
    "\u212aeeps $0.50",
    "ſtrategy and ſTRATEG",
    "PROPOſED 45¢",
    "Rounds ٣ and ROUND ５.",
    "xround 1, _round 2, round 3x, [round 4]",
    "٣٣ cents, ５¢, $٣.５５, $1,250.00, $1,25",
    "receiver's proposer-receiver payoff\npockets",
    "offeRING|Offered|offer_|preoffer",
    "the Proposer receives 60 cents and the receiver receives $.40",
    "THRESHOLD thresholİ threshoıd",
)


@pytest.mark.parametrize("name", PLAIN_PATTERNS)
@pytest.mark.parametrize("text", _PATTERN_EDGES)
def test_rewritten_pattern_matches_as_its_plain_form_on_edge_cases(name, text):
    _assert_same_matches(getattr(transcripts, name), PLAIN_PATTERNS[name], text)


# Each word is also read alone, at the start or end of a text, and run
# into word characters, digits and punctuation on either side.
_WORD_CONTEXTS = (
    "{}", " {} ", "x{}", "{}x", "_{}", "{}_", "é{}", "٣{}", "12 {}", "{} ５.", "[{}]", "\n{}\n", "$.{}",
    "x{} 5", "_{}\t٣", "{} 12x", "{} ５ ",
)


@pytest.mark.parametrize("name", PLAIN_PATTERNS)
def test_rewritten_pattern_reads_every_word_as_its_plain_form(name):
    """Every word and near miss, its first letter spelled each way case
    folding accepts, in each context."""
    new, plain = getattr(transcripts, name), PLAIN_PATTERNS[name]
    words = _PATTERN_WORDS[name]
    for word in list(words) + _near_misses(words):
        for first in _SPELLINGS.get(word[0], (word[0],)):
            for context in _WORD_CONTEXTS:
                _assert_same_matches(new, plain, context.format(first + word[1:]))


def test_the_spellings_are_every_case_fold_of_each_letter():
    """The generator's spellings are exactly what IGNORECASE accepts for
    each letter, found by trying every code point."""
    letter = re.compile("[a-z]", re.IGNORECASE)
    folds = {c: set() for c in string.ascii_lowercase}
    for ch in map(chr, range(sys.maxunicode + 1)):
        if letter.fullmatch(ch):
            for c in folds:
                if re.fullmatch(c, ch, re.IGNORECASE):
                    folds[c].add(ch)
    assert folds == {c: set(_SPELLINGS[c]) for c in folds}


# ---------------------------------------------------------------------------
# Reference: the round chain chosen by a nested loop
# ---------------------------------------------------------------------------


def ref_round_chain(text, rounds):
    cands = transcripts._round_candidates(text)
    chosen = {}
    limit = len(text) + 1
    for n in range(rounds, 0, -1):
        best = None
        for cand in cands:
            if cand[2] == n and cand[0] < limit:
                best = cand
        if best is None:
            break
        chosen[n] = best
        limit = best[0]
    if len(chosen) == rounds:
        return [chosen[n] for n in range(1, rounds + 1)]
    chain = []
    pos = -1
    for n in range(1, rounds + 1):
        nxt = next((c for c in cands if c[2] == n and c[0] > pos), None)
        if nxt is None:
            break
        chain.append(nxt)
        pos = nxt[0]
    return chain


_HEADINGS = ("Round {n}", "ROUND {n}:", "[Round {n}]", "**Round {n}**", "## round {n}", "  Round {n} -")
_MENTIONS = (
    "Done. Round {n} is next.",
    "I accept anything in round {n}.",
    "Then (round {n}) came! Round {n} again?",
    "OFFER: $0.50 for round {n}",
)
_chain_piece = st.integers(0, 11).flatmap(
    lambda n: st.sampled_from(_HEADINGS + _MENTIONS).map(lambda form: form.format(n=n))
) | st.sampled_from(["OFFER: $0.40", "DECISION: accept", "STRATEGY (Proposer): offer half.", ""])


@settings(max_examples=300)
@given(pieces=st.lists(_chain_piece, max_size=24), rounds=st.integers(1, 10))
@example(pieces=["Round 1", "Round 2", "Round 1", "Round 2"], rounds=2)
@example(pieces=["Round 2", "Round 1", "Round 2", "Round 3"], rounds=3)
@example(pieces=["Round 1", "Round 3", "Round 2"], rounds=3)
def test_the_one_pass_round_chain_matches_the_nested_loop(pieces, rounds):
    text = "\n".join(pieces)
    assert _round_chain(text, rounds) == ref_round_chain(text, rounds)


# ---------------------------------------------------------------------------
# Reference: amounts read as cents before the long-number rule
# ---------------------------------------------------------------------------


def ref_amount_cents(text):
    out = []
    for m in _AMOUNT_RE.finditer(text):
        dollars, frac, frac_only, whole, cents = m.groups()
        if dollars is not None:
            value = int(dollars.replace(",", "")) * 100 + (int(frac) * 10 if len(frac) == 1 else int(frac))
        elif frac_only is not None:
            value = int(frac_only) * 10 if len(frac_only) == 1 else int(frac_only)
        elif whole is not None:
            value = int(whole.replace(",", "")) * 100
        else:
            value = int(cents.replace(",", ""))
        out.append(value)
    return out


# Digit runs of at most 18, the longest a game's amounts have.
_money_piece = st.one_of(
    st.integers(0, 10**18 - 1).flatmap(_money_forms),
    st.integers(0, 10**6).map(lambda n: f"${n:,}"),
    st.integers(0, 10**6).map(lambda n: f"{n:,} cents"),
    st.integers(0, 999).map(lambda n: f"{n},{n:02d}"),
    st.sampled_from([
        "$.5", "$1.5", "$.05", "$1.", "$1,25", "$1,250", "$1,2500", "5 CENTS", "5Cents", "5cent",
        "5 ¢", "5¢", "1,000¢", "ab12cents", "x$5y", "$5x", "12abc", "cents", "$", "$.", "0.5", "¢",
    ]),
    st.text(alphabet="$.,¢ 0123456789centsCENTSx", max_size=12),
)
money_texts = st.lists(_money_piece, max_size=8).flatmap(
    lambda pieces: st.sampled_from(["", " ", "\n", " and "]).map(lambda sep: sep.join(pieces))
)


@settings(max_examples=300)
@given(text=money_texts)
@example(text="$1,250.5 and $.5, 5 CENTS, 45¢, 7cents, x12cents and $1,25")
def test_the_cents_reader_reads_what_extract_amounts_reads(text):
    cents = _amount_cents(text)
    assert cents == [a.cents for a in extract_amounts(text)]
    # Pieces joined with no space can run into more than 18 digits, which
    # the reference reads by the old rule.
    assume(max((len(run.replace(",", "")) for run in re.findall(r"\d[\d,]*", text)), default=0) <= 18)
    assert cents == ref_amount_cents(text)


@pytest.mark.parametrize("text, cents", [
    ("$" + "9" * 18, [(10**18 - 1) * 100]),
    ("$" + "9" * 19, [(10**18) * 100]),
    ("9" * 19 + " cents", [10**18]),
    ("$1" + ",000" * 6 + ".5", [10**18 * 100 + 50]),
    ("$" + "4" * 5000 + ".25 or $.5", [10**18 * 100 + 25, 50]),
])
def test_a_digit_run_longer_than_18_reads_as_past_every_pot(text, cents):
    assert _amount_cents(text) == cents == [a.cents for a in extract_amounts(text)]
