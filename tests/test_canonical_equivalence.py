"""The canonical reader accepts, reads and refuses exactly what it did
before its round lines were matched whole.

`parse_canonical` reads a round line written as `serialize_canonical`
writes it with one pattern, and every other round line token by token.
It looks the enums of header and strategy lines up in dicts. The
references below are the reader, and the helpers it used for those
lines, as they were before; both readers must give equal transcripts or
the same error with the same message, for valid lines and for near
misses of them.
"""

import dataclasses
import json

import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from helpers import build_transcript
from ultimatum import engine
from ultimatum.engine import Decision, GameConfig, RoundOutcome
from ultimatum.strategy import (
    ALL_PAIRS,
    AdjustKind,
    AdjustRule,
    CutoffRule,
    FinalRoundRule,
    Personality,
    PersonalityPair,
    ProposerStrategy,
    ReceiverStrategy,
    Role,
    StrategySpec,
)
from ultimatum.transcripts import (
    _ROUND_LINE_RE,
    CANONICAL_TAG,
    CANONICAL_VERSION,
    MalformedRecordError,
    SchemaVersionError,
    Structure,
    Transcript,
    _parse_kv,
    _read_json_pair,
    parse_canonical,
    serialize_canonical,
)

# ---------------------------------------------------------------------------
# Reference: the reader as it was, each token through int() and the enums
# ---------------------------------------------------------------------------


def _ref_pair_from_label(label: str) -> PersonalityPair:
    try:
        p, r = label.lower().split("-")
        return PersonalityPair(Personality(p), Personality(r))
    except ValueError:
        raise ValueError(f"bad personality pair label: {label!r}") from None


def _ref_adjust_from_json(obj):
    if obj is None:
        return None
    return AdjustRule(AdjustKind(obj["kind"]), obj.get("amount"))


def _ref_fields_from_json(role, obj):
    try:
        if role is Role.PROPOSER:
            cutoff = obj["cutoff"]
            return ProposerStrategy(
                initial_offer=obj["initial_offer"],
                on_accept=_ref_adjust_from_json(obj["on_accept"]),
                on_reject=_ref_adjust_from_json(obj["on_reject"]),
                cutoff=None if cutoff is None else CutoffRule(limit=cutoff.get("limit")),
            )
        rule = obj["final_round_rule"]
        return ReceiverStrategy(
            threshold=obj["threshold"],
            round_thresholds={int(k): v for k, v in obj["round_thresholds"].items()},
            final_round_rule=None if rule is None else FinalRoundRule(rule),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise MalformedRecordError(f"bad strategy fields: {exc}") from None


def reference_parse_canonical(text):
    if not text.endswith("\n"):
        raise MalformedRecordError("canonical text must end with a newline")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise MalformedRecordError("empty transcript text")
    header = lines[0].split(" ")
    if len(header) != 6 or header[0] != CANONICAL_TAG:
        raise MalformedRecordError(f"bad header line: {lines[0]!r}")
    if header[1] != CANONICAL_VERSION:
        raise SchemaVersionError(f"unsupported transcript version {header[1]!r}")
    try:
        config = GameConfig(
            pot=int(_parse_kv(header[2], "pot")), rounds=int(_parse_kv(header[3], "rounds"))
        )
        pair = _ref_pair_from_label(_parse_kv(header[4], "pair"))
        structure = Structure(_parse_kv(header[5], "structure"))
    except (ValueError, engine.InvalidConfigError) as exc:
        raise MalformedRecordError(f"bad header values: {exc}") from None

    strategies = []
    rounds = []
    raw_logs = []
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "strategy":
            role_token, _, payload = rest.partition(" ")
            try:
                role = Role(role_token)
            except ValueError:
                raise MalformedRecordError(f"bad strategy role {role_token!r}") from None
            fields, raw_text = _read_json_pair(payload)
            if not isinstance(fields, dict) or not isinstance(raw_text, str):
                raise MalformedRecordError("strategy line must hold fields object and raw text")
            if rounds or raw_logs:
                raise MalformedRecordError("strategy lines must precede round lines")
            strategies.append(StrategySpec(role, raw_text, _ref_fields_from_json(role, fields)))
        elif kind == "round":
            if raw_logs:
                raise MalformedRecordError("round lines must precede rawlog lines")
            tokens = rest.split(" ")
            if len(tokens) != 4:
                raise MalformedRecordError(f"bad round line: {line!r}")
            try:
                number = int(tokens[0])
                offer = int(_parse_kv(tokens[1], "offer"))
                decision = Decision(_parse_kv(tokens[2], "decision"))
                prop_pay, _, recv_pay = _parse_kv(tokens[3], "payoffs").partition("/")
                payoffs = (int(prop_pay), int(recv_pay))
            except ValueError as exc:
                raise MalformedRecordError(f"bad round line: {exc}") from None
            if number != len(rounds) + 1 or number > config.rounds:
                raise MalformedRecordError(f"round {number} out of sequence")
            if not 0 <= offer <= config.pot:
                raise MalformedRecordError(f"round {number}: offer {offer} outside pot")
            expected = (config.pot - offer, offer) if decision is Decision.ACCEPT else (0, 0)
            if payoffs != expected:
                raise MalformedRecordError(
                    f"round {number}: payoffs {payoffs} inconsistent with {decision.value}"
                )
            rounds.append(RoundOutcome(number, offer, decision, *payoffs))
        elif kind == "rawlog":
            label, logtext = _read_json_pair(rest)
            if not isinstance(label, str) or not isinstance(logtext, str):
                raise MalformedRecordError("rawlog line must hold two strings")
            raw_logs.append((label, logtext))
        else:
            raise MalformedRecordError(f"unknown record kind {kind!r}")

    if len(strategies) != 2 or strategies[0].role is not Role.PROPOSER or strategies[1].role is not Role.RECEIVER:
        raise MalformedRecordError("expected proposer then receiver strategy lines")
    if len(rounds) != config.rounds:
        raise MalformedRecordError(f"expected {config.rounds} rounds, got {len(rounds)}")
    return Transcript(
        config=config,
        pair=pair,
        structure=structure,
        strategies=(strategies[0], strategies[1]),
        rounds=tuple(rounds),
        raw_logs=tuple(raw_logs),
    )


def read(parse, text):
    """What a reader makes of text: a transcript, or its error's type and message."""
    try:
        return parse(text)
    except (MalformedRecordError, SchemaVersionError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Drawn transcripts: valid round lines and near misses of them
# ---------------------------------------------------------------------------

# A valid transcript's strategy and rawlog lines; the pot and rounds of the
# header are drawn, and the strategies are not checked against them.
BASE = dataclasses.replace(
    build_transcript([50], [Decision.ACCEPT]), raw_logs=(("single_model", "[Round 1]\n"),)
)
VALID = serialize_canonical(BASE)
_BASE_LINES = VALID.splitlines(keepends=True)  # header, 2 strategies, 1 round, rawlog
STRATEGY_LINES, RAWLOG_LINES = "".join(_BASE_LINES[1:3]), "".join(_BASE_LINES[4:])

NON_ASCII_DIGITS = [str.maketrans("0123456789", digits) for digits in (
    "٠١٢٣٤٥٦٧٨٩",  # Arabic-Indic
    "０１２３４５６７８９",  # fullwidth
)]


def int_spellings(n: int) -> st.SearchStrategy[str]:
    """n as serialize_canonical writes it, or a near miss that int() may
    still read: a sign, leading zeros, an underscore, non-ASCII digits,
    surrounding whitespace, more digits than int() reads, or junk."""
    s = str(n)
    return st.sampled_from([
        s, "+" + s, "-" + s, "0" + s, "00" + s, s + "_0", s[0] + "_" + s[1:], "_" + s,
        *(s.translate(table) for table in NON_ASCII_DIGITS),
        "\t" + s, s + "\t", s + "\r", "　" + s, "x" + s, s + ".0", "",
        "1" * 19, "9" * 5000,
    ])


decision_spellings = st.sampled_from([
    "accept", "reject", "Accept", "REJECT", "accepted", "rejects", "acc", "",
    "accept\t", "\treject", "accept\r", "réject", "accept!",
])


@st.composite
def round_lines(draw, number: int, pot: int) -> str:
    """A valid round line, or one time in four a near miss of one: a field
    respelled, maybe a separator too, and maybe something after the line."""
    offer = draw(st.integers(0, pot))
    decision = draw(st.sampled_from(Decision))
    prop, recv = (pot - offer, offer) if decision is Decision.ACCEPT else (0, 0)
    fields = [str(number), str(offer), decision.value, str(prop), str(recv)]
    seps = [" offer=", " decision=", " payoffs=", "/"]
    tail = ""
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, 4))
        fields[at] = draw(decision_spellings if at == 2 else int_spellings(int(fields[at])))
        if draw(st.booleans()):
            at = draw(st.integers(0, 3))
            seps[at] = draw(st.sampled_from([
                seps[at].replace(" ", "  "), seps[at].replace(" ", "\t"),
                seps[at].replace("=", " ="), seps[at].upper(), seps[at].strip(), "-",
            ]))
        tail = draw(st.sampled_from(["", "", " ", "\t", "  x"]))
    return "round " + fields[0] + "".join(sep + f for sep, f in zip(seps, fields[1:])) + tail


@st.composite
def drawn_transcripts(draw) -> str:
    pot = draw(st.integers(5, 10000))
    rounds = draw(st.integers(1, 10))
    header = (
        f"{CANONICAL_TAG} {CANONICAL_VERSION} pot={pot} rounds={rounds} "
        "pair=fair-fair structure=single_model\n"
    )
    lines = [draw(round_lines(number, pot)) + "\n" for number in range(1, rounds + 1)]
    return header + STRATEGY_LINES + "".join(lines) + RAWLOG_LINES


def _with_round(text: str, line: str) -> str:
    return text.replace("round 1 offer=50 decision=accept payoffs=50/50", line, 1)


class TestRoundLines:
    @given(text=drawn_transcripts())
    @example(text=VALID)
    @example(text=_with_round(VALID, "round +1 offer=0_50 decision=accept payoffs=٥٠/50"))
    @example(text=_with_round(VALID, "round 01 offer=050 decision=accept payoffs=+50/50\t"))
    @example(text=_with_round(VALID, "round 1 offer=50 decision=accept payoffs=50/50/50"))
    @example(text=_with_round(VALID, "round 1 offer=0 decision=reject payoffs=-0/0"))
    def test_the_reader_reads_round_lines_as_before(self, text):
        expected = read(reference_parse_canonical, text)
        event("accepted" if isinstance(expected, Transcript) else "refused")
        assert read(parse_canonical, text) == expected

    @pytest.mark.parametrize("field", ["round", "offer", "payoffs", "payoff"])
    def test_a_number_longer_than_int_reads_is_refused_as_before(self, field):
        line = {
            "round": "round {} offer=50 decision=accept payoffs=50/50",
            "offer": "round 1 offer={} decision=accept payoffs=50/50",
            "payoffs": "round 1 offer=50 decision=accept payoffs={}/50",
            "payoff": "round 1 offer=50 decision=accept payoffs=50/{}",
        }[field].format("9" * 5000)
        text = _with_round(VALID, line)
        assert read(parse_canonical, text) == read(reference_parse_canonical, text)
        assert "bad round line: Exceeds the limit" in read(parse_canonical, text)[1]

    @given(pot=st.integers(5, 10000), rounds=st.integers(1, 10), data=st.data())
    def test_serialized_transcripts_read_back(self, pot, rounds, data):
        config = GameConfig(pot=pot, rounds=rounds)
        actions = [
            (data.draw(st.integers(0, pot)), data.draw(st.sampled_from(Decision)))
            for _ in range(rounds)
        ]
        _, outcomes = engine.replay(config, actions)
        transcript = dataclasses.replace(BASE, config=config, rounds=tuple(outcomes))
        text = serialize_canonical(transcript)
        assert parse_canonical(text) == transcript
        assert serialize_canonical(parse_canonical(text)) == text
        # Every round line serialize_canonical writes is read by the pattern.
        round_lines = [line for line in text.splitlines() if line.startswith("round ")]
        assert all(_ROUND_LINE_RE.fullmatch(line) for line in round_lines)


# ---------------------------------------------------------------------------
# Header and strategy lines: every enum token, valid or not
# ---------------------------------------------------------------------------

enum_values = [None, 3, 1.5, [1], {"kind": "keep"}, "", "KEEP"]

# Each enum token of a valid transcript, and its spellings: the valid ones
# and near misses, some of which JSON cannot hash.
TOKENS = {
    "pair": ("greedy-fair", [
        *(pair.label() for pair in ALL_PAIRS), "FAIR-Greedy", "fair-stingy", "fair",
        "fair-fair-fair", "fair_fair", "fair-fair\t", "\u017fair-fair",
    ]),
    "structure": ("multi_agent", [
        *(s.value for s in Structure), "Single_model", "solo", "", "multi_agent\t",
    ]),
    "proposer": ("proposer", ["receiver", "Proposer", "referee", "", "proposers"]),
    "receiver": ("receiver", ["proposer", "RECEIVER", "referee", "", "receivers"]),
    "on_accept": ("keep", [*(kind.value for kind in AdjustKind), *enum_values]),
    "on_reject": ("increase_by", [*(kind.value for kind in AdjustKind), *enum_values]),
    "final_round_rule": ("accept_any_nonzero", [*(r.value for r in FinalRoundRule), *enum_values]),
}


@st.composite
def enum_transcripts(draw) -> str:
    """A valid one-round transcript with at most one enum token respelled."""
    tokens = {name: valid for name, (valid, _) in TOKENS.items()}
    name = draw(st.sampled_from([None, *TOKENS]))
    if name is not None:
        tokens[name] = draw(st.sampled_from(TOKENS[name][1]))
    proposer = {
        "cutoff": None,
        "initial_offer": 50,
        "on_accept": {"amount": None, "kind": tokens["on_accept"]},
        "on_reject": {"amount": 5, "kind": tokens["on_reject"]},
    }
    receiver = {
        "final_round_rule": tokens["final_round_rule"],
        "round_thresholds": {"1": 40},
        "threshold": 40,
    }
    return (
        f"{CANONICAL_TAG} {CANONICAL_VERSION} pot=100 rounds=1 "
        f"pair={tokens['pair']} structure={tokens['structure']}\n"
        f"strategy {tokens['proposer']} {json.dumps(proposer)} \"text\"\n"
        f"strategy {tokens['receiver']} {json.dumps(receiver)} \"text\"\n"
        "round 1 offer=50 decision=accept payoffs=50/50\n"
    )


class TestHeaderAndStrategyLines:
    @given(text=enum_transcripts())
    def test_the_reader_reads_enum_tokens_as_before(self, text):
        assert read(parse_canonical, text) == read(reference_parse_canonical, text)

    # A plan's pairs reach from_label too, and YAML can hand it bytes.
    @pytest.mark.parametrize("label", [*TOKENS["pair"][1], b"fair-fair", b"fair", bytearray(b"x")])
    def test_pair_labels_are_read_as_before(self, label):
        def outcome(from_label):
            try:
                return from_label(label)
            except (ValueError, TypeError) as exc:
                return type(exc), str(exc)

        assert outcome(PersonalityPair.from_label) == outcome(_ref_pair_from_label)
