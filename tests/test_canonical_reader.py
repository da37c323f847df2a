"""The canonical reader reads each line in the one form the writer writes.

`parse_canonical` reads a header or round line only as `serialize_canonical`
writes it: each number in ASCII digits, with no sign and no leading zero, at
most 18 of them (`engine.MAX_POT`), and each word one the writer writes.
Every other spelling of such a line, the near misses that `int()` or a
case-blind lookup would still read included, is refused with a message that
names the line. Enum tokens of strategy lines are looked up by value and
refused as the plain enum call refuses them. A strategy or rawlog line's two
JSON values are read only one space apart, with nothing after the second.
The writer quotes its strings as `json.dumps` does, which the reference
writer below still calls.
"""

import dataclasses
import json

import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from helpers import any_text, build_transcript, raw_logs
from ultimatum import engine
from ultimatum.engine import MAX_POT, Decision, GameConfig, RoundOutcome
from ultimatum.strategy import (
    ALL_PAIRS,
    AdjustKind,
    FinalRoundRule,
    PersonalityPair,
    Role,
)
from ultimatum.transcripts import (
    _FIELDS_ENCODER,
    _ROUND_LINE_RE,
    _fields_to_json,
    MalformedRecordError,
    Structure,
    Transcript,
    _by_value,
    parse_canonical,
    serialize_canonical,
)

# A valid transcript; its config and rounds are drawn, and its strategies
# are not checked against them.
BASE = dataclasses.replace(
    build_transcript([50], [Decision.ACCEPT]), raw_logs=(("single_model", "[Round 1]\n"),)
)
VALID = serialize_canonical(BASE)
pots = st.integers(5, 10000) | st.just(MAX_POT)


def transcript_of(config: GameConfig, actions) -> Transcript:
    _, outcomes = engine.replay(config, actions)
    return dataclasses.replace(BASE, config=config, rounds=tuple(outcomes))


_JSON = json.JSONDecoder()
free_text = st.text(st.characters(codec="utf-8"), max_size=40) | st.sampled_from(
    ["", " ", "a b", "two  spaces", "\t", '"', "\\", "x\ny", " lead", "trail "]
)


@st.composite
def framed_transcripts(draw) -> Transcript:
    """A transcript of drawn size and play whose strategy texts and raw logs
    hold drawn free text, spaces, quotes and newlines included."""
    config = GameConfig(pot=draw(pots), rounds=draw(st.integers(1, 10)))
    transcript = transcript_of(config, [
        (draw(st.integers(0, config.pot)), draw(st.sampled_from(Decision)))
        for _ in range(config.rounds)
    ])
    return dataclasses.replace(
        transcript,
        pair=draw(st.sampled_from(ALL_PAIRS)),
        structure=draw(st.sampled_from(Structure)),
        strategies=tuple(dataclasses.replace(spec, raw_text=draw(free_text)) for spec in BASE.strategies),
        raw_logs=draw(raw_logs(free_text)),
    )


# ---------------------------------------------------------------------------
# Drawn transcripts: the writer's round lines and near misses of them
# ---------------------------------------------------------------------------

NON_ASCII_DIGITS = [str.maketrans("0123456789", digits) for digits in (
    "٠١٢٣٤٥٦٧٨٩",  # Arabic-Indic
    "０１２３４５６７８９",  # fullwidth
)]


def int_spellings(n: int) -> st.SearchStrategy[str]:
    """n as serialize_canonical writes it, or a near miss that int() may
    still read: a sign, leading zeros, an underscore, non-ASCII digits,
    surrounding whitespace, more digits than a round line holds, or junk."""
    s = str(n)
    return st.sampled_from([
        s, "+" + s, "-" + s, "0" + s, "00" + s, s + "_0", s[0] + "_" + s[1:], "_" + s,
        *(s.translate(table) for table in NON_ASCII_DIGITS),
        "\t" + s, s + "\t", s + "\r", "　" + s, "x" + s, s + ".0", "",
        "1" * 19, "9" * 5000,
    ])


def decision_spellings(word: str) -> st.SearchStrategy[str]:
    """word as written, or a near miss of a decision word. Never the other
    decision: that would be the writer's line for other values."""
    return st.sampled_from([
        word, "Accept", "REJECT", "accepted", "rejects", "acc", "",
        "accept\t", "\treject", "accept\r", "réject", "accept!",
    ])


@st.composite
def round_lines(draw, line: str, outcome: RoundOutcome) -> str:
    """line, the writer's line for outcome, or one time in four a near miss
    of it: a field respelled, maybe a separator too, and maybe something
    after the line. A respelling may leave the line as written."""
    if draw(st.integers(0, 3)):
        return line
    o = outcome
    fields = [str(o.round), str(o.offer), o.decision.value, str(o.proposer_payoff), str(o.receiver_payoff)]
    seps = [" offer=", " decision=", " payoffs=", "/"]
    at = draw(st.integers(0, 4))
    fields[at] = draw(decision_spellings(fields[at]) if at == 2 else int_spellings(int(fields[at])))
    if draw(st.booleans()):
        at = draw(st.integers(0, 3))
        seps[at] = draw(st.sampled_from([
            seps[at].replace(" ", "  "), seps[at].replace(" ", "\t"),
            seps[at].replace("=", " ="), seps[at].upper(), seps[at].strip(), "-",
        ]))
    tail = draw(st.sampled_from(["", "", " ", "\t", "  x"]))
    return "round " + fields[0] + "".join(sep + f for sep, f in zip(seps, fields[1:])) + tail


@st.composite
def drawn_transcripts(draw) -> tuple[str, Transcript]:
    """(text, transcript): the writer's text of a drawn transcript, each of
    its round lines maybe replaced by a near miss."""
    config = GameConfig(pot=draw(pots), rounds=draw(st.integers(1, 10)))
    transcript = transcript_of(config, [
        (draw(st.integers(0, config.pot)), draw(st.sampled_from(Decision)))
        for _ in range(config.rounds)
    ])
    lines = serialize_canonical(transcript).split("\n")
    rounds = slice(3, 3 + config.rounds)  # after the header and two strategy lines
    lines[rounds] = [draw(round_lines(ln, o)) for ln, o in zip(lines[rounds], transcript.rounds)]
    return "\n".join(lines), transcript


def _with_round(line: str) -> tuple[str, Transcript]:
    return VALID.replace("round 1 offer=50 decision=accept payoffs=50/50", line, 1), BASE


class TestRoundLines:
    @given(drawn=drawn_transcripts())
    @example(drawn=(VALID, BASE))
    @example(drawn=_with_round("round +1 offer=0_50 decision=accept payoffs=٥٠/50"))
    @example(drawn=_with_round("round 01 offer=050 decision=accept payoffs=+50/50\t"))
    @example(drawn=_with_round("round 1 offer=50 decision=accept payoffs=50/50/50"))
    @example(drawn=_with_round("round 1 offer=50 decision=accept payoffs=050/50"))
    def test_only_the_writers_round_lines_are_read(self, drawn):
        text, transcript = drawn
        written = serialize_canonical(transcript)
        bad = [ln for ln, w in zip(text.split("\n"), written.split("\n")) if ln != w]
        event("read" if not bad else "refused")
        if not bad:
            assert parse_canonical(text) == transcript
        else:
            with pytest.raises(MalformedRecordError) as info:
                parse_canonical(text)
            assert str(info.value) == f"bad round line: {bad[0]!r}"

    @pytest.mark.parametrize("digits", [19, 5000])
    @pytest.mark.parametrize("field", ["round", "offer", "payoffs", "payoff"])
    def test_a_number_longer_than_a_round_line_holds_is_refused(self, field, digits):
        line = {
            "round": "round {} offer=50 decision=accept payoffs=50/50",
            "offer": "round 1 offer={} decision=accept payoffs=50/50",
            "payoffs": "round 1 offer=50 decision=accept payoffs={}/50",
            "payoff": "round 1 offer=50 decision=accept payoffs=50/{}",
        }[field].format("9" * digits)
        text, _ = _with_round(line)
        with pytest.raises(MalformedRecordError) as info:
            parse_canonical(text)
        assert str(info.value) == f"bad round line: {line!r}"

    @given(transcript=framed_transcripts())
    def test_serialized_transcripts_read_back(self, transcript):
        text = serialize_canonical(transcript)
        assert parse_canonical(text) == transcript
        assert serialize_canonical(parse_canonical(text)) == text
        # Every round line serialize_canonical writes is read by the pattern.
        round_lines = [line for line in text.splitlines() if line.startswith("round ")]
        assert all(_ROUND_LINE_RE.fullmatch(line) for line in round_lines)

    def test_the_largest_pot_reads_back_with_18_digit_amounts(self):
        actions = [(MAX_POT, Decision.ACCEPT), (0, Decision.ACCEPT), (MAX_POT, Decision.REJECT)]
        transcript = transcript_of(GameConfig(pot=MAX_POT, rounds=3), actions)
        text = serialize_canonical(transcript)
        assert f"round 1 offer={MAX_POT} decision=accept payoffs=0/{MAX_POT}\n" in text
        assert parse_canonical(text) == transcript


# ---------------------------------------------------------------------------
# Header and strategy lines: every enum token, valid or not
# ---------------------------------------------------------------------------

# Near misses of any enum token, some of which JSON cannot hash.
NOT_VALUES = [None, 3, 1.5, [1], {"kind": "keep"}, "", "KEEP", "Proposer", "solo", "keep\t"]
ENUM_TOKENS = [
    (enum_cls, value)
    for enum_cls in (Role, Structure, AdjustKind, FinalRoundRule)
    for value in [*(member.value for member in enum_cls), *NOT_VALUES]
]


@st.composite
def headers(draw) -> tuple[str, Transcript]:
    """(text, transcript): the writer's text of a transcript of drawn size,
    pair and structure, its header maybe with one field respelled."""
    config = GameConfig(pot=draw(pots), rounds=draw(st.integers(1, 10)))
    transcript = dataclasses.replace(
        transcript_of(config, [(0, Decision.REJECT)] * config.rounds),
        pair=draw(st.sampled_from(ALL_PAIRS)),
        structure=draw(st.sampled_from(Structure)),
    )
    header, body = serialize_canonical(transcript).split("\n", 1)
    label, structure = transcript.pair.label(), transcript.structure.value
    fields = [str(config.pot), str(config.rounds), label, structure]
    at = draw(st.integers(0, 4))
    if at < 2:
        fields[at] = draw(int_spellings(int(fields[at])))
    elif at == 2:
        fields[at] = draw(st.sampled_from([
            label, label.upper(), label.title(), label.replace("-", "_"), label + "\t", "fair-stingy",
        ]))
    elif at == 3:
        fields[at] = draw(st.sampled_from([structure, structure.upper(), "multi-agent", "solo", ""]))
    head = "ultimatum-transcript v1 pot={} rounds={} pair={} structure={}".format(*fields)
    tail = draw(st.sampled_from(["", "", "", " ", "\t", " x"]))
    return f"{head}{tail}\n{body}", transcript


class TestHeaderAndStrategyLines:
    @given(drawn=headers())
    @example(drawn=(VALID.replace(" pot=100 ", " pot=+100 ", 1), BASE))
    @example(drawn=(VALID.replace(" pair=fair-fair ", " pair=FAIR-Fair ", 1), BASE))
    def test_only_the_writers_header_is_read(self, drawn):
        text, transcript = drawn
        header = text.partition("\n")[0]
        event("read" if text == serialize_canonical(transcript) else "refused")
        if text == serialize_canonical(transcript):
            assert parse_canonical(text) == transcript
        else:
            with pytest.raises(MalformedRecordError) as info:
                parse_canonical(text)
            assert str(info.value) == f"bad header line: {header!r}"

    @pytest.mark.parametrize(
        "enum_cls, value", ENUM_TOKENS, ids=[f"{c.__name__}-{v!r}" for c, v in ENUM_TOKENS]
    )
    def test_enum_tokens_are_looked_up_as_the_enum_call_does(self, enum_cls, value):
        def outcome(lookup):
            try:
                return lookup(value)
            except ValueError as exc:
                return str(exc)

        assert outcome(_by_value(enum_cls)) == outcome(enum_cls)

    @pytest.mark.parametrize("label", [
        *(pair.label() for pair in ALL_PAIRS), "FAIR-Greedy", "fair-stingy", "fair",
        "fair-fair-fair", "fair_fair", "fair-fair\t", "ſair-fair", "",
    ])
    def test_a_pair_label_names_its_pair_in_any_case_or_is_refused(self, label):
        pairs = {pair.label(): pair for pair in ALL_PAIRS}
        if label.lower() in pairs:
            assert PersonalityPair.from_label(label) == pairs[label.lower()]
        else:
            with pytest.raises(ValueError) as info:
                PersonalityPair.from_label(label)
            assert str(info.value) == f"bad personality pair label: {label!r}"

# ---------------------------------------------------------------------------
# Line framing: one space between a strategy or rawlog line's two JSON
# values, nothing after the second; blank lines are skipped
# ---------------------------------------------------------------------------

def _second_value_at(line: str) -> int:
    """Where the second JSON value of a strategy or rawlog line starts."""
    start = len("rawlog ") if line.startswith("rawlog ") else line.index(" ", len("strategy ")) + 1
    return _JSON.raw_decode(line, start)[1] + 1


@st.composite
def framing_edits(draw, text: str) -> tuple[str, str]:
    """(edit, text): the text with one strategy or rawlog line framed in a
    way the writer never frames it."""
    lines = text.split("\n")[:-1]
    edit = draw(st.sampled_from(["two spaces", "tab", "no space", "trailing space", "trailing tab"]))
    at = draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.startswith(("strategy ", "rawlog "))]))
    line = lines[at]
    cut = _second_value_at(line)
    lines[at] = {
        "two spaces": line[:cut] + " " + line[cut:],
        "tab": line[:cut - 1] + "\t" + line[cut:],
        "no space": line[:cut - 1] + line[cut:],
        "trailing space": line + " ",
        "trailing tab": line + "\t",
    }[edit]
    return edit, "\n".join(lines) + "\n"


def _refusal(text: str) -> str | None:
    """What json.loads says of text it refuses; None if it reads it."""
    try:
        json.loads(text)
    except ValueError as exc:
        return str(exc)
    return None


class TestLineFraming:
    @given(transcript=framed_transcripts(), data=st.data())
    def test_a_payload_line_framed_otherwise_is_refused(self, transcript, data):
        edit, edited = data.draw(framing_edits(serialize_canonical(transcript)))
        event(edit)
        with pytest.raises(MalformedRecordError):
            parse_canonical(edited)

    @given(transcript=framed_transcripts(), data=st.data())
    def test_a_blank_line_is_skipped_and_so_does_not_round_trip(self, transcript, data):
        lines = serialize_canonical(transcript).split("\n")[:-1]
        blank = data.draw(st.sampled_from(["", " ", "\t", " \t", "\u3000"]))
        lines.insert(data.draw(st.integers(0, len(lines))), blank)
        edited = "\n".join(lines) + "\n"
        assert parse_canonical(edited) == transcript
        assert serialize_canonical(parse_canonical(edited)) != edited

    @pytest.mark.parametrize("edit, message", [
        (lambda s: s.replace('"single_model" "', '"single_model"  "', 1),
         "bad JSON payload: Expecting value: line 1 column 1 (char 0)"),
        (lambda s: s.replace('"single_model" "', '"single_model"\t"', 1),
         "expected one space after a JSON value, got '\\t'"),
        (lambda s: s.replace('"single_model" "', '"single_model""', 1),
         "expected one space after a JSON value, got '\"'"),
        (lambda s: s.replace('[Round 1]\\n"\n', '[Round 1]\\n" \n', 1), "trailing data after record: ' '"),
        (lambda s: s.replace('[Round 1]\\n"\n', '[Round 1]\\n" x \n', 1), "trailing data after record: 'x'"),
        (lambda s: s.replace('"initial_offer":50', '"initial_offer":' + "7" * 5000, 1),
         f"bad JSON payload: {_refusal('7' * 5000)}"),
    ], ids=["two-spaces", "tab", "no-space", "trailing-space", "trailing-word", "too-many-digits"])
    def test_each_refusal_names_what_is_off(self, edit, message):
        with pytest.raises(MalformedRecordError) as info:
            parse_canonical(edit(VALID))
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Reference: the writer quoting each string through json.dumps
# ---------------------------------------------------------------------------


def ref_serialize_canonical(transcript):
    cfg = transcript.config
    lines = [
        f"ultimatum-transcript v1 pot={cfg.pot} rounds={cfg.rounds} "
        f"pair={transcript.pair.label()} structure={transcript.structure.value}"
    ]
    for spec in transcript.strategies:
        fields = _FIELDS_ENCODER.encode(_fields_to_json(spec))
        lines.append(f"strategy {spec.role.value} {fields} {json.dumps(spec.raw_text)}")
    for o in transcript.rounds:
        lines.append(
            f"round {o.round} offer={o.offer} decision={o.decision.value} "
            f"payoffs={o.proposer_payoff}/{o.receiver_payoff}"
        )
    for label, text in transcript.raw_logs:
        lines.append(f"rawlog {json.dumps(label)} {json.dumps(text)}")
    return "\n".join(lines) + "\n"


@given(transcript=framed_transcripts(), data=st.data())
@example(transcript=BASE, data=None)
def test_the_writer_quotes_strings_as_json_dumps_does(transcript, data):
    if data is not None:
        transcript = dataclasses.replace(
            transcript,
            strategies=tuple(dataclasses.replace(spec, raw_text=data.draw(any_text)) for spec in transcript.strategies),
            raw_logs=data.draw(raw_logs(any_text)),
        )
    assert serialize_canonical(transcript) == ref_serialize_canonical(transcript)
