"""Every input surface reads bad input or refuses it with one error line.

One hypothesis test per surface feeds `cli.main`, in-process, input drawn
from a small grammar of bad values: long digit runs, deep nesting, NaN and
Infinity, YAML dates, binary and merge keys, lone surrogates, NUL bytes and
torn lines. Each accepts two outcomes only: exit 0 or 1 with no exception,
or exit 2 with exactly one `error:` line. Output is written as a terminal
writes it: stdout as strict UTF-8, stderr with backslash escapes, so text
that cannot be printed fails here as it would outside the tests.

No example starts a large batch: a drawn count is a small number or is
refused, and a plan cut short keeps the defaults (80 oracle runs of five
rounds) at most.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import FIXTURES
from ultimatum.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from ultimatum.experiment import load_records, plan_from_dict, run_batch
from ultimatum.transcripts import MalformedRecordError, parse_canonical

RECORDING = FIXTURES / "replay" / "recording.jsonl"
# A slice of the plan the committed recording was made with.
REPLAY_PLAN = (
    "pairs: [fair-greedy]\nstructures: [single_model, multi_agent]\nruns_per_cell: 1\n"
    "pot: 37\nrounds: 3\nmodel: scripted-stand-in\nsampling: {temperature: 0.7, top_p: 0.9}\n"
)
RECORDS = run_batch(
    plan_from_dict({"pairs": ["fair-greedy"], "runs_per_cell": 1, "rounds": 2})
).records
DEEP = "[" * 100_000 + "]" * 100_000


def cli(*argv) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    out.flush()
    err.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.buffer.getvalue().decode("utf-8")


def assert_one_outcome(code: int, out: str, err: str) -> None:
    """Exit 0 or 1, or exit 2 with nothing on stdout and one error line."""
    if code == EXIT_USAGE:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert out == "" and len(errors) == 1 and err.endswith(errors[0] + "\n"), err
    else:
        assert code in (EXIT_OK, EXIT_PARTIAL), (code, err)


def assert_one_error_line(result: tuple[int, str, str], starts: str) -> None:
    code, out, err = result
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: {starts}")
    assert err.count("\n") == 1


# -- the grammar of bad values ------------------------------------------------

def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


# As YAML. A plan may be cut short anywhere, and no value below is a count
# over 2 when cut short, so any key may hold one.
YAML_VALUES = st.sampled_from(
    [
        _nested(3),
        _nested(300),
        _nested(3000),
        "{a: " * 3000 + "1" + "}" * 3000,
        ".nan",
        ".inf",
        "-.inf",
        '!!binary "AAEC"',
        "{<<: {temperature: .nan}}",
        "{<<: [{a: 1}, {b: 2}]}",
        '"\\ud800"',
        '"x\\udfff"',
        '"\\0"',
        "\x00",
        "null",
        "true",
        "''",
        "0",
        "1",
        "2",
        "-1",
        "fair-fair",
        "multi_agent",
    ]
)
# Long digit runs, dates and numbers in other bases: cut short, each may be
# a number of any size, so only the keys that are not counts (of runs or
# rounds, which size the batch) hold them.
YAML_NUMBERS = st.sampled_from(
    [
        "7" * 5000,
        "-" + "9" * 4400,
        "1" + "0" * 400 + ".5",
        "2024-01-01",
        "2001-12-14t21:59:43.10-05:00",
        "0x" + "f" * 4000,
        "1" + "0" * 40,
        "0b1010",
        "0o17",
        "1_000",
    ]
)

# As JSON.
JSON_VALUES = st.sampled_from(
    [
        "7" * 5000,
        "-" + "9" * 4400,
        "1e999",
        _nested(3),
        _nested(900),
        DEEP,
        '{"a":' * 900 + "1" + "}" * 900,
        "NaN",
        "Infinity",
        "-Infinity",
        '"2024-01-01"',
        '"\\ud800"',
        '"x\\udfff"',
        '"\\u0000"',
        '"\\r"',
        "null",
        "true",
        '""',
        "0",
        "{}",
    ]
)
# Bytes that are not JSON text, or split a line where the reader does not.
RAW_BYTES = st.sampled_from([b"\xff", b"\xed\xa0\x80", b"\x00", b"\r", b"\xef\xbb\xbf", b"\x1c"])


def _with(record: dict, path: tuple[str, ...], value: str) -> str:
    """record as one JSON line with the field at `path` holding the JSON text `value`."""
    mark = "\x00mark\x00"
    edited = json.loads(json.dumps(record))
    inner = edited.get(path[0])
    (inner if len(path) == 2 and isinstance(inner, dict) else edited)[path[-1]] = mark
    return json.dumps(edited, sort_keys=True).replace(json.dumps(mark), value)


@st.composite
def json_lines(draw, records: list[dict], fields: list[tuple[str, ...]]) -> bytes:
    """Lines of `records`, some with a field holding a bad value, some
    replaced by a bad value or bad bytes, the last one perhaps torn."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        record = draw(st.sampled_from(records))
        kind = draw(st.sampled_from(["good", "field", "line", "bytes"]))
        if kind == "good":
            line = json.dumps(record, sort_keys=True).encode()
        elif kind == "field":
            line = _with(record, draw(st.sampled_from(fields)), draw(JSON_VALUES)).encode()
        elif kind == "line":
            line = draw(JSON_VALUES).encode()
        else:
            line = json.dumps(record, sort_keys=True).encode()
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(RAW_BYTES) + line[at:]
        lines.append(line + b"\n")
    data = b"".join(lines)
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data


# -- one test per surface -----------------------------------------------------

PLAN_BASE = {
    "structures": "[multi_agent, single_model]", "pairs": "[fair-greedy]", "runs_per_cell": "1",
    "rounds": "2",
}


def _plan_text(**values: str) -> str:
    return "".join(f"{key}: {value}\n" for key, value in {**PLAN_BASE, **values}.items())


@st.composite
def plans(draw) -> str:
    plan = dict(PLAN_BASE)
    for _ in range(draw(st.integers(1, 3))):
        key = draw(
            st.sampled_from(
                ["pot", "rounds", "runs_per_cell", "seed", "model", "pairs", "structures",
                 "sampling", "flaws", "endpoint", "<<", "warp"]
            )
        )
        counts = ("rounds", "runs_per_cell")
        value = draw(YAML_VALUES) if key in counts else draw(YAML_VALUES | YAML_NUMBERS)
        if key in ("pairs", "structures"):
            value = draw(st.sampled_from([value, f"[fair-fair, {value}]", f"[{value}]"]))
        elif key in ("sampling", "flaws"):
            name = "temperature" if key == "sampling" else "proposer"
            value = draw(st.sampled_from([value, f"{{{name}: {value}}}"]))
        plan[key] = value
    text = _plan_text(**plan)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=40)
@given(text=plans())
@example(text=_plan_text(sampling="{temperature: 1" + "0" * 400 + "}"))  # too large for a float
@example(text=_plan_text(sampling="{top_p: 0x" + "f" * 4000 + "}"))
def test_any_plan_runs_or_is_one_error_line(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("plan")
    (work / "plan.yaml").write_text(text, encoding="utf-8")
    result = cli("run", "--plan", work / "plan.yaml", "--out", work / "runs.jsonl")
    assert_one_outcome(*result)
    if result[0] != EXIT_USAGE:
        for command in ("report", "grade"):
            assert_one_outcome(*cli(command, "--records", work / "runs.jsonl"))


# Counts as the shell hands them over: small, negative, or past a float's range.
COUNTS = st.one_of(st.integers(-2, 12), st.sampled_from([10**400, 10**400 + 1, 2 * 10**400, 10**308]))


@settings(max_examples=40)
@given(test=st.sampled_from(["chi2", "ztest"]), counts=st.lists(COUNTS, min_size=4, max_size=4))
def test_any_stats_counts_test_or_are_one_error_line(test, counts):
    assert_one_outcome(*cli("stats", test, *counts))


STORE_FIELDS = [
    ("run_id",), ("model",), ("cause",), ("status",), ("structure",), ("pair",), ("schema",),
    ("seed",), ("verdict",), ("verdict", "error_class"), ("verdict", "proposer_strategy_complete"),
    ("transcript",), ("elapsed_seconds",),
]


@settings(max_examples=60)
@given(data=json_lines([*RECORDS, {**RECORDS[0], "status": "failed", "cause": "x"}], STORE_FIELDS))
def test_any_store_reports_and_grades_or_is_one_error_line(tmp_path_factory, data):
    store = tmp_path_factory.mktemp("store") / "runs.jsonl"
    store.write_bytes(data)
    for command in ("report", "grade"):
        assert_one_outcome(*cli(command, "--records", store))


RECORDED = [json.loads(line) for line in RECORDING.read_text(encoding="utf-8").splitlines()]
RECORDING_FIELDS = [
    ("response",), ("request",), ("request", "model"), ("request", "messages"),
    ("request", "temperature"), ("request", "top_p"), ("request", "seed"),
]


@settings(max_examples=40)
@given(data=json_lines(RECORDED, RECORDING_FIELDS))
def test_any_recording_replays_or_is_one_error_line(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("replay")
    (work / "plan.yaml").write_text(REPLAY_PLAN, encoding="utf-8")
    (work / "recording.jsonl").write_bytes(data)
    result = cli(
        "run", "--plan", work / "plan.yaml", "--out", work / "runs.jsonl", "--mode", "replay",
        "--replay-file", work / "recording.jsonl",
    )
    assert_one_outcome(*result)


LOG_SNIPPETS = st.sampled_from(
    ["$" + "9" * 5000, "7" * 5000, "0." + "3" * 5000, "\x00", _nested(3000), "NaN", "Infinity%",
     "2024-01-01", "\r", "\ud800", "OFFER: $" + "4" * 5000, "ACCEPT", "rounds 1 through " + "9" * 5000]
)


@st.composite
def logs(draw, path) -> bytes:
    text = path.read_text(encoding="utf-8")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(LOG_SNIPPETS) + text[at:]
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text.encode("utf-8", "surrogatepass")


@settings(max_examples=40)
@given(log=logs(FIXTURES / "fig_single_model_fair_fair.txt"))
def test_any_single_log_grades_or_is_one_error_line(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("log") / "single.txt"
    path.write_bytes(log)
    assert_one_outcome(*cli("grade", "--single-log", path, "--pair", "fair-fair"))


@settings(max_examples=40)
@given(
    proposer=logs(FIXTURES / "fig_agent_proposer.txt"),
    receiver=logs(FIXTURES / "fig_agent_receiver.txt"),
)
def test_any_agent_logs_grade_or_are_one_error_line(tmp_path_factory, proposer, receiver):
    work = tmp_path_factory.mktemp("logs")
    (work / "proposer.txt").write_bytes(proposer)
    (work / "receiver.txt").write_bytes(receiver)
    result = cli(
        "grade", "--proposer-log", work / "proposer.txt", "--receiver-log", work / "receiver.txt",
        "--pair", "fair-fair",
    )
    assert_one_outcome(*result)


@st.composite
def transcripts(draw) -> str:
    """A stored transcript with a line edited: a JSON value or a number
    replaced by a bad one, or stray text put in."""
    lines = draw(st.sampled_from(RECORDS))["transcript"].split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        value = draw(JSON_VALUES)
        edits = [
            lines[i] + " " + value,
            " ".join(lines[i].split(" ")[:2] + [value, value]),
            " ".join(lines[i].split(" ")[:2] + [value] + lines[i].split(" ")[3:]),
            lines[i].replace("=", "=" + value.strip('"'), 1),
            lines[i].replace("2", "\ud800"),
            value,
        ]
        lines[i] = draw(st.sampled_from(edits))
    return "\n".join(lines)


@settings(max_examples=60)
@given(text=transcripts())
def test_any_stored_transcript_grades_or_is_one_error_line(tmp_path_factory, text):
    store = tmp_path_factory.mktemp("canonical") / "runs.jsonl"
    store.write_text(json.dumps({**RECORDS[0], "transcript": text}) + "\n", encoding="utf-8")
    assert_one_outcome(*cli("grade", "--records", store))


# -- named cases ----------------------------------------------------------------

def _plan(tmp_path, text: str):
    (tmp_path / "plan.yaml").write_text(text, encoding="utf-8")
    return cli("run", "--plan", tmp_path / "plan.yaml", "--out", tmp_path / "runs.jsonl")


def test_a_plan_with_a_5000_digit_pot_is_one_error_line(tmp_path):
    assert_one_error_line(_plan(tmp_path, "pot: " + "7" * 5000 + "\n"), "bad plan value: Exceeds the limit")
    assert not (tmp_path / "runs.jsonl").exists()


def test_a_plan_whose_pairs_nest_3000_deep_is_one_error_line(tmp_path):
    assert_one_error_line(_plan(tmp_path, f"pairs: {_nested(3000)}\n"), "bad plan value: maximum recursion")


def test_a_plan_with_a_lone_surrogate_model_is_one_error_line(tmp_path):
    result = _plan(tmp_path, 'model: "\\ud800"\nruns_per_cell: 1\n')
    assert_one_error_line(result, "model must be UTF-8 text, got '\\ud800'")
    assert not (tmp_path / "runs.jsonl").exists()


def test_a_sampling_value_too_large_for_a_float_is_one_error_line(tmp_path):
    result = _plan(tmp_path, "runs_per_cell: 1\nsampling: {temperature: 1" + "0" * 400 + "}\n")
    assert_one_error_line(result, "bad plan value: int too large to convert to float")


@pytest.mark.parametrize("test", ["chi2", "ztest"])
def test_stats_on_counts_too_large_for_a_float_is_one_error_line(test):
    result = cli("stats", test, 10**400, 10**400, 1, 2)
    assert_one_error_line(result, "counts too large for a float: ")


def test_a_seed_the_store_cannot_write_is_one_error_line(tmp_path):
    result = _plan(tmp_path, "runs_per_cell: 1\nseed: 0x" + "f" * 4000 + "\n")
    assert_one_error_line(result, "seed must fit in 64 bits, got 16000 bits")


@pytest.mark.parametrize("command", ["report", "grade"])
def test_a_store_line_nested_100000_deep_is_one_error_line(tmp_path, command):
    store = tmp_path / "runs.jsonl"
    store.write_text(json.dumps(RECORDS[0]) + "\n" + DEEP + "\n", encoding="utf-8")
    result = cli(command, "--records", store)
    assert_one_error_line(result, f"{store}:2: bad record: maximum recursion depth exceeded")


def test_a_recording_line_nested_100000_deep_is_one_error_line(tmp_path):
    (tmp_path / "plan.yaml").write_text(REPLAY_PLAN, encoding="utf-8")
    recording = tmp_path / "recording.jsonl"
    recording.write_text(RECORDING.read_text(encoding="utf-8") + DEEP + "\n", encoding="utf-8")
    result = cli(
        "run", "--plan", tmp_path / "plan.yaml", "--out", tmp_path / "runs.jsonl",
        "--mode", "replay", "--replay-file", recording,
    )
    assert_one_error_line(result, f"{recording}:37: bad recording: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("report", "model", "\ud800"),
        ("grade", "run_id", "\ud800x"),
        ("grade", "cause", "\udc00"),
    ],
)
def test_a_stored_lone_surrogate_is_one_error_line(tmp_path, command, field, value):
    record = {**RECORDS[0], "status": "failed", "cause": "x", field: value}
    store = tmp_path / "runs.jsonl"
    store.write_text(json.dumps(RECORDS[1]) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    result = cli(command, "--records", store)
    assert_one_error_line(result, f"{store}:2: record ")
    assert f"has {field} {json.dumps(value)}, not UTF-8 text" in result[2]


def test_a_strategy_payload_nested_100000_deep_is_a_bad_json_payload():
    lines = RECORDS[0]["transcript"].split("\n")
    lines[1] = f"strategy proposer {DEEP} \"text\""
    with pytest.raises(MalformedRecordError, match="^bad JSON payload: maximum recursion depth"):
        parse_canonical("\n".join(lines))


def test_a_store_split_at_crlf_reads_as_split_at_lf(tmp_path):
    lines = [json.dumps(record, sort_keys=True) for record in RECORDS]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    lf.write_bytes("".join(line + "\n" for line in lines).encode())
    crlf.write_bytes("".join(line + "\r\n" for line in lines).encode())
    assert load_records(crlf) == load_records(lf) == list(RECORDS)


def test_a_store_split_at_lone_carriage_returns_is_refused(tmp_path):
    store = tmp_path / "runs.jsonl"
    store.write_bytes("".join(json.dumps(record) + "\r" for record in RECORDS).encode() + b"\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(store))}:1: bad record: Extra data"):
        load_records(store)
