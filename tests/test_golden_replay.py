"""Golden stores of two replays of the fixture recording in
tests/fixtures/replay/, which the RecordingGateway that predates the
cached replay keys wrote (see record.py there).

Each store holds every field but `elapsed_seconds` of the records a
`keep_prompts` replay of plan.yaml writes: `replayed-full.jsonl` replays
the whole recording, `replayed-without-line-1.jsonl` the recording without
its first line, so a run misses a request and stores its cause. Each
replay must match its committed store record for record, prompt and reply
traffic included, whatever the recording's line order, with each line
repeated, on one worker or two, and with each cell's game replayed three
times. Every ok record of both stores re-grades to its stored verdict.
The fixture's recorder (record.py) must still write the committed
recording and verdicts byte for byte.

Each replay writes its tape to a fresh temporary directory, so replay
does not depend on where the recording lives.

Regenerate the files after an intended change with
``PYTHONPATH=src python tests/test_golden_replay.py``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib
import tempfile

import pytest

from ultimatum.agents import ReplayGateway
from ultimatum.experiment import BatchResult, ExperimentPlan, load_plan, regrade_record, run_batch

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "replay"
SKIPPED_LINES = {"full": 0, "without-line-1": 1}
# Forms of the recording that replay as the recording does. A repeated
# line is decoded once and the last line for a key wins; the lookup is by
# value, so line order does not matter.
TAPES = {
    "committed": lambda lines: lines,
    "every-line-twice": lambda lines: lines + lines,
    "reversed": lambda lines: lines[::-1],
}


def _lines() -> list[str]:
    return (FIXTURE / "recording.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)


def _replay(lines: list[str], plan: ExperimentPlan | None = None, workers: int = 1) -> BatchResult:
    """A keep_prompts replay of plan (plan.yaml by default) from a tape of
    `lines` in a fresh directory."""
    with tempfile.TemporaryDirectory() as work:
        # A miss's cause names the recording's file name, so it is kept.
        tape = pathlib.Path(work) / "recording.jsonl"
        tape.write_text("".join(lines), encoding="utf-8")
        return run_batch(
            plan or load_plan(FIXTURE / "plan.yaml"),
            mode="replay",
            gateway=ReplayGateway(tape),
            keep_prompts=True,
            max_workers=workers,
        )


def _without(records, *fields: str) -> list[dict]:
    skip = {"elapsed_seconds", *fields}
    return [{k: v for k, v in r.items() if k not in skip} for r in records]


def _path(case: str) -> pathlib.Path:
    return FIXTURE / f"replayed-{case}.jsonl"


def _golden(case: str) -> list[dict]:
    with _path(case).open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("tape", TAPES)
def test_each_form_of_the_recording_replays_to_the_golden_store(tape, workers):
    lines = _lines()
    batch = _replay(TAPES[tape](lines), workers=workers)
    assert batch.failed_count == 0
    assert batch.gateway_usage["requests"] == len(lines)  # one request per recorded line
    assert _without(batch.records) == _golden("full")


def test_the_recording_without_its_first_line_replays_to_its_golden_store():
    assert _without(_replay(_lines()[1:]).records) == _golden("without-line-1")


def test_three_runs_per_cell_replay_each_golden_record_three_times():
    # A batch grades each game once; the later runs of a cell reuse that grade.
    plan = dataclasses.replace(load_plan(FIXTURE / "plan.yaml"), runs_per_cell=3)
    lines = _lines()
    batch = _replay(lines, plan)
    assert batch.failed_count == 0
    assert batch.gateway_usage["requests"] == 3 * len(lines)
    tripled = [record for record in _golden("full") for _ in range(3)]
    assert _without(batch.records, "run_id", "seed") == _without(tripled, "run_id", "seed")


def test_every_golden_record_regrades_to_its_stored_verdict():
    ok = [r for case in SKIPPED_LINES for r in _golden(case) if r["status"] == "ok"]
    assert ok
    for record in ok:
        assert regrade_record(record) == record["verdict"], record["run_id"]


def test_the_shortened_recording_pins_a_miss():
    causes = [record.get("cause", "") for record in _golden("without-line-1")]
    miss = "GatewayError: no recorded response for request "
    assert any(cause.startswith(miss) for cause in causes)


def test_the_recorder_writes_the_committed_fixture(tmp_path):
    # The replays above read the committed recording; this pins the writer:
    # the fixture's own recorder must still produce those bytes.
    spec = importlib.util.spec_from_file_location("record_fixture", FIXTURE / "record.py")
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    record.main(tmp_path)
    for name in ("recording.jsonl", "verdicts.json"):
        assert (tmp_path / name).read_bytes() == (FIXTURE / name).read_bytes(), name


if __name__ == "__main__":
    for case, skipped in SKIPPED_LINES.items():
        records = _without(_replay(_lines()[skipped:]).records)
        with _path(case).open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
