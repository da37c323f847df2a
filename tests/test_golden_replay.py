"""Golden stores of two replays of the fixture recording in
tests/fixtures/replay/.

Each store holds every field but `elapsed_seconds` of the records a
`keep_prompts` replay of plan.yaml writes: `replayed-full.jsonl` replays
the whole recording, `replayed-without-line-1.jsonl` the recording without
its first line, so a run misses a request and stores its cause. Each
replay must match its committed store record for record, prompt and reply
traffic included. The fixture's recorder (record.py) must still write the
committed recording and verdicts byte for byte.

Regenerate the files after an intended change with
``PYTHONPATH=src python tests/test_golden_replay.py``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import tempfile

import pytest

from ultimatum.agents import ReplayGateway
from ultimatum.experiment import load_plan, run_batch

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "replay"
SKIPPED_LINES = {"full": 0, "without-line-1": 1}


def _replayed(case: str) -> list[dict]:
    lines = (FIXTURE / "recording.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as work:
        # A miss's cause names the recording's file name, so it is kept.
        tape = pathlib.Path(work) / "recording.jsonl"
        tape.write_text("".join(lines[SKIPPED_LINES[case] :]), encoding="utf-8")
        batch = run_batch(
            load_plan(FIXTURE / "plan.yaml"),
            mode="replay",
            gateway=ReplayGateway(tape),
            keep_prompts=True,
        )
    return [{k: v for k, v in r.items() if k != "elapsed_seconds"} for r in batch.records]


def _path(case: str) -> pathlib.Path:
    return FIXTURE / f"replayed-{case}.jsonl"


@pytest.mark.parametrize("case", SKIPPED_LINES)
def test_replay_matches_golden_store(case):
    with _path(case).open(encoding="utf-8") as fh:
        expected = [json.loads(line) for line in fh]
    assert _replayed(case) == expected


def test_the_shortened_recording_pins_a_miss():
    with _path("without-line-1").open(encoding="utf-8") as fh:
        causes = [json.loads(line).get("cause", "") for line in fh]
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
    for case in SKIPPED_LINES:
        with _path(case).open("w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in _replayed(case))
