"""Golden stores of two oracle plans run through `ultimatum run`.

`tests/fixtures/oracle/` holds each plan and the store it writes, every
record with all its fields but `elapsed_seconds`:

* `clean.yaml`: both structures, all four pairs, two runs per cell, pot
  100, 5 rounds, run with `--keep-prompts`, so its store pins each run's
  prompt and reply traffic too;
* `deviator.yaml`: the plan CI runs (two pairs, three runs per cell,
  pot 37, 3 rounds, a deviating proposer).

The stores pin the oracles' canonical transcripts, raw logs included,
and their verdicts; a fresh run of each plan must write its store byte
for byte.

Regenerate the files after an intended change with
``PYTHONPATH=src python tests/test_golden_oracle.py``.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest

from ultimatum.cli import main

ORACLE = pathlib.Path(__file__).parent / "fixtures" / "oracle"
OPTIONS = {"clean": ["--keep-prompts"], "deviator": []}


def _store(case: str) -> str:
    """The store `ultimatum run` writes for the case's plan, without
    `elapsed_seconds`."""
    with tempfile.TemporaryDirectory() as work:
        out = pathlib.Path(work) / "runs.jsonl"
        args = ["run", "--plan", str(ORACLE / f"{case}.yaml"), "--out", str(out)]
        assert main(args + OPTIONS[case]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    return "".join(
        json.dumps({k: v for k, v in r.items() if k != "elapsed_seconds"}, sort_keys=True) + "\n"
        for r in records
    )


def _path(case: str) -> pathlib.Path:
    return ORACLE / f"{case}.jsonl"


@pytest.mark.parametrize("case", OPTIONS)
def test_oracle_run_matches_golden_store(case):
    assert _store(case) == _path(case).read_text(encoding="utf-8")


if __name__ == "__main__":
    for case in OPTIONS:
        _path(case).write_text(_store(case), encoding="utf-8")
