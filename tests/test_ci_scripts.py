"""Checks that once ran only as shell in CI, run here as tier-1 tests.

Each runs what the shell ran: the CLI or one of the `scripts/` entry
points in a fresh interpreter through `subprocess`, in `tmp_path`, with
`src/` on PYTHONPATH. The replay-fixture forms the shell replayed (the
doubled and reversed recording, 1 and 2 workers, three runs per cell, no
re-grade drift) are cases of tests/test_golden_replay.py.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "ultimatum"
FIXTURES = ROOT / "tests" / "fixtures"
DRIFT = "[differs from stored verdict]"

# src/ultimatum, prompts/ included, grows only by a stated choice: a change
# that raises this bound says why in CHANGES.md.
SOURCE_LINE_BOUND = 4564


def test_the_source_stays_within_its_line_bound():
    files = sorted(SOURCE.glob("*.py")) + sorted((SOURCE / "prompts").glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert lines <= SOURCE_LINE_BOUND, f"src/ultimatum: {lines} .py lines"


def _python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def _cli(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return _python("-m", "ultimatum.cli", *args, cwd=cwd)


ORACLE = "run_oracle_experiment.py"


@pytest.mark.parametrize("argv", [
    ["reproduce_reference_stats.py"],
    [ORACLE, "--runs-per-cell", "2"],
    [ORACLE, "--runs-per-cell", "2", "--proposer-flaw", "incomplete"],
    [ORACLE, "--runs-per-cell", "2", "--proposer-flaw", "deviator"],
    [ORACLE, "--runs-per-cell", "2", "--receiver-flaw", "inconsistent_threshold"],
], ids=["reference-stats", "oracle", "oracle-incomplete", "oracle-deviator", "oracle-inconsistent-threshold"])
def test_each_script_exits_zero(tmp_path, argv):
    # reproduce_reference_stats.py exits 1 when a statistic drifts from its
    # pinned value, run_oracle_experiment.py when a run fails.
    done = _python(str(ROOT / "scripts" / argv[0]), *argv[1:], cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_a_pot_above_the_largest_is_one_error_line_and_no_store(tmp_path):
    # Every pot a plan accepts writes round lines the canonical reader reads
    # (at most 18 digits), so a larger pot is a usage error (exit 2).
    (tmp_path / "big_pot.yaml").write_text(
        "runs_per_cell: 1\npot: 10000000000000000000\n", encoding="utf-8"
    )
    done = _cli("run", "--plan", "big_pot.yaml", "--out", "big_pot.jsonl", cwd=tmp_path)
    assert done.returncode == 2
    assert not (tmp_path / "big_pot.jsonl").exists()
    assert done.stderr.splitlines() == [
        "error: bad plan value: pot must be <= 999999999999999999 cents, got 10000000000000000000"
    ]


# ---------------------------------------------------------------------------
# The CLI write/read path
# ---------------------------------------------------------------------------

PLAN = "pairs: [fair-greedy, greedy-fair]\nruns_per_cell: 3\npot: 37\nrounds: 3\nflaws: {proposer: deviator}\n"


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> Path:
    """Two batches of one oracle plan, the second on 2 workers, in one store."""
    work = tmp_path_factory.mktemp("round_trip")
    (work / "plan.yaml").write_text(PLAN, encoding="utf-8")
    for workers in ("1", "2"):
        done = _cli("run", "--plan", "plan.yaml", "--out", "runs.jsonl", "--workers", workers, cwd=work)
        assert done.returncode == 0, done.stderr
    return work / "runs.jsonl"


def test_one_and_two_workers_write_the_same_oracle_store(store):
    # The second run appends to the store the first wrote.
    lines = store.read_text(encoding="utf-8").splitlines()
    records = [{k: v for k, v in json.loads(line).items() if k != "elapsed_seconds"} for line in lines]
    assert len(records) == 24
    assert records[:12] == records[12:]


@pytest.mark.parametrize("plan, args, error", [
    ("endpoint: localhost:8000/v1/chat/completions\n", ["--mode", "live"], None),
    (PLAN, ["--workers", "0"], None),
    ("runs_per_cell: 1\npot: 99.5\n", [], None),
    ("runs_per_cell: 1\npot: 100\npot: 200\n", [],
     "error: plan file repeats key 'pot' on line 3 (first on line 2)"),
    ("structures: [unclosed\n", [],
     "error: plan file is not valid YAML: expected ',' or ']', but got '<stream end>' on line 2, column 1"),
], ids=["endpoint-not-http", "no-workers", "fractional-pot", "repeated-key", "invalid-yaml"])
def test_a_bad_plan_is_one_error_line_and_no_store(tmp_path, plan, args, error):
    (tmp_path / "plan.yaml").write_text(plan, encoding="utf-8")
    done = _cli("run", "--plan", "plan.yaml", "--out", "runs.jsonl", *args, cwd=tmp_path)
    assert done.returncode == 2
    assert not (tmp_path / "runs.jsonl").exists()
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if error is not None:
        assert lines == [error]


def test_every_stored_verdict_regrades_the_same_and_both_reports_run(store):
    graded = _cli("grade", "--records", str(store), cwd=store.parent)
    assert graded.returncode == 0, graded.stderr
    lines = graded.stdout.splitlines()
    assert lines[-1] == "24 records, 24 graded, 0 failed"
    assert not [line for line in lines if DRIFT in line]
    for fmt in ("markdown", "csv"):
        report = _cli("report", "--records", str(store), "--format", fmt, cwd=store.parent)
        assert report.returncode == 0, report.stderr
        assert report.stdout


def test_a_record_edited_where_its_transcript_repeats_is_the_only_drift(store, tmp_path):
    # A pass grades each distinct transcript once but checks every record
    # against its own stored verdict.
    records = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    texts = [r["transcript"] for r in records]
    edited = next(r for r in records if texts.count(r["transcript"]) > 1)
    verdict = edited["verdict"]
    verdict["error_class"] = "none" if verdict["error_class"] != "none" else "both"
    (tmp_path / "drift.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
    )
    graded = _cli("grade", "--records", "drift.jsonl", cwd=tmp_path)
    assert graded.returncode == 0, graded.stderr
    drifted = [line for line in graded.stdout.splitlines() if DRIFT in line]
    assert len(drifted) == 1 and drifted[0].startswith(f"{edited['run_id']}: ")


@pytest.mark.parametrize("logs, committed", [
    (["--single-log", "tests/fixtures/fig_single_model_fair_fair.txt"], "fig_single_model_fair_fair.grade.txt"),
    (["--proposer-log", "tests/fixtures/fig_agent_proposer.txt",
      "--receiver-log", "tests/fixtures/fig_agent_receiver.txt"], "fig_agent.grade.txt"),
], ids=["single-model", "agent-pair"])
def test_the_figure_logs_grade_as_committed(tmp_path, logs, committed):
    # The output names each log by the path it was given, so each log sits
    # at the relative path the committed output names.
    for log in logs[1::2]:
        (tmp_path / log).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(ROOT / log, tmp_path / log)
    graded = _cli("grade", *logs, "--pair", "fair-fair", cwd=tmp_path)
    assert graded.returncode == 0, graded.stderr
    assert graded.stdout == (FIXTURES / committed).read_text(encoding="utf-8")


OK_VERDICT = {
    "error_class": "none",
    "proposer_strategy_complete": True,
    "receiver_strategy_complete": True,
    "proposer_strategy_consistent": True,
    "receiver_strategy_consistent": True,
}
OK_RECORD = {"run_id": "r", "status": "ok", "structure": "multi_agent", "pair": "fair-fair"}


@pytest.mark.parametrize("command, record, problem", [
    ("report", {}, "{} has no field 'structure'"),
    ("report", {**OK_RECORD, "verdict": {**OK_VERDICT, "error_class": [1]}}, "r has unknown error_class [1]"),
    ("report", {**OK_RECORD, "verdict": {**OK_VERDICT, "proposer_strategy_complete": "no"}},
     'r has proposer_strategy_complete "no", not true or false'),
    ("grade", {**OK_RECORD, "verdict": {**OK_VERDICT, "proposer_strategy_complete": "no"}},
     'r has proposer_strategy_complete "no", not true or false'),
    ("report", "schema 2", "has schema 2, not 1"),
], ids=["no-fields", "error-class-not-a-class", "flag-as-text", "grade-flag-as-text", "other-schema"])
def test_a_record_off_the_schema_is_a_usage_error(store, tmp_path, command, record, problem):
    if record == "schema 2":
        record = {**json.loads(store.read_text(encoding="utf-8").splitlines()[0]), "schema": 2}
        problem = f"{record['run_id']} {problem}"
    (tmp_path / "bad.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    done = _cli(command, "--records", "bad.jsonl", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: bad.jsonl:1: record {problem}\n"


def test_a_numeric_transcript_is_a_usage_error_that_names_its_line(tmp_path):
    record = {**OK_RECORD, "run_id": "n", "schema": 1, "verdict": OK_VERDICT, "transcript": 7}
    (tmp_path / "number_transcript.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    done = _cli("grade", "--records", "number_transcript.jsonl", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "number_transcript.jsonl:1: record n has transcript 7, not text" in done.stderr


def test_the_z_test_carries_the_small_sample_warning(tmp_path):
    done = _cli("stats", "ztest", "7", "7", "0", "7", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert [line for line in done.stdout.splitlines() if "warning:" in line]
