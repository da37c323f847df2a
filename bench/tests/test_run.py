import json
import re
import shutil
import subprocess
import sys

import pytest

import gate
import run
import speed
from ultimatum import experiment

BENCH = run.ROOT / "bench"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_the_runner():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(run.WORKLOAD_NAMES)
    assert len(names) == len(set(names)) and all(NAME_RE.match(n) for n in names)


def test_tail_is_p95_with_at_least_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1000, 0, -1)]) == (950.0, 95.0)
    assert run.tail([float(i) for i in range(1, 51)]) == (40.0, 80.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_rates_count_only_runs_that_did_not_fail():
    phase = run.Phase(call_s=[1.0, 1.0, 2.0], cycle_of=[0, 0, 1], items_of=[10, 10, 10],
                      failed_of=[0, 4, 10], cycles=2)
    assert phase.cycle_rates(phase.call_s) == [8.0, 0.0]
    assert (phase.items, phase.failed) == (30, 14)


def test_speed_factor_scales_by_the_gauge_samples_around_a_call():
    log = speed.SpeedLog()
    log.seconds = [2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S, speed.NOMINAL_S]
    assert log.factor(0) == pytest.approx(0.5)
    assert log.factor(1) == pytest.approx(1 / 1.5)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_short_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert 0 <= result["failed"] < result["attempted"]
    if workload == "oracle_grid":
        assert result["failed"] == 0
    expected = run.END_TO_END if trace == "0" else run.PER_LAYER
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [(n, u) for n, u, _ in expected]
    values = {n: m["value"] for n, m in result["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
    else:
        layers = sum(v for n, v in values.items()
                     if n.endswith(".self_s") and not n.startswith(("experiment.plan.", "other.")))
        assert layers + values["other.self_s"] == pytest.approx(values["trace.wall_s"], rel=1e-6)
    detail = json.loads(lines[-2])["detail"]
    env = detail["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["python"]
    assert "git_sha" in env and len(env["source_sha256"]) == 64
    if trace == "0":
        assert all("samples" in m for name, m in detail["metrics"].items() if name != "peak_rss_mb")
    shares = {n: m["value"] for n, m in detail["metrics"].items()}
    if trace == "0":
        assert shares["failed_share"] == pytest.approx(result["failed"] / result["attempted"])
    if workload == "oracle_grid" and trace == "0":
        assert shares["misgrade_share"] > 0
    if workload == "replay" and trace == "0":
        assert shares["replay_mismatch_share"] > 0 or shares["failed_share"] > 0


def test_attempted_and_failed_do_not_depend_on_how_many_cycles_fit():
    counts = []
    for seconds in ("0.1", "1.5"):
        proc = _bench("--workload", "regrade_report", "--seed", "5", "--seconds", seconds, "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        cycles = json.loads(proc.stdout.splitlines()[-2])["detail"]["samples"]["cycles"]
        counts.append((result["attempted"], result["failed"], cycles))
    assert counts[0][:2] == counts[1][:2] and counts[1][1] > 0
    assert counts[0][2] < counts[1][2]


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "oracle_grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _records():
    plan = experiment.plan_from_dict({"runs_per_cell": 1, "pairs": ["fair-greedy"]})
    return [dict(r) for r in experiment.run_batch(plan).records]


def test_gate_accepts_program_output():
    gate.check_records(_records())


def test_gate_rejects_a_verdict_that_differs_from_its_regrade():
    records = _records()
    records[0]["verdict"] = dict(records[0]["verdict"], error_class="both")
    with pytest.raises(gate.GateError, match="re-grade"):
        gate.check_records(records)


def test_gate_rejects_a_transcript_that_does_not_round_trip():
    records = _records()
    records[1]["transcript"] = records[1]["transcript"].replace("\n", "\n\n", 1)
    with pytest.raises(gate.GateError):
        gate.check_records(records)


def test_gate_rejects_an_undesigned_failure_and_wrong_totals():
    records = _records()
    failed = dict(records[0], status="failed", cause="TypeError: boom", transcript=None, verdict=None)
    with pytest.raises(gate.GateError, match="unexpected failure"):
        gate.check_records([failed])
    gate.check_records([failed], allowed_causes=("TypeError",))
    with pytest.raises(gate.GateError, match="totals"):
        gate.check_report_totals("# r\n\n3 runs: 2 graded, 0 failed.\n", 3)


def test_records_digest_ignores_wall_time_only():
    records = _records()
    later = [dict(r, elapsed_seconds=r["elapsed_seconds"] + 1) for r in records]
    assert gate.records_digest(records) == gate.records_digest(later)
    changed = [dict(records[0], seed=-1)] + records[1:]
    assert gate.records_digest(records) != gate.records_digest(changed)
