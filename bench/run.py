"""Benchmark of the ultimatum harness: four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload oracle_grid --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

One run prepares the workload's inputs from the seed, times the program's
set-up, then repeats the workload's cycle of calls for --seconds. Every
call's output passes the correctness gate (gate.py) before any number is
printed; a failed gate exits 1 without a result. The last line of stdout
is one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics (from wrapped calls, see layer_trace.py) with --trace 1. The line
before it carries the run's environment, sample counts and the
workload-specific metrics. bench/README.md describes every workload and
metric.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("oracle_grid", "live_fake", "replay", "regrade_report")
SETUP_REPEATS = 7
TAIL_PERCENTILE = 95
TAIL_BEYOND = 10  # fewest samples the tail has beyond it
EXIT_GATE = 1
EXIT_USAGE = 2

# (name, unit, better) of the metrics printed with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("runs_per_s", "runs/s", "higher"),
    ("call_ms_p50", "ms", "lower"),
    ("call_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# Layers reported as <layer>.calls and <layer>.self_s, per cycle.
_TIMED_LAYERS = (
    "transcripts.parse_agent_log",
    "transcripts.parse_single_model_log",
    "transcripts.parse_strategy_text",
    "transcripts.extract_reply",
    "transcripts.serialize_canonical",
    "transcripts.parse_canonical",
    "rubric.evaluate_transcript",
    "strategy.prescribed_action",
    "strategy.checks",
    "engine",
    "orchestrator.run_multi_agent",
    "orchestrator.run_single_model",
    "agents.act",
    "prompts.render",
    "experiment.run_batch",
    "experiment.store_append",
    "experiment.load_records",
    "experiment.regrade_record",
    "experiment.aggregate",
    "experiment.render_report",
    "stats.tests",
    "cli.main",
)

# (name, unit, better) of the metrics printed with --trace 1.
PER_LAYER = (
    tuple(
        m
        for layer in _TIMED_LAYERS
        for m in ((f"{layer}.calls", "count/cycle", "lower"), (f"{layer}.self_s", "s/cycle", "lower"))
    )
    + (
        ("transcripts.exact_share", "ratio", "higher"),
        ("orchestrator.oracle_gateway_builds", "count/cycle", "lower"),
        ("orchestrator.oracle_gateway_builds.self_s", "s/cycle", "lower"),
        ("orchestrator.reprompts", "count/cycle", "lower"),
        ("agents.complete.calls", "count/cycle", "lower"),
        ("agents.complete.self_s", "s/cycle", "lower"),
        ("agents.complete.wait_s", "s/cycle", "lower"),
        ("agents.retries", "count/cycle", "lower"),
        ("agents.useful_reply_share", "ratio", "higher"),
        ("experiment.worker_busy_share", "ratio", "higher"),
        ("experiment.plan.calls", "count", "lower"),
        ("experiment.plan.self_s", "s", "lower"),
        ("other.self_s", "s/cycle", "lower"),
        ("trace.wall_s", "s/cycle", "lower"),
        ("trace.overhead", "ratio", "higher"),
    )
)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the repository at ROOT, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ultimatum").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import ultimatum; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def measure_setup(workload, speed) -> list[float]:
    """Set-up times (package import plus the workload's own set-up), scaled
    to the nominal machine speed."""
    import_seconds()  # the first import in a fresh checkout also byte-compiles
    samples = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        imported = import_seconds()
        start = time.perf_counter()
        workload.setup()
        end = time.perf_counter()
        speed.sample()
        samples.append((imported + end - start) * speed.factor(before))
    return samples


@dataclass
class Phase:
    """Timed calls of whole cycles, traced or not."""

    gauge_before: list[int] = field(default_factory=list)
    call_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)  # process CPU time of each call
    cycle_of: list[int] = field(default_factory=list)
    items_of: list[int] = field(default_factory=list)  # runs or records attempted
    failed_of: list[int] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    counts: collections.Counter = field(default_factory=collections.Counter)
    cycles: int = 0

    @property
    def items(self) -> int:
        return sum(self.items_of)

    @property
    def failed(self) -> int:
        return sum(self.failed_of)

    def scaled_s(self, speed, cpu_bound: bool) -> list[float]:
        """Call times at the nominal machine speed: the whole call when
        CPU-bound, else only its CPU time (the waiting is left as it was)."""
        if not cpu_bound:
            return [s + c * (speed.factor(g) - 1)
                    for g, s, c in zip(self.gauge_before, self.call_s, self.cpu_s)]
        return [s * speed.factor(g) for g, s in zip(self.gauge_before, self.call_s)]

    def cycle_rates(self, scaled: list[float]) -> list[float]:
        """Ok runs (or records) per second of call time, one rate per cycle:
        a failed run is not counted as work done."""
        ok, busy = [0] * self.cycles, [0.0] * self.cycles
        for cycle, n, failed, s in zip(self.cycle_of, self.items_of, self.failed_of, scaled):
            ok[cycle] += n - failed
            busy[cycle] += s
        return [n / s for n, s in zip(ok, busy)]


def run_phase(workload, cycle, seconds: float, repeats, speed, tracer=None) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        for position, item in enumerate(cycle):
            gauge = speed.sample()
            if tracer is not None:
                tracer.enabled = True
            start, cpu = time.perf_counter(), time.process_time()
            result = workload.call(item)
            end, cpu_end = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.enabled = False
                phase.windows.append((start, end))
            outcome = workload.check(item, result)
            repeats.check(position, outcome.digest)
            phase.gauge_before.append(gauge)
            phase.call_s.append(end - start)
            phase.cpu_s.append(cpu_end - cpu)
            phase.cycle_of.append(phase.cycles)
            phase.items_of.append(outcome.items)
            phase.failed_of.append(outcome.counts.get("failed", 0))
            phase.counts.update(outcome.counts)
        phase.cycles += 1
        if time.perf_counter() >= deadline:
            speed.sample()
            return phase


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the nearest-rank TAIL_PERCENTILE, or, when
    fewer than TAIL_BEYOND samples would lie beyond it, of the highest
    percentile that has TAIL_BEYOND beyond it.

    A fixed percentile reads the same point of a cycle's call times however
    many cycles fit in the run; a fixed rank from the top would reach
    deeper into the slowest calls the more cycles a run makes.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = min(math.ceil(n * TAIL_PERCENTILE / 100) - 1, n - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / n


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str, samples: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(workload, setup: list[float], phase: Phase, speed) -> tuple[dict, dict]:
    """(result-line metrics, workload metrics under their own names)."""
    scaled = phase.scaled_s(speed, workload.cpu_bound)
    rates = phase.cycle_rates(scaled)
    rate, p50 = statistics.median(rates), statistics.median(scaled) * 1000
    tail_s, pct = tail(scaled)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n_calls = len(scaled)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "runs_per_s": _metric(rate, "runs/s"),
        "call_ms_p50": _metric(p50, "ms"),
        "call_ms_tail": _metric(tail_s * 1000, "ms"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    counts, items = phase.counts, phase.items
    call = "pass" if workload.item == "records" else "batch"
    named = {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        f"{workload.item}_per_s": _metric(rate, f"{workload.item}/s", len(rates)),
        f"{call}_ms_p50": _metric(p50, "ms", n_calls),
        f"{call}_ms_tail": dict(_metric(tail_s * 1000, "ms", n_calls), percentile=pct),
        "failed_share": _metric(_share(phase.failed, items), "ratio", items),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    if workload.name in ("live_fake", "replay"):
        named["requests_per_run"] = _metric(_share(counts["requests"], items), "count", items)
    if workload.name == "oracle_grid":
        named["misgrade_share"] = _metric(_share(counts["misgraded"], items), "ratio", items)
    if workload.name == "replay":
        named["replay_mismatch_share"] = _metric(_share(counts["mismatched"], items), "ratio", items)
    unscaled_rates = phase.cycle_rates(phase.call_s)
    named[f"unscaled_{workload.item}_per_s"] = _metric(
        statistics.median(unscaled_rates), f"{workload.item}/s", len(unscaled_rates)
    )
    named[f"unscaled_{call}_ms_p50"] = _metric(statistics.median(phase.call_s) * 1000, "ms", n_calls)
    named["cpu_share"] = _metric(_share(sum(phase.cpu_s), sum(phase.call_s)), "ratio", n_calls)
    named["gauge_ms_p50"] = _metric(statistics.median(speed.seconds) * 1000, "ms", len(speed.seconds))
    return metrics, named


def per_layer(workload, tracer, setup_summary: dict, traced: list[Phase], untraced: list[Phase],
              speed) -> dict:
    windows = [w for p in traced for w in p.windows]
    summary = tracer.summary(windows)
    cycles = sum(p.cycles for p in traced)
    calls, self_s, total_s = summary["calls"], summary["self_s"], summary["total_s"]
    counts = tracer.counts
    retries = sum(p.counts["retries"] for p in traced)

    def per_cycle(value: float) -> float:
        return value / cycles

    values = {}
    for layer in _TIMED_LAYERS:
        values[f"{layer}.calls"] = per_cycle(calls.get(layer, 0))
        values[f"{layer}.self_s"] = per_cycle(self_s.get(layer, 0.0))
    completions = calls.get("agents.complete", 0)
    run_s = total_s.get("orchestrator.run_multi_agent", 0.0) + total_s.get("orchestrator.run_single_model", 0.0)

    def rate(phases: list[Phase]) -> float:
        scaled = (s for p in phases for s in p.scaled_s(speed, workload.cpu_bound))
        return sum(p.items - p.failed for p in phases) / sum(scaled)

    values.update({
        "transcripts.exact_share": _share(counts["transcripts.exact"], counts["transcripts.parses"]),
        "orchestrator.oracle_gateway_builds": per_cycle(calls.get("orchestrator.oracle_gateway_builds", 0)),
        "orchestrator.oracle_gateway_builds.self_s": per_cycle(self_s.get("orchestrator.oracle_gateway_builds", 0.0)),
        "orchestrator.reprompts": per_cycle(counts["orchestrator.reprompts"]),
        "agents.complete.calls": per_cycle(completions),
        "agents.complete.self_s": per_cycle(self_s.get("agents.complete", 0.0)),
        "agents.complete.wait_s": per_cycle(total_s.get("agents.complete", 0.0)),
        "agents.retries": per_cycle(retries),
        "agents.useful_reply_share": _share(completions - counts["orchestrator.reprompts"], completions),
        "experiment.worker_busy_share": _share(
            run_s, workload.workers * total_s.get("experiment.run_batch", 0.0)
        ),
        "experiment.plan.calls": setup_summary["calls"].get("experiment.plan", 0),
        "experiment.plan.self_s": setup_summary["self_s"].get("experiment.plan", 0.0),
        "other.self_s": per_cycle(summary["other_s"]),
        "trace.wall_s": per_cycle(summary["wall_s"]),
        "trace.overhead": rate(traced) / rate(untraced),
    })
    layer_sum = sum(self_s.values()) + summary["other_s"]
    if abs(layer_sum - summary["wall_s"]) > 1e-6 * max(1.0, summary["wall_s"]):
        raise RuntimeError(f"layer self times add up to {layer_sum}, not {summary['wall_s']}")
    return {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}


def run_workload(args) -> int:
    import gate
    from layer_trace import LayerTracer
    from speed import SpeedLog
    from workloads import WORKLOADS

    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        cycle = workload.cycle()
        repeats = gate.Repeats()
        speed = SpeedLog()
        if not args.trace:
            setup = measure_setup(workload, speed)
            phase = run_phase(workload, cycle, args.seconds, repeats, speed)
            traced = untraced = [phase]
        else:
            tracer = LayerTracer()
            with tracer:
                tracer.enabled = True
                start = time.perf_counter()
                workload.setup()
                end = time.perf_counter()
                tracer.enabled = False
            setup_summary = tracer.summary([(start, end)])
            tracer = LayerTracer()
            untraced, traced = [], []
            # U T U T, each at least one whole cycle; half the untraced run's time.
            for _ in range(2):
                untraced.append(run_phase(workload, cycle, args.seconds / 8, repeats, speed))
                with tracer:
                    traced.append(run_phase(workload, cycle, args.seconds / 8, repeats, speed, tracer))
        # One more untimed call, so every run repeats at least one call.
        repeats.check(0, workload.check(cycle[0], workload.call(cycle[0])).digest)
        workload.finish()
        if not args.trace:
            metrics, named = end_to_end(workload, setup, phase, speed)
        else:
            metrics = per_layer(workload, tracer, setup_summary, traced, untraced, speed)
            named = {}
    except gate.GateError as exc:
        print(f"correctness gate failed on {args.workload}: {exc}", file=sys.stderr)
        return EXIT_GATE
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # only once no other run is using it

    all_phases = traced + ([] if traced is untraced else untraced)
    calls = sum(len(p.call_s) for p in all_phases)
    # The distinct runs (or records) of one cycle. Every repeat of a call
    # gave the same output (gate.Repeats), so these counts are fixed by the
    # seed, not by how many cycles fitted in the run.
    first = all_phases[0]
    in_cycle = [c == 0 for c in first.cycle_of]
    attempted = sum(n for n, hit in zip(first.items_of, in_cycle) if hit)
    failed = sum(n for n, hit in zip(first.failed_of, in_cycle) if hit)
    detail = {
        "environment": environment(args),
        "game_size": workload.game_size(),
        "samples": {
            "calls": calls,
            "cycles": sum(p.cycles for p in all_phases),
            "traced_cycles": sum(p.cycles for p in traced) if args.trace else 0,
        },
        "metrics": named,
    }
    print(f"workload {args.workload}: {workload.game_size()}")
    for name, m in (named or metrics).items():
        extra = f"  ({m['samples']} samples)" if "samples" in m else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{extra}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=20 * args.seconds + 600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exited {proc.returncode}")
            status = max(status, proc.returncode or 1)
            continue
        detail = json.loads(lines[-2])["detail"]
        results[name] = {"result": json.loads(lines[-1]), "detail": detail}
        print("\n".join(lines[:-2]))
    if results:
        env = next(iter(results.values()))["detail"]["environment"]
        print(f"git_sha {env['git_sha']}  source {env['source_sha256'][:12]}  "
              f"python {env['python']}  nproc {env['nproc']}  seed {args.seed}")
    print(json.dumps({name: r["result"] for name, r in results.items()}))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ultimatum" / "__init__.py").is_file():
        print(f"error: no ultimatum package under {SRC}; run from a full checkout", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
