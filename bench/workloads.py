"""The benchmark's four workloads.

Each workload turns a seed into inputs (`prepare`, not timed), does the
program-side set-up (`setup`, timed as setup_s), and then offers a fixed
cycle of calls. The runner times each `call` and hands its result to
`check`, which applies the correctness gate (untimed) and returns what the
call did. Every call in a cycle is a closed loop: the next call starts
when the previous one has returned.

The program only ever sees generated plans, stores and endpoint replies,
and is driven through `ultimatum.experiment` and `ultimatum.cli`, looked
up as module attributes at call time so the layer tracer sees the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from ultimatum import cli, experiment
from ultimatum.agents import HttpGateway, RecordingGateway, ReplayGateway

import gate
from fake_endpoint import NO_LATENCY, FakeChatEndpoint, FaultMix

ENDPOINT = "http://fake-endpoint.invalid/v1/chat/completions"
FAKE_MODEL = "fake-model"

# Planted flaw -> the error class the flaw is designed to produce.
DESIGNED_CLASS = {
    "none": "none",
    "incomplete": "strategy_only",
    "deviator": "gameplay_only",
    "inconsistent_threshold": "strategy_only",
}
_FLAW_ROLE = {"incomplete": "proposer", "deviator": "proposer", "inconsistent_threshold": "receiver"}


@dataclass
class Outcome:
    """What one call did, as the gate and the metrics need it."""

    items: int
    digest: str
    counts: dict = field(default_factory=dict)


def _flaws(flaw: str) -> dict:
    return {} if flaw == "none" else {_FLAW_ROLE[flaw]: flaw}


def _shape_group(rng: random.Random) -> list[tuple[int, int]]:
    """(pot, rounds) of one group of calls: mostly the 100-cent 5-round game,
    one 10-round game, and two other pots that plans accept (200 and a
    seeded larger one)."""
    return [(100, 5)] * 5 + [(100, 10), (200, 5), (rng.choice((500, 1000)), 5)]


def _crossed(rng: random.Random, labels) -> list[tuple[object, int, int]]:
    """(label, pot, rounds): every label crossed with one shape group, in
    seeded order, so each seed runs the same mix of game sizes."""
    calls = [(label, pot, rounds) for label in labels for pot, rounds in _shape_group(rng)]
    rng.shuffle(calls)
    return calls


def _ok_error_classes(records) -> list[str]:
    return [r["verdict"]["error_class"] for r in records if r["status"] == "ok"]


class Workload:
    name = ""
    item = "runs"
    workers = 1
    cpu_bound = True  # whole call times are scaled to the nominal machine speed (speed.py)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self) -> None:
        """Generate this seed's inputs. Not part of setup_s."""

    def setup(self) -> None:
        """Program-side set-up before the first timed call."""

    def cycle(self) -> list:
        raise NotImplementedError

    def call(self, item):
        raise NotImplementedError

    def check(self, item, result) -> Outcome:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run (after the last call)."""

    def game_size(self) -> str:
        return ""


class _BatchWorkload(Workload):
    """Workloads whose timed call is one experiment.run_batch."""

    allowed_causes: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.plan_dicts: list[dict] = []
        self.plans: list = []
        self.gateway = None
        self._last_usage = {"requests": 0, "retries": 0}

    def setup(self) -> None:
        self.plans = [experiment.plan_from_dict(d) for d in self.plan_dicts]

    def cycle(self) -> list:
        return list(range(len(self.plan_dicts)))

    def game_size(self) -> str:
        runs = [len(p.cells()) * p.runs_per_cell for p in self.plans]
        rounds = sum(n * p.game.rounds for n, p in zip(runs, self.plans)) / sum(runs)
        return f"{sum(runs) / len(runs):g} runs per batch, {rounds:.2f} rounds per run on average"

    def _usage(self, batch) -> dict:
        usage = batch.gateway_usage or {"requests": 0, "retries": 0}
        delta = {k: usage[k] - self._last_usage[k] for k in ("requests", "retries")}
        self._last_usage = dict(usage)
        return delta

    def check(self, index, batch) -> Outcome:
        records = batch.records
        gate.check_records(records, self.allowed_causes)
        counts = self._usage(batch)
        counts["failed"] = sum(r["status"] != "ok" for r in records)
        return Outcome(len(records), gate.records_digest(records), counts)


class OracleGrid(_BatchWorkload):
    """Scripted players through the whole write path into a RunStore."""

    name = "oracle_grid"

    def prepare(self) -> None:
        rng = self.rng
        calls = _crossed(rng, DESIGNED_CLASS)
        self.flaw_of = [flaw for flaw, _, _ in calls]
        self.plan_dicts = [
            {"pot": pot, "rounds": rounds, "runs_per_cell": 3, "seed": rng.randrange(10**6),
             "flaws": _flaws(flaw)}
            for flaw, pot, rounds in calls
        ]
        self.store_path = self.workdir / "oracle_runs.jsonl"
        self.store_path.unlink(missing_ok=True)
        self._store_hash = hashlib.sha256()
        self._appended = 0

    def setup(self) -> None:
        super().setup()
        self.store = experiment.RunStore(self.store_path)

    def call(self, index):
        return experiment.run_batch(self.plans[index], store=self.store)

    def check(self, index, batch) -> Outcome:
        outcome = super().check(index, batch)
        designed = DESIGNED_CLASS[self.flaw_of[index]]
        outcome.counts["misgraded"] = sum(c != designed for c in _ok_error_classes(batch.records))
        for record in batch.records:
            self._store_hash.update((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
        self._appended += len(batch.records)
        return outcome

    def finish(self) -> None:
        lines, digest = 0, hashlib.sha256()
        with self.store_path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                lines += chunk.count(b"\n")
                digest.update(chunk)
        if lines != self._appended or digest.hexdigest() != self._store_hash.hexdigest():
            raise gate.GateError("run store does not hold exactly the records the batches returned")


class LiveFake(_BatchWorkload):
    """Model-backed players over HttpGateway against a fake endpoint."""

    name = "live_fake"
    workers = 2
    cpu_bound = False  # mostly waiting on the endpoint: only CPU time is scaled
    allowed_causes = ("TurnOrderViolationError",)

    def prepare(self) -> None:
        rng = self.rng
        calls = _crossed(rng, range(4))
        temps = rng.sample(range(20, 100), len(calls))
        self.plan_dicts = [
            {"pot": pot, "rounds": rounds, "runs_per_cell": 1, "seed": rng.randrange(10**6),
             "model": FAKE_MODEL, "endpoint": ENDPOINT, "sampling": {"temperature": t / 100}}
            for (_, pot, rounds), t in zip(calls, temps)
        ]
        self.endpoint = FakeChatEndpoint(self.seed)

    def setup(self) -> None:
        super().setup()
        self.gateway = HttpGateway(ENDPOINT, session=self.endpoint, backoff=0.001)
        self._last_usage = {"requests": 0, "retries": 0}

    def call(self, index):
        self.endpoint.reset()
        return experiment.run_batch(
            self.plans[index], mode="live", gateway=self.gateway, max_workers=self.workers
        )


class Replay(_BatchWorkload):
    """Replays a recorded live batch through ReplayGateway."""

    name = "replay"
    # A reply recorded twice for one request digest sends the replayed
    # conversation off the recording (digest-collision defect): the run then
    # fails for want of a recorded reply, or on a malformed one.
    allowed_causes = ("GatewayError", "TurnOrderViolationError")

    def prepare(self) -> None:
        rng = self.rng
        calls = _crossed(rng, range(6))
        temps = rng.sample(range(20, 100), len(calls))
        self.plan_dicts = [
            {"pot": pot, "rounds": rounds, "runs_per_cell": 6, "seed": rng.randrange(10**6),
             "model": FAKE_MODEL, "endpoint": ENDPOINT, "sampling": {"temperature": t / 100}}
            for (_, pot, rounds), t in zip(calls, temps)
        ]
        self.recording = self.workdir / "recording.jsonl"
        self.recording.unlink(missing_ok=True)
        fake = FakeChatEndpoint(
            self.seed, FaultMix(http_503=0.0, slow=0.0), NO_LATENCY, vary_share=0.25
        )
        recorder = RecordingGateway(HttpGateway(ENDPOINT, session=fake), self.recording)
        self.recorded = []
        for d in self.plan_dicts:
            batch = experiment.run_batch(
                experiment.plan_from_dict(d), mode="live", gateway=recorder, max_workers=1
            )
            self.recorded.append({r["run_id"]: (r["status"], r["verdict"]) for r in batch.records})

    def setup(self) -> None:
        super().setup()
        self.gateway = ReplayGateway(self.recording)
        self._last_usage = {"requests": 0, "retries": 0}

    def call(self, index):
        return experiment.run_batch(self.plans[index], mode="replay", gateway=self.gateway)

    def check(self, index, batch) -> Outcome:
        outcome = super().check(index, batch)
        recorded = self.recorded[index]
        outcome.counts["mismatched"] = sum(
            recorded[r["run_id"]] != (r["status"], r["verdict"]) for r in batch.records
        )
        return outcome


class RegradeReport(Workload):
    """`ultimatum grade` and `ultimatum report` passes over a fixed store."""

    name = "regrade_report"
    item = "records"

    def prepare(self) -> None:
        rng = self.rng
        self.store_path = self.workdir / "regrade_store.jsonl"
        self.store_path.unlink(missing_ok=True)
        store = experiment.RunStore(self.store_path)
        calls = _crossed(rng, DESIGNED_CLASS)
        with_prompts = set(rng.sample(range(len(calls)), len(calls) // 4))
        for i, (flaw, pot, rounds) in enumerate(calls):
            plan = experiment.plan_from_dict(
                {"pot": pot, "rounds": rounds, "runs_per_cell": 1, "seed": rng.randrange(10**6),
                 "flaws": _flaws(flaw)}
            )
            experiment.run_batch(plan, store=store, keep_prompts=i in with_prompts)
        # A few failed records: a model-backed batch replayed from an empty
        # recording fails every run with a GatewayError.
        empty = self.workdir / "empty_recording.jsonl"
        empty.write_text("", encoding="utf-8")
        pair = rng.choice(["fair-fair", "fair-greedy", "greedy-fair", "greedy-greedy"])
        plan = experiment.plan_from_dict(
            {"pairs": [pair], "runs_per_cell": 2, "model": FAKE_MODEL, "seed": rng.randrange(10**6)}
        )
        experiment.run_batch(plan, mode="replay", store=store, gateway=ReplayGateway(empty))
        records = experiment.load_records(self.store_path)
        gate.check_records(records, allowed_causes=("GatewayError",))
        self.record_count = len(records)

    def setup(self) -> None:
        path = str(self.store_path)
        self.argvs = (
            ["grade", "--records", path],
            ["report", "--records", path, "--format", "markdown"],
            ["report", "--records", path, "--format", "csv"],
        )

    def cycle(self) -> list:
        return [0]

    def game_size(self) -> str:
        return f"{self.record_count} records per pass"

    def call(self, _index):
        outputs = []
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((code, buf.getvalue()))
        return outputs

    def check(self, _index, outputs) -> Outcome:
        (grade_code, grade_out), (md_code, md), (csv_code, csv_text) = outputs
        n = self.record_count
        failed = gate.check_grade_output(grade_out, n)
        if grade_code != (cli.EXIT_PARTIAL if failed else cli.EXIT_OK) or md_code or csv_code:
            raise gate.GateError(f"unexpected exit codes {grade_code}, {md_code}, {csv_code}")
        gate.check_report_totals(md, n)
        gate.check_csv_total(csv_text, n)
        digest = hashlib.sha256("\0".join([grade_out, md, csv_text]).encode("utf-8")).hexdigest()
        return Outcome(n, digest, {"failed": failed})


WORKLOADS = {w.name: w for w in (OracleGrid, LiveFake, Replay, RegradeReport)}
