"""Batch experiments: plans, run storage, aggregation, and reports.

A plan names the grid to run (structures x personality pairs x repeats)
and how to back the players (scripted oracles, recorded replays, or a
live endpoint). Every run, including failed ones, becomes one JSON record
carrying the canonical transcript, so any stored batch can be re-graded
and re-aggregated later without re-running anything.

Aggregation is pure counting over records: failed runs are reported but
never enter a rate's denominator, and rates stay exact fractions until
rendered. Reports are deterministic functions of the aggregate, so the
same records always produce byte-identical output.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable

import yaml

from .agents import (
    Flaw,
    Gateway,
    GatewayError,
    HttpGateway,
    SamplingParams,
    flaw_role,
)
from .engine import DEFAULT_POT, DEFAULT_ROUNDS, EngineError, GameConfig
from .orchestrator import (
    InformationLeakError,
    OracleSingleModelGateway,
    SimulationConfig,
    SimulationResult,
    TurnOrderViolationError,
    make_model_agents,
    make_oracle_agents,
    run_multi_agent,
    run_single_model,
)
from .rubric import MalformedTranscriptError, Verdict, evaluate_transcript
from .stats import (
    DegenerateTableError,
    ContingencyTable2x2,
    TestResult,
    chi_square_2x2,
    format_percent,
    two_proportion_z,
)
from .strategy import ALL_PAIRS, MIN_POT, PersonalityPair, Role
from .transcripts import Structure, UnparseableLogError, parse_canonical

RUN_SCHEMA = 1

MODES = ("oracle", "replay", "live")

# Exceptions that mark one run as failed without aborting the batch.
RUN_FAILURES = (
    UnparseableLogError,
    TurnOrderViolationError,
    InformationLeakError,
    GatewayError,
    MalformedTranscriptError,
    EngineError,
)


class InvalidPlanError(ValueError):
    """The experiment plan is malformed or internally contradictory."""


@dataclass(frozen=True)
class ExperimentPlan:
    """The grid of runs to execute and how to execute them.

    Flaws are planted on the scripted oracle players only; a plan that
    sets a flaw cannot be run against recorded or live models.
    """

    structures: tuple[Structure, ...] = (Structure.SINGLE_MODEL, Structure.MULTI_AGENT)
    pairs: tuple[PersonalityPair, ...] = ALL_PAIRS
    runs_per_cell: int = 10
    game: GameConfig = GameConfig()
    model: str = "oracle"
    sampling: SamplingParams = SamplingParams()
    seed: int = 0
    proposer_flaw: Flaw | None = None
    receiver_flaw: Flaw | None = None
    endpoint: str | None = None

    def __post_init__(self) -> None:
        if not self.structures:
            raise InvalidPlanError("plan names no structures")
        if len(set(self.structures)) != len(self.structures):
            raise InvalidPlanError("duplicate structures in plan")
        if not self.pairs:
            raise InvalidPlanError("plan names no personality pairs")
        if len(set(self.pairs)) != len(self.pairs):
            raise InvalidPlanError("duplicate personality pairs in plan")
        if self.runs_per_cell < 1:
            raise InvalidPlanError(f"runs_per_cell must be >= 1, got {self.runs_per_cell}")
        if self.game.pot < MIN_POT:
            raise InvalidPlanError(f"pot must be at least {MIN_POT} cents, got {self.game.pot}")
        if self.proposer_flaw is not None and flaw_role(self.proposer_flaw) is not Role.PROPOSER:
            raise InvalidPlanError(f"{self.proposer_flaw.value} is not a proposer flaw")
        if self.receiver_flaw is not None and flaw_role(self.receiver_flaw) is not Role.RECEIVER:
            raise InvalidPlanError(f"{self.receiver_flaw.value} is not a receiver flaw")

    def cells(self) -> list[tuple[Structure, PersonalityPair]]:
        return [(s, p) for s in self.structures for p in self.pairs]


_PLAN_KEYS = {
    "structures",
    "pairs",
    "runs_per_cell",
    "pot",
    "rounds",
    "model",
    "sampling",
    "seed",
    "flaws",
    "endpoint",
}
_SAMPLING_KEYS = {f.name for f in fields(SamplingParams)}


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Build a plan from plain mapping data (typically parsed YAML)."""
    if not isinstance(data, dict):
        raise InvalidPlanError(f"plan must be a mapping, got {type(data).__name__}")
    unknown = set(data) - _PLAN_KEYS
    if unknown:
        raise InvalidPlanError(f"unknown plan keys: {', '.join(sorted(unknown))}")
    try:
        raw_structures = data.get("structures", "all")
        if raw_structures == "all":
            structures = (Structure.SINGLE_MODEL, Structure.MULTI_AGENT)
        else:
            structures = tuple(Structure(s) for s in raw_structures)
        raw_pairs = data.get("pairs", "all")
        if raw_pairs == "all":
            pairs = ALL_PAIRS
        else:
            pairs = tuple(PersonalityPair.from_label(p) for p in raw_pairs)
        game = GameConfig(
            pot=int(data.get("pot", DEFAULT_POT)), rounds=int(data.get("rounds", DEFAULT_ROUNDS))
        )
        sampling_data = data.get("sampling", {}) or {}
        if not isinstance(sampling_data, dict):
            raise InvalidPlanError("sampling must be a mapping")
        bad = set(sampling_data) - _SAMPLING_KEYS
        if bad:
            raise InvalidPlanError(f"unknown sampling keys: {', '.join(sorted(bad))}")
        sampling = SamplingParams(**{k: float(v) for k, v in sampling_data.items()})
        flaws = data.get("flaws", {}) or {}
        if not isinstance(flaws, dict) or set(flaws) - {"proposer", "receiver"}:
            raise InvalidPlanError("flaws must map proposer/receiver to a flaw name")
        proposer_flaw = flaws.get("proposer")
        receiver_flaw = flaws.get("receiver")
        return ExperimentPlan(
            structures=structures,
            pairs=pairs,
            runs_per_cell=int(data.get("runs_per_cell", ExperimentPlan.runs_per_cell)),
            game=game,
            model=str(data.get("model", ExperimentPlan.model)),
            sampling=sampling,
            seed=int(data.get("seed", ExperimentPlan.seed)),
            proposer_flaw=None if proposer_flaw in (None, "none") else Flaw(proposer_flaw),
            receiver_flaw=None if receiver_flaw in (None, "none") else Flaw(receiver_flaw),
            endpoint=data.get("endpoint"),
        )
    except InvalidPlanError:
        raise
    except (ValueError, TypeError, EngineError) as exc:
        raise InvalidPlanError(f"bad plan value: {exc}") from exc


def load_plan(path: str | Path) -> ExperimentPlan:
    """Load and validate a YAML plan file."""
    try:
        with Path(path).open("r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise InvalidPlanError(f"cannot read plan file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise InvalidPlanError(f"plan file is not valid YAML: {exc}") from exc
    return plan_from_dict(data if data is not None else {})


# ---------------------------------------------------------------------------
# Run records and storage
# ---------------------------------------------------------------------------


def verdict_to_dict(verdict: Verdict) -> dict:
    return {
        "proposer_strategy_complete": verdict.proposer_strategy_complete,
        "receiver_strategy_complete": verdict.receiver_strategy_complete,
        "proposer_strategy_consistent": verdict.proposer_strategy_consistent,
        "receiver_strategy_consistent": verdict.receiver_strategy_consistent,
        "proposer_adherent": verdict.proposer_adherent,
        "receiver_adherent": verdict.receiver_adherent,
        "gameplay_human_consistent": verdict.gameplay_human_consistent,
        "error_class": verdict.error_class.value,
        "flags": [[f.round, f.role.value, f.rule] for f in verdict.per_round_flags],
    }


def _base_record(run_id: str, config: SimulationConfig) -> dict:
    return {
        "schema": RUN_SCHEMA,
        "run_id": run_id,
        "structure": config.structure.value,
        "pair": config.pair.label(),
        "model": config.model,
        "seed": config.seed,
    }


def _ok_record(
    run_id: str,
    config: SimulationConfig,
    result: SimulationResult,
    elapsed: float,
    keep_prompts: bool,
) -> dict:
    record = _base_record(run_id, config)
    record.update(
        status="ok",
        cause=None,
        elapsed_seconds=round(elapsed, 6),
        confidence=result.diagnostics.confidence.value,
        warnings=list(result.diagnostics.warnings),
        transcript=result.canonical,
        verdict=verdict_to_dict(result.verdict),
    )
    if keep_prompts:
        record["prompts"] = [[label, text] for label, text in result.prompts]
        record["replies"] = [[label, text] for label, text in result.replies]
    return record


def _failed_record(
    run_id: str, config: SimulationConfig, cause: Exception, elapsed: float
) -> dict:
    record = _base_record(run_id, config)
    record.update(
        status="failed",
        cause=f"{type(cause).__name__}: {cause}",
        elapsed_seconds=round(elapsed, 6),
        confidence=None,
        warnings=[],
        transcript=None,
        verdict=None,
    )
    return record


class RunStore:
    """Append-only JSON-lines store of run records.

    One `append` writes all its records, one line each, under one lock
    acquisition and one open of the file, so the lines of concurrent
    appends never interleave and each call's lines stay together.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, *records: dict) -> None:
        lines = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        with self._lock:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(lines)


def load_records(
    path: str | Path, on_torn_line: Callable[[str], None] | None = None
) -> list[dict]:
    """Read every record from a JSON-lines store.

    A final line with no newline that is not JSON is what a write cut short
    leaves behind: it is skipped, and `on_torn_line`, when given, is called
    with a message naming the file and line. A bad line anywhere else
    raises ValueError.
    """
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not line.endswith("\n"):  # only the last line can lack one
                    if on_torn_line is not None:
                        on_torn_line(f"{path}:{lineno}: skipped a torn final line")
                    break
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record is not an object")
            records.append(record)
    return records


def regrade_record(record: dict) -> dict:
    """Re-grade a stored run from its canonical transcript."""
    if record.get("status") != "ok" or not record.get("transcript"):
        raise ValueError(f"run {record.get('run_id')!r} has no transcript to grade")
    transcript = parse_canonical(record["transcript"])
    return verdict_to_dict(evaluate_transcript(transcript))


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchResult:
    records: tuple[dict, ...]
    elapsed_seconds: float
    gateway_usage: dict | None = None

    @property
    def ok_count(self) -> int:
        return sum(1 for r in self.records if r["status"] == "ok")

    @property
    def failed_count(self) -> int:
        return sum(1 for r in self.records if r["status"] != "ok")


def _play_oracles(plan: ExperimentPlan, pair: PersonalityPair) -> SimulationResult | Exception:
    """The pair's oracle game, played once through the moderator, or the
    run failure it raised (which then fails every run of the pair)."""
    config = SimulationConfig(
        structure=Structure.MULTI_AGENT,
        pair=pair,
        game=plan.game,
        model=plan.model,
        sampling=plan.sampling,
    )
    agents = make_oracle_agents(pair, plan.game, plan.proposer_flaw, plan.receiver_flaw)
    try:
        return run_multi_agent(config, agents)
    except RUN_FAILURES as exc:
        return exc


def run_batch(
    plan: ExperimentPlan,
    mode: str = "oracle",
    store: RunStore | None = None,
    gateway: Gateway | None = None,
    max_workers: int | None = None,
    keep_prompts: bool = False,
) -> BatchResult:
    """Execute every run in the plan and return (and optionally store) records.

    mode "oracle" plays scripted players offline; "replay" answers every
    completion from the provided recorded gateway; "live" posts to the
    plan's endpoint. A failing run is recorded with its cause and the
    batch continues. Records are produced in grid order regardless of
    worker count, and a store gets them all in one append.

    Oracle players are deterministic, so in oracle mode each pair's game
    is played once per batch, before any worker starts. That one game
    serves every multi-agent run of the pair, and the pair's single-model
    gateway answers with the combined log written from it. Model-backed
    players play every run.

    Within one batch, each distinct single-model reply (with its pair and
    game) is parsed, graded and serialized once; later runs that receive
    the same reply reuse that grade. Every single-model run still renders
    its prompt and calls its gateway, every run gets its own record, and
    the records are the same as when each run plays and is graded on its
    own.
    """
    if mode not in MODES:
        raise InvalidPlanError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    if mode != "oracle" and (plan.proposer_flaw or plan.receiver_flaw):
        raise InvalidPlanError("planted flaws only apply to oracle players")
    shared_gateway = gateway
    if mode == "live" and shared_gateway is None:
        if not plan.endpoint:
            raise InvalidPlanError("live mode needs an endpoint in the plan")
        shared_gateway = HttpGateway(plan.endpoint)
    if mode == "replay" and shared_gateway is None:
        raise InvalidPlanError("replay mode needs a recorded gateway")

    started = time.perf_counter()
    # Each job carries its source: the model-backed gateway; in oracle mode
    # the pair's played game for a multi-agent run and the gateway answering
    # from it for a single-model run; or the exception the game raised.
    games: dict[PersonalityPair, SimulationResult | Exception] = {}
    jobs: list[tuple[str, SimulationConfig, Gateway | SimulationResult | Exception]] = []
    for structure, pair in plan.cells():
        source = shared_gateway
        if source is None:
            # The game and flaws are fixed for the batch: the pair decides the game.
            if pair not in games:
                games[pair] = _play_oracles(plan, pair)
            source = games[pair]
            if structure is Structure.SINGLE_MODEL and isinstance(source, SimulationResult):
                source = OracleSingleModelGateway(source.transcript)
        for k in range(plan.runs_per_cell):
            run_id = f"{structure.value}.{pair.label()}.{k:03d}"
            seed = plan.seed * 1_000_003 + len(jobs)
            jobs.append(
                (
                    run_id,
                    SimulationConfig(
                        structure=structure,
                        pair=pair,
                        game=plan.game,
                        model=plan.model,
                        sampling=plan.sampling,
                        seed=seed,
                    ),
                    source,
                )
            )

    # Grades of the single-model replies seen in this batch. Two worker
    # threads may both miss on one reply and both parse it; they store equal
    # values, so the dict needs no lock.
    graded: dict = {}

    def execute(job: tuple) -> dict:
        run_id, config, source = job
        started = time.perf_counter()
        if isinstance(source, Exception):
            return _failed_record(run_id, config, source, time.perf_counter() - started)
        try:
            if isinstance(source, SimulationResult):
                result = source
            elif config.structure is Structure.SINGLE_MODEL:
                result = run_single_model(config, source, graded=graded)
            else:
                result = run_multi_agent(config, make_model_agents(config, source))
        except RUN_FAILURES as exc:
            return _failed_record(run_id, config, exc, time.perf_counter() - started)
        return _ok_record(run_id, config, result, time.perf_counter() - started, keep_prompts)

    if max_workers is None:
        max_workers = 4 if mode == "live" else 1
    if max_workers <= 1 or len(jobs) <= 1:
        records = [execute(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            records = list(pool.map(execute, jobs))
    elapsed = time.perf_counter() - started

    if store is not None:
        store.append(*records)
    usage = None
    if shared_gateway is not None:
        usage = {"requests": shared_gateway.requests, "retries": shared_gateway.retries}
    return BatchResult(records=tuple(records), elapsed_seconds=elapsed, gateway_usage=usage)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupCounts:
    """Counting summary of one group of runs.

    Only graded (ok) runs contribute to verdict counts; failed runs appear
    in total/failed and nowhere else.
    """

    total: int = 0
    ok: int = 0
    failed: int = 0
    none: int = 0
    strategy_only: int = 0
    gameplay_only: int = 0
    both: int = 0
    proposer_complete: int = 0
    receiver_complete: int = 0
    proposer_consistent: int = 0
    receiver_consistent: int = 0
    both_complete: int = 0
    both_consistent: int = 0
    strategy_robust: int = 0

    @property
    def errors(self) -> int:
        return self.ok - self.none

    @property
    def strategy_errors(self) -> int:
        return self.strategy_only + self.both

    @property
    def gameplay_errors(self) -> int:
        return self.gameplay_only + self.both


def count_group(records: Iterable[dict]) -> GroupCounts:
    acc: collections.Counter = collections.Counter()
    for record in records:
        acc["total"] += 1
        if record.get("status") != "ok" or not record.get("verdict"):
            acc["failed"] += 1
            continue
        acc["ok"] += 1
        verdict = record["verdict"]
        acc[verdict["error_class"]] += 1
        pc = bool(verdict["proposer_strategy_complete"])
        rc = bool(verdict["receiver_strategy_complete"])
        ps = bool(verdict["proposer_strategy_consistent"])
        rs = bool(verdict["receiver_strategy_consistent"])
        acc["proposer_complete"] += pc
        acc["receiver_complete"] += rc
        acc["proposer_consistent"] += ps
        acc["receiver_consistent"] += rs
        acc["both_complete"] += pc and rc
        acc["both_consistent"] += ps and rs
        acc["strategy_robust"] += pc and rc and ps and rs
    return GroupCounts(**{f.name: acc.get(f.name, 0) for f in fields(GroupCounts)})


@dataclass(frozen=True)
class ErrorComparison:
    """Within one structure: whether the strategy and gameplay shares of
    its errors differ significantly. The counts are the structure's
    entry in Summary.by_structure."""

    structure: str
    test: TestResult | None
    note: str | None = None


@dataclass(frozen=True)
class HeadlineComparison:
    """Cross-structure test on the best member of each family."""

    name: str
    member_a: str
    successes_a: int
    trials_a: int
    member_b: str
    successes_b: int
    trials_b: int
    test: TestResult | None
    note: str | None = None


@dataclass(frozen=True)
class Summary:
    total: int
    ok: int
    failed: int
    by_structure: dict[str, GroupCounts]
    by_cell: dict[tuple[str, str], GroupCounts]
    by_member: dict[tuple[str, str], GroupCounts]
    error_comparisons: tuple[ErrorComparison, ...]
    headlines: tuple[HeadlineComparison, ...]


def _grouped(records: list[dict], key: Callable[[dict], tuple]) -> dict:
    groups: dict = {}
    for record in records:
        groups.setdefault(key(record), []).append(record)
    return {k: count_group(v) for k, v in sorted(groups.items())}


def _best_member(
    by_member: dict[tuple[str, str], GroupCounts],
    structure: str,
    success: Callable[[GroupCounts], int],
) -> tuple[str, GroupCounts]:
    """The family's member with the highest success rate, or ("-", GroupCounts())
    when the family has no graded runs."""
    candidates = [
        (f"{s}/{model}", counts)
        for (s, model), counts in by_member.items()
        if s == structure and counts.ok > 0
    ]
    candidates.sort(key=lambda item: (-Fraction(success(item[1]), item[1].ok), item[0]))
    return candidates[0] if candidates else ("-", GroupCounts())


def _headline(
    name: str,
    by_member: dict[tuple[str, str], GroupCounts],
    success: Callable[[GroupCounts], int],
) -> HeadlineComparison:
    families = (Structure.MULTI_AGENT.value, Structure.SINGLE_MODEL.value)
    (label_a, counts_a), (label_b, counts_b) = (
        _best_member(by_member, family, success) for family in families
    )
    sa, na = success(counts_a), counts_a.ok
    sb, nb = success(counts_b), counts_b.ok
    missing = [family for family, n in zip(families, (na, nb)) if n == 0]
    if missing:
        test, note = None, "no graded runs" if len(missing) == 2 else f"no graded {missing[0]} runs"
    else:
        try:
            test = chi_square_2x2(ContingencyTable2x2.from_successes(sa, na, sb, nb))
            note = test.warning
        except DegenerateTableError as exc:
            test, note = None, f"not computable: {exc}"
    return HeadlineComparison(
        name=name,
        member_a=label_a,
        successes_a=sa,
        trials_a=na,
        member_b=label_b,
        successes_b=sb,
        trials_b=nb,
        test=test,
        note=note,
    )


def aggregate(records: Iterable[dict]) -> Summary:
    """Count and compare a set of run records.

    Structures are compared on the error axes within themselves, and the
    best member of each structure family is compared head to head on
    human consistency and on strategy completeness.
    """
    records = list(records)
    by_structure = _grouped(records, lambda r: (r["structure"],))
    by_structure = {k[0]: v for k, v in by_structure.items()}
    by_cell = _grouped(records, lambda r: (r["structure"], r["pair"]))
    by_member = _grouped(records, lambda r: (r["structure"], str(r.get("model", "-"))))

    comparisons = []
    for structure, counts in sorted(by_structure.items()):
        test: TestResult | None = None
        note = None
        if counts.errors > 0:
            try:
                test = two_proportion_z(
                    counts.strategy_errors,
                    counts.errors,
                    counts.gameplay_errors,
                    counts.errors,
                )
            except DegenerateTableError as exc:
                note = f"not computable: {exc}"
        else:
            note = "no errors"
        comparisons.append(ErrorComparison(structure, test, note))

    headlines = (
        _headline("human consistency", by_member, lambda c: c.none),
        _headline("strategy completeness", by_member, lambda c: c.both_complete),
    )
    totals = count_group(records)
    return Summary(
        total=totals.total,
        ok=totals.ok,
        failed=totals.failed,
        by_structure=by_structure,
        by_cell=by_cell,
        by_member=by_member,
        error_comparisons=tuple(comparisons),
        headlines=headlines,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _pct(numerator: int, denominator: int) -> str:
    if denominator == 0:
        return "-"
    return format_percent(Fraction(numerator, denominator))


def _fmt_stat(value: float) -> str:
    return f"{value:.4f}"


def _fmt_p(value: float) -> str:
    return f"{value:.6g}"


def render_report(summary: Summary, fmt: str = "markdown") -> str:
    """Render an aggregate as markdown tables or long-format CSV."""
    if fmt == "markdown":
        return _render_markdown(summary)
    if fmt == "csv":
        return _render_csv(summary)
    raise ValueError(f"unknown report format {fmt!r}")


# Each table's columns, stated once for both formats:
# (markdown heading, CSV metric, value for the row's GroupCounts).
_GRADED = ("graded", "graded", lambda c: c.ok)
_CELL_COLUMNS = (
    ("runs", "runs", lambda c: c.total),
    _GRADED,
    ("failed", "failed", lambda c: c.failed),
    ("human-consistent", "human_consistent", lambda c: c.none),
    ("rate", "human_rate", lambda c: _pct(c.none, c.ok)),
)
_ERROR_COLUMNS = (
    _GRADED,
    ("clean", "clean", lambda c: c.none),
    ("errors", "errors", lambda c: c.errors),
    ("strategy-only", "strategy_only", lambda c: c.strategy_only),
    ("gameplay-only", "gameplay_only", lambda c: c.gameplay_only),
    ("both", "both", lambda c: c.both),
    ("strategy share", "strategy_share", lambda c: _pct(c.strategy_errors, c.errors)),
    ("gameplay share", "gameplay_share", lambda c: _pct(c.gameplay_errors, c.errors)),
)
_QUALITY_COLUMNS = (
    ("proposer complete", "proposer_complete", lambda c: c.proposer_complete),
    ("receiver complete", "receiver_complete", lambda c: c.receiver_complete),
    ("proposer consistent", "proposer_consistent", lambda c: c.proposer_consistent),
    ("receiver consistent", "receiver_consistent", lambda c: c.receiver_consistent),
    ("both complete", "both_complete", lambda c: c.both_complete),
    ("both consistent", "both_consistent", lambda c: c.both_consistent),
    ("robust", "strategy_robust", lambda c: c.strategy_robust),
)
# Values of the error comparison's TestResult, which is None (markdown "-",
# no CSV rows) when the test was not computable.
_TEST_COLUMNS = (
    ("z", "z", lambda t: _fmt_stat(t.statistic)),
    ("p", "p", lambda t: _fmt_p(t.p_two_tailed)),
)


def _cells(columns: tuple, row: object) -> list:
    return ["-" if row is None else value(row) for _, _, value in columns]


def _long_rows(section: str, group: str, columns: tuple, row: object) -> list[list]:
    if row is None:
        return []
    return [[section, group, metric, value(row)] for _, metric, value in columns]


def _md_table(keys: list[str], columns: tuple, rows: Iterable[list]) -> list[str]:
    """A markdown table headed by the key names and the columns' headings,
    followed by one blank line."""
    headings = keys + [heading for heading, _, _ in columns]
    lines = [headings, ["---"] * len(headings), *rows]
    return ["| " + " | ".join(map(str, line)) + " |" for line in lines] + [""]


def _render_markdown(summary: Summary) -> str:
    lines = ["# Ultimatum experiment report", ""]
    if summary.total == 0:
        lines.append("No runs recorded.")
        return "\n".join(lines) + "\n"
    lines.append(
        f"{summary.total} runs: {summary.ok} graded, {summary.failed} failed."
    )
    lines.append("")

    lines += ["## Runs by cell", ""] + _md_table(
        ["structure", "pair"],
        _CELL_COLUMNS,
        ([s, p, *_cells(_CELL_COLUMNS, c)] for (s, p), c in sorted(summary.by_cell.items())),
    )
    lines += ["## Error classes by structure", ""] + _md_table(
        ["structure"],
        _ERROR_COLUMNS + _TEST_COLUMNS,
        (
            [
                e.structure,
                *_cells(_ERROR_COLUMNS, summary.by_structure[e.structure]),
                *_cells(_TEST_COLUMNS, e.test),
            ]
            for e in summary.error_comparisons
        ),
    )
    notes = [f"- {e.structure}: {e.note}" for e in summary.error_comparisons if e.note]
    if notes:
        lines += notes + [""]
    quality = (_GRADED, *_QUALITY_COLUMNS)
    lines += ["## Strategy quality by structure", ""] + _md_table(
        ["structure"],
        quality,
        ([s, *_cells(quality, c)] for s, c in sorted(summary.by_structure.items())),
    )

    lines.append("## Headline comparisons")
    lines.append("")
    for h in summary.headlines:
        detail = (
            f"{h.member_a} {h.successes_a}/{h.trials_a} "
            f"vs {h.member_b} {h.successes_b}/{h.trials_b}"
        )
        if h.test is not None:
            result = (
                f"chi-square {_fmt_stat(h.test.statistic)} (df={h.test.df}), "
                f"p {_fmt_p(h.test.p_two_tailed)}"
            )
        else:
            result = h.note or "not computable"
        suffix = f" ({h.note})" if h.test is not None and h.note else ""
        lines.append(f"- {h.name}: {detail} -> {result}{suffix}")
    return "\n".join(lines) + "\n"


def _render_csv(summary: Summary) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["section", "group", "metric", "value"])
    if summary.total == 0:
        writer.writerow(["overall", "-", "note", "no runs recorded"])
        return out.getvalue()
    writer.writerow(["overall", "-", "total", summary.total])
    writer.writerow(["overall", "-", "graded", summary.ok])
    writer.writerow(["overall", "-", "failed", summary.failed])
    for (structure, pair), c in sorted(summary.by_cell.items()):
        writer.writerows(_long_rows("cell", f"{structure}/{pair}", _CELL_COLUMNS, c))
    for e in summary.error_comparisons:
        c = summary.by_structure[e.structure]
        writer.writerows(_long_rows("structure", e.structure, _ERROR_COLUMNS + _QUALITY_COLUMNS, c))
        writer.writerows(_long_rows("structure", e.structure, _TEST_COLUMNS, e.test))
        if e.note:
            writer.writerow(["structure", e.structure, "note", e.note])
    for h in summary.headlines:
        rows = [
            ("member_a", h.member_a),
            ("successes_a", h.successes_a),
            ("trials_a", h.trials_a),
            ("member_b", h.member_b),
            ("successes_b", h.successes_b),
            ("trials_b", h.trials_b),
        ]
        if h.test is not None:
            rows.append(("chi_square", _fmt_stat(h.test.statistic)))
            rows.append(("p", _fmt_p(h.test.p_two_tailed)))
        if h.note:
            rows.append(("note", h.note))
        for metric, value in rows:
            writer.writerow(["headline", h.name, metric, value])
    return out.getvalue()
