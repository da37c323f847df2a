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

import csv
import io
import json
import math
import re
import threading
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from operator import and_, itemgetter
from pathlib import Path
from typing import Callable, Iterable
from urllib.parse import urlsplit

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
from .rubric import ErrorClass, MalformedTranscriptError, Verdict, evaluate_transcript
from .stats import (
    DegenerateTableError,
    TestResult,
    chi_square_2x2,
    format_percent,
    two_proportion_z,
)
from .strategy import ALL_PAIRS, MIN_POT, PersonalityPair, Role
from .transcripts import (
    INPUT_FAILURES,
    Structure,
    UnparseableLogError,
    decode_line,
    game_text,
    parse_canonical,
)

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


def _is_http_url(value: str) -> bool:
    try:
        url = urlsplit(value)
        url.port  # raises ValueError on a port that is not a number in range
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


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
        if not isinstance(self.model, str):
            raise InvalidPlanError(f"model must be a string, got {self.model!r}")
        if _SURROGATE.search(self.model):
            raise InvalidPlanError(f"model must be UTF-8 text, got {self.model!r}")
        if not -(2**63) <= self.seed < 2**63:  # so every run's seed stays writable as JSON
            raise InvalidPlanError(f"seed must fit in 64 bits, got {self.seed.bit_length()} bits")
        for f in fields(SamplingParams):
            value = getattr(self.sampling, f.name)
            if not math.isfinite(value):
                raise InvalidPlanError(f"sampling {f.name} must be finite, got {value}")
        if self.endpoint is not None and not (
            isinstance(self.endpoint, str) and _is_http_url(self.endpoint)
        ):
            raise InvalidPlanError(
                f"endpoint must be an http(s) URL with a host, got {self.endpoint!r}"
            )

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


def _plan_pair(label: object) -> PersonalityPair:
    """One item of a plan's `pairs`: a label, which YAML may hand over as
    a number, null, list or mapping."""
    if type(label) is not str:
        raise ValueError(f"bad personality pair label: {label!r}")
    return PersonalityPair.from_label(label)


def plan_from_dict(data: dict) -> ExperimentPlan:
    """Build a plan from plain mapping data (typically parsed YAML)."""
    if not isinstance(data, dict):
        raise InvalidPlanError(f"plan must be a mapping, got {type(data).__name__}")
    unknown = set(data) - _PLAN_KEYS
    if unknown:
        raise InvalidPlanError(f"unknown plan keys: {', '.join(sorted(unknown))}")
    for key in ("pot", "rounds", "runs_per_cell", "seed"):
        if key in data and type(data[key]) is not int:  # a bool or float is not a count
            raise InvalidPlanError(f"{key} must be a whole number, got {data[key]!r}")
    try:
        raw = data.get("structures", "all")
        structures = ExperimentPlan.structures if raw == "all" else tuple(map(Structure, raw))
        raw = data.get("pairs", "all")
        pairs = ALL_PAIRS if raw == "all" else tuple(map(_plan_pair, raw))
        game = GameConfig(
            pot=data.get("pot", DEFAULT_POT), rounds=data.get("rounds", DEFAULT_ROUNDS)
        )
        sampling_data = data.get("sampling", {}) or {}
        if not isinstance(sampling_data, dict):
            raise InvalidPlanError("sampling must be a mapping")
        bad = set(sampling_data) - _SAMPLING_KEYS
        if bad:
            raise InvalidPlanError(f"unknown sampling keys: {', '.join(sorted(bad))}")
        for key, value in sampling_data.items():
            if type(value) not in (int, float):  # a bool or a string is not a number
                raise InvalidPlanError(f"sampling {key} must be a number, got {value!r}")
        sampling = SamplingParams(**{k: float(v) for k, v in sampling_data.items()})
        flaws = data.get("flaws", {}) or {}
        if not isinstance(flaws, dict) or set(flaws) - {"proposer", "receiver"}:
            raise InvalidPlanError("flaws must map proposer/receiver to a flaw name")
        proposer_flaw = flaws.get("proposer")
        receiver_flaw = flaws.get("receiver")
        return ExperimentPlan(
            structures=structures,
            pairs=pairs,
            runs_per_cell=data.get("runs_per_cell", ExperimentPlan.runs_per_cell),
            game=game,
            model=data.get("model", ExperimentPlan.model),
            sampling=sampling,
            seed=data.get("seed", ExperimentPlan.seed),
            proposer_flaw=None if proposer_flaw in (None, "none") else Flaw(proposer_flaw),
            receiver_flaw=None if receiver_flaw in (None, "none") else Flaw(receiver_flaw),
            endpoint=data.get("endpoint"),
        )
    except InvalidPlanError:
        raise
    except (ValueError, TypeError, OverflowError, EngineError) as exc:  # float(10**400) overflows
        raise InvalidPlanError(f"bad plan value: {exc}") from exc


def load_plan(path: str | Path) -> ExperimentPlan:
    """Load and validate a YAML plan file. A mapping that names one key
    twice, at any depth, is refused rather than read as its last value."""
    # Imported here: only commands that read a plan file load PyYAML.
    import yaml

    class PlanLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            lines: dict = {}
            for key_node, _ in node.value:
                # A plan names scalar keys; a "<<" key merges in another mapping.
                merge = key_node.tag == "tag:yaml.org,2002:merge"
                if merge or not isinstance(key_node, yaml.ScalarNode):
                    continue
                key = self.construct_object(key_node)
                line = key_node.start_mark.line + 1
                if key in lines:
                    raise InvalidPlanError(
                        f"plan file repeats key {key!r} on line {line} (first on line {lines[key]})"
                    )
                lines[key] = line
            return super().construct_mapping(node, deep)

    try:
        # Read as bytes: PyYAML decodes them, and a byte that is not text is
        # then a YAMLError naming the file, like any other bad character.
        with Path(path).open("rb") as fh:
            data = yaml.load(fh, Loader=PlanLoader)
    except OSError as exc:
        raise InvalidPlanError(f"cannot read plan file: {exc}") from exc
    except InvalidPlanError:  # a repeated key, raised inside yaml.load
        raise
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if getattr(exc, "problem", None) and mark is not None:
            where = f"{exc.problem} on line {mark.line + 1}, column {mark.column + 1}"
        else:
            where = " ".join(str(exc).split())
        raise InvalidPlanError(f"plan file is not valid YAML: {where}") from exc
    except INPUT_FAILURES as exc:  # too many digits, or nested too deep
        raise InvalidPlanError(f"bad plan value: {exc}") from exc
    return plan_from_dict(data if data is not None else {})


# ---------------------------------------------------------------------------
# Run records and storage
# ---------------------------------------------------------------------------


# The verdict's strategy flags, as stored and as `count_group` reads them.
_STRATEGY_FLAGS = (
    "proposer_strategy_complete",
    "receiver_strategy_complete",
    "proposer_strategy_consistent",
    "receiver_strategy_consistent",
)

# The run-record schema, checked in this order where stored records enter
# (`load_records`): the text fields below; on an ok record, its verdict
# object's `error_class` and boolean `_STRATEGY_FLAGS`, and its text
# `transcript`; then `schema`; then that the text grade and report print is
# UTF-8. Nothing else in a record is checked.
_TEXT_FIELDS = {  # field: the values it may hold; None: any string, or absent
    "structure": frozenset(s.value for s in Structure),
    "pair": frozenset(p.label() for p in ALL_PAIRS),
    "model": None,
    "status": frozenset(("ok", "failed")),
}
# A surrogate code point: text holding one has no UTF-8 form to print.
_SURROGATE = re.compile("[\ud800-\udfff]")
_ERROR_CLASSES = tuple(c.value for c in ErrorClass)  # a tuple: a set would raise on [1]
# A verdict's error class and strategy flags; a KeyError names the first one missing.
_verdict_values = itemgetter("error_class", *_STRATEGY_FLAGS)


def _shown(value: object) -> str:
    return json.dumps(value)[:40]


def _schema_problem(record: dict) -> str | None:
    """The first way the record breaks the run-record schema, or None."""
    for field, allowed in _TEXT_FIELDS.items():
        try:
            value = record[field]
        except KeyError:
            if allowed is not None:
                return f"has no field '{field}'"
            continue
        if type(value) is not str:
            return f"has {field} {_shown(value)}, not a string"
        if allowed is not None and value not in allowed:
            return f"has unknown {field} {_shown(value)}"
    if record["status"] == "ok":
        verdict = record.get("verdict")
        if type(verdict) is not dict:
            return f"has verdict {_shown(verdict)}, not an object"
        try:
            values = _verdict_values(verdict)
        except KeyError as exc:
            return f"has no verdict field '{exc.args[0]}'"
        for flag, flag_value in zip(_STRATEGY_FLAGS, values[1:]):
            if type(flag_value) is not bool:
                return f"has {flag} {_shown(flag_value)}, not true or false"
        if values[0] not in _ERROR_CLASSES:
            return f"has unknown error_class {_shown(values[0])}"
        if type(transcript := record.get("transcript")) is not str:
            return f"has transcript {_shown(transcript)}, not text"
    if type(schema := record.get("schema")) is not int or schema != RUN_SCHEMA:
        return f"has schema {_shown(schema)}, not {RUN_SCHEMA}"
    for field in ("run_id", "model", "cause"):  # the text grade and report print
        value = record.get(field)
        if type(value) is str and not value.isascii() and _SURROGATE.search(value):
            return f"has {field} {_shown(value)}, not UTF-8 text"
    return None


def verdict_to_dict(verdict: Verdict) -> dict:
    return {
        **{flag: getattr(verdict, flag) for flag in _STRATEGY_FLAGS},
        "proposer_adherent": verdict.proposer_adherent,
        "receiver_adherent": verdict.receiver_adherent,
        "gameplay_human_consistent": verdict.gameplay_human_consistent,
        "error_class": verdict.error_class.value,
        "flags": [[f.round, f.role.value, f.rule] for f in verdict.per_round_flags],
    }


def _record(
    run_id: str,
    config: SimulationConfig,
    outcome: SimulationResult | Exception,
    elapsed: float,
    keep_prompts: bool = False,
) -> dict:
    """The run's record: graded from its result, or failed with the
    exception that ended it."""
    ok = isinstance(outcome, SimulationResult)
    record = {
        "schema": RUN_SCHEMA,
        "run_id": run_id,
        "structure": config.structure.value,
        "pair": config.pair.label(),
        "model": config.model,
        "seed": config.seed,
        "status": "ok" if ok else "failed",
        "cause": None if ok else f"{type(outcome).__name__}: {outcome}",
        "elapsed_seconds": round(elapsed, 6),
        "confidence": outcome.diagnostics.confidence.value if ok else None,
        "warnings": list(outcome.diagnostics.warnings) if ok else [],
        "transcript": outcome.canonical if ok else None,
        "verdict": verdict_to_dict(outcome.verdict) if ok else None,
    }
    if ok and keep_prompts:
        sent, received = outcome.traffic()
        record["prompts"] = [[label, text] for label, text in sent]
        record["replies"] = [[label, text] for label, text in received]
    return record


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


class RunStore:
    """Append-only JSON-lines store of run records.

    One `append` writes all its records, one line each, under one lock
    acquisition and one open of the file, so the lines of concurrent
    appends never interleave and each call's lines stay together. Each
    line is `json.dumps(record, sort_keys=True)`, made by one encoder built
    once: ASCII, so a write cut short never splits a character.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, *records: dict) -> None:
        lines = "".join(_RECORD_ENCODER.encode(record) + "\n" for record in records)
        with self._lock:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(lines)


def load_records(
    path: str | Path, on_torn_line: Callable[[str], None] | None = None
) -> list[dict]:
    """Read every record from a JSON-lines store, each checked against the
    run-record schema; the readers after this one trust their input.

    The store is split at line feeds only, each line read by `decode_line`.
    A final line with no newline that does not read is what a write cut
    short leaves behind: it is skipped, and `on_torn_line`, when given, is
    called with a message naming the file and line. A bad line anywhere
    else, and a record that breaks the schema, raise ValueError naming the
    file and line (and the record by its run id or, lacking one, by its start).
    """
    records = []
    # 64 KiB: a store's lines run to kilobytes, which the default 8 KiB buffer reads slower.
    with Path(path).open("rb", buffering=1 << 16) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                record = decode_line(line)
            except ValueError as exc:
                if not line.endswith(b"\n"):  # only the last line can lack one
                    if on_torn_line is not None:
                        on_torn_line(f"{path}:{lineno}: skipped a torn final line")
                    break
                raise ValueError(f"{path}:{lineno}: bad record: {exc}") from exc
            if record is None:
                continue
            problem = _schema_problem(record)
            if problem is not None:
                name = record.get("run_id") or json.dumps(record, sort_keys=True)[:60]
                raise ValueError(f"{path}:{lineno}: record {name} {problem}")
            records.append(record)
    return records


def regrade_record(record: dict, games: dict | None = None) -> dict:
    """Re-grade a stored run from its canonical transcript, which is always
    parsed. `games` maps each game text (`transcripts.game_text`) graded
    so far to its verdict, so each game is graded once."""
    if record.get("status") != "ok" or not record.get("transcript"):
        raise ValueError(f"run {record.get('run_id')!r} has no transcript to grade")
    transcript = parse_canonical(record["transcript"])
    games = {} if games is None else games
    game = game_text(record["transcript"])
    if game not in games:
        games[game] = verdict_to_dict(evaluate_transcript(transcript))
    return games[game]


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


def _play_oracles(plan: ExperimentPlan, graded: dict) -> dict:
    """Every oracle cell's one outcome, keyed by (structure, pair): a
    result, or the run failure that fails every run of the cell.

    Oracle players are deterministic and a cell's runs differ only in
    their seeds, so each cell is run once. Each pair's game is played once
    through the moderator; it is the multi-agent cell's outcome, and its
    single-model cell is run once on a gateway answering with that game's
    combined log, after the cell's memo entry is written from the game
    (`OracleSingleModelGateway.write_entry`), so no log is parsed. A game
    that raised fails both cells of its pair.
    """
    outcomes = {}
    for pair in plan.pairs:
        config = SimulationConfig(Structure.MULTI_AGENT, pair, plan.game, plan.model, plan.sampling)
        agents = make_oracle_agents(pair, plan.game, plan.proposer_flaw, plan.receiver_flaw)
        try:
            game = run_multi_agent(config, agents, graded=graded)
        except RUN_FAILURES as exc:
            game = exc
        outcomes[Structure.MULTI_AGENT, pair] = outcomes[Structure.SINGLE_MODEL, pair] = game
        if Structure.SINGLE_MODEL in plan.structures and isinstance(game, SimulationResult):
            gateway = OracleSingleModelGateway(game.transcript)
            gateway.write_entry(graded)
            config = replace(config, structure=Structure.SINGLE_MODEL)
            outcomes[Structure.SINGLE_MODEL, pair] = run_single_model(config, gateway, graded=graded)
    return outcomes


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

    Only an HttpGateway waits on the network, so on more than one worker
    each of its games asks both players for their strategies at once, the
    receiver's on a helper pool of `max_workers` threads, and then play is
    in strict alternation: up to 2 x `max_workers` requests may be in
    flight. On one worker a batch sends one request at a time. On more
    than one, multi-agent runs, the longest, are started first.

    Jobs are (run id, config) pairs, and `execute` alone decides how a run
    is played. Oracle players are deterministic, so in oracle mode each
    cell is run once per batch, before any worker starts (`_play_oracles`),
    and its one outcome serves every run of the cell. Model-backed players
    play every run, on the shared gateway.

    A batch's runs share one memo (see `orchestrator._memo_entry`), so an
    oracle pair's one grade serves both structures. Every model-backed run
    renders its prompts and calls its gateway, every played multi-agent
    run's moderator checks each message it tells a player and the run
    keeps its own traffic, every run gets its own record, and the records
    are the same as when each run plays and is graded on its own.
    """
    if mode not in MODES:
        raise InvalidPlanError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    if max_workers is not None and max_workers < 1:
        raise InvalidPlanError(f"workers must be at least 1, got {max_workers}")
    if mode != "oracle" and (plan.proposer_flaw or plan.receiver_flaw):
        raise InvalidPlanError("planted flaws only apply to oracle players")
    if mode == "oracle" and gateway is not None:
        raise InvalidPlanError("oracle mode plays scripted players and takes no gateway")
    shared_gateway = gateway
    if mode == "live" and shared_gateway is None:
        if not plan.endpoint:
            raise InvalidPlanError("live mode needs an endpoint in the plan")
        shared_gateway = HttpGateway(plan.endpoint)
    if mode == "replay" and shared_gateway is None:
        raise InvalidPlanError("replay mode needs a recorded gateway")

    started = time.perf_counter()
    # The batch's memo (see `orchestrator._memo_entry`). Two worker threads
    # may both miss on one key and both build it; they store equal values,
    # so the dict needs no lock.
    graded: dict = {}
    oracle = _play_oracles(plan, graded) if shared_gateway is None else None
    jobs: list[tuple[str, SimulationConfig]] = []
    for structure, pair in plan.cells():
        for k in range(plan.runs_per_cell):
            seed = plan.seed * 1_000_003 + len(jobs)
            config = SimulationConfig(structure, pair, plan.game, plan.model, plan.sampling, seed)
            jobs.append((f"{structure.value}.{pair.label()}.{k:03d}", config))

    if max_workers is None:
        max_workers = 4 if mode == "live" else 1
    pooled = max_workers > 1 and len(jobs) > 1
    helper = None
    if max_workers > 1:
        # Imported here: a batch on one worker starts no thread.
        from concurrent.futures import ThreadPoolExecutor

        if isinstance(shared_gateway, HttpGateway):
            helper = ThreadPoolExecutor(max_workers=max_workers)

    def execute(job: tuple[str, SimulationConfig]) -> dict:
        run_id, config = job
        started = time.perf_counter()
        try:
            if oracle is not None:
                outcome = oracle[config.structure, config.pair]
            elif config.structure is Structure.SINGLE_MODEL:
                outcome = run_single_model(config, shared_gateway, graded=graded)
            else:
                agents = make_model_agents(config, shared_gateway)
                outcome = run_multi_agent(config, agents, graded=graded, helper=helper)
        except RUN_FAILURES as exc:
            outcome = exc
        return _record(run_id, config, outcome, time.perf_counter() - started, keep_prompts)

    try:
        if not pooled:
            records = [execute(job) for job in jobs]
        else:
            order = sorted(
                range(len(jobs)), key=lambda i: jobs[i][1].structure is not Structure.MULTI_AGENT
            )
            records = [None] * len(jobs)
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                for i, record in zip(order, pool.map(execute, [jobs[i] for i in order])):
                    records[i] = record
    finally:
        if helper is not None:
            helper.shutdown()
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

    def __add__(self, other: GroupCounts) -> GroupCounts:
        return GroupCounts(*(getattr(self, name) + getattr(other, name) for name in _COUNT_FIELDS))

    @property
    def errors(self) -> int:
        return self.ok - self.none

    @property
    def strategy_errors(self) -> int:
        return self.strategy_only + self.both

    @property
    def gameplay_errors(self) -> int:
        return self.gameplay_only + self.both


_COUNT_FIELDS = tuple(f.name for f in fields(GroupCounts))


def count_group(records: Iterable[dict]) -> GroupCounts:
    """Count a group of records that keep the run-record schema (as
    `load_records` returns them); a record that is not ok, or has no verdict,
    counts as failed. Each count is a sum or list count over ok verdicts."""
    records = list(records)
    verdicts = [r["verdict"] for r in records if r.get("status") == "ok" and r.get("verdict")]
    classes, pc, rc, ps, rs = list(zip(*map(_verdict_values, verdicts))) or ((),) * 5
    return GroupCounts(
        total=len(records), ok=len(verdicts), failed=len(records) - len(verdicts),
        **{c: classes.count(c) for c in _ERROR_CLASSES}, proposer_complete=sum(pc), receiver_complete=sum(rc),
        proposer_consistent=sum(ps), receiver_consistent=sum(rs), both_complete=sum(map(and_, pc, rc)),
        both_consistent=sum(map(and_, ps, rs)), strategy_robust=sum(map(all, zip(pc, rc, ps, rs))),
    )


Group = tuple[str, int, int]


@dataclass(frozen=True)
class Comparison:
    """A test between two groups, each given as (label, successes, trials).

    `test` is None when the test was not run, and `note` then says why;
    otherwise `note` is the test's own warning, if it gave one.
    """

    name: str
    groups: tuple[Group, Group]
    test: TestResult | None
    note: str | None = None


@dataclass(frozen=True)
class Summary:
    totals: GroupCounts
    by_structure: dict[str, GroupCounts]
    by_cell: dict[tuple[str, str], GroupCounts]
    by_member: dict[tuple[str, str], GroupCounts]
    # Within each structure: strategy versus gameplay share of its errors.
    error_comparisons: tuple[Comparison, ...]
    # The best member of each structure family, head to head.
    headlines: tuple[Comparison, ...]


def _rolled_up(counts: dict[tuple, GroupCounts], key: Callable[[tuple], object]) -> dict:
    """The counts summed over the groups that share key(group), sorted."""
    rolled: dict = {}
    for group, c in counts.items():
        rolled[key(group)] = rolled.get(key(group), GroupCounts()) + c
    return dict(sorted(rolled.items()))


def _compare(
    name: str,
    groups: tuple[Group, Group],
    test: Callable[[int, int, int, int], TestResult],
    skip: str | None = None,
) -> Comparison:
    """Run `test` on the groups' counts, unless `skip` gives a reason not to."""
    if skip is not None:
        return Comparison(name, groups, None, skip)
    (_, s1, n1), (_, s2, n2) = groups
    try:
        result = test(s1, n1, s2, n2)
    except DegenerateTableError as exc:
        return Comparison(name, groups, None, f"not computable: {exc}")
    return Comparison(name, groups, result, result.warning)


def _headline(
    name: str,
    by_member: dict[tuple[str, str], GroupCounts],
    success: Callable[[GroupCounts], int],
) -> Comparison:
    """The member of each structure family with the highest success rate
    (the first label on a tie), head to head; "-" for a family with no
    graded runs."""
    families = (Structure.MULTI_AGENT.value, Structure.SINGLE_MODEL.value)
    groups = []
    for family in families:
        _, label, c = min(
            ((-Fraction(success(counts), counts.ok), f"{s}/{model}", counts)
             for (s, model), counts in by_member.items() if s == family and counts.ok > 0),
            default=(0, "-", GroupCounts()),
        )
        groups.append((label, success(c), c.ok))
    missing = [family for family, (_, _, trials) in zip(families, groups) if trials == 0]
    skip = None
    if missing:
        skip = "no graded runs" if len(missing) == 2 else f"no graded {missing[0]} runs"
    return _compare(name, tuple(groups), chi_square_2x2, skip)


def aggregate(records: Iterable[dict]) -> Summary:
    """Count and compare a set of run records.

    Structures are compared on the error axes within themselves, and the
    best member of each structure family is compared head to head on
    human consistency and on strategy completeness. The records keep the
    run-record schema, as `load_records` returns them; a record with no
    model is counted under "-".
    """
    groups: dict[tuple[str, str, str], list[dict]] = {}  # (structure, pair, model)
    for r in records:
        key = (r["structure"], r["pair"], str(r.get("model", "-")))
        groups.setdefault(key, []).append(r)
    counts = {group: count_group(rs) for group, rs in groups.items()}
    by_structure = _rolled_up(counts, itemgetter(0))
    by_cell = _rolled_up(counts, itemgetter(0, 1))
    by_member = _rolled_up(counts, itemgetter(0, 2))
    error_comparisons = tuple(
        _compare(
            structure,
            (("strategy", c.strategy_errors, c.errors), ("gameplay", c.gameplay_errors, c.errors)),
            two_proportion_z,
            None if c.errors else "no errors",
        )
        for structure, c in by_structure.items()
    )
    return Summary(
        totals=sum(counts.values(), GroupCounts()),
        by_structure=by_structure,
        by_cell=by_cell,
        by_member=by_member,
        error_comparisons=error_comparisons,
        headlines=(
            _headline("human consistency", by_member, lambda c: c.none),
            _headline("strategy completeness", by_member, lambda c: c.both_complete),
        ),
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
# (markdown heading, CSV metric, value for the row).
# Columns of a GroupCounts:
_GRADED = ("graded", "graded", lambda c: c.ok)
_FAILED = ("failed", "failed", lambda c: c.failed)
_OVERALL_COLUMNS = (("runs", "total", lambda c: c.total), _GRADED, _FAILED)
_CELL_COLUMNS = (
    ("runs", "runs", lambda c: c.total),
    _GRADED,
    _FAILED,
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
# Columns of a Comparison's TestResult, which is None (markdown "-", no CSV
# rows) when no test was run:
_P = ("p", "p", lambda t: _fmt_p(t.p_two_tailed))
_Z_COLUMNS = (("z", "z", lambda t: _fmt_stat(t.statistic)), _P)
_CHI_SQUARE_COLUMNS = (("chi-square", "chi_square", lambda t: _fmt_stat(t.statistic)), _P)
# Columns of a Comparison:
_GROUP_COLUMNS = tuple(
    (field, f"{field}_{side}", lambda h, i=i, j=j: h.groups[i][j])
    for i, side in enumerate("ab")
    for j, field in enumerate(("member", "successes", "trials"))
)
_NOTE = (("note", "note", lambda comparison: comparison.note),)


def _cells(columns: tuple, row: object) -> list:
    return ["-" if row is None else value(row) for _, _, value in columns]


def _long_rows(section: str, group: str, columns: tuple, row: object) -> list[list]:
    """One CSV row per column; none for a missing row or a None value."""
    if row is None:
        return []
    rows = ([section, group, metric, value(row)] for _, metric, value in columns)
    return [r for r in rows if r[3] is not None]


def _md_table(keys: list[str], columns: tuple, rows: Iterable[list]) -> list[str]:
    """A markdown table headed by the key names and the columns' headings,
    followed by one blank line."""
    headings = keys + [heading for heading, _, _ in columns]
    lines = [headings, ["---"] * len(headings), *rows]
    return ["| " + " | ".join(map(str, line)) + " |" for line in lines] + [""]


def _render_markdown(summary: Summary) -> str:
    lines = ["# Ultimatum experiment report", ""]
    totals = summary.totals
    if totals.total == 0:
        lines.append("No runs recorded.")
        return "\n".join(lines) + "\n"
    lines += [f"{totals.total} runs: {totals.ok} graded, {totals.failed} failed.", ""]

    lines += ["## Runs by cell", ""] + _md_table(
        ["structure", "pair"],
        _CELL_COLUMNS,
        ([s, p, *_cells(_CELL_COLUMNS, c)] for (s, p), c in sorted(summary.by_cell.items())),
    )
    lines += ["## Error classes by structure", ""] + _md_table(
        ["structure"],
        _ERROR_COLUMNS + _Z_COLUMNS,
        (
            [
                e.name,
                *_cells(_ERROR_COLUMNS, summary.by_structure[e.name]),
                *_cells(_Z_COLUMNS, e.test),
            ]
            for e in summary.error_comparisons
        ),
    )
    notes = [f"- {e.name}: {e.note}" for e in summary.error_comparisons if e.note]
    if notes:
        lines += notes + [""]
    quality = (_GRADED, *_QUALITY_COLUMNS)
    lines += ["## Strategy quality by structure", ""] + _md_table(
        ["structure"],
        quality,
        ([s, *_cells(quality, c)] for s, c in sorted(summary.by_structure.items())),
    )

    lines += ["## Headline comparisons", ""]
    for h in summary.headlines:
        detail = " vs ".join(f"{label} {s}/{n}" for label, s, n in h.groups)
        result = h.note
        if h.test is not None:
            result = (
                f"chi-square {_fmt_stat(h.test.statistic)} (df=1), "
                f"p {_fmt_p(h.test.p_two_tailed)}"
            ) + (f" ({h.note})" if h.note else "")
        lines.append(f"- {h.name}: {detail} -> {result}")
    return "\n".join(lines) + "\n"


def _render_csv(summary: Summary) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["section", "group", "metric", "value"])
    if summary.totals.total == 0:
        writer.writerow(["overall", "-", "note", "no runs recorded"])
        return out.getvalue()
    writer.writerows(_long_rows("overall", "-", _OVERALL_COLUMNS, summary.totals))
    for (structure, pair), c in sorted(summary.by_cell.items()):
        writer.writerows(_long_rows("cell", f"{structure}/{pair}", _CELL_COLUMNS, c))
    for e in summary.error_comparisons:
        c = summary.by_structure[e.name]
        writer.writerows(_long_rows("structure", e.name, _ERROR_COLUMNS + _QUALITY_COLUMNS, c))
        writer.writerows(_long_rows("structure", e.name, _Z_COLUMNS, e.test))
        writer.writerows(_long_rows("structure", e.name, _NOTE, e))
    for h in summary.headlines:
        writer.writerows(_long_rows("headline", h.name, _GROUP_COLUMNS, h))
        writer.writerows(_long_rows("headline", h.name, _CHI_SQUARE_COLUMNS, h.test))
        writer.writerows(_long_rows("headline", h.name, _NOTE, h))
    return out.getvalue()
