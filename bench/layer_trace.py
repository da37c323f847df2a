"""Per-layer tracing by wrapping the program's public functions.

`LayerTracer.install()` replaces each traced function at every module
attribute that holds it (the defining module and every module that
imported it by name), and each traced method on its class, with a wrapper
that records a span: layer name, thread, start, end and parent span. A
thread-local stack gives each span its parent; a span opened by a worker
thread with an empty stack takes the innermost open span of the thread
that installed the tracer as its parent. `uninstall()` puts every original
back, and the wrappers keep the stack balanced when a call raises.

Spans stay in memory. `summary()` turns them into per-layer numbers:

* calls: spans opened;
* self_s: wall time during which the span was a leaf (no open child, in
  any thread). When several threads hold leaves at once the interval is
  shared equally among them, so over a traced window the self times plus
  `other` (time with no span open) add up to the window's wall time;
* total_s: summed span durations, counting overlap between threads twice.

Wrappers only record while `enabled` is true, so the caller can leave them
installed and exclude its own bookkeeping from the trace.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable, `module.attr` or `module.cls.attr`, reported
    under `layer`."""

    layer: str
    module: str
    attr: str
    cls: str | None = None


# (layer, module, functions) for module-level functions.
_FUNCTIONS = (
    ("engine", "ultimatum.engine", ("new_game", "submit_offer", "submit_decision", "replay")),
    ("strategy.prescribed_action", "ultimatum.strategy", ("prescribed_action",)),
    (
        "strategy.checks",
        "ultimatum.strategy",
        ("check_completeness", "check_personality_consistency", "check_adherence"),
    ),
    ("rubric.evaluate_transcript", "ultimatum.rubric", ("evaluate_transcript",)),
    ("transcripts.parse_agent_log", "ultimatum.transcripts", ("parse_agent_log",)),
    ("transcripts.parse_single_model_log", "ultimatum.transcripts", ("parse_single_model_log",)),
    ("transcripts.parse_strategy_text", "ultimatum.transcripts", ("parse_strategy_text",)),
    ("transcripts.extract_reply", "ultimatum.transcripts", ("extract_offer_reply", "extract_decision_reply")),
    ("transcripts.serialize_canonical", "ultimatum.transcripts", ("serialize_canonical",)),
    ("transcripts.parse_canonical", "ultimatum.transcripts", ("parse_canonical",)),
    ("orchestrator.run_multi_agent", "ultimatum.orchestrator", ("run_multi_agent",)),
    ("orchestrator.run_single_model", "ultimatum.orchestrator", ("run_single_model",)),
    ("prompts.render", "ultimatum.prompts", ("render",)),
    ("experiment.run_batch", "ultimatum.experiment", ("run_batch",)),
    ("experiment.load_records", "ultimatum.experiment", ("load_records",)),
    ("experiment.regrade_record", "ultimatum.experiment", ("regrade_record",)),
    ("experiment.aggregate", "ultimatum.experiment", ("aggregate",)),
    ("experiment.render_report", "ultimatum.experiment", ("render_report",)),
    ("experiment.plan", "ultimatum.experiment", ("plan_from_dict", "load_plan")),
    ("stats.tests", "ultimatum.stats", ("chi_square_2x2", "two_proportion_z")),
    ("cli.main", "ultimatum.cli", ("main",)),
)

# (layer, module, class, methods) for methods.
_METHODS = (
    ("agents.complete", "ultimatum.agents", "Gateway", ("complete",)),
    ("agents.act", "ultimatum.agents", "ModelAgent", ("act", "create_strategy")),
    ("agents.act", "ultimatum.agents", "OracleAgent", ("act", "create_strategy")),
    ("orchestrator.oracle_gateway_builds", "ultimatum.orchestrator", "OracleSingleModelGateway", ("__init__",)),
    ("experiment.store_append", "ultimatum.experiment", "RunStore", ("append",)),
)

TARGETS = tuple(
    [Target(layer, module, attr) for layer, module, attrs in _FUNCTIONS for attr in attrs]
    + [Target(layer, module, attr, cls) for layer, module, cls, attrs in _METHODS for attr in attrs]
)


class LayerTracer:
    """Installs span-recording wrappers and summarizes the spans."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, str, int, float, float, int | None]] = []
        self.counts: collections.Counter = collections.Counter()
        self._counts_lock = threading.Lock()  # hooks run in worker threads too
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        """A wrapper recording one span per call of fn under `layer`."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, layer, threading.get_ident(), start, end, parent))
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped_layer__ = layer
        return traced

    # -- installing --------------------------------------------------------

    def _hook(self, target: Target, where: str) -> Callable | None:
        """Result hooks for the counters that need a return value."""
        if target.layer in ("transcripts.parse_agent_log", "transcripts.parse_single_model_log"):
            def exact(result):
                hit = result[1].confidence.value == "exact"
                with self._counts_lock:
                    self.counts["transcripts.parses"] += 1
                    self.counts["transcripts.exact"] += hit
            return exact
        if target.layer == "transcripts.extract_reply" and where == "ultimatum.orchestrator":
            # The moderator reads each player reply through this name; an
            # extraction that finds nothing triggers a re-prompt.
            def reprompt(result):
                with self._counts_lock:
                    self.counts["orchestrator.reprompts"] += result is None
            return reprompt
        return None

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = {t.module: importlib.import_module(t.module) for t in TARGETS}
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ultimatum" or name.startswith("ultimatum."))
        ]
        try:
            for target in TARGETS:
                owner = owners[target.module]
                if target.cls is not None:
                    cls = getattr(owner, target.cls)
                    original = cls.__dict__[target.attr]
                    self._patch(cls, target.attr, self.wrap(target.layer, original))
                    continue
                original = getattr(owner, target.attr)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            wrapper = self.wrap(target.layer, original, self._hook(target, module.__name__))
                            self._patch(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summarizing -------------------------------------------------------

    def summary(self, windows: list[tuple[float, float]]) -> dict:
        """Per-layer calls, self_s and total_s over the given windows.

        Every span must lie inside one window; time inside a window with
        no open span counts as `other`.
        """
        name_of: dict[int, str] = {}
        parent_of: dict[int, int | None] = {}
        events: list[tuple[float, int, int]] = []
        calls: collections.Counter = collections.Counter()
        total: collections.Counter = collections.Counter()
        for sid, layer, _tid, start, end, parent in self.spans:
            name_of[sid] = layer
            parent_of[sid] = parent
            calls[layer] += 1
            total[layer] += end - start
            events.append((start, 1, sid))
            events.append((end, 0, sid))
        for start, end in windows:
            events.append((start, 2, -1))
            events.append((end, -1, -1))
        # At equal times: window end, span ends, span starts, window start.
        events.sort(key=lambda e: (e[0], e[1]))

        self_s: collections.Counter = collections.Counter()
        other = 0.0
        is_open: set[int] = set()
        open_children: collections.Counter = collections.Counter()
        leaves: set[int] = set()
        in_window = False
        prev = 0.0
        for t, kind, sid in events:
            if in_window and t > prev:
                dt = t - prev
                if leaves:
                    share = dt / len(leaves)
                    for leaf in leaves:
                        self_s[name_of[leaf]] += share
                else:
                    other += dt
            prev = t
            if kind == 2:
                in_window = True
            elif kind == -1:
                in_window = False
            elif kind == 1:
                is_open.add(sid)
                leaves.add(sid)
                parent = parent_of[sid]
                if parent in is_open:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                is_open.discard(sid)
                leaves.discard(sid)
                parent = parent_of[sid]
                if parent in is_open:
                    open_children[parent] -= 1
                    if not open_children[parent]:
                        leaves.add(parent)
        wall = sum(end - start for start, end in windows)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total),
            "other_s": other,
            "wall_s": wall,
        }
