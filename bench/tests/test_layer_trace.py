import sys
import time

import pytest

import ultimatum
from fake_endpoint import NO_LATENCY, FakeChatEndpoint, FaultMix
from layer_trace import TARGETS, LayerTracer
from ultimatum import cli, experiment  # noqa: F401 - cli is a traced module
from ultimatum.agents import Gateway, HttpGateway
from ultimatum.experiment import InvalidPlanError

ENDPOINT = "http://fake-endpoint.invalid/v1/chat/completions"
CORRECTION = "Your reply must be"


def _snapshot() -> dict:
    """Every attribute of every ultimatum module and traced class."""
    state = {}
    for name, module in sys.modules.items():
        if module is not None and (name == "ultimatum" or name.startswith("ultimatum.")):
            for attr, value in vars(module).items():
                state[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        state[(name, attr, cattr)] = cvalue
    return state


def test_install_wraps_every_lookup_site_and_uninstall_restores():
    before = _snapshot()
    tracer = LayerTracer()
    with tracer:
        assert experiment.run_batch is not before[("ultimatum.experiment", "run_batch")]
        # orchestrator calls the parser through its own module attribute
        assert ultimatum.orchestrator.parse_agent_log.__wrapped_layer__ == "transcripts.parse_agent_log"
        assert Gateway.__dict__["complete"].__wrapped_layer__ == "agents.complete"
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_originals_restored_when_a_traced_call_raises():
    before = _snapshot()
    tracer = LayerTracer()
    with pytest.raises(InvalidPlanError):
        with tracer:
            tracer.enabled = True
            experiment.plan_from_dict({"runs_per_cell": 0})
    assert tracer._stack() == []
    assert [s[1] for s in tracer.spans] == ["experiment.plan"]
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_every_target_exists():
    for target in TARGETS:
        owner = sys.modules[target.module]
        if target.cls:
            assert target.attr in vars(getattr(owner, target.cls))
        else:
            assert callable(getattr(owner, target.attr))


def test_disabled_wrappers_record_nothing():
    tracer = LayerTracer()
    with tracer:
        experiment.run_batch(experiment.plan_from_dict({"runs_per_cell": 1}))
    assert tracer.spans == []


def _summary_of(spans, windows):
    tracer = LayerTracer()
    tracer.spans = spans
    return tracer.summary(windows)


def test_self_time_shares_overlap_between_threads():
    # parent [0, 10] on thread 1; children [2, 6] on thread 2 and [4, 8] on thread 3.
    spans = [
        (0, "batch", 1, 0.0, 10.0, None),
        (1, "run", 2, 2.0, 6.0, 0),
        (2, "run", 3, 4.0, 8.0, 0),
        (3, "parse", 3, 5.0, 7.0, 2),
    ]
    s = _summary_of(spans, [(-1.0, 11.0)])
    assert s["self_s"]["batch"] == pytest.approx(4.0)  # [0,2] and [8,10]
    # run: [2,4] alone, [4,5] shared by two, [5,6] shared with parse, [7,8] alone
    assert s["self_s"]["run"] == pytest.approx(2 + 1 + 0.5 + 1)
    assert s["self_s"]["parse"] == pytest.approx(0.5 + 1)
    assert s["other_s"] == pytest.approx(2.0)
    assert sum(s["self_s"].values()) + s["other_s"] == pytest.approx(s["wall_s"])
    assert s["total_s"]["run"] == pytest.approx(8.0)


def _traced(fn):
    tracer = LayerTracer()
    with tracer:
        tracer.enabled = True
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        tracer.enabled = False
    return tracer, tracer.summary([(start, end)]), result


def test_live_counts_match_what_the_records_imply():
    mix = FaultMix(malformed_twice=0.0, malformed_once=0.2, http_503=0.1)
    plan = experiment.plan_from_dict(
        {"runs_per_cell": 2, "model": "fake-model", "endpoint": ENDPOINT}
    )
    gateway = HttpGateway(ENDPOINT, session=FakeChatEndpoint(21, mix, NO_LATENCY), backoff=0.0)
    tracer, summary, batch = _traced(
        lambda: experiment.run_batch(plan, mode="live", gateway=gateway, max_workers=2, keep_prompts=True)
    )
    records = batch.records
    assert all(r["status"] == "ok" for r in records)
    replies = sum(len(r["replies"]) for r in records)
    corrections = sum(
        text.startswith(CORRECTION) for r in records for label, text in r["prompts"]
        if label.endswith("/announcement")
    )
    assert corrections > 0
    assert summary["calls"]["agents.complete"] == replies == gateway.requests
    assert tracer.counts["orchestrator.reprompts"] == corrections
    multi = sum(r["structure"] == "multi_agent" for r in records)
    assert summary["calls"]["transcripts.parse_agent_log"] == multi
    assert summary["calls"]["transcripts.parse_single_model_log"] == len(records) - multi
    assert summary["calls"]["rubric.evaluate_transcript"] == len(records)
    assert summary["calls"]["experiment.run_batch"] == 1
    assert sum(summary["self_s"].values()) + summary["other_s"] == pytest.approx(summary["wall_s"])


def test_oracle_counts_match_what_the_records_imply(tmp_path):
    store = experiment.RunStore(tmp_path / "runs.jsonl")
    plan = experiment.plan_from_dict({"runs_per_cell": 2, "rounds": 7})
    tracer, summary, batch = _traced(lambda: experiment.run_batch(plan, store=store))
    records = batch.records
    single = [r for r in records if r["structure"] == "single_model"]
    assert summary["calls"]["experiment.store_append"] == len(records)
    assert summary["calls"]["transcripts.serialize_canonical"] == len(records)
    assert summary["calls"]["orchestrator.oracle_gateway_builds"] == len(single)
    assert summary["calls"]["agents.complete"] == len(single)
    assert summary["calls"]["orchestrator.run_multi_agent"] == len(records) - len(single)
    assert tracer.counts["transcripts.parses"] == len(records)
    assert tracer.counts["orchestrator.reprompts"] == 0
