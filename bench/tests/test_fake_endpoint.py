import copy
import threading

import pytest

from fake_endpoint import (
    MALFORMED_ONCE,
    MALFORMED_TWICE,
    MARKER,
    MARKER_FREE,
    NO_LATENCY,
    FakeChatEndpoint,
    FaultMix,
)
from gate import records_digest
from ultimatum.agents import HttpGateway
from ultimatum.experiment import plan_from_dict, run_batch

ENDPOINT = "http://fake-endpoint.invalid/v1/chat/completions"


def _plan(**overrides):
    data = {"runs_per_cell": 1, "model": "fake-model", "endpoint": ENDPOINT}
    data.update(overrides)
    return plan_from_dict(data)


def _live(endpoint, workers, plan=None, **gateway_args):
    gateway = HttpGateway(ENDPOINT, session=endpoint, backoff=0.0, **gateway_args)
    return run_batch(plan or _plan(), mode="live", gateway=gateway, max_workers=workers), gateway


def test_same_seed_same_records_under_two_threads():
    plans = [_plan(pot=pot, rounds=rounds) for pot, rounds in ((100, 5), (200, 5), (100, 10))]
    for plan in plans:
        digests = set()
        for workers in (1, 2, 2):
            batch, _ = _live(FakeChatEndpoint(5, latency=NO_LATENCY), workers, plan)
            digests.add(records_digest(batch.records))
        assert len(digests) == 1


def test_replies_are_a_pure_function_of_the_request_under_threads():
    endpoint = FakeChatEndpoint(3, FaultMix(http_503=0.0), NO_LATENCY)
    payloads = []

    class Capture:
        def post(self, url, json=None, headers=None, timeout=None):
            payloads.append(copy.deepcopy(json))  # the gateway reuses its message list
            return endpoint.post(url, json=json)

    run_batch(_plan(), mode="live", gateway=HttpGateway(ENDPOINT, session=Capture()), max_workers=1)
    expected = [endpoint.post(ENDPOINT, json=p).json() for p in payloads]
    results: dict[int, dict] = {}

    def worker(indices):
        for i in indices:
            results[i] = endpoint.post(ENDPOINT, json=payloads[i]).json()

    threads = [
        threading.Thread(target=worker, args=(range(len(payloads)),)),
        threading.Thread(target=worker, args=(reversed(range(len(payloads))),)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(payloads) > 20
    assert [results[i] for i in range(len(payloads))] == expected


def test_other_seed_other_replies():
    a, _ = _live(FakeChatEndpoint(1, latency=NO_LATENCY), 1)
    b, _ = _live(FakeChatEndpoint(2, latency=NO_LATENCY), 1)
    assert records_digest(a.records) != records_digest(b.records)


def _within(count: int, n: int, share: float) -> bool:
    sigma = (n * share * (1 - share)) ** 0.5
    return abs(count - n * share) <= 4 * sigma + 1


def test_fault_mix_hits_designed_shares():
    mix = FaultMix()
    endpoint = FakeChatEndpoint(11, mix)
    n = 40_000
    keys = [f"request-{i}" for i in range(n)]
    classes = [endpoint.reply_class(k) for k in keys]
    for name, share in (
        (MALFORMED_TWICE, mix.malformed_twice),
        (MALFORMED_ONCE, mix.malformed_once),
        (MARKER_FREE, mix.marker_free),
        (MARKER, 1 - mix.malformed_twice - mix.malformed_once - mix.marker_free),
    ):
        assert _within(classes.count(name), n, share), name
    assert _within(sum(endpoint.answers_503(k) for k in keys), n, mix.http_503)
    slow = sum(endpoint.delay_s(k) == endpoint.latency.slow_s for k in keys)
    assert _within(slow, n, mix.slow)


def test_malformed_once_is_corrected_and_twice_fails_the_run():
    once, _ = _live(
        FakeChatEndpoint(4, FaultMix(malformed_twice=0.0, malformed_once=1.0, http_503=0.0), NO_LATENCY), 1
    )
    multi = [r for r in once.records if r["structure"] == "multi_agent"]
    assert multi and all(r["status"] == "ok" for r in multi)
    twice, _ = _live(
        FakeChatEndpoint(4, FaultMix(malformed_twice=1.0, http_503=0.0), NO_LATENCY), 1
    )
    multi = [r for r in twice.records if r["structure"] == "multi_agent"]
    assert multi and all(r["cause"].startswith("TurnOrderViolationError") for r in multi)


def test_marker_free_replies_are_still_read():
    mix = FaultMix(malformed_twice=0.0, malformed_once=0.0, marker_free=1.0, http_503=0.0)
    batch, _ = _live(FakeChatEndpoint(6, mix, NO_LATENCY), 1)
    assert all(r["status"] == "ok" for r in batch.records)


def test_503_once_then_success_through_gateway_retry():
    endpoint = FakeChatEndpoint(8, FaultMix(malformed_twice=0.0, http_503=1.0), NO_LATENCY)
    batch, gateway = _live(endpoint, 2)
    assert all(r["status"] == "ok" for r in batch.records)
    # Each distinct request is answered 503 once; players in different
    # runs can send the same opening request, so retries <= requests.
    assert 0 < gateway.retries <= gateway.requests
    assert endpoint.posts == gateway.requests + gateway.retries


@pytest.mark.parametrize("vary", [0.0, 1.0])
def test_occurrence_variation(vary):
    endpoint = FakeChatEndpoint(9, FaultMix(malformed_twice=0.0, malformed_once=0.0, http_503=0.0),
                                NO_LATENCY, vary_share=vary)
    payload = {"model": "m", "messages": [{"role": "user", "content": (
        "Create a strategy for a fair proposer and a greedy receiver in playing the "
        "ultimatum game five times with $1. Then simulate.")}]}
    replies = {endpoint.post(ENDPOINT, json=payload).json()["choices"][0]["message"]["content"]
               for _ in range(30)}
    assert (len(replies) > 1) == bool(vary)
    endpoint.reset()
    assert endpoint.post(ENDPOINT, json=payload).json() == FakeChatEndpoint(
        9, endpoint.mix, NO_LATENCY, vary_share=vary).post(ENDPOINT, json=payload).json()
