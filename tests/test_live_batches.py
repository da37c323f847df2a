"""Live batches: HttpGateway against in-process sessions, no network.

On more than one worker a live game asks both players for their
strategies at once, the receiver's request on a helper pool, and a pool
starts multi-agent runs first. A batch on one worker, and any batch not
posting through an HttpGateway, sends one request at a time per run.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import re
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_log, oracle_text
from ultimatum import cli, experiment, orchestrator
from ultimatum.agents import HttpGateway, RecordingGateway, ReplayGateway
from ultimatum.engine import GameConfig, format_money
from ultimatum.experiment import load_plan, plan_from_dict, regrade_record, run_batch
from ultimatum.strategy import Personality, PersonalityPair, Role
from ultimatum.transcripts import (
    Structure,
    parse_canonical,
    parse_strategy_text,
    serialize_canonical,
)

ENDPOINT = "http://fuzz.invalid/v1/chat/completions"


class Response:
    """The part of requests.Response that HttpGateway reads."""

    def __init__(self, status_code: int, content: str | None = None) -> None:
        self.status_code = status_code
        self.text = "" if content is None else content
        self.headers: dict = {}
        self._content = content

    def json(self):
        return {"choices": [{"message": {"role": "assistant", "content": self._content}}]}


def is_strategy_request(messages: list[dict]) -> bool:
    return 'Reply "STRATEGY:"' in messages[-1]["content"]


def speaker(messages: list[dict]) -> tuple[Role, Personality]:
    system = messages[0]["content"]
    role = Role.PROPOSER if "You are Proposer" in system else Role.RECEIVER
    return role, Personality.FAIR if "is fair." in system else Personality.GREEDY


JUNK = (
    "", "I like turtles.", "¿Oferta? ٥٠ сентов", "DÉCISION : accepter", "OFFER: lots", "\n\n"
)


class FuzzSession:
    """An HTTP session whose answer is a pure function of the request body
    and a salt. One body in fifty gets an HTTP error (a 400 fails the
    request, a 503 is retried until the gateway gives up), one in twelve
    junk or an odd reply, and the rest a usable marker reply or prose for
    the turn the body asks for. It counts the posts of each body."""

    def __init__(self, game: GameConfig, salt: int) -> None:
        self.game, self.salt = game, salt
        self.posts: Counter = Counter()
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        body = _json_dumps(json)
        with self._lock:
            self.posts[body] += 1
        digest = hashlib.sha256(f"{self.salt}:{body}".encode()).digest()
        kind, pick = digest[0] % 100, int.from_bytes(digest[1:9], "big")
        if kind == 0:
            return Response(400, "bad request")
        if kind == 1:
            return Response(503)
        usable, odd = self.replies(json["messages"], pick)
        options = JUNK + odd if kind < 10 else usable
        return Response(200, options[pick % len(options)])

    def replies(self, messages: list[dict], pick: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """(usable replies, odd replies) for the turn the messages ask for."""
        game, last = self.game, messages[-1]["content"]
        if len(messages) == 1:
            found = re.search(r"for a (\w+) proposer and a (\w+) receiver", last)
            pair = PersonalityPair(Personality(found[1]), Personality(found[2]))
            log = oracle_log(pair, game)
            return (log,), (log.replace("DECISION", "VERDICT"),)
        role, personality = speaker(messages)
        if is_strategy_request(messages):
            other = Personality.GREEDY if personality is Personality.FAIR else Personality.FAIR
            text = oracle_text(role, personality, game.pot, game.rounds)
            return (f"STRATEGY: {text}", f"{text}\nThat is all."), (
                f"Strategy: {oracle_text(role, other, game.pot, game.rounds)}",
                "Strategy: I will see how it goes.",
            )
        if role is Role.PROPOSER:
            offer = format_money(pick % (game.pot + 1))
            return (
                f"OFFER: {offer}",
                f"I would like to offer {offer} this time.",
                f"Thinking it over.\nOFFER: {offer}  \n(final)",
            ), (f"OFFER: {format_money(game.pot + 1 + pick % game.pot)}",)
        return (
            "DECISION: accept",
            "DECISION: reject",
            "Sounds fair to me, I accept.",
            "Let me see.\nDECISION: reject",
        ), ("No deal, I reject that split.",)


def turn_of(messages: list[dict]) -> str:
    """"log" for a single-model request; else the role asked for a strategy,
    or "offer" or "decision"."""
    if len(messages) == 1:
        return "log"
    role, _ = speaker(messages)
    if is_strategy_request(messages):
        return role.value
    return "offer" if role is Role.PROPOSER else "decision"


# Replies that name a number past int()'s 4300-digit limit, or rounds far
# past the game's: each form is (the turn it answers, a function from that
# turn's usable reply to the reply sent).
LONG_FORMS = {
    "offer amount": ("offer", lambda reply: f"OFFER: ${'9' * 5000}"),
    "offer in cents": ("offer", lambda reply: f"I offer {'9' * 5000} cents."),
    "offer with commas": ("offer", lambda reply: f"OFFER: $1{',000' * 1500}.00"),
    "strategy amount": ("receiver", lambda reply: f"{reply} I accept ${'4' * 5000}.5 or more in round 1."),
    "pot share": ("proposer", lambda reply: f"{reply} I will never offer {'5' * 5000}% of the pot."),
    "pot share fraction": ("receiver", lambda reply: f"{reply} I accept at least 4.{'5' * 5000} percent."),
    "round number": ("receiver", lambda reply: f"{reply} I accept at least $0.40 in round {'7' * 5000}."),
    "round range": ("receiver", lambda reply: f"{reply} I accept at least $0.40 in rounds 1 through {10**12}."),
    "log heading": ("log", lambda log: f"Round {'6' * 5000}: a warm-up.\n{log}"),
    "log inline round": ("log", lambda log: log.replace("ROUND 2\n", f"ROUND 2\nRound {'6' * 5000} is next.\n", 1)),
    "log amount": ("log", lambda log: log.replace(
        "STRATEGY (Receiver): ", f"STRATEGY (Receiver): I accept ${'4' * 5000} or more in round 1. ", 1
    )),
    "log round range": ("log", lambda log: log.replace(
        "STRATEGY (Receiver): ", f"STRATEGY (Receiver): I accept $0.40 in rounds 2 to {'8' * 5000}. ", 1
    )),
    "log offer": ("log", lambda log: log.replace("OFFER: ", f"OFFER: ${'9' * 5000} or ", 1)),
}


class LongNumberSession(FuzzSession):
    """A FuzzSession with no HTTP errors and no junk, whose replies to one
    turn are rewritten; it counts the rewrites."""

    def __init__(self, game: GameConfig, turn: str, rewrite) -> None:
        super().__init__(game, salt=0)
        self.turn, self.rewrite, self.rewritten = turn, rewrite, 0

    def post(self, url, json=None, headers=None, timeout=None):
        messages = json["messages"]
        (reply, *_), _ = self.replies(messages, pick=37)
        if turn_of(messages) == self.turn:
            self.rewritten += 1
            reply = self.rewrite(reply)
        return Response(200, reply)


def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def live_plan(**fields):
    return plan_from_dict({"endpoint": ENDPOINT, "model": "fuzz", **fields})


def without_elapsed(records):
    return [{k: v for k, v in r.items() if k != "elapsed_seconds"} for r in records]


def fuzzed_batch(plan, salt, workers):
    """The batch, and how often each request body was posted."""
    session = FuzzSession(plan.game, salt)
    gateway = HttpGateway(ENDPOINT, session=session, sleep=lambda s: None)
    batch = run_batch(plan, mode="live", gateway=gateway, max_workers=workers, keep_prompts=True)
    usage = batch.gateway_usage
    assert sum(session.posts.values()) == usage["requests"] + usage["retries"]
    return batch, session.posts


def assert_same_records(batch, other):
    assert without_elapsed(batch.records) == without_elapsed(other.records)


class TestFuzzedLiveBatches:
    @settings(max_examples=40)
    @given(
        pot=st.integers(5, 10_000),
        rounds=st.integers(1, 10),
        runs_per_cell=st.integers(1, 2),
        salt=st.integers(0, 2**32),
        workers=st.sampled_from([1, 2, 4]),
    )
    def test_records_regrade_round_trip_and_do_not_depend_on_workers(
        self, pot, rounds, runs_per_cell, salt, workers
    ):
        plan = live_plan(pot=pot, rounds=rounds, runs_per_cell=runs_per_cell)
        batch, posts = fuzzed_batch(plan, salt, workers)
        for record in batch.records:
            if record["status"] == "ok":
                assert regrade_record(record) == record["verdict"]
                text = record["transcript"]
                assert serialize_canonical(parse_canonical(text)) == text
        alone, alone_posts = fuzzed_batch(plan, salt, 1)
        assert_same_records(batch, alone)
        # On more than one worker a game's receiver is asked for its strategy
        # even when its proposer's request fails: only those posts are extra.
        assert not alone_posts - posts
        for body in posts - alone_posts:
            messages = json.loads(body)["messages"]
            assert is_strategy_request(messages) and speaker(messages)[0] is Role.RECEIVER

    @pytest.mark.parametrize("form", LONG_FORMS)
    def test_a_reply_with_a_long_number_costs_at_most_its_own_run(self, form):
        plan = live_plan(pot=100, rounds=3, runs_per_cell=1)
        session = LongNumberSession(plan.game, *LONG_FORMS[form])
        gateway = HttpGateway(ENDPOINT, session=session, sleep=lambda s: None)
        batch = run_batch(plan, mode="live", gateway=gateway, max_workers=1)
        assert session.rewritten
        assert [r["run_id"] for r in batch.records] == [
            f"{structure.value}.{pair.label()}.000" for structure, pair in plan.cells()
        ]
        for record in batch.records:
            if record["status"] == "ok":
                assert regrade_record(record) == record["verdict"]
                text = record["transcript"]
                assert serialize_canonical(parse_canonical(text)) == text

    @pytest.mark.parametrize("last", [3_000_000, 10**12])
    def test_a_long_round_range_scopes_only_the_games_rounds(self, last):
        text = f"I will only accept offers of at least $0.40 in rounds 1 through {last}."
        start = time.perf_counter()
        plan = parse_strategy_text(text, Role.RECEIVER, GameConfig(rounds=5))
        assert time.perf_counter() - start < 0.25
        assert plan.round_thresholds == {r: 40 for r in range(1, 6)}

    @pytest.mark.parametrize("form", [form for form, (turn, _) in LONG_FORMS.items() if turn == "log"])
    def test_grading_a_log_with_a_long_number_gives_a_verdict_or_one_error_line(
        self, form, tmp_path, capsys
    ):
        pair, game = PersonalityPair.from_label("fair-greedy"), GameConfig(pot=100, rounds=3)
        _, rewrite = LONG_FORMS[form]
        (tmp_path / "log.txt").write_text(rewrite(oracle_log(pair, game)), encoding="utf-8")
        argv = ["grade", "--single-log", str(tmp_path / "log.txt"), "--pair", "fair-greedy", "--rounds", "3"]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if code == 0:
            assert err == "" and out
        else:
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1 and err.startswith("error: cannot grade: ")

    def test_workers_and_helpers_that_switch_often_lose_no_count(self):
        # 4 workers and 4 helpers on a small machine, switching every
        # microsecond: a lost update to the gateway's counters would no
        # longer add up to the posts (see fuzzed_batch).
        plan = live_plan(rounds=3, runs_per_cell=3)
        batches = []
        thread = threading.Thread(target=lambda: batches.append(fuzzed_batch(plan, 11, 4)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert_same_records(batches[0][0], fuzzed_batch(plan, 11, 1)[0])


class MeetingSession:
    """Answers each strategy request only once the other player's strategy
    request of the same game has arrived too, waiting at most `timeout`
    seconds; a strategy request that waits in vain is answered 400. Action
    requests get marker replies. Serves one game at a time."""

    def __init__(self, game: GameConfig, timeout: float = 2.0) -> None:
        self.game = game
        self.meeting = threading.Barrier(2, timeout=timeout)

    def post(self, url, json=None, headers=None, timeout=None):
        messages = json["messages"]
        role, personality = speaker(messages)
        if is_strategy_request(messages):
            try:
                self.meeting.wait()
            except threading.BrokenBarrierError:
                return Response(400, "the other player's strategy request never came")
            text = oracle_text(role, personality, self.game.pot, self.game.rounds)
            return Response(200, f"STRATEGY: {text}")
        return Response(200, "OFFER: $0.50" if role is Role.PROPOSER else "DECISION: accept")


ONE_GAME = {"structures": ["multi_agent"], "pairs": ["fair-fair"], "runs_per_cell": 1}


class TestStrategyRequestsGoOutTogether:
    def test_each_strategy_request_is_in_flight_while_the_other_is(self):
        plan = live_plan(**ONE_GAME)
        gateway = HttpGateway(ENDPOINT, session=MeetingSession(plan.game), sleep=lambda s: None)
        batch = run_batch(plan, mode="live", gateway=gateway, max_workers=2)
        assert [r["cause"] for r in batch.records] == [None]
        assert batch.records[0]["verdict"]["error_class"] == "none"
        assert batch.gateway_usage == {"requests": 12, "retries": 0}


class FailingProposerStrategy:
    """Fails the proposer's strategy request (HTTP 400) at once and the
    receiver's, a little later, with another message; it notes when the
    receiver's request is done."""

    def __init__(self) -> None:
        self.receiver_done = threading.Event()

    def post(self, url, json=None, headers=None, timeout=None):
        role, _ = speaker(json["messages"])
        if role is Role.PROPOSER:
            return Response(400, "proposer strategy refused")
        time.sleep(0.05)
        self.receiver_done.set()
        return Response(400, "receiver strategy refused")


class TestAFailedStrategyRequest:
    def test_the_run_fails_with_the_proposers_error_after_the_receivers_request(self):
        threads = threading.active_count()
        session = FailingProposerStrategy()
        gateway = HttpGateway(ENDPOINT, session=session, sleep=lambda s: None)
        batch = run_batch(live_plan(**ONE_GAME), mode="live", gateway=gateway)
        assert threading.active_count() == threads
        assert session.receiver_done.is_set()
        assert [r["cause"] for r in batch.records] == [
            "GatewayError: HTTP 400: proposer strategy refused"
        ]
        # The receiver's request went out beside the proposer's and is counted.
        assert batch.gateway_usage == {"requests": 2, "retries": 0}


def test_a_live_batch_posts_to_the_plans_endpoint(monkeypatch):
    # With no gateway passed in, the batch builds an HttpGateway for the
    # plan's endpoint; here its session is in-process.
    plan = live_plan(runs_per_cell=1, rounds=2)
    built = []

    class InProcessHttpGateway(HttpGateway):
        def __init__(self, endpoint):
            built.append(endpoint)
            super().__init__(endpoint, session=FuzzSession(plan.game, 5), sleep=lambda s: None)

    monkeypatch.setattr(experiment, "HttpGateway", InProcessHttpGateway)
    batch = run_batch(plan, mode="live", max_workers=1, keep_prompts=True)
    assert built == [ENDPOINT]
    assert_same_records(batch, fuzzed_batch(plan, 5, workers=1)[0])


class TestDispatchOrder:
    def mapped_structures(self, monkeypatch):
        """The structures of the jobs each pool is handed, in order."""
        mapped = []
        original = concurrent.futures.ThreadPoolExecutor.map

        def recording(pool, fn, jobs, **kwargs):
            jobs = list(jobs)
            mapped.append([config.structure for _, config in jobs])
            return original(pool, fn, jobs, **kwargs)

        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "map", recording)
        return mapped

    def test_a_live_pool_starts_multi_agent_runs_first_and_keeps_grid_order(self, monkeypatch):
        mapped = self.mapped_structures(monkeypatch)
        plan = live_plan(structures=["single_model", "multi_agent"], runs_per_cell=2, rounds=2)
        batch, _ = fuzzed_batch(plan, 7, workers=2)
        assert mapped == [[Structure.MULTI_AGENT] * 8 + [Structure.SINGLE_MODEL] * 8]
        assert [r["run_id"] for r in batch.records] == [
            f"{structure.value}.{pair.label()}.{k:03d}"
            for structure, pair in plan.cells()
            for k in range(2)
        ]
        assert_same_records(batch, fuzzed_batch(plan, 7, workers=1)[0])


class TestBatchesOnOneWorkerStartNoThread:
    """Oracle and replay batches on their default worker count, and live
    batches on one worker, start no thread and give no game a helper, so
    they send one request at a time."""

    @pytest.fixture
    def spawned(self, monkeypatch):
        """The threads started and the helpers strategy phases were given."""
        threads, helpers = [], []
        start, phase = threading.Thread.start, orchestrator._Moderator.strategy_phase
        monkeypatch.setattr(threading.Thread, "start", lambda t: (threads.append(t), start(t))[1])

        def strategy_phase(moderator, *helper):
            helpers.extend(helper or [None])
            return phase(moderator, *helper)

        monkeypatch.setattr(orchestrator._Moderator, "strategy_phase", strategy_phase)
        return threads, helpers

    @staticmethod
    def assert_none_spawned(spawned):
        threads, helpers = spawned
        assert threads == []
        assert helpers and set(helpers) == {None}

    def test_an_oracle_batch(self, spawned):
        assert run_batch(plan_from_dict({"runs_per_cell": 2, "rounds": 3})).failed_count == 0
        self.assert_none_spawned(spawned)

    def test_a_replay_batch(self, spawned, fixtures_dir):
        folder = fixtures_dir / "replay"
        gateway = ReplayGateway(folder / "recording.jsonl")
        batch = run_batch(load_plan(folder / "plan.yaml"), mode="replay", gateway=gateway)
        assert batch.failed_count == 0
        self.assert_none_spawned(spawned)

    def test_a_recorded_live_batch(self, spawned, tmp_path):
        plan = live_plan(pairs=["fair-fair"], runs_per_cell=1)
        inner = HttpGateway(ENDPOINT, session=FuzzSession(plan.game, salt=3), sleep=lambda s: None)
        gateway = RecordingGateway(inner, tmp_path / "recording.jsonl")
        assert len(run_batch(plan, mode="live", gateway=gateway, max_workers=1).records) == 2
        self.assert_none_spawned(spawned)

    def test_a_live_batch(self, spawned):
        plan = live_plan(pairs=["fair-fair"], runs_per_cell=1)
        gateway = HttpGateway(ENDPOINT, session=FuzzSession(plan.game, salt=3), sleep=lambda s: None)
        assert len(run_batch(plan, mode="live", gateway=gateway, max_workers=1).records) == 2
        self.assert_none_spawned(spawned)
