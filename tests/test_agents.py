import http.server
import json
import threading

import pytest
import requests

from helpers import ACC, REJ
from ultimatum.agents import (
    API_KEY_ENV,
    DEVIATION_ROUND,
    Flaw,
    GatewayError,
    Gateway,
    HttpGateway,
    ModelAgent,
    Observation,
    OracleAgent,
    RecordingGateway,
    ReplayGateway,
    SamplingParams,
    flaw_role,
    oracle_strategy,
    private_bio,
)
from ultimatum.engine import Decision, GameConfig
from ultimatum.strategy import Personality, Role
from ultimatum.transcripts import extract_decision_reply, extract_offer_reply

CONFIG = GameConfig()


class TestProfiles:
    def test_private_bio_states_the_personality(self):
        agent = ModelAgent(Role.PROPOSER, Personality.GREEDY, CONFIG, ScriptedGateway([]), "m")
        assert private_bio(Role.PROPOSER, Personality.GREEDY) == "Proposer is greedy."
        # A blank public bio line, then the private bio on its own line.
        assert agent.messages[0]["content"].startswith(
            "You are Proposer, a participant in a negotiation experiment.\nProposer is greedy.\n"
        )

    def test_directives_do_not_leak_the_opponent(self):
        agent = ModelAgent(Role.RECEIVER, Personality.FAIR, CONFIG, ScriptedGateway([]), "m")
        directives = agent.messages[0]["content"]
        assert "Receiver is fair." in directives
        assert "Proposer is" not in directives


class TestOracleStrategies:
    def test_flaws_are_role_specific(self):
        with pytest.raises(ValueError):
            oracle_strategy(Role.RECEIVER, Personality.FAIR, CONFIG, flaw=Flaw.INCOMPLETE)
        with pytest.raises(ValueError):
            oracle_strategy(Role.PROPOSER, Personality.FAIR, CONFIG, flaw=Flaw.INCONSISTENT_THRESHOLD)
        with pytest.raises(ValueError):
            oracle_strategy(Role.RECEIVER, Personality.FAIR, CONFIG, flaw=Flaw.DEVIATOR)

    def test_flaw_role_mapping(self):
        assert flaw_role(Flaw.INCOMPLETE) is Role.PROPOSER
        assert flaw_role(Flaw.DEVIATOR) is Role.PROPOSER
        assert flaw_role(Flaw.INCONSISTENT_THRESHOLD) is Role.RECEIVER

    def test_incomplete_text_omits_the_accept_branch(self):
        raw, parsed = oracle_strategy(Role.PROPOSER, Personality.GREEDY, CONFIG, flaw=Flaw.INCOMPLETE)
        assert parsed.on_accept is None
        assert parsed.on_reject is not None
        assert parsed.cutoff is not None
        assert "accepted" not in raw

    def test_inconsistent_threshold_swaps_personalities(self):
        _, fair_swapped = oracle_strategy(
            Role.RECEIVER, Personality.FAIR, CONFIG, flaw=Flaw.INCONSISTENT_THRESHOLD
        )
        _, greedy_clean = oracle_strategy(Role.RECEIVER, Personality.GREEDY, CONFIG)
        assert fair_swapped.threshold_for(1) == greedy_clean.threshold_for(1)


class TestOracleAgents:
    def play(self, proposer, receiver, rounds=5, pot=100):
        from ultimatum import engine

        state = engine.new_game(GameConfig(pot=pot, rounds=rounds))
        offers, decisions = [], []
        while not state.finished:
            obs = Observation(
                role=Role.PROPOSER,
                round=state.round_index,
                total_rounds=rounds,
                pot=pot,
                history=state.history,
            )
            offer = extract_offer_reply(proposer.act(obs))
            state = engine.submit_offer(state, offer)
            obs = Observation(
                role=Role.RECEIVER,
                round=state.round_index,
                total_rounds=rounds,
                pot=pot,
                history=state.history,
                pending_offer=offer,
            )
            decision = extract_decision_reply(receiver.act(obs))
            state, outcome = engine.submit_decision(state, decision)
            offers.append(outcome.offer)
            decisions.append(outcome.decision)
        return offers, decisions

    def test_clean_fair_pair_settles_at_even_split(self):
        offers, decisions = self.play(
            OracleAgent(Role.PROPOSER, Personality.FAIR),
            OracleAgent(Role.RECEIVER, Personality.FAIR),
        )
        assert offers == [50, 50, 50, 50, 50]
        assert decisions == [Decision.ACCEPT] * 5

    def test_clean_greedy_pair_climbs_to_forty(self):
        offers, decisions = self.play(
            OracleAgent(Role.PROPOSER, Personality.GREEDY),
            OracleAgent(Role.RECEIVER, Personality.GREEDY),
        )
        assert offers == [20, 25, 30, 35, 40]
        assert decisions == [REJ, REJ, REJ, REJ, ACC]

    def test_deviator_jumps_at_the_deviation_round(self):
        offers, _ = self.play(
            OracleAgent(Role.PROPOSER, Personality.FAIR, flaw=Flaw.DEVIATOR),
            OracleAgent(Role.RECEIVER, Personality.FAIR),
        )
        assert DEVIATION_ROUND == 3
        assert offers[2] == offers[1] + 20  # a fifth of the 100-cent pot

    def test_replies_use_the_standard_markers(self):
        proposer = OracleAgent(Role.PROPOSER, Personality.FAIR)
        obs = Observation(role=Role.PROPOSER, round=1, total_rounds=5, pot=100)
        assert proposer.act(obs) == "OFFER: $0.50"
        assert proposer.create_strategy().startswith("STRATEGY: ")


class ScriptedGateway(Gateway):
    def __init__(self, replies):
        super().__init__()
        self.replies = list(replies)
        self.seen = []

    def _complete(self, model, messages, params):
        self.seen.append([dict(m) for m in messages])
        return self.replies.pop(0)


class TestModelAgent:
    def test_conversation_accumulates_in_order(self):
        gateway = ScriptedGateway(["STRATEGY: even splits only.", "OFFER: $0.50"])
        agent = ModelAgent(Role.PROPOSER, Personality.FAIR, CONFIG, gateway, "test-model")
        strategy = agent.create_strategy()
        assert strategy == "STRATEGY: even splits only."
        obs = Observation(role=Role.PROPOSER, round=1, total_rounds=5, pot=100)
        assert agent.act(obs) == "OFFER: $0.50"

        roles = [m["role"] for m in agent.messages]
        assert roles == ["system", "user", "assistant", "user", "assistant"]
        assert private_bio(Role.PROPOSER, Personality.FAIR) in agent.messages[0]["content"]
        # The gateway always sees the full conversation so far.
        assert len(gateway.seen[1]) == 4

    def test_received_messages_become_user_turns(self):
        gateway = ScriptedGateway(["STRATEGY: hold firm."])
        agent = ModelAgent(Role.RECEIVER, Personality.GREEDY, CONFIG, gateway, "test-model")
        agent.create_strategy()
        agent.receive("Round 1 result: the offer of $0.20 was rejected.")
        assert agent.messages[-1]["role"] == "user"
        assert "rejected" in agent.messages[-1]["content"]

    def test_prompt_log_labels_each_exchange(self):
        gateway = ScriptedGateway(["STRATEGY: even splits.", "OFFER: $0.50"])
        agent = ModelAgent(Role.PROPOSER, Personality.FAIR, CONFIG, gateway, "test-model")
        agent.create_strategy()
        agent.act(Observation(role=Role.PROPOSER, round=1, total_rounds=5, pot=100))
        labels = [label for label, _ in agent.prompt_log]
        assert labels == ["system", "create_strategy", "request_offer"]


class FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def ok_response(content="hello"):
    return FakeResponse(200, {"choices": [{"message": {"content": content}}]})


MESSAGES = [{"role": "user", "content": "hi"}]
PARAMS = SamplingParams()


class TestHttpGateway:
    def test_success_returns_the_completion(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-test")
        session = FakeSession([ok_response("well met")])
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=lambda s: None)
        assert gateway.complete("m", MESSAGES, PARAMS) == "well met"
        call = session.calls[0]
        assert call["headers"]["Authorization"] == "Bearer sk-test"
        assert call["json"]["model"] == "m"
        assert call["json"]["temperature"] == 0.5

    def test_missing_key_sends_no_auth_header(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        session = FakeSession([ok_response()])
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=lambda s: None)
        gateway.complete("m", MESSAGES, PARAMS)
        assert "Authorization" not in session.calls[0]["headers"]

    def test_retries_transient_failures_with_backoff(self):
        sleeps = []
        session = FakeSession(
            [
                FakeResponse(500),
                requests.ConnectionError("boom"),
                FakeResponse(429),
                ok_response("finally"),
            ]
        )
        gateway = HttpGateway(
            "http://example.invalid/v1", session=session, max_retries=3, backoff=1.0,
            sleep=sleeps.append,
        )
        assert gateway.complete("m", MESSAGES, PARAMS) == "finally"
        assert gateway.retries == 3
        assert sleeps == [1.0, 2.0, 4.0]

    def test_gives_up_after_max_retries(self):
        session = FakeSession([FakeResponse(500)] * 3)
        gateway = HttpGateway(
            "http://example.invalid/v1", session=session, max_retries=2, sleep=lambda s: None
        )
        with pytest.raises(GatewayError):
            gateway.complete("m", MESSAGES, PARAMS)

    def test_client_errors_do_not_retry(self):
        session = FakeSession([FakeResponse(401, text="bad key")])
        gateway = HttpGateway(
            "http://example.invalid/v1", session=session, max_retries=3, sleep=lambda s: None
        )
        with pytest.raises(GatewayError):
            gateway.complete("m", MESSAGES, PARAMS)
        assert len(session.calls) == 1
        assert gateway.retries == 0

    def test_malformed_body_is_an_error(self):
        session = FakeSession([FakeResponse(200, {"unexpected": True})])
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=lambda s: None)
        with pytest.raises(GatewayError):
            gateway.complete("m", MESSAGES, PARAMS)

    def test_null_content_is_an_error(self):
        session = FakeSession([FakeResponse(200, {"choices": [{"message": {"content": None}}]})])
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=lambda s: None)
        with pytest.raises(GatewayError, match="NoneType"):
            gateway.complete("m", MESSAGES, PARAMS)

    def test_round_trip_against_a_real_socket(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "sk-local")
        seen = {}

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                seen["body"] = json.loads(self.rfile.read(length))
                seen["auth"] = self.headers.get("Authorization")
                body = json.dumps(
                    {"choices": [{"message": {"content": "DECISION: accept"}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        gateway = HttpGateway(f"http://127.0.0.1:{server.server_address[1]}/v1/chat")
        try:
            reply = gateway.complete("live-model", MESSAGES, PARAMS)
        finally:
            gateway.session.close()
            server.shutdown()
            thread.join()
            server.server_close()
        assert reply == "DECISION: accept"
        assert seen["auth"] == "Bearer sk-local"
        assert seen["body"]["messages"] == MESSAGES


class TestRecordAndReplay:
    def test_replay_round_trip(self, tmp_path):
        tape = tmp_path / "tape.jsonl"
        inner = ScriptedGateway(["one", "two"])
        recorder = RecordingGateway(inner, tape)
        m1 = [{"role": "user", "content": "first"}]
        m2 = [{"role": "user", "content": "second"}]
        assert recorder.complete("m", m1, PARAMS) == "one"
        assert recorder.complete("m", m2, PARAMS) == "two"

        replay = ReplayGateway(tape)
        # Order does not matter: requests are matched by content.
        assert replay.complete("m", m2, PARAMS) == "two"
        assert replay.complete("m", m1, PARAMS) == "one"

    def test_replay_refuses_unknown_requests(self, tmp_path):
        tape = tmp_path / "tape.jsonl"
        RecordingGateway(ScriptedGateway(["one"]), tape).complete(
            "m", [{"role": "user", "content": "known"}], PARAMS
        )
        replay = ReplayGateway(tape)
        with pytest.raises(GatewayError):
            replay.complete("m", [{"role": "user", "content": "unknown"}], PARAMS)

    def test_usage_counters(self):
        gateway = ScriptedGateway(["a", "b"])
        gateway.complete("m", MESSAGES, PARAMS)
        gateway.complete("m", MESSAGES, PARAMS)
        assert gateway.requests == 2
