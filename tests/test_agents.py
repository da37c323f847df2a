import hashlib
import http.server
import json
import threading
from dataclasses import astuple

import pytest
import requests
from hypothesis import example, given
from hypothesis import strategies as st
from requests.structures import CaseInsensitiveDict

from helpers import ACC, REJ
from ultimatum import engine
from ultimatum.agents import (
    API_KEY_ENV,
    DEVIATION_ROUND,
    MAX_RETRIES,
    TIMEOUT_S,
    Flaw,
    GatewayError,
    Gateway,
    HttpGateway,
    ModelAgent,
    OracleAgent,
    RecordingGateway,
    ReplayGateway,
    SamplingParams,
    _recorded_key,
    _request_key,
    _request_payload,
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
        # The private bio sits on its own line after the opening sentence.
        assert agent.messages[0][1].startswith(
            "You are Proposer, a participant in a negotiation experiment.\nProposer is greedy.\n"
        )

    def test_directives_do_not_leak_the_opponent(self):
        agent = ModelAgent(Role.RECEIVER, Personality.FAIR, CONFIG, ScriptedGateway([]), "m")
        directives = agent.messages[0][1]
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
        state = engine.new_game(GameConfig(pot=pot, rounds=rounds))
        offers, decisions = [], []
        while not state.finished:
            state = engine.submit_offer(state, extract_offer_reply(proposer.act(state)))
            decision = extract_decision_reply(receiver.act(state))
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
        assert proposer.act(engine.new_game(CONFIG)) == "OFFER: $0.50"
        assert proposer.create_strategy().startswith("STRATEGY: ")


class ScriptedGateway(Gateway):
    def __init__(self, replies):
        super().__init__()
        self.replies = list(replies)
        self.seen = []

    def _complete(self, model, messages, params):
        self.seen.append(list(messages))
        return self.replies.pop(0)


class TestModelAgent:
    def test_conversation_accumulates_in_order(self):
        gateway = ScriptedGateway(["STRATEGY: even splits only.", "OFFER: $0.50"])
        agent = ModelAgent(Role.PROPOSER, Personality.FAIR, CONFIG, gateway, "test-model")
        strategy = agent.create_strategy()
        assert strategy == "STRATEGY: even splits only."
        assert agent.act(engine.new_game(CONFIG)) == "OFFER: $0.50"

        roles = [role for role, _ in agent.messages]
        assert roles == ["system", "user", "assistant", "user", "assistant"]
        assert private_bio(Role.PROPOSER, Personality.FAIR) in agent.messages[0][1]
        # The gateway always sees the full conversation so far.
        assert len(gateway.seen[1]) == 4

    def test_received_messages_become_user_turns(self):
        gateway = ScriptedGateway(["STRATEGY: hold firm."])
        agent = ModelAgent(Role.RECEIVER, Personality.GREEDY, CONFIG, gateway, "test-model")
        agent.create_strategy()
        agent.receive("Round 1 result: the offer of $0.20 was rejected.")
        assert agent.messages[-1][0] == "user"
        assert "rejected" in agent.messages[-1][1]

    def test_prompt_log_labels_each_exchange(self):
        gateway = ScriptedGateway(["STRATEGY: even splits.", "OFFER: $0.50"])
        agent = ModelAgent(Role.PROPOSER, Personality.FAIR, CONFIG, gateway, "test-model")
        agent.create_strategy()
        agent.act(engine.new_game(CONFIG))
        labels = [label for label, _ in agent.prompt_log]
        assert labels == ["system", "create_strategy", "request_offer"]

    def test_a_player_hands_the_gateway_its_conversation(self):
        class Keeper(ScriptedGateway):
            def _complete(self, model, messages, params):
                self.seen.append(messages)
                return self.replies.pop(0)

        gateway = Keeper(["STRATEGY: even splits."])
        agent = ModelAgent(Role.PROPOSER, Personality.FAIR, CONFIG, gateway, "test-model")
        agent.create_strategy()
        assert gateway.seen[0] is agent.messages
        agent.receive("Round 1 result: accepted.")
        assert agent.messages[-1] == ("user", "Round 1 result: accepted.")
        assert agent.prompt_log[-1] == ("announcement", "Round 1 result: accepted.")


class FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = CaseInsensitiveDict(headers or {})

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


MESSAGES = [("user", "hi")]
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
            "http://example.invalid/v1", session=session, backoff=1.0, sleep=sleeps.append
        )
        assert gateway.complete("m", MESSAGES, PARAMS) == "finally"
        assert gateway.retries == 3
        assert sleeps == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "retry_after, slept",
        [
            ("7", 7.0),  # longer than the 1 s backoff step
            (" 2.5 ", 2.5),
            ("0.5", 1.0),  # shorter: the backoff step still applies
            ("3600", TIMEOUT_S),
            ("Wed, 21 Oct 2015 07:28:00 GMT", 1.0),  # an HTTP date falls back to the backoff
            ("soon", 1.0),
            ("-5", 1.0),
            ("", 1.0),
            (None, 1.0),
        ],
    )
    def test_a_429_waits_for_its_retry_after_seconds(self, retry_after, slept):
        headers = {} if retry_after is None else {"retry-after": retry_after}
        sleeps = []
        session = FakeSession([FakeResponse(429, headers=headers), ok_response("waited")])
        gateway = HttpGateway(
            "http://example.invalid/v1", session=session, backoff=1.0, sleep=sleeps.append
        )
        assert gateway.complete("m", MESSAGES, PARAMS) == "waited"
        assert sleeps == [slept]

    def test_retry_after_sets_only_the_next_wait_and_only_on_429(self):
        sleeps = []
        session = FakeSession(
            [
                FakeResponse(429, headers={"Retry-After": "30"}),
                FakeResponse(503, headers={"Retry-After": "30"}),
                FakeResponse(429, headers={"Retry-After": "3"}),
                ok_response("finally"),
            ]
        )
        gateway = HttpGateway(
            "http://example.invalid/v1", session=session, backoff=1.0, sleep=sleeps.append
        )
        assert gateway.complete("m", MESSAGES, PARAMS) == "finally"
        assert sleeps == [30.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "error",
        [requests.ConnectionError("reset"), requests.Timeout("slow"), requests.ReadTimeout("slow")],
    )
    def test_connection_errors_and_timeouts_are_retried(self, error):
        sleeps = []
        session = FakeSession([error, ok_response("recovered")])
        gateway = HttpGateway(
            "http://example.invalid/v1", session=session, backoff=1.0, sleep=sleeps.append
        )
        assert gateway.complete("m", MESSAGES, PARAMS) == "recovered"
        assert sleeps == [1.0]

    @pytest.mark.parametrize(
        "error",
        [
            requests.exceptions.InvalidURL("no host"),
            requests.exceptions.MissingSchema("no scheme"),
            requests.exceptions.InvalidSchema("no adapter"),
            requests.exceptions.InvalidHeader("bad header"),
        ],
    )
    def test_a_request_that_cannot_be_sent_fails_at_once(self, error):
        sleeps = []
        session = FakeSession([error, ok_response("never read")])
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=sleeps.append)
        with pytest.raises(GatewayError, match="bad request"):
            gateway.complete("m", MESSAGES, PARAMS)
        assert (len(session.calls), gateway.retries, sleeps) == (1, 0, [])

    @pytest.mark.parametrize("error", [RuntimeError("session bug"), ConnectionResetError("reset")])
    def test_an_error_that_is_not_from_requests_fails_at_once(self, error):
        # Only requests' own errors are endpoint failures; a plain OSError is not one.
        sleeps = []
        session = FakeSession([error, ok_response("never read")])
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=sleeps.append)
        with pytest.raises(type(error)) as raised:
            gateway.complete("m", MESSAGES, PARAMS)
        assert raised.value is error
        assert (len(session.calls), gateway.retries, sleeps) == (1, 0, [])

    def test_a_gateway_given_no_session_builds_a_requests_session(self):
        gateway = HttpGateway("http://example.invalid/v1")
        with gateway.session:
            assert type(gateway.session) is requests.Session

    @pytest.mark.parametrize(
        "endpoint", ["localhost:8000/v1/chat/completions", "ftp://x/y", "http://", "5"]
    )
    def test_a_malformed_endpoint_fails_before_any_connection(self, endpoint):
        sleeps = []
        with requests.Session() as session:
            gateway = HttpGateway(endpoint, session=session, sleep=sleeps.append)
            with pytest.raises(GatewayError, match="bad request"):
                gateway.complete("m", MESSAGES, PARAMS)
        assert (gateway.retries, sleeps) == (0, [])

    def test_gives_up_after_max_retries(self):
        session = FakeSession([FakeResponse(500)] * (MAX_RETRIES + 1))
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=lambda s: None)
        with pytest.raises(GatewayError, match=f"after {MAX_RETRIES} retries"):
            gateway.complete("m", MESSAGES, PARAMS)
        assert len(session.calls) == MAX_RETRIES + 1

    def test_client_errors_do_not_retry(self):
        session = FakeSession([FakeResponse(401, text="bad key")])
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=lambda s: None)
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
        assert seen["body"]["messages"] == [{"role": "user", "content": "hi"}]


def definitional_key(model, messages, params):
    payload = _request_payload(model, messages, params)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# Text with the characters JSON escapes or a careless encoder mangles.
awkward_text = st.text(
    st.one_of(
        st.sampled_from(
            ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028", "\u2029", "\U0001f600"]
        ),
        st.characters(),
    ),
    max_size=30,
)
roles = st.sampled_from(["system", "user", "assistant"]) | awkward_text
messages_strategy = st.lists(
    st.tuples(roles, awkward_text),
    min_size=1,
    max_size=12,
)
model_names = st.sampled_from(['m"x"', '"messages":[]', 'gpt-"4"\\']) | awkward_text
sampling_values = (
    st.sampled_from([1, 0, -0.0, 0.0, 1.0, 5e-324, 1e-7, 1e16, 1.7976931348623157e308])
    | st.integers(-10, 10)
    | st.floats()
)
sampling_params = st.builds(
    SamplingParams,
    temperature=sampling_values,
    top_p=sampling_values,
    frequency_penalty=sampling_values,
    presence_penalty=sampling_values,
)


@st.composite
def nearby_requests(draw):
    """Two requests, the second the first after up to two edits: another
    model, a message's role or content flipped, a message added, or a
    sampling value spelled another way (1, 1.0 and True; 0.0 and -0.0).
    So the two often coincide, often differ in one role alone, and often
    differ only in how equal sampling values are spelled."""
    flip = {"m": "n", "n": "m", "user": "assistant", "assistant": "user", "a": "b", "b": "a"}
    respell = {repr(1): 1.0, repr(1.0): True, repr(True): 1, repr(0.0): -0.0, repr(-0.0): 0.0}
    pair = st.tuples(st.sampled_from(["user", "assistant"]), st.sampled_from(["a", "b"]))
    model = draw(st.sampled_from(["m", "n"]))
    messages = draw(st.lists(pair, min_size=1, max_size=3))
    sampling = draw(st.lists(st.sampled_from([1, 1.0, True, 0.0, -0.0]), min_size=4, max_size=4))
    first = (model, list(messages), list(sampling))
    edits = st.sampled_from(["model", "role", "content", "add", "value"])
    for edit in draw(st.lists(edits, max_size=2)):
        i = draw(st.integers(0, len(messages) - 1))
        if edit == "model":
            model = flip[model]
        elif edit == "role":
            messages[i] = (flip[messages[i][0]], messages[i][1])
        elif edit == "content":
            messages[i] = (messages[i][0], flip[messages[i][1]])
        elif edit == "add":
            messages.append(draw(pair))
        else:
            j = draw(st.integers(0, 3))
            sampling[j] = respell[repr(sampling[j])]
    return [(m, ms, SamplingParams(*vs)) for m, ms, vs in (first, (model, messages, sampling))]


class TestRequestKey:
    @given(pair=nearby_requests())
    def test_keys_are_equal_exactly_when_the_canonical_json_is(self, pair):
        same_json = definitional_key(*pair[0]) == definitional_key(*pair[1])
        live = [_request_key(*request) for request in pair]
        assert (live[0] == live[1]) == same_json
        # A recorded request keys as it was sent, unless a sampling value is
        # a bool, which no plan sends and a recording may not hold.
        shared = {}
        recorded = [
            _recorded_key(json.loads(json.dumps(_request_payload(*request))), shared)
            for request in pair
        ]
        for request, key, live_key in zip(pair, recorded, live):
            has_bool = any(type(v) is bool for v in astuple(request[2]))
            assert key == (None if has_bool else live_key)
        if None not in recorded:
            assert (recorded[0] == recorded[1]) == same_json

    @given(model=model_names, messages=messages_strategy, params=sampling_params)
    def test_an_awkward_request_keys_as_recorded(self, model, messages, params):
        recorded = json.loads(json.dumps(_request_payload(model, messages, params)))
        assert _recorded_key(recorded, {}) == _request_key(model, messages, params)


def reference_responses(path):
    """The recording loaded one line at a time, every line decoded and
    keyed, the last line for a key winning."""
    responses = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                responses[_recorded_key(record["request"], {})] = record["response"]
    return responses


def _exchange_line(record, ascii):
    """record as JSON, with non-ASCII characters escaped or not; a lone
    surrogate has no UTF-8 form, so a record holding one is escaped."""
    line = json.dumps(record, ensure_ascii=ascii)
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return json.dumps(record)
    return line


@st.composite
def recordings(draw):
    """A recording whose lines are drawn from a small pool, so lines repeat.
    The pool holds blank lines and exchanges of one or two requests, each
    request possibly spelled two ways and recorded with different
    responses."""
    payloads = draw(
        st.lists(
            st.builds(_request_payload, model_names, messages_strategy, sampling_params),
            min_size=1,
            max_size=2,
        )
    )
    exchange = st.builds(
        lambda request, response, ascii: _exchange_line(
            {"request": request, "response": response}, ascii
        ),
        st.sampled_from(payloads),
        st.sampled_from(["one", "two"]) | awkward_text,
        st.booleans(),
    )
    blank = st.sampled_from(["", " ", "\t", "\u3000"])
    pool = draw(st.lists(exchange | blank, min_size=1, max_size=5))
    lines = draw(st.lists(st.sampled_from(pool), max_size=12))
    return "".join(line + "\n" for line in lines)


# One request recorded twice with different responses, the first line
# repeated last: that line's response wins.
REPEATED_CONFLICT = "".join(
    json.dumps({"request": _request_payload("m", MESSAGES, PARAMS), "response": response}) + "\n"
    for response in ["one", "two", "one"]
)


class TestRecordAndReplay:
    @given(text=recordings())
    @example(text=REPEATED_CONFLICT)
    def test_each_distinct_line_is_loaded_as_a_line_by_line_loop_would(
        self, tmp_path_factory, text
    ):
        tape = tmp_path_factory.mktemp("memo") / "tape.jsonl"
        tape.write_text(text, encoding="utf-8")
        assert ReplayGateway(tape)._responses == reference_responses(tape)

    def test_replay_round_trip(self, tmp_path):
        tape = tmp_path / "tape.jsonl"
        inner = ScriptedGateway(["one", "two"])
        recorder = RecordingGateway(inner, tape)
        m1 = [("user", "first")]
        m2 = [("user", "second")]
        assert recorder.complete("m", m1, PARAMS) == "one"
        assert recorder.complete("m", m2, PARAMS) == "two"

        replay = ReplayGateway(tape)
        # Order does not matter: requests are matched by content.
        assert replay.complete("m", m2, PARAMS) == "two"
        assert replay.complete("m", m1, PARAMS) == "one"

    @pytest.mark.parametrize(
        "change",
        [
            {"model": 7},
            {"messages": "hi"},
            {"messages": [{"role": "user"}]},
            {"messages": [{"role": "user", "content": "hi", "name": "x"}]},
            {"messages": [{"role": "user", "content": 1}]},
            {"messages": [{"role": "user", "content": None}]},
            {"messages": [{"role": "user", "content": True}]},
            {"messages": [{"role": 1, "content": "hi"}]},
            {"messages": [{"content": "hi", "name": "x"}]},
            {"messages": [["user", "hi"]]},
            {"messages": [{"role": "user", "content": "hi"}, "hi"]},
            {"temperature": "0.5"},
            {"temperature": True},
            {"temperature": None},
            {"seed": 1},
        ],
        ids=lambda change: json.dumps(change),
    )
    def test_replay_refuses_requests_no_gateway_sends(self, tmp_path, change):
        tape = tmp_path / "tape.jsonl"
        RecordingGateway(ScriptedGateway(["one"]), tape).complete("m", MESSAGES, PARAMS)
        record = json.loads(tape.read_text(encoding="utf-8"))
        ReplayGateway(tape)  # the unchanged recording loads
        record["request"].update(change)
        tape.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2: bad recording: .*shape of a chat request"):
            ReplayGateway(tape)

    @pytest.mark.parametrize("bad", ["{bad", '{"n": ' + "7" * 5000 + "}"], ids=["bad-json", "too-many-digits"])
    def test_a_repeated_bad_line_is_reported_at_its_first_line(self, tmp_path, bad):
        tape = tmp_path / "tape.jsonl"
        RecordingGateway(ScriptedGateway(["one"]), tape).complete("m", MESSAGES, PARAMS)
        good = tape.read_text(encoding="utf-8")
        tape.write_text(good + bad + "\n" + good + bad + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"tape\.jsonl:2: bad recording: "):
            ReplayGateway(tape)

    @pytest.mark.parametrize("line", [b"\xff\xfe{}\n", b'{"response": "caf\xe9"}\n'])
    def test_a_line_that_is_not_utf8_is_reported_with_its_line(self, tmp_path, line):
        tape = tmp_path / "tape.jsonl"
        RecordingGateway(ScriptedGateway(["one"]), tape).complete("m", MESSAGES, PARAMS)
        tape.write_bytes(tape.read_bytes() + b"\n" + line)
        with pytest.raises(ValueError, match=r"tape\.jsonl:3: bad recording: 'utf-8' codec"):
            ReplayGateway(tape)

    def test_replay_refuses_unknown_requests(self, tmp_path):
        tape = tmp_path / "tape.jsonl"
        RecordingGateway(ScriptedGateway(["one"]), tape).complete("m", [("user", "known")], PARAMS)
        replay = ReplayGateway(tape)
        unknown = [("user", "unknown")]
        digest = definitional_key("m", unknown, PARAMS)
        cause = rf"^no recorded response for request {digest[:12]}\.\.\. in tape\.jsonl$"
        with pytest.raises(GatewayError, match=cause):
            replay.complete("m", unknown, PARAMS)

    @pytest.mark.parametrize("first, second", [(1, 1.0), (0.0, -0.0)])
    def test_equal_sampling_values_spelled_apart_replay_apart(self, tmp_path, first, second):
        tape = tmp_path / "tape.jsonl"
        recorder = RecordingGateway(ScriptedGateway(["one", "two"]), tape)
        recorder.complete("m", MESSAGES, SamplingParams(temperature=first))
        recorder.complete("m", MESSAGES, SamplingParams(temperature=second))
        replay = ReplayGateway(tape)
        assert replay.complete("m", MESSAGES, SamplingParams(temperature=second)) == "two"
        assert replay.complete("m", MESSAGES, SamplingParams(temperature=first)) == "one"

    def test_usage_counters(self):
        gateway = ScriptedGateway(["a", "b"])
        gateway.complete("m", MESSAGES, PARAMS)
        gateway.complete("m", MESSAGES, PARAMS)
        assert gateway.requests == 2


# Messages that are not (role, content) tuples: the wire's dict form, which
# would unpack into its two keys, a list pair and a triple.
NOT_PAIRS = [{"role": "user", "content": "hi"}, ["user", "hi"], ("user", "hi", "x")]


class TestOnlyPairsAreSent:
    @pytest.mark.parametrize("bad", NOT_PAIRS, ids=repr)
    def test_http_posts_nothing(self, bad):
        session = FakeSession([ok_response()])
        gateway = HttpGateway("http://example.invalid/v1", session=session, sleep=lambda s: None)
        with pytest.raises(TypeError, match=r"^message 1 is a .*, not a \(role, content\) tuple$"):
            gateway.complete("m", [*MESSAGES, bad], PARAMS)
        assert session.calls == []
        assert gateway.retries == 0

    @pytest.mark.parametrize("bad", NOT_PAIRS, ids=repr)
    def test_recording_writes_no_line(self, tmp_path, bad):
        tape = tmp_path / "tape.jsonl"
        recorder = RecordingGateway(ScriptedGateway(["one"]), tape)
        with pytest.raises(TypeError, match=r"^message 1 is a "):
            recorder.complete("m", [*MESSAGES, bad], PARAMS)
        assert not tape.exists()

    @pytest.mark.parametrize("bad", NOT_PAIRS, ids=repr)
    def test_replay_raises_a_type_error(self, tmp_path, bad):
        tape = tmp_path / "tape.jsonl"
        RecordingGateway(ScriptedGateway(["one"]), tape).complete("m", MESSAGES, PARAMS)
        replay = ReplayGateway(tape)
        assert replay.complete("m", MESSAGES, PARAMS) == "one"
        with pytest.raises(TypeError):
            replay.complete("m", [*MESSAGES, bad], PARAMS)
