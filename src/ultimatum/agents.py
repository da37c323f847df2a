"""Players and the model gateways behind them.

Two kinds of player implement the same small interface (create a strategy,
act on the engine's game state, hear announcements):

* OracleAgent - deterministic scripted players with known-good policies,
  optionally carrying one planted flaw. Oracles exercise the entire
  pipeline offline and give grading tests a ground truth.
* ModelAgent - a player backed by a chat-completion endpoint, built from
  its role, personality and game. Its personality line (`private_bio`)
  goes only into its own system prompt and never into anything shown to
  the opponent.

Gateways speak the chat-completion wire protocol: a JSON POST carrying the
model id, ordered role-tagged messages, and sampling parameters, answered
by choice text. A replay gateway serves recorded request/response pairs
from disk so whole experiments rerun offline and bit-identically.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from . import prompts
from .engine import GameConfig, GameState, format_money
from .strategy import (
    AdjustKind,
    AdjustRule,
    CutoffRule,
    FinalRoundRule,
    Personality,
    PrescribedDecision,
    PrescribedOffer,
    ProposerStrategy,
    ReceiverStrategy,
    Role,
    StrategySpec,
    bands_for,
    prescribed_action,
)

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "ULTIMATUM_API_KEY"
TIMEOUT_S = 60.0
MAX_RETRIES = 3


class GatewayError(Exception):
    """The model endpoint could not produce a usable completion."""


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.5
    top_p: float = 0.5
    frequency_penalty: float = 0.0
    presence_penalty: float = 0.0

    @cached_property
    def _reprs(self) -> tuple[str, ...]:
        """The repr of each value, in field order, as replay keys them (see
        _request_key): computed once per object, when it is first keyed."""
        return tuple([repr(getattr(self, name)) for name in _SAMPLING_FIELDS])


_DEFAULT_PLANS = {
    role: f"Create a strategy for playing the ultimatum game as the {role.value}." for role in Role
}
_PRIVATE_BIOS = {
    (role, personality): f"{role.value.capitalize()} is {personality.value}."
    for role in Role
    for personality in Personality
}


def default_plan(role: Role) -> str:
    """The planning instruction an agent starts from."""
    return _DEFAULT_PLANS[role]


def private_bio(role: Role, personality: Personality) -> str:
    """The one-sentence personality assignment kept in the player's own context."""
    return _PRIVATE_BIOS[role, personality]


# ---------------------------------------------------------------------------
# Gateways
# ---------------------------------------------------------------------------


class Gateway:
    """Base gateway: counts usage, subclasses implement _complete."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.retries = 0

    def complete(self, model: str, messages: list[tuple[str, str]], params: SamplingParams) -> str:
        """Answer one chat request.

        Each message is a (role, content) tuple of two strings, as ModelAgent
        and run_single_model send them. Replay keys a request on those pairs
        (see ReplayGateway); only _request_payload builds the wire's dicts.
        """
        with self._lock:
            self.requests += 1
        return self._complete(model, messages, params)

    def _complete(self, model: str, messages: list[tuple[str, str]], params: SamplingParams) -> str:
        raise NotImplementedError


def _request_payload(model: str, messages: list[tuple[str, str]], params: SamplingParams) -> dict:
    """The JSON body of a chat request, each (role, content) pair sent as a
    {"role", "content"} dict. Raises TypeError naming the index of a message
    that is not a 2-tuple (a dict would unpack into its keys)."""
    for i, m in enumerate(messages):
        if type(m) is not tuple or len(m) != 2:
            raise TypeError(f"message {i} is a {type(m).__name__}, not a (role, content) tuple")
    return {
        "model": model,
        "messages": [{"role": role, "content": content} for role, content in messages],
        "temperature": params.temperature,
        "top_p": params.top_p,
        "frequency_penalty": params.frequency_penalty,
        "presence_penalty": params.presence_penalty,
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


_SAMPLING_FIELDS = tuple(f.name for f in fields(SamplingParams))


def _request_key(model: str, messages: list[tuple[str, str]], params: SamplingParams) -> tuple:
    """The value replay looks a request up by: (model, repr of each sampling
    value) and the (role, content) pairs as Gateway.complete takes them.
    Two requests have equal keys exactly when their canonical JSON is
    equal; repr keeps 1 and 1.0, and 0.0 and -0.0, apart as JSON does."""
    return (model, *params._reprs), tuple(messages)


def _request_digest(model: str, messages: list[tuple[str, str]], params: SamplingParams) -> str:
    """The SHA-256 of _request_payload(model, messages, params) as canonical JSON."""
    canonical = _canonical(_request_payload(model, messages, params))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _retry_after(value: str | None) -> float:
    """A Retry-After header's delay in seconds, capped at TIMEOUT_S; 0 when
    the header is absent or is not a number of seconds (an HTTP date)."""
    if value is None or not re.fullmatch(r"[0-9]+(\.[0-9]+)?", value.strip()):
        return 0.0
    return min(float(value), TIMEOUT_S)


class HttpGateway(Gateway):
    """Chat-completion endpoint over HTTP POST.

    Retries transient failures (connection errors, timeouts, 429, 5xx)
    up to MAX_RETRIES times with exponential backoff; a request that
    cannot be sent as given (a malformed URL or header) fails at once. A
    429 whose Retry-After header gives a number of seconds waits that long
    instead when it is longer than the backoff step, for at most
    TIMEOUT_S; an HTTP date there is ignored. Retrying is safe because the
    full conversation is resent verbatim each time. The API key is read
    from the API_KEY_ENV environment variable, never from files or
    arguments.

    A batch on more than one worker posts through one HttpGateway from up
    to 2 x its worker count threads at once, since each game asks both
    players for their strategies together (see experiment.run_batch); on
    one worker, from one thread. Anything that limits the requests in
    flight must count that many.
    """

    def __init__(
        self,
        endpoint: str,
        backoff: float = 1.0,
        session: requests.Session | None = None,
        sleep=time.sleep,
    ) -> None:
        super().__init__()
        self.endpoint = endpoint
        self.api_key = os.environ.get(API_KEY_ENV, "")
        self.backoff = backoff
        if session is None:
            # Imported here, so that a process that never builds a session
            # of its own (offline runs, grading, reports) never loads requests.
            import requests

            session = requests.Session()
        self.session = session
        self._sleep = sleep

    def _complete(self, model: str, messages: list[tuple[str, str]], params: SamplingParams) -> str:
        payload = _request_payload(model, messages, params)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        retry_after = 0.0
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                with self._lock:
                    self.retries += 1
                self._sleep(max(self.backoff * (2 ** (attempt - 1)), retry_after))
                retry_after = 0.0
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=TIMEOUT_S
                )
            except OSError as exc:
                # requests' exceptions are OSErrors, and only a loaded requests
                # can have raised one; any other error is not retried.
                loaded = sys.modules.get("requests")
                if loaded is None or not isinstance(exc, loaded.RequestException):
                    raise
                # A malformed URL or header (requests raises these as ValueError too) never heals.
                if isinstance(exc, ValueError):
                    raise GatewayError(f"bad request: {exc}") from exc
                last_error = exc
                continue
            if resp.status_code == 429:
                retry_after = _retry_after(resp.headers.get("Retry-After"))
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = GatewayError(f"HTTP {resp.status_code} from endpoint")
                continue
            if resp.status_code != 200:
                raise GatewayError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                content = resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise GatewayError(f"malformed completion response: {exc}") from exc
            if not isinstance(content, str):
                raise GatewayError(f"completion content is {type(content).__name__}, not text")
            return content
        raise GatewayError(f"request failed after {MAX_RETRIES} retries: {last_error}")


_REQUEST_FIELDS = {"model", "messages", *_SAMPLING_FIELDS}


def _recorded_key(request, shared: dict) -> tuple | None:
    """The _request_key of a recorded request, or None when it does not
    have the shape _request_payload writes. `shared` keeps one copy of each
    frame and each (role, content) pair across the lines of a recording."""
    if not isinstance(request, dict) or request.keys() != _REQUEST_FIELDS:
        return None
    model, messages = request["model"], request["messages"]
    values = tuple(request[name] for name in _SAMPLING_FIELDS)
    if (
        not isinstance(model, str)
        or not isinstance(messages, list)
        or any(type(v) not in (int, float) for v in values)
    ):
        return None
    pairs = []
    for m in messages:
        if type(m) is not dict or len(m) != 2:
            return None
        pair = (m.get("role"), m.get("content"))
        if type(pair[0]) is not str or type(pair[1]) is not str:
            return None
        pairs.append(shared.setdefault(pair, pair))
    frame = (model, *[repr(v) for v in values])
    return shared.setdefault(frame, frame), tuple(pairs)


def _recorded_entry(line: bytes, where: str, shared: dict) -> tuple[tuple, str] | None:
    """The (lookup key, response) of one recording line, None for a
    blank line. Raises ValueError starting with `where` for a line that is
    not a recorded exchange."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{where}: bad recording: {exc}") from None
    if not text.strip():
        return None
    try:
        record = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or too many digits
        raise ValueError(f"{where}: bad recording: {exc}") from None
    response = record.get("response") if isinstance(record, dict) else None
    if not isinstance(response, str) or "request" not in record:
        raise ValueError(f"{where}: bad recording: expected a request and a text response")
    key = _recorded_key(record["request"], shared)
    if key is None:
        raise ValueError(
            f"{where}: bad recording: the request does not have the shape of a chat "
            "request (model, role/content messages, sampling values)"
        )
    return key, response


class ReplayGateway(Gateway):
    """Serves recorded request/response pairs from a JSON-lines file.

    Requests are looked up by their value (`_request_key`): the model,
    the repr of each sampling value and the (role, content) pairs the
    request was sent with. Two requests have equal keys exactly when their
    canonical JSON (sorted keys, no spaces, non-ASCII escaped) is equal, so
    recordings replay as they did when requests were matched by a digest
    of that JSON, and replay is insensitive to record order and safe under
    concurrency. A recorded request keeps the wire form _request_payload
    writes: a string model, messages that are dicts of exactly a string
    role and content, and the four sampling values as numbers. An unknown
    request is an error naming the start of its canonical JSON's SHA-256:
    replay never invents a completion; a message that is not a
    (role, content) tuple is a TypeError.

    The file is read as UTF-8 lines, split at line feeds only. A line that
    repeats an earlier one is decoded and keyed once: only the SHA-256 of
    each distinct line is kept, with its key and response, and the keys
    share one copy of each frame and each message. When several
    lines record the same request, the last one wins. A line that is not a
    recorded exchange (bad UTF-8, bad JSON or the wrong shape) raises
    ValueError `<path>:<line>: bad recording: ...` at its first occurrence.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self._responses: dict[tuple, str] = {}
        shared: dict[tuple, tuple] = {}
        entries: dict[bytes, tuple[tuple, str] | None] = {}
        with self.path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                line_digest = hashlib.sha256(line).digest()
                if line_digest not in entries:
                    entries[line_digest] = _recorded_entry(line, f"{path}:{lineno}", shared)
                entry = entries[line_digest]
                if entry is not None:
                    self._responses[entry[0]] = entry[1]

    def _complete(self, model: str, messages: list[tuple[str, str]], params: SamplingParams) -> str:
        try:
            return self._responses[_request_key(model, messages, params)]
        except KeyError:
            digest = _request_digest(model, messages, params)
            raise GatewayError(
                f"no recorded response for request {digest[:12]}... in {self.path.name}"
            ) from None


class RecordingGateway(Gateway):
    """Wraps another gateway and records every exchange for later replay."""

    def __init__(self, inner: Gateway, path: str | Path) -> None:
        super().__init__()
        self.inner = inner
        self.path = Path(path)

    def _complete(self, model: str, messages: list[tuple[str, str]], params: SamplingParams) -> str:
        request = _request_payload(model, messages, params)
        response = self.inner.complete(model, messages, params)
        record = {"request": request, "response": response}
        with self._lock:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return response


# ---------------------------------------------------------------------------
# The agent interface
# ---------------------------------------------------------------------------


class Agent:
    """One player: strategy creation, per-round actions, announcements."""

    role: Role
    personality: Personality

    def create_strategy(self) -> str:
        """Produce the strategy reply (raw text)."""
        raise NotImplementedError

    def act(self, state: GameState) -> str:
        """Produce the action reply (raw text) for the game as it stands:
        the round, the public history and, for the receiver, the pending
        offer."""
        raise NotImplementedError

    def receive(self, message: str, label: str = "announcement") -> None:
        """Hear a message from the moderator; `label` names its kind
        ("announcement" for a round outcome, "correction" for a re-prompt)."""


# ---------------------------------------------------------------------------
# Scripted oracles
# ---------------------------------------------------------------------------


class Flaw(enum.Enum):
    """Planted defects with known grading consequences.

    INCOMPLETE (proposer): the declared strategy omits the accept branch;
    play quietly keeps the offer unchanged after acceptances, so the only
    error is the strategy gap (none in a one-round game, which never
    reaches the accept branch). INCONSISTENT_THRESHOLD (receiver): the
    declared threshold sits outside the personality's band and play
    follows it faithfully, so again the error lives in the strategy.
    DEVIATOR (proposer): the strategy is sound but the round-3 offer
    departs from it by a fifth of the pot, a pure gameplay error.
    """

    INCOMPLETE = "incomplete"
    INCONSISTENT_THRESHOLD = "inconsistent_threshold"
    DEVIATOR = "deviator"


DEVIATION_ROUND = 3

_FLAW_ROLES = {
    Flaw.INCOMPLETE: Role.PROPOSER,
    Flaw.INCONSISTENT_THRESHOLD: Role.RECEIVER,
    Flaw.DEVIATOR: Role.PROPOSER,
}


def flaw_role(flaw: Flaw) -> Role:
    """Which player a flaw is planted on."""
    return _FLAW_ROLES[flaw]


def oracle_strategy(
    role: Role,
    personality: Personality,
    config: GameConfig,
    flaw: Flaw | None = None,
) -> tuple[str, ProposerStrategy | ReceiverStrategy]:
    """The oracle's declared strategy: raw text plus its structured form.

    The text is written in plain sentences so the same strategy extraction
    that handles model output must recover exactly the structured form.
    """
    if flaw is not None and flaw_role(flaw) is not role:
        raise ValueError(f"flaw {flaw.value} applies to the {flaw_role(flaw).value}")
    rounds = config.rounds
    bands = bands_for(config.pot)
    if role is Role.PROPOSER:
        opening = bands.fair_open if personality is Personality.FAIR else bands.greedy_open
        step = bands.oracle_step
        motive = (
            "an even split" if personality is Personality.FAIR else "keeping most of the pot for myself"
        )
        if flaw is Flaw.INCOMPLETE:
            text = (
                f"I will start by offering {format_money(opening)}, {motive}. "
                f"If the offer is rejected, I will increase the offer by {format_money(step)} "
                "in the next round. There is a cut-off point past which it is no longer "
                "worth increasing the offer."
            )
            return text, ProposerStrategy(
                initial_offer=opening,
                on_accept=None,
                on_reject=AdjustRule(AdjustKind.INCREASE_BY, step),
                cutoff=CutoffRule(limit=None),
            )
        text = (
            f"I will offer {format_money(opening)} in the first round, {motive}. "
            "If an offer is accepted, I will keep the offer the same in the next round. "
            f"If an offer is rejected, I will increase the offer by {format_money(step)} "
            "in the next round."
        )
        return text, ProposerStrategy(
            initial_offer=opening,
            on_accept=AdjustRule(AdjustKind.KEEP),
            on_reject=AdjustRule(AdjustKind.INCREASE_BY, step),
        )

    # The planted inconsistent threshold is the other personality's.
    plays_fair = (personality is Personality.FAIR) != (flaw is Flaw.INCONSISTENT_THRESHOLD)
    threshold = bands.fair_threshold[0] if plays_fair else bands.greedy_hold
    if rounds > 1:
        text = (
            f"I will only accept offers of at least {format_money(threshold)} in rounds 1 "
            f"through {rounds - 1}. In the final round, I will accept any non-zero offer "
            "rather than walk away with nothing."
        )
        round_thresholds = {r: threshold for r in range(1, rounds)}
    else:
        text = (
            f"I will only accept offers of at least {format_money(threshold)}. "
            "In the final round, I will accept any non-zero offer rather than walk away with nothing."
        )
        round_thresholds = {}
    return text, ReceiverStrategy(
        threshold=threshold if rounds == 1 else None,
        round_thresholds=round_thresholds,
        final_round_rule=FinalRoundRule.ACCEPT_ANY_NONZERO,
    )


class OracleAgent(Agent):
    """Deterministic scripted player.

    Clean oracles play exactly what their declared strategy prescribes.
    Flawed oracles declare a defective strategy (or deviate from a sound
    one) per their Flaw, with fully deterministic behavior either way.
    """

    def __init__(
        self,
        role: Role,
        personality: Personality,
        config: GameConfig | None = None,
        flaw: Flaw | None = None,
    ) -> None:
        self.role = role
        self.personality = personality
        self.config = config if config is not None else GameConfig()
        self.flaw = flaw
        raw, parsed = oracle_strategy(role, personality, self.config, flaw)
        self.declared = StrategySpec(role, raw, parsed)
        if flaw is Flaw.INCOMPLETE:
            assert isinstance(parsed, ProposerStrategy)
            behavior = ProposerStrategy(
                initial_offer=parsed.initial_offer,
                on_accept=AdjustRule(AdjustKind.KEEP),
                on_reject=parsed.on_reject,
                cutoff=parsed.cutoff,
            )
            self._behavior = StrategySpec(role, raw, behavior)
        else:
            self._behavior = self.declared

    def create_strategy(self) -> str:
        return f"STRATEGY: {self.declared.raw_text}"

    def act(self, state: GameState) -> str:
        prescribed = prescribed_action(
            self._behavior,
            self.config,
            state.history,
            state.round_index,
            pending_offer=state.pending_offer,
        )
        assert prescribed is not None, "oracle behaviour plans cover every state"
        if isinstance(prescribed, PrescribedOffer):
            offer = prescribed.lo
            if self.flaw is Flaw.DEVIATOR and state.round_index == DEVIATION_ROUND:
                offer = min(self.config.pot, offer + bands_for(self.config.pot).deviation)
            return f"OFFER: {format_money(offer)}"
        assert isinstance(prescribed, PrescribedDecision)
        return f"DECISION: {prescribed.decision.value}"


# ---------------------------------------------------------------------------
# Model-backed agents
# ---------------------------------------------------------------------------


class ModelAgent(Agent):
    """A player driven through a chat gateway.

    Keeps its own ordered conversation (`messages`) as (role, content)
    pairs; every completion resends the whole conversation, so gateway
    retries cannot reorder anything. `prompt_log` holds (label, text) of
    every message the player was sent, in order. The system prompt,
    rendered from the role, personality and game, is the only place the
    private bio appears.
    """

    def __init__(
        self,
        role: Role,
        personality: Personality,
        game: GameConfig,
        gateway: Gateway,
        model: str,
        params: SamplingParams | None = None,
    ) -> None:
        self.role = role
        self.personality = personality
        self.game = game
        self.gateway = gateway
        self.model = model
        self.params = params if params is not None else SamplingParams()
        system = prompts.render(
            "agent_system",
            name=role.value.capitalize(),
            private_bio=private_bio(role, personality),
            rounds_word=prompts.rounds_word(game.rounds),
            pot_text=format_money(game.pot),
        )
        self.messages: list[tuple[str, str]] = [("system", system)]
        self.prompt_log: list[tuple[str, str]] = [("system", system)]

    def _send(self, label: str, content: str) -> None:
        self.messages.append(("user", content))
        self.prompt_log.append((label, content))

    def _ask(self, label: str, content: str) -> str:
        self._send(label, content)
        reply = self.gateway.complete(self.model, self.messages, self.params)
        self.messages.append(("assistant", reply))
        return reply

    def create_strategy(self) -> str:
        content = prompts.render(
            "create_strategy",
            initial_plan=default_plan(self.role),
            rounds_word=prompts.rounds_word(self.game.rounds),
        )
        return self._ask("create_strategy", content)

    def act(self, state: GameState) -> str:
        if self.role is Role.PROPOSER:
            label, slots = "request_offer", {}
        else:
            label, slots = "request_decision", {"offer_text": format_money(state.pending_offer)}
        content = prompts.render(label, round=state.round_index, rounds=self.game.rounds, **slots)
        return self._ask(label, content)

    def receive(self, message: str, label: str = "announcement") -> None:
        self._send(label, message)
