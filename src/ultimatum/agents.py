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
import functools
import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path

import requests as _requests

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


def default_plan(role: Role) -> str:
    """The planning instruction an agent starts from."""
    return f"Create a strategy for playing the ultimatum game as the {role.value}."


def private_bio(role: Role, personality: Personality) -> str:
    """The one-sentence personality assignment kept in the player's own context."""
    return f"{role.value.capitalize()} is {personality.value}."


# ---------------------------------------------------------------------------
# Gateways
# ---------------------------------------------------------------------------


class Gateway:
    """Base gateway: counts usage, subclasses implement _complete."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.retries = 0

    def complete(self, model: str, messages: list[dict], params: SamplingParams) -> str:
        """Answer one chat request.

        Each message is a dict with exactly two string items, "role" and
        "content", as ModelAgent and run_single_model send them. Replay
        keys a request on that shape (see ReplayGateway).
        """
        with self._lock:
            self.requests += 1
        return self._complete(model, messages, params)

    def _complete(self, model: str, messages: list[dict], params: SamplingParams) -> str:
        raise NotImplementedError


def _request_payload(model: str, messages: list[dict], params: SamplingParams) -> dict:
    return {
        "model": model,
        "messages": messages,
        "temperature": params.temperature,
        "top_p": params.top_p,
        "frequency_penalty": params.frequency_penalty,
        "presence_penalty": params.presence_penalty,
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@functools.lru_cache(maxsize=64)
def _request_frame(model: str, params: SamplingParams, params_id: int) -> tuple[bytes, bytes]:
    """The canonical request's bytes before and after its messages.

    Keyed on the params object as well as its value: equal params can
    still encode differently (1 and 1.0, 0.0 and -0.0). The cache holds
    the object, so its id cannot be reused while the entry lives.
    """
    canonical = _canonical(_request_payload(model, [], params))
    # Quotes inside JSON strings are escaped, so this matches the key only.
    head, tail = canonical.split('"messages":[]', 1)
    return (head + '"messages":[').encode("utf-8"), ("]" + tail).encode("utf-8")


@functools.lru_cache(maxsize=4096)
def _message_bytes(role: str, content: str) -> bytes:
    return _canonical({"role": role, "content": content}).encode("utf-8")


class Conversation(list):
    """A model-backed player's messages: role/content dicts that only grow.

    A plain list to gateways and the wire payload. `append` is the way in
    and keeps each message's prompt label (None for the player's replies);
    the mutators that would rewrite a sent message raise TypeError, and
    messages are not edited in place. The conversation keeps the running
    SHA-256 of its canonical request for the (model, params) frame it was
    last asked about, so `digest` hashes only the messages added since.
    """

    # Slots keep the fresh conversation each recorded request is keyed by cheap.
    __slots__ = ("_labels", "_model", "_params", "_head", "_tail", "_sha", "_hashed")

    def __init__(self, messages=()) -> None:
        list.__init__(self, messages)
        self._labels: list[str | None] = [None] * len(self)
        # The frame last asked about, its text before the messages, and how
        # many messages the running hash has read.
        self._model = self._params = self._head = None
        self._hashed = 0

    def append(self, message: dict, label: str | None = None) -> None:
        list.append(self, message)
        self._labels.append(label)

    def extend(self, messages) -> None:
        for message in messages:
            self.append(message)

    def _grows_only(self, *args, **kwargs):
        raise TypeError("a Conversation only grows: use append")

    __setitem__ = __delitem__ = insert = pop = remove = clear = _grows_only
    sort = reverse = __iadd__ = __imul__ = _grows_only

    def labeled(self) -> list[tuple[str, str]]:
        """(label, content) of each labeled message, in order."""
        return [(label, m["content"]) for label, m in zip(self._labels, self) if label is not None]

    def digest(self, model: str, params: SamplingParams) -> str:
        """The SHA-256 of _request_payload(model, self, params) as canonical JSON."""
        if model is not self._model or params is not self._params:
            head, self._tail = _request_frame(model, params, id(params))
            self._model, self._params = model, params
            # The text before the messages is all the running hash has read of the frame.
            if head != self._head:
                self._head, self._sha, self._hashed = head, hashlib.sha256(head), 0
        sha, hashed = self._sha, self._hashed
        if hashed < len(self):
            if hashed:
                sha.update(b",")
            sha.update(b",".join([_message_bytes(m["role"], m["content"]) for m in self[hashed:]]))
            self._hashed = len(self)
        digest = sha.copy()
        digest.update(self._tail)
        return digest.hexdigest()


def _request_digest(model: str, messages: list[dict], params: SamplingParams) -> str:
    """The SHA-256 of _request_payload(model, messages, params) as canonical
    JSON, for messages of the shape Gateway.complete takes."""
    return Conversation(messages).digest(model, params)


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
    TIMEOUT_S; an HTTP date there is ignored. Retrying is safe because the full conversation is
    resent verbatim each time. The API key is read from the API_KEY_ENV
    environment variable, never from files or arguments.
    """

    def __init__(
        self,
        endpoint: str,
        backoff: float = 1.0,
        session: "_requests.Session | None" = None,
        sleep=time.sleep,
    ) -> None:
        super().__init__()
        self.endpoint = endpoint
        self.api_key = os.environ.get(API_KEY_ENV, "")
        self.backoff = backoff
        self.session = session if session is not None else _requests.Session()
        self._sleep = sleep

    def _complete(self, model: str, messages: list[dict], params: SamplingParams) -> str:
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
            except _requests.RequestException as exc:
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


_SAMPLING_FIELDS = tuple(f.name for f in fields(SamplingParams))
_REQUEST_FIELDS = {"model", "messages", *_SAMPLING_FIELDS}


def _recorded_digest(request, params_seen: dict) -> str | None:
    """The lookup digest of a recorded request, or None when it does not
    have the shape Gateway.complete sends. `params_seen` keeps one
    SamplingParams per spelling of the values (1 and 1.0 encode apart), so
    _request_frame's cache serves every line that shares them."""
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
    for m in messages:
        if (
            type(m) is not dict
            or len(m) != 2
            or type(m.get("role")) is not str
            or type(m.get("content")) is not str
        ):
            return None
    spelling = tuple(map(repr, values))
    if spelling not in params_seen:
        params_seen[spelling] = SamplingParams(*values)
    return _request_digest(model, messages, params_seen[spelling])


def _recorded_entry(line: bytes, where: str, params_seen: dict) -> tuple[str, str] | None:
    """The (lookup digest, response) of one recording line, None for a
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
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: bad recording: {exc}") from None
    response = record.get("response") if isinstance(record, dict) else None
    if not isinstance(response, str) or "request" not in record:
        raise ValueError(f"{where}: bad recording: expected a request and a text response")
    key = _recorded_digest(record["request"], params_seen)
    if key is None:
        raise ValueError(
            f"{where}: bad recording: the request does not have the shape of a chat "
            "request (model, role/content messages, sampling values)"
        )
    return key, response


class ReplayGateway(Gateway):
    """Serves recorded request/response pairs from a JSON-lines file.

    Requests are matched by a digest of their canonical JSON (sorted keys,
    no spaces, non-ASCII escaped), so replay is insensitive to record order
    and safe under concurrency. The digest is Conversation.digest: a
    player's Conversation keeps the running hash of its request, so a turn
    hashes only the messages added since the player's previous request,
    each from its cached canonical JSON. A plain message list (a
    single-model request) and each recorded request are hashed the same
    way over a fresh Conversation, so a recorded request must have the
    shape Gateway.complete sends: a string model, messages of exactly a
    string role and content, and the four sampling values as numbers.
    The digest is byte for byte the one the whole payload gives, so
    recordings made before it was built in pieces replay unchanged. An
    unknown request is an error: replay never invents a completion.

    The file is read as UTF-8 lines, split at line feeds only. A line that
    repeats an earlier one is decoded and keyed once: only the SHA-256 of
    each distinct line is kept, with its key and response. When several
    lines record the same request, the last one wins. A line that is not a
    recorded exchange (bad UTF-8, bad JSON or the wrong shape) raises
    ValueError `<path>:<line>: bad recording: ...` at its first occurrence.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self._responses: dict[str, str] = {}
        params_seen: dict[tuple, SamplingParams] = {}
        entries: dict[bytes, tuple[str, str] | None] = {}
        with self.path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                line_digest = hashlib.sha256(line).digest()
                if line_digest not in entries:
                    entries[line_digest] = _recorded_entry(line, f"{path}:{lineno}", params_seen)
                entry = entries[line_digest]
                if entry is not None:
                    self._responses[entry[0]] = entry[1]

    def _complete(self, model: str, messages: list[dict], params: SamplingParams) -> str:
        conversation = messages if isinstance(messages, Conversation) else Conversation(messages)
        key = conversation.digest(model, params)
        try:
            return self._responses[key]
        except KeyError:
            raise GatewayError(
                f"no recorded response for request {key[:12]}... in {self.path.name}"
            ) from None


class RecordingGateway(Gateway):
    """Wraps another gateway and records every exchange for later replay."""

    def __init__(self, inner: Gateway, path: str | Path) -> None:
        super().__init__()
        self.inner = inner
        self.path = Path(path)

    def _complete(self, model: str, messages: list[dict], params: SamplingParams) -> str:
        response = self.inner.complete(model, messages, params)
        record = {
            "request": _request_payload(model, messages, params),
            "response": response,
        }
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

    Keeps its own ordered, append-only Conversation (`messages`); every
    completion resends the whole conversation, so gateway retries cannot
    reorder anything. `prompt_log` reads the labeled messages back from
    it. The system prompt, rendered from the role, personality and game,
    is the only place the private bio appears.
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
        self.messages = Conversation()
        self.messages.append({"role": "system", "content": system}, "system")

    @property
    def prompt_log(self) -> list[tuple[str, str]]:
        """(label, text) of every message the player was sent, in order."""
        return self.messages.labeled()

    def _ask(self, label: str, content: str) -> str:
        self.messages.append({"role": "user", "content": content}, label)
        reply = self.gateway.complete(self.model, self.messages, self.params)
        self.messages.append({"role": "assistant", "content": reply})
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
        self.messages.append({"role": "user", "content": message}, label)
