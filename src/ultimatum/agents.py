"""Players and the model gateways behind them.

Two kinds of player implement the same small interface (create a strategy,
act on an observation, hear announcements):

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
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import requests as _requests

from . import prompts
from .engine import GameConfig, Money, RoundOutcome, format_money
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


def _request_key(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class HttpGateway(Gateway):
    """Chat-completion endpoint over HTTP POST.

    Retries transient failures (connection errors, 429, 5xx) up to
    max_retries times with exponential backoff. Retrying is safe because
    the full conversation is resent verbatim each time. The API key is
    read from the environment, never from files or arguments.
    """

    def __init__(
        self,
        endpoint: str,
        api_key_env: str = API_KEY_ENV,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
        session: "_requests.Session | None" = None,
        sleep=time.sleep,
    ) -> None:
        super().__init__()
        self.endpoint = endpoint
        self.api_key = os.environ.get(api_key_env, "")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.session = session if session is not None else _requests.Session()
        self._sleep = sleep

    def _complete(self, model: str, messages: list[dict], params: SamplingParams) -> str:
        payload = _request_payload(model, messages, params)
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                with self._lock:
                    self.retries += 1
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except _requests.RequestException as exc:
                last_error = exc
                continue
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
        raise GatewayError(f"request failed after {self.max_retries} retries: {last_error}")


class ReplayGateway(Gateway):
    """Serves recorded request/response pairs from a JSON-lines file.

    Requests are matched by a digest of their canonical JSON, so replay is
    insensitive to record order and safe under concurrency. An unknown
    request is an error: replay never invents a completion.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__()
        self.path = Path(path)
        self._responses: dict[str, str] = {}
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                record = json.loads(line)
                self._responses[_request_key(record["request"])] = record["response"]

    def _complete(self, model: str, messages: list[dict], params: SamplingParams) -> str:
        key = _request_key(_request_payload(model, messages, params))
        try:
            return self._responses[key]
        except KeyError:
            raise GatewayError(
                f"no recorded response for request {key[:12]}... in {self.path}"
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
# Observations and the agent interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Observation:
    """What a player is allowed to see when asked to act."""

    role: Role
    round: int
    total_rounds: int
    pot: Money
    history: tuple[RoundOutcome, ...] = ()
    pending_offer: Money | None = None


class Agent:
    """One player: strategy creation, per-round actions, announcements."""

    role: Role
    personality: Personality

    def create_strategy(self) -> str:
        """Produce the strategy reply (raw text)."""
        raise NotImplementedError

    def act(self, observation: Observation) -> str:
        """Produce the action reply (raw text) for the observed state."""
        raise NotImplementedError

    def receive(self, message: str) -> None:
        """Hear an announcement (round outcomes, corrections)."""


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

    def act(self, observation: Observation) -> str:
        prescribed = prescribed_action(
            self._behavior,
            self.config,
            observation.history,
            observation.round,
            pending_offer=observation.pending_offer,
        )
        assert prescribed is not None, "oracle behaviour plans cover every state"
        if isinstance(prescribed, PrescribedOffer):
            offer = prescribed.lo
            if self.flaw is Flaw.DEVIATOR and observation.round == DEVIATION_ROUND:
                offer = min(self.config.pot, offer + bands_for(self.config.pot).deviation)
            return f"OFFER: {format_money(offer)}"
        assert isinstance(prescribed, PrescribedDecision)
        return f"DECISION: {prescribed.decision.value}"


# ---------------------------------------------------------------------------
# Model-backed agents
# ---------------------------------------------------------------------------


class ModelAgent(Agent):
    """A player driven through a chat gateway.

    Keeps its own ordered conversation; every completion resends the whole
    conversation, so gateway retries cannot reorder anything. The system
    prompt, rendered from the role, personality and game, is the only
    place the private bio appears.
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
            public_bio_line="",
            private_bio=private_bio(role, personality),
            rounds_word=prompts.rounds_word(game.rounds),
            pot_text=format_money(game.pot),
        )
        self.messages: list[dict] = [{"role": "system", "content": system}]
        self.prompt_log: list[tuple[str, str]] = [("system", system)]

    def _ask(self, label: str, content: str) -> str:
        self.messages.append({"role": "user", "content": content})
        self.prompt_log.append((label, content))
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

    def act(self, observation: Observation) -> str:
        if observation.role is Role.PROPOSER:
            label, slots = "request_offer", {}
        else:
            label, slots = "request_decision", {"offer_text": format_money(observation.pending_offer)}
        content = prompts.render(
            label, round=observation.round, rounds=observation.total_rounds, **slots
        )
        return self._ask(label, content)

    def receive(self, message: str) -> None:
        self.messages.append({"role": "user", "content": message})
        self.prompt_log.append(("announcement", message))
