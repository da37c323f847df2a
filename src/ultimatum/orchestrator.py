"""Runs one game end to end and grades it.

Two structures produce a gradable transcript:

* single model - one completion request asks a model to invent both
  strategies and simulate every round itself; the reply is parsed as a
  combined log.
* multi agent - two players, each holding a private personality, are
  driven through the rules engine in strict alternation by a moderator.
  Each player sees only its own instructions, the moderator's requests,
  and the public events (offers, decisions, outcomes). The transcript is
  built from the engine state the moderator drove and from each player's
  own strategy reply. The moderator records the game as it is played and
  renders each player's view of it, in one place, as a per-agent log; the
  two logs are kept as the transcript's raw logs.

The moderator enforces turn discipline on content: a reply that does not
contain the requested action gets one corrective re-prompt, and a second
failure aborts the run. After every run an information audit re-checks
every message each player said or was told: neither may carry the other
player's private personality line.

The moderator is the only game loop. Offline single-model runs use it too:
the oracles play one moderated game, and the combined log their gateway
answers with is written from that game's strategies and engine history.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import engine, prompts
from .agents import (
    Agent,
    Flaw,
    Gateway,
    ModelAgent,
    Observation,
    OracleAgent,
    SamplingParams,
    default_plan,
    private_bio,
)
from .engine import Decision, GameConfig, Money, format_money
from .rubric import Verdict, evaluate_transcript
from .strategy import PersonalityPair, Role, StrategySpec
from .transcripts import (
    Confidence,
    ParseDiagnostics,
    Structure,
    Transcript,
    extract_decision_reply,
    extract_offer_reply,
    parse_single_model_log,
    parse_strategy_text,
)


class TurnOrderViolationError(Exception):
    """A player twice failed to produce the action its turn calls for."""


class InformationLeakError(Exception):
    """A private personality line appeared in traffic its owner never sent."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one game.

    seed is carried into run records for bookkeeping; scripted players are
    already deterministic and remote sampling is governed by `sampling`.
    """

    structure: Structure
    pair: PersonalityPair
    game: GameConfig = GameConfig()
    model: str = "oracle"
    sampling: SamplingParams = SamplingParams()
    seed: int | None = None


@dataclass(frozen=True)
class SimulationResult:
    """One finished run: the transcript, its grade, and the traffic
    that produced it (prompts sent, replies received, in order)."""

    config: SimulationConfig
    transcript: Transcript
    verdict: Verdict
    diagnostics: ParseDiagnostics
    prompts: tuple[tuple[str, str], ...] = ()
    replies: tuple[tuple[str, str], ...] = ()


# ---------------------------------------------------------------------------
# Single-model structure
# ---------------------------------------------------------------------------


def run_single_model(config: SimulationConfig, gateway: Gateway) -> SimulationResult:
    """One completion simulates the whole game; parse and grade it."""
    prompt = prompts.render_single_model(
        config.pair.proposer.value,
        config.pair.receiver.value,
        config.game.pot,
        config.game.rounds,
    )
    reply = gateway.complete(
        config.model, [{"role": "user", "content": prompt}], config.sampling
    )
    transcript, diagnostics = parse_single_model_log(reply, config.pair, config.game)
    verdict = evaluate_transcript(transcript)
    return SimulationResult(
        config=config,
        transcript=transcript,
        verdict=verdict,
        diagnostics=diagnostics,
        prompts=(("single_model", prompt),),
        replies=(("single_model", reply),),
    )


# ---------------------------------------------------------------------------
# Multi-agent structure
# ---------------------------------------------------------------------------

_OFFER_CORRECTION = (
    'Your reply must be a single line "OFFER: $<amount>" with an amount '
    "between $0 and the full pot. Give your offer again."
)
_DECISION_CORRECTION = (
    'Your reply must be a single line "DECISION: accept" or "DECISION: reject". '
    "Give your decision again."
)


def _labeled(label: str, text: str) -> str:
    first, _, rest = text.partition("\n")
    line = f"[{label}] {first}".rstrip()
    return f"{line}\n{rest}" if rest else line


def _strip_strategy_prefix(reply: str) -> str:
    first, sep, rest = reply.partition("\n")
    first = re.sub(r"^\s*strategy\s*:\s*", "", first, flags=re.IGNORECASE)
    return f"{first}{sep}{rest}".strip()


class _Moderator:
    """Drives the two players through one game and records it.

    The record is what each player said and was told (for the audit and
    the run's replies), the stripped strategy texts, and one entry per
    round: the engine outcome, the accepted offer and decision replies and
    the announcement. `logs()` renders the per-agent logs from it.
    """

    def __init__(self, proposer: Agent, receiver: Agent, game: GameConfig) -> None:
        self.agents = {Role.PROPOSER: proposer, Role.RECEIVER: receiver}
        self.game = game
        self.strategies: dict[Role, str] = {}
        self.rounds: list[tuple[engine.RoundOutcome, str, str, str]] = []
        # Everything each agent said / was sent, for the audit and the run's replies.
        self.outbound: dict[Role, list[str]] = {Role.PROPOSER: [], Role.RECEIVER: []}
        self.inbound: dict[Role, list[str]] = {Role.PROPOSER: [], Role.RECEIVER: []}

    def tell(self, role: Role, message: str) -> None:
        self.agents[role].receive(message)
        self.inbound[role].append(message)

    def strategy_phase(self) -> None:
        for role in (Role.PROPOSER, Role.RECEIVER):
            reply = self.agents[role].create_strategy()
            self.outbound[role].append(reply)
            self.strategies[role] = _strip_strategy_prefix(reply)

    def _request(self, role: Role, observation: Observation, extract, correction: str):
        """Ask for an action, allowing one corrective re-prompt."""
        agent = self.agents[role]
        for attempt in range(2):
            reply = agent.act(observation)
            self.outbound[role].append(reply)
            value = extract(reply)
            if value is not None:
                return value, reply
            if attempt == 0:
                self.tell(role, correction)
        raise TurnOrderViolationError(
            f"{role.value} failed to produce a usable action in round {observation.round}"
        )

    def play(self) -> tuple[engine.RoundOutcome, ...]:
        """Play every round and return the final engine history."""
        state = engine.new_game(self.game)
        while not state.finished:
            r = state.round_index
            obs = Observation(Role.PROPOSER, r, self.game.rounds, self.game.pot, state.history)
            offer, offer_reply = self._request(
                Role.PROPOSER, obs, self._extract_offer, _OFFER_CORRECTION
            )
            state = engine.submit_offer(state, offer)
            obs = Observation(
                Role.RECEIVER, r, self.game.rounds, self.game.pot, state.history, pending_offer=offer
            )
            decision, decision_reply = self._request(
                Role.RECEIVER, obs, extract_decision_reply, _DECISION_CORRECTION
            )
            self.inbound[Role.PROPOSER].append(f"DECISION: {decision.value}")
            self.inbound[Role.RECEIVER].append(f"OFFER: {format_money(offer)}")

            state, outcome = engine.submit_decision(state, decision)
            announcement = prompts.render(
                "announce_outcome",
                round=r,
                offer_text=format_money(outcome.offer),
                decision_word="accepted" if decision is Decision.ACCEPT else "rejected",
                proposer_text=format_money(outcome.proposer_payoff),
                receiver_text=format_money(outcome.receiver_payoff),
            )
            for role in (Role.PROPOSER, Role.RECEIVER):
                self.tell(role, announcement)
            self.rounds.append((outcome, offer_reply, decision_reply, announcement))
        return state.history

    def _extract_offer(self, reply: str) -> Money | None:
        offer = extract_offer_reply(reply)
        if offer is None or not 0 <= offer <= self.game.pot:
            return None
        return offer

    def logs(self) -> tuple[tuple[str, str], ...]:
        """The per-agent logs as (role, text) raw-log entries.

        Each log is the player's plan and strategy, then per round what it
        said, what it heard from the other side and the announced outcome.
        """
        logs = []
        for role in (Role.PROPOSER, Role.RECEIVER):
            lines = [
                _labeled("Plan", default_plan(role)),
                _labeled("Strategy", self.strategies[role]),
            ]
            for outcome, offer_reply, decision_reply, announcement in self.rounds:
                if role is Role.PROPOSER:
                    turn = [_labeled("Say", offer_reply), f"[Hear] DECISION: {outcome.decision.value}"]
                else:
                    turn = [f"[Hear] OFFER: {format_money(outcome.offer)}", _labeled("Say", decision_reply)]
                lines += [f"[Round {outcome.round}]", *turn, _labeled("Outcome", announcement)]
            logs.append((role.value, "\n".join(lines) + "\n"))
        return tuple(logs)

    def audit_information(self) -> None:
        """No message sent to or said by a player may contain the other
        player's private personality line."""
        for role, opponent in (
            (Role.PROPOSER, Role.RECEIVER),
            (Role.RECEIVER, Role.PROPOSER),
        ):
            other = self.agents[opponent]
            secret = private_bio(other.role, other.personality).lower()
            for text in self.inbound[role]:
                if secret in text.lower():
                    raise InformationLeakError(
                        f"message to the {role.value} contains the {opponent.value}'s private profile"
                    )
            for text in self.outbound[role]:
                if secret in text.lower():
                    raise InformationLeakError(
                        f"the {role.value} said the {opponent.value}'s private profile out loud"
                    )


def run_multi_agent(config: SimulationConfig, agents: tuple[Agent, Agent]) -> SimulationResult:
    """Drive (proposer, receiver) through one moderated game and grade it."""
    proposer, receiver = agents
    if proposer.role is not Role.PROPOSER or receiver.role is not Role.RECEIVER:
        raise ValueError("agents must be (proposer, receiver)")
    moderator = _Moderator(proposer, receiver, config.game)
    moderator.strategy_phase()
    rounds = moderator.play()
    moderator.audit_information()
    transcript = Transcript(
        config=config.game,
        pair=config.pair,
        structure=Structure.MULTI_AGENT,
        strategies=tuple(
            StrategySpec(role, text, parse_strategy_text(text, role, config.game))
            for role, text in moderator.strategies.items()
        ),
        rounds=rounds,
        raw_logs=moderator.logs(),
    )
    # Moderated runs report exact confidence and no warnings; per-action provenance is not kept yet.
    diagnostics = ParseDiagnostics(Confidence.EXACT)
    verdict = evaluate_transcript(transcript)
    prompt_pairs: list[tuple[str, str]] = []
    for role in (Role.PROPOSER, Role.RECEIVER):
        for label, text in getattr(moderator.agents[role], "prompt_log", ()):
            prompt_pairs.append((f"{role.value}/{label}", text))
    replies = tuple(
        (role.value, text)
        for role in (Role.PROPOSER, Role.RECEIVER)
        for text in moderator.outbound[role]
    )
    return SimulationResult(
        config=config,
        transcript=transcript,
        verdict=verdict,
        diagnostics=diagnostics,
        prompts=tuple(prompt_pairs),
        replies=replies,
    )


# ---------------------------------------------------------------------------
# Player construction
# ---------------------------------------------------------------------------


def make_oracle_agents(
    pair: PersonalityPair,
    game: GameConfig | None = None,
    proposer_flaw: Flaw | None = None,
    receiver_flaw: Flaw | None = None,
) -> tuple[OracleAgent, OracleAgent]:
    game = game if game is not None else GameConfig()
    return (
        OracleAgent(Role.PROPOSER, pair.proposer, game, proposer_flaw),
        OracleAgent(Role.RECEIVER, pair.receiver, game, receiver_flaw),
    )


def make_model_agents(
    config: SimulationConfig, gateway: Gateway
) -> tuple[ModelAgent, ModelAgent]:
    game, model, sampling = config.game, config.model, config.sampling
    return (
        ModelAgent(Role.PROPOSER, config.pair.proposer, game, gateway, model, sampling),
        ModelAgent(Role.RECEIVER, config.pair.receiver, game, gateway, model, sampling),
    )


# ---------------------------------------------------------------------------
# Oracle stand-ins for the single-model structure
# ---------------------------------------------------------------------------


def synthesize_single_model_log(
    pair: PersonalityPair,
    game: GameConfig | None = None,
    proposer_flaw: Flaw | None = None,
    receiver_flaw: Flaw | None = None,
) -> str:
    """A combined log in the requested reply format, played by oracles.

    Used in offline runs so the single-model pipeline (prompt, completion,
    combined-log parse, grade) is exercised end to end without a network.
    The oracles play through the moderator like any other pair of players;
    the log is written from the strategies it collected and the engine
    history it returns.
    """
    game = game if game is not None else GameConfig()
    moderator = _Moderator(*make_oracle_agents(pair, game, proposer_flaw, receiver_flaw), game)
    moderator.strategy_phase()
    lines = [
        f"STRATEGY ({role.value.capitalize()}): {text}"
        for role, text in moderator.strategies.items()
    ]
    for outcome in moderator.play():
        lines.extend(
            [
                f"ROUND {outcome.round}",
                f"OFFER: {format_money(outcome.offer)}",
                f"DECISION: {outcome.decision.value}",
                "OUTCOME: the proposer receives "
                f"{format_money(outcome.proposer_payoff)} and the receiver receives "
                f"{format_money(outcome.receiver_payoff)}",
            ]
        )
    return "\n".join(lines) + "\n"


class OracleSingleModelGateway(Gateway):
    """Gateway that answers any completion request with a synthesized
    oracle log for its configured players. One instance serves one cell."""

    def __init__(
        self,
        pair: PersonalityPair,
        game: GameConfig | None = None,
        proposer_flaw: Flaw | None = None,
        receiver_flaw: Flaw | None = None,
    ) -> None:
        super().__init__()
        self._log = synthesize_single_model_log(pair, game, proposer_flaw, receiver_flaw)

    def _complete(self, model: str, messages: list[dict], params: SamplingParams) -> str:
        return self._log
