"""Runs one game end to end and grades it.

Two structures produce a gradable transcript:

* single model - one completion request asks a model to invent both
  strategies and simulate every round itself; the reply is parsed as a
  combined log.
* multi agent - two players with private profiles are driven through the
  rules engine in strict alternation by a moderator. Each player sees only
  its own instructions, the moderator's requests, and the public events
  (offers, decisions, outcomes). The transcript is built from the engine
  state the moderator drove and from each player's own strategy reply; the
  per-agent logs assembled from that traffic are kept as its raw logs.

The moderator enforces turn discipline on content: a reply that does not
contain the requested action gets one corrective re-prompt, and a second
failure aborts the run. After every run an information audit re-checks
that neither player's private profile ever crossed to the other side.

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
    make_profile,
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
    """A private profile appeared in traffic its owner never sent."""


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


def _private_bio_of(agent: Agent) -> str:
    profile = getattr(agent, "profile", None)
    if profile is not None:
        return profile.private_bio
    return private_bio(agent.role, agent.personality)


class _Moderator:
    """Drives the two players through one game, collecting their strategy
    texts, per-agent logs and the message traffic needed for the
    information audit."""

    def __init__(self, proposer: Agent, receiver: Agent, game: GameConfig) -> None:
        self.agents = {Role.PROPOSER: proposer, Role.RECEIVER: receiver}
        self.game = game
        self.strategies: dict[Role, str] = {}
        self.log_lines: dict[Role, list[str]] = {Role.PROPOSER: [], Role.RECEIVER: []}
        # Everything each agent said / was sent, for the audit.
        self.outbound: dict[Role, list[str]] = {Role.PROPOSER: [], Role.RECEIVER: []}
        self.inbound: dict[Role, list[str]] = {Role.PROPOSER: [], Role.RECEIVER: []}

    def tell(self, role: Role, message: str) -> None:
        self.agents[role].receive(message)
        self.inbound[role].append(message)

    def strategy_phase(self) -> None:
        for role in (Role.PROPOSER, Role.RECEIVER):
            agent = self.agents[role]
            reply = agent.create_strategy()
            self.outbound[role].append(reply)
            self.strategies[role] = _strip_strategy_prefix(reply)
            self.log_lines[role].append(_labeled("Plan", agent.initial_plan))
            self.log_lines[role].append(_labeled("Strategy", self.strategies[role]))

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
            for role in (Role.PROPOSER, Role.RECEIVER):
                self.log_lines[role].append(f"[Round {r}]")

            obs = Observation(
                role=Role.PROPOSER,
                round=r,
                total_rounds=self.game.rounds,
                pot=self.game.pot,
                history=state.history,
            )
            offer, reply = self._request(
                Role.PROPOSER, obs, self._extract_offer, _OFFER_CORRECTION
            )
            self.log_lines[Role.PROPOSER].append(_labeled("Say", reply))
            state = engine.submit_offer(state, offer)

            offer_line = f"OFFER: {format_money(offer)}"
            self.log_lines[Role.RECEIVER].append(_labeled("Hear", offer_line))
            obs = Observation(
                role=Role.RECEIVER,
                round=r,
                total_rounds=self.game.rounds,
                pot=self.game.pot,
                history=state.history,
                pending_offer=offer,
            )
            decision, reply = self._request(
                Role.RECEIVER, obs, extract_decision_reply, _DECISION_CORRECTION
            )
            self.log_lines[Role.RECEIVER].append(_labeled("Say", reply))
            decision_line = f"DECISION: {decision.value}"
            self.log_lines[Role.PROPOSER].append(_labeled("Hear", decision_line))
            self.inbound[Role.PROPOSER].append(decision_line)
            self.inbound[Role.RECEIVER].append(offer_line)

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
                self.log_lines[role].append(_labeled("Outcome", announcement))
        return state.history

    def _extract_offer(self, reply: str) -> Money | None:
        offer = extract_offer_reply(reply)
        if offer is None or not 0 <= offer <= self.game.pot:
            return None
        return offer

    def logs(self) -> tuple[tuple[str, str], ...]:
        """The per-agent logs as (role, text) raw-log entries."""
        return tuple(
            (role.value, "\n".join(lines) + "\n") for role, lines in self.log_lines.items()
        )

    def audit_information(self) -> None:
        """No message sent to or said by a player may contain the other
        player's private profile."""
        bios = {role: _private_bio_of(agent) for role, agent in self.agents.items()}
        for role, opponent in (
            (Role.PROPOSER, Role.RECEIVER),
            (Role.RECEIVER, Role.PROPOSER),
        ):
            secret = bios[opponent].lower()
            if not secret:
                continue
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
    agents = []
    for role, personality in (
        (Role.PROPOSER, config.pair.proposer),
        (Role.RECEIVER, config.pair.receiver),
    ):
        profile = make_profile(role, personality, config.game)
        agents.append(
            ModelAgent(
                profile,
                gateway,
                config.model,
                role,
                personality,
                config.game,
                config.sampling,
            )
        )
    return agents[0], agents[1]


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
