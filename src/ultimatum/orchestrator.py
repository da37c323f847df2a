"""Runs one game end to end and grades it.

Two structures produce a gradable transcript:

* single model - one completion request asks a model to invent both
  strategies and simulate every round itself; the reply is parsed as a
  combined log.
* multi agent - two players, each holding a private personality, are
  asked for their strategies, neither seeing the other's, then
  driven through the rules engine in strict alternation by a moderator.
  Each player sees only its own instructions, the moderator's requests,
  and the public events (offers, decisions, outcomes). When asked to act,
  a player is handed the engine's game state: the round, the outcomes so
  far and, for the receiver, the pending offer. The transcript is built
  from the engine state the moderator drove and from each player's own
  strategy reply. The moderator keeps one record of the game, its turn
  log: every message it exchanged with a player, in order. The offer and
  decision replies the game was played from are read from it and kept as
  the transcript's raw logs, one per action in turn order.

The moderator enforces turn discipline on content: a reply that does not
contain the requested action gets one corrective re-prompt, and a second
failure aborts the run. It also guards the information boundary: a
message it is about to tell a player (a correction or an announcement)
that carries the other player's private personality line fails the run
before it is sent. What a player says is never forwarded, so it is not
checked.

The moderator is the only game loop. Offline single-model runs use it too:
the oracles play one moderated game, and the combined log their gateway
answers with is written from that game's transcript. Oracle players are
deterministic, so an oracle batch runs each cell once, parsing no log (see
`experiment._play_oracles`); the records are the same as when every run
plays its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable

from . import engine, prompts
from .agents import (
    Agent,
    Flaw,
    Gateway,
    ModelAgent,
    OracleAgent,
    SamplingParams,
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
    game_text,
    parse_single_model_log,
    parse_strategy_text,
    serialize_canonical,
)


class TurnOrderViolationError(Exception):
    """A player twice failed to produce the action its turn calls for."""


class InformationLeakError(Exception):
    """A moderator message to a player carried the other player's private
    personality line; it was not sent."""


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


Traffic = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class SimulationResult:
    """One finished run: the transcript (also in the canonical text a run
    record stores), its grade, and `traffic`, which builds the run's
    (prompts sent, replies received), in order, as (label, text) pairs
    when called, so a batch that does not keep prompts never builds it."""

    transcript: Transcript
    verdict: Verdict
    diagnostics: ParseDiagnostics
    canonical: str
    traffic: Callable[[], tuple[Traffic, Traffic]] = field(repr=False, compare=False)


def _memo_entry(graded: dict | None, key: tuple, build: Callable, *args) -> tuple:
    """A run's (transcript, verdict, diagnostics, canonical text) entry, in
    `SimulationResult`'s field order, for either structure.

    `graded` is a batch's memo; None starts a fresh one. It maps each run
    key seen so far (a single-model reply with its pair and game, or a
    moderated game: see `run_multi_agent`) to its entry, and each game
    text (`transcripts.game_text`, all that grading reads) to its verdict.
    A key found there is not built, serialized or graded again. A new
    key's transcript and diagnostics are `build(*args)`; its canonical
    text is serialized, and its game is graded only if no earlier entry,
    of either structure, had that game text. A build or grade that raises
    stores nothing, so every run with that key raises. An oracle batch
    writes each single-model cell's entry from the played game before the
    cell's one run (`OracleSingleModelGateway.write_entry`).
    """
    if graded is None:
        graded = {}
    if key not in graded:
        transcript, diagnostics = build(*args)
        canonical = serialize_canonical(transcript)
        game = game_text(canonical)
        if game not in graded:
            graded[game] = evaluate_transcript(transcript)
        graded[key] = (transcript, graded[game], diagnostics, canonical)
    return graded[key]


# ---------------------------------------------------------------------------
# Single-model structure
# ---------------------------------------------------------------------------


def run_single_model(
    config: SimulationConfig,
    gateway: Gateway,
    *,
    graded: dict | None = None,
) -> SimulationResult:
    """One completion simulates the whole game; parse and grade it through
    the `graded` memo (see `_memo_entry`)."""
    prompt = prompts.render(
        "single_model",
        proposer_personality=config.pair.proposer.value,
        receiver_personality=config.pair.receiver.value,
        rounds_word=prompts.rounds_word(config.game.rounds),
        pot_text=format_money(config.game.pot),
    )
    reply = gateway.complete(config.model, [("user", prompt)], config.sampling)
    key = (reply, config.pair, config.game)
    entry = _memo_entry(graded, key, parse_single_model_log, *key)
    traffic = ((("single_model", prompt),), (("single_model", reply),))
    return SimulationResult(*entry, lambda: traffic)


# ---------------------------------------------------------------------------
# Multi-agent structure
# ---------------------------------------------------------------------------

_STRATEGY_PREFIX_RE = re.compile(r"^\s*strategy\s*:\s*", re.IGNORECASE)


def _strip_strategy_prefix(reply: str) -> str:
    first, sep, rest = reply.partition("\n")
    first = _STRATEGY_PREFIX_RE.sub("", first)
    return f"{first}{sep}{rest}".strip()


# Turn-log labels. A player said a "strategy", "offer" or "decision" reply
# the game was played from, or an "unusable" reply that got a correction; it
# was told a "correction" or an "announcement".
_ACCEPTED = ("strategy", "offer", "decision")
_TOLD = ("correction", "announcement")
# The raw-log labels of a round's offer and decision reply.
_ACTION_LABELS = ("proposer/offer", "receiver/decision")
# A transcript built from a played game, not parsed from text, is exact.
_EXACT = ParseDiagnostics(Confidence.EXACT)


class _Moderator:
    """Drives the two players through one game and keeps one record of it.

    The record is the turn log (`turns`): every message the moderator
    exchanged with a player, in order, as (role, label, text). The replies
    the game was played from (the memo key and the transcript's raw logs)
    and the run's traffic are read from it.
    """

    def __init__(self, proposer: Agent, receiver: Agent, game: GameConfig) -> None:
        self.game = game
        self.proposer = proposer
        self.receiver = receiver
        self.turns: list[tuple[Role, str, str]] = []
        # What each player must never be told, checked before each message it
        # is sent: the other player's role and private line, lower-cased.
        self._withheld = {
            agent.role: (other.role.value, private_bio(other.role, other.personality).lower())
            for agent, other in ((proposer, receiver), (receiver, proposer))
        }

    def _tell(self, agent: Agent, label: str, message: str) -> None:
        whose, secret = self._withheld[agent.role]
        if secret in message.lower():
            raise InformationLeakError(
                f"message to the {agent.role.value} contains the {whose}'s private profile"
            )
        agent.receive(message, label)
        self.turns.append((agent.role, label, message))

    def strategy_phase(self, helper=None) -> None:
        """Log both players' strategies, proposer first. With a `helper`
        (an executor) the receiver is asked on it while the proposer is
        asked here; if the proposer's request raises, the receiver's is
        waited for before that error is raised."""
        asked = None if helper is None else helper.submit(self.receiver.create_strategy)
        try:
            self.turns.append((self.proposer.role, "strategy", self.proposer.create_strategy()))
        finally:
            if asked is not None:
                asked.exception()
        reply = self.receiver.create_strategy() if asked is None else asked.result()
        self.turns.append((self.receiver.role, "strategy", reply))

    def _request(self, agent: Agent, state: engine.GameState, extract, label: str, correction: str):
        """Ask for an action, allowing one corrective re-prompt rendered
        from the `correction` template."""
        for attempt in range(2):
            reply = agent.act(state)
            value = extract(reply)
            if value is not None:
                self.turns.append((agent.role, label, reply))
                return value
            self.turns.append((agent.role, "unusable", reply))
            if attempt == 0:
                self._tell(agent, "correction", prompts.render(correction))
        raise TurnOrderViolationError(
            f"{agent.role.value} failed to produce a usable action in round {state.round_index}"
        )

    def play(self) -> tuple[engine.RoundOutcome, ...]:
        """Play every round and return the final engine history."""
        proposer, receiver = self.proposer, self.receiver
        state = engine.new_game(self.game)
        while not state.finished:
            offer = self._request(proposer, state, self._extract_offer, "offer", "correct_offer")
            state = engine.submit_offer(state, offer)
            decision = self._request(
                receiver, state, extract_decision_reply, "decision", "correct_decision"
            )
            state, outcome = engine.submit_decision(state, decision)
            announcement = prompts.render(
                "announce_outcome",
                round=outcome.round,
                offer_text=format_money(outcome.offer),
                decision_word="accepted" if decision is Decision.ACCEPT else "rejected",
                proposer_text=format_money(outcome.proposer_payoff),
                receiver_text=format_money(outcome.receiver_payoff),
            )
            self._tell(proposer, "announcement", announcement)
            self._tell(receiver, "announcement", announcement)
        return state.history

    def _extract_offer(self, reply: str) -> Money | None:
        offer = extract_offer_reply(reply)
        if offer is None or not 0 <= offer <= self.game.pot:
            return None
        return offer

    def accepted(self) -> tuple[str, ...]:
        """The replies the game was played from: both strategy replies,
        then each round's offer and decision reply."""
        return tuple([text for _, label, text in self.turns if label in _ACCEPTED])

    def traffic(self) -> tuple[Traffic, Traffic]:
        """The run's (prompts, replies): each player's labeled prompt log
        (oracles keep none), then everything each player said, from the
        turn log, proposer first."""
        prompt_pairs: list[tuple[str, str]] = []
        replies: list[tuple[str, str]] = []
        for agent in (self.proposer, self.receiver):
            name, log = agent.role.value, getattr(agent, "prompt_log", ())
            prompt_pairs += [(f"{name}/{label}", text) for label, text in log]
            said = [text for who, label, text in self.turns if who is agent.role and label not in _TOLD]
            replies += [(name, text) for text in said]
        return tuple(prompt_pairs), tuple(replies)


def run_multi_agent(
    config: SimulationConfig,
    agents: tuple[Agent, Agent],
    *,
    graded: dict | None = None,
    helper=None,
) -> SimulationResult:
    """Drive (proposer, receiver) through one moderated game and grade it
    through the `graded` memo (see `_memo_entry`). The run's traffic is
    built from the moderator's turn log when it is asked for.

    The memo key is the pair, the game and the texts of the replies the
    game was played from. It determines the transcript: the strategy
    replies are parsed against the game, the engine replays the actions
    read from the offer and decision replies into the rounds, and the raw
    logs are those offer and decision replies. Every run still plays
    through the moderator, which checks every message the run tells a
    player, and its traffic is its own.

    `helper` is passed to `_Moderator.strategy_phase`.
    """
    proposer, receiver = agents
    if proposer.role is not Role.PROPOSER or receiver.role is not Role.RECEIVER:
        raise ValueError("agents must be (proposer, receiver)")
    moderator = _Moderator(proposer, receiver, config.game)
    moderator.strategy_phase(helper)
    rounds = moderator.play()
    key = (config.pair, config.game, moderator.accepted())
    entry = _memo_entry(graded, key, _moderated_transcript, config, moderator, rounds)
    return SimulationResult(*entry, moderator.traffic)


def _moderated_transcript(
    config: SimulationConfig, moderator: _Moderator, rounds: tuple[engine.RoundOutcome, ...]
) -> tuple[Transcript, ParseDiagnostics]:
    """The transcript of the game `moderator` played, and its diagnostics:
    moderated runs report exact confidence and no warnings, since
    per-action provenance is not kept yet.

    Its raw logs are the offer and decision replies the game was played
    from, in turn order, labelled `proposer/offer` and `receiver/decision`.
    """
    replies = moderator.accepted()
    strategies = map(_strip_strategy_prefix, replies[:2])
    transcript = Transcript(
        config=config.game,
        pair=config.pair,
        structure=Structure.MULTI_AGENT,
        strategies=tuple(
            StrategySpec(role, text, parse_strategy_text(text, role, config.game))
            for role, text in zip((Role.PROPOSER, Role.RECEIVER), strategies)
        ),
        rounds=rounds,
        raw_logs=tuple(zip(_ACTION_LABELS * len(rounds), replies[2:])),
    )
    return transcript, _EXACT


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


def synthesize_single_model_log(transcript: Transcript) -> str:
    """A combined log in the requested reply format, written from a played
    game: each strategy's text, then every round of `transcript.rounds`.

    An oracle gateway answers with it, so offline single-model runs send
    their prompts without a network. The game is one the oracles played
    through the moderator (`run_multi_agent`), the only game loop; an oracle
    batch writes the single-model cell's entry from that game, so it parses
    no such log (a property test pins the parse equal).
    """
    lines = [
        f"STRATEGY ({spec.role.value.capitalize()}): {spec.raw_text}"
        for spec in transcript.strategies
    ]
    for outcome in transcript.rounds:
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
    """Gateway that answers any completion request with the combined log
    written from one played oracle game. One instance serves one cell."""

    def __init__(self, transcript: Transcript) -> None:
        super().__init__()
        self._played = transcript
        self._log = synthesize_single_model_log(transcript)

    def write_entry(self, graded: dict) -> None:
        """Write the cell's entry into the memo `graded` (see `_memo_entry`)
        from the played game, not from a parse of the log: the engine and
        the moderator enforced every rule the parse re-checks, and a
        property test pins the entry equal to the parse."""
        played, log = self._played, self._log
        single = replace(played, structure=Structure.SINGLE_MODEL, raw_logs=(("single_model", log),))
        _memo_entry(graded, (log, played.pair, played.config), lambda: (single, _EXACT))

    def _complete(self, model: str, messages: list[tuple[str, str]], params: SamplingParams) -> str:
        return self._log
