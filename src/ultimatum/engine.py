"""Rules engine for the repeated ultimatum game.

A game is a fixed number of rounds over a constant pot. Each round the
proposer offers the receiver a share of the pot and the receiver either
accepts (the split stands) or rejects (both players get nothing for that
round). A rejected round still consumes a round: the counter advances and
the pot is unchanged next round.

All money is integer cents. The engine has value semantics: operations
return new states and never mutate their inputs, so a state can be shared,
replayed, or diffed freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

# Money is integer cents, always in [0, pot]. Floats never enter the engine.
Money = int

DEFAULT_POT: Money = 100
DEFAULT_ROUNDS = 5
# Largest pot: its amounts fit the 18 digits a canonical round line holds.
MAX_POT: Money = 10**18 - 1


class EngineError(Exception):
    """Base class for rule violations raised by the engine."""


class InvalidConfigError(EngineError):
    """Game parameters out of range (pot outside [1, MAX_POT], rounds < 1)."""


class WrongPhaseError(EngineError):
    """An operation was attempted in a phase that does not allow it."""


class OfferOutOfRangeError(EngineError):
    """An offer was outside [0, pot]."""


class Phase(enum.Enum):
    """Where the game stands in the offer/decision cycle."""

    AWAITING_OFFER = "awaiting_offer"
    AWAITING_DECISION = "awaiting_decision"
    FINISHED = "finished"


class Decision(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"


@dataclass(frozen=True)
class GameConfig:
    """Fixed parameters of a game: the pot (cents) and the round count."""

    pot: Money = DEFAULT_POT
    rounds: int = DEFAULT_ROUNDS

    def __post_init__(self) -> None:
        if self.pot < 1:
            raise InvalidConfigError(f"pot must be >= 1 cent, got {self.pot}")
        if self.pot > MAX_POT:
            raise InvalidConfigError(f"pot must be <= {MAX_POT} cents, got {self.pot}")
        if self.rounds < 1:
            raise InvalidConfigError(f"rounds must be >= 1, got {self.rounds}")


class RoundOutcome(NamedTuple):
    """Result of one completed round.

    Payoffs always conserve the pot: accepted rounds split it exactly,
    rejected rounds pay zero to both.
    """

    round: int
    offer: Money
    decision: Decision
    proposer_payoff: Money
    receiver_payoff: Money


class GameState(NamedTuple):
    """Immutable snapshot of a game in progress.

    round_index stays within 1..rounds even after the game finishes (it
    remains at the final round rather than running past the end).
    """

    config: GameConfig
    round_index: int
    phase: Phase
    history: tuple[RoundOutcome, ...] = ()
    pending_offer: Money | None = None

    @property
    def finished(self) -> bool:
        return self.phase is Phase.FINISHED


def new_game(config: GameConfig | None = None) -> GameState:
    """Start a fresh game in round 1, awaiting the first offer."""
    config = config if config is not None else GameConfig()
    return GameState(config=config, round_index=1, phase=Phase.AWAITING_OFFER)


def submit_offer(state: GameState, offer: Money) -> GameState:
    """Record the proposer's offer for the current round.

    Args:
        state: a game awaiting an offer.
        offer: cents offered to the receiver, 0 <= offer <= pot.

    Returns:
        The state advanced to awaiting the receiver's decision.

    Raises:
        WrongPhaseError: if the game is not awaiting an offer.
        OfferOutOfRangeError: if the offer falls outside [0, pot].
    """
    if state.phase is not Phase.AWAITING_OFFER:
        raise WrongPhaseError(f"cannot submit an offer while {state.phase.value}")
    if not isinstance(offer, int) or isinstance(offer, bool):
        raise OfferOutOfRangeError(f"offer must be integer cents, got {offer!r}")
    if not 0 <= offer <= state.config.pot:
        raise OfferOutOfRangeError(
            f"offer {offer} outside [0, {state.config.pot}]"
        )
    return GameState(state.config, state.round_index, Phase.AWAITING_DECISION, state.history, offer)


def submit_decision(state: GameState, decision: Decision) -> tuple[GameState, RoundOutcome]:
    """Resolve the pending offer with the receiver's decision.

    Acceptance splits the pot (proposer keeps pot - offer); rejection pays
    zero to both. Either way the round is consumed and the game moves to
    the next round, or finishes after the last one.

    Raises:
        WrongPhaseError: if there is no pending offer to decide on.
    """
    if state.phase is not Phase.AWAITING_DECISION:
        raise WrongPhaseError(f"cannot submit a decision while {state.phase.value}")
    offer = state.pending_offer
    assert offer is not None
    payoffs = (state.config.pot - offer, offer) if decision is Decision.ACCEPT else (0, 0)
    outcome = RoundOutcome(state.round_index, offer, decision, *payoffs)
    history = state.history + (outcome,)
    if len(history) >= state.config.rounds:
        next_state = GameState(state.config, state.round_index, Phase.FINISHED, history)
    else:
        next_state = GameState(state.config, state.round_index + 1, Phase.AWAITING_OFFER, history)
    return next_state, outcome


def replay(
    config: GameConfig, actions: list[tuple[Money, Decision]]
) -> tuple[GameState, tuple[RoundOutcome, ...]]:
    """Drive a full game from a list of (offer, decision) pairs.

    Convenience wrapper used when reconstructing games from parsed logs;
    every action passes through the same validation as live play.
    """
    state = new_game(config)
    outcomes: list[RoundOutcome] = []
    for offer, decision in actions:
        state = submit_offer(state, offer)
        state, outcome = submit_decision(state, decision)
        outcomes.append(outcome)
    return state, tuple(outcomes)


def format_money(cents: Money) -> str:
    """Render cents in dollar notation, exactly: 100 -> "$1", 50 -> "$0.50"."""
    if cents % 100 == 0:
        return f"${cents // 100}"
    return "$%d.%02d" % (cents // 100, cents % 100)
