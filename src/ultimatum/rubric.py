"""Human-behavior rubric for graded transcripts.

A run is judged on two independent axes:

* strategy quality - were both declared strategies complete and did their
  opening intent match the assigned personalities?
* gameplay quality - did each observed action both follow the declared
  strategy (adherence) and stay within the envelope of how a human with
  that personality plays (human consistency)?

Round 1 is judged against the personality bands of the pot
(`strategy.bands_for`). Later rounds are judged relative to what came
before: proposers keep offers in a similar range after an acceptance and
concede a modest increase after a rejection; receivers never act on a
threshold higher than the one their own earlier actions implied, and
after a full string of rejections they are expected to take any nonzero
offer in the final round rather than walk away with nothing.

An action that breaks a generic band while faithfully following the
player's own declared strategy (`strategy.follows`, the same rule that
decides adherence) is charged to the strategy (which is where the flaw
lives), not to gameplay. The final-round capitulation
expectation is never excused that way. Gameplay is judged on observed
actions only, never on counterfactual states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .engine import Decision
from .strategy import (
    Role,
    bands_for,
    check_adherence,
    check_completeness,
    check_personality_consistency,
    follows,
)
from .transcripts import Transcript


class MalformedTranscriptError(Exception):
    """The transcript does not contain every configured round in order."""


class ErrorClass(enum.Enum):
    NONE = "none"
    STRATEGY_ONLY = "strategy_only"
    GAMEPLAY_ONLY = "gameplay_only"
    BOTH = "both"


@dataclass(frozen=True)
class RoundFlag:
    """One gameplay violation: which round, which player, which rule."""

    round: int
    role: Role
    rule: str


@dataclass(frozen=True)
class Verdict:
    """Complete grade for one run.

    The error class partitions runs: NONE means every boolean is true;
    BOTH means at least one strategy boolean and at least one gameplay
    boolean (adherence or human consistency) failed. A strategy whose
    deciding field is missing passes the consistency check; the absence
    itself is already a completeness failure.
    """

    proposer_strategy_complete: bool
    receiver_strategy_complete: bool
    proposer_strategy_consistent: bool
    receiver_strategy_consistent: bool
    proposer_adherent: bool
    receiver_adherent: bool
    gameplay_human_consistent: bool
    per_round_flags: tuple[RoundFlag, ...]

    @property
    def strategy_ok(self) -> bool:
        return (
            self.proposer_strategy_complete
            and self.receiver_strategy_complete
            and self.proposer_strategy_consistent
            and self.receiver_strategy_consistent
        )

    @property
    def gameplay_ok(self) -> bool:
        return (
            self.proposer_adherent
            and self.receiver_adherent
            and self.gameplay_human_consistent
        )

    @property
    def error_class(self) -> ErrorClass:
        if self.strategy_ok:
            return ErrorClass.NONE if self.gameplay_ok else ErrorClass.GAMEPLAY_ONLY
        return ErrorClass.STRATEGY_ONLY if self.gameplay_ok else ErrorClass.BOTH


def _round_flags(transcript: Transcript) -> list[RoundFlag]:
    """Generic band breaks of each observed round, in order, before any is
    excused. One walk carries what a later round is judged against: the
    round before it, whether every round so far was rejected, and the
    receiver's ceiling, which starts at its personality's round-1 boundary
    and only falls: accepting an offer proves the threshold is no higher."""
    bands, pair, final = bands_for(transcript.config.pot), transcript.pair, transcript.config.rounds
    (lo, hi), ceiling = bands.step, bands.accept_min(pair.receiver)
    flags: list[RoundFlag] = []
    prev, all_rejected = None, True
    for outcome in transcript.rounds:
        r, offer, decision = outcome.round, outcome.offer, outcome.decision
        if prev is None:
            if not bands.offer_fits(pair.proposer, offer):
                flags.append(RoundFlag(1, Role.PROPOSER, "opening_offer_band"))
            if (decision is Decision.ACCEPT) != (offer >= ceiling):
                flags.append(RoundFlag(1, Role.RECEIVER, "opening_decision_band"))
        elif prev.decision is Decision.ACCEPT:
            if abs(offer - prev.offer) > bands.slack:
                flags.append(RoundFlag(r, Role.PROPOSER, "offer_change_after_accept"))
        elif not lo <= offer - prev.offer <= hi:
            flags.append(RoundFlag(r, Role.PROPOSER, "offer_change_after_reject"))
        if prev is not None and decision is Decision.REJECT:
            if r == final and all_rejected and offer >= 1:
                flags.append(RoundFlag(r, Role.RECEIVER, "final_round_capitulation"))
            elif offer >= ceiling:
                flags.append(RoundFlag(r, Role.RECEIVER, "threshold_raised"))
        if decision is Decision.ACCEPT:
            all_rejected, ceiling = False, min(ceiling, offer)
        prev = outcome
    return flags


# Rules that are never excused by the player's own strategy: by the final
# round of a fruitless game a human takes something over nothing, whatever
# the declared plan said.
_NON_OVERRIDABLE_RULES = frozenset({"final_round_capitulation"})


def evaluate_transcript(transcript: Transcript) -> Verdict:
    """Grade a full transcript into a Verdict.

    Requires every configured round to be present in order
    (MalformedTranscriptError otherwise). Pure function of the transcript:
    it carries its pot, pair and strategies, so re-grading a stored
    transcript always reproduces the verdict.
    """
    game, pair, specs = transcript.config, transcript.pair, transcript.strategies
    numbers = [o.round for o in transcript.rounds]
    if numbers != list(range(1, game.rounds + 1)):
        raise MalformedTranscriptError(
            f"expected rounds 1..{game.rounds}, got {numbers}"
        )
    prop_spec, recv_spec = specs
    proposer_adherent, receiver_adherent = check_adherence(specs, transcript)
    spec_of = {Role.PROPOSER: prop_spec, Role.RECEIVER: recv_spec}
    flags = [
        flag
        for flag in _round_flags(transcript)
        if flag.rule in _NON_OVERRIDABLE_RULES
        or not follows(spec_of[flag.role], transcript, flag.round)
    ]
    return Verdict(
        proposer_strategy_complete=check_completeness(prop_spec, game),
        receiver_strategy_complete=check_completeness(recv_spec, game),
        proposer_strategy_consistent=check_personality_consistency(
            prop_spec, pair.proposer, game
        ),
        receiver_strategy_consistent=check_personality_consistency(
            recv_spec, pair.receiver, game
        ),
        proposer_adherent=proposer_adherent,
        receiver_adherent=receiver_adherent,
        gameplay_human_consistent=not flags,
        per_round_flags=tuple(flags),
    )
