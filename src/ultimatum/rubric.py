"""Human-behavior rubric for graded transcripts.

A run is judged on two independent axes:

* strategy quality - were both declared strategies complete and did their
  opening intent match the assigned personalities?
* gameplay quality - did each observed action both follow the declared
  strategy (adherence) and stay within the envelope of how a human with
  that personality plays (human consistency)?

Round 1 is judged against absolute personality bands. Later rounds are
judged relative to what came before: proposers keep offers in a similar
range after an acceptance and concede a modest increase after a
rejection; receivers never act on a threshold higher than the one their
own earlier actions implied, and after a full string of rejections they
are expected to take any nonzero offer in the final round rather than
walk away with nothing.

An action that breaks a generic band while faithfully following the
player's own declared strategy is charged to the strategy (which is where
the flaw lives), not to gameplay. That override is configurable; the
final-round capitulation expectation is never overridden. Gameplay is
judged on observed actions only, never on counterfactual states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .engine import Decision, Money, RoundOutcome
from .strategy import (
    ConsistencyBands,
    DEFAULT_BANDS,
    Personality,
    PersonalityPair,
    PrescribedDecision,
    PrescribedOffer,
    PROPOSER_TOLERANCE,
    RECEIVER_TOLERANCE,
    Role,
    StrategySpec,
    UncoveredStateError,
    check_adherence,
    check_completeness,
    check_personality_consistency,
    prescribed_action,
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
class RubricConfig:
    """Numeric knobs of the rubric, defaulted for the 100-cent pot.

    fair_accept_min/greedy_accept_min are the round-1 decision boundaries
    (fair receivers accept 40 and up; greedy receivers accept only above
    50, hence 51). strategy_override controls whether a strategy-sanctioned
    action escapes the generic gameplay bands.
    """

    bands: ConsistencyBands = field(default_factory=ConsistencyBands)
    fair_accept_min: Money = 40
    greedy_accept_min: Money = 51
    similar_slack: Money = 5
    increase_min: Money = 1
    increase_max: Money = 15
    proposer_tolerance: Money = PROPOSER_TOLERANCE
    receiver_tolerance: Money = RECEIVER_TOLERANCE
    strategy_override: bool = True


DEFAULT_RUBRIC = RubricConfig(bands=DEFAULT_BANDS)


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
    boolean (adherence or human consistency) failed. A consistency check
    that was undecidable because the deciding field is missing counts as
    true here; the absence itself is already a completeness failure.
    """

    proposer_strategy_complete: bool
    receiver_strategy_complete: bool
    proposer_strategy_consistent: bool
    receiver_strategy_consistent: bool
    proposer_adherent: bool
    receiver_adherent: bool
    gameplay_human_consistent: bool
    per_round_flags: tuple[RoundFlag, ...]
    error_class: ErrorClass

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
    def human_consistent(self) -> bool:
        return self.error_class is ErrorClass.NONE


def evaluate_initial_offer(
    offer: Money, personality: Personality, config: RubricConfig = DEFAULT_RUBRIC
) -> bool:
    """Is the round-1 offer within the personality's band?

    Fair proposers open near the even split (40..60); greedy proposers
    open below 50.
    """
    if personality is Personality.FAIR:
        lo, hi = config.bands.fair_proposer
        return lo <= offer <= hi
    return offer < config.bands.greedy_proposer_below


def evaluate_initial_decision(
    offer: Money,
    decision: Decision,
    personality: Personality,
    config: RubricConfig = DEFAULT_RUBRIC,
) -> bool:
    """Is the round-1 decision the one the personality calls for?

    Fair receivers accept anything from 40 up and reject below; greedy
    receivers accept only offers strictly above 50.
    """
    if personality is Personality.FAIR:
        wants_accept = offer >= config.fair_accept_min
    else:
        wants_accept = offer >= config.greedy_accept_min
    return decision is (Decision.ACCEPT if wants_accept else Decision.REJECT)


def _receiver_ceiling(
    history: tuple[RoundOutcome, ...],
    personality: Personality,
    config: RubricConfig,
) -> Money:
    """Highest threshold the receiver's past actions still allow.

    Starts at the personality's round-1 boundary and only falls: accepting
    an offer proves the threshold is no higher than that offer.
    """
    ceiling = (
        config.fair_accept_min
        if personality is Personality.FAIR
        else config.greedy_accept_min
    )
    for outcome in history:
        if outcome.decision is Decision.ACCEPT:
            ceiling = min(ceiling, outcome.offer)
    return ceiling


def _subsequent_flags(
    history: tuple[RoundOutcome, ...],
    offer: Money,
    decision: Decision,
    pair: PersonalityPair,
    round_no: int,
    total_rounds: int,
    config: RubricConfig,
) -> list[RoundFlag]:
    flags: list[RoundFlag] = []
    prev = history[-1]
    if prev.decision is Decision.ACCEPT:
        if abs(offer - prev.offer) > config.similar_slack:
            flags.append(RoundFlag(round_no, Role.PROPOSER, "offer_change_after_accept"))
    else:
        if not config.increase_min <= offer - prev.offer <= config.increase_max:
            flags.append(RoundFlag(round_no, Role.PROPOSER, "offer_change_after_reject"))
    if decision is Decision.REJECT:
        all_rejected = all(o.decision is Decision.REJECT for o in history)
        if round_no == total_rounds and all_rejected and offer >= 1:
            flags.append(RoundFlag(round_no, Role.RECEIVER, "final_round_capitulation"))
        elif offer >= _receiver_ceiling(history, pair.receiver, config):
            flags.append(RoundFlag(round_no, Role.RECEIVER, "threshold_raised"))
    return flags


# Rules that are never excused by the player's own strategy: by the final
# round of a fruitless game a human takes something over nothing, whatever
# the declared plan said.
_NON_OVERRIDABLE_RULES = frozenset({"final_round_capitulation"})


def _sanctioned_by_strategy(
    flag: RoundFlag,
    specs: tuple[StrategySpec, StrategySpec],
    rounds: tuple[RoundOutcome, ...],
    transcript: Transcript,
    config: RubricConfig,
) -> bool:
    if flag.rule in _NON_OVERRIDABLE_RULES:
        return False
    spec = specs[0] if flag.role is Role.PROPOSER else specs[1]
    outcome = rounds[flag.round - 1]
    history = rounds[: flag.round - 1]
    try:
        prescribed = prescribed_action(
            spec,
            transcript.config,
            history,
            flag.round,
            pending_offer=outcome.offer if flag.role is Role.RECEIVER else None,
        )
    except UncoveredStateError:
        return False
    if isinstance(prescribed, PrescribedOffer):
        return prescribed.contains(outcome.offer, slack=config.proposer_tolerance)
    assert isinstance(prescribed, PrescribedDecision)
    return prescribed.decision is outcome.decision


def evaluate_transcript(
    transcript: Transcript,
    pair: PersonalityPair | None = None,
    specs: tuple[StrategySpec, StrategySpec] | None = None,
    config: RubricConfig = DEFAULT_RUBRIC,
) -> Verdict:
    """Grade a full transcript into a Verdict.

    pair and specs default to what the transcript carries. Requires every
    configured round to be present in order (MalformedTranscriptError
    otherwise). Pure function of its inputs: re-grading a stored
    transcript always reproduces the same verdict.
    """
    pair = pair if pair is not None else transcript.pair
    specs = specs if specs is not None else transcript.strategies
    game = transcript.config
    numbers = [o.round for o in transcript.rounds]
    if numbers != list(range(1, game.rounds + 1)):
        raise MalformedTranscriptError(
            f"expected rounds 1..{game.rounds}, got {numbers}"
        )
    prop_spec, recv_spec = specs

    prop_complete = check_completeness(prop_spec, game).complete
    recv_complete = check_completeness(recv_spec, game).complete
    prop_consistent = check_personality_consistency(prop_spec, pair.proposer, config.bands)
    recv_consistent = check_personality_consistency(recv_spec, pair.receiver, config.bands)
    adherence = check_adherence(
        (prop_spec, recv_spec),
        transcript,
        proposer_tolerance=config.proposer_tolerance,
        receiver_tolerance=config.receiver_tolerance,
    )

    flags: list[RoundFlag] = []
    for outcome in transcript.rounds:
        if outcome.round == 1:
            if not evaluate_initial_offer(outcome.offer, pair.proposer, config):
                flags.append(RoundFlag(1, Role.PROPOSER, "opening_offer_band"))
            if not evaluate_initial_decision(
                outcome.offer, outcome.decision, pair.receiver, config
            ):
                flags.append(RoundFlag(1, Role.RECEIVER, "opening_decision_band"))
        else:
            flags.extend(
                _subsequent_flags(
                    transcript.rounds[: outcome.round - 1],
                    outcome.offer,
                    outcome.decision,
                    pair,
                    outcome.round,
                    game.rounds,
                    config,
                )
            )
    if config.strategy_override:
        flags = [
            f
            for f in flags
            if not _sanctioned_by_strategy(f, specs, transcript.rounds, transcript, config)
        ]

    gameplay_consistent = not flags
    strategy_ok = (
        prop_complete
        and recv_complete
        and prop_consistent.consistent is not False
        and recv_consistent.consistent is not False
    )
    gameplay_ok = (
        adherence.proposer_adherent and adherence.receiver_adherent and gameplay_consistent
    )
    if strategy_ok and gameplay_ok:
        error_class = ErrorClass.NONE
    elif gameplay_ok:
        error_class = ErrorClass.STRATEGY_ONLY
    elif strategy_ok:
        error_class = ErrorClass.GAMEPLAY_ONLY
    else:
        error_class = ErrorClass.BOTH

    return Verdict(
        proposer_strategy_complete=prop_complete,
        receiver_strategy_complete=recv_complete,
        proposer_strategy_consistent=prop_consistent.consistent is not False,
        receiver_strategy_consistent=recv_consistent.consistent is not False,
        proposer_adherent=adherence.proposer_adherent,
        receiver_adherent=adherence.receiver_adherent,
        gameplay_human_consistent=gameplay_consistent,
        per_round_flags=tuple(flags),
        error_class=error_class,
    )
