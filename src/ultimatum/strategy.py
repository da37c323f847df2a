"""Structured player strategies and checks against them.

A strategy is the plan a player declares before the game starts. Proposer
plans name an opening offer plus an adjustment for each of the two things
that can happen to it (acceptance, rejection), optionally capped by a
cut-off the proposer will not concede past. Receiver plans are per-round
acceptance thresholds, optionally replaced in the final round by a
capitulation rule.

Three independent questions are asked of a strategy, each answered yes
or no:

* completeness - does it prescribe a move for every reachable state?
* personality consistency - does its opening intent match the assigned
  personality (fair or greedy)?
* adherence - did the observed play follow it? `follows` answers this for
  one round and is the only place an observed action is compared with
  the move the strategy prescribes.

A strategy may be complete yet inconsistent, or consistent yet ignored in
play; the grading rubric combines these verdicts, this module only
computes them.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence, Union

from .engine import Decision, GameConfig, Money, RoundOutcome

if TYPE_CHECKING:  # only for annotations; transcripts imports this module
    from .transcripts import Transcript


class Personality(enum.Enum):
    FAIR = "fair"
    GREEDY = "greedy"


class Role(enum.Enum):
    PROPOSER = "proposer"
    RECEIVER = "receiver"


@dataclass(frozen=True)
class PersonalityPair:
    """Assigned personalities for one game, proposer first."""

    proposer: Personality
    receiver: Personality

    def label(self) -> str:
        return f"{self.proposer.value}-{self.receiver.value}"

    @classmethod
    def from_label(cls, label: str) -> "PersonalityPair":
        """The pair a label such as `fair-greedy` names, in any letter case."""
        try:
            return _PAIRS_BY_LABEL[label.lower()]
        except KeyError:
            raise ValueError(f"bad personality pair label: {label!r}") from None


ALL_PAIRS = tuple(
    PersonalityPair(p, r) for p in Personality for r in Personality
)
_PAIRS_BY_LABEL = {pair.label(): pair for pair in ALL_PAIRS}


class AdjustKind(enum.Enum):
    KEEP = "keep"
    INCREASE_BY = "increase_by"
    DECREASE_BY = "decrease_by"
    SET_TO = "set_to"


# ---------------------------------------------------------------------------
# Personality bands
# ---------------------------------------------------------------------------

# Smallest pot the bands hold for, and so the smallest that plans and
# `ultimatum grade --pot` accept: below it a fifth of the pot rounds to no
# cent, so the greedy oracle opens at 0 and the planted deviation vanishes.
MIN_POT: Money = 5


@dataclass(frozen=True)
class Bands:
    """Every personality threshold of one pot, in cents.

    The one home of the numbers that grading and the scripted oracles use.
    Each is a share of the pot in integer arithmetic; the comments give
    the values for a 100-cent pot.
    """

    fair_offer: tuple[Money, Money]  # fair proposers open within (40, 60)
    greedy_offer_below: Money  # greedy proposers open strictly below (50)
    fair_threshold: tuple[Money, Money]  # fair receivers' round-1 threshold (40, 50)
    greedy_min: Money  # greedy receivers want more than half (51)
    # Drift that still counts as the same offer, or as following a
    # qualitative plan ("around half"): a twentieth of the pot (5).
    slack: Money
    # A modest concession after a rejection; also what an open-ended
    # "increase the offer" plan allows (1, 15).
    step: tuple[Money, Money]
    # How the scripted oracles play: opening offers (50, 20), concession
    # (5), the greedy receiver's threshold (55; the fair one accepts from
    # the band's lower edge) and the planted deviation (20).
    fair_open: Money
    greedy_open: Money
    oracle_step: Money
    greedy_hold: Money
    deviation: Money

    def offer_fits(self, personality: Personality, offer: Money) -> bool:
        """Is this opening offer within the personality's band?"""
        if personality is Personality.FAIR:
            lo, hi = self.fair_offer
            return lo <= offer <= hi
        return offer < self.greedy_offer_below

    def threshold_fits(self, personality: Personality, threshold: Money) -> bool:
        """Is this round-1 acceptance threshold within the personality's band?

        A fair receiver may insist on an even split, so its band reaches
        half the pot although it accepts from the band's lower edge.
        """
        if personality is Personality.FAIR:
            lo, hi = self.fair_threshold
            return lo <= threshold <= hi
        return threshold >= self.greedy_min

    def accept_min(self, personality: Personality) -> Money:
        """The smallest round-1 offer the personality accepts."""
        return self.fair_threshold[0] if personality is Personality.FAIR else self.greedy_min


@functools.lru_cache(maxsize=256)
def bands_for(pot: Money) -> Bands:
    """The personality bands of a pot; below MIN_POT the planted flaws misgrade."""
    return Bands(
        fair_offer=(2 * pot // 5, 3 * pot // 5),
        greedy_offer_below=pot // 2,
        fair_threshold=(2 * pot // 5, pot // 2),
        greedy_min=pot // 2 + 1,
        slack=pot // 20,
        step=(1, max(1, 3 * pot // 20)),
        fair_open=pot // 2,
        greedy_open=pot // 5,
        oracle_step=max(1, pot // 20),
        greedy_hold=max(11 * pot // 20, pot // 2 + 1),  # 11/20 of a small pot is not over half
        deviation=pot // 5,
    )


@dataclass(frozen=True)
class AdjustRule:
    """How the next offer relates to the previous one.

    amount is None for KEEP, and for INCREASE_BY/DECREASE_BY whose
    magnitude the plan left open ("raise the offer a little").
    """

    kind: AdjustKind
    amount: Money | None = None

    def __post_init__(self) -> None:
        if self.kind is AdjustKind.KEEP and self.amount is not None:
            raise ValueError("KEEP takes no amount")
        if self.kind is AdjustKind.SET_TO and self.amount is None:
            raise ValueError("SET_TO requires an amount")
        if self.amount is not None and self.amount < 0:
            raise ValueError(f"adjustment amount must be >= 0, got {self.amount}")


@dataclass(frozen=True)
class CutoffRule:
    """Ceiling past which the proposer stops conceding.

    A plan can declare a cut-off without naming a number ("there is a
    point where it is no longer worth it"); then limit is None.
    """

    limit: Money | None = None


@dataclass(frozen=True)
class ProposerStrategy:
    initial_offer: Money | None = None
    on_accept: AdjustRule | None = None
    on_reject: AdjustRule | None = None
    cutoff: CutoffRule | None = None


class FinalRoundRule(enum.Enum):
    KEEP_THRESHOLD = "keep_threshold"
    ACCEPT_ANY_NONZERO = "accept_any_nonzero"


@dataclass(frozen=True)
class ReceiverStrategy:
    """Per-round acceptance thresholds.

    threshold applies to every round not named in round_thresholds. A
    threshold of pot+1 encodes "reject everything". final_round_rule, when
    present, governs the last round: ACCEPT_ANY_NONZERO takes any offer of
    a cent or more, KEEP_THRESHOLD applies the threshold of the round
    before unless round_thresholds names the last round (a plan with
    neither leaves the last round uncovered).
    """

    threshold: Money | None = None
    round_thresholds: Mapping[int, Money] = field(default_factory=dict)
    final_round_rule: FinalRoundRule | None = None

    def threshold_for(self, round_no: int) -> Money | None:
        return self.round_thresholds.get(round_no, self.threshold)


@dataclass(frozen=True)
class StrategySpec:
    """A parsed strategy together with the raw text it came from."""

    role: Role
    raw_text: str
    parsed: Union[ProposerStrategy, ReceiverStrategy]

    def __post_init__(self) -> None:
        expected = ProposerStrategy if self.role is Role.PROPOSER else ReceiverStrategy
        if not isinstance(self.parsed, expected):
            raise ValueError(f"{self.role.value} spec holds {type(self.parsed).__name__}")


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


def _threshold(plan: ReceiverStrategy, round_no: int, rounds: int) -> Money | None:
    """The acceptance threshold a receiver plan sets for a round; None if uncovered.

    In the final round "accept any nonzero offer" caps the threshold at one
    cent, and "keep the threshold" carries over the one of the round before
    unless the plan names one for the final round itself.
    """
    if (
        round_no == rounds
        and plan.final_round_rule is FinalRoundRule.KEEP_THRESHOLD
        and round_no not in plan.round_thresholds
    ):
        return plan.threshold_for(round_no - 1)
    threshold = plan.threshold_for(round_no)
    if round_no == rounds and plan.final_round_rule is FinalRoundRule.ACCEPT_ANY_NONZERO:
        return 1 if threshold is None else min(threshold, 1)
    return threshold


def check_completeness(spec: StrategySpec, config: GameConfig) -> bool:
    """Does the strategy prescribe a move for every reachable state?

    A proposer plan is complete when it names an opening offer and, if
    there is a second round, covers both continuations (previous offer
    accepted / rejected). Cut-offs are optional refinements and never
    counted against completeness. A receiver plan is complete when every
    round has a threshold (a blanket threshold covers all rounds; a
    final-round rule can cover the last). Either way that is when
    `prescribed_action` answers in every state the game can reach.
    """
    plan = spec.parsed
    if isinstance(plan, ProposerStrategy):
        continuations = (plan.on_accept, plan.on_reject) if config.rounds > 1 else ()
        return all(part is not None for part in (plan.initial_offer, *continuations))
    return all(
        _threshold(plan, r, config.rounds) is not None for r in range(1, config.rounds + 1)
    )


# ---------------------------------------------------------------------------
# Personality consistency
# ---------------------------------------------------------------------------


def check_personality_consistency(
    spec: StrategySpec, personality: Personality, config: GameConfig
) -> bool:
    """Does the declared first-round intent fit the personality's band?

    Only the opening matters here: later-round adjustments are judged
    against observed play, not against the personality. A plan that leaves
    the deciding field out passes, because completeness already charges
    that gap.
    """
    bands = bands_for(config.pot)
    plan = spec.parsed
    if isinstance(plan, ProposerStrategy):
        offer = plan.initial_offer
        return offer is None or bands.offer_fits(personality, offer)
    threshold = plan.threshold_for(1)
    return threshold is None or bands.threshold_fits(personality, threshold)


# ---------------------------------------------------------------------------
# Prescribed actions and adherence
# ---------------------------------------------------------------------------


class PrescribedOffer(NamedTuple):
    """Offer range sanctioned by the plan; exact rules have lo == hi."""

    lo: Money
    hi: Money


class PrescribedDecision(NamedTuple):
    decision: Decision


PrescribedAction = Union[PrescribedOffer, PrescribedDecision]

# A receiver's prescription is one of two values, so it is built once each.
_PRESCRIBED_ACCEPT = PrescribedDecision(Decision.ACCEPT)
_PRESCRIBED_REJECT = PrescribedDecision(Decision.REJECT)


def prescribed_action(
    spec: StrategySpec,
    config: GameConfig,
    history: Sequence[RoundOutcome],
    round_no: int,
    pending_offer: Money | None = None,
) -> PrescribedAction | None:
    """The move the strategy dictates at the given state, or None if it has no rule.

    Pure function of its inputs. history holds the completed rounds before
    round_no; receivers additionally need the offer on the table. A step
    the plan left open may be anything in the pot's concession band.

    Raises:
        ValueError: the query itself is malformed (history too short,
            receiver query without a pending offer).
    """
    if not 1 <= round_no <= config.rounds:
        raise ValueError(f"round {round_no} outside 1..{config.rounds}")
    if len(history) < round_no - 1:
        raise ValueError(f"history has {len(history)} rounds, need {round_no - 1}")

    plan = spec.parsed
    if isinstance(plan, ProposerStrategy):
        if round_no == 1:
            if plan.initial_offer is None:
                return None
            return PrescribedOffer(plan.initial_offer, plan.initial_offer)
        prev = history[round_no - 2]
        rule = plan.on_accept if prev.decision is Decision.ACCEPT else plan.on_reject
        if rule is None:
            return None
        lo, hi = _apply_adjust(rule, prev.offer, config.pot)
        if plan.cutoff is not None and plan.cutoff.limit is not None:
            lo = min(lo, plan.cutoff.limit)
            hi = min(hi, plan.cutoff.limit)
        lo = max(0, min(lo, config.pot))
        hi = max(0, min(hi, config.pot))
        return PrescribedOffer(lo, hi)

    if pending_offer is None:
        raise ValueError("receiver prescription needs the pending offer")
    threshold = _threshold(plan, round_no, config.rounds)
    if threshold is None:
        return None
    return _PRESCRIBED_ACCEPT if pending_offer >= threshold else _PRESCRIBED_REJECT


def _apply_adjust(rule: AdjustRule, prev_offer: Money, pot: Money) -> tuple[Money, Money]:
    if rule.kind is AdjustKind.KEEP:
        return prev_offer, prev_offer
    if rule.kind is AdjustKind.SET_TO:
        assert rule.amount is not None
        return rule.amount, rule.amount
    if rule.amount is not None:
        lo_step = hi_step = rule.amount
    else:
        lo_step, hi_step = bands_for(pot).step
    if rule.kind is AdjustKind.INCREASE_BY:
        return prev_offer + lo_step, prev_offer + hi_step
    return prev_offer - hi_step, prev_offer - lo_step


def follows(spec: StrategySpec, transcript: "Transcript", round_no: int) -> bool | None:
    """Did the player's action in this round follow its declared strategy?

    None when the strategy does not cover the state (the gap is charged to
    completeness). Proposer plans are often qualitative ("around half"), so
    an offer follows within the pot's slack of the prescribed range;
    decisions are discrete and must match exactly.
    """
    outcome = transcript.rounds[round_no - 1]
    prescribed = prescribed_action(
        spec,
        transcript.config,
        transcript.rounds[: round_no - 1],
        round_no,
        pending_offer=outcome.offer if spec.role is Role.RECEIVER else None,
    )
    if prescribed is None:
        return None
    if isinstance(prescribed, PrescribedOffer):
        slack = bands_for(transcript.config.pot).slack
        return prescribed.lo - slack <= outcome.offer <= prescribed.hi + slack
    return prescribed.decision is outcome.decision


def check_adherence(
    specs: tuple[StrategySpec, StrategySpec],
    transcript: "Transcript",
) -> tuple[bool, bool]:
    """(proposer adherent, receiver adherent): did observed play follow the strategies?

    A player is adherent when no round contradicts its strategy; states the
    strategy does not cover are skipped.
    """
    proposer_spec, receiver_spec = specs
    if proposer_spec.role is not Role.PROPOSER or receiver_spec.role is not Role.RECEIVER:
        raise ValueError("specs must be (proposer, receiver)")
    proposer_adherent, receiver_adherent = (
        all(follows(spec, transcript, o.round) is not False for o in transcript.rounds)
        for spec in specs
    )
    return proposer_adherent, receiver_adherent
