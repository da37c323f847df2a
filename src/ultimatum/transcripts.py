"""Log parsing and the canonical transcript format.

Raw game logs arrive in two shapes: a single combined log covering both
strategies and all rounds, or a pair of per-agent logs that each record
one player's view. Parsing is two-tier:

* tier 1 reads the structured markers the prompts ask for (``STRATEGY``,
  ``OFFER:``, ``DECISION:`` and bracket labels like ``[Round 1]``);
* tier 2 falls back to keyword and regex heuristics over free text when
  markers are absent or incomplete.

Each round segment is split and unlabelled once. Its offer and decision
are each looked for among the tier-1 markers first; the tier-2 heuristics
run only when no marker answered. Diagnostics report Exact confidence
only when every extracted value came from a marker; if any heuristic
fired the parse is Heuristic. Parsing never invents data: a round whose
offer or decision cannot be located is an error, not a guess. Payoff
lines in logs are advisory only; payoffs are always recomputed by the
engine and mismatches become warnings.

Both log parsers read rounds through one round reader, which splits a log
at its round headings and reads each segment's offer and decision. Each
parser then makes only its own checks (one log, or two reconciled), and
one shared tail replays the actions and parses both strategies.

Strategy text is read clause by clause. Besides money amounts, a clause's
amounts include shares of the pot ("40%", "40 percent", "half the pot"),
rounded down to whole cents; replies and payoff lines never read them.

Strategy-text parses are pure, so `parse_strategy_text` memoizes them in
a bounded, process-wide cache keyed by text, role and game config; the
cached plans are never handed to callers to mutate.

The canonical format is a versioned, line-oriented rendering of a parsed
transcript that round-trips losslessly (see docs/transcript-format.md for
the field order).
"""

from __future__ import annotations

import enum
import functools
import json
import re
from dataclasses import dataclass
from decimal import Context, Decimal
from typing import NamedTuple

from . import engine, prompts
from .engine import Decision, GameConfig, Money, RoundOutcome
from .strategy import (
    ALL_PAIRS,
    AdjustKind,
    AdjustRule,
    CutoffRule,
    FinalRoundRule,
    PersonalityPair,
    ProposerStrategy,
    ReceiverStrategy,
    Role,
    StrategySpec,
)


class Structure(enum.Enum):
    SINGLE_MODEL = "single_model"
    MULTI_AGENT = "multi_agent"


class Confidence(enum.Enum):
    EXACT = "exact"
    HEURISTIC = "heuristic"


class UnparseableLogError(Exception):
    """The log does not contain a recoverable, legal game."""


class InconsistentLogsError(Exception):
    """The two agent logs disagree about what happened."""


class SchemaVersionError(Exception):
    """Canonical transcript written under an unknown format version."""


class MalformedRecordError(Exception):
    """Canonical transcript text violates the v1 schema."""


@dataclass(frozen=True)
class ParseDiagnostics:
    confidence: Confidence
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class Transcript:
    """A fully parsed game: who played, what was declared, what happened.

    rounds are engine-recomputed outcomes in round order; raw_logs carries
    the original text(s) opaquely as (label, text) pairs so any transcript
    can be re-parsed and re-graded later.
    """

    config: GameConfig
    pair: PersonalityPair
    structure: Structure
    strategies: tuple[StrategySpec, StrategySpec]  # (proposer, receiver)
    rounds: tuple[RoundOutcome, ...]
    raw_logs: tuple[tuple[str, str], ...] = ()


# The log and reply patterns run over every line and log, so where it pays
# each opens with a test that lets `re` pass over, in C, the positions where
# it cannot start. `re` does so only for a pattern that opens with a
# character class outside IGNORECASE. So a word read case-insensitively
# opens with its first letter in both cases plus whatever else Python's case
# folding maps to that letter (U+017F, long s, for "s"; U+212A, the Kelvin
# sign, for "k"), then `(?<!\w.)` where the word used to open with "\b",
# then the rest of the word under `(?i:...)`. The amount pattern, whose
# groups start where the match does, opens with a one-character lookahead
# instead, which still fails sooner than the whole pattern. Each rewritten
# pattern matches exactly as the plain form it replaced:
# tests/test_parse_equivalence.py keeps the plain forms and checks each
# pair against each other.


# ---------------------------------------------------------------------------
# Money amounts
# ---------------------------------------------------------------------------

# Alternatives are ordered so "$0.50" is consumed whole rather than as "$0".
# Accepted forms: $0.50  $.50  $1  $1.25  $1,250.00  50 cents  5 cents  45¢
# A comma counts as a thousands separator only before exactly three digits,
# so "$1,250" is 125000 cents while "$1,25" stays "$1". Every amount starts
# with "$" or a digit, and the lookahead says so first.
_AMOUNT_RE = re.compile(
    r"""
    (?=[$\d])(?:
      \$(?P<dollars>\d{1,3}(?:,\d{3})+(?!\d)|\d+)\.(?P<frac>\d{1,2})   # $0.50, $1.25, $1.5
    | \$\.(?P<frac_only>\d{1,2})                                   # $.50
    | \$(?P<whole>\d{1,3}(?:,\d{3})+(?!\d)|\d+)                       # $1, $1,250
    | (?<!\d)(?P<cents>\d{1,3}(?:,\d{3})+(?!\d)|\d+)\s*(?:cents?\b|¢)  # 50 cents, 45¢
    )
    """,
    re.VERBOSE | re.IGNORECASE,
)


class AmountMatch(NamedTuple):
    cents: Money
    span: tuple[int, int]
    text: str


# A run of more than 18 digits names no amount or round that a game has
# (engine.MAX_POT and a header's rounds hold at most 18; int() refuses more
# than 4300), so it reads as _BEYOND, past every pot and every round.
_BEYOND = engine.MAX_POT + 1


def _number(digits: str) -> int:
    return int(digits) if len(digits) <= 18 else _BEYOND


def _to_cents(
    dollars: str | None, frac: str | None, frac_only: str | None, whole: str | None, cents: str | None
) -> Money:
    """The cents that the groups of one `_AMOUNT_RE` match name. A group that
    took no part is None in a match object and "" from `findall`. One
    decimal digit means tenths of a dollar: $0.5 is 50 cents."""
    if cents:
        return _number(cents.replace(",", ""))
    frac = frac or frac_only
    tail = int(frac.ljust(2, "0")) if frac else 0
    units = dollars or whole
    return _number(units.replace(",", "")) * 100 + tail if units else tail


def _amount_cents(text: str) -> list[Money]:
    """The cents of every money amount in the text, in document order: what
    `extract_amounts` reads, without the spans that only strategy text needs."""
    return [_to_cents(*groups) for groups in _AMOUNT_RE.findall(text)]


def extract_amounts(text: str) -> list[AmountMatch]:
    """All money amounts in the text, in document order, as integer cents with
    the span and text of each (a run of over 18 digits is past every pot)."""
    return [AmountMatch(_to_cents(*m.groups()), m.span(), m.group(0)) for m in _AMOUNT_RE.finditer(text)]


# ---------------------------------------------------------------------------
# Decisions in free text
# ---------------------------------------------------------------------------

_ACCEPT_WORDS = {"accept", "accepts", "accepted", "accepting"}
_REJECT_WORDS = {
    "reject",
    "rejects",
    "rejected",
    "rejecting",
    "decline",
    "declines",
    "declined",
    "refuse",
    "refuses",
    "refused",
}
_NEGATIONS = {"not", "no", "never", "cannot"}
# Words that mark a hypothetical rather than an actual decision ("if you
# reject this...", "you should accept"). Such mentions are skipped.
_CONDITIONALS = {"if", "unless", "whether", "should", "might", "may", "could"}

# Letters of any alphabet, read under case folding as the markers are.
_WORD_RE = re.compile(r"(?:[^\W\d_]|')+")


def _decision_hits(line: str) -> list[Decision]:
    tokens = [t.casefold() for t in _WORD_RE.findall(line)]
    hits: list[Decision] = []
    for i, tok in enumerate(tokens):
        if tok in _ACCEPT_WORDS:
            base = Decision.ACCEPT
        elif tok in _REJECT_WORDS:
            base = Decision.REJECT
        else:
            continue
        if any(t in _CONDITIONALS for t in tokens[max(0, i - 4) : i]):
            continue
        flips = sum(
            1 for t in tokens[max(0, i - 3) : i] if t in _NEGATIONS or t.endswith("n't")
        )
        if flips % 2:
            base = Decision.REJECT if base is Decision.ACCEPT else Decision.ACCEPT
        hits.append(base)
    return hits


# ---------------------------------------------------------------------------
# Markers (tier 1)
# ---------------------------------------------------------------------------

_OFFER_MARKER_RE = re.compile(r"^\s*\W*offer\s*:\s*(?P<rest>.*)$", re.IGNORECASE)
_DECISION_MARKER_RE = re.compile(r"^\s*\W*decision\s*:\s*(?P<rest>.*)$", re.IGNORECASE)
_STRATEGY_MARKER_RE = re.compile(
    r"^\s*strategy\s*[\(\[]?\s*(?P<role>proposer|receiver)\s*[\)\]]?\s*:?\s*(?P<rest>.*)$",
    re.IGNORECASE,
)
_BRACKET_LABEL_RE = re.compile(r"^\s*\[(?P<label>[a-zA-Z ]+)\]\s*(?P<rest>.*)$")


def _is_marker_line(line: str) -> bool:
    return bool(
        _STRATEGY_MARKER_RE.match(line)
        or _OFFER_MARKER_RE.match(line)
        or _DECISION_MARKER_RE.match(line)
        or _BRACKET_LABEL_RE.match(line)
        or _ROUND_HEADING_RE.match(line)
    )


# ---------------------------------------------------------------------------
# Round segmentation
# ---------------------------------------------------------------------------

# A heading starts a line, and "^" is already one cheap test per position:
# the first character of a heading may be a space or any punctuation, so a
# first-character class would let through more than it rules out.
_ROUND_HEADING_RE = re.compile(r"^[^\w\n]*round\s+(\d+)\b", re.IGNORECASE | re.MULTILINE)
_ROUND_INLINE_RE = re.compile(r"[Rr](?<!\w.)(?i:ound\s+(\d+)\b)")


def _round_candidates(text: str) -> list[tuple[int, int, int]]:
    """(start, end, number) for every plausible round heading.

    Line-initial headings ("Round 3:", "[Round 3]", "**Round 3**") always
    qualify; an inline mention qualifies only when it starts a sentence,
    which keeps "accept anything in round 5" inside strategy prose from
    being mistaken for the round-5 section. The inline match inside a
    heading is skipped, so the heading's "[" or "**" stays out of the
    text before it.
    """
    by_start: dict[int, tuple[int, int, int]] = {}
    for m in _ROUND_HEADING_RE.finditer(text):
        by_start[m.start()] = (m.start(), m.end(), _number(m.group(1)))
    heading_ends = {end for _, end, _ in by_start.values()}
    for m in _ROUND_INLINE_RE.finditer(text):
        if m.end() in heading_ends:
            continue
        # The character before the mention, past openers such as "**" or "[".
        i = m.start()
        while i and text[i - 1] in " \t*#>[(\"'":
            i -= 1
        if not i or text[i - 1] in ".!?\n":
            by_start[m.start()] = (m.start(), m.end(), _number(m.group(1)))
    return sorted(by_start.values())


def _round_chain(text: str, rounds: int) -> list[tuple[int, int, int]]:
    """Choose one heading per round 1..rounds, in order.

    Works backwards from the last mention of the final round so that
    strategy text mentioning early rounds does not steal a heading: one
    pass from the last candidate takes each whose number is the next one
    wanted (rounds, then rounds - 1, ...). A short chain falls back to a
    forward scan, which returns the longest prefix found (callers decide
    whether a short chain is an error).
    """
    cands = _round_candidates(text)
    chain: list[tuple[int, int, int]] = []
    for cand in reversed(cands):
        if cand[2] == rounds - len(chain):
            chain.append(cand)
            if len(chain) == rounds:
                return chain[::-1]
    # Forward scan: first heading for each successive number.
    chain = []
    pos = -1
    for n in range(1, rounds + 1):
        nxt = next((c for c in cands if c[2] == n and c[0] > pos), None)
        if nxt is None:
            break
        chain.append(nxt)
        pos = nxt[0]
    return chain


# ---------------------------------------------------------------------------
# Per-segment extraction
# ---------------------------------------------------------------------------

# offer|offers|offered|offering|propose|proposes|proposed|proposing, as whole words
_OFFER_VERB_RE = re.compile(
    r"([OoPp](?<!\w.)(?i:(?<=o)ffer(?:s|ed|ing)?|(?<=p)ropos(?:e|es|ed|ing)))\b"
)
# threshold|strateg
_OFFER_SKIP_RE = re.compile(r"[TtSs\u017f](?i:(?<=t)hreshold|(?<=s)trateg)")
# receive|receives|received|gets|get|earn|earns|payoff|pocket|pockets|keeps, as whole words
_PAYOFF_LINE_RE = re.compile(
    r"([RrGgEePpKk\u212a](?<!\w.)"
    r"(?i:(?<=r)eceive[sd]?|(?<=g)ets?|(?<=e)arns?|(?<=p)(?:ayoff|ockets?)|(?<=k)eeps))\b"
)


def _unlabel(line: str) -> str:
    """Drop a leading bracket label so "[Say] OFFER: $1" reads as its content."""
    if "[" not in line:
        return line
    m = _BRACKET_LABEL_RE.match(line)
    return m.group("rest") if m else line


def _segment_lines(segment: str) -> list[str]:
    """A segment's lines with their bracket labels dropped, read once per segment."""
    return [_unlabel(line) for line in segment.split("\n")]


def _extract_offer(segment: str, lines: list[str]) -> tuple[Money | None, bool, list[str]]:
    """Locate the offer in a round segment: (cents, from_marker, warnings).

    lines is `_segment_lines(segment)`. The first OFFER marker with an
    amount wins; only when none has one is the prose searched.
    """
    warnings: list[str] = []
    for line in lines:
        m = _OFFER_MARKER_RE.match(line)
        if m:
            amounts = _amount_cents(m.group("rest"))
            if amounts:
                return amounts[0], True, warnings
            warnings.append("OFFER marker without a readable amount")
    for line in lines:
        if _OFFER_VERB_RE.search(line) and not _OFFER_SKIP_RE.search(line):
            amounts = _amount_cents(line)
            if amounts:
                return amounts[0], False, warnings
    amounts = _amount_cents(segment)
    if amounts:
        warnings.append("offer taken without an offer verb nearby")
        return amounts[0], False, warnings
    return None, False, warnings


def _extract_decision(lines: list[str]) -> tuple[Decision | None, bool, list[str]]:
    """Locate the decision in a segment's lines: (decision, from_marker, warnings).

    The first DECISION marker with a decision word wins; only when none
    has one are the decision words of every line read.
    """
    warnings: list[str] = []
    for line in lines:
        m = _DECISION_MARKER_RE.match(line)
        if m:
            hits = _decision_hits(m.group("rest"))
            if hits:
                return hits[0], True, warnings
            warnings.append("DECISION marker without a readable decision")
    first: Decision | None = None
    for line in lines:
        for hit in _decision_hits(line):
            if first is None:
                first = hit
            elif hit is not first:
                warnings.append("conflicting decision words; using the first")
                return first, False, warnings
    return first, False, warnings


def _check_payoffs(
    lines: list[str], offer: Money, decision: Decision, pot: Money, round_no: int
) -> list[str]:
    """Compare any payoff sentence in a segment's lines against the engine's arithmetic."""
    if decision is Decision.ACCEPT:
        expected = sorted((pot - offer, offer))
    else:
        expected = [0, 0]
    for line in lines:
        if not _PAYOFF_LINE_RE.search(line) or _OFFER_VERB_RE.search(line):
            continue
        amounts = _amount_cents(line)
        if len(amounts) >= 2 and sorted(amounts[:2]) != expected:
            return [
                f"round {round_no}: payoff line says {amounts[:2]}, engine computes {expected}"
            ]
    return []


# ---------------------------------------------------------------------------
# Strategy text -> structured fields
# ---------------------------------------------------------------------------

# ", and" or ", but" ends a clause when a new condition or round scope
# follows: "raise by $0.10, and if accepted, keep it" holds two rules.
_CLAUSE_SPLIT_RE = re.compile(
    r"(?:\.(?!\d))|[!?;\n]+|,\s*(?:and|but)\s+(?=(?:if|when|whenever|once|unless)\b"
    r"|in\s+(?:round\s+\d|rounds\b|the\s+(?:final|last)\s+round\b))",
    re.IGNORECASE,
)
_BULLET_PREFIX_RE = re.compile(r"^[\s\-\*\d\)\.:#]+")

_CONDITIONAL_RE = re.compile(
    r"\b(if|when|whenever|once|after|upon|should|unless|following|in case|every time|each time|while)\b"
)
_REJECT_STEM_RE = re.compile(r"\b(reject\w*|declin\w*|refus\w*|turn(?:s|ed)? down)\b")
_ACCEPT_STEM_RE = re.compile(r"\baccept\w*\b")
_NEGATED_ACCEPT_RE = re.compile(r"(?:\bnot\b|\bnever\b|\bno\b|n't)[^.;,]{0,24}accept")

_INCREASE_RE = re.compile(r"\b(increas\w*|rais\w*|bump\w*|add\w*|sweeten\w*|improv\w*)\b")
_DECREASE_RE = re.compile(r"\b(lower\w*|decreas\w*|reduc\w*|drop\w*|shav\w*)\b")
_KEEP_RE = re.compile(
    r"\b(keep\w*|same|maintain\w*|unchanged|stick\w*|continu\w*|hold\w*|repeat\w*)\b"
)
_CUTOFF_RE = re.compile(
    r"cut-?\s?off|no (?:higher|more) than|at most|stop (?:increas|rais|conced)|ceiling|"
    r"(?:not|n't|never) go (?:above|beyond|over|past)"
)

# "I will open with $5.00" or "start at $0.50" names the opening offer
# without an offer verb; only the proposer's opening-offer check reads it.
_OPENING_RE = re.compile(
    r"\b(?:open|opens|opening|start|starts|starting|begin|begins|beginning)\s+(?:with|at)\b"
)
_BY_RE = re.compile(r"\bby\b")

# A share of the pot: "40%", "40 percent", "half the pot", "half of the pot".
# Bare "half" ("more than half") names no amount and is not read.
_POT_SHARE_RE = re.compile(
    r"(?<![\d.])(?P<percent>\d+(?:\.\d+)?)\s*(?:%|percent\b)|\bhalf\s+(?:of\s+)?the\s+pot\b",
    re.IGNORECASE,
)

# Every round count a prompt spells out is one "first N rounds" reads.
_WORD_NUMBERS = {word: n for n, word in prompts.ROUND_WORDS.items()}
_ORDINALS = {
    "first": 1, "second": 2, "third": 3, "fourth": 4, "fifth": 5,
    "sixth": 6, "seventh": 7, "eighth": 8, "ninth": 9, "tenth": 10,
}


def _split_clauses(text: str) -> list[str]:
    clauses = []
    for chunk in _CLAUSE_SPLIT_RE.split(text):
        chunk = _BULLET_PREFIX_RE.sub("", chunk.strip())
        if chunk:
            clauses.append(chunk)
    return clauses


def _mentions_rejection(low: str) -> bool:
    if _NEGATED_ACCEPT_RE.search(low):
        return True
    return bool(_REJECT_STEM_RE.search(low)) and bool(_CONDITIONAL_RE.search(low))


def _mentions_acceptance(low: str) -> bool:
    if _NEGATED_ACCEPT_RE.search(low):
        return False
    return bool(_ACCEPT_STEM_RE.search(low)) and bool(_CONDITIONAL_RE.search(low))


def _pot_share(percent: str | None, pot: Money) -> Money:
    """A share of the pot in whole cents, rounded down as the bands are (half the
    pot if no percentage is given); any number of decimal places reads exactly."""
    if percent is None:
        return pot // 2
    if _number(percent.partition(".")[0]) == _BEYOND:
        return _BEYOND
    exact = Context(prec=len(percent) + 20)  # a digit per digit of both factors
    return int(exact.divide_int(exact.multiply(Decimal(percent), pot), 100))


def _clause_amounts(clause: str, pot: Money) -> list[AmountMatch]:
    """The money amounts and pot shares of one strategy clause, in document order."""
    amounts = extract_amounts(clause)
    shares = [
        AmountMatch(_pot_share(m["percent"], pot), m.span(), m.group(0))
        for m in _POT_SHARE_RE.finditer(clause)
    ]
    return sorted(amounts + shares, key=lambda a: a.span) if shares else amounts


def _amount_after_by(clause: str, amounts: list[AmountMatch]) -> Money | None:
    m = _BY_RE.search(clause.lower())
    if not m:
        return None
    for a in amounts:
        if a.span[0] >= m.end():
            return a.cents
    return None


def _adjust_rule(low: str, clause: str, amounts: list[AmountMatch]) -> AdjustRule | None:
    vals = [a.cents for a in amounts]
    step = _amount_after_by(clause, amounts)
    if step is None and vals:
        step = vals[-1]
    if _INCREASE_RE.search(low):
        return AdjustRule(AdjustKind.INCREASE_BY, step)
    if _DECREASE_RE.search(low):
        return AdjustRule(AdjustKind.DECREASE_BY, step)
    if _KEEP_RE.search(low):
        return AdjustRule(AdjustKind.KEEP)
    if _OFFER_VERB_RE.search(low) and vals:
        return AdjustRule(AdjustKind.SET_TO, vals[0])
    return None


def _parse_proposer_text(text: str, pot: Money) -> ProposerStrategy:
    initial = on_accept = on_reject = cutoff = None
    for clause in _split_clauses(text):
        low = clause.lower()
        amounts = _clause_amounts(clause, pot)
        vals = [a.cents for a in amounts]
        if _CUTOFF_RE.search(low):
            if cutoff is None:
                cutoff = CutoffRule(limit=vals[0] if vals else None)
            continue
        rejection = _mentions_rejection(low)
        acceptance = _mentions_acceptance(low)
        if rejection or acceptance:
            rule = _adjust_rule(low, clause, amounts)
            if rule is not None:
                if rejection and on_reject is None:
                    on_reject = rule
                if acceptance and on_accept is None:
                    on_accept = rule
            continue
        if initial is None and vals and (_OFFER_VERB_RE.search(low) or _OPENING_RE.search(low)):
            initial = vals[0]
    return ProposerStrategy(
        initial_offer=initial, on_accept=on_accept, on_reject=on_reject, cutoff=cutoff
    )


_ADJUSTMENT_VERB_RE = re.compile(
    r"\b(lower\w*|reduc\w*|decreas\w*|rais\w*|increas\w*|adjust\w*)\b"
)
_REJECT_ALL_RE = re.compile(r"\b(?:reject|decline|refuse)\w*\s+(?:any|all|every)\b")
_BELOW_RE = re.compile(r"\b(below|under|less than)\b")
_AT_LEAST_RE = re.compile(
    r"\bat least\b|\bor more\b|\bor higher\b|\bor above\b|\bor better\b|\bminimum\b|\bat or above\b"
)
_ABOVE_RE = re.compile(r"\b(above|over|more than|greater than|exceeding|beyond)\b")
_OR_LESS_RE = re.compile(r"\bor less\b|\bat or below\b")


def _threshold_value(low: str, vals: list[Money], pot: Money) -> Money | None:
    """Accept-from threshold implied by one clause, or None."""
    if not vals:
        if _REJECT_ALL_RE.search(low) or "never accept" in low:
            return pot + 1
        return None
    if _ADJUSTMENT_VERB_RE.search(low) and "adjusting" not in low:
        return None
    if _BELOW_RE.search(low) or _AT_LEAST_RE.search(low):
        return vals[0]
    if _ABOVE_RE.search(low):
        return vals[0] if "or equal" in low else vals[0] + 1
    if _OR_LESS_RE.search(low):
        return vals[0] + 1
    if "threshold" in low or _ACCEPT_STEM_RE.search(low):
        return vals[0]
    return None


_ROUND_RANGE_RE = re.compile(r"rounds?\s+(\d+)\s*(?:-|–|to|through)\s*(\d+)")
_FIRST_ROUNDS_RE = re.compile(r"first\s+(\w+)\s+rounds")
_ORDINAL_ROUND_RE = re.compile(rf"\b({'|'.join(_ORDINALS)})\s+round\b")


def _round_scope(low: str, rounds: int) -> range | None:
    """The game's rounds that a clause names, or None when it names none and
    applies to every round. Only rounds 1..rounds are kept: "rounds 1
    through 3000000" in a five-round game scopes rounds 1-5."""
    if m := _ROUND_RANGE_RE.search(low):
        lo, hi = _number(m.group(1)), _number(m.group(2))
    elif (m := _FIRST_ROUNDS_RE.search(low)) and m.group(1) in _WORD_NUMBERS:
        lo, hi = 1, _WORD_NUMBERS[m.group(1)]
    elif m := _ROUND_INLINE_RE.search(low):
        lo = hi = _number(m.group(1))
    elif m := _ORDINAL_ROUND_RE.search(low):
        lo = hi = _ORDINALS[m.group(1)]
    else:
        return None
    return range(max(lo, 1), min(hi, rounds) + 1)


_BEFORE_FINAL_RE = re.compile(
    r"\b(?:before|until|up to|prior to)\s+(?:the\s+)?(?:final|last)\s+round\b"
)
_ORDINAL_WORDS = {n: w for w, n in _ORDINALS.items()}
_ACCEPT_ANY_RE = re.compile(r"accept\w*[^.;]{0,40}\bany\w*\b")
_KEEP_WORD_RE = re.compile(r"\b(keep|maintain|hold|stick|same)\b")


def _is_final_round_clause(low: str, rounds: int) -> bool:
    # "until the last round" scopes the rounds before the final one, so a
    # mention inside that phrase must not mark the clause as final-round.
    low = _BEFORE_FINAL_RE.sub(" ", low)
    if "final round" in low or "last round" in low:
        return True
    last = str(rounds)
    if any(m.group(1) == last for m in _ROUND_INLINE_RE.finditer(low)):
        return True
    ordinal = _ORDINAL_WORDS.get(rounds)
    return ordinal is not None and f"{ordinal} round" in low


def _parse_receiver_text(text: str, config: GameConfig) -> ReceiverStrategy:
    threshold: Money | None = None
    round_thresholds: dict[int, Money] = {}
    final_rule: FinalRoundRule | None = None
    for clause in _split_clauses(text):
        low = clause.lower()
        vals = [a.cents for a in _clause_amounts(clause, config.pot)]
        if _is_final_round_clause(low, config.rounds):
            if final_rule is None:
                if _ACCEPT_ANY_RE.search(low) or "anything" in low:
                    final_rule = FinalRoundRule.ACCEPT_ANY_NONZERO
                elif _KEEP_WORD_RE.search(low) and "threshold" in low:
                    final_rule = FinalRoundRule.KEEP_THRESHOLD
            if vals and config.rounds not in round_thresholds:
                t = _threshold_value(low, vals, config.pot)
                if t is not None:
                    round_thresholds[config.rounds] = t
            continue
        t = _threshold_value(low, vals, config.pot)
        if t is None:
            continue
        scope = _round_scope(low, config.rounds)
        if scope is None:
            if threshold is None:
                threshold = t
        else:
            for r in scope:
                round_thresholds.setdefault(r, t)
    return ReceiverStrategy(
        threshold=threshold, round_thresholds=round_thresholds, final_round_rule=final_rule
    )


def parse_strategy_text(
    text: str, role: Role, config: GameConfig | None = None
) -> ProposerStrategy | ReceiverStrategy:
    """Map free-text strategy prose onto structured fields.

    Clause-level: each sentence or bullet is classified independently
    (opening offer, accept branch, reject branch, cut-off, threshold,
    final-round rule), so reordering clauses never changes the result.
    Unrecognized clauses are ignored; fields they would have filled stay
    absent and surface later as completeness gaps.

    The parse is pure, so it is memoized per (text, role, config) in a
    bounded process-wide cache. The cached plan is never handed out as
    is: a receiver plan comes back with its own round_thresholds dict.
    """
    plan = _parse_strategy(text, role, config if config is not None else GameConfig())
    if isinstance(plan, ReceiverStrategy):
        return ReceiverStrategy(plan.threshold, dict(plan.round_thresholds), plan.final_round_rule)
    return plan


@functools.lru_cache(maxsize=1024)
def _parse_strategy(
    text: str, role: Role, config: GameConfig
) -> ProposerStrategy | ReceiverStrategy:
    if role is Role.PROPOSER:
        return _parse_proposer_text(text, config.pot)
    return _parse_receiver_text(text, config)


# ---------------------------------------------------------------------------
# Reply extraction (single agent utterances)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def extract_offer_reply(text: str) -> Money | None:
    """The offer stated in one agent reply, or None if there is none.

    The extraction is pure and its result immutable, so it is memoized
    per reply text in a bounded process-wide cache.
    """
    amount, _, _ = _extract_offer(text, _segment_lines(text))
    return amount


@functools.lru_cache(maxsize=4096)
def extract_decision_reply(text: str) -> Decision | None:
    """The decision stated in one agent reply, or None if there is none.

    The extraction is pure and its result immutable, so it is memoized
    per reply text in a bounded process-wide cache.
    """
    decision, _, _ = _extract_decision(_segment_lines(text))
    return decision


# ---------------------------------------------------------------------------
# Round reading, shared by both log parsers
# ---------------------------------------------------------------------------


class _RoundReading(NamedTuple):
    """What one log says about one round, before any parser's checks."""

    offer: Money | None
    offer_marked: bool
    offer_warnings: list[str]
    decision: Decision | None
    decision_marked: bool
    decision_warnings: list[str]
    lines: list[str]


def _read_rounds(text: str, rounds: int) -> tuple[str, list[_RoundReading]]:
    """The text before the first round, and a reading of each chained round.

    The chain may be shorter than `rounds`; the parsers decide what that means.
    """
    chain = _round_chain(text, rounds)
    readings = []
    for i, (_, end, _) in enumerate(chain):
        segment = text[end : chain[i + 1][0] if i + 1 < len(chain) else len(text)]
        lines = _segment_lines(segment)
        readings.append(_RoundReading(*_extract_offer(segment, lines), *_extract_decision(lines), lines))
    return (text[: chain[0][0]] if chain else text), readings


def _require_in_pot(round_no: int, offer: Money, pot: Money) -> None:
    if not 0 <= offer <= pot:
        raise UnparseableLogError(f"round {round_no}: offer {offer} outside [0, {pot}]")


def _assemble(
    config: GameConfig,
    pair: PersonalityPair,
    structure: Structure,
    raw_logs: tuple[tuple[str, str], ...],
    actions: list[tuple[Money, Decision]],
    texts: tuple[str, str],
    exact: bool,
    warnings: list[str],
) -> tuple[Transcript, ParseDiagnostics]:
    """Replay the actions through the engine and parse both strategy texts."""
    _, outcomes = engine.replay(config, actions)
    strategies = tuple(
        StrategySpec(role, text, parse_strategy_text(text, role, config))
        for role, text in zip((Role.PROPOSER, Role.RECEIVER), texts)
    )
    transcript = Transcript(config, pair, structure, strategies, tuple(outcomes), raw_logs)
    confidence = Confidence.EXACT if exact else Confidence.HEURISTIC
    return transcript, ParseDiagnostics(confidence, tuple(warnings))


# ---------------------------------------------------------------------------
# Single combined log
# ---------------------------------------------------------------------------


def _strategy_marker_blocks(pre: str) -> dict[Role, str]:
    """STRATEGY (Proposer): ... blocks from the pre-round text.

    The first block of a role wins, however it or a later one closes.
    """
    blocks: dict[Role, str] = {}
    current: Role | None = None
    buf: list[str] = []
    for line in pre.split("\n"):
        m = _STRATEGY_MARKER_RE.match(line)
        if m:
            if current is not None:
                blocks.setdefault(current, "\n".join(buf).strip())
            current = Role(m.group("role").lower())
            buf = [m.group("rest")]
            continue
        if current is not None:
            if _is_marker_line(line):
                blocks.setdefault(current, "\n".join(buf).strip())
                current = None
            else:
                buf.append(line)
    if current is not None:
        blocks.setdefault(current, "\n".join(buf).strip())
    return blocks


# proposer|receiver, as whole words
_SECTION_WORD_RE = re.compile(r"([PpRr](?<!\w.)(?i:(?<=p)roposer|(?<=r)eceiver))\b")
_STRATEGY_WORD_RE = re.compile(r"[Ss\u017f](?i:trateg)")


def _player_sections(pre: str) -> tuple[str, str]:
    """Heuristic split of the pre-round text into proposer/receiver parts.

    Heading lines that name a player together with "strategy" ("Proposer
    Strategy:", "Strategy of the receiver") take precedence; otherwise the
    first mention of each player word starts its section.
    """
    headings: dict[str, int] = {}
    offset = 0
    for line in pre.split("\n"):
        if _STRATEGY_WORD_RE.search(line):
            m = _SECTION_WORD_RE.search(line)
            if m:
                headings.setdefault(m.group(1).lower(), offset)
        offset += len(line) + 1
    if len(headings) == 2:
        prop, recv = headings["proposer"], headings["receiver"]
    else:
        low = pre.lower()
        prop = low.find("proposer")
        recv = low.find("receiver")
        if prop < 0 or recv < 0:
            missing = "proposer" if prop < 0 else "receiver"
            raise UnparseableLogError(f"{missing} strategy section not found")
    if prop < recv:
        return pre[prop:recv], pre[recv:]
    return pre[prop:], pre[recv:prop]


def parse_single_model_log(
    text: str, pair: PersonalityPair, config: GameConfig | None = None
) -> tuple[Transcript, ParseDiagnostics]:
    """Parse one combined log holding both strategies and all rounds.

    Raises UnparseableLogError naming the first thing that could not be
    recovered (missing strategy section, missing round, unreadable offer
    or decision, offer outside the pot).
    """
    config = config if config is not None else GameConfig()
    pre, readings = _read_rounds(text, config.rounds)
    if len(readings) < config.rounds:
        raise UnparseableLogError(f"found {len(readings)} of {config.rounds} round sections")

    blocks = _strategy_marker_blocks(pre)
    exact = Role.PROPOSER in blocks and Role.RECEIVER in blocks
    if exact:
        prop_text, recv_text = blocks[Role.PROPOSER], blocks[Role.RECEIVER]
    else:
        prop_text, recv_text = _player_sections(pre)

    warnings: list[str] = []
    actions: list[tuple[Money, Decision]] = []
    for n, reading in enumerate(readings, start=1):
        offer, decision = reading.offer, reading.decision
        warnings.extend(reading.offer_warnings)
        if offer is None:
            raise UnparseableLogError(f"round {n}: no offer found")
        _require_in_pot(n, offer, config.pot)
        warnings.extend(reading.decision_warnings)
        if decision is None:
            raise UnparseableLogError(f"round {n}: no decision found")
        exact = exact and reading.offer_marked and reading.decision_marked
        actions.append((offer, decision))
        warnings.extend(_check_payoffs(reading.lines, offer, decision, config.pot, n))

    return _assemble(
        config, pair, Structure.SINGLE_MODEL, (("single_model", text),),
        actions, (prop_text.strip(), recv_text.strip()), exact, warnings,
    )


# ---------------------------------------------------------------------------
# Per-agent log pair
# ---------------------------------------------------------------------------


def _agent_strategy_text(pre: str, who: str) -> tuple[str, bool]:
    """The agent's own strategy from its pre-round text: (text, from_marker)."""
    lines = pre.split("\n")
    buf: list[str] = []
    collecting = False
    for line in lines:
        m = _BRACKET_LABEL_RE.match(line)
        if m:
            if m.group("label").strip().lower() == "strategy":
                collecting = True
                buf.append(m.group("rest"))
            elif collecting:
                break
            continue
        if collecting:
            buf.append(line)
    if buf:
        return "\n".join(buf).strip(), True
    # No [Strategy] label: keep everything except architecture chatter
    # ([Plan] lines and bare labels), unlabelled.
    kept: list[str] = []
    for line in lines:
        m = _BRACKET_LABEL_RE.match(line)
        if m is None:
            kept.append(line)
        elif m.group("rest") and m.group("label").strip().lower() != "plan":
            kept.append(m.group("rest"))
    text = "\n".join(kept).strip()
    if not text:
        raise UnparseableLogError(f"{who} log: strategy section not found")
    return text, False


def _agreed(round_no: int, what: str, proposer_side, receiver_side, warnings: list[str]):
    """The value the two logs give for one fact of a round.

    A fact that only one log states is taken from it, with a warning; one
    that neither states, or that the logs state differently, is an error.
    """
    if proposer_side is None and receiver_side is None:
        raise UnparseableLogError(f"round {round_no}: no {what} found in either log")
    if proposer_side is None or receiver_side is None:
        warnings.append(f"round {round_no}: {what} appears in only one log")
        return receiver_side if proposer_side is None else proposer_side
    if proposer_side != receiver_side:
        shown = [getattr(v, "value", v) for v in (proposer_side, receiver_side)]
        raise InconsistentLogsError(
            f"round {round_no}: logs disagree on the {what} ({shown[0]} vs {shown[1]})"
        )
    return proposer_side


def parse_agent_log(
    logs: tuple[str, str], pair: PersonalityPair, config: GameConfig | None = None
) -> tuple[Transcript, ParseDiagnostics]:
    """Parse a (proposer log, receiver log) pair into one transcript.

    Each agent's strategy is taken from its own log only. Offers and
    decisions are aligned across the two logs by round; any disagreement
    about a shared fact (round count, an amount, a decision) raises
    InconsistentLogsError.
    """
    config = config if config is not None else GameConfig()
    prop_log, recv_log = logs
    prop_pre, prop_readings = _read_rounds(prop_log, config.rounds)
    recv_pre, recv_readings = _read_rounds(recv_log, config.rounds)
    if len(prop_readings) != len(recv_readings):
        raise InconsistentLogsError(
            f"proposer log has {len(prop_readings)} round sections, receiver log has {len(recv_readings)}"
        )
    if len(prop_readings) < config.rounds:
        raise UnparseableLogError(f"found {len(prop_readings)} of {config.rounds} round sections")

    warnings: list[str] = []
    exact = True
    actions: list[tuple[Money, Decision]] = []
    for n, (p, r) in enumerate(zip(prop_readings, recv_readings), start=1):
        warnings.extend(p.offer_warnings + r.offer_warnings)
        offer = _agreed(n, "offer", p.offer, r.offer, warnings)
        _require_in_pot(n, offer, config.pot)
        warnings.extend(p.decision_warnings + r.decision_warnings)
        decision = _agreed(n, "decision", p.decision, r.decision, warnings)
        exact = exact and (p.offer_marked or r.offer_marked) and (p.decision_marked or r.decision_marked)
        actions.append((offer, decision))
        warnings.extend(_check_payoffs(p.lines, offer, decision, config.pot, n))

    prop_text, p_mk = _agent_strategy_text(prop_pre, "proposer")
    recv_text, r_mk = _agent_strategy_text(recv_pre, "receiver")
    return _assemble(
        config, pair, Structure.MULTI_AGENT, (("proposer", prop_log), ("receiver", recv_log)),
        actions, (prop_text, recv_text), exact and p_mk and r_mk, warnings,
    )


# ---------------------------------------------------------------------------
# Canonical format (v1)
# ---------------------------------------------------------------------------

CANONICAL_TAG = "ultimatum-transcript"
CANONICAL_VERSION = "v1"

_DECODER = json.JSONDecoder()
# Encodes strategy fields: sorted keys, no spaces, non-ASCII escaped.
_FIELDS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# Quotes a string as the call json.dumps(string) makes: ASCII, non-ASCII escaped.
_quote = json.encoder.encode_basestring_ascii

# Every way outside text can fail to read: ValueError (not UTF-8, not JSON or
# YAML, too many digits) or RecursionError (nested deeper than the limit).
INPUT_FAILURES = (ValueError, RecursionError)


def decode_line(line: bytes) -> dict | None:
    """The JSON object on one line of a JSON-lines file, or None for a line
    of only whitespace. Raises ValueError for every way a line can fail:
    not UTF-8, not JSON, not an object, an integer longer than the
    interpreter converts, or nesting deeper than the recursion limit."""
    text = line.decode("utf-8")
    if text.isspace():
        return None
    try:
        value = json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
    if type(value) is not dict:
        raise ValueError("not an object")
    return value


# The header after its tag and version, and a round line, exactly as
# serialize_canonical writes them, the only forms parse_canonical reads:
# each number in ASCII digits with no sign and no leading zero, at most 18
# of them (engine.MAX_POT), and each word one the writer writes.
_INT = r"(0|[1-9][0-9]{0,17})"
_HEADER_RE = re.compile(
    rf"pot={_INT} rounds={_INT} pair=({'|'.join(pair.label() for pair in ALL_PAIRS)}) "
    rf"structure=({'|'.join(structure.value for structure in Structure)})"
)
_ROUND_LINE_RE = re.compile(
    rf"round {_INT} offer={_INT} decision=(accept|reject) payoffs={_INT}/{_INT}"
)
_DECISIONS = {d.value: d for d in Decision}


def _by_value(enum_cls: type[enum.Enum]):
    """A function from a value to its enum_cls member, answered from a dict.
    A value the dict does not hold, or cannot hash, raises the ValueError
    that the plain enum call raises for it."""
    members = {member.value: member for member in enum_cls}

    def member(value):
        try:
            return members[value]
        except (KeyError, TypeError):
            raise ValueError(f"{value!r} is not a valid {enum_cls.__qualname__}") from None

    return member


_role = _by_value(Role)
_structure = _by_value(Structure)
_adjust_kind = _by_value(AdjustKind)
_final_round_rule = _by_value(FinalRoundRule)


def _adjust_to_json(rule: AdjustRule | None):
    if rule is None:
        return None
    return {"kind": rule.kind.value, "amount": rule.amount}


def _adjust_from_json(obj) -> AdjustRule | None:
    if obj is None:
        return None
    return AdjustRule(_adjust_kind(obj["kind"]), obj.get("amount"))


def _fields_to_json(spec: StrategySpec) -> dict:
    plan = spec.parsed  # a StrategySpec's plan is of its role's kind
    if isinstance(plan, ProposerStrategy):
        return {
            "initial_offer": plan.initial_offer,
            "on_accept": _adjust_to_json(plan.on_accept),
            "on_reject": _adjust_to_json(plan.on_reject),
            "cutoff": None if plan.cutoff is None else {"limit": plan.cutoff.limit},
        }
    return {
        "threshold": plan.threshold,
        "round_thresholds": {str(k): v for k, v in sorted(plan.round_thresholds.items())},
        "final_round_rule": None if plan.final_round_rule is None else plan.final_round_rule.value,
    }


def _fields_from_json(role: Role, obj: dict):
    try:
        if role is Role.PROPOSER:
            cutoff = obj["cutoff"]
            return ProposerStrategy(
                initial_offer=obj["initial_offer"],
                on_accept=_adjust_from_json(obj["on_accept"]),
                on_reject=_adjust_from_json(obj["on_reject"]),
                cutoff=None if cutoff is None else CutoffRule(limit=cutoff.get("limit")),
            )
        rule = obj["final_round_rule"]
        return ReceiverStrategy(
            threshold=obj["threshold"],
            round_thresholds={int(k): v for k, v in obj["round_thresholds"].items()},
            final_round_rule=None if rule is None else _final_round_rule(rule),
        )
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise MalformedRecordError(f"bad strategy fields: {exc}") from None


def serialize_canonical(transcript: Transcript) -> str:
    """Render a transcript in the canonical v1 line format.

    Deterministic: the same transcript always yields identical bytes. All
    strings are JSON-escaped to ASCII so every record stays on one line.
    """
    cfg = transcript.config
    lines = [
        f"{CANONICAL_TAG} {CANONICAL_VERSION} pot={cfg.pot} rounds={cfg.rounds} "
        f"pair={transcript.pair.label()} structure={transcript.structure.value}"
    ]
    for spec in transcript.strategies:
        fields = _FIELDS_ENCODER.encode(_fields_to_json(spec))
        lines.append(f"strategy {spec.role.value} {fields} {_quote(spec.raw_text)}")
    for o in transcript.rounds:
        lines.append(
            f"round {o.round} offer={o.offer} decision={o.decision.value} "
            f"payoffs={o.proposer_payoff}/{o.receiver_payoff}"
        )
    for label, text in transcript.raw_logs:
        lines.append(f"rawlog {_quote(label)} {_quote(text)}")
    return "\n".join(lines) + "\n"


def _read_json_pair(rest: str) -> tuple[object, object]:
    """The two JSON values that fill `rest`, one space apart. An error's
    position counts from the start of the value it is in."""
    start = 0
    try:
        first, end = _DECODER.raw_decode(rest)
        if end < len(rest) and rest[end] != " ":
            raise MalformedRecordError(f"expected one space after a JSON value, got {rest[end]!r}")
        start = end + 1
        second, end = _DECODER.raw_decode(rest, start)
    except json.JSONDecodeError as exc:
        where = json.JSONDecodeError(exc.msg, exc.doc[start:], exc.pos - start)
        raise MalformedRecordError(f"bad JSON payload: {where}") from None
    except INPUT_FAILURES as exc:  # too many digits, or nested too deep
        raise MalformedRecordError(f"bad JSON payload: {exc}") from None
    if end != len(rest):
        raise MalformedRecordError(f"trailing data after record: {rest[end:].strip() or rest[end:]!r}")
    return first, second


def parse_canonical(text: str) -> Transcript:
    """Parse canonical v1 text back into a Transcript.

    Raises SchemaVersionError for an unknown version tag and
    MalformedRecordError for any structural violation (field order, a
    header or round line not in the writer's form, a JSON separator other
    than one space, round numbering, payoffs that do not match the
    decision). Blank lines are skipped.
    """
    if not text.endswith("\n"):
        raise MalformedRecordError("canonical text must end with a newline")
    lines = text.split("\n")[:-1]  # blank lines are skipped: here if one leads, else in the loop
    if not lines[0].strip() and not (lines := [ln for ln in lines if ln.strip()]):
        raise MalformedRecordError("empty transcript text")
    tag, _, rest = lines[0].partition(" ")
    version, _, rest = rest.partition(" ")
    if tag != CANONICAL_TAG:
        raise MalformedRecordError(f"bad header line: {lines[0]!r}")
    if version != CANONICAL_VERSION:
        raise SchemaVersionError(f"unsupported transcript version {version!r}")
    match = _HEADER_RE.fullmatch(rest)
    if match is None:
        raise MalformedRecordError(f"bad header line: {lines[0]!r}")
    pot_text, rounds_text, label, structure_text = match.groups()
    try:
        config = GameConfig(pot=int(pot_text), rounds=int(rounds_text))
    except engine.InvalidConfigError as exc:
        raise MalformedRecordError(f"bad header values: {exc}") from None
    pair = PersonalityPair.from_label(label)
    structure = _structure(structure_text)

    strategies: list[StrategySpec] = []
    rounds: list[RoundOutcome] = []
    raw_logs: list[tuple[str, str]] = []
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "strategy":
            role_token, _, payload = rest.partition(" ")
            try:
                role = _role(role_token)
            except ValueError:
                raise MalformedRecordError(f"bad strategy role {role_token!r}") from None
            fields, raw_text = _read_json_pair(payload)
            if not isinstance(fields, dict) or not isinstance(raw_text, str):
                raise MalformedRecordError("strategy line must hold fields object and raw text")
            if rounds or raw_logs:
                raise MalformedRecordError("strategy lines must precede round lines")
            strategies.append(StrategySpec(role, raw_text, _fields_from_json(role, fields)))
        elif kind == "round":
            if raw_logs:
                raise MalformedRecordError("round lines must precede rawlog lines")
            match = _ROUND_LINE_RE.fullmatch(line)
            if match is None:
                raise MalformedRecordError(f"bad round line: {line!r}")
            number, offer, word, prop_pay, recv_pay = match.groups()
            number, offer, decision = int(number), int(offer), _DECISIONS[word]
            payoffs = (int(prop_pay), int(recv_pay))
            if number != len(rounds) + 1 or number > config.rounds:
                raise MalformedRecordError(f"round {number} out of sequence")
            if not 0 <= offer <= config.pot:
                raise MalformedRecordError(f"round {number}: offer {offer} outside pot")
            expected = (config.pot - offer, offer) if decision is Decision.ACCEPT else (0, 0)
            if payoffs != expected:
                raise MalformedRecordError(
                    f"round {number}: payoffs {payoffs} inconsistent with {decision.value}"
                )
            rounds.append(RoundOutcome(number, offer, decision, *payoffs))
        elif kind == "rawlog":
            label, logtext = _read_json_pair(rest)
            if not isinstance(label, str) or not isinstance(logtext, str):
                raise MalformedRecordError("rawlog line must hold two strings")
            raw_logs.append((label, logtext))
        elif line.strip():
            raise MalformedRecordError(f"unknown record kind {kind!r}")

    if len(strategies) != 2 or strategies[0].role is not Role.PROPOSER or strategies[1].role is not Role.RECEIVER:
        raise MalformedRecordError("expected proposer then receiver strategy lines")
    if len(rounds) != config.rounds:
        raise MalformedRecordError(f"expected {config.rounds} rounds, got {len(rounds)}")
    return Transcript(
        config=config,
        pair=pair,
        structure=structure,
        strategies=(strategies[0], strategies[1]),
        rounds=tuple(rounds),
        raw_logs=tuple(raw_logs),
    )
