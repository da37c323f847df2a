"""Shared builders for the test suite."""

from __future__ import annotations

import json
import pathlib
import random

from hypothesis import strategies as st

from ultimatum import engine, prompts
from ultimatum.agents import Gateway, default_plan, oracle_strategy
from ultimatum.engine import Decision, GameConfig, format_money
from ultimatum.experiment import RUN_SCHEMA
from ultimatum.orchestrator import (
    OracleSingleModelGateway,
    SimulationConfig,
    make_oracle_agents,
    run_multi_agent,
    synthesize_single_model_log,
)
from ultimatum.strategy import Personality, PersonalityPair, Role, StrategySpec
from ultimatum.transcripts import Structure, Transcript, parse_strategy_text

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"

ACC = Decision.ACCEPT
REJ = Decision.REJECT

# Any code point, lone surrogates and control characters included, and the
# characters JSON escapes by name.
any_text = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udfff'),
    max_size=40,
)


def raw_logs(text):
    """Up to 20 raw-log entries, as many as a moderated game of 10 rounds
    keeps (one per action), each label either drawn from `text` or one the
    writers use: a combined log's, the per-agent logs' of older multi-agent
    records, or an action reply's."""
    labels = st.sampled_from(["single_model", "proposer", "receiver", "proposer/offer", "receiver/decision"])
    return st.lists(st.tuples(labels | text, text), max_size=20).map(tuple)


def oracle_text(role: Role, personality: Personality, pot: int = 100, rounds: int = 5) -> str:
    raw, _ = oracle_strategy(role, personality, GameConfig(pot=pot, rounds=rounds))
    return raw


def oracle_game(pair: PersonalityPair, game: GameConfig | None = None, **flaws):
    """The oracles' game for the pair, played on its own through the moderator;
    `flaws` are make_oracle_agents' proposer_flaw and receiver_flaw."""
    game = game if game is not None else GameConfig()
    config = SimulationConfig(Structure.MULTI_AGENT, pair, game)
    return run_multi_agent(config, make_oracle_agents(pair, game, **flaws))


def oracle_gateway(pair: PersonalityPair, game: GameConfig | None = None, **flaws):
    """A single-model oracle gateway answering from the pair's own game."""
    return OracleSingleModelGateway(oracle_game(pair, game, **flaws).transcript)


def oracle_log(pair: PersonalityPair, game: GameConfig | None = None, **flaws) -> str:
    """The combined single-model log written from the pair's own game."""
    return synthesize_single_model_log(oracle_game(pair, game, **flaws).transcript)


def _labeled(label: str, text: str) -> str:
    first, _, rest = text.partition("\n")
    line = f"[{label}] {first}".rstrip()
    return f"{line}\n{rest}" if rest else line


def render_agent_logs(transcript: Transcript) -> tuple[str, str]:
    """The (proposer log, receiver log) of a moderated game, rendered from
    its transcript in the moderator's bracket-label format.

    Each log is the role's fixed plan and its strategy, then per round what
    the player said (its raw-log reply), what it heard from the other side
    and the announced outcome. These are the per-agent logs that multi-agent
    records stored as raw logs before they stored the action replies.
    """
    replies = [text for _, text in transcript.raw_logs]
    logs = []
    for spec in transcript.strategies:
        lines = [_labeled("Plan", default_plan(spec.role)), _labeled("Strategy", spec.raw_text)]
        for outcome, offer_reply, decision_reply in zip(transcript.rounds, replies[0::2], replies[1::2]):
            if spec.role is Role.PROPOSER:
                turn = [_labeled("Say", offer_reply), f"[Hear] DECISION: {outcome.decision.value}"]
            else:
                turn = [f"[Hear] OFFER: {format_money(outcome.offer)}", _labeled("Say", decision_reply)]
            announcement = prompts.render(
                "announce_outcome",
                round=outcome.round,
                offer_text=format_money(outcome.offer),
                decision_word="accepted" if outcome.decision is Decision.ACCEPT else "rejected",
                proposer_text=format_money(outcome.proposer_payoff),
                receiver_text=format_money(outcome.receiver_payoff),
            )
            lines += [f"[Round {outcome.round}]", *turn, _labeled("Outcome", announcement)]
        logs.append("\n".join(lines) + "\n")
    return logs[0], logs[1]


class ScriptedModelGateway(Gateway):
    """Answers each player from its own queue, routing on the system prompt."""

    def __init__(self, proposer_replies, receiver_replies):
        super().__init__()
        self.queues = {
            "Proposer": list(proposer_replies),
            "Receiver": list(receiver_replies),
        }

    def _complete(self, model, messages, params):
        who = "Proposer" if "You are Proposer" in messages[0][1] else "Receiver"
        return self.queues[who].pop(0)


def build_transcript(
    offers,
    decisions,
    pair="fair-fair",
    proposer_text: str | None = None,
    receiver_text: str | None = None,
    pot: int = 100,
    rounds: int | None = None,
    structure: Structure = Structure.SINGLE_MODEL,
) -> Transcript:
    """A Transcript from explicit actions, with strategies parsed from text.

    Defaults to the oracle strategy texts for the pair, so a test only
    spells out the parts it is exercising.
    """
    if isinstance(pair, str):
        pair = PersonalityPair.from_label(pair)
    config = GameConfig(pot=pot, rounds=rounds if rounds is not None else len(offers))
    if proposer_text is None:
        proposer_text = oracle_text(Role.PROPOSER, pair.proposer, config.pot, config.rounds)
    if receiver_text is None:
        receiver_text = oracle_text(Role.RECEIVER, pair.receiver, config.pot, config.rounds)
    _, outcomes = engine.replay(config, list(zip(offers, decisions)))
    strategies = (
        StrategySpec(Role.PROPOSER, proposer_text, parse_strategy_text(proposer_text, Role.PROPOSER, config)),
        StrategySpec(Role.RECEIVER, receiver_text, parse_strategy_text(receiver_text, Role.RECEIVER, config)),
    )
    return Transcript(
        config=config,
        pair=pair,
        structure=structure,
        strategies=strategies,
        rounds=tuple(outcomes),
    )


def stored_record(**fields) -> dict:
    """A failed run's record that keeps the run-record schema, with `fields`
    added to it or replacing its own."""
    return {
        "schema": RUN_SCHEMA,
        "structure": "single_model",
        "pair": "fair-fair",
        "model": "oracle",
        "status": "failed",
        "cause": "GatewayError: down",
        **fields,
    }


def load_corpus_cases() -> list[dict]:
    """The hand-written messy-log cases, sidecar fields plus file contents."""
    cases = []
    for sidecar in sorted(CORPUS.glob("*.json")):
        meta = json.loads(sidecar.read_text())
        texts = {
            slot: (CORPUS / name).read_text() for slot, name in meta["files"].items()
        }
        meta["texts"] = texts
        meta["name"] = sidecar.stem
        cases.append(meta)
    return cases


# ---------------------------------------------------------------------------
# Generated messy logs
# ---------------------------------------------------------------------------

_GEN_HEADINGS = ("Round {n}:", "ROUND {n}", "**Round {n}**", "[Round {n}]", "round {n} -")
_GEN_OFFER_LINES = (
    ("OFFER: {amt}", True),
    ("The proposer offers {amt}.", False),
    ("The proposer proposes {amt} to the receiver.", False),
)
_GEN_ACCEPT_LINES = (
    ("DECISION: accept", True),
    ("The receiver accepts.", False),
    ("The receiver does not reject it.", False),
)
_GEN_REJECT_LINES = (
    ("DECISION: reject", True),
    ("The receiver rejects the offer.", False),
    ("The receiver does not accept.", False),
    ("Declined.", False),
)


def _amount_text(rng: random.Random, cents: int) -> str:
    forms = ["decimal"]
    if cents < 100:
        forms.append("cents")
    if cents % 100 == 0:
        forms.append("plain")
    form = rng.choice(forms)
    if form == "cents":
        return f"{cents} cents"
    if form == "plain":
        return f"${cents // 100}"
    return f"${cents / 100:.2f}"


def generate_corpus_case(rng: random.Random) -> dict:
    """A synthetic single-model log in a randomized style, with its answer key.

    Pots are log-uniform over 5-10000 cents, so small and large pots both
    appear; the receiver's threshold (40% of the pot) and the proposer's
    step (5%, at least one cent) scale with the pot.
    """
    pot = int(5 * 2000 ** rng.random())
    rounds = rng.randint(1, 10)
    pair = rng.choice(["fair-fair", "fair-greedy", "greedy-fair", "greedy-greedy"])
    heading = rng.choice(_GEN_HEADINGS)
    offers = [rng.randint(1, pot - 1) for _ in range(rounds)]
    decisions = [rng.choice(["accept", "reject"]) for _ in range(rounds)]
    step, threshold = max(1, pot * 5 // 100), pot * 40 // 100
    exact = True
    lines = [
        f"STRATEGY (Proposer): I will offer {_amount_text(rng, offers[0])} in the first round. "
        f"If an offer is rejected, I will increase the offer by {_amount_text(rng, step)} "
        "in the next round. If an offer is accepted, I will keep the offer the same.",
        f"STRATEGY (Receiver): I will accept offers of {_amount_text(rng, threshold)} or more "
        "in every round.",
        "",
    ]
    for n in range(1, rounds + 1):
        lines.append(heading.format(n=n))
        offer_tpl, offer_marker = rng.choice(_GEN_OFFER_LINES)
        lines.append(offer_tpl.format(amt=_amount_text(rng, offers[n - 1])))
        pool = _GEN_ACCEPT_LINES if decisions[n - 1] == "accept" else _GEN_REJECT_LINES
        decision_tpl, decision_marker = rng.choice(pool)
        lines.append(decision_tpl)
        lines.append("")
        exact = exact and offer_marker and decision_marker
    return {
        "name": f"generated-{rng.getrandbits(32):08x}",
        "structure": "single_model",
        "pair": pair,
        "pot": pot,
        "rounds": rounds,
        "texts": {"single": "\n".join(lines)},
        "offers": offers,
        "decisions": decisions,
        "confidence": "exact" if exact else "heuristic",
        "warnings_contain": [],
        # (opening offer, step after a rejection, receiver threshold) the strategies state.
        "plans": (offers[0], step, threshold),
    }


def full_corpus(generated: int = 12, seed: int = 20260814) -> list[dict]:
    rng = random.Random(seed)
    return load_corpus_cases() + [generate_corpus_case(rng) for _ in range(generated)]
