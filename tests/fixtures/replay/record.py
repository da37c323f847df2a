"""Write the replay back-compat fixture: recording.jsonl and verdicts.json.

A scripted stand-in model answers every request of plan.yaml with marker
replies; RecordingGateway records each exchange, and the batch's verdicts
are kept by run id. Run from the repository root:

    PYTHONPATH=src python tests/fixtures/replay/record.py [OUT_DIR]

OUT_DIR defaults to this directory. The committed files were written by
the RecordingGateway that predates the cached replay keys, so replaying
them checks that recordings made before that change still replay, and
tests/test_golden_replay.py checks that this script still writes them
byte for byte. Rewrite them only when the recording format changes on
purpose.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from ultimatum.agents import Gateway, RecordingGateway, oracle_strategy
from ultimatum.engine import format_money
from ultimatum.experiment import load_plan, run_batch
from ultimatum.strategy import Personality, Role, bands_for

HERE = Path(__file__).parent
PLAN = load_plan(HERE / "plan.yaml")
GAME = PLAN.game
BANDS = bands_for(GAME.pot)


def _offer(personality: Personality, round_index: int) -> int:
    # Greedy proposers climb by 4 cents a round whatever the answer was.
    if personality is Personality.FAIR:
        return BANDS.fair_open
    return BANDS.greedy_open + 4 * (round_index - 1)


def _accepts(personality: Personality, offer: int, round_index: int) -> bool:
    threshold = BANDS.fair_threshold[0] if personality is Personality.FAIR else BANDS.greedy_hold
    return offer >= threshold or (round_index == GAME.rounds and offer > 0)


def _strategy(role: Role, personality: Personality) -> str:
    return oracle_strategy(role, personality, GAME)[0]


def _single_model_log(proposer: Personality, receiver: Personality) -> str:
    lines = [
        f"STRATEGY (Proposer): {_strategy(Role.PROPOSER, proposer)}",
        f"STRATEGY (Receiver): {_strategy(Role.RECEIVER, receiver)}",
    ]
    for r in range(1, GAME.rounds + 1):
        offer = _offer(proposer, r)
        accepted = _accepts(receiver, offer, r)
        kept, given = (GAME.pot - offer, offer) if accepted else (0, 0)
        lines += [
            f"ROUND {r}",
            f"OFFER: {format_money(offer)}",
            f"DECISION: {'accept' if accepted else 'reject'}",
            f"OUTCOME: proposer {format_money(kept)} — receiver {format_money(given)}",
        ]
    return "\n".join(lines)


class StandIn(Gateway):
    """Marker replies chosen from the conversation's first and last messages."""

    def _complete(self, model, messages, params):
        (first_role, first), (_, last) = messages[0], messages[-1]
        if first_role == "user":
            found = re.search(r"for a (\w+) proposer and a (\w+) receiver", first)
            return _single_model_log(Personality(found[1]), Personality(found[2]))
        role = Role.PROPOSER if "You are Proposer" in first else Role.RECEIVER
        personality = Personality.FAIR if "is fair." in first else Personality.GREEDY
        if "STRATEGY:" in last and "Round" not in last:
            return f"STRATEGY: {_strategy(role, personality)} — that’s all."
        round_index = int(re.search(r"Round (\d+) of", last)[1])
        if role is Role.PROPOSER:
            return f"OFFER: {format_money(_offer(personality, round_index))}"
        offer = round(float(re.search(r"offers you \$(\d+(?:\.\d+)?)", last)[1]) * 100)
        return f"DECISION: {'accept' if _accepts(personality, offer, round_index) else 'reject'}"


def main(out: Path = HERE) -> None:
    recording = out / "recording.jsonl"
    recording.unlink(missing_ok=True)
    batch = run_batch(
        PLAN, mode="live", gateway=RecordingGateway(StandIn(), recording), max_workers=1
    )
    verdicts = {r["run_id"]: r["verdict"] for r in batch.records}
    with (out / "verdicts.json").open("w", encoding="utf-8") as fh:
        json.dump(verdicts, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{batch.gateway_usage['requests']} requests, {batch.failed_count} failed")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else HERE)
