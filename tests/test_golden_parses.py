"""Golden parses of every committed prose log.

`tests/fixtures/parsed_logs.json` holds, for each hand-written log, what
the log parsers make of it: the transcript's canonical text, the parse
confidence and every warning in order, or the exact message of the error
the parse raises. The logs are the `corpus/` cases (pair, pot, rounds
and structure from each sidecar), `fig_single_model_fair_fair.txt`, the
`fig_agent_*.txt` pair (both fair-fair) and
`single_model_stubborn_greedy.txt` (greedy-greedy), at the default game
size. So a change to any parsed field, a strategy field or a warning
shows, not only a changed offer or decision.

Regenerate the file after an intended change with
``PYTHONPATH=src python tests/test_golden_parses.py``.
"""

from __future__ import annotations

import json

import pytest

from helpers import CORPUS, FIXTURES
from ultimatum.engine import GameConfig
from ultimatum.strategy import PersonalityPair
from ultimatum.transcripts import (
    InconsistentLogsError,
    UnparseableLogError,
    parse_agent_log,
    parse_single_model_log,
    serialize_canonical,
)

GOLDEN = FIXTURES / "parsed_logs.json"


def _cases() -> dict[str, tuple[list, str, GameConfig]]:
    """Case name -> (log paths, pair label, game); one path is a combined
    log, two are a (proposer, receiver) pair."""
    cases = {}
    for sidecar in sorted(CORPUS.glob("*.json")):
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        slots = ["single"] if meta["structure"] == "single_model" else ["proposer", "receiver"]
        paths = [CORPUS / meta["files"][slot] for slot in slots]
        cases[f"corpus/{sidecar.stem}"] = (paths, meta["pair"], GameConfig(meta["pot"], meta["rounds"]))
    cases["fig_single_model_fair_fair"] = (
        [FIXTURES / "fig_single_model_fair_fair.txt"], "fair-fair", GameConfig()
    )
    cases["fig_agent"] = (
        [FIXTURES / "fig_agent_proposer.txt", FIXTURES / "fig_agent_receiver.txt"],
        "fair-fair",
        GameConfig(),
    )
    cases["single_model_stubborn_greedy"] = (
        [FIXTURES / "single_model_stubborn_greedy.txt"], "greedy-greedy", GameConfig()
    )
    return cases


CASES = _cases()


def _parsed(name: str) -> dict:
    paths, pair_label, game = CASES[name]
    texts = [p.read_text(encoding="utf-8") for p in paths]
    pair = PersonalityPair.from_label(pair_label)
    try:
        if len(texts) == 1:
            transcript, diagnostics = parse_single_model_log(texts[0], pair, game)
        else:
            transcript, diagnostics = parse_agent_log((texts[0], texts[1]), pair, game)
    except (UnparseableLogError, InconsistentLogsError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "canonical": serialize_canonical(transcript),
        "confidence": diagnostics.confidence.value,
        "warnings": list(diagnostics.warnings),
    }


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_committed_log_is_pinned(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_log_parses_as_pinned(name, golden):
    assert _parsed(name) == golden[name]


if __name__ == "__main__":
    parsed = {name: _parsed(name) for name in CASES}
    GOLDEN.write_text(json.dumps(parsed, indent=2, sort_keys=True) + "\n", encoding="utf-8")
