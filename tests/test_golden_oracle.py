"""Golden stores of two oracle plans run through `ultimatum run`.

`tests/fixtures/oracle/` holds each plan and the store it writes, every
record with all its fields but `elapsed_seconds`:

* `clean.yaml`: both structures, all four pairs, two runs per cell, pot
  100, 5 rounds, run with `--keep-prompts`, so its store pins each run's
  prompt and reply traffic too;
* `deviator.yaml`: the plan CI runs (two pairs, three runs per cell,
  pot 37, 3 rounds, a deviating proposer).

The stores pin the oracles' canonical transcripts, raw logs included,
and their verdicts; a fresh run of each plan must write its store byte
for byte. A multi-agent record's raw logs are the offer and decision
replies its game was played from.

`deviator-per-agent-logs.jsonl` is the deviator store as written before
that, when a multi-agent record's raw logs were its two per-agent logs.
It is not regenerated: it pins that such a store still reads, re-grades
to its stored verdicts and reports as the current store does, and that
its per-agent logs are the ones rendered from the current transcripts.

Regenerate the other files after an intended change with
``PYTHONPATH=src python tests/test_golden_oracle.py``.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest

from helpers import render_agent_logs
from ultimatum import experiment
from ultimatum.cli import main
from ultimatum.experiment import load_records
from ultimatum.transcripts import game_text, parse_canonical, serialize_canonical

ORACLE = pathlib.Path(__file__).parent / "fixtures" / "oracle"
PER_AGENT_LOGS = ORACLE / "deviator-per-agent-logs.jsonl"
OPTIONS = {"clean": ["--keep-prompts"], "deviator": []}


def _store(case: str) -> str:
    """The store `ultimatum run` writes for the case's plan, without
    `elapsed_seconds`."""
    with tempfile.TemporaryDirectory() as work:
        out = pathlib.Path(work) / "runs.jsonl"
        args = ["run", "--plan", str(ORACLE / f"{case}.yaml"), "--out", str(out)]
        assert main(args + OPTIONS[case]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    return "".join(
        json.dumps({k: v for k, v in r.items() if k != "elapsed_seconds"}, sort_keys=True) + "\n"
        for r in records
    )


def _path(case: str) -> pathlib.Path:
    return ORACLE / f"{case}.jsonl"


@pytest.mark.parametrize("case", OPTIONS)
def test_oracle_run_matches_golden_store(case):
    assert _store(case) == _path(case).read_text(encoding="utf-8")


def _cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestAStoreWithPerAgentLogs:
    def test_its_records_are_the_current_ones_but_for_their_raw_logs(self):
        old, new = load_records(PER_AGENT_LOGS), load_records(_path("deviator"))
        assert len(old) == len(new) == 12
        for was, now in zip(old, new):
            assert {**was, "transcript": None} == {**now, "transcript": None}
            assert game_text(was["transcript"]) == game_text(now["transcript"])
            assert serialize_canonical(parse_canonical(was["transcript"])) == was["transcript"]
            logs = parse_canonical(was["transcript"]).raw_logs
            if was["structure"] == "multi_agent":
                assert [label for label, _ in logs] == ["proposer", "receiver"]
                rendered = render_agent_logs(parse_canonical(now["transcript"]))
                assert tuple(text for _, text in logs) == rendered
            else:
                assert logs == parse_canonical(now["transcript"]).raw_logs

    def test_it_regrades_to_its_stored_verdicts(self, capsys):
        code, out = _cli(capsys, "grade", "--records", str(PER_AGENT_LOGS))
        assert code == 0
        assert "[differs from stored verdict]" not in out
        assert out.endswith("12 records, 12 graded, 0 failed\n")
        assert (code, out) == _cli(capsys, "grade", "--records", str(_path("deviator")))

    @pytest.mark.parametrize("form", ["markdown", "csv"])
    def test_it_reports_as_the_current_store_does(self, capsys, form):
        old = _cli(capsys, "report", "--records", str(PER_AGENT_LOGS), "--format", form)
        assert old == _cli(capsys, "report", "--records", str(_path("deviator")), "--format", form)

    def test_with_the_current_store_each_game_is_graded_once(self, tmp_path, monkeypatch, capsys):
        both = tmp_path / "both.jsonl"
        both.write_bytes(PER_AGENT_LOGS.read_bytes() + _path("deviator").read_bytes())
        graded = []
        evaluate = experiment.evaluate_transcript
        monkeypatch.setattr(experiment, "evaluate_transcript", lambda t: graded.append(t) or evaluate(t))
        code, out = _cli(capsys, "grade", "--records", str(both))
        assert code == 0
        assert "[differs from stored verdict]" not in out
        assert out.endswith("24 records, 24 graded, 0 failed\n")
        # Two pairs, each pair's game stored under both structures.
        assert sorted(t.pair.label() for t in graded) == ["fair-greedy", "greedy-fair"]


if __name__ == "__main__":
    for case in OPTIONS:
        _path(case).write_text(_store(case), encoding="utf-8")
