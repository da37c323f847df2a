import collections
import contextlib
import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIXTURES
from ultimatum import cli, experiment
from ultimatum.agents import Gateway, GatewayError
from ultimatum.cli import EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from ultimatum.experiment import load_records, plan_from_dict, regrade_record, run_batch
from ultimatum.transcripts import game_text


@pytest.fixture
def plan_file(tmp_path):
    path = tmp_path / "plan.yaml"
    path.write_text(
        "structures: [single_model]\npairs: [fair-fair]\nruns_per_cell: 3\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def store_path(tmp_path, plan_file):
    out = tmp_path / "runs.jsonl"
    assert main(["run", "--plan", str(plan_file), "--out", str(out)]) == EXIT_OK
    return out


class TestStatsCommand:
    def test_chi_square(self, capsys):
        assert main(["stats", "chi2", "35", "40", "20", "40"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chi-square = 13.090909 (df=1)" in out
        assert "two-tailed p = 0.000296" in out

    def test_chi_square_other_counts(self, capsys):
        assert main(["stats", "chi2", "35", "40", "5", "25"]) == EXIT_OK
        assert "29.615625" in capsys.readouterr().out

    def test_z_test(self, capsys):
        assert main(["stats", "ztest", "20", "20", "5", "20"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "z = 4.898979" in out
        assert "two-tailed p = 9.63357e-07" in out

    def test_degenerate_counts_are_a_usage_error(self, capsys):
        assert main(["stats", "chi2", "0", "0", "0", "0"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_empty_z_test_sample_is_a_usage_error(self, capsys):
        assert main(["stats", "ztest", "0", "0", "1", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: empty sample\n"

    def test_impossible_counts_are_a_usage_error(self, capsys):
        assert main(["stats", "ztest", "30", "20", "5", "20"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("test", ["chi2", "ztest"])
    def test_small_expected_counts_warn(self, capsys, test):
        assert main(["stats", test, "7", "7", "0", "7"]) == EXIT_OK
        assert "warning: smallest expected cell count is 3.50 (< 5)" in capsys.readouterr().out


class TestRunCommand:
    def test_runs_a_plan_and_stores_records(self, plan_file, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan_file), "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "3 runs" in stdout
        assert "3 graded, 0 failed" in stdout
        records = load_records(out)
        assert len(records) == 3
        assert records[0]["run_id"] == "single_model.fair-fair.000"
        assert records[0]["verdict"]["error_class"] == "none"

    def test_seed_override(self, plan_file, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == EXIT_OK
        assert load_records(out)[0]["seed"] == 5_000_015

    def test_bad_plan_is_a_usage_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.yaml"
        plan.write_text("warp_drive: 9\n", encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan), "--out", str(out)]) == EXIT_USAGE
        assert "unknown plan keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, error",
        [
            ("pot: 100\npot: 200\n", "error: plan file repeats key 'pot' on line 2 (first on line 1)\n"),
            (
                "sampling:\n  temperature: 0.3\n  top_p: 0.9\n  temperature: 0.4\n",
                "error: plan file repeats key 'temperature' on line 4 (first on line 2)\n",
            ),
            (
                "runs_per_cell: 1\nflaws: {proposer: deviator, proposer: incomplete}\n",
                "error: plan file repeats key 'proposer' on line 2 (first on line 2)\n",
            ),
        ],
    )
    def test_a_repeated_plan_key_is_a_usage_error(self, tmp_path, capsys, text, error):
        plan = tmp_path / "plan.yaml"
        plan.write_text(text, encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == error
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("structures: [unclosed\n", "expected ',' or ']', but got '<stream end>' on line 2, column 1"),
            ("pot: 100\n  rounds: 5\n", "mapping values are not allowed here on line 2, column 9"),
            ("pot: @x\n", "found character '@' that cannot start any token on line 1, column 6"),
        ],
    )
    def test_a_plan_that_is_not_yaml_is_one_error_line(self, tmp_path, capsys, text, problem):
        plan = tmp_path / "plan.yaml"
        plan.write_text(text, encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: plan file is not valid YAML: {problem}\n"
        assert not out.exists()

    def test_an_unreadable_character_in_a_plan_is_one_error_line(self, tmp_path, capsys):
        plan = tmp_path / "plan.yaml"
        plan.write_text("pot: 1\x00\n", encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: plan file is not valid YAML: unacceptable character #x0000")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_a_plan_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys):
        plan = tmp_path / "plan.yaml"
        plan.write_bytes(b"runs_per_cell: 1\npot: \xff\n")
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (
            "error: plan file is not valid YAML: unacceptable character #x00ff: "
            f'invalid start byte in "{plan}", position 22\n'
        )
        assert not out.exists()

    @pytest.mark.parametrize("bad_log", ["--single-log", "--proposer-log", "--receiver-log"])
    def test_a_log_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, bad_log):
        log = tmp_path / "bad.txt"
        log.write_bytes(b"ROUND 1\n\xff\n")
        proposer, receiver = FIXTURES / "fig_agent_proposer.txt", FIXTURES / "fig_agent_receiver.txt"
        logs = {
            "--single-log": ["--single-log", log],
            "--proposer-log": ["--proposer-log", log, "--receiver-log", receiver],
            "--receiver-log": ["--proposer-log", proposer, "--receiver-log", log],
        }[bad_log]
        assert main(["grade", *map(str, logs), "--pair", "fair-fair"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {log}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte\n"

    def test_a_log_that_cannot_be_read_is_one_error_line(self, tmp_path, capsys):
        log = tmp_path / "missing.txt"
        assert main(["grade", "--single-log", str(log), "--pair", "fair-fair"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{log}'\n"

    @pytest.mark.parametrize("key, error", [
        ("structures", "error: plan names no structures\n"),
        ("pairs", "error: plan names no personality pairs\n"),
    ])
    def test_a_plan_with_an_empty_grid_is_one_error_line(self, tmp_path, capsys, key, error):
        plan = tmp_path / "plan.yaml"
        plan.write_text(f"{key}: []\n", encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == error
        assert not out.exists()

    def test_a_payoff_line_the_engine_disagrees_with_is_a_warning(self, tmp_path, capsys):
        log = tmp_path / "log.txt"
        log.write_text(
            "STRATEGY (Proposer): I will offer $0.50 in every round.\n"
            "STRATEGY (Receiver): I will accept offers of at least $0.40.\n"
            "ROUND 1\nOFFER: $0.50\nDECISION: accept\n"
            "OUTCOME: the proposer receives $0.60 and the receiver receives $0.40\n",
            encoding="utf-8",
        )
        argv = ["grade", "--single-log", str(log), "--pair", "fair-fair", "--rounds", "1"]
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"{log}: none (parse confidence: exact)\n")
        assert out.endswith("warning: round 1: payoff line says [60, 40], engine computes [50, 50]\n")

    @pytest.mark.parametrize("item", ["1", "null", "[fair-fair]", "{fair: greedy}"])
    def test_a_pair_that_is_not_a_label_is_a_usage_error(self, tmp_path, capsys, item):
        plan = tmp_path / "plan.yaml"
        plan.write_text(f"pairs: [{item}]\n", encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        assert main(["run", "--plan", str(plan), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: bad plan value: bad personality pair label: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_sampling_is_a_usage_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.yaml"
        plan.write_text("sampling: {temperature: .nan}\n", encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        code = main(["run", "--plan", str(plan), "--out", str(out), "--mode", "live"])
        assert code == EXIT_USAGE
        assert "temperature must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_is_a_usage_error(self, plan_file, tmp_path, capsys, workers):
        out = tmp_path / "runs.jsonl"
        code = main(["run", "--plan", str(plan_file), "--out", str(out), "--workers", workers])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: workers must be at least 1, got {workers}\n"
        assert not out.exists()

    def test_an_endpoint_without_a_scheme_is_a_usage_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.yaml"
        plan.write_text("endpoint: localhost:8000/v1/chat/completions\n", encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        code = main(["run", "--plan", str(plan), "--out", str(out), "--mode", "live"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: endpoint must be an http(s) URL with a host")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_replay_mode_needs_a_file(self, plan_file, tmp_path, capsys):
        out = tmp_path / "runs.jsonl"
        code = main(["run", "--plan", str(plan_file), "--out", str(out), "--mode", "replay"])
        assert code == EXIT_USAGE
        assert "--replay-file" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["oracle", "live"])
    def test_a_replay_file_outside_replay_mode_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        plan = tmp_path / "plan.yaml"
        plan.write_text("endpoint: http://127.0.0.1:9/v1/chat/completions\n", encoding="utf-8")
        out = tmp_path / "runs.jsonl"

        def no_batch(*args, **kwargs):
            raise AssertionError("a batch started")

        monkeypatch.setattr(cli, "run_batch", no_batch)
        code = main(
            ["run", "--plan", str(plan), "--out", str(out), "--mode", mode,
             "--replay-file", str(tmp_path / "missing.jsonl")]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: --replay-file only applies in replay mode\n"
        assert not out.exists()

    @staticmethod
    def replay(plan_file, out, recording):
        return main(
            ["run", "--plan", str(plan_file), "--out", str(out), "--mode", "replay",
             "--replay-file", str(recording)]
        )

    @pytest.mark.parametrize(
        "line, reason",
        [
            (b"{not json\n", "Expecting property name"),
            (b'{"response": "OFFER: $0.50"}\n', "expected a request"),
            (b'{"request": {"model": "m"}, "response": "OFFER: $0.50"}\n', "shape of a chat request"),
            (b"\xff\xfe{}\n", "'utf-8' codec can't decode byte 0xff in position 0"),
        ],
        ids=["not-json", "no-request", "request-shape", "not-utf8"],
    )
    def test_malformed_recording_is_a_usage_error(self, plan_file, tmp_path, capsys, line, reason):
        recording = tmp_path / "recording.jsonl"
        recording.write_bytes(b"\n" + line)
        out = tmp_path / "runs.jsonl"
        assert self.replay(plan_file, out, recording) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {recording}:2: bad recording: ")
        assert reason in err
        assert not out.exists()

    def test_empty_recording_replays_with_every_run_failed(self, plan_file, tmp_path):
        recording = tmp_path / "recording.jsonl"
        recording.write_text("", encoding="utf-8")
        out = tmp_path / "runs.jsonl"
        assert self.replay(plan_file, out, recording) == EXIT_PARTIAL
        assert [r["status"] for r in load_records(out)] == ["failed"] * 3


def reference_grade(records):
    """`grade --records` output and exit code, each record re-graded on its own."""
    lines, failures = [], 0
    for record in records:
        run_id = record.get("run_id", "?")
        if record.get("status") != "ok":
            failures += 1
            lines.append(f"{run_id}: failed ({record.get('cause')})")
            continue
        try:
            verdict = regrade_record(record)
        except Exception as exc:
            failures += 1
            lines.append(f"{run_id}: ungradable ({exc})")
            continue
        drift = "" if verdict == record.get("verdict") else " [differs from stored verdict]"
        lines.append(f"{run_id}: {verdict['error_class']}{drift}")
    total = len(records)
    lines.append(f"{total} records, {total - failures} graded, {failures} failed")
    return "".join(line + "\n" for line in lines), EXIT_PARTIAL if failures else EXIT_OK


@pytest.fixture
def mixed_store(tmp_path):
    """A store that repeats transcripts, with one repeat's stored verdict
    edited, an unparseable transcript twice, empty transcripts, and failed
    records."""
    plan = tmp_path / "plan.yaml"
    plan.write_text("pairs: [fair-greedy, greedy-greedy]\nruns_per_cell: 3\n", encoding="utf-8")
    out = tmp_path / "runs.jsonl"
    assert main(["run", "--plan", str(plan), "--out", str(out)]) == EXIT_OK
    records = load_records(out)
    records[4]["verdict"] = {**records[4]["verdict"], "error_class": "both"}
    ok = {k: v for k, v in records[0].items() if k not in ("run_id", "transcript")}
    cell = {k: records[0][k] for k in ("structure", "pair", "schema")}
    records += [
        {**ok, "run_id": "junk.0", "transcript": "not a transcript"},
        {**ok, "run_id": "junk.1", "transcript": "not a transcript"},
        {**ok, "run_id": "empty.0", "transcript": ""},
        {**ok, "run_id": "empty.1", "transcript": ""},
        {"run_id": "failed.0", "status": "failed", "cause": "GatewayError: down", **cell},
        {"run_id": "failed.1", "status": "failed", "cause": "GatewayError: down", **cell,
         "transcript": records[0]["transcript"]},
    ]
    out.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return out


@pytest.fixture
def parsed(monkeypatch):
    """The transcripts regrade_record parses, in order."""
    calls = []
    parse = experiment.parse_canonical

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(experiment, "parse_canonical", counted)
    return calls


class TestGradeCommand:
    def test_grades_stored_records(self, store_path, capsys):
        assert main(["grade", "--records", str(store_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "single_model.fair-fair.000: none" in out
        assert "3 records, 3 graded, 0 failed" in out

    def test_a_pass_prints_what_grading_each_record_prints(self, mixed_store, capsys):
        expected = reference_grade(load_records(mixed_store))
        assert main(["grade", "--records", str(mixed_store)]) == expected[1]
        out = capsys.readouterr().out
        assert out == expected[0]
        assert out.count("[differs from stored verdict]") == 1
        assert out.count(": ungradable (") == 4
        assert "run 'empty.1' has no transcript to grade" in out

    def test_a_pass_parses_each_distinct_transcript_once(self, mixed_store, parsed, capsys):
        records = load_records(mixed_store)
        texts = [r["transcript"] for r in records if r.get("status") == "ok"]
        distinct = {t for t in texts if isinstance(t, str) and t}
        assert len(distinct) < len([t for t in texts if isinstance(t, str) and t])
        for passes in (1, 2):
            parsed.clear()
            for _ in range(passes):
                main(["grade", "--records", str(mixed_store)])
            strings = collections.Counter(t for t in parsed if isinstance(t, str))
            assert strings == collections.Counter({t: passes for t in distinct})
            assert len(parsed) == strings.total()  # only text is parsed

    def test_a_pass_grades_each_distinct_game_once(self, mixed_store, monkeypatch, capsys):
        # Each pair's game is stored under both structures, so the store's
        # four distinct transcripts hold two games.
        graded = []
        evaluate = experiment.evaluate_transcript
        monkeypatch.setattr(
            experiment, "evaluate_transcript", lambda t: graded.append(t.pair.label()) or evaluate(t)
        )
        expected = reference_grade(load_records(mixed_store))
        graded.clear()
        assert main(["grade", "--records", str(mixed_store)]) == expected[1]
        assert capsys.readouterr().out == expected[0]
        assert graded == ["fair-greedy", "greedy-greedy"]

    def test_a_text_is_parsed_before_its_game_is_looked_up(self, store_path, capsys):
        # Each record after the first holds the first one's game, but its
        # text does not read: the first one's game text (the header lacks
        # its structure), or the text with a malformed rawlog line.
        ok = load_records(store_path)[0]
        text = ok["transcript"]
        records = [ok] + [
            {**ok, "run_id": run_id, "transcript": transcript}
            for run_id, transcript in (
                ("game-text", game_text(text)),
                ("one-string-rawlog", text + 'rawlog "proposer"\n'),
                ("rawlog-junk", text + 'rawlog "a" "b" junk\n'),
            )
        ]
        store_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        expected = reference_grade(records)
        assert main(["grade", "--records", str(store_path)]) == EXIT_PARTIAL == expected[1]
        out = capsys.readouterr().out
        assert out == expected[0]
        assert out.count(": ungradable (") == 3
        assert "game-text: ungradable (bad header line: " in out

    def test_a_transcript_that_is_not_text_is_a_usage_error(self, store_path, capsys):
        ok = load_records(store_path)[0]
        records = [{**ok, "run_id": "n", "transcript": 7}, {**ok, "run_id": "l", "transcript": ["x"]}]
        store_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        capsys.readouterr()
        assert main(["grade", "--records", str(store_path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {store_path}:1: record n has transcript 7, not text\n"

    def test_grades_a_combined_log_file(self, capsys):
        log = FIXTURES / "fig_single_model_fair_fair.txt"
        assert main(["grade", "--single-log", str(log), "--pair", "fair-fair"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "none" in out
        payload = out[out.index("{") : out.rindex("}") + 1]
        assert json.loads(payload)["error_class"] == "none"

    def test_grades_an_agent_log_pair(self, capsys):
        code = main(
            [
                "grade",
                "--proposer-log", str(FIXTURES / "fig_agent_proposer.txt"),
                "--receiver-log", str(FIXTURES / "fig_agent_receiver.txt"),
                "--pair", "fair-fair",
            ]
        )
        assert code == EXIT_OK
        assert "none" in capsys.readouterr().out

    def test_flawed_log_grades_its_error_class(self, capsys):
        log = FIXTURES / "single_model_stubborn_greedy.txt"
        assert main(["grade", "--single-log", str(log), "--pair", "greedy-greedy"]) == EXIT_OK
        assert "gameplay_only" in capsys.readouterr().out

    def test_unparseable_log_exits_partial(self, tmp_path, capsys):
        log = tmp_path / "junk.txt"
        log.write_text("nothing resembling a game\n", encoding="utf-8")
        assert main(["grade", "--single-log", str(log), "--pair", "fair-fair"]) == EXIT_PARTIAL
        assert "cannot grade" in capsys.readouterr().err

    def test_exactly_one_source_is_required(self, store_path, capsys):
        assert main(["grade"]) == EXIT_USAGE
        code = main(
            [
                "grade",
                "--records", str(store_path),
                "--single-log", str(FIXTURES / "fig_single_model_fair_fair.txt"),
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "option", [["--pair", "fair-greedy"], ["--pot", "-5"], ["--rounds", "5"]], ids=lambda o: o[0]
    )
    def test_a_records_pass_refuses_the_raw_log_options(self, store_path, capsys, option):
        # Each record names its own pair and game, so an option that would
        # set them is a usage error, even an invalid one or the default.
        assert main(["grade", "--records", str(store_path), *option]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {option[0]} does not apply to --records: each record names its own pair and game\n"

    def test_raw_logs_need_a_pair(self, capsys):
        log = FIXTURES / "fig_single_model_fair_fair.txt"
        assert main(["grade", "--single-log", str(log)]) == EXIT_USAGE
        assert "--pair" in capsys.readouterr().err

    def test_agent_grading_needs_both_logs(self, capsys):
        code = main(
            [
                "grade",
                "--proposer-log", str(FIXTURES / "fig_agent_proposer.txt"),
                "--pair", "fair-fair",
            ]
        )
        assert code == EXIT_USAGE

    def test_bad_pair_label(self, capsys):
        log = FIXTURES / "fig_single_model_fair_fair.txt"
        code = main(["grade", "--single-log", str(log), "--pair", "bold-timid"])
        assert code == EXIT_USAGE


COMPLETE_AND_CONSISTENT = {
    "proposer_strategy_complete": True,
    "receiver_strategy_complete": True,
    "proposer_strategy_consistent": True,
    "receiver_strategy_consistent": True,
}


class TestReportCommand:
    def test_markdown_report(self, store_path, capsys):
        assert main(["report", "--records", str(store_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("# Ultimatum experiment report")
        assert "single_model | fair-fair" in out

    def test_csv_report(self, store_path, capsys):
        assert main(["report", "--records", str(store_path), "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("section,group,metric,value")

    def test_missing_store_is_a_usage_error(self, tmp_path, capsys):
        code = main(["report", "--records", str(tmp_path / "nope.jsonl")])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "records, message",
        [
            ([{}], "record {} has no field 'structure'"),
            ([{"run_id": "r", "structure": "single_model"}], "record r has no field 'pair'"),
            (
                [{"status": "ok", "structure": "multi_agent", "pair": "fair-fair", "verdict": {"x": 1}}],
                "has no verdict field 'error_class'",
            ),
            (
                [
                    {"run_id": "r", "status": "failed", "structure": None, "pair": "fair-fair"},
                    {"run_id": "s", "status": "failed", "structure": "multi_agent",
                     "pair": "fair-fair"},
                ],
                "record r has structure null, not a string",
            ),
            (
                [{"run_id": "r", "status": "failed", "structure": "multi_agent", "pair": 7}],
                "record r has pair 7, not a string",
            ),
            (
                [{"run_id": "r", "status": "ok", "structure": "multi_agent", "pair": "fair-fair",
                  "verdict": "x"}],
                'record r has verdict "x", not an object',
            ),
            (
                [{"run_id": "r", "status": "ok", "structure": "multi_agent", "pair": "fair-fair",
                  "verdict": {**COMPLETE_AND_CONSISTENT, "error_class": [1]}}],
                "record r has unknown error_class [1]",
            ),
            (
                [{"run_id": "r", "status": "ok", "structure": "multi_agent", "pair": "fair-fair",
                  "verdict": {**COMPLETE_AND_CONSISTENT, "error_class": "bogus"}}],
                'record r has unknown error_class "bogus"',
            ),
            (
                [{"run_id": "r", "status": "ok", "structure": "multi_agent", "pair": "fair-fair",
                  "verdict": {**COMPLETE_AND_CONSISTENT, "error_class": "none",
                              "proposer_strategy_complete": "no"}}],
                'record r has proposer_strategy_complete "no", not true or false',
            ),
            (
                [{"run_id": "r", "status": "ok", "structure": "multi_agent", "pair": "fair-fair",
                  "verdict": {**COMPLETE_AND_CONSISTENT, "error_class": "none",
                              "receiver_strategy_consistent": None}}],
                "record r has receiver_strategy_consistent null, not true or false",
            ),
        ],
        ids=["empty", "no-pair", "verdict", "null-structure", "number-pair", "text-verdict",
             "list-error-class", "unknown-error-class", "text-flag", "null-flag"],
    )
    def test_malformed_record_is_a_usage_error(self, tmp_path, capsys, records, message):
        store = tmp_path / "runs.jsonl"
        store.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert main(["report", "--records", str(store)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {store}:1: record ") and err.count("\n") == 1
        assert message in err


class _DownGateway(Gateway):
    def _complete(self, model, messages, params):
        raise GatewayError("endpoint down")


@functools.lru_cache(maxsize=None)
def _valid_records() -> tuple[str, ...]:
    """Stored lines of a graded oracle run, a failed run and a run that kept
    its prompts, as run_batch writes them."""
    plan = plan_from_dict({"pairs": ["fair-greedy"], "runs_per_cell": 1})
    oracle, _ = run_batch(plan).records
    _, kept = run_batch(plan, keep_prompts=True).records
    plan = plan_from_dict({"structures": ["multi_agent"], "pairs": ["fair-fair"], "runs_per_cell": 1})
    failed, = run_batch(plan, mode="replay", gateway=_DownGateway()).records
    return tuple(json.dumps(r) for r in (oracle, failed, kept))


_ANY_WRONG_TYPE = st.sampled_from([None, 7, 1.5, True, [], ["x"], {}])
# Each checked field: where it lives (the record or its verdict), whether
# only an ok record is checked for it, and the values it must not take.
_MUTATIONS = [
    ("record", False, "structure", st.one_of(_ANY_WRONG_TYPE, st.just("warp_drive"))),
    ("record", False, "pair", st.one_of(_ANY_WRONG_TYPE, st.just("bold-timid"))),
    ("record", False, "model", _ANY_WRONG_TYPE),
    ("record", False, "status", st.one_of(_ANY_WRONG_TYPE, st.just("done"))),
    ("record", True, "verdict", st.sampled_from([None, 7, "x", [], ["x"], True])),
    ("verdict", True, "error_class", st.one_of(_ANY_WRONG_TYPE, st.just("bogus"))),
    *(
        ("verdict", True, flag, st.sampled_from([None, 0, 1, "no", "true", [], {}]))
        for flag in experiment._STRATEGY_FLAGS
    ),
    ("record", True, "transcript", _ANY_WRONG_TYPE),
    ("record", False, "schema", st.sampled_from([None, 0, 2, True, 1.0, "1", [1]])),
]
_REMOVED = object()


@st.composite
def _broken_store(draw):
    """Valid stored lines with one record broken in one checked field (a wrong
    type, an unknown value, or the field removed), and that record's line
    number and field."""
    lines = [json.loads(line) for line in _valid_records()]
    lineno = draw(st.integers(1, len(lines)))
    record = lines[lineno - 1]
    where, _, field, wrong = draw(
        st.sampled_from([m for m in _MUTATIONS if record["status"] == "ok" or not m[1]])
    )
    removable = field != "model"  # a record may lack its model
    value = draw(st.one_of(wrong, st.just(_REMOVED)) if removable else wrong)
    target = record if where == "record" else record["verdict"]
    if value is _REMOVED:
        del target[field]
    else:
        target[field] = value
    return "".join(json.dumps(r) + "\n" for r in lines), lineno, record["run_id"], field


class TestRecordSchema:
    @settings(max_examples=150)
    @given(_broken_store())
    def test_one_broken_field_is_a_usage_error(self, tmp_path_factory, case):
        text, lineno, run_id, field = case
        store = tmp_path_factory.mktemp("broken") / "runs.jsonl"
        store.write_text(text, encoding="utf-8")
        for argv in (["report"], ["grade"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--records", str(store)])
            assert code == EXIT_USAGE
            assert out.getvalue() == ""
            message = err.getvalue()
            prefix = f"error: {store}:{lineno}: record {run_id} "
            assert message.startswith(prefix) and message.count("\n") == 1
            assert field in message[len(prefix):]


@pytest.fixture
def torn_store(store_path):
    """The three-record store with a fourth record cut short by a crash."""
    whole = store_path.read_text(encoding="utf-8")
    with store_path.open("a", encoding="utf-8") as fh:
        fh.write(whole.splitlines()[0][:40])
    return store_path


class TestTornStore:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["grade"], "3 records, 3 graded, 0 failed"),
            (["report"], "3 runs: 3 graded, 0 failed."),
            (["report", "--format", "csv"], "overall,-,total,3"),
        ],
        ids=["grade", "report", "report-csv"],
    )
    def test_the_torn_line_is_skipped_with_one_warning(self, torn_store, capsys, argv, expected):
        assert main([*argv, "--records", str(torn_store)]) == EXIT_OK
        captured = capsys.readouterr()
        assert expected in captured.out
        assert captured.err == f"warning: {torn_store}:4: skipped a torn final line\n"

    def test_a_torn_line_before_the_end_is_a_usage_error(self, torn_store, capsys):
        with torn_store.open("a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(["grade", "--records", str(torn_store)]) == EXIT_USAGE
        assert f"{torn_store}:4: bad record" in capsys.readouterr().err


class TestUndecodableStore:
    @pytest.mark.parametrize("command", ["grade", "report"])
    def test_a_line_that_is_not_utf8_is_named_by_its_file_and_line(self, store_path, capsys, command):
        with store_path.open("ab") as fh:
            fh.write(b'{"a": "\xff"}\n')
        assert main([command, "--records", str(store_path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {store_path}:4: bad record: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte\n"
        )


class TestParser:
    def test_a_command_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["meditate"])
        assert exc.value.code == 2
