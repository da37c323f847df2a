import threading
from dataclasses import astuple

import pytest

from ultimatum.agents import Gateway, GatewayError, HttpGateway
from ultimatum.experiment import (
    ExperimentPlan,
    GroupCounts,
    InvalidPlanError,
    RunStore,
    aggregate,
    count_group,
    load_plan,
    load_records,
    plan_from_dict,
    regrade_record,
    render_report,
    run_batch,
)
from ultimatum.orchestrator import synthesize_single_model_log
from ultimatum.strategy import ALL_PAIRS, Personality, PersonalityPair
from ultimatum.transcripts import Structure

FAIR_FAIR = PersonalityPair(Personality.FAIR, Personality.FAIR)


class TestPlanValidation:
    def test_empty_mapping_gives_the_full_grid(self):
        plan = plan_from_dict({})
        assert plan.structures == (Structure.SINGLE_MODEL, Structure.MULTI_AGENT)
        assert plan.pairs == ALL_PAIRS
        assert plan.runs_per_cell == 10
        assert len(plan.cells()) == 8

    def test_all_keyword_expands_both_axes(self):
        plan = plan_from_dict({"structures": "all", "pairs": "all"})
        assert len(plan.cells()) == 8

    def test_explicit_lists_are_honored(self):
        plan = plan_from_dict(
            {
                "structures": ["multi_agent"],
                "pairs": ["fair-greedy", "greedy-greedy"],
                "runs_per_cell": 4,
                "seed": 7,
                "sampling": {"temperature": 0.25},
            }
        )
        assert plan.structures == (Structure.MULTI_AGENT,)
        assert [p.label() for p in plan.pairs] == ["fair-greedy", "greedy-greedy"]
        assert plan.runs_per_cell == 4
        assert plan.seed == 7
        assert plan.sampling.temperature == 0.25

    @pytest.mark.parametrize(
        "data, fragment",
        [
            ({"warp_drive": 9}, "unknown plan keys"),
            ({"structures": ["warp_drive"]}, "bad plan value"),
            ({"pairs": ["bold-timid"]}, "bad plan value"),
            ({"pairs": ["fair-fair", "fair-fair"]}, "duplicate"),
            ({"structures": ["single_model", "single_model"]}, "duplicate"),
            ({"runs_per_cell": 0}, "runs_per_cell"),
            ({"pot": -5}, "bad plan value"),
            ({"sampling": {"typos": 1}}, "unknown sampling keys"),
            ({"sampling": [1, 2]}, "sampling must be a mapping"),
            ({"flaws": {"referee": "incomplete"}}, "flaws must map"),
            ({"flaws": {"proposer": "inconsistent_threshold"}}, "not a proposer flaw"),
            ({"flaws": {"receiver": "deviator"}}, "not a receiver flaw"),
        ],
    )
    def test_bad_plans_are_rejected(self, data, fragment):
        with pytest.raises(InvalidPlanError, match=fragment):
            plan_from_dict(data)

    def test_plan_must_be_a_mapping(self):
        with pytest.raises(InvalidPlanError):
            plan_from_dict(["single_model"])

    def test_none_flaw_means_no_flaw(self):
        plan = plan_from_dict({"flaws": {"proposer": "none"}})
        assert plan.proposer_flaw is None

    def test_load_plan_reads_yaml(self, tmp_path):
        path = tmp_path / "plan.yaml"
        path.write_text(
            "structures: [single_model]\n"
            "pairs: [fair-fair]\n"
            "runs_per_cell: 3\n"
            "pot: 100\n"
            "rounds: 5\n"
            "seed: 2\n",
            encoding="utf-8",
        )
        plan = load_plan(path)
        assert plan.structures == (Structure.SINGLE_MODEL,)
        assert plan.pairs == (FAIR_FAIR,)
        assert plan.runs_per_cell == 3

    def test_load_plan_rejects_bad_yaml(self, tmp_path):
        path = tmp_path / "plan.yaml"
        path.write_text("structures: [unclosed\n", encoding="utf-8")
        with pytest.raises(InvalidPlanError, match="not valid YAML"):
            load_plan(path)

    def test_load_plan_missing_file(self, tmp_path):
        with pytest.raises(InvalidPlanError, match="cannot read"):
            load_plan(tmp_path / "nope.yaml")

    def test_empty_file_is_the_default_plan(self, tmp_path):
        path = tmp_path / "plan.yaml"
        path.write_text("", encoding="utf-8")
        assert load_plan(path) == ExperimentPlan()


def oracle_batch(runs_per_cell, flaws=None, **extra):
    data = {
        "structures": ["single_model"],
        "pairs": ["fair-fair"],
        "runs_per_cell": runs_per_cell,
    }
    if flaws:
        data["flaws"] = flaws
    data.update(extra)
    return run_batch(plan_from_dict(data))


@pytest.fixture(scope="module")
def mixed_records():
    """30 graded single-model runs with a designed error mix:
    7 clean, 14 strategy-only, 6 gameplay-only, 3 with both."""
    records = []
    records += oracle_batch(7).records
    records += oracle_batch(14, {"proposer": "incomplete"}).records
    records += oracle_batch(6, {"proposer": "deviator"}).records
    records += oracle_batch(
        3, {"proposer": "deviator", "receiver": "inconsistent_threshold"}
    ).records
    return records


class TestRunBatch:
    def test_grid_order_and_ids(self):
        plan = plan_from_dict({"runs_per_cell": 2})
        batch = run_batch(plan)
        assert len(batch.records) == 16
        assert batch.records[0]["run_id"] == "single_model.fair-fair.000"
        assert batch.records[1]["run_id"] == "single_model.fair-fair.001"
        assert batch.records[-1]["run_id"] == "multi_agent.greedy-greedy.001"
        assert batch.ok_count == 16
        assert batch.failed_count == 0

    def test_clean_oracles_grade_clean_everywhere(self):
        batch = run_batch(plan_from_dict({"runs_per_cell": 1}))
        classes = {r["verdict"]["error_class"] for r in batch.records}
        assert classes == {"none"}
        assert {r["confidence"] for r in batch.records} == {"exact"}

    def test_worker_count_does_not_change_output(self):
        plan = plan_from_dict({"runs_per_cell": 2, "seed": 5})
        serial = run_batch(plan, max_workers=1)
        parallel = run_batch(plan, max_workers=4)
        strip = lambda r: {k: v for k, v in r.items() if k != "elapsed_seconds"}
        assert [strip(r) for r in serial.records] == [strip(r) for r in parallel.records]

    def test_seeds_derive_from_the_plan_seed(self):
        batch = oracle_batch(2, seed=2)
        assert [r["seed"] for r in batch.records] == [2_000_006, 2_000_007]

    def test_planted_flaws_grade_uniformly(self):
        batch = oracle_batch(3, {"proposer": "incomplete"})
        assert [r["verdict"]["error_class"] for r in batch.records] == ["strategy_only"] * 3

    def test_flaws_apply_to_multi_agent_runs_too(self):
        data = {
            "structures": ["multi_agent"],
            "pairs": ["fair-fair"],
            "runs_per_cell": 2,
            "flaws": {"proposer": "deviator"},
        }
        batch = run_batch(plan_from_dict(data))
        assert [r["verdict"]["error_class"] for r in batch.records] == ["gameplay_only"] * 2

    def test_store_receives_every_record(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        plan = plan_from_dict(
            {"structures": ["single_model"], "pairs": ["fair-fair"], "runs_per_cell": 4}
        )
        batch = run_batch(plan, store=store)
        assert load_records(store.path) == list(batch.records)

    def test_keep_prompts_controls_traffic_capture(self):
        plain = oracle_batch(1).records[0]
        assert "prompts" not in plain
        plan = plan_from_dict(
            {"structures": ["single_model"], "pairs": ["fair-fair"], "runs_per_cell": 1}
        )
        verbose = run_batch(plan, keep_prompts=True).records[0]
        assert verbose["prompts"][0][0] == "single_model"
        assert verbose["replies"][0][0] == "single_model"

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"mode": "warp"}, "mode must be one of"),
            ({"mode": "replay"}, "replay mode needs"),
        ],
    )
    def test_mode_validation(self, kwargs, fragment):
        with pytest.raises(InvalidPlanError, match=fragment):
            run_batch(plan_from_dict({}), **kwargs)

    def test_flaws_refuse_non_oracle_modes(self):
        plan = plan_from_dict({"flaws": {"proposer": "deviator"}})
        with pytest.raises(InvalidPlanError, match="oracle"):
            run_batch(plan, mode="replay", gateway=FailingGateway())

    def test_live_mode_needs_an_endpoint(self):
        with pytest.raises(InvalidPlanError, match="endpoint"):
            run_batch(plan_from_dict({}), mode="live")


class FailingGateway(Gateway):
    def _complete(self, model, messages, params):
        raise GatewayError("endpoint offline")


class FlakySecondRequest(Gateway):
    """Fails exactly the second completion request it receives."""

    def __init__(self):
        super().__init__()
        self._log = synthesize_single_model_log(FAIR_FAIR)
        self.calls = 0

    def _complete(self, model, messages, params):
        self.calls += 1
        if self.calls == 2:
            raise GatewayError("endpoint offline")
        return self._log


class NullContentSession:
    """An HTTP session whose every completion carries "content": null."""

    class Response:
        status_code = 200

        def json(self):
            return {"choices": [{"message": {"role": "assistant", "content": None}}]}

    def post(self, url, json=None, headers=None, timeout=None):
        return self.Response()


class TestFailedRuns:
    def test_null_reply_content_fails_the_run_not_the_batch(self):
        plan = plan_from_dict({"runs_per_cell": 2, "endpoint": "http://example.invalid/v1"})
        gateway = HttpGateway(plan.endpoint, session=NullContentSession(), sleep=lambda s: None)
        batch = run_batch(plan, mode="live", gateway=gateway, max_workers=2)
        assert len(batch.records) == 16
        assert {r["status"] for r in batch.records} == {"failed"}
        assert all(r["cause"].startswith("GatewayError: ") for r in batch.records)

    def test_failures_are_recorded_not_raised(self):
        plan = plan_from_dict(
            {"structures": ["single_model"], "pairs": ["fair-fair"], "runs_per_cell": 3}
        )
        batch = run_batch(plan, mode="replay", gateway=FailingGateway())
        assert batch.failed_count == 3
        record = batch.records[0]
        assert record["status"] == "failed"
        assert record["cause"] == "GatewayError: endpoint offline"
        assert record["transcript"] is None
        assert batch.gateway_usage == {"requests": 3, "retries": 0}

    def test_one_failure_does_not_poison_the_batch(self):
        plan = plan_from_dict(
            {"structures": ["single_model"], "pairs": ["fair-fair"], "runs_per_cell": 3}
        )
        batch = run_batch(plan, mode="replay", gateway=FlakySecondRequest())
        assert [r["status"] for r in batch.records] == ["ok", "failed", "ok"]
        assert batch.ok_count == 2

    def test_failed_runs_never_enter_denominators(self):
        plan = plan_from_dict(
            {"structures": ["single_model"], "pairs": ["fair-fair"], "runs_per_cell": 3}
        )
        batch = run_batch(plan, mode="replay", gateway=FlakySecondRequest())
        summary = aggregate(batch.records)
        assert summary.total == 3
        assert summary.ok == 2
        assert summary.failed == 1
        cell = summary.by_cell[("single_model", "fair-fair")]
        assert (cell.ok, cell.none) == (2, 2)
        assert "cell,single_model/fair-fair,human_rate,100" in render_report(summary, fmt="csv")


class TestRunStore:
    def test_append_and_load_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append({"run_id": "a", "status": "ok"})
        store.append({"run_id": "b", "status": "failed"})
        assert [r["run_id"] for r in load_records(store.path)] == ["a", "b"]

    def test_bad_line_reports_its_number(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"run_id": "a"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":2: bad record"):
            load_records(path)

    def test_non_object_line_is_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not an object"):
            load_records(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"run_id": "a"}\n\n{"run_id": "b"}\n', encoding="utf-8")
        assert len(load_records(path)) == 2

    def test_concurrent_appends_never_interleave(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")

        def work(worker):
            for k in range(25):
                store.append({"worker": worker, "k": k})

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = load_records(store.path)
        assert len(records) == 200
        assert {(r["worker"], r["k"]) for r in records} == {
            (i, k) for i in range(8) for k in range(25)
        }


class TestRegrade:
    def test_regrading_reproduces_the_stored_verdict(self, mixed_records):
        for record in mixed_records:
            assert regrade_record(record) == record["verdict"]

    def test_failed_records_cannot_be_regraded(self):
        plan = plan_from_dict(
            {"structures": ["single_model"], "pairs": ["fair-fair"], "runs_per_cell": 1}
        )
        record = run_batch(plan, mode="replay", gateway=FailingGateway()).records[0]
        with pytest.raises(ValueError, match="no transcript"):
            regrade_record(record)


class TestGroupCounts:
    def test_counts_add_like_vectors(self, mixed_records):
        whole = astuple(count_group(mixed_records))
        left = astuple(count_group(mixed_records[:11]))
        right = astuple(count_group(mixed_records[11:]))
        assert tuple(a + b for a, b in zip(left, right)) == whole
        assert count_group([]) == GroupCounts()

    def test_error_arithmetic(self, mixed_records):
        counts = count_group(mixed_records)
        assert counts.ok == 30
        assert counts.none == 7
        assert counts.strategy_only == 14
        assert counts.gameplay_only == 6
        assert counts.both == 3
        assert counts.errors == 23
        assert counts.strategy_errors == 17
        assert counts.gameplay_errors == 9

    def test_empty_group_has_no_rate(self):
        # A cell whose every run failed has nothing graded to take a rate of.
        failed = {"run_id": "x", "status": "failed", "structure": "single_model", "pair": "fair-fair"}
        report = render_report(aggregate([failed]), fmt="csv")
        assert "cell,single_model/fair-fair,human_rate,-" in report.splitlines()


class TestAggregate:
    def test_error_share_comparison(self, mixed_records):
        summary = aggregate(mixed_records)
        comparison, = summary.error_comparisons
        assert comparison.structure == "single_model"
        assert comparison.test is not None
        assert comparison.test.statistic == pytest.approx(2.3794, abs=1e-4)
        assert comparison.test.p_two_tailed == pytest.approx(0.01734, abs=5e-4)

    @pytest.mark.parametrize(
        "records, note",
        [
            ("mixed", "no graded multi_agent runs"),
            ("multi_agent", "no graded single_model runs"),
            ("none", "no graded runs"),
        ],
        ids=["mixed", "multi_agent", "none"],
    )
    def test_headline_needs_both_structures(self, request, records, note):
        records = {
            "mixed": lambda: request.getfixturevalue("mixed_records"),
            "multi_agent": lambda: oracle_batch(2, structures=["multi_agent"]).records,
            "none": lambda: [],
        }[records]()
        for headline in aggregate(records).headlines:
            assert (headline.test, headline.note) == (None, note)
            sides = {(headline.member_a, headline.trials_a), (headline.member_b, headline.trials_b)}
            assert ("-", 0) in sides

    def test_headline_compares_best_members(self, mixed_records):
        extra = run_batch(
            plan_from_dict(
                {"structures": ["multi_agent"], "pairs": ["fair-fair"], "runs_per_cell": 8}
            )
        ).records
        summary = aggregate(mixed_records + list(extra))
        headline = summary.headlines[0]
        assert headline.name == "human consistency"
        assert headline.member_a == "multi_agent/oracle"
        assert (headline.successes_a, headline.trials_a) == (8, 8)
        assert (headline.successes_b, headline.trials_b) == (7, 30)
        assert headline.test is not None

    def test_no_errors_leaves_a_note(self):
        summary = aggregate(oracle_batch(3).records)
        comparison, = summary.error_comparisons
        assert comparison.test is None
        assert comparison.note == "no errors"


class TestReports:
    def test_markdown_report_carries_the_key_rates(self, mixed_records):
        report = render_report(aggregate(mixed_records))
        assert "73.9%" in report
        assert "39.1%" in report
        assert "2.3794" in report
        assert "| single_model | fair-fair | 30 | 30 | 0 | 7 |" in report

    def test_report_is_deterministic(self, mixed_records):
        summary = aggregate(mixed_records)
        assert render_report(summary) == render_report(summary)
        assert render_report(summary, fmt="csv") == render_report(summary, fmt="csv")

    def test_csv_report_is_well_formed(self, mixed_records):
        import csv
        import io

        text = render_report(aggregate(mixed_records), fmt="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["section", "group", "metric", "value"]
        assert all(len(row) == 4 for row in rows)
        assert ["cell", "single_model/fair-fair", "runs", "30"] in rows

    def test_empty_summary_renders_a_banner(self):
        assert "No runs recorded." in render_report(aggregate([]))
        assert "no runs recorded" in render_report(aggregate([]), fmt="csv")

    def test_unknown_format_is_an_error(self, mixed_records):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(aggregate(mixed_records), fmt="pdf")
