import collections
import json
import sys
import threading
from dataclasses import astuple, fields

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ScriptedModelGateway, any_text, oracle_gateway, oracle_log, oracle_text, stored_record
from ultimatum import engine, experiment, orchestrator, prompts
from ultimatum.agents import Flaw, Gateway, GatewayError, HttpGateway, OracleAgent, ReplayGateway
from ultimatum.experiment import (
    RUN_FAILURES,
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
    _record,
)
from ultimatum.orchestrator import (
    SimulationConfig,
    make_model_agents,
    make_oracle_agents,
    run_multi_agent,
    run_single_model,
)
from ultimatum.rubric import ErrorClass
from ultimatum.strategy import ALL_PAIRS, MIN_POT, Personality, PersonalityPair, Role
from ultimatum.transcripts import Structure

FAIR_FAIR = PersonalityPair(Personality.FAIR, Personality.FAIR)


class TestPlanValidation:
    def test_empty_mapping_gives_the_full_grid(self):
        plan = plan_from_dict({})
        assert plan.structures == (Structure.SINGLE_MODEL, Structure.MULTI_AGENT)
        assert plan.pairs == ALL_PAIRS
        assert plan.runs_per_cell == 10
        assert len(plan.cells()) == 8

    def test_the_largest_pot_is_a_plan_value(self):
        assert plan_from_dict({"pot": engine.MAX_POT}).game.pot == engine.MAX_POT

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
            ({"pairs": [1]}, "bad plan value: bad personality pair label: 1"),
            ({"pairs": [None]}, "bad plan value: bad personality pair label: None"),
            ({"pairs": [["fair-fair"]]}, r"bad plan value: bad personality pair label: \['fair-fair'\]"),
            ({"pairs": [{"fair": "greedy"}]}, "bad plan value: bad personality pair label: {'fair'"),
            ({"structures": [1]}, "bad plan value: 1 is not a valid Structure"),
            ({"flaws": {"proposer": 1}}, "bad plan value: 1 is not a valid Flaw"),
            ({"pairs": ["fair-fair", "fair-fair"]}, "duplicate"),
            ({"structures": ["single_model", "single_model"]}, "duplicate"),
            ({"runs_per_cell": 0}, "runs_per_cell"),
            ({"pot": -5}, "bad plan value"),
            ({"pot": engine.MAX_POT + 1}, f"bad plan value: pot must be <= {engine.MAX_POT} cents"),
            ({"pot": 10**19}, f"bad plan value: pot must be <= {engine.MAX_POT} cents"),
            ({"sampling": {"typos": 1}}, "unknown sampling keys"),
            ({"sampling": [1, 2]}, "sampling must be a mapping"),
            ({"sampling": {"temperature": float("nan")}}, "temperature must be finite, got nan"),
            ({"sampling": {"top_p": float("inf")}}, "top_p must be finite, got inf"),
            ({"sampling": {"presence_penalty": float("-inf")}}, "presence_penalty must be finite"),
            ({"flaws": {"referee": "incomplete"}}, "flaws must map"),
            ({"flaws": {"proposer": "inconsistent_threshold"}}, "not a proposer flaw"),
            ({"flaws": {"receiver": "deviator"}}, "not a receiver flaw"),
            ({"pot": 99.5}, "pot must be a whole number, got 99.5"),
            ({"pot": "100"}, "pot must be a whole number, got '100'"),
            ({"rounds": True}, "rounds must be a whole number, got True"),
            ({"runs_per_cell": 2.7}, "runs_per_cell must be a whole number, got 2.7"),
            ({"seed": 1.9}, "seed must be a whole number, got 1.9"),
            ({"model": None}, "model must be a string, got None"),
            ({"model": 7}, "model must be a string, got 7"),
            ({"sampling": {"temperature": True}}, "temperature must be a number, got True"),
            ({"sampling": {"top_p": "0.9"}}, "sampling top_p must be a number, got '0.9'"),
            ({"structures": []}, "^plan names no structures$"),
            ({"pairs": []}, "^plan names no personality pairs$"),
        ],
    )
    def test_bad_plans_are_rejected(self, data, fragment):
        with pytest.raises(InvalidPlanError, match=fragment):
            plan_from_dict(data)

    @pytest.mark.parametrize(
        "endpoint",
        [
            5,
            ["http://example.invalid/v1"],
            "",
            "localhost:8000/v1/chat/completions",
            "example.invalid/v1",
            "ftp://x/y",
            "http://",
            "https:///v1/chat/completions",
            "http://example.invalid:port/v1",
            "http://example.invalid:99999/v1",
        ],
    )
    def test_an_endpoint_must_be_an_http_url_with_a_host(self, endpoint):
        with pytest.raises(InvalidPlanError, match="endpoint must be an http"):
            plan_from_dict({"endpoint": endpoint})

    @pytest.mark.parametrize(
        "endpoint",
        [
            "http://example.invalid/v1",
            "https://api.example.invalid/v1/chat/completions",
            "HTTP://127.0.0.1:8000/v1",
            "http://[::1]:8000/v1",
        ],
    )
    def test_http_endpoints_are_accepted(self, endpoint):
        assert plan_from_dict({"endpoint": endpoint}).endpoint == endpoint

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

    def test_load_plan_reads_distinct_keys_at_every_depth(self, tmp_path):
        # A key may appear once in each mapping, and a key a mapping sets
        # over one it merges in ("<<") is not a repeat.
        path = tmp_path / "plan.yaml"
        path.write_text(
            "runs_per_cell: 2\n"
            "sampling: {<<: {temperature: 0.3, top_p: 0.1}, top_p: 0.4}\n"
            "flaws: {proposer: deviator, receiver: none}\n",
            encoding="utf-8",
        )
        plan = load_plan(path)
        assert (plan.runs_per_cell, plan.sampling.temperature, plan.sampling.top_p) == (2, 0.3, 0.4)
        assert plan.proposer_flaw is Flaw.DEVIATOR

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

    @pytest.mark.parametrize("keep_prompts", [False, True])
    def test_a_moderated_run_builds_its_traffic_only_when_kept(
        self, fixtures_dir, monkeypatch, keep_prompts
    ):
        built = []
        build = orchestrator._Moderator.traffic

        def counted(moderator):
            built.append(moderator)
            return build(moderator)

        monkeypatch.setattr(orchestrator._Moderator, "traffic", counted)
        folder = fixtures_dir / "replay"
        batch = run_batch(
            load_plan(folder / "plan.yaml"),
            mode="replay",
            gateway=ReplayGateway(folder / "recording.jsonl"),
            keep_prompts=keep_prompts,
        )
        moderated = [r for r in batch.records if r["structure"] == "multi_agent"]
        assert moderated and batch.failed_count == 0
        assert len(built) == (len(moderated) if keep_prompts else 0)
        assert all(("prompts" in r) is keep_prompts for r in batch.records)

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

    def test_oracle_mode_refuses_a_gateway(self, tmp_path):
        gateway = FailingGateway()
        store = RunStore(tmp_path / "runs.jsonl")
        with pytest.raises(
            InvalidPlanError, match="^oracle mode plays scripted players and takes no gateway$"
        ):
            run_batch(plan_from_dict({}), mode="oracle", store=store, gateway=gateway)
        assert gateway.requests == 0
        assert not store.path.exists()

    def test_live_mode_needs_an_endpoint(self):
        with pytest.raises(InvalidPlanError, match="endpoint"):
            run_batch(plan_from_dict({}), mode="live")

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, tmp_path, workers):
        store = RunStore(tmp_path / "runs.jsonl")
        plan = plan_from_dict({"runs_per_cell": 1, "pairs": ["fair-fair"]})
        with pytest.raises(InvalidPlanError, match=f"^workers must be at least 1, got {workers}$"):
            run_batch(plan, store=store, max_workers=workers)
        assert not store.path.exists()


class FailingGateway(Gateway):
    def _complete(self, model, messages, params):
        raise GatewayError("endpoint offline")


class FlakySecondRequest(Gateway):
    """Fails exactly the second completion request it receives."""

    def __init__(self):
        super().__init__()
        self._log = oracle_log(FAIR_FAIR)
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
        assert (summary.totals.total, summary.totals.ok, summary.totals.failed) == (3, 2, 1)
        cell = summary.by_cell[("single_model", "fair-fair")]
        assert (cell.ok, cell.none) == (2, 2)
        assert "cell,single_model/fair-fair,human_rate,100" in render_report(summary, fmt="csv")


def without_elapsed(records):
    return [{k: v for k, v in r.items() if k != "elapsed_seconds"} for r in records]


def records_run_by_run(plan, single_model_gateway, keep_prompts=False, players=None):
    """The plan's records, each run played, parsed and graded on its own by
    a fresh run_single_model or run_multi_agent call. single_model_gateway(pair)
    gives the gateway a single-model run of that pair asks; players(config),
    when given, gives a multi-agent run its players, which are otherwise
    the plan's oracles."""
    records = []
    for structure, pair in plan.cells():
        for k in range(plan.runs_per_cell):
            run_id = f"{structure.value}.{pair.label()}.{k:03d}"
            config = SimulationConfig(
                structure, pair, plan.game, plan.model, plan.sampling,
                seed=plan.seed * 1_000_003 + len(records),
            )
            try:
                if structure is Structure.SINGLE_MODEL:
                    result = run_single_model(config, single_model_gateway(pair))
                elif players is not None:
                    result = run_multi_agent(config, players(config))
                else:
                    agents = make_oracle_agents(pair, plan.game, plan.proposer_flaw, plan.receiver_flaw)
                    result = run_multi_agent(config, agents)
            except RUN_FAILURES as exc:
                result = exc
            records.append(_record(run_id, config, result, 0.0, keep_prompts))
    return records


class InOrderReplies(Gateway):
    """A recording that answers the n-th completion request with its n-th reply."""

    def __init__(self, replies):
        super().__init__()
        self.replies = list(replies)

    def _complete(self, model, messages, params):
        return self.replies.pop(0)


@pytest.fixture
def parse_count(monkeypatch):
    """Counts the combined-log parses run_single_model makes."""
    calls = []
    parse = orchestrator.parse_single_model_log

    def counted(*args):
        calls.append(args[0])
        return parse(*args)

    monkeypatch.setattr(orchestrator, "parse_single_model_log", counted)
    return calls


@pytest.fixture
def games_played(monkeypatch):
    """The GameConfig of each game the moderator starts.

    engine.replay also starts a game, to re-check a parsed log's actions;
    that is no game played, so it is left out."""
    calls = []
    new_game = engine.new_game

    def counted(config=None):
        if sys._getframe(1).f_code is not engine.replay.__code__:
            calls.append(config)
        return new_game(config)

    monkeypatch.setattr(engine, "new_game", counted)
    return calls


@pytest.fixture
def dispatched(monkeypatch):
    """The (structure, pair) of each run_single_model and run_multi_agent
    call run_batch makes, in order."""
    calls = []
    for name in ("run_single_model", "run_multi_agent"):

        def counted(config, *args, _run=getattr(experiment, name), **kwargs):
            calls.append((config.structure, config.pair))
            return _run(config, *args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)
    return calls


def stall_greedy_proposers(monkeypatch):
    """A greedy oracle proposer never names an offer, so each game it
    plays raises TurnOrderViolationError in round 1."""
    act = OracleAgent.act

    def act_or_stall(agent, state):
        if agent.role is Role.PROPOSER and agent.personality is Personality.GREEDY:
            return "Let me think about it."
        return act(agent, state)

    monkeypatch.setattr(OracleAgent, "act", act_or_stall)


STRUCTURE_MIXES = [["single_model"], ["multi_agent"], ["single_model", "multi_agent"]]


class TestSharedGrades:
    """A batch plays each oracle pair's game once, and parses and grades
    each distinct single-model reply once; its records are the ones each
    run would get if it played and was graded on its own."""

    @settings(max_examples=25)
    @given(
        pot=st.integers(min_value=5, max_value=1000),
        rounds=st.integers(min_value=1, max_value=10),
        flaws=st.sampled_from(
            [
                None,
                {"proposer": "incomplete"},
                {"proposer": "deviator"},
                {"receiver": "inconsistent_threshold"},
            ]
        ),
        runs_per_cell=st.integers(min_value=1, max_value=4),
        structures=st.sampled_from(STRUCTURE_MIXES),
        keep_prompts=st.booleans(),
        max_workers=st.integers(min_value=1, max_value=2),
    )
    def test_oracle_records_match_runs_graded_one_by_one(
        self, pot, rounds, flaws, runs_per_cell, structures, keep_prompts, max_workers
    ):
        plan = plan_from_dict(
            {"pot": pot, "rounds": rounds, "flaws": flaws, "runs_per_cell": runs_per_cell,
             "structures": structures}
        )
        batch = run_batch(plan, max_workers=max_workers, keep_prompts=keep_prompts)
        expected = records_run_by_run(
            plan,
            lambda pair: oracle_gateway(pair, plan.game, proposer_flaw=plan.proposer_flaw,
                                        receiver_flaw=plan.receiver_flaw),
            keep_prompts,
        )
        assert without_elapsed(batch.records) == without_elapsed(expected)

    @pytest.mark.parametrize("runs_per_cell", [1, 3])
    @pytest.mark.parametrize("structures", STRUCTURE_MIXES, ids="+".join)
    def test_an_oracle_batch_plays_each_pair_once(self, games_played, structures, runs_per_cell):
        plan = plan_from_dict(
            {"structures": structures, "runs_per_cell": runs_per_cell}
        )
        first = run_batch(plan)
        assert len(games_played) == len(plan.pairs)
        assert len(first.records) == len(plan.cells()) * runs_per_cell
        second = run_batch(plan)
        assert len(games_played) == 2 * len(plan.pairs)
        assert without_elapsed(first.records) == without_elapsed(second.records)

    @pytest.mark.parametrize("runs_per_cell", [1, 3])
    @pytest.mark.parametrize("pairs", [["greedy-fair"], ["fair-greedy", "greedy-greedy"], "all"])
    def test_an_oracle_batch_grades_each_pair_once(self, monkeypatch, pairs, runs_per_cell):
        # A pair's single-model runs hold the game of its multi-agent runs,
        # so the batch grades P games for P pairs, not 2P.
        graded = []
        evaluate = orchestrator.evaluate_transcript
        monkeypatch.setattr(
            orchestrator, "evaluate_transcript", lambda t: graded.append(t.pair) or evaluate(t)
        )
        plan = plan_from_dict({"pairs": pairs, "runs_per_cell": runs_per_cell})
        batch = run_batch(plan)
        assert graded == list(plan.pairs)
        assert batch.ok_count == len(plan.cells()) * runs_per_cell

    @pytest.mark.parametrize("stalls", [False, True], ids=["every game plays", "greedy games fail"])
    @pytest.mark.parametrize("keep_prompts", [False, True], ids=["no prompts", "prompts"])
    @pytest.mark.parametrize("structures", STRUCTURE_MIXES, ids="+".join)
    def test_an_oracle_batch_runs_each_cell_once(
        self, monkeypatch, dispatched, structures, keep_prompts, stalls
    ):
        # Each pair's game is played once, and its single-model cell is run
        # once on the game's combined log, unless the game failed.
        if stalls:
            stall_greedy_proposers(monkeypatch)
        plan = plan_from_dict({"structures": structures, "runs_per_cell": 3})
        batch = run_batch(plan, keep_prompts=keep_prompts)
        expected = []
        for pair in plan.pairs:
            expected.append((Structure.MULTI_AGENT, pair))
            played = not (stalls and pair.proposer is Personality.GREEDY)
            if Structure.SINGLE_MODEL in plan.structures and played:
                expected.append((Structure.SINGLE_MODEL, pair))
        assert dispatched == expected
        by_run = records_run_by_run(plan, lambda pair: oracle_gateway(pair, plan.game), keep_prompts)
        assert without_elapsed(batch.records) == without_elapsed(by_run)
        assert batch.failed_count == (len(plan.cells()) * 3 // 2 if stalls else 0)

    def test_a_failed_oracle_game_fails_every_run_of_its_pair(self, monkeypatch):
        # The pair's one game raises TurnOrderViolationError, which every run
        # of the pair records.
        stall_greedy_proposers(monkeypatch)
        batch = run_batch(plan_from_dict({"runs_per_cell": 2}))
        assert len(batch.records) == 16
        for record in batch.records:
            if record["pair"].startswith("greedy-"):
                assert record["status"] == "failed"
                assert record["cause"] == (
                    "TurnOrderViolationError: proposer failed to produce a usable action in round 1"
                )
            else:
                assert record["status"] == "ok", record["cause"]
        assert batch.failed_count == 8

    def test_replayed_replies_are_graded_once_each(self, parse_count):
        plan = plan_from_dict(
            {"structures": ["single_model"], "pairs": ["fair-fair"], "runs_per_cell": 4}
        )
        clean = oracle_log(FAIR_FAIR)
        replies = [
            clean,
            clean,
            oracle_log(FAIR_FAIR, proposer_flaw=Flaw.DEVIATOR),
            oracle_log(FAIR_FAIR, proposer_flaw=Flaw.INCOMPLETE),
        ]
        batch = run_batch(plan, mode="replay", gateway=InOrderReplies(replies))
        assert parse_count == [clean, replies[2], replies[3]]
        assert [r["verdict"]["error_class"] for r in batch.records] == [
            "none", "none", "gameplay_only", "strategy_only"
        ]
        recording = InOrderReplies(replies)
        expected = records_run_by_run(plan, lambda pair: recording)
        assert without_elapsed(batch.records) == without_elapsed(expected)

    def test_an_unparseable_reply_fails_every_run_that_gets_it(self, parse_count):
        plan = plan_from_dict(
            {"structures": ["single_model"], "pairs": ["fair-fair"], "runs_per_cell": 3}
        )
        reply = "I would rather not play."
        batch = run_batch(plan, mode="replay", gateway=InOrderReplies([reply] * 3))
        assert [r["status"] for r in batch.records] == ["failed"] * 3
        causes = {r["cause"] for r in batch.records}
        assert len(causes) == 1 and causes.pop().startswith("UnparseableLogError: ")
        # A reply that fails to parse is not kept: each run parses it again.
        assert parse_count == [reply] * 3

    @pytest.mark.parametrize(
        "flaws", [None, {"proposer": "deviator", "receiver": "inconsistent_threshold"}]
    )
    def test_an_oracle_batch_parses_no_combined_log(self, parse_count, flaws):
        # Each single-model cell's entry is written from the pair's played game.
        plan = plan_from_dict({"runs_per_cell": 2, "flaws": flaws})
        batch = run_batch(plan)
        assert parse_count == []
        expected = records_run_by_run(
            plan,
            lambda pair: oracle_gateway(pair, plan.game, proposer_flaw=plan.proposer_flaw,
                                        receiver_flaw=plan.receiver_flaw),
        )
        assert without_elapsed(batch.records) == without_elapsed(expected)

    def test_grades_do_not_outlive_their_batch(self, monkeypatch):
        # Each batch builds one entry per cell and grades one game per pair.
        built, graded = [], []
        serialize, evaluate = orchestrator.serialize_canonical, orchestrator.evaluate_transcript
        monkeypatch.setattr(
            orchestrator, "serialize_canonical", lambda t: built.append(t.pair) or serialize(t)
        )
        monkeypatch.setattr(
            orchestrator, "evaluate_transcript", lambda t: graded.append(t.pair) or evaluate(t)
        )
        plan = plan_from_dict({"runs_per_cell": 3})
        first = run_batch(plan)
        assert (len(built), graded) == (len(plan.cells()), list(plan.pairs))
        second = run_batch(plan)
        assert (len(built), graded) == (2 * len(plan.cells()), 2 * list(plan.pairs))
        assert without_elapsed(first.records) == without_elapsed(second.records)


# What a scripted model-backed player replies before each action it is
# asked for, most often nothing. The moderator re-prompts after one such
# reply and fails the run after two. For the pairs below, the proposer's
# "Receiver is greedy" always names the other player's private line, and
# the receiver's "Proposer is greedy" names it when the proposer is greedy.
# What a player says is never forwarded, so neither fails a run.
STALLS = (
    (), (), (),
    ("Hmm, not yet.",),
    ("I think Receiver is greedy.",),
    ("Proposer is greedy, surely.",),
    ("Let me think about it.", "Hmm, not yet."),
)
OFFERS = ("OFFER: $0.30", "OFFER: $0.50", "OFFER: $0.70")
DECISIONS = ("DECISION: accept", "DECISION: reject")
SCRIPTED_PAIRS = ["fair-greedy", "greedy-greedy"]


def strategy_replies(role, rounds):
    texts = [oracle_text(role, personality, rounds=rounds) for personality in Personality]
    return [f"STRATEGY: {text}" for text in texts] + ["Strategy: I will see how it goes."]


def seat_replies(game, stalls):
    """(proposer replies, receiver replies) for one run of `game`: its two
    strategy replies, then each accepted action reply in the order asked,
    each after the replies stalls(seat) gives. Two of them end the run."""
    proposer_strategy, receiver_strategy, actions = game
    seats = ([proposer_strategy], [receiver_strategy])
    for round_actions in actions:
        for replies, action in zip(seats, round_actions):
            drawn = stalls(replies)
            replies += drawn
            if len(drawn) == 2:
                return seats
            replies.append(action)
    return seats


@st.composite
def scripted_runs(draw, rounds, runs):
    """What each of `runs` model-backed runs replies. A few games (strategy
    and accepted action replies) are drawn and each run plays one of them,
    so runs repeat games, sometimes with other stalls along the way."""
    game = st.tuples(
        st.sampled_from(strategy_replies(Role.PROPOSER, rounds)),
        st.sampled_from(strategy_replies(Role.RECEIVER, rounds)),
        st.lists(
            st.tuples(st.sampled_from(OFFERS), st.sampled_from(DECISIONS)),
            min_size=rounds, max_size=rounds,
        ),
    )
    games = draw(st.lists(game, min_size=1, max_size=3))
    stalls = st.sampled_from(STALLS)
    return [seat_replies(draw(st.sampled_from(games)), lambda _: draw(stalls)) for _ in range(runs)]


class ScriptedRuns(Gateway):
    """Model-backed players whose run of seed n replies `scripts[n]`
    (proposer replies, receiver replies). Each run's players ask their own
    gateway, `for_run(seed)`, so what a run plays does not depend on which
    worker plays it, or when."""

    def __init__(self, scripts):
        super().__init__()
        self.scripts = scripts

    def for_run(self, seed):
        return ScriptedModelGateway(*self.scripts[seed])

    def _complete(self, model, messages, params):
        raise AssertionError("players ask their run's own gateway")


def scripted_plan(rounds, runs_per_cell, pairs=SCRIPTED_PAIRS):
    return plan_from_dict(
        {"structures": ["multi_agent"], "pairs": pairs, "rounds": rounds,
         "runs_per_cell": runs_per_cell, "model": "scripted"}
    )


def scripted_batch(plan, scripts, keep_prompts=False, max_workers=1):
    """run_batch of the plan, each run's players replying its script."""
    make = experiment.make_model_agents
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            experiment, "make_model_agents",
            lambda config, shared: make(config, shared.for_run(config.seed)),
        )
        return run_batch(
            plan, mode="replay", gateway=ScriptedRuns(scripts), keep_prompts=keep_prompts,
            max_workers=max_workers,
        )


def scripted_alone(plan, scripts, keep_prompts=False):
    """The records of scripted_batch's runs, each played and graded on its own."""
    gateway = ScriptedRuns(scripts)
    return records_run_by_run(
        plan, None, keep_prompts,
        players=lambda config: make_model_agents(config, gateway.for_run(config.seed)),
    )


class TestSharedModelGames:
    """A batch builds, grades and serializes each distinct model-backed
    game once. Every run still plays, has every message it is told checked
    and keeps its own traffic, so its record is the one it gets on its own."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        rounds=st.integers(min_value=1, max_value=3),
        runs_per_cell=st.integers(min_value=1, max_value=4),
        keep_prompts=st.booleans(),
        max_workers=st.integers(min_value=1, max_value=2),
    )
    def test_model_backed_records_match_runs_graded_one_by_one(
        self, data, rounds, runs_per_cell, keep_prompts, max_workers
    ):
        plan = scripted_plan(rounds, runs_per_cell)
        scripts = data.draw(scripted_runs(rounds, len(plan.cells()) * runs_per_cell))
        batch = scripted_batch(plan, scripts, keep_prompts, max_workers)
        alone = scripted_alone(plan, scripts, keep_prompts)
        assert without_elapsed(batch.records) == without_elapsed(alone)

    @staticmethod
    def fair_greedy_game(offer="OFFER: $0.50"):
        return (
            strategy_replies(Role.PROPOSER, 2)[0],
            strategy_replies(Role.RECEIVER, 2)[1],
            [(offer, "DECISION: accept"), ("OFFER: $0.50", "DECISION: reject")],
        )

    def test_each_distinct_game_is_graded_and_serialized_once(self, monkeypatch):
        calls = []
        for name in ("evaluate_transcript", "serialize_canonical"):
            def counted(transcript, _name=name, _original=getattr(orchestrator, name)):
                calls.append(_name)
                return _original(transcript)

            monkeypatch.setattr(orchestrator, name, counted)
        game, other = self.fair_greedy_game(), self.fair_greedy_game("OFFER: $0.30")
        scripts = [
            seat_replies(game, lambda _: []),
            seat_replies(game, lambda _: []),
            # The same game after a re-prompt: its traffic is its own.
            seat_replies(game, lambda seat: ["Hmm, not yet."] if len(seat) == 1 else []),
            seat_replies(other, lambda _: []),
        ]
        plan = scripted_plan(2, 4, ["fair-greedy"])
        batch = scripted_batch(plan, scripts, keep_prompts=True)
        assert sorted(calls) == ["evaluate_transcript"] * 2 + ["serialize_canonical"] * 2
        assert [r["status"] for r in batch.records] == ["ok"] * 4
        assert batch.records[0]["replies"] == batch.records[1]["replies"]
        assert batch.records[0]["replies"] != batch.records[2]["replies"]
        assert batch.records[0]["transcript"] == batch.records[2]["transcript"]
        alone = scripted_alone(plan, scripts, keep_prompts=True)
        assert without_elapsed(batch.records) == without_elapsed(alone)

    def test_workers_that_switch_often_share_grades_safely(self):
        # More workers than cores, switching every microsecond: two workers
        # that both miss on one game grade it twice and store equal values.
        game, other = self.fair_greedy_game(), self.fair_greedy_game("OFFER: $0.30")
        variants = [
            seat_replies(game, lambda _: []),
            seat_replies(game, lambda seat: ["Hmm, not yet."] if len(seat) == 1 else []),
            seat_replies(other, lambda _: []),
        ]
        plan = scripted_plan(2, 12)
        scripts = [variants[k % 3] for k in range(len(plan.cells()) * 12)]
        batches = []
        thread = threading.Thread(
            target=lambda: batches.append(scripted_batch(plan, scripts, True, max_workers=4))
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        alone = scripted_alone(plan, scripts, keep_prompts=True)
        assert without_elapsed(batches[0].records) == without_elapsed(alone)

    def test_a_leaking_correction_fails_every_run_that_gets_it(self, monkeypatch):
        # The offer correction names the receiver's private line, so every
        # run whose proposer is re-prompted fails, and the others play the
        # same game as if nothing leaked. The leaking message is never sent.
        render = prompts.render
        monkeypatch.setattr(
            prompts, "render",
            lambda name, /, **slots: ("Receiver is greedy. " if name == "correct_offer" else "")
            + render(name, **slots),
        )
        sent = []
        complete = ScriptedModelGateway._complete

        def recording(gateway, model, messages, params):
            if messages[0][1].startswith("You are Proposer"):
                sent.extend(content for _, content in messages)
            return complete(gateway, model, messages, params)

        monkeypatch.setattr(ScriptedModelGateway, "_complete", recording)
        game = self.fair_greedy_game()
        clean = seat_replies(game, lambda _: [])
        reprompted = seat_replies(game, lambda seat: ["Hmm, not yet."] if len(seat) == 1 else [])
        plan, scripts = scripted_plan(2, 4, ["fair-greedy"]), [clean, reprompted, reprompted, clean]
        batch = scripted_batch(plan, scripts)
        assert [r["cause"] for r in batch.records] == [
            None,
            "InformationLeakError: message to the proposer contains the receiver's private profile",
            "InformationLeakError: message to the proposer contains the receiver's private profile",
            None,
        ]
        assert without_elapsed(batch.records) == without_elapsed(scripted_alone(plan, scripts))
        assert sent and not any("Receiver is greedy" in text for text in sent)


# Stored lines of two records that keep the run-record schema.
LINE_A = json.dumps(stored_record(run_id="a"))
LINE_B = json.dumps(stored_record(run_id="b"))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(any_text, children, max_size=3),
    max_leaves=10,
)
# Records to append in one call, with nested fields.
record_batches = st.lists(st.dictionaries(any_text, json_values, max_size=4), max_size=6)


class TestRunStore:
    @given(records=record_batches)
    def test_each_line_is_the_record_dumped_with_sorted_keys(self, tmp_path_factory, records):
        store = RunStore(tmp_path_factory.mktemp("store") / "runs.jsonl")
        store.append(*records)
        expected = "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)
        assert store.path.read_text(encoding="utf-8") == expected
        # ASCII only, so a line cut short never splits a character.
        assert store.path.read_bytes().isascii()

    def test_append_and_load_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(stored_record(run_id="a"))
        store.append(stored_record(run_id="b"))
        assert [r["run_id"] for r in load_records(store.path)] == ["a", "b"]

    def test_bad_line_reports_its_number(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(f"{LINE_A}\nnot json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2: bad record"):
            load_records(path)

    def test_a_line_that_is_not_utf8_is_named_by_its_number(self, tmp_path):
        # Far enough in that the text reader fails on a later chunk than the first.
        path = tmp_path / "runs.jsonl"
        path.write_bytes(f"{LINE_A}\n".encode() * 149 + b'{"a": "\xff"}\n' + f"{LINE_B}\n".encode())
        with pytest.raises(ValueError) as info:
            load_records(path)
        assert str(info.value) == (
            f"{path}:150: bad record: 'utf-8' codec can't decode byte 0xff in position 7: "
            "invalid start byte"
        )

    def test_non_object_line_is_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not an object"):
            load_records(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(f"{LINE_A}\n\n{LINE_B}\n", encoding="utf-8")
        assert len(load_records(path)) == 2

    def test_concurrent_appends_never_interleave(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")

        def work(worker):
            for k in range(25):
                store.append(stored_record(worker=worker, k=k))

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

    def test_concurrent_batch_appends_keep_each_batch_together(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        padding = "x" * 5000  # lines long enough that a split write would show
        workers, batches, size = 4, 20, 10

        def work(worker):
            for batch in range(batches):
                store.append(
                    *(stored_record(worker=worker, batch=batch, k=k, pad=padding) for k in range(size))
                )

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        records = load_records(store.path)
        assert len(records) == workers * batches * size
        seen = set()
        for start in range(0, len(records), size):
            run = records[start : start + size]
            assert [(r["worker"], r["batch"], r["k"]) for r in run] == [
                (run[0]["worker"], run[0]["batch"], k) for k in range(size)
            ]
            seen.add((run[0]["worker"], run[0]["batch"]))
        assert len(seen) == workers * batches

    def test_a_torn_final_line_is_skipped_and_reported(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(f'{LINE_A}\n{LINE_B}\n{{"run_id": "c", "sta', encoding="utf-8")
        torn = []
        assert [r["run_id"] for r in load_records(path, on_torn_line=torn.append)] == ["a", "b"]
        assert torn == [f"{path}:3: skipped a torn final line"]
        assert [r["run_id"] for r in load_records(path)] == ["a", "b"]

    def test_an_unterminated_final_record_is_kept(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(f"{LINE_A}\n{LINE_B}", encoding="utf-8")
        torn = []
        assert [r["run_id"] for r in load_records(path, on_torn_line=torn.append)] == ["a", "b"]
        assert torn == []

    @pytest.mark.parametrize(
        "text, lineno",
        [
            (f'{{"run_id": "a", "sta\n{LINE_B}\n', 1),
            (f'{LINE_A}\n{{"run_id": "b", "sta\n', 2),
            (f'{LINE_A}\n{{"run_id": {"7" * 5000}}}\n', 2),
        ],
        ids=["middle", "terminated-last", "too-many-digits"],
    )
    def test_a_bad_line_with_its_newline_still_raises(self, tmp_path, text, lineno):
        path = tmp_path / "runs.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f":{lineno}: bad record"):
            load_records(path, on_torn_line=lambda message: None)


FLAW_SETS = (
    {},
    {"proposer": "incomplete"},
    {"proposer": "deviator"},
    {"receiver": "inconsistent_threshold"},
    {"proposer": "deviator", "receiver": "inconsistent_threshold"},
)


class TestStoredRecordsKeepTheSchema:
    """Every store run_batch writes loads back through load_records, so the
    writer and the run-record schema agree."""

    @settings(max_examples=30)
    @given(
        flaws=st.sampled_from(FLAW_SETS),
        pot=st.integers(MIN_POT, 400),
        rounds=st.integers(1, 10),
        keep_prompts=st.booleans(),
    )
    def test_oracle_batches(self, tmp_path_factory, flaws, pot, rounds, keep_prompts):
        store = RunStore(tmp_path_factory.mktemp("oracle") / "runs.jsonl")
        plan = plan_from_dict({"runs_per_cell": 1, "pot": pot, "rounds": rounds, "flaws": flaws})
        batch = run_batch(plan, store=store, keep_prompts=keep_prompts)
        assert load_records(store.path) == list(batch.records)

    @pytest.mark.parametrize("recording", ["fixture", "empty"])
    def test_replayed_batches(self, fixtures_dir, tmp_path, recording):
        folder = fixtures_dir / "replay"
        tape = folder / "recording.jsonl"
        if recording == "empty":  # every run fails with a GatewayError
            tape = tmp_path / "empty.jsonl"
            tape.write_text("", encoding="utf-8")
        store = RunStore(tmp_path / "runs.jsonl")
        batch = run_batch(
            load_plan(folder / "plan.yaml"),
            mode="replay",
            store=store,
            gateway=ReplayGateway(tape),
            keep_prompts=True,
        )
        assert batch.failed_count == (len(batch.records) if recording == "empty" else 0)
        assert load_records(store.path) == list(batch.records)


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


STRATEGY_FLAGS = (
    "proposer_strategy_complete",
    "receiver_strategy_complete",
    "proposer_strategy_consistent",
    "receiver_strategy_consistent",
)


def reference_count_group(records) -> GroupCounts:
    """count_group as one Counter, updated field by field for each record."""
    acc = collections.Counter()
    for record in records:
        acc["total"] += 1
        if record.get("status") != "ok" or not record.get("verdict"):
            acc["failed"] += 1
            continue
        acc["ok"] += 1
        verdict = record["verdict"]
        pc, rc, ps, rs = (verdict[flag] for flag in STRATEGY_FLAGS)
        acc[verdict["error_class"]] += 1
        acc["proposer_complete"] += pc
        acc["receiver_complete"] += rc
        acc["proposer_consistent"] += ps
        acc["receiver_consistent"] += rs
        acc["both_complete"] += pc and rc
        acc["both_consistent"] += ps and rs
        acc["strategy_robust"] += pc and rc and ps and rs
    return GroupCounts(**{f.name: acc[f.name] for f in fields(GroupCounts)})


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

    @given(st.lists(
        st.builds(
            lambda status, verdict: {**status, "verdict": verdict},
            # A record not ok counts as failed, whatever its verdict holds.
            st.sampled_from([{"status": "ok"}] * 3 + [{"status": "failed"}, {}]),
            st.builds(
                lambda flags, error_class: {**dict(zip(STRATEGY_FLAGS, flags)), "error_class": error_class},
                st.tuples(*[st.booleans()] * 4),
                st.sampled_from([c.value for c in ErrorClass]),
            ) | st.sampled_from([None, {}]),
        ),
        max_size=30,
    ))
    def test_counts_equal_a_tally_kept_field_by_field(self, records):
        assert count_group(records) == reference_count_group(records)
        assert count_group(iter(records)) == count_group(records)

    def test_empty_group_has_no_rate(self):
        # A cell whose every run failed has nothing graded to take a rate of.
        failed = {"run_id": "x", "status": "failed", "structure": "single_model", "pair": "fair-fair"}
        report = render_report(aggregate([failed]), fmt="csv")
        assert "cell,single_model/fair-fair,human_rate,-" in report.splitlines()


ABSENT = "no model field"


def _record_of(structure, pair, model, status, verdict):
    """A record with the fields aggregate reads."""
    record = {"structure": structure, "pair": pair, "status": status, "verdict": verdict}
    if model != ABSENT:
        record["model"] = model
    return record


VERDICTS = st.fixed_dictionaries(
    {"error_class": st.sampled_from([c.value for c in ErrorClass])}
    | {
        f"{role}_strategy_{axis}": st.booleans()
        for role in ("proposer", "receiver")
        for axis in ("complete", "consistent")
    }
)
# Both structures, all four pairs, two models, a null and a missing model,
# every error class, and failed runs with and without a verdict.
RECORDS = st.builds(
    _record_of,
    st.sampled_from([s.value for s in Structure]),
    st.sampled_from([p.label() for p in ALL_PAIRS]),
    st.sampled_from(["oracle", "model-a", None, ABSENT]),
    st.sampled_from(["ok", "ok", "failed"]),
    st.one_of(VERDICTS, st.none()),
)


class TestAggregate:
    def test_error_share_comparison(self, mixed_records):
        summary = aggregate(mixed_records)
        comparison, = summary.error_comparisons
        assert comparison.name == "single_model"
        assert comparison.groups == (("strategy", 17, 23), ("gameplay", 9, 23))
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
            assert ("-", 0, 0) in headline.groups

    def test_headline_compares_best_members(self, mixed_records):
        extra = run_batch(
            plan_from_dict(
                {"structures": ["multi_agent"], "pairs": ["fair-fair"], "runs_per_cell": 8}
            )
        ).records
        summary = aggregate(mixed_records + list(extra))
        headline = summary.headlines[0]
        assert headline.name == "human consistency"
        assert headline.groups == (("multi_agent/oracle", 8, 8), ("single_model/oracle", 7, 30))
        assert headline.test is not None

    def test_no_errors_leaves_a_note(self):
        summary = aggregate(oracle_batch(3).records)
        comparison, = summary.error_comparisons
        assert comparison.test is None
        assert comparison.note == "no errors"

    @settings(max_examples=60)
    @given(st.lists(RECORDS, max_size=40))
    def test_counts_match_counting_each_naive_group(self, records):
        def naive(key):
            groups = {}
            for r in records:
                groups.setdefault(key(r), []).append(r)
            return [(k, count_group(v)) for k, v in sorted(groups.items())]

        summary = aggregate(records)
        assert summary.totals == count_group(records)
        assert list(summary.by_structure.items()) == naive(lambda r: r["structure"])
        assert list(summary.by_cell.items()) == naive(lambda r: (r["structure"], r["pair"]))
        assert list(summary.by_member.items()) == naive(
            lambda r: (r["structure"], str(r.get("model", "-")))
        )


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

    def test_errors_all_on_both_axes_leave_the_degenerate_note(self):
        # Every error is on both axes, so the pooled share is 1 and z is undefined.
        flaws = {"proposer": "deviator", "receiver": "inconsistent_threshold"}
        summary = aggregate(oracle_batch(3, flaws).records)
        assert summary.by_structure["single_model"].both == 3
        note = "not computable: pooled proportion is degenerate (0 or 1)"
        markdown = render_report(summary).splitlines()
        assert "| single_model | 3 | 0 | 3 | 0 | 0 | 3 | 100% | 100% | - | - |" in markdown
        assert f"- single_model: {note}" in markdown
        rows = render_report(summary, fmt="csv").splitlines()
        assert f"structure,single_model,note,{note}" in rows
        metrics = [r.split(",")[2] for r in rows if r.startswith("structure,single_model,")]
        assert "z" not in metrics and "p" not in metrics

    def test_a_computable_headline_carries_its_chi_square(self):
        # The paper's split: 35 of 40 multi-agent runs human-consistent
        # against 20 of 40 single-model runs.
        flags = {f"{role}_strategy_{axis}": True for role in ("proposer", "receiver")
                 for axis in ("complete", "consistent")}
        records = [
            _record_of(structure, "fair-fair", "oracle", "ok",
                       {"error_class": "none" if k < consistent else "gameplay_only", **flags})
            for structure, consistent in (("multi_agent", 35), ("single_model", 20))
            for k in range(40)
        ]
        summary = aggregate(records)
        assert (
            "- human consistency: multi_agent/oracle 35/40 vs single_model/oracle 20/40 "
            "-> chi-square 13.0909 (df=1), p 0.000296732"
        ) in render_report(summary).splitlines()
        rows = render_report(summary, fmt="csv").splitlines()
        assert "headline,human consistency,chi_square,13.0909" in rows
        assert "headline,human consistency,p,0.000296732" in rows

    def test_empty_summary_renders_a_banner(self):
        assert "No runs recorded." in render_report(aggregate([]))
        assert "no runs recorded" in render_report(aggregate([]), fmt="csv")

    def test_unknown_format_is_an_error(self, mixed_records):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(aggregate(mixed_records), fmt="pdf")
