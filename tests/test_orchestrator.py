import pytest

from helpers import ACC, REJ, oracle_text
from ultimatum import engine
from ultimatum.agents import (
    Agent,
    Flaw,
    Gateway,
    Observation,
    SamplingParams,
    default_plan,
)
from ultimatum.engine import GameConfig, format_money
from ultimatum.experiment import plan_from_dict, run_batch
from ultimatum.orchestrator import (
    InformationLeakError,
    OracleSingleModelGateway,
    SimulationConfig,
    TurnOrderViolationError,
    make_model_agents,
    make_oracle_agents,
    run_multi_agent,
    run_single_model,
    synthesize_single_model_log,
)
from ultimatum.rubric import ErrorClass
from ultimatum.strategy import (
    ALL_PAIRS,
    Personality,
    PersonalityPair,
    Role,
)
from ultimatum.transcripts import (
    Confidence,
    Structure,
    extract_decision_reply,
    extract_offer_reply,
    parse_agent_log,
    parse_canonical,
)

FAIR_FAIR = PersonalityPair(Personality.FAIR, Personality.FAIR)
GREEDY_GREEDY = PersonalityPair(Personality.GREEDY, Personality.GREEDY)


def single_model_config(pair=FAIR_FAIR, **kwargs):
    return SimulationConfig(structure=Structure.SINGLE_MODEL, pair=pair, **kwargs)


def multi_agent_config(pair=FAIR_FAIR, **kwargs):
    return SimulationConfig(structure=Structure.MULTI_AGENT, pair=pair, **kwargs)


FLAW_GRIDS = (
    {},
    {"proposer_flaw": Flaw.INCOMPLETE},
    {"proposer_flaw": Flaw.DEVIATOR},
    {"receiver_flaw": Flaw.INCONSISTENT_THRESHOLD},
)


def standalone_oracle_log(pair, game, proposer_flaw=None, receiver_flaw=None):
    """The combined oracle log as written by a game loop of its own, before
    synthesized logs were played through the moderator."""
    proposer, receiver = make_oracle_agents(pair, game, proposer_flaw, receiver_flaw)
    lines = [
        f"STRATEGY (Proposer): {proposer.declared.raw_text}",
        f"STRATEGY (Receiver): {receiver.declared.raw_text}",
    ]
    state = engine.new_game(game)
    while not state.finished:
        r = state.round_index
        obs = Observation(Role.PROPOSER, r, game.rounds, game.pot, state.history)
        offer = extract_offer_reply(proposer.act(obs))
        state = engine.submit_offer(state, offer)
        obs = Observation(
            Role.RECEIVER, r, game.rounds, game.pot, state.history, pending_offer=offer
        )
        decision = extract_decision_reply(receiver.act(obs))
        state, outcome = engine.submit_decision(state, decision)
        lines.extend(
            [
                f"ROUND {r}",
                f"OFFER: {format_money(outcome.offer)}",
                f"DECISION: {outcome.decision.value}",
                "OUTCOME: the proposer receives "
                f"{format_money(outcome.proposer_payoff)} and the receiver receives "
                f"{format_money(outcome.receiver_payoff)}",
            ]
        )
    return "\n".join(lines) + "\n"


class TestSingleModelStructure:
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label())
    def test_clean_oracle_logs_grade_clean(self, pair):
        result = run_single_model(single_model_config(pair), OracleSingleModelGateway(pair))
        assert result.verdict.error_class is ErrorClass.NONE
        assert result.diagnostics.confidence is Confidence.EXACT
        assert result.transcript.structure is Structure.SINGLE_MODEL
        assert len(result.transcript.rounds) == 5

    def test_prompt_names_both_personalities(self):
        pair = PersonalityPair(Personality.GREEDY, Personality.FAIR)
        result = run_single_model(single_model_config(pair), OracleSingleModelGateway(pair))
        (label, prompt), = result.prompts
        assert label == "single_model"
        assert "greedy" in prompt and "fair" in prompt

    @pytest.mark.parametrize(
        "flaws, expected",
        [
            ({"proposer_flaw": Flaw.INCOMPLETE}, ErrorClass.STRATEGY_ONLY),
            ({"proposer_flaw": Flaw.DEVIATOR}, ErrorClass.GAMEPLAY_ONLY),
            ({"receiver_flaw": Flaw.INCONSISTENT_THRESHOLD}, ErrorClass.STRATEGY_ONLY),
        ],
    )
    def test_planted_flaws_grade_as_designed(self, flaws, expected):
        gateway = OracleSingleModelGateway(FAIR_FAIR, **flaws)
        result = run_single_model(single_model_config(), gateway)
        assert result.verdict.error_class is expected

    def test_synthesized_log_uses_the_reply_format(self):
        log = synthesize_single_model_log(GREEDY_GREEDY)
        assert log.startswith("STRATEGY (Proposer):")
        assert "STRATEGY (Receiver):" in log
        assert "ROUND 1" in log and "ROUND 5" in log
        assert log.count("OFFER:") == 5

    @pytest.mark.parametrize("rounds", range(1, 11))
    @pytest.mark.parametrize("pot", [5, 37, 100, 1000])
    def test_synthesized_log_equals_the_standalone_oracle_loop(self, pot, rounds):
        # The oracles now play through the moderator; the log must be the
        # one their own loop wrote, byte for byte, on every flaw grid.
        game = GameConfig(pot=pot, rounds=rounds)
        for flaws in FLAW_GRIDS:
            for pair in ALL_PAIRS:
                expected = standalone_oracle_log(pair, game, **flaws)
                assert synthesize_single_model_log(pair, game, **flaws) == expected, (pair, flaws)


class TestMultiAgentStructure:
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label())
    def test_clean_oracle_pairs_grade_clean(self, pair):
        result = run_multi_agent(multi_agent_config(pair), make_oracle_agents(pair))
        assert result.verdict.error_class is ErrorClass.NONE
        assert result.diagnostics.confidence is Confidence.EXACT
        assert result.transcript.structure is Structure.MULTI_AGENT

    def test_rejections_flow_through_the_moderator(self):
        result = run_multi_agent(multi_agent_config(GREEDY_GREEDY), make_oracle_agents(GREEDY_GREEDY))
        rounds = result.transcript.rounds
        assert [r.offer for r in rounds] == [20, 25, 30, 35, 40]
        assert [r.decision for r in rounds] == [REJ, REJ, REJ, REJ, ACC]

    @pytest.mark.parametrize(
        "flaws, expected",
        [
            ({"proposer_flaw": Flaw.INCOMPLETE}, ErrorClass.STRATEGY_ONLY),
            ({"proposer_flaw": Flaw.DEVIATOR}, ErrorClass.GAMEPLAY_ONLY),
            ({"receiver_flaw": Flaw.INCONSISTENT_THRESHOLD}, ErrorClass.STRATEGY_ONLY),
        ],
    )
    def test_planted_flaws_grade_as_designed(self, flaws, expected):
        agents = make_oracle_agents(FAIR_FAIR, **flaws)
        result = run_multi_agent(multi_agent_config(), agents)
        assert result.verdict.error_class is expected

    def test_agents_must_come_in_role_order(self):
        proposer, receiver = make_oracle_agents(FAIR_FAIR)
        with pytest.raises(ValueError):
            run_multi_agent(multi_agent_config(), (receiver, proposer))

    def test_replies_record_each_side_separately(self):
        result = run_multi_agent(multi_agent_config(), make_oracle_agents(FAIR_FAIR))
        speakers = {speaker for speaker, _ in result.replies}
        assert speakers == {"proposer", "receiver"}
        proposer_said = [text for speaker, text in result.replies if speaker == "proposer"]
        assert "OFFER: $0.50" in proposer_said


class StubAgent(Agent):
    """Hand-scripted player for moderator behavior tests."""

    def __init__(self, role, personality, strategy_reply, actions):
        self.role = role
        self.personality = personality
        self.initial_plan = default_plan(role)
        self._strategy = strategy_reply
        self._actions = list(actions)
        self.heard = []

    def create_strategy(self):
        return self._strategy

    def act(self, observation):
        return self._actions.pop(0)

    def receive(self, message):
        self.heard.append(message)


def stub_fair_proposer(actions):
    return StubAgent(
        Role.PROPOSER,
        Personality.FAIR,
        f"STRATEGY: {oracle_text(Role.PROPOSER, Personality.FAIR)}",
        actions,
    )


def stub_fair_receiver(actions=None, strategy=None):
    return StubAgent(
        Role.RECEIVER,
        Personality.FAIR,
        strategy or f"STRATEGY: {oracle_text(Role.RECEIVER, Personality.FAIR)}",
        actions if actions is not None else ["DECISION: accept"] * 5,
    )


class TestTurnDiscipline:
    def test_one_bad_reply_earns_a_correction(self):
        proposer = stub_fair_proposer(["I like turtles."] + ["OFFER: $0.50"] * 5)
        receiver = stub_fair_receiver()
        result = run_multi_agent(multi_agent_config(), (proposer, receiver))
        assert result.verdict.error_class is ErrorClass.NONE
        corrections = [m for m in proposer.heard if "Give your offer again" in m]
        assert len(corrections) == 1
        # The garbage reply still shows up in the recorded traffic.
        assert ("proposer", "I like turtles.") in result.replies

    def test_persistent_bad_replies_abort_the_run(self):
        proposer = stub_fair_proposer(["no comment"] * 10)
        with pytest.raises(TurnOrderViolationError, match="proposer"):
            run_multi_agent(multi_agent_config(), (proposer, stub_fair_receiver()))

    def test_offers_beyond_the_pot_are_rejected_as_replies(self):
        proposer = stub_fair_proposer(["OFFER: $1.50", "OFFER: $0.50"] + ["OFFER: $0.50"] * 4)
        receiver = stub_fair_receiver()
        result = run_multi_agent(multi_agent_config(), (proposer, receiver))
        assert result.verdict.error_class is ErrorClass.NONE
        assert any("between $0 and the full pot" in m for m in proposer.heard)

    def test_undecidable_decisions_abort_after_one_retry(self):
        receiver = stub_fair_receiver(["hmm, tough call"] * 10)
        with pytest.raises(TurnOrderViolationError, match="receiver"):
            run_multi_agent(multi_agent_config(), (stub_fair_proposer(["OFFER: $0.50"] * 5), receiver))


class TestInformationAudit:
    def test_blurting_the_opponents_profile_fails_the_run(self):
        proposer = StubAgent(
            Role.PROPOSER,
            Personality.GREEDY,
            f"STRATEGY: {oracle_text(Role.PROPOSER, Personality.GREEDY)}",
            ["OFFER: $0.50"] * 5,
        )
        receiver = stub_fair_receiver(
            strategy="STRATEGY: I happen to know Proposer is greedy. I will hold firm."
        )
        with pytest.raises(InformationLeakError, match="receiver"):
            run_multi_agent(multi_agent_config(PersonalityPair(Personality.GREEDY, Personality.FAIR)),
                            (proposer, receiver))

    def test_private_bios_never_appear_in_replies(self):
        proposer, receiver = make_oracle_agents(GREEDY_GREEDY)
        result = run_multi_agent(multi_agent_config(GREEDY_GREEDY), (proposer, receiver))
        for _, text in result.replies:
            assert "is greedy." not in text


class ScriptedModelGateway(Gateway):
    """Answers each player from its own queue, routing on the system prompt."""

    def __init__(self, proposer_replies, receiver_replies):
        super().__init__()
        self.queues = {
            "Proposer": list(proposer_replies),
            "Receiver": list(receiver_replies),
        }

    def _complete(self, model, messages, params):
        who = "Proposer" if "You are Proposer" in messages[0]["content"] else "Receiver"
        return self.queues[who].pop(0)


class TestModelAgentGames:
    def test_scripted_chat_game_runs_end_to_end(self):
        gateway = ScriptedModelGateway(
            [f"STRATEGY: {oracle_text(Role.PROPOSER, Personality.FAIR)}"]
            + ["OFFER: $0.50"] * 5,
            [f"STRATEGY: {oracle_text(Role.RECEIVER, Personality.FAIR)}"]
            + ["DECISION: accept"] * 5,
        )
        config = multi_agent_config(model="scripted", sampling=SamplingParams(temperature=0.0))
        agents = make_model_agents(config, gateway)
        result = run_multi_agent(config, agents)
        assert result.verdict.error_class is ErrorClass.NONE
        assert gateway.requests == 12
        labels = [label for label, _ in result.prompts]
        assert "proposer/system" in labels
        assert "proposer/create_strategy" in labels
        assert "receiver/request_decision" in labels
        assert labels.count("proposer/request_offer") == 5

    def test_agents_hear_round_outcomes(self):
        gateway = ScriptedModelGateway(
            [f"STRATEGY: {oracle_text(Role.PROPOSER, Personality.FAIR)}"]
            + ["OFFER: $0.50"] * 5,
            [f"STRATEGY: {oracle_text(Role.RECEIVER, Personality.FAIR)}"]
            + ["DECISION: accept"] * 5,
        )
        config = multi_agent_config(model="scripted")
        proposer, receiver = make_model_agents(config, gateway)
        run_multi_agent(config, (proposer, receiver))
        announcements = [
            content for label, content in proposer.prompt_log if label == "announcement"
        ]
        assert len(announcements) == 5
        assert "accepted" in announcements[0]


def assert_logs_parse_to_the_transcript(result):
    """Re-parsing the per-agent logs kept as raw logs gives back the
    transcript and diagnostics the run reported."""
    logs = tuple(text for _, text in result.transcript.raw_logs)
    parsed, diagnostics = parse_agent_log(logs, result.config.pair, result.config.game)
    assert parsed == result.transcript
    assert diagnostics == result.diagnostics


class TestTranscriptMatchesItsLogs:
    @pytest.mark.parametrize("pot, rounds", [(100, 5), (200, 10)])
    @pytest.mark.parametrize(
        "flaws",
        [{}, {"proposer_flaw": Flaw.INCOMPLETE}, {"proposer_flaw": Flaw.DEVIATOR},
         {"receiver_flaw": Flaw.INCONSISTENT_THRESHOLD}],
        ids=["clean", "incomplete", "deviator", "inconsistent_threshold"],
    )
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label())
    def test_oracle_grids(self, pair, flaws, pot, rounds):
        game = GameConfig(pot=pot, rounds=rounds)
        result = run_multi_agent(
            multi_agent_config(pair, game=game), make_oracle_agents(pair, game, **flaws)
        )
        assert_logs_parse_to_the_transcript(result)

    def test_scripted_chat_game_without_markers(self):
        gateway = ScriptedModelGateway(
            [oracle_text(Role.PROPOSER, Personality.FAIR), "Let me think about it."]
            + ["I would like to offer $0.50 this time."] * 5,
            [oracle_text(Role.RECEIVER, Personality.FAIR)]
            + ["Sounds fair to me, I accept."] * 5,
        )
        config = multi_agent_config(model="scripted")
        result = run_multi_agent(config, make_model_agents(config, gateway))
        assert [r.offer for r in result.transcript.rounds] == [50] * 5
        assert result.diagnostics.confidence is Confidence.EXACT
        assert result.diagnostics.warnings == ()
        assert_logs_parse_to_the_transcript(result)


class TestDispatch:
    def test_dispatches_by_structure(self, monkeypatch):
        # run_batch is the one dispatch: each structure reaches its own
        # runner, and offline single-model runs share one gateway per cell.
        built = []
        init = OracleSingleModelGateway.__init__

        def counting_init(gateway, pair, *args):
            built.append(pair)
            init(gateway, pair, *args)

        monkeypatch.setattr(OracleSingleModelGateway, "__init__", counting_init)
        records = run_batch(plan_from_dict({"runs_per_cell": 3})).records
        assert [r["structure"] for r in records] == ["single_model"] * 12 + ["multi_agent"] * 12
        for record in records:
            assert parse_canonical(record["transcript"]).structure.value == record["structure"]
        assert built == list(ALL_PAIRS)

    def test_custom_game_sizes_need_matching_bands(self):
        game = GameConfig(pot=200, rounds=3)
        config = SimulationConfig(
            structure=Structure.MULTI_AGENT, pair=FAIR_FAIR, game=game
        )
        # The bands scale with the pot, so default grading fits a 200-cent game.
        result = run_multi_agent(config, make_oracle_agents(FAIR_FAIR, game))
        assert len(result.transcript.rounds) == 3
        assert result.transcript.config.pot == 200
        assert result.verdict.error_class is ErrorClass.NONE
