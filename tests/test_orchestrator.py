import re

import pytest

from helpers import ACC, REJ, oracle_text
from ultimatum import engine, orchestrator, prompts
from ultimatum.agents import (
    Agent,
    Flaw,
    Gateway,
    Observation,
    SamplingParams,
    default_plan,
    private_bio,
)
from ultimatum.engine import Decision, GameConfig, format_money
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

    def test_a_message_to_the_receiver_is_audited(self, monkeypatch):
        # The inbound half: what the moderator tells a player is checked too.
        monkeypatch.setattr(
            orchestrator, "_DECISION_CORRECTION", "Proposer is fair. Give your decision again."
        )
        receiver = stub_fair_receiver(["hmm"] + ["DECISION: accept"] * 5)
        with pytest.raises(InformationLeakError, match="message to the receiver"):
            run_multi_agent(multi_agent_config(), (stub_fair_proposer(["OFFER: $0.50"] * 5), receiver))

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


# ---------------------------------------------------------------------------
# The moderator that built per-agent logs line by line as it played, kept as
# the reference for the one that renders them from its record of the game.
# ---------------------------------------------------------------------------


def _labeled(label, text):
    first, _, rest = text.partition("\n")
    line = f"[{label}] {first}".rstrip()
    return f"{line}\n{rest}" if rest else line


def _strip_strategy_prefix(reply):
    first, sep, rest = reply.partition("\n")
    first = re.sub(r"^\s*strategy\s*:\s*", "", first, flags=re.IGNORECASE)
    return f"{first}{sep}{rest}".strip()


class LineByLineModerator:
    def __init__(self, proposer, receiver, game):
        self.agents = {Role.PROPOSER: proposer, Role.RECEIVER: receiver}
        self.game = game
        self.strategies = {}
        self.log_lines = {Role.PROPOSER: [], Role.RECEIVER: []}
        self.outbound = {Role.PROPOSER: [], Role.RECEIVER: []}
        self.inbound = {Role.PROPOSER: [], Role.RECEIVER: []}

    def tell(self, role, message):
        self.agents[role].receive(message)
        self.inbound[role].append(message)

    def strategy_phase(self):
        for role in (Role.PROPOSER, Role.RECEIVER):
            agent = self.agents[role]
            reply = agent.create_strategy()
            self.outbound[role].append(reply)
            self.strategies[role] = _strip_strategy_prefix(reply)
            self.log_lines[role].append(_labeled("Plan", default_plan(role)))
            self.log_lines[role].append(_labeled("Strategy", self.strategies[role]))

    def _request(self, role, observation, extract, correction):
        agent = self.agents[role]
        for attempt in range(2):
            reply = agent.act(observation)
            self.outbound[role].append(reply)
            value = extract(reply)
            if value is not None:
                return value, reply
            if attempt == 0:
                self.tell(role, correction)
        raise TurnOrderViolationError(
            f"{role.value} failed to produce a usable action in round {observation.round}"
        )

    def play(self):
        state = engine.new_game(self.game)
        while not state.finished:
            r = state.round_index
            for role in (Role.PROPOSER, Role.RECEIVER):
                self.log_lines[role].append(f"[Round {r}]")
            obs = Observation(Role.PROPOSER, r, self.game.rounds, self.game.pot, state.history)
            offer, reply = self._request(
                Role.PROPOSER, obs, self._extract_offer, orchestrator._OFFER_CORRECTION
            )
            self.log_lines[Role.PROPOSER].append(_labeled("Say", reply))
            state = engine.submit_offer(state, offer)
            offer_line = f"OFFER: {format_money(offer)}"
            self.log_lines[Role.RECEIVER].append(_labeled("Hear", offer_line))
            obs = Observation(
                Role.RECEIVER, r, self.game.rounds, self.game.pot, state.history, pending_offer=offer
            )
            decision, reply = self._request(
                Role.RECEIVER, obs, extract_decision_reply, orchestrator._DECISION_CORRECTION
            )
            self.log_lines[Role.RECEIVER].append(_labeled("Say", reply))
            decision_line = f"DECISION: {decision.value}"
            self.log_lines[Role.PROPOSER].append(_labeled("Hear", decision_line))
            self.inbound[Role.PROPOSER].append(decision_line)
            self.inbound[Role.RECEIVER].append(offer_line)
            state, outcome = engine.submit_decision(state, decision)
            announcement = prompts.render(
                "announce_outcome",
                round=r,
                offer_text=format_money(outcome.offer),
                decision_word="accepted" if decision is Decision.ACCEPT else "rejected",
                proposer_text=format_money(outcome.proposer_payoff),
                receiver_text=format_money(outcome.receiver_payoff),
            )
            for role in (Role.PROPOSER, Role.RECEIVER):
                self.tell(role, announcement)
                self.log_lines[role].append(_labeled("Outcome", announcement))
        return state.history

    def _extract_offer(self, reply):
        offer = extract_offer_reply(reply)
        if offer is None or not 0 <= offer <= self.game.pot:
            return None
        return offer

    def logs(self):
        return tuple(
            (role.value, "\n".join(lines) + "\n") for role, lines in self.log_lines.items()
        )

    def audit_information(self):
        for role, opponent in ((Role.PROPOSER, Role.RECEIVER), (Role.RECEIVER, Role.PROPOSER)):
            other = self.agents[opponent]
            secret = private_bio(other.role, other.personality).lower()
            for text in self.inbound[role] + self.outbound[role]:
                if secret in text.lower():
                    raise InformationLeakError(f"{role.value} traffic holds a private profile")


def moderated_run(monkeypatch, moderator_cls, config, make_agents):
    """run_multi_agent under the given moderator: the result, and what each
    player was told and said."""
    moderators = []

    class Kept(moderator_cls):
        def __init__(self, *args):
            super().__init__(*args)
            moderators.append(self)

    monkeypatch.setattr(orchestrator, "_Moderator", Kept)
    result = run_multi_agent(config, make_agents())
    (moderator,) = moderators
    return result, moderator.inbound, moderator.outbound


def assert_moderators_agree(monkeypatch, config, make_agents):
    moderator_cls = orchestrator._Moderator
    expected = moderated_run(monkeypatch, LineByLineModerator, config, make_agents)
    actual = moderated_run(monkeypatch, moderator_cls, config, make_agents)
    (want, want_told, want_said), (got, got_told, got_said) = expected, actual
    assert got.transcript.raw_logs == want.transcript.raw_logs
    assert got.replies == want.replies
    assert got.prompts == want.prompts
    assert (got_told, got_said) == (want_told, want_said)
    assert got == want


# Scripted chat games: (proposer replies, receiver replies) after the strategy
# replies. They cover a re-prompt on each side, marker-free and multi-line
# replies, and an offer outside the pot.
CHAT_GAMES = {
    "markers": (["OFFER: $0.50"] * 5, ["DECISION: accept"] * 5),
    "re-prompts": (
        ["I like turtles.", "OFFER: $0.50"] + ["OFFER: $0.50"] * 4,
        ["DECISION: accept", "hmm, tough call", "DECISION: accept"] + ["DECISION: accept"] * 3,
    ),
    "marker-free": (
        ["Let me think about it.", "I would like to offer $0.50 this time."]
        + ["I would like to offer $0.50 this time."] * 4,
        ["Sounds fair to me, I accept."] * 5,
    ),
    "multi-line": (
        ["Thinking it over.\nOFFER: $0.50  \n(final)"] * 5,
        ["Let me see.\nDECISION: reject", "DECISION: accept\nthanks"] * 2 + ["DECISION: accept"],
    ),
    "out-of-pot": (
        ["OFFER: $1.50", "OFFER: $0.45"] + ["OFFER: $0.50"] * 4,
        ["DECISION: reject"] + ["DECISION: accept"] * 4,
    ),
}


class TestModeratorRendersTheLineByLineLogs:
    @pytest.mark.parametrize("rounds", [1, 5, 10])
    @pytest.mark.parametrize("pot", [5, 37, 100, 1000])
    def test_oracle_grids(self, monkeypatch, pot, rounds):
        game = GameConfig(pot=pot, rounds=rounds)
        for flaws in FLAW_GRIDS:
            for pair in ALL_PAIRS:
                assert_moderators_agree(
                    monkeypatch,
                    multi_agent_config(pair, game=game),
                    lambda: make_oracle_agents(pair, game, **flaws),
                )

    @pytest.mark.parametrize("game", CHAT_GAMES)
    def test_scripted_chat_games(self, monkeypatch, game):
        proposer_actions, receiver_actions = CHAT_GAMES[game]
        config = multi_agent_config(model="scripted")

        def make_agents():
            gateway = ScriptedModelGateway(
                ["STRATEGY:\n" + oracle_text(Role.PROPOSER, Personality.FAIR)] + proposer_actions,
                [oracle_text(Role.RECEIVER, Personality.FAIR) + "\nThat is all."] + receiver_actions,
            )
            return make_model_agents(config, gateway)

        assert_moderators_agree(monkeypatch, config, make_agents)
