import dataclasses
import re
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    ACC,
    REJ,
    ScriptedModelGateway,
    oracle_gateway,
    oracle_log,
    oracle_text,
    render_agent_logs,
)
from ultimatum import engine, orchestrator, prompts
from ultimatum.agents import (
    Agent,
    Flaw,
    Gateway,
    SamplingParams,
    default_plan,
    flaw_role,
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
    UnparseableLogError,
    extract_decision_reply,
    extract_offer_reply,
    game_text,
    parse_agent_log,
    parse_canonical,
    parse_single_model_log,
    serialize_canonical,
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
        state = engine.submit_offer(state, extract_offer_reply(proposer.act(state)))
        decision = extract_decision_reply(receiver.act(state))
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
        result = run_single_model(single_model_config(pair), oracle_gateway(pair))
        assert result.verdict.error_class is ErrorClass.NONE
        assert result.diagnostics.confidence is Confidence.EXACT
        assert result.transcript.structure is Structure.SINGLE_MODEL
        assert len(result.transcript.rounds) == 5

    def test_prompt_names_both_personalities(self):
        pair = PersonalityPair(Personality.GREEDY, Personality.FAIR)
        result = run_single_model(single_model_config(pair), oracle_gateway(pair))
        (label, prompt), = result.traffic()[0]
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
        gateway = oracle_gateway(FAIR_FAIR, **flaws)
        result = run_single_model(single_model_config(), gateway)
        assert result.verdict.error_class is expected

    def test_synthesized_log_uses_the_reply_format(self):
        log = oracle_log(GREEDY_GREEDY)
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
                assert oracle_log(pair, game, **flaws) == expected, (pair, flaws)


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
        speakers = {speaker for speaker, _ in result.traffic()[1]}
        assert speakers == {"proposer", "receiver"}
        proposer_said = [text for speaker, text in result.traffic()[1] if speaker == "proposer"]
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

    def act(self, state):
        return self._actions.pop(0)

    def receive(self, message, label="announcement"):
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
        assert ("proposer", "I like turtles.") in result.traffic()[1]

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


def guessing(agent, opponent, personality):
    """End `agent`'s strategy reply with a guess at `opponent`'s personality."""
    strategy = agent.create_strategy
    agent.create_strategy = lambda: f"{strategy()} I suspect the {opponent.value} is {personality.value}."


def leaking(monkeypatch, template, line):
    """Make `template` render with `line` in front of its text."""
    render = prompts.render

    def leaky_render(name, /, **slots):
        text = render(name, **slots)
        return f"{line} {text}" if name == template else text

    monkeypatch.setattr(prompts, "render", leaky_render)


class TestInformationAudit:
    @pytest.mark.parametrize("receiver", Personality, ids=lambda p: p.value)
    @pytest.mark.parametrize("guesser", [Role.PROPOSER, Role.RECEIVER], ids=lambda r: r.value)
    def test_naming_the_opponents_profile_fails_nothing(self, guesser, receiver):
        # What a player says is never forwarded, so a strategy reply that
        # names the opponent's private line is only a guess. Against either
        # receiver, a right guess plays and grades exactly as a wrong one.
        pair = PersonalityPair(Personality.FAIR, receiver)
        opponent, actual = (
            (Role.RECEIVER, pair.receiver) if guesser is Role.PROPOSER else (Role.PROPOSER, pair.proposer)
        )
        results = {}
        for guess in Personality:
            agents = make_oracle_agents(pair)
            guessing(next(a for a in agents if a.role is guesser), opponent, guess)
            results[guess] = run_multi_agent(multi_agent_config(pair), agents)
        right = results.pop(actual)
        (wrong,) = results.values()
        right_strategy = next(text for who, text in right.traffic()[1] if who == guesser.value)
        assert private_bio(opponent, actual).lower() in right_strategy.lower()
        assert right.transcript.rounds == wrong.transcript.rounds
        assert right.verdict == wrong.verdict
        assert right.diagnostics == wrong.diagnostics

    def test_a_message_to_the_receiver_is_audited(self, monkeypatch):
        # What the moderator tells a player is checked before it is sent.
        leaking(monkeypatch, "correct_decision", "Proposer is fair.")
        receiver = stub_fair_receiver(["hmm"] + ["DECISION: accept"] * 5)
        with pytest.raises(
            InformationLeakError, match="^message to the receiver contains the proposer's private profile$"
        ):
            run_multi_agent(multi_agent_config(), (stub_fair_proposer(["OFFER: $0.50"] * 5), receiver))
        assert receiver.heard == []

    def test_a_leaking_message_never_reaches_the_gateway(self, monkeypatch):
        # The line is matched without regard to case.
        leaking(monkeypatch, "correct_offer", "RECEIVER IS FAIR.")
        sent = []
        complete = ScriptedModelGateway._complete

        def recording(gateway, model, messages, params):
            if messages[0][1].startswith("You are Proposer"):
                sent.extend(content for _, content in messages)
            return complete(gateway, model, messages, params)

        monkeypatch.setattr(ScriptedModelGateway, "_complete", recording)
        config = multi_agent_config(model="scripted")
        with pytest.raises(
            InformationLeakError, match="^message to the proposer contains the receiver's private profile$"
        ):
            run_multi_agent(config, scripted_agents(config, *CHAT_GAMES["re-prompts"])())
        assert sent and not any("receiver is fair." in text.lower() for text in sent)

    def test_a_leaking_correction_fails_before_a_second_unusable_reply(self, monkeypatch):
        # The correction is checked when it is sent, so the run fails on the
        # leak and never asks the receiver again.
        leaking(monkeypatch, "correct_decision", "Proposer is fair.")
        receiver = stub_fair_receiver(["hmm"] * 10)
        with pytest.raises(InformationLeakError, match="message to the receiver"):
            run_multi_agent(multi_agent_config(), (stub_fair_proposer(["OFFER: $0.50"] * 5), receiver))
        assert len(receiver._actions) == 9  # asked once

    def test_private_bios_never_appear_in_replies(self):
        proposer, receiver = make_oracle_agents(GREEDY_GREEDY)
        result = run_multi_agent(multi_agent_config(GREEDY_GREEDY), (proposer, receiver))
        for _, text in result.traffic()[1]:
            assert "is greedy." not in text


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
        labels = [label for label, _ in result.traffic()[0]]
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

    @pytest.mark.parametrize("script", ["markers", "re-prompts"])
    def test_kept_traffic_is_the_wire(self, script):
        # A role's kept prompts are its agent's system and user messages and
        # its kept replies the assistant messages, in the order sent.
        config = multi_agent_config(model="scripted")
        agents = scripted_agents(config, *CHAT_GAMES[script])()
        kept_prompts, kept_replies = run_multi_agent(config, agents).traffic()
        for agent in agents:
            name = agent.role.value
            sent = [content for role, content in agent.messages if role in ("system", "user")]
            answered = [content for role, content in agent.messages if role == "assistant"]
            assert [text for label, text in kept_prompts if label.startswith(f"{name}/")] == sent
            assert [text for who, text in kept_replies if who == name] == answered


def assert_logs_parse_to_the_transcript(config, result):
    """Parsing the per-agent logs rendered from the run's transcript gives
    back its game text, the transcript but for its raw logs, and the
    diagnostics the run of `config` reported."""
    logs = render_agent_logs(result.transcript)
    parsed, diagnostics = parse_agent_log(logs, config.pair, config.game)
    assert game_text(serialize_canonical(parsed)) == game_text(result.canonical)
    assert dataclasses.replace(parsed, raw_logs=result.transcript.raw_logs) == result.transcript
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
        config = multi_agent_config(pair, game=game)
        result = run_multi_agent(config, make_oracle_agents(pair, game, **flaws))
        assert_logs_parse_to_the_transcript(config, result)

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
        assert_logs_parse_to_the_transcript(config, result)


class TestOneGameText:
    """Both structures' transcripts of one oracle game hold one game text,
    so an oracle batch grades the game once for both."""

    @settings(max_examples=60)
    @given(
        pot=st.integers(5, 10_000),
        rounds=st.integers(1, 10),
        pair=st.sampled_from(ALL_PAIRS),
        flaws=st.sampled_from(FLAW_GRIDS),
    )
    def test_single_model_and_multi_agent_runs_of_an_oracle_game(self, pot, rounds, pair, flaws):
        game = GameConfig(pot=pot, rounds=rounds)
        played = run_multi_agent(multi_agent_config(pair, game=game), make_oracle_agents(pair, game, **flaws))
        single = run_single_model(
            single_model_config(pair, game=game), OracleSingleModelGateway(played.transcript)
        )
        assert single.canonical != played.canonical
        assert game_text(single.canonical) == game_text(played.canonical)
        assert single.verdict == played.verdict

    @settings(max_examples=80)
    @given(
        pot=st.integers(5, 10_000) | st.just(engine.MAX_POT),
        rounds=st.integers(1, 10),
        pair=st.sampled_from(ALL_PAIRS),
        proposer_flaw=st.sampled_from([None, Flaw.INCOMPLETE, Flaw.DEVIATOR]),
        receiver_flaw=st.sampled_from([None, Flaw.INCONSISTENT_THRESHOLD]),
    )
    @example(engine.MAX_POT, 10, GREEDY_GREEDY, Flaw.DEVIATOR, Flaw.INCONSISTENT_THRESHOLD)
    def test_an_oracle_cells_written_entry_is_the_parse_of_its_log(
        self, pot, rounds, pair, proposer_flaw, receiver_flaw
    ):
        # An oracle batch writes a single-model cell's memo entry from the
        # played game; it is the entry a parse of the cell's combined log builds.
        game = GameConfig(pot=pot, rounds=rounds)
        agents = make_oracle_agents(pair, game, proposer_flaw, receiver_flaw)
        played = run_multi_agent(multi_agent_config(pair, game=game), agents)
        log = synthesize_single_model_log(played.transcript)
        graded = {}
        OracleSingleModelGateway(played.transcript).write_entry(graded)
        transcript, verdict, diagnostics, canonical = graded[(log, pair, game)]
        assert (transcript, diagnostics) == parse_single_model_log(log, pair, game)
        assert canonical == serialize_canonical(transcript)
        assert verdict == played.verdict


class TestDispatch:
    def test_dispatches_by_structure(self, monkeypatch):
        # run_batch is the one dispatch: each structure reaches its own
        # runner, and offline single-model runs share one gateway per cell.
        built = []
        init = OracleSingleModelGateway.__init__

        def counting_init(gateway, transcript):
            built.append(transcript.pair)
            init(gateway, transcript)

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
# the reference for the one that keeps a turn log: its logs are the ones
# rendered from the other's transcript.
# ---------------------------------------------------------------------------


def _labeled(label, text):
    first, _, rest = text.partition("\n")
    line = f"[{label}] {first}".rstrip()
    return f"{line}\n{rest}" if rest else line


def _strip_strategy_prefix(reply):
    first, sep, rest = reply.partition("\n")
    first = re.sub(r"^\s*strategy\s*:\s*", "", first, flags=re.IGNORECASE)
    return f"{first}{sep}{rest}".strip()


ROLES = (Role.PROPOSER, Role.RECEIVER)
TOLD_LABELS = ("correction", "announcement")


class LineByLineModerator:
    """Keeps its own lists of what each player was told and said, and of
    the replies the game was played from, and writes each per-agent log a
    line at a time. It checks each message before telling it."""

    def __init__(self, proposer, receiver, game):
        self.proposer, self.receiver = proposer, receiver
        self.agents = {Role.PROPOSER: proposer, Role.RECEIVER: receiver}
        self.game = game
        self.played_from = []
        self.told = {role: [] for role in ROLES}
        self.said = {role: [] for role in ROLES}
        self.log_lines = {role: [] for role in ROLES}

    def tell(self, role, message, label):
        other = self.agents[Role.RECEIVER if role is Role.PROPOSER else Role.PROPOSER]
        if private_bio(other.role, other.personality).lower() in message.lower():
            raise InformationLeakError(
                f"message to the {role.value} contains the {other.role.value}'s private profile"
            )
        self.agents[role].receive(message, label)
        self.told[role].append(message)

    def strategy_phase(self, helper=None):
        # A helper changes nothing a player is told or says, so the
        # reference asks the two players in turn whether or not it has one.
        for role in ROLES:
            reply = self.agents[role].create_strategy()
            self.said[role].append(reply)
            self.played_from.append(reply)
            self.log_lines[role].append(_labeled("Plan", default_plan(role)))
            self.log_lines[role].append(_labeled("Strategy", _strip_strategy_prefix(reply)))

    def _request(self, role, state, extract, correction):
        agent = self.agents[role]
        for attempt in range(2):
            reply = agent.act(state)
            self.said[role].append(reply)
            value = extract(reply)
            if value is not None:
                self.played_from.append(reply)
                return value, reply
            if attempt == 0:
                self.tell(role, prompts.render(correction), "correction")
        raise TurnOrderViolationError(
            f"{role.value} failed to produce a usable action in round {state.round_index}"
        )

    def play(self):
        state = engine.new_game(self.game)
        while not state.finished:
            r = state.round_index
            for role in ROLES:
                self.log_lines[role].append(f"[Round {r}]")
            offer, offer_reply = self._request(
                Role.PROPOSER, state, self._extract_offer, "correct_offer"
            )
            self.log_lines[Role.PROPOSER].append(_labeled("Say", offer_reply))
            state = engine.submit_offer(state, offer)
            self.log_lines[Role.RECEIVER].append(_labeled("Hear", f"OFFER: {format_money(offer)}"))
            decision, decision_reply = self._request(
                Role.RECEIVER, state, extract_decision_reply, "correct_decision"
            )
            self.log_lines[Role.RECEIVER].append(_labeled("Say", decision_reply))
            self.log_lines[Role.PROPOSER].append(_labeled("Hear", f"DECISION: {decision.value}"))
            state, outcome = engine.submit_decision(state, decision)
            announcement = prompts.render(
                "announce_outcome",
                round=r,
                offer_text=format_money(outcome.offer),
                decision_word="accepted" if decision is Decision.ACCEPT else "rejected",
                proposer_text=format_money(outcome.proposer_payoff),
                receiver_text=format_money(outcome.receiver_payoff),
            )
            for role in ROLES:
                self.tell(role, announcement, "announcement")
                self.log_lines[role].append(_labeled("Outcome", announcement))
        return state.history

    def _extract_offer(self, reply):
        offer = extract_offer_reply(reply)
        if offer is None or not 0 <= offer <= self.game.pot:
            return None
        return offer

    def accepted(self):
        return tuple(self.played_from)

    def traffic(self):
        sent = [
            (f"{role.value}/{label}", text)
            for role in ROLES
            for label, text in getattr(self.agents[role], "prompt_log", ())
        ]
        said = [(role.value, text) for role in ROLES for text in self.said[role]]
        return tuple(sent), tuple(said)

    def agent_logs(self):
        return tuple("\n".join(self.log_lines[role]) + "\n" for role in ROLES)


def told_and_said(moderator):
    """Each role's told and said texts: the reference moderator's own
    lists, or read from the moderator's turn log."""
    if isinstance(moderator, LineByLineModerator):
        return moderator.told, moderator.said
    turns = moderator.turns
    told = {role: [t for r, label, t in turns if r is role and label in TOLD_LABELS] for role in ROLES}
    said = {role: [t for r, label, t in turns if r is role and label not in TOLD_LABELS] for role in ROLES}
    return told, said


def moderated_run(moderator_cls, config, make_agents, helper=None):
    """run_multi_agent under the given moderator, with `helper` for its
    strategy phase: the result (or the name and message of the
    TurnOrderViolationError or InformationLeakError it raised), the
    moderator, and what each player was told and said."""
    moderators = []

    class Kept(moderator_cls):
        def __init__(self, *args):
            super().__init__(*args)
            moderators.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(orchestrator, "_Moderator", Kept)
        try:
            outcome = run_multi_agent(config, make_agents(), helper=helper)
        except (TurnOrderViolationError, InformationLeakError) as error:
            outcome = f"{type(error).__name__}: {error}"
    (moderator,) = moderators
    return outcome, moderator, *told_and_said(moderator)


def assert_moderators_agree(config, make_agents, helper=None):
    """Both moderators run the game alike, and the per-agent logs rendered
    from the real moderator's transcript are the reference's, byte for
    byte; returns the real moderator's outcome."""
    moderator_cls = orchestrator._Moderator
    want, reference, want_told, want_said = moderated_run(LineByLineModerator, config, make_agents, helper)
    got, _, got_told, got_said = moderated_run(moderator_cls, config, make_agents, helper)
    assert (got_told, got_said) == (want_told, want_said)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return got
    assert render_agent_logs(got.transcript) == reference.agent_logs()
    assert got.transcript.raw_logs == want.transcript.raw_logs
    assert got.traffic() == want.traffic()
    assert got == want
    return got


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


def scripted_agents(config, proposer_actions, receiver_actions):
    """A factory of model-backed players answering from the given scripts
    after oracle strategy replies, one with a prefix and one with a tail."""
    pot, rounds = config.game.pot, config.game.rounds

    def make_agents():
        gateway = ScriptedModelGateway(
            ["STRATEGY:\n" + oracle_text(Role.PROPOSER, Personality.FAIR, pot, rounds)]
            + list(proposer_actions),
            [oracle_text(Role.RECEIVER, Personality.FAIR, pot, rounds) + "\nThat is all."]
            + list(receiver_actions),
        )
        return make_model_agents(config, gateway)

    return make_agents


JUNK_REPLIES = st.one_of(
    st.sampled_from(["I like turtles.", "hmm, tough call", "", "¿Oferta? ٥٠ сентов", "DÉCISION : accepter"]),
    st.text(max_size=40),
)
OFFER_FORMS = (
    "OFFER: {}",
    "I would like to offer {} this time.",
    "Thinking it over.\nOFFER: {}  \n(final)",
    "Mi oferta — OFFER：{}, ¿vale?",
)
DECISION_FORMS = (
    "DECISION: accept",
    "DECISION: reject",
    "Sounds fair to me, I accept.",
    "Let me see.\nDECISION: reject",
    "DECISION: accept\nthanks",
    "Décision — DECISION: reject ✓",
)


def mostly(usable, unusable):
    """Three usable replies in four, so that most generated games finish."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda ok: usable if ok else unusable
    )


def offer_replies(pot):
    offers = st.tuples(st.sampled_from(OFFER_FORMS), st.integers(0, pot))
    outside = st.integers(pot + 1, 2 * pot).map(lambda cents: f"OFFER: {format_money(cents)}")
    return mostly(
        offers.map(lambda form_cents: form_cents[0].format(format_money(form_cents[1]))),
        st.one_of(outside, JUNK_REPLIES),
    )


DECISION_REPLIES = mostly(st.sampled_from(DECISION_FORMS), JUNK_REPLIES)


@st.composite
def chat_scripts(draw):
    """A game size and enough replies on each side for every round to take
    a re-prompt: a scripted player is never asked once its script is out."""
    game = GameConfig(pot=draw(st.integers(5, 1000)), rounds=draw(st.integers(1, 6)))
    size = 2 * game.rounds
    proposer = draw(st.lists(offer_replies(game.pot), min_size=size, max_size=size))
    receiver = draw(st.lists(DECISION_REPLIES, min_size=size, max_size=size))
    return game, proposer, receiver


# A moderator message that carries the other player's private line in the
# fair-fair games below, by template. Both players are told each
# announcement, the proposer first, so the proposer hears this one and the
# receiver's copy fails the run.
LEAKS = {
    "correct_offer": "Receiver is fair.",
    "correct_decision": "Proposer is fair.",
    "announce_outcome": "Proposer is fair.",
}


class TestModeratorRendersTheLineByLineLogs:
    @pytest.mark.parametrize("rounds", [1, 5, 10])
    @pytest.mark.parametrize("pot", [5, 37, 100, 1000])
    def test_oracle_grids(self, pot, rounds):
        game = GameConfig(pot=pot, rounds=rounds)
        for flaws in FLAW_GRIDS:
            for pair in ALL_PAIRS:
                assert_moderators_agree(
                    multi_agent_config(pair, game=game),
                    lambda: make_oracle_agents(pair, game, **flaws),
                )

    @pytest.mark.parametrize("game", CHAT_GAMES)
    def test_scripted_chat_games(self, game):
        config = multi_agent_config(model="scripted")
        assert_moderators_agree(config, scripted_agents(config, *CHAT_GAMES[game]))

    @pytest.mark.parametrize("game", CHAT_GAMES)
    def test_scripted_chat_games_with_strategies_asked_together(self, game):
        config = multi_agent_config(model="scripted")
        with ThreadPoolExecutor(max_workers=1) as helper:
            assert_moderators_agree(config, scripted_agents(config, *CHAT_GAMES[game]), helper)

    @pytest.mark.parametrize("template", LEAKS)
    @pytest.mark.parametrize("game", ["markers", "re-prompts"])
    def test_scripted_chat_games_with_a_leaking_template(self, monkeypatch, game, template):
        leaking(monkeypatch, template, LEAKS[template])
        config = multi_agent_config(model="scripted")
        outcome = assert_moderators_agree(config, scripted_agents(config, *CHAT_GAMES[game]))
        # "markers" earns no correction; every game is told announcements.
        told = game == "re-prompts" or template == "announce_outcome"
        assert isinstance(outcome, str) == told
        if told:
            assert outcome.startswith("InformationLeakError: message to the ")

    @settings(max_examples=60)
    @given(chat_scripts(), st.sampled_from([None, *LEAKS]))
    def test_generated_chat_games(self, script, template):
        game, proposer_actions, receiver_actions = script
        config = multi_agent_config(model="scripted", game=game)
        with pytest.MonkeyPatch.context() as patch:
            if template is not None:
                leaking(patch, template, LEAKS[template])
            assert_moderators_agree(config, scripted_agents(config, proposer_actions, receiver_actions))


@st.composite
def played_scripts(draw):
    """A game size and scripts in which every action is one usable reply,
    after one unusable reply for some: (game, proposer replies, receiver
    replies, the raw logs the game must keep)."""
    game = GameConfig(pot=draw(st.integers(5, 10_000)), rounds=draw(st.integers(1, 10)))
    offers = st.tuples(st.sampled_from(OFFER_FORMS), st.integers(0, game.pot)).map(
        lambda form_cents: form_cents[0].format(format_money(form_cents[1]))
    )
    outside = st.integers(game.pot + 1, 2 * game.pot).map(lambda cents: f"OFFER: {format_money(cents)}")
    unusable_offers = outside | JUNK_REPLIES.filter(
        lambda reply: extract_offer_reply(reply) not in range(game.pot + 1)
    )
    unusable_decisions = JUNK_REPLIES.filter(lambda reply: extract_decision_reply(reply) is None)
    proposer, receiver, raw_logs = [], [], []
    for _ in range(game.rounds):
        for script, label, usable, unusable in (
            (proposer, "proposer/offer", offers, unusable_offers),
            (receiver, "receiver/decision", st.sampled_from(DECISION_FORMS), unusable_decisions),
        ):
            reply = draw(usable)
            script += draw(st.lists(unusable, max_size=1)) + [reply]
            raw_logs.append((label, reply))
    return game, proposer, receiver, tuple(raw_logs)


@settings(max_examples=60)
@given(played_scripts())
def test_raw_logs_are_the_accepted_action_replies(script):
    # Re-prompts, marker-free and multi-line replies: the raw logs hold
    # each accepted offer and decision reply, in turn order, and nothing
    # else, and they read back from the canonical text.
    game, proposer_actions, receiver_actions, raw_logs = script
    config = multi_agent_config(model="scripted", game=game)
    result = run_multi_agent(config, scripted_agents(config, proposer_actions, receiver_actions)())
    assert result.transcript.raw_logs == raw_logs
    assert parse_canonical(result.canonical).raw_logs == raw_logs


# ---------------------------------------------------------------------------
# The memo step that makes every entry, for both structures
# ---------------------------------------------------------------------------


class OneReply(Gateway):
    """Answers every completion request with one text."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def _complete(self, model, messages, params):
        return self.text


class Refused(Exception):
    """Raised by a build or grade the test makes fail."""


MEMO_GAMES = st.tuples(
    st.sampled_from(ALL_PAIRS),
    st.builds(GameConfig, pot=st.integers(5, 10_000), rounds=st.integers(1, 10)),
    st.sampled_from([None, *Flaw]),
)
# A run of a drawn game: moderated, or as a single-model reply that is the
# game's combined log, the log after a preamble (another key with the same
# game text), or text no log can be read from. A build or a grade of the
# run may be refused.
MEMO_RUNS = st.tuples(
    st.integers(0, 2),
    st.sampled_from(["moderated", "log", "preamble", "unreadable"]),
    st.sampled_from([None, "build", "grade"]),
)


def oracle_flaws(flaw):
    return {} if flaw is None else {f"{flaw_role(flaw).value}_flaw": flaw}


def memo_reply(game, kind):
    """The single-model reply of a drawn run, or None for a moderated one."""
    pair, config, flaw = game
    if kind == "moderated":
        return None
    if kind == "unreadable":
        return "I would rather not play."
    log = oracle_log(pair, config, **oracle_flaws(flaw))
    return log if kind == "log" else "Here is the simulation.\n" + log


def memo_run(game, reply, graded=None):
    """The drawn run through the `graded` memo: its result, or the name and
    message of the exception it raised."""
    pair, config, flaw = game
    try:
        if reply is None:
            agents = make_oracle_agents(pair, config, **oracle_flaws(flaw))
            return run_multi_agent(multi_agent_config(pair, game=config), agents, graded=graded)
        gateway = OneReply(reply)
        return run_single_model(single_model_config(pair, game=config), gateway, graded=graded)
    except UnparseableLogError as error:
        return f"{type(error).__name__}: {error}"


@settings(max_examples=60)
@given(games=st.lists(MEMO_GAMES, min_size=1, max_size=3), runs=st.lists(MEMO_RUNS, max_size=10))
def test_one_memo_step_builds_and_grades_each_key_once(games, runs):
    # Replies are written before anything is counted: writing one plays the
    # oracles' game.
    runs = [
        (games[i % len(games)], memo_reply(games[i % len(games)], kind), refuse)
        for i, kind, refuse in runs
    ]
    fresh = [memo_run(game, reply) for game, reply, _ in runs]
    memo, builds, grades = {}, [], []
    refusing = None

    def counted(step, name, calls):
        def run(*args):
            if refusing == name:
                raise Refused(name)
            result = step(*args)
            calls.append(args)
            return result

        return run

    with pytest.MonkeyPatch.context() as patch:
        for name in ("parse_single_model_log", "_moderated_transcript"):
            patch.setattr(orchestrator, name, counted(getattr(orchestrator, name), "build", builds))
        patch.setattr(
            orchestrator, "evaluate_transcript",
            counted(orchestrator.evaluate_transcript, "grade", grades),
        )
        for (game, reply, refusing), want in zip(runs, fresh):
            before, counts = dict(memo), (len(builds), len(grades))
            try:
                got = memo_run(game, reply, memo)
            except Refused:
                # A refused build or grade stores nothing, and what it did
                # build is not counted.
                assert memo == before
                del builds[counts[0]:], grades[counts[1]:]
                continue
            assert got == want
            if isinstance(got, str):
                assert memo == before
            else:
                assert got.traffic() == want.traffic()
                assert memo[game_text(got.canonical)] == got.verdict

    # Every key was built once and every game text graded once: each build
    # stores one entry and each grade one verdict, and none is overwritten.
    entries = {key: entry for key, entry in memo.items() if not isinstance(key, str)}
    assert len(builds) == len(entries)
    assert len(grades) == len(memo) - len(entries)
    # Every entry is the one a fresh memo builds.
    built_fresh = [
        (r.transcript, r.verdict, r.diagnostics, r.canonical) for r in fresh if not isinstance(r, str)
    ]
    assert all(entry in built_fresh for entry in entries.values())
