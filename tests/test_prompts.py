"""Every v1 prompt template, rendered through the code that sends it and
pinned as literal text at two game sizes, and checked at many game sizes
to carry no private line but the player's own.

A template edit that changes what a model is sent fails here; such an edit
also needs a new template version in prompts/manifest.json.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScriptedModelGateway, oracle_gateway
from ultimatum import prompts
from ultimatum.agents import Gateway, private_bio
from ultimatum.engine import GameConfig, format_money
from ultimatum.orchestrator import (
    SimulationConfig,
    make_model_agents,
    run_multi_agent,
    run_single_model,
)
from ultimatum.strategy import ALL_PAIRS, Personality, PersonalityPair, Role
from ultimatum.transcripts import Structure

GREEDY_FAIR = PersonalityPair(Personality.GREEDY, Personality.FAIR)

# (game, rounds word, pot text, the proposer's share of an accepted $0.10 offer)
GAMES = {
    "pot100-5rounds": (GameConfig(pot=100, rounds=5), "five", "$1", "$0.90"),
    "pot37-3rounds": (GameConfig(pot=37, rounds=3), "three", "$0.37", "$0.27"),
}


class LastConversationGateway(Gateway):
    """Offers $0.10 and accepts it; keeps the last conversation each player sent."""

    def __init__(self):
        super().__init__()
        self.sent = {}

    def _complete(self, model, messages, params):
        role = Role.PROPOSER if "You are Proposer" in messages[0][1] else Role.RECEIVER
        self.sent[role] = list(messages)
        if len(messages) == 2:
            return "STRATEGY: I offer $0.10 and accept any offer."
        return "OFFER: $0.10" if role is Role.PROPOSER else "DECISION: accept"


def system_prompt(name, personality, rounds_word, pot_text):
    return (
        f"You are {name}, a participant in a negotiation experiment.\n"
        f"{name} is {personality}.\n"
        "\n"
        "Directives:\n"
        f"- You are playing the ultimatum game {rounds_word} times with {pot_text} at stake each round.\n"
        "- A moderator runs the game. Act only when asked, and only in your own turn.\n"
        "- Keep your strategy and your reasoning to yourself; say only what each request asks for.\n"
        '- When asked for a strategy, reply "STRATEGY:" followed by your strategy.\n'
        '- When asked for an offer, reply with a single line "OFFER: $<amount>".\n'
        '- When asked for a decision, reply with a single line "DECISION: accept" or "DECISION: reject".'
    )


def expected_multi_agent_prompts(rounds, rounds_word, pot_text, keep_text):
    expected = []
    for role, name, personality in (("proposer", "Proposer", "greedy"), ("receiver", "Receiver", "fair")):
        expected += [
            (f"{role}/system", system_prompt(name, personality, rounds_word, pot_text)),
            (
                f"{role}/create_strategy",
                f"Create a strategy for playing the ultimatum game as the {role}.\n"
                "\n"
                f'Reply "STRATEGY:" followed by the strategy you will follow for all {rounds_word} rounds.',
            ),
        ]
        for r in range(1, rounds + 1):
            if role == "proposer":
                request = (
                    "proposer/request_offer",
                    f"Round {r} of {rounds}. You are the proposer. Following your strategy, make "
                    'your offer to the receiver now. Reply with a single line "OFFER: $<amount>".',
                )
            else:
                request = (
                    "receiver/request_decision",
                    f"Round {r} of {rounds}. You are the receiver. The proposer offers you $0.10. "
                    'Following your strategy, reply with a single line "DECISION: accept" or '
                    '"DECISION: reject".',
                )
            announcement = (
                f"Round {r} result: the offer of $0.10 was accepted. "
                f"The proposer receives {keep_text}; the receiver receives $0.10."
            )
            expected += [request, (f"{role}/announcement", announcement)]
    return expected


@pytest.mark.parametrize("size", GAMES)
def test_multi_agent_prompts_are_pinned(size):
    game, rounds_word, pot_text, keep_text = GAMES[size]
    config = SimulationConfig(Structure.MULTI_AGENT, GREEDY_FAIR, game, model="scripted")
    gateway = LastConversationGateway()
    result = run_multi_agent(config, make_model_agents(config, gateway))

    expected = expected_multi_agent_prompts(game.rounds, rounds_word, pot_text, keep_text)
    assert list(result.traffic()[0]) == expected
    # What the gateway was sent is the same text: each player's last request
    # carries every prompt but the final announcement, which comes after it.
    for role in (Role.PROPOSER, Role.RECEIVER):
        sent = [content for who, content in gateway.sent[role] if who != "assistant"]
        assert sent == [text for label, text in expected if label.startswith(role.value)][:-1]


OFFER_CORRECTION = (
    'Your reply must be a single line "OFFER: $<amount>" with an amount between $0 and the '
    "full pot. Give your offer again."
)
DECISION_CORRECTION = (
    'Your reply must be a single line "DECISION: accept" or "DECISION: reject". '
    "Give your decision again."
)


class StallsOnceGateway(LastConversationGateway):
    """Like LastConversationGateway, but each player's first action reply
    carries no action, so each earns one correction."""

    def __init__(self):
        super().__init__()
        self.stalled = set()

    def _complete(self, model, messages, params):
        reply = super()._complete(model, messages, params)
        role = Role.PROPOSER if "You are Proposer" in messages[0][1] else Role.RECEIVER
        if len(messages) > 2 and role not in self.stalled:
            self.stalled.add(role)
            return "Let me think about it."
        return reply


@pytest.mark.parametrize("size", GAMES)
def test_corrections_are_pinned(size):
    game, rounds_word, pot_text, keep_text = GAMES[size]
    config = SimulationConfig(Structure.MULTI_AGENT, GREEDY_FAIR, game, model="scripted")
    gateway = StallsOnceGateway()
    result = run_multi_agent(config, make_model_agents(config, gateway))

    expected = expected_multi_agent_prompts(game.rounds, rounds_word, pot_text, keep_text)
    # Each player's round-1 request is followed by its correction and asked again.
    for label, correction in (
        ("proposer/request_offer", ("proposer/correction", OFFER_CORRECTION)),
        ("receiver/request_decision", ("receiver/correction", DECISION_CORRECTION)),
    ):
        at = next(i for i, (seen, _) in enumerate(expected) if seen == label)
        expected[at + 1 : at + 1] = [correction, expected[at]]
    assert list(result.traffic()[0]) == expected
    for role in (Role.PROPOSER, Role.RECEIVER):
        sent = [content for who, content in gateway.sent[role] if who != "assistant"]
        assert sent == [text for label, text in expected if label.startswith(role.value)][:-1]


@pytest.mark.parametrize("size", GAMES)
def test_single_model_prompt_is_pinned(size):
    game, rounds_word, pot_text, _ = GAMES[size]
    config = SimulationConfig(Structure.SINGLE_MODEL, GREEDY_FAIR, game)
    result = run_single_model(config, oracle_gateway(GREEDY_FAIR, game))
    assert result.traffic()[0] == (
        (
            "single_model",
            f"Create a strategy for a greedy proposer and a fair receiver in playing the ultimatum "
            f"game {rounds_word} times with {pot_text}. Once the strategies are created, simulate "
            f"{rounds_word} rounds of the ultimatum game with the proposer and the receiver "
            "adhering to the previously outlined strategies.\n"
            "\n"
            "Format the simulation as follows. First give each strategy:\n"
            "STRATEGY (Proposer): <the proposer's strategy>\n"
            "STRATEGY (Receiver): <the receiver's strategy>\n"
            "Then give exactly three lines for every round:\n"
            "ROUND <round number>\n"
            "OFFER: <amount offered to the receiver, e.g. $0.50>\n"
            "DECISION: <accept or reject>\n"
            "OUTCOME: <what each player receives this round>",
        ),
    )


def test_the_pinned_prompts_cover_every_template_at_v1():
    templates = prompts.manifest()["templates"]
    assert {name: entry["version"] for name, entry in templates.items()} == {
        "single_model": "v1",
        "agent_system": "v1",
        "create_strategy": "v1",
        "request_offer": "v1",
        "request_decision": "v1",
        "announce_outcome": "v1",
        "correct_offer": "v1",
        "correct_decision": "v1",
    }


PRIVATE_LINES = [private_bio(role, personality) for role in Role for personality in Personality]


def private_lines_in(text):
    """The private lines `text` carries, matched without regard to case."""
    return {line for line in PRIVATE_LINES if line.lower() in text.lower()}


@st.composite
def played_games(draw):
    """A game size, a pair, and each player's replies: a strategy, one
    unusable reply (so each player is sent its correction), then an action
    for every round."""
    game = GameConfig(pot=draw(st.integers(5, 10_000)), rounds=draw(st.integers(1, 10)))
    offers = draw(st.lists(st.integers(0, game.pot), min_size=game.rounds, max_size=game.rounds))
    decisions = draw(
        st.lists(st.sampled_from(["accept", "reject"]), min_size=game.rounds, max_size=game.rounds)
    )
    replies = (
        ["STRATEGY: I offer half.", "Let me think."] + [f"OFFER: {format_money(o)}" for o in offers],
        ["STRATEGY: I accept half.", "Hmm."] + [f"DECISION: {d}" for d in decisions],
    )
    return game, draw(st.sampled_from(ALL_PAIRS)), replies


@settings(max_examples=60)
@given(played_games())
def test_no_prompt_carries_the_other_players_private_line(played):
    # Every template, rendered by the code that sends it: each player's
    # system prompt carries exactly its own private line, and nothing else
    # it is sent (the prompts ModelAgent renders itself included) carries
    # any, so none carries the other player's. The single-model prompt
    # names both personalities but carries no private line.
    game, pair, replies = played
    rendered = set()
    render = prompts.render

    def recording(name, /, **slots):
        rendered.add(name)
        return render(name, **slots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prompts, "render", recording)
        config = SimulationConfig(Structure.MULTI_AGENT, pair, game, model="scripted")
        multi = run_multi_agent(config, make_model_agents(config, ScriptedModelGateway(*replies)))
        single_config = SimulationConfig(Structure.SINGLE_MODEL, pair, game)
        single = run_single_model(single_config, oracle_gateway(pair, game))
    assert rendered == set(prompts.manifest()["templates"])
    bios = {
        "proposer": private_bio(Role.PROPOSER, pair.proposer),
        "receiver": private_bio(Role.RECEIVER, pair.receiver),
    }
    for label, text in multi.traffic()[0]:
        who, _, kind = label.partition("/")
        if kind == "system":
            assert private_lines_in(text) == {bios[who]} and text.count(bios[who]) == 1, label
        else:
            assert private_lines_in(text) == set(), label
    ((_, text),) = single.traffic()[0]
    assert private_lines_in(text) == set()


# Slot text built from what could trip a generated renderer: braces, format
# and escape characters, both quotes, newlines and non-ASCII.
AWKWARD_PIECES = ["{", "}", "{{", "}}", "{x}", "%", "%s", "\\", "\\n", "'", '"', "'''", "\n", "é", "€", "a "]
AWKWARD_TEXT = st.lists(st.sampled_from(AWKWARD_PIECES)).map("".join)
SLOT_VALUES = AWKWARD_TEXT | st.text() | st.integers(-(10**20) + 1, 10**20 - 1)


def slot_names(template):
    return {field for _, field, _, _ in string.Formatter().parse(prompts.load_template(template)) if field}


@pytest.mark.parametrize("template", sorted(prompts.manifest()["templates"]))
@settings(max_examples=40)
@given(data=st.data())
def test_render_equals_str_format(template, data):
    slots = {name: data.draw(SLOT_VALUES, label=name) for name in sorted(slot_names(template))}
    assert prompts.render(template, **slots) == prompts.load_template(template).format(**slots)


def test_a_missing_slot_raises_key_error_naming_it_and_an_extra_slot_is_ignored():
    with pytest.raises(KeyError) as missing:
        prompts.render("request_decision", round=1, rounds=5)
    assert missing.value.args == ("offer_text",)
    assert prompts.render("correct_offer", extra="ignored") == prompts.load_template("correct_offer")
    assert prompts.render("request_offer", round=2, rounds=3, offer_text="$1") == (
        prompts.load_template("request_offer").format(round=2, rounds=3)
    )


def test_an_unknown_template_is_a_key_error_naming_it():
    with pytest.raises(KeyError, match="unknown prompt template 'no_such_template'"):
        prompts.render("no_such_template")


@pytest.mark.parametrize("field", ["{0}", "{x!r}", "{x:>5}", "{x.y}", "{x[0]}", "{}", "}", "{"])
def test_the_compiler_refuses_every_field_form_but_a_name(field):
    with pytest.raises(ValueError, match="prompt template 'demo'"):
        prompts._compile("demo", f"before {field} after")


def test_the_compiler_renders_quotes_backslashes_and_doubled_braces_verbatim():
    # Backslashes, quotes and braces the generated source must quote right.
    literal = "''' \"\"\" \\n \\\\ \\N{{DIGIT ONE}} {{}}\n"
    rendered = prompts._compile("demo", literal + "{x}{y}{x}")({"x": "{y}", "y": 7})
    assert rendered == (literal + "{x}{y}{x}").format(x="{y}", y=7)
    assert rendered == "''' \"\"\" \\n \\\\ \\N{DIGIT ONE} {}\n{y}7{y}"
