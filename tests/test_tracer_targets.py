"""The bench tracer still finds every name it wraps.

`bench/layer_trace.py` wraps the program's functions by module and name,
and counts re-prompts through the two reply extractors the moderator
imports by name. A renamed target would otherwise fail only a traced bench
run, so these tests install the tracer over the program as it stands.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from helpers import ScriptedModelGateway, oracle_text
from ultimatum import orchestrator
from ultimatum.orchestrator import SimulationConfig, make_model_agents, run_multi_agent
from ultimatum.strategy import Personality, PersonalityPair, Role
from ultimatum.transcripts import Structure

BENCH = Path(__file__).resolve().parents[1] / "bench"
EXTRACTORS = ("extract_offer_reply", "extract_decision_reply")


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layer_trace

    tracer = layer_trace.LayerTracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_install_wraps_the_moderators_extractors_and_uninstall_restores_them(tracer):
    wrappers = [getattr(orchestrator, name) for name in EXTRACTORS]
    assert [w.__wrapped_layer__ for w in wrappers] == ["transcripts.extract_reply"] * 2
    tracer.uninstall()
    assert [getattr(orchestrator, name) for name in EXTRACTORS] == [w.__wrapped__ for w in wrappers]


def test_a_reprompt_is_counted_through_the_wrapped_extractors(tracer):
    fair = Personality.FAIR
    gateway = ScriptedModelGateway(
        [f"STRATEGY: {oracle_text(Role.PROPOSER, fair)}", "I like turtles."] + ["OFFER: $0.50"] * 5,
        [f"STRATEGY: {oracle_text(Role.RECEIVER, fair)}"] + ["DECISION: accept"] * 5,
    )
    config = SimulationConfig(Structure.MULTI_AGENT, PersonalityPair(fair, fair), model="scripted")
    tracer.enabled = True
    run_multi_agent(config, make_model_agents(config, gateway))
    tracer.enabled = False
    assert tracer.counts["orchestrator.reprompts"] == 1
