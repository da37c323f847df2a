import dataclasses
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import ACC, REJ, build_transcript, full_corpus, load_corpus_cases, oracle_text
from ultimatum import prompts, transcripts
from ultimatum.engine import MAX_POT, Decision, GameConfig
from ultimatum.rubric import ErrorClass, evaluate_transcript
from ultimatum.strategy import (
    ALL_PAIRS,
    AdjustKind,
    AdjustRule,
    FinalRoundRule,
    PersonalityPair,
    ProposerStrategy,
    ReceiverStrategy,
    Role,
)
from ultimatum.transcripts import (
    Confidence,
    InconsistentLogsError,
    MalformedRecordError,
    SchemaVersionError,
    Structure,
    UnparseableLogError,
    _pot_share,
    extract_amounts,
    extract_decision_reply,
    extract_offer_reply,
    parse_agent_log,
    parse_canonical,
    parse_single_model_log,
    parse_strategy_text,
    serialize_canonical,
)

CONFIG = GameConfig()
FAIR_FAIR = PersonalityPair.from_label("fair-fair")


class TestAmounts:
    @pytest.mark.parametrize(
        "text,cents",
        [
            ("$0.50", 50),
            ("$.50", 50),
            ("$1", 100),
            ("$1.25", 125),
            ("$1.5", 150),
            ("50 cents", 50),
            ("5 cents", 5),
            ("$0.05", 5),
            ("$1,250.00", 125000),  # read as $1 before
            ("45¢", 45),
        ],
    )
    def test_single_amount_forms(self, text, cents):
        amounts = extract_amounts(f"I will offer {text} now")
        assert [a.cents for a in amounts] == [cents]

    def test_amounts_keep_document_order(self):
        amounts = extract_amounts("raise from $0.20 to 35 cents, not $1")
        assert [a.cents for a in amounts] == [20, 35, 100]

    def test_plain_numbers_are_not_amounts(self):
        assert extract_amounts("round 3 of 5") == []

    def test_a_comma_before_fewer_than_three_digits_is_no_separator(self):
        assert [a.cents for a in extract_amounts("$1,25 or $2")] == [100, 200]


class TestReplyExtraction:
    def test_offer_reply_marker(self):
        assert extract_offer_reply("OFFER: $0.40") == 40

    def test_offer_reply_prose(self):
        assert extract_offer_reply("I offer $0.40 this round.") == 40

    def test_offer_reply_missing(self):
        assert extract_offer_reply("Let me think about it.") is None

    @pytest.mark.parametrize(
        "text,decision",
        [
            ("DECISION: accept", Decision.ACCEPT),
            ("DECISION: reject", Decision.REJECT),
            ("I accept the offer.", Decision.ACCEPT),
            ("I must decline.", Decision.REJECT),
            ("I will not accept this.", Decision.REJECT),
            ("I don't reject it.", Decision.ACCEPT),
        ],
    )
    def test_decision_replies(self, text, decision):
        assert extract_decision_reply(text) is decision

    def test_conditional_mentions_are_not_decisions(self):
        assert extract_decision_reply("If I reject, we both get nothing.") is None

    @pytest.mark.parametrize("text", ["DECISION: I refu\u017fe", "I REFU\u017fE this split."])
    def test_decision_words_read_under_case_folding(self, text):
        # The long s folds to "s", as it does in the markers.
        assert extract_decision_reply(text) is REJ

    @given(st.text(alphabet=st.characters(max_codepoint=127)))
    def test_ascii_decision_words_split_as_the_ascii_pattern_did(self, text):
        reference = [t.lower() for t in re.findall(r"[a-zA-Z']+", text)]
        assert [t.casefold() for t in transcripts._WORD_RE.findall(text)] == reference


def single_model_log(offers, decisions, pot=100, heading="ROUND {n}"):
    lines = [
        "STRATEGY (Proposer): I will offer $0.50 in the first round. "
        "If an offer is rejected, I will increase the offer by $0.05 in the next round. "
        "If an offer is accepted, I will keep the offer the same.",
        "STRATEGY (Receiver): I will accept offers of $0.40 or more in every round.",
    ]
    for n, (offer, decision) in enumerate(zip(offers, decisions), start=1):
        lines.append(heading.format(n=n))
        lines.append(f"OFFER: {offer} cents")
        lines.append(f"DECISION: {decision.value}")
    return "\n".join(lines)


class TestSingleModelParsing:
    def test_marker_log_parses_exact(self):
        text = single_model_log([50, 50, 50, 50, 50], [ACC] * 5)
        transcript, diag = parse_single_model_log(text, FAIR_FAIR)
        assert diag.confidence is Confidence.EXACT
        assert [o.offer for o in transcript.rounds] == [50] * 5
        assert all(o.decision is ACC for o in transcript.rounds)
        assert transcript.raw_logs == (("single_model", text),)

    def test_round_count_must_match_the_config(self):
        text = single_model_log([50, 50], [ACC, ACC])
        with pytest.raises(UnparseableLogError):
            parse_single_model_log(text, FAIR_FAIR)

    def test_rounds_are_never_invented(self):
        text = single_model_log([50, 50], [ACC, ACC])
        transcript, _ = parse_single_model_log(text, FAIR_FAIR, GameConfig(rounds=2))
        assert len(transcript.rounds) == 2

    def test_offer_beyond_the_pot_is_an_error(self):
        text = single_model_log([150, 50], [ACC, ACC])
        with pytest.raises(UnparseableLogError):
            parse_single_model_log(text, FAIR_FAIR, GameConfig(rounds=2))

    def test_round_numbers_out_of_order_use_the_chain(self):
        # A stray "round 3" mention inside narration must not displace the
        # true heading sequence 1..5.
        text = single_model_log([50, 50, 50, 50, 50], [ACC] * 5)
        text = text.replace(
            "DECISION: accept\nROUND 5",
            "DECISION: accept\nThe receiver recalls round 3 fondly.\nROUND 5",
        )
        transcript, _ = parse_single_model_log(text, FAIR_FAIR)
        assert [o.round for o in transcript.rounds] == [1, 2, 3, 4, 5]

    def test_stray_round_heading_after_the_chain_is_dropped(self):
        # A sentence-initial "Round 3 ..." in closing narration looks like a
        # heading; the chain must still be the ascending run 1..5.
        text = single_model_log([50, 50, 50, 50, 50], [ACC] * 5)
        text += "\nRound 3 was the turning point, the receiver thought."
        transcript, _ = parse_single_model_log(text, FAIR_FAIR)
        assert [o.round for o in transcript.rounds] == [1, 2, 3, 4, 5]
        assert [o.offer for o in transcript.rounds] == [50] * 5

    @pytest.mark.parametrize("heading", ["[Round {n}]", "**Round {n}**"])
    def test_heading_prefix_stays_out_of_the_strategy_text(self, heading):
        text = single_model_log([50] * 5, [ACC] * 5, heading=heading)
        transcript, _ = parse_single_model_log(text, FAIR_FAIR)
        assert transcript.strategies[1].raw_text == (
            "I will accept offers of $0.40 or more in every round."
        )

    @pytest.mark.parametrize(
        "first_close,second_close",
        [
            ("STRATEGY (Receiver): I accept.", "OFFER: $0.50"),
            ("OFFER: $0.50", "STRATEGY (Receiver): I accept."),
            ("STRATEGY (Receiver): I accept.", "DECISION: accept"),
            ("STRATEGY (Receiver): I accept.", "[Note] two plans"),
            ("STRATEGY (Receiver): I accept.", ""),
        ],
    )
    def test_the_first_strategy_block_of_a_role_wins(self, first_close, second_close):
        pre = [
            "STRATEGY (Proposer): offer $0.50.", first_close,
            "STRATEGY (Proposer): offer $0.20.", second_close,
        ]
        rounds = single_model_log([50] * 5, [ACC] * 5).split("\n")[2:]
        transcript, diag = parse_single_model_log("\n".join(pre + rounds), FAIR_FAIR)
        assert diag.confidence is Confidence.EXACT
        assert transcript.strategies[0].raw_text == "offer $0.50."

    def test_missing_decision_is_an_error(self):
        text = single_model_log([50, 50, 50, 50, 50], [ACC] * 5)
        text = text.replace("DECISION: accept\nROUND 2", "ROUND 2")
        with pytest.raises(UnparseableLogError):
            parse_single_model_log(text, FAIR_FAIR)


def agent_logs(offers, decisions, heading="[Round {n}]"):
    prop = ["[Strategy] I will offer $0.50 in the first round. "
            "If an offer is rejected, I will increase the offer by $0.05. "
            "If an offer is accepted, I will keep the offer the same."]
    recv = ["[Strategy] I will accept offers of $0.40 or more in every round."]
    for n, (offer, decision) in enumerate(zip(offers, decisions), start=1):
        prop.append(heading.format(n=n))
        prop.append(f"[Say] OFFER: {offer} cents")
        prop.append(f"[Hear] DECISION: {decision.value}")
        recv.append(heading.format(n=n))
        recv.append(f"[Hear] OFFER: {offer} cents")
        recv.append(f"[Say] DECISION: {decision.value}")
    return "\n".join(prop), "\n".join(recv)


class TestAgentLogParsing:
    def test_matching_logs_parse_exact(self):
        prop, recv = agent_logs([50, 45, 45, 45, 45], [REJ, ACC, ACC, ACC, ACC])
        transcript, diag = parse_agent_log((prop, recv), FAIR_FAIR)
        assert diag.confidence is Confidence.EXACT
        assert [o.offer for o in transcript.rounds] == [50, 45, 45, 45, 45]
        assert transcript.structure is Structure.MULTI_AGENT
        assert transcript.raw_logs == (("proposer", prop), ("receiver", recv))

    @pytest.mark.parametrize("heading", ["[Round {n}]", "**Round {n}**"])
    def test_heading_prefix_stays_out_of_the_strategy_text(self, heading):
        logs = agent_logs([50] * 5, [ACC] * 5, heading=heading)
        transcript, _ = parse_agent_log(logs, FAIR_FAIR)
        assert [spec.raw_text for spec in transcript.strategies] == [
            "I will offer $0.50 in the first round. "
            "If an offer is rejected, I will increase the offer by $0.05. "
            "If an offer is accepted, I will keep the offer the same.",
            "I will accept offers of $0.40 or more in every round.",
        ]

    def test_disagreeing_offers_raise(self):
        prop, recv = agent_logs([50] * 5, [ACC] * 5)
        recv = recv.replace("OFFER: 50 cents", "OFFER: 60 cents", 1)
        with pytest.raises(InconsistentLogsError):
            parse_agent_log((prop, recv), FAIR_FAIR)

    def test_disagreeing_decisions_raise(self):
        prop, recv = agent_logs([50] * 5, [ACC] * 5)
        recv = recv.replace("DECISION: accept", "DECISION: reject", 1)
        with pytest.raises(InconsistentLogsError):
            parse_agent_log((prop, recv), FAIR_FAIR)

    def test_one_sided_values_parse_with_a_warning(self):
        prop, recv = agent_logs([50] * 5, [ACC] * 5)
        prop = prop.replace("[Hear] DECISION: accept", "[Hear] The receiver nodded.", 1)
        transcript, diag = parse_agent_log((prop, recv), FAIR_FAIR)
        assert [o.decision for o in transcript.rounds] == [ACC] * 5
        assert any("decision appears in only one log" in w for w in diag.warnings)


class TestStrategyTextParsing:
    @pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label())
    def test_oracle_texts_round_trip(self, pair):
        from ultimatum.agents import oracle_strategy

        for role, personality in ((Role.PROPOSER, pair.proposer), (Role.RECEIVER, pair.receiver)):
            raw, parsed = oracle_strategy(role, personality, CONFIG)
            assert parse_strategy_text(raw, role, CONFIG) == parsed

    @given(
        st.permutations(
            [
                "I will offer $0.50 in the first round.",
                "If an offer is accepted, I will keep the offer the same in the next round.",
                "If an offer is rejected, I will increase the offer by $0.05 in the next round.",
            ]
        )
    )
    def test_proposer_clause_order_is_irrelevant(self, sentences):
        parsed = parse_strategy_text(" ".join(sentences), Role.PROPOSER, CONFIG)
        assert parsed == ProposerStrategy(
            initial_offer=50,
            on_accept=AdjustRule(AdjustKind.KEEP),
            on_reject=AdjustRule(AdjustKind.INCREASE_BY, 5),
        )

    @given(
        st.permutations(
            [
                "I will only accept offers of at least $0.40 in rounds 1 through 4.",
                "In the final round, I will accept any non-zero offer.",
            ]
        )
    )
    def test_receiver_clause_order_is_irrelevant(self, sentences):
        parsed = parse_strategy_text(" ".join(sentences), Role.RECEIVER, CONFIG)
        assert parsed == ReceiverStrategy(
            round_thresholds={1: 40, 2: 40, 3: 40, 4: 40},
            final_round_rule=FinalRoundRule.ACCEPT_ANY_NONZERO,
        )

    @pytest.mark.parametrize("rounds", sorted(prompts.ROUND_WORDS))
    def test_every_round_count_a_prompt_spells_out_reads_in_first_n_rounds(self, rounds):
        word = prompts.rounds_word(rounds)
        text = f"I will only accept offers of at least $0.40 in the first {word} rounds."
        parsed = parse_strategy_text(text, Role.RECEIVER, GameConfig(rounds=20))
        assert parsed == ReceiverStrategy(round_thresholds={r: 40 for r in range(1, rounds + 1)})

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("I will reject any offer.", ReceiverStrategy(threshold=CONFIG.pot + 1)),
            ("I will accept any offer above $0.30.", ReceiverStrategy(threshold=31)),
            ("I will accept $0.30 or more.", ReceiverStrategy(threshold=30)),
            ("I will reject anything below $0.35.", ReceiverStrategy(threshold=35)),
        ],
    )
    def test_receiver_threshold_wordings(self, text, expected):
        assert parse_strategy_text(text, Role.RECEIVER, CONFIG) == expected

    @pytest.mark.parametrize(
        "text,pot,opening",
        [
            ("I will open with $5.00 and concede slowly.", 1000, 500),
            ("I will start at $0.50.", 100, 50),
        ],
    )
    def test_opening_offer_without_an_offer_verb(self, text, pot, opening):
        parsed = parse_strategy_text(text, Role.PROPOSER, GameConfig(pot=pot))
        assert parsed.initial_offer == opening

    def test_a_comma_join_before_a_new_condition_starts_a_new_rule(self):
        text = "If rejected, I raise by $0.10, and if accepted, I keep the same offer."
        parsed = parse_strategy_text(text, Role.PROPOSER, CONFIG)
        assert parsed.on_reject == AdjustRule(AdjustKind.INCREASE_BY, 10)
        assert parsed.on_accept == AdjustRule(AdjustKind.KEEP)

    def test_a_comma_join_before_a_round_scope_starts_a_new_rule(self):
        # The receiver's rule in corpus case 08.
        text = "My rule: take anything at or above $0.40 in rounds 1-4, and in round 5 accept any positive offer."
        assert parse_strategy_text(text, Role.RECEIVER, CONFIG) == ReceiverStrategy(
            round_thresholds={1: 40, 2: 40, 3: 40, 4: 40},
            final_round_rule=FinalRoundRule.ACCEPT_ANY_NONZERO,
        )

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("I accept $0.40, and more if it comes.", ReceiverStrategy(threshold=40)),
            ("I accept $0.40, but only in round 2.", ReceiverStrategy(round_thresholds={2: 40})),
        ],
    )
    def test_other_comma_joins_stay_one_clause(self, text, expected):
        assert parse_strategy_text(text, Role.RECEIVER, CONFIG) == expected

    @pytest.mark.parametrize("pot", [100, 37, 200])
    @pytest.mark.parametrize(
        "text,role,field,share",
        [
            ("I accept any offer of at least 40% of the pot", Role.RECEIVER, "threshold", (40, 100)),
            ("I will offer 50% of the pot in the first round", Role.PROPOSER, "initial_offer", (1, 2)),
            ("I will offer half the pot", Role.PROPOSER, "initial_offer", (1, 2)),
            ("I will offer half of the pot.", Role.PROPOSER, "initial_offer", (1, 2)),
            ("I accept offers of at least 40 percent.", Role.RECEIVER, "threshold", (2, 5)),
        ],
    )
    def test_pot_shares_read_as_amounts(self, text, role, field, share, pot):
        # Rounded down to whole cents, as the bands are: 40% of 37 cents is 14.
        parsed = parse_strategy_text(text, role, GameConfig(pot=pot))
        assert getattr(parsed, field) == share[0] * pot // share[1]

    @pytest.mark.parametrize("percent, pot, cents", [
        ("50." + "0" * 19, 100, 50),
        ("50." + "0" * 5000, 37, 18),
        ("33." + "3" * 5000, 300, 99),
        ("33." + "3" * 5000 + "4", 300, 100),
    ], ids=["19-zeros", "5000-zeros", "5000-threes", "5000-threes-then-4"])
    def test_a_pot_share_reads_every_decimal_place(self, percent, pot, cents):
        # Only a whole part of more than 18 digits is past every pot.
        text = f"I accept any offer of at least {percent}% of the pot"
        assert parse_strategy_text(text, Role.RECEIVER, GameConfig(pot=pot)).threshold == cents

    @given(
        whole=st.integers(0, 10**18 - 1),
        places=st.text("0123456789", max_size=60),
        pot=st.integers(1, MAX_POT),
    )
    def test_a_pot_share_is_the_exact_share_rounded_down(self, whole, places, pot):
        percent = f"{whole}.{places}" if places else str(whole)
        assert _pot_share(percent, pot) == Fraction(percent) * pot // 100

    def test_pot_shares_keep_document_order(self):
        # The step is the first amount after "by", here a share ahead of a dollar amount.
        text = "If the offer is rejected, I will raise it by 5% of the pot, up to $0.70."
        parsed = parse_strategy_text(text, Role.PROPOSER, GameConfig(pot=200))
        assert parsed.on_reject == AdjustRule(AdjustKind.INCREASE_BY, 10)

    def test_bare_half_is_no_amount(self):
        # Corpus case 03: "more than half" names no amount.
        text = "If the proposer ever offers more than half, accept at once."
        assert parse_strategy_text(text, Role.RECEIVER, CONFIG) == ReceiverStrategy()

    def test_pot_shares_stay_out_of_replies(self):
        assert extract_amounts("I offer 40% of the pot") == []
        assert extract_offer_reply("I offer half the pot") is None

    def test_open_adjustment_has_no_amount(self):
        text = (
            "I will offer $0.50 first. If the offer is accepted, I may lower it a little. "
            "If the offer is rejected, I will increase the offer by $0.05."
        )
        parsed = parse_strategy_text(text, Role.PROPOSER, CONFIG)
        assert parsed.on_accept == AdjustRule(AdjustKind.DECREASE_BY)
        assert parsed.on_reject == AdjustRule(AdjustKind.INCREASE_BY, 5)

    def test_cutoff_of_unstated_size(self):
        text = (
            "I will offer $0.10 first. If the offer is rejected, I will increase the offer by $0.05. "
            "There is a cut-off point past which raising is not worth it."
        )
        parsed = parse_strategy_text(text, Role.PROPOSER, CONFIG)
        assert parsed.cutoff is not None
        assert parsed.cutoff.limit is None


class TestCorpus:
    @pytest.mark.parametrize("case", load_corpus_cases(), ids=lambda c: c["name"])
    def test_hand_written_cases_recover_the_game(self, case):
        self._check(case)

    @pytest.mark.parametrize("case", full_corpus()[len(load_corpus_cases()):], ids=lambda c: c["name"])
    def test_generated_cases_recover_the_game(self, case):
        self._check(case)

    def test_case08_plans_grade_clean(self):
        # The receiver joins its round 1-4 threshold and its final-round
        # rule with ", and in round 5"; both rules must be read.
        case = next(c for c in load_corpus_cases() if c["name"] == "case08")
        transcript, _ = parse_agent_log(
            (case["texts"]["proposer"], case["texts"]["receiver"]), FAIR_FAIR, CONFIG
        )
        verdict = evaluate_transcript(transcript)
        assert verdict.receiver_strategy_complete
        assert verdict.error_class is ErrorClass.NONE

    @staticmethod
    def _check(case):
        config = GameConfig(pot=case["pot"], rounds=case["rounds"])
        pair = PersonalityPair.from_label(case["pair"])
        if "single" in case["texts"]:
            transcript, diag = parse_single_model_log(case["texts"]["single"], pair, config)
        else:
            transcript, diag = parse_agent_log(
                (case["texts"]["proposer"], case["texts"]["receiver"]), pair, config
            )
        assert [o.offer for o in transcript.rounds] == case["offers"]
        assert [o.decision.value for o in transcript.rounds] == case["decisions"]
        assert len(transcript.rounds) == case["rounds"]
        assert diag.confidence.value == case["confidence"]
        for needle in case["warnings_contain"]:
            assert any(needle in w for w in diag.warnings), diag.warnings
        if "plans" in case:
            proposer, receiver = (spec.parsed for spec in transcript.strategies)
            plans = (proposer.initial_offer, proposer.on_reject.amount, receiver.threshold)
            assert plans == case["plans"]


@st.composite
def random_transcripts(draw):
    pot = draw(st.integers(min_value=1, max_value=300))
    rounds = draw(st.integers(min_value=1, max_value=7))
    offers = [draw(st.integers(min_value=0, max_value=pot)) for _ in range(rounds)]
    decisions = [draw(st.sampled_from(Decision)) for _ in range(rounds)]
    pair = draw(st.sampled_from(ALL_PAIRS))
    structure = draw(st.sampled_from(Structure))
    transcript = build_transcript(
        offers, decisions, pair=pair, pot=pot, structure=structure
    )
    label = "single_model" if structure is Structure.SINGLE_MODEL else "proposer"
    raw = draw(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)),
            max_size=80,
        )
    )
    return dataclasses.replace(transcript, raw_logs=((label, raw),))


def _edit_lines(text, edit):
    """text with its list of lines (line feeds kept) passed through edit."""
    return "".join(edit(text.splitlines(keepends=True)))


def _respell_round_1(old, new):
    """A tampering that respells part of round 1's line, and the message
    that refuses the line it leaves."""
    line = "round 1 offer=50 decision=accept payoffs=50/50"
    tampered = line.replace(old, new, 1)
    return lambda s: s.replace(line, tampered, 1), re.escape(f"bad round line: {tampered!r}")


HEADER = "ultimatum-transcript v1 pot=100 rounds=5 pair=fair-fair structure=single_model"


def _respell_header(old, new):
    """A tampering that respells part of the header, and the message that
    refuses the header it leaves."""
    tampered = HEADER.replace(old, new, 1)
    return lambda s: s.replace(HEADER, tampered, 1), re.escape(f"bad header line: {tampered!r}")


class TestCanonicalFormat:
    def test_round_trip_is_byte_stable(self):
        transcript = build_transcript([50, 55, 55, 55, 55], [REJ, ACC, ACC, ACC, ACC])
        text = serialize_canonical(transcript)
        parsed = parse_canonical(text)
        assert parsed == transcript
        assert serialize_canonical(parsed) == text

    def test_documented_example_round_trips(self):
        doc = (Path(__file__).parents[1] / "docs" / "transcript-format.md").read_text()
        example = doc.split("## Example", 1)[1].split("```\n")[1]
        assert serialize_canonical(parse_canonical(example)) == example

    def test_serialized_form_is_ascii_lines(self):
        transcript = build_transcript([50], [ACC])
        transcript = dataclasses.replace(transcript, raw_logs=(("single_model", "café\nline2"),))
        text = serialize_canonical(transcript)
        assert text.isascii()
        assert text.endswith("\n")
        assert "café" not in text  # escaped, not raw

    @given(random_transcripts())
    def test_random_round_trips(self, transcript):
        text = serialize_canonical(transcript)
        parsed = parse_canonical(text)
        assert parsed == transcript
        assert serialize_canonical(parsed) == text

    def test_unknown_version_is_rejected(self):
        text = serialize_canonical(build_transcript([50], [ACC]))
        with pytest.raises(SchemaVersionError):
            parse_canonical(text.replace("ultimatum-transcript v1", "ultimatum-transcript v2", 1))

    def test_unknown_tag_is_rejected(self):
        text = serialize_canonical(build_transcript([50], [ACC]))
        with pytest.raises(MalformedRecordError):
            parse_canonical(text.replace("ultimatum-transcript", "other-transcript", 1))

    # Lines of the text tampered with: 0 header, 1 proposer strategy,
    # 2 receiver strategy, 3-7 rounds 1-5.
    TAMPERINGS = {
        "payoff-lie": (
            lambda s: s.replace("payoffs=50/50", "payoffs=49/51", 1),
            r"round 1: payoffs \(49, 51\) inconsistent with accept",
        ),
        "round-gap": (lambda s: s.replace("round 1 ", "round 2 ", 1), "round 2 out of sequence"),
        "missing-newline": (lambda s: s.rstrip("\n"), "must end with a newline"),
        "trailing-junk": (lambda s: s + "junk\n", "unknown record kind 'junk'"),
        "role-swap": (
            lambda s: _edit_lines(s, lambda ls: [ls[0], ls[2], ls[1], *ls[3:]]),
            "expected proposer then receiver strategy lines",
        ),
        "empty-text": (lambda s: "\n", "empty transcript text"),
        "wrong-header-key": _respell_header(" pot=", " pots="),
        "bad-header-value": _respell_header("rounds=5", "rounds=five"),
        # Near misses of the writer's header, each of which int() or the
        # case-blind pair lookup reads.
        "pot-signed": _respell_header("pot=100", "pot=+100"),
        "pot-leading-zero": _respell_header("pot=100", "pot=0100"),
        "pot-underscore": _respell_header("pot=100", "pot=1_00"),
        "rounds-arabic-indic-digits": _respell_header("rounds=5", "rounds=٣"),
        "pair-upper-case": _respell_header("pair=fair-fair", "pair=FAIR-Fair"),
        "header-trailing-space": _respell_header("single_model", "single_model "),
        "structure-unknown": _respell_header("single_model", "single-model"),
        "pot-zero": (
            lambda s: s.replace(" pot=100 ", " pot=0 ", 1),
            r"bad header values: pot must be >= 1 cent, got 0",
        ),
        "rounds-zero": (
            lambda s: s.replace(" rounds=5 ", " rounds=0 ", 1),
            r"bad header values: rounds must be >= 1, got 0",
        ),
        "bad-json": (lambda s: s.replace('{"cutoff":null', '{"cutoff":nul', 1), "bad JSON payload"),
        "trailing-data": (
            lambda s: s.replace('next round."\n', 'next round." extra\n', 1),
            "trailing data after record: 'extra'",
        ),
        "unknown-strategy-role": (
            lambda s: s.replace("strategy receiver", "strategy referee", 1),
            "bad strategy role 'referee'",
        ),
        "fields-not-an-object": (
            lambda s: _edit_lines(s, lambda ls: [*ls[:2], 'strategy receiver [] "x"\n', *ls[3:]]),
            "strategy line must hold fields object and raw text",
        ),
        "strategy-after-round": (
            lambda s: _edit_lines(s, lambda ls: [*ls[:2], ls[3], ls[2], *ls[4:]]),
            "strategy lines must precede round lines",
        ),
        "round-token-count": (
            lambda s: s.replace(" payoffs=50/50", "", 1),
            "bad round line: 'round 1 offer=50 decision=accept'",
        ),
        "round-not-an-integer": (
            lambda s: s.replace("offer=50", "offer=fifty", 1),
            "bad round line: 'round 1 offer=fifty",
        ),
        "offer-outside-pot": (
            lambda s: s.replace("offer=50 decision=accept payoffs=50/50",
                                "offer=150 decision=reject payoffs=0/0", 1),
            "round 1: offer 150 outside pot",
        ),
        # Near misses of the writer's round line, each of which int() reads.
        "round-signed": _respell_round_1("round 1", "round +1"),
        "offer-underscore": _respell_round_1("offer=50", "offer=0_50"),
        "offer-arabic-indic-digits": _respell_round_1("offer=50", "offer=٥٠"),
        "round-trailing-tab": _respell_round_1("50/50", "50/50\t"),
        "offer-19-digits": _respell_round_1("offer=50", "offer=" + "9" * 19),
        "payoff-negative-zero": _respell_round_1(
            "offer=50 decision=accept payoffs=50/50", "offer=0 decision=reject payoffs=-0/0"
        ),
        "offer-leading-zero": _respell_round_1("offer=50", "offer=050"),
        "pot-above-max": _respell_header("pot=100", f"pot={MAX_POT + 1}"),
        # The largest pot is read; these rounds then do not split it.
        "pot-at-max": (
            lambda s: s.replace(" pot=100 ", f" pot={MAX_POT} ", 1),
            r"round 1: payoffs \(50, 50\) inconsistent with accept",
        ),
        "rawlog-not-two-strings": (
            lambda s: s + 'rawlog "single_model" 7\n',
            "rawlog line must hold two strings",
        ),
        "missing-strategy": (
            lambda s: _edit_lines(s, lambda ls: [ls[0], *ls[2:]]),
            "expected proposer then receiver strategy lines",
        ),
        "missing-round": (lambda s: _edit_lines(s, lambda ls: ls[:-1]), "expected 5 rounds, got 4"),
    }

    @pytest.mark.parametrize("mutate, match", TAMPERINGS.values(), ids=TAMPERINGS.keys())
    def test_tampered_records_are_rejected(self, mutate, match):
        transcript = build_transcript([50, 50, 50, 50, 50], [ACC] * 5)
        text = serialize_canonical(transcript)
        with pytest.raises(MalformedRecordError, match=match):
            parse_canonical(mutate(text))

    def test_round_line_after_a_rawlog_line_is_rejected(self):
        transcript = build_transcript([50] * 5, [ACC] * 5, structure=Structure.MULTI_AGENT)
        transcript = dataclasses.replace(
            transcript, raw_logs=(("proposer", "[Round 1]\n"), ("receiver", "[Round 1]\n"))
        )
        lines = serialize_canonical(transcript).splitlines(keepends=True)
        last_round = max(i for i, line in enumerate(lines) if line.startswith("round "))
        first_rawlog = lines.index(next(line for line in lines if line.startswith("rawlog ")))
        moved = lines[:last_round] + [lines[first_rawlog], lines[last_round]] + lines[first_rawlog + 1 :]
        with pytest.raises(MalformedRecordError, match="round lines must precede rawlog lines"):
            parse_canonical("".join(moved))

    def test_plain_random_round_trips(self):
        rng = random.Random(5)
        for _ in range(50):
            rounds = rng.randint(1, 6)
            pot = rng.randint(1, 200)
            offers = [rng.randint(0, pot) for _ in range(rounds)]
            decisions = [rng.choice([ACC, REJ]) for _ in range(rounds)]
            transcript = build_transcript(offers, decisions, pot=pot)
            text = serialize_canonical(transcript)
            assert parse_canonical(text) == transcript
