import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ultimatum.engine import (
    Decision,
    GameConfig,
    InvalidConfigError,
    MAX_POT,
    OfferOutOfRangeError,
    Phase,
    RoundOutcome,
    WrongPhaseError,
    format_money,
    new_game,
    replay,
    submit_decision,
    submit_offer,
)
from ultimatum.transcripts import extract_amounts


class TestGameConfig:
    def test_defaults(self):
        config = GameConfig()
        assert config.pot == 100
        assert config.rounds == 5

    @pytest.mark.parametrize(
        "kwargs",
        [{"pot": 0}, {"pot": -10}, {"rounds": 0}, {"rounds": -2}],
    )
    def test_rejects_non_positive_values(self, kwargs):
        with pytest.raises(InvalidConfigError):
            GameConfig(**kwargs)


class TestPhases:
    def test_new_game_awaits_an_offer(self):
        state = new_game()
        assert state.phase is Phase.AWAITING_OFFER
        assert state.round_index == 1
        assert state.history == ()
        assert not state.finished

    def test_offer_moves_to_decision_phase(self):
        state = submit_offer(new_game(), 40)
        assert state.phase is Phase.AWAITING_DECISION
        assert state.pending_offer == 40

    def test_decision_before_offer_raises(self):
        with pytest.raises(WrongPhaseError):
            submit_decision(new_game(), Decision.ACCEPT)

    def test_second_offer_without_decision_raises(self):
        state = submit_offer(new_game(), 40)
        with pytest.raises(WrongPhaseError):
            submit_offer(state, 45)

    def test_finished_game_accepts_no_more_moves(self):
        state = new_game(GameConfig(rounds=1))
        state = submit_offer(state, 50)
        state, _ = submit_decision(state, Decision.ACCEPT)
        assert state.finished
        with pytest.raises(WrongPhaseError):
            submit_offer(state, 50)
        with pytest.raises(WrongPhaseError):
            submit_decision(state, Decision.REJECT)


class TestOffers:
    @pytest.mark.parametrize("offer", [-1, 101, 1000])
    def test_out_of_range_offers_raise(self, offer):
        with pytest.raises(OfferOutOfRangeError):
            submit_offer(new_game(), offer)

    def test_bounds_are_inclusive(self):
        assert submit_offer(new_game(), 0).pending_offer == 0
        assert submit_offer(new_game(), 100).pending_offer == 100

    def test_bool_is_not_money(self):
        with pytest.raises(OfferOutOfRangeError):
            submit_offer(new_game(), True)


class TestOutcomes:
    def test_accept_splits_the_pot(self):
        state = submit_offer(new_game(), 30)
        _, outcome = submit_decision(state, Decision.ACCEPT)
        assert outcome.proposer_payoff == 70
        assert outcome.receiver_payoff == 30

    def test_reject_pays_nothing(self):
        state = submit_offer(new_game(), 30)
        _, outcome = submit_decision(state, Decision.REJECT)
        assert outcome.proposer_payoff == 0
        assert outcome.receiver_payoff == 0

    def test_rejected_round_still_advances_the_counter(self):
        state = submit_offer(new_game(), 30)
        state, _ = submit_decision(state, Decision.REJECT)
        assert state.round_index == 2
        assert state.phase is Phase.AWAITING_OFFER

    def test_history_numbers_rounds_from_one(self):
        state = new_game(GameConfig(rounds=3))
        for offer in (20, 25, 30):
            state = submit_offer(state, offer)
            state, _ = submit_decision(state, Decision.REJECT)
        assert [o.round for o in state.history] == [1, 2, 3]
        assert [o.offer for o in state.history] == [20, 25, 30]
        assert state.finished
        assert state.round_index == 3


class TestValues:
    def test_fields_cannot_be_assigned(self):
        state = submit_offer(new_game(), 30)
        _, outcome = submit_decision(state, Decision.ACCEPT)
        for value, field in ((state, "pending_offer"), (state, "phase"), (outcome, "offer")):
            with pytest.raises(AttributeError):
                setattr(value, field, 0)

    def test_outcomes_keep_their_repr_equality_and_hash(self):
        _, outcome = submit_decision(submit_offer(new_game(), 30), Decision.ACCEPT)
        assert repr(outcome) == (
            "RoundOutcome(round=1, offer=30, decision=<Decision.ACCEPT: 'accept'>, "
            "proposer_payoff=70, receiver_payoff=30)"
        )
        same = RoundOutcome(1, 30, Decision.ACCEPT, 70, 30)
        assert outcome == same and hash(outcome) == hash(same)
        assert outcome != RoundOutcome(1, 30, Decision.REJECT, 0, 0)
        assert len({outcome, same}) == 1


class TestReplay:
    def test_replay_reproduces_a_played_game(self):
        config = GameConfig(rounds=2)
        state = new_game(config)
        state = submit_offer(state, 50)
        state, _ = submit_decision(state, Decision.REJECT)
        state = submit_offer(state, 55)
        state, _ = submit_decision(state, Decision.ACCEPT)
        replayed, outcomes = replay(config, [(50, Decision.REJECT), (55, Decision.ACCEPT)])
        assert replayed == state
        assert outcomes == state.history

    def test_replay_with_too_many_actions_raises(self):
        with pytest.raises(WrongPhaseError):
            replay(GameConfig(rounds=1), [(50, Decision.ACCEPT), (50, Decision.ACCEPT)])


@pytest.mark.parametrize(
    "cents,text",
    [(0, "$0"), (5, "$0.05"), (50, "$0.50"), (100, "$1"), (125, "$1.25"), (200, "$2"), (230, "$2.30")],
)
def test_format_money(cents, text):
    assert format_money(cents) == text


@given(st.integers(min_value=0, max_value=MAX_POT))
@example(10**16 + 1)  # through a float it read back as 10**16 + 2
@example(MAX_POT)  # through a float it read $10000000000000000.00, above MAX_POT
@example(MAX_POT // 2)
def test_format_money_reads_back_as_the_same_cents(cents):
    assert extract_amounts(format_money(cents))[0].cents == cents


@given(st.data())
def test_random_games_conserve_the_pot(data):
    pot = data.draw(st.integers(min_value=1, max_value=500))
    rounds = data.draw(st.integers(min_value=1, max_value=8))
    config = GameConfig(pot=pot, rounds=rounds)
    state = new_game(config)
    while not state.finished:
        state = submit_offer(state, data.draw(st.integers(min_value=0, max_value=pot)))
        state, outcome = submit_decision(state, data.draw(st.sampled_from(Decision)))
        if outcome.decision is Decision.ACCEPT:
            assert outcome.proposer_payoff + outcome.receiver_payoff == pot
        else:
            assert outcome.proposer_payoff == 0
            assert outcome.receiver_payoff == 0
    assert [o.round for o in state.history] == list(range(1, rounds + 1))
    assert 1 <= state.round_index <= rounds

    replayed, outcomes = replay(config, [(o.offer, o.decision) for o in state.history])
    assert replayed == state
    assert outcomes == state.history
