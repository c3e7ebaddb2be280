"""Arm bookkeeping, initialization sweep, UCB selection, and the run loop."""

import gc
import json
import math
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from bandit_helpers import (
    arms,
    cell,
    dict_assignment_hash,
    labelling,
    oracle_batch,
    oracle_lines,
    oracle_round_means,
    records,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from labelbandit import bandit
from labelbandit.bandit import (
    FIXED,
    PullLog,
    assignment_hash,
    best_assignment,
    initialization_assignments,
    new_bandit,
    run_inference,
    select_super_arm,
    select_super_arm_batch,
    ucb_scores,
    update,
)
from labelbandit.errors import InferenceError, ParameterError, RewardRangeError


def random_label_sets(rng, max_instances=50, max_labels=6):
    n = int(rng.integers(1, max_instances + 1))
    sets = {}
    for x in range(n):
        count = int(rng.integers(1, max_labels + 1))
        labels = rng.choice(20, size=count, replace=False)
        sets[x] = [int(l) for l in labels]
    return sets


def credit(state, labels, rewards, advance_round):
    """``update`` with plain lists, turned into the arrays it takes."""
    update(state, np.array(labels), np.array(rewards, dtype=np.float64), advance_round)


def initialize_uniformly(state, rng, reward=0.5):
    for labels in initialization_assignments(state, rng):
        update(state, labels, np.full(len(labels), reward), advance_round=False)


class TestNewBandit:
    def test_arm_counts(self):
        state = new_bandit({0: [0, 1]})
        assert int(state.valid.sum()) == 2
        assert all(
            state.pulls[cell(state, *a)] == 0 and state.reward_sums[cell(state, *a)] == 0.0
            for a in [(0, 0), (0, 1)]
        )

    def test_grid_of_arms(self):
        state = new_bandit({x: [0, 1, 2] for x in range(3)})
        assert int(state.valid.sum()) == 9
        for x in range(3):
            for l in (0, 1, 2):
                cell(state, x, l)  # asserts one valid cell holds the arm

    def test_empty_label_set_rejected(self):
        with pytest.raises(ParameterError):
            new_bandit({0: []})

    @pytest.mark.parametrize(
        "label_sets, instance",
        [({3.2: [0, 1], 3.7: [1.9, 0]}, "3.2"), ({3: [0, 1.0]}, "3"), ({"4": [0]}, "'4'")],
    )
    def test_non_integer_ids_and_labels_rejected(self, label_sets, instance):
        with pytest.raises(ParameterError, match=f"instance {instance} needs an integer id"):
            new_bandit(label_sets)

    def test_numpy_integers_accepted(self):
        state = new_bandit({np.int64(3): np.array([1, 0]), np.int32(1): [np.int8(2)]})
        assert state.ids.tolist() == [1, 3]
        assert state.labels.tolist() == [[2, 0], [0, 1]]

    def test_singletons_always_receive_their_label(self):
        state = new_bandit({0: [4], 1: [0, 1]})
        rng = np.random.default_rng(0)
        initialize_uniformly(state, rng)
        for _ in range(5):
            assert labelling(state, select_super_arm(state))[0] == 4


class TestInitializationSweep:
    def test_single_instance_two_labels(self):
        state = new_bandit({0: [0, 1]})
        sweep = initialization_assignments(state, np.random.default_rng(0))
        assert len(sweep) == 2
        assert {labelling(state, labels)[0] for labels in sweep} == {0, 1}

    def test_sweep_length_is_max_label_set_size(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            sets = random_label_sets(rng)
            state = new_bandit(sets)
            sweep = initialization_assignments(state, rng)
            assert len(sweep) == max(len(l) for l in sets.values())

    def test_replaying_sweep_covers_every_arm(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            state = new_bandit(random_label_sets(rng))
            initialize_uniformly(state, rng)
            assert min(state.pulls[cell(state, *a)] for a in arms(state)) >= 1

    def test_partial_initialization_only_covers_remaining(self):
        state = new_bandit({0: [0, 1, 2]})
        credit(state, [1], [0.5], advance_round=False)
        sweep = initialization_assignments(state, np.random.default_rng(0))
        assert len(sweep) == 2
        assert {labelling(state, labels)[0] for labels in sweep} == {0, 2}

    def test_sweep_is_row_aligned_and_keeps_the_callers_draw_order(self):
        # the random draws follow the caller's instance order, the arrays the ids
        label_sets = {9: [3, 1], 2: [0, 5, 4], 5: [7]}
        state = new_bandit(label_sets)
        sweep = initialization_assignments(state, np.random.default_rng(4))
        rng = np.random.default_rng(4)
        untried = {x: [l[i] for i in rng.permutation(len(l))] for x, l in label_sets.items()}
        expected = [
            {
                x: pending[j] if j < len(pending) else labels[int(rng.integers(len(labels)))]
                for (x, pending), labels in zip(untried.items(), label_sets.values())
            }
            for j in range(3)
        ]
        assert [labelling(state, labels) for labels in sweep] == expected
        assert all(labels.dtype == np.int64 for labels in sweep)


class TestUcbScores:
    def test_log_one_gives_zero_bonus(self):
        state = new_bandit({0: [0]})
        credit(state, [0], [0.5], advance_round=True)
        assert ucb_scores(state)[(0, 0)] == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_value(self):
        state = new_bandit({0: [0, 1]})
        rng = np.random.default_rng(0)
        initialize_uniformly(state, rng)
        credit(state, [1], [0.5], advance_round=True)
        state.pulls[cell(state, 0, 1)] = 2
        state.reward_sums[cell(state, 0, 1)] = 1.0
        state.t = math.e**2  # forces ln t = 2 exactly
        expected = 0.5 + math.sqrt(3.0 * 2.0 / (2.0 * 2.0))
        assert ucb_scores(state)[(0, 1)] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.7247448713915892, rel=1e-12)

    def test_requires_initialization(self):
        state = new_bandit({0: [0, 1]})
        credit(state, [0], [0.5], advance_round=True)
        with pytest.raises(ParameterError, match="initialization"):
            ucb_scores(state)

    def test_requires_positive_round_count(self):
        state = new_bandit({0: [0, 1]})
        initialize_uniformly(state, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="round"):
            ucb_scores(state)

    def test_bonus_monotonicity(self):
        def bonus(t, pulls):
            return math.sqrt(3.0 * math.log(t) / (2.0 * pulls))

        assert bonus(10, 2) > bonus(10, 3) > bonus(10, 4)
        assert bonus(2, 3) < bonus(5, 3) < bonus(50, 3)


class TestSelection:
    def test_dominant_arm_selected(self):
        state = new_bandit({0: [0, 1]})
        for _ in range(50):
            credit(state, [0], [0.9], advance_round=True)
            credit(state, [1], [0.1], advance_round=True)
        assert labelling(state, select_super_arm(state))[0] == 0

    def test_exact_tie_prefers_lower_label(self):
        state = new_bandit({0: [3, 5]})
        initialize_uniformly(state, np.random.default_rng(0), reward=0.5)
        assert labelling(state, select_super_arm(state))[0] == 3

    def test_matches_per_instance_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sets = random_label_sets(rng, max_instances=10)
            state = new_bandit(sets)
            for x, labels in sets.items():
                for l in labels:
                    arm = cell(state, x, l)
                    state.pulls[arm] = int(rng.integers(1, 30))
                    state.reward_sums[arm] = float(rng.uniform(0, state.pulls[arm]))
            state.t = int(rng.integers(1, 1000))
            chosen = labelling(state, select_super_arm(state))
            # independent recomputation at the upcoming round index t + 1
            for x, labels in sets.items():
                scores = {
                    l: state.reward_sums[cell(state, x, l)] / state.pulls[cell(state, x, l)]
                    + math.sqrt(3 * math.log(state.t + 1) / (2 * state.pulls[cell(state, x, l)]))
                    for l in labels
                }
                best = min(labels, key=lambda l: (-scores[l], l))
                assert chosen[x] == best

    def test_batch_of_one_equals_single_selection(self):
        rng = np.random.default_rng(3)
        state = new_bandit(random_label_sets(rng, max_instances=8))
        initialize_uniformly(state, rng)
        update(state, select_super_arm(state), np.full(len(state.ids), 0.3), True)
        (member,) = select_super_arm_batch(state, 1)
        assert np.array_equal(member, select_super_arm(state))

    def test_batch_flips_to_runner_up_after_virtual_pull(self):
        # two arms nearly tied: one virtual pull on the leader shrinks its
        # bonus below the runner-up's score
        state = new_bandit({0: [0, 1]})
        leader, runner = cell(state, 0, 0), cell(state, 0, 1)
        state.pulls[leader], state.reward_sums[leader] = 10, 10 * 0.50
        state.pulls[runner], state.reward_sums[runner] = 12, 12 * 0.55
        state.t = 100
        batch = select_super_arm_batch(state, 2)
        assert labelling(state, batch[0])[0] == 0
        assert labelling(state, batch[1])[0] == 1

    def test_batch_members_are_valid_super_arms(self):
        rng = np.random.default_rng(5)
        sets = random_label_sets(rng, max_instances=12)
        state = new_bandit(sets)
        initialize_uniformly(state, rng)
        for labels in select_super_arm_batch(state, 5):
            assignment = labelling(state, labels)
            assert assignment.keys() == sets.keys()
            for x, l in assignment.items():
                assert l in sets[x]

    def test_virtual_pulls_do_not_mutate_state(self):
        rng = np.random.default_rng(6)
        sets = random_label_sets(rng, max_instances=6)
        state = new_bandit(sets)
        initialize_uniformly(state, rng)
        def stats():
            return {
                a: (state.pulls[cell(state, *a)], state.reward_sums[cell(state, *a)])
                for a in arms(state)
            }

        before = stats()
        select_super_arm_batch(state, 7)
        assert stats() == before


class TestUpdate:
    def test_reward_out_of_range_rejected(self):
        state = new_bandit({0: [0, 1]})
        with pytest.raises(RewardRangeError):
            credit(state, [0], [1.2], advance_round=False)

    def test_nan_reward_rejected(self):
        state = new_bandit({0: [0, 1], 1: [2]})
        with pytest.raises(RewardRangeError, match="instance 1"):
            credit(state, [0, 2], [0.5, float("nan")], advance_round=False)

    def test_missing_reward_rejected(self):
        state = new_bandit({0: [0, 1], 1: [0]})
        with pytest.raises(ParameterError, match="one entry per instance"):
            credit(state, [0, 0], [0.5], advance_round=False)

    def test_wrong_length_labelling_rejected(self):
        state = new_bandit({0: [0, 1], 1: [0]})
        with pytest.raises(ParameterError, match="one entry per instance"):
            credit(state, [0], [0.5, 0.5], advance_round=False)

    def test_inadmissible_label_rejected(self):
        state = new_bandit({0: [0, 1]})
        with pytest.raises(ParameterError, match="admissible"):
            credit(state, [7], [0.5], advance_round=False)

    def test_padding_cell_is_not_admissible(self):
        # row 0 is padded to row 1's width; its padding cell stores label 0
        state = new_bandit({0: [5], 1: [0, 1]})
        with pytest.raises(ParameterError, match="label 0 not admissible for instance 0"):
            credit(state, [0, 1], [0.5, 0.5], advance_round=False)
        assert state.pulls[state.valid].sum() == 0 and state.total_pulls == 0

    def test_round_advance_semantics(self):
        state = new_bandit({0: [0]})
        credit(state, [0], [0.1], advance_round=False)
        assert state.t == 0
        credit(state, [0], [0.1], advance_round=True)
        assert state.t == 1

    def test_means_match_replayed_reward_log(self):
        rng = np.random.default_rng(13)
        state = new_bandit({0: [0, 1], 1: [2, 3, 4]})
        log = []
        for labels in initialization_assignments(state, rng):
            update(state, labels, np.full(len(labels), 0.5), advance_round=False)
            for x, l in labelling(state, labels).items():
                log.append(((x, l), 0.5))
        for _ in range(200):
            labels = [int(rng.choice(state.label_sets[x])) for x in state.ids.tolist()]
            rewards = [float(rng.random()) for _ in labels]
            credit(state, labels, rewards, advance_round=True)
            for x, l, r in zip(state.ids.tolist(), labels, rewards):
                log.append(((x, l), r))
        for key in arms(state):
            rewards = [r for k, r in log if k == key]
            pulls, reward_sum = state.pulls[cell(state, *key)], state.reward_sums[cell(state, *key)]
            assert pulls == len(rewards)
            assert reward_sum == sum(rewards)  # same accumulation order: exact
            assert reward_sum / pulls == sum(rewards) / len(rewards)


class TestBestAssignment:
    def test_two_arm_arithmetic(self):
        state = new_bandit({0: [0, 1]})
        state.pulls[cell(state, 0, 0)], state.reward_sums[cell(state, 0, 0)] = 5, 1.0
        state.pulls[cell(state, 0, 1)], state.reward_sums[cell(state, 0, 1)] = 5, 4.0
        result = best_assignment(state)
        assert result.assignment[0] == 1
        assert result.confidence[0] == pytest.approx(0.6)

    def test_mean_tie_prefers_lower_label_with_zero_confidence(self):
        state = new_bandit({0: [2, 7]})
        for l in (2, 7):
            state.pulls[cell(state, 0, l)], state.reward_sums[cell(state, 0, l)] = 4, 2.0
        result = best_assignment(state)
        assert result.assignment[0] == 2
        assert result.confidence[0] == 0.0

    def test_singleton_is_marked_fixed(self):
        state = new_bandit({0: [3]})
        credit(state, [3], [0.2], advance_round=False)
        result = best_assignment(state)
        assert result.assignment[0] == 3
        assert result.confidence[0] == FIXED and math.isinf(result.confidence[0])


class TestRunInference:
    def test_single_instance_deterministic_environment(self):
        env = lambda assignment, rng: {0: 1.0 if assignment[0] == 1 else 0.0}
        result = run_inference({0: [0, 1]}, env, rounds=1, rng=np.random.default_rng(0))
        assert result.assignment[0] == 1
        assert result.confidence[0] == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        def env(assignment, rng):
            return {x: float(rng.random()) for x in assignment}

        results = [
            run_inference(
                {0: [0, 1], 1: [0, 1, 2]}, env, rounds=50, batch_size=3,
                rng=np.random.default_rng(99),
            )
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_pull_log_replay_matches_result(self):
        def env(assignment, rng):
            return {x: float(rng.random()) for x in assignment}

        log = PullLog()
        result = run_inference(
            {0: [0, 1], 1: [0, 1]}, env, rounds=40, batch_size=2,
            rng=np.random.default_rng(5), pull_log=log,
        )
        counts, sums = {}, {}
        for record in records(log):
            key = (record["instance_id"], record["label"])
            counts[key] = counts.get(key, 0) + 1
            sums[key] = sums.get(key, 0.0) + record["reward"]
        assert result.pull_history_length == 2 + 40
        for key, mean in result.empirical_means.items():
            assert mean == sums[key] / counts[key]

    def test_more_rounds_never_hurt_on_noisy_toy(self):
        # six instances, Bernoulli rewards whose means have a 0.2 gap per arm:
        # the rate of recovering the optimum over 20 seeds is non-decreasing in N
        means = {x: (0.5, 0.7) if x % 2 == 0 else (0.65, 0.45) for x in range(6)}
        optimum = {x: int(np.argmax(means[x])) for x in means}

        def env_factory():
            def env(assignment, rng):
                return {
                    x: float(rng.random() < means[x][assignment[x]]) for x in assignment
                }
            return env

        def hit_rate(rounds):
            hits = 0
            for seed in range(20):
                result = run_inference(
                    {x: [0, 1] for x in means}, env_factory(), rounds=rounds,
                    rng=np.random.default_rng(seed),
                )
                hits += result.assignment == optimum
            return hits

        rates = [hit_rate(n) for n in (40, 80, 160)]
        assert rates[0] <= rates[1] <= rates[2]

    def test_environment_error_carries_round_context(self):
        calls = []

        def env(assignment, rng):
            calls.append(1)
            if len(calls) > 5:
                raise ValueError("boom")
            return {0: 0.5}

        with pytest.raises(InferenceError, match="round"):
            run_inference({0: [0, 1]}, env, rounds=50, rng=np.random.default_rng(0))

    def test_assignment_hash_is_stable(self):
        ids = np.array([0, 3])
        assert assignment_hash(ids, np.array([1, 2])) == dict_assignment_hash({3: 2, 0: 1})
        assert assignment_hash(ids[:1], np.array([1])) != assignment_hash(ids[:1], np.array([2]))

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(-(2**40), 2**40), st.integers(-50, 50), min_size=1))
    @example({-7: 3})
    @example({-3: -1, 0: 0, 12: 4})
    def test_assignment_hash_equals_dict_form(self, assignment):
        ids = np.array(sorted(assignment), dtype=np.int64)
        labels = np.array([assignment[x] for x in ids.tolist()], dtype=np.int64)
        assert assignment_hash(ids, labels) == dict_assignment_hash(assignment)

    def test_assignment_hash_equals_dict_form_at_2000_instances(self):
        rng = np.random.default_rng(0)
        ids = np.sort(rng.choice(np.arange(-5000, 5000), size=2000, replace=False))
        labels = rng.integers(0, 8, size=2000)
        assignment = dict(zip(ids.tolist(), labels.tolist()))
        assert assignment_hash(ids, labels) == dict_assignment_hash(assignment)

    def test_custom_environment_gets_dicts_in_caller_order(self):
        seen = []

        def env(assignment, rng):
            seen.append(list(assignment))
            return {x: 0.5 for x in assignment}

        run_inference({9: [0, 1], 2: [0], 5: [1, 2]}, env, rounds=3, rng=np.random.default_rng(0))
        assert seen and all(order == [9, 2, 5] for order in seen)

    def test_missing_custom_reward_rejected(self):
        with pytest.raises(ParameterError, match=r"rewards missing for instances \[2\]"):
            run_inference(
                {0: [0, 1], 2: [0]}, lambda a, rng: {0: 0.5}, rounds=1,
                rng=np.random.default_rng(0),
            )

    def test_array_environment_scores_each_batch_in_one_call(self):
        class BatchEnvironment:
            train_ids = [2, 5, 9]

            def __init__(self):
                self.calls = []

            def __call__(self, labels, rngs):
                self.calls.append((labels, rngs))
                # member j's rewards carry j, so the crediting order shows
                return [np.where(member == 1, 0.75, 0.25) - 0.01 * j
                        for j, member in enumerate(labels)]

        env, log = BatchEnvironment(), PullLog()
        label_sets = {9: [0, 1, 2], 2: [0, 1], 5: [1]}
        result = run_inference(
            label_sets, env, rounds=7, batch_size=3, rng=np.random.default_rng(0), pull_log=log
        )
        # the sweep (three labels at most) in one call, then batches of 3, 3 and 1
        assert [len(labels) for labels, _ in env.calls] == [3, 3, 3, 1]
        for labels, rngs in env.calls:
            assert len(rngs) == len(labels)
            assert all(isinstance(member_rng, np.random.Generator) for member_rng in rngs)
            assert all(member.dtype == np.int64 and member.shape == (3,) for member in labels)
            for member in labels:
                assert all(member[row] in label_sets[x] for row, x in enumerate(env.train_ids))
        assert len({id(member_rng) for _, rngs in env.calls for member_rng in rngs}) == 10
        # every member is credited in batch order, the sweep in round 0
        members = [(labels, j) for labels, _ in env.calls for j in range(len(labels))]
        assert [pull[0] for pull in log.pulls] == [0, 0, 0, 1, 2, 3, 4, 5, 6, 7]
        for (labels, j), (_, _, logged_labels, logged_rewards) in zip(members, log.pulls):
            assert np.array_equal(logged_labels, labels[j])
            assert np.array_equal(logged_rewards, np.where(labels[j] == 1, 0.75, 0.25) - 0.01 * j)
        assert result.assignment == {9: 1, 2: 1, 5: 1}

    @pytest.mark.parametrize(
        "returned, message",
        [
            (lambda labels: [np.full(2, 0.5) for _ in labels], "one entry per instance"),
            (lambda labels: [np.full(3, 0.5) for _ in labels[1:]], "reward arrays for a batch"),
        ],
        ids=["short-member", "missing-member"],
    )
    def test_array_environment_wrong_length_rewards_rejected(self, returned, message):
        class BatchEnvironment:
            train_ids = [2, 5, 9]

            def __call__(self, labels, rngs):
                return returned(labels)

        with pytest.raises(ParameterError, match=message):
            run_inference(
                {2: [0, 1], 5: [0, 1], 9: [0, 1]}, BatchEnvironment(), rounds=2, batch_size=2,
                rng=np.random.default_rng(0),
            )

    def test_array_environment_with_other_ids_rejected(self):
        class ArrayEnvironment:
            train_ids = [2, 5]

            def __call__(self, labels, rng):
                return np.full(len(labels), 0.5)

        with pytest.raises(ParameterError, match="train_ids"):
            run_inference({2: [0, 1], 6: [0]}, ArrayEnvironment(), rounds=1)


# unsorted label lists, singletons, uneven sizes, ids in any order
label_set_maps = st.dictionaries(
    st.integers(-5, 60),
    st.lists(st.integers(-3, 12), min_size=1, max_size=6, unique=True),
    min_size=1,
    max_size=8,
)
# exact repeats make ties; arbitrary floats make everything else
reward_values = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def played_states(draw):
    """A bandit after its initialization sweep and a random history of pulls."""
    label_sets = draw(label_set_maps)
    state = new_bandit(label_sets)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for labels in initialization_assignments(state, rng):
        credit(state, labels, [draw(reward_values) for _ in labels], False)
    for _ in range(draw(st.integers(0, 12))):
        labels = [draw(st.sampled_from(label_sets[x])) for x in state.ids.tolist()]
        credit(state, labels, [draw(reward_values) for _ in labels], True)
    return state


class TestArrayBanditProperties:
    @settings(max_examples=200, deadline=None)
    @given(played_states(), st.integers(1, 5))
    def test_batch_selection_equals_dict_walk_oracle(self, state, batch_size):
        batch = select_super_arm_batch(state, batch_size)
        expected = oracle_batch(state, batch_size)
        # same labels, row-aligned with the ascending ids
        assert [labels.tolist() for labels in batch] == [
            [a[x] for x in state.ids.tolist()] for a in expected
        ]

    @settings(max_examples=100, deadline=None)
    @given(played_states(), st.integers(1, 6))
    def test_virtual_pulls_never_mutate_state(self, state, batch_size):
        before = (state.pulls.copy(), state.reward_sums.copy(), state.t, state.total_pulls)
        select_super_arm_batch(state, batch_size)
        assert np.array_equal(state.pulls, before[0])
        assert np.array_equal(state.reward_sums, before[1])
        assert (state.t, state.total_pulls) == before[2:]

    @settings(max_examples=60, deadline=None)
    @given(label_set_maps, st.integers(1, 12), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_pull_log_replay_rebuilds_every_arm(self, label_sets, rounds, batch_size, seed):
        scored = []

        def env(assignment, rng):
            rewards = {x: float(rng.choice([0.0, 0.5, 1.0, rng.random()])) for x in assignment}
            scored.append((dict(assignment), rewards))
            return rewards

        final = []

        def capture(state):
            final.append(state)
            return best_assignment(state)

        log = PullLog()
        with mock.patch.object(bandit, "best_assignment", capture):
            run_inference(
                label_sets, env, rounds, batch_size, np.random.default_rng(seed), pull_log=log
            )
        (state,) = final
        logged = records(log)
        # the log holds exactly the pulls the environment scored, in order
        assert [(r["instance_id"], r["label"], r["reward"]) for r in logged] == [
            (x, assignment[x], rewards[x])
            for assignment, rewards in scored
            for x in sorted(assignment)
        ]
        pulls, sums = {}, {}
        for record in logged:
            key = (record["instance_id"], record["label"])
            pulls[key] = pulls.get(key, 0) + 1
            sums[key] = sums.get(key, 0.0) + record["reward"]
        assert sorted(pulls) == sorted(arms(state))
        for key in arms(state):
            assert pulls[key] == state.pulls[cell(state, *key)]
            assert sums[key] == state.reward_sums[cell(state, *key)]  # same order: exact


# repeated values, -0.0 beside 0.0, an integer 1 and subnormals among the rewards
reward_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1, 1.0, 0.5, 1.0 / 3.0, 5e-324, 2.5e-308]),
    st.floats(0.0, 1.0),
)


@st.composite
def logged_pulls(draw):
    """Ascending instance ids and (round, hash, labels, rewards) pulls on them."""
    ids = sorted(draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=8)))
    n = len(ids)
    pulls = []
    for round_index in sorted(draw(st.lists(st.integers(0, 30), min_size=1, max_size=8))):
        digest = draw(st.text("0123456789abcdef", min_size=12, max_size=12))
        labels = draw(st.lists(st.integers(-3, 20), min_size=n, max_size=n))
        rewards = draw(st.lists(reward_values, min_size=n, max_size=n))
        pulls.append((round_index, digest, np.array(labels, dtype=np.int64), np.array(rewards)))
    return np.array(ids, dtype=np.int64), pulls


def hexes(values):
    return [value.hex() for value in values]


class TestPullLog:
    @settings(max_examples=150, deadline=None)
    @given(logged_pulls())
    @example((
        np.array([3, 8]),
        [
            (0, "0123456789ab", np.array([1, 0]), np.array([1, 1])),
            (0, "0123456789ab", np.array([2, 2]), np.array([-0.0, 0.0])),
            (4, "fedcba987654", np.array([0, -1]), np.array([5e-324, 5e-324])),
        ],
    ))
    def test_lines_and_round_means_match_the_oracles_in_memory_and_spilled(self, drawn):
        ids, pulls = drawn
        expected = list(oracle_lines(ids, pulls, 4, 1))
        with tempfile.TemporaryFile() as spill:
            # two spilled logs share one file, their pulls interleaved
            logs = [PullLog(ids=ids), PullLog(ids=ids, spill=spill), PullLog(ids=ids, spill=spill)]
            for pull in pulls:
                for log in logs:
                    log.add(*pull)
            for log in logs:
                assert list(log.lines(4, 1)) == expected
                assert hexes(log.round_means()) == hexes(oracle_round_means(pulls))
                assert len(log.spilled) == len(log.pulls) == len(pulls)

    def test_integer_rewards_are_logged_as_floats(self):
        log = PullLog(ids=np.array([5]))
        log.add(0, "0123456789ab", np.array([1]), np.array([1]))
        assert records(log)[0]["reward"] == 1.0
        assert '"reward": 1.0,' in next(log.lines(0, 0))

    def test_pulls_append_at_the_end_of_a_shared_spill_after_reads(self):
        ids = np.array([1, 4, 6])
        pulls = [
            (index, "0123456789ab", np.array([index, 0, 1]), np.full(3, index / 7))
            for index in range(6)
        ]
        with tempfile.TemporaryFile() as spill:
            # a spill handed over at its start keeps what it held
            spill.write(b"earlier bytes")
            spill.seek(0)
            first, second = PullLog(ids=ids, spill=spill), PullLog(ids=ids, spill=spill)
            for pull in pulls:
                first.add(*pull)
                # a partial read must leave the spill at its end, where the next pull goes
                next(first.lines(0, 0))
                second.add(*pull)
            for log in (first, second):
                assert list(log.lines(0, 0)) == list(oracle_lines(ids, pulls, 0, 0))
            spill.seek(0)
            assert spill.read(13) == b"earlier bytes"

    def test_spilled_round_means_are_bit_equal_to_in_memory_ones(self):
        def env(assignment, rng):
            return {x: float(rng.random()) for x in assignment}

        # five labels per instance: the sweep is five pulls in round 0
        label_sets = {x: list(range(5)) for x in range(40)}
        with tempfile.TemporaryFile() as spill:
            logs = [PullLog(), PullLog(spill=spill)]
            for log in logs:
                run_inference(
                    label_sets, env, rounds=12, batch_size=3, rng=np.random.default_rng(8),
                    pull_log=log,
                )
            memory, spilled = logs
            assert [pull[0] for pull in memory.pulls] == [0] * 5 + list(range(1, 13))
            assert len(spilled.spilled) == 5 + 12
            assert hexes(spilled.round_means()) == hexes(memory.round_means())
            assert hexes(memory.round_means()) == hexes(oracle_round_means(memory.pulls))
            assert list(spilled.lines(1, 2)) == list(memory.lines(1, 2))
            with pytest.raises(ParameterError, match="pull_log"):
                run_inference(label_sets, env, rounds=1, pull_log=spilled)
        # the spill is closed: its pulls cannot be read back
        with pytest.raises(ValueError):
            next(spilled.lines(1, 2))

    def test_lines_are_sorted_key_json(self):
        values = [0.0, 1.0, 1.0 / 3.0, 1e-7, 0.1, 5e-324, 0.7499999999999999]

        def env(assignment, rng):
            return {x: values[int(rng.integers(len(values)))] for x in assignment}

        log = PullLog()
        run_inference(
            {7: [0, 1], 2: [4, 1, 3], 11: [0]}, env, rounds=9, batch_size=2,
            rng=np.random.default_rng(3), pull_log=log,
        )
        expected = "".join(
            json.dumps(
                {"pass": 2, "fold": 13, "round": round_index, "assignment_hash": digest,
                 "instance_id": x, "label": label, "reward": reward},
                sort_keys=True,
            ) + "\n"
            for round_index, digest, labels, rewards in log.pulls
            for x, label, reward in zip(log.ids.tolist(), labels.tolist(), rewards.tolist())
        )
        assert "".join(log.lines(2, 13)) == expected
        assert len(list(log.lines(2, 13))) == len(log.pulls) == 3 + 9

    def test_filled_log_rejected(self):
        def env(assignment, rng):
            return dict.fromkeys(assignment, 0.5)

        log = PullLog()
        run_inference({0: [0, 1]}, env, rounds=2, rng=np.random.default_rng(0), pull_log=log)
        with pytest.raises(ParameterError, match="pull_log"):
            run_inference({5: [0, 1]}, env, rounds=2, rng=np.random.default_rng(0), pull_log=log)
        assert log.ids.tolist() == [0] and len(log.pulls) == 2 + 2

    def test_retained_memory_per_record_is_bounded(self):
        instances, pulls = 2000, 50
        label_sets = {x: [0, 1] for x in range(instances)}

        def env(assignment, rng):
            return dict.fromkeys(assignment, 0.5)

        rng = np.random.default_rng(0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = PullLog()
            run_inference(label_sets, env, rounds=pulls - 2, rng=rng, pull_log=log)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(log.pulls) == pulls
        assert retained / (instances * pulls) < 32
