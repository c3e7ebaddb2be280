"""Reward regimes: recall/precision tables, gating, distance gap, environments."""

import numpy as np
import pytest

from labelbandit.classifiers import ClassifierSpec, Prediction
from labelbandit.data import Bag, WeakLabel, generate_binary_mil
from labelbandit.errors import ParameterError, RegimeError, RewardRangeError
from labelbandit.rewards import (
    RewardEnvironment,
    RewardParams,
    binary_mil_reward,
    build_reward_context,
    distance_gap,
    distgap,
    distgap_augmented_reward,
    eta,
    evaluate_environment,
    llp_example_reward,
    multiclass_mil_reward,
    prec_binary,
    prec_multiclass,
    rec_binary,
    rec_multiclass,
    reward_for,
)


def mirrored(d):
    return np.array([-d, d])


def binary_prediction(d):
    return Prediction(int(d > 0), mirrored(d))


def random_binary_context(rng, params, n_train=10, n_held=24, bags_of=4):
    train = {x: binary_prediction(float(rng.normal())) for x in range(n_train)}
    held_ids = list(range(100, 100 + n_held))
    held = {i: binary_prediction(float(rng.normal())) for i in held_ids}
    bags = []
    for b, start in enumerate(range(0, n_held, bags_of)):
        members = held_ids[start : start + bags_of]
        bags.append(Bag(b, members, WeakLabel.binary(int(rng.integers(2)))))
    train_bags = {
        x: Bag(50 + x, [x], WeakLabel.binary(int(rng.integers(2)))) for x in train
    }
    return build_reward_context(
        "binary-mil", params, train, held, bags, train_bag_index=train_bags
    )


class TestRecPrecBinary:
    def setup_method(self):
        self.preds = {
            0: binary_prediction(-1.0),
            1: binary_prediction(2.0),
            2: binary_prediction(-0.5),
        }
        self.pos_bag = Bag(0, [0, 1], WeakLabel.binary(1))
        self.neg_bag = Bag(1, [2], WeakLabel.binary(0))
        self.bag_index = {0: self.pos_bag, 1: self.pos_bag, 2: self.neg_bag}

    def test_positive_bag_without_positive_prediction(self):
        preds = {0: binary_prediction(-1.0), 1: binary_prediction(-2.0)}
        assert rec_binary(self.pos_bag, preds) == 0.0

    def test_negative_bag_always_recalls(self):
        assert rec_binary(self.neg_bag, self.preds) == 1.0

    def test_positive_bag_with_one_positive(self):
        assert rec_binary(self.pos_bag, self.preds) == 1.0

    def test_predicted_positive_in_negative_bag(self):
        preds = dict(self.preds)
        preds[2] = binary_prediction(3.0)
        assert prec_binary(2, preds, self.bag_index) == 0.0

    def test_predicted_negative_is_always_precise(self):
        assert prec_binary(0, self.preds, self.bag_index) == 1.0

    def test_predicted_positive_in_positive_bag(self):
        assert prec_binary(1, self.preds, self.bag_index) == 1.0


class TestRecPrecMulticlass:
    def setup_method(self):
        self.preds = {
            0: Prediction(1, np.array([0.1, 0.8, 0.05, 0.05])),
            1: Prediction(0, np.array([0.7, 0.1, 0.1, 0.1])),
            2: Prediction(3, np.array([0.1, 0.1, 0.2, 0.6])),
        }
        self.bag = Bag(0, [0, 1, 2], WeakLabel.label_set({1, 2}))
        self.bag_index = {i: self.bag for i in (0, 1, 2)}

    def test_half_realized_label_set(self):
        assert rec_multiclass(self.bag, self.preds) == 0.5

    def test_empty_label_set_recalls(self):
        bag = Bag(1, [0], WeakLabel.label_set(set()))
        assert rec_multiclass(bag, self.preds) == 1.0

    def test_fully_realized_label_set(self):
        preds = dict(self.preds)
        preds[2] = Prediction(2, np.array([0.1, 0.1, 0.7, 0.1]))
        assert rec_multiclass(self.bag, preds) == 1.0

    def test_positive_prediction_in_label_set(self):
        assert prec_multiclass(0, self.preds, self.bag_index) == 1.0

    def test_positive_prediction_outside_label_set(self):
        assert prec_multiclass(2, self.preds, self.bag_index) == 0.0

    def test_negative_prediction_is_precise(self):
        assert prec_multiclass(1, self.preds, self.bag_index) == 1.0

    def test_extra_negative_modes_collapse(self):
        preds = {0: Prediction(5, np.array([0.1, 0.1, 0.1, 0.1, 0.1, 0.5]))}
        assert prec_multiclass(0, preds, self.bag_index, frozenset({0, 5})) == 1.0


class TestBinaryReward:
    def build_context(self, heldout_d, bag_labels, params, train_d=1.0):
        """One training instance at embedding [-1, 1]; held-out singleton bags."""
        train = {0: binary_prediction(train_d)}
        held_ids = list(range(10, 10 + len(heldout_d)))
        held = {i: binary_prediction(d) for i, d in zip(held_ids, heldout_d)}
        bags = [
            Bag(b, [i], WeakLabel.binary(lbl))
            for b, (i, lbl) in enumerate(zip(held_ids, bag_labels))
        ]
        return build_reward_context("binary-mil", params, train, held, bags)

    def test_gate_zeroes_mismatched_assignment(self):
        params = RewardParams(k=2)
        ctx = self.build_context([1.0, -1.0], [1, 0], params)
        assert binary_mil_reward(0, 0, ctx, params) == 0.0
        assert binary_mil_reward(0, 1, ctx, params) > 0.0

    def test_perfect_labelling_scores_one(self):
        # every neighbour's bag recalls and every neighbour is precise
        params = RewardParams(k=3, alpha=1.0, gamma=1.0 / 7.0)
        ctx = self.build_context([2.0, 1.5, -1.0], [1, 1, 0], params)
        assert binary_mil_reward(0, 1, ctx, params) == pytest.approx(1.0)

    def test_partial_recall_gates_off_precision(self):
        # neighbour recalls (1, 1, 0): reward = gamma * 2/3 with alpha = 1
        params = RewardParams(k=3, alpha=1.0, gamma=1.0 / 7.0)
        ctx = self.build_context([2.0, 1.5, -1.0], [1, 1, 1], params)
        expected = (1.0 / 7.0) * (2.0 / 3.0)
        assert binary_mil_reward(0, 1, ctx, params) == pytest.approx(expected)
        assert expected == pytest.approx(0.0952, abs=1e-4)

    def test_alpha_threshold_enables_precision(self):
        params = RewardParams(k=3, alpha=0.5, gamma=1.0 / 7.0)
        ctx = self.build_context([2.0, 1.5, -1.0], [1, 1, 1], params)
        expected = (1.0 / 7.0) * (2.0 / 3.0) + (6.0 / 7.0) * 1.0
        assert binary_mil_reward(0, 1, ctx, params) == pytest.approx(expected)

    def test_k_clamped_to_pool_size(self):
        params = RewardParams(k=50)
        ctx = self.build_context([2.0, -1.0], [1, 0], params)
        assert ctx.k == 2


class TestVectorizedTablesMatchDefinitions:
    def test_binary_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ctx = random_binary_context(rng, RewardParams(k=3))
            for bag in ctx.heldout_bags:
                assert ctx.rec_by_bag[bag.id] == rec_binary(bag, ctx.heldout_predictions)
            for iid in ctx.heldout_predictions:
                assert ctx.prec_by_instance[iid] == prec_binary(
                    iid, ctx.heldout_predictions, ctx.bag_index
                )

    def test_multiclass_tables(self):
        rng = np.random.default_rng(1)
        num_classes, m = 4, 2
        negatives = frozenset([0, 4])
        for _ in range(10):
            ext = num_classes + m - 1
            train = {
                x: Prediction(int(np.argmax(e)), e)
                for x, e in enumerate(rng.random((8, ext)))
            }
            held_ids = list(range(100, 130))
            held = {
                i: Prediction(int(np.argmax(e)), e)
                for i, e in zip(held_ids, rng.random((30, ext)))
            }
            bags = []
            for b, start in enumerate(range(0, 30, 5)):
                label_set = {
                    int(c) for c in rng.choice(range(1, num_classes), size=2, replace=False)
                    if rng.random() < 0.7
                }
                bags.append(Bag(b, held_ids[start : start + 5], WeakLabel.label_set(label_set)))
            ctx = build_reward_context(
                "multiclass-mil", RewardParams(k=3, num_negative_labels=m),
                train, held, bags, negative_labels=negatives,
            )
            for bag in bags:
                assert ctx.rec_by_bag[bag.id] == rec_multiclass(bag, held)
            for iid in held:
                assert ctx.prec_by_instance[iid] == prec_multiclass(
                    iid, held, ctx.bag_index, negatives
                )


class TestMulticlassBinaryReduction:
    def test_rewards_agree_exactly_on_shared_contexts(self):
        rng = np.random.default_rng(7)
        params = RewardParams(k=3)
        for _ in range(20):
            n_train, n_held = 6, 20
            train_p = rng.random(n_train)
            held_p = rng.random(n_held)
            train_bin = {x: Prediction(int(p > 0.5), np.array([1 - p, p])) for x, p in enumerate(train_p)}
            held_ids = list(range(50, 50 + n_held))
            held_bin = {i: Prediction(int(p > 0.5), np.array([1 - p, p])) for i, p in zip(held_ids, held_p)}
            bag_labels = [int(rng.integers(2)) for _ in range(5)]
            bags_bin, bags_multi = [], []
            for b, start in enumerate(range(0, n_held, 4)):
                members = held_ids[start : start + 4]
                bags_bin.append(Bag(b, members, WeakLabel.binary(bag_labels[b])))
                label_set = {1} if bag_labels[b] == 1 else set()
                bags_multi.append(Bag(b, members, WeakLabel.label_set(label_set)))
            ctx_bin = build_reward_context("binary-mil", params, train_bin, held_bin, bags_bin)
            ctx_multi = build_reward_context(
                "multiclass-mil", params, train_bin, held_bin, bags_multi
            )
            for x in train_bin:
                for assigned in (0, 1):
                    assert binary_mil_reward(x, assigned, ctx_bin, params) == multiclass_mil_reward(
                        x, assigned, ctx_multi, params
                    )

    def test_negative_mode_mismatch_gates_to_zero(self):
        # assigned one negative mode while the classifier predicts another
        ext = 3  # classes: 0 (neg), 1 (pos), 2 (extra neg mode)
        train = {0: Prediction(2, np.array([0.2, 0.1, 0.7]))}
        held = {9: Prediction(1, np.array([0.1, 0.8, 0.1]))}
        bags = [Bag(0, [9], WeakLabel.label_set({1}))]
        params = RewardParams(k=1, num_negative_labels=2)
        ctx = build_reward_context(
            "multiclass-mil", params, train, held, bags, negative_labels=frozenset({0, 2})
        )
        assert multiclass_mil_reward(0, 0, ctx, params) == 0.0
        assert multiclass_mil_reward(0, 2, ctx, params) > 0.0


class TestDistanceGap:
    def test_eta_midpoint_and_clamp(self):
        assert eta(0.0, 2.0) == 0.5
        assert eta(5.0, 2.0) == 1.0
        assert eta(-5.0, 2.0) == 0.0
        assert eta(1.0, 2.0) == 0.75

    def test_raw_gap_sign(self):
        point = np.zeros(2)
        near = [np.array([[0.1, 0.0], [0.0, 0.1]])]
        far = [np.array([[5.0, 0.0], [0.0, 5.0]])]
        assert distance_gap(point, near, far, k=2) > 0
        assert distance_gap(point, far, near, k=2) < 0

    def test_requires_both_bag_families(self):
        with pytest.raises(ParameterError):
            distance_gap(np.zeros(1), [], [np.zeros((1, 1))], k=1)

    def build_planted_context(self, params):
        rng = np.random.default_rng(3)
        # positive-bag members form one cluster, negative-bag members another;
        # probe instances all live in positive bags but only the truly
        # positive ones resemble the positive-bag cluster
        def emb(positive):
            center = 3.0 if positive else -3.0
            d = center + rng.normal(scale=0.3)
            return binary_prediction(d)

        held_ids = list(range(100, 124))
        held, bags = {}, []
        for b in range(6):
            members = held_ids[b * 4 : (b + 1) * 4]
            positive_bag = b < 3
            for i in members:
                held[i] = emb(positive_bag)
            bags.append(Bag(b, members, WeakLabel.binary(int(positive_bag))))
        train, train_bags, truths = {}, {}, {}
        for x in range(10):
            positive = x < 5
            train[x] = emb(positive)
            train_bags[x] = Bag(50 + x, [x], WeakLabel.binary(1))
            truths[x] = positive
        ctx = build_reward_context(
            "binary-mil", params, train, held, bags, train_bag_index=train_bags
        )
        return ctx, truths

    def test_planted_positives_have_larger_gap(self):
        params = RewardParams(k=2, distgap_enabled=True)
        ctx, truths = self.build_planted_context(params)
        positives = [distgap(x, ctx) for x, t in truths.items() if t]
        negatives = [distgap(x, ctx) for x, t in truths.items() if not t]
        assert np.mean(positives) > np.mean(negatives)
        assert all(0.0 <= v <= 1.0 for v in positives + negatives)

    def test_augmented_reward_arithmetic(self):
        params = RewardParams(k=2, distgap_enabled=True, alpha=0.0, gamma=0.5)
        ctx, _ = self.build_planted_context(params)
        for x in (0, 7):
            assigned = ctx.predicted_label(x)
            base_params = RewardParams(k=2, alpha=0.0, gamma=0.5)
            base = binary_mil_reward(x, assigned, ctx, base_params)
            gap = distgap(x, ctx)
            expected = gap * base if assigned == 1 else (1 - gap) * base
            assert distgap_augmented_reward(x, assigned, ctx, params) == pytest.approx(expected)
            assert distgap_augmented_reward(x, 1 - assigned, ctx, params) == 0.0

    def test_tau_calibration_median(self):
        params = RewardParams(k=2, distgap_enabled=True)
        ctx, _ = self.build_planted_context(params)
        raws = [abs(ctx.raw_distgap[x]) for x in sorted(ctx.raw_distgap)[:100]]
        assert ctx.tau == pytest.approx(float(np.median(raws)))


class TestLlpReward:
    def build_context(self, proportions, held_d, params, train_d=1.0):
        train = {0: binary_prediction(train_d)}
        held_ids = list(range(20, 20 + len(held_d)))
        held = {i: binary_prediction(d) for i, d in zip(held_ids, held_d)}
        groups = np.array_split(held_ids, len(proportions))
        bags = [
            Bag(b, [int(i) for i in members], WeakLabel.proportion(p))
            for b, (members, p) in enumerate(zip(groups, proportions))
        ]
        return build_reward_context("llp", params, train, held, bags)

    def test_exact_proportions_score_one(self):
        params = RewardParams(k=2)
        ctx = self.build_context([0.5, 0.0], [2.0, -1.0, -1.0, -2.0], params)
        assert llp_example_reward(0, 1, ctx, params) == pytest.approx(1.0)

    def test_half_proportion_error(self):
        params = RewardParams(k=2)
        # one bag labelled 0.5 but predicted all positive
        ctx = self.build_context([0.5], [2.0, 1.0], params)
        assert llp_example_reward(0, 1, ctx, params) == pytest.approx(0.5)

    def test_reward_decreases_with_proportion_error(self):
        params = RewardParams(k=2)
        rewards = []
        for p in (1.0, 0.75, 0.5, 0.25, 0.0):
            ctx = self.build_context([p], [2.0, 1.0], params)
            rewards.append(llp_example_reward(0, 1, ctx, params))
        assert rewards == sorted(rewards, reverse=True)

    def test_regime_mismatch_rejected(self):
        params = RewardParams(k=1)
        train = {0: binary_prediction(1.0)}
        held = {5: binary_prediction(1.0)}
        bags = [Bag(0, [5], WeakLabel.binary(1))]
        with pytest.raises(RegimeError):
            build_reward_context("llp", params, train, held, bags)


class TestRewardEnvironment:
    def build_environment(self, seed=0, **params_kw):
        dataset = generate_binary_mil(14, (3, 6), 0.5, 3, 6.0, seed=seed)
        bags = dataset.bags
        index = dataset.instance_map()
        bag_of = dataset.bag_of_instance()
        train_bags, held_bags = bags[:5], bags[5:]
        train_ids = [i for b in train_bags for i in b.instance_ids]
        held_ids = [i for b in held_bags for i in b.instance_ids]
        env = RewardEnvironment(
            regime="binary-mil",
            train_ids=train_ids,
            train_features=np.stack([index[i].features for i in train_ids]),
            train_bag_index={i: bag_of[i] for i in train_ids},
            heldout_ids=held_ids,
            heldout_features=np.stack([index[i].features for i in held_ids]),
            heldout_bags=held_bags,
            classifier_spec=ClassifierSpec("linear-svm", 2),
            params=RewardParams(**params_kw),
            )
        truth = dataset.ground_truth_map()
        return env, {i: truth[i] for i in train_ids}

    def test_ground_truth_beats_flipped_labels(self):
        env, truth = self.build_environment(seed=1)
        rng = np.random.default_rng(0)
        good = np.mean(list(env(truth, rng).values()))
        flipped = {i: 1 - l for i, l in truth.items()}
        bad = np.mean(list(env(flipped, np.random.default_rng(0)).values()))
        assert good > bad

    def test_rewards_bounded_for_random_assignments(self):
        env, truth = self.build_environment(seed=2)
        sets = {i: [0, 1] for i in truth}
        rng = np.random.default_rng(1)
        for _ in range(25):
            assignment = {i: int(rng.integers(2)) for i in truth}
            rewards = evaluate_environment(env, assignment, rng)
            values = np.array(list(rewards.values()))
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_identical_seed_identical_rewards(self):
        env, truth = self.build_environment(seed=3)
        a = env(truth, np.random.default_rng(42))
        b = env(truth, np.random.default_rng(42))
        assert a == b

    def test_missing_assignment_entry_rejected(self):
        env, truth = self.build_environment(seed=4)
        partial = dict(list(truth.items())[:-1])
        with pytest.raises(ParameterError, match="missing"):
            env(partial, np.random.default_rng(0))

    def test_distgap_tau_calibrates_once(self):
        env, truth = self.build_environment(seed=5, k=3, distgap_enabled=True)
        assert env._tau is None
        env(truth, np.random.default_rng(0))
        tau = env._tau
        assert tau is not None and tau > 0
        env(truth, np.random.default_rng(1))
        assert env._tau == tau

    def test_feature_space_gaps_computed_at_construction(self):
        dataset = generate_binary_mil(14, (3, 6), 0.5, 3, 6.0, seed=6)
        env, truth = self.build_environment(
            seed=6, k=3, distgap_enabled=True, distgap_space="features"
        )
        index = dataset.instance_map()
        bag_of = dataset.bag_of_instance()

        def bag_features(bags):
            return [np.stack([index[i].features for i in bag.instance_ids]) for bag in bags]

        assert sorted(env._raw_distgap) == sorted(truth)
        for x in truth:
            own = bag_of[x].weak_label
            same = bag_features([b for b in env.heldout_bags if b.weak_label == own])
            other = bag_features([b for b in env.heldout_bags if b.weak_label != own])
            assert env._raw_distgap[x] == distance_gap(index[x].features, same, other, k=3)

        tau = env._tau
        assert tau is not None and tau > 0
        env(truth, np.random.default_rng(0))
        env(truth, np.random.default_rng(1))
        assert env._tau == tau


class TestDispatch:
    def test_custom_regime_rejected(self):
        params = RewardParams()
        with pytest.raises(RegimeError):
            build_reward_context("custom", params, {}, {}, [])

    def test_reward_for_routes_by_regime(self):
        rng = np.random.default_rng(9)
        params = RewardParams(k=2)
        ctx = random_binary_context(rng, params)
        x = next(iter(ctx.train_predictions))
        assigned = ctx.predicted_label(x)
        assert reward_for(x, assigned, ctx, params) == binary_mil_reward(x, assigned, ctx, params)
