"""Reward regimes: recall/precision tables, gating, distance gap, environments."""

import numpy as np
import pytest
from reward_helpers import (
    distgap,
    distgap_augmented_reward,
    llp_example_reward,
    mil_reward,
    mirrored,
    prec_binary,
    prec_multiclass,
    predicted_label,
    predictions,
    rec_binary,
    rec_multiclass,
    reward_for,
    reward_oracle,
)

from labelbandit import rewards
from labelbandit.classifiers import ClassifierSpec
from labelbandit.data import (
    Bag,
    WeakLabel,
    generate_binary_mil,
    generate_gaussian_blobs,
    generate_multiclass_mil,
    with_proportion_labels,
)
from labelbandit.errors import ParameterError, RegimeError, ValidationError
from labelbandit.pipeline import InferenceConfig, kfold_infer
from labelbandit.rewards import (
    RewardEnvironment,
    RewardParams,
    build_reward_context,
    distance_gap,
    eta,
)


def random_binary_context(rng, params, n_train=10, n_held=24, bags_of=4):
    train_d = [float(rng.normal()) for _ in range(n_train)]
    held_ids = list(range(100, 100 + n_held))
    held_d = [float(rng.normal()) for _ in held_ids]
    bags = []
    for b, start in enumerate(range(0, n_held, bags_of)):
        members = held_ids[start : start + bags_of]
        bags.append(Bag(b, members, WeakLabel.binary(int(rng.integers(2)))))
    train_bags = {
        x: Bag(50 + x, [x], WeakLabel.binary(int(rng.integers(2)))) for x in range(n_train)
    }
    held = predictions(held_ids, mirrored(held_d))
    ctx = build_reward_context(
        "binary-mil", params, (predictions(range(n_train), mirrored(train_d)), held), bags,
        train_bag_index=train_bags,
    )
    return ctx, held, bags


def assert_tables_match_oracles(ctx, held, bags, negatives=None):
    """Every held-out row's recall and precision equal the definitional forms."""
    held_ids, held_labels, _ = held
    labels = dict(zip(held_ids, held_labels.tolist()))
    bag_index = {i: bag for bag in bags for i in bag.instance_ids}
    for row, iid in enumerate(held_ids):
        bag = bag_index[iid]
        if negatives is None:
            assert ctx.rec_row[row] == rec_binary(bag, labels)
            assert ctx.prec_row[row] == prec_binary(iid, labels, bag_index)
        else:
            assert ctx.rec_row[row] == rec_multiclass(bag, labels)
            assert ctx.prec_row[row] == prec_multiclass(iid, labels, bag_index, negatives)


class TestRecPrecBinary:
    def setup_method(self):
        self.labels = {0: 0, 1: 1, 2: 0}
        self.pos_bag = Bag(0, [0, 1], WeakLabel.binary(1))
        self.neg_bag = Bag(1, [2], WeakLabel.binary(0))
        self.bag_index = {0: self.pos_bag, 1: self.pos_bag, 2: self.neg_bag}

    def test_positive_bag_without_positive_prediction(self):
        assert rec_binary(self.pos_bag, {0: 0, 1: 0}) == 0.0

    def test_negative_bag_always_recalls(self):
        assert rec_binary(self.neg_bag, self.labels) == 1.0

    def test_positive_bag_with_one_positive(self):
        assert rec_binary(self.pos_bag, self.labels) == 1.0

    def test_predicted_positive_in_negative_bag(self):
        labels = dict(self.labels)
        labels[2] = 1
        assert prec_binary(2, labels, self.bag_index) == 0.0

    def test_predicted_negative_is_always_precise(self):
        assert prec_binary(0, self.labels, self.bag_index) == 1.0

    def test_predicted_positive_in_positive_bag(self):
        assert prec_binary(1, self.labels, self.bag_index) == 1.0


class TestRecPrecMulticlass:
    def setup_method(self):
        self.labels = {0: 1, 1: 0, 2: 3}
        self.bag = Bag(0, [0, 1, 2], WeakLabel.label_set({1, 2}))
        self.bag_index = {i: self.bag for i in (0, 1, 2)}

    def test_half_realized_label_set(self):
        assert rec_multiclass(self.bag, self.labels) == 0.5

    def test_empty_label_set_recalls(self):
        bag = Bag(1, [0], WeakLabel.label_set(set()))
        assert rec_multiclass(bag, self.labels) == 1.0

    def test_fully_realized_label_set(self):
        labels = dict(self.labels)
        labels[2] = 2
        assert rec_multiclass(self.bag, labels) == 1.0

    def test_positive_prediction_in_label_set(self):
        assert prec_multiclass(0, self.labels, self.bag_index) == 1.0

    def test_positive_prediction_outside_label_set(self):
        assert prec_multiclass(2, self.labels, self.bag_index) == 0.0

    def test_negative_prediction_is_precise(self):
        assert prec_multiclass(1, self.labels, self.bag_index) == 1.0

    def test_extra_negative_modes_collapse(self):
        assert prec_multiclass(0, {0: 5}, self.bag_index, frozenset({0, 5})) == 1.0


class TestBinaryReward:
    def build_context(self, heldout_d, bag_labels, params, train_d=1.0):
        """One training instance at embedding [-1, 1]; held-out singleton bags."""
        held_ids = list(range(10, 10 + len(heldout_d)))
        bags = [
            Bag(b, [i], WeakLabel.binary(lbl))
            for b, (i, lbl) in enumerate(zip(held_ids, bag_labels))
        ]
        return build_reward_context(
            "binary-mil", params,
            (predictions([0], mirrored([train_d])), predictions(held_ids, mirrored(heldout_d))),
            bags,
        )

    def test_gate_zeroes_mismatched_assignment(self):
        params = RewardParams(k=2)
        ctx = self.build_context([1.0, -1.0], [1, 0], params)
        assert mil_reward(0, 0, ctx, params) == 0.0
        assert mil_reward(0, 1, ctx, params) > 0.0

    def test_perfect_labelling_scores_one(self):
        # every neighbour's bag recalls and every neighbour is precise
        params = RewardParams(k=3, alpha=1.0, gamma=1.0 / 7.0)
        ctx = self.build_context([2.0, 1.5, -1.0], [1, 1, 0], params)
        assert mil_reward(0, 1, ctx, params) == pytest.approx(1.0)

    def test_partial_recall_gates_off_precision(self):
        # neighbour recalls (1, 1, 0): reward = gamma * 2/3 with alpha = 1
        params = RewardParams(k=3, alpha=1.0, gamma=1.0 / 7.0)
        ctx = self.build_context([2.0, 1.5, -1.0], [1, 1, 1], params)
        expected = (1.0 / 7.0) * (2.0 / 3.0)
        assert mil_reward(0, 1, ctx, params) == pytest.approx(expected)
        assert expected == pytest.approx(0.0952, abs=1e-4)

    def test_alpha_threshold_enables_precision(self):
        params = RewardParams(k=3, alpha=0.5, gamma=1.0 / 7.0)
        ctx = self.build_context([2.0, 1.5, -1.0], [1, 1, 1], params)
        expected = (1.0 / 7.0) * (2.0 / 3.0) + (6.0 / 7.0) * 1.0
        assert mil_reward(0, 1, ctx, params) == pytest.approx(expected)

    def test_k_clamped_to_pool_size(self):
        params = RewardParams(k=50)
        ctx = self.build_context([2.0, -1.0], [1, 0], params)
        assert [len(rows) for rows in ctx.neighbor_rows] == [2]


class TestVectorizedTablesMatchDefinitions:
    def test_binary_tables(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ctx, held, bags = random_binary_context(rng, RewardParams(k=3))
            assert_tables_match_oracles(ctx, held, bags)

    def test_multiclass_tables(self):
        rng = np.random.default_rng(1)
        num_classes, m = 4, 2
        negatives = frozenset([0, 4])
        for _ in range(10):
            ext = num_classes + m - 1
            train = predictions(range(8), rng.random((8, ext)))
            held_ids = list(range(100, 130))
            held = predictions(held_ids, rng.random((30, ext)))
            bags = []
            for b, start in enumerate(range(0, 30, 5)):
                label_set = {
                    int(c) for c in rng.choice(range(1, num_classes), size=2, replace=False)
                    if rng.random() < 0.7
                }
                bags.append(Bag(b, held_ids[start : start + 5], WeakLabel.label_set(label_set)))
            ctx = build_reward_context(
                "multiclass-mil", RewardParams(k=3, num_negative_labels=m),
                (train, held), bags, negative_labels=negatives,
            )
            assert_tables_match_oracles(ctx, held, bags, negatives)


class TestMulticlassBinaryReduction:
    def test_rewards_agree_exactly_on_shared_contexts(self):
        rng = np.random.default_rng(7)
        params = RewardParams(k=3)
        for _ in range(20):
            n_train, n_held = 6, 20
            train_p = rng.random(n_train)
            held_p = rng.random(n_held)
            train = predictions(range(n_train), np.column_stack([1 - train_p, train_p]))
            held_ids = list(range(50, 50 + n_held))
            held = predictions(held_ids, np.column_stack([1 - held_p, held_p]))
            bag_labels = [int(rng.integers(2)) for _ in range(5)]
            bags_bin, bags_multi = [], []
            for b, start in enumerate(range(0, n_held, 4)):
                members = held_ids[start : start + 4]
                bags_bin.append(Bag(b, members, WeakLabel.binary(bag_labels[b])))
                label_set = {1} if bag_labels[b] == 1 else set()
                bags_multi.append(Bag(b, members, WeakLabel.label_set(label_set)))
            ctx_bin = build_reward_context("binary-mil", params, (train, held), bags_bin)
            ctx_multi = build_reward_context("multiclass-mil", params, (train, held), bags_multi)
            for x in range(n_train):
                for assigned in (0, 1):
                    assert mil_reward(x, assigned, ctx_bin, params) == mil_reward(
                        x, assigned, ctx_multi, params
                    )

    def test_negative_mode_mismatch_gates_to_zero(self):
        # assigned one negative mode while the classifier predicts another
        # classes: 0 (neg), 1 (pos), 2 (extra neg mode)
        train = predictions([0], [[0.2, 0.1, 0.7]])
        held = predictions([9], [[0.1, 0.8, 0.1]])
        bags = [Bag(0, [9], WeakLabel.label_set({1}))]
        params = RewardParams(k=1, num_negative_labels=2)
        ctx = build_reward_context(
            "multiclass-mil", params, (train, held), bags, negative_labels=frozenset({0, 2})
        )
        assert mil_reward(0, 0, ctx, params) == 0.0
        assert mil_reward(0, 2, ctx, params) > 0.0


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

    def planted(self):
        rng = np.random.default_rng(3)
        # positive-bag members form one cluster, negative-bag members another;
        # probe instances all live in positive bags but only the truly
        # positive ones resemble the positive-bag cluster
        def point(positive):
            center = 3.0 if positive else -3.0
            return center + rng.normal(scale=0.3)

        held_ids = list(range(100, 124))
        held_d, bags = [], []
        for b in range(6):
            members = held_ids[b * 4 : (b + 1) * 4]
            positive_bag = b < 3
            held_d += [point(positive_bag) for _ in members]
            bags.append(Bag(b, members, WeakLabel.binary(int(positive_bag))))
        train_d, train_bags, truths = [], {}, {}
        for x in range(10):
            positive = x < 5
            train_d.append(point(positive))
            train_bags[x] = Bag(50 + x, [x], WeakLabel.binary(1))
            truths[x] = positive
        folds = (predictions(range(10), mirrored(train_d)), predictions(held_ids, mirrored(held_d)))
        return folds, bags, train_bags, truths

    def build_planted_context(self, params):
        folds, bags, train_bags, truths = self.planted()
        ctx = build_reward_context("binary-mil", params, folds, bags, train_bag_index=train_bags)
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
            assigned = predicted_label(x, ctx)
            base_params = RewardParams(k=2, alpha=0.0, gamma=0.5)
            base = mil_reward(x, assigned, ctx, base_params)
            gap = distgap(x, ctx)
            expected = gap * base if assigned == 1 else (1 - gap) * base
            assert distgap_augmented_reward(x, assigned, ctx, params) == pytest.approx(expected)
            assert distgap_augmented_reward(x, 1 - assigned, ctx, params) == 0.0

    def test_tau_calibration_median(self):
        params = RewardParams(k=2, distgap_enabled=True)
        ctx, _ = self.build_planted_context(params)
        ((train_ids, _, train_emb), (held_ids, _, held_emb)), bags, train_bags, _ = self.planted()
        raw = rewards.raw_distance_gaps(
            train_ids, train_emb, held_ids, held_emb, bags, train_bags, k=2
        )
        raws = [abs(raw[x]) for x in sorted(raw)[:100]]
        assert ctx.tau == pytest.approx(float(np.median(raws)))


class TestLlpReward:
    def build_context(self, proportions, held_d, params, train_d=1.0):
        held_ids = list(range(20, 20 + len(held_d)))
        groups = np.array_split(held_ids, len(proportions))
        bags = [
            Bag(b, [int(i) for i in members], WeakLabel.proportion(p))
            for b, (members, p) in enumerate(zip(groups, proportions))
        ]
        return build_reward_context(
            "llp", params,
            (predictions([0], mirrored([train_d])), predictions(held_ids, mirrored(held_d))),
            bags,
        )

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
        bags = [Bag(0, [5], WeakLabel.binary(1))]
        with pytest.raises(RegimeError):
            build_reward_context(
                "llp", params,
                (predictions([0], mirrored([1.0])), predictions([5], mirrored([1.0]))),
                bags,
            )


class TestContextInputs:
    def test_heldout_instance_without_bag_rejected(self):
        held = predictions([10, 11, 12], mirrored([1.0, -1.0, 2.0]))
        bags = [Bag(0, [10, 12], WeakLabel.binary(1))]
        with pytest.raises(ValidationError, match=r"without a bag: \[11\]"):
            build_reward_context(
                "binary-mil", RewardParams(k=1),
                (predictions([0], mirrored([1.0])), held), bags,
            )


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
        rng = np.random.default_rng(1)
        for _ in range(25):
            assignment = {i: int(rng.integers(2)) for i in truth}
            rewards = env.evaluate(assignment, rng)
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

    @pytest.mark.parametrize("regime", ["binary-mil", "multiclass-mil"])
    def test_context_tables_match_oracles_on_real_folds(self, monkeypatch, regime):
        if regime == "binary-mil":
            dataset = generate_binary_mil(12, (3, 6), 0.5, 3, 6.0, seed=8)
        else:
            pool = generate_gaussian_blobs(6, 30, 2, 6.0, seed=8)
            dataset = generate_multiclass_mil(pool, 16, (3, 7), {1, 2, 3}, seed=9)
        built = []
        build = rewards.build_reward_context

        def recording(*args, **kwargs):
            ctx = build(*args, **kwargs)
            built.append((ctx, args, kwargs))
            return ctx

        monkeypatch.setattr(rewards, "build_reward_context", recording)
        config = InferenceConfig(
            regime=regime, rounds=3, batch_size=2, folds=2, master_seed=3,
            reward=RewardParams(k=3, num_negative_labels=2 if regime == "multiclass-mil" else 1),
        )
        kfold_infer(dataset, config)
        assert built
        for ctx, (_, _, (_, held), bags), kwargs in built:
            negatives = kwargs["negative_labels"] if regime == "multiclass-mil" else None
            assert_tables_match_oracles(ctx, held, bags, negatives)

    @pytest.mark.parametrize(
        "regime, params",
        [
            ("binary-mil", RewardParams(k=5)),
            ("binary-mil", RewardParams(k=9, alpha=0.5)),
            ("binary-mil", RewardParams(k=4, distgap_enabled=True, distgap_space="features")),
            ("binary-mil", RewardParams(k=17, alpha=0.2, distgap_enabled=True)),
            ("multiclass-mil", RewardParams(k=8, alpha=0.3, num_negative_labels=2)),
            ("multiclass-mil", RewardParams(k=17, alpha=0.5, num_negative_labels=2)),
            ("llp", RewardParams(k=3)),
            ("llp", RewardParams(k=16)),
        ],
        ids=["bin-k5", "bin-k9", "bin-gap-features", "bin-gap-output-k17", "mc-k8", "mc-k17",
             "llp-k3", "llp-k16"],
    )
    def test_rewards_equal_per_instance_oracle_on_real_folds(self, monkeypatch, regime, params):
        if regime == "multiclass-mil":
            pool = generate_gaussian_blobs(6, 40, 2, 6.0, seed=8)
            dataset = generate_multiclass_mil(pool, 24, (3, 7), {1, 2, 3}, seed=9)
        else:
            dataset = generate_binary_mil(24, (3, 6), 0.5, 3, 6.0, seed=8)
            if regime == "llp":
                dataset = with_proportion_labels(dataset)
        contexts, scored = [], []
        build, call = rewards.build_reward_context, RewardEnvironment.__call__

        def building(*args, **kwargs):
            contexts.append(build(*args, **kwargs))
            return contexts[-1]

        def calling(env, assignment, rng):
            scored.append((assignment, call(env, assignment, rng)))
            return scored[-1][1]

        monkeypatch.setattr(rewards, "build_reward_context", building)
        monkeypatch.setattr(RewardEnvironment, "__call__", calling)
        kfold_infer(dataset, InferenceConfig(
            regime=regime, rounds=4, batch_size=2, folds=2, master_seed=5, reward=params
        ))
        assert len(contexts) == len(scored) > 0
        checked = 0
        for ctx, (assignment, values) in zip(contexts, scored):
            for x, assigned in assignment.items():
                assert values[x] == reward_oracle(x, assigned, ctx, params)  # bit for bit
                checked += values[x] > 0.0
        assert checked > 0


class TestDispatch:
    def test_custom_regime_rejected(self):
        params = RewardParams()
        empty = predictions([], np.empty((0, 2)))
        with pytest.raises(RegimeError):
            build_reward_context("custom", params, (empty, empty), [])

    def test_reward_for_routes_by_regime(self):
        rng = np.random.default_rng(9)
        params = RewardParams(k=2)
        ctx, _, _ = random_binary_context(rng, params)
        x = 0
        assigned = predicted_label(x, ctx)
        assert reward_for(x, assigned, ctx, params) == mil_reward(x, assigned, ctx, params)
