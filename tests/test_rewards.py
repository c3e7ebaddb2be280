"""Reward regimes: recall/precision tables, gating, distance gap, environments."""

import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reward_helpers import (
    context,
    distgap,
    distgap_augmented_reward,
    llp_example_reward,
    loop_distance_gaps,
    mil_reward,
    mirrored,
    negative_modes,
    prec_binary,
    prec_multiclass,
    predicted_label,
    predictions,
    proportion_error,
    rec_binary,
    rec_multiclass,
    reward_for,
    reward_oracle,
)

from labelbandit import rewards
from labelbandit.classifiers import ClassifierSpec, nearest_indices_rows
from labelbandit.data import (
    Bag,
    WeakLabel,
    extended_num_classes,
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
    ctx = context(
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
        return context(
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
            ctx = context(
                "multiclass-mil", RewardParams(k=3, num_negative_labels=m),
                (train, held), bags, negative_labels=negatives,
            )
            assert_tables_match_oracles(ctx, held, bags, negatives)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tables_equal_oracles_on_random_partitions(self, data):
        """Random bag partitions of the held-out ids in every regime, with
        predicted labels up to above the embedding width, empty label sets and
        several negative modes: each row's table entries equal the oracles."""
        regime = data.draw(st.sampled_from(["binary-mil", "multiclass-mil", "llp"]))
        width = data.draw(st.integers(2, 5))
        held_ids = sorted(data.draw(st.sets(st.integers(0, 500), min_size=1, max_size=40)))
        bag_of = data.draw(
            st.lists(st.integers(0, 7), min_size=len(held_ids), max_size=len(held_ids))
        )
        label_ids = st.integers(0, width + 2)
        labels = data.draw(st.lists(label_ids, min_size=len(held_ids), max_size=len(held_ids)))
        negatives = frozenset({0} | data.draw(st.sets(st.integers(1, width + 2), max_size=3)))
        members: dict[int, list[int]] = {}
        for iid, b in zip(held_ids, bag_of):
            members.setdefault(b, []).append(iid)
        bags = []
        for b in data.draw(st.permutations(sorted(members))):
            if regime == "binary-mil":
                weak = WeakLabel.binary(data.draw(st.integers(0, 1)))
            elif regime == "multiclass-mil":
                weak = WeakLabel.label_set(data.draw(st.sets(st.integers(1, width + 2))))
            else:
                weak = WeakLabel.proportion(data.draw(st.floats(0.0, 1.0)))
            bags.append(Bag(10 + b, members[b], weak))
        held_labels = np.array(labels, dtype=np.intp)
        held = (held_ids, held_labels, np.zeros((len(held_ids), width)))
        ctx = context(
            regime, RewardParams(k=3), (predictions([1000], [[0.0] * width]), held), bags,
            negative_labels=negatives,
        )
        label_of = dict(zip(held_ids, labels))
        bag_index = {i: bag for bag in bags for i in bag.instance_ids}
        for row, iid in enumerate(held_ids):
            bag = bag_index[iid]
            rec, prec, error = 1.0, 1.0, 0.0
            if regime == "binary-mil":
                rec = rec_binary(bag, label_of)
                prec = prec_binary(iid, label_of, bag_index, negatives)
            elif regime == "multiclass-mil":
                rec = rec_multiclass(bag, label_of)
                prec = prec_multiclass(iid, label_of, bag_index, negatives)
            else:
                error = proportion_error(bag, label_of)
            assert ctx.rec_row[row] == rec
            assert ctx.prec_row[row] == prec
            assert ctx.proportion_error_row[row] == error


class TestFullSpaceDistances:
    @pytest.mark.parametrize("width", range(2, 8))
    def test_column_accumulated_distances_equal_norm(self, monkeypatch, width):
        """Bit for bit: below 8 columns ``np.linalg.norm`` sums the squares in
        column order too (from 8 on numpy switches to pairwise summation)."""
        rng = np.random.default_rng(width)
        queries = rng.normal(size=(23, width)) * 10.0 ** rng.uniform(-3, 3, size=(23, width))
        pool = rng.normal(size=(37, width)) * 10.0 ** rng.uniform(-3, 3, size=(37, width))
        # five queries per block: blocks of 5, 5, 5, 5 and 3 rows
        monkeypatch.setattr(rewards, "_NEIGHBOR_BLOCK_ELEMENTS", 5 * 37 * width)
        blocks = []
        distances = rewards._pairwise_distances

        def recording(block, pool):
            blocks.append(distances(block, pool))
            return blocks[-1]

        monkeypatch.setattr(rewards, "_pairwise_distances", recording)
        neighbors = rewards._full_space_neighbors(queries, pool, k=4)
        expected = np.linalg.norm(queries[:, None, :] - pool[None, :, :], axis=2)
        assert [len(block) for block in blocks] == [5, 5, 5, 5, 3]
        assert np.vstack(blocks).tobytes() == expected.tobytes()
        assert np.array_equal(neighbors, nearest_indices_rows(expected, 4))


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
            ctx_bin = context("binary-mil", params, (train, held), bags_bin)
            ctx_multi = context("multiclass-mil", params, (train, held), bags_multi)
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
        ctx = context(
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
        ctx = context("binary-mil", params, folds, bags, train_bag_index=train_bags)
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
        raw = loop_distance_gaps(train_ids, train_emb, held_ids, held_emb, bags, train_bags, k=2)
        assert ctx.tau == pytest.approx(float(np.median(np.abs(raw[:100]))))


LABEL_SETS = [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]


@st.composite
def gap_folds(draw):
    """A fold for the distance gap: held-out bags of 1 to 12 members listed
    out of id order, binary labels or up to 7 label sets, training bags whose
    label may match no held-out bag, points on an integer grid (many ties) or
    anywhere, in 1 to 10 dimensions (numpy sums 8 or more squares pairwise),
    and k above and below the bag sizes."""
    multiclass = draw(st.booleans())
    if multiclass:
        sets = draw(st.lists(st.sampled_from(LABEL_SETS), min_size=1, max_size=7, unique_by=str))
        pool = [WeakLabel.label_set(s) for s in sets]
    else:
        pool = [WeakLabel.binary(0), WeakLabel.binary(1)]
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=24))
    order = draw(st.permutations(range(100, 100 + sum(sizes))))
    bags, start = [], 0
    for b, size in enumerate(sizes):
        bags.append(Bag(b, order[start : start + size], draw(st.sampled_from(pool))))
        start += size
    num_train = draw(st.integers(1, 12))
    train_bags = {x: Bag(50 + x, [x], draw(st.sampled_from(pool))) for x in range(num_train)}
    dim = draw(st.integers(1, 10))
    elements = draw(st.sampled_from([
        st.integers(-2, 2).map(float), st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    ]))
    train_points = draw(hnp.arrays(np.float64, (num_train, dim), elements=elements))
    held_points = draw(hnp.arrays(np.float64, (len(order), dim), elements=elements))
    regime = "multiclass-mil" if multiclass else "binary-mil"
    return regime, bags, train_bags, train_points, held_points, draw(st.integers(1, 14))


def large_group_fold():
    """40 bags over three label sets: every label group holds 13 or more bags,
    so numpy's mean of a group sums pairwise rather than in sequence."""
    rng = np.random.default_rng(5)
    sets = [WeakLabel.label_set(s) for s in LABEL_SETS[:3]]
    members = rng.permutation(np.arange(100, 220)).tolist()
    bags = [Bag(b, members[3 * b : 3 * b + 3], sets[b % 3]) for b in range(40)]
    train_bags = {x: Bag(50 + x, [x], sets[x % 3]) for x in range(9)}
    return "multiclass-mil", bags, train_bags, rng.normal(size=(9, 3)), rng.normal(size=(120, 3)), 2


class TestDistanceGapKernel:
    @settings(max_examples=400, deadline=None)
    @given(gap_folds(), st.sampled_from([1, 64, 512, rewards._GAP_BLOCK_ELEMENTS]))
    @example(large_group_fold(), 64)
    def test_kernel_equals_per_instance_loop_bit_for_bit(self, fold, block_elements):
        # small block budgets split the training rows into blocks of 1 row up
        regime, bags, train_bags, train_points, held_points, k = fold
        train_ids, held_ids = sorted(train_bags), list(range(100, 100 + len(held_points)))
        try:
            expected = loop_distance_gaps(
                train_ids, train_points, held_ids, held_points, bags, train_bags, k
            )
        except ParameterError:
            # a training bag's label without a same-label or an other-label group
            with pytest.raises(ParameterError, match="distance gap: "):
                rewards.heldout_layout(regime, train_ids, bags, frozenset({0}), 4, train_bags)
            return
        layout = rewards.heldout_layout(regime, train_ids, bags, frozenset({0}), 4, train_bags)
        with mock.patch.object(rewards, "_GAP_BLOCK_ELEMENTS", block_elements):
            raw = rewards.raw_distance_gaps(train_points, held_points, layout.distgap, k)
        assert raw.dtype == np.float64 and raw.tobytes() == expected.tobytes()

    def test_peak_memory_stays_flat_as_training_rows_grow(self):
        # the kernel takes a block of training rows at a time: whole, the
        # (train, held-out, d) difference array alone would be 8x the matrix
        rng = np.random.default_rng(0)
        num_held, dim = 3000, 8
        bounds = np.cumsum(rng.integers(3, 11, size=num_held // 3))
        held_ids = np.arange(num_held)
        bags = [
            Bag(b, members.tolist(), WeakLabel.binary(b % 2))
            for b, members in enumerate(np.split(held_ids, bounds[bounds < num_held]))
        ]
        held_points = rng.normal(size=(num_held, dim))
        peaks = {}
        for num_train in (300, 1200):
            train_ids = list(range(num_held, num_held + num_train))
            train_bags = {x: Bag(x, [x], WeakLabel.binary(x % 2)) for x in train_ids}
            layout = rewards.heldout_layout(
                "binary-mil", train_ids, bags, frozenset({0}), 2, train_bags
            )
            train_points = rng.normal(size=(num_train, dim))
            tracemalloc.start()
            try:
                rewards.raw_distance_gaps(train_points, held_points, layout.distgap, 5)
                peaks[num_train] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[300] < 4 * 300 * num_held * 8, peaks
        # 4x the rows adds only the 900 rows' gaps (8 bytes each) to the output
        assert peaks[1200] < peaks[300] + 900 * 8 + 4096, peaks

    @pytest.mark.parametrize("space", ["features", "output"])
    def test_kfold_infer_runs_kernel_once_per_fold_or_scored_member(self, monkeypatch, space):
        dataset = generate_binary_mil(24, (3, 6), 0.5, 3, 6.0, seed=8)
        kernel, score = rewards.raw_distance_gaps, RewardEnvironment._score
        calls = {"kernel": 0, "scored": 0}

        def counting_kernel(*args, **kwargs):
            calls["kernel"] += 1
            return kernel(*args, **kwargs)

        def counting_score(*args, **kwargs):
            calls["scored"] += 1
            return score(*args, **kwargs)

        def scalar(*args, **kwargs):
            raise AssertionError("the scalar distance_gap ran")

        monkeypatch.setattr(rewards, "raw_distance_gaps", counting_kernel)
        monkeypatch.setattr(RewardEnvironment, "_score", counting_score)
        monkeypatch.setattr(rewards, "distance_gap", scalar)
        kfold_infer(dataset, InferenceConfig(
            regime="binary-mil", rounds=4, batch_size=2, folds=3, master_seed=5,
            reward=RewardParams(k=3, distgap_enabled=True, distgap_space=space),
        ))
        assert calls["scored"] > 3
        assert calls["kernel"] == (3 if space == "features" else calls["scored"])


def test_k_above_pool_warns_once_per_fold(caplog):
    dataset = generate_binary_mil(14, (3, 6), 0.5, 3, 6.0, seed=8)
    with caplog.at_level(logging.WARNING, logger="labelbandit.rewards"):
        kfold_infer(dataset, InferenceConfig(
            regime="binary-mil", rounds=5, batch_size=2, folds=3, master_seed=5,
            reward=RewardParams(k=60),
        ))
    warned = [r.getMessage() for r in caplog.records if "exceeds the held-out pool" in r.getMessage()]
    assert len(warned) == 3, warned
    assert all(message.startswith("k=60 exceeds") for message in warned)


class TestLlpReward:
    def build_context(self, proportions, held_d, params, train_d=1.0):
        held_ids = list(range(20, 20 + len(held_d)))
        groups = np.array_split(held_ids, len(proportions))
        bags = [
            Bag(b, [int(i) for i in members], WeakLabel.proportion(p))
            for b, (members, p) in enumerate(zip(groups, proportions))
        ]
        return context(
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
        with pytest.raises(ValidationError, match="bag 0: regime 'llp' needs 'proportion'"):
            context(
                "llp", params,
                (predictions([0], mirrored([1.0])), predictions([5], mirrored([1.0]))),
                bags,
            )


class TestContextInputs:
    def test_overlapping_heldout_bags_rejected(self):
        held = predictions([10, 11, 12], mirrored([1.0, -1.0, 2.0]))
        bags = [Bag(0, [10, 11], WeakLabel.binary(1)), Bag(1, [11, 12], WeakLabel.binary(0))]
        with pytest.raises(ValidationError, match=r"instance 11 sits in bag 0 and in bag 1"):
            context(
                "binary-mil", RewardParams(k=2),
                (predictions([0], mirrored([1.0])), held), bags,
            )

    def test_layout_for_other_ids_rejected(self):
        bags = [Bag(0, [10, 11], WeakLabel.binary(1)), Bag(1, [12], WeakLabel.binary(0))]
        layout = rewards.heldout_layout("binary-mil", [0], bags, frozenset({0}), 2)
        train = predictions([0], mirrored([1.0]))
        ctx = build_reward_context(
            RewardParams(k=2),
            (train, predictions([10, 11, 12], mirrored([1.0, -1.0, 2.0]))), layout,
        )
        assert ctx.rec_row.tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(ValidationError, match="layout belongs to another regime"):
            build_reward_context(
                RewardParams(k=2),
                (train, predictions([10, 11, 13], mirrored([1.0, -1.0, 2.0]))), layout,
            )


class TestRewardEnvironment:
    def build_environment(self, seed=0, **params_kw):
        dataset = generate_binary_mil(14, (3, 6), 0.5, 3, 6.0, seed=seed)
        env = RewardEnvironment(
            dataset, dataset.bags[:5], dataset.bags[5:], ClassifierSpec("linear-svm", 2),
            RewardParams(**params_kw),
        )
        truth = dataset.ground_truth_map()
        # the true labels as a label array row-aligned with the ascending train_ids
        return env, np.array([truth[i] for i in env.train_ids], dtype=np.int64)

    def test_ground_truth_beats_flipped_labels(self):
        env, truth = self.build_environment(seed=1)
        rng = np.random.default_rng(0)
        good = np.mean(env(truth, rng))
        bad = np.mean(env(1 - truth, np.random.default_rng(0)))
        assert good > bad

    def test_rewards_bounded_for_random_assignments(self):
        env, truth = self.build_environment(seed=2)
        rng = np.random.default_rng(1)
        for _ in range(25):
            values = env.evaluate(rng.integers(2, size=len(truth)), rng)
            assert values.dtype == np.float64 and values.shape == truth.shape
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_identical_seed_identical_rewards(self):
        env, truth = self.build_environment(seed=3)
        a = env(truth, np.random.default_rng(42))
        b = env(truth, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_missing_assignment_entry_rejected(self):
        # a labelling one instance short is a wrong-length array
        env, truth = self.build_environment(seed=4)
        with pytest.raises(ParameterError, match="one label per training instance"):
            env(truth[:-1], np.random.default_rng(0))

    def test_bag_both_trained_and_held_out_rejected(self, monkeypatch):
        dataset = generate_binary_mil(14, (3, 6), 0.5, 3, 6.0, seed=4)
        shared = dataset.bags[4]

        def no_fit(*args, **kwargs):
            raise AssertionError("a classifier was fitted")

        monkeypatch.setattr(rewards, "fit", no_fit)
        with pytest.raises(ValidationError, match=rf"bag {shared.id} is both a training and"):
            RewardEnvironment(
                dataset, dataset.bags[:5], dataset.bags[4:], ClassifierSpec("linear-svm", 2),
                RewardParams(k=3),
            )

    @pytest.mark.parametrize("off_by", [1, -1])
    def test_classifier_width_must_match_the_label_space(self, monkeypatch, off_by):
        """A spec one class wider or narrower than the dataset's classes plus
        its extra negative modes is refused at construction, before any fit."""
        pool = generate_gaussian_blobs(6, 30, 2, 6.0, seed=8)
        dataset = generate_multiclass_mil(pool, 16, (3, 7), {1, 2, 3}, seed=9)
        params = RewardParams(k=3, num_negative_labels=2)
        width = extended_num_classes(dataset.num_classes, 2)

        def no_fit(*args, **kwargs):
            raise AssertionError("a classifier was fitted")

        monkeypatch.setattr(rewards, "fit", no_fit)
        spec = ClassifierSpec("cooperative-softmax", width + off_by)
        with pytest.raises(ParameterError, match=rf"{width + off_by} classes; .* need {width}"):
            RewardEnvironment(dataset, dataset.bags[:8], dataset.bags[8:], spec, params)
        spec = ClassifierSpec("cooperative-softmax", width)
        RewardEnvironment(dataset, dataset.bags[:8], dataset.bags[8:], spec, params)

    def test_fixed_labels_outside_the_training_bags_are_the_extras(self):
        """The extras are what the pipeline used to pass: the fixed ids outside
        the training bags in ascending order, their features stacked under the
        fold's and their labels, a negative mode above the classes included."""
        pool = generate_gaussian_blobs(6, 30, 2, 6.0, seed=8)
        dataset = generate_multiclass_mil(pool, 16, (3, 7), {1, 2, 3}, seed=9)
        train_bags, held_bags = dataset.bags[:8], dataset.bags[8:]
        index = dataset.instance_map()
        ids = [iid for bag in dataset.bags for iid in bag.instance_ids]
        labels = [0, 1, 2, 3, dataset.num_classes]
        # insertion order is neither ascending nor by bag; some fixed ids are trained on
        fixed = {x: labels[x % len(labels)] for x in reversed(ids[::3])}
        params = RewardParams(k=3, num_negative_labels=2)
        spec = ClassifierSpec("cooperative-softmax", dataset.num_classes + 1)
        env = RewardEnvironment(dataset, train_bags, held_bags, spec, params, fixed)

        train_set = {iid for bag in train_bags for iid in bag.instance_ids}
        extra_ids = [x for x in sorted(fixed) if x not in train_set]
        assert extra_ids and len(extra_ids) < len(fixed)
        expected_features = np.vstack([
            np.stack([index[x].features for x in sorted(train_set)]),
            np.array([index[x].features for x in extra_ids]),
        ])
        expected_labels = np.array([fixed[x] for x in extra_ids], dtype=np.intp)
        assert env._fit_features.tobytes() == expected_features.tobytes()
        assert env._extra_labels.dtype == np.intp
        assert env._extra_labels.tolist() == expected_labels.tolist()
        assert dataset.num_classes in env._extra_labels.tolist()

        trained_only = {x: 1 for x in train_set}
        for no_extras in (None, {}, trained_only):
            env = RewardEnvironment(dataset, train_bags, held_bags, spec, params, no_extras)
            assert env._extra_labels is None and env._fit_features is env.train_features

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
        bag_of = {iid: bag for bag in dataset.bags for iid in bag.instance_ids}

        def bag_features(bags):
            return [np.stack([index[i].features for i in bag.instance_ids]) for bag in bags]

        assert env._raw_distgap.shape == (len(env.train_ids),)
        for row, x in enumerate(env.train_ids):
            own = bag_of[x].weak_label
            same = bag_features([b for b in env.layout.bags if b.weak_label == own])
            other = bag_features([b for b in env.layout.bags if b.weak_label != own])
            assert env._raw_distgap[row] == distance_gap(index[x].features, same, other, k=3)

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
        for ctx, (_, (_, held), layout), kwargs in built:
            negatives = negative_modes(layout) if regime == "multiclass-mil" else None
            assert_tables_match_oracles(ctx, held, layout.bags, negatives)

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

        def calling(env, labels, rngs):
            # one call scores a whole batch, one context per member in batch order
            values = call(env, labels, rngs)
            for member, member_values in zip(np.asarray(labels), values):
                scored.append((dict(zip(env.train_ids, member.tolist())), member_values))
            return values

        monkeypatch.setattr(rewards, "build_reward_context", building)
        monkeypatch.setattr(RewardEnvironment, "__call__", calling)
        kfold_infer(dataset, InferenceConfig(
            regime=regime, rounds=4, batch_size=2, folds=2, master_seed=5, reward=params
        ))
        assert len(contexts) == len(scored) > 0
        checked = 0
        for ctx, (assignment, values) in zip(contexts, scored):
            for (x, assigned), value in zip(assignment.items(), values.tolist()):
                assert value == reward_oracle(x, assigned, ctx, params)  # bit for bit
                checked += value > 0.0
        assert checked > 0


def fold_environment(regime, params, bootstrap_extras=False, num_bags=24):
    """A RewardEnvironment fitting on the first half of a generated dataset's
    bags and holding out the second half, and its classifier's class count.
    With ``bootstrap_extras`` the first held-out bags' instances join every
    fit with their true labels."""
    if regime == "multiclass-mil":
        pool = generate_gaussian_blobs(6, 8 * num_bags, 2, 6.0, seed=8)
        dataset = generate_multiclass_mil(pool, num_bags, (3, 7), {1, 2, 3}, seed=9)
        spec = ClassifierSpec("cooperative-softmax", dataset.num_classes)
    else:
        dataset = generate_binary_mil(num_bags, (3, 6), 0.5, 3, 6.0, seed=8)
        if regime == "llp":
            dataset = with_proportion_labels(dataset)
        spec = ClassifierSpec("linear-svm", 2)
    half = len(dataset.bags) // 2
    train_bags, held_bags = dataset.bags[:half], dataset.bags[half:]
    fixed = None
    if bootstrap_extras:
        truth = dataset.ground_truth_map()
        fixed = {i: truth[i] for b in held_bags[:3] for i in b.instance_ids}
    return RewardEnvironment(dataset, train_bags, held_bags, spec, params, fixed), spec.num_classes


class TestBatchedEnvironment:
    """One call scoring a batch fits its members together; each member's
    rewards must equal those of a call of its own, in batch order."""

    @pytest.mark.parametrize(
        "regime, params, extras",
        [
            ("binary-mil", RewardParams(k=5), False),
            ("binary-mil", RewardParams(k=5), True),
            ("binary-mil", RewardParams(k=4, distgap_enabled=True, distgap_space="features"),
             False),
            # tau unset: the first member of the first batch calibrates it
            ("binary-mil", RewardParams(k=4, distgap_enabled=True), False),
            ("binary-mil", RewardParams(k=4, distgap_enabled=True, tau=0.5), True),
            ("multiclass-mil", RewardParams(k=6, alpha=0.5, num_negative_labels=1), False),
            ("multiclass-mil", RewardParams(k=6, alpha=0.5, num_negative_labels=1), True),
            ("llp", RewardParams(k=4), False),
        ],
        ids=["bin", "bin-extras", "bin-gap-features", "bin-gap-output-tau-unset",
             "bin-gap-output-extras", "mc", "mc-extras", "llp"],
    )
    def test_batch_call_equals_member_calls(self, regime, params, extras):
        (batched, num_classes), (alone, _) = (
            fold_environment(regime, params, extras) for _ in range(2)
        )
        rng = np.random.default_rng(3)
        for width in (3, 2):
            labels = rng.integers(0, num_classes, size=(width, len(batched.train_ids)))
            seeds = rng.integers(0, 2**63, size=width)
            expected = [alone(row, np.random.default_rng(s)) for row, s in zip(labels, seeds)]
            got = batched(list(labels), [np.random.default_rng(s) for s in seeds])
            assert got.shape == labels.shape and got.dtype == np.float64
            assert got.tobytes() == np.array(expected).tobytes()
            assert np.count_nonzero(got) > 0
        assert batched._tau == alone._tau

    def test_batch_needs_one_rng_per_member(self):
        env, _ = fold_environment("binary-mil", RewardParams(k=3))
        labels = np.zeros((2, len(env.train_ids)), dtype=np.int64)
        with pytest.raises(ParameterError, match="one label per training instance"):
            env(labels, [np.random.default_rng(0)])

    def test_batch_peak_memory_stays_near_one_member(self):
        # members are fitted together but predicted and scored one at a time,
        # so a batch's peak stays near a single labelling's
        env, num_classes = fold_environment(
            "multiclass-mil", RewardParams(k=5, alpha=0.5, num_negative_labels=1), num_bags=120
        )
        labels = np.random.default_rng(4).integers(0, num_classes, (4, len(env.train_ids)))
        env(labels[0], np.random.default_rng(0))  # warm caches outside the measurement

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: env(labels[0], np.random.default_rng(1)))
        four = peak(lambda: env(labels, [np.random.default_rng(s) for s in range(4)]))
        assert four <= 1.25 * one, (one, four)


class TestDispatch:
    def test_custom_regime_rejected(self):
        params = RewardParams()
        empty = predictions([], np.empty((0, 2)))
        with pytest.raises(RegimeError):
            context("custom", params, (empty, empty), [])

    def test_reward_for_routes_by_regime(self):
        rng = np.random.default_rng(9)
        params = RewardParams(k=2)
        ctx, _, _ = random_binary_context(rng, params)
        x = 0
        assigned = predicted_label(x, ctx)
        assert reward_for(x, assigned, ctx, params) == mil_reward(x, assigned, ctx, params)
