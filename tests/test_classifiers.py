"""Linear classifiers: training, prediction, gradients, and kNN search."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from classifier_helpers import cooperative_nll_dz_add_at, cooperative_sigma_3d, loop_fit
from hypothesis.extra import numpy as hnp
from reward_helpers import context, predictions

from labelbandit import rewards
from labelbandit.classifiers import (
    ClassifierSpec,
    TrainedModel,
    _cooperative_nll_dz,
    _cooperative_sigma,
    cooperative_gradient,
    cooperative_objective,
    fit,
    initial_weights,
    load_model,
    model_from_json,
    model_to_json,
    nearest_indices,
    nearest_indices_1d,
    nearest_indices_rows,
    predict_arrays,
    save_model,
    singleton_grouping,
    training_loss,
)
from labelbandit.errors import ParameterError, ValidationError
from labelbandit.rewards import RewardParams


def separable_data(rng, n=80, dim=3, classes=2, scale=4.0):
    y = rng.integers(0, classes, n)
    centers = rng.normal(size=(classes, dim)) * scale
    X = centers[y] + rng.normal(size=(n, dim))
    return X, y


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            ClassifierSpec("forest", 2)

    def test_grouping_must_partition(self):
        with pytest.raises(ParameterError):
            ClassifierSpec("cooperative-softmax", 3, grouping=((0, 1),))
        with pytest.raises(ParameterError):
            ClassifierSpec("cooperative-softmax", 3, grouping=((0, 1), (1, 2)))

    def test_default_grouping_is_singletons(self):
        spec = ClassifierSpec("cooperative-softmax", 3)
        assert spec.grouping == ((0,), (1,), (2,))

    def test_svm_binary_uses_single_output(self):
        assert ClassifierSpec("linear-svm", 2).num_outputs == 1
        assert ClassifierSpec("linear-svm", 4).num_outputs == 4


class TestFit:
    def test_two_separable_points(self):
        X = np.array([[-2.0], [2.0]])
        y = np.array([0, 1])
        model = fit(ClassifierSpec("linear-svm", 2), X, y)
        labels, _ = predict_arrays(model, X)
        assert labels.tolist() == [0, 1]

    @pytest.mark.parametrize("kind", ["linear-svm", "softmax", "cooperative-softmax"])
    def test_loss_descends_from_initial_weights(self, kind):
        rng = np.random.default_rng(2)
        X, y = separable_data(rng, classes=3)
        spec = ClassifierSpec(kind, 3, seed=5)
        start = training_loss(spec, initial_weights(spec, X.shape[1]), X, y)
        model = fit(spec, X, y)
        assert training_loss(spec, model.weights, X, y) <= start

    @pytest.mark.parametrize("kind", ["linear-svm", "softmax", "cooperative-softmax"])
    def test_seeded_determinism(self, kind):
        rng = np.random.default_rng(3)
        X, y = separable_data(rng, classes=3)
        spec = ClassifierSpec(kind, 3)
        a = fit(spec, X, y, seed=11).weights
        b = fit(spec, X, y, seed=11).weights
        assert np.array_equal(a, b)

    def test_single_class_input_still_returns_model(self):
        X = np.ones((5, 2))
        y = np.zeros(5, dtype=int)
        model = fit(ClassifierSpec("softmax", 3), X, y)
        assert np.all(np.isfinite(model.weights))

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValidationError):
            fit(ClassifierSpec("softmax", 2), np.array([[np.inf]]), np.array([0]))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            fit(ClassifierSpec("softmax", 2), np.ones((2, 1)), np.array([0, 5]))

    def test_sample_weight_zero_freezes_instance_influence(self):
        rng = np.random.default_rng(4)
        X, y = separable_data(rng, n=40)
        weights_without = fit(ClassifierSpec("softmax", 2), X[:-1], y[:-1], seed=0).weights
        flipped = y.copy()
        flipped[-1] = 1 - flipped[-1]
        sample_weight = np.ones(40)
        sample_weight[-1] = 0.0
        weights_zeroed = fit(
            ClassifierSpec("softmax", 2), X, flipped, sample_weight=sample_weight, seed=0
        ).weights
        # a zero-weight instance contributes nothing to the loss, so only the
        # minibatch partitioning can differ; the fit must stay finite and close
        assert np.all(np.isfinite(weights_zeroed))
        assert np.linalg.norm(weights_zeroed - weights_without) < 1.0

    def test_stacked_fit_needs_one_seed_and_weight_row_per_member(self):
        X, labels = np.ones((4, 2)), np.zeros((3, 4), dtype=int)
        spec = ClassifierSpec("softmax", 2)
        assert len(fit(spec, X, labels)) == 3
        with pytest.raises(ValidationError, match="2 seeds for 3 label rows"):
            fit(spec, X, labels, seed=[1, 2])
        with pytest.raises(ValidationError, match="sample_weight"):
            fit(spec, X, labels, sample_weight=np.ones(4), seed=[1, 2, 3])
        with pytest.raises(ValidationError, match="does not match 4 instances"):
            fit(spec, X, np.zeros((3, 5), dtype=int), seed=[1, 2, 3])


def random_grouping(draw, num_classes):
    """A partition of the class ids; all singletons about a third of the time."""
    if draw(st.integers(0, 2)) == 0:
        return singleton_grouping(num_classes)
    group_of = draw(st.lists(st.integers(0, num_classes - 1), min_size=num_classes,
                             max_size=num_classes))
    groups = {}
    for c, g in enumerate(group_of):
        groups.setdefault(g, []).append(c)
    return tuple(tuple(group) for group in groups.values())


class TestStackedFit:
    """A (B, n) fit steps the members' minibatches together; each member's
    weights must equal its own lone fit and the one-minibatch-at-a-time loop
    bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_members_equal_sequential_fits(self, data):
        kind, num_classes = data.draw(st.sampled_from(
            [("linear-svm", 2), ("linear-svm", 4), ("softmax", 3), ("cooperative-softmax", 5)]
        ))
        cooperative = kind == "cooperative-softmax"
        grouping = random_grouping(data.draw, num_classes) if cooperative else None
        batch_size = data.draw(st.integers(1, 9))
        # n below, equal to, a multiple of, or not a multiple of the batch size
        n = data.draw(st.sampled_from(
            [max(1, batch_size - 1), batch_size, 3 * batch_size, 2 * batch_size + 1]
        ))
        members = data.draw(st.integers(1, 5))
        spec = ClassifierSpec(
            kind, num_classes, grouping=grouping, epochs=3, batch_size=batch_size,
            l2=data.draw(st.sampled_from([0.0, 1e-3, 0.1])),
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        X = rng.normal(size=(n, 3)) * 3.0
        labels = rng.integers(0, num_classes, size=(members, n))
        seeds = [int(s) for s in rng.integers(0, 2**63, size=members)]
        weighted = data.draw(st.booleans())
        sample_weight = rng.uniform(0.0, 2.0, size=(members, n)) if weighted else None
        stacked = fit(spec, X, labels, sample_weight=sample_weight, seed=seeds)
        assert len(stacked) == members
        for b, model in enumerate(stacked):
            weight = None if sample_weight is None else sample_weight[b]
            alone = fit(spec, X, labels[b], sample_weight=weight, seed=seeds[b])
            reference = loop_fit(spec, X, labels[b], sample_weight=weight, seed=seeds[b])
            assert model.weights.shape == (spec.num_outputs, 4)
            assert model.weights.tobytes() == alone.weights.tobytes() == reference.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_indexed_scatter_matches_add_at(self, data):
        # up to 12 groups: numpy sums 8 or more terms pairwise
        num_classes = data.draw(st.integers(2, 12))
        grouping = random_grouping(data.draw, num_classes)
        rows = data.draw(st.integers(1, 20))
        # a few distinct values make score ties within groups common
        values = st.sampled_from([-2.0, 0.0, 0.5, 3.0]) | st.floats(-30.0, 30.0)
        z = data.draw(hnp.arrays(np.float64, (rows, num_classes), elements=values))
        labels = data.draw(hnp.arrays(np.intp, rows, elements=st.integers(0, num_classes - 1)))
        expected = cooperative_nll_dz_add_at(z, labels, grouping)
        assert _cooperative_nll_dz(z, labels, grouping).tobytes() == expected.tobytes()


def grouping_of_size(draw, num_groups):
    """A partition of 2 to num_groups + 3 class ids into exactly num_groups
    groups, in a drawn group order."""
    num_classes = draw(st.integers(max(2, num_groups), num_groups + 3))
    spread = draw(st.lists(st.integers(0, num_groups - 1), min_size=num_classes - num_groups,
                           max_size=num_classes - num_groups))
    group_of = draw(st.permutations(list(range(num_groups)) + spread))
    groups = [[c for c, g in enumerate(group_of) if g == gi] for gi in range(num_groups)]
    return tuple(tuple(group) for group in draw(st.permutations(groups)))


class TestPredict:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cooperative_sigma_matches_3d_oracle(self, data):
        """The per-group sum equals the (rows, classes, groups) form bit for
        bit on both sides of 8 groups, with ties and saturated scores."""
        grouping = grouping_of_size(data.draw, data.draw(st.integers(1, 12)))
        num_classes = sum(len(group) for group in grouping)
        rows = data.draw(st.integers(1, 20))
        values = st.sampled_from([-500.0, -2.0, 0.0, 0.5, 3.0, 500.0]) | st.floats(-500.0, 500.0)
        z = data.draw(hnp.arrays(np.float64, (rows, num_classes), elements=values))
        expected = cooperative_sigma_3d(z, grouping)
        assert _cooperative_sigma(z, grouping).tobytes() == expected.tobytes()

    def test_zero_weight_softmax_is_uniform_label_zero(self):
        spec = ClassifierSpec("softmax", 4)
        model = TrainedModel(np.zeros((4, 3)), spec)
        labels, emb = predict_arrays(model, np.ones((2, 2)))
        assert np.allclose(emb, 0.25)
        assert labels.tolist() == [0, 0]

    def test_svm_decision_embedding_convention(self):
        spec = ClassifierSpec("linear-svm", 2)
        model = TrainedModel(np.array([[1.0, 0.0]]), spec)  # w=1, bias 0
        labels, emb = predict_arrays(model, np.array([[5.0]]))
        assert labels.tolist() == [1]
        assert np.allclose(emb[0], [-5.0, 5.0])

    def test_label_is_argmax_of_embedding(self):
        rng = np.random.default_rng(6)
        for kind, classes in (("linear-svm", 3), ("softmax", 4), ("cooperative-softmax", 4)):
            X, y = separable_data(rng, classes=classes)
            model = fit(ClassifierSpec(kind, classes), X, y)
            labels, emb = predict_arrays(model, X)
            assert np.array_equal(labels, np.argmax(emb, axis=1))

    def test_softmax_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        X, y = separable_data(rng, classes=3)
        model = fit(ClassifierSpec("softmax", 3), X, y)
        _, emb = predict_arrays(model, X)
        assert np.allclose(emb.sum(axis=1), 1.0, atol=1e-6)

    def test_cooperative_components_within_unit_interval(self):
        rng = np.random.default_rng(8)
        X, y = separable_data(rng, classes=4, scale=1.0)
        grouping = ((0, 3), (1,), (2,))
        model = fit(ClassifierSpec("cooperative-softmax", 4, grouping=grouping), X, y)
        _, emb = predict_arrays(model, X)
        assert emb.min() > 0.0 and emb.max() <= 1.0
        # grouped classes do not compete, so rows need not sum to one
        assert not np.allclose(emb.sum(axis=1), 1.0)

    def test_dimension_mismatch_rejected(self):
        model = TrainedModel(np.zeros((2, 4)), ClassifierSpec("softmax", 2))
        with pytest.raises(ValidationError, match="dimension"):
            predict_arrays(model, np.ones((1, 7)))


class TestCooperativeObjective:
    def test_singleton_grouping_reduces_to_softmax(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 5, 50)
        W = rng.normal(size=(5, 5))
        xb = np.hstack([X, np.ones((50, 1))])
        z = xb @ W.T
        zs = z - z.max(axis=1, keepdims=True)
        log_softmax = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
        expected = float(np.mean(log_softmax[np.arange(50), y]))
        actual = cooperative_objective(W, X, y, singleton_grouping(5))
        assert actual == pytest.approx(expected, abs=1e-9)

    def test_singleton_grouping_predictions_match_softmax_fit(self):
        rng = np.random.default_rng(10)
        X, y = separable_data(rng, classes=3)
        coop = fit(ClassifierSpec("cooperative-softmax", 3), X, y, seed=4)
        soft = fit(ClassifierSpec("softmax", 3), X, y, seed=4)
        coop_labels, _ = predict_arrays(coop, X)
        soft_labels, _ = predict_arrays(soft, X)
        assert (coop_labels == soft_labels).mean() >= 0.95

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(11)
        grouping = ((0, 2, 4), (1,), (3,))
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 5, 30)
        for trial in range(5):
            W = rng.normal(size=(5, 4))
            grad = cooperative_gradient(W, X, y, grouping)
            h = 1e-6
            for _ in range(20):
                i = int(rng.integers(5))
                j = int(rng.integers(4))
                Wp, Wm = W.copy(), W.copy()
                Wp[i, j] += h
                Wm[i, j] -= h
                numeric = (
                    cooperative_objective(Wp, X, y, grouping)
                    - cooperative_objective(Wm, X, y, grouping)
                ) / (2 * h)
                assert grad[i, j] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_extreme_scores_stay_finite(self):
        spec = ClassifierSpec("cooperative-softmax", 4, grouping=((0, 1), (2,), (3,)))
        weights = np.array(
            [[500.0, 0.0], [250.0, 0.0], [-500.0, 0.0], [1.0, 0.0]]
        )
        model = TrainedModel(weights, spec)
        _, emb = predict_arrays(model, np.array([[2.0], [-2.0], [0.0]]))
        assert np.all(np.isfinite(emb))
        # one gradient step from scores of several hundred
        step = replace(spec, epochs=1, batch_size=3)
        X = np.array([[5e4], [-5e4], [0.0]])
        assert np.abs(X @ initial_weights(step, 1)[:, :1].T).max() > 100.0
        model = fit(step, X, np.array([0, 2, 3]))
        assert np.all(np.isfinite(model.weights))


def full_space(pool, query, k):
    """Membership of the k nearest pool rows to one query, as the rewards search them."""
    pool = np.asarray(pool, dtype=np.float64)
    (hits,) = rewards._full_space_neighbors(np.atleast_2d(query).astype(np.float64), pool, k)
    return sorted(int(v) for v in hits)


def along_dimension(pool_values, query_value, k):
    """k nearest pool positions along one output coordinate, nearest first."""
    (hits,) = nearest_indices_1d(np.asarray(pool_values, float), np.array([query_value]), k)
    return [int(v) for v in hits]


class TestNearestNeighbours:
    def test_k_equal_to_pool_returns_everything(self):
        pool = [[float(i)] for i in range(4)]
        assert full_space(pool, [0.2], k=4) == [0, 1, 2, 3]
        assert sorted(along_dimension([0.0, 1.0, 2.0, 3.0], 0.2, k=4)) == [0, 1, 2, 3]

    def test_single_nearest_by_absolute_difference(self):
        assert full_space([[0.0], [1.0], [5.0]], [0.9], k=1) == [1]
        assert along_dimension([0.0, 1.0, 5.0], 0.9, k=1) == [1]

    def test_distance_tie_goes_to_lower_index(self):
        assert full_space([[2.0], [0.0]], [1.0], k=1) == [0]
        assert along_dimension([2.0, 0.0], 1.0, k=1) == [0]

    def test_predicted_class_dimension_mode(self):
        # the query predicts class 1, so only coordinate 1 counts
        pool = np.array([[0.0, 9.0], [5.0, 1.1]])
        query = np.array([0.0, 1.0])
        assert along_dimension(pool[:, 1], query[1], k=1) == [1]

    def test_empty_pool_rejected(self):
        with pytest.raises(ParameterError, match="held-out set is empty"):
            context(
                "binary-mil", RewardParams(k=1),
                (predictions([0], [[0.0, 0.0]]), predictions([], np.empty((0, 2)))), [],
            )

    def test_matches_exhaustive_sort(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            pool_emb = rng.normal(size=(int(rng.integers(2, 40)), 3))
            query_label = int(rng.integers(3))
            query = rng.normal(size=3)
            k = int(rng.integers(1, len(pool_emb) + 2))
            expected = min(k, len(pool_emb))
            d = np.linalg.norm(pool_emb - query, axis=1)
            order = sorted(range(len(pool_emb)), key=lambda i: (d[i], i))
            assert full_space(pool_emb, query, k) == sorted(order[:expected])
            d = np.abs(pool_emb[:, query_label] - query[query_label])
            order = sorted(range(len(pool_emb)), key=lambda i: (d[i], i))
            assert along_dimension(pool_emb[:, query_label], query[query_label], k) == order[
                :expected
            ]

    def test_row_batched_membership_matches_single(self):
        rng = np.random.default_rng(13)
        D = rng.random((15, 25))
        D[3, :] = 0.5  # force heavy ties
        for k in (1, 3, 25):
            rows = nearest_indices_rows(D, k)
            for i in range(15):
                assert sorted(int(v) for v in rows[i]) == sorted(nearest_indices(D[i], k))

    def test_one_dimensional_shortcut_matches_matrix_path(self):
        # tie-free values: the shortcut must agree with the matrix rule exactly
        rng = np.random.default_rng(14)
        for _ in range(20):
            pool = rng.random(int(rng.integers(3, 60)))
            queries = rng.random(10)
            k = int(rng.integers(1, 8))
            fast = nearest_indices_1d(pool, queries, k)
            slow = nearest_indices_rows(np.abs(pool[None, :] - queries[:, None]), k)
            for a, b in zip(fast, slow):
                assert sorted(int(v) for v in a) == sorted(int(v) for v in b)

    def test_one_dimensional_shortcut_tie_handling(self):
        # heavy duplicates: the distance multiset must match the matrix rule
        # and the choice must be deterministic
        rng = np.random.default_rng(15)
        pool = rng.choice(np.linspace(0, 1, 5), size=50)
        queries = rng.random(8)
        k = 4
        fast = nearest_indices_1d(pool, queries, k)
        again = nearest_indices_1d(pool, queries, k)
        slow = nearest_indices_rows(np.abs(pool[None, :] - queries[:, None]), k)
        for q, a, a2, b in zip(queries, fast, again, slow):
            assert np.array_equal(a, a2)
            assert sorted(abs(pool[int(v)] - q) for v in a) == pytest.approx(
                sorted(abs(pool[int(v)] - q) for v in b)
            )


def small_int_matrix(shape, low=0, high=4):
    """Integer-valued float matrices: exact distances, frequent ties."""
    return hnp.arrays(np.int64, shape, elements=st.integers(low, high)).map(
        lambda a: a.astype(np.float64)
    )


class TestNeighbourProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_membership_is_first_k_of_single_row_rule(self, data):
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        dist = data.draw(small_int_matrix((n, m)))
        k = data.draw(st.integers(1, m + 2))
        rows = nearest_indices_rows(dist, k)
        for i in range(n):
            assert sorted(int(v) for v in rows[i]) == sorted(nearest_indices(dist[i], k))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_full_space_blocks_match_brute_force(self, data):
        dim, m, nq = (data.draw(st.integers(*r)) for r in ((1, 3), (1, 8), (2, 9)))
        pool = data.draw(small_int_matrix((m, dim), -3, 3))
        queries = data.draw(small_int_matrix((nq, dim), -3, 3))
        k = data.draw(st.integers(1, m + 1))
        block_rows = data.draw(st.integers(1, nq - 1))  # so the queries span several blocks
        with mock.patch.object(rewards, "_NEIGHBOR_BLOCK_ELEMENTS", block_rows * m * dim):
            found = rewards._full_space_neighbors(queries, pool, k)
        assert len(found) == nq
        for query, hits in zip(queries, found):
            brute = nearest_indices(np.linalg.norm(pool - query, axis=1), k)
            assert sorted(int(v) for v in hits) == sorted(brute)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=30, unique=True),
        st.lists(st.integers(-60, 60), min_size=1, max_size=8),
        st.integers(1, 8),
    )
    def test_one_dimensional_shortcut_is_matrix_rule_without_ties(self, pool, queries, k):
        # distinct integer pool values and queries a quarter off the integers
        # make every query's distances distinct
        pool = np.array(pool, dtype=np.float64)
        queries = np.array(queries, dtype=np.float64) + 0.25
        dist = np.abs(pool[None, :] - queries[:, None])
        fast = nearest_indices_1d(pool, queries, k)
        rows = nearest_indices_rows(dist, k)
        for i in range(len(queries)):
            assert [int(v) for v in fast[i]] == nearest_indices(dist[i], k)
            assert sorted(int(v) for v in fast[i]) == sorted(int(v) for v in rows[i])


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        X, y = separable_data(rng, classes=3)
        grouping = ((0, 2), (1,))
        model = fit(ClassifierSpec("cooperative-softmax", 3, grouping=grouping), X, y)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again.spec.kind == "cooperative-softmax"
        assert again.spec.grouping == grouping
        assert np.array_equal(again.weights, model.weights)

    def test_json_shape(self):
        model = TrainedModel(np.zeros((1, 2)), ClassifierSpec("linear-svm", 2))
        doc = model_to_json(model)
        assert set(doc) == {"kind", "num_classes", "grouping", "weights"}
        assert model_from_json(doc).spec.num_classes == 2
