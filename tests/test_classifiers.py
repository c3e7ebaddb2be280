"""Linear classifiers: training, prediction, gradients, serialization."""

import gc
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from classifier_helpers import (
    cooperative_gradient,
    cooperative_nll_dz_add_at,
    cooperative_objective,
    cooperative_sigma_3d,
    loop_fit,
    training_loss,
)
from hypothesis.extra import numpy as hnp

from labelbandit.classifiers import (
    ClassifierSpec,
    TrainedModel,
    _cooperative_nll_dz,
    _cooperative_sigma,
    _group_max_scores,
    _group_sum,
    fit,
    initial_weights,
    model_from_json,
    model_to_json,
    predict_arrays,
    save_model,
    singleton_grouping,
)
from labelbandit.errors import ParameterError, ValidationError


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

    @pytest.mark.parametrize(
        "grouping, message",
        [
            (((0.7, 1), (2.9,)), "grouping class id must be a whole number, got 0.7"),
            (((0, True), (2,)), "grouping class id must be a whole number, got True"),
            (((-1, 0, 1), (2,)), "grouping class id must be >= 0, got -1"),
        ],
        ids=["fraction", "bool", "negative"],
    )
    def test_grouping_class_ids_must_be_whole_numbers(self, grouping, message):
        with pytest.raises(ParameterError, match=message):
            ClassifierSpec("cooperative-softmax", 3, grouping=grouping)
        doc = {"kind": "cooperative-softmax", "num_classes": 3, "weights": [[0.0, 0.0]] * 3}
        with pytest.raises(ParameterError, match=message):
            model_from_json({**doc, "grouping": [list(group) for group in grouping]})

    def test_default_grouping_is_singletons(self):
        spec = ClassifierSpec("cooperative-softmax", 3)
        assert spec.grouping == ((0,), (1,), (2,))

    def test_svm_binary_uses_single_output(self):
        assert ClassifierSpec("linear-svm", 2).num_outputs == 1
        assert ClassifierSpec("linear-svm", 4).num_outputs == 4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_classes", 2.5), ("num_classes", True), ("epochs", 2.5), ("epochs", True),
            ("batch_size", 1.5), ("batch_size", True),
        ],
    )
    def test_counts_must_be_whole_numbers(self, field, value):
        settings = {"kind": "softmax", "num_classes": 3, field: value}
        with pytest.raises(ParameterError, match=f"{field} must be a whole number, got {value}"):
            ClassifierSpec(**settings)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", "5", "epochs must be a whole number, got '5'"),
            ("learning_rate", None, "learning_rate must be a number, got None"),
            ("l2", "x", "l2 must be a number, got 'x'"),
            ("batch_size", None, "batch_size must be a whole number, got None"),
        ],
        ids=["epochs-5", "learning_rate-None", "l2-x", "batch_size-None"],
    )
    def test_hyperparameters_must_be_numbers(self, field, value, message):
        settings = {"kind": "softmax", "num_classes": 2, field: value}
        with pytest.raises(ParameterError, match=message):
            ClassifierSpec(**settings)

    @pytest.mark.parametrize(
        "field, value",
        [("learning_rate", float("nan")), ("learning_rate", float("inf")), ("l2", float("inf"))],
    )
    def test_hyperparameters_must_be_finite(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite, got {value}"):
            ClassifierSpec("softmax", 2, **{field: value})

    def test_numpy_integer_counts_accepted(self):
        spec = ClassifierSpec("softmax", np.int64(3), epochs=np.int32(2), batch_size=np.uint8(4))
        X, y = separable_data(np.random.default_rng(2), classes=3)
        expected = fit(ClassifierSpec("softmax", 3, epochs=2, batch_size=4), X, y, seed=1)
        assert np.array_equal(fit(spec, X, y, seed=1).weights, expected.weights)


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
        spec = ClassifierSpec(kind, 3)
        start = training_loss(spec, initial_weights(spec, X.shape[1], 5), X, y)
        model = fit(spec, X, y, seed=5)
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

    def test_fractional_labels_rejected_whole_floats_accepted(self):
        X = np.random.default_rng(6).normal(size=(6, 2))
        spec = ClassifierSpec("softmax", 3)
        with pytest.raises(ValidationError, match="whole numbers; got 0.5"):
            fit(spec, X, [0.5, 1.7, 2.2, 0, 1, 2])
        with pytest.raises(ValidationError, match="whole numbers; got 2.5"):
            fit(spec, X, np.array([[0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2.5]]), seed=[0, 1])
        whole = fit(spec, X, [0.0, 1.0, 2.0, 0.0, 1.0, 2.0])
        assert np.array_equal(whole.weights, fit(spec, X, np.array([0, 1, 2, 0, 1, 2])).weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_sample_weights_rejected(self, bad):
        X = np.random.default_rng(6).normal(size=(6, 2))
        message = "sample weights must be finite and non-negative"
        with pytest.raises(ValidationError, match=message):
            fit(ClassifierSpec("softmax", 3), X, [0, 1, 2, 0, 1, 2],
                sample_weight=[bad, 1, 1, 1, 1, 1])

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
        # n below, equal to, a multiple of, or not a multiple of the batch size,
        # with up to 9 minibatches an epoch; blocks of epochs run from one
        # epoch (a few hundred rows, five members) to all 40
        n = data.draw(st.integers(1, 12) | st.integers(13, 300))
        batch_size = data.draw(st.sampled_from(
            [max(1, n - 1), n, n + 1, max(1, n // 3), max(1, n // 8), max(1, (n - 1) // 2)]
        ))
        members = data.draw(st.integers(1, 5))
        spec = ClassifierSpec(
            kind, num_classes, grouping=grouping, epochs=data.draw(st.integers(1, 40)),
            batch_size=batch_size, l2=data.draw(st.sampled_from([0.0, 1e-3, 0.1])),
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

    @pytest.mark.parametrize("n", [0, 1, 2, 62, 300])
    @pytest.mark.parametrize("epochs", [1, 3, 40])
    def test_blocked_permutations_equal_sequential_draws(self, n, epochs):
        """One ``permuted`` call over a block of epochs gives the rows of as
        many sequential ``permutation`` calls and leaves the generator where
        they leave it, after a draw of initial weights as the cooperative kind
        makes."""
        sequential, blocked = np.random.default_rng(7), np.random.default_rng(7)
        for rng in (sequential, blocked):
            rng.normal(0.0, 0.01, (3, 4))
        rows = [sequential.permutation(n) for _ in range(epochs)]
        block = blocked.permuted(np.broadcast_to(np.arange(n), (epochs, n)), axis=1)
        assert block.shape == (epochs, n)
        assert all(np.array_equal(row, drawn) for row, drawn in zip(rows, block))
        assert sequential.bit_generator.state == blocked.bit_generator.state

    def test_lone_fit_peak_memory_does_not_grow_with_epochs(self):
        # epochs are walked in blocks of a bounded size, so ten times the
        # epochs keeps the same peak
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(256, 5)), rng.integers(0, 2, 256)
        peaks = {}
        for epochs in (30, 300):
            spec = ClassifierSpec("linear-svm", 2, epochs=epochs)
            fit(spec, X, y, seed=1)  # warm caches outside the measurement
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                fit(spec, X, y, seed=1)
                peaks[epochs] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()
        assert peaks[300] <= 1.1 * peaks[30], peaks

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_indexed_scatter_matches_add_at(self, data):
        # up to 12 groups: numpy sums 8 or more terms pairwise
        num_classes = data.draw(st.integers(2, 12))
        grouping = random_grouping(data.draw, num_classes)
        # a few distinct values make score ties within groups common
        tie_values = [-2.0, 0.0, 0.5, 3.0]
        rows = data.draw(st.integers(1, 20) | st.integers(21, 600))
        if rows <= 20:
            values = st.sampled_from(tie_values) | st.floats(-30.0, 30.0)
            z = data.draw(hnp.arrays(np.float64, (rows, num_classes), elements=values))
            labels = data.draw(
                hnp.arrays(np.intp, rows, elements=st.integers(0, num_classes - 1))
            )
        else:
            # minibatch-sized steps, as a stacked fit of a few members takes
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            shape = (rows, num_classes)
            z = np.where(rng.random(shape) < 0.3, rng.choice(tie_values, shape),
                         rng.uniform(-30.0, 30.0, shape))
            labels = rng.integers(0, num_classes, rows)
        expected = cooperative_nll_dz_add_at(z, labels, grouping)
        assert _cooperative_nll_dz(z, labels, grouping).tobytes() == expected.tobytes()

    def test_scale_shaped_members_equal_loop_fits(self):
        """Four members at the benchmark's multi-class shape: one three-class
        group, five singletons, and a last minibatch shorter than the rest."""
        grouping = ((0, 6, 7), (1,), (2,), (3,), (4,), (5,))
        spec = ClassifierSpec(
            "cooperative-softmax", 8, grouping=grouping, epochs=10, batch_size=128
        )
        rng = np.random.default_rng(19)
        X = rng.normal(size=(700, 2)) * 3.0
        labels = rng.integers(0, 8, size=(4, 700))
        seeds = [11, 12, 13, 14]
        stacked = fit(spec, X, labels, seed=seeds)
        for b, model in enumerate(stacked):
            reference = loop_fit(spec, X, labels[b], seed=seeds[b])
            assert model.weights.tobytes() == reference.tobytes()


class TestGroupKernels:
    @pytest.mark.parametrize("terms", [*range(1, 41), 127, 128, 129, 130, 257])
    def test_group_sum_matches_contiguous_row_sums(self, terms):
        """Summing a class-major stack's group rows gives the bits of numpy's
        row sums of its contiguous transpose, left to right below 8 terms and
        pairwise from 8 on, with halving above 128."""
        rng = np.random.default_rng(terms)
        shape = (terms, 3, 41)
        magnitude = rng.random(shape) * 10.0 ** rng.uniform(-6, 6, shape)
        stack = rng.choice([-1.0, 1.0], shape) * magnitude
        expected = np.ascontiguousarray(np.moveaxis(stack, 0, -1)).sum(axis=-1)
        assert _group_sum(stack).tobytes() == expected.tobytes()
        flat = stack[:, 0]
        assert _group_sum(flat).tobytes() == np.ascontiguousarray(flat.T).sum(axis=1).tobytes()

    def test_nan_score_makes_its_group_max_nan(self):
        """Scores are only NaN where a diverging fit overflowed its weights:
        the NaN's group then has a NaN maximum and its highest class as the
        receiver, and the other groups are unaffected."""
        zt = np.array([[1.0, 2.0], [np.nan, 0.0], [0.5, 2.0], [2.0, -1.0]])
        receiver = np.full((2, 2), -1, dtype=np.intp)
        group_max = _group_max_scores(zt, ((0, 1, 2), (3,)), receiver)
        assert np.isnan(group_max[0, 0]) and group_max[0, 1] == 2.0
        assert group_max[1].tolist() == [2.0, -1.0]
        assert receiver.tolist() == [[2, 0], [-1, -1]]


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

    @pytest.mark.parametrize("num_positive", [5, 8])
    def test_cooperative_sigma_row_blocks_match_3d_oracle(self, num_positive):
        """Fold-sized inputs span several row blocks, below and above 8 groups."""
        grouping = ((0, num_positive + 1, num_positive + 2),) + singleton_grouping(
            num_positive + 1
        )[1:]
        rng = np.random.default_rng(num_positive)
        shape = (2345, num_positive + 3)
        z = np.where(rng.random(shape) < 0.2, 0.5, rng.uniform(-40.0, 40.0, shape))
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

    def test_one_dimensional_features_rejected(self):
        model = TrainedModel(np.zeros((2, 4)), ClassifierSpec("softmax", 2))
        with pytest.raises(ValidationError, match=r"must be 2-d, got shape \(3,\)"):
            predict_arrays(model, np.ones(3))


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


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        X, y = separable_data(rng, classes=3)
        grouping = ((0, 2), (1,))
        model = fit(ClassifierSpec("cooperative-softmax", 3, grouping=grouping), X, y)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = model_from_json(json.loads(path.read_text()))
        assert again.spec.kind == "cooperative-softmax"
        assert again.spec.grouping == grouping
        assert np.array_equal(again.weights, model.weights)

    def test_json_shape(self):
        model = TrainedModel(np.zeros((1, 2)), ClassifierSpec("linear-svm", 2))
        doc = model_to_json(model)
        assert set(doc) == {"kind", "num_classes", "grouping", "weights"}
        assert model_from_json(doc).spec.num_classes == 2
