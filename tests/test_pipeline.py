"""Label-set derivation, fold pipelines, bootstrapping, splitting, final training."""

import gc
import math
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

from labelbandit.classifiers import ClassifierSpec, fit, predict_arrays
from labelbandit.data import (
    DEFAULT_NEGATIVE_LABELS,
    REGIME_LABEL_KIND,
    REGIMES,
    Bag,
    Dataset,
    Instance,
    WeakLabel,
    generate_binary_mil,
    generate_gaussian_blobs,
    generate_multiclass_mil,
    negative_label_ids,
    strip_ground_truth,
    with_proportion_labels,
)
from labelbandit.errors import ConfigError, InferenceError, ParameterError, RegimeError
from labelbandit.metrics import instance_accuracy
from labelbandit.pipeline import (
    DEFAULT_CLASSIFIER_BY_REGIME,
    ClassifierConfig,
    InferenceConfig,
    PipelineResult,
    _confidence_weights,
    apply_random_feature_map,
    bootstrap_infer,
    derive_label_sets,
    kfold_infer,
    split_bags_by_inferred_label,
    train_final,
)
from labelbandit.rewards import RewardParams


def small_binary_config(**kw):
    defaults = dict(
        regime="binary-mil", rounds=40, batch_size=2, folds=3, master_seed=5,
        reward=RewardParams(k=3),
    )
    defaults.update(kw)
    return InferenceConfig(**defaults)


class TestDeriveLabelSets:
    def test_binary_negative_bags_are_fixed(self):
        ds = generate_binary_mil(6, (2, 4), 0.5, 2, 5.0, seed=0)
        sets = derive_label_sets(ds)
        for bag in ds.bags:
            for i in bag.instance_ids:
                expected = [0, 1] if bag.weak_label.value == 1 else [0]
                assert sets[i] == expected

    def test_multiclass_sets_include_negative_modes(self):
        instances = [Instance(i, [float(i)], 0) for i in range(3)]
        bags = [Bag(0, [0, 1, 2], WeakLabel.label_set({2, 4}))]
        ds = Dataset(instances, bags, 5, "multiclass-mil")
        sets = derive_label_sets(ds, num_negative_labels=3)
        # negatives: 0 plus fresh ids 5, 6; positives from the label set
        assert sets[0] == [0, 5, 6, 2, 4]

    def test_llp_extremes_are_forced(self):
        instances = [Instance(i, [float(i)]) for i in range(6)]
        bags = [
            Bag(0, [0, 1], WeakLabel.proportion(1.0)),
            Bag(1, [2, 3], WeakLabel.proportion(0.0)),
            Bag(2, [4, 5], WeakLabel.proportion(0.4)),
        ]
        ds = Dataset(instances, bags, 2, "llp")
        sets = derive_label_sets(ds)
        assert sets[0] == [1] and sets[2] == [0] and sets[4] == [0, 1]

    def test_default_negative_modes_follow_the_regime(self):
        pool = generate_gaussian_blobs(4, 10, 2, 5.0, 0)
        multiclass = generate_multiclass_mil(pool, 6, (2, 4), {1, 2}, 1)
        sets = derive_label_sets(multiclass)
        # three negative modes: 0 plus fresh ids 3, 4 above the 3 classes
        for bag in multiclass.bags:
            for i in bag.instance_ids:
                assert sets[i] == [0, 3, 4] + sorted(bag.weak_label.value)
        binary = generate_binary_mil(6, (2, 4), 0.5, 2, 5.0, seed=0)
        assert {tuple(s) for s in derive_label_sets(binary).values()} == {(0,), (0, 1)}

    def test_binary_bags_read_as_label_sets(self):
        ds = generate_binary_mil(6, (2, 4), 0.5, 2, 5.0, seed=0)
        sets = derive_label_sets(ds, num_negative_labels=2)
        for bag in ds.bags:
            for i in bag.instance_ids:
                assert sets[i] == ([0, 2, 1] if bag.weak_label.value == 1 else [0, 2])

    def test_custom_regime_has_no_label_sets(self):
        ds = Dataset([Instance(0, [1.0])], [Bag(0, [0], WeakLabel.binary(1))], 2, "custom")
        with pytest.raises(ConfigError, match="custom regimes must supply their own"):
            derive_label_sets(ds)

    def test_negative_label_ids_layout(self):
        assert negative_label_ids(6, 1) == [0]
        assert negative_label_ids(6, 3) == [0, 6, 7]


class TestRegimeDeclarations:
    def test_every_built_in_regime_is_fully_declared(self):
        """A regime with a pipeline has a weak-label kind, a negative-mode
        default and a default classifier; custom has none of them."""
        built_in = [regime for regime in REGIMES if regime != "custom"]
        assert built_in
        for table in (REGIME_LABEL_KIND, DEFAULT_NEGATIVE_LABELS, DEFAULT_CLASSIFIER_BY_REGIME):
            assert sorted(table) == sorted(built_in), table

    def test_custom_regime_config_points_to_run_inference(self):
        with pytest.raises(ConfigError, match="run_inference"):
            InferenceConfig(regime="custom")
        with pytest.raises(ConfigError, match="no pipeline for regime 'mystery'"):
            InferenceConfig(regime="mystery")


class TestInferenceConfig:
    def test_classifier_kind_resolves_to_the_regime_default(self):
        for regime, kind in DEFAULT_CLASSIFIER_BY_REGIME.items():
            assert InferenceConfig(regime=regime).classifier.kind == kind
        chosen = ClassifierConfig(kind="softmax", epochs=3)
        assert InferenceConfig(regime="binary-mil", classifier=chosen).classifier == chosen

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"classifier": ClassifierConfig(kind="bogus")}, "unknown classifier kind 'bogus'"),
            ({"classifier": ClassifierConfig(epochs=0)}, "epochs must be >= 1, got 0"),
            ({"classifier": ClassifierConfig(l2=-1.0)}, "l2 must be >= 0, got -1.0"),
            ({"rff_width": 0}, "feature-map width must be >= 1, got 0"),
            ({"rff_width": 8, "rff_bandwidth": 0.0}, "feature-map bandwidth must be positive"),
            ({"rff_bandwidth": "x"}, "feature-map bandwidth must be a number, got 'x'"),
            ({"rff_bandwidth": float("inf")}, "feature-map bandwidth must be finite, got inf"),
            (
                {"classifier": ClassifierConfig(learning_rate=float("nan"))},
                "learning_rate must be finite, got nan",
            ),
        ],
        ids=[
            "kind", "epochs", "l2", "rff_width", "rff_bandwidth", "rff_bandwidth-unmapped",
            "rff_bandwidth-inf", "learning_rate-nan",
        ],
    )
    def test_bad_classifier_or_feature_map_raises_at_construction(self, settings, message):
        with pytest.raises(ParameterError, match=message):
            InferenceConfig(regime="binary-mil", **settings)

    def test_non_finite_pipeline_setting_raises_at_construction(self):
        with pytest.raises(ConfigError, match="bootstrap_fraction must be finite, got nan"):
            InferenceConfig(regime="binary-mil", bootstrap_fraction=float("nan"))

    def test_bandwidth_too_small_for_the_projection_is_named(self):
        dataset = generate_binary_mil(6, (2, 3), 0.5, 2, 4.0, seed=0)
        with pytest.raises(ParameterError, match="feature-map bandwidth 1e-308 is too small"):
            apply_random_feature_map(dataset, 8, 1e-308, seed=0)


class TestKfoldInfer:
    def test_two_bags_two_folds_cover_everything(self):
        ds = generate_binary_mil(2, (2, 3), 0.5, 2, 6.0, seed=1)
        config = small_binary_config(folds=2, rounds=10)
        result = kfold_infer(ds, config)
        assert result.labels.keys() == {i.id for i in ds.instances}

    def test_every_instance_inferred_exactly_once(self):
        ds = generate_binary_mil(9, (2, 5), 0.5, 3, 6.0, seed=2)
        result = kfold_infer(ds, small_binary_config())
        assert sorted(result.labels) == sorted(i.id for i in ds.instances)
        assert result.confidence.keys() == result.labels.keys()

    def test_more_folds_than_bags_rejected(self):
        ds = generate_binary_mil(3, (2, 3), 0.5, 2, 6.0, seed=3)
        with pytest.raises(ParameterError, match="folds"):
            kfold_infer(ds, small_binary_config(folds=4))

    def test_regime_mismatch_rejected(self):
        ds = generate_binary_mil(6, (2, 3), 0.5, 2, 6.0, seed=4)
        with pytest.raises(ConfigError, match="regime"):
            kfold_infer(ds, small_binary_config(regime="llp"))

    def test_separable_problem_is_solved(self):
        ds = generate_binary_mil(16, (3, 6), 0.5, 4, 6.0, seed=5)
        result = kfold_infer(ds, small_binary_config(rounds=80, batch_size=4))
        accuracy, _, _ = instance_accuracy(result.labels, ds)
        assert accuracy >= 0.9

    def test_ground_truth_is_irrelevant_to_inference(self):
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=6)
        config = small_binary_config(rounds=25)
        with_truth = kfold_infer(ds, config)
        without_truth = kfold_infer(strip_ground_truth(ds), config)
        assert with_truth.to_json() == without_truth.to_json()
        assert np.array_equal(with_truth.model.weights, without_truth.model.weights)

    @pytest.mark.parametrize(
        "reward",
        [
            RewardParams(k=3),
            RewardParams(k=3, distgap_enabled=True, tau=None, distgap_space="output"),
            RewardParams(k=3, distgap_enabled=True, tau=None, distgap_space="features"),
        ],
        ids=["distgap-off", "distgap-output", "distgap-features"],
    )
    def test_end_to_end_determinism(self, reward):
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=7)
        config = small_binary_config(rounds=25, batch_size=3, reward=reward)
        a = kfold_infer(ds, config)
        b = kfold_infer(ds, config)
        assert a.to_json() == b.to_json()
        assert [list(e["log"].lines(e["pass"], e["fold"])) for e in a.pull_logs] == [
            list(e["log"].lines(e["pass"], e["fold"])) for e in b.pull_logs
        ]
        assert np.array_equal(a.model.weights, b.model.weights)

    def test_diagnostics_shape(self):
        ds = generate_binary_mil(6, (2, 4), 0.5, 2, 6.0, seed=8)
        config = small_binary_config(rounds=12, folds=2)
        result = kfold_infer(ds, config)
        folds = result.diagnostics["passes"][0]["folds"]
        assert len(folds) == 2
        for fold in folds:
            assert fold["pulls"] >= config.rounds
            assert len(fold["mean_reward_per_round"]) >= 1

    def test_llp_regime_end_to_end(self):
        ds = with_proportion_labels(generate_binary_mil(9, (3, 5), 0.5, 3, 6.0, seed=9))
        config = small_binary_config(regime="llp", rounds=40)
        result = kfold_infer(ds, config)
        accuracy, _, _ = instance_accuracy(result.labels, ds)
        assert accuracy >= 0.8


class TestBootstrap:
    def test_final_model_is_fitted_once(self, monkeypatch):
        fits = []

        def counting_fit(*args, **kwargs):
            fits.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr("labelbandit.pipeline.fit", counting_fit)
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=10)
        result = bootstrap_infer(ds, small_binary_config(rounds=10, bootstrap_passes=2))
        assert len(result.diagnostics["passes"]) == 2
        assert len(fits) == 1

    def test_spilled_peak_memory_stays_flat_as_rounds_grow(self):
        """A spilled pull log keeps a few words per pull, where an in-memory one
        keeps 16 bytes per training instance per pull (about 260 rows here)."""
        ds = generate_binary_mil(60, (3, 10), 0.5, 3, 6.0, seed=2)

        def peak(rounds, spill):
            # the collector off, so that freeing other tests' garbage mid-trace
            # cannot add to the run's peak
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                bootstrap_infer(ds, small_binary_config(rounds=rounds, batch_size=4), spill=spill)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                gc.enable()

        extra_pulls = 3 * (50 - 10)
        with tempfile.TemporaryFile() as spill:
            spilled = peak(50, spill) - peak(10, spill)
        in_memory = peak(50, None) - peak(10, None)
        assert spilled < 512 * extra_pulls, spilled
        assert in_memory > 4 * 512 * extra_pulls, in_memory

    def test_single_pass_equals_kfold(self):
        """kfold_infer runs one pass whatever bootstrap_passes says."""
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=10)
        single = bootstrap_infer(ds, small_binary_config(rounds=20, bootstrap_passes=1))
        for passes in (1, 3):
            kfold = kfold_infer(ds, small_binary_config(rounds=20, bootstrap_passes=passes))
            assert len(kfold.diagnostics["passes"]) == 1
            assert kfold.to_json() == single.to_json()

    def test_fixed_instances_keep_labels_across_passes(self):
        ds = generate_binary_mil(10, (2, 4), 0.5, 3, 6.0, seed=11)
        config = small_binary_config(rounds=25, bootstrap_passes=3, bootstrap_fraction=0.3)
        result = bootstrap_infer(ds, config)
        reports = result.diagnostics["passes"]
        assert len(reports) == 3
        fixed_sets = [report["fixed_instances"] for report in reports]
        assert fixed_sets[0] == {}
        # monotone growth, and labels never change once fixed
        for earlier, later in zip(fixed_sets[1:], fixed_sets[2:]):
            assert set(earlier).issubset(set(later))
            for iid, label in earlier.items():
                assert later[iid] == label
        for iid, label in fixed_sets[-1].items():
            assert result.labels[int(iid)] == label
            assert math.isinf(result.confidence[int(iid)])

    def test_fixing_is_per_class(self):
        labels = {i: (1 if i < 4 else 0) for i in range(12)}
        confidence = {i: float(i) for i in range(12)}
        from labelbandit.pipeline import _grow_fixed

        fixed = _grow_fixed({}, labels, confidence, fraction=0.5)
        fixed_pos = [i for i in fixed if labels[i] == 1]
        fixed_neg = [i for i in fixed if labels[i] == 0]
        assert len(fixed_pos) == 2  # ceil(0.5 * 4)
        assert len(fixed_neg) == 4  # ceil(0.5 * 8)
        assert set(fixed_pos) == {2, 3}  # the most confident positives
        assert set(fixed_neg) == {8, 9, 10, 11}


class TestSplitBags:
    def make_result(self, labels):
        confidence = {i: 0.5 for i in labels}
        return PipelineResult(labels, confidence, model=None, diagnostics={})

    def make_multiclass_dataset(self):
        instances = [Instance(i, [float(i), 0.0]) for i in range(8)]
        bags = [
            Bag(0, [0, 1, 2, 3], WeakLabel.label_set({1, 2})),
            Bag(1, [4, 5], WeakLabel.label_set(set())),
            Bag(2, [6, 7], WeakLabel.label_set({2})),
        ]
        return Dataset(instances, bags, 3, "multiclass-mil")

    def test_split_by_inferred_label(self):
        ds = self.make_multiclass_dataset()
        labels = {0: 1, 1: 1, 2: 2, 3: 0, 4: 0, 5: 0, 6: 2, 7: 0}
        binary, sources = split_bags_by_inferred_label(ds, self.make_result(labels))
        assert binary.regime == "binary-mil"
        positive = [b for b in binary.bags if b.weak_label.value == 1]
        negative = [b for b in binary.bags if b.weak_label.value == 0]
        member_sets = {frozenset(b.instance_ids) for b in positive}
        assert member_sets == {frozenset({0, 1}), frozenset({2}), frozenset({6})}
        assert {frozenset(b.instance_ids) for b in negative} == {frozenset({4, 5})}
        # source tags name the originating positive label
        by_id = {b.id: b for b in binary.bags}
        tags = {frozenset(by_id[b].instance_ids): l for b, l in sources.items()}
        assert tags[frozenset({0, 1})] == 1
        assert tags[frozenset({2})] == 2
        assert tags[frozenset({6})] == 2
        # the negative instance in a positive bag was dropped
        assert {i.id for i in binary.instances} == {0, 1, 2, 4, 5, 6}

    def test_instance_conservation_bound(self):
        ds = self.make_multiclass_dataset()
        labels = {i: 1 for i in range(8)}
        binary, _ = split_bags_by_inferred_label(ds, self.make_result(labels))
        assert len(binary.instances) <= len(ds.instances)

    def test_no_positive_labels_anywhere_rejected(self):
        ds = self.make_multiclass_dataset()
        labels = {i: 0 for i in range(8)}
        with pytest.raises(ParameterError, match="positive"):
            split_bags_by_inferred_label(ds, self.make_result(labels))

    def test_binary_dataset_rejected(self):
        ds = generate_binary_mil(4, (2, 3), 0.5, 2, 5.0, seed=0)
        labels = {i.id: 0 for i in ds.instances}
        with pytest.raises(RegimeError):
            split_bags_by_inferred_label(ds, self.make_result(labels))


class TestTrainFinal:
    def test_confidence_weights(self):
        labels = {0: 1, 1: 0, 2: 1}
        confidence = {0: 0.0, 1: 2.0, 2: math.inf}
        weights = _confidence_weights(labels, confidence)
        assert weights == {0: 0.0, 1: 1.0, 2: 1.0}

    def test_weighting_changes_weights_not_targets(self):
        ds = generate_binary_mil(10, (2, 4), 0.5, 3, 6.0, seed=12)
        result = kfold_infer(ds, small_binary_config(rounds=20))
        spec = ClassifierSpec("linear-svm", 2)
        uniform = train_final(ds, result, spec, weighting="uniform", seed=3)
        weighted = train_final(ds, result, spec, weighting="confidence", seed=3)
        assert uniform.weights.shape == weighted.weights.shape

    def test_inferred_labels_match_supervised_oracle(self):
        ds = generate_binary_mil(20, (3, 6), 0.5, 4, 6.0, seed=13)
        result = kfold_infer(ds, small_binary_config(rounds=80, batch_size=4, folds=4))
        spec = ClassifierSpec("linear-svm", 2)
        final = train_final(ds, result, spec, seed=1)
        test = generate_binary_mil(20, (3, 6), 0.5, 4, 6.0, seed=14)
        X = np.stack([i.features for i in test.instances])
        y = np.array([i.ground_truth for i in test.instances])
        from labelbandit.classifiers import fit

        truth_labels = {i.id: i.ground_truth for i in ds.instances}
        oracle_result = PipelineResult(truth_labels, {i.id: 1.0 for i in ds.instances}, None, {})
        oracle = train_final(ds, oracle_result, spec, seed=1)
        final_acc = (predict_arrays(final, X)[0] == y).mean()
        oracle_acc = (predict_arrays(oracle, X)[0] == y).mean()
        assert final_acc >= oracle_acc - 0.02

    def test_diverged_fit_raises_whatever_the_warnings_filter(self):
        ds = generate_binary_mil(10, (2, 4), 0.5, 3, 6.0, seed=12)
        result = kfold_infer(ds, small_binary_config(rounds=20))
        spec = ClassifierSpec("linear-svm", 2, learning_rate=1e300, epochs=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(InferenceError, match="classifier fit diverged"):
                train_final(ds, result, spec, seed=3)

    def test_result_must_cover_dataset(self):
        ds = generate_binary_mil(4, (2, 3), 0.5, 2, 5.0, seed=15)
        partial = PipelineResult({ds.instances[0].id: 0}, {ds.instances[0].id: 1.0}, None, {})
        with pytest.raises(ParameterError, match="cover"):
            train_final(ds, partial, ClassifierSpec("linear-svm", 2))

    def test_unknown_weighting_rejected(self):
        ds = generate_binary_mil(4, (2, 3), 0.5, 2, 5.0, seed=15)
        result = PipelineResult({i.id: 0 for i in ds.instances}, {}, None, {})
        with pytest.raises(ParameterError, match="weighting must be one of"):
            train_final(ds, result, ClassifierSpec("linear-svm", 2), weighting="x")


class TestRandomFeatureMap:
    def test_disabled_width_returns_same_dataset(self):
        ds = generate_binary_mil(4, (2, 3), 0.5, 3, 5.0, seed=16)
        assert apply_random_feature_map(ds, None, 1.0, seed=0) is ds

    def test_deterministic_per_seed(self):
        ds = generate_binary_mil(4, (2, 3), 0.5, 3, 5.0, seed=17)
        a = apply_random_feature_map(ds, 64, 2.0, seed=9)
        b = apply_random_feature_map(ds, 64, 2.0, seed=9)
        assert a == b

    def test_inner_products_approximate_gaussian_kernel(self):
        rng = np.random.default_rng(18)
        bandwidth = 1.5
        pairs = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(40)]

        def deviation(width):
            error = 0.0
            for i, (u, v) in enumerate(pairs):
                instances = [Instance(0, u), Instance(1, v)]
                bags = [Bag(0, [0], WeakLabel.binary(0)), Bag(1, [1], WeakLabel.binary(0))]
                mapped = apply_random_feature_map(
                    Dataset(instances, bags, 2, "binary-mil"), width, bandwidth, seed=100 + i
                )
                zu, zv = mapped.instances[0].features, mapped.instances[1].features
                kernel = math.exp(-np.linalg.norm(u - v) ** 2 / (2 * bandwidth**2))
                error += abs(float(zu @ zv) - kernel)
            return error / len(pairs)

        assert deviation(1024) < deviation(64)
        assert deviation(1024) < 0.05

    def test_parameter_validation(self):
        ds = generate_binary_mil(4, (2, 3), 0.5, 3, 5.0, seed=19)
        with pytest.raises(ParameterError):
            apply_random_feature_map(ds, 0, 1.0, seed=0)
        with pytest.raises(ParameterError):
            apply_random_feature_map(ds, 8, -1.0, seed=0)

    def test_pipeline_integration(self):
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=20)
        config = small_binary_config(rounds=20, rff_width=32, rff_bandwidth=3.0)
        result = kfold_infer(ds, config)
        assert result.labels.keys() == {i.id for i in ds.instances}
        # final model lives in the mapped feature space
        assert result.model.weights.shape[1] == 32 + 1


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            small_binary_config(folds=1)
        with pytest.raises(ConfigError):
            small_binary_config(rounds=0)
        with pytest.raises(ConfigError):
            small_binary_config(bootstrap_fraction=1.0)
        with pytest.raises(ConfigError):
            small_binary_config(final_weighting="magic")

    @pytest.mark.parametrize(
        "settings, error, message",
        [
            ({"rounds": 2.5}, ConfigError, "rounds must be a whole number, got 2.5"),
            ({"folds": 2.5}, ConfigError, "folds must be a whole number, got 2.5"),
            ({"batch_size": 1.5}, ConfigError, "batch_size must be a whole number, got 1.5"),
            ({"master_seed": 1.5}, ConfigError, "master_seed must be a whole number, got 1.5"),
            ({"master_seed": -1}, ConfigError, "master_seed must be >= 0, got -1"),
            ({"bootstrap_passes": True}, ConfigError, "bootstrap_passes must be a whole number"),
            ({"rff_width": 2.5}, ParameterError, "feature-map width must be a whole number"),
            ({"classifier": ClassifierConfig(epochs=2.5)}, ParameterError, "epochs must be a"),
            ({"classifier": ClassifierConfig(epochs=True)}, ParameterError, "epochs must be a"),
        ],
        ids=[
            "rounds", "folds", "batch_size", "master_seed", "master_seed-negative",
            "bootstrap_passes-bool", "rff_width", "epochs", "epochs-bool",
        ],
    )
    def test_counts_must_be_whole_numbers(self, settings, error, message):
        with pytest.raises(error, match=message):
            small_binary_config(**settings)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda ds: apply_random_feature_map(ds, 2.5, 1.0, seed=0), "width must be a whole"),
            (lambda ds: apply_random_feature_map(ds, True, 1.0, seed=0), "width must be a whole"),
            (lambda ds: derive_label_sets(ds, 1.5), "num_negative_labels must be a whole"),
            (lambda ds: derive_label_sets(ds, True), "num_negative_labels must be a whole"),
        ],
        ids=["rff-fraction", "rff-bool", "negative-labels-fraction", "negative-labels-bool"],
    )
    def test_function_counts_must_be_whole_numbers_before_any_draw(
        self, monkeypatch, call, message
    ):
        ds = generate_binary_mil(4, (2, 3), 0.5, 3, 5.0, seed=19)

        def no_draw(*args):
            raise AssertionError("a generator was seeded")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ParameterError, match=message):
            call(ds)

    def test_numpy_integer_counts_give_the_same_run(self):
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=20)
        counts = {"rounds": 6, "batch_size": 2, "folds": 3, "master_seed": 5, "rff_width": 8}
        as_ints = kfold_infer(ds, small_binary_config(**counts))
        numpy_counts = {key: np.int64(value) for key, value in counts.items()}
        as_numpy = kfold_infer(ds, small_binary_config(**numpy_counts))
        assert as_numpy.to_json() == as_ints.to_json()
        assert np.array_equal(as_numpy.model.weights, as_ints.model.weights)

    def test_result_json_shape(self):
        ds = generate_binary_mil(6, (2, 3), 0.5, 2, 6.0, seed=21)
        result = kfold_infer(ds, small_binary_config(rounds=10))
        doc = result.to_json_dict()
        assert set(doc) == {"labels", "confidence", "diagnostics"}
        assert all(isinstance(k, str) for k in doc["labels"])
        fixed_values = [v for v in doc["confidence"].values() if v == "fixed"]
        assert fixed_values  # negative-bag instances are structurally fixed
