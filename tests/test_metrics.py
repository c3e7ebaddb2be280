"""Accuracy metrics against ground truth and pull-log diagnostics."""

import numpy as np
import pytest

from labelbandit.classifiers import ClassifierSpec, TrainedModel, fit
from labelbandit.data import Bag, Dataset, Instance, WeakLabel, generate_binary_mil
from labelbandit.errors import EvaluationError, ParameterError, RegimeError
from labelbandit import metrics
from labelbandit.metrics import (
    bag_accuracy,
    collapse_negative,
    instance_accuracy,
    reward_trace_summary,
    score_run,
)


def constant_model(feature_dim, label):
    # softmax with a huge bias on one class
    weights = np.zeros((2, feature_dim + 1))
    weights[label, -1] = 50.0
    return TrainedModel(weights, ClassifierSpec("softmax", 2))


def oracle_model(dataset):
    X = np.stack([i.features for i in dataset.instances])
    y = np.array([i.ground_truth for i in dataset.instances])
    return fit(ClassifierSpec("linear-svm", 2), X, y, seed=0)


class TestCollapse:
    def test_negative_modes_collapse(self):
        assert collapse_negative(0, 4) == 0
        assert collapse_negative(2, 4) == 2
        assert collapse_negative(4, 4) == 0
        assert collapse_negative(6, 4) == 0


class TestBagAccuracy:
    def test_perfect_predictions(self):
        ds = generate_binary_mil(12, (2, 5), 0.5, 4, 6.0, seed=0)
        assert bag_accuracy(oracle_model(ds), ds) == 1.0

    def test_all_negative_predictor_scores_negative_fraction(self):
        ds = generate_binary_mil(12, (2, 5), 0.5, 4, 6.0, seed=1)
        negative_bags = sum(b.weak_label.value == 0 for b in ds.bags)
        assert bag_accuracy(constant_model(4, 0), ds) == negative_bags / len(ds.bags)

    def test_all_positive_predictor_scores_positive_fraction(self):
        ds = generate_binary_mil(12, (2, 5), 0.5, 4, 6.0, seed=2)
        positive_bags = sum(b.weak_label.value == 1 for b in ds.bags)
        assert bag_accuracy(constant_model(4, 1), ds) == positive_bags / len(ds.bags)

    def test_agrees_with_naive_double_loop(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            ds = generate_binary_mil(10, (2, 4), 0.5, 3, float(rng.uniform(0, 4)), seed=seed)
            X = np.stack([i.features for i in ds.instances])
            y = rng.integers(0, 2, len(ds.instances))
            model = fit(ClassifierSpec("linear-svm", 2), X, y, seed=seed)
            from labelbandit.classifiers import predict_arrays

            predicted = dict(zip((i.id for i in ds.instances), predict_arrays(model, X)[0]))
            correct = 0
            for bag in ds.bags:
                bag_label = 0
                for iid in bag.instance_ids:
                    if predicted[iid] == 1:
                        bag_label = 1
                if bag_label == bag.weak_label.value:
                    correct += 1
            assert bag_accuracy(model, ds) == correct / len(ds.bags)

    def test_non_binary_regime_rejected(self):
        instances = [Instance(0, [1.0])]
        bags = [Bag(0, [0], WeakLabel.label_set({1}))]
        ds = Dataset(instances, bags, 2, "multiclass-mil")
        with pytest.raises(RegimeError):
            bag_accuracy(constant_model(1, 0), ds)


class TestInstanceAccuracy:
    def make_dataset(self, truths):
        instances = [Instance(i, [float(i)], t) for i, t in enumerate(truths)]
        bags = [Bag(0, list(range(len(truths))), WeakLabel.label_set({1, 2}))]
        return Dataset(instances, bags, 3, "multiclass-mil")

    def test_exact_labels_score_one(self):
        ds = self.make_dataset([0, 1, 2, 1])
        overall, per_class, confusion = instance_accuracy({0: 0, 1: 1, 2: 2, 3: 1}, ds)
        assert overall == 1.0
        assert per_class == {0: 1.0, 1: 1.0, 2: 1.0}
        assert confusion[1][1] == 2

    def test_negative_modes_collapse_before_comparison(self):
        ds = self.make_dataset([0, 0, 1])
        overall, per_class, _ = instance_accuracy({0: 0, 1: 7, 2: 1}, ds)
        assert overall == 1.0

    def test_support_weighted_recomposition_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            truths = rng.integers(0, 3, 30).tolist()
            labels = {i: int(rng.integers(0, 3)) for i in range(30)}
            ds = self.make_dataset(truths)
            overall, per_class, confusion = instance_accuracy(labels, ds)
            total = sum(map(sum, confusion))
            recomposed = sum(
                per_class[c] * sum(confusion[c]) for c in per_class
            )
            assert overall == pytest.approx(recomposed / total)
            assert overall == sum(confusion[c][c] for c in range(3)) / total

    def test_matches_brute_force_counting(self):
        rng = np.random.default_rng(5)
        truths = rng.integers(0, 3, 50).tolist()
        labels = {i: int(rng.integers(0, 5)) for i in range(50)}
        ds = self.make_dataset(truths)
        overall, per_class, confusion = instance_accuracy(labels, ds)
        hits = sum(
            1 for i, t in enumerate(truths) if collapse_negative(labels[i], 3) == t
        )
        assert overall == hits / 50

    def test_model_predictions_accepted(self):
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=6)
        overall, _, _ = instance_accuracy(oracle_model(ds), ds)
        assert overall >= 0.99

    def test_missing_ground_truth_rejected(self):
        instances = [Instance(0, [1.0])]
        bags = [Bag(0, [0], WeakLabel.binary(0))]
        ds = Dataset(instances, bags, 2, "binary-mil")
        with pytest.raises(EvaluationError):
            instance_accuracy({0: 0}, ds)

    def test_missing_labels_rejected(self):
        ds = self.make_dataset([0, 1])
        with pytest.raises(EvaluationError, match="missing"):
            instance_accuracy({0: 0}, ds)


class TestRewardTrace:
    def make_log(self, rounds, reward=0.5):
        log = []
        for r in range(1, rounds + 1):
            for x in (0, 1):
                log.append(
                    {
                        "round": r,
                        "assignment_hash": "x",
                        "instance_id": x,
                        "label": x % 2,
                        "reward": reward if not callable(reward) else reward(r, x),
                    }
                )
        return log

    def test_constant_rewards_constant_trace(self):
        trace = reward_trace_summary(self.make_log(5))
        assert trace["round_mean"] == [0.5] * 5
        assert trace["running_best_mean"] == [0.5] * 5

    def test_trace_length_matches_rounds(self):
        trace = reward_trace_summary(self.make_log(7))
        assert len(trace["rounds"]) == 7
        assert len(trace["round_mean"]) == 7
        assert len(trace["running_best_mean"]) == 7

    def test_running_best_tracks_arm_means(self):
        log = [
            {"round": 1, "assignment_hash": "a", "instance_id": 0, "label": 0, "reward": 0.2},
            {"round": 2, "assignment_hash": "b", "instance_id": 0, "label": 1, "reward": 0.8},
            {"round": 3, "assignment_hash": "c", "instance_id": 0, "label": 0, "reward": 0.4},
        ]
        trace = reward_trace_summary(log)
        assert trace["round_mean"] == [0.2, 0.8, 0.4]
        # best arm mean after each round: 0.2, then 0.8, then max(0.3, 0.8)
        assert trace["running_best_mean"] == [0.2, 0.8, 0.8]

    def test_empty_log_rejected(self):
        with pytest.raises(ParameterError):
            reward_trace_summary([])


class TestReportSerialization:
    """``score_run`` is what ``evaluate`` serializes (plus the reward trace)
    and what ``bench`` records, so its dict is the report's shape."""

    def test_json_shape(self):
        ds = generate_binary_mil(12, (2, 5), 0.5, 4, 6.0, seed=7)
        truth = ds.ground_truth_map()
        labels = {x: 1 - y if x % 3 == 0 else y for x, y in truth.items()}
        model = constant_model(4, 1)
        scores = score_run(ds, labels, model)
        assert set(scores) == {
            "inference_accuracy", "per_class_accuracy", "confusion",
            "instance_accuracy", "bag_accuracy",
        }
        overall, per_class, confusion = instance_accuracy(labels, ds)
        assert scores["inference_accuracy"] == overall
        assert list(scores["per_class_accuracy"].items()) == [
            (str(c), acc) for c, acc in per_class.items()
        ]
        assert list(scores["per_class_accuracy"]) == ["0", "1"]
        assert scores["confusion"] == confusion
        assert scores["instance_accuracy"] == instance_accuracy(model, ds)[0]
        assert scores["bag_accuracy"] == bag_accuracy(model, ds)

    def test_model_scores_are_none_without_a_model_or_outside_binary_mil(self):
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=8)
        scores = score_run(ds, ds.ground_truth_map())
        assert scores["inference_accuracy"] == 1.0
        assert scores["instance_accuracy"] is None and scores["bag_accuracy"] is None
        instances = [Instance(i, [float(i)], t) for i, t in enumerate([0, 1, 2, 1])]
        bags = [Bag(0, [0, 1, 2, 3], WeakLabel.label_set({1, 2}))]
        multi = Dataset(instances, bags, 3, "multiclass-mil")
        model = TrainedModel(np.zeros((3, 2)), ClassifierSpec("softmax", 3))
        scores = score_run(multi, {0: 0, 1: 1, 2: 2, 3: 1}, model)
        assert scores["instance_accuracy"] == instance_accuracy(model, multi)[0]
        assert scores["bag_accuracy"] is None

    def test_dataset_is_predicted_once(self, monkeypatch):
        ds = generate_binary_mil(8, (2, 4), 0.5, 3, 6.0, seed=9)
        calls = []
        predict = metrics.predict_arrays
        monkeypatch.setattr(
            metrics, "predict_arrays", lambda *a: calls.append(a) or predict(*a)
        )
        score_run(ds, ds.ground_truth_map(), oracle_model(ds))
        assert len(calls) == 1
