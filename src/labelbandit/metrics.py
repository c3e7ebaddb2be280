"""Accuracy metrics and bandit diagnostics.

All rates are computed against ground truth after collapsing extra negative
modes onto the semantic negative class 0, so models trained with several
negative labels are scored on what they mean, not how they encode it.
Pure functions over immutable inputs.
"""

from __future__ import annotations

import numpy as np

from .classifiers import TrainedModel, predict_arrays
from .data import Dataset
from .errors import EvaluationError, ParameterError, RegimeError


def collapse_negative(label: int, num_classes: int) -> int:
    """Map any negative-mode id (0 or an id above the dataset's class range)
    onto the semantic negative class."""
    return label if 0 < label < num_classes else 0


def _predicted_labels(model: TrainedModel, dataset: Dataset) -> dict[int, int]:
    """The model's raw label of every instance, by id, from one predict call."""
    features = np.stack([inst.features for inst in dataset.instances])
    raw, _ = predict_arrays(model, features)
    return {inst.id: int(l) for inst, l in zip(dataset.instances, raw)}


def _bag_accuracy(predicted: dict[int, int], dataset: Dataset) -> float:
    # label 1 is the one positive class; every other label (0 or a negative mode) is negative
    correct = 0
    for bag in dataset.bags:
        bag_predicted = any(predicted[i] == 1 for i in bag.instance_ids)
        correct += bag_predicted == bag.weak_label.value
    return correct / len(dataset.bags)


def bag_accuracy(model: TrainedModel, dataset: Dataset) -> float:
    """Fraction of bags whose MIL rule label (positive iff any member is
    predicted positive) matches the bag's binary weak label."""
    if dataset.regime != "binary-mil":
        raise RegimeError(f"bag accuracy is defined for binary MIL, not {dataset.regime!r}")
    return _bag_accuracy(_predicted_labels(model, dataset), dataset)


def instance_accuracy(labels_or_model, dataset: Dataset):
    """Overall accuracy, per-class accuracy, and the confusion matrix.

    Accepts either a map instance id -> label or a trained model (whose
    predictions are computed here). Labels are collapsed onto the dataset's
    semantic classes before comparison. Returns (overall, per_class,
    confusion) with integer confusion counts, rows indexed by true class.
    """
    if not dataset.has_ground_truth():
        raise EvaluationError("dataset has no ground truth to evaluate against")
    truth = dataset.ground_truth_map()
    if isinstance(labels_or_model, TrainedModel):
        predicted = _predicted_labels(labels_or_model, dataset)
    else:
        predicted = dict(labels_or_model)
        missing = truth.keys() - predicted.keys()
        if missing:
            raise EvaluationError(f"labels missing for instances {sorted(missing)[:5]}")
    m = dataset.num_classes
    confusion = [[0] * m for _ in range(m)]
    for iid, true_label in truth.items():
        true_c = collapse_negative(int(true_label), m)
        pred_c = collapse_negative(int(predicted[iid]), m)
        confusion[true_c][pred_c] += 1
    total = sum(map(sum, confusion))
    overall = sum(confusion[c][c] for c in range(m)) / total
    per_class = {
        c: confusion[c][c] / support
        for c in range(m)
        if (support := sum(confusion[c])) > 0
    }
    return overall, per_class, confusion


def score_run(dataset: Dataset, labels: dict[int, int], model: TrainedModel | None = None) -> dict:
    """Everything ``evaluate`` reports but the reward trace: the inferred
    labels' ``inference_accuracy``, ``per_class_accuracy`` (string keys, in
    class order) and ``confusion``; with a ``model``, predicted once, its
    ``instance_accuracy`` and, in binary MIL, ``bag_accuracy`` (else None)."""
    overall, per_class, confusion = instance_accuracy(labels, dataset)
    scores = {
        "inference_accuracy": overall,
        "per_class_accuracy": {str(c): acc for c, acc in per_class.items()},
        "confusion": confusion,
        "instance_accuracy": None,
        "bag_accuracy": None,
    }
    if model is not None:
        predicted = _predicted_labels(model, dataset)
        scores["instance_accuracy"] = instance_accuracy(predicted, dataset)[0]
        if dataset.regime == "binary-mil":
            scores["bag_accuracy"] = _bag_accuracy(predicted, dataset)
    return scores


def reward_trace_summary(pull_log: list[dict]) -> dict:
    """Replay a pull log into per-round series.

    Returns the round indices, the mean reward of each round's pulls, and the
    running mean (over instances) of each instance's best arm average so far.
    Round 0, when present, holds the initialization sweep.
    """
    if not pull_log:
        raise ParameterError("pull log is empty")
    by_round: dict[int, list[dict]] = {}
    for record in pull_log:
        by_round.setdefault(int(record["round"]), []).append(record)
    arm_count: dict[tuple[int, int], int] = {}
    arm_sum: dict[tuple[int, int], float] = {}
    rounds, round_mean, running_best = [], [], []
    for rnd in sorted(by_round):
        records = by_round[rnd]
        for rec in records:
            key = (rec["instance_id"], rec["label"])
            arm_count[key] = arm_count.get(key, 0) + 1
            arm_sum[key] = arm_sum.get(key, 0.0) + float(rec["reward"])
        best_by_instance: dict[int, float] = {}
        for (x, label), count in arm_count.items():
            mean = arm_sum[(x, label)] / count
            if mean > best_by_instance.get(x, -np.inf):
                best_by_instance[x] = mean
        rounds.append(rnd)
        round_mean.append(float(np.mean([r["reward"] for r in records])))
        running_best.append(float(np.mean(list(best_by_instance.values()))))
    return {"rounds": rounds, "round_mean": round_mean, "running_best_mean": running_best}
