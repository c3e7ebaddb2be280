"""Test helpers for reward contexts: row-aligned prediction arrays, and the
definitional recall/precision forms the vectorized context tables must match.

The ``rec_*``/``prec_*`` oracles read predicted labels from an
``{instance id: label}`` map and bags from an ``{instance id: bag}`` map.
"""

import numpy as np

from labelbandit.data import NEGATIVE_CLASS, Bag


def predictions(ids, embeddings):
    """(ids, labels, embeddings) rows as ``predict_arrays`` gives them: each
    label is the argmax of its embedding (ties to the lowest class id)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    return list(ids), np.argmax(embeddings, axis=1), embeddings


def mirrored(values):
    """Binary embeddings [-d, d], one row per decision value d."""
    d = np.asarray(values, dtype=np.float64)
    return np.column_stack([-d, d])


def rec_binary(bag: Bag, labels: dict[int, int]) -> float:
    """1 for a negative bag; for a positive bag, 1 iff some member is predicted positive."""
    if bag.weak_label.value == 0:
        return 1.0
    return 1.0 if any(labels[i] == 1 for i in bag.instance_ids) else 0.0


def prec_binary(instance_id: int, labels: dict[int, int], bag_index: dict[int, Bag]) -> float:
    """1 unless the instance is predicted positive while sitting in a negative bag."""
    if labels[instance_id] != 1:
        return 1.0
    return 1.0 if bag_index[instance_id].weak_label.value == 1 else 0.0


def rec_multiclass(bag: Bag, labels: dict[int, int]) -> float:
    """Fraction of the bag's label set realized by its members' predictions."""
    label_set = bag.weak_label.value
    if not label_set:
        return 1.0
    realized = {labels[i] for i in bag.instance_ids}
    return len(label_set & realized) / len(label_set)


def prec_multiclass(
    instance_id: int,
    labels: dict[int, int],
    bag_index: dict[int, Bag],
    negative_labels: frozenset[int] = frozenset({NEGATIVE_CLASS}),
) -> float:
    """1 for negatively predicted instances; positives must appear in the bag's label set."""
    predicted = labels[instance_id]
    if predicted in negative_labels:
        return 1.0
    return 1.0 if predicted in bag_index[instance_id].weak_label.value else 0.0
