"""Test helpers for reward contexts: row-aligned prediction arrays, the
definitional recall/precision forms the vectorized context tables must match,
the reward rules and context columns read one training instance at a time,
and the per-instance loop form of the rewards the vectorized rules must match.

The ``rec_*``/``prec_*`` oracles read predicted labels from an
``{instance id: label}`` map and bags from an ``{instance id: bag}`` map.
"""

import numpy as np

from labelbandit import rewards
from labelbandit.data import NEGATIVE_CLASS, Bag


def one_row(rule):
    """A vectorized reward rule as (instance_id, assigned, ctx, params) -> float."""

    def reward(instance_id, assigned, ctx, params):
        rows = np.array([ctx.train_row[instance_id]])
        return float(rule(rows, np.array([assigned]), ctx, params)[0])

    return reward


mil_reward = one_row(rewards._mil_rule)
distgap_augmented_reward = one_row(rewards._distgap_rule)
llp_example_reward = one_row(rewards._llp_rule)
reward_for = one_row(rewards._regime_rule)


def distgap(instance_id, ctx):
    """The normalized distance gap of a training instance."""
    return float(ctx.distgap_row[ctx.train_row[instance_id]])


def predicted_label(instance_id, ctx):
    """The label the evaluation's classifier predicts for a training instance."""
    return int(ctx.train_labels[ctx.train_row[instance_id]])


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


def reward_oracle(instance_id, assigned, ctx, params):
    """One instance's built-in reward, one neighbour row at a time: the gate,
    then the llp error or the gated recall/precision base, scaled by the
    distance gap when it is on."""
    row = ctx.train_row[instance_id]
    if assigned != int(ctx.train_labels[row]):
        return 0.0
    rows = ctx.neighbor_rows[row]
    if ctx.regime == "llp":
        return float(1.0 - ctx.proportion_error_row[rows].mean())
    mean_rec, mean_prec = float(ctx.rec_row[rows].mean()), float(ctx.prec_row[rows].mean())
    value = params.gamma * mean_rec
    if mean_rec >= params.alpha:
        value += (1.0 - params.gamma) * mean_prec
    if not params.distgap_enabled:
        return value
    gap = float(ctx.distgap_row[row])
    return (1.0 - gap) * value if assigned in ctx.negative_labels else gap * value
