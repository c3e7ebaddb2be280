"""Test helpers for reward contexts: a context built straight from held-out
bags, the distance-gap rows a ``RewardEnvironment`` applies to it,
row-aligned prediction arrays, the definitional recall/precision forms the
vectorized context tables must match, the reward rules and context columns
read one training instance at a time, the per-instance loop form of the
rewards the environment must match, and the per-instance loop form of the
raw distance gaps the vectorized ``rewards.raw_distance_gaps`` must match
bit for bit. ``nearest_indices_1d_two_sorts`` is the one-dimensional window
search with its (distance, index) order built from a stable sort by index and
then a stable sort by distance.

A distance-gap argument ``gaps`` is the rows ``rewards._distgap_rows``
returned for the context's training rows, None when the gap is off.

The ``rec_*``/``prec_*``/``proportion_error`` oracles read predicted labels from an
``{instance id: label}`` map and bags from an ``{instance id: bag}`` map. A
training instance's row in a context is its position in ``ctx.layout.train_ids``.
"""

import numpy as np

from labelbandit import rewards
from labelbandit.data import NEGATIVE_CLASS, Bag


def context(
    regime, params, predictions, bags, train_bag_index=None,
    negative_labels=frozenset({NEGATIVE_CLASS}),
):
    """``rewards.build_reward_context`` over held-out bags, laid out first by
    ``rewards.heldout_layout`` with the embedding width as the class count,
    and with ``train_bag_index`` (each training instance's bag) when the
    distance gap is on. The held-out predictions must cover exactly the
    bags' members."""
    (train_ids, _, _), (_, _, embeddings) = predictions
    layout = rewards.heldout_layout(
        regime, train_ids, bags, negative_labels, embeddings.shape[1],
        train_bag_index if params.distgap_enabled else None,
    )
    return rewards.build_reward_context(params, predictions, layout)


def output_gaps(params, predictions, ctx):
    """The output-space distance-gap rows a RewardEnvironment applies to a
    context built from ``predictions``, and the tau they used:
    ``rewards._distgap_rows`` on the embeddings, k clamped to the pool."""
    (_, _, train_embeddings), (heldout_ids, _, heldout_embeddings) = predictions
    k = min(params.k, len(heldout_ids))
    return rewards._distgap_rows(
        train_embeddings, heldout_embeddings, ctx.layout.distgap, k, params.tau
    )


def record_scoring(monkeypatch):
    """Record every context a RewardEnvironment builds, with the gap rows it
    applies to that member's rewards (None with the gap off), in scoring
    order. Wraps ``rewards.build_reward_context`` and
    ``rewards._distgap_rows``: a context pairs with the rows computed last
    before it, at the environment's construction in feature space and just
    before the context in output space."""
    scored, latest = [], [None]
    build, gap_rows = rewards.build_reward_context, rewards._distgap_rows

    def recording_gaps(*args):
        latest[0], tau = gap_rows(*args)
        return latest[0], tau

    def recording_context(*args, **kwargs):
        scored.append((build(*args, **kwargs), latest[0]))
        return scored[-1][0]

    monkeypatch.setattr(rewards, "_distgap_rows", recording_gaps)
    monkeypatch.setattr(rewards, "build_reward_context", recording_context)
    return scored


def row_of(instance_id, ctx):
    """A training instance's row in the context's arrays."""
    return ctx.layout.train_ids.index(instance_id)


def gap_factor(assigned, ctx, gaps):
    """What the distance-gap prior scales a reward by, per training row: the
    gap for a positive label, its complement for a negative mode."""
    negative = np.isin(assigned, list(negative_modes(ctx.layout)))
    return np.where(negative, 1.0 - gaps, gaps)


def scaled_rule(assigned, ctx, params, gaps=None):
    """The regime rule's rewards, scaled by the distance-gap rows ``gaps`` as
    a RewardEnvironment scales them."""
    values = rewards._regime_rule(assigned, ctx, params)
    return values if gaps is None else values * gap_factor(assigned, ctx, gaps)


def one_row(rule):
    """A vectorized reward rule as (instance_id, assigned, ctx, params, ...)
    -> float: every training row is assigned ``assigned``, and the instance's
    row is read. Further arguments go to the rule."""

    def reward(instance_id, assigned, ctx, params, *rest):
        assigned_rows = np.full(len(ctx.layout.train_ids), assigned)
        return float(rule(assigned_rows, ctx, params, *rest)[row_of(instance_id, ctx)])

    return reward


mil_reward = one_row(rewards._regime_rule)
llp_example_reward = one_row(rewards._regime_rule)
reward_for = one_row(scaled_rule)


def distgap(instance_id, ctx, gaps):
    """The normalized distance gap of a training instance, from the rows
    applied to the context."""
    return float(gaps[row_of(instance_id, ctx)])


def predicted_label(instance_id, ctx):
    """The label the evaluation's classifier predicts for a training instance."""
    return int(ctx.train_labels[row_of(instance_id, ctx)])


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


def prec_binary(
    instance_id: int,
    labels: dict[int, int],
    bag_index: dict[int, Bag],
    negative_labels: frozenset[int] = frozenset({NEGATIVE_CLASS}),
) -> float:
    """1 for a negative-mode prediction and for a positive prediction in a
    positive bag; 0 for a positive prediction in a negative bag, and for any
    label that is neither 1 nor a negative mode, which no binary bag names."""
    predicted = labels[instance_id]
    if predicted in negative_labels:
        return 1.0
    return 1.0 if predicted == 1 and bag_index[instance_id].weak_label.value == 1 else 0.0


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


def proportion_error(bag: Bag, labels: dict[int, int]) -> float:
    """Absolute gap between the bag's labelled and predicted positive fraction."""
    positives = sum(labels[i] == 1 for i in bag.instance_ids)
    return abs(positives / len(bag.instance_ids) - bag.weak_label.value)


def loop_distance_gaps(
    train_ids: list[int],
    train_points: np.ndarray,
    heldout_ids: list[int],
    heldout_points: np.ndarray,
    heldout_bags: list[Bag],
    train_bag_index: dict[int, Bag],
    k: int,
) -> np.ndarray:
    """``rewards.distance_gap`` of every training instance against the
    held-out bags, one scalar call per instance, row-aligned with
    ``train_ids``.

    Points are rows aligned with their id lists; each bag's points follow its
    member order, and same- and other-label bags keep ``heldout_bags`` order.
    """
    position_of = {iid: row for row, iid in enumerate(heldout_ids)}
    bag_points = {
        bag.id: heldout_points[[position_of[i] for i in bag.instance_ids]] for bag in heldout_bags
    }
    by_label: dict[object, list[int]] = {}
    for bag in heldout_bags:
        by_label.setdefault(bag.weak_label, []).append(bag.id)
    raw = np.empty(len(train_ids))
    for row, x in enumerate(train_ids):
        own_label = train_bag_index[x].weak_label
        same = [bag_points[b] for b in by_label.get(own_label, [])]
        other = [
            bag_points[b] for label, bids in by_label.items() if label != own_label for b in bids
        ]
        raw[row] = rewards.distance_gap(train_points[row], same, other, k)
    return raw


def reward_oracle(instance_id, assigned, ctx, params, gaps=None):
    """One instance's built-in reward, one neighbour row at a time: the gate,
    then the llp error or the gated recall/precision base, scaled by the
    applied distance-gap rows ``gaps`` when the gap is on."""
    row = row_of(instance_id, ctx)
    if assigned != int(ctx.train_labels[row]):
        return 0.0
    rows = ctx.neighbor_rows[row]
    if ctx.layout.regime == "llp":
        return float(1.0 - ctx.proportion_error_row[rows].mean())
    mean_rec, mean_prec = float(ctx.rec_row[rows].mean()), float(ctx.prec_row[rows].mean())
    value = params.gamma * mean_rec
    if mean_rec >= params.alpha:
        value += (1.0 - params.gamma) * mean_prec
    if not params.distgap_enabled:
        return value
    gap = float(gaps[row])
    return (1.0 - gap) * value if assigned in negative_modes(ctx.layout) else gap * value


def negative_modes(layout):
    """The negative label ids a layout's ``negative_table`` marks."""
    return frozenset(np.flatnonzero(layout.negative_table).tolist())


def nearest_indices_1d_two_sorts(pool_values, queries, k) -> np.ndarray:
    """``nearest_indices_1d`` with the window's candidates pre-sorted by pool
    index, so that the stable sort by distance breaks ties toward it."""
    k = min(int(k), pool_values.shape[0])
    order, sorted_values, window = rewards._sorted_windows(pool_values, queries, k)
    candidates = order[window]
    delta = np.abs(sorted_values[window] - queries[:, None])
    by_index = np.argsort(candidates, axis=1, kind="stable")
    candidates = np.take_along_axis(candidates, by_index, axis=1)
    delta = np.take_along_axis(delta, by_index, axis=1)
    nearest = np.argsort(delta, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(candidates, nearest, axis=1)
