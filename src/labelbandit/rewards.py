"""Weak-supervision regimes expressed as bounded per-instance reward functions.

Given a candidate labelling, a classifier is trained on it and run on a
weakly labelled held-out set; each training instance is then scored in
[0, 1] by how well the resulting predictions respect the held-out weak
labels near that instance in classifier-output space. Every regime shares
the modelability gate: an instance whose assigned label the freshly trained
classifier cannot reproduce on the training fold scores exactly 0.

A ``RewardContext`` precomputes everything shared across instances for one
evaluation (each held-out row's bag recall and precision, neighbour rows)
from the classifier's predictions, given as arrays row-aligned with
ascending instance ids; the one reward rule then scores every training row
at once from it. Its fixed half, the fold's ``HeldoutLayout`` (the regime, the
ids, and each held-out row's bag and each bag's weak label as arrays), is
built once per fold; ``build_reward_context`` adds the per-pull half from
the predictions, without a loop over bags. This module owns the
nearest-neighbour search in classifier-output space, its tie rule and its
one Euclidean distance. The ``RewardEnvironment`` alone computes the
distance-gap prior and scales the rule's rewards by it.
"""

from __future__ import annotations

import logging
from collections.abc import Collection
from dataclasses import dataclass, replace

import numpy as np

from .classifiers import ClassifierSpec, fit, predict_arrays
from .data import (
    DEFAULT_NEGATIVE_LABELS,
    REGIME_LABEL_KIND,
    Bag,
    Dataset,
    check_label_kinds,
    extended_num_classes,
    negative_label_ids,
)
from .errors import (
    ParameterError, RegimeError, RewardRangeError, Rule, ValidationError, check_settings, setting,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RewardParams:
    """Knobs shared by the reward regimes.

    alpha is the minimum average neighbourhood recall at which the precision
    term starts to apply, gamma weighs recall against precision, tau scales
    the distance-gap normalization, and num_negative_labels > 1 gives the
    negative class several interchangeable modes; None means the regime's
    default (``DEFAULT_NEGATIVE_LABELS``), which ``for_regime`` fills in.

    tau=None calibrates tau once per fold, from the first gaps a
    RewardEnvironment computes (at construction in feature space, on its
    first evaluation in output space): the median absolute raw gap of the
    first 100 training instances.

    The distance gap applies to the MIL regimes only, so a RewardEnvironment
    for llp rejects distgap_enabled. The environment scales the regime's
    reward by the gap for a positive label and by its complement for a
    negative mode; a gated reward stays 0. The gap groups held-out bags by
    exact weak label: multi-class bags match only
    when their label sets are identical. Every training bag's label needs a
    matching held-out bag and one that differs; a RewardEnvironment checks
    this at construction, in either space. Its raw gaps cost one
    ``raw_distance_gaps`` call per fold in feature space, and one per scored
    labelling, on the classifier's embeddings, in output space.
    """

    k: int = setting(Rule("count", 1), 5)
    alpha: float = setting(Rule("real", high=1), 1.0)
    gamma: float = setting(Rule("real", high=1, ends="()"), 1.0 / 7.0)
    tau: float | None = setting(Rule("real", ends="()"), None)
    distgap_enabled: bool = setting(Rule("flag"), False)
    num_negative_labels: int | None = setting(Rule("count", 1), None)
    distgap_space: str = setting(Rule("choice", choices=("output", "features")), "output")

    def __post_init__(self):
        check_settings(self, ParameterError)

    def for_regime(self, regime: str) -> RewardParams:
        """These params, with an unset num_negative_labels set to the regime's default."""
        if self.num_negative_labels is not None:
            return self
        return replace(self, num_negative_labels=DEFAULT_NEGATIVE_LABELS.get(regime, 1))


@dataclass(frozen=True)
class RewardContext:
    """Per-evaluation tables read by the reward functions.

    ``layout`` is the fold's ``HeldoutLayout``, with the regime and negative
    labels; the rest is built per pull from the predictions. ``train_labels``
    and ``neighbor_rows`` follow ``layout.train_ids``. Row r of the
    (n_train, k) array ``neighbor_rows`` holds the held-out rows nearest
    training row r, in no specified order: where a regime has two searches
    they order a row differently, so its rule must average a row to the same
    bits in any order. Binary MIL's does, as its tables hold only 0 and 1;
    llp's proportion errors do not, which is why llp keeps one search, the
    full output space. The held-out tables ``rec_row`` (the recall of each
    row's bag), ``prec_row`` and ``proportion_error_row`` follow
    ``layout.heldout_ids``.
    """

    layout: HeldoutLayout
    train_labels: np.ndarray
    neighbor_rows: np.ndarray
    rec_row: np.ndarray
    prec_row: np.ndarray
    proportion_error_row: np.ndarray


# ---------------------------------------------------------------------------
# Per-instance rewards
# ---------------------------------------------------------------------------


def _regime_rule(assigned, ctx: RewardContext, params: RewardParams) -> np.ndarray:
    """Every training row's reward, given ``assigned``, the labels assigned to
    the rows, behind the modelability gate: 0 where the fold's classifier
    does not predict the assigned label.

    The two MIL regimes score gamma * meanRec + (1 - gamma) * [meanRec >=
    alpha] * meanPrec over a row's neighbours. Both read the bags as label
    sets; the regime shows only in the neighbours (full output space for
    binary, the predicted-class dimension for multi-class), and with two
    classes and one negative label the two coincide. llp, the worked example
    of a user-defined regime for proportion-labelled bags, scores one minus
    the mean absolute error between each neighbouring bag's labelled and
    predicted positive fraction. The layout holds a built-in regime
    (``heldout_layout`` checks it), so anything but llp is MIL.
    """
    neighbors = ctx.neighbor_rows
    if ctx.layout.regime == "llp":
        values = 1.0 - ctx.proportion_error_row[neighbors].mean(axis=1)
    else:
        mean_rec = ctx.rec_row[neighbors].mean(axis=1)
        mean_prec = ctx.prec_row[neighbors].mean(axis=1)
        value = params.gamma * mean_rec
        values = np.where(mean_rec >= params.alpha, value + (1.0 - params.gamma) * mean_prec, value)
    return np.where(assigned == ctx.train_labels, values, 0.0)


def eta(raw, tau: float):
    """Clip raw/tau to [-1, 1] and map affinely onto [0, 1]; eta(0) = 0.5.
    Elementwise on arrays."""
    return np.clip(raw / tau, -1.0, 1.0) / 2.0 + 0.5


def distance_gap(vector: np.ndarray, same_bag_points, other_bag_points, k: int) -> float:
    """Raw gap of one point (``raw_distance_gaps`` is the all-rows form): mean
    distance to the k nearest members of each other-label bag minus the same
    quantity over same-label bags. Positive when the point sits close to bags
    sharing its bag's label and far from the rest. Bags smaller than k give the
    mean over all their members. Distances come from ``_pairwise_distances``."""
    if not same_bag_points or not other_bag_points:
        raise ParameterError("distance gap needs at least one same-label and one other-label bag")

    def mean_knn_distance(points: np.ndarray) -> float:
        d = _pairwise_distances(vector[None], points)[0]
        kk = min(k, d.shape[0])
        return float(np.partition(d, kk - 1)[:kk].mean())

    other = np.mean([mean_knn_distance(p) for p in other_bag_points])
    same = np.mean([mean_knn_distance(p) for p in same_bag_points])
    return float(other - same)


def raw_distance_gaps(
    train_points: np.ndarray, heldout_points: np.ndarray, table: DistgapTable, k: int
) -> np.ndarray:
    """``distance_gap`` of every training row, bit for bit, row-aligned.

    Per block of ``_distance_blocks`` (training rows to held-out rows): per
    bag size, each bag's mean of its min(k, size) nearest members; per label
    group, the other-label minus the same-label mean. Every mean reduces a
    C-contiguous last axis, as the scalar form's 1-d means do. Memory stays
    bounded by the block, whatever the row count.
    """
    raw = np.empty(train_points.shape[0])
    num_bags = sum(cols.size for cols, _ in table.size_groups)
    for start, dist in _distance_blocks(train_points, heldout_points):
        bag_mean = np.empty((dist.shape[0], num_bags))
        for cols, members in table.size_groups:
            kk = min(k, members.shape[1])
            near = np.take(dist, members, axis=1)
            near.partition(kk - 1, axis=2)
            bag_mean[:, cols] = near[..., :kk].mean(axis=2)
        train_group = table.train_group[start : start + dist.shape[0]]
        for group, (same, other) in enumerate(table.label_groups):
            rows = np.flatnonzero(train_group == group)
            other_mean = np.take(bag_mean[rows], other, axis=1).mean(axis=1)
            raw[start + rows] = other_mean - np.take(bag_mean[rows], same, axis=1).mean(axis=1)
    return raw


def _label_text(label) -> str:
    if label.kind == "label_set":
        return "{" + ", ".join(str(c) for c in sorted(label.value)) + "}"
    return repr(label.value)


def _check_distgap_groups(table: DistgapTable, train_ids: list[int], train_bag_index) -> None:
    """Fail before any fit where the gap has nothing to compare: every
    training instance's bag label needs a held-out bag with the same label and
    one with another. Labels match only when equal, so multi-class label sets
    must be identical."""
    failing = np.flatnonzero((table.train_group < 0) | (len(table.label_groups) < 2))
    if failing.size:
        bag, unmatched = train_bag_index[train_ids[failing[0]]], table.train_group[failing[0]] < 0
        problem = "no held-out bag carries" if unmatched else "every held-out bag carries"
        raise ParameterError(
            f"distance gap: {problem} the weak label {_label_text(bag.weak_label)} of "
            f"training bag {bag.id}; bags are grouped by exact weak label (for "
            "multi-class MIL, the exact label set)"
        )


def _distgap_rows(
    train_points: np.ndarray, heldout_points: np.ndarray, table: DistgapTable, k: int, tau
) -> tuple[np.ndarray, float]:
    """Each training row's normalized distance gap ``eta(raw, tau)``,
    row-aligned, and the tau it used. An unset tau is calibrated from these
    raw gaps: their median absolute value over the first 100 training rows
    (1 if 0)."""
    raw = raw_distance_gaps(train_points, heldout_points, table, k)
    if tau is None:
        median = float(np.median(np.abs(raw[:100])))
        tau = median if median > 0 else 1.0
    return eta(raw, tau), tau


# ---------------------------------------------------------------------------
# Nearest neighbours in classifier-output space
# ---------------------------------------------------------------------------


def nearest_indices(distances: np.ndarray, k: int) -> list[int]:
    """Indices of the k smallest distances, ordered by (distance, index).

    Ties at the boundary are resolved toward the lower index, so the result
    is fully deterministic.
    """
    n = distances.shape[0]
    k = min(int(k), n)
    if k < n:
        part = np.argpartition(distances, k - 1)[:k]
        threshold = distances[part].max()
    else:
        threshold = distances.max()
    strict = np.flatnonzero(distances < threshold)
    ties = np.flatnonzero(distances == threshold)
    chosen = np.concatenate([strict, ties[: k - strict.size]])
    order = np.lexsort((chosen, distances[chosen]))
    return [int(i) for i in chosen[order]]


def nearest_indices_rows(dist_matrix: np.ndarray, k: int) -> np.ndarray:
    """Row-wise k-nearest membership with the same tie rule as ``nearest_indices``.

    Returns an (n, k) index array, each row unordered; only membership
    matters to callers that average over the neighbourhood.
    """
    n, m = dist_matrix.shape
    k = min(int(k), m)
    if k == m:
        return np.broadcast_to(np.arange(m), (n, m))
    part = np.argpartition(dist_matrix, k - 1, axis=1)[:, :k]
    thresholds = np.take_along_axis(dist_matrix, part, axis=1).max(axis=1)
    le_counts = (dist_matrix <= thresholds[:, None]).sum(axis=1)
    for i in np.flatnonzero(le_counts != k):
        # ties straddle the boundary; keep the lowest indices
        row = dist_matrix[i]
        strict = np.flatnonzero(row < thresholds[i])
        ties = np.flatnonzero(row == thresholds[i])
        part[i] = np.concatenate([strict, ties[: k - strict.size]])
    return part


# bounds query rows x pool rows of each block of ``_distance_blocks``
_BLOCK_ELEMENTS = 2**16


def _pairwise_distances(queries: np.ndarray, pool: np.ndarray) -> np.ndarray:
    """The reward path's Euclidean distances, (nq, n_pool): each column's squared
    difference added left to right onto the first column's, then square-rooted."""
    squared = queries[:, 0, None] - pool[None, :, 0]
    squared *= squared
    diff = np.empty_like(squared)
    for j in range(1, pool.shape[1]):
        np.subtract(queries[:, j, None], pool[None, :, j], out=diff)
        diff *= diff
        squared += diff
    return np.sqrt(squared, out=squared)


def _distance_blocks(queries: np.ndarray, pool: np.ndarray):
    """Each block's first query row and its ``_pairwise_distances`` to ``pool``;
    a block is one query row, or as many as ``_BLOCK_ELEMENTS`` allows."""
    step = max(1, _BLOCK_ELEMENTS // max(1, pool.shape[0]))
    for start in range(0, queries.shape[0], step):
        yield start, _pairwise_distances(queries[start : start + step], pool)


def _full_space_neighbors(queries: np.ndarray, pool: np.ndarray, k: int) -> np.ndarray:
    """Euclidean k-nearest rows of ``pool`` for each query, (nq, k), by block."""
    out = np.empty((queries.shape[0], min(k, pool.shape[0])), dtype=np.intp)
    for start, d in _distance_blocks(queries, pool):
        out[start : start + d.shape[0]] = nearest_indices_rows(d, k)
    return out


def _mirrored(embeddings: np.ndarray) -> bool:
    """Whether embeddings are a one-output linear SVM's [-d, d]: two columns,
    each the exact negation of the other."""
    return embeddings.shape[1] == 2 and np.array_equal(embeddings[:, 0], -embeddings[:, 1])


def _sorted_windows(pool_values: np.ndarray, queries: np.ndarray, half_width: int):
    """One stable sort of the pool, and per query the sorted positions of a
    window of min(2 * half_width, n) values: the half_width positions on each
    side of the query's insertion point, shifted inside the pool at the ends.
    Distances to a query never grow toward its insertion point, so its k
    nearest values form a contiguous run inside a window of half-width k.

    Returns (order, sorted_values, window).
    """
    n = pool_values.shape[0]
    order = np.argsort(pool_values, kind="stable")
    sorted_values = pool_values[order]
    width = min(2 * half_width, n)
    start = np.clip(np.searchsorted(sorted_values, queries) - half_width, 0, n - width)
    return order, sorted_values, start[:, None] + np.arange(width)


def nearest_indices_1d(pool_values: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """k-nearest pool positions per query along one coordinate, (nq, k),
    nearest first, from a window of 2k around each query's insertion point
    (``_sorted_windows``).

    Matches ``nearest_indices_rows`` exactly whenever distances are tie-free;
    with exact ties the distance multiset is still correct, but the lowest
    index is taken among the window's candidates only, not the whole pool.
    ``nearest_indices_mirrored`` is the exact sibling for binary SVM
    embeddings, with the whole-pool tie rule.
    """
    k = min(int(k), pool_values.shape[0])
    order, sorted_values, window = _sorted_windows(pool_values, queries, k)
    candidates = order[window]
    delta = np.abs(sorted_values[window] - queries[:, None])
    # ordered by (distance, pool index): exact ties go to the lower index
    nearest = np.lexsort((candidates, delta), axis=1)[:, :k]
    return np.take_along_axis(candidates, nearest, axis=1)


def nearest_indices_mirrored(pool_values: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """k-nearest pool rows per query for binary SVM embeddings [-d, d], given
    the d of the pool and of the queries, (nq, k), each row unordered.

    The membership is that of ``nearest_indices_rows`` over the full
    Euclidean distances, tie rule included: lowest index among equal
    distances over the whole pool. The distance of [-q, q] to [-p, p] is
    sqrt(2 * (p - q)**2), bit-equal to ``_pairwise_distances``' summed
    squares. A window of half-width k + 1 holds the k nearest values and both
    their neighbours in sorted order; a query takes the window rows at or
    below its k-th distance there. Where the window holds more than k such
    rows, the ties at that distance may straddle the window, and the query
    goes through ``_full_space_neighbors`` on the [-d, d] embeddings.
    """
    n = pool_values.shape[0]
    k = min(int(k), n)
    order, sorted_values, window = _sorted_windows(pool_values, queries, k + 1)
    diff = sorted_values[window] - queries[:, None]
    dist = np.sqrt(diff * diff * 2.0)
    ranked = np.sort(dist, axis=1)
    kth = ranked[:, k - 1]
    straddle = ranked[:, k] <= kth if k < n else np.zeros(queries.shape[0], dtype=bool)
    exact = ~straddle
    out = np.empty((queries.shape[0], k), dtype=np.intp)
    out[exact] = order[window[exact][dist[exact] <= kth[exact, None]]].reshape(-1, k)
    if straddle.any():
        stray = queries[straddle]
        pool = np.column_stack([-pool_values, pool_values])
        out[straddle] = _full_space_neighbors(np.column_stack([-stray, stray]), pool, k)
    return out


# ---------------------------------------------------------------------------
# Context construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeldoutLayout:
    """The part of a reward context fixed for a fold, built by ``heldout_layout``.

    Ids are ascending; a context's rows follow them. ``row_bag`` gives each
    held-out row the position of its bag in ``bags``; the bag columns follow
    ``bags``: ``bag_sizes``, ``label_sets`` (each bag's
    ``WeakLabel.positive_classes``, so a binary bag is the set {1} or the
    empty set) with ``set_sizes`` (0 marks an empty set), and ``proportion``
    (zero outside llp). ``label_sets`` and ``negative_table`` (true at the
    negative modes) have one column per label id below the label space plus
    a last column, in no set and not negative, that stands for every label
    outside it. ``distgap`` is the distance gap's ``DistgapTable``, or None
    when the layout was built without the training bags.
    """

    regime: str
    train_ids: list[int]
    heldout_ids: list[int]
    bags: tuple[Bag, ...]
    negative_table: np.ndarray
    row_bag: np.ndarray
    bag_sizes: np.ndarray
    label_sets: np.ndarray
    set_sizes: np.ndarray
    proportion: np.ndarray
    distgap: DistgapTable | None


@dataclass(frozen=True)
class DistgapTable:
    """The fold's held-out bags as ``raw_distance_gaps`` reads them.

    ``size_groups``: per bag size, the bags' columns (positions in the
    layout's ``bags``) and their held-out rows, (bags, size), in member order.
    ``label_groups``: per weak label, in order of first appearance, the
    columns of the bags carrying it and of all others, grouped in that order.
    ``train_group``: each training row's label group, -1 where none matches.
    """

    size_groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    label_groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    train_group: np.ndarray


def _distgap_table(
    bags: list[Bag], position_of: dict[int, int], train_ids: list[int], train_bag_index: dict
) -> DistgapTable:
    by_size: dict[int, list[int]] = {}
    by_label: dict[object, list[int]] = {}
    for b, bag in enumerate(bags):
        by_size.setdefault(len(bag.instance_ids), []).append(b)
        by_label.setdefault(bag.weak_label, []).append(b)
    size_groups = tuple(
        (np.array(cols), np.array([[position_of[i] for i in bags[b].instance_ids] for b in cols]))
        for cols in by_size.values()
    )
    label_groups = tuple(
        (np.array(same), np.array([b for o in by_label.values() if o is not same for b in o], int))
        for same in by_label.values()
    )
    group_of = {label: g for g, label in enumerate(by_label)}
    train_group = [group_of.get(train_bag_index[x].weak_label, -1) for x in train_ids]
    table = DistgapTable(size_groups, label_groups, np.array(train_group, dtype=np.intp))
    _check_distgap_groups(table, train_ids, train_bag_index)
    return table


def heldout_layout(
    regime: str,
    train_ids: list[int],
    heldout_bags: list[Bag],
    negative_labels: Collection[int],
    num_labels: int,
    train_bag_index: dict[int, Bag] | None = None,
) -> HeldoutLayout:
    """Check a fold's held-out bags and lay them out as arrays.

    The held-out ids are the bags' members, ascending; the bags keep their
    order. No instance may sit in two bags. ``train_ids`` must be sorted
    ascending. The regime needs a built-in reward, and every bag its weak-label
    kind (``data.check_label_kinds``). The label space covers the
    ``num_labels`` labels a classifier can predict, the ``negative_labels``
    and every class a bag names. Given each training instance's bag, it also
    builds and checks the distance gap's ``DistgapTable``.
    """
    if regime not in REGIME_LABEL_KIND:
        raise RegimeError(f"no built-in reward for regime {regime!r}")
    check_label_kinds(regime, heldout_bags)
    if not heldout_bags:
        raise ParameterError("held-out set is empty")
    label_space = 1 + max(
        num_labels - 1,
        max(negative_labels, default=0),
        max(bag.weak_label.max_class_id() for bag in heldout_bags),
    )
    num_bags = len(heldout_bags)
    label_sets = np.zeros((num_bags, label_space + 1), dtype=bool)
    proportion = np.zeros(num_bags)
    bag_of: dict[int, int] = {}
    for b, bag in enumerate(heldout_bags):
        for iid in bag.instance_ids:
            if iid in bag_of:
                raise ValidationError(
                    f"held-out instance {iid} sits in bag {heldout_bags[bag_of[iid]].id} "
                    f"and in bag {bag.id}"
                )
            bag_of[iid] = b
        label = bag.weak_label
        label_sets[b, list(label.positive_classes)] = True
        if label.kind == "proportion":
            proportion[b] = label.value
    heldout_ids = sorted(bag_of)
    row_bag = np.array([bag_of[iid] for iid in heldout_ids], dtype=np.intp)
    negative_table = np.zeros(label_space + 1, dtype=bool)
    negative_table[list(negative_labels)] = True
    distgap = None
    if train_bag_index is not None:
        position_of = {iid: row for row, iid in enumerate(heldout_ids)}
        distgap = _distgap_table(heldout_bags, position_of, train_ids, train_bag_index)
    return HeldoutLayout(
        regime=regime,
        train_ids=train_ids,
        heldout_ids=heldout_ids,
        bags=tuple(heldout_bags),
        negative_table=negative_table,
        row_bag=row_bag,
        bag_sizes=np.bincount(row_bag, minlength=num_bags),
        label_sets=label_sets,
        set_sizes=np.count_nonzero(label_sets, axis=1),
        proportion=proportion,
        distgap=distgap,
    )


def _bag_tables(layout: HeldoutLayout, labels: np.ndarray):
    """Each held-out row's bag recall, precision and proportion error, from
    the rows' predicted labels: per-bag counts by ``np.bincount`` over
    ``row_bag``, spread back to the rows by indexing with it. Both MIL
    regimes read the bags' label sets; llp reads their proportions."""
    row_bag = layout.row_bag
    num_bags = layout.bag_sizes.shape[0]
    rec_row = np.ones(labels.shape[0])
    prec_row = np.ones(labels.shape[0])
    proportion_error_row = np.zeros(labels.shape[0])
    if layout.regime == "llp":
        positives = np.bincount(row_bag[labels == 1], minlength=num_bags)
        proportion_error_row = np.abs(positives / layout.bag_sizes - layout.proportion)[row_bag]
    else:
        width = layout.label_sets.shape[1]
        columns = np.minimum(labels, width - 1)
        cells = row_bag * width + columns  # each row's (bag, label) cell of label_sets
        realized = np.bincount(cells, minlength=num_bags * width).reshape(num_bags, width) > 0
        hits = np.count_nonzero(realized & layout.label_sets, axis=1)
        sizes = layout.set_sizes
        rec_row = np.divide(hits, sizes, out=np.ones(num_bags), where=sizes > 0)[row_bag]
        allowed = layout.negative_table[columns] | layout.label_sets.ravel()[cells]
        prec_row[~allowed] = 0.0
    return rec_row, prec_row, proportion_error_row


def build_reward_context(
    params: RewardParams, predictions, layout: HeldoutLayout
) -> RewardContext:
    """Build the per-evaluation tables of one reward evaluation.

    ``predictions`` is ((train_ids, labels, embeddings), (heldout_ids,
    labels, embeddings)): ids sorted ascending, with labels and embeddings
    row-aligned to them as ``predict_arrays`` returns them. Neighbour pools
    are therefore ordered by ascending held-out instance id. The search, and
    its tie rule, follow the regime and the embeddings:

    - binary MIL with a one-output linear SVM's [-d, d] (each column the
      exact negation of the other): ``nearest_indices_mirrored`` along d,
      with the full space's rule, the lowest id among equal distances over
      the whole pool;
    - llp, and binary MIL with any other embedding (softmax, cooperative
      softmax): the full output space, ties to the lowest id likewise;
    - multi-class MIL: the predicted-class coordinate
      (``nearest_indices_1d``), ties to the lower id among a window of 2k
      candidates around the query, which need not hold the lowest tied id.

    ``layout`` is the fold's ``HeldoutLayout`` for those ids, which also
    names the regime; k is clamped to the held-out pool without a word (a
    RewardEnvironment warns once, at construction).
    """
    (tr_ids, tr_labels, tr_emb), (ho_ids, ho_labels, ho_emb) = predictions
    if layout.train_ids != tr_ids or layout.heldout_ids != ho_ids:
        raise ValidationError("the held-out layout belongs to another regime or other instance ids")
    k = min(params.k, len(ho_ids))

    # neighbours: the predicted-class coordinate, the SVM's line, or the full space
    if layout.regime == "multiclass-mil":
        neighbor_rows = np.empty((len(tr_ids), k), dtype=np.intp)
        for cls in np.unique(tr_labels):
            member_rows = np.flatnonzero(tr_labels == cls)
            neighbor_rows[member_rows] = nearest_indices_1d(
                ho_emb[:, cls], tr_emb[member_rows, cls], k
            )
    elif layout.regime == "binary-mil" and _mirrored(tr_emb) and _mirrored(ho_emb):
        neighbor_rows = nearest_indices_mirrored(ho_emb[:, 1], tr_emb[:, 1], k)
    else:
        neighbor_rows = _full_space_neighbors(tr_emb, ho_emb, k)

    rec_row, prec_row, proportion_error_row = _bag_tables(layout, ho_labels)
    return RewardContext(
        layout=layout,
        train_labels=tr_labels,
        neighbor_rows=neighbor_rows,
        rec_row=rec_row,
        prec_row=prec_row,
        proportion_error_row=proportion_error_row,
    )


# ---------------------------------------------------------------------------
# The environment: labelling -> rewards, through a freshly trained classifier
# ---------------------------------------------------------------------------


class RewardEnvironment:
    """Callable scoring candidate labellings of one fold's training bags.

    A fold is the dataset and two lists of its bags, the training and the
    held-out ones; a bag that is not one of ``dataset.bags``, or that is in
    both lists, is a ``ValidationError``, and so is a ``fixed`` entry for an
    instance outside the dataset or with a label outside the classifier's
    classes or not a whole number (whole floats pass). A classifier spec
    whose width is not the dataset's classes plus the extra negative modes
    (``extended_num_classes``) is a ``ParameterError``. Everything else is
    derived once, at construction: the regime and the negative modes from the
    dataset (``params.num_negative_labels`` None takes the regime's default),
    the ascending ``train_ids`` and ``heldout_ids`` with their feature rows,
    the ``HeldoutLayout`` (held-out bags in the given order), and the
    bootstrap extras: the ``fixed`` labels of instances outside the training
    bags, in ascending id order, stacked under the fold's fit matrix; and, in
    feature space, the distance gaps. A k above the held-out pool is clamped,
    with one warning per environment.

    A labelling is scored by fitting the classifier on (fold features and
    extras, labelling and extra labels) with a fresh seed drawn from its rng
    (the only source of reward noise), predicting the fold and the held-out
    set, building a RewardContext, and scoring every training instance by
    the regime's rule. With the distance gap on, each reward is multiplied by
    its row's gap, or by one minus it at a negative mode (a gated 0 stays 0);
    in output space the gaps come from each labelling's embeddings, and the
    tau the first gaps calibrate (``params.tau`` None) is kept. Labels in
    and float64 rewards out are arrays row-aligned with ``train_ids``. A call
    takes one labelling with one rng, or a batch of labellings with one rng
    each: the batch's members are fitted together by one stacked ``fit``,
    then scored one by one in batch order, each exactly as a call of its own
    would score it.
    """

    def __init__(
        self,
        dataset: Dataset,
        train_bags: list[Bag],
        heldout_bags: list[Bag],
        classifier_spec: ClassifierSpec,
        params: RewardParams,
        fixed: dict[int, int] | None = None,
    ):
        dataset_bags = {bag.id: bag for bag in dataset.bags}
        for bag in (*train_bags, *heldout_bags):
            if dataset_bags.get(bag.id) != bag:
                raise ValidationError(f"bag {bag.id} is not one of the dataset's bags")
        heldout_bag_ids = {bag.id for bag in heldout_bags}
        for bag in train_bags:
            if bag.id in heldout_bag_ids:
                raise ValidationError(f"bag {bag.id} is both a training and a held-out bag")
        regime = dataset.regime
        if params.distgap_enabled and regime == "llp":
            raise ParameterError(
                "the distance-gap prior applies to the MIL regimes only; "
                "the llp reward does not read it (set reward.distgap_enabled to false)"
            )
        self.params = params = params.for_regime(regime)
        width = extended_num_classes(dataset.num_classes, params.num_negative_labels)
        if classifier_spec.num_classes != width:
            raise ParameterError(
                f"classifier has {classifier_spec.num_classes} classes; this fold's labels "
                f"need {width} ({dataset.num_classes} dataset classes and "
                f"{params.num_negative_labels} negative modes)"
            )
        self.classifier_spec = classifier_spec
        index = dataset.instance_map()
        for x, label in (fixed or {}).items():
            if x not in index:
                raise ValidationError(f"fixed instance {x} is not in the dataset")
            if not 0 <= label < width:
                raise ValidationError(
                    f"fixed label {label} of instance {x} lies outside [0, {width})"
                )
            if label != int(label):
                raise ValidationError(
                    f"fixed label of instance {x} must be a whole number; got {label!r}"
                )
        train_bag_index = {iid: bag for bag in train_bags for iid in bag.instance_ids}
        self.train_ids = sorted(train_bag_index)
        self.layout = heldout_layout(
            regime,
            self.train_ids,
            heldout_bags,
            negative_label_ids(dataset.num_classes, params.num_negative_labels),
            classifier_spec.num_classes,
            train_bag_index if params.distgap_enabled else None,
        )
        self.heldout_ids = self.layout.heldout_ids
        self.train_features = np.stack([index[i].features for i in self.train_ids])
        self.heldout_features = np.stack([index[i].features for i in self.heldout_ids])
        # fixed for the fold: bootstrap extras are stacked under the fold once
        extra_ids = [x for x in sorted(fixed or {}) if x not in train_bag_index]
        self._fit_features, self._extra_labels = self.train_features, None
        if extra_ids:
            extra_features = np.stack([index[x].features for x in extra_ids])
            self._fit_features = np.vstack([self.train_features, extra_features])
            self._extra_labels = np.array([fixed[x] for x in extra_ids], dtype=np.intp)
        self._k = k = min(params.k, len(self.heldout_ids))
        if k < params.k:
            logger.warning("k=%d exceeds the held-out pool size %d; clamping", params.k, k)
        self._tau, self._gap_rows = params.tau, None
        if params.distgap_enabled and params.distgap_space == "features":
            self._gap_rows, self._tau = _distgap_rows(
                self.train_features, self.heldout_features, self.layout.distgap, k, self._tau
            )

    def evaluate(self, labels, rng) -> np.ndarray:
        """Rewards of one labelling (n,) scored with one generator, or of a
        batch (B, n) scored with a sequence of B generators, as (B, n)."""
        members = np.asarray(labels)
        batch = members.ndim == 2
        if not batch:
            members, rng = members[None], [rng]
        rngs = list(rng)
        if members.shape[1:] != (len(self.train_ids),) or len(rngs) != len(members):
            raise ParameterError(f"need one label per training instance, got {np.shape(labels)}")
        seeds = [int(member_rng.integers(0, 2**63)) for member_rng in rngs]
        y = members
        if self._extra_labels is not None:
            extras = np.broadcast_to(self._extra_labels, (len(members), len(self._extra_labels)))
            y = np.concatenate([members, extras], axis=1)
        models = fit(self.classifier_spec, self._fit_features, y, seed=seeds)
        rewards = np.empty(members.shape)
        for row, model in enumerate(models):
            rewards[row] = self._score(model, members[row])
        return rewards if batch else rewards[0]

    def _score(self, model, labels: np.ndarray) -> np.ndarray:
        """One member's rewards from its fitted model; its predictions and
        context are freed on return, before the next member's are built."""
        train_labels, train_emb = predict_arrays(model, self.train_features)
        ho_labels, ho_emb = predict_arrays(model, self.heldout_features)
        gap, layout = self._gap_rows, self.layout
        if self.params.distgap_enabled and gap is None:
            gap, self._tau = _distgap_rows(train_emb, ho_emb, layout.distgap, self._k, self._tau)
        ctx = build_reward_context(
            self.params,
            ((self.train_ids, train_labels, train_emb), (self.heldout_ids, ho_labels, ho_emb)),
            layout,
        )
        rewards = _regime_rule(labels, ctx, self.params)
        if gap is not None:
            table = layout.negative_table
            rewards *= np.where(table[np.minimum(labels, table.shape[0] - 1)], 1.0 - gap, gap)
        bounded = (rewards >= 0.0) & (rewards <= 1.0)
        if not bounded.all():
            row = int(np.argmin(bounded))
            raise RewardRangeError(
                f"reward {rewards[row].item()!r} for instance {self.train_ids[row]} escaped [0, 1]"
            )
        return rewards

    __call__ = evaluate
