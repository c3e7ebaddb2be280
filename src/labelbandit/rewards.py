"""Weak-supervision regimes expressed as bounded per-instance reward functions.

Given a candidate labelling, a classifier is trained on it and run on a
weakly labelled held-out set; each training instance is then scored in
[0, 1] by how well the resulting predictions respect the held-out weak
labels near that instance in classifier-output space. Every regime shares
the modelability gate: an instance whose assigned label the freshly trained
classifier cannot reproduce on the training fold scores exactly 0.

A ``RewardContext`` precomputes everything shared across instances for one
evaluation (each held-out row's bag recall and precision, neighbour rows,
raw distance gaps) from the classifier's predictions, given as arrays
row-aligned with ascending instance ids; the per-instance reward functions
then read from it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .classifiers import (
    ClassifierSpec,
    fit,
    nearest_indices_1d,
    nearest_indices_rows,
    predict_arrays,
)
from .data import NEGATIVE_CLASS, Bag
from .errors import ParameterError, RegimeError, RewardRangeError, ValidationError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RewardParams:
    """Knobs shared by the reward regimes.

    alpha is the minimum average neighbourhood recall at which the precision
    term starts to apply, gamma weighs recall against precision, tau scales
    the distance-gap normalization, and num_negative_labels > 1 gives the
    negative class several interchangeable modes.

    tau=None calibrates tau to the median absolute raw gap of the first 100
    training instances: a RewardEnvironment does so at construction in
    feature space and on its first evaluation in output space.

    The distance gap groups held-out bags by exact weak label: multi-class
    bags match only when their label sets are identical. Every training
    bag's label needs a matching held-out bag and one that differs; a
    RewardEnvironment checks this at construction, in either space.
    """

    k: int = 5
    alpha: float = 1.0
    gamma: float = 1.0 / 7.0
    tau: float | None = None
    distgap_enabled: bool = False
    num_negative_labels: int = 1
    distgap_space: str = "output"

    def __post_init__(self):
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.tau is not None and self.tau <= 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if self.num_negative_labels < 1:
            raise ParameterError(
                f"num_negative_labels must be >= 1, got {self.num_negative_labels}"
            )
        if self.distgap_space not in ("output", "features"):
            raise ParameterError(
                f"distgap_space must be 'output' or 'features', got {self.distgap_space!r}"
            )


@dataclass(frozen=True)
class RewardContext:
    """Per-evaluation tables read by the reward functions.

    ``train_row`` maps each training instance id to its row; ``train_labels``
    and ``neighbor_rows`` follow those rows. ``neighbor_rows[r]`` holds the
    held-out rows nearest training row r, and the held-out tables ``rec_row``
    (the recall of each row's bag), ``prec_row`` and ``proportion_error_row``
    follow ascending held-out ids. ``raw_distgap`` maps training instance ids
    to raw distance gaps (empty when the gap is off).
    """

    regime: str
    negative_labels: frozenset[int]
    train_row: dict[int, int]
    train_labels: np.ndarray
    neighbor_rows: list[np.ndarray]
    rec_row: np.ndarray
    prec_row: np.ndarray
    proportion_error_row: np.ndarray
    raw_distgap: dict[int, float]
    tau: float | None

    def predicted_label(self, instance_id: int) -> int:
        return int(self.train_labels[self.train_row[instance_id]])


# ---------------------------------------------------------------------------
# Per-instance rewards
# ---------------------------------------------------------------------------


def _mean_rec_prec(instance_id: int, ctx: RewardContext) -> tuple[float, float]:
    rows = ctx.neighbor_rows[ctx.train_row[instance_id]]
    return float(ctx.rec_row[rows].mean()), float(ctx.prec_row[rows].mean())


def _gated_base(instance_id: int, ctx: RewardContext, params: RewardParams) -> float:
    """gamma * meanRec + (1 - gamma) * [meanRec >= alpha] * meanPrec."""
    mean_rec, mean_prec = _mean_rec_prec(instance_id, ctx)
    value = params.gamma * mean_rec
    if mean_rec >= params.alpha:
        value += (1.0 - params.gamma) * mean_prec
    return value


def mil_reward(instance_id: int, assigned: int, ctx: RewardContext, params: RewardParams) -> float:
    """Binary and multi-class MIL reward: the gated recall/precision base.

    The regime shows only in the context's tables and neighbours (full output
    space for binary, the predicted-class dimension for multi-class); with two
    classes and one negative label the two coincide.
    """
    if assigned != ctx.predicted_label(instance_id):
        return 0.0
    return _gated_base(instance_id, ctx, params)


def eta(raw: float, tau: float) -> float:
    """Clip raw/tau to [-1, 1] and map affinely onto [0, 1]; eta(0) = 0.5."""
    return min(max(raw / tau, -1.0), 1.0) / 2.0 + 0.5


def distance_gap(vector: np.ndarray, same_bag_points, other_bag_points, k: int) -> float:
    """Raw gap: mean distance to the k nearest members of each other-label bag
    minus the same quantity over same-label bags. Positive when the point sits
    close to bags sharing its bag's label and far from the rest. Bags smaller
    than k contribute the mean over all their members."""
    if not same_bag_points or not other_bag_points:
        raise ParameterError("distance gap needs at least one same-label and one other-label bag")

    def mean_knn_distance(points: np.ndarray) -> float:
        d = np.linalg.norm(points - vector, axis=1)
        kk = min(k, d.shape[0])
        return float(np.partition(d, kk - 1)[:kk].mean())

    other = np.mean([mean_knn_distance(p) for p in other_bag_points])
    same = np.mean([mean_knn_distance(p) for p in same_bag_points])
    return float(other - same)


def raw_distance_gaps(
    train_ids: list[int],
    train_points: np.ndarray,
    heldout_ids: list[int],
    heldout_points: np.ndarray,
    heldout_bags: list[Bag],
    train_bag_index: dict[int, Bag],
    k: int,
) -> dict[int, float]:
    """``distance_gap`` of every training instance against the held-out bags.

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
    raw = {}
    for row, x in enumerate(train_ids):
        own_label = train_bag_index[x].weak_label
        same = [bag_points[b] for b in by_label.get(own_label, [])]
        other = [
            bag_points[b] for label, bids in by_label.items() if label != own_label for b in bids
        ]
        raw[x] = distance_gap(train_points[row], same, other, k)
    return raw


def _label_text(label) -> str:
    if label.kind == "label_set":
        return "{" + ", ".join(str(c) for c in sorted(label.value)) + "}"
    return repr(label.value)


def _check_distgap_groups(
    train_ids: list[int], train_bag_index: dict[int, Bag], heldout_bags: list[Bag]
) -> None:
    """Fail early where ``raw_distance_gaps`` would: every training instance's
    bag label needs a held-out bag with the same label and one with another.
    Labels match only when equal, so multi-class label sets must be identical."""
    heldout_labels = {bag.weak_label for bag in heldout_bags}
    for x in train_ids:
        bag = train_bag_index[x]
        if bag.weak_label not in heldout_labels:
            problem = "no held-out bag carries"
        elif len(heldout_labels) == 1:
            problem = "every held-out bag carries"
        else:
            continue
        raise ParameterError(
            f"distance gap: {problem} the weak label {_label_text(bag.weak_label)} of "
            f"training bag {bag.id}; bags are grouped by exact weak label (for "
            "multi-class MIL, the exact label set)"
        )


def calibrate_tau(raw_distgap: dict[int, float], train_ids: list[int]) -> float:
    """Median absolute raw gap over the first 100 training instances (1 if 0)."""
    median = float(np.median(np.abs([raw_distgap[x] for x in train_ids[:100]])))
    return median if median > 0 else 1.0


def distgap(instance_id: int, ctx: RewardContext) -> float:
    """Normalized distance gap in [0, 1] for a training instance."""
    if instance_id not in ctx.raw_distgap:
        raise ParameterError(f"no distance gap available for instance {instance_id}")
    return eta(ctx.raw_distgap[instance_id], ctx.tau)


def distgap_augmented_reward(
    instance_id: int, assigned: int, ctx: RewardContext, params: RewardParams
) -> float:
    """Base reward scaled by the distance gap for positive assignments and by
    its complement for negative-mode assignments; the gate is unchanged."""
    if assigned != ctx.predicted_label(instance_id):
        return 0.0
    gap = distgap(instance_id, ctx)
    base = _gated_base(instance_id, ctx, params)
    if assigned in ctx.negative_labels:
        return (1.0 - gap) * base
    return gap * base


def llp_example_reward(
    instance_id: int, assigned: int, ctx: RewardContext, params: RewardParams
) -> float:
    """Worked example of a user-defined regime for proportion-labelled bags:
    one minus the mean absolute error between each neighbouring bag's labelled
    and predicted positive fraction, behind the usual gate."""
    if ctx.regime != "llp":
        raise RegimeError("llp reward requires proportion-labelled bags")
    if assigned != ctx.predicted_label(instance_id):
        return 0.0
    rows = ctx.neighbor_rows[ctx.train_row[instance_id]]
    return float(1.0 - ctx.proportion_error_row[rows].mean())


def reward_for(
    instance_id: int, assigned: int, ctx: RewardContext, params: RewardParams
) -> float:
    """Dispatch on the context's regime (and the distance-gap flag)."""
    if ctx.regime == "llp":
        return llp_example_reward(instance_id, assigned, ctx, params)
    if ctx.regime in ("binary-mil", "multiclass-mil"):
        if params.distgap_enabled:
            return distgap_augmented_reward(instance_id, assigned, ctx, params)
        return mil_reward(instance_id, assigned, ctx, params)
    raise RegimeError(f"no built-in reward for regime {ctx.regime!r}; supply a custom environment")


# ---------------------------------------------------------------------------
# Context construction
# ---------------------------------------------------------------------------

_REGIME_LABEL_KIND = {"binary-mil": "binary", "multiclass-mil": "label_set", "llp": "proportion"}


def _check_bag_kinds(regime: str, bags: list[Bag]):
    expected = _REGIME_LABEL_KIND.get(regime)
    if expected is None:
        raise RegimeError(f"no built-in reward for regime {regime!r}")
    for bag in bags:
        if bag.weak_label.kind != expected:
            raise RegimeError(
                f"regime {regime!r} needs {expected!r} weak labels, "
                f"but bag {bag.id} carries {bag.weak_label.kind!r}"
            )


# distance-matrix elements per block of ``_full_space_neighbors``
_NEIGHBOR_BLOCK_ELEMENTS = 2**22


def _full_space_neighbors(queries: np.ndarray, pool: np.ndarray, k: int) -> list[np.ndarray]:
    """Euclidean k-nearest rows of ``pool`` for each query, chunked to bound memory."""
    out = []
    chunk = max(1, int(_NEIGHBOR_BLOCK_ELEMENTS // max(1, pool.shape[0] * pool.shape[1])))
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk]
        d = np.linalg.norm(block[:, None, :] - pool[None, :, :], axis=2)
        out.extend(nearest_indices_rows(d, k))
    return out


def build_reward_context(
    regime: str,
    params: RewardParams,
    predictions,
    heldout_bags: list[Bag],
    train_bag_index: dict[int, Bag] | None = None,
    negative_labels: frozenset[int] = frozenset({NEGATIVE_CLASS}),
    raw_distgap: dict[int, float] | None = None,
    tau: float | None = None,
) -> RewardContext:
    """Precompute every shared quantity for one reward evaluation.

    ``predictions`` is ((train_ids, labels, embeddings), (heldout_ids,
    labels, embeddings)): ids sorted ascending, with labels and embeddings
    row-aligned to them as ``predict_arrays`` returns them. Neighbour pools
    are therefore ordered by ascending held-out instance id, so distance ties
    resolve to the lower id.
    For the distance gap, ``train_bag_index`` must map each training instance
    to its bag. In output space the raw gaps are computed here from the
    embeddings; when ``params.distgap_space == "features"`` they do not
    depend on the classifier, so the caller computes them once with
    ``raw_distance_gaps`` and passes them as ``raw_distgap``.
    """
    _check_bag_kinds(regime, heldout_bags)
    (tr_ids, tr_labels, tr_emb), (ho_ids, ho_labels, ho_emb) = predictions
    if not ho_ids:
        raise ParameterError("held-out set is empty")

    bagged = {iid for bag in heldout_bags for iid in bag.instance_ids}
    missing = [i for i in ho_ids if i not in bagged]
    if missing:
        raise ValidationError(f"held-out instances without a bag: {sorted(missing)[:5]}")
    position_of = {iid: row for row, iid in enumerate(ho_ids)}

    if params.k > len(ho_ids):
        logger.warning("k=%d exceeds the held-out pool size %d; clamping", params.k, len(ho_ids))
    k = min(params.k, len(ho_ids))

    # neighbours: full embedding space, or the predicted-class coordinate
    neighbor_rows: list[np.ndarray]
    if regime == "multiclass-mil":
        neighbor_rows = [None] * len(tr_ids)  # type: ignore[list-item]
        for cls in np.unique(tr_labels):
            member_rows = np.flatnonzero(tr_labels == cls)
            found = nearest_indices_1d(ho_emb[:, cls], tr_emb[member_rows, cls], k)
            for row, hits in zip(member_rows, found):
                neighbor_rows[row] = hits
    else:
        neighbor_rows = _full_space_neighbors(tr_emb, ho_emb, k)

    # per-bag recall and per-instance precision tables, row-aligned
    rec_row = np.ones(len(ho_ids))
    prec_row = np.ones(len(ho_ids))
    proportion_error_row = np.zeros(len(ho_ids))
    # label ids are small ints, so membership checks run through lookup tables
    label_space = 1 + max(
        ho_emb.shape[1] - 1,
        int(ho_labels.max(initial=0)),
        max(negative_labels, default=0),
        max((bag.weak_label.max_class_id() for bag in heldout_bags), default=0),
    )
    negative_table = np.zeros(label_space, dtype=bool)
    negative_table[list(negative_labels)] = True
    negative_row = negative_table[ho_labels]
    for bag in heldout_bags:
        rows = np.fromiter(
            (position_of[i] for i in bag.instance_ids), dtype=np.intp, count=len(bag.instance_ids)
        )
        member_labels = ho_labels[rows]
        if regime == "binary-mil":
            rec = 1.0 if bag.weak_label.value == 0 else float((member_labels == 1).any())
            if bag.weak_label.value == 0:
                prec_row[rows[member_labels == 1]] = 0.0
        elif regime == "multiclass-mil":
            label_set = bag.weak_label.value
            if label_set:
                wanted = np.fromiter(label_set, dtype=np.intp, count=len(label_set))
                realized = np.bincount(member_labels, minlength=label_space) > 0
                rec = float(realized[wanted].mean())
                allowed = np.zeros(label_space, dtype=bool)
                allowed[wanted] = True
                bad = ~(negative_row[rows] | allowed[member_labels])
            else:
                rec = 1.0
                bad = ~negative_row[rows]
            prec_row[rows[bad]] = 0.0
        else:  # llp
            fraction = float((member_labels == 1).mean())
            proportion_error_row[rows] = abs(fraction - bag.weak_label.value)
            rec = 1.0
        rec_row[rows] = rec

    if not params.distgap_enabled:
        raw_distgap = {}
    else:
        if train_bag_index is None:
            raise ParameterError("distance gap needs train_bag_index (instance -> bag)")
        if params.distgap_space == "features":
            if raw_distgap is None:
                raise ParameterError("distgap_space='features' needs the precomputed raw_distgap")
        else:
            raw_distgap = raw_distance_gaps(
                tr_ids, tr_emb, ho_ids, ho_emb, heldout_bags, train_bag_index, k
            )
        if tau is None:
            tau = calibrate_tau(raw_distgap, tr_ids)

    return RewardContext(
        regime=regime,
        negative_labels=frozenset(negative_labels),
        train_row={iid: row for row, iid in enumerate(tr_ids)},
        train_labels=tr_labels,
        neighbor_rows=neighbor_rows,
        rec_row=rec_row,
        prec_row=prec_row,
        proportion_error_row=proportion_error_row,
        raw_distgap=raw_distgap,
        tau=tau,
    )


# ---------------------------------------------------------------------------
# The environment: labelling -> rewards, through a freshly trained classifier
# ---------------------------------------------------------------------------


class RewardEnvironment:
    """Callable scoring one candidate labelling of the training fold.

    Each call fits the classifier on (fold features, labelling) with a fresh
    seed drawn from the supplied rng (the only source of reward noise),
    predicts the fold and the held-out set, builds a RewardContext, and
    returns one reward per training instance. Instances fixed by earlier
    bootstrap passes can be appended to every fit via ``extra_features`` /
    ``extra_labels``. Feature-space distance gaps depend on no classifier, so
    they (and tau=None's calibration) are computed once, at construction.
    """

    def __init__(
        self,
        regime: str,
        train_ids: list[int],
        train_features: np.ndarray,
        train_bag_index: dict[int, Bag],
        heldout_ids: list[int],
        heldout_features: np.ndarray,
        heldout_bags: list[Bag],
        classifier_spec: ClassifierSpec,
        params: RewardParams,
        negative_labels: frozenset[int] = frozenset({NEGATIVE_CLASS}),
        extra_features: np.ndarray | None = None,
        extra_labels: np.ndarray | None = None,
    ):
        if len(train_ids) != train_features.shape[0]:
            raise ValidationError("train_ids and train_features disagree on length")
        if len(heldout_ids) != heldout_features.shape[0]:
            raise ValidationError("heldout_ids and heldout_features disagree on length")
        self.regime = regime
        self.params = params
        self.classifier_spec = classifier_spec
        self.heldout_bags = heldout_bags
        self.negative_labels = frozenset(negative_labels)
        self.extra_features = extra_features
        self.extra_labels = extra_labels
        # keep everything row-aligned with ascending instance ids
        train_order = np.argsort(np.asarray(train_ids))
        self.train_ids = [int(train_ids[j]) for j in train_order]
        self.train_features = train_features[train_order]
        self.train_bag_index = train_bag_index
        heldout_order = np.argsort(np.asarray(heldout_ids))
        self.heldout_ids = [int(heldout_ids[j]) for j in heldout_order]
        self.heldout_features = heldout_features[heldout_order]
        self._tau = params.tau
        self._raw_distgap = None
        if params.distgap_enabled:
            _check_distgap_groups(self.train_ids, train_bag_index, heldout_bags)
        if params.distgap_enabled and params.distgap_space == "features":
            self._raw_distgap = raw_distance_gaps(
                self.train_ids,
                self.train_features,
                self.heldout_ids,
                self.heldout_features,
                heldout_bags,
                train_bag_index,
                min(params.k, len(self.heldout_ids)),
            )
            if self._tau is None:
                self._tau = calibrate_tau(self._raw_distgap, self.train_ids)

    def evaluate(self, assignment: dict[int, int], rng) -> dict[int, float]:
        seed = int(rng.integers(0, 2**63))
        try:
            y = np.array([assignment[i] for i in self.train_ids], dtype=np.intp)
        except KeyError as exc:
            raise ParameterError(f"assignment is missing instance {exc.args[0]}") from exc
        X = self.train_features
        if self.extra_features is not None and len(self.extra_features):
            X = np.vstack([X, self.extra_features])
            y = np.concatenate([y, self.extra_labels])
        model = fit(self.classifier_spec, X, y, seed=seed)
        train_labels, train_emb = predict_arrays(model, self.train_features)
        ho_labels, ho_emb = predict_arrays(model, self.heldout_features)
        ctx = build_reward_context(
            self.regime,
            self.params,
            ((self.train_ids, train_labels, train_emb), (self.heldout_ids, ho_labels, ho_emb)),
            self.heldout_bags,
            train_bag_index=self.train_bag_index,
            negative_labels=self.negative_labels,
            raw_distgap=self._raw_distgap,
            tau=self._tau,
        )
        if self._tau is None and ctx.tau is not None:
            self._tau = ctx.tau  # output space: calibrated once, on the first evaluation
        rewards = {}
        for x in self.train_ids:
            r = reward_for(x, assignment[x], ctx, self.params)
            if not 0.0 <= r <= 1.0:
                raise RewardRangeError(f"reward {r!r} for instance {x} escaped [0, 1]")
            rewards[x] = r
        return rewards

    __call__ = evaluate
