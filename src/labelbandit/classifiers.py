"""Strongly supervised linear classifiers behind a uniform fit/predict surface.

Three kinds are supported:

* ``linear-svm``      -- one-vs-rest hinge loss, stochastic subgradient descent.
* ``softmax``         -- multinomial logistic regression, cross-entropy.
* ``cooperative-softmax`` -- softmax whose denominator replaces each
  non-competing class group by the single strongest member of that group, so
  classes inside a group never compete with each other.

``predict_arrays`` returns hard labels plus the output-space embeddings they
are the argmax of (decision values for the SVM, per-class scores for the
softmax variants); the nearest-neighbour search the rewards run in that
space lives here too. Models are immutable after ``fit``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ValidationError

KINDS = ("linear-svm", "softmax", "cooperative-softmax")


def singleton_grouping(num_classes: int) -> tuple[tuple[int, ...], ...]:
    return tuple((c,) for c in range(num_classes))


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier kind plus training hyperparameters.

    ``grouping`` is only meaningful for cooperative-softmax: a disjoint,
    exhaustive partition of class ids; classes sharing a group do not compete.
    When omitted it defaults to all-singleton groups, which makes the
    cooperative variant coincide with plain softmax.
    """

    kind: str
    num_classes: int
    grouping: tuple[tuple[int, ...], ...] | None = None
    learning_rate: float = 0.1
    epochs: int = 30
    l2: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown classifier kind {self.kind!r}; expected one of {KINDS}")
        if self.num_classes < 2:
            raise ParameterError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.learning_rate <= 0 or self.epochs < 1 or self.l2 < 0 or self.batch_size < 1:
            raise ParameterError("hyperparameters must be positive (l2 may be 0)")
        grouping = self.grouping
        if self.kind == "cooperative-softmax" and grouping is None:
            grouping = singleton_grouping(self.num_classes)
        if grouping is not None:
            grouping = tuple(tuple(sorted(int(c) for c in group)) for group in grouping)
            flat = [c for group in grouping for c in group]
            if sorted(flat) != list(range(self.num_classes)):
                raise ParameterError(
                    f"grouping {grouping} is not a disjoint exhaustive partition of "
                    f"0..{self.num_classes - 1}"
                )
        object.__setattr__(self, "grouping", grouping)

    @property
    def num_outputs(self) -> int:
        if self.kind == "linear-svm" and self.num_classes == 2:
            return 1
        return self.num_classes


@dataclass(frozen=True)
class TrainedModel:
    """Weight matrix of shape (num_outputs, feature_dim + 1); last column is the bias."""

    weights: np.ndarray
    spec: ClassifierSpec


def _with_bias(features: np.ndarray) -> np.ndarray:
    return np.hstack([features, np.ones((features.shape[0], 1))])


def _check_features(features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-d, got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise ValidationError("feature matrix contains non-finite values")
    return features


def _svm_signs(labels: np.ndarray, spec: ClassifierSpec) -> np.ndarray:
    """Per-task +-1 targets, shape labels.shape + (num_outputs,)."""
    if spec.num_outputs == 1:
        return np.where(labels == 1, 1.0, -1.0)[..., None]
    return np.where(labels[..., None] == np.arange(spec.num_classes), 1.0, -1.0)


_GROUPING_CACHE: dict = {}


def _grouping_arrays(grouping):
    """Fixed index tables per grouping, cached (groupings are few and reused):
    the class -> group map, the singleton groups and their classes, the
    larger groups with their classes, and the group and class ids as column
    vectors for broadcasting against class-major (classes, rows) scores."""
    cached = _GROUPING_CACHE.get(grouping)
    if cached is None:
        num_classes = max(c for group in grouping for c in group) + 1
        group_of = np.empty(num_classes, dtype=np.intp)
        for gi, group in enumerate(grouping):
            group_of[list(group)] = gi
        single_gis = np.array([gi for gi, g in enumerate(grouping) if len(g) == 1], dtype=np.intp)
        single_cols = np.array([g[0] for g in grouping if len(g) == 1], dtype=np.intp)
        multis = [(gi, g) for gi, g in enumerate(grouping) if len(g) > 1]
        group_ids = np.arange(len(grouping))[:, None]
        class_ids = np.arange(num_classes)[:, None]
        cached = (group_of, single_gis, single_cols, multis, group_ids, class_ids)
        _GROUPING_CACHE[grouping] = cached
    return cached


def _group_max_scores(zt: np.ndarray, grouping):
    """Per-group score maxima and the attaining class (lowest id on ties), each
    (groups, rows), from class-major scores ``zt`` (classes, rows)."""
    _, single_gis, single_cols, multis, _, _ = _grouping_arrays(grouping)
    group_max = np.empty((len(grouping), zt.shape[1]))
    argmax_class = np.empty(group_max.shape, dtype=np.intp)
    group_max[single_gis] = zt[single_cols]
    argmax_class[single_gis] = single_cols[:, None]
    for gi, (first, *rest) in multis:
        best, winner = zt[first], first
        for c in rest:
            better = zt[c] > best  # strict: ties keep the lower class id
            best = np.where(better, zt[c], best)
            winner = np.where(better, c, winner)
        group_max[gi], argmax_class[gi] = best, winner
    return group_max, argmax_class


def _competing_set(z: np.ndarray, labels: np.ndarray, grouping):
    """Each target's competing set, class-major: its own score in its group's
    slot and the strongest score of every other group.

    Returns the (groups, rows) target-group mask, the target scores, the
    set's max, the set's exponentials against it and their sum, and each
    group's attaining class. Stabilizing by the max of the set (rather than
    the row max, which may hide inside the target's own group) keeps the
    denominator bounded away from zero.
    """
    group_of, *_, group_ids, _ = _grouping_arrays(grouping)
    zt = np.ascontiguousarray(z.T)
    group_max, argmax_class = _group_max_scores(zt, grouping)
    is_target = group_of[labels] == group_ids
    target = zt[labels, np.arange(zt.shape[1])]
    competing = np.where(is_target, target, group_max)
    peak = competing.max(axis=0)
    exp_set = np.exp(competing - peak)
    # numpy sums a contiguous run of 8 or more terms pairwise but adds rows
    # one after another; summing contiguous (rows, groups) rows keeps the
    # row-major bits at every group count
    denom = np.ascontiguousarray(exp_set.T).sum(axis=1)
    return is_target, target, peak, exp_set, denom, argmax_class


def _cooperative_log_sigma(z: np.ndarray, labels: np.ndarray, grouping) -> np.ndarray:
    """Per-sample log sigma of the target class."""
    _, target, peak, _, denom, _ = _competing_set(z, labels, grouping)
    return (target - peak) - np.log(denom)


def _cooperative_nll_dz(z: np.ndarray, labels: np.ndarray, grouping) -> np.ndarray:
    """d(-log sigma_target)/dz per sample; the non-smooth in-denominator max
    contributes through its attaining term only (lowest class id on ties).

    Each group's weight lands on one class: the target's group gives its
    weight minus one to the target, every other group its weight to its
    attaining class; all other classes get zero.
    """
    group_of, *_, class_ids = _grouping_arrays(grouping)
    is_target, _, _, exp_set, denom, argmax_class = _competing_set(z, labels, grouping)
    weight = exp_set / denom - is_target  # r - 1 rounds exactly as -(1 - r)
    receiver = np.where(is_target, labels, argmax_class)
    dzt = np.where(receiver[group_of] == class_ids, weight[group_of], 0.0)
    return np.ascontiguousarray(dzt.T)


def _cooperative_sigma(z: np.ndarray, grouping) -> np.ndarray:
    """Cooperative scores for every class: exp(z_i) over exp(z_i) plus the
    strongest exponential of each group not containing i, computed with a
    per-class stabilizer so saturated scores stay finite.

    Scores are handled class-major, (classes, rows). Below 8 groups each
    group's exponentials are added into one (classes, rows) sum in group
    order: numpy sums fewer than 8 contiguous terms left to right too, so
    the result is bit-equal to summing a (classes, groups) block per row.
    From 8 terms on numpy sums pairwise, in another order, so there that
    (classes, rows, groups) array is built and summed along its group axis.
    A class's own group enters as -inf before the exp, never as an
    overflowing exponent zeroed after it.
    """
    group_of, *_, group_ids, _ = _grouping_arrays(grouping)
    zt = z.T.copy()
    group_max, _ = _group_max_scores(zt, grouping)
    # strongest and second-strongest group max (equal when groups tie)
    top, second = group_max[0], np.full(zt.shape[1], -np.inf)
    for g_max in group_max[1:]:
        second = np.maximum(second, np.minimum(top, g_max))
        top = np.maximum(top, g_max)
    # strongest group max when class i's own group is excluded
    peak = np.where(group_max[group_of] == top, second, top)
    np.maximum(zt, peak, out=peak)
    own = np.exp(np.subtract(zt, peak, out=zt), out=zt)
    if len(grouping) < 8:
        rest = np.zeros_like(zt)
        exponent = np.empty_like(zt)
        for g_max, cols in zip(group_max, grouping):
            np.subtract(g_max, peak, out=exponent)
            exponent[list(cols)] = -np.inf
            rest += np.exp(exponent, out=exponent)
    else:
        # C order keeps the group axis contiguous, so each sum runs along it
        exponents = np.subtract(group_max.T, peak[:, :, None], order="C")
        np.copyto(exponents, -np.inf, where=(group_of == group_ids).T[:, None, :])
        rest = np.exp(exponents, out=exponents).sum(axis=2)
    rest += own
    return np.divide(own, rest, out=rest).T.copy()


def cooperative_objective(weights, features, labels, grouping) -> float:
    """Mean log-score of the assigned labels under the cooperative softmax."""
    features = _check_features(features)
    xb = _with_bias(features)
    z = xb @ np.asarray(weights).T
    labels = np.asarray(labels, dtype=np.intp)
    return float(np.mean(_cooperative_log_sigma(z, labels, grouping)))


def cooperative_gradient(weights, features, labels, grouping) -> np.ndarray:
    """Ascent (sub)gradient of ``cooperative_objective`` with respect to the weights."""
    features = _check_features(features)
    xb = _with_bias(features)
    weights = np.asarray(weights, dtype=np.float64)
    z = xb @ weights.T
    labels = np.asarray(labels, dtype=np.intp)
    dz = _cooperative_nll_dz(z, labels, grouping)
    return -(dz.T @ xb) / z.shape[0]


def _batch_gradient(spec, weights, xb, targets, weight_col):
    """Each member's mean minibatch gradient of its (weighted) training loss,
    without the L2 term, shape (B, outputs, d+1).

    ``weights`` is (B, outputs, d+1) and ``xb`` (B, m, d+1); ``targets`` is
    (B, m, outputs) of +-1 signs for the SVM and (B, m) labels otherwise;
    ``weight_col`` is (B, m, 1), or None for unit weights. Every operation
    acts on each member's rows alone (the matmuls per (m, d+1) slice), so a
    member's gradient does not depend on B or on the other members.
    """
    z = xb @ weights.transpose(0, 2, 1)
    if spec.kind == "linear-svm":
        violated = targets * z < 1.0
        dz = -(targets * violated)
    else:
        # rows are independent, so the members' rows are stacked into one matrix
        flat, labels = z.reshape(-1, z.shape[2]), targets.ravel()
        if spec.kind == "softmax":
            e = np.exp(flat - flat.max(axis=1, keepdims=True))
            dz = e / e.sum(axis=1, keepdims=True)
            dz[np.arange(labels.size), labels] -= 1.0
        else:
            dz = _cooperative_nll_dz(flat, labels, spec.grouping)
        dz = dz.reshape(z.shape)
    if weight_col is not None:
        dz = weight_col * dz
    return (dz / xb.shape[1]).transpose(0, 2, 1) @ xb


def training_loss(spec, weights, features, labels, sample_weight=None) -> float:
    """Regularized training objective being minimized by ``fit``."""
    features = _check_features(features)
    xb = _with_bias(features)
    weights = np.asarray(weights, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    n = xb.shape[0]
    w = np.ones(n) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if spec.kind == "linear-svm":
        signs = _svm_signs(labels, spec)
        margins = np.maximum(0.0, 1.0 - signs * (xb @ weights.T))
        data = float(np.mean(w * margins.sum(axis=1)))
    elif spec.kind == "softmax":
        z = xb @ weights.T
        zs = z - z.max(axis=1, keepdims=True)
        log_probs = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
        data = float(np.mean(-w * log_probs[np.arange(n), labels]))
    else:
        z = xb @ weights.T
        data = float(np.mean(-w * _cooperative_log_sigma(z, labels, spec.grouping)))
    reg = 0.5 * spec.l2 * float(np.sum(weights[:, :-1] ** 2))
    return data + reg


def initial_weights(spec: ClassifierSpec, feature_dim: int, rng=None) -> np.ndarray:
    """Zeros for svm/softmax; a small seeded Gaussian for cooperative-softmax,
    which needs the symmetry between same-group weights broken."""
    shape = (spec.num_outputs, feature_dim + 1)
    if spec.kind == "cooperative-softmax":
        rng = np.random.default_rng(spec.seed) if rng is None else rng
        return rng.normal(0.0, 0.01, shape)
    return np.zeros(shape)


def fit(
    spec: ClassifierSpec, features, labels, sample_weight=None, seed=None
) -> TrainedModel | list[TrainedModel]:
    """Train by seeded minibatch (sub)gradient descent; deterministic per seed.

    ``seed`` overrides ``spec.seed`` so one spec can serve many independently
    seeded fits. Degenerate inputs (a single class present) still return a
    model. Sample weights scale each instance's loss term.

    A (B, n) ``labels`` matrix fits B members on the same features at once
    and returns a list of B models; ``seed`` is then a sequence of B seeds
    and ``sample_weight``, if given, is (B, n) too. Member b draws from its
    own ``default_rng(seed[b])`` exactly as a lone fit would (initial weights,
    then one permutation per epoch), and its minibatches are gathered and
    stepped together with the others', so its weights are bit-equal to
    ``fit(spec, features, labels[b], sample_weight[b], seed[b])``.
    """
    features = _check_features(features)
    labels = np.asarray(labels, dtype=np.intp)
    n = features.shape[0]
    if labels.ndim not in (1, 2) or labels.shape[-1] != n:
        raise ValidationError(f"labels shape {labels.shape} does not match {n} instances")
    if labels.size and (labels.min() < 0 or labels.max() >= spec.num_classes):
        raise ValidationError(
            f"label ids must lie in [0, {spec.num_classes}); got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    members = labels if labels.ndim == 2 else labels[None]
    weight_col = None
    if sample_weight is not None:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if sample_weight.shape != labels.shape:
            raise ValidationError("sample_weight length does not match labels")
        if np.any(sample_weight < 0):
            raise ValidationError("sample weights must be non-negative")
        weight_col = sample_weight.reshape(members.shape + (1,))
    if seed is None:
        seed = spec.seed if labels.ndim == 1 else [spec.seed] * len(members)
    seeds = [seed] if labels.ndim == 1 else list(seed)
    if len(seeds) != members.shape[0]:
        raise ValidationError(f"{len(seeds)} seeds for {members.shape[0]} label rows")
    rngs = [np.random.default_rng(s) for s in seeds]
    xb = _with_bias(features)
    weights = np.stack([initial_weights(spec, features.shape[1], rng) for rng in rngs])
    # per-fit constants, gathered once per epoch in each member's order
    targets = _svm_signs(members, spec) if spec.kind == "linear-svm" else members
    decay = np.full(weights.shape[1:], spec.l2)
    decay[:, -1] = 0.0  # bias is not regularized
    member = np.arange(members.shape[0])[:, None]
    for _ in range(spec.epochs):
        perms = np.array([rng.permutation(n) for rng in rngs])
        epoch_xb, epoch_targets = xb[perms], targets[member, perms]
        epoch_weights = None if weight_col is None else weight_col[member, perms]
        for start in range(0, n, spec.batch_size):
            part = slice(start, start + spec.batch_size)
            part_weights = None if epoch_weights is None else epoch_weights[:, part]
            grad = _batch_gradient(
                spec, weights, epoch_xb[:, part], epoch_targets[:, part], part_weights
            )
            grad += weights * decay
            weights -= spec.learning_rate * grad
    models = [TrainedModel(w, spec) for w in weights]
    return models[0] if labels.ndim == 1 else models


def predict_arrays(model: TrainedModel, features) -> tuple[np.ndarray, np.ndarray]:
    """(labels, embeddings) arrays for a feature matrix, one row per instance.

    Each label is the argmax of its embedding (ties to the lowest class id).
    Softmax embeddings are probabilities summing to one; cooperative-softmax
    components lie in (0, 1] but need not sum to one across classes that
    share a group; SVM embeddings are decision values (binary: [-d, d]).
    """
    features = _check_features(features)
    if features.shape[1] + 1 != model.weights.shape[1]:
        raise ValidationError(
            f"feature dimension {features.shape[1]} does not match model "
            f"dimension {model.weights.shape[1] - 1}"
        )
    xb = _with_bias(features)
    spec = model.spec
    z = xb @ model.weights.T
    if spec.kind == "linear-svm":
        if spec.num_outputs == 1:
            d = z[:, 0]
            embedding = np.column_stack([-d, d])
        else:
            embedding = z
    elif spec.kind == "softmax":
        zs = z - z.max(axis=1, keepdims=True)
        e = np.exp(zs)
        embedding = e / e.sum(axis=1, keepdims=True)
    else:
        embedding = _cooperative_sigma(z, spec.grouping)
    labels = np.argmax(embedding, axis=1)
    return labels, embedding


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


def nearest_indices_1d(pool_values: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """k-nearest pool positions per query along one coordinate, (nq, k).

    One sort of the pool plus per-query windows instead of the full distance
    matrix: the k nearest values always form a contiguous run in sorted
    order, so a window of 2k around each query's insertion point is
    guaranteed to contain a valid k-nearest set. Matches
    ``nearest_indices_rows`` exactly whenever distances are tie-free; with
    exact ties the distance multiset is still correct but equally-distant
    candidates outside the window are not considered (the choice stays
    deterministic: lowest index among the windowed candidates).
    """
    n = pool_values.shape[0]
    k = min(int(k), n)
    order = np.argsort(pool_values, kind="stable")
    sorted_values = pool_values[order]
    width = min(2 * k, n)
    start = np.clip(np.searchsorted(sorted_values, queries) - k, 0, n - width)
    window = start[:, None] + np.arange(width)[None, :]
    candidates = order[window]
    delta = np.abs(sorted_values[window] - queries[:, None])
    # pre-sorting candidates by pool index makes the stable distance sort
    # break exact ties toward the lower index
    by_index = np.argsort(candidates, axis=1, kind="stable")
    candidates = np.take_along_axis(candidates, by_index, axis=1)
    delta = np.take_along_axis(delta, by_index, axis=1)
    nearest = np.argsort(delta, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(candidates, nearest, axis=1)


# ---------------------------------------------------------------------------
# Serialization (inspection and test fixtures)
# ---------------------------------------------------------------------------


def model_to_json(model: TrainedModel) -> dict:
    return {
        "kind": model.spec.kind,
        "num_classes": model.spec.num_classes,
        "grouping": [list(g) for g in model.spec.grouping] if model.spec.grouping else None,
        "weights": model.weights.tolist(),
    }


def model_from_json(doc: dict) -> TrainedModel:
    grouping = tuple(tuple(g) for g in doc["grouping"]) if doc.get("grouping") else None
    spec = ClassifierSpec(doc["kind"], doc["num_classes"], grouping=grouping)
    weights = np.asarray(doc["weights"], dtype=np.float64)
    if weights.ndim != 2 or not np.all(np.isfinite(weights)):
        raise ValidationError("model weights must be a finite 2-d matrix")
    return TrainedModel(weights, spec)


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model)) + "\n")


def load_model(path) -> TrainedModel:
    return model_from_json(json.loads(Path(path).read_text()))
