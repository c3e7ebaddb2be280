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
    """Per-task +-1 targets, shape (n, num_outputs)."""
    if spec.num_outputs == 1:
        return np.where(labels == 1, 1.0, -1.0)[:, None]
    return np.where(labels[:, None] == np.arange(spec.num_classes)[None, :], 1.0, -1.0)


_GROUPING_CACHE: dict = {}


def _grouping_arrays(grouping):
    """Static index structures per grouping, cached (groupings are few and reused)."""
    cached = _GROUPING_CACHE.get(grouping)
    if cached is None:
        num_classes = max(c for group in grouping for c in group) + 1
        group_of = np.empty(num_classes, dtype=np.intp)
        for gi, group in enumerate(grouping):
            for c in group:
                group_of[c] = gi
        single_gis = np.array([gi for gi, g in enumerate(grouping) if len(g) == 1], dtype=np.intp)
        single_cols = np.array([g[0] for g in grouping if len(g) == 1], dtype=np.intp)
        multis = [(gi, np.asarray(g, dtype=np.intp)) for gi, g in enumerate(grouping) if len(g) > 1]
        cached = (group_of, single_gis, single_cols, multis)
        _GROUPING_CACHE[grouping] = cached
    return cached


def _group_max_scores(z: np.ndarray, grouping):
    """Per-group score maxima, the attaining class column (lowest id on ties),
    and the class -> group index map."""
    group_of, single_gis, single_cols, multis = _grouping_arrays(grouping)
    rows = np.arange(z.shape[0])
    group_max = np.empty((z.shape[0], len(grouping)))
    argmax_col = np.empty((z.shape[0], len(grouping)), dtype=np.intp)
    if single_gis.size:
        group_max[:, single_gis] = z[:, single_cols]
        argmax_col[:, single_gis] = single_cols[None, :]
    for gi, cols in multis:
        sub = z[:, cols]
        local = np.argmax(sub, axis=1)  # first max: lowest class id within the sorted group
        argmax_col[:, gi] = cols[local]
        group_max[:, gi] = sub[rows, local]
    return group_max, argmax_col, group_of


def _cooperative_target_terms(z: np.ndarray, labels: np.ndarray, grouping):
    """Per-sample log sigma of the target class and the softmax weights of its
    competing set.

    The competing set of a target is its own score plus the strongest score of
    every other group; stabilizing by the max of that set (rather than the row
    max, which may hide inside the target's own group) keeps the denominator
    bounded away from zero. ``ratios[:, g]`` holds group g's weight, with the
    target's own weight sitting in its own group's column.
    """
    group_max, argmax_col, group_of = _group_max_scores(z, grouping)
    rows = np.arange(z.shape[0])
    target_group = group_of[labels]
    competing = group_max.copy()
    competing[rows, target_group] = z[rows, labels]
    peak = competing.max(axis=1, keepdims=True)
    exp_set = np.exp(competing - peak)
    denom = exp_set.sum(axis=1)
    log_sigma = (z[rows, labels] - peak[:, 0]) - np.log(denom)
    ratios = exp_set / denom[:, None]
    return log_sigma, ratios, argmax_col, group_of, target_group


def _cooperative_nll_dz(z: np.ndarray, labels: np.ndarray, grouping) -> np.ndarray:
    """d(-log sigma_target)/dz per sample; the non-smooth in-denominator max
    contributes through its attaining term only (lowest class id on ties)."""
    _, ratios, argmax_col, group_of, target_group = _cooperative_target_terms(
        z, labels, grouping
    )
    rows = np.arange(z.shape[0])
    dz = np.zeros_like(z)
    dz[rows, labels] -= 1.0 - ratios[rows, target_group]
    # scatter each non-target group's weight onto its attaining class; the
    # target's own group contributes zero (its weight was handled above)
    scatter = ratios.copy()
    scatter[rows, target_group] = 0.0
    np.add.at(dz, (np.repeat(rows, ratios.shape[1]), argmax_col.ravel()), scatter.ravel())
    return dz


def _cooperative_sigma(z: np.ndarray, grouping) -> np.ndarray:
    """Cooperative scores for every class: exp(z_i) over exp(z_i) plus the
    strongest exponential of each group not containing i, computed with a
    per-class stabilizer so saturated scores stay finite."""
    group_max, _, group_of = _group_max_scores(z, grouping)
    rows = np.arange(z.shape[0])
    order = np.argsort(group_max, axis=1)
    top = group_max[rows, order[:, -1]]
    second = group_max[rows, order[:, -2]] if len(grouping) > 1 else np.full(z.shape[0], -np.inf)
    # strongest group max when class i's own group is excluded
    excluded = np.where(group_of[None, :] == order[:, -1][:, None], second[:, None], top[:, None])
    peak = np.maximum(z, excluded)
    own = np.exp(z - peak)
    exponents = group_max[:, None, :] - peak[:, :, None]  # (rows, classes, groups)
    own_group = group_of[None, :, None] == np.arange(len(grouping))[None, None, :]
    rest = np.exp(np.where(own_group, -np.inf, exponents)).sum(axis=2)
    return own / (own + rest)


def cooperative_objective(weights, features, labels, grouping) -> float:
    """Mean log-score of the assigned labels under the cooperative softmax."""
    features = _check_features(features)
    xb = _with_bias(features)
    z = xb @ np.asarray(weights).T
    labels = np.asarray(labels, dtype=np.intp)
    log_sigma, *_ = _cooperative_target_terms(z, labels, grouping)
    return float(np.mean(log_sigma))


def cooperative_gradient(weights, features, labels, grouping) -> np.ndarray:
    """Ascent (sub)gradient of ``cooperative_objective`` with respect to the weights."""
    features = _check_features(features)
    xb = _with_bias(features)
    weights = np.asarray(weights, dtype=np.float64)
    z = xb @ weights.T
    labels = np.asarray(labels, dtype=np.intp)
    dz = _cooperative_nll_dz(z, labels, grouping)
    return -(dz.T @ xb) / z.shape[0]


def _batch_gradient(spec, weights, xb, labels, weight_col):
    """Mean minibatch gradient of the (weighted) training loss, without the L2 term."""
    n = xb.shape[0]
    if spec.kind == "linear-svm":
        signs = _svm_signs(labels, spec)
        scores = xb @ weights.T
        viol = (signs * scores < 1.0).astype(np.float64)
        coef = -(weight_col * signs * viol) / n
        return coef.T @ xb
    z = xb @ weights.T
    if spec.kind == "softmax":
        zs = z - z.max(axis=1, keepdims=True)
        e = np.exp(zs)
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        return ((weight_col * probs) / n).T @ xb
    dz = _cooperative_nll_dz(z, labels, spec.grouping)
    return ((weight_col * dz) / n).T @ xb


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
        log_sigma, *_ = _cooperative_target_terms(z, labels, spec.grouping)
        data = float(np.mean(-w * log_sigma))
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


def fit(spec: ClassifierSpec, features, labels, sample_weight=None, seed=None) -> TrainedModel:
    """Train by seeded minibatch (sub)gradient descent; deterministic per seed.

    ``seed`` overrides ``spec.seed`` so one spec can serve many independently
    seeded fits. Degenerate inputs (a single class present) still return a
    model. Sample weights scale each instance's loss term.
    """
    features = _check_features(features)
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (features.shape[0],):
        raise ValidationError(
            f"labels shape {labels.shape} does not match {features.shape[0]} instances"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= spec.num_classes):
        raise ValidationError(
            f"label ids must lie in [0, {spec.num_classes}); got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    if sample_weight is not None:
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        if sample_weight.shape != labels.shape:
            raise ValidationError("sample_weight length does not match labels")
        if np.any(sample_weight < 0):
            raise ValidationError("sample weights must be non-negative")
    if seed is None:
        seed = spec.seed
    rng = np.random.default_rng(seed)
    xb = _with_bias(features)
    weights = initial_weights(spec, features.shape[1], rng)
    n = xb.shape[0]
    l2_mask = np.ones_like(weights)
    l2_mask[:, -1] = 0.0  # bias is not regularized
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            w_col = (
                np.ones((idx.size, 1))
                if sample_weight is None
                else sample_weight[idx][:, None]
            )
            grad = _batch_gradient(spec, weights, xb[idx], labels[idx], w_col)
            grad += spec.l2 * weights * l2_mask
            weights -= spec.learning_rate * grad
    return TrainedModel(weights, spec)


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
