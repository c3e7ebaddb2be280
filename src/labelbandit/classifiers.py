"""Strongly supervised linear classifiers behind a uniform fit/predict surface.

Three kinds are supported:

* ``linear-svm``      -- one-vs-rest hinge loss, stochastic subgradient descent.
* ``softmax``         -- multinomial logistic regression, cross-entropy.
* ``cooperative-softmax`` -- softmax whose denominator replaces each
  non-competing class group by the single strongest member of that group, so
  classes inside a group never compete with each other.

``predict_arrays`` returns hard labels plus the output-space embeddings they
are the argmax of (decision values for the SVM, per-class scores for the
softmax variants). Models are immutable after ``fit``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    InferenceError, ParameterError, Rule, ValidationError, check_count, check_settings, setting,
)

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

    kind: str = setting(Rule("choice", choices=KINDS, name="classifier kind"))
    num_classes: int = setting(Rule("count", 2))
    grouping: tuple[tuple[int, ...], ...] | None = None
    learning_rate: float = setting(Rule("real", ends="()"), 0.1)
    epochs: int = setting(Rule("count", 1), 30)
    l2: float = setting(Rule("real"), 1e-3)
    batch_size: int = setting(Rule("count", 1), 32)

    def __post_init__(self):
        check_settings(self, ParameterError)
        grouping = self.grouping
        if self.kind == "cooperative-softmax" and grouping is None:
            grouping = singleton_grouping(self.num_classes)
        if grouping is not None:
            grouping = tuple(
                tuple(sorted(check_count(c, "grouping class id", 0, ParameterError) for c in g))
                for g in grouping
            )
            if sorted(c for group in grouping for c in group) != list(range(self.num_classes)):
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
    larger groups with their classes, and the larger groups' ids."""
    cached = _GROUPING_CACHE.get(grouping)
    if cached is None:
        num_classes = max(c for group in grouping for c in group) + 1
        group_of = np.empty(num_classes, dtype=np.intp)
        for gi, group in enumerate(grouping):
            group_of[list(group)] = gi
        single_gis = np.array([gi for gi, g in enumerate(grouping) if len(g) == 1], dtype=np.intp)
        single_cols = np.array([g[0] for g in grouping if len(g) == 1], dtype=np.intp)
        multis = [(gi, g) for gi, g in enumerate(grouping) if len(g) > 1]
        multi_gis = np.array([gi for gi, _ in multis], dtype=np.intp)
        cached = (group_of, single_gis, single_cols, multis, multi_gis)
        _GROUPING_CACHE[grouping] = cached
    return cached


def _group_max_scores(zt: np.ndarray, grouping, receiver=None) -> np.ndarray:
    """Per-group score maxima, (groups, rows), from class-major scores ``zt``
    (classes, rows). Given a (groups, rows) ``receiver``, each larger
    group's row of it gets the attaining class, the lowest id on ties; its
    singleton rows are left as they are.

    A larger group's maxima are one ``np.maximum`` chain over its classes,
    and its receiver one equality compare per class, from the highest class
    down. A NaN score makes its group's maximum NaN, as ``np.maximum``
    propagates it; no class then compares equal, and the receiver is the
    group's highest class. Features are checked finite, so a NaN score only
    comes from weights a diverging fit drove past the float range.
    """
    _, single_gis, single_cols, multis, _ = _grouping_arrays(grouping)
    group_max = np.empty((len(grouping), zt.shape[1]))
    group_max[single_gis] = zt[single_cols]
    for gi, group in multis:
        best = np.maximum(zt[group[0]], zt[group[1]], out=group_max[gi])
        for c in group[2:]:
            np.maximum(best, zt[c], out=best)
        if receiver is not None:
            receiver[gi] = group[-1]
            for c in group[-2::-1]:
                np.putmask(receiver[gi], np.equal(zt[c], best), c)
    return group_max


def _group_sum(stack: np.ndarray) -> np.ndarray:
    """Sum of a class-major stack of group terms over its leading axis, with
    the bits numpy gives each row of the contiguous transpose, so no
    transposed copy is made. Numpy sums fewer than 8 terms left to right,
    as ``sum(axis=0)`` does here. From 8 terms on it sums pairwise: 8
    accumulators over a block of at most 128 terms, combined as
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then the last n % 8 terms
    one by one; above 128 terms, the two halves split at a multiple of 8
    are summed alone and added."""
    n = len(stack)
    if n < 8:
        return stack.sum(axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _group_sum(stack[:half]) + _group_sum(stack[half:])
    tail = n - n % 8
    acc = stack[:8]
    for start in range(8, tail, 8):
        acc = acc + stack[start : start + 8]
    pairs = acc[0::2] + acc[1::2]
    total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for row in stack[tail:]:
        total += row
    return total


def _competing_set(z: np.ndarray, labels: np.ndarray, grouping, receiver=None):
    """Each target's competing set, class-major: its own score in its group's
    slot and the strongest score of every other group, from (rows, classes)
    scores ``z``; ``receiver`` is passed on to ``_group_max_scores``.

    Returns the set's exponentials against its max, (groups, rows), their
    sum by ``_group_sum`` (the bits of each row's groups summed as one
    contiguous run) and the target slots as flat indices into the set. The
    target scores go into their slots by one flat put. Stabilizing by the
    max of the set (rather than the row max, which may hide inside the
    target's own group) keeps the denominator bounded away from zero.
    """
    group_of = _grouping_arrays(grouping)[0]
    zt = np.ascontiguousarray(z.T)
    rows = np.arange(z.shape[0])
    exp_set = _group_max_scores(zt, grouping, receiver)
    slots = group_of[labels] * z.shape[0] + rows
    exp_set.ravel()[slots] = zt.ravel()[labels * z.shape[0] + rows]
    np.subtract(exp_set, exp_set.max(axis=0), out=exp_set)
    np.exp(exp_set, out=exp_set)
    return exp_set, _group_sum(exp_set), slots


def _cooperative_nll_dz(z: np.ndarray, labels: np.ndarray, grouping) -> np.ndarray:
    """d(-log sigma_target)/dz per sample, (rows, classes); the non-smooth
    in-denominator max contributes through its attaining term only (lowest
    class id on ties).

    Each group's weight lands on one class: the target's group gives its
    weight minus one to the target, every other group its weight to its
    attaining class; all other classes get zero. The weights are the
    competing set's exponentials divided in place, less 1 at the target
    slots. ``dz`` starts from zeros: singleton classes take their group's
    weight through one slice, and the larger groups' receivers (attaining
    class, or the target in the target's group) theirs by one flat put.
    """
    _, single_gis, single_cols, _, multi_gis = _grouping_arrays(grouping)
    num_rows, num_classes = z.shape
    receiver = np.empty((len(grouping), num_rows), dtype=np.intp)
    weight, denom, slots = _competing_set(z, labels, grouping, receiver)
    np.divide(weight, denom, out=weight)
    flat_weight = weight.ravel()
    flat_weight[slots] -= 1.0  # r - 1 rounds exactly as -(1 - r)
    dz = np.zeros((num_rows, num_classes))
    dz[:, single_cols] = weight[single_gis].T
    if multi_gis.size:
        receiver.ravel()[slots] = labels
        cells = receiver[multi_gis] + np.arange(0, dz.size, num_classes)
        dz.ravel()[cells] = weight[multi_gis]
    return dz


_SIGMA_BLOCK_ROWS = 500


def _cooperative_sigma(z: np.ndarray, grouping) -> np.ndarray:
    """Cooperative scores for every class: exp(z_i) over exp(z_i) plus the
    strongest exponential of each group not containing i, computed with a
    per-class stabilizer so saturated scores stay finite.

    Scores are handled class-major, (classes, rows). Every group's
    exponentials against each class's stabilizer form a (groups, classes,
    rows) stack, summed by ``_group_sum``: the bits of summing each
    (classes, groups) block per row. Rows are independent, so the stack is
    built for ``_SIGMA_BLOCK_ROWS`` rows at a time, which keeps it from
    adding to peak memory at the fold sizes the rewards predict. A class's
    own group enters as -inf before the exp, never as an overflowing
    exponent zeroed after it.
    """
    group_of = _grouping_arrays(grouping)[0]
    zt = z.T.copy()
    group_max = _group_max_scores(zt, grouping)
    # strongest and second-strongest group max (equal when groups tie)
    top, second = group_max[0], np.full(zt.shape[1], -np.inf)
    for g_max in group_max[1:]:
        second = np.maximum(second, np.minimum(top, g_max))
        top = np.maximum(top, g_max)
    # strongest group max when class i's own group is excluded
    peak = np.where(group_max[group_of] == top, second, top)
    np.maximum(zt, peak, out=peak)
    own = np.exp(np.subtract(zt, peak, out=zt), out=zt)
    rest = np.empty_like(zt)
    classes = np.arange(len(group_of))
    for start in range(0, zt.shape[1], _SIGMA_BLOCK_ROWS):
        part = slice(start, start + _SIGMA_BLOCK_ROWS)
        exponents = np.subtract(group_max[:, None, part], peak[:, part])
        exponents[group_of, classes] = -np.inf
        rest[:, part] = _group_sum(np.exp(exponents, out=exponents))
    rest += own
    return np.divide(own, rest, out=rest).T.copy()


def _batch_gradient(spec, weights, xb, targets, row_scale):
    """Each member's mean minibatch gradient of its (weighted) training loss,
    without the L2 term, shape (B, outputs, d+1).

    ``weights`` is (B, outputs, d+1) and ``xb`` (B, m, d+1); ``targets`` is
    (B, m, outputs) of +-1 signs for the SVM and (B, m) labels otherwise.
    For the SVM, ``row_scale`` is (B, m, outputs): each row's sample weight
    times its negated sign over m, the loss gradient a violated margin takes
    (a kept margin takes the zero of that sign). For the softmax kinds it
    is (B, m, 1) sample weights, or None for unit weights. Every operation
    acts on each member's rows alone (the matmuls per (m, d+1) slice), so a
    member's gradient does not depend on B or on the other members.
    """
    z = xb @ weights.transpose(0, 2, 1)
    if spec.kind == "linear-svm":
        return ((targets * z < 1.0) * row_scale).transpose(0, 2, 1) @ xb
    # rows are independent, so the members' rows are stacked into one matrix
    flat, labels = z.reshape(-1, z.shape[2]), targets.ravel()
    if spec.kind == "softmax":
        e = np.exp(flat - flat.max(axis=1, keepdims=True))
        dz = e / e.sum(axis=1, keepdims=True)
        dz[np.arange(labels.size), labels] -= 1.0
    else:
        dz = _cooperative_nll_dz(flat, labels, spec.grouping)
    dz = dz.reshape(z.shape)
    if row_scale is not None:
        dz = row_scale * dz
    return (dz / xb.shape[1]).transpose(0, 2, 1) @ xb


def initial_weights(spec: ClassifierSpec, feature_dim: int, rng=0) -> np.ndarray:
    """Zeros for svm/softmax; a small seeded Gaussian for cooperative-softmax,
    which needs the symmetry between same-group weights broken. ``rng`` is a
    Generator or a seed."""
    shape = (spec.num_outputs, feature_dim + 1)
    if spec.kind == "cooperative-softmax":
        return np.random.default_rng(rng).normal(0.0, 0.01, shape)
    return np.zeros(shape)


# elements of the training rows one block of epochs gathers, over all members
_EPOCH_BLOCK_ELEMENTS = 2**13


def fit(
    spec: ClassifierSpec, features, labels, sample_weight=None, seed=None
) -> TrainedModel | list[TrainedModel]:
    """Train by seeded minibatch (sub)gradient descent; deterministic per seed.

    ``seed`` None means seed 0 for every member. Degenerate inputs (a single
    class present) still return a model. Sample weights scale each
    instance's loss term. A fit whose weights end non-finite (a learning
    rate that drove them past the float range) is an InferenceError,
    whatever the warnings filter makes of numpy's overflow warnings.

    A (B, n) ``labels`` matrix fits B members on the same features at once
    and returns a list of B models; ``seed`` is then a sequence of B seeds
    and ``sample_weight``, if given, is (B, n) too. Member b draws from its
    own ``default_rng(seed[b])`` exactly as a lone fit would (initial weights,
    then a permutation per epoch), and its minibatches are stepped together
    with the others', so its weights are bit-equal to
    ``fit(spec, features, labels[b], sample_weight[b], seed[b])``.

    Epochs are walked in blocks of as many as keep the block's gathered rows,
    over all members, within ``_EPOCH_BLOCK_ELEMENTS`` (one epoch at least),
    so memory does not grow with the epoch count. Each member draws a
    block's permutations with one ``permuted`` call, which gives the rows of
    as many sequential ``permutation(n)`` calls and leaves its generator in
    the same state; the block's rows, targets and sample weights are then
    gathered once.
    """
    features = _check_features(features)
    given = np.asarray(labels)
    labels = given.astype(np.intp, copy=False)
    if labels is not given and not np.array_equal(labels, given):
        bad = given[labels != given][0].item()
        raise ValidationError(f"label ids must be whole numbers; got {bad!r}")
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
        if not np.all(np.isfinite(sample_weight)) or np.any(sample_weight < 0):
            raise ValidationError("sample weights must be finite and non-negative")
        weight_col = sample_weight.reshape(-1, 1)
    if seed is None:
        seed = 0 if labels.ndim == 1 else [0] * len(members)
    seeds = [seed] if labels.ndim == 1 else list(seed)
    if len(seeds) != members.shape[0]:
        raise ValidationError(f"{len(seeds)} seeds for {members.shape[0]} label rows")
    rngs = [np.random.default_rng(s) for s in seeds]
    xb = _with_bias(features)
    weights = np.stack([initial_weights(spec, features.shape[1], rng) for rng in rngs])
    num_members = members.shape[0]
    block = max(1, min(spec.epochs, _EPOCH_BLOCK_ELEMENTS // max(1, num_members * xb.size)))
    order = np.broadcast_to(np.arange(n), (block, n))
    starts = range(0, n, spec.batch_size)
    parts = [
        slice(epoch * n + start, epoch * n + min(start + spec.batch_size, n))
        for epoch in range(block)
        for start in starts
    ]
    # per-fit constants, one row per (member, instance), gathered once per block
    if spec.kind == "linear-svm":
        targets = _svm_signs(members.ravel(), spec)
        row_scale = (1.0 if weight_col is None else weight_col) * -targets
        # each block row's minibatch size; an epoch's last minibatch may be shorter
        lengths = [part.stop - part.start for part in parts]
        sizes = np.repeat(lengths, lengths)[:, None]
    else:
        targets, row_scale = members.ravel(), weight_col
    decay = np.full(weights.shape[1:], spec.l2)
    decay[:, -1] = 0.0  # bias is not regularized
    member_start = np.arange(num_members)[:, None] * n
    for first in range(0, spec.epochs, block):
        epochs = min(block, spec.epochs - first)
        # one draw per member: the rows of as many sequential permutations
        perms = np.empty((num_members, epochs, n), dtype=np.intp)
        for rng, out in zip(rngs, perms):
            rng.permuted(order[:epochs], axis=1, out=out)
        perms = perms.reshape(num_members, epochs * n)
        block_xb = xb.take(perms, axis=0)
        perms += member_start
        block_targets = targets.take(perms, axis=0)
        block_scale = None if row_scale is None else row_scale.take(perms, axis=0)
        if spec.kind == "linear-svm":
            block_scale /= sizes[: epochs * n]
        for part in parts[: epochs * len(starts)]:
            part_scale = None if block_scale is None else block_scale[:, part]
            grad = _batch_gradient(
                spec, weights, block_xb[:, part], block_targets[:, part], part_scale
            )
            grad += weights * decay
            weights -= spec.learning_rate * grad
    if not np.all(np.isfinite(weights)):
        raise InferenceError(
            f"classifier fit diverged: its weights are not finite after {spec.epochs} epochs "
            f"at learning_rate={spec.learning_rate!r}"
        )
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
