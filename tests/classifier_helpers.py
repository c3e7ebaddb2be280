"""Loop-form and row-major references for the stacked trainer and the
cooperative kernels.

``loop_fit`` is one member's seeded minibatch (sub)gradient descent on 2-d
arrays, one minibatch at a time, with the per-minibatch targets and weight
column built from that minibatch's labels. ``cooperative_nll_dz_add_at``
scatters the cooperative gradient with ``np.add.at``, and
``cooperative_sigma_3d`` builds the cooperative scores from one
(rows, classes, groups) array of exponentials. Both work on row-major
(rows, classes) scores. The library's stacked ``fit`` and class-major
kernels must match them bit for bit.
"""

import numpy as np

from labelbandit.classifiers import (
    _check_features,
    _svm_signs,
    _with_bias,
    initial_weights,
)


def group_max_scores(z, grouping):
    """Per-group score maxima, the attaining class column (lowest id on ties),
    and the class -> group index map, row-major."""
    rows = np.arange(z.shape[0])
    group_of = np.empty(z.shape[1], dtype=np.intp)
    group_max = np.empty((z.shape[0], len(grouping)))
    argmax_col = np.empty((z.shape[0], len(grouping)), dtype=np.intp)
    for gi, group in enumerate(grouping):
        cols = np.asarray(group, dtype=np.intp)
        group_of[cols] = gi
        sub = z[:, cols]
        local = np.argmax(sub, axis=1)  # first max: lowest class id within the sorted group
        argmax_col[:, gi] = cols[local]
        group_max[:, gi] = sub[rows, local]
    return group_max, argmax_col, group_of


def cooperative_target_terms(z, labels, grouping):
    """Per-sample log sigma of the target class and the softmax weights of its
    competing set; ``ratios[:, g]`` holds group g's weight, with the target's
    own weight in its own group's column."""
    group_max, argmax_col, group_of = group_max_scores(z, grouping)
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


def cooperative_nll_dz_add_at(z, labels, grouping):
    """d(-log sigma_target)/dz per sample, each non-target group's weight
    added onto its attaining class by ``np.add.at``."""
    _, ratios, argmax_col, _, target_group = cooperative_target_terms(z, labels, grouping)
    rows = np.arange(z.shape[0])
    dz = np.zeros_like(z)
    dz[rows, labels] -= 1.0 - ratios[rows, target_group]
    scatter = ratios.copy()
    scatter[rows, target_group] = 0.0
    np.add.at(dz, (np.repeat(rows, ratios.shape[1]), argmax_col.ravel()), scatter.ravel())
    return dz


def cooperative_sigma_3d(z, grouping):
    """Cooperative scores for every class, each class's competing
    exponentials summed along the group axis of one (rows, classes, groups)
    array."""
    group_max, _, group_of = group_max_scores(z, grouping)
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


def _loop_gradient(spec, weights, xb, labels, weight_col):
    """Mean minibatch gradient of one member's weighted loss, without L2."""
    n = xb.shape[0]
    if spec.kind == "linear-svm":
        signs = _svm_signs(labels, spec)
        viol = (signs * (xb @ weights.T) < 1.0).astype(np.float64)
        return (-(weight_col * signs * viol) / n).T @ xb
    z = xb @ weights.T
    if spec.kind == "softmax":
        zs = z - z.max(axis=1, keepdims=True)
        e = np.exp(zs)
        probs = e / e.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        return ((weight_col * probs) / n).T @ xb
    dz = cooperative_nll_dz_add_at(z, labels, spec.grouping)
    return ((weight_col * dz) / n).T @ xb


def loop_fit(spec, features, labels, sample_weight=None, seed=None) -> np.ndarray:
    """One member's trained weights, (num_outputs, feature_dim + 1)."""
    features = _check_features(features)
    labels = np.asarray(labels, dtype=np.intp)
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    xb = _with_bias(features)
    weights = initial_weights(spec, features.shape[1], rng)
    n = xb.shape[0]
    l2_mask = np.ones_like(weights)
    l2_mask[:, -1] = 0.0
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            w_col = np.ones((idx.size, 1)) if sample_weight is None else sample_weight[idx][:, None]
            grad = _loop_gradient(spec, weights, xb[idx], labels[idx], w_col)
            grad += spec.l2 * weights * l2_mask
            weights -= spec.learning_rate * grad
    return weights
