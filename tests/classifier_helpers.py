"""Loop-form references for the stacked trainer.

``loop_fit`` is one member's seeded minibatch (sub)gradient descent on 2-d
arrays, one minibatch at a time, with the per-minibatch targets and weight
column built from that minibatch's labels. ``cooperative_nll_dz_add_at``
scatters the cooperative gradient with ``np.add.at``. The library's stacked
``fit`` and indexed-add scatter must match them bit for bit.
"""

import numpy as np

from labelbandit.classifiers import (
    _check_features,
    _cooperative_target_terms,
    _svm_signs,
    _with_bias,
    initial_weights,
)


def cooperative_nll_dz_add_at(z, labels, grouping):
    """d(-log sigma_target)/dz per sample, each non-target group's weight
    added onto its attaining class by ``np.add.at``."""
    _, ratios, argmax_col, _, target_group = _cooperative_target_terms(z, labels, grouping)
    rows = np.arange(z.shape[0])
    dz = np.zeros_like(z)
    dz[rows, labels] -= 1.0 - ratios[rows, target_group]
    scatter = ratios.copy()
    scatter[rows, target_group] = 0.0
    np.add.at(dz, (np.repeat(rows, ratios.shape[1]), argmax_col.ravel()), scatter.ravel())
    return dz


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
