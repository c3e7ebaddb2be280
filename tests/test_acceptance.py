"""Acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest
from bandit_helpers import arms, cell, records
from reward_helpers import distgap, mil_reward, mirrored, predicted_label, predictions, reward_for

import labelbandit as lb
from labelbandit.bandit import PullLog, new_bandit, run_inference, ucb_scores, update
from labelbandit.classifiers import (
    cooperative_gradient,
    cooperative_objective,
    singleton_grouping,
)
from labelbandit.data import Bag, WeakLabel
from labelbandit.metrics import bag_accuracy, instance_accuracy
from labelbandit.pipeline import ClassifierConfig, InferenceConfig, kfold_infer
from labelbandit.rewards import RewardParams, build_reward_context, eta


def _criterion(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {number:02d} [{name}]: {status} {detail}".rstrip())
    assert passed, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. Brute-force oracle equivalence (core correctness)
# ---------------------------------------------------------------------------

REWARD_TABLE = {
    0: (0.15, 0.75),
    1: (0.90, 0.20),
    2: (0.30, 0.55),
    3: (0.80, 0.05),
    4: (0.35, 0.95),
    5: (0.60, 0.10),
}


def enumerate_optimal_labelling(table):
    """Exhaustive oracle: scan all 2^n labellings for the best total reward."""
    instances = sorted(table)
    best, best_total = None, -1.0
    for bits in itertools.product((0, 1), repeat=len(instances)):
        total = sum(table[x][bits[i]] for i, x in enumerate(instances))
        if total > best_total:
            best, best_total = dict(zip(instances, bits)), total
    return best


def test_01_bandit_recovers_brute_force_optimum():
    per_instance_gaps = [abs(a - b) for a, b in REWARD_TABLE.values()]
    assert min(per_instance_gaps) >= 0.2
    oracle = enumerate_optimal_labelling(REWARD_TABLE)
    # the optimum is unique because no instance has tied rewards
    assert all(a != b for a, b in REWARD_TABLE.values())

    def environment(assignment, rng):
        return {x: REWARD_TABLE[x][assignment[x]] for x in assignment}

    started = time.perf_counter()
    hits = 0
    for seed in range(20):
        result = run_inference(
            {x: [0, 1] for x in REWARD_TABLE},
            environment,
            rounds=2000,
            batch_size=1,
            rng=np.random.default_rng(seed),
        )
        hits += result.assignment == oracle
    elapsed = time.perf_counter() - started
    _criterion(
        1, "brute-force oracle equivalence", hits >= 19, f"{hits}/20 seeds, {elapsed:.1f}s"
    )
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. UCB formula exactness
# ---------------------------------------------------------------------------


def test_02_ucb_formula_matches_independent_evaluation():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        label_sets = {x: [int(l) for l in rng.choice(12, int(rng.integers(1, 5)), replace=False)]
                      for x in range(n)}
        state = new_bandit(label_sets)
        for arm in arms(state):
            index = cell(state, *arm)
            state.pulls[index] = int(rng.integers(1, 1000))
            state.reward_sums[index] = float(rng.uniform(0, state.pulls[index]))
        state.t = int(rng.integers(1, 10**6))
        scores = ucb_scores(state)
        for (x, l), value in scores.items():
            pulls = state.pulls[cell(state, x, l)]
            expected = state.reward_sums[cell(state, x, l)] / pulls + math.sqrt(
                3.0 * math.log(state.t) / (2.0 * pulls)
            )
            worst = max(worst, abs(value - expected) / abs(expected))
    _criterion(2, "ucb formula exactness", worst <= 1e-12, f"worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Initialization coverage
# ---------------------------------------------------------------------------


def test_03_initialization_covers_every_arm_in_minimal_sweeps():
    rng = np.random.default_rng(321)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        label_sets = {
            x: [int(l) for l in rng.choice(10, int(rng.integers(1, 7)), replace=False)]
            for x in range(n)
        }
        state = new_bandit(label_sets)
        sweep = lb.initialization_assignments(state, rng)
        assert len(sweep) == max(len(labels) for labels in label_sets.values())
        for assignment in sweep:
            update(state, assignment, {x: 0.5 for x in assignment}, advance_round=False)
        assert min(state.pulls[cell(state, *arm)] for arm in arms(state)) >= 1
    _criterion(3, "initialization coverage", True, "200 random configurations")


# ---------------------------------------------------------------------------
# 4. Reward boundedness and the modelability gate
# ---------------------------------------------------------------------------


def _random_fuzz_context(rng, regime, params, num_classes=4):
    negatives = frozenset(
        [0] + list(range(num_classes, num_classes + params.num_negative_labels - 1))
    )
    extended = num_classes + params.num_negative_labels - 1
    n_train, n_held = 5, 12
    if regime == "multiclass-mil":
        train_emb = rng.random((n_train, extended))
        held_emb = rng.random((n_held, extended))
    else:
        train_emb = mirrored([float(rng.normal()) for _ in range(n_train)])
        held_emb = mirrored([float(rng.normal()) for _ in range(n_held)])
    held_ids = list(range(100, 100 + n_held))
    bags = []
    for b, start in enumerate(range(0, n_held, 3)):
        members = held_ids[start : start + 3]
        if regime == "binary-mil":
            if params.distgap_enabled:
                # the distance gap needs both bag labels present
                label = WeakLabel.binary(b % 2)
            else:
                label = WeakLabel.binary(int(rng.integers(2)))
        elif regime == "multiclass-mil":
            size = int(rng.integers(0, 3))
            label = WeakLabel.label_set(
                {int(c) for c in rng.choice(range(1, num_classes), size, replace=False)}
            )
        else:
            label = WeakLabel.proportion(float(rng.random()))
        bags.append(Bag(b, members, label))
    train_bags = {
        x: Bag(50 + x, [x], bags[int(rng.integers(len(bags)))].weak_label) for x in range(n_train)
    }
    ctx = build_reward_context(
        regime, params,
        (predictions(range(n_train), train_emb), predictions(held_ids, held_emb)), bags,
        train_bag_index=train_bags, negative_labels=negatives,
    )
    label_pool = list(negatives) + list(range(1, num_classes))
    assignment = {x: int(rng.choice(label_pool)) for x in range(n_train)}
    return ctx, assignment


def test_04_rewards_bounded_and_gated():
    rng = np.random.default_rng(777)
    regimes = [
        ("binary-mil", RewardParams(k=3)),
        ("multiclass-mil", RewardParams(k=3, num_negative_labels=2)),
        ("llp", RewardParams(k=3)),
        ("binary-mil", RewardParams(k=3, distgap_enabled=True)),
    ]
    checked = 0
    for regime, params in regimes:
        for _ in range(1000):
            ctx, assignment = _random_fuzz_context(rng, regime, params)
            for x, assigned in assignment.items():
                reward = reward_for(x, assigned, ctx, params)
                assert 0.0 <= reward <= 1.0, (regime, reward)
                if assigned != predicted_label(x, ctx):
                    assert reward == 0.0, (regime, "gate violated")
                checked += 1
    _criterion(4, "reward boundedness and gate", True, f"{checked} rewards across 4 regimes")


# ---------------------------------------------------------------------------
# 5. Binary MIL end to end at desk scale
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_05_binary_mil_end_to_end():
    started = time.perf_counter()
    successes = 0
    details = []
    for seed in range(10):
        dataset = lb.generate_binary_mil(
            num_bags=50, bag_size_range=(3, 10), positive_fraction=0.5,
            feature_dim=5, class_separation=6.0, seed=9000 + seed,
        )
        config = InferenceConfig(
            regime="binary-mil", rounds=500, batch_size=4, folds=5, master_seed=seed,
            reward=RewardParams(k=5, alpha=1.0, gamma=1.0 / 7.0),
        )
        result = kfold_infer(dataset, config)
        inferred, _, _ = instance_accuracy(result.labels, dataset)
        bags = bag_accuracy(result.model, dataset)
        successes += inferred >= 0.90 and bags >= 0.90
        details.append(f"{inferred:.2f}/{bags:.2f}")
    elapsed = time.perf_counter() - started
    _criterion(
        5, "binary MIL end to end",
        successes >= 8,
        f"{successes}/10 seeds at >=0.90 (inferred/bag: {' '.join(details)}), {elapsed:.0f}s",
    )
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 6. Multi-class reduction identity
# ---------------------------------------------------------------------------


def test_06_multiclass_reduces_to_binary_exactly():
    rng = np.random.default_rng(606)
    params = RewardParams(k=3)
    mismatches = 0
    for _ in range(100):
        n_train, n_held = 6, 20
        train_p, held_p = rng.random(n_train), rng.random(n_held)
        train = predictions(range(n_train), np.column_stack([1 - train_p, train_p]))
        held_ids = list(range(40, 40 + n_held))
        held = predictions(held_ids, np.column_stack([1 - held_p, held_p]))
        binary_bags, multi_bags = [], []
        for b, start in enumerate(range(0, n_held, 4)):
            members = held_ids[start : start + 4]
            value = int(rng.integers(2))
            binary_bags.append(Bag(b, members, WeakLabel.binary(value)))
            multi_bags.append(Bag(b, members, WeakLabel.label_set({1} if value else set())))
        ctx_b = build_reward_context("binary-mil", params, (train, held), binary_bags)
        ctx_m = build_reward_context("multiclass-mil", params, (train, held), multi_bags)
        for x in range(n_train):
            for assigned in (0, 1):
                a = mil_reward(x, assigned, ctx_b, params)
                b_ = mil_reward(x, assigned, ctx_m, params)
                mismatches += a != b_
    _criterion(6, "multi-class reduction identity", mismatches == 0, f"{mismatches} mismatches")


# ---------------------------------------------------------------------------
# 7. Multi-class end to end: extra negative modes help the negative class
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_07_negative_modes_beat_single_negative():
    started = time.perf_counter()
    wins = 0
    gaps = []
    for seed in range(10):
        pool_seed, bag_seed = np.random.SeedSequence([7700, seed]).generate_state(2)
        pool = lb.generate_gaussian_blobs(
            num_classes=10, per_class=300, feature_dim=2, separation=6.0, seed=int(pool_seed)
        )
        dataset = lb.generate_multiclass_mil(
            pool, num_bags=600, bag_size_range=(5, 15),
            positive_classes={1, 2, 3, 4, 5}, seed=int(bag_seed),
        )
        negative_accuracy = {}
        for modes in (1, 3):
            config = InferenceConfig(
                regime="multiclass-mil", rounds=120, batch_size=4, folds=3, master_seed=seed,
                classifier=ClassifierConfig(kind="cooperative-softmax", epochs=10, batch_size=128),
                reward=RewardParams(k=5, num_negative_labels=modes),
            )
            result = kfold_infer(dataset, config)
            _, per_class, _ = instance_accuracy(result.labels, dataset)
            negative_accuracy[modes] = per_class[0]
        wins += negative_accuracy[3] > negative_accuracy[1]
        gaps.append(f"{negative_accuracy[1]:.2f}->{negative_accuracy[3]:.2f}")
    elapsed = time.perf_counter() - started
    _criterion(
        7, "negative modes beat single negative",
        wins >= 6,
        f"{wins}/10 seeds (neg acc m=1->m=3: {' '.join(gaps)}), {elapsed:.0f}s",
    )
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# 8. Cooperative softmax correctness
# ---------------------------------------------------------------------------


def test_08_cooperative_softmax_reduction_and_gradient():
    rng = np.random.default_rng(808)
    # (a) singleton grouping reproduces the softmax objective
    worst_objective_gap = 0.0
    for _ in range(20):
        n, dim, classes = 40, 3, 5
        X = rng.normal(size=(n, dim))
        y = rng.integers(0, classes, n)
        W = rng.normal(size=(classes, dim + 1))
        xb = np.hstack([X, np.ones((n, 1))])
        z = xb @ W.T
        zs = z - z.max(axis=1, keepdims=True)
        log_probs = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
        softmax_objective = float(np.mean(log_probs[np.arange(n), y]))
        gap = abs(
            cooperative_objective(W, X, y, singleton_grouping(classes)) - softmax_objective
        )
        worst_objective_gap = max(worst_objective_gap, gap)

    # (b) analytic subgradient vs central finite differences at non-tie points
    grouping = ((0, 2), (1,), (3, 4))
    X = rng.normal(size=(25, 3))
    y = rng.integers(0, 5, 25)
    worst_gradient_error = 0.0
    points = 0
    while points < 100:
        W = rng.normal(size=(5, 4))
        z = np.hstack([X, np.ones((25, 1))]) @ W.T
        ties = any(
            np.isclose(np.sort(z[:, list(g)], axis=1)[:, -1],
                       np.sort(z[:, list(g)], axis=1)[:, -2]).any()
            for g in grouping if len(g) > 1
        )
        if ties:
            continue
        grad = cooperative_gradient(W, X, y, grouping)
        i, j = int(rng.integers(5)), int(rng.integers(4))
        h = 1e-6
        Wp, Wm = W.copy(), W.copy()
        Wp[i, j] += h
        Wm[i, j] -= h
        numeric = (
            cooperative_objective(Wp, X, y, grouping)
            - cooperative_objective(Wm, X, y, grouping)
        ) / (2 * h)
        scale = max(abs(numeric), 1e-7)
        worst_gradient_error = max(worst_gradient_error, abs(grad[i, j] - numeric) / scale)
        points += 1
    passed = worst_objective_gap <= 1e-9 and worst_gradient_error <= 1e-4
    _criterion(
        8, "cooperative softmax correctness", passed,
        f"objective gap {worst_objective_gap:.1e}, gradient rel err {worst_gradient_error:.1e}",
    )


# ---------------------------------------------------------------------------
# 9. Distance-gap properties
# ---------------------------------------------------------------------------


def test_09_distance_gap_properties():
    assert eta(0.0, 1.0) == 0.5
    assert eta(0.0, 123.4) == 0.5

    rng = np.random.default_rng(909)
    params = RewardParams(k=3, distgap_enabled=True)
    for _ in range(200):
        ctx, _ = _random_fuzz_context(rng, "binary-mil", params)
        for x in ctx.train_row:
            assert 0.0 <= distgap(x, ctx) <= 1.0

    # planted clusters: positive-bag members gather in one region, negative-bag
    # members in another; all probe instances sit in positive bags, but only
    # the truly positive ones resemble the positive-bag cluster
    def clustered(positive):
        return float((3.0 if positive else -3.0) + rng.normal(scale=0.3))

    held_ids = list(range(200, 236))
    held_d, bags = [], []
    for b in range(9):
        members = held_ids[b * 4 : (b + 1) * 4]
        positive = b < 5
        held_d += [clustered(positive) for _ in members]
        bags.append(Bag(b, members, WeakLabel.binary(int(positive))))
    train_d, train_bags, truth = [], {}, {}
    for x in range(20):
        positive = x < 10
        train_d.append(clustered(positive))
        train_bags[x] = Bag(90 + x, [x], WeakLabel.binary(1))
        truth[x] = positive
    ctx = build_reward_context(
        "binary-mil", params,
        (predictions(range(20), mirrored(train_d)), predictions(held_ids, mirrored(held_d))),
        bags, train_bag_index=train_bags,
    )
    positive_mean = np.mean([distgap(x, ctx) for x, t in truth.items() if t])
    negative_mean = np.mean([distgap(x, ctx) for x, t in truth.items() if not t])
    _criterion(
        9, "distance gap properties", positive_mean > negative_mean,
        f"planted means {positive_mean:.3f} > {negative_mean:.3f}, eta(0)=0.5 exact",
    )


# ---------------------------------------------------------------------------
# 10. Bandit statistical sanity on a two-armed Bernoulli instance
# ---------------------------------------------------------------------------


def test_10_bernoulli_suboptimal_pull_fraction():
    means = (0.9, 0.1)
    fractions = []
    for seed in range(20):
        def environment(assignment, rng):
            return {0: float(rng.random() < means[assignment[0]])}

        log = PullLog()
        run_inference(
            {0: [0, 1]}, environment, rounds=10000, batch_size=1,
            rng=np.random.default_rng(seed), pull_log=log,
        )
        suboptimal = sum(1 for rec in records(log) if rec["round"] >= 1 and rec["label"] == 1)
        fractions.append(suboptimal / 10000)
    average = float(np.mean(fractions))
    _criterion(
        10, "bernoulli suboptimal pulls", average < 0.05,
        f"mean suboptimal fraction {average:.4f} over 20 seeds",
    )


# ---------------------------------------------------------------------------
# 11. Determinism and pull-log replay
# ---------------------------------------------------------------------------


def test_11_determinism_and_replay():
    dataset = lb.generate_binary_mil(12, (2, 5), 0.5, 3, 6.0, seed=1111)
    config = InferenceConfig(
        regime="binary-mil", rounds=60, batch_size=3, folds=3, master_seed=77,
        reward=RewardParams(k=3),
    )
    first = kfold_infer(dataset, config)
    second = kfold_infer(dataset, config)
    byte_identical = first.to_json().encode() == second.to_json().encode()

    # replaying a recorded pull log recomputes every arm's totals exactly
    def environment(assignment, rng):
        return {x: float(rng.random()) for x in assignment}

    log = PullLog()
    result = run_inference(
        {x: [0, 1] for x in range(5)}, environment, rounds=200, batch_size=4,
        rng=np.random.default_rng(4), pull_log=log,
    )
    counts, sums = {}, {}
    for record in records(log):
        key = (record["instance_id"], record["label"])
        counts[key] = counts.get(key, 0) + 1
        sums[key] = sums.get(key, 0.0) + record["reward"]
    replay_exact = all(
        result.empirical_means[key] == sums[key] / counts[key] for key in counts
    )
    fold_logs_exact = True
    for entry in first.pull_logs:
        for record in records(entry["log"], entry["pass"], entry["fold"]):
            if not 0.0 <= record["reward"] <= 1.0:
                fold_logs_exact = False
    passed = byte_identical and replay_exact and fold_logs_exact
    _criterion(
        11, "determinism and replay", passed,
        f"byte-identical={byte_identical}, replay-exact={replay_exact}",
    )


# ---------------------------------------------------------------------------
# 12. Out-of-scope reproductions, declared
# ---------------------------------------------------------------------------


def test_12_external_benchmarks_declared_out_of_scope():
    declaration = (
        "external benchmark tables (drug-activity/image/text MIL suites, "
        "handwritten-digit absolute accuracies, detection mAP) need external "
        "datasets, deep features, and detector training; covered instead by "
        "criteria 5, 7, and 9 on synthetic data"
    )
    _criterion(12, "external benchmarks out of scope", True, declaration)
