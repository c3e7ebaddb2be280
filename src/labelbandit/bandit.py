"""Combinatorial upper-confidence-bound engine for label inference.

Every (instance, candidate label) pair is a simple arm; a complete labelling
(one admissible label per instance) is a super arm. The engine tracks pull
counts and cumulative rewards per arm, covers all arms once in an
initialization sweep, then repeatedly selects the per-instance UCB argmax,
asks a reward environment to score the labelling, and updates the arms.

Arm statistics are (instances x labels) arrays with rows in ascending
instance id order. The super-arm oracle is separable per instance, so a
selection is a row-wise argmax; labellings and rewards cross the public
functions as ``{instance: value}`` dicts.

The round counter ``t`` counts completed post-initialization pulls; the
exploration bonus for a pull being selected uses the index of that upcoming
pull (t + 1), so the very first selection sees a zero bonus (log 1 = 0).
BanditState has a single owner; selections are read-only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import InferenceError, ParameterError, RewardRangeError

# Confidence sentinel for instances whose label set is a singleton: the label
# is structurally forced, not inferred. Serialized as the string "fixed".
FIXED = math.inf

ArmKey = tuple[int, int]


@dataclass
class BanditState:
    """Arm statistics, one row per instance.

    Row r belongs to instance ``ids[r]`` (ascending); ``labels[r]`` holds its
    admissible labels ascending, so a first-index argmax breaks ties toward
    the lowest label. Rows are padded to the widest label set; ``valid`` marks
    the real arms, and padding cells hold one pull and a reward sum of -inf,
    so their mean and UCB score are -inf. Pull counts are float64 (exact
    integers) so the UCB arithmetic needs no casts. ``cells[r]`` maps each
    label of row r to its index in the flattened arrays. ``label_sets`` keeps
    the caller's order, which the initialization sweep's random draws and the
    labelling dicts follow; ``order`` lists the rows in that order.
    """

    label_sets: dict[int, list[int]]
    ids: np.ndarray
    order: np.ndarray
    labels: np.ndarray
    valid: np.ndarray
    cells: list[dict[int, int]]
    pulls: np.ndarray
    reward_sums: np.ndarray
    t: int = 0
    total_pulls: int = 0


@dataclass(frozen=True)
class InferenceResult:
    """Best labelling found, with per-instance confidence scores.

    Confidence is the gap between the best and runner-up empirical mean of an
    instance's arms; instances with a single admissible label carry the FIXED
    sentinel (serialized as "fixed").
    """

    assignment: dict[int, int]
    confidence: dict[int, float]
    empirical_means: dict[ArmKey, float]
    pull_history_length: int


@dataclass(eq=False)
class PullLog:
    """Every pull of one ``run_inference`` call, column by column.

    ``ids`` holds the instance ids once, ascending. Each entry of ``pulls`` is
    (round, assignment hash, labels, rewards); the label and reward arrays are
    row-aligned with ``ids`` and the rewards are stored as float64. Round 0
    holds the initialization sweep.
    """

    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    pulls: list[tuple[int, str, np.ndarray, np.ndarray]] = field(default_factory=list)

    def round_means(self) -> list[float]:
        """Mean reward of each round's pulls, in log order (round 0: the whole sweep)."""
        return [
            float(np.mean(np.concatenate([rewards for _, _, _, rewards in pulls])))
            for _, pulls in itertools.groupby(self.pulls, key=lambda pull: pull[0])
        ]

    def lines(self, pass_index: int, fold: int) -> Iterator[str]:
        """The log as ``pull_log.ndjson`` text, one string per pull: a line per
        instance, each the ``json.dumps(record, sort_keys=True)`` of
        ``{pass, fold, round, assignment_hash, instance_id, label, reward}``."""
        ids = self.ids.tolist()
        for round_index, digest, labels, rewards in self.pulls:
            line = (
                f'{{"assignment_hash": "{digest}", "fold": {fold}, "instance_id": %d, '
                f'"label": %d, "pass": {pass_index}, "reward": %r, "round": {round_index}}}\n'
            )
            yield "".join(map(line.__mod__, zip(ids, labels.tolist(), rewards.tolist())))


def new_bandit(label_sets: dict[int, list[int]]) -> BanditState:
    """Fresh state with all arms zeroed; every label list must be nonempty."""
    if not label_sets:
        raise ParameterError("label_sets is empty")
    clean: dict[int, list[int]] = {}
    for x, labels in label_sets.items():
        labels = [int(l) for l in labels]
        if not labels:
            raise ParameterError(f"instance {x} has an empty label set")
        if len(set(labels)) != len(labels):
            raise ParameterError(f"instance {x} has duplicate labels {labels}")
        clean[int(x)] = labels
    ids = np.array(sorted(clean), dtype=np.int64)
    rows = [sorted(clean[x]) for x in ids.tolist()]
    width = max(map(len, rows))
    valid = np.arange(width) < np.array([len(row) for row in rows])[:, None]
    labels = np.zeros(valid.shape, dtype=np.int64)
    labels[valid] = [l for row in rows for l in row]
    cells = [{l: r * width + c for c, l in enumerate(row)} for r, row in enumerate(rows)]
    return BanditState(
        clean, ids, np.searchsorted(ids, list(clean)), labels, valid, cells,
        pulls=(~valid).astype(np.float64), reward_sums=np.where(valid, 0.0, -np.inf),
    )


def assignment_hash(assignment: dict[int, int]) -> str:
    """Stable short hash of a labelling, for logs and error context."""
    payload = json.dumps(sorted(assignment.items())).encode()
    return hashlib.sha1(payload).hexdigest()[:12]


def _labelling(state: BanditState, labels: np.ndarray) -> dict[int, int]:
    """A row-aligned label array as an {instance: label} dict in the caller's order."""
    return dict(zip(state.label_sets, labels[state.order].tolist()))


def _arm_dict(state: BanditState, values: np.ndarray) -> dict[ArmKey, float]:
    rows, cols = np.nonzero(state.valid)
    keys = zip(state.ids[rows].tolist(), state.labels[rows, cols].tolist())
    return dict(zip(keys, values[rows, cols].tolist()))


def initialization_assignments(state: BanditState, rng) -> list[dict[int, int]]:
    """Minimal covering sweep: assignment j gives each instance its j-th untried
    label (in a per-instance random order), so the sweep length equals the
    largest number of untried labels of any instance."""
    rows, cols = np.nonzero(state.valid & (state.pulls > 0))
    tried = set(zip(state.ids[rows].tolist(), state.labels[rows, cols].tolist()))
    untried = {}
    for x, labels in state.label_sets.items():
        pending = [l for l in labels if (x, l) not in tried]
        untried[x] = [pending[i] for i in rng.permutation(len(pending))]
    sweep_length = max((len(p) for p in untried.values()), default=0)
    assignments = []
    for j in range(sweep_length):
        assignment = {}
        for x, pending in untried.items():
            if j < len(pending):
                assignment[x] = pending[j]
            else:
                labels = state.label_sets[x]
                assignment[x] = labels[int(rng.integers(len(labels)))]
        assignments.append(assignment)
    return assignments


def _require_initialized(state: BanditState):
    if np.count_nonzero(state.pulls) < state.pulls.size:
        row, col = np.argwhere(state.pulls == 0)[0]
        raise ParameterError(
            f"initialization incomplete: arm (instance {state.ids[row]}, "
            f"label {state.labels[row, col]}) has never been pulled"
        )


def _ucb(means: np.ndarray, t_round: int, counts: np.ndarray) -> np.ndarray:
    """UCB score per arm at round index ``t_round``, -inf off the label sets.

    The bonus uses ``counts``, which virtual pulls may inflate (shrinking the
    bonus) while ``means`` stay those of the real pulls.
    """
    return means + np.sqrt(3.0 * math.log(t_round) / (2.0 * counts))


def ucb_scores(state: BanditState) -> dict[ArmKey, float]:
    """mean + sqrt(3 ln t / (2 T)) per arm, at the state's current round count."""
    _require_initialized(state)
    if state.t < 1:
        raise ParameterError("round counter is 0; no post-initialization pull has completed")
    return _arm_dict(state, _ucb(state.reward_sums / state.pulls, state.t, state.pulls))


def select_super_arm(state: BanditState) -> dict[int, int]:
    """Per-instance argmax of the UCB scores for the upcoming pull (index t+1);
    exact ties go to the lowest label id."""
    return select_super_arm_batch(state, 1)[0]


def select_super_arm_batch(state: BanditState, batch_size: int) -> list[dict[int, int]]:
    """A sequence of labellings to evaluate in parallel.

    Member j is selected as if members 1..j-1 had already been pulled and had
    returned their current empirical means: their arms' counts (and the round
    index) are bumped virtually, which shrinks the leaders' bonuses and makes
    the batch diverse. Virtual pulls never touch the real state.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    _require_initialized(state)
    rows = np.arange(len(state.ids))
    means, counts = state.reward_sums / state.pulls, state.pulls.copy()
    batch = []
    for j in range(batch_size):
        if j:
            counts[rows, cols] += 1  # member j - 1's virtual pulls
        cols = _ucb(means, state.t + 1 + j, counts).argmax(axis=1)
        batch.append(_labelling(state, state.labels[rows, cols]))
    return batch


def update(
    state: BanditState,
    assignment: dict[int, int],
    rewards: dict[int, float],
    advance_round: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Credit each pulled arm with its reward.

    Rewards must cover every instance and lie in [0, 1]; a value outside that
    range signals a buggy reward function and is rejected. Initialization
    pulls pass ``advance_round=False`` so they stay outside the round count.
    Returns the credited labels and rewards (as float64), row-aligned with
    ``state.ids``.
    """
    expected = state.label_sets.keys()
    if assignment.keys() != expected:
        raise ParameterError("assignment does not cover exactly the tracked instances")
    missing = expected - rewards.keys()
    if missing:
        raise ParameterError(f"rewards missing for instances {sorted(missing)[:5]}")
    ids = state.ids.tolist()
    labels = list(map(assignment.__getitem__, ids))
    try:
        cells = np.fromiter(map(dict.__getitem__, state.cells, labels), np.intp, len(ids))
    except KeyError:
        row = next(r for r, label in enumerate(labels) if label not in state.cells[r])
        raise ParameterError(
            f"label {labels[row]} not admissible for instance {ids[row]}"
        ) from None
    values = np.fromiter(map(rewards.__getitem__, ids), dtype=np.float64, count=len(ids))
    if not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails too
        x = ids[int(np.argmin((values >= 0.0) & (values <= 1.0)))]
        raise RewardRangeError(
            f"reward {rewards[x]!r} for instance {x} lies outside [0, 1]; "
            "reward functions must be bounded"
        )
    state.pulls.flat[cells] += 1
    state.reward_sums.flat[cells] += values
    state.total_pulls += 1
    if advance_round:
        state.t += 1
    return np.array(labels, dtype=np.int64), values


def best_assignment(state: BanditState) -> InferenceResult:
    """Labelling with the highest empirical mean per instance, plus confidences."""
    _require_initialized(state)
    means = state.reward_sums / state.pulls
    rows, cols = np.arange(len(state.ids)), means.argmax(axis=1)
    best = means[rows, cols]
    others = means.copy()
    others[rows, cols] = -np.inf
    # a singleton has no runner-up: best - (-inf) is FIXED
    confidence = best - others.max(axis=1)
    return InferenceResult(
        _labelling(state, state.labels[rows, cols]),
        dict(zip(state.label_sets, confidence[state.order].tolist())),
        _arm_dict(state, means),
        state.total_pulls,
    )


def run_inference(
    label_sets: dict[int, list[int]],
    environment,
    rounds: int,
    batch_size: int = 1,
    rng=None,
    pull_log: PullLog | None = None,
) -> InferenceResult:
    """Full inference loop: initialization sweep, then ``rounds`` scored pulls.

    ``environment`` is any callable ``(assignment, rng) -> {instance: reward}``.
    Batch members are selected together, their per-pull seeds are drawn up
    front, and they are evaluated and updated in batch order. Reproducible
    given the rng seed and a deterministic environment. An empty ``pull_log``
    is filled with every pull.
    """
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    if rng is None:
        rng = np.random.default_rng()
    state = new_bandit(label_sets)
    if pull_log is not None:
        if pull_log.pulls:
            raise ParameterError("pull_log already holds the pulls of another run")
        pull_log.ids = state.ids

    def evaluate_batch(assignments):
        seeds = [int(rng.integers(0, 2**63)) for _ in assignments]
        try:
            return [environment(a, np.random.default_rng(s)) for a, s in zip(assignments, seeds)]
        except Exception as exc:
            raise InferenceError(
                f"reward environment failed at round {state.t}, "
                f"assignment {assignment_hash(assignments[0])}: {exc}"
            ) from exc

    def credit(assignment, rewards, advance_round):
        labels, values = update(state, assignment, rewards, advance_round)
        if pull_log is not None:
            round_index = state.t if advance_round else 0
            pull_log.pulls.append((round_index, assignment_hash(assignment), labels, values))

    sweep = initialization_assignments(state, rng)
    for assignment, rewards in zip(sweep, evaluate_batch(sweep)):
        credit(assignment, rewards, advance_round=False)
    pulls_done = 0
    while pulls_done < rounds:
        width = min(batch_size, rounds - pulls_done)
        batch = select_super_arm_batch(state, width)
        for assignment, rewards in zip(batch, evaluate_batch(batch)):
            credit(assignment, rewards, advance_round=True)
        pulls_done += width
    return best_assignment(state)
