"""Combinatorial upper-confidence-bound engine for label inference.

Every (instance, candidate label) pair is a simple arm; a complete labelling
(one admissible label per instance) is a super arm. The engine tracks pull
counts and cumulative rewards per arm, covers all arms once in an
initialization sweep, then repeatedly selects the per-instance UCB argmax,
asks a reward environment to score the labelling, and updates the arms.

Arm statistics are (instances x labels) arrays with rows in ascending
instance id order. The super-arm oracle is separable per instance, so a
selection is a row-wise argmax. A labelling is an int64 label array and its
rewards a float64 array, row-aligned with those ids from selection through
the environment to the update; ``run_inference`` turns them into dicts only
for a plain ``(assignment, rng) -> {instance: reward}`` environment.

The round counter ``t`` counts completed post-initialization pulls; the
exploration bonus for a pull being selected uses the index of that upcoming
pull (t + 1), so the very first selection sees a zero bonus (log 1 = 0).
BanditState has a single owner; selections are read-only.
"""

from __future__ import annotations

import hashlib
import io
import math
import operator
import os
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from .errors import InferenceError, ParameterError, RewardRangeError, check_count

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
    integers) so the UCB arithmetic needs no casts. ``label_sets`` keeps the
    caller's order, which the initialization sweep's random draws and the
    labelling dicts follow; ``order`` lists the rows in that order.
    """

    label_sets: dict[int, list[int]]
    ids: np.ndarray
    order: np.ndarray
    labels: np.ndarray
    valid: np.ndarray
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

    ``ids`` holds the instance ids once, ascending. ``add`` logs a pull as
    (round, assignment hash, labels, rewards), the label and reward arrays
    row-aligned with ``ids`` and the rewards stored as float64. Round 0 holds
    the initialization sweep.

    The arrays live in ``spill``, a binary file open for reading and writing:
    each pull's int64 labels and float64 rewards are appended to it as raw
    bytes, and ``spilled`` keeps (round, assignment hash, byte offset) per
    pull. The default spill is an ``io.BytesIO``, in memory; a file keeps the
    pulls out of memory. Several logs may share one spill, whose position the
    log leaves at its end. A round's mean is taken when the round closes, so
    only the open round's reward arrays are held for it.
    """

    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    spill: BinaryIO = field(default_factory=io.BytesIO)
    spilled: list[tuple[int, str, int]] = field(default_factory=list)
    _closed_means: list[float] = field(default_factory=list, init=False, repr=False)
    _open_round: list[np.ndarray] = field(default_factory=list, init=False, repr=False)
    _open_index: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        self.spill.seek(0, os.SEEK_END)

    def add(self, round_index: int, digest: str, labels: np.ndarray, rewards: np.ndarray):
        """Log one pull; a pull of another round than the last closes that round."""
        rewards = np.ascontiguousarray(rewards, dtype=np.float64)
        if self._open_round and round_index != self._open_index:
            self._closed_means.append(_round_mean(self._open_round))
            self._open_round = []
        self._open_index = round_index
        self._open_round.append(rewards)
        self.spilled.append((round_index, digest, self.spill.tell()))
        self.spill.write(np.ascontiguousarray(labels, dtype=np.int64))
        self.spill.write(rewards)

    @property
    def pulls(self) -> list[tuple[int, str, np.ndarray, np.ndarray]]:
        """Every pull as (round, assignment hash, labels, rewards), in log order,
        read back from the spill."""
        return list(self._entries())

    def round_means(self) -> list[float]:
        """Mean reward of each round's pulls, in log order (round 0: the whole sweep)."""
        return self._closed_means + ([_round_mean(self._open_round)] if self._open_round else [])

    def _entries(self) -> Iterator[tuple[int, str, np.ndarray, np.ndarray]]:
        """The pulls read back one by one, so the spill must still be open."""
        n = len(self.ids)
        for round_index, digest, offset in self.spilled:
            self.spill.seek(offset)
            raw = self.spill.read(16 * n)
            self.spill.seek(0, os.SEEK_END)
            labels = np.frombuffer(raw, dtype=np.int64, count=n)
            yield round_index, digest, labels, np.frombuffer(raw, np.float64, n, 8 * n)

    def lines(self, pass_index: int, fold: int) -> Iterator[str]:
        """The log as ``pull_log.ndjson`` text, one string per pull: a line per
        instance, each the ``json.dumps(record, sort_keys=True)`` of
        ``{pass, fold, round, assignment_hash, instance_id, label, reward}``.

        A pull formats each distinct label, and the ``repr`` of each distinct
        reward bit pattern (so -0.0 and 0.0 stay apart), once, and joins the
        line pieces."""
        n = len(self.ids)
        pieces = [""] * (4 * n)
        pieces[1::4] = [f'"instance_id": {x}, "label": ' for x in self.ids.tolist()]
        for round_index, digest, labels, rewards in self._entries():
            tail = f', "round": {round_index}}}\n'
            pieces[0::4] = [f'{{"assignment_hash": "{digest}", "fold": {fold}, '] * n
            pieces[2::4] = _row_texts(labels, lambda values: list(map(str, values.tolist())))
            pieces[3::4] = _row_texts(rewards.view(np.int64), lambda bits: [
                f', "pass": {pass_index}, "reward": {reward!r}{tail}'
                for reward in bits.view(np.float64).tolist()
            ])
            yield "".join(pieces)


def _round_mean(rewards: list[np.ndarray]) -> float:
    """``np.mean`` of one round's reward arrays, concatenated: the pairwise sum
    of the whole round, which a running sum over its pulls would not match."""
    return float(np.mean(np.concatenate(rewards)))


def _row_texts(keys: np.ndarray, render) -> list[str]:
    """The text of each row: ``render`` gets the distinct keys, ascending, and
    returns one text per key."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return list(map(render(distinct).__getitem__, inverse.tolist()))


def new_bandit(label_sets: dict[int, list[int]]) -> BanditState:
    """Fresh state with all arms zeroed; every label list must be nonempty."""
    if not label_sets:
        raise ParameterError("label_sets is empty")
    clean: dict[int, list[int]] = {}
    for x, labels in label_sets.items():
        try:
            x, labels = operator.index(x), [operator.index(l) for l in labels]
        except TypeError:
            raise ParameterError(
                f"instance {x!r} needs an integer id and integer labels, got {labels!r}"
            ) from None
        if not labels:
            raise ParameterError(f"instance {x} has an empty label set")
        if len(set(labels)) != len(labels):
            raise ParameterError(f"instance {x} has duplicate labels {labels}")
        clean[x] = labels
    ids = np.array(sorted(clean), dtype=np.int64)
    rows = [sorted(clean[x]) for x in ids.tolist()]
    width = max(map(len, rows))
    valid = np.arange(width) < np.array([len(row) for row in rows])[:, None]
    labels = np.zeros(valid.shape, dtype=np.int64)
    labels[valid] = [l for row in rows for l in row]
    return BanditState(
        clean, ids, np.searchsorted(ids, list(clean)), labels, valid,
        pulls=(~valid).astype(np.float64), reward_sums=np.where(valid, 0.0, -np.inf),
    )


def assignment_hash(ids: np.ndarray, labels: np.ndarray) -> str:
    """Stable short hash of a labelling, for logs and error context.

    ``ids`` ascending, ``labels`` row-aligned with them. The digest is that of
    the ``json.dumps`` of the sorted ``[[id, label], ...]`` pairs, whose text
    one ``%``-template over the interleaved ids and labels writes directly.
    """
    pairs = [0] * (2 * len(ids))
    pairs[::2], pairs[1::2] = ids.tolist(), labels.tolist()
    template = "[" + ", ".join(["[%d, %d]"] * len(ids)) + "]"
    return hashlib.sha1((template % tuple(pairs)).encode()).hexdigest()[:12]


def _labelling(state: BanditState, labels: np.ndarray) -> dict[int, int]:
    """A row-aligned label array as an {instance: label} dict in the caller's order."""
    return dict(zip(state.label_sets, labels[state.order].tolist()))


def _arm_dict(state: BanditState, values: np.ndarray) -> dict[ArmKey, float]:
    rows, cols = np.nonzero(state.valid)
    keys = zip(state.ids[rows].tolist(), state.labels[rows, cols].tolist())
    return dict(zip(keys, values[rows, cols].tolist()))


def initialization_assignments(state: BanditState, rng) -> list[np.ndarray]:
    """Minimal covering sweep: labelling j gives each instance its j-th untried
    label (in a per-instance random order), so the sweep length equals the
    largest number of untried labels of any instance. Draws follow the caller's
    order; each labelling is a label array row-aligned with ``state.ids``."""
    rows, cols = np.nonzero(state.valid & (state.pulls > 0))
    tried = set(zip(state.ids[rows].tolist(), state.labels[rows, cols].tolist()))
    untried, label_lists = [], list(state.label_sets.values())
    for x, labels in state.label_sets.items():
        pending = [l for l in labels if (x, l) not in tried]
        untried.append([pending[i] for i in rng.permutation(len(pending))])
    sweep = np.array([
        [p[j] if j < len(p) else l[int(rng.integers(len(l)))] for p, l in zip(untried, label_lists)]
        for j in range(max(map(len, untried)))
    ], dtype=np.int64).reshape(-1, len(untried))
    return list(sweep[:, np.argsort(state.order)])


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


def select_super_arm(state: BanditState) -> np.ndarray:
    """Per-instance argmax of the UCB scores for the upcoming pull (index t+1),
    as labels row-aligned with ``state.ids``; ties go to the lowest label."""
    return select_super_arm_batch(state, 1)[0]


def select_super_arm_batch(state: BanditState, batch_size: int) -> list[np.ndarray]:
    """A sequence of label arrays (rows: ``state.ids``) to evaluate in parallel.

    Member j is selected as if members 1..j-1 had already been pulled and had
    returned their current empirical means: their arms' counts (and the round
    index) are bumped virtually, which shrinks the leaders' bonuses and makes
    the batch diverse. Virtual pulls never touch the real state.
    """
    check_count(batch_size, "batch_size", 1, ParameterError)
    _require_initialized(state)
    rows = np.arange(len(state.ids))
    means, counts = state.reward_sums / state.pulls, state.pulls.copy()
    batch = []
    for j in range(batch_size):
        if j:
            counts[rows, cols] += 1  # member j - 1's virtual pulls
        cols = _ucb(means, state.t + 1 + j, counts).argmax(axis=1)
        batch.append(state.labels[rows, cols])
    return batch


def update(state: BanditState, labels: np.ndarray, rewards: np.ndarray, advance_round: bool):
    """Credit each pulled arm with its reward; both arrays are row-aligned with
    ``state.ids``. Labels must be admissible and rewards lie in [0, 1]: a value
    outside signals a buggy reward function and is rejected. Initialization
    pulls pass ``advance_round=False`` so they stay outside the round count.
    """
    n = len(state.ids)
    if np.shape(labels) != (n,) or np.shape(rewards) != (n,):
        raise ParameterError(f"labelling and rewards need one entry per instance ({n})")
    # labels are unique per row, so each row has at most one hit
    hit = state.valid & (state.labels == labels[:, None])
    if np.count_nonzero(hit) < n:
        row = int(np.argmin(hit.any(axis=1)))
        raise ParameterError(f"label {labels[row]} not admissible for instance {state.ids[row]}")
    if not (rewards.min() >= 0.0 and rewards.max() <= 1.0):  # NaN fails too
        row = int(np.argmin((rewards >= 0.0) & (rewards <= 1.0)))
        raise RewardRangeError(
            f"reward {rewards[row].item()!r} for instance {state.ids[row]} lies outside "
            "[0, 1]; reward functions must be bounded"
        )
    state.pulls += hit
    state.reward_sums[hit] += rewards
    state.total_pulls += 1
    if advance_round:
        state.t += 1


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

    Batch members (and the initialization sweep) are selected together and
    their per-pull rngs drawn up front. ``environment`` is one of two kinds:
    - a callable ``(assignment, rng) -> {instance: reward}``, called once per
      member in batch order with a dict in ``label_sets`` order;
    - a callable with ``train_ids`` equal to the sorted ids, called once per
      batch as ``(labels, rngs)``: the members' int64 label arrays on those
      rows and one rng per member. It returns one reward array per member.
    Members are updated in batch order. Reproducible given the rng seed and a
    deterministic environment. An empty ``pull_log`` is filled with every pull.
    """
    check_count(rounds, "rounds", 1, ParameterError)
    check_count(batch_size, "batch_size", 1, ParameterError)
    if rng is None:
        rng = np.random.default_rng()
    state = new_bandit(label_sets)
    if pull_log is not None:
        if pull_log.spilled:
            raise ParameterError("pull_log already holds the pulls of another run")
        pull_log.ids = state.ids

    environment_ids = getattr(environment, "train_ids", None)
    if environment_ids is None:
        score, read = _dict_adapter(state, environment)
    elif not np.array_equal(environment_ids, state.ids):
        raise ParameterError("the environment's train_ids are not the labelled instances")
    else:
        score, read = environment, np.asarray

    def evaluate_batch(batch):
        rngs = [np.random.default_rng(int(rng.integers(0, 2**63))) for _ in batch]
        try:
            scored = score(batch, rngs)
        except Exception as exc:
            raise InferenceError(
                f"reward environment failed at round {state.t}, "
                f"assignment {assignment_hash(state.ids, batch[0])}: {exc}"
            ) from exc
        if len(scored) != len(batch):
            raise ParameterError(f"{len(scored)} reward arrays for a batch of {len(batch)}")
        return map(read, scored)

    def credit(labels, rewards, advance_round):
        update(state, labels, rewards, advance_round)
        if pull_log is not None:
            digest = assignment_hash(state.ids, labels)
            pull_log.add(state.t if advance_round else 0, digest, labels, rewards)

    sweep = initialization_assignments(state, rng)
    for labels, rewards in zip(sweep, evaluate_batch(sweep)):
        credit(labels, rewards, advance_round=False)
    pulls_done = 0
    while pulls_done < rounds:
        width = min(batch_size, rounds - pulls_done)
        batch = select_super_arm_batch(state, width)
        for labels, rewards in zip(batch, evaluate_batch(batch)):
            credit(labels, rewards, advance_round=True)
        pulls_done += width
    return best_assignment(state)


def _dict_adapter(state: BanditState, environment):
    """``score`` calls a dict environment on each label array of a batch, as a
    dict; ``read`` takes its rewards back by id, outside the failure wrapper
    (a missing reward is a ParameterError, not an environment failure)."""
    ids = state.ids.tolist()

    def score(batch, rngs):
        return [environment(_labelling(state, labels), rng) for labels, rng in zip(batch, rngs)]

    def read(rewards):
        try:
            return np.fromiter(map(rewards.__getitem__, ids), dtype=np.float64, count=len(ids))
        except KeyError:
            missing = sorted(set(ids) - rewards.keys())
            raise ParameterError(f"rewards missing for instances {missing[:5]}") from None

    return score, read
