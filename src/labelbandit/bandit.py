"""Combinatorial upper-confidence-bound engine for label inference.

Every (instance, candidate label) pair is a simple arm; a complete labelling
(one admissible label per instance) is a super arm. The engine tracks pull
counts and cumulative rewards per arm, covers all arms once in an
initialization sweep, then repeatedly selects the per-instance UCB argmax,
asks a reward environment to score the labelling, and updates the arms.

The round counter ``t`` counts completed post-initialization pulls; the
exploration bonus for a pull being selected uses the index of that upcoming
pull (t + 1), so the very first selection sees a zero bonus (log 1 = 0).
BanditState has a single owner; selections are read-only.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InferenceError, ParameterError, RewardRangeError

# Confidence sentinel for instances whose label set is a singleton: the label
# is structurally forced, not inferred. Serialized as the string "fixed".
FIXED = math.inf

ArmKey = tuple[int, int]


@dataclass
class ArmState:
    pulls: int = 0
    reward_sum: float = 0.0

    @property
    def mean(self) -> float:
        return self.reward_sum / self.pulls


@dataclass
class BanditState:
    label_sets: dict[int, list[int]]
    arms: dict[ArmKey, ArmState] = field(default_factory=dict)
    t: int = 0
    total_pulls: int = 0

    def __post_init__(self):
        if not self.arms:
            self.arms = {
                (x, l): ArmState() for x, labels in self.label_sets.items() for l in labels
            }


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
    return BanditState(clean)


def assignment_hash(assignment: dict[int, int]) -> str:
    """Stable short hash of a labelling, for logs and error context."""
    payload = json.dumps(sorted(assignment.items())).encode()
    return hashlib.sha1(payload).hexdigest()[:12]


def initialization_assignments(state: BanditState, rng) -> list[dict[int, int]]:
    """Minimal covering sweep: assignment j gives each instance its j-th untried
    label (in a per-instance random order), so the sweep length equals the
    largest number of untried labels of any instance."""
    untried = {}
    for x, labels in state.label_sets.items():
        pending = [l for l in labels if state.arms[(x, l)].pulls == 0]
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
    for (x, l), arm in state.arms.items():
        if arm.pulls == 0:
            raise ParameterError(
                f"initialization incomplete: arm (instance {x}, label {l}) has never been pulled"
            )


def _ucb_map(state: BanditState, t_round: int, virtual: dict[ArmKey, int] | None = None):
    """UCB score per arm at round index ``t_round``.

    Virtual pulls inflate an arm's count (shrinking its bonus) while leaving
    its empirical mean untouched; they model in-flight batch members.
    """
    log_t = math.log(t_round)
    scores = {}
    for key, arm in state.arms.items():
        pulls = arm.pulls + (virtual.get(key, 0) if virtual else 0)
        scores[key] = arm.mean + math.sqrt(3.0 * log_t / (2.0 * pulls))
    return scores


def ucb_scores(state: BanditState) -> dict[ArmKey, float]:
    """mean + sqrt(3 ln t / (2 T)) per arm, at the state's current round count."""
    _require_initialized(state)
    if state.t < 1:
        raise ParameterError("round counter is 0; no post-initialization pull has completed")
    return _ucb_map(state, state.t)


def _argmax_assignment(state: BanditState, scores: dict[ArmKey, float]) -> dict[int, int]:
    assignment = {}
    for x, labels in state.label_sets.items():
        if len(labels) == 1:  # structurally forced; not part of UCB selection
            assignment[x] = labels[0]
            continue
        assignment[x] = min(labels, key=lambda l: (-scores[(x, l)], l))
    return assignment


def select_super_arm(state: BanditState) -> dict[int, int]:
    """Per-instance argmax of the UCB scores for the upcoming pull (index t+1);
    exact ties go to the lowest label id."""
    _require_initialized(state)
    return _argmax_assignment(state, _ucb_map(state, state.t + 1))


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
    virtual: dict[ArmKey, int] = {}
    batch = []
    for j in range(batch_size):
        scores = _ucb_map(state, state.t + 1 + j, virtual)
        assignment = _argmax_assignment(state, scores)
        for item in assignment.items():
            virtual[item] = virtual.get(item, 0) + 1
        batch.append(assignment)
    return batch


def update(
    state: BanditState,
    assignment: dict[int, int],
    rewards: dict[int, float],
    advance_round: bool,
) -> None:
    """Credit each pulled arm with its reward.

    Rewards must cover every instance and lie in [0, 1]; a value outside that
    range signals a buggy reward function and is rejected. Initialization
    pulls pass ``advance_round=False`` so they stay outside the round count.
    """
    expected = state.label_sets.keys()
    if assignment.keys() != expected:
        raise ParameterError("assignment does not cover exactly the tracked instances")
    missing = expected - rewards.keys()
    if missing:
        raise ParameterError(f"rewards missing for instances {sorted(missing)[:5]}")
    for x, label in assignment.items():
        if label not in state.label_sets[x]:
            raise ParameterError(f"label {label} not admissible for instance {x}")
        r = rewards[x]
        if not 0.0 <= r <= 1.0:
            raise RewardRangeError(
                f"reward {r!r} for instance {x} lies outside [0, 1]; "
                "reward functions must be bounded"
            )
    for x, label in assignment.items():
        arm = state.arms[(x, label)]
        arm.pulls += 1
        arm.reward_sum += float(rewards[x])
    state.total_pulls += 1
    if advance_round:
        state.t += 1


def best_assignment(state: BanditState) -> InferenceResult:
    """Labelling with the highest empirical mean per instance, plus confidences."""
    _require_initialized(state)
    assignment = {}
    confidence = {}
    means = {key: arm.mean for key, arm in state.arms.items()}
    for x, labels in state.label_sets.items():
        best = min(labels, key=lambda l: (-means[(x, l)], l))
        assignment[x] = best
        if len(labels) == 1:
            confidence[x] = FIXED
        else:
            runner_up = max(means[(x, l)] for l in labels if l != best)
            confidence[x] = means[(x, best)] - runner_up
    return InferenceResult(assignment, confidence, means, state.total_pulls)


def run_inference(
    label_sets: dict[int, list[int]],
    environment,
    rounds: int,
    batch_size: int = 1,
    rng=None,
    pull_log: list | None = None,
) -> InferenceResult:
    """Full inference loop: initialization sweep, then ``rounds`` scored pulls.

    ``environment`` is any callable ``(assignment, rng) -> {instance: reward}``.
    Batch members are selected together, their per-pull seeds are drawn up
    front, and they are evaluated and updated in batch order. Reproducible
    given the rng seed and a deterministic environment.
    """
    if rounds < 1:
        raise ParameterError(f"rounds must be >= 1, got {rounds}")
    if rng is None:
        rng = np.random.default_rng()
    state = new_bandit(label_sets)

    def evaluate_batch(assignments):
        seeds = [int(rng.integers(0, 2**63)) for _ in assignments]
        try:
            return [environment(a, np.random.default_rng(s)) for a, s in zip(assignments, seeds)]
        except Exception as exc:
            raise InferenceError(
                f"reward environment failed at round {state.t}, "
                f"assignment {assignment_hash(assignments[0])}: {exc}"
            ) from exc

    def log_pull(assignment, rewards, round_index):
        if pull_log is None:
            return
        h = assignment_hash(assignment)
        for x, label in sorted(assignment.items()):
            pull_log.append(
                {
                    "round": round_index,
                    "assignment_hash": h,
                    "instance_id": x,
                    "label": label,
                    "reward": rewards[x],
                }
            )

    sweep = initialization_assignments(state, rng)
    for assignment, rewards in zip(sweep, evaluate_batch(sweep)):
        update(state, assignment, rewards, advance_round=False)
        log_pull(assignment, rewards, 0)
    pulls_done = 0
    while pulls_done < rounds:
        width = min(batch_size, rounds - pulls_done)
        batch = select_super_arm_batch(state, width)
        for assignment, rewards in zip(batch, evaluate_batch(batch)):
            update(state, assignment, rewards, advance_round=True)
            log_pull(assignment, rewards, state.t)
        pulls_done += width
    return best_assignment(state)
