"""Test helpers for the array-backed bandit state and its pull log.

``cell`` maps an arm (instance, label) to its index in the state's arrays,
``arms`` lists the arms in the caller's instance and label order,
``labelling`` reads a row-aligned label array as an ``{instance: label}``
dict, ``records`` parses a pull log through its ndjson renderer,
``oracle_batch`` is the dict-walk UCB selection that
``select_super_arm_batch`` must reproduce, and ``dict_assignment_hash`` is
the dict form of ``assignment_hash`` that the array form must match.
"""

import hashlib
import json
import math

import numpy as np


def cell(state, x, label):
    """(row, column) of arm (x, label) in ``state.pulls`` / ``state.reward_sums``."""
    row = int(np.searchsorted(state.ids, x))
    assert row < len(state.ids) and state.ids[row] == x, f"no instance {x}"
    (col,) = np.flatnonzero(state.valid[row] & (state.labels[row] == label))
    return row, int(col)


def arms(state):
    """Every arm (x, label), in ``state.label_sets`` order."""
    return [(x, l) for x, labels in state.label_sets.items() for l in labels]


def labelling(state, labels):
    """A label array row-aligned with ``state.ids`` as an {instance: label} dict."""
    return dict(zip(state.ids.tolist(), labels.tolist()))


def dict_assignment_hash(assignment):
    """sha1 of the ``json.dumps`` of the sorted (instance, label) pairs, 12 hex digits."""
    return hashlib.sha1(json.dumps(sorted(assignment.items())).encode()).hexdigest()[:12]


def records(log, pass_index=0, fold=0):
    """The log's ``pull_log.ndjson`` records, parsed."""
    return [json.loads(line) for text in log.lines(pass_index, fold) for line in text.splitlines()]


def oracle_batch(state, batch_size):
    """Per-arm UCB scores walked as dicts: mean + sqrt(3 ln t / (2 T)), with
    member j at round index t + 1 + j and T inflated by the earlier members'
    virtual pulls; per-instance argmax, ties to the lowest label, singletons
    forced."""
    stats = {}
    for arm in arms(state):
        pulls, reward_sum = int(state.pulls[cell(state, *arm)]), state.reward_sums[cell(state, *arm)]
        stats[arm] = (pulls, float(reward_sum) / pulls)
    virtual = {}
    batch = []
    for j in range(batch_size):
        log_t = math.log(state.t + 1 + j)
        scores = {
            key: mean + math.sqrt(3.0 * log_t / (2.0 * (pulls + virtual.get(key, 0))))
            for key, (pulls, mean) in stats.items()
        }
        assignment = {}
        for x, labels in state.label_sets.items():
            if len(labels) == 1:
                assignment[x] = labels[0]
                continue
            assignment[x] = min(labels, key=lambda l: (-scores[(x, l)], l))
        for item in assignment.items():
            virtual[item] = virtual.get(item, 0) + 1
        batch.append(assignment)
    return batch
