"""Self-tests of the benchmark's own code: tracing, checks and definitions.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class TickClock:
    """Deterministic clock: each reading advances by one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_on_toy_nested_call():
    toy = types.SimpleNamespace()
    toy.leaf = lambda: None
    toy.inner = lambda: (toy.leaf(), toy.leaf())
    toy.outer = lambda: toy.inner()
    sys.modules["perfbench_toy"] = toy
    try:
        tracer = tracing.Tracer(clock=TickClock())
        tracer.install(
            [
                ("perfbench_toy.outer", "outer", None),
                ("perfbench_toy.inner", "inner", "outer"),
                ("perfbench_toy.leaf", "leaf", "inner"),
            ]
        )
        toy.outer()
    finally:
        del sys.modules["perfbench_toy"]
    # clock readings: outer 1..8, inner 2..7, leaves 3..4 and 5..6
    summary = tracer.summary()
    assert summary["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "parents": ["inner"]}
    assert summary["inner"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0, "parents": ["outer"]}
    assert summary["outer"] == {"calls": 1, "total_s": 7.0, "self_s": 2.0, "parents": [None]}


def test_timeline_scales_between_checkpoints_and_skips_probes():
    reference = hostspeed.REFERENCE_CHUNK_S
    timeline = hostspeed.Timeline()
    # probes run 0-1, 3-4 and 6-7; their chunks took 1, 3 and 5 references
    timeline.checkpoints = [
        (0.0, 1.0, reference),
        (3.0, 4.0, 3 * reference),
        (6.0, 7.0, 5 * reference),
    ]
    # 1-3 runs at half the reference speed, 4-6 at a quarter
    assert timeline.wall_seconds(0.5, 6.5) == pytest.approx(4.0)
    assert timeline.scaled_seconds(0.5, 6.5) == pytest.approx(2 / 2 + 2 / 4)
    assert timeline.scaled_seconds(2.0, 5.0) == pytest.approx(1 / 2 + 1 / 4)


def test_every_hook_entry_resolves_against_src():
    for target, name, parent in tracing.HOOKS:
        owner, attr, value = tracing.resolve(target)
        assert callable(value), target
        assert parent is None or parent in tracing.SPAN_NAMES, name
    assert callable(tracing.resolve(tracing.CHECKPOINT_BEFORE)[2])


def test_missing_hook_target_fails_loudly_and_names_it():
    with pytest.raises(tracing.HookError, match="labelbandit.rewards.no_such_layer"):
        tracing.Tracer().install([("labelbandit.rewards.no_such_layer", "x", None)])
    with pytest.raises(tracing.HookError, match="RewardEnvironment.no_such_method"):
        tracing.resolve("labelbandit.rewards.RewardEnvironment.no_such_method")


def _truth():
    return checks.Truth(
        labels={1: 0, 2: 1, 3: 0},
        admissible={1: {0}, 2: {0, 1}, 3: {0, 1}},
        num_classes=2,
    )


def _result(labels):
    return {
        "labels": {str(k): v for k, v in labels.items()},
        "confidence": {"1": "fixed", "2": 0.5, "3": 0.25},
    }


def test_checker_accepts_valid_result():
    problems, accuracy = checks.check_result(_result({1: 0, 2: 1, 3: 1}), _truth())
    assert problems == []
    assert accuracy == pytest.approx(2 / 3)


def test_checker_rejects_non_admissible_label():
    problems, _ = checks.check_result(_result({1: 1, 2: 1, 3: 0}), _truth())
    assert any("non-admissible" in p for p in problems)


def test_checker_rejects_missing_instance_and_bad_confidence():
    doc = _result({1: 0, 2: 1})
    doc["confidence"] = {"1": "fixed", "2": 1.5}
    problems, _ = checks.check_result(doc, _truth())
    assert any("misses 1 instances" in p for p in problems)
    assert any("outside [0, 1]" in p for p in problems)


def _log(rewards):
    return [
        json.dumps({"pass": 0, "fold": 0, "round": 0, "instance_id": i % 2, "label": 0, "reward": r})
        for i, r in enumerate(rewards)
    ]


def test_checker_rejects_reward_above_one():
    outcome = checks.Outcome()
    checks.check_pull_log(_log([0.5, 1.5]), outcome)
    assert any("reward 1.5 outside [0, 1]" in p for p in outcome.problems)


def test_checker_counts_pulls_and_zero_rewards():
    outcome = checks.Outcome()
    checks.check_pull_log(_log([0.0, 0.5, 1.0, 0.0]), outcome)
    assert outcome.problems == []
    assert (outcome.pulls, outcome.records, outcome.zero_rewards) == (2, 4, 2)


def test_benchmark_json_matches_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.layer_metric_units()
