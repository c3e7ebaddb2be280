"""Span tracing installed from outside the program.

The hook table names the call sites where labelbandit's layers call each
other. Each entry wraps one module or class attribute so that every call
records a span (name, start, end, parent). Nothing inside ``src/`` changes:
the wrappers replace attributes at run time, in the worker process only.

Entries point at the attribute the caller actually looks up. ``pipeline``
does ``from .bandit import run_inference`` and ``rewards`` does
``from .classifiers import fit``, so those layers are hooked at
``labelbandit.pipeline.run_inference`` and ``labelbandit.rewards.fit``;
hooking ``labelbandit.classifiers.fit`` would record nothing.
"""

from __future__ import annotations

import functools
import importlib
import time

# (target attribute, span name, expected parent span; None for the root)
HOOKS = [
    ("labelbandit.cli.cmd_infer", "cli.cmd_infer", None),
    ("labelbandit.data.load_dataset", "data.load_dataset", "cli.cmd_infer"),
    ("labelbandit.pipeline.bootstrap_infer", "pipeline.bootstrap_infer", "cli.cmd_infer"),
    ("labelbandit.pipeline.run_inference", "bandit.run_inference", "pipeline.bootstrap_infer"),
    (
        "labelbandit.bandit.initialization_assignments",
        "bandit.initialization_assignments",
        "bandit.run_inference",
    ),
    (
        "labelbandit.bandit.select_super_arm_batch",
        "bandit.select_super_arm_batch",
        "bandit.run_inference",
    ),
    ("labelbandit.bandit.update", "bandit.update", "bandit.run_inference"),
    ("labelbandit.bandit.best_assignment", "bandit.best_assignment", "bandit.run_inference"),
    (
        "labelbandit.rewards.RewardEnvironment.__call__",
        "rewards.RewardEnvironment.evaluate",
        "bandit.run_inference",
    ),
    ("labelbandit.rewards.fit", "classifiers.fit", "rewards.RewardEnvironment.evaluate"),
    (
        "labelbandit.rewards.predict_arrays",
        "classifiers.predict_arrays",
        "rewards.RewardEnvironment.evaluate",
    ),
    (
        "labelbandit.rewards.build_reward_context",
        "rewards.build_reward_context",
        "rewards.RewardEnvironment.evaluate",
    ),
    ("labelbandit.rewards.distance_gap", "rewards.distance_gap", "rewards.build_reward_context"),
    (
        "labelbandit.metrics.reward_trace_summary",
        "metrics.reward_trace_summary",
        "pipeline.bootstrap_infer",
    ),
    ("labelbandit.pipeline.fit", "pipeline.final_fit", "pipeline.bootstrap_infer"),
]

SPAN_NAMES = [name for _, name, _ in HOOKS]
# A host-speed checkpoint runs before each call of this attribute, once per fold.
CHECKPOINT_BEFORE = "labelbandit.pipeline.run_inference"
PARENT_OF = {name: parent for _, name, parent in HOOKS}
# spans whose self time excludes nested spans, and so also report a total
WITH_CHILDREN = sorted({parent for parent in PARENT_OF.values() if parent is not None})


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in WITH_CHILDREN:
            units[f"{name}.total_s"] = "s"
    units.update(
        {
            "cli.pull_log.records": "count",
            "cli.pull_log.bytes": "bytes",
            "rewards.zero_reward_frac": "fraction",
            "metrics.inference_accuracy": "fraction",
            "trace.infer_s": "s",
            "trace.overhead_s": "s",
            "trace.coverage": "fraction",
        }
    )
    return units


class HookError(RuntimeError):
    """A hook-table entry no longer resolves against the program."""


def resolve(target: str):
    """Return (owner, attribute name, current value) for a dotted target.

    The longest importable module prefix is imported; the remaining parts
    are looked up as attributes, so class attributes resolve too.
    """
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            # a class must define the attribute itself: every class inherits
            # a __call__ from type, which would hide a removed method
            value = vars(owner)[parts[-1]] if isinstance(owner, type) else getattr(owner, parts[-1])
            return owner, parts[-1], value
        except (AttributeError, KeyError):
            break
    raise HookError(f"hook target {target!r} does not resolve against the program")


class Tracer:
    """Spans kept in memory as (name, start, end, parent index)."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self, hooks=HOOKS):
        """Wrap every hooked attribute; fails on the first entry that does not
        resolve, before anything runs."""
        resolved = [(resolve(target), name) for target, name, _ in hooks]
        for (owner, attr, func), name in resolved:
            setattr(owner, attr, self.wrap(name, func))

    def summary(self, duration=lambda start, end: end - start) -> dict:
        """Per span name: calls, total seconds, self seconds (duration minus
        the time covered by direct child spans), and the observed parents.
        ``duration`` turns a span's start and end into its seconds."""
        durations = [duration(start, end) for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += durations[index]
        out: dict[str, dict] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": []})
            entry["calls"] += 1
            entry["total_s"] += durations[index]
            entry["self_s"] += durations[index] - child_time[index]
            parent_name = None if parent is None else self.spans[parent][0]
            if parent_name not in entry["parents"]:
                entry["parents"].append(parent_name)
        return out
