"""Output checks for one ``infer`` call, independent of the program's code.

Admissible label sets and accuracy are recomputed here from the generated
dataset rather than taken from ``labelbandit``, so a defect in the program
cannot also hide itself from the check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Truth:
    """What the benchmark knows about a generated dataset."""

    labels: dict[int, int]  # instance id -> true label
    admissible: dict[int, set[int]]  # instance id -> labels infer may return
    num_classes: int


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    accuracy: float = 0.0
    pulls: int = 0
    records: int = 0
    log_bytes: int = 0
    zero_rewards: int = 0
    result_sha256: str = ""
    pull_log_sha256: str = ""


def negative_modes(num_classes: int, num_negative_labels: int) -> set[int]:
    """Class 0 plus one fresh id above the class range per extra negative mode."""
    return {0, *range(num_classes, num_classes + num_negative_labels - 1)}


def truth_of(dataset: dict, ground_truth: dict, num_negative_labels: int) -> Truth:
    """From the dataset file and its ground-truth sidecar, as written by
    ``labelbandit generate``. Negative bags admit only the negative modes;
    positive bags add 1 (binary) or their label set."""
    negatives = negative_modes(dataset["num_classes"], num_negative_labels)
    admissible = {}
    for bag in dataset["bags"]:
        label = bag["weak_label"]
        if label["kind"] == "binary":
            allowed = negatives | ({1} if label["value"] == 1 else set())
        elif label["kind"] == "label_set":
            allowed = negatives | set(label["value"])
        else:
            raise ValueError(f"the benchmark has no checker for {label['kind']!r} weak labels")
        for inst in bag["instances"]:
            admissible[inst["id"]] = allowed
    labels = {int(k): int(v) for k, v in ground_truth.items()}
    return Truth(labels, admissible, dataset["num_classes"])


def collapse(label: int, num_classes: int) -> int:
    """Negative modes score as the semantic negative class 0."""
    return label if 0 < label < num_classes else 0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_result(doc: dict, truth: Truth) -> tuple[list[str], float]:
    """Coverage, admissibility and confidence range of a parsed result.json;
    returns the problems found and the inference accuracy."""
    problems = []
    labels = {int(k): int(v) for k, v in doc.get("labels", {}).items()}
    missing = truth.labels.keys() - labels.keys()
    if missing:
        problems.append(f"result.json misses {len(missing)} instances, e.g. {sorted(missing)[:3]}")
    unknown = labels.keys() - truth.labels.keys()
    if unknown:
        problems.append(f"result.json labels unknown instances {sorted(unknown)[:3]}")
    bad = sorted(x for x, l in labels.items() if x in truth.admissible and l not in truth.admissible[x])
    if bad:
        problems.append(
            f"result.json gives {len(bad)} non-admissible labels, e.g. instance {bad[0]} "
            f"-> {labels[bad[0]]} (admissible {sorted(truth.admissible[bad[0]])})"
        )
    confidence = doc.get("confidence", {})
    if confidence.keys() != doc.get("labels", {}).keys():
        problems.append("result.json confidence does not cover exactly the labelled instances")
    for key, value in confidence.items():
        if value != "fixed" and not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            problems.append(f"confidence {value!r} of instance {key} is outside [0, 1]")
            break
    correct = sum(
        collapse(labels[x], truth.num_classes) == collapse(y, truth.num_classes)
        for x, y in truth.labels.items()
        if x in labels
    )
    return problems, correct / len(truth.labels)


def check_pull_log(lines: list[str], outcome: Outcome) -> None:
    """Reward range and completeness: every pull logs one record per training
    instance of its fold, so records / instances is the fold's pull count."""
    records: dict[tuple, int] = {}
    instances: dict[tuple, set] = {}
    for number, rec in enumerate(json.loads("[" + ",".join(lines) + "]"), 1):
        reward = rec["reward"]
        if not 0.0 <= reward <= 1.0:
            outcome.problems.append(f"pull_log.ndjson line {number}: reward {reward!r} outside [0, 1]")
            return
        outcome.zero_rewards += reward == 0.0
        fold = (rec["pass"], rec["fold"])
        records[fold] = records.get(fold, 0) + 1
        instances.setdefault(fold, set()).add(rec["instance_id"])
        outcome.records += 1
    for fold, count in records.items():
        pulls, rest = divmod(count, len(instances[fold]))
        if rest:
            outcome.problems.append(f"pull log of pass/fold {fold} is incomplete")
        outcome.pulls += pulls
    if not outcome.records:
        outcome.problems.append("pull_log.ndjson is empty")


def check_outputs(out_dir: Path, truth: Truth, accuracy_floor: float) -> Outcome:
    outcome = Outcome()
    result_path, log_path = out_dir / "result.json", out_dir / "pull_log.ndjson"
    for path in (result_path, log_path, out_dir / "model.json"):
        if not path.is_file():
            outcome.problems.append(f"{path.name} was not written")
    if outcome.problems:
        return outcome
    outcome.result_sha256 = _sha256(result_path)
    outcome.pull_log_sha256 = _sha256(log_path)
    outcome.log_bytes = log_path.stat().st_size
    problems, outcome.accuracy = check_result(json.loads(result_path.read_text()), truth)
    outcome.problems += problems
    if outcome.accuracy < accuracy_floor:
        outcome.problems.append(
            f"inference accuracy {outcome.accuracy:.4f} below the workload floor {accuracy_floor}"
        )
    check_pull_log(log_path.read_text().splitlines(), outcome)
    return outcome
