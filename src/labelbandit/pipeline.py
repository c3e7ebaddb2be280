"""End-to-end inference pipelines.

Admissible label sets are derived from the weak labels, bags are partitioned
into folds (bags stay intact because rewards are bag-level), each fold in
turn plays the training set with the remaining folds as the held-out set, and
the per-fold results are merged. Optional bootstrap passes fix the most
confident labels and feed them to every later fit as extra supervised data.
A final classifier is trained on the inferred labels.

Everything is driven by one master seed: fold shuffling, per-fold bandit
runs, classifier fits and the random feature map all draw from seeds spawned
deterministically from it, so a pipeline run is reproducible bit for bit.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import BinaryIO

import numpy as np

from .bandit import PullLog, run_inference
from .classifiers import ClassifierSpec, TrainedModel, fit
from .data import (
    DEFAULT_NEGATIVE_LABELS,
    REGIME_LABEL_KIND,
    Bag,
    Dataset,
    Instance,
    WeakLabel,
    extended_num_classes,
    negative_label_ids,
    strip_ground_truth,
)
from .errors import (
    ConfigError, ParameterError, RegimeError, Rule, check, check_count, check_settings, setting,
)
from .rewards import RewardEnvironment, RewardParams

DEFAULT_CLASSIFIER_BY_REGIME = {
    "binary-mil": "linear-svm",
    "multiclass-mil": "cooperative-softmax",
    "llp": "linear-svm",
}

WEIGHTINGS = ("uniform", "confidence")


# ClassifierSpec's rules, which the classifier config section shares, and the
# feature map's, which InferenceConfig and apply_random_feature_map share
_SPEC_RULES = {f.name: f.metadata.get("rule") for f in fields(ClassifierSpec)}
_WIDTH = Rule("count", 1, name="feature-map width", error=ParameterError)
_BANDWIDTH = Rule("real", ends="()", name="feature-map bandwidth", error=ParameterError)


@dataclass(frozen=True)
class ClassifierConfig:
    """Classifier kind (None = the regime's default, which ``InferenceConfig``
    fills in) and training hyperparameters, whose defaults and rules are
    ``ClassifierSpec``'s."""

    kind: str | None = setting(_SPEC_RULES["kind"], None)
    learning_rate: float = setting(_SPEC_RULES["learning_rate"], ClassifierSpec.learning_rate)
    epochs: int = setting(_SPEC_RULES["epochs"], ClassifierSpec.epochs)
    l2: float = setting(_SPEC_RULES["l2"], ClassifierSpec.l2)
    batch_size: int = setting(_SPEC_RULES["batch_size"], ClassifierSpec.batch_size)


@dataclass(frozen=True)
class InferenceConfig:
    regime: str
    rounds: int = setting(Rule("count", 1), 500)
    batch_size: int = setting(Rule("count", 1), 4)
    folds: int = setting(Rule("count", 2), 5)
    bootstrap_passes: int = setting(Rule("count", 1), 1)
    bootstrap_fraction: float = setting(Rule("real", high=1, ends="()"), 0.25)
    master_seed: int = setting(Rule("count", 0), 0)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    rff_width: int | None = setting(_WIDTH, None)
    rff_bandwidth: float = setting(_BANDWIDTH, 1.0)
    final_weighting: str = setting(Rule("choice", choices=WEIGHTINGS), "uniform")

    def __post_init__(self):
        if self.regime not in REGIME_LABEL_KIND:
            raise ConfigError(
                f"no pipeline for regime {self.regime!r}; pipelines run "
                f"{', '.join(REGIME_LABEL_KIND)}, and any other regime runs through "
                "bandit.run_inference with its own reward environment"
            )
        check_settings(self, ConfigError)
        check_settings(self.classifier, ParameterError)
        # classifier.kind=None and reward.num_negative_labels=None: the regime's defaults
        kind = self.classifier.kind or DEFAULT_CLASSIFIER_BY_REGIME[self.regime]
        object.__setattr__(self, "classifier", replace(self.classifier, kind=kind))
        object.__setattr__(self, "reward", self.reward.for_regime(self.regime))


@dataclass
class PipelineResult:
    """Inferred label and confidence for every instance, the final model, and
    per-fold diagnostics. Confidence math.inf marks structurally fixed labels
    and serializes as the string "fixed". ``pull_logs`` holds one
    ``{"pass", "fold", "log"}`` entry per fold, ``log`` being its PullLog."""

    labels: dict[int, int]
    confidence: dict[int, float]
    model: TrainedModel
    diagnostics: dict
    pull_logs: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "labels": {str(k): int(v) for k, v in sorted(self.labels.items())},
            "confidence": {
                str(k): ("fixed" if math.isinf(v) else float(v))
                for k, v in sorted(self.confidence.items())
            },
            "diagnostics": self.diagnostics,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def derive_label_sets(
    dataset: Dataset, num_negative_labels: int | None = None
) -> dict[int, list[int]]:
    """Admissible labels per instance, from the bag-level weak labels.

    Every instance of a bag may take any negative mode or any positive class
    its bag names (``WeakLabel.positive_classes``): binary MIL negative-bag
    instances are thereby fixed negative, multi-class MIL instances choose
    among the negative modes and the bag's label set, and an LLP bag with
    proportion 0 leaves only the negative modes. An LLP proportion of 1
    forces the positive label. ``num_negative_labels`` None takes the
    regime's default (``DEFAULT_NEGATIVE_LABELS``).
    """
    if dataset.regime not in REGIME_LABEL_KIND:
        raise ConfigError(
            f"cannot derive label sets for regime {dataset.regime!r}; "
            "custom regimes must supply their own"
        )
    if num_negative_labels is None:
        num_negative_labels = DEFAULT_NEGATIVE_LABELS[dataset.regime]
    check_count(num_negative_labels, "num_negative_labels", 1, ParameterError)
    negatives = negative_label_ids(dataset.num_classes, num_negative_labels)
    sets: dict[int, list[int]] = {}
    for bag in dataset.bags:
        label = bag.weak_label
        admissible = negatives + sorted(label.positive_classes)
        if label.kind == "proportion" and label.value == 1.0:
            admissible = [1]
        for iid in bag.instance_ids:
            sets[iid] = list(admissible)
    return sets


def _resolve_classifier_spec(config: InferenceConfig, num_classes: int) -> ClassifierSpec:
    m = config.reward.num_negative_labels
    grouping = None
    if config.classifier.kind == "cooperative-softmax":
        grouping = (tuple(negative_label_ids(num_classes, m)),) + tuple(
            (c,) for c in range(1, num_classes)
        )
    return ClassifierSpec(
        num_classes=extended_num_classes(num_classes, m),
        grouping=grouping,
        **asdict(config.classifier),
    )


def _confidence_weights(labels: dict[int, int], confidence: dict[int, float]) -> dict[int, float]:
    """Per-instance training weights: confidence rescaled by its finite maximum;
    fixed instances weigh 1; zero-confidence instances weigh 0."""
    finite = [c for c in confidence.values() if math.isfinite(c)]
    top = max(finite) if finite else 0.0
    weights = {}
    for x in labels:
        c = confidence[x]
        if math.isinf(c):
            weights[x] = 1.0
        else:
            weights[x] = c / top if top > 0 else 0.0
    return weights


def train_final(
    dataset: Dataset,
    result: "PipelineResult",
    spec: ClassifierSpec,
    weighting: str = "uniform",
    seed=0,
) -> TrainedModel:
    """Fit ``spec`` on the whole dataset using the inferred labels; confidence
    weighting scales each instance's loss by its confidence relative to the
    best finite one."""
    if weighting not in WEIGHTINGS:
        raise ParameterError(f"weighting must be one of {WEIGHTINGS}")
    missing = {inst.id for inst in dataset.instances} - result.labels.keys()
    if missing:
        raise ParameterError(f"result does not cover instances {sorted(missing)[:5]}")
    ids = [inst.id for inst in dataset.instances]
    X = np.stack([inst.features for inst in dataset.instances])
    y = np.array([result.labels[i] for i in ids], dtype=np.intp)
    sample_weight = None
    if weighting == "confidence":
        per_instance = _confidence_weights(result.labels, result.confidence)
        sample_weight = np.array([per_instance[i] for i in ids])
    seed_int = int(np.random.default_rng(seed).integers(0, 2**63))
    return fit(spec, X, y, sample_weight=sample_weight, seed=seed_int)


def _grow_fixed(
    fixed: dict[int, int],
    labels: dict[int, int],
    confidence: dict[int, float],
    fraction: float,
) -> dict[int, int]:
    """Add the top-``fraction`` most confident unfixed instances, per inferred
    class (so no class is starved), to the fixed set. Never removes entries."""
    by_class: dict[int, list[int]] = {}
    for x, c in confidence.items():
        if x not in fixed and math.isfinite(c):
            by_class.setdefault(labels[x], []).append(x)
    grown = dict(fixed)
    for cls in sorted(by_class):
        members = sorted(by_class[cls], key=lambda x: (-confidence[x], x))
        take = math.ceil(fraction * len(members))
        for x in members[:take]:
            grown[x] = labels[x]
    return grown


def bootstrap_infer(
    dataset: Dataset, config: InferenceConfig, spill: BinaryIO | None = None
) -> PipelineResult:
    """Label inference in ``config.bootstrap_passes`` passes over all bags.

    Each pass shuffles the bags into folds; each fold in turn is the training
    set, with the remaining folds as the held-out set. After every pass but
    the last, the most confident labels are frozen and join every later
    classifier fit as additional supervised data. The final model is fitted
    once, on the last pass's labels, with that pass's seed. Every fold's
    ``PullLog`` writes its pulls to ``spill`` (see ``PullLog``), an
    ``io.BytesIO`` in memory when none is given.
    """
    if dataset.regime != config.regime:
        raise ConfigError(
            f"config regime {config.regime!r} does not match dataset regime {dataset.regime!r}"
        )
    if config.folds > len(dataset.bags):
        raise ParameterError(
            f"folds={config.folds} exceeds the number of bags {len(dataset.bags)}"
        )
    if spill is None:
        spill = io.BytesIO()
    clean = strip_ground_truth(dataset)
    rff_seed, *pass_seeds = np.random.SeedSequence(config.master_seed).spawn(
        config.bootstrap_passes + 1
    )
    if config.rff_width is not None:
        clean = apply_random_feature_map(clean, config.rff_width, config.rff_bandwidth, rff_seed)
    bags = clean.bags
    spec = _resolve_classifier_spec(config, clean.num_classes)
    label_sets = derive_label_sets(clean, config.reward.num_negative_labels)
    fixed: dict[int, int] = {}
    pass_reports = []
    pull_logs = []
    for pass_index, pass_seed in enumerate(pass_seeds):
        if pass_index > 0:
            fixed = _grow_fixed(fixed, labels, confidence, config.bootstrap_fraction)
            label_sets.update((x, [label]) for x, label in fixed.items())
        shuffle_seed, *fold_seeds, final_seed = pass_seed.spawn(config.folds + 2)
        order = np.random.default_rng(shuffle_seed).permutation(len(bags))
        folds = [[bags[j] for j in part] for part in np.array_split(order, config.folds)]
        labels: dict[int, int] = {}
        confidence: dict[int, float] = {}
        fold_reports = []
        for fold_index, (train_bags, fold_seed) in enumerate(zip(folds, fold_seeds)):
            held_bags = [bag for other in folds if other is not train_bags for bag in other]
            environment = RewardEnvironment(
                clean, train_bags, held_bags, spec, config.reward, fixed
            )
            log = PullLog(spill=spill)
            result = run_inference(
                {x: label_sets[x] for bag in train_bags for x in bag.instance_ids},
                environment,
                rounds=config.rounds,
                batch_size=config.batch_size,
                rng=np.random.default_rng(fold_seed),
                pull_log=log,
            )
            labels.update(result.assignment)
            confidence.update(result.confidence)
            fold_reports.append(
                {
                    "fold": fold_index,
                    "bag_ids": sorted(int(bag.id) for bag in train_bags),
                    "pulls": result.pull_history_length,
                    "mean_reward_per_round": log.round_means(),
                }
            )
            pull_logs.append({"pass": pass_index, "fold": fold_index, "log": log})
        pass_reports.append(
            {
                "pass": pass_index,
                "fixed_instances": {str(x): int(l) for x, l in sorted(fixed.items())},
                "folds": fold_reports,
            }
        )
    diagnostics = {"passes": pass_reports, "num_instances": len(labels)}
    result = PipelineResult(labels, confidence, None, diagnostics, pull_logs)
    result.model = train_final(clean, result, spec, config.final_weighting, final_seed)
    return result


def kfold_infer(dataset: Dataset, config: InferenceConfig) -> PipelineResult:
    """One pass of ``bootstrap_infer``: each fold of bags is in turn the
    training set, with the remaining folds as the held-out set."""
    return bootstrap_infer(dataset, replace(config, bootstrap_passes=1))


def split_bags_by_inferred_label(
    dataset: Dataset, result: PipelineResult
) -> tuple[Dataset, dict[int, int]]:
    """Reduce an inferred multi-class MIL dataset to a binary one.

    Each original bag yields one positive binary bag per positive inferred
    label present (holding exactly the instances inferred as that label);
    bags whose members were all inferred negative become negative binary
    bags. Negative-inferred instances inside positive bags are dropped. The
    second return value maps each new positive bag id to its source label.
    """
    if dataset.regime != "multiclass-mil":
        raise RegimeError("bag splitting applies to multi-class MIL datasets")
    missing = {inst.id for inst in dataset.instances} - result.labels.keys()
    if missing:
        raise ParameterError(f"result does not cover instances {sorted(missing)[:5]}")

    def is_positive(label: int) -> bool:
        return 0 < label < dataset.num_classes

    index = dataset.instance_map()
    kept_instances: list[Instance] = []
    new_bags: list[Bag] = []
    source_label: dict[int, int] = {}
    next_bag = 0
    for bag in dataset.bags:
        groups: dict[int, list[int]] = {}
        for iid in bag.instance_ids:
            label = result.labels[iid]
            if is_positive(label):
                groups.setdefault(label, []).append(iid)
        if groups:
            for label in sorted(groups):
                members = groups[label]
                kept_instances.extend(index[i] for i in members)
                new_bags.append(Bag(next_bag, members, WeakLabel.binary(1)))
                source_label[next_bag] = label
                next_bag += 1
        else:
            kept_instances.extend(index[i] for i in bag.instance_ids)
            new_bags.append(Bag(next_bag, list(bag.instance_ids), WeakLabel.binary(0)))
            next_bag += 1
    if not source_label:
        raise ParameterError("no instance was inferred positive; nothing to split")
    return Dataset(kept_instances, new_bags, 2, "binary-mil"), source_label


def apply_random_feature_map(dataset: Dataset, width, bandwidth: float, seed) -> Dataset:
    """Replace features by a seeded random cosine expansion approximating a
    Gaussian kernel of the given bandwidth. ``width=None`` disables the map
    and returns the dataset unchanged."""
    if width is None:
        return dataset
    width = check(width, _WIDTH)
    check(bandwidth, _BANDWIDTH)
    rng = np.random.default_rng(seed)
    dim = dataset.feature_dim
    projection = rng.normal(0.0, 1.0 / bandwidth, size=(width, dim))
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=width)
    scale = math.sqrt(2.0 / width)
    with np.errstate(over="ignore", invalid="ignore"):
        mapped = [scale * np.cos(projection @ x.features + offsets) for x in dataset.instances]
    if not np.isfinite(mapped).all():
        raise ParameterError(f"feature-map bandwidth {bandwidth} is too small: the map overflows")
    instances = [
        Instance(inst.id, features, inst.ground_truth)
        for inst, features in zip(dataset.instances, mapped)
    ]
    return Dataset(instances, list(dataset.bags), dataset.num_classes, dataset.regime)
