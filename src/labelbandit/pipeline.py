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

import json
import math
from dataclasses import dataclass, field

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
from .errors import ConfigError, ParameterError, RegimeError
from .rewards import RewardEnvironment, RewardParams

DEFAULT_CLASSIFIER_BY_REGIME = {
    "binary-mil": "linear-svm",
    "multiclass-mil": "cooperative-softmax",
    "llp": "linear-svm",
}

WEIGHTINGS = ("uniform", "confidence")


@dataclass(frozen=True)
class ClassifierConfig:
    """Classifier kind (None = regime default) and training hyperparameters,
    whose defaults are ``ClassifierSpec``'s."""

    kind: str | None = None
    learning_rate: float = ClassifierSpec.learning_rate
    epochs: int = ClassifierSpec.epochs
    l2: float = ClassifierSpec.l2
    batch_size: int = ClassifierSpec.batch_size


@dataclass(frozen=True)
class InferenceConfig:
    regime: str
    rounds: int = 500
    batch_size: int = 4
    folds: int = 5
    bootstrap_passes: int = 1
    bootstrap_fraction: float = 0.25
    master_seed: int = 0
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    rff_width: int | None = None
    rff_bandwidth: float = 1.0
    final_weighting: str = "uniform"

    def __post_init__(self):
        if self.regime not in REGIME_LABEL_KIND:
            raise ConfigError(
                f"no pipeline for regime {self.regime!r}; pipelines run "
                f"{', '.join(REGIME_LABEL_KIND)}, and any other regime runs through "
                "bandit.run_inference with its own reward environment"
            )
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.bootstrap_passes < 1:
            raise ConfigError(f"bootstrap_passes must be >= 1, got {self.bootstrap_passes}")
        if not 0.0 < self.bootstrap_fraction < 1.0:
            raise ConfigError(
                f"bootstrap_fraction must lie in (0, 1), got {self.bootstrap_fraction}"
            )
        if self.final_weighting not in WEIGHTINGS:
            raise ConfigError(f"final_weighting must be one of {WEIGHTINGS}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be non-negative, got {self.master_seed}")
        # reward.num_negative_labels=None: the regime's default
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
    if num_negative_labels < 1:
        raise ParameterError(f"num_negative_labels must be >= 1, got {num_negative_labels}")
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
    kind = config.classifier.kind or DEFAULT_CLASSIFIER_BY_REGIME[config.regime]
    m = config.reward.num_negative_labels
    grouping = None
    if kind == "cooperative-softmax":
        grouping = (tuple(negative_label_ids(num_classes, m)),) + tuple(
            (c,) for c in range(1, num_classes)
        )
    return ClassifierSpec(
        kind,
        extended_num_classes(num_classes, m),
        grouping=grouping,
        learning_rate=config.classifier.learning_rate,
        epochs=config.classifier.epochs,
        l2=config.classifier.l2,
        batch_size=config.classifier.batch_size,
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


def _fit_final(
    dataset: Dataset,
    labels: dict[int, int],
    confidence: dict[int, float],
    spec: ClassifierSpec,
    weighting: str,
    seed,
) -> TrainedModel:
    ids = [inst.id for inst in dataset.instances]
    X = np.stack([inst.features for inst in dataset.instances])
    y = np.array([labels[i] for i in ids], dtype=np.intp)
    sample_weight = None
    if weighting == "confidence":
        per_instance = _confidence_weights(labels, confidence)
        sample_weight = np.array([per_instance[i] for i in ids])
    seed_int = int(np.random.default_rng(seed).integers(0, 2**63))
    return fit(spec, X, y, sample_weight=sample_weight, seed=seed_int)


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
    return _fit_final(dataset, result.labels, result.confidence, spec, weighting, seed)


def _single_pass(dataset: Dataset, config: InferenceConfig, fixed: dict[int, int], seed_seq):
    """One pass over all folds. Returns the merged labels and confidences, the
    fold diagnostics, the pull logs and this pass's seed for the final model,
    which is fitted only after the last pass."""
    bags = dataset.bags
    if config.folds > len(bags):
        raise ParameterError(f"folds={config.folds} exceeds the number of bags {len(bags)}")
    children = seed_seq.spawn(config.folds + 2)
    shuffle_rng = np.random.default_rng(children[0])
    order = shuffle_rng.permutation(len(bags))
    fold_assignments = np.array_split(order, config.folds)

    label_sets = derive_label_sets(dataset, config.reward.num_negative_labels)
    for x, lbl in fixed.items():
        label_sets[x] = [lbl]
    spec = _resolve_classifier_spec(config, dataset.num_classes)

    labels_out: dict[int, int] = {}
    confidence_out: dict[int, float] = {}
    fold_diagnostics = []
    pull_logs = []
    for fold_index in range(config.folds):
        train_bags = [bags[j] for j in fold_assignments[fold_index]]
        held_bags = [
            bags[j]
            for other in range(config.folds)
            if other != fold_index
            for j in fold_assignments[other]
        ]
        environment = RewardEnvironment(dataset, train_bags, held_bags, spec, config.reward, fixed)
        log = PullLog()
        result = run_inference(
            {x: label_sets[x] for bag in train_bags for x in bag.instance_ids},
            environment,
            rounds=config.rounds,
            batch_size=config.batch_size,
            rng=np.random.default_rng(children[fold_index + 1]),
            pull_log=log,
        )
        labels_out.update(result.assignment)
        confidence_out.update(result.confidence)
        fold_diagnostics.append(
            {
                "fold": fold_index,
                "bag_ids": sorted(int(bags[j].id) for j in fold_assignments[fold_index]),
                "pulls": result.pull_history_length,
                "mean_reward_per_round": log.round_means(),
            }
        )
        pull_logs.append({"fold": fold_index, "log": log})

    return labels_out, confidence_out, fold_diagnostics, pull_logs, children[-1]


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


def _run_pipeline(dataset: Dataset, config: InferenceConfig, passes: int) -> PipelineResult:
    if dataset.regime != config.regime:
        raise ConfigError(
            f"config regime {config.regime!r} does not match dataset regime {dataset.regime!r}"
        )
    clean = strip_ground_truth(dataset)
    root = np.random.SeedSequence(config.master_seed)
    rff_child, *pass_children = root.spawn(passes + 1)
    if config.rff_width is not None:
        clean = apply_random_feature_map(
            clean, config.rff_width, config.rff_bandwidth, seed=rff_child
        )
    fixed: dict[int, int] = {}
    pass_reports = []
    all_logs = []
    labels: dict[int, int] = {}
    confidence: dict[int, float] = {}
    for pass_index in range(passes):
        labels, confidence, fold_diags, pull_logs, final_seed = _single_pass(
            clean, config, fixed, pass_children[pass_index]
        )
        pass_reports.append(
            {
                "pass": pass_index,
                "fixed_instances": {str(x): int(l) for x, l in sorted(fixed.items())},
                "folds": fold_diags,
            }
        )
        for entry in pull_logs:
            all_logs.append({"pass": pass_index, **entry})
        if pass_index < passes - 1:
            fixed = _grow_fixed(fixed, labels, confidence, config.bootstrap_fraction)
    model = _fit_final(
        clean,
        labels,
        confidence,
        _resolve_classifier_spec(config, clean.num_classes),
        config.final_weighting,
        final_seed,
    )
    diagnostics = {"passes": pass_reports, "num_instances": len(labels)}
    return PipelineResult(labels, confidence, model, diagnostics, all_logs)


def kfold_infer(dataset: Dataset, config: InferenceConfig) -> PipelineResult:
    """One inference pass over all bags: each fold of bags is in turn the
    training set, with the remaining folds as the held-out set."""
    return _run_pipeline(dataset, config, passes=1)


def bootstrap_infer(dataset: Dataset, config: InferenceConfig) -> PipelineResult:
    """Repeated passes; after each one the most confident labels are frozen
    and join every later classifier fit as additional supervised data. With a
    single pass this is exactly ``kfold_infer``."""
    return _run_pipeline(dataset, config, passes=config.bootstrap_passes)


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
    if width < 1:
        raise ParameterError(f"width must be >= 1, got {width}")
    if bandwidth <= 0:
        raise ParameterError(f"bandwidth must be positive, got {bandwidth}")
    rng = np.random.default_rng(seed)
    dim = dataset.feature_dim
    projection = rng.normal(0.0, 1.0 / bandwidth, size=(int(width), dim))
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=int(width))
    scale = math.sqrt(2.0 / int(width))
    instances = [
        Instance(
            inst.id,
            scale * np.cos(projection @ inst.features + offsets),
            inst.ground_truth,
        )
        for inst in dataset.instances
    ]
    return Dataset(instances, list(dataset.bags), dataset.num_classes, dataset.regime)
