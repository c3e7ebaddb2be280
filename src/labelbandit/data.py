"""Dataset model for weakly supervised learning.

Instances are grouped into bags, and supervision is attached to bags as weak
labels: a binary flag, a set of positive class ids, or a positive fraction.
Class id 0 is reserved for the negative/background class in every regime.

Datasets are immutable after construction and safe to share across threads.
Ground truth, when present, is a side channel for evaluation only; use
``strip_ground_truth`` to obtain the view that inference is allowed to see.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError, ParseError, Rule, UsageError, ValidationError, check, check_count

NEGATIVE_CLASS = 0

# Negative modes of a regime whose reward.num_negative_labels is unset: one for
# binary MIL and LLP, three for multi-class (one per expected negative mode at
# desk scale); any other regime gets one.
DEFAULT_NEGATIVE_LABELS = {"binary-mil": 1, "multiclass-mil": 3, "llp": 1}


def _whole(value, field: str, error: type[UsageError] = ValidationError) -> int:
    """``value`` as an int: integers (numpy's too) and whole floats pass;
    fractions and bools are ``error``s naming ``field``."""
    if type(value) is int:
        return value
    fraction = isinstance(value, (float, np.floating)) and not value.is_integer()
    if fraction or isinstance(value, bool):
        raise error(f"{field} must be a whole number, got {value!r}")
    return int(value)


def negative_label_ids(num_classes: int, num_negative_labels: int) -> list[int]:
    """Label ids acting as negative modes: 0 plus fresh ids above the dataset's
    class range, so positive ids keep their meaning."""
    return [NEGATIVE_CLASS] + list(range(num_classes, num_classes + num_negative_labels - 1))


def extended_num_classes(num_classes: int, num_negative_labels: int) -> int:
    """Classifier width for a dataset's classes plus its extra negative modes."""
    return num_classes + num_negative_labels - 1


# The weak-label kind every bag of a built-in regime carries; a custom
# dataset's bags may mix kinds.
REGIME_LABEL_KIND = {"binary-mil": "binary", "multiclass-mil": "label_set", "llp": "proportion"}

REGIMES = (*REGIME_LABEL_KIND, "custom")

FORMATS = ("json", "csv")


@dataclass(frozen=True)
class WeakLabel:
    """Bag-level supervision.

    kind is one of ``binary`` (value 0/1), ``label_set`` (frozenset of
    positive class ids; the empty set marks a negative bag) or
    ``proportion`` (fraction of positive instances, in [0, 1]).
    """

    kind: str
    value: object

    def __post_init__(self):
        if self.kind == "binary":
            if self.value not in (0, 1):
                raise ValidationError(f"binary weak label must be 0 or 1, got {self.value!r}")
            object.__setattr__(self, "value", int(self.value))
        elif self.kind == "label_set":
            ids = frozenset(_whole(v, "label set class id") for v in self.value)
            if any(i < 1 for i in ids):
                raise ValidationError(
                    f"label set {sorted(ids)} contains a non-positive class id; "
                    "0 is reserved for the negative class"
                )
            object.__setattr__(self, "value", ids)
        elif self.kind == "proportion":
            rule = Rule("real", high=1, name="proportion weak label", error=ValidationError)
            object.__setattr__(self, "value", check(float(self.value), rule))
        else:
            raise ValidationError(f"unknown weak label kind {self.kind!r}")

    @classmethod
    def binary(cls, value: int) -> "WeakLabel":
        return cls("binary", value)

    @classmethod
    def label_set(cls, ids) -> "WeakLabel":
        return cls("label_set", frozenset(ids))

    @classmethod
    def proportion(cls, value: float) -> "WeakLabel":
        return cls("proportion", value)

    @property
    def positive_classes(self) -> frozenset[int]:
        """The positive classes the bag is said to hold: {1} for binary 1 or
        a proportion above 0, the label set itself, else the empty set."""
        if self.kind == "label_set":
            return self.value
        return frozenset({1}) if self.value > 0 else frozenset()

    def max_class_id(self) -> int:
        """Largest class id this label refers to (for num_classes validation)."""
        return max(self.positive_classes, default=0)


@dataclass(frozen=True, eq=False)
class Instance:
    """One feature vector, optionally carrying an evaluation-only true label."""

    id: int
    features: np.ndarray
    ground_truth: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        if type(self.id) is not int:
            object.__setattr__(self, "id", _whole(self.id, "instance id"))
        if self.id < 0:
            raise ValidationError(f"instance id must be non-negative, got {self.id}")
        if self.features.ndim != 1:
            raise ValidationError(f"instance {self.id}: features must be a 1-d vector")
        if self.ground_truth is not None and type(self.ground_truth) is not int:
            truth = _whole(self.ground_truth, f"instance {self.id}: ground_truth")
            object.__setattr__(self, "ground_truth", truth)

    def __eq__(self, other):
        return (
            isinstance(other, Instance)
            and self.id == other.id
            and self.ground_truth == other.ground_truth
            and np.array_equal(self.features, other.features)
        )


@dataclass(frozen=True)
class Bag:
    """A nonempty group of instance ids sharing one weak label."""

    id: int
    instance_ids: tuple[int, ...]
    weak_label: WeakLabel

    def __post_init__(self):
        if type(self.id) is not int:
            object.__setattr__(self, "id", _whole(self.id, "bag id"))
        members = tuple(self.instance_ids)
        if any(type(i) is not int for i in members):
            field = f"bag {self.id}: instance id"
            members = tuple(_whole(i, field) for i in members)
        object.__setattr__(self, "instance_ids", members)
        if self.id < 0:
            raise ValidationError(f"bag id must be non-negative, got {self.id}")
        if not self.instance_ids:
            raise ValidationError(f"bag {self.id} has no instances")


def _check_finite(instances: list[Instance]) -> None:
    """One finiteness check over the stacked features of a nonempty list of
    instances of one dimension; a ValidationError names the first non-finite
    instance."""
    finite = np.isfinite(np.stack([inst.features for inst in instances])).all(axis=1)
    if not finite.all():
        first = instances[int(finite.argmin())]
        raise ValidationError(f"instance {first.id}: non-finite feature value")


@dataclass(eq=False)
class Dataset:
    """Instances partitioned into bags, with the regime tag and class count.

    Construction validates every structural invariant: unique ids, a bag
    partition that covers each instance exactly once, one shared feature
    dimension (>= 1), finite features, weak-label class ids < num_classes,
    and, in a built-in regime, bags of its weak-label kind only.
    """

    instances: list[Instance]
    bags: list[Bag]
    num_classes: int
    regime: str

    def __post_init__(self):
        self._validate()

    def _validate(self):
        check(self.regime, Rule("choice", choices=REGIMES), "regime", ValidationError)
        check_count(self.num_classes, "num_classes", 2, ValidationError)
        check_label_kinds(self.regime, self.bags)
        if not self.instances:
            raise ValidationError("dataset has no instances")
        dim = self.instances[0].features.shape[0]
        if dim == 0:
            raise ValidationError("feature dimension must be at least 1")
        ids = set()
        for index, inst in enumerate(self.instances):
            problem = None
            if inst.id in ids:
                problem = f"duplicate instance id {inst.id}"
            elif inst.features.shape[0] != dim:
                problem = (
                    f"instance {inst.id}: feature dimension {inst.features.shape[0]} != {dim}"
                )
            if problem:
                # a non-finite instance before this one is named first
                _check_finite(self.instances[:index])
                raise ValidationError(problem)
            ids.add(inst.id)
        _check_finite(self.instances)
        owner: dict[int, int] = {}
        bag_ids = set()
        for bag in self.bags:
            if bag.id in bag_ids:
                raise ValidationError(f"duplicate bag id {bag.id}")
            bag_ids.add(bag.id)
            if bag.weak_label.max_class_id() >= self.num_classes:
                raise ValidationError(
                    f"bag {bag.id}: weak label references class id "
                    f"{bag.weak_label.max_class_id()} >= num_classes={self.num_classes}"
                )
            for iid in bag.instance_ids:
                if iid not in ids:
                    raise ValidationError(f"bag {bag.id} references unknown instance {iid}")
                if iid in owner:
                    raise ValidationError(
                        f"instance {iid} appears in bag {owner[iid]} and bag {bag.id}"
                    )
                owner[iid] = bag.id
        uncovered = ids - owner.keys()
        if uncovered:
            raise ValidationError(f"instances not covered by any bag: {sorted(uncovered)}")

    def __eq__(self, other):
        return (
            isinstance(other, Dataset)
            and self.num_classes == other.num_classes
            and self.regime == other.regime
            and self.instances == other.instances
            and self.bags == other.bags
        )

    @property
    def feature_dim(self) -> int:
        return self.instances[0].features.shape[0]

    def instance_map(self) -> dict[int, Instance]:
        return {inst.id: inst for inst in self.instances}

    def ground_truth_map(self) -> dict[int, int]:
        """Map of instance id -> true label; raises if any instance lacks one."""
        out = {}
        for inst in self.instances:
            if inst.ground_truth is None:
                raise ValidationError(f"instance {inst.id} has no ground truth")
            out[inst.id] = inst.ground_truth
        return out

    def has_ground_truth(self) -> bool:
        return all(inst.ground_truth is not None for inst in self.instances)


def check_label_kinds(regime: str, bags) -> None:
    """Reject the first bag whose weak-label kind is not the regime's;
    custom and unknown regimes pass."""
    expected = REGIME_LABEL_KIND.get(regime)
    if expected is None:
        return
    for bag in bags:
        if bag.weak_label.kind != expected:
            raise ValidationError(
                f"bag {bag.id}: regime {regime!r} needs {expected!r} weak labels, "
                f"got {bag.weak_label.kind!r}"
            )


def strip_ground_truth(dataset: Dataset) -> Dataset:
    """Projection that removes ground truth; the only view inference may see."""
    instances = [Instance(i.id, i.features, None) for i in dataset.instances]
    return Dataset(instances, list(dataset.bags), dataset.num_classes, dataset.regime)


# ---------------------------------------------------------------------------
# File I/O
#
# JSON nests instances under bags and is lossless for every weak-label kind.
# CSV is one row per instance (instance_id, bag_id, weak_label, ground_truth,
# f0, f1, ...) with label sets joined by ';' and missing ground truth empty;
# a leading '# num_classes=M regime=R' comment preserves the metadata that
# the columns alone cannot carry.
# ---------------------------------------------------------------------------


def _weak_label_to_json(label: WeakLabel):
    if label.kind == "label_set":
        return {"kind": "label_set", "value": sorted(label.value)}
    return {"kind": label.kind, "value": label.value}


def _weak_label_from_json(obj, path, bid: int) -> WeakLabel:
    try:
        if obj["kind"] == "label_set":
            for c in obj["value"]:
                _whole(c, f"{path}: bag {bid}: label set class id", ParseError)
        return WeakLabel(obj["kind"], obj["value"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed weak label object {obj!r}") from exc


def _weak_label_to_csv(label: WeakLabel) -> str:
    if label.kind == "binary":
        return str(label.value)
    if label.kind == "label_set":
        return ";".join(str(i) for i in sorted(label.value))
    return repr(float(label.value))


def _weak_label_from_csv(text: str, regime: str | None) -> WeakLabel:
    # a built-in regime names the kind; custom datasets mix kinds, so their
    # kinds are inferred per row; note that a bare "1" then reads as a binary
    # label, not the label set {1} -- JSON is the lossless format for such data
    kind = REGIME_LABEL_KIND.get(regime)
    if kind == "proportion" or (kind is None and ("." in text or "e" in text)):
        return WeakLabel.proportion(float(text))
    if kind == "binary" or (kind is None and text in ("0", "1")):
        return WeakLabel.binary(int(text))
    ids = [int(tok) for tok in text.split(";") if tok != ""]
    return WeakLabel.label_set(ids)


def save_dataset(dataset: Dataset, path, format: str = "json") -> None:
    """Write ``dataset`` so that ``load_dataset`` reproduces it exactly."""
    check(format, Rule("choice", choices=FORMATS), "format", ParameterError)
    path = Path(path)
    if format == "json":
        index = dataset.instance_map()
        doc = {
            "num_classes": dataset.num_classes,
            "regime": dataset.regime,
            "bags": [
                {
                    "id": bag.id,
                    "weak_label": _weak_label_to_json(bag.weak_label),
                    "instances": [
                        {
                            "id": iid,
                            "features": index[iid].features.tolist(),
                            "ground_truth": index[iid].ground_truth,
                        }
                        for iid in bag.instance_ids
                    ],
                }
                for bag in dataset.bags
            ],
        }
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return
    with path.open("w", newline="") as fh:
        fh.write(f"# num_classes={dataset.num_classes} regime={dataset.regime}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["instance_id", "bag_id", "weak_label", "ground_truth"]
            + [f"f{j}" for j in range(dataset.feature_dim)]
        )
        index = dataset.instance_map()
        for bag in dataset.bags:
            weak = _weak_label_to_csv(bag.weak_label)
            for iid in bag.instance_ids:
                inst = index[iid]
                gt = "" if inst.ground_truth is None else str(inst.ground_truth)
                writer.writerow(
                    [iid, bag.id, weak, gt] + [repr(float(v)) for v in inst.features]
                )


def load_dataset(path, format: str = "json") -> Dataset:
    """Read a dataset file; raises ParseError naming the offending record."""
    check(format, Rule("choice", choices=FORMATS), "format", ParameterError)
    path = Path(path)
    if format == "json":
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        try:
            instances, bags, name = [], [], str(path)
            for bag_obj in doc["bags"]:
                bid = _whole(bag_obj["id"], f"{path}: bag id", ParseError)
                weak = _weak_label_from_json(bag_obj["weak_label"], path, bid)
                iids, field = [], f"{path}: bag {bid}: instance id"
                for inst_obj in bag_obj["instances"]:
                    iid = _whole(inst_obj["id"], field, ParseError)
                    truth = inst_obj.get("ground_truth")
                    if truth is not None:
                        truth = _whole(truth, f"{name}: instance {iid}: ground_truth", ParseError)
                    features = np.asarray(inst_obj["features"], dtype=np.float64)
                    instances.append(Instance(iid, features, truth))
                    iids.append(iid)
                bags.append(Bag(bid, iids, weak))
            num_classes = _whole(doc["num_classes"], f"{path}: num_classes", ParseError)
            return Dataset(instances, bags, num_classes, str(doc["regime"]))
        except UsageError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: missing or malformed field: {exc}") from exc

    num_classes = None
    regime = None
    instances = []
    bag_members: dict[int, list[int]] = {}
    bag_weak: dict[int, str] = {}
    with path.open(newline="") as fh:
        first = fh.readline()
        if first.startswith("#"):
            for token in first[1:].split():
                key, _, val = token.partition("=")
                if key == "num_classes":
                    try:
                        num_classes = int(val)
                    except ValueError as exc:
                        raise ParseError(f"{path}: line 1: {exc}") from exc
                elif key == "regime":
                    regime = val
            header_line = fh.readline()
        else:
            header_line = first
        header = next(csv.reader([header_line]))
        if header[:4] != ["instance_id", "bag_id", "weak_label", "ground_truth"]:
            raise ParseError(f"{path}: unexpected CSV header {header[:4]}")
        for lineno, row in enumerate(csv.reader(fh), start=3 if first.startswith("#") else 2):
            if not row:
                continue
            try:
                iid, bid = int(row[0]), int(row[1])
                gt = None if row[3] == "" else int(row[3])
                feats = np.asarray([float(v) for v in row[4:]], dtype=np.float64)
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from exc
            instances.append(Instance(iid, feats, gt))
            bag_members.setdefault(bid, []).append(iid)
            if bid in bag_weak and bag_weak[bid] != row[2]:
                raise ParseError(
                    f"{path}: line {lineno}: bag {bid} carries conflicting weak labels "
                    f"{bag_weak[bid]!r} and {row[2]!r}"
                )
            bag_weak[bid] = row[2]
    bags = []
    for bid, members in bag_members.items():
        try:
            weak = _weak_label_from_csv(bag_weak[bid], regime)
        except ValueError as exc:
            raise ParseError(f"{path}: bag {bid}: weak label {bag_weak[bid]!r}: {exc}") from exc
        bags.append(Bag(bid, members, weak))
    if regime is None:
        kinds = {b.weak_label.kind for b in bags}
        regime_of = {k: r for r, k in REGIME_LABEL_KIND.items()}
        regime = regime_of[kinds.pop()] if len(kinds) == 1 else "custom"
    if num_classes is None:
        num_classes = max(2, 1 + max((b.weak_label.max_class_id() for b in bags), default=0))
    return Dataset(instances, bags, num_classes, regime)


# ---------------------------------------------------------------------------
# Synthetic generators (ground truth recorded, deterministic per seed)
# ---------------------------------------------------------------------------


def generate_binary_mil(
    num_bags: int,
    bag_size_range: tuple[int, int],
    positive_fraction: float,
    feature_dim: int,
    class_separation: float,
    seed: int,
) -> Dataset:
    """Two-Gaussian binary MIL data.

    Negative instances are drawn around the origin and positive instances
    around a mean at distance ``class_separation``, both with unit variance.
    Positive bags contain at least one positive instance; negative bags
    contain none.
    """
    check_count(num_bags, "num_bags", 2, ParameterError)
    lo, hi = (check_count(size, "bag size", 1, ParameterError) for size in bag_size_range)
    if hi < lo:
        raise ParameterError(f"bad bag size range [{lo}, {hi}]")
    check(positive_fraction, Rule("real", high=1, ends="()"), "positive_fraction", ParameterError)
    check_count(feature_dim, "feature_dim", 1, ParameterError)
    check(class_separation, Rule("real"), "class_separation", ParameterError)
    num_positive = round(positive_fraction * num_bags)
    if num_positive == 0 or num_positive == num_bags:
        raise ParameterError(
            f"positive_fraction={positive_fraction} yields {num_positive} positive bags "
            f"out of {num_bags}; both labels must occur"
        )
    rng = np.random.default_rng(seed)
    positive_mean = np.zeros(feature_dim)
    positive_mean[0] = class_separation
    bag_labels = np.array([1] * num_positive + [0] * (num_bags - num_positive))
    rng.shuffle(bag_labels)
    instances, bags = [], []
    next_id = 0
    for bid, bag_label in enumerate(bag_labels):
        size = int(rng.integers(lo, hi + 1))
        n_pos = int(rng.integers(1, size + 1)) if bag_label == 1 else 0
        member_ids = []
        for j in range(size):
            positive = j < n_pos
            mean = positive_mean if positive else np.zeros(feature_dim)
            features = rng.normal(mean, 1.0)
            instances.append(Instance(next_id, features, 1 if positive else 0))
            member_ids.append(next_id)
            next_id += 1
        bags.append(Bag(bid, member_ids, WeakLabel.binary(int(bag_label))))
    return Dataset(instances, bags, 2, "binary-mil")


def generate_gaussian_blobs(
    num_classes: int,
    per_class: int,
    feature_dim: int,
    separation: float,
    seed: int,
) -> list[Instance]:
    """Labeled instance pool: unit-variance Gaussian blobs, one per class.

    Class means are random directions rescaled so the closest pair sits at
    exactly ``separation``; separation 0 collapses all means onto the origin.
    """
    check_count(num_classes, "num_classes", 2, ParameterError)
    check_count(per_class, "per_class", 1, ParameterError)
    check_count(feature_dim, "feature_dim", 1, ParameterError)
    check(separation, Rule("real"), "separation", ParameterError)
    rng = np.random.default_rng(seed)
    while True:
        raw = rng.normal(size=(num_classes, feature_dim))
        gaps = [
            float(np.linalg.norm(raw[a] - raw[b]))
            for a in range(num_classes)
            for b in range(a + 1, num_classes)
        ]
        min_gap = min(gaps)
        if min_gap > 0:
            break
    means = raw * (separation / min_gap)
    pool = []
    next_id = 0
    for cls in range(num_classes):
        for _ in range(per_class):
            pool.append(Instance(next_id, rng.normal(means[cls], 1.0), cls))
            next_id += 1
    return pool


def generate_multiclass_mil(
    base: list[Instance],
    num_bags: int,
    bag_size_range: tuple[int, int] = (5, 15),
    positive_classes=frozenset(),
    seed: int = 0,
) -> Dataset:
    """Bags of instances sampled from a labeled pool.

    Each bag draws its members without replacement from ``base`` (bags may
    reuse pool instances; copies get fresh ids). Pool classes outside
    ``positive_classes`` become the negative class 0, and each bag's label
    set is exactly the set of positive classes present among its members.
    """
    positive_classes = frozenset(
        check_count(c, "positive class id", 1, ParameterError) for c in positive_classes
    )
    if not base:
        raise ParameterError("base pool is empty")
    if not positive_classes:
        raise ParameterError("positive_classes must be nonempty")
    lo, hi = (check_count(size, "bag size", 1, ParameterError) for size in bag_size_range)
    if hi < lo:
        raise ParameterError(f"bad bag size range [{lo}, {hi}]")
    if hi > len(base):
        raise ParameterError(f"bag size {hi} exceeds pool size {len(base)}")
    check_count(num_bags, "num_bags", 1, ParameterError)
    rng = np.random.default_rng(seed)
    num_classes = max(positive_classes) + 1
    instances, bags = [], []
    next_id = 0
    for bid in range(num_bags):
        size = int(rng.integers(lo, hi + 1))
        picks = rng.choice(len(base), size=size, replace=False)
        member_ids = []
        present = set()
        for idx in picks:
            src = base[int(idx)]
            label = src.ground_truth if src.ground_truth in positive_classes else NEGATIVE_CLASS
            if label != NEGATIVE_CLASS:
                present.add(label)
            instances.append(Instance(next_id, src.features, label))
            member_ids.append(next_id)
            next_id += 1
        bags.append(Bag(bid, member_ids, WeakLabel.label_set(present)))
    return Dataset(instances, bags, num_classes, "multiclass-mil")


def with_proportion_labels(dataset: Dataset) -> Dataset:
    """Relabel each bag with its true positive fraction (needs ground truth);
    turns any binary dataset into proportion-supervised data."""
    truth = dataset.ground_truth_map()
    bags = [
        Bag(
            bag.id,
            bag.instance_ids,
            WeakLabel.proportion(
                sum(truth[i] == 1 for i in bag.instance_ids) / len(bag.instance_ids)
            ),
        )
        for bag in dataset.bags
    ]
    return Dataset(list(dataset.instances), bags, 2, "llp")


def label_set_size_histogram(dataset: Dataset) -> dict[int, int]:
    """Bag counts keyed by label-set size: the number of positive classes a
    bag names (``WeakLabel.positive_classes``)."""
    counts: dict[int, int] = {}
    for bag in dataset.bags:
        size = len(bag.weak_label.positive_classes)
        counts[size] = counts.get(size, 0) + 1
    return dict(sorted(counts.items()))
