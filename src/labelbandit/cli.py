"""Command-line front end: generate, infer, evaluate, bench.

One JSON config file drives everything; command-line flags override single
values. The effective config is echoed into the output directory so any run
can be reproduced from its own artifacts. Exit codes: 0 success, 2 bad
usage/config/inputs, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import data, metrics, pipeline
from .classifiers import load_model, save_model
from .errors import (
    ConfigError,
    EvaluationError,
    InferenceError,
    LabelBanditError,
    ParameterError,
    ParseError,
    RegimeError,
    ValidationError,
)
from .rewards import RewardParams

logger = logging.getLogger(__name__)

USAGE_ERRORS = (
    ConfigError,
    ParameterError,
    ValidationError,
    ParseError,
    EvaluationError,
    RegimeError,
    FileNotFoundError,
)


def _field_defaults(cls) -> dict:
    """Defaults of a dataclass's fields; a dataclass-valued field becomes a section."""
    out = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            out[f.name] = _field_defaults(f.default_factory)
        elif f.default is not dataclasses.MISSING:
            out[f.name] = f.default
    return out


DEFAULT_CONFIG = {
    "regime": None,  # None: follow the dataset (infer) or default to binary-mil (generate/bench)
    **_field_defaults(pipeline.InferenceConfig),
    "generator": {
        "num_bags": 50,
        "bag_size": [3, 10],
        "positive_fraction": 0.5,
        "feature_dim": 5,
        "separation": 6.0,
        "positive_classes": 5,
        "negative_modes": 5,
        "per_class": 100,
    },
    "bench": {"repetitions": 10},
    "dataset": None,
    "out": None,
}
DEFAULT_CONFIG["reward"]["num_negative_labels"] = None  # None: DEFAULT_NEGATIVE_LABELS[regime]

# Defaults differ by regime: one negative label for binary/llp, three for
# multi-class (one per expected negative mode at desk scale).
DEFAULT_NEGATIVE_LABELS = {"binary-mil": 1, "multiclass-mil": 3, "llp": 1}


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = _merge_config(base[key], value, path + key + ".")
        else:
            merged[key] = value
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    file = Path(path)
    if not file.exists():
        raise FileNotFoundError(f"config file not found: {file}")
    try:
        user = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{file}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"{file}: config root must be a JSON object")
    # "threads" is no longer an option; configs that carry it, as every
    # config.json echoed by earlier versions does, still load
    if "threads" in user:
        threads = user.pop("threads")
        if threads != 1:
            logger.warning("%s: ignoring \"threads\": %r; inference runs serially", file, threads)
    return _merge_config(DEFAULT_CONFIG, user)


def build_inference_config(cfg: dict) -> pipeline.InferenceConfig:
    reward_cfg = dict(cfg["reward"])
    if reward_cfg["num_negative_labels"] is None:
        reward_cfg["num_negative_labels"] = DEFAULT_NEGATIVE_LABELS.get(cfg["regime"], 1)
    top = {f.name: cfg[f.name] for f in dataclasses.fields(pipeline.InferenceConfig)}
    return pipeline.InferenceConfig(
        **{
            **top,
            "classifier": pipeline.ClassifierConfig(**cfg["classifier"]),
            "reward": RewardParams(**reward_cfg),
        }
    )


def _echo_config(cfg: dict, out_dir: Path) -> None:
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _dataset_format(path: Path) -> str:
    return "csv" if path.suffix == ".csv" else "json"


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _generate_dataset(regime: str, gen: dict, seed: int) -> data.Dataset:
    if regime in ("binary-mil", "llp"):
        dataset = data.generate_binary_mil(
            num_bags=gen["num_bags"],
            bag_size_range=tuple(gen["bag_size"]),
            positive_fraction=gen["positive_fraction"],
            feature_dim=gen["feature_dim"],
            class_separation=gen["separation"],
            seed=seed,
        )
        if regime == "llp":
            dataset = data.with_proportion_labels(dataset)
        return dataset
    if regime == "multiclass-mil":
        pool_seed, bag_seed = np.random.SeedSequence(seed).generate_state(2)
        num_positive = int(gen["positive_classes"])
        pool = data.generate_gaussian_blobs(
            num_classes=num_positive + int(gen["negative_modes"]),
            per_class=gen["per_class"],
            feature_dim=gen["feature_dim"],
            separation=gen["separation"],
            seed=int(pool_seed),
        )
        return data.generate_multiclass_mil(
            pool,
            num_bags=gen["num_bags"],
            bag_size_range=tuple(gen["bag_size"]),
            positive_classes=range(1, num_positive + 1),
            seed=int(bag_seed),
        )
    raise ConfigError(f"no generator for regime {regime!r}")


def cmd_generate(args) -> int:
    cfg = load_config(args.config)
    if args.regime:
        cfg["regime"] = args.regime
    if args.bags:
        cfg["generator"]["num_bags"] = args.bags
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.out:
        cfg["out"] = args.out
    cfg["regime"] = cfg["regime"] or "binary-mil"
    out_dir = Path(cfg["out"] or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset = _generate_dataset(cfg["regime"], cfg["generator"], cfg["master_seed"])
    name = args.name
    dataset_path = out_dir / f"{name}.{args.format}"
    data.save_dataset(data.strip_ground_truth(dataset), dataset_path, format=args.format)
    truth_path = out_dir / f"{name}.groundtruth.json"
    truth = {str(k): v for k, v in sorted(dataset.ground_truth_map().items())}
    truth_path.write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
    _echo_config(cfg, out_dir)
    histogram = data.label_set_size_histogram(dataset)
    print(f"wrote {dataset_path} and {truth_path}")
    print("bags by label-set size:")
    for size, count in histogram.items():
        print(f"  size {size}: {count}")
    print(f"  total: {sum(histogram.values())}")
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def _apply_infer_overrides(cfg: dict, args) -> None:
    if args.dataset:
        cfg["dataset"] = args.dataset
    if args.out:
        cfg["out"] = args.out
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.passes is not None:
        cfg["bootstrap_passes"] = args.passes
    if args.rounds is not None:
        cfg["rounds"] = args.rounds
    if args.folds is not None:
        cfg["folds"] = args.folds


def cmd_infer(args) -> int:
    cfg = load_config(args.config)
    _apply_infer_overrides(cfg, args)
    if not cfg["dataset"]:
        raise ConfigError("no dataset given; pass --dataset or set it in the config")
    dataset_path = Path(cfg["dataset"])
    if not dataset_path.exists():
        raise FileNotFoundError(f"dataset file not found: {dataset_path}")
    if not cfg["out"]:
        raise ConfigError("no output directory given; pass --out or set it in the config")
    dataset = data.load_dataset(dataset_path, format=_dataset_format(dataset_path))
    if cfg["regime"] is not None and cfg["regime"] != dataset.regime:
        raise ConfigError(
            f"config regime {cfg['regime']!r} does not match dataset regime {dataset.regime!r}"
        )
    cfg["regime"] = dataset.regime
    config = build_inference_config(cfg)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = pipeline.bootstrap_infer(dataset, config)
    except USAGE_ERRORS:
        raise
    except LabelBanditError as exc:
        raise InferenceError(str(exc)) from exc
    (out_dir / "result.json").write_text(result.to_json())
    save_model(result.model, out_dir / "model.json")
    with (out_dir / "pull_log.ndjson").open("w") as fh:
        for entry in result.pull_logs:
            fh.writelines(entry["log"].lines(entry["pass"], entry["fold"]))
    _echo_config(cfg, out_dir)
    fixed = sum(1 for c in result.confidence.values() if c == float("inf"))
    print(
        f"inferred {len(result.labels)} labels ({fixed} structurally fixed); "
        f"results in {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _attach_ground_truth(dataset: data.Dataset, truth: dict[int, int]) -> data.Dataset:
    missing = {inst.id for inst in dataset.instances} - truth.keys()
    if missing:
        raise EvaluationError(f"ground truth missing for instances {sorted(missing)[:5]}")
    instances = [
        data.Instance(inst.id, inst.features, truth[inst.id]) for inst in dataset.instances
    ]
    return data.Dataset(instances, list(dataset.bags), dataset.num_classes, dataset.regime)


def _mean_reward_trace(diagnostics: dict) -> list[float]:
    """Elementwise mean of the final pass's per-fold reward traces."""
    passes = diagnostics.get("passes", [])
    if not passes:
        return []
    traces = [fold["mean_reward_per_round"] for fold in passes[-1]["folds"]]
    length = max(len(t) for t in traces)
    out = []
    for i in range(length):
        values = [t[i] for t in traces if i < len(t)]
        out.append(float(np.mean(values)))
    return out


def cmd_evaluate(args) -> int:
    for required in (args.dataset, args.result, args.ground_truth):
        if not Path(required).exists():
            raise FileNotFoundError(f"input file not found: {required}")
    dataset_path = Path(args.dataset)
    dataset = data.load_dataset(dataset_path, format=_dataset_format(dataset_path))
    truth = {int(k): int(v) for k, v in json.loads(Path(args.ground_truth).read_text()).items()}
    dataset = _attach_ground_truth(dataset, truth)
    result_doc = json.loads(Path(args.result).read_text())
    labels = {int(k): int(v) for k, v in result_doc["labels"].items()}

    report = metrics.MetricsReport()
    overall, per_class, confusion = metrics.instance_accuracy(labels, dataset)
    report.inference_accuracy = overall
    report.per_class_accuracy = per_class
    report.confusion = confusion
    report.reward_trace = _mean_reward_trace(result_doc.get("diagnostics", {}))
    if args.model:
        model = load_model(args.model)
        model_overall, _, _ = metrics.instance_accuracy(model, dataset)
        report.instance_accuracy = model_overall
        if dataset.regime == "binary-mil":
            report.bag_accuracy = metrics.bag_accuracy(model, dataset)

    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    if args.trace_csv and report.reward_trace:
        lines = ["round,mean_reward"] + [
            f"{i},{v}" for i, v in enumerate(report.reward_trace)
        ]
        (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")
    print(f"inference accuracy: {report.inference_accuracy:.4f}")
    for cls, acc in sorted(report.per_class_accuracy.items()):
        print(f"  class {cls}: {acc:.4f}")
    if report.instance_accuracy is not None:
        print(f"model instance accuracy: {report.instance_accuracy:.4f}")
    if report.bag_accuracy is not None:
        print(f"model bag accuracy: {report.bag_accuracy:.4f}")
    print(f"report written to {out_dir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg["out"] = args.out
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    if args.repetitions is not None:
        cfg["bench"]["repetitions"] = args.repetitions
    if not cfg["out"]:
        raise ConfigError("no output directory given; pass --out or set it in the config")
    cfg["regime"] = cfg["regime"] or "binary-mil"
    repetitions = int(cfg["bench"]["repetitions"])
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = [int(s) for s in np.random.SeedSequence(cfg["master_seed"]).generate_state(repetitions)]
    per_run = []
    wall = {"generate": 0.0, "infer": 0.0, "evaluate": 0.0}
    for rep, seed in enumerate(seeds):
        try:
            t0 = time.perf_counter()
            dataset = _generate_dataset(cfg["regime"], cfg["generator"], seed)
            wall["generate"] += time.perf_counter() - t0
            run_cfg = copy.deepcopy(cfg)
            run_cfg["master_seed"] = seed
            config = build_inference_config(run_cfg)
            t0 = time.perf_counter()
            result = pipeline.bootstrap_infer(dataset, config)
            wall["infer"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            overall, per_class, _ = metrics.instance_accuracy(result.labels, dataset)
            run_metrics = {"inference_accuracy": overall}
            model_overall, _, _ = metrics.instance_accuracy(result.model, dataset)
            run_metrics["instance_accuracy"] = model_overall
            if dataset.regime == "binary-mil":
                run_metrics["bag_accuracy"] = metrics.bag_accuracy(result.model, dataset)
            wall["evaluate"] += time.perf_counter() - t0
            per_run.append({"repetition": rep, "seed": seed, "metrics": run_metrics})
        except Exception as exc:
            raise InferenceError(f"repetition {rep} (seed {seed}) failed: {exc}") from exc
    names = sorted(per_run[0]["metrics"])
    summary_metrics = {}
    for name in names:
        values = np.array([run["metrics"][name] for run in per_run])
        summary_metrics[name] = {
            "mean": float(values.mean()),
            "std": float(values.std(ddof=0)),
        }
    summary = {
        "repetitions": repetitions,
        "metrics": summary_metrics,
        "wall_clock_seconds": {k: round(v, 3) for k, v in wall.items()},
        "per_run": per_run,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _echo_config(cfg, out_dir)
    for name, stats in summary_metrics.items():
        print(f"{name}: {stats['mean']:.4f} +- {stats['std']:.4f}")
    print(f"wall clock (s): {summary['wall_clock_seconds']}")
    print(f"summary written to {out_dir / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelbandit",
        description="Weakly supervised label inference via a combinatorial UCB bandit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset plus ground-truth sidecar")
    gen.add_argument("--config", default=None)
    gen.add_argument("--regime", choices=("binary-mil", "multiclass-mil", "llp"), default=None)
    gen.add_argument("--bags", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None)
    gen.add_argument("--name", default="dataset")
    gen.add_argument("--format", choices=data.FORMATS, default="json")
    gen.set_defaults(func=cmd_generate)

    inf = sub.add_parser("infer", help="run label inference over a dataset file")
    inf.add_argument("--config", default=None)
    inf.add_argument("--dataset", default=None)
    inf.add_argument("--out", default=None)
    inf.add_argument("--seed", type=int, default=None)
    inf.add_argument("--passes", type=int, default=None)
    inf.add_argument("--rounds", type=int, default=None)
    inf.add_argument("--folds", type=int, default=None)
    inf.set_defaults(func=cmd_infer)

    ev = sub.add_parser("evaluate", help="score inferred labels against ground truth")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--result", required=True)
    ev.add_argument("--ground-truth", required=True)
    ev.add_argument("--model", default=None)
    ev.add_argument("--out", default=None)
    ev.add_argument("--trace-csv", action="store_true", help="also export the reward trace as CSV")
    ev.set_defaults(func=cmd_evaluate)

    bench = sub.add_parser("bench", help="repeat generate/infer/evaluate with derived seeds")
    bench.add_argument("--config", default=None)
    bench.add_argument("--out", default=None)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--repetitions", type=int, default=None)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LabelBanditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
