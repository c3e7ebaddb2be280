"""Command-line front end: generate, infer, evaluate, bench.

One JSON config file drives everything; a flag of generate, infer or bench
sets the config key its argparse dest names ("generator.num_bags" for
--bags). The effective config is echoed into the output directory so any
run can be reproduced from its own artifacts. Exit codes, set in ``main``
alone: 0 success, 2 a ``UsageError`` or a missing file, 3 any other package error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import logging
import shutil
import sys
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import data, metrics, pipeline
from .classifiers import model_from_json, save_model
from .errors import (
    ConfigError, EvaluationError, InferenceError, LabelBanditError, ParseError, UsageError,
    check_count,
)
from .rewards import RewardParams

logger = logging.getLogger(__name__)

USAGE_ERRORS = (UsageError, FileNotFoundError)


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

# The type of each key whose default is null; every other key takes its default's.
_NULL_DEFAULT_TYPES = {
    "regime": str, "dataset": str, "out": str, "rff_width": int, "classifier.kind": str,
    "reward.tau": float, "reward.num_negative_labels": int,
}
_JSON_TYPE_NAMES = {
    dict: "an object", list: "an array", str: "a string", bool: "true or false",
    int: "an integer", float: "a number",
}


def _has_type(expected: type, default, value) -> bool:
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        return False
    return expected is not list or len(value) == len(default) and all(
        _has_type(type(d), d, v) for d, v in zip(default, value)
    )


def _check_type(key: str, default, value) -> None:
    """A config value must have its default's type: an int passes for a float,
    a bool never for a number, and null only where the default is null. An
    array must have its default's length and each element its element's type."""
    if default is None and value is None:
        return
    expected = _NULL_DEFAULT_TYPES[key] if default is None else type(default)
    if not _has_type(expected, default, value):
        name = _JSON_TYPE_NAMES[expected] + (" or null" if default is None else "")
        name += f" like {json.dumps(default)}" if expected is list else ""
        raise ConfigError(f"config key {key!r} must be {name}, got {json.dumps(value)}")


def _merge_config(base: dict, override: dict, path: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key {path + key!r}")
        _check_type(path + key, base[key], value)
        if isinstance(base[key], dict):
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


def _config_with_flags(args) -> dict:
    """The config file (or the defaults) with every given flag applied at the
    config key its dest names; a dotted dest names a key of a section. The
    subcommand and --config, --name and --format are not config keys."""
    cfg = load_config(args.config)
    for key, value in vars(args).items():
        if key in ("command", "func", "config", "name", "format") or value is None:
            continue
        *sections, leaf = key.split(".")
        node = cfg
        for section in sections:
            node = node[section]
        node[leaf] = value
    return cfg


def build_inference_config(cfg: dict) -> pipeline.InferenceConfig:
    top = {f.name: cfg[f.name] for f in dataclasses.fields(pipeline.InferenceConfig)}
    top["classifier"] = pipeline.ClassifierConfig(**cfg["classifier"])
    top["reward"] = RewardParams(**cfg["reward"])
    return pipeline.InferenceConfig(**top)


def _echo_config(cfg: dict, out_dir: Path) -> None:
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


@contextlib.contextmanager
def _output_dir(out: str | None) -> Iterator[Path]:
    """The output directory, checked and created before a command's work. If
    the command fails, ``BaseException`` included, the directories created
    here are removed; a directory that existed before keeps its files. A path
    through an existing file is a ConfigError."""
    if not out:
        raise ConfigError("no output directory given; pass --out or set it in the config")
    out_dir = Path(out)
    chain = (out_dir, *out_dir.parents)
    depth = next(index for index, path in enumerate(chain) if path.exists())
    if not chain[depth].is_dir():
        raise ConfigError(f"output directory {out_dir}: {chain[depth]} is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield out_dir
    except BaseException:
        if depth:
            shutil.rmtree(chain[depth - 1], ignore_errors=True)
        raise


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
        negative_modes = check_count(gen["negative_modes"], "negative_modes", 1, ConfigError)
        num_positive = gen["positive_classes"]
        pool_seed, bag_seed = np.random.SeedSequence(seed).generate_state(2)
        pool = data.generate_gaussian_blobs(
            num_classes=num_positive + negative_modes,
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
    cfg = _config_with_flags(args)
    cfg["regime"] = cfg["regime"] or "binary-mil"
    with _output_dir(cfg["out"] or ".") as out_dir:
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


def cmd_infer(args) -> int:
    cfg = _config_with_flags(args)
    if not cfg["dataset"]:
        raise ConfigError("no dataset given; pass --dataset or set it in the config")
    dataset_path = Path(cfg["dataset"])
    if not dataset_path.exists():
        raise FileNotFoundError(f"dataset file not found: {dataset_path}")
    # the pull logs spill to a file without a name, gone once closed
    with _output_dir(cfg["out"]) as out_dir, tempfile.TemporaryFile(dir=out_dir) as spill:
        dataset = data.load_dataset(dataset_path, format=_dataset_format(dataset_path))
        if cfg["regime"] is not None and cfg["regime"] != dataset.regime:
            raise ConfigError(
                f"config regime {cfg['regime']!r} does not match dataset regime {dataset.regime!r}"
            )
        cfg["regime"] = dataset.regime
        config = build_inference_config(cfg)
        result = pipeline.bootstrap_infer(dataset, config, spill=spill)
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


def _read_json(path, what: str, parse):
    """``parse`` applied to a JSON file's document. A file that is not JSON,
    or a document ``parse`` cannot read, is a ParseError naming the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ParseError(f"{path}: malformed {what} file: {exc!r}") from exc


def _int_map(doc: dict) -> dict[int, int]:
    return {int(k): int(v) for k, v in doc.items()}


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
    with _output_dir(args.out or ".") as out_dir:
        dataset_path = Path(args.dataset)
        dataset = data.load_dataset(dataset_path, format=_dataset_format(dataset_path))
        truth = _read_json(args.ground_truth, "ground truth", _int_map)
        dataset = _attach_ground_truth(dataset, truth)
        labels, trace = _read_json(args.result, "result", lambda doc: (
            _int_map(doc["labels"]), _mean_reward_trace(doc.get("diagnostics", {}))
        ))
        model = _read_json(args.model, "model", model_from_json) if args.model else None
        report = metrics.score_run(dataset, labels, model)
        report["reward_trace"] = trace

        (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        if args.trace_csv:
            lines = ["round,mean_reward"] + [
                f"{i},{v}" for i, v in enumerate(report["reward_trace"])
            ]
            (out_dir / "trace.csv").write_text("\n".join(lines) + "\n")
    print(f"inference accuracy: {report['inference_accuracy']:.4f}")
    for cls, acc in report["per_class_accuracy"].items():
        print(f"  class {cls}: {acc:.4f}")
    if report["instance_accuracy"] is not None:
        print(f"model instance accuracy: {report['instance_accuracy']:.4f}")
    if report["bag_accuracy"] is not None:
        print(f"model bag accuracy: {report['bag_accuracy']:.4f}")
    print(f"report written to {out_dir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def cmd_bench(args) -> int:
    cfg = _config_with_flags(args)
    with _output_dir(cfg["out"]) as out_dir:
        cfg["regime"] = cfg["regime"] or "binary-mil"
        summary = _bench_summary(cfg, out_dir)
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        _echo_config(cfg, out_dir)
    for name, stats in summary["metrics"].items():
        print(f"{name}: {stats['mean']:.4f} +- {stats['std']:.4f}")
    print(f"wall clock (s): {summary['wall_clock_seconds']}")
    print(f"summary written to {out_dir / 'summary.json'}")
    return 0


def _bench_summary(cfg: dict, out_dir: Path) -> dict:
    """Generate, infer and score ``bench.repetitions`` times, one derived seed
    each; a repetition's pull logs spill to a file without a name in ``out_dir``."""
    repetitions = check_count(cfg["bench"]["repetitions"], "repetitions", 1, ConfigError)
    config = build_inference_config(cfg)
    seeds = [int(s) for s in np.random.SeedSequence(cfg["master_seed"]).generate_state(repetitions)]
    per_run = []
    wall = {"generate": 0.0, "infer": 0.0, "evaluate": 0.0}
    for rep, seed in enumerate(seeds):
        try:
            t0 = time.perf_counter()
            dataset = _generate_dataset(cfg["regime"], cfg["generator"], seed)
            wall["generate"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            with tempfile.TemporaryFile(dir=out_dir) as spill:
                result = pipeline.bootstrap_infer(
                    dataset, dataclasses.replace(config, master_seed=seed), spill
                )
            wall["infer"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            scores = metrics.score_run(dataset, result.labels, result.model)
            wall["evaluate"] += time.perf_counter() - t0
            run_metrics = {
                name: scores[name]
                for name in ("inference_accuracy", "instance_accuracy", "bag_accuracy")
                if scores[name] is not None  # bag_accuracy outside binary MIL
            }
            per_run.append({"repetition": rep, "seed": seed, "metrics": run_metrics})
        except Exception as exc:
            # a usage error keeps its type (exit 2), any other failure exits 3
            error = type(exc) if isinstance(exc, USAGE_ERRORS) else InferenceError
            raise error(f"repetition {rep} (seed {seed}) failed: {exc}") from exc
    names = sorted(per_run[0]["metrics"])
    summary_metrics = {}
    for name in names:
        values = np.array([run["metrics"][name] for run in per_run])
        summary_metrics[name] = {
            "mean": float(values.mean()),
            "std": float(values.std(ddof=0)),
        }
    return {
        "repetitions": repetitions,
        "metrics": summary_metrics,
        "wall_clock_seconds": {k: round(v, 3) for k, v in wall.items()},
        "per_run": per_run,
    }


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
    gen.add_argument("--config")
    gen.add_argument("--regime", choices=tuple(data.REGIME_LABEL_KIND))
    gen.add_argument("--bags", dest="generator.num_bags", type=int)
    gen.add_argument("--seed", dest="master_seed", type=int)
    gen.add_argument("--out")
    gen.add_argument("--name", default="dataset")
    gen.add_argument("--format", choices=data.FORMATS, default="json")
    gen.set_defaults(func=cmd_generate)

    inf = sub.add_parser("infer", help="run label inference over a dataset file")
    inf.add_argument("--config")
    inf.add_argument("--dataset")
    inf.add_argument("--out")
    inf.add_argument("--seed", dest="master_seed", type=int)
    inf.add_argument("--passes", dest="bootstrap_passes", type=int)
    inf.add_argument("--rounds", type=int)
    inf.add_argument("--folds", type=int)
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
    bench.add_argument("--config")
    bench.add_argument("--out")
    bench.add_argument("--seed", dest="master_seed", type=int)
    bench.add_argument("--repetitions", dest="bench.repetitions", type=int)
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
