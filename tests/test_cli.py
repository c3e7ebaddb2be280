"""Command-line interface: exit codes, file outputs, determinism, config handling."""

import argparse
import dataclasses
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from labelbandit import cli, errors, metrics, pipeline, rewards
from labelbandit.classifiers import ClassifierSpec
from labelbandit.cli import DEFAULT_CONFIG, build_inference_config, load_config, main
from labelbandit.data import extended_num_classes
from labelbandit.errors import ConfigError
from labelbandit.pipeline import ClassifierConfig, InferenceConfig
from labelbandit.rewards import RewardEnvironment, RewardParams


SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main([str(a) for a in argv])


# config values InferenceConfig refuses at construction, with the error main prints
bad_inference_configs = pytest.mark.parametrize(
    "config, message",
    [
        ({"rounds": 0}, "rounds must be >= 1, got 0"),
        (
            {"classifier": {"kind": "bogus"}},
            "unknown classifier kind 'bogus'; expected one of "
            "('linear-svm', 'softmax', 'cooperative-softmax')",
        ),
        (
            {"classifier": {"epochs": 0}},
            "classifier hyperparameters must be positive (l2 may be 0), got "
            "learning_rate=0.1, epochs=0, l2=0.001, batch_size=32",
        ),
        ({"rff_width": 0}, "feature-map width must be >= 1, got 0"),
    ],
    ids=["rounds", "classifier.kind", "classifier.epochs", "rff_width"],
)


def first_bench_seed(master_seed: int) -> int:
    """The derived seed of a bench run's repetition 0."""
    return int(np.random.SeedSequence(master_seed).generate_state(1)[0])


@pytest.fixture()
def binary_workspace(tmp_path, capsys):
    out = tmp_path / "gen"
    code = run(
        ["generate", "--regime", "binary-mil", "--bags", 12, "--seed", 7, "--out", out]
    )
    assert code == 0
    capsys.readouterr()
    return out


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"regime": "binary-mil", "mystery": 1}))
        with pytest.raises(ConfigError, match="mystery"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"reward": {"kappa": 3}}))
        with pytest.raises(ConfigError, match="reward.kappa"):
            load_config(path)

    def test_defaults_build_valid_inference_config(self):
        cfg = load_config(None)
        cfg["regime"] = "binary-mil"
        config = build_inference_config(cfg)
        assert config.rounds == 500 and config.folds == 5 and config.batch_size == 4
        assert config.reward.alpha == 1.0
        assert config.reward.gamma == pytest.approx(1.0 / 7.0)

    def test_negative_label_default_tracks_regime(self):
        """The CLI echoes null; it, InferenceConfig and a RewardEnvironment
        over a dataset of the regime resolve the same count."""
        cfg = load_config(None)
        assert cfg["reward"]["num_negative_labels"] is None
        for regime, expected in (("binary-mil", 1), ("multiclass-mil", 3), ("llp", 1)):
            cfg["regime"] = regime
            assert build_inference_config(cfg).reward.num_negative_labels == expected
            assert InferenceConfig(regime=regime).reward.num_negative_labels == expected
            gen = {**DEFAULT_CONFIG["generator"], "num_bags": 6}
            dataset = cli._generate_dataset(regime, gen, 0)
            width = extended_num_classes(dataset.num_classes, expected)
            env = RewardEnvironment(
                dataset, dataset.bags[:3], dataset.bags[3:],
                ClassifierSpec("linear-svm", width), RewardParams(),
            )
            assert env.params.num_negative_labels == expected

    def test_every_inference_key_reaches_the_inference_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "regime": "multiclass-mil", "rounds": 12, "batch_size": 3, "folds": 4,
            "bootstrap_passes": 2, "bootstrap_fraction": 0.3, "master_seed": 5,
            "final_weighting": "confidence", "rff_width": 16, "rff_bandwidth": 1.5,
            "classifier": {"kind": "softmax", "learning_rate": 0.05, "epochs": 7, "l2": 0.01,
                           "batch_size": 8},
            "reward": {"k": 4, "alpha": 0.5, "gamma": 0.25, "tau": 0.7, "distgap_enabled": True,
                       "num_negative_labels": 2, "distgap_space": "features"},
        }))
        expected = InferenceConfig(
            regime="multiclass-mil", rounds=12, batch_size=3, folds=4, bootstrap_passes=2,
            bootstrap_fraction=0.3, master_seed=5, final_weighting="confidence",
            rff_width=16, rff_bandwidth=1.5,
            classifier=ClassifierConfig(
                kind="softmax", learning_rate=0.05, epochs=7, l2=0.01, batch_size=8
            ),
            reward=RewardParams(
                k=4, alpha=0.5, gamma=0.25, tau=0.7, distgap_enabled=True,
                num_negative_labels=2, distgap_space="features",
            ),
        )
        assert build_inference_config(load_config(path)) == expected

    def test_readme_defaults_match_default_config(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"The defaults:\s*```json\n(.*?)```", readme, re.S)
        assert block is not None, "README lost its defaults block"
        assert json.loads(block.group(1)) == DEFAULT_CONFIG

    @pytest.mark.parametrize("threads", [1, 4])
    def test_legacy_threads_key_is_ignored(self, binary_workspace, tmp_path, caplog, threads):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"threads": threads, "rounds": 4, "folds": 2}))
        out = tmp_path / "run"
        with caplog.at_level(logging.WARNING, logger="labelbandit.cli"):
            code = run(
                ["infer", "--config", path, "--dataset", binary_workspace / "dataset.json",
                 "--out", out]
            )
        assert code == 0
        assert "threads" not in json.loads((out / "config.json").read_text())
        warned = [r for r in caplog.records if "threads" in r.getMessage()]
        assert len(warned) == (0 if threads == 1 else 1)

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"reward": 5}, "reward"),
            ({"reward": {"k": "5"}}, "reward.k"),
            ({"reward": {"tau": "x"}}, "reward.tau"),
            ({"rff_width": "3"}, "rff_width"),
            ({"rounds": "abc"}, "rounds"),
            ({"folds": 2.0}, "folds"),
            ({"reward": {"num_negative_labels": 1.0}}, "reward.num_negative_labels"),
            ({"classifier": {"epochs": 2.5}}, "classifier.epochs"),
            ({"rounds": True}, "rounds"),
            ({"reward": {"distgap_enabled": 1}}, "reward.distgap_enabled"),
        ],
    )
    def test_wrongly_typed_value_exits_two_before_fitting(
        self, binary_workspace, tmp_path, capsys, monkeypatch, config, key
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        fits = []
        monkeypatch.setattr(rewards, "fit", lambda *a, **kw: fits.append(a))
        code = run(
            ["infer", "--config", path, "--dataset", binary_workspace / "dataset.json",
             "--out", tmp_path / "run"]
        )
        assert code == 2
        assert f"error: config key {key!r} must be " in capsys.readouterr().err
        assert fits == []

    def test_every_null_default_declares_its_type(self):
        def null_keys(section, path=""):
            for key, value in section.items():
                if isinstance(value, dict):
                    yield from null_keys(value, path + key + ".")
                elif value is None:
                    yield path + key

        assert sorted(null_keys(DEFAULT_CONFIG)) == sorted(cli._NULL_DEFAULT_TYPES)

    def test_cli_exit_code_on_bad_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rounds": -3}))
        assert run(["infer", "--config", path, "--dataset", "x.json", "--out", tmp_path]) == 2


def config_flags():
    """(command, flag, dest) for every flag of generate, infer and bench but
    --help, --config, --name and --format: each sets the config key its dest
    names."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("generate", "infer", "bench"):
        for action in commands.choices[command]._actions:
            if action.dest not in ("help", "config", "name", "format"):
                yield command, action.option_strings[0], action.dest


# a value per config key that differs from the tiny base config and the defaults
FLAG_VALUES = {
    "regime": "llp",
    "generator.num_bags": 9,
    "master_seed": 5,
    "bootstrap_passes": 2,
    "rounds": 3,
    "folds": 3,
    "bench.repetitions": 2,
}


@pytest.mark.parametrize(
    "command, flag, key", list(config_flags()), ids=lambda v: str(v).lstrip("-")
)
def test_every_flag_sets_the_config_key_its_dest_names(tmp_path, capsys, command, flag, key):
    config = {
        "rounds": 2, "folds": 2, "batch_size": 2, "classifier": {"epochs": 2},
        "generator": {"num_bags": 6, "bag_size": [2, 3], "feature_dim": 2},
        "bench": {"repetitions": 1}, "out": str(tmp_path / "base"),
    }
    if command == "infer":
        assert run(["generate", "--bags", 6, "--seed", 1, "--out", tmp_path / "gen"]) == 0
        config["dataset"] = str(tmp_path / "gen" / "dataset.json")
        shutil.copy(config["dataset"], tmp_path / "copy.json")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    value = {
        "out": str(tmp_path / "flagged"), "dataset": str(tmp_path / "copy.json"), **FLAG_VALUES
    }[key]
    assert run([command, "--config", path, flag, value]) == 0
    out = tmp_path / ("flagged" if key == "out" else "base")
    echoed = json.loads((out / "config.json").read_text())
    for section in key.split("."):
        echoed = echoed[section]
    assert echoed == value


class TestGenerate:
    def test_writes_dataset_and_sidecar(self, binary_workspace):
        assert (binary_workspace / "dataset.json").exists()
        assert (binary_workspace / "dataset.groundtruth.json").exists()
        truth = json.loads((binary_workspace / "dataset.groundtruth.json").read_text())
        assert truth and all(v in (0, 1) for v in truth.values())
        # the dataset file itself must not leak ground truth
        doc = json.loads((binary_workspace / "dataset.json").read_text())
        assert all(
            inst["ground_truth"] is None for bag in doc["bags"] for inst in bag["instances"]
        )

    def test_regeneration_is_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert run(
                ["generate", "--regime", "binary-mil", "--bags", 9, "--seed", 3,
                 "--out", tmp_path / sub]
            ) == 0
        capsys.readouterr()
        assert (tmp_path / "a" / "dataset.json").read_bytes() == (
            tmp_path / "b" / "dataset.json"
        ).read_bytes()

    def test_statistics_rows_sum_to_total(self, tmp_path, capsys):
        assert run(
            ["generate", "--regime", "multiclass-mil", "--bags", 30, "--seed", 1,
             "--out", tmp_path]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        sizes = [int(l.split(":")[1]) for l in lines if l.strip().startswith("size")]
        total = next(int(l.split(":")[1]) for l in lines if l.strip().startswith("total"))
        assert sum(sizes) == total == 30

    def test_bad_parameters_exit_two(self, tmp_path, capsys):
        assert run(["generate", "--bags", 1, "--out", tmp_path]) == 2
        assert "error" in capsys.readouterr().err

    def test_zero_bags_flag_is_applied_and_exits_two(self, tmp_path, capsys):
        assert run(["generate", "--bags", 0, "--out", tmp_path / "gen"]) == 2
        assert capsys.readouterr().err == "error: num_bags must be >= 2, got 0\n"
        assert not (tmp_path / "gen").exists()


@pytest.fixture()
def infer_config(tmp_path):
    path = tmp_path / "infer.json"
    path.write_text(
        json.dumps({"rounds": 25, "batch_size": 2, "folds": 3, "reward": {"k": 3}})
    )
    return path


class TestInfer:
    def test_end_to_end_outputs(self, binary_workspace, infer_config, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(
            ["infer", "--config", infer_config, "--dataset", binary_workspace / "dataset.json",
             "--out", out, "--seed", 11]
        )
        assert code == 0
        for name in ("result.json", "model.json", "pull_log.ndjson", "config.json"):
            assert (out / name).exists(), name
        result = json.loads((out / "result.json").read_text())
        assert set(result) == {"labels", "confidence", "diagnostics"}
        first_log_line = (out / "pull_log.ndjson").read_text().splitlines()[0]
        record = json.loads(first_log_line)
        assert {"pass", "fold", "round", "assignment_hash", "instance_id", "label", "reward"} <= set(record)

    def test_rerun_from_echoed_config_is_identical(self, binary_workspace, infer_config, tmp_path, capsys):
        first = tmp_path / "first"
        run(["infer", "--config", infer_config, "--dataset", binary_workspace / "dataset.json",
             "--out", first, "--seed", 4])
        second = tmp_path / "second"
        code = run(["infer", "--config", first / "config.json", "--out", second])
        assert code == 0
        assert (first / "result.json").read_bytes() == (second / "result.json").read_bytes()
        assert (first / "model.json").read_bytes() == (second / "model.json").read_bytes()

    @bad_inference_configs
    def test_bad_inference_config_exits_two_without_output_directory(
        self, binary_workspace, tmp_path, capsys, monkeypatch, config, message
    ):
        path = tmp_path / "infer.json"
        path.write_text(json.dumps(config))
        fits = []
        monkeypatch.setattr(rewards, "fit", lambda *a, **kw: fits.append(a))
        out = tmp_path / "run"
        code = run(
            ["infer", "--config", path, "--dataset", binary_workspace / "dataset.json",
             "--out", out]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert fits == []
        assert not out.exists()

    def test_missing_dataset_exits_two_without_outputs(self, tmp_path, capsys):
        out = tmp_path / "never"
        code = run(["infer", "--dataset", tmp_path / "ghost.json", "--out", out])
        assert code == 2
        assert not out.exists()

    def test_mixed_kind_csv_exits_two_without_result(self, tmp_path, capsys):
        # a CSV without a regime header whose bags mix kinds loads as custom,
        # which only run_inference can run
        dataset = tmp_path / "mixed.csv"
        rows = [f"{i},{i // 2},{'1' if i < 4 else '0.5'},,{float(i)}" for i in range(8)]
        dataset.write_text("instance_id,bag_id,weak_label,ground_truth,f0\n" + "\n".join(rows))
        out = tmp_path / "run"
        code = run(["infer", "--dataset", dataset, "--out", out, "--folds", 2])
        assert code == 2
        assert "no pipeline for regime 'custom'" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_bag_of_another_kind_exits_two(self, tmp_path, capsys):
        doc = {
            "num_classes": 2, "regime": "binary-mil",
            "bags": [
                {"id": 0, "weak_label": {"kind": "binary", "value": 1},
                 "instances": [{"id": 0, "features": [0.5]}]},
                {"id": 5, "weak_label": {"kind": "label_set", "value": [1]},
                 "instances": [{"id": 1, "features": [1.5]}]},
            ],
        }
        dataset = tmp_path / "mismatch.json"
        dataset.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = run(["infer", "--dataset", dataset, "--out", out])
        assert code == 2
        assert "error: bag 5: regime 'binary-mil' needs 'binary'" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("space", ["features", "output"])
    def test_distgap_label_set_without_held_out_match_exits_two_before_fitting(
        self, tmp_path, capsys, monkeypatch, space
    ):
        gen = tmp_path / "gen"
        assert run(
            ["generate", "--regime", "multiclass-mil", "--bags", 40, "--seed", 4, "--out", gen]
        ) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"folds": 3, "rounds": 5,
             "reward": {"distgap_enabled": True, "distgap_space": space}}
        ))
        fits = []
        fit = rewards.fit
        monkeypatch.setattr(rewards, "fit", lambda *a, **kw: fits.append(a) or fit(*a, **kw))
        capsys.readouterr()
        code = run(
            ["infer", "--config", config, "--dataset", gen / "dataset.json",
             "--out", tmp_path / "run"]
        )
        assert code == 2
        assert (
            "error: distance gap: no held-out bag carries the weak label {3, 4, 5} of training "
            "bag 1; bags are grouped by exact weak label"
        ) in capsys.readouterr().err
        assert fits == []
        assert not (tmp_path / "run").exists()

    def test_llp_with_distgap_exits_two_before_fitting(self, tmp_path, capsys, monkeypatch):
        gen = tmp_path / "gen"
        assert run(["generate", "--regime", "llp", "--bags", 16, "--seed", 2, "--out", gen]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"folds": 3, "rounds": 5,
             "reward": {"distgap_enabled": True, "distgap_space": "output"}}
        ))
        fits = []
        fit = rewards.fit
        monkeypatch.setattr(rewards, "fit", lambda *a, **kw: fits.append(a) or fit(*a, **kw))
        capsys.readouterr()
        code = run(
            ["infer", "--config", config, "--dataset", gen / "dataset.json",
             "--out", tmp_path / "run"]
        )
        assert code == 2
        assert "the distance-gap prior applies to the MIL regimes only" in capsys.readouterr().err
        assert fits == []

    @pytest.mark.parametrize(
        "regime, bags, reward",
        [("binary-mil", 12, {"k": 3}), ("multiclass-mil", 20, {"k": 3}), ("llp", 12, {"k": 3})],
    )
    def test_mean_reward_per_round_equals_replayed_pull_log(
        self, tmp_path, capsys, regime, bags, reward
    ):
        gen = tmp_path / "gen"
        assert run(
            ["generate", "--regime", regime, "--bags", bags, "--seed", 3, "--out", gen]
        ) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"folds": 3, "rounds": 9, "batch_size": 2, "bootstrap_passes": 2,
             "classifier": {"epochs": 5}, "reward": reward}
        ))
        out = tmp_path / "run"
        assert run(
            ["infer", "--config", config, "--dataset", gen / "dataset.json", "--out", out]
        ) == 0
        logs = {}
        for line in (out / "pull_log.ndjson").read_text().splitlines():
            record = json.loads(line)
            logs.setdefault((record["pass"], record["fold"]), []).append(record)
        result = json.loads((out / "result.json").read_text())
        folds = {
            (report["pass"], fold["fold"]): fold["mean_reward_per_round"]
            for report in result["diagnostics"]["passes"]
            for fold in report["folds"]
        }
        assert sorted(folds) == sorted(logs) and len(folds) == 6
        for key, records in logs.items():
            assert folds[key] == metrics.reward_trace_summary(records)["round_mean"]

    def test_bootstrap_passes_preserve_fixed_instances(self, binary_workspace, infer_config, tmp_path, capsys):
        out = tmp_path / "boot"
        code = run(
            ["infer", "--config", infer_config, "--dataset", binary_workspace / "dataset.json",
             "--out", out, "--seed", 2, "--passes", 2]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        passes = result["diagnostics"]["passes"]
        assert len(passes) == 2
        fixed = passes[1]["fixed_instances"]
        assert fixed  # pass 2 starts from pass 1's most confident labels
        for iid, label in fixed.items():
            assert result["labels"][iid] == label

    def test_diverging_cooperative_fit_exits_three_with_round_and_assignment(
        self, tmp_path, capsys
    ):
        """Features are checked finite, so a non-finite score can only come
        from weights a diverging fit drove past the float range. That step
        overflows before any NaN score exists, and pytest turns the overflow's
        RuntimeWarning into an error: the first pull fails with its context."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "regime": "multiclass-mil", "rounds": 5, "folds": 3, "master_seed": 11,
            "generator": {"num_bags": 16, "bag_size": [3, 6], "feature_dim": 2,
                          "positive_classes": 3, "per_class": 12},
            "classifier": {"epochs": 5, "learning_rate": 1e300},
        }))
        gen, out = tmp_path / "gen", tmp_path / "run"
        assert run(["generate", "--config", config, "--out", gen]) == 0
        capsys.readouterr()
        code = run(["infer", "--config", config, "--dataset", gen / "dataset.json", "--out", out])
        assert code == 3
        assert re.fullmatch(
            r"error: reward environment failed at round 0, assignment [0-9a-f]{12}: "
            r"overflow encountered in multiply\n",
            capsys.readouterr().err,
        )
        assert not out.exists()


    def test_diverging_fit_exits_three_whatever_the_warnings_filter(self, tmp_path):
        """Outside pytest numpy's overflow is only a warning, and ``-W ignore``
        hides even that: the fit's own check of its weights fails the pull."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "regime": "multiclass-mil", "rounds": 5, "folds": 3, "master_seed": 11,
            "generator": {"num_bags": 16, "bag_size": [3, 6], "feature_dim": 2,
                          "positive_classes": 3, "per_class": 12},
            "classifier": {"epochs": 5, "learning_rate": 1e300},
        }))
        gen, out = tmp_path / "gen", tmp_path / "run"
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

        def cli_process(*argv):
            return subprocess.run(
                [sys.executable, "-W", "ignore", "-m", "labelbandit.cli", *map(str, argv)],
                capture_output=True, text=True, env=env, timeout=120,
            )

        assert cli_process("generate", "--config", config, "--out", gen).returncode == 0
        proc = cli_process("infer", "--config", config, "--dataset", gen / "dataset.json",
                           "--out", out)
        assert proc.returncode == 3
        assert re.fullmatch(
            r"error: reward environment failed at round 0, assignment [0-9a-f]{12}: "
            r"classifier fit diverged: its weights are not finite after 5 epochs "
            r"at learning_rate=1e\+300\n",
            proc.stderr,
        )
        assert not out.exists()

    def test_diverging_final_fit_exits_three_without_output_directory(
        self, binary_workspace, infer_config, tmp_path, capsys, monkeypatch
    ):
        def diverging_fit(spec, *args, **kwargs):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return fit(dataclasses.replace(spec, learning_rate=1e300), *args, **kwargs)

        fit = pipeline.fit
        monkeypatch.setattr(pipeline, "fit", diverging_fit)
        out = tmp_path / "run"
        code = run(["infer", "--config", infer_config, "--dataset",
                    binary_workspace / "dataset.json", "--out", out])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: classifier fit diverged: ")
        assert not out.exists()

    def test_success_writes_four_files_and_nothing_under_tmpdir(
        self, binary_workspace, infer_config, tmp_path, capsys, monkeypatch
    ):
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmpdir))
        monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
        out = tmp_path / "run"
        code = run(["infer", "--config", infer_config, "--dataset",
                    binary_workspace / "dataset.json", "--out", out])
        assert code == 0
        assert tempfile.gettempdir() == str(tmpdir)
        assert list(tmpdir.iterdir()) == []
        assert sorted(path.name for path in out.iterdir()) == [
            "config.json", "model.json", "pull_log.ndjson", "result.json"
        ]

    @pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt, errors.InferenceError])
    def test_failure_removes_the_directories_it_created_and_keeps_earlier_files(
        self, binary_workspace, infer_config, tmp_path, capsys, monkeypatch, failure
    ):
        """--out is created before the work; a failure of any kind, an
        interrupt included, removes what was created and nothing else."""
        def fail(dataset, config, spill):
            spill.write(b"pulls")
            raise failure("boom")

        monkeypatch.setattr(cli.pipeline, "bootstrap_infer", fail)
        earlier = tmp_path / "earlier"
        earlier.mkdir()
        (earlier / "result.json").write_text("{}\n")
        (earlier / "notes.txt").write_bytes(b"kept\x00bytes")
        before = {path.name: path.read_bytes() for path in earlier.iterdir()}
        for out in (tmp_path / "fresh" / "nested" / "run", earlier):
            argv = ["infer", "--config", infer_config, "--dataset",
                    binary_workspace / "dataset.json", "--out", out]
            if issubclass(failure, errors.LabelBanditError):
                assert run(argv) == 3
            else:
                with pytest.raises(failure):
                    run(argv)
        assert not (tmp_path / "fresh").exists()
        assert {path.name: path.read_bytes() for path in earlier.iterdir()} == before


class TestEvaluate:
    def test_ground_truth_against_itself_is_perfect(self, binary_workspace, tmp_path, capsys):
        truth = json.loads((binary_workspace / "dataset.groundtruth.json").read_text())
        result = {"labels": truth, "confidence": {k: 1.0 for k in truth}, "diagnostics": {}}
        result_path = tmp_path / "result.json"
        result_path.write_text(json.dumps(result))
        out = tmp_path / "eval"
        code = run(
            ["evaluate", "--dataset", binary_workspace / "dataset.json",
             "--result", result_path, "--ground-truth",
             binary_workspace / "dataset.groundtruth.json", "--out", out]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["inference_accuracy"] == 1.0
        assert all(v == 1.0 for v in report["per_class_accuracy"].values())

    def test_report_accuracy_equals_confusion_trace(self, binary_workspace, infer_config, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run(["infer", "--config", infer_config, "--dataset", binary_workspace / "dataset.json",
             "--out", run_dir, "--seed", 9])
        out = tmp_path / "eval"
        code = run(
            ["evaluate", "--dataset", binary_workspace / "dataset.json",
             "--result", run_dir / "result.json", "--ground-truth",
             binary_workspace / "dataset.groundtruth.json",
             "--model", run_dir / "model.json", "--out", out]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        confusion = np.array(report["confusion"])
        assert report["inference_accuracy"] == pytest.approx(
            np.trace(confusion) / confusion.sum()
        )
        assert report["bag_accuracy"] is not None
        assert report["instance_accuracy"] is not None
        assert isinstance(report["reward_trace"], list) and report["reward_trace"]

    def test_trace_csv_lists_the_reports_reward_trace(
        self, binary_workspace, infer_config, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        assert run(["infer", "--config", infer_config, "--dataset",
                    binary_workspace / "dataset.json", "--out", run_dir, "--seed", 3]) == 0
        out = tmp_path / "eval"
        assert run(
            ["evaluate", "--dataset", binary_workspace / "dataset.json",
             "--result", run_dir / "result.json", "--ground-truth",
             binary_workspace / "dataset.groundtruth.json", "--out", out, "--trace-csv"]
        ) == 0
        trace = json.loads((out / "report.json").read_text())["reward_trace"]
        header, *rows = (out / "trace.csv").read_text().splitlines()
        assert header == "round,mean_reward"
        assert len(rows) == len(trace) == 26  # the sweep, then 25 rounds
        for i, row in enumerate(rows):
            index, value = row.split(",")
            assert int(index) == i and float(value) == trace[i]

    def test_trace_csv_is_written_for_an_empty_reward_trace(
        self, binary_workspace, tmp_path, capsys
    ):
        truth = json.loads((binary_workspace / "dataset.groundtruth.json").read_text())
        result_path = write(tmp_path / "result.json",
                            json.dumps({"labels": truth, "diagnostics": {}}))
        out = tmp_path / "eval"
        assert run(
            ["evaluate", "--dataset", binary_workspace / "dataset.json",
             "--result", result_path, "--ground-truth",
             binary_workspace / "dataset.groundtruth.json", "--out", out, "--trace-csv"]
        ) == 0
        assert json.loads((out / "report.json").read_text())["reward_trace"] == []
        assert (out / "trace.csv").read_text() == "round,mean_reward\n"

    @pytest.mark.parametrize(
        "flag, text, problem",
        [
            ("--result", '{"labels": ', "JSONDecodeError"),
            ("--result", "{}", "KeyError('labels')"),
            ("--ground-truth", "[1, 2]", "AttributeError"),
            ("--model", '{"kind": "linear-svm"}', "KeyError('num_classes')"),
            ("--model", '{"kind": "linear-svm", "num_classes": 2, "weights": [1.0]}',
             "finite 2-d matrix"),
        ],
        ids=["result-truncated", "result-without-labels", "truth-a-list", "model-without-classes",
             "model-weights-1d"],
    )
    def test_malformed_input_file_exits_two_naming_it(self, tmp_path, capsys, flag, text, problem):
        argv = evaluate_inputs(tmp_path, {"0": 1, "1": 0, "2": 0})
        bad = write(tmp_path / "bad.json", text)
        if flag == "--model":
            argv += ["--model", bad]
        else:
            argv[argv.index(flag) + 1] = bad
        assert run(argv + ["--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed ") and err.count("\n") == 1
        assert problem in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_inputs_exit_two(self, tmp_path, capsys):
        code = run(
            ["evaluate", "--dataset", tmp_path / "none.json", "--result", tmp_path / "r.json",
             "--ground-truth", tmp_path / "g.json"]
        )
        assert code == 2


class TestBench:
    def bench_config(self, tmp_path, repetitions):
        path = tmp_path / "bench.json"
        path.write_text(
            json.dumps(
                {
                    "rounds": 15,
                    "batch_size": 2,
                    "folds": 2,
                    "reward": {"k": 3},
                    "generator": {"num_bags": 8, "bag_size": [2, 4], "feature_dim": 3},
                    "bench": {"repetitions": repetitions},
                }
            )
        )
        return path

    def test_each_repetition_spills_to_its_own_unnamed_file_in_out(
        self, tmp_path, capsys, monkeypatch
    ):
        original, spills = pipeline.bootstrap_infer, []

        def spying(dataset, config, spill):
            result = original(dataset, config, spill)
            stat = os.fstat(spill.fileno())
            spills.append((spill, stat.st_nlink, stat.st_dev, stat.st_size))
            return result

        monkeypatch.setattr(cli.pipeline, "bootstrap_infer", spying)
        out = tmp_path / "bench"
        code = run(["bench", "--config", self.bench_config(tmp_path, 3), "--out", out])
        assert code == 0
        assert len({id(spill) for spill, *_ in spills}) == 3
        for spill, links, device, size in spills:
            assert spill.closed and links == 0 and size > 0
            assert device == out.stat().st_dev
        assert sorted(path.name for path in out.iterdir()) == ["config.json", "summary.json"]

    def test_single_repetition_reports_zero_std(self, tmp_path, capsys):
        out = tmp_path / "bench1"
        code = run(["bench", "--config", self.bench_config(tmp_path, 1), "--out", out, "--seed", 5])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["repetitions"] == 1
        for stats in summary["metrics"].values():
            assert stats["std"] == 0.0

    def test_summary_mean_matches_per_run_reports(self, tmp_path, capsys):
        out = tmp_path / "bench3"
        code = run(["bench", "--config", self.bench_config(tmp_path, 3), "--out", out, "--seed", 6])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        for name, stats in summary["metrics"].items():
            values = [r["metrics"][name] for r in summary["per_run"]]
            assert stats["mean"] == pytest.approx(float(np.mean(values)))
        assert set(summary["wall_clock_seconds"]) == {"generate", "infer", "evaluate"}

    @bad_inference_configs
    def test_bad_inference_config_exits_two_before_any_work(
        self, tmp_path, capsys, monkeypatch, config, message
    ):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(config))
        generated = []
        monkeypatch.setattr(cli, "_generate_dataset", lambda *a: generated.append(a))
        out = tmp_path / "bench"
        assert run(["bench", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert generated == []
        assert not out.exists()

    def test_bad_generator_config_exits_two_without_summary(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"generator": {"num_bags": 1}}))
        out = tmp_path / "bench"
        assert run(["bench", "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: repetition 0 (seed {first_bench_seed(0)}) failed: "
            "num_bags must be >= 2, got 1\n"
        )
        assert not out.exists()

    def test_usage_error_in_a_repetition_names_it_and_its_seed(self, tmp_path, capsys):
        """A dataset-dependent usage error still exits 2, and its message
        carries the repetition and the derived seed that reproduce it."""
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "regime": "multiclass-mil", "folds": 3, "rounds": 2,
            "reward": {"distgap_enabled": True, "distgap_space": "features"},
            "generator": {"num_bags": 40}, "bench": {"repetitions": 1},
        }))
        assert run(["bench", "--config", path, "--out", tmp_path / "bench"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: repetition 0 (seed {first_bench_seed(0)}) failed: distance gap: "
            "no held-out bag carries the weak label"
        )
        assert not (tmp_path / "bench").exists()

    def test_runtime_failure_in_a_repetition_exits_three_with_its_seed(
        self, tmp_path, capsys, monkeypatch
    ):
        def crash(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli.pipeline, "bootstrap_infer", crash)
        code = run(["bench", "--config", self.bench_config(tmp_path, 2), "--out", tmp_path / "b"])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: repetition 0 (seed {first_bench_seed(0)}) failed: boom\n"
        )


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

# the exit code main documents for every class in errors.py: 2 for a UsageError,
# 3 for any other package error
ERROR_EXIT_CODES = {
    "LabelBanditError": 3,
    "UsageError": 2,
    "ValidationError": 2,
    "ParseError": 2,
    "ParameterError": 2,
    "ConfigError": 2,
    "RegimeError": 2,
    "EvaluationError": 2,
    "RewardRangeError": 3,
    "InferenceError": 3,
}


def test_every_error_class_has_a_documented_exit_code():
    classes = {name for name, obj in vars(errors).items() if isinstance(obj, type)}
    assert classes == set(ERROR_EXIT_CODES)


@pytest.mark.parametrize("name, code", sorted(ERROR_EXIT_CODES.items()))
def test_error_class_exits_with_its_code(monkeypatch, capsys, name, code):
    def fail(args):
        raise getattr(errors, name)("boom")

    monkeypatch.setattr(cli, "cmd_generate", fail)
    assert run(["generate"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def tiny_dataset_doc():
    return {
        "num_classes": 2, "regime": "binary-mil",
        "bags": [
            {"id": 0, "weak_label": {"kind": "binary", "value": 1},
             "instances": [{"id": 0, "features": [0.5]}, {"id": 1, "features": [1.5]}]},
            {"id": 1, "weak_label": {"kind": "binary", "value": 0},
             "instances": [{"id": 2, "features": [-0.5]}]},
        ],
    }


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def tiny_dataset(tmp: Path, edit=lambda doc: None) -> Path:
    doc = tiny_dataset_doc()
    edit(doc)
    return write(tmp / "dataset.json", json.dumps(doc))


def infer_on_json(edit):
    """argv of infer on the tiny dataset after ``edit`` changed its document."""
    return lambda tmp: ["infer", "--dataset", tiny_dataset(tmp, edit), "--out", tmp / "out"]


def infer_on_csv(rows: str, header: str = "instance_id,bag_id,weak_label,ground_truth,f0"):
    def argv(tmp: Path) -> list:
        dataset = write(tmp / "dataset.csv", f"{header}\n{rows}")
        return ["infer", "--dataset", dataset, "--out", tmp / "out"]

    return argv


def infer_with_config(tmp: Path, config) -> list:
    config_path = write(tmp / "config.json", json.dumps(config))
    return ["infer", "--config", config_path, "--dataset", tiny_dataset(tmp), "--out", tmp / "out"]


def generate_with(generator: dict, regime: str = "binary-mil"):
    def argv(tmp: Path) -> list:
        config = {"regime": regime, "generator": generator}
        return ["generate", "--config", write(tmp / "gen.json", json.dumps(config)),
                "--out", tmp / "out"]

    return argv


def evaluate_inputs(tmp: Path, truth: dict) -> list:
    result = write(tmp / "result.json", json.dumps({"labels": {"0": 1, "1": 0, "2": 0}}))
    truth_path = write(tmp / "truth.json", json.dumps(truth))
    return ["evaluate", "--dataset", tiny_dataset(tmp), "--result", result,
            "--ground-truth", truth_path]


# (argv built in a fresh directory, a piece of the message main prints)
USAGE_FAILURES = {
    "config-missing": (
        lambda tmp: ["infer", "--config", tmp / "none.json"], "config file not found: "
    ),
    "config-invalid-json": (
        lambda tmp: ["infer", "--config", write(tmp / "c.json", "{\"rounds\": ")],
        "c.json: invalid JSON at line 1",
    ),
    "config-root-not-object": (
        lambda tmp: ["bench", "--config", write(tmp / "c.json", "[1]")],
        "c.json: config root must be a JSON object",
    ),
    "infer-no-dataset": (
        lambda tmp: ["infer", "--out", tmp / "out"],
        "no dataset given; pass --dataset or set it in the config",
    ),
    "infer-no-out": (
        lambda tmp: ["infer", "--dataset", tiny_dataset(tmp)],
        "no output directory given; pass --out or set it in the config",
    ),
    "infer-regime-mismatch": (
        lambda tmp: infer_with_config(tmp, {"regime": "llp"}),
        "config regime 'llp' does not match dataset regime 'binary-mil'",
    ),
    "bench-no-out": (
        lambda tmp: ["bench"], "no output directory given; pass --out or set it in the config"
    ),
    "bench-zero-repetitions": (
        lambda tmp: ["bench", "--repetitions", 0, "--out", tmp / "out"],
        "repetitions must be >= 1, got 0",
    ),
    "evaluate-truth-missing-instance": (
        lambda tmp: evaluate_inputs(tmp, {"0": 1, "1": 0}) + ["--out", tmp / "out"],
        "ground truth missing for instances [2]",
    ),
    "csv-wrong-header": (
        infer_on_csv("0,0,1,,0.5\n", header="id,bag,weak,truth,f0"),
        "unexpected CSV header ['id', 'bag', 'weak', 'truth']",
    ),
    "csv-unparsable-line": (
        infer_on_csv("0,0,1,,0.5\n1,0,1,,x\n"),
        "dataset.csv: line 3: could not convert string to float: 'x'",
    ),
    "csv-header-only": (infer_on_csv(""), "dataset has no instances"),
    "csv-bag-with-two-weak-labels": (
        infer_on_csv("0,0,1,,0.5\n1,0,0,,1.5\n"),
        "line 3: bag 0 carries conflicting weak labels '1' and '0'",
    ),
    "json-missing-field": (
        infer_on_json(lambda d: d.pop("num_classes")),
        "dataset.json: missing or malformed field: 'num_classes'",
    ),
    "json-num-classes-a-word": (
        infer_on_json(lambda d: d.update(num_classes="two")),
        "dataset.json: missing or malformed field: invalid literal for int() with base 10: 'two'",
    ),
    "csv-header-num-classes-a-word": (
        lambda tmp: ["infer", "--out", tmp / "out", "--dataset", write(
            tmp / "dataset.csv",
            "# num_classes=two\ninstance_id,bag_id,weak_label,ground_truth,f0\n0,0,1,,0.5\n",
        )],
        "dataset.csv: line 1: invalid literal for int() with base 10: 'two'",
    ),
    "json-malformed-weak-label": (
        infer_on_json(lambda d: d["bags"][0].update(weak_label=[1])),
        "malformed weak label object [1]",
    ),
    "json-unknown-weak-label-kind": (
        infer_on_json(lambda d: d["bags"][0]["weak_label"].update(kind="ternary")),
        "unknown weak label kind 'ternary'",
    ),
    "json-duplicate-bag-id": (
        infer_on_json(lambda d: d["bags"][1].update(id=0)), "duplicate bag id 0"
    ),
    "json-empty-bag": (
        infer_on_json(lambda d: d["bags"][1].update(instances=[])), "bag 1 has no instances"
    ),
    "binary-bag-size-reversed": (generate_with({"bag_size": [5, 3]}), "bad bag size range [5, 3]"),
    "binary-positive-fraction-one": (
        generate_with({"positive_fraction": 1.0}), "positive_fraction must lie in (0, 1), got 1.0"
    ),
    "binary-feature-dim-zero": (
        generate_with({"feature_dim": 0}), "feature_dim must be >= 1, got 0"
    ),
    "binary-negative-separation": (
        generate_with({"separation": -1}), "class_separation must be >= 0, got -1"
    ),
    "multiclass-per-class-zero": (
        generate_with({"per_class": 0}, "multiclass-mil"), "per_class must be >= 1, got 0"
    ),
    "multiclass-no-positive-classes": (
        generate_with({"positive_classes": 0}, "multiclass-mil"),
        "positive_classes must be nonempty",
    ),
    "multiclass-bag-above-pool": (
        generate_with({"bag_size": [5, 2000]}, "multiclass-mil"),
        "bag size 2000 exceeds pool size 1000",
    ),
}


@pytest.mark.parametrize("case", list(USAGE_FAILURES))
def test_usage_failure_exits_two_naming_the_problem(tmp_path, capsys, case):
    argv, message = USAGE_FAILURES[case]
    assert run(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["generate", "infer", "evaluate", "bench"])
def test_output_path_through_a_file_exits_two_before_any_work(
    tmp_path, capsys, monkeypatch, command, nested
):
    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "_generate_dataset", no_work)
    monkeypatch.setattr(cli.pipeline, "bootstrap_infer", no_work)
    monkeypatch.setattr(cli.metrics, "score_run", no_work)
    blocker = write(tmp_path / "blocker", "")
    out = blocker / "out" if nested else blocker
    argv = {
        "generate": lambda: ["generate"],
        "infer": lambda: ["infer", "--dataset", tiny_dataset(tmp_path)],
        "evaluate": lambda: evaluate_inputs(tmp_path, {"0": 1, "1": 0, "2": 0}),
        "bench": lambda: ["bench"],
    }[command]()
    assert run(argv + ["--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: output directory {out}: {blocker} is not a directory\n"
    )
