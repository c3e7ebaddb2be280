"""Command-line interface: exit codes, file outputs, determinism, config handling."""

import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from labelbandit import cli, metrics, rewards
from labelbandit.classifiers import ClassifierSpec
from labelbandit.cli import DEFAULT_CONFIG, build_inference_config, load_config, main
from labelbandit.data import extended_num_classes
from labelbandit.errors import ConfigError
from labelbandit.pipeline import ClassifierConfig, InferenceConfig
from labelbandit.rewards import RewardEnvironment, RewardParams


def run(argv):
    return main([str(a) for a in argv])


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
