"""Golden outputs: ``generate`` + ``infer`` on nineteen tiny configs, pinned by hash.

A refactor or a speed-up must leave ``result.json`` and ``pull_log.ndjson``
byte-identical. This test makes that rule executable: it compares their
sha256 with the values recorded before the last such change (numpy 2.4.6,
CPython 3.11, x86-64). A change that moves results on purpose re-baselines
here, by updating the hashes in the same change and saying so in a
CHANGES.md line; any other mismatch is a regression.

``PYTHONPATH=src python tests/test_golden.py`` prints every case's current
hashes in the layout of ``GOLDEN``, ready to paste over a re-baselined entry.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from labelbandit.cli import main

GENERATOR = {"num_bags": 14, "bag_size": [3, 6], "feature_dim": 3, "separation": 6.0}
MULTICLASS_GENERATOR = {
    "num_bags": 16,
    "bag_size": [3, 6],
    "feature_dim": 2,
    "positive_classes": 3,
    "per_class": 12,
}

CASES = {
    "binary": {
        "regime": "binary-mil",
        "generator": GENERATOR,
        "reward": {"k": 3},
    },
    "binary-gap-features": {
        "regime": "binary-mil",
        "generator": GENERATOR,
        "reward": {"k": 3, "distgap_enabled": True, "distgap_space": "features"},
    },
    # a softmax embedding is not mirrored: binary MIL takes the full-space search
    "binary-softmax": {
        "regime": "binary-mil",
        "generator": GENERATOR,
        "classifier": {"kind": "softmax", "epochs": 5},
        "reward": {"k": 3},
    },
    # output space with tau unset: tau is calibrated on the first evaluation
    "binary-gap-output": {
        "regime": "binary-mil",
        "generator": GENERATOR,
        "reward": {"k": 3, "distgap_enabled": True, "distgap_space": "output"},
    },
    # the second pass appends the first pass's fixed instances to every fit
    "binary-bootstrap": {
        "regime": "binary-mil",
        "generator": GENERATOR,
        "bootstrap_passes": 2,
        "reward": {"k": 3},
    },
    "multiclass-2-negative-modes": {
        "regime": "multiclass-mil",
        "generator": {
            "num_bags": 16,
            "bag_size": [3, 6],
            "feature_dim": 2,
            "positive_classes": 3,
            "negative_modes": 2,
            "per_class": 12,
        },
        "classifier": {"epochs": 5},
        "reward": {"k": 4, "alpha": 0.5, "num_negative_labels": 2},
    },
    # the environment's plain-softmax branch
    "multiclass-softmax": {
        "regime": "multiclass-mil",
        "generator": MULTICLASS_GENERATOR,
        "classifier": {"kind": "softmax", "epochs": 5},
        "reward": {"k": 4, "alpha": 0.5},
    },
    # a linear SVM with one output per class
    "multiclass-svm": {
        "regime": "multiclass-mil",
        "generator": MULTICLASS_GENERATOR,
        "classifier": {"kind": "linear-svm", "epochs": 5},
        "reward": {"k": 4, "alpha": 0.5},
    },
    # three or more label sets: the gap's other-label bags span several groups
    "multiclass-gap-features": {
        "regime": "multiclass-mil",
        "generator": {**MULTICLASS_GENERATOR, "num_bags": 24},
        "classifier": {"epochs": 5},
        "reward": {"k": 4, "alpha": 0.5, "distgap_enabled": True, "distgap_space": "features"},
    },
    "multiclass-gap-output": {
        "regime": "multiclass-mil",
        "generator": {**MULTICLASS_GENERATOR, "num_bags": 24},
        "classifier": {"epochs": 5},
        "reward": {"k": 4, "alpha": 0.5, "distgap_enabled": True, "distgap_space": "output"},
    },
    "llp": {
        "regime": "llp",
        "generator": GENERATOR,
        "reward": {"k": 4},
    },
    # the llp reward averages fractions over each neighbour row, so its bits
    # follow the row's order: this case moves if llp takes the mirrored
    # binary-SVM neighbour search, whose order differs from the full-space one
    "llp-neighbour-order": {
        "regime": "llp",
        "generator": GENERATOR,
        "reward": {"k": 7},
    },
    # k above every fold's held-out pool (37, 43 and 46 rows): k is clamped
    "binary-k-above-pool": {
        "regime": "binary-mil",
        "generator": GENERATOR,
        "reward": {"k": 60},
    },
    # multi-class bootstrap: the second pass's fixed instances join every fit,
    # some labelled with the negative mode above the dataset's classes
    "multiclass-bootstrap": {
        "regime": "multiclass-mil",
        "generator": MULTICLASS_GENERATOR,
        "classifier": {"epochs": 5},
        "bootstrap_passes": 2,
        "reward": {"k": 4, "alpha": 0.5, "num_negative_labels": 2},
    },
    # a numeric tau in output space, with the second pass's extras in every fit
    "binary-gap-output-tau-bootstrap": {
        "regime": "binary-mil",
        "generator": GENERATOR,
        "bootstrap_passes": 2,
        "reward": {"k": 3, "distgap_enabled": True, "distgap_space": "output", "tau": 0.5},
    },
    # the feature-space gap reads the k clamped to each fold's held-out pool
    "binary-gap-features-k-above-pool": {
        "regime": "binary-mil",
        "generator": GENERATOR,
        "reward": {"k": 60, "distgap_enabled": True, "distgap_space": "features"},
    },
    # 10 feature columns: the gap's distances sum 8 or more squares
    "binary-gap-features-wide": {
        "regime": "binary-mil",
        "generator": {**GENERATOR, "feature_dim": 10},
        "reward": {"k": 3, "distgap_enabled": True, "distgap_space": "features"},
    },
    # 8 classifier outputs (3 classes and 5 negative modes), in output space
    "multiclass-gap-output-wide": {
        "regime": "multiclass-mil",
        "generator": {**MULTICLASS_GENERATOR, "num_bags": 24},
        "classifier": {"epochs": 5},
        "reward": {
            "k": 4,
            "alpha": 0.5,
            "num_negative_labels": 5,
            "distgap_enabled": True,
            "distgap_space": "output",
        },
    },
    # 8 positive classes and the 3 negative modes: 9 cooperative groups, one of
    # them multi-class, so the softmax's group sums run numpy's pairwise order;
    # the output-space gap puts the scores' last bits into the rewards, and
    # one-instance bags give every training label set a held-out bag
    "multiclass-9-groups": {
        "regime": "multiclass-mil",
        "generator": {
            **MULTICLASS_GENERATOR,
            "num_bags": 40,
            "bag_size": [1, 1],
            "positive_classes": 8,
        },
        "classifier": {"epochs": 5},
        "reward": {"k": 4, "alpha": 0.5, "distgap_enabled": True, "distgap_space": "output"},
    },
}

COMMON = {"rounds": 25, "folds": 3, "master_seed": 11}

GOLDEN = {
    "binary": {
        "result.json": "2526e1b43996c0b17ce2786601041daecda75593eae15dd34fab9d851c31563f",
        "pull_log.ndjson": "4784eac4a680db5dc7fa0e5392e02cef1aae5a6cf283b038c0ec64acd9476402",
    },
    "binary-softmax": {
        "result.json": "b39793ed0d84e9a8208e995384395a775ab82313498130bd4bcaded344d17457",
        "pull_log.ndjson": "867eeadee8052ebd7c5d9296b5f652859f8a41ec0c2ca832fa5a7bd2ac30e3f1",
    },
    "binary-gap-features": {
        "result.json": "f87d7b2ef28f6d5021cfcb8a00c11240cacb7db6c8913e423e981a57cdc62f74",
        "pull_log.ndjson": "2818759283dcdfeb67948b1ac68b94f44442f993ade2b3d969837a46ded2d69d",
    },
    "binary-gap-output": {
        "result.json": "9f1b7681966ed1ea9e05b7754248d37800d1a968be435336be289804e557cd22",
        "pull_log.ndjson": "76456928898bcb45c23f352d674c05e7817577300444771b6bfd08dbc9f2e26d",
    },
    "binary-bootstrap": {
        "result.json": "212274eeb7bda844cdbadf6617428b3956acc276b636200698e8966cfd1c5d5f",
        "pull_log.ndjson": "349c217990b9452ac267c83f0df59de42c3f7ffeb9d9d9708187df0b2009fe7c",
    },
    "multiclass-2-negative-modes": {
        "result.json": "d8e96e4e0cb8471dacc7ea80d6223097a099e119ba7510a19fbbbcfae3fb47c9",
        "pull_log.ndjson": "8c7e93c602106142b85fe4cc5377e8b51078f838ca46ac0a8ec0db73187288cf",
    },
    "multiclass-softmax": {
        "result.json": "1d1f09bf8cc0ebf96f2ead7938111d4540677cabaaff46e8852d6b57f05e24c1",
        "pull_log.ndjson": "b76e8f844e7c4453cc88f47b14bb842d901a2f692eb749475cb85d605cc02007",
    },
    "multiclass-svm": {
        "result.json": "e050e7ae477b172012ac53efe242502308d358d76e306a74e7d67cbbb47de0f9",
        "pull_log.ndjson": "4138ea3299a7c07f6abba5a03ba8ce1b5f66556540bce98523902740cf7c6a07",
    },
    "multiclass-gap-features": {
        "result.json": "500b5197e3f68c24cf1e76fe471986a4ee147e321bdf8023419dd4556cfbc154",
        "pull_log.ndjson": "3a0373334eed341c7e59c5998f85375f08ff20f9e662487653cff345edc88d45",
    },
    "multiclass-gap-output": {
        "result.json": "196deafb441c38a50ac9b22604494e49eaf2070d624b8ff4d375c761527aee32",
        "pull_log.ndjson": "fb71aac768b1965aab7daf6f806942a052ecb48a9f434fcf02638ed863a85810",
    },
    "llp": {
        "result.json": "768465c5d328ca786aa203321abf45c951f746f609395c850b0d5e4f0bada287",
        "pull_log.ndjson": "da046ea1bb72eccbd3a088e46c89322f850706d50535a4d9f20816899a70755b",
    },
    "llp-neighbour-order": {
        "result.json": "f8ec4d017d270e03e82e9ad56501a212601cffdfcbc2224a19081017dff2b2d1",
        "pull_log.ndjson": "6b08556f6338a2555b6dee1994d0c88a5554ca3c2b264aa316ac0d077370a513",
    },
    "binary-k-above-pool": {
        "result.json": "8d9b81e0170bcf53c080ff3e116734e0d530f278d4eea3522dc038761215d21b",
        "pull_log.ndjson": "eea6fb4bf29516812d4a8a1342c4dbc92dfbb4fb97becbdc3a8f53ea19f72549",
    },
    "multiclass-bootstrap": {
        "result.json": "fc5e6d6f08dda9534cc2d164a8e9a865f8d87f27cd48c1a6017210d344f2f02a",
        "pull_log.ndjson": "e89ae55139c2acb6b5008de4fe3d28f8fe143e4c58213d62a59ae734c487ad30",
    },
    "binary-gap-output-tau-bootstrap": {
        "result.json": "44bbe04aa683fbf64a8613a2282e9555542e752346eb3f9be01ed1fbc13a6c86",
        "pull_log.ndjson": "e0161b7c1fae92bdf5898ab8968d4cd8473cbcc688098fb54177c978c18b98e2",
    },
    "binary-gap-features-k-above-pool": {
        "result.json": "8bb0d53b54cde45f6f444019cc705adf542da722d4434d13fc03bceb6a10a6ec",
        "pull_log.ndjson": "83eec42dfd38f918fb7659a67e683e3ee02ff23ee17b94afb8e89ebafac32678",
    },
    "binary-gap-features-wide": {
        "result.json": "a40be9961341e59c758003d31a9927c1e5dbffca6fb82a2917e6f32443932c85",
        "pull_log.ndjson": "991062e3ee6a0300b6302c9d5d4050017596a74fa3311acd11a0ffb7aa1de1c0",
    },
    "multiclass-gap-output-wide": {
        "result.json": "97e1f3af82b19562cad8899d471d9973bf51d94c0a05f0bc0abb7a31bec3969f",
        "pull_log.ndjson": "552e2340f3ec3180887aaf641bfe2eb3d09783ab659ecf5eb3d69c6a6e202953",
    },
    "multiclass-9-groups": {
        "result.json": "1f8ef008d77938c128a5cbd6812db85068323cafad1bfdf9a317168ef8aba1d7",
        "pull_log.ndjson": "2dac266a4d8260b79ec879fd9a1ea5ce83112cb98d5044930a732102ba6d987b",
    },
}


def output_hashes(tmp_path, case: dict) -> dict[str, str]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**COMMON, **case}))
    gen, out = tmp_path / "gen", tmp_path / "out"
    assert main(["generate", "--config", str(config), "--out", str(gen)]) == 0
    dataset = gen / "dataset.json"
    assert main(["infer", "--config", str(config), "--dataset", str(dataset), "--out", str(out)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("result.json", "pull_log.ndjson")
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_recorded_hashes(tmp_path, capsys, name):
    hashes = output_hashes(tmp_path, CASES[name])
    capsys.readouterr()
    assert hashes == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            hashes = output_hashes(Path(tmp), CASES[name])
        print(f'    "{name}": {{')
        for file, digest in hashes.items():
            print(f'        "{file}": "{digest}",')
        print("    },")
    print("}")
