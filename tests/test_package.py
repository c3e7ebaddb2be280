"""The package's public surface."""

import labelbandit as lb

REMOVED = (
    "Prediction",
    "predict",
    "knn_in_output_space",
    "evaluate_environment",
    "binary_mil_reward",
    "multiclass_mil_reward",
)


def test_every_exported_name_resolves():
    assert len(set(lb.__all__)) == len(lb.__all__)
    for name in lb.__all__:
        assert getattr(lb, name, None) is not None, name


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(lb.__all__)
    assert "predict_arrays" in lb.__all__
