"""The package's public surface, and the count rule every layer shares."""

import numpy as np
import pytest

import labelbandit as lb
from labelbandit.errors import ConfigError, check_count

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


@pytest.mark.parametrize("value", [3, np.int64(3), np.int8(3), np.uint32(3)])
def test_count_rule_returns_whole_numbers_as_ints(value):
    count = check_count(value, "rounds", 1, ConfigError)
    assert count == 3 and type(count) is int


@pytest.mark.parametrize(
    "value, message",
    [
        (2.5, "rounds must be a whole number, got 2.5"),
        (3.0, "rounds must be a whole number, got 3.0"),
        (True, "rounds must be a whole number, got True"),
        (np.bool_(True), "rounds must be a whole number, got np.True_"),
        ("3", "rounds must be a whole number, got '3'"),
        (None, "rounds must be a whole number, got None"),
        (np.int64(0), "rounds must be >= 1, got 0"),
    ],
)
def test_count_rule_raises_the_callers_error(value, message):
    with pytest.raises(ConfigError) as failure:
        check_count(value, "rounds", 1, ConfigError)
    assert str(failure.value) == message
