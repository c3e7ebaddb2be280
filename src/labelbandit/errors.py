"""Exception types shared across the package, and the one rule every count
setting follows (``check_count``). The command line exits 2 on a
``UsageError`` (bad usage, config or inputs) and 3 on any other error here."""

import numbers


class LabelBanditError(Exception):
    """Base class for every error raised by this package."""


class UsageError(LabelBanditError, ValueError):
    """Base class of the errors a caller can fix by changing its inputs."""


class ValidationError(UsageError):
    """Data violates a structural invariant (bad file, bad dataset, bad shapes)."""


class ParseError(ValidationError):
    """A dataset file could not be parsed; the message names the line or record."""


class ParameterError(UsageError):
    """A caller-supplied parameter is out of range or infeasible."""


class ConfigError(UsageError):
    """A run configuration is malformed or internally inconsistent."""


class RegimeError(UsageError):
    """An operation was applied to a dataset whose weak-label regime it does not support."""


class RewardRangeError(LabelBanditError, ValueError):
    """A reward fell outside [0, 1]; this signals a buggy reward function."""


class EvaluationError(UsageError):
    """Metrics were requested on data that lacks the required ground truth."""


class InferenceError(LabelBanditError, RuntimeError):
    """An inference run or a classifier fit aborted; a failure inside
    ``run_inference`` carries round and assignment context."""


def check_count(value, name: str, minimum: int, error: type[UsageError]) -> int:
    """``value`` as an int, if it is a whole number (an int or a numpy integer,
    never a bool or a float) of at least ``minimum``; otherwise ``error``, the
    calling layer's usage error, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be a whole number, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return int(value)
