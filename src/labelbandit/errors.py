"""Exception types shared across the package, and ``check``, the one checker of
every setting's ``Rule``, declared beside its field (``setting``). The command
line exits 2 on a ``UsageError`` (bad usage, config or inputs), 3 on any other."""

import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields


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


@dataclass(frozen=True)
class Rule:
    """A "count" of at least ``low``; a finite "real" from ``low`` to ``high``, an
    end excluded where ``ends`` has "(" or ")"; a "choice" from ``choices``; or a
    "flag", a bool. ``name`` and ``error`` replace the setting's and the layer's."""

    kind: str
    low: float = 0
    high: float = math.inf
    ends: str = "[]"
    choices: tuple = ()
    name: str | None = None
    error: type[UsageError] | None = None


def check(value, rule: Rule, name: str | None = None, error: type[UsageError] | None = None):
    """``value`` (a count as an int) if it keeps ``rule``, else a usage error naming the
    setting. A count is never a bool or a float, a real never a bool, NaN or infinite."""
    name, error = rule.name or name, rule.error or error
    if rule.kind == "choice" and value not in rule.choices:
        raise error(f"unknown {name} {value!r}; expected one of {rule.choices}")
    if rule.kind == "flag" and not isinstance(value, bool):
        raise error(f"{name} must be a bool, got {value!r}")
    if rule.kind in ("choice", "flag"):
        return value
    whole = rule.kind == "count"
    number = numbers.Integral if whole else numbers.Real
    if isinstance(value, bool) or not isinstance(value, number):
        raise error(f"{name} must be a {'whole ' if whole else ''}number, got {value!r}")
    if not whole and not abs(value) <= sys.float_info.max:
        raise error(f"{name} must be finite, got {value}")
    above = value > rule.low if rule.ends[0] == "(" else value >= rule.low
    if not above or (value >= rule.high if rule.ends[1] == ")" else value > rule.high):
        interval = f"lie in {rule.ends[0]}{rule.low}, {rule.high}{rule.ends[1]}"
        half_line = "be positive" if rule.ends[0] == "(" else f"be >= {rule.low}"
        raise error(f"{name} must {interval if rule.high < math.inf else half_line}, got {value}")
    return int(value) if whole else value


def check_count(value, name: str, minimum: int, error: type[UsageError]) -> int:
    """``check`` of the count rule: ``value`` as an int, if a whole number >= ``minimum``."""
    return check(value, Rule("count", minimum), name, error)


def setting(rule: Rule, default=MISSING):
    """A dataclass field whose value keeps ``rule``; ``check_settings`` checks it."""
    return field(default=default, metadata={"rule": rule})


def check_settings(obj, error: type[UsageError]) -> None:
    """Check each ``setting`` of dataclass ``obj``; None passes where it is the default."""
    for f in fields(obj):
        if "rule" in f.metadata and (getattr(obj, f.name) is not None or f.default is not None):
            check(getattr(obj, f.name), f.metadata["rule"], f.name, error)
