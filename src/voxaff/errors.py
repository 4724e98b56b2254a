"""The record layer: the exception types shared across the package, the
config field checks that raise them, and the one place where every JSON
artifact is written (``write_json``), read (``read_json``) and refused
(``malformed``, the guard that every record decoder runs under).

The command line maps these onto exit codes: configuration problems exit
with 2, data/schema problems with 3, numerical failures with 4.
"""

import contextlib
import json
import math
import numbers
import sys


class VoxaffError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(VoxaffError):
    """Invalid or inconsistent run configuration."""


class DataError(VoxaffError):
    """Malformed dataset, file, or inter-object mismatch."""


class NumericalError(VoxaffError):
    """Non-finite values or numerically impossible requests."""


class DomainError(DataError):
    """Argument outside the documented domain (bad shape, range, or value)."""


class ShapeMismatchError(DomainError):
    """Arrays whose shapes must agree do not."""


class CameraInsideCubeError(DomainError):
    """Ray casting requires the camera origin outside the voxel cube."""


class UnknownQueryError(DataError):
    """Query string missing from the query table."""


class UndefinedMetricError(DataError):
    """Metric undefined for the given input (e.g. empty point cloud)."""


class UntrainedModelError(DataError):
    """A checkpoint records zero completed training steps."""


class DegenerateQueryError(DataError):
    """Query grounds to an all-zero mask, so view scoring is meaningless."""


class CandidatesExhaustedError(DataError):
    """Every candidate viewpoint has already been visited."""


def check_integer(name: str, value):
    """Refuse a bool or non-integral value for the config field ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def record_integer(record: str, name: str, value) -> int:
    """``value``, the field ``name`` of a ``record`` file, as an int; a bool
    or non-integral value raises ``DataError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DataError(f"malformed {record} record: {name} must be an integer, got {value!r}")
    return int(value)


def check_real(name: str, value):
    """Refuse a bool, non-real or non-finite value, or an int beyond the
    float range, for the config field ``name``."""
    if isinstance(value, numbers.Integral):
        # math.isfinite would raise OverflowError for an int that large.
        finite = not isinstance(value, bool) and abs(value) <= sys.float_info.max
    else:
        finite = isinstance(value, numbers.Real) and math.isfinite(value)
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def write_json(path, payload):
    """Write ``payload`` to ``path`` as an artifact: JSON with sorted keys
    and a trailing newline, so equal payloads give equal bytes."""
    with open(path, "w") as f:
        json.dump(payload, f, sort_keys=True)
        f.write("\n")


def read_json(path):
    """The JSON value in ``path``.  Invalid JSON raises
    ``json.JSONDecodeError``, which the command line reports as such, so no
    caller reads a file under ``malformed``."""
    with open(path) as f:
        return json.load(f)


@contextlib.contextmanager
def malformed(prefix: str, error=DataError):
    """Decode a record under this guard: an ``AttributeError``, ``KeyError``,
    ``OverflowError``, ``TypeError`` or ``ValueError`` becomes
    ``error(f"{prefix}: {exc}")``."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise error(f"{prefix}: {exc}") from exc
