"""Exception types shared across the package, and the config field checks
that raise them.

The command line maps these onto exit codes: configuration problems exit
with 2, data/schema problems with 3, numerical failures with 4.
"""

import math
import numbers


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


class EmptyConditionError(DataError):
    """A conditioning grid with zero entries cannot produce tokens."""


class UnknownQueryError(DataError):
    """Query string missing from the query table."""


class SupportError(DomainError):
    """Heatmap support is not a subset of the occupancy it annotates."""


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


def check_real(name: str, value):
    """Refuse a bool, non-real or non-finite value for the config field ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
