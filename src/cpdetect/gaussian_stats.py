"""Prefix sufficient statistics and the variance floor.

The kernel and the GLR baseline read every segment's count, sum and sum of
squares from prefix sums, so no raw data needs to be revisited.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

#: Multiplier applied to the global sample variance to obtain the variance
#: floor.  Degenerate variance estimates (runs of identical values, segments
#: with fewer than 2 points) are replaced by the floor instead of collapsing
#: to zero, which would make the likelihood blow up.
DEFAULT_FLOOR_SCALE = 1e-8


class EstimationMode(enum.Enum):
    """How unknown segment parameters are turned into concrete values."""

    PLUG_IN = "plugin"
    POSTERIOR_SAMPLE = "sample"


class PrefixStats:
    """Growable prefix-sum arrays giving O(1) stats for any segment (a, b].

    Stores cumulative count/sum/sumsq, so the total space is linear in the
    number of observations even though every contiguous segment is queryable.
    The sums live in float64 buffers that double when full.
    """

    def __init__(self, data=None):
        self._sum = np.zeros(16)
        self._sumsq = np.zeros(16)
        self._n = 0
        if data is not None:
            for x in np.asarray(data, dtype=float):
                self.append(float(x))

    def __len__(self) -> int:
        return self._n

    def append(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValueError("observation must be finite")
        n = self._n
        # by Cauchy-Schwarz, every squared segment sum is at most m * sumsq
        # <= (n + 1) * Q, so this keeps all of them finite
        if not math.isfinite((n + 1) * (float(self._sumsq[n]) + x * x)):
            raise ValueError(
                f"observation {x!r} is too large: the squares of the series would overflow"
            )
        if n + 1 == len(self._sum):
            self._sum = np.concatenate([self._sum, np.zeros(n + 1)])
            self._sumsq = np.concatenate([self._sumsq, np.zeros(n + 1)])
        self._sum[n + 1] = self._sum[n] + x
        self._sumsq[n + 1] = self._sumsq[n] + x * x
        self._n = n + 1

    def arrays(self):
        """Prefix sum / sumsq as read-only views of length n+1 (index 0 is zero)."""
        views = self._sum[: self._n + 1], self._sumsq[: self._n + 1]
        for v in views:
            v.flags.writeable = False
        return views


def real_number(name: str, value) -> float:
    """``value`` as a Python float; a ValueError naming ``name`` unless it is a
    real number, not a bool, that a float holds as a finite value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite as a float, and this "
                         f"{type(value).__name__} overflows one") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, not {number!r}")
    return number


def variance_floor(global_variance: float | None) -> float:
    """Floor for variance estimates; tied to the overall scale of the data."""
    if global_variance is None or not math.isfinite(global_variance) or global_variance <= 0:
        return DEFAULT_FLOOR_SCALE
    return DEFAULT_FLOOR_SCALE * global_variance
