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
    The sums live in one float64 buffer, a row each, that doubles when full.
    They are taken about ``ref``, or the first observation if it is None, so a
    sum of squares Q - S^2 / m cancels only as far as the data spread about
    that point (Chan, Golub & LeVeque 1983); about a known mean mu0, a
    segment's squared deviations from it are a difference of prefix sums.
    """

    def __init__(self, data=(), ref: float | None = 0.0):
        self._sums = np.zeros((2, 16))
        self._n = 0
        self.ref = ref
        for x in np.asarray(data, dtype=float):
            self.append(float(x))

    def __len__(self) -> int:
        return self._n

    def append(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValueError("observation must be finite")
        self.ref = x if self.ref is None else self.ref
        d, n = x - self.ref, self._n
        # by Cauchy-Schwarz, every squared segment sum is at most m * sumsq
        # <= (n + 1) * Q, so this keeps all of them finite
        if not math.isfinite((n + 1) * (float(self._sums[1, n]) + d * d)):
            raise ValueError(f"observation {x!r} lies {d!r} from the reference point "
                             f"{self.ref!r}: its square would overflow the sums")
        if n + 1 == self._sums.shape[1]:
            self._sums = np.concatenate([self._sums, np.zeros((2, n + 1))], axis=1)
        self._sums[0, n + 1] = self._sums[0, n] + d
        self._sums[1, n + 1] = self._sums[1, n] + d * d
        self._n = n + 1

    def arrays(self):
        """Prefix sum / sumsq as read-only views of length n+1 (index 0 is zero)."""
        view = self._sums[:, : self._n + 1]
        view.flags.writeable = False
        return view[0], view[1]


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


def positive_int(name: str, value) -> int:
    """``value`` as a Python int; a ValueError naming ``name`` unless it is an
    integer, not a bool, of at least 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {value!r}")
    return int(value)


def check_sigma(sigma: float) -> None:
    """A ValueError unless ``sigma`` and its square, a divisor, are positive and finite."""
    if not (sigma > 0 and 0 < sigma * sigma < math.inf):
        raise ValueError(f"known sigma must be positive and finite, and so must its "
                         f"square: sigma={sigma!r} squares to {sigma * sigma!r}")
