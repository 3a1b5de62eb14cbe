"""Generalized likelihood ratio detector for a mean shift.

Pre-change distribution N(mu0, sigma^2) with both parameters known; the
post-change mean is unknown and maximized out, subject to a minimum change
magnitude nu_min.  The decision statistic scans every candidate change
onset j and takes the best log-likelihood ratio of the segment j..k.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .gaussian_stats import PrefixStats, check_sigma, real_number


@dataclass(frozen=True)
class GlrConfig:
    """Known pre-change mean and standard deviation, and the smallest shift
    the scan looks for; each is stored as a Python float."""

    mu0: float = 0.0
    sigma: float = 1.0
    nu_min: float = 0.5

    def __post_init__(self):
        for name in ("mu0", "sigma", "nu_min"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        check_sigma(self.sigma)
        if self.nu_min < 0:
            raise ValueError("nu_min must be nonnegative")


class GlrState:
    """Running prefix sums about the config's mu0; one observation appended per step.

    The raw observations are kept too, so a snapshot restores them, and the
    prefix sums rebuilt from them, exactly.  A state that has read ``series``
    is built whole from it; by default it has read nothing.
    """

    def __init__(self, config: GlrConfig = GlrConfig(), series=()):
        self.config = config
        self.prefix = PrefixStats(series, ref=config.mu0)
        self.series: list[float] = np.asarray(series, dtype=float).tolist()

    @property
    def k(self) -> int:
        return len(self.prefix)

    def observe(self, x: float) -> None:
        x = float(x)
        self.prefix.append(x)
        self.series.append(x)

    def decision_g(self) -> float:
        """The decision statistic after the newest observation."""
        return glr_decision(self)

    def to_json(self) -> str:
        return json.dumps({"config": asdict(self.config), "series": self.series})

    @classmethod
    def from_json(cls, text: str) -> "GlrState":
        """Restore a :meth:`to_json` snapshot.  Raises ValueError on a document
        that is not one: not an object, without a ``config`` object of exactly
        GlrConfig's fields, each valid, or without a ``series`` list of numbers."""
        doc = json.loads(text)
        doc = doc if type(doc) is dict else {}
        config, series = doc.get("config"), doc.get("series")
        if type(config) is not dict or config.keys() != {f.name for f in fields(GlrConfig)}:
            raise ValueError("GLR snapshot must be a JSON object whose 'config' holds "
                             "exactly mu0, sigma and nu_min")
        if type(series) is not list or not all(type(x) in (int, float) for x in series):
            raise ValueError("GLR snapshot must be a JSON object whose 'series' is a list "
                             "of numbers")
        # an int can overflow a float
        return cls(GlrConfig(**config), [real_number("series", x) for x in series])


def glr_decision(state: GlrState) -> float:
    """Decision statistic g_k = max over onsets j of the best shifted LLR.

    For the segment j..k with deviation sum s from mu0 and length m, the
    log-likelihood ratio at shift nu is (nu*s - m*nu^2/2) / sigma^2,
    maximized at nu = s/m; when |s/m| < nu_min the shift is projected to
    sign(s)*nu_min.  Both shift directions are allowed.  The statistic is
    clamped at 0 so it reads as "no evidence" rather than negative evidence.
    """
    k, config = state.k, state.config
    if k < 1:
        raise ValueError("need at least one observation")
    sums, _ = state.prefix.arrays()  # about mu0
    sigma2 = config.sigma * config.sigma
    # deviation sums of segments j..k for j = 1..k, and their lengths
    m = np.arange(k, 0, -1, dtype=float)
    s = sums[k] - sums[:k]
    nu = s / m
    small = np.abs(nu) < config.nu_min
    nu = np.where(small, np.where(s >= 0, config.nu_min, -config.nu_min), nu)
    llr = (nu * s - 0.5 * m * nu * nu) / sigma2
    return float(max(0.0, llr.max()))
