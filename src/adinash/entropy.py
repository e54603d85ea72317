"""Entropy regularizers and their best-response operators.

Two families: weighted Shannon entropy (temperature tau, softmax responses)
and an adaptive Tsallis bonus (power p in [0, 1], closed-form power responses).
Temperatures under the family's cutoff snap to the hard zero-temperature
limit, where the smooth operators would under/overflow.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

SHANNON_TEMP_MIN = 1e-3
TSALLIS_POWER_MIN = 1e-2
LOGIT_FLOOR = -1e5


@dataclass(frozen=True)
class Entropy:
    """Which regularizer u_i is padded with, and how hot."""

    family: str  # "shannon" | "tsallis" | "none"
    temperature: float = 0.0

    def __post_init__(self):
        if self.family not in ("shannon", "tsallis", "none"):
            raise ValueError(f"unknown entropy family {self.family!r}")
        if self.family == "shannon" and self.temperature < 0.0:
            raise ValueError("shannon temperature must be >= 0")
        if self.family == "tsallis" and not 0.0 <= self.temperature <= 1.0:
            raise ValueError("tsallis power must lie in [0, 1]")
        if self.family == "none" and self.temperature != 0.0:
            raise ValueError("unregularized kind carries no temperature")

    @classmethod
    def shannon(cls, temperature):
        return cls("shannon", float(temperature))

    @classmethod
    def tsallis(cls, power):
        return cls("tsallis", float(power))

    @classmethod
    def none(cls):
        return cls("none", 0.0)

    @property
    def is_hard(self):
        """True when the temperature is below the family's smooth-branch cutoff."""
        if self.family == "shannon":
            return self.temperature < SHANNON_TEMP_MIN
        if self.family == "tsallis":
            return self.temperature < TSALLIS_POWER_MIN
        return True

    def anneal(self):
        """Halve the temperature, clip into [0, 1], snap below cutoff to 0."""
        if self.family == "none":
            return self
        t = min(max(self.temperature / 2.0, 0.0), 1.0)
        cutoff = SHANNON_TEMP_MIN if self.family == "shannon" else TSALLIS_POWER_MIN
        if t < cutoff:
            t = 0.0
        return Entropy(self.family, t)


@dataclass(frozen=True)
class BestResponse:
    """A response distribution plus the Tsallis scale it was normalized by."""

    dist: np.ndarray
    scale: float = 0.0


def _hard_argmax(y):
    y = np.asarray(y, dtype=float)
    top = y.max()
    dist = np.zeros_like(y)
    maxima = y == top
    dist[maxima] = 1.0 / maxima.sum()
    return dist


def tsallis_scale(y, power):
    """The 1/p norm of a nonnegative gradient vector, overflow-safe."""
    y = np.asarray(y, dtype=float)
    top = y.max(initial=0.0)
    if top <= 0.0:
        return 0.0
    if power < TSALLIS_POWER_MIN:
        return float(top)
    return float(top * (np.sum((y / top) ** (1.0 / power)) ** power))


def best_response(y, kind):
    """Maximizer of z . y + S(z) over the simplex for the given regularizer.

    Shannon: softmax(y / tau). Tsallis: (y / s)^(1/p) with s the 1/p norm of y
    (uniform when s = 0). At hard (snapped) temperatures: argmax with mass
    split uniformly over the maximizers.
    """
    y = np.asarray(y, dtype=float)
    if kind.family == "tsallis":
        if np.any(y < 0.0):
            raise ValueError(
                "tsallis responses need nonnegative payoff gradients; offset the game"
            )
        s = tsallis_scale(y, kind.temperature)
        if kind.is_hard:
            return BestResponse(_hard_argmax(y), s)
        if s == 0.0:
            return BestResponse(np.full(y.size, 1.0 / y.size), 0.0)
        return BestResponse((y / s) ** (1.0 / kind.temperature), s)
    if kind.family == "shannon" and not kind.is_hard:
        return BestResponse(special.softmax(y / kind.temperature), 0.0)
    return BestResponse(_hard_argmax(y), 0.0)


def entropy_value(x, kind, scale=0.0):
    """The regularizer's value at x; 0 ln 0 counts as 0.

    Tsallis needs the scale s (the 1/p norm of the owner's payoff gradient),
    which the regularizer treats as a constant.
    """
    x = np.asarray(x, dtype=float)
    if kind.family == "shannon":
        return float(kind.temperature * special.entr(x).sum())
    if kind.family == "tsallis":
        p = kind.temperature
        return float(scale / (p + 1.0) * (1.0 - np.sum(x ** (p + 1.0))))
    return 0.0
