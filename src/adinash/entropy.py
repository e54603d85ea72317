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
        if self.family == "shannon" and not 0.0 <= self.temperature < np.inf:
            raise ValueError(
                f"shannon temperature must be finite and >= 0, got {self.temperature!r}"
            )
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
    """A response distribution plus the Tsallis scale it was normalized by;
    for a stack of gradient rows, one row and one scale per row."""

    dist: np.ndarray
    scale: float = 0.0


def _softmax(z):
    """softmax over the last axis, as scipy.special.softmax computes it."""
    shifted = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return shifted / np.sum(shifted, axis=-1, keepdims=True)


def _hard_argmax(y):
    """Mass split uniformly over the maximizers of y, or of each row."""
    y = np.asarray(y, dtype=float)
    maxima = y == y.max(axis=-1, keepdims=True)
    return maxima / maxima.sum(axis=-1, keepdims=True)


def tsallis_scale(y, power):
    """The 1/p norm of a nonnegative gradient vector (or of each row),
    overflow-safe."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return float(_row_scale(y, power))
    # one scalar power per row: the vector power ufunc can differ in the last bit
    return np.array([_row_scale(row, power) for row in y])


def _row_scale(y, power):
    top = y.max(initial=0.0)
    if top <= 0.0:
        return 0.0
    if power < TSALLIS_POWER_MIN:
        return top
    return top * (((y / top) ** (1.0 / power)).sum() ** power)


def best_response(y, kind):
    """Maximizer of z . y + S(z) over the simplex for the given regularizer,
    for a gradient or for each row of a stack.

    Shannon: softmax(y / tau). Tsallis: (y / s)^(1/p) with s the 1/p norm of y
    (uniform when s = 0). At hard (snapped) temperatures: argmax with mass
    split uniformly over the maximizers.
    """
    y = np.asarray(y, dtype=float)
    if kind.family == "tsallis":
        if (y < 0.0).any():
            raise ValueError(
                "tsallis responses need nonnegative payoff gradients; offset the game"
            )
        s = tsallis_scale(y, kind.temperature)
        if kind.is_hard:
            return BestResponse(_hard_argmax(y), s)
        # s = 0 only on an all-zero row, whose response is uniform; a
        # vector's float scale needs no guard array
        zero = s == 0.0
        if y.ndim == 1:
            divisor = 1.0 if zero else s
        else:
            divisor = np.where(zero, 1.0, s)[:, None]
        dist = (y / divisor) ** (1.0 / kind.temperature)
        dist[zero] = 1.0 / y.shape[-1]
        return BestResponse(dist, s)
    if kind.family == "shannon" and not kind.is_hard:
        return BestResponse(_softmax(y / kind.temperature), 0.0)
    return BestResponse(_hard_argmax(y), 0.0)


def entropy_value(x, kind, scale=0.0):
    """The regularizer's value at x (one float), or at each row of a stack
    (one per row); 0 ln 0 counts as 0.

    Tsallis needs the scale s (the 1/p norm of the owner's payoff gradient,
    one per row), which the regularizer treats as a constant.
    """
    x = np.asarray(x, dtype=float)
    if kind.family == "shannon":
        value = kind.temperature * special.entr(x).sum(axis=-1)
    elif kind.family == "tsallis":
        p = kind.temperature
        value = scale / (p + 1.0) * (1.0 - (x ** (p + 1.0)).sum(axis=-1))
    else:
        value = np.zeros(x.shape[:-1])
    return float(value) if x.ndim == 1 else value
