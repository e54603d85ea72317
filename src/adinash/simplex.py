"""Probability-simplex geometry: validation, projections, and mirror steps."""

import numpy as np

# Inputs whose mass is off by more than this are rejected; smaller drift is
# renormalized away. Invariant checks use the tighter 1e-9.
RENORMALIZE_TOL = 1e-6
SIMPLEX_TOL = 1e-9


def as_distribution(v, size=None):
    """Validate (and lightly repair) a vector as a mixed strategy.

    Nonnegative entries summing to 1 within ``RENORMALIZE_TOL`` are accepted
    and renormalized exactly; anything further off is rejected.
    """
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"mixed strategy must be 1-d, got shape {x.shape}")
    if size is not None and x.size != size:
        raise ValueError(f"expected {size} actions, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("mixed strategy has non-finite entries")
    if np.any(x < -RENORMALIZE_TOL):
        raise ValueError(f"mixed strategy has negative mass: min={x.min()}")
    total = x.sum()
    if abs(total - 1.0) > RENORMALIZE_TOL:
        raise ValueError(f"mixed strategy mass {total} is not 1 within {RENORMALIZE_TOL}")
    x = np.clip(x, 0.0, None)
    return x / x.sum()


def is_distribution(v, tol=SIMPLEX_TOL):
    x = np.asarray(v, dtype=float)
    return (
        x.ndim == 1
        and bool(np.all(np.isfinite(x)))
        and bool(np.all(x >= -tol))
        and abs(x.sum() - 1.0) <= tol
    )


def simplex_project_euclidean(v):
    """Euclidean projection onto the probability simplex.

    Standard sort-and-threshold procedure: exact, O(m log m), deterministic.
    On large entries the cumulative sum can round the threshold away (no
    support index, or a result off unit mass by more than SIMPLEX_TOL); the
    projection is then taken of the shift x - max(x), which has the same
    projection and puts 0 at the top of the sort.
    """
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-d vector")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot project non-finite vector")
    out = _threshold(x)
    if out is None or not abs(out.sum() - 1.0) <= SIMPLEX_TOL:
        out = _threshold(x - x.max())
    return out


def _threshold(x):
    """Sort-and-threshold projection of x, or None when no index qualifies."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, x.size + 1)
    cond = u - css / ks > 0
    if not cond.any():
        return None
    rho = ks[cond][-1]
    theta = css[cond][-1] / rho
    return np.clip(x - theta, 0.0, None)


def tangent_project(g):
    """Project a gradient onto the tangent space of the simplex (sum-zero)."""
    g = np.asarray(g, dtype=float)
    return g - g.sum() / g.size


def mirror_step_entropic(x, g, step_size):
    """Entropic mirror-descent step: multiplicative weights against gradient g.

    Returns ``x * exp(-step_size * g)`` renormalized; requires all of x's mass
    components strictly positive so the iterate stays in the simplex interior,
    and raises FloatingPointError when a coordinate of the result underflows.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("entropic mirror step requires strictly positive input")
    logits = np.log(x) - step_size * g
    logits -= logits.max()
    z = np.exp(logits)
    out = z / z.sum()
    if not np.all(out > 0.0):
        raise FloatingPointError("entropic mirror step left the simplex interior")
    return out
