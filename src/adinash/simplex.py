"""Probability-simplex geometry: validation, projections, and mirror steps."""

import numpy as np

# Inputs whose mass is off by more than this are rejected; smaller drift is
# renormalized away by as_distribution and StrategyProfile only, and used as
# given everywhere else. Invariant checks use the tighter 1e-9.
RENORMALIZE_TOL = 1e-6
SIMPLEX_TOL = 1e-9


def as_distribution(v, size=None):
    """Validate (and lightly repair) a vector as a mixed strategy.

    Nonnegative entries summing to 1 within ``RENORMALIZE_TOL`` are accepted
    and renormalized exactly; anything further off is rejected.
    """
    x = _check_distribution(v, size)
    return x / x.sum(axis=-1, keepdims=True)


def _check_distribution(v, size=None):
    """A vector checked as as_distribution checks it, negative rounding
    clamped to 0, not renormalized: a nonnegative vector keeps its bytes."""
    x = np.asarray(v, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"mixed strategy must be 1-d, got shape {x.shape}")
    if size is not None and x.size != size:
        raise ValueError(f"expected {size} actions, got {x.size}")
    return _check_rows(x)


def _check_rows(x):
    """_check_distribution on each row of a float array along its last axis,
    in one pass: a vector, or an (n, m) stack of strategies. A bad stack
    raises what the first bad row alone raises."""
    # NaN and -inf fail the first test and +inf the second, so the sum of a
    # row never meets inf - inf; `low` is the least entry, or 0 if larger
    tol, low, sums = RENORMALIZE_TOL, x.min(initial=0.0), x.sum(axis=-1)
    drift = max(sums.max(initial=1.0) - 1.0, 1.0 - sums.min(initial=1.0))
    if not (low >= -tol and drift <= tol):
        for row in np.atleast_2d(x):
            if not np.all(np.isfinite(row)):
                raise ValueError("mixed strategy has non-finite entries")
            if np.any(row < -tol):
                raise ValueError(f"mixed strategy has negative mass: min={row.min()}")
            if abs(row.sum() - 1.0) > tol:
                raise ValueError(f"mixed strategy mass {row.sum()} is not 1 within {tol}")
    # np.clip(x, 0.0, None), without its wrapper, where an entry is negative
    return x if low >= 0.0 else np.maximum(x, 0.0)


def is_distribution(v, tol=SIMPLEX_TOL):
    x = np.asarray(v, dtype=float)
    return (
        x.ndim == 1
        and bool(np.all(np.isfinite(x)))
        and bool(np.all(x >= -tol))
        and abs(x.sum() - 1.0) <= tol
    )


def simplex_project_euclidean(v):
    """Euclidean projection onto the probability simplex, of a vector or of
    every row of an (n, m) stack.

    Standard sort-and-threshold procedure: exact, O(m log m), deterministic.
    On large entries the cumulative sum can round the threshold away (no
    support index, or a result off unit mass by more than SIMPLEX_TOL); such
    a row is then projected as the shift x - max(x), which has the same
    projection and puts 0 at the top of the sort.
    """
    x = np.asarray(v, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("expected a 1-d vector or a stack of rows")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot project non-finite vector")
    rows = np.atleast_2d(x)
    out, found = _threshold(rows)
    if not (found.all() and (np.abs(out.sum(axis=1) - 1.0) <= SIMPLEX_TOL).all()):
        retake = ~found | ~(np.abs(out.sum(axis=1) - 1.0) <= SIMPLEX_TOL)
        shifted = rows[retake]
        out[retake] = _threshold(shifted - shifted.max(axis=1, keepdims=True))[0]
    return out[0] if x.ndim == 1 else out


def _threshold(x):
    """Sort-and-threshold projection of each row of x, and whether each row
    had a qualifying index (rows without one hold garbage)."""
    m = x.shape[1]
    u = np.sort(x, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    cond = u - css / np.arange(1, m + 1) > 0
    # rho: the last qualifying index of each row, counted from 1
    rho = m - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(x.shape[0]), rho - 1] / rho
    return np.maximum(x - theta[:, None], 0.0), cond.any(axis=1)


def tangent_project(g):
    """Project a gradient, or every row of a stack, onto the tangent space
    of the simplex (sum-zero)."""
    g = np.asarray(g, dtype=float)
    return g - g.sum(axis=-1, keepdims=True) / g.shape[-1]


def mirror_step_entropic(x, g, step_size):
    """Entropic mirror-descent step: multiplicative weights against gradient g,
    on a vector or on every row of a stack.

    Returns ``x * exp(-step_size * g)`` renormalized; requires all of x's mass
    components strictly positive so the iterate stays in the simplex interior,
    and raises FloatingPointError when a coordinate of the result underflows.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    if (x <= 0.0).any():
        raise ValueError("entropic mirror step requires strictly positive input")
    logits = np.log(x) - step_size * g
    logits -= logits.max(axis=-1, keepdims=True)
    z = np.exp(logits)
    out = z / z.sum(axis=-1, keepdims=True)
    if not (out > 0.0).all():
        raise FloatingPointError("entropic mirror step left the simplex interior")
    return out


# -- per-player rows -------------------------------------------------------
#
# A profile's strategies (or gradients) of one length are one (n, m) array
# and every kernel above runs on all of its rows at once; rows of different
# lengths stay a list and each kernel runs once per row. A kernel on a stack
# gives the bytes of the same kernel on each row alone.


def stack_rows(vectors):
    """Vectors of one length as one (n, m) array: a 2-d array, or a
    StrategyProfile's own stack, as is; a list stacked. Vectors of different
    lengths as a list of float arrays."""
    stack = getattr(vectors, "stack", None)
    if stack is not None:
        return stack
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        return vectors
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if rows and all(r.ndim == 1 and r.shape == rows[0].shape for r in rows):
        return np.stack(rows)
    return rows


def stack_like(name, vectors, rows):
    """`vectors` as `stack_rows` gives them, one row of each shape of `rows`
    (a stack or a list); anything else raises ValueError naming `name`."""
    if not (isinstance(vectors, np.ndarray) and vectors.shape == getattr(rows, "shape", None)):
        vectors = stack_rows(vectors)
        if len(vectors) != len(rows):
            raise ValueError(f"{name} has {len(vectors)} vectors, want {len(rows)}")
        for k, (v, r) in enumerate(zip(vectors, rows)):
            if v.shape != r.shape:
                raise ValueError(f"{name} vector {k} has shape {v.shape}, want {r.shape}")
    return vectors


def map_rows(fn, *arrays):
    """fn on (n, m) stacks at once, or on each row of per-player lists,
    whose results are a list."""
    if isinstance(arrays[0], np.ndarray):
        return fn(*arrays)
    return [fn(*rows) for rows in zip(*arrays)]


def row_dot(a, b):
    """Dot product of each row of a with the same row of b (vectors: one
    float); each the bytes np.dot gives on the two rows."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]
