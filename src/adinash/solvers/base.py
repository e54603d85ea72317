"""Estimator plumbing shared by every solver.

Solvers follow the familiar estimator contract: hyperparameters go into
``__init__`` unmodified, ``get_params``/``set_params`` expose them for sweeps
and cloning, ``fit`` runs the dynamic and leaves trailing-underscore
attributes behind.
"""

import csv
import hashlib
import inspect
import io

import numpy as np

from ..normalform import validate_integer


class BaseSolver:
    """get_params/set_params over the constructor signature, sklearn-style."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [
            name
            for name, p in sig.parameters.items()
            if name != "self" and p.kind != p.VAR_KEYWORD
        ]

    def _validate_shared(self, rates, min_exact_adi_every):
        """Check what every solver takes: each named rate positive and finite,
        `iterations` an integer >= 1, `seed` one in [0, 2**128), and
        `exact_adi_every` None or an integer >= `min_exact_adi_every`."""
        for name in rates:
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        validate_integer("iterations", self.iterations, 1)
        validate_integer("seed", self.seed, 0, 2**128)
        if self.exact_adi_every is not None:
            validate_integer("exact_adi_every", self.exact_adi_every, min_exact_adi_every)

    def get_params(self):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"unknown parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def clone(self, **overrides):
        params = self.get_params()
        params.update(overrides)
        return type(self)(**params)

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.get_params().items()))
        return f"{type(self).__name__}({args})"


def profile_hash(strategies):
    """Short stable digest of a strategy profile's float64 bytes."""
    h = hashlib.sha1()
    for s in strategies:
        h.update(np.ascontiguousarray(s, dtype=np.float64).tobytes())
    return h.hexdigest()[:12]


class IterateLog:
    """Per-iteration metric trail of one solver run.

    Wall-clock time is retained in memory for summaries but never written to
    the metric CSV, which must be bit-identical across reruns of a seed.
    """

    CSV_COLUMNS = (
        "run_id",
        "seed",
        "iteration",
        "adi_estimate",
        "adi_estimate_unreg",
        "adi_exact",
        "temperature",
        "queries",
        "profile_hash",
    )

    def __init__(self, run_id="run", seed=0):
        self.run_id = str(run_id)
        self.seed = int(seed)
        self.records = []

    def append(
        self,
        iteration,
        adi_estimate,
        adi_exact,
        temperature,
        queries,
        profile_digest,
        wall_ms=0.0,
        adi_estimate_unreg=None,
    ):
        if self.records:
            last = self.records[-1]
            if iteration <= last["iteration"] or queries < last["queries"]:
                raise ValueError("iteration index and query counter must be monotone")
        self.records.append(
            {
                "iteration": int(iteration),
                "adi_estimate": float(adi_estimate),
                "adi_estimate_unreg": float(
                    adi_estimate if adi_estimate_unreg is None else adi_estimate_unreg
                ),
                "adi_exact": float(adi_exact) if adi_exact is not None else float("nan"),
                "temperature": float(temperature),
                "queries": int(queries),
                "profile_hash": str(profile_digest),
                "wall_ms": float(wall_ms),
            }
        )

    def __len__(self):
        return len(self.records)

    def column(self, name):
        return [r[name] for r in self.records]

    @property
    def final(self):
        return self.records[-1]

    def final_exact_adi(self):
        for r in reversed(self.records):
            if not np.isnan(r["adi_exact"]):
                return r["adi_exact"]
        return float("nan")

    def first_iteration_below(self, threshold, column="adi_exact"):
        """Earliest iteration whose metric falls below `threshold`, or None."""
        for r in self.records:
            v = r[column]
            if not np.isnan(v) and v < threshold:
                return r["iteration"]
        return None

    def csv_bytes(self):
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.records:
            writer.writerow(
                [
                    self.run_id,
                    repr(self.seed),
                    repr(r["iteration"]),
                    repr(r["adi_estimate"]),
                    repr(r["adi_estimate_unreg"]),
                    repr(r["adi_exact"]),
                    repr(r["temperature"]),
                    repr(r["queries"]),
                    r["profile_hash"],
                ]
            )
        return buf.getvalue().encode()

    def to_csv(self, path):
        with open(path, "wb") as fh:
            fh.write(self.csv_bytes())
