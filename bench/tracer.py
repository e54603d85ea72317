"""Outside-in span tracer over adinash's layers.

The tracer replaces each target with a wrapper that records one span per
call: the layer metric's call count, its self time (span time minus the time
of spans opened inside it) and the time of its first call. Nothing under
``src/`` changes. A name is patched where it is looked up: ``from ... import``
bindings in the module that imports them, methods on their class. Every
target must exist, so a rename breaks the benchmark instead of silently
dropping a layer.
"""

import functools
import importlib
import time

# imported by name: the attribute adinash.solvers.adidas is the re-exported function
SOLVERS = "adinash.solvers.adidas"

# (layer metric, module, attribute path within the module)
TARGETS = (
    ("generators.build", "adinash.generators", "make_blotto"),
    ("generators.build", "adinash.generators", "make_covariant_random"),
    ("generators.build", "adinash.generators", "make_el_farol"),
    ("generators.build", "adinash.generators", "planted_winrates"),
    ("generators.build", "adinash.generators", "make_bernoulli_metagame"),
    ("normalform.pair_block_at", "adinash.normalform", "SymmetricGame.pair_block_at"),
    ("normalform.deviation_payoffs", "adinash.normalform", "SymmetricGame.deviation_payoffs"),
    ("normalform.expand_to_tensor", "adinash.normalform", "SymmetricGame.expand_to_tensor"),
    ("normalform.StrategyProfile", "adinash.normalform", "StrategyProfile.__init__"),
    ("oracles.block", "adinash.oracles", "TensorOracle.pair_payoffs"),
    ("oracles.block", "adinash.oracles", "SymmetricOracle.symmetric_pair_payoffs"),
    ("oracles.block", "adinash.oracles", "BernoulliOracle.symmetric_pair_payoffs"),
    ("sampling.sample_joint_action", SOLVERS, "sample_joint_action"),
    ("sampling.estimate_pairwise_matrices", SOLVERS, "estimate_pairwise_matrices"),
    ("sampling.update_aux", SOLVERS, "update_aux"),
    ("exact.exact_pairwise_matrices", SOLVERS, "exact_pairwise_matrices"),
    ("exact.PairwiseMatrices.payoff_gradient", "adinash.exact", "PairwiseMatrices.payoff_gradient"),
    ("adi.adi_gradient", SOLVERS, "adi_gradient"),
    ("adi.adi_amortized", SOLVERS, "adi_amortized"),
    ("adi.adi_exact", SOLVERS, "adi_exact"),
    ("entropy.best_response", "adinash.adi", "best_response"),
    ("entropy.best_response", SOLVERS, "best_response"),
    ("simplex.step", SOLVERS, "mirror_step_entropic"),
    ("simplex.step", SOLVERS, "simplex_project_euclidean"),
    ("simplex.tangent_project", SOLVERS, "tangent_project"),
    ("solvers.fit", SOLVERS, "AdidasSolver.fit"),
    ("solvers.fit", SOLVERS, "SymmetricAdidasSolver.fit"),
    ("solvers.fit", SOLVERS, "warmup_anneal_descend"),
    ("solvers.profile_hash", SOLVERS, "profile_hash"),
    ("solvers.log_append", "adinash.solvers.base", "IterateLog.append"),
)

# layers whose filled blocks are payoff queries; their result sizes are summed
QUERY_LAYERS = frozenset({"oracles.block"})
# layers whose first call builds a lazy table, reported as .first_ms
FIRST_CALL_LAYERS = ("normalform.pair_block_at", "normalform.deviation_payoffs")


def _resolve(module_name, path):
    """(owner, attribute, original) for one target; raises if it is missing."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = vars(owner).get(part)
        if owner is None:
            break
    if owner is None or attr not in vars(owner) or not callable(vars(owner)[attr]):
        raise LookupError(f"trace target {module_name}.{path} is missing")
    return owner, attr, vars(owner)[attr]


class Tracer:
    """Records calls, self time and first-call time per layer metric."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.stats = {name: [0, 0.0, None] for name, _, _ in self.targets}
        self.queries = 0
        self._open = []  # child time accumulated by each open span
        self._undo = []

    def install(self):
        resolved = [(name, *_resolve(mod, path)) for name, mod, path in self.targets]
        for name, owner, attr, original in resolved:
            setattr(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        open_spans = self._open
        clock = time.perf_counter
        counts_queries = name in QUERY_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - children
                if stats[2] is None:
                    stats[2] = elapsed
            if counts_queries:
                self.queries += result.size
            return result

        return traced

    def metrics(self):
        """Per-layer metric name -> value, in target order."""
        out = {}
        for name in self.stats:
            calls, self_s, first_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self_s * 1000.0
            if name in FIRST_CALL_LAYERS:
                out[f"{name}.first_ms"] = (first_s or 0.0) * 1000.0
            if name in QUERY_LAYERS:
                out["oracles.queries"] = self.queries
        return out
