"""The benchmark tracer patches adinash names where they are looked up; every
target it lists must still resolve, or the traced benchmark stops with a
LookupError. A helper moved out of the module the tracer patches would still
resolve but record no spans, so each workload also runs once, tiny, under the
tracer, and the layers it reaches are pinned."""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("bench_tracer", BENCH / "tracer.py")
workloads = _load("bench_workloads", BENCH / "workloads.py")

SHARED_LAYERS = {
    "generators.build",
    "normalform.StrategyProfile",
    "simplex.step",
    "simplex.tangent_project",
    "solvers.fit",
}
SOLVER_LAYERS = SHARED_LAYERS | {
    "adi.adi_amortized",
    "entropy.best_response",
    "oracles.block",
    "sampling.update_aux",
    "solvers.log_append",
    "solvers.profile_hash",
}
SYMMETRIC_LAYERS = SOLVER_LAYERS | {
    "adi.adi_gradient",
    "normalform.deviation_payoffs",
    "normalform.pair_block_at",
}
# (layers with at least one call, oracle queries) of one tiny cold solve:
# 30 iterations at query_bound(tiny=True) each, and no oracle in the warm-up
TINY_RUNS = {
    "blotto_sym_sampled": (SYMMETRIC_LAYERS, 67500),
    "covariant_general_sampled": (
        SOLVER_LAYERS
        | {
            "adi.adi_exact",
            "adi.adi_gradient",
            "exact.PairwiseMatrices.payoff_gradient",
            "sampling.estimate_pairwise_matrices",
            "sampling.sample_joint_action",
        },
        3240,
    ),
    "el_farol_warmup_exact": (
        SHARED_LAYERS
        | {
            "adi.adi_gradient",
            "exact.PairwiseMatrices.payoff_gradient",
            "exact.exact_pairwise_matrices",
            "normalform.expand_to_tensor",
        },
        0,
    ),
    "bernoulli_metagame_tsallis": (SYMMETRIC_LAYERS, 13500),
}


@pytest.mark.parametrize(
    "layer,module,path", tracer.TARGETS, ids=[f"{m}.{p}" for _, m, p in tracer.TARGETS]
)
def test_trace_target_resolves(layer, module, path):
    owner, attr, original = tracer._resolve(module, path)
    assert callable(original)
    assert vars(owner)[attr] is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_reaches_its_layers(name):
    workload = workloads.WORKLOADS[name]
    spans = tracer.Tracer().install()
    try:
        built = workload.build(0, True)
        workload.fit(built, workload.seeds(0)[0], True)
    finally:
        spans.uninstall()
    layers, queries = TINY_RUNS[name]
    assert {layer for layer, (calls, _, _) in spans.stats.items() if calls > 0} == layers
    assert spans.queries == queries
    if queries:
        assert queries == workload.query_bound(True) * 30
