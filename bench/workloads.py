"""The benchmark's four workloads, driven through adinash's public API.

A workload is a generator call (timed as set-up), a list of solver seeds
derived from the benchmark seed, and one solve call per seed. The first solve
in a fresh process is the cold one: it builds the game's lazy tables, and the
solver's exact-ADI evaluations run inside it. The game of each workload is fixed, so the
quality metric compares like with like across seeds; the seed drives every
random draw of the solver and the oracle.

Workloads look adinash's names up through their modules at call time, so the
tracer's patches on those modules see every call.
"""

import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _mod(name):
    return importlib.import_module(name)


@dataclass(frozen=True)
class Outcome:
    """What one solve produced, read after the timed call."""

    strategies: list
    log: object  # IterateLog, or None for the log-free warm-up
    steps: int
    queries: int
    final_adi: float


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    build: Callable  # (seed, tiny) -> game or oracle: the set-up call
    fit: Callable  # (built, solver_seed, tiny) -> fitted solver or profile: the timed call
    outcome: Callable  # (built, fitted, tiny) -> Outcome, untimed
    query_bound: Callable  # (tiny) -> payoff queries one step must cost, exactly
    fits: int  # solver seeds per run; final_adi is their mean

    def seeds(self, seed):
        return [int(seed) * 100 + k for k in range(self.fits)]


def _solver_outcome(built, solver, tiny):
    return Outcome(
        strategies=list(solver.profile_),
        log=solver.log_,
        steps=int(solver.iterations),
        queries=int(solver.queries_),
        final_adi=float(solver.log_.final_exact_adi()),
    )


# -- symmetric Blotto: the multiset-table load --------------------------------

BLOTTO_ITERATIONS = 500
BLOTTO_SAMPLES = 10


def _blotto_spec(tiny):
    gen = _mod("adinash.generators")
    if tiny:
        return gen.BlottoSpec(coins=4, fields=3, players=3)
    return gen.BlottoSpec(coins=10, fields=3, players=4)


def _blotto_build(seed, tiny):
    return _mod("adinash.generators").make_blotto(_blotto_spec(tiny))


def _blotto_fit(game, seed, tiny):
    iterations = 30 if tiny else BLOTTO_ITERATIONS
    # criterion-06 settings; the run ends inside the annealing phase, where
    # the exact ADI barely depends on the seed
    solver = _mod("adinash.solvers.adidas").SymmetricAdidasSolver(
        entropy="shannon",
        initial_temperature=100.0,
        learning_rate=0.015,
        aux_learning_rate=0.1,
        adi_threshold=0.05,
        iterations=iterations,
        samples=BLOTTO_SAMPLES,
        projection="mirror",
        seed=seed,
        exact_adi_every=iterations,
    )
    return solver.fit(game)


def _blotto_bound(tiny):
    return BLOTTO_SAMPLES * _blotto_spec(tiny).action_count ** 2


# -- general covariant game: the general sampled loop ------------------------

COVARIANT_SAMPLES = 2


def _covariant_shape(tiny):
    return (3, 3) if tiny else (4, 6)


def _covariant_build(seed, tiny):
    players, actions = _covariant_shape(tiny)
    return _mod("adinash.generators").make_covariant_random(
        players, actions, correlation=0.0, seed=0
    )


def _covariant_fit(game, seed, tiny):
    solver = _mod("adinash.solvers.adidas").AdidasSolver(
        entropy="shannon",
        initial_temperature=1.0,
        iterations=30 if tiny else 400,
        samples=COVARIANT_SAMPLES,
        seed=seed,
    )
    return solver.fit(game)


def _covariant_bound(tiny):
    players, actions = _covariant_shape(tiny)
    return COVARIANT_SAMPLES * players * (players - 1) * actions**2


# -- El Farol warm-up: exact marginalization ----------------------------------

def _el_farol_spec(tiny):
    return _mod("adinash.generators").ElFarolSpec(players=4 if tiny else 10)


def _el_farol_schedule(tiny):
    """(anneal rounds, descent steps per round)."""
    return (2, 5) if tiny else (4, 80)


def _el_farol_build(seed, tiny):
    return _mod("adinash.generators").make_el_farol(_el_farol_spec(tiny))


def _el_farol_fit(game, seed, tiny):
    # the TestWarmup call at fewer rounds; the game and the call have no
    # random draws, so the seed changes nothing
    rounds, steps = _el_farol_schedule(tiny)
    return _mod("adinash.solvers.adidas").warmup_anneal_descend(
        game,
        anneal_rounds=rounds,
        descent_steps=steps,
        anneal_increment=100.0,
        learning_rate=3.0,
    )


def _el_farol_outcome(game, profile, tiny):
    dense = game.expand_to_tensor()
    none = _mod("adinash.entropy").Entropy.none()
    rounds, steps = _el_farol_schedule(tiny)
    return Outcome(
        strategies=list(profile),
        log=None,
        steps=rounds * steps,
        # no oracle: a step of exact marginalization reads the whole tensor,
        # which is the cost the paper's query bound is set against
        queries=rounds * steps * dense.entry_count,
        final_adi=float(_mod("adinash.adi").adi_exact(dense, profile, none).total),
    )


def _el_farol_bound(tiny):
    spec = _el_farol_spec(tiny)
    return spec.players * 2**spec.players


# -- Bernoulli meta-game: stochastic oracle, Tsallis entropy ------------------

BERNOULLI_SAMPLES = 50


def _bernoulli_shape(tiny):
    return (3, 3) if tiny else (7, 5)


def _bernoulli_build(seed, tiny):
    gen = _mod("adinash.generators")
    players, actions = _bernoulli_shape(tiny)
    table = gen.planted_winrates(players, actions, seed=0)
    return gen.make_bernoulli_metagame(table, seed=seed)


def _bernoulli_fit(oracle, seed, tiny):
    iterations = 30 if tiny else 50
    # criterion-11 settings, ended early while the exact ADI still tracks the
    # annealing schedule more than the draws
    solver = _mod("adinash.solvers.adidas").SymmetricAdidasSolver(
        entropy="tsallis",
        initial_temperature=1.0,
        learning_rate=0.2,
        aux_learning_rate=0.1,
        adi_threshold=0.05,
        iterations=iterations,
        samples=BERNOULLI_SAMPLES,
        projection="mirror",
        seed=seed,
        exact_adi_every=iterations,
    )
    return solver.fit(oracle)


def _bernoulli_bound(tiny):
    return BERNOULLI_SAMPLES * _bernoulli_shape(tiny)[1] ** 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "blotto_sym_sampled",
            _blotto_build,
            _blotto_fit,
            _solver_outcome,
            _blotto_bound,
            fits=3,
        ),
        Workload(
            "covariant_general_sampled",
            _covariant_build,
            _covariant_fit,
            _solver_outcome,
            _covariant_bound,
            fits=8,
        ),
        Workload(
            "el_farol_warmup_exact",
            _el_farol_build,
            _el_farol_fit,
            _el_farol_outcome,
            _el_farol_bound,
            fits=1,
        ),
        Workload(
            "bernoulli_metagame_tsallis",
            _bernoulli_build,
            _bernoulli_fit,
            _solver_outcome,
            _bernoulli_bound,
            fits=8,
        ),
    )
}


def step_times_ms(outcome, fit_s):
    """Per-iteration wall times: the IterateLog wall_ms deltas, or the mean
    step of a log-free call repeated once per step."""
    if outcome.log is None:
        return np.full(outcome.steps, fit_s * 1000.0 / outcome.steps)
    return np.diff(np.concatenate([[0.0], outcome.log.column("wall_ms")]))
