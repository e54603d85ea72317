"""Acceptance suite: every release criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to watch them stream)."""

import itertools
import time

import numpy as np
import pytest
from scipy import optimize

from adinash.adi import (
    adi_amortized,
    adi_exact,
    adi_gradient,
    consensus_loss_check,
)
from adinash.entropy import Entropy, best_response, entropy_value
from adinash.exact import exact_pairwise_matrices, payoff_gradient
from adinash.generators import (
    BlottoSpec,
    ElFarolSpec,
    blotto_allocations,
    make_bernoulli_metagame,
    make_blotto,
    make_el_farol,
    make_modified_shapley,
    planted_winrates,
)
from adinash.harness import ExperimentConfig, query_savings_report, run_experiment
from adinash.normalform import StrategyProfile, multiset_count
from adinash.oracles import TensorOracle
from adinash.sampling import (
    AuxiliaryState,
    estimate_pairwise_matrices,
    new_rng,
    sample_joint_action,
    update_aux,
)
from adinash.solvers import (
    AdidasSolver,
    BaselineSolver,
    BaselineState,
    SymmetricAdidasSolver,
    anneal_decision,
    baseline_step,
)

from conftest import finite_difference_adi_gradient, random_game, random_profile


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def blotto_10_3_4():
    return make_blotto(BlottoSpec(10, 3, 4))


def test_criterion_01_known_nash_fixtures(blotto_10_3_4):
    shapley = make_modified_shapley(0.5)
    shapley_adi = adi_exact(
        shapley, StrategyProfile.uniform([3, 3]), Entropy.none()
    ).total

    alloc = blotto_allocations(10, 3)
    field_actions = []
    for field in range(3):
        target = [0, 0, 0]
        target[field] = 10
        field_actions.append(int(np.flatnonzero((alloc == target).all(axis=1))[0]))

    worst = 0.0
    profiles = 0
    for doubled in range(3):
        singles = [f for f in range(3) if f != doubled]
        for pair in itertools.combinations(range(4), 2):
            rest = [p for p in range(4) if p not in pair]
            for order in itertools.permutations(singles):
                actions = [None] * 4
                for p in pair:
                    actions[p] = field_actions[doubled]
                actions[rest[0]] = field_actions[order[0]]
                actions[rest[1]] = field_actions[order[1]]
                profile = StrategyProfile.one_hot(actions, [66] * 4)
                value = adi_exact(blotto_10_3_4, profile, Entropy.none()).total
                worst = max(worst, abs(value))
                profiles += 1

    ok = abs(shapley_adi) <= 1e-9 and worst <= 1e-9 and profiles == 36
    report(
        1,
        ok,
        f"shapley uniform ADI {shapley_adi:.2e}; "
        f"worst over {profiles} pure Blotto permutations {worst:.2e} (tol 1e-9)",
    )


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    games = 0
    for trial in range(20):
        players = 2 if trial % 2 == 0 else 3
        game = random_game(rng, players=players, max_actions=5, low=0.5, high=1.5)
        profile = random_profile(rng, game)
        blocks = exact_pairwise_matrices(game, profile)
        grads = [payoff_gradient(game, profile, i) for i in range(players)]
        nablas = blocks.payoff_gradient(profile)
        for temperature in (1.0, 0.1, 0.01):
            shannon = adi_gradient(blocks, nablas, grads, profile, Entropy.shannon(temperature))
            tsallis = adi_gradient(blocks, nablas, grads, profile, Entropy.tsallis(temperature))
            h = 1e-6 if temperature <= 0.05 else 1e-5
            for analytic, kind in (
                (shannon, Entropy.shannon(temperature)),
                (tsallis, Entropy.tsallis(temperature)),
            ):
                for i in range(players):
                    fd = finite_difference_adi_gradient(game, profile, kind, i, h)
                    rel = np.abs(analytic[i] - fd).max() / max(
                        1.0, np.abs(analytic[i]).max()
                    )
                    worst = max(worst, rel)
        games += 1
    ok = games == 20 and worst <= 1e-4
    report(2, ok, f"max FD relative error over {games} games {worst:.2e} (tol 1e-4)")


def _numeric_tsallis_maximizer(y, power, grid=40):
    """Independent maximizer of z . y + S^p(z): simplex grid plus SLSQP."""
    m = y.size
    kind = Entropy.tsallis(power)
    scale = best_response(y, kind).scale  # the regularizer's fixed scale

    def objective(z):
        return -(float(np.dot(z, y)) + entropy_value(z, kind, scale))

    best_z, best_v = None, np.inf
    for combo in itertools.product(range(grid + 1), repeat=m - 1):
        if sum(combo) > grid:
            continue
        z = np.array(list(combo) + [grid - sum(combo)], dtype=float) / grid
        v = objective(z)
        if v < best_v:
            best_v, best_z = v, z
    result = optimize.minimize(
        objective,
        best_z,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=[{"type": "eq", "fun": lambda z: z.sum() - 1.0}],
        options={"ftol": 1e-16, "maxiter": 500},
    )
    return result.x if result.fun <= best_v else best_z


def test_criterion_03_tsallis_closed_form():
    rng = np.random.default_rng(3)
    powers = np.round(np.arange(0.1, 1.01, 0.1), 2)
    worst_gap = 0.0
    worst_foc = 0.0
    for trial in range(100):
        m = int(rng.integers(2, 4))
        y = rng.uniform(0.05, 2.0, size=m)
        power = float(powers[trial % len(powers)])
        closed = best_response(y, Entropy.tsallis(power))
        numeric = _numeric_tsallis_maximizer(y, power)
        worst_gap = max(worst_gap, np.abs(closed.dist - numeric).max())
        worst_foc = max(
            worst_foc, np.abs(y - closed.scale * closed.dist**power).max()
        )
    ok = worst_gap <= 1e-6 and worst_foc <= 1e-9
    report(
        3,
        ok,
        f"closed form vs numeric maximizer linf {worst_gap:.2e} (tol 1e-6); "
        f"first-order residual {worst_foc:.2e} (tol 1e-9)",
    )


def test_criterion_04_consensus_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(50):
        players = 2 if trial % 3 else 3
        game = random_game(rng, players=players, max_actions=4, low=0.2, high=2.0)
        profile = random_profile(rng, game)
        lhs, rhs = consensus_loss_check(game, profile)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    report(4, ok, f"max |lhs - rhs| over 50 positive games {worst:.2e} (tol 1e-9)")


def test_criterion_05_ed_equals_extragradient():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        game = random_game(rng, players=2, max_actions=4)
        start = random_profile(rng, game)
        ed = BaselineState.initial(game.action_counts)
        ed.profile = start
        xg = BaselineState.initial(game.action_counts)
        xg.profile = start
        for _ in range(100):
            ed = baseline_step("ed", ed, game, 0.05)
            xg = baseline_step("extragrad", xg, game, 0.05)
            for a, b in zip(ed.profile, xg.profile):
                worst = max(worst, float(np.abs(a - b).max()))
    ok = worst <= 1e-12
    report(5, ok, f"max iterate gap over 10 games x 100 steps {worst:.2e} (tol 1e-12)")


def test_criterion_06_blotto_medium_scale(blotto_10_3_4):
    # sampled symmetric descent with amortized estimates and auto annealing;
    # scoring rule: net fields won with even tie splits (documented choice),
    # under which the known pure equilibria verify at zero deviation incentive
    finals = []
    wall_cap = 600.0
    slowest = 0.0
    for seed in range(10):
        t0 = time.perf_counter()
        solver = SymmetricAdidasSolver(
            entropy="shannon",
            initial_temperature=100.0,
            learning_rate=0.015,
            aux_learning_rate=0.1,
            adi_threshold=0.05,
            iterations=12_000,
            samples=10,
            projection="mirror",
            seed=seed,
            exact_adi_every=12_000,
        ).fit(blotto_10_3_4)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        finals.append(solver.log_.final_exact_adi())
    mean_adi = float(np.mean(finals))
    ok = mean_adi <= 0.05 and slowest <= wall_cap
    report(
        6,
        ok,
        f"mean exact ADI over 10 seeds {mean_adi:.4f} (tol 0.05, reference 0.066); "
        f"slowest seed {slowest:.0f}s (cap {wall_cap:.0f}s)",
    )


def test_criterion_07_el_farol_agreement():
    t0 = time.perf_counter()
    game = make_el_farol(ElFarolSpec())
    adidas = SymmetricAdidasSolver(
        entropy="shannon",
        initial_temperature=100.0,
        learning_rate=1e-3,
        aux_learning_rate=0.1,
        adi_threshold=0.01,
        iterations=8000,
        exact_gradients=True,
        seed=7,
        exact_adi_every=2000,
    ).fit(game)
    rm = BaselineSolver(method="rm", iterations=20_000, symmetric=True).fit(game)
    gap = float(np.abs(adidas.strategy_ - rm.strategy_).max())
    adidas_adi = adidas.log_.final_exact_adi()
    rm_adi = rm.log_.final_exact_adi()
    elapsed = time.perf_counter() - t0
    ok = gap <= 0.02 and adidas_adi <= 0.01 and rm_adi <= 0.01 and elapsed <= 120.0
    report(
        7,
        ok,
        f"strategy linf gap {gap:.4f} (tol 0.02); ADI adidas {adidas_adi:.4f}, "
        f"rm {rm_adi:.5f} (tol 0.01); {elapsed:.0f}s (cap 120s)",
    )


def test_criterion_08_sampling_unbiasedness():
    rng = np.random.default_rng(8)
    ok_blocks = True
    for _ in range(2):
        game = random_game(rng, players=3, max_actions=3)
        profile = random_profile(rng, game)
        oracle = TensorOracle(game)
        exact = exact_pairwise_matrices(game, profile)
        draws = 10_000
        total = None
        sample_rng = new_rng(int(rng.integers(1 << 30)))
        for _ in range(draws):
            joint = sample_joint_action(profile, sample_rng)
            blocks = estimate_pairwise_matrices(oracle, joint)
            flat = np.concatenate(
                [blocks.matrix(*key).ravel() for key in blocks.pairs()]
            )
            total = flat if total is None else total + flat
        mean = total / draws
        reference = np.concatenate(
            [exact.matrix(*key).ravel() for key in exact.pairs()]
        )
        sigma = 2.0 / np.sqrt(draws)  # payoff range bound
        ok_blocks = ok_blocks and np.abs(mean - reference).max() <= 3.0 * sigma

    # amortized ADI from converged y under frozen x and a deterministic oracle
    game = random_game(rng, players=3, max_actions=3)
    profile = random_profile(rng, game)
    state = AuxiliaryState.zeros(game.action_counts)
    blocks = exact_pairwise_matrices(game, profile)
    grads = [blocks.payoff_gradient(profile)[i] for i in range(3)]
    for _ in range(400):
        state = update_aux(state, grads, 0.1)
    kind = Entropy.shannon(0.1)
    gap = abs(
        adi_amortized(profile, state.y, kind).total
        - adi_exact(game, profile, kind).total
    )
    ok = ok_blocks and gap <= 1e-6
    report(
        8,
        ok,
        f"sampled blocks within 3 sigma of exact: {ok_blocks}; "
        f"converged amortized vs exact ADI gap {gap:.2e} (tol 1e-6)",
    )


def test_criterion_09_counting_and_savings():
    counts_ok = multiset_count(5, 7) == 330 and multiset_count(21, 7) == 888030
    general = query_savings_report(7, 21, symmetric=False)
    symmetric = query_savings_report(7, 21, symmetric=True)
    general_ok = (
        general.tensor_entries == 7 * 21**7
        and general.queries_per_gradient == (7 * 21) ** 2
        and general.ratio >= 580_000
        and general.ratio_floor == 583_443
    )
    symmetric_ok = (
        symmetric.tensor_entries == 888_030
        and symmetric.queries_per_gradient == 441
        and symmetric.ratio >= 2_000
        and symmetric.ratio_floor == 2_013
    )
    ok = counts_ok and general_ok and symmetric_ok
    report(
        9,
        ok,
        f"multisets 330/888030: {counts_ok}; general ratio {general.ratio_floor} "
        f">= 580000; symmetric ratio {symmetric.ratio_floor} >= 2000",
    )


def test_criterion_10_annealing_semantics():
    checks = []
    # tau = 1 -> 0.5 when estimate < eps and anneal_steps >= 1/eta_y
    kind, steps = anneal_decision(Entropy.shannon(1.0), 0.0005, 100, 0.001, 0.1)
    checks.append(kind.temperature == 0.5 and steps == 0)
    # blocked when the estimate is not strictly below
    kind, _ = anneal_decision(Entropy.shannon(1.0), 0.001, 100, 0.001, 0.1)
    checks.append(kind.temperature == 1.0)
    # blocked when too few steps since the last anneal
    kind, _ = anneal_decision(Entropy.shannon(1.0), 0.0005, 9, 0.001, 0.1)
    checks.append(kind.temperature == 1.0)
    # sub-cutoff temperatures snap to zero
    checks.append(Entropy.shannon(0.0015).anneal().temperature == 0.0)
    checks.append(Entropy.tsallis(0.015).anneal().temperature == 0.0)
    # halving clips into [0, 1] for both families
    checks.append(Entropy.shannon(100.0).anneal().temperature == 1.0)
    checks.append(Entropy.tsallis(1.0).anneal().temperature == 0.5)
    ok = all(checks)
    report(10, ok, f"annealing-rule transitions reproduced: {checks}")


def test_criterion_11_bernoulli_metagame_budget():
    # the real 7-player meta-game needs an external simulator; this is the
    # stated synthetic substitute with planted winrates
    table = planted_winrates(7, 5, seed=0)
    budget = 5 * 223 * 330  # five times the per-entry estimation budget
    queries_per_iteration = 50 * 25
    iterations = budget // queries_per_iteration  # stay under budget by design
    oracle = make_bernoulli_metagame(table, seed=1)
    solver = SymmetricAdidasSolver(
        entropy="tsallis",
        initial_temperature=1.0,
        learning_rate=0.2,
        aux_learning_rate=0.1,
        adi_threshold=0.05,
        iterations=int(iterations),
        samples=50,
        projection="mirror",
        seed=2,
        exact_adi_every=0,
    ).fit(oracle)
    per_player = np.array(solver.log_.column("adi_estimate_unreg")) / 7.0
    crossed = np.flatnonzero(per_player < 0.02)
    cross_iter = int(crossed[0]) + 1 if crossed.size else None
    queries_at_cross = (
        solver.log_.records[crossed[0]]["queries"] if crossed.size else None
    )
    ok = (
        cross_iter is not None
        and cross_iter <= 10_000
        and queries_at_cross < budget
        and solver.queries_ < budget
    )
    report(
        11,
        ok,
        f"amortized per-player ADI < 0.02 at iteration {cross_iter} "
        f"(cap 10^4) after {queries_at_cross} Bernoulli queries "
        f"(budget {budget}); final estimate {per_player[-1]:.4f}",
    )


def test_criterion_12_determinism(tmp_path):
    game = make_modified_shapley(0.5)
    fingerprints = []
    for rerun in range(2):
        solver = AdidasSolver(
            entropy="shannon",
            learning_rate=0.05,
            iterations=120,
            samples=3,
            seed=33,
            run_id="det-check",
            exact_adi_every=30,
        ).fit(game)
        fingerprints.append(solver.log_.csv_bytes())
    same_seed = fingerprints[0] == fingerprints[1]

    def sweep_bytes(outdir, workers):
        config = ExperimentConfig(
            game=game,
            solver="adidas",
            base_params=dict(iterations=40, samples=2, exact_adi_every=10),
            grids={"learning_rate": [0.05, 0.1]},
            repetitions=2,
            output_dir=outdir,
        )
        results, _, _ = run_experiment(config, workers=workers)
        return {r.run_id: open(r.csv_path, "rb").read() for r in results}

    serial = sweep_bytes(str(tmp_path / "w1"), 1)
    parallel = sweep_bytes(str(tmp_path / "w3"), 3)
    ok = same_seed and serial == parallel
    report(
        12,
        ok,
        f"same-seed CSVs bit-identical: {same_seed}; "
        f"worker-count invariance: {serial == parallel}",
    )
