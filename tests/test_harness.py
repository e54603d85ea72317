import os
import pathlib

import numpy as np
import pytest

from adinash.entropy import Entropy
from adinash.generators import make_modified_shapley
from adinash.harness import (
    ExperimentConfig,
    default_sweep_grids,
    measure_gradient_bias,
    query_savings_report,
    run_experiment,
)
from adinash.normalform import GameTensor, StrategyProfile

from conftest import random_game


@pytest.fixture
def pennies():
    u1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return GameTensor.from_player_tensors([u1, -u1])


class TestRunExperiment:
    def test_single_cell_writes_csv(self, pennies, tmp_path):
        config = ExperimentConfig(
            game=pennies,
            solver="adidas",
            base_params=dict(
                iterations=40, exact_gradients=True, learning_rate=0.1,
                exact_adi_every=10,
            ),
            repetitions=1,
            output_dir=str(tmp_path),
        )
        results, summaries, best = run_experiment(config)
        assert len(results) == 1 and results[0].error is None
        content = pathlib.Path(results[0].csv_path).read_text()
        assert content.count("\n") == 41  # header + one row per iteration
        assert os.path.exists(str(tmp_path / "summary.csv"))

    def test_grid_cardinality(self, pennies, tmp_path):
        config = ExperimentConfig(
            game=pennies,
            solver="adidas",
            base_params=dict(iterations=15, exact_gradients=True, exact_adi_every=5),
            grids={"learning_rate": [0.05, 0.1]},
            repetitions=2,
            output_dir=str(tmp_path),
        )
        results, summaries, best = run_experiment(config)
        assert len(results) == 4  # 2 learning rates x 2 seeds
        assert len(summaries) == 2
        assert best in summaries

    def test_seed_stability_across_reruns(self, pennies, tmp_path):
        def one(outdir):
            config = ExperimentConfig(
                game=pennies,
                solver="adidas",
                base_params=dict(iterations=30, samples=2, exact_adi_every=10),
                repetitions=2,
                output_dir=outdir,
            )
            results, _, _ = run_experiment(config)
            return [pathlib.Path(r.csv_path).read_bytes() for r in results]

        a = one(str(tmp_path / "a"))
        b = one(str(tmp_path / "b"))
        assert a == b

    def test_worker_count_does_not_change_output(self, pennies, tmp_path):
        def one(outdir, workers):
            config = ExperimentConfig(
                game=pennies,
                solver="adidas",
                base_params=dict(iterations=25, samples=2, exact_adi_every=5),
                grids={"learning_rate": [0.05, 0.1]},
                repetitions=2,
                output_dir=outdir,
            )
            results, _, _ = run_experiment(config, workers=workers)
            return {r.run_id: pathlib.Path(r.csv_path).read_bytes() for r in results}

        serial = one(str(tmp_path / "serial"), 1)
        parallel = one(str(tmp_path / "parallel"), 3)
        assert serial == parallel

    def test_cell_failure_recorded_run_continues(self, pennies, tmp_path):
        config = ExperimentConfig(
            game=pennies,
            solver="adidas",
            base_params=dict(iterations=10, exact_adi_every=5),
            grids={"learning_rate": [-1.0, 0.1]},  # first cell invalid
            repetitions=1,
            output_dir=str(tmp_path),
        )
        results, summaries, best = run_experiment(config)
        failed = [r for r in results if r.error]
        assert len(failed) == 1
        assert len(summaries) == 1
        assert best.cell == {"learning_rate": 0.1}

    def test_aux_rate_ratio_cells(self, pennies, tmp_path):
        config = ExperimentConfig(
            game=pennies,
            solver="adidas",
            base_params=dict(
                iterations=10, exact_gradients=True, learning_rate=0.01,
                exact_adi_every=5,
            ),
            grids={"aux_rate_ratio": [1.0, 10.0]},
            repetitions=1,
            output_dir=str(tmp_path),
        )
        results, summaries, _ = run_experiment(config)
        assert all(r.error is None for r in results)
        assert len(summaries) == 2

    def test_default_grids_cover_the_sweep_table(self):
        grids = default_sweep_grids()
        assert grids["learning_rate"] == [1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        assert grids["aux_rate_ratio"] == [1.0, 10.0, 100.0]
        assert grids["adi_threshold"] == [0.01, 0.05]
        assert set(grids["projection"]) == {"euclidean", "mirror"}
        assert grids["initial_temperature"] == [0.0, 0.01, 0.05, 0.1]

    def test_default_cells_are_runnable(self):
        from adinash.harness import _resolve_cell_params
        from adinash.solvers import AdidasSolver

        config = ExperimentConfig(game=None, grids=default_sweep_grids())
        cells = config.cells()
        for cell in cells:
            AdidasSolver(**_resolve_cell_params(config.base_params, cell))._validate()
        pairs = {(c["learning_rate"], c["aux_rate_ratio"]) for c in cells}
        # ratio 100 runs up to learning rate 1e-2 (auxiliary rate 1), not at 1e-1
        assert (1e-2, 100.0) in pairs
        assert (1e-1, 10.0) in pairs
        assert (1e-1, 100.0) not in pairs
        assert len(pairs) == 14

    def test_fixed_temperature_run_never_anneals(self, pennies, tmp_path):
        from adinash.solvers import AdidasSolver

        solver = AdidasSolver(
            entropy="shannon",
            initial_temperature=0.05,
            anneal=False,
            adi_threshold=0.5,  # would trigger immediately if annealing
            iterations=60,
            exact_gradients=True,
            exact_adi_every=0,
            seed=0,
        ).fit(pennies)
        assert set(solver.log_.column("temperature")) == {0.05}

    def test_best_cell_selection_prefers_lower_final(self, tmp_path):
        # coordination game: uniform start is far from the pure equilibria,
        # so a longer run strictly lowers the final deviation incentive
        u = np.array([[2.0, 0.0], [0.0, 1.0]])
        game = GameTensor.from_player_tensors([u, u.copy()])
        config = ExperimentConfig(
            game=game,
            solver="adidas",
            base_params=dict(
                exact_gradients=True, learning_rate=0.1, exact_adi_every=5,
                entropy="none",
            ),
            grids={"iterations": [5, 400]},
            repetitions=1,
            output_dir=str(tmp_path),
        )
        _, summaries, best = run_experiment(config)
        assert best.cell == {"iterations": 400}


class TestGradientBias:
    def test_exact_mode_zero_bias(self):
        rng = np.random.default_rng(0)
        game = random_game(rng, players=2)
        x = StrategyProfile.uniform(game.action_counts)
        rows = measure_gradient_bias(
            game, x, [Entropy.shannon(0.1)], [0], trials=3, seed=1
        )
        assert rows[0].distance <= 1e-9

    def test_two_player_blocks_are_exact_for_any_sample(self):
        # with two players there is nothing to marginalize: one sample suffices
        game = make_modified_shapley(0.5)
        x = StrategyProfile.uniform([3, 3])
        rows = measure_gradient_bias(
            game, x, [Entropy.shannon(0.05)], [1], trials=3, seed=2
        )
        assert rows[0].distance <= 1e-9

    def test_bias_decreases_with_samples(self):
        # three players: sampled blocks are noisy and the response operator
        # is nonlinear, so the mean gradient is biased until samples grow
        rng = np.random.default_rng(5)
        game = random_game(rng, players=3, max_actions=3)
        x = StrategyProfile(
            [rng.dirichlet(np.ones(m) * 2.0) for m in game.action_counts]
        )
        rows = measure_gradient_bias(
            game, x, [Entropy.shannon(0.05)], [1, 32], trials=160, seed=2
        )
        by_count = {r.samples: r.distance for r in rows}
        assert by_count[32] < by_count[1]

    def test_temperature_grid_interior_minimizer(self):
        # a desk-scale member of the allocation-game family: zero temperature
        # is heavily biased, high temperature distorts the target, and some
        # middle temperature aligns best with the expected gradient
        from adinash.generators import BlottoSpec, make_blotto

        game = make_blotto(BlottoSpec(5, 3, 3)).expand_to_tensor()
        m = game.action_counts[0]
        rng = np.random.default_rng(9)
        x = StrategyProfile([rng.dirichlet(np.ones(m))] * 3)
        kinds = [Entropy.shannon(t) for t in (0.0, 0.05, 2.0)]
        rows = measure_gradient_bias(game, x, kinds, [1], trials=150, seed=4)
        dist = {r.temperature: r.distance_to_unregularized for r in rows}
        assert dist[0.05] < dist[0.0]
        assert dist[0.05] < dist[2.0]

    @pytest.mark.parametrize(
        "trials, counts, name",
        [
            (0, [1], "trials"),
            (2.5, [1], "trials"),
            (2, [-1], "sample_counts"),
            (2, [1.5], "sample_counts"),
        ],
    )
    def test_rejects_bad_counts_by_name(self, trials, counts, name):
        # trials=0 gave NaN rows, a negative count an IndexError
        game = make_modified_shapley(0.5)
        x = StrategyProfile.uniform([3, 3])
        with pytest.raises(ValueError, match=name):
            measure_gradient_bias(game, x, [Entropy.shannon(0.1)], counts, trials=trials)

    def test_rejects_a_one_player_game(self):
        game = GameTensor(np.zeros((1, 3)))
        with pytest.raises(ValueError, match="players=1"):
            measure_gradient_bias(game, [np.full(3, 1 / 3)], [Entropy.none()], [0, 1], trials=1)

    def test_rows_carry_kind_metadata(self):
        game = make_modified_shapley(0.5)
        x = StrategyProfile.uniform([3, 3])
        rows = measure_gradient_bias(
            game, x, [Entropy.shannon(0.0), Entropy.shannon(1.0)], [0, 1], trials=2, seed=3
        )
        assert {(r.family, r.temperature) for r in rows} == {
            ("shannon", 0.0),
            ("shannon", 1.0),
        }


class TestSavingsReport:
    def test_seven_player_21_action_general(self):
        rep = query_savings_report(7, 21)
        assert rep.tensor_entries == 7 * 21**7
        assert rep.queries_per_gradient == (7 * 21) ** 2
        assert rep.ratio_floor == 583443
        assert rep.ratio >= 580_000

    def test_seven_player_21_action_symmetric(self):
        rep = query_savings_report(7, 21, symmetric=True)
        assert rep.tensor_entries == 888_030
        assert rep.queries_per_gradient == 441
        assert rep.ratio_floor == 2013
        assert rep.ratio >= 2_000

    def test_two_player_ratio(self):
        rep = query_savings_report(2, 5)
        assert rep.ratio == pytest.approx(0.5)  # (1/n) m^(n-2) at n=2
