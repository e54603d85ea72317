import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adinash.adi import adi_exact
from adinash.entropy import Entropy, best_response
from adinash.generators import (
    ElFarolSpec,
    make_bernoulli_metagame,
    make_el_farol,
    make_modified_shapley,
    planted_winrates,
)
from adinash.harness import measure_gradient_bias
from adinash.normalform import GameTensor, StrategyProfile, SymmetricGame
from adinash.oracles import SymmetricOracle, TensorOracle
from adinash.simplex import is_distribution
from adinash.solvers import (
    AdidasSolver,
    BaselineSolver,
    SymmetricAdidasSolver,
    anneal_decision,
    tsallis_offset,
    warmup_anneal_descend,
)
from conftest import symmetric_games


class TestAnnealDecision:
    def test_triggers_on_both_conditions(self):
        kind, steps = anneal_decision(Entropy.shannon(1.0), 0.0005, 100, 0.001, 0.1)
        assert kind.temperature == 0.5
        assert steps == 0

    def test_requires_low_estimate(self):
        kind, steps = anneal_decision(Entropy.shannon(1.0), 0.002, 100, 0.001, 0.1)
        assert kind.temperature == 1.0
        assert steps == 101

    def test_requires_elapsed_steps(self):
        kind, steps = anneal_decision(Entropy.shannon(1.0), 0.0005, 9, 0.001, 0.1)
        assert kind.temperature == 1.0
        assert steps == 10

    def test_strict_inequality_on_estimate(self):
        kind, steps = anneal_decision(Entropy.shannon(1.0), 0.001, 100, 0.001, 0.1)
        assert kind.temperature == 1.0  # estimate == threshold does not anneal

    def test_boundary_steps_inclusive(self):
        kind, steps = anneal_decision(Entropy.shannon(1.0), 0.0005, 10, 0.001, 0.1)
        assert kind.temperature == 0.5  # anneal_steps == 1/rate qualifies

    def test_snap_below_cutoff(self):
        kind, _ = anneal_decision(Entropy.shannon(0.0015), 0.0, 1000, 0.01, 0.1)
        assert kind.temperature == 0.0

    def test_tsallis_clip_into_unit_interval(self):
        kind, _ = anneal_decision(Entropy.tsallis(1.0), 0.0, 1000, 0.01, 0.1)
        assert kind.temperature == 0.5
        kind2, _ = anneal_decision(Entropy.shannon(100.0), 0.0, 1000, 0.01, 0.1)
        assert kind2.temperature == 1.0  # halving clips into [0, 1]


class TestAdidasSolver:
    def test_matching_pennies_exact_mode(self, matching_pennies):
        solver = AdidasSolver(
            entropy="shannon",
            learning_rate=0.1,
            aux_learning_rate=0.1,
            adi_threshold=0.01,
            iterations=2000,
            exact_gradients=True,
            seed=3,
        ).fit(matching_pennies)
        assert solver.log_.final_exact_adi() <= 1e-3
        for s in solver.profile_:
            assert np.abs(s - 0.5).max() <= 0.01

    def test_sampled_matching_pennies(self, matching_pennies):
        solver = AdidasSolver(
            entropy="shannon",
            learning_rate=0.05,
            aux_learning_rate=0.1,
            adi_threshold=0.01,
            iterations=4000,
            samples=2,
            seed=5,
        ).fit(matching_pennies)
        assert solver.log_.final_exact_adi() <= 0.01
        assert solver.queries_ == 4000 * 2 * 2 * 4  # s * pairs * block entries

    def test_iterates_stay_on_simplex(self, matching_pennies):
        for projection in ("euclidean", "mirror"):
            solver = AdidasSolver(
                entropy="shannon",
                learning_rate=0.2,
                iterations=300,
                projection=projection,
                exact_gradients=True,
                seed=0,
                exact_adi_every=0,
            ).fit(matching_pennies)
            for s in solver.profile_:
                assert is_distribution(s, tol=1e-9)

    def test_temperature_never_increases(self, matching_pennies):
        solver = AdidasSolver(
            entropy="shannon",
            learning_rate=0.05,
            iterations=1500,
            exact_gradients=True,
            seed=1,
        ).fit(matching_pennies)
        temps = solver.log_.column("temperature")
        assert all(b <= a for a, b in zip(temps, temps[1:]))

    def test_seed_determinism_bitwise(self, matching_pennies):
        runs = []
        for _ in range(2):
            solver = AdidasSolver(
                entropy="shannon",
                learning_rate=0.05,
                iterations=200,
                samples=3,
                seed=11,
                run_id="det",
            ).fit(matching_pennies)
            runs.append(solver.log_.csv_bytes())
        assert runs[0] == runs[1]

    def test_distinct_seeds_differ(self, matching_pennies):
        a = AdidasSolver(iterations=100, samples=2, seed=1, run_id="x").fit(
            matching_pennies
        )
        b = AdidasSolver(iterations=100, samples=2, seed=2, run_id="x").fit(
            matching_pennies
        )
        assert a.log_.csv_bytes() != b.log_.csv_bytes()

    def test_shapley_tsallis_offset_applied(self):
        game = make_modified_shapley(0.5)
        solver = AdidasSolver(
            entropy="tsallis",
            initial_temperature=1.0,
            learning_rate=0.02,
            iterations=400,
            exact_gradients=True,
            seed=2,
            exact_adi_every=0,
        ).fit(game)
        assert solver.payoff_offset_ > 0.5  # payoffs include -beta
        # shift-invariance of the unregularized metric keeps ADI meaningful
        report = adi_exact(game, solver.profile_, Entropy.none())
        assert report.total < 2.0

    def test_exact_gradients_need_a_game(self, matching_pennies):
        oracle = TensorOracle(matching_pennies)
        with pytest.raises(ValueError):
            AdidasSolver(exact_gradients=True).fit(oracle)

    @pytest.mark.parametrize(
        "source",
        [
            lambda: make_el_farol(ElFarolSpec(players=3)),
            lambda: make_bernoulli_metagame(planted_winrates(3, 3, seed=0), seed=0),
        ],
        ids=["el-farol", "bernoulli"],
    )
    def test_exact_gradients_on_a_symmetric_game(self, source):
        # the compressed desk game is expanded for the exact blocks, so the
        # run follows the dense game's trajectory (it raised TypeError)
        game = source()
        params = dict(exact_gradients=True, iterations=20, seed=0, exact_adi_every=0)
        fitted = AdidasSolver(**params).fit(game)
        desk = game.mean_game() if hasattr(game, "mean_game") else game
        dense = AdidasSolver(**params).fit(desk.expand_to_tensor())
        for got, want in zip(fitted.profile_, dense.profile_):
            assert np.array_equal(got, want)
        assert fitted.queries_ == 0

    def test_exact_adi_of_a_symmetric_game_reads_its_expansion(self, monkeypatch):
        # exact ADI comes from the expanded tensor the exact blocks read, never
        # from enumerating opponent supports on the compressed game
        from adinash import exact
        from adinash.solvers import adidas

        def enumerate_supports(*args):
            raise AssertionError("exact ADI enumerated the compressed game")

        profiles = []

        def recorded(game, profile, kind):
            profiles.append(profile)
            return adi_exact(game, profile, kind)

        monkeypatch.setattr(exact, "_symmetric_deviation_payoffs", enumerate_supports)
        monkeypatch.setattr(adidas, "adi_exact", recorded)
        game = make_el_farol(ElFarolSpec(players=5))
        fitted = AdidasSolver(iterations=20, samples=1, seed=0, exact_adi_every=20).fit(game)
        dense = adi_exact(game.expand_to_tensor(), profiles[-1], Entropy.none()).total
        assert fitted.log_.final["adi_exact"] == dense

    def test_exact_adi_past_desk_scale_is_rejected_before_a_step(self, monkeypatch):
        from adinash.solvers import adidas

        def no_step(*args):
            raise AssertionError("the fit took a step")

        game = make_el_farol(ElFarolSpec(players=30))
        monkeypatch.setattr(adidas, "descent_step", no_step)
        with pytest.raises(ValueError, match="exact_adi_every"):
            AdidasSolver(iterations=2, exact_adi_every=1).fit(game)
        monkeypatch.undo()
        # by default such a fit logs no exact ADI, and a cadence of 0 asks for none
        for every in (None, 0):
            fitted = AdidasSolver(iterations=2, exact_adi_every=every).fit(game)
            assert np.isnan(fitted.log_.final_exact_adi())

    @pytest.mark.parametrize(
        "who, run",
        [
            ("exact_gradients", lambda game: AdidasSolver(
                iterations=2, exact_gradients=True, exact_adi_every=0
            ).fit(game)),
            ("BaselineSolver", lambda game: BaselineSolver(method="rm", iterations=2).fit(game)),
            ("warmup_anneal_descend", lambda game: warmup_anneal_descend(game, 1, 1, 1.0)),
            ("measure_gradient_bias", lambda game: measure_gradient_bias(
                game, [np.full(2, 0.5)] * 30, [Entropy.none()], [0], trials=1
            )),
        ],
        ids=["exact-gradients", "baseline", "warmup", "bias"],
    )
    def test_dense_expansion_past_desk_scale_is_named_before_a_step(self, monkeypatch, who, run):
        from adinash.solvers import adidas, baselines

        def no_step(*args):
            raise AssertionError("a step or an expansion was attempted")

        monkeypatch.setattr(adidas, "descent_step", no_step)
        monkeypatch.setattr(baselines, "baseline_step", no_step)
        monkeypatch.setattr(SymmetricGame, "expand_to_tensor", no_step)
        # El Farol(30) expands to 30 * 2**30 entries
        expands = "which expands this game to 32212254720 entries, over DESK_SCALE_ENTRIES"
        with pytest.raises(ValueError, match=rf"^{who} .*, {expands}"):
            run(make_el_farol(ElFarolSpec(players=30)))

    @pytest.mark.parametrize(
        "source",
        [
            lambda: make_el_farol(ElFarolSpec(players=2)),
            lambda: make_bernoulli_metagame(planted_winrates(2, 3, seed=0), seed=0),
        ],
        ids=["el-farol", "bernoulli"],
    )
    def test_sampled_two_player_symmetric_game(self, source):
        # a two-player symmetric read has an empty rest per pair
        game = source()
        fitted = AdidasSolver(iterations=3, samples=2, seed=0, exact_adi_every=0).fit(game)
        assert all(is_distribution(s) for s in fitted.profile_)
        assert fitted.queries_ == 3 * 2 * 2 * game.action_counts[0] ** 2

    def test_sampled_symmetric_oracle_past_66_players(self):
        game = make_el_farol(ElFarolSpec(players=100))
        fitted = AdidasSolver(iterations=2, samples=1, seed=0, exact_adi_every=0).fit(
            SymmetricOracle(game)
        )
        assert all(is_distribution(s) for s in fitted.profile_)
        assert fitted.queries_ == 2 * 100 * 99 * 2**2

    @pytest.mark.parametrize("solver_type", [AdidasSolver, SymmetricAdidasSolver])
    @pytest.mark.parametrize(
        "name,value",
        [
            (name, value)
            for name in (
                "learning_rate",
                "aux_learning_rate",
                "adi_threshold",
                "initial_temperature",
            )
            for value in (float("nan"), float("inf"))
        ]
        + [("samples", 0), ("aux_learning_rate", 2.0), ("exact_adi_every", -1)]
        + [
            ("iterations", 2.5),
            ("samples", 1.5),
            ("samples", True),
            ("exact_adi_every", 2.5),
        ]
        + [("projection", "sinkhorn"), ("projection", None)]
        + [
            (name, value)
            for name in ("exact_gradients", "tangent_projection", "average_iterates", "anneal")
            for value in ("no", 1, None)
        ],
    )
    def test_rejects_bad_hyperparameter_by_name(self, solver_type, name, value):
        # NaN slips through "<= 0" checks: it used to run without annealing
        # or fail deep inside the loop; aux_learning_rate=2 failed at the
        # first aux update without naming it, exact_adi_every=-1 ran an
        # exact evaluation every iteration, and non-integer counts were
        # truncated (iterations=2.5 ran 2 iterations); an unknown projection
        # failed only inside the first step, after its queries, and
        # anneal="no" annealed
        game = make_el_farol(ElFarolSpec(players=3))
        solver = solver_type(**{"entropy": "shannon", "iterations": 5, name: value})
        with pytest.raises(ValueError, match=name):
            solver.fit(game)
        oracle = SymmetricOracle(game)
        with pytest.raises(ValueError, match=name):
            solver.fit(oracle)
        assert oracle.queries == 0

    def test_numpy_bools_are_bools(self):
        game = make_el_farol(ElFarolSpec(players=3))
        flags = dict(tangent_projection=np.True_, average_iterates=np.False_, anneal=np.False_)
        plain = {name: bool(value) for name, value in flags.items()}
        got = AdidasSolver(iterations=5, exact_gradients=np.True_, **flags).fit(game)
        want = AdidasSolver(iterations=5, exact_gradients=True, **plain).fit(game)
        assert got.profile_.stack.tobytes() == want.profile_.stack.tobytes()

    def test_get_set_params_roundtrip(self):
        solver = AdidasSolver(learning_rate=0.3, samples=7)
        params = solver.get_params()
        clone = AdidasSolver(**params)
        assert clone.get_params() == params
        clone.set_params(samples=9)
        assert clone.samples == 9
        with pytest.raises(ValueError):
            clone.set_params(nonsense=1)

    def test_functional_surface(self, matching_pennies):
        solver = AdidasSolver(
            entropy="shannon",
            learning_rate=0.1,
            iterations=500,
            exact_gradients=True,
            seed=0,
        ).fit(matching_pennies)
        assert isinstance(solver.profile_, StrategyProfile)
        assert len(solver.log_) == 500

    def test_average_iterates_logging(self, matching_pennies):
        solver = AdidasSolver(
            iterations=300,
            exact_gradients=True,
            learning_rate=0.1,
            average_iterates=True,
            seed=0,
        ).fit(matching_pennies)
        assert is_distribution(solver.profile_[0])
        assert solver.last_profile_ is not solver.profile_


class TestSymmetricAdidas:
    def test_rps_uniform(self):
        def rps(own, opp):
            # 0 beats 2, 1 beats 0, 2 beats 1
            beats = (own - opp[:, 0]) % 3 == 1
            return np.where(own == opp[:, 0], 0.0, np.where(beats, 1.0, -1.0))

        game = SymmetricGame.from_batch_function(2, 3, rps)
        solver = SymmetricAdidasSolver(
            entropy="shannon",
            learning_rate=0.1,
            aux_learning_rate=0.1,
            adi_threshold=0.01,
            iterations=2500,
            exact_gradients=True,
            seed=1,
        ).fit(game)
        assert np.abs(solver.strategy_ - 1 / 3).max() <= 0.01
        assert solver.log_.final_exact_adi() <= 1e-3

    def test_el_farol_sampled(self):
        # with finite samples the iterate hovers near the mixed equilibrium;
        # the noise floor is checked loosely, the query accounting exactly
        game = make_el_farol(ElFarolSpec())
        solver = SymmetricAdidasSolver(
            entropy="shannon",
            initial_temperature=100.0,
            learning_rate=5e-3,
            aux_learning_rate=0.1,
            adi_threshold=0.01,
            iterations=8000,
            samples=4,
            projection="mirror",
            seed=3,
            exact_adi_every=2000,
        ).fit(game)
        assert abs(solver.strategy_[0] - 0.7138) <= 0.05
        assert solver.log_.final_exact_adi() <= 0.5
        assert solver.queries_ == 8000 * 4 * 4  # samples * m^2

    def test_el_farol_past_66_players(self):
        # ranking 99 two-action opponents once read comb(67, 33) > 2^63
        game = make_el_farol(ElFarolSpec(players=100))
        solver = SymmetricAdidasSolver(
            entropy="shannon", iterations=50, samples=4, seed=0, exact_adi_every=25
        ).fit(game)
        assert is_distribution(solver.strategy_)
        assert np.isfinite(solver.log_.final_exact_adi())
        # every step costs samples * m^2 queries, whatever the player count
        queries = np.array(solver.log_.column("queries"))
        assert np.array_equal(np.diff(queries, prepend=0), np.full(50, 4 * 2**2))

    def test_rejects_asymmetric_input(self, matching_pennies):
        # a dense tensor is not accepted even if it happens to be symmetric
        with pytest.raises(ValueError):
            SymmetricAdidasSolver().fit(matching_pennies)

    def test_seed_determinism(self):
        game = make_el_farol(ElFarolSpec())
        logs = []
        for _ in range(2):
            s = SymmetricAdidasSolver(
                entropy="shannon",
                learning_rate=0.01,
                iterations=150,
                samples=2,
                seed=21,
                run_id="det",
                exact_adi_every=50,
            ).fit(game)
            logs.append(s.log_.csv_bytes())
        assert logs[0] == logs[1]

    def test_params_are_the_general_solvers_with_tsallis_default(self):
        general = AdidasSolver().get_params()
        shared = SymmetricAdidasSolver().get_params()
        assert shared == {**general, "entropy": "tsallis"}
        clone = SymmetricAdidasSolver(entropy="shannon", samples=3).clone(seed=4)
        assert clone.get_params() == {
            **general, "entropy": "shannon", "samples": 3, "seed": 4
        }

    def test_functional_surface(self):
        game = make_el_farol(ElFarolSpec())
        solver = SymmetricAdidasSolver(
            entropy="shannon", learning_rate=0.01, iterations=100, seed=0
        ).fit(game)
        assert solver.strategy_.shape == (2,)
        assert len(solver.log_) == 100


AGREEMENT_ENTROPIES = [
    ("shannon", 0.3),
    ("shannon", 0.0),
    ("none", 0.0),
    ("tsallis", 0.4),
    ("tsallis", 0.0),
    ("tsallis", 1.0),
]


class TestSymmetricGeneralAgreement:
    def _game(self):
        def payoff(own, opponents):
            return own * 0.7 - 0.2 * opponents.sum(axis=1) + 0.05 * own * opponents.max(axis=1)

        return SymmetricGame.from_batch_function(4, 3, payoff)

    @staticmethod
    def _check_shared_gradient(game, entropy, temp, rng, draws):
        # from a shared strategy, the single-strategy gradient must equal any
        # player's gradient under the full pairwise assembly
        from adinash.adi import adi_gradient
        from adinash.exact import SharedBlock, exact_pairwise_matrices
        from adinash.solvers.adidas import blocks_gradient, tsallis_offset

        if entropy == "tsallis":
            game = game.offset(tsallis_offset(game))
        dense = game.expand_to_tensor()
        n, m = game.players, game.actions
        kind = Entropy(entropy, temp)
        for _ in range(draws):
            x = rng.dirichlet(np.ones(m) * 2.0)
            profile = StrategyProfile([x] * n)
            blocks = exact_pairwise_matrices(dense, profile)
            grads = [blocks.payoff_gradient(profile)[i] for i in range(n)]
            general = adi_gradient(blocks, grads, best_response(grads, kind), profile, kind)
            own = game.pair_payoff_matrix(x)
            responses = best_response(grads[:1], kind)
            shared = adi_gradient(SharedBlock(own, n), [own @ x], responses, [x], kind)[0]
            (warmup,) = blocks_gradient(SharedBlock(own, n), [x], kind)
            for g in general:
                assert np.allclose(shared, g, atol=1e-9)
                assert np.allclose(warmup, g, atol=1e-9)

    @pytest.mark.parametrize("entropy,temp", AGREEMENT_ENTROPIES)
    def test_shared_gradient_matches_general_pipeline(self, entropy, temp):
        self._check_shared_gradient(self._game(), entropy, temp, np.random.default_rng(0), 5)

    @settings(max_examples=40, deadline=None)
    @given(symmetric_games(), st.sampled_from(AGREEMENT_ENTROPIES), st.integers(0, 2**32 - 1))
    def test_shared_gradient_matches_general_pipeline_on_random_games(
        self, game, entropy_temp, seed
    ):
        self._check_shared_gradient(game, *entropy_temp, np.random.default_rng(seed), 2)

    def test_solver_trajectories_agree(self):
        game = self._game()
        dense = game.expand_to_tensor()
        shared = SymmetricAdidasSolver(
            entropy="shannon",
            initial_temperature=1.0,
            learning_rate=0.05,
            iterations=80,
            exact_gradients=True,
            seed=0,
            exact_adi_every=0,
        ).fit(game)
        general = AdidasSolver(
            entropy="shannon",
            initial_temperature=1.0,
            learning_rate=0.05,
            iterations=80,
            exact_gradients=True,
            seed=0,
            exact_adi_every=0,
        ).fit(dense)
        for s in general.profile_:
            assert np.allclose(s, shared.strategy_, atol=1e-9)


class TestCovariantGame:
    def test_adidas_reduces_adi_on_six_player_covariant(self):
        # the nonsymmetric many-player domain where no-regret play stalls;
        # annealed exact-gradient descent must cut the deviation incentive
        from adinash.generators import make_covariant_random

        game = make_covariant_random(6, 5, correlation=0.3, seed=13)
        uniform = StrategyProfile.uniform(game.action_counts)
        start = adi_exact(game, uniform, Entropy.none()).total
        solver = AdidasSolver(
            entropy="shannon",
            initial_temperature=1.0,
            learning_rate=0.02,
            aux_learning_rate=0.1,
            adi_threshold=0.05,
            iterations=400,
            exact_gradients=True,
            seed=0,
            exact_adi_every=100,
        ).fit(game)
        final = solver.log_.final_exact_adi()
        assert final <= 0.5 * start


class TestWarmup:
    def test_el_farol_reaches_low_adi(self):
        game = make_el_farol(ElFarolSpec())
        profile = warmup_anneal_descend(
            game, anneal_rounds=50, descent_steps=80, anneal_increment=100.0,
            learning_rate=3.0,
        )
        dense = game.expand_to_tensor()
        report = adi_exact(dense, profile, Entropy.none())
        assert report.total <= 0.01
        # the attendance equilibrium, not some boundary point
        assert abs(profile[0][0] - 0.7138) <= 0.02

    def test_shapley_stays_at_uniform(self):
        game = make_modified_shapley(0.5)
        profile = warmup_anneal_descend(
            game, anneal_rounds=8, descent_steps=25, anneal_increment=0.5,
            learning_rate=0.05,
        )
        for s in profile:
            assert np.abs(s - 1 / 3).max() <= 1e-6

    def test_symmetric_game_follows_its_expansion(self):
        # both step through the general view of the dense tensor, bit for bit
        game = make_el_farol(ElFarolSpec(players=5))
        schedule = dict(
            anneal_rounds=2, descent_steps=20, anneal_increment=10.0, learning_rate=1.0
        )
        compressed = warmup_anneal_descend(game, **schedule)
        expanded = warmup_anneal_descend(game.expand_to_tensor(), **schedule)
        for got, want in zip(compressed, expanded):
            assert np.array_equal(got, want)

    def test_tsallis_applies_no_offset(self):
        # shifted down, every Shapley payoff gradient is negative (uniform is
        # its fixed point, so unshifted ones stay at 1/6); the solver offsets
        # the game, the warm-up descends it as given and the response fails
        game = make_modified_shapley(0.5).offset(-1.0)
        solver = AdidasSolver(entropy="tsallis", iterations=1, exact_gradients=True)
        assert solver.fit(game).payoff_offset_ > 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            warmup_anneal_descend(game, 1, 1, 1.0, entropy_family="tsallis")

    def test_rejects_a_bare_oracle(self, matching_pennies):
        with pytest.raises(ValueError, match="desk-scale"):
            warmup_anneal_descend(TensorOracle(matching_pennies), 1, 1, 1.0)

    @pytest.mark.parametrize(
        "rounds,steps,name,rates",
        [
            pytest.param(*case, {}, id="-".join(map(str, case)))
            for case in [
                (2.5, 3, "anneal_rounds"), (2, 3.7, "descent_steps"), (-1, 3, "anneal_rounds"),
                (True, 3, "anneal_rounds"), (2, float("nan"), "descent_steps"),
            ]
        ]
        + [
            pytest.param(2, 3, name, {name: value}, id=f"{name}={value}")
            for name in ("anneal_increment", "learning_rate")
            for value in (0.0, -1.0, float("nan"), float("inf"))
        ],
    )
    def test_rejects_non_integer_schedule_by_name(self, rounds, steps, name, rates):
        # (2.5, 3.7) used to run silently as (2, 3); an increment of 0 raised
        # ZeroDivisionError, of NaN or -1 an error about the Shannon
        # temperature, a NaN rate FloatingPointError, and a rate of -1 ran
        with pytest.raises(ValueError, match=name):
            warmup_anneal_descend(make_modified_shapley(), rounds, steps, **{
                "anneal_increment": 1.0, **rates
            })

    @pytest.mark.parametrize("family", ["bogus", "none", None])
    @pytest.mark.parametrize("rounds", [0, 1])
    def test_rejects_an_unknown_entropy_family_by_name(self, matching_pennies, family, rounds):
        # "bogus" with no rounds returned uniform, and "none" failed in round 1
        # with "unregularized kind carries no temperature"
        with pytest.raises(ValueError, match="entropy_family"):
            warmup_anneal_descend(matching_pennies, rounds, 1, 1.0, entropy_family=family)

    def test_zero_rounds_returns_uniform(self, matching_pennies):
        profile = warmup_anneal_descend(
            matching_pennies, anneal_rounds=0, descent_steps=10, anneal_increment=1.0
        )
        for s in profile:
            assert np.allclose(s, 0.5)


@pytest.mark.parametrize(
    "run",
    [
        lambda g: AdidasSolver(iterations=2).fit(g),
        lambda g: AdidasSolver(iterations=2, exact_gradients=True).fit(g),
        lambda g: warmup_anneal_descend(g, 1, 1, 1.0),
    ],
    ids=["sampled", "exact", "warmup"],
)
def test_one_player_game_is_rejected_by_count(run):
    # it failed at the first step: "cannot reshape array of size 0"
    with pytest.raises(ValueError, match="players=1"):
        run(GameTensor(np.zeros((1, 3))))


def test_one_player_oracle_is_rejected_before_any_query():
    oracle = TensorOracle(GameTensor(np.zeros((1, 3))))
    with pytest.raises(ValueError, match="players=1"):
        AdidasSolver(iterations=2).fit(oracle)
    assert oracle.queries == 0


@pytest.mark.parametrize(
    "run",
    [
        lambda g: AdidasSolver(exact_gradients=True, entropy="none", iterations=5).fit(g),
        lambda g: BaselineSolver(method="ped", iterations=5, learning_rate=0.1).fit(g),
        lambda g: warmup_anneal_descend(g, 1, 5, 1.0),
    ],
    ids=["adidas", "ped", "warmup"],
)
def test_overflowing_tangent_projection_is_numeric_failure(run):
    # the gradient entries are finite but their sum overflows in the tangent
    # projection; this used to surface as ValueError from the simplex step
    rng = np.random.default_rng(0)
    game = GameTensor(rng.choice([-1.7e308, 1.7e308], size=(2, 3, 3)) * rng.random((2, 3, 3)))
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
        run(game)


@pytest.mark.parametrize(
    "run",
    [
        lambda g: BaselineSolver(method="ped", iterations=5, learning_rate=1e10).fit(g),
        lambda g: BaselineSolver(method="ftrl", iterations=5, learning_rate=1e10).fit(g),
        lambda g: BaselineSolver(method="ed", iterations=5, learning_rate=1e10).fit(g),
        lambda g: BaselineSolver(
            method="extragrad", iterations=5, learning_rate=1e10, inner_step=1e10
        ).fit(g),
        lambda g: AdidasSolver(
            exact_gradients=True, entropy="none", iterations=5, learning_rate=1e10
        ).fit(g),
    ],
    ids=["ped", "ftrl", "ed", "extragrad", "adidas"],
)
def test_overflowing_step_is_numeric_failure(run):
    # the gradients are finite but the step itself overflows; this used to
    # surface as ValueError from the simplex projection
    game = GameTensor(np.random.default_rng(0).uniform(-1e300, 1e300, (2, 3, 3)))
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="overflowed"):
        run(game)


def test_tsallis_offset_margin():
    game = make_modified_shapley(0.5)  # payoffs span [-0.5, 1]
    off = tsallis_offset(game)
    assert off == pytest.approx(0.5 + 0.05 * 1.5)
    assert tsallis_offset(GameTensor(np.full((2, 2, 2), 3.0))) == 0.0


def test_monotone_descent_between_anneals():
    # exact-gradient run on El Farol: between anneals the exact regularized
    # deviation incentive must not increase by more than the step tolerance
    game = make_el_farol(ElFarolSpec())
    dense = game.expand_to_tensor()
    solver = AdidasSolver(
        entropy="shannon",
        initial_temperature=100.0,
        learning_rate=1e-3,
        aux_learning_rate=0.1,
        adi_threshold=0.01,
        iterations=400,
        exact_gradients=True,
        seed=0,
        exact_adi_every=0,
    )
    # replicate the loop manually to capture regularized ADI per step
    from adinash.exact import exact_pairwise_matrices
    from adinash.adi import adi_gradient
    from adinash.simplex import simplex_project_euclidean, tangent_project

    x = StrategyProfile.uniform(dense.action_counts)
    kind = Entropy.shannon(1.0)
    values = []
    for _ in range(60):
        blocks = exact_pairwise_matrices(dense, x)
        grads = [blocks.payoff_gradient(x)[i] for i in range(dense.players)]
        values.append(adi_exact(dense, x, kind).total)
        step = adi_gradient(blocks, grads, best_response(grads, kind), x, kind)
        x = StrategyProfile(
            [
                simplex_project_euclidean(x[i] - 1e-3 * tangent_project(step[i]))
                for i in range(dense.players)
            ]
        )
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-6)


@pytest.mark.parametrize(
    "step",
    [
        lambda g: AdidasSolver(iterations=1, samples=3, exact_adi_every=0).fit(g),
        lambda g: AdidasSolver(iterations=1, exact_gradients=True, exact_adi_every=0).fit(g),
        lambda g: warmup_anneal_descend(g, 1, 1, 1.0),
    ],
    ids=["sampled", "exact", "warmup"],
)
def test_one_step_builds_each_payoff_gradient_once(step, monkeypatch):
    # the aux update and the ADI gradient share one set of payoff gradients,
    # built for every player by one call on the stacked blocks
    from adinash.exact import PairwiseMatrices

    calls = []
    original = PairwiseMatrices.payoff_gradient

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(PairwiseMatrices, "payoff_gradient", counted)
    step(make_el_farol(ElFarolSpec(players=4)).expand_to_tensor())
    assert len(calls) == 1


@pytest.mark.parametrize(
    "fit",
    [
        lambda g: AdidasSolver(entropy="shannon", iterations=30, exact_adi_every=0).fit(g),
        lambda g: SymmetricAdidasSolver(entropy="tsallis", iterations=30, exact_adi_every=0).fit(g),
    ],
    ids=["general-shannon", "symmetric-tsallis"],
)
def test_one_step_takes_one_best_response(fit, monkeypatch):
    # the ADI estimate's responses feed the gradient; under Tsallis the
    # gradient used to take its own response to the same tracker
    from adinash import adi
    from adinash.solvers import adidas

    calls = []
    for module in (adi, adidas):
        original = module.best_response

        def counted(y, kind, original=original):
            calls.append(kind)
            return original(y, kind)

        monkeypatch.setattr(module, "best_response", counted)
    fit(make_el_farol(ElFarolSpec(players=4)))
    assert len(calls) == 30


@pytest.mark.parametrize(
    "kind", [Entropy.shannon(0.3), Entropy.tsallis(0.5), Entropy.none()], ids=str
)
def test_ragged_blocks_gradient_matches_the_per_row_gradients(kind):
    # one response per row of a ragged (2, 3, 4) game, each player's gradient
    # assembled alone from its own terms and its partners' effects
    from adinash.adi import response_terms
    from adinash.exact import exact_pairwise_matrices
    from adinash.solvers.adidas import blocks_gradient

    rng = np.random.default_rng(3)
    game = GameTensor(rng.uniform(0.5, 1.5, size=(3, 2, 3, 4)))
    x = StrategyProfile([rng.dirichlet(np.ones(m)) for m in (2, 3, 4)])
    blocks = exact_pairwise_matrices(game, x)
    got = blocks_gradient(blocks, x, kind)
    nablas = blocks.payoff_gradient(x)
    terms = [response_terms(g, best_response(g, kind), s, kind) for g, s in zip(nablas, x)]
    assert [g.shape for g in got] == [(2,), (3,), (4,)]
    for i in range(3):
        want = -terms[i][0]
        for j in range(3):
            if j != i:
                want = want + blocks.matrix(j, i).T @ terms[j][1]
        assert np.array_equal(got[i], want)


@pytest.mark.parametrize(
    "strategies,gradients",
    [
        (np.full((3, 3), 1 / 3), np.ones((1, 3))),
        (np.full((3, 3), 1 / 3), np.ones((3, 2))),
        ([np.full(2, 0.5), np.full(3, 1 / 3)], [np.ones(2)]),
        ([np.full(2, 0.5), np.full(3, 1 / 3)], [np.ones(2), np.ones(2)]),
    ],
    ids=["one-row-stack", "short-rows", "short-list", "wrong-row"],
)
def test_descent_step_rejects_gradients_unlike_the_strategies(strategies, gradients):
    # a (1, 3) stack stepped every player, and zip dropped a short list's players
    from adinash.solvers.adidas import descent_step

    with pytest.raises(ValueError, match="gradients"):
        descent_step(strategies, gradients, 0.1)


@pytest.mark.parametrize("make", [AdidasSolver, SymmetricAdidasSolver, BaselineSolver])
@pytest.mark.parametrize(
    "seed", [1.5, True, "3", -1, 2**128], ids=["1.5", "True", "str", "-1", "2**128"]
)
def test_seed_is_checked_by_name(make, seed):
    # 1.5 and True ran as seed 1 and "3" as 3; -1 and 2**128 raised numpy's
    # Philox key error without naming seed, and BaselineSolver fitted
    with pytest.raises(ValueError, match="seed"):
        make(iterations=2, seed=seed).fit(make_el_farol(ElFarolSpec(players=3)))


@pytest.mark.parametrize("make", [AdidasSolver, SymmetricAdidasSolver, BaselineSolver])
def test_any_integer_philox_key_is_a_seed(make):
    game = make_el_farol(ElFarolSpec(players=3))
    assert make(iterations=2, seed=2**128 - 1).fit(game).log_.seed == 2**128 - 1
    numpy_seed = make(iterations=2, seed=np.uint8(3)).fit(game).profile_.stack
    assert numpy_seed.tobytes() == make(iterations=2, seed=3).fit(game).profile_.stack.tobytes()
