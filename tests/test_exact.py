import itertools

import numpy as np
import pytest

from adinash.exact import (
    exact_pairwise_matrices,
    expected_utility,
    pairwise_jacobian_exact,
    payoff_gradient,
)
from adinash.normalform import GameTensor, StrategyProfile

from conftest import random_game, random_profile


class TestExpectedUtility:
    def test_biased_game_value(self, biased_game):
        x = StrategyProfile([[0.0, 1.0, 0.0], [0.5, 0.5]])
        assert expected_utility(biased_game, x, 0) == pytest.approx(-0.5, abs=1e-12)

    def test_constant_game(self):
        g = GameTensor(np.full((2, 3, 2), 4.25))
        rng = np.random.default_rng(0)
        x = random_profile(rng, g)
        for i in range(2):
            assert expected_utility(g, x, i) == pytest.approx(4.25, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(1)
        g = random_game(rng, players=3, max_actions=2)
        x = random_profile(rng, g)
        for i in range(3):
            brute = 0.0
            for joint in itertools.product(*(range(m) for m in g.action_counts)):
                prob = np.prod([x[j][joint[j]] for j in range(3)])
                brute += prob * g.payoffs[(i, *joint)]
            assert expected_utility(g, x, i) == pytest.approx(brute, abs=1e-12)

    def test_shape_mismatch(self, biased_game):
        with pytest.raises(ValueError):
            expected_utility(biased_game, StrategyProfile.uniform([2, 2]), 0)


class TestPayoffGradient:
    def test_biased_game_gradient(self, biased_game):
        x = StrategyProfile([[1 / 3] * 3, [0.5, 0.5]])
        assert np.allclose(payoff_gradient(biased_game, x, 0), [0.0, -0.5, -0.5])

    def test_one_hot_column(self, biased_game):
        x = StrategyProfile([[1 / 3] * 3, [1.0, 0.0]])
        assert np.allclose(payoff_gradient(biased_game, x, 0), [0.0, 1.0, -2.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        g = random_game(rng, players=3)
        x = random_profile(rng, g)
        h = 1e-6
        for i in range(3):
            grad = payoff_gradient(g, x, i)
            for a in range(g.action_counts[i]):
                values = []
                for sign in (1.0, -1.0):
                    pert = [np.array(s) for s in x]
                    pert[i][a] += sign * h
                    values.append(expected_utility(g, pert, i, validate=False))
                fd = (values[0] - values[1]) / (2 * h)
                assert grad[a] == pytest.approx(fd, abs=1e-6)

    def test_utility_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_game(rng)
            x = random_profile(rng, g)
            for i in range(g.players):
                dot = float(np.dot(x[i], payoff_gradient(g, x, i)))
                assert dot == pytest.approx(expected_utility(g, x, i), abs=1e-9)


class TestPairwiseJacobian:
    def test_two_player_block_is_payoff_table(self, biased_game):
        rng = np.random.default_rng(4)
        x = random_profile(rng, biased_game)
        block = pairwise_jacobian_exact(biased_game, x, 0, 1)
        assert np.array_equal(block, biased_game.player_tensor(0))
        # independent of the profile
        y = random_profile(rng, biased_game)
        assert np.array_equal(
            pairwise_jacobian_exact(biased_game, y, 0, 1), block
        )

    def test_gradient_identity_across_partners(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_game(rng, players=3)
            x = random_profile(rng, g)
            for i in range(3):
                grad = payoff_gradient(g, x, i)
                for j in range(3):
                    if j == i:
                        continue
                    block = pairwise_jacobian_exact(g, x, i, j)
                    assert np.abs(block @ x[j] - grad).max() <= 1e-9

    def test_uniform_third_player_average(self):
        rng = np.random.default_rng(6)
        g = random_game(rng, players=3, max_actions=3)
        m3 = g.action_counts[2]
        x = StrategyProfile(
            [
                rng.dirichlet(np.ones(g.action_counts[0])),
                rng.dirichlet(np.ones(g.action_counts[1])),
                np.full(m3, 1.0 / m3),
            ]
        )
        block = pairwise_jacobian_exact(g, x, 0, 1)
        slices = np.mean(
            [g.player_tensor(0)[:, :, a3] for a3 in range(m3)], axis=0
        )
        assert np.allclose(block, slices, atol=1e-12)

    def test_rejects_same_player(self, biased_game):
        x = StrategyProfile.uniform([3, 2])
        with pytest.raises(ValueError):
            pairwise_jacobian_exact(biased_game, x, 1, 1)

    def test_container_gradient_average(self):
        rng = np.random.default_rng(7)
        g = random_game(rng, players=3)
        x = random_profile(rng, g)
        blocks = exact_pairwise_matrices(g, x)
        for i in range(3):
            assert np.allclose(
                blocks.payoff_gradient(x, i), payoff_gradient(g, x, i), atol=1e-12
            )
