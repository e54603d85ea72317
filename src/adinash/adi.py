"""The average-deviation-incentive loss and its analytic gradients.

The loss sums, over players, the gain from unilaterally deviating to a
(possibly entropy-regularized) best response; it is zero exactly at a Nash of
the regularized game. Gradients take the pairwise blocks, the payoff
gradients built from those blocks, and the gradients that feed the responses
as inputs, so the exact and sampled pipelines share one code path: pass the
blocks' own payoff gradients for the true gradient, or the auxiliary
estimates y for the amortized one. Each step builds its payoff gradients once
and hands them to both roles.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .entropy import (
    LOGIT_FLOOR,
    Entropy,
    best_response,
    entropy_value,
    _hard_argmax,
)
from .exact import expected_utility, payoff_gradients
from .normalform import as_profile


@dataclass(frozen=True)
class AdiReport:
    """Per-player deviation incentives and their sum."""

    per_player: np.ndarray
    regularized: bool

    @property
    def total(self):
        return float(self.per_player.sum())

    @property
    def mean(self):
        return float(self.per_player.mean())

    @property
    def max(self):
        return float(self.per_player.max())


def adi_exact(game, x, kind=Entropy.none()):
    """Deviation incentive of every player against exact expected payoffs.

    With an unregularized kind this is NashConv: nonnegative, zero iff Nash.
    Desk-scale games only (full enumeration).
    """
    profile = as_profile(x, game.action_counts)
    return _gains(profile, payoff_gradients(game, profile), kind)


def adi_amortized(x, aux, kind=Entropy.none()):
    """Deviation incentive with the auxiliary estimates y in place of the
    exact payoff gradients, including inside the best response."""
    profile = as_profile(x)
    grads = [np.asarray(aux[k], dtype=float) for k in range(profile.players)]
    for k, y in enumerate(grads):
        if y.shape != profile[k].shape:
            raise ValueError(f"aux vector {k} has shape {y.shape}, want {profile[k].shape}")
    return _gains(profile, grads, kind)


def _gains(profile, grads, kind):
    """Each player's gain from the `kind` best response to its payoff
    gradient over its current strategy, regularizer values included."""
    per = np.zeros(len(profile))
    for k, grad in enumerate(grads):
        br = best_response(grad, kind)
        gain = float(np.dot(grad, br.dist - profile[k]))
        gain += entropy_value(br.dist, kind, br.scale)
        gain -= entropy_value(profile[k], kind, br.scale)
        per[k] = gain
    return AdiReport(per, regularized=kind.family != "none" and kind.temperature > 0.0)


def symmetric_adi_exact(game, strategy):
    """Unregularized exact deviation incentive when all n players of a
    SymmetricGame share `strategy`: n times one player's best-response gain."""
    grad = game.deviation_payoffs(strategy)
    return game.players * float(grad.max() - np.dot(strategy, grad))


def response_terms(nabla, y, x, kind):
    """One player's (policy, effect) terms of the deviation-incentive gradient.

    `nabla` is the player's payoff gradient rebuilt from the pairwise blocks,
    `y` the gradient that feeds the response (exact, or the auxiliary
    estimate), `x` the player's strategy. The gradient is -policy plus, for
    every partner, the partner's block transposed onto the partner's effect.

    Shannon: below the temperature cutoff, and for `none`, the response
    Jacobian vanishes and the hard zero-temperature limit applies. Tsallis
    requires a nonnegative `y` (offset the game first). Both sparsity
    corrections ride the scale's derivative direction BR^(1-p): the
    response's and the current strategy's regularizer values differ only
    through that shared scale, so the x-side term carries BR^(1-p) as well.
    At power 0 the corrections vanish and the policy term reduces to
    nabla - ||nabla||_inf, whose constant part the tangent projection removes.
    """
    y = np.asarray(y, dtype=float)
    temperature = kind.temperature
    if kind.family == "tsallis":
        if np.any(y < 0.0):
            raise ValueError("tsallis gradient needs nonnegative payoff gradients")
        br = best_response(y, kind)
        br_sparse = 1.0 - np.sum(br.dist ** (temperature + 1.0))
        x_sparse = 1.0 - np.sum(x ** (temperature + 1.0))
        effect = (br.dist - x) + (br_sparse - x_sparse) / (
            temperature + 1.0
        ) * br.dist ** (1.0 - temperature)
        return nabla - br.scale * x**temperature, effect
    if not kind.is_hard:
        br = special.softmax(y / temperature)
        br_jac = (np.diag(br) - np.outer(br, br)) / temperature
        with np.errstate(divide="ignore"):
            log_br = np.clip(np.log(br), LOGIT_FLOOR, 0.0)
        effect = (br - x) + br_jac @ (nabla - temperature * (log_br + 1.0))
    else:
        effect = _hard_argmax(y) - x
    policy = np.array(nabla)
    if temperature > 0.0:
        with np.errstate(divide="ignore"):
            log_x = np.clip(np.log(x), LOGIT_FLOOR, 0.0)
        policy -= temperature * (log_x + 1.0)
    return policy, effect


def adi_gradient(matrices, nablas, grads, x, kind):
    """Gradient of the `kind`-regularized deviation incentive per player.

    `nablas` are the payoff gradients of the pairwise blocks at x
    (`matrices.payoff_gradients(x)`), which feed the policy terms; `grads`
    feeds the responses (the same nablas, or the auxiliary y).
    """
    profile = as_profile(x)
    n = profile.players
    terms = [
        response_terms(nabla, grads[i], profile[i], kind)
        for i, nabla in enumerate(nablas)
    ]
    out = []
    for i in range(n):
        g = -terms[i][0]
        for j in range(n):
            if j != i:
                # owner-j block with i's actions on the rows
                g = g + matrices.matrix(j, i).T @ terms[j][1]
        out.append(g)
    return out


def consensus_loss_check(game, x):
    """Both sides of the squared-gradient-regularizer identity at power 1.

    lhs routes through the power-1 response operator and exact utility
    evaluation; rhs is the closed form sum_k ||grad_k||^2 / s_k - x_k . grad_k.
    Requires strictly positive payoffs.
    """
    if game.payoffs.min() <= 0.0:
        raise ValueError("identity needs strictly positive payoffs; offset the game")
    profile = as_profile(x, game.action_counts)
    kind = Entropy.tsallis(1.0)
    lhs = 0.0
    rhs = 0.0
    for k, grad in enumerate(payoff_gradients(game, profile)):
        br = best_response(grad, kind)
        deviated = list(profile.strategies)
        deviated[k] = br.dist
        lhs += expected_utility(game, deviated, k) - expected_utility(game, profile, k)
        rhs += float(np.dot(grad, grad) / br.scale - np.dot(profile[k], grad))
    return lhs, rhs
