"""The average-deviation-incentive loss and its analytic gradients.

The loss sums, over players, the gain from unilaterally deviating to a
(possibly entropy-regularized) best response; it is zero exactly at a Nash of
the regularized game. The estimate takes each player's best response once
and reports it (``AdiReport.responses``); the gradient takes those responses
and the blocks' payoff gradients, so the exact and sampled pipelines share
one path, and a step builds its payoff gradients and responses once each.

Each function checks the strategies it is given (``as_profile``) and uses
their bytes: a profile is taken as it was built, renormalized
(``StrategyProfile(...)``), checked with its bytes kept (``_checked``), or
stepped (``_stepped``, a loop's iterate, so that no step checks its own).
The loops call these public functions because the benchmark's tracer
records its spans on these names as the solvers import them. An
unregularized gain is max(grad) - grad . x clamped at 0; on a row of mass
1 - d it moves by about c * d when payoffs shift by c, which a
StrategyProfile repairs.
"""

from dataclasses import dataclass

import numpy as np

from .entropy import LOGIT_FLOOR, Entropy, best_response, entropy_value
from .exact import expected_utility, payoff_gradients
from .normalform import as_profile
from .simplex import map_rows, row_dot, stack_like, stack_rows


@dataclass(frozen=True)
class AdiReport:
    """Per-player deviation incentives and their sum, with the best responses
    they were taken at: one `BestResponse` for a stack, else one per row."""

    per_player: np.ndarray
    regularized: bool
    responses: object

    @property
    def total(self):
        return float(self.per_player.sum())

    @property
    def mean(self):
        return float(self.per_player.mean())


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
    return _gains(profile, stack_like("aux", aux, stack_rows(profile)), kind)


def _gains(profile, grads, kind):
    """Each player's gain from the `kind` best response to its payoff
    gradient over its current strategy, regularizer values included; on one
    (n, m) stack when every player has the same action count."""
    rows, grads = stack_rows(profile), stack_rows(grads)
    responses = map_rows(lambda g: best_response(g, kind), grads)
    if kind.family == "none" or kind.temperature == 0.0:
        return AdiReport(unregularized_gains(grads, rows), False, responses)

    def gain(x, grad, br):
        value = row_dot(grad, br.dist - x) + entropy_value(br.dist, kind, br.scale)
        return value - entropy_value(x, kind, br.scale)

    return AdiReport(np.array(map_rows(gain, rows, grads, responses), dtype=float), True, responses)


def unregularized_gains(grads, x):
    """Each player's gain from a pure best response, max(grad) - grad . x,
    clamped at 0 so that rounding never reports a negative gain: one float
    for a vector, an array for an (n, m) stack or per-player lists."""
    gains = map_rows(lambda g, s: np.maximum(g.max(axis=-1) - row_dot(g, s), 0.0), grads, x)
    return np.array(gains, dtype=float)


def symmetric_adi_exact(game, strategy):
    """Unregularized exact ADI of a SymmetricGame whose n players share `strategy`."""
    strategy = np.asarray(strategy, dtype=float)
    return game.players * float(unregularized_gains(game.deviation_payoffs(strategy), strategy))


def response_terms(nabla, response, x, kind):
    """One player's (policy, effect) terms of the deviation-incentive
    gradient, or every row's terms of (n, m) stacks of players.

    `nabla` is the player's payoff gradient rebuilt from the pairwise blocks,
    `response` its `kind` `BestResponse` to the exact gradient or to the
    auxiliary estimate, taken by the caller, and `x` its strategy. The
    gradient is -policy plus, for every partner, the partner's block
    transposed onto the partner's effect.

    Shannon: below the temperature cutoff, and for `none`, the response
    Jacobian vanishes and the hard zero-temperature limit applies. Both
    Tsallis sparsity corrections ride the scale's derivative direction
    BR^(1-p): the response's and the current strategy's regularizer values
    differ only through that shared scale, so the x-side term carries
    BR^(1-p) as well. At power 0 the corrections vanish and the policy term
    reduces to nabla - ||nabla||_inf, whose constant part the tangent
    projection removes.
    """
    nabla = np.asarray(nabla, dtype=float)
    x = np.asarray(x, dtype=float)
    br = response.dist
    temperature = kind.temperature
    if kind.family == "tsallis":
        scale = response.scale if br.ndim == 1 else response.scale[:, None]
        br_sparse = 1.0 - (br ** (temperature + 1.0)).sum(axis=-1, keepdims=True)
        x_sparse = 1.0 - (x ** (temperature + 1.0)).sum(axis=-1, keepdims=True)
        sparse = (br_sparse - x_sparse) / (temperature + 1.0) * br ** (1.0 - temperature)
        return nabla - scale * x**temperature, (br - x) + sparse
    effect = br - x
    if not kind.is_hard:
        # (diag(br) - outer(br, br)) / temperature, one Jacobian per row
        br_jac = np.zeros((*br.shape, br.shape[-1]))
        diagonal = np.arange(br.shape[-1])
        br_jac[..., diagonal, diagonal] = br
        br_jac -= br[..., :, None] * br[..., None, :]
        br_jac /= temperature
        with np.errstate(divide="ignore"):
            log_br = np.clip(np.log(br), LOGIT_FLOOR, 0.0)
        pull = nabla - temperature * (log_br + 1.0)
        effect += np.matmul(br_jac, pull[..., None])[..., 0]
    policy = np.array(nabla)
    if temperature > 0.0:
        with np.errstate(divide="ignore"):
            log_x = np.clip(np.log(x), LOGIT_FLOOR, 0.0)
        policy -= temperature * (log_x + 1.0)
    return policy, effect


def adi_gradient(matrices, nablas, responses, x, kind):
    """Gradient of the `kind`-regularized deviation incentive per player: an
    (n, m) stack when every player has the same action count, else a list.

    `matrices` is a `PairwiseMatrices`, or a `SharedBlock` with x the one
    shared strategy. `nablas` are the payoff gradients of the pairwise blocks
    at x (`matrices.payoff_gradient(x)`), which feed the policy terms;
    `responses` are the best responses to them or to the auxiliary y, as
    `AdiReport.responses` holds them. Rows unlike x's raise ValueError.
    """
    profile = as_profile(x)
    rows = stack_rows(profile)
    nablas = stack_like("nablas", nablas, rows)
    if profile.stack is not None:
        try:
            dist = responses.dist
        except AttributeError:
            raise ValueError("responses to a stack must be one BestResponse") from None
        if dist.shape != rows.shape:
            stack_like("responses", dist, rows)
        policy, effect = response_terms(nablas, responses, rows, kind)
    else:
        stack_like("responses", [r.dist for r in responses], rows)
        terms = [response_terms(*row, kind) for row in zip(nablas, responses, rows)]
        policy, effect = map(list, zip(*terms))
    return matrices.response_gradients(policy, effect)


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
