"""Approximate Nash equilibria of many-player normal-form games by annealed
stochastic descent on the average deviation incentive."""

from .adi import (
    AdiReport,
    adi_amortized,
    adi_exact,
    adi_gradient,
    consensus_loss_check,
)
from .entropy import BestResponse, Entropy, best_response, entropy_value
from .exact import (
    PairwiseMatrices,
    exact_pairwise_matrices,
    expected_utility,
    pairwise_jacobian_exact,
    payoff_gradient,
)
from .generators import (
    BlottoSpec,
    ElFarolSpec,
    make_bernoulli_metagame,
    make_blotto,
    make_covariant_random,
    make_el_farol,
    make_modified_shapley,
)
from .normalform import (
    GameTensor,
    StrategyProfile,
    SymmetricGame,
    multiset_count,
)
from .oracles import BernoulliOracle, PayoffOracle, SymmetricOracle, TensorOracle
from .sampling import (
    AuxiliaryState,
    estimate_pairwise_matrices,
    sample_actions,
    sample_joint_action,
    update_aux,
)
from .harness import (
    ExperimentConfig,
    default_sweep_grids,
    measure_gradient_bias,
    query_savings_report,
    run_experiment,
)
from .nfg import nfg_roundtrip, read_nfg, write_nfg
from .simplex import mirror_step_entropic, simplex_project_euclidean, tangent_project
from .solvers import (
    AdidasSolver,
    BaselineSolver,
    IterateLog,
    SymmetricAdidasSolver,
    baseline_step,
    warmup_anneal_descend,
)

__version__ = "0.1.0"
