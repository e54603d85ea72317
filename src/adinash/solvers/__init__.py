from .adidas import (
    anneal_decision,
    AdidasSolver,
    SymmetricAdidasSolver,
    tsallis_offset,
    warmup_anneal_descend,
)
from .base import BaseSolver, IterateLog, profile_hash
from .baselines import METHODS, BaselineSolver, BaselineState, baseline_step
