"""Steepest descent on the Stiefel manifold via norm-ball LMOs.

Core pieces: dense polar-factor kernels (exact and iterative), the Stiefel
manifold with its projection retraction, linear minimization oracles for
the Frobenius and spectral norms, the weighted-PCA (Brockett) objective
family, four optimizers over a common stepping interface, run-time
verification of the descent and convergence bounds, and a benchmark CLI.
"""

from .errors import ConfigurationError, FeasibilityError, NumericError
from .linalg import (
    EXACT,
    PolarMode,
    frob_inner,
    msign_exact,
    msign_iterative,
    svd,
)
from .lmo import NormKind, dual_norm, lmo, norm_equiv_constant, zero_tolerance
from .manifolds import (
    StiefelManifold,
    StiefelPoint,
    feasibility_violation,
    project,
    random_point,
    riemannian_grad,
)
from .objectives import (
    BrockettInstance,
    NoiseConfig,
    SmoothnessConstants,
    make_brockett,
    smoothness_constants,
    subspace_error,
)
from .optimizers import (
    STEP_RADIUS,
    ManifoldMuon,
    Mcsd,
    Method,
    MuonDirectionResult,
    OptimizerRun,
    Rgd,
    StepInfo,
    StepSchedule,
    StochasticMcsd,
    constant_schedule,
    deterministic_bound_schedule,
    manifold_muon_direction,
    periodic_decay_schedule,
    run_seeds,
    run_trace,
    step,
    stochastic_bound_schedule,
)
from .trace import CSV_COLUMNS, TraceRecord, read_trace_csv, write_trace_csv
from .verify import (
    BoundReport,
    audit_deterministic_bound,
    audit_per_step_descent,
    brute_force_lmo_check,
    check_descent_lemma,
    check_min_grad_rate,
    gap_with_headroom,
)

__version__ = "0.1.0"
