"""Joint recovery of a signal and its indirect data from compressed
measurements, via strict and relaxed l1 co-regularization, with a
certificate engine for the linear error bounds."""

__version__ = "0.1.0"

from . import basis, certificates, cli, experiments, operators, regularizers, solvers
from .basis import WaveletBasis
from .operators import (
    BernoulliSensing,
    DenseMap,
    IntegrationOp,
    identity,
    materialize,
    operator_norm,
)
from .regularizers import (
    Subgradient,
    WeightedL1,
    bregman_l1,
    bregman_quadratic,
)
from .solvers import (
    Problem,
    SolveResult,
    SolverConfig,
    objective_relaxed,
    solve,
    solve_relaxed,
    solve_strict,
)
from .certificates import (
    InjectivityReport,
    RateConstants,
    SourceCertificate,
    certify,
    check_norm_bound,
    check_restricted_injectivity,
    find_certificate_relaxed,
    find_certificate_strict,
    rate_constants,
)
from .experiments import (
    Phantom,
    RateFit,
    SweepConfig,
    SweepRecord,
    add_noise,
    determinism_hash,
    emit_csv,
    make_phantom,
    run_sweep,
)
