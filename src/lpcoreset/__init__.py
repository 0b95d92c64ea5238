"""Coreset construction and two-stage sampling for overconstrained
lp regression, p in [1, inf).

Pipeline: build a well-conditioned basis for span(A) (QR + ellipsoidal
rounding), sample rows by basis leverage (constant-factor stage), then
resample by the stage-1 residual (relative-error stage).  The realized
stage-2 rows form a coreset: re-solving on them reproduces the reported
solution.  two_stage_solve runs it for every RegressionInstance: vector
or matrix right-hand side, weighted (stored row-scaled by w_i^(1/p)) or
not.
"""
from .conditioning import (
    RoundingResult,
    WellConditionedBasis,
    certify_basis,
    lowner_john_round,
    well_conditioned_basis,
)
from .errors import (
    InvalidConfigError,
    InvalidExponentError,
    MatrixParseError,
    StageFailureError,
    ZeroRankError,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .linalg import (
    QRFactors,
    RFactors,
    dual_exponent,
    numeric_rank,
    qr_thin,
    r_factors,
    vec_p_norm,
)
from .pipeline import (
    RegressionInstance,
    SolveReport,
    StageOutcome,
    derive_seed,
    guarantee_statistics,
    make_instance_arrays,
    reference_instance,
    single_stage_augmented_solve,
    single_stage_oracle_solve,
    stage_one,
    stage_two,
    two_stage_solve,
)
from .sampling import (
    SamplerConfig,
    SamplingPlan,
    apply_plan,
    r1_default,
    r2_default,
    realize_sample,
    stage1_rule,
    stage2_rule,
)
from .solver import SolveResult, solve_lp_regression

__version__ = "0.1.0"
