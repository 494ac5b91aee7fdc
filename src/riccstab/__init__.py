"""Diagonal Riccati stability toolkit for linear time-delay systems.

Decides whether a pair (A, B) admits diagonal P, Q > 0 with
A'P + PA + Q + PBQ^{-1}B'P negative definite, which certifies delay-
independent stability of dx/dt = A x(t) + B x(t - tau). Provides a
certifying solver with a refutation search, closed-form tests for
structured classes, scaling transforms that carry certificates along,
P-matrix utilities, a delay simulator, and a randomized self-test battery.
"""

from .classes import (
    ClassTag,
    ClassVerdict,
    Stability,
    classify,
    correlation_form_bound,
    correlation_form_bound_oracle,
    evaluate_class,
    feedback_condition,
)
from .ddesim import (
    DecayReport,
    DelayTrajectory,
    decay_check,
    decay_report,
    export_csv,
    lk_functional,
    simulate,
)
from .errors import (
    ClassMismatchError,
    ContractError,
    DimensionError,
    RiccstabError,
    SizeGuardError,
)
from .matcore import (
    BlockSymmetric,
    is_metzler,
    is_nonnegative,
)
from .pmatrix import PMatrixReport, dpd_conjugate, is_p_matrix, p_sign_witness
from .riccati import (
    CorrelationWitness,
    MatrixPair,
    RiccatiCertificate,
    SolveOptions,
    Verdict,
    block_lmi,
    solve_diagonal,
    verify_certificate,
)
from .transforms import (
    ScalingPair,
    dad_transform,
    hadamard_congruence,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSymmetric",
    "ClassMismatchError",
    "ClassTag",
    "ClassVerdict",
    "ContractError",
    "CorrelationWitness",
    "DecayReport",
    "DelayTrajectory",
    "DimensionError",
    "MatrixPair",
    "PMatrixReport",
    "RiccatiCertificate",
    "RiccstabError",
    "ScalingPair",
    "SizeGuardError",
    "SolveOptions",
    "Stability",
    "Verdict",
    "block_lmi",
    "classify",
    "correlation_form_bound",
    "correlation_form_bound_oracle",
    "dad_transform",
    "decay_check",
    "decay_report",
    "dpd_conjugate",
    "evaluate_class",
    "export_csv",
    "feedback_condition",
    "hadamard_congruence",
    "is_metzler",
    "is_nonnegative",
    "is_p_matrix",
    "lk_functional",
    "p_sign_witness",
    "simulate",
    "solve_diagonal",
    "verify_certificate",
]
