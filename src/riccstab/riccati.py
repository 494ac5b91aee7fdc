"""Diagonal Riccati stability: certificates, refutation witnesses, solver.

A pair (A, B) is diagonally Riccati stable when diagonal P > 0, Q > 0 exist
with A'P + PA + Q + PBQ^{-1}B'P negative definite. That inequality certifies
asymptotic stability of dx/dt = A x(t) + B x(t - tau) for every constant
delay tau >= 0. By the Schur complement the inequality holds iff the
symmetric block matrix [[A'P + PA + Q, PB], [B'P, -Q]] is negative
definite; certificates are built and checked in that block form alone.

Infeasibility is certified through unit-diagonal positive semidefinite
matrices S: if -(A o S11 + B o S12) fails to be a P-matrix for some such S
(o is the entrywise product), no diagonal certificate can exist. The solver
offers two kinds of S: the extremes ss', s = (1, +-1), each unless the
symmetric part of its image is proved positive definite (the image is then a
P-matrix), and the barrier solver's last dual iterate (_dual_witness).

All functions are pure and deterministic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .lmi import _block, _inverse, minimize
from .matcore import BlockSymmetric, as_positive_vector, as_square, proves_negative_definite
from .pmatrix import PMatrixReport, _proves_definite_symmetric_part, nonpositive_minor
from .pmatrix import is_p_matrix  # noqa: F401  (riccati.is_p_matrix stays importable)

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 5000
WITNESS_PSD_TOL = 1e-10


_UNITS = {1.0: 1.0, -1.0: -1.0}


def _json_floats(v: np.ndarray) -> list[float]:
    """The entries of a vector as Python floats. Entries equal to +-1, all of
    a sign witness's and the weights a certificate keeps at 1, share two
    float objects instead of taking one each, so that reports kept in bulk
    stay small."""
    return [_UNITS.get(x, x) for x in v.tolist()]


def _json_minor(minor: float) -> float:
    """A failing minor as strict JSON: one beyond the float range (+-inf;
    never NaN, see is_p_matrix) is clamped to the largest finite float of
    its sign."""
    return max(-sys.float_info.max, min(float(minor), sys.float_info.max))


@dataclass(frozen=True, eq=False)
class MatrixPair:
    """Square system matrices (A, B) of equal size, treated as immutable."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = as_square(self.a)
        b = as_square(self.b)
        if a.shape != b.shape:
            raise ContractError(f"A and B must have equal shapes, got {a.shape} and {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class RiccatiCertificate:
    """Diagonal feasibility certificate: P = diag(p), Q = diag(q).

    margin is minus the largest eigenvalue of the block form, so a valid
    certificate always has margin > 0 and re-verification reproduces it.
    """

    p: np.ndarray
    q: np.ndarray
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "p", as_positive_vector(self.p))
        object.__setattr__(self, "q", as_positive_vector(self.q, self.p.size))

    def to_json(self) -> dict:
        return {
            "P": _json_floats(self.p),
            "Q": _json_floats(self.q),
            "margin": float(self.margin),
        }


@dataclass(frozen=True, eq=False)
class CorrelationWitness:
    """Infeasibility witness: a unit-diagonal PSD S whose image fails the P test.

    p_report describes the failing principal minor of -(A o S11 + B o S12);
    its indices are 0-based.
    """

    s: BlockSymmetric
    p_report: PMatrixReport

    def to_json(self) -> dict:
        return {
            "witness_S": [_json_floats(row) for row in self.s.full],
            "failing_subset": [int(i) for i in self.p_report.failing_subset],
            "failing_minor": _json_minor(self.p_report.failing_minor),
        }


@dataclass(frozen=True, eq=False)
class Verdict:
    """Solver outcome: Feasible with a certificate, Refuted with a witness,
    or Unknown with the best margin seen (negative when everything looked
    infeasible). samples_tried counts the candidate witnesses up to the
    verdict, in solve_diagonal's order: 0 on a pair certified at unit
    weights, 1 or 2 when the extreme s = (1, +1) or (1, -1) refutes, 2 when
    the barrier certifies, and 3 when the barrier's dual iterate refutes or
    the verdict is Unknown."""

    status: str
    certificate: RiccatiCertificate | None = None
    witness: CorrelationWitness | None = None
    best_margin: float | None = None
    samples_tried: int = 0

    FEASIBLE = "Feasible"
    REFUTED = "Refuted"
    UNKNOWN = "Unknown"

    @classmethod
    def feasible(cls, cert: RiccatiCertificate, samples_tried: int = 0) -> "Verdict":
        return cls(cls.FEASIBLE, certificate=cert, samples_tried=samples_tried)

    @classmethod
    def refuted(cls, witness: CorrelationWitness, samples_tried: int = 0) -> "Verdict":
        return cls(cls.REFUTED, witness=witness, samples_tried=samples_tried)

    @classmethod
    def unknown(cls, best_margin: float, samples_tried: int = 0) -> "Verdict":
        return cls(cls.UNKNOWN, best_margin=best_margin, samples_tried=samples_tried)

    @property
    def is_definitive(self) -> bool:
        return self.status != self.UNKNOWN

    def to_json(self) -> dict:
        out: dict = {"status": self.status, "samples_tried": int(self.samples_tried)}
        if self.certificate is not None:
            out.update(self.certificate.to_json())
        if self.witness is not None:
            out.update(self.witness.to_json())
        if self.best_margin is not None:
            out["best_margin"] = float(self.best_margin)
        return out


@dataclass(frozen=True)
class SolveOptions:
    """Tunables for solve_diagonal.

    tol and stop_value() are relative to the pair's scale
    s = max|A| + max|B|: the barrier solver works on (A, B)/s, and a
    certificate must verify at margin tol * s. max_iter caps its Newton
    steps. A non-finite or negative tol and a negative max_iter are refused
    with a ContractError that names the field.
    """

    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ContractError(f"tol must be finite and >= 0, got {self.tol}")
        if self.max_iter < 0:
            raise ContractError(f"max_iter must be >= 0, got {self.max_iter}")

    def stop_value(self) -> float:
        """lambda_max of the scaled block at which the solver stops: clearly feasible."""
        return min(-1e-3, -10.0 * self.tol)


def block_lmi(pair: MatrixPair, p, q) -> BlockSymmetric:
    """Schur block form [[A'P + PA + Q, PB], [B'P, -Q]] for diagonal P, Q.

    Built by lmi._block, the barrier's builder, so it is exactly symmetric.
    Raises ContractError naming the float range when an entry overflows it,
    which finite A, B, p and q can make happen.
    """
    pv = as_positive_vector(p, pair.n)
    qv = as_positive_vector(q, pair.n)
    with np.errstate(over="ignore", invalid="ignore"):
        full = _block(np.hstack([pair.a, pair.b]), np.concatenate([pv, qv]))
    if not np.isfinite(full).all():
        raise ContractError(f"the block form at these weights exceeds the float range ({sys.float_info.max:.4g})")
    return BlockSymmetric(full)


def verify_certificate(pair: MatrixPair, p, q, margin_req: float = 0.0) -> tuple[bool, float]:
    """Check a candidate (P, Q) through the block form of block_lmi.

    Returns (ok, achieved margin); the margin is minus the top LAPACK
    eigenvalue of the block form. ok requires that eigenvalue to sit
    strictly below -margin_req and matcore.proves_negative_definite, a
    Cholesky proof that does not trust it, to succeed at margin_req. Raises
    ContractError, as block_lmi does, when the block form has an entry
    beyond the float range.
    """
    if margin_req < 0.0:
        raise ContractError("margin_req must be >= 0")
    block = block_lmi(pair, p, q).full
    lam = float(np.linalg.eigvalsh(block)[-1])
    return lam < -margin_req and proves_negative_definite(block, margin_req), -lam


def make_witness(pair: MatrixPair, s: BlockSymmetric) -> CorrelationWitness | None:
    """Validate a candidate witness matrix; None when it does not qualify.

    Qualification: both diagonal blocks of S exactly unit within 1e-12, the
    image -(A o S11 + B o S12) finite with a principal minor <= 0 by
    pmatrix.nonpositive_minor, and S PSD within WITNESS_PSD_TOL (smallest
    LAPACK eigenvalue), tested in that order, so a candidate whose image has
    no such minor costs no spectrum. S is symmetric by type; one whose block
    size is not the pair's raises ContractError.
    """
    if s.n != pair.n:
        raise ContractError(f"witness must be {2 * pair.n} x {2 * pair.n}")
    if np.abs(np.diag(s.full) - 1.0).max() > 1e-12:
        return None
    image = _image(pair, s.b11, s.b12)
    report = nonpositive_minor(image) if np.isfinite(image).all() else None
    if report is None or float(np.linalg.eigvalsh(s.full)[0]) < -WITNESS_PSD_TOL:
        return None
    return CorrelationWitness(s=s, p_report=report)


def _image(pair: MatrixPair, s11, s12) -> np.ndarray:
    """-(A o S11 + B o S12); an entry beyond the float range is +-inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return -(pair.a * s11 + pair.b * s12)


def _dual_witness(chol: np.ndarray, n: int) -> BlockSymmetric:
    """The barrier's last dual iterate as a candidate witness.

    Z = L^-T L^-1 = (tI - F)^-1 is positive definite. By the theorem of
    alternatives (Boyd, El Ghaoui, Feron & Balakrishnan 1994, sec. 2.6) no
    diagonal certificate exists iff some nonzero Z >= 0 has
    (A Z11 + B Z21)_ii >= 0 and (Z11)_ii >= (Z22)_ii for every i, and the
    iterate of a path that cannot certify comes close to one. S = D^-1 Z D^-1,
    with D = diag(x, x) and x = sqrt(diag Z11) > 0, has its diagonal set to
    exactly 1, which raises diag Z22 to diag Z11 and so keeps S PSD. Its image
    M = -(A o S11 + B o S12) then has x_i (M x)_i = -(A Z11 + B Z21)_ii <= 0
    for every i: M reverses the sign of x, so it is not a P-matrix
    (Fiedler & Ptak 1962). make_witness decides whether S qualifies.
    """
    z = _inverse(chol)
    x = np.sqrt(np.tile(z.diagonal()[:n], 2))
    s = z / np.outer(x, x)
    np.fill_diagonal(s, 1.0)
    return BlockSymmetric(s)


def _certificate(pair: MatrixPair, p: np.ndarray, q: np.ndarray, margin_req: float) -> RiccatiCertificate | None:
    """(p, q) as a certificate when verify_certificate accepts it at margin_req."""
    ok, margin = verify_certificate(pair, p, q, margin_req=margin_req)
    return RiccatiCertificate(p=p, q=q, margin=margin) if ok else None


def solve_diagonal(pair: MatrixPair, options: SolveOptions | None = None) -> Verdict:
    """Decide diagonal Riccati stability of a pair, with evidence.

    Pipeline, on the scaled pair (A, B)/s with s = max|A| + max|B|, whose
    block form is that of (A, B) divided by s:
    1. unit weights P = Q = I, which certify when lambda_max of the scaled
       block reaches stop_value();
    2. the two extremes S = ss', s = (1, +-1), exactly unit-diagonal and
       PSD, whose images are -(A +- B). An image whose symmetric part is
       proved positive definite is a P-matrix and is skipped; every other
       goes to make_witness, whose one walk of nonpositive_minor is the test;
    3. the barrier solver lmi.minimize, which minimizes lambda_max of the
       block form over diagonal (P, Q) on the gauge sum(p) + sum(q) = 2n. A
       point (p, q) maps back as (p, s q) and must pass verify_certificate
       at margin tol * s before Feasible is returned, so c (A, B) gets the
       verdict of (A, B);
    4. the barrier's last dual iterate (_dual_witness), offered to
       make_witness.
    Otherwise the verdict is Unknown with the best margin found, in the
    pair's units. A = B = 0 (s = 0) is refuted by the first extreme. A pair
    whose s is beyond the float range raises ContractError when neither
    extreme refutes it.
    """
    opts = options or SolveOptions()
    n = pair.n
    with np.errstate(over="ignore"):
        s = float(np.abs(pair.a).max() + np.abs(pair.b).max())
    # lambda_max of the scaled block at unit weights is at least its largest
    # diagonal entry, 2 max a_ii / s + 1: most pairs fail that test already
    if s > 0.0 and 2.0 * (float(pair.a.diagonal().max()) / s) + 1.0 <= opts.stop_value():
        ones = np.ones(n)
        if float(np.linalg.eigvalsh(_block(np.hstack([pair.a, pair.b]) / s, np.ones(2 * n)))[-1]) <= opts.stop_value():
            cert = _certificate(pair, ones, s * ones, opts.tol * s)
            if cert is not None:
                return Verdict.feasible(cert)

    for tried, sign in ((1, 1.0), (2, -1.0)):
        if not _proves_definite_symmetric_part(_image(pair, 1.0, sign)):  # a proved P image cannot refute
            s_vec = np.concatenate([np.ones(n), np.full(n, sign)])
            witness = make_witness(pair, BlockSymmetric(np.outer(s_vec, s_vec)))
            if witness is not None:
                return Verdict.refuted(witness, samples_tried=tried)
    if not math.isfinite(s):
        raise ContractError(f"max|A| + max|B| exceeds the float range ({sys.float_info.max:.4g})")

    found = minimize(pair.a / s, pair.b / s, stop=opts.stop_value(), tol=opts.tol, max_iter=opts.max_iter)  # s > 0 here
    if found.lam <= -opts.tol:
        cert = _certificate(pair, found.p, s * found.q, opts.tol * s)
        if cert is not None:
            return Verdict.feasible(cert, samples_tried=2)
    witness = make_witness(pair, _dual_witness(found.chol, n))
    if witness is not None:
        return Verdict.refuted(witness, samples_tried=3)
    return Verdict.unknown(best_margin=-s * found.lam, samples_tried=3)
