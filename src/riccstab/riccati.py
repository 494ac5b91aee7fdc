"""Diagonal Riccati stability: certificates, refutation witnesses, solver.

A pair (A, B) is diagonally Riccati stable when diagonal P > 0, Q > 0 exist
with A'P + PA + Q + PBQ^{-1}B'P negative definite. That inequality certifies
asymptotic stability of dx/dt = A x(t) + B x(t - tau) for every constant
delay tau >= 0. By the Schur complement the inequality holds iff the
symmetric block matrix [[A'P + PA + Q, PB], [B'P, -Q]] is negative
definite; certificates are built and checked in that block form alone.

Infeasibility is certified through unit-diagonal positive semidefinite
matrices S: if -(A o S11 + B o S12) fails to be a P-matrix for some such S
(o is the entrywise product), no diagonal certificate can exist.

All functions are pure and deterministic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import ContractError
from .lmi import _block, minimize
from .matcore import BlockSymmetric, _proves_negative_definite, as_positive_vector, as_square
from .pmatrix import PMatrixReport, nonpositive_minor, stacked_minors
from .pmatrix import is_p_matrix  # noqa: F401  (riccati.is_p_matrix stays importable)

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 5000
WITNESS_PSD_TOL = 1e-10
SIGN_ENUM_MAX_N = 6


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
    infeasible). samples_tried counts the candidate witness matrices covered
    up to the witness: a screen that finds none covers 2 + (5^n - 1) / 2 at
    n <= 6 (the two extremes and the rank-one sign matrices, whose images
    have 3^n - 1 distinct minors) and 2 above. It is 0 on a pair certified
    at unit weights, for which the screen does not run, and the whole
    screen's count on a pair the barrier certifies or leaves Unknown."""

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
    return BlockSymmetric(full, pair.n)


def verify_certificate(pair: MatrixPair, p, q, margin_req: float = 0.0) -> tuple[bool, float]:
    """Check a candidate (P, Q) through the block form of block_lmi.

    Returns (ok, achieved margin); the margin is minus the top LAPACK
    eigenvalue of the block form. ok requires that eigenvalue to sit
    strictly below -margin_req and proves_negative_definite, a Cholesky
    proof that does not trust it, to succeed at margin_req. Raises
    ContractError, as block_lmi does, when the block form has an entry
    beyond the float range.
    """
    if margin_req < 0.0:
        raise ContractError("margin_req must be >= 0")
    block = block_lmi(pair, p, q).full
    lam = float(np.linalg.eigvalsh(block)[-1])
    return lam < -margin_req and _proves_negative_definite(block, margin_req), -lam


def make_witness(pair: MatrixPair, s: BlockSymmetric) -> CorrelationWitness | None:
    """Validate a candidate witness matrix; None when it does not qualify.

    Qualification: both diagonal blocks of S exactly unit within 1e-12, the
    image -(A o S11 + B o S12) has a principal minor <= 0 (see _image_minor),
    and S PSD within WITNESS_PSD_TOL (smallest LAPACK eigenvalue), tested in
    that order, so a candidate whose image has no such minor costs no
    spectrum. S is symmetric by type; one whose block size is not the pair's
    raises ContractError.
    """
    if s.n != pair.n:
        raise ContractError(f"witness must be {2 * pair.n} x {2 * pair.n}")
    if np.abs(np.diag(s.full) - 1.0).max() > 1e-12:
        return None
    report = _image_minor(pair, s.b11, s.b12)
    if report is None or float(np.linalg.eigvalsh(s.full)[0]) < -WITNESS_PSD_TOL:
        return None
    return CorrelationWitness(s=s, p_report=report)


def _image_minor(pair: MatrixPair, s11, s12) -> PMatrixReport | None:
    """pmatrix.nonpositive_minor of the image -(A o S11 + B o S12), which
    above n = MAX_P_SIZE tests only the diagonal entries and the full
    determinant. None also when an entry of the image is beyond the float
    range: such a candidate does not qualify."""
    with np.errstate(over="ignore", invalid="ignore"):
        image = -(pair.a * s11 + pair.b * s12)
    return nonpositive_minor(image) if np.isfinite(image).all() else None


@dataclass(frozen=True, eq=False)
class _SignPlan:
    """Index arrays of the rank-one sign screen at one n (see _sign_minors).

    stacks holds, per subset size k, the row and column indices of every
    k-subset, its 2^k sign patterns sigma in binary counter order and the
    parity (-1)^k. The other fields run over the 3^n - 1 table entries, in
    table order: the positions of sigma = +1 and sigma = -1 (the images of
    the two extremes), the e of each entry's witness s = (1, e) (sigma on
    the subset, 1 elsewhere), and the (d, e) candidates up to and including
    each entry.
    """

    stacks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, float], ...]
    extremes: tuple[np.ndarray, np.ndarray]
    e: np.ndarray
    tried: np.ndarray


@lru_cache(maxsize=SIGN_ENUM_MAX_N)
def _sign_plan(n: int) -> _SignPlan:
    stacks, plus, minus, es, tried = [], [], [], [], []
    entries = candidates = 0
    for size in range(1, n + 1):
        sigma = np.array(list(product((1.0, -1.0), repeat=size)))
        subsets = np.array(list(combinations(range(n), size)))
        count, patterns = len(subsets), len(sigma)
        stacks.append((subsets[:, None, :, None], subsets[:, None, None, :], sigma[:, None, :], -1.0 if size % 2 else 1.0))
        starts = entries + patterns * np.arange(count)
        plus.append(starts)
        minus.append(starts + patterns - 1)
        e = np.ones((count, patterns, n))
        np.put_along_axis(e, np.broadcast_to(subsets[:, None, :], (count, patterns, size)), sigma[None], axis=2)
        es.append(e.reshape(-1, n))
        per_subset = patterns**2 // 2  # (d, e) pairs with d_0 = +1
        tried.append(candidates + (per_subset * np.arange(count)[:, None] + np.arange(1, patterns + 1)).ravel())
        entries += count * patterns
        candidates += count * per_subset
    plan = _SignPlan(tuple(stacks), (np.concatenate(plus), np.concatenate(minus)), np.concatenate(es), np.concatenate(tried))
    for array in (*(a for stack in stacks for a in stack[:3]), *plan.extremes, plan.e, plan.tried):
        array.flags.writeable = False  # shared by every caller through the cache
    return plan


def _sign_minors(pair: MatrixPair) -> np.ndarray:
    """The 3^n - 1 distinct principal minors of the rank-one sign witnesses'
    images, n <= SIGN_ENUM_MAX_N, on the pair scaled by the power of two that
    puts max(max|A|, max|B|) in [1/2, 1).

    The image of S = s s', s = (d, e) in {+-1}^{2n}, is
    -(A o dd' + B o de') = -D(A + B Sigma)D with Sigma = diag(d o e), so its
    minor on a k-subset alpha is (-1)^k det(A_a + B_a Sigma_a): it depends
    only on sigma = d o e on alpha. The table holds these, by size, then
    subset (lexicographic), then sigma (binary counter order), one
    stacked_minors call per size. The values are bit for bit those of the
    minors written per (d, e), (-1)^k det(D_a) det(A_a D_a + B_a E_a):
    flipping the signs of columns leaves the choices of LU with partial
    pivoting alone and flips the signs of the columns of U. The scaling is
    exact, so it changes no sign, and no minor of the scaled pair, at most
    k! 2^k in size, can overflow; only terms far below the pair's own
    scale can underflow.
    """
    plan = _sign_plan(pair.n)
    shift = -math.frexp(max(np.abs(pair.a).max(), np.abs(pair.b).max()))[1]
    a, b = np.ldexp(pair.a, shift), np.ldexp(pair.b, shift)
    return np.concatenate(
        [parity * stacked_minors(a[rows, cols] + b[rows, cols] * sigma).ravel() for rows, cols, sigma, parity in plan.stacks]
    )


def _sign_hits(nonpositive: np.ndarray, n: int):
    """The rank-one sign witnesses of the table entries <= 0, in table
    order, each as a BlockSymmetric with the count of (d, e) candidates up
    to its entry.

    The count is that of the (d, e) candidates, d_0 = +1 (the global flip is
    redundant): 2^(k-1) * 2^k per k-subset, (5^n - 1) / 2 in all. In their
    order (subsets by size then lexicographic, then d, then e, both in
    binary counter order) each violation is first met at d = 1, e = sigma.
    Entries whose e agree share their witness, so only the first of them
    is yielded.
    """
    plan = _sign_plan(n)
    seen = set()
    for hit in np.flatnonzero(nonpositive):
        e = plan.e[hit]
        key = e.tobytes()
        if key not in seen:
            seen.add(key)
            s_vec = np.concatenate([np.ones(n), e])
            yield BlockSymmetric(np.outer(s_vec, s_vec), n), int(plan.tried[hit])


def refute(pair: MatrixPair) -> tuple[CorrelationWitness | None, int]:
    """Search for an infeasibility witness; returns (witness or None, tried).

    The two structured extremes, then the rank-one sign enumeration. The
    extremes S = ss' with s = (1, +-1) are exactly unit-diagonal and PSD,
    and their image is -(A +- B). Up to n = SIGN_ENUM_MAX_N its minors are
    those of sigma = +-1 in the table of _sign_minors, and make_witness,
    which checks the candidate through its own walk, runs only on a hit; a
    hit it refuses moves the screen on. Above it the screen is the extremes
    alone, each offered to make_witness directly, whose one walk of
    nonpositive_minor is the test. Up to SIGN_ENUM_MAX_N every distinct minor
    is evaluated once, in one table per call, and the enumeration offers
    make_witness the witness of each entry <= 0 in turn (_sign_hits), so a
    table entry that rounding put at or below 0 does not hide a later one
    that refutes. tried counts the candidates up to the witness, all
    (5^n - 1) / 2 sign matrices of the enumeration included (see Verdict).
    """
    n = pair.n
    small = n <= SIGN_ENUM_MAX_N
    if small:
        nonpositive = _sign_minors(pair) <= 0.0
    for tried, s12_sign in ((1, 1.0), (2, -1.0)):
        if not small or nonpositive[_sign_plan(n).extremes[tried - 1]].any():
            s_vec = np.concatenate([np.ones(n), np.full(n, s12_sign)])
            witness = make_witness(pair, BlockSymmetric(np.outer(s_vec, s_vec), n))
            if witness is not None:
                return witness, tried
    if not small:
        return None, 2
    for s, enum_tried in _sign_hits(nonpositive, n):
        witness = make_witness(pair, s)
        if witness is not None:
            return witness, 2 + enum_tried
    return None, 2 + (5**n - 1) // 2


def _certificate(pair: MatrixPair, p: np.ndarray, q: np.ndarray, margin_req: float) -> RiccatiCertificate | None:
    """(p, q) as a certificate when verify_certificate accepts it at margin_req."""
    ok, margin = verify_certificate(pair, p, q, margin_req=margin_req)
    return RiccatiCertificate(p=p, q=q, margin=margin) if ok else None


def solve_diagonal(pair: MatrixPair, options: SolveOptions | None = None) -> Verdict:
    """Decide diagonal Riccati stability of a pair, with evidence.

    Pipeline, on the scaled pair (A, B)/s with s = max|A| + max|B|, whose
    block form is that of (A, B) divided by s: first unit weights
    P = Q = I, which certify when lambda_max of the scaled block reaches
    stop_value(); then the deterministic refutation screen (certain when it
    fires); then the barrier solver lmi.minimize, which minimizes
    lambda_max of the block form over diagonal (P, Q) on the gauge
    sum(p) + sum(q) = 2n. A point (p, q) maps back as (p, s q) and must
    pass verify_certificate at margin tol * s before Feasible is returned,
    so c (A, B) gets the verdict of (A, B). A pair certified at unit
    weights skips the screen, which cannot refute it, and reports
    samples_tried = 0. When the solver does not certify either, the verdict
    is Unknown with the best margin found, in the pair's units, and the
    screen's samples_tried. A = B = 0 (s = 0) goes straight to the screen,
    which refutes it. So does a pair whose s is beyond the float range; it
    raises ContractError when the screen finds no witness.
    """
    opts = options or SolveOptions()
    with np.errstate(over="ignore"):
        s = float(np.abs(pair.a).max() + np.abs(pair.b).max())
    # lambda_max of the scaled block at unit weights is at least its largest
    # diagonal entry, 2 max a_ii / s + 1: most pairs fail that test already
    if s > 0.0 and 2.0 * (float(pair.a.diagonal().max()) / s) + 1.0 <= opts.stop_value():
        ones = np.ones(pair.n)
        if float(np.linalg.eigvalsh(_block(np.hstack([pair.a, pair.b]) / s, np.ones(2 * pair.n)))[-1]) <= opts.stop_value():
            cert = _certificate(pair, ones, s * ones, opts.tol * s)
            if cert is not None:
                return Verdict.feasible(cert)

    witness, screened = refute(pair)
    if witness is not None:
        return Verdict.refuted(witness, samples_tried=screened)
    if not math.isfinite(s):
        raise ContractError(f"max|A| + max|B| exceeds the float range ({sys.float_info.max:.4g})")

    found = minimize(pair.a / s, pair.b / s, stop=opts.stop_value(), tol=opts.tol, max_iter=opts.max_iter)  # s > 0 here
    if found.lam <= -opts.tol:
        cert = _certificate(pair, found.p, s * found.q, opts.tol * s)
        if cert is not None:
            return Verdict.feasible(cert, samples_tried=screened)
    return Verdict.unknown(best_margin=-s * found.lam, samples_tried=screened)
