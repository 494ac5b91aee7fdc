"""Diagonal Riccati stability: certificates, refutation witnesses, solver.

A pair (A, B) is diagonally Riccati stable when diagonal P > 0, Q > 0 exist
with A'P + PA + Q + PBQ^{-1}B'P negative definite. That inequality certifies
asymptotic stability of dx/dt = A x(t) + B x(t - tau) for every constant
delay tau >= 0. Its Schur-complement form is the symmetric block matrix
[[A'P + PA + Q, PB], [B'P, -Q]], negative definite iff the Riccati form is.

Infeasibility is certified through unit-diagonal positive semidefinite
matrices S: if -(A o S11 + B o S12) fails to be a P-matrix for some such S
(o is the entrywise product), no diagonal certificate can exist.

All functions are pure and deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np
from scipy.optimize import minimize

from .errors import ContractError, NumericError
from .matcore import BlockSymmetric, as_positive_vector, as_square, sym_spectrum
from .pmatrix import PMatrixReport, _minor, is_p_matrix

DEFAULT_TOL = 1e-7
STARTS = 8
DEFAULT_MAX_ITER = 5000
SIMPLEX_ATOL = 1e-12
DEFAULT_SAMPLES = 64
LOG_BOX = 2.0
POLISH_ITERS = 150
WITNESS_PSD_TOL = 1e-10
SIGN_ENUM_MAX_N = 6
SCHUR_SIGN_TOL = 1e-9


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
            "P": [float(x) for x in self.p],
            "Q": [float(x) for x in self.q],
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
            "witness_S": [[float(x) for x in row] for row in self.s.full],
            "failing_subset": [int(i) for i in self.p_report.failing_subset],
            "failing_minor": float(self.p_report.failing_minor),
        }


@dataclass(frozen=True, eq=False)
class Verdict:
    """Solver outcome: Feasible with a certificate, Refuted with a witness,
    or Unknown with the best margin seen (negative when everything looked
    infeasible). samples_tried counts candidate witness matrices examined."""

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
    """Tunables for solve_diagonal; defaults match the documented contract."""

    tol: float = DEFAULT_TOL
    seed: int = 0
    max_iter: int = DEFAULT_MAX_ITER
    samples: int = DEFAULT_SAMPLES

    def stop_value(self) -> float:
        """Objective level at which the search may stop early: clearly feasible."""
        return min(-1e-3, -10.0 * self.tol)


def block_lmi(pair: MatrixPair, p, q) -> BlockSymmetric:
    """Schur block form [[A'P + PA + Q, PB], [B'P, -Q]] for diagonal P, Q."""
    pv = as_positive_vector(p, pair.n)
    qv = as_positive_vector(q, pair.n)
    return BlockSymmetric(_block_full(pair.a, pair.b, pv, qv), pair.n)


def riccati_form(pair: MatrixPair, p, q) -> np.ndarray:
    """The n x n form A'P + PA + Q + P B Q^{-1} B' P for diagonal P, Q."""
    pv = as_positive_vector(p, pair.n)
    qv = as_positive_vector(q, pair.n)
    pb = pv[:, None] * pair.b
    return pair.a.T * pv[None, :] + pv[:, None] * pair.a + np.diag(qv) + (pb / qv[None, :]) @ pb.T


def verify_certificate(pair: MatrixPair, p, q, margin_req: float = 0.0) -> tuple[bool, float]:
    """Check a candidate (P, Q) through both equivalent forms.

    Returns (ok, achieved margin); the margin is minus the top eigenvalue of
    the block form, computed by the Jacobi engine. ok requires both forms to
    sit strictly below -margin_req. Raises NumericError if the two forms
    disagree in sign beyond rounding, which would mean the Schur complement
    identity failed numerically.
    """
    if margin_req < 0.0:
        raise ContractError("margin_req must be >= 0")
    lam_r = sym_spectrum(riccati_form(pair, p, q)).abscissa
    lam_b = sym_spectrum(block_lmi(pair, p, q).full).abscissa
    if lam_r * lam_b < 0.0 and min(abs(lam_r), abs(lam_b)) > SCHUR_SIGN_TOL:
        raise NumericError(
            f"Riccati and block forms disagree in sign: {lam_r:.3e} vs {lam_b:.3e}"
        )
    ok = lam_r < -margin_req and lam_b < -margin_req
    return ok, -lam_b


def make_witness(pair: MatrixPair, s_full) -> CorrelationWitness | None:
    """Validate a candidate witness matrix; None when it does not qualify.

    Qualification: symmetric, PSD within WITNESS_PSD_TOL (checked by the
    Jacobi engine), both diagonal blocks exactly unit within 1e-12, and the
    image -(A o S11 + B o S12) has a principal minor <= 0 (strict failure,
    no marginal-band refutations).
    """
    s = as_square(s_full)
    if s.shape[0] != 2 * pair.n:
        raise ContractError(f"witness must be {2 * pair.n} x {2 * pair.n}")
    s = (s + s.T) / 2.0
    blk = BlockSymmetric(s, pair.n)
    if np.abs(np.diag(blk.b11) - 1.0).max() > 1e-12:
        return None
    if np.abs(np.diag(blk.b22) - 1.0).max() > 1e-12:
        return None
    if sym_spectrum(s).min() < -WITNESS_PSD_TOL:
        return None
    image = -(pair.a * blk.b11 + pair.b * blk.b12)
    report = is_p_matrix(image, band=0.0)
    if report.is_p:
        return None
    return CorrelationWitness(s=blk, p_report=report)


def _block_full(a: np.ndarray, b: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    top_left = a.T * p[None, :] + p[:, None] * a
    top_left[np.diag_indices(n)] += q
    top_right = p[:, None] * b
    full = np.empty((2 * n, 2 * n))
    full[:n, :n] = top_left
    full[:n, n:] = top_right
    full[n:, :n] = top_right.T
    full[n:, n:] = -np.diag(q)
    return full


def _lmax(pair: MatrixPair, p: np.ndarray, q: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_block_full(pair.a, pair.b, p, q))[-1])


def _theta_to_pq(theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    w = np.exp(np.clip(theta, -40.0, 40.0))
    w = w * (2.0 * n / w.sum())
    return w[:n], w[n:]


def _simplex_descent(pair: MatrixPair, x0: np.ndarray, opts: SolveOptions) -> np.ndarray:
    n = pair.n
    stop = opts.stop_value()
    state = {"best": np.inf, "best_x": np.array(x0, copy=True)}

    def objective(theta):
        p, q = _theta_to_pq(np.asarray(theta, dtype=float), n)
        val = _lmax(pair, p, q)
        if val < state["best"]:
            state["best"] = val
            state["best_x"] = np.array(theta, copy=True)
        return val

    def callback(_xk):
        if state["best"] <= stop:
            raise StopIteration

    try:
        minimize(
            objective,
            x0,
            method="Nelder-Mead",
            callback=callback,
            options={
                "maxiter": opts.max_iter,
                "maxfev": 2 * opts.max_iter,
                "xatol": SIMPLEX_ATOL,
                "fatol": SIMPLEX_ATOL,
            },
        )
    except StopIteration:
        pass
    return state["best_x"]


def _polish(
    pair: MatrixPair, p: np.ndarray, q: np.ndarray, opts: SolveOptions
) -> tuple[np.ndarray, np.ndarray, float]:
    """Projected subgradient descent on lambda_max over the gauge slice.

    The block form is linear in (p, q), so lambda_max is convex there; the
    subgradient at the top eigenvector u = (u1, u2) has the closed form
    g_p[i] = 2 u1[i] (A u1 + B u2)[i], g_q[i] = u1[i]^2 - u2[i]^2. Steps are
    projected back onto sum(p) + sum(q) = 2n with a positivity floor.
    """
    a, b = pair.a, pair.b
    n = pair.n
    gauge = 2.0 * n
    floor = 1e-12
    x = np.concatenate([p, q])
    best_x = x.copy()
    best_lam = _lmax(pair, p, q)
    stop = opts.stop_value()
    for _ in range(POLISH_ITERS):
        if best_lam <= stop:
            break
        full = _block_full(a, b, x[:n], x[n:])
        w, vecs = np.linalg.eigh(full)
        lam = float(w[-1])
        u1 = vecs[: n, -1]
        u2 = vecs[n:, -1]
        gp = 2.0 * u1 * (a @ u1 + b @ u2)
        gq = u1 * u1 - u2 * u2
        g = np.concatenate([gp, gq])
        g -= g.mean()
        gnorm = float(np.linalg.norm(g))
        if gnorm < 1e-16:
            break
        alpha = 0.25 * max(float(x.max()), 1e-6) / gnorm
        improved = False
        for _ in range(12):
            cand = np.maximum(x - alpha * g, floor)
            cand *= gauge / cand.sum()
            cand_lam = _lmax(pair, cand[:n], cand[n:])
            if cand_lam < lam - 1e-15:
                x = cand
                if cand_lam < best_lam:
                    best_lam = cand_lam
                    best_x = cand.copy()
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return best_x[:n], best_x[n:], best_lam


def _sign_witness_search(pair: MatrixPair) -> tuple[np.ndarray | None, int]:
    """Exhaustive search over rank-one sign witnesses S = s s', s in {+-1}^{2n}.

    Works subset by subset: the principal minor of -(A o dd' + B o de') on
    index set alpha depends only on the signs restricted to alpha, and equals
    (-1)^k det(D_a) det(A_a D_a + B_a E_a). Returns the full sign matrix of
    the first violation (subsets by size then lexicographic, sign patterns in
    binary counter order) and the number of candidates examined.
    """
    n = pair.n
    if n > SIGN_ENUM_MAX_N:
        return None, 0
    a, b = pair.a, pair.b
    tried = 0
    for size in range(1, n + 1):
        parity = -1.0 if size % 2 else 1.0
        sign_tuples = list(product((1.0, -1.0), repeat=size))
        d_tuples = [t for t in sign_tuples if t[0] == 1.0]  # global flip is redundant
        for subset in combinations(range(n), size):
            ix = np.ix_(subset, subset)
            asub = a[ix]
            bsub = b[ix]
            for dt in d_tuples:
                d = np.asarray(dt)
                ad = asub * d[None, :]
                dprod = float(np.prod(d))
                for et in sign_tuples:
                    e = np.asarray(et)
                    tried += 1
                    minor = parity * dprod * _minor(ad + bsub * e[None, :])
                    if minor <= 0.0:
                        d_full = np.ones(n)
                        e_full = np.ones(n)
                        d_full[list(subset)] = d
                        e_full[list(subset)] = e
                        s_vec = np.concatenate([d_full, e_full])
                        return np.outer(s_vec, s_vec), tried
    return None, tried


def _deterministic_refutation(pair: MatrixPair) -> tuple[CorrelationWitness | None, int]:
    """The two structured extremes, then the rank-one sign enumeration."""
    n = pair.n
    ones = np.ones((n, n))
    tried = 0
    for s12_sign in (1.0, -1.0):
        s = np.block([[ones, s12_sign * ones], [s12_sign * ones, ones]])
        tried += 1
        witness = make_witness(pair, s)
        if witness is not None:
            return witness, tried
    s_full, enum_tried = _sign_witness_search(pair)
    tried += enum_tried
    if s_full is not None:
        witness = make_witness(pair, s_full)
        if witness is not None:
            return witness, tried
    return None, tried


def refute_by_sampling(
    pair: MatrixPair, n_samples: int = DEFAULT_SAMPLES, seed: int = 0
) -> tuple[CorrelationWitness | None, int]:
    """Search for an infeasibility witness; returns (witness or None, tried).

    Deterministic phase first: the all-ones extreme, the extreme with the
    off-diagonal block negated, then every rank-one sign matrix (n <= 6).
    After that, n_samples random unit-column Gram matrices S = G'G with G
    drawn 2n x 2n standard normal and columns normalized. Identical seeds
    give identical outcomes.
    """
    if n_samples < 0:
        raise ContractError("n_samples must be >= 0")
    witness, tried = _deterministic_refutation(pair)
    if witness is not None:
        return witness, tried
    rng = np.random.default_rng(seed)
    dim = 2 * pair.n
    for _ in range(n_samples):
        g = rng.standard_normal((dim, dim))
        norms = np.linalg.norm(g, axis=0)
        norms[norms == 0.0] = 1.0
        g = g / norms[None, :]
        s = g.T @ g
        np.fill_diagonal(s, 1.0)
        tried += 1
        witness = make_witness(pair, s)
        if witness is not None:
            return witness, tried
    return None, tried


def solve_diagonal(pair: MatrixPair, options: SolveOptions | None = None) -> Verdict:
    """Decide diagonal Riccati stability of a pair, with evidence.

    Pipeline: a deterministic refutation screen (certain when it fires), then
    a multistart search minimizing lambda_max of the block form over diagonal
    (P, Q) in log coordinates on the gauge sum(p) + sum(q) = 2n, with a
    Nelder-Mead stage and an eigenvector-subgradient polish per start. A
    candidate below -tol is exactly re-verified through both forms before
    Feasible is returned; starts are tried in order and the first success
    wins, so outcomes are reproducible. If no start certifies, the sampling
    refuter runs; when it also fails the verdict is Unknown with the best
    margin found.
    """
    opts = options or SolveOptions()
    n = pair.n
    witness, screened = _deterministic_refutation(pair)
    if witness is not None:
        return Verdict.refuted(witness, samples_tried=screened)

    rng = np.random.default_rng(opts.seed)
    dim = 2 * n
    start_points = [np.zeros(dim)]
    for _ in range(STARTS - 1):
        start_points.append(rng.uniform(-LOG_BOX, LOG_BOX, dim))

    best_lam = np.inf
    for x0 in start_points:
        x_best = _simplex_descent(pair, x0, opts)
        p, q = _theta_to_pq(x_best, n)
        lam = _lmax(pair, p, q)
        if lam > opts.stop_value():
            p, q, lam = _polish(pair, p, q, opts)
        best_lam = min(best_lam, lam)
        if lam <= -opts.tol:
            ok, margin = verify_certificate(pair, p, q, margin_req=opts.tol)
            if ok:
                cert = RiccatiCertificate(p=p, q=q, margin=margin)
                return Verdict.feasible(cert, samples_tried=screened)

    witness, sampled = refute_by_sampling(pair, opts.samples, opts.seed)
    total = screened + sampled
    if witness is not None:
        return Verdict.refuted(witness, samples_tried=total)
    return Verdict.unknown(best_margin=-best_lam, samples_tried=total)
