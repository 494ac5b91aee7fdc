"""Dense matrix utilities and the two eigenvalue engines.

Everything downstream leans on this module: entrywise (Hadamard) products,
sign envelopes, the cyclic Jacobi eigensolver for symmetric matrices, and a
tri-state Hurwitz test that bands the spectral abscissa (from LAPACK
eigenvalues) relative to the size of the entries. Matrices are dense,
row-major numpy arrays of float64. All functions are pure; inputs are never
mutated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DimensionError, NumericError

JACOBI_MAX_SWEEPS = 50
JACOBI_OFF_TOL = 1e-12
DEFINITENESS_TOL = 1e-10
HURWITZ_MARGIN = 1e-9
SYMMETRY_RTOL = 1e-10


def as_matrix(obj) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising on anything else."""
    m = np.asarray(obj, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0:
        raise DimensionError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractError("matrix entries must be finite")
    return m


def as_square(obj) -> np.ndarray:
    m = as_matrix(obj)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_vector(obj, n: int | None = None) -> np.ndarray:
    v = np.asarray(obj, dtype=float).reshape(-1)
    if v.size == 0:
        raise DimensionError("expected a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ContractError("vector entries must be finite")
    if n is not None and v.size != n:
        raise DimensionError(f"expected a vector of length {n}, got {v.size}")
    return v


def as_positive_vector(obj, n: int | None = None) -> np.ndarray:
    v = as_vector(obj, n)
    if np.any(v <= 0.0):
        raise ContractError("vector entries must be strictly positive")
    return v


def hadamard(x, y) -> np.ndarray:
    """Entrywise product of two same-shaped matrices."""
    a = as_matrix(x)
    b = as_matrix(y)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch for entrywise product: {a.shape} vs {b.shape}")
    return a * b


class SignEnvelopes(NamedTuple):
    """Comparison envelopes of a square matrix.

    metzler keeps the diagonal and takes absolute values off it; nonneg takes
    absolute values everywhere.
    """

    metzler: np.ndarray
    nonneg: np.ndarray


def sign_envelopes(c) -> SignEnvelopes:
    m = as_square(c)
    nonneg = np.abs(m)
    metzler = nonneg.copy()
    np.fill_diagonal(metzler, np.diag(m))
    return SignEnvelopes(metzler, nonneg)


def is_metzler(m) -> bool:
    """True when every off-diagonal entry is >= 0."""
    a = as_square(m)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return bool(np.all(off >= 0.0))


def is_nonnegative(m) -> bool:
    return bool(np.all(as_matrix(m) >= 0.0))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real eigenvalues of a symmetric matrix, sorted ascending."""

    eigenvalues: np.ndarray
    abscissa: float
    sweeps: int = 0

    def min(self) -> float:
        return float(self.eigenvalues[0])


@dataclass(frozen=True, eq=False)
class BlockSymmetric:
    """A symmetric 2n x 2n matrix with named n x n blocks."""

    full: np.ndarray
    n: int = field(default=0)

    def __post_init__(self):
        full = as_square(self.full)
        n = self.n if self.n else full.shape[0] // 2
        if full.shape[0] != 2 * n:
            raise DimensionError(f"full matrix of shape {full.shape} is not 2n x 2n for n={n}")
        scale = max(1.0, float(np.linalg.norm(full)))
        if float(np.abs(full - full.T).max()) > 1e-12 * scale:
            raise ContractError("block matrix is not symmetric within tolerance")
        object.__setattr__(self, "full", full)
        object.__setattr__(self, "n", n)

    @classmethod
    def from_blocks(cls, b11, b12, b22) -> "BlockSymmetric":
        b11 = as_square(b11)
        b12 = as_matrix(b12)
        b22 = as_square(b22)
        n = b11.shape[0]
        if b12.shape != (n, n) or b22.shape != (n, n):
            raise DimensionError("blocks must all be n x n")
        top = np.hstack([(b11 + b11.T) / 2.0, b12])
        bot = np.hstack([b12.T, (b22 + b22.T) / 2.0])
        return cls(np.vstack([top, bot]), n)

    @property
    def b11(self) -> np.ndarray:
        return self.full[: self.n, : self.n]

    @property
    def b12(self) -> np.ndarray:
        return self.full[: self.n, self.n :]

    @property
    def b22(self) -> np.ndarray:
        return self.full[self.n :, self.n :]


def _require_symmetric(m) -> np.ndarray:
    a = as_square(m)
    scale = max(1.0, float(np.linalg.norm(a)))
    if float(np.abs(a - a.T).max()) > SYMMETRY_RTOL * scale:
        raise ContractError("matrix is not symmetric within tolerance")
    return (a + a.T) / 2.0


def jacobi_eigh(m) -> tuple[np.ndarray, np.ndarray, int]:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvectors as columns, sweeps used).
    Sweeps rows cyclically; converges when the off-diagonal Frobenius norm
    drops below JACOBI_OFF_TOL times the Frobenius norm of the input. Raises
    NumericError if that has not happened after JACOBI_MAX_SWEEPS sweeps.
    """
    a = _require_symmetric(m).copy()
    n = a.shape[0]
    v = np.eye(n)
    fro = float(np.linalg.norm(a))
    if n == 1 or fro == 0.0:
        return np.diag(a).copy(), v, 0

    target = JACOBI_OFF_TOL * fro
    # pivots this small cannot lift the off norm above target even if every
    # off-diagonal entry sat at the threshold, so rotating on them is wasted
    # work (and risks overflow in the theta quotient)
    skip = target / (2.0 * n)
    iu = np.triu_indices(n, 1)
    for sweep in range(1, JACOBI_MAX_SWEEPS + 1):
        off = float(np.sqrt(2.0 * np.sum(a[iu] ** 2)))
        if off <= target:
            w = np.diag(a).copy()
            order = np.argsort(w, kind="stable")
            return w[order], v[:, order], sweep - 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) if theta != 0.0 else 1.0
                t = t / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                # columns, then rows: A <- J^T A J with the (p,q) rotation
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    raise NumericError(f"Jacobi sweep did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def sym_spectrum(m) -> Spectrum:
    """Full real spectrum of a symmetric matrix via cyclic Jacobi."""
    w, _, sweeps = jacobi_eigh(m)
    return Spectrum(eigenvalues=w, abscissa=float(w[-1]), sweeps=sweeps)


def is_positive_definite(m, tol: float = DEFINITENESS_TOL) -> bool:
    return sym_spectrum(m).min() > tol


def is_negative_definite(m, tol: float = DEFINITENESS_TOL) -> bool:
    return sym_spectrum(m).abscissa < -tol


class HurwitzResult(str, enum.Enum):
    HURWITZ = "Hurwitz"
    NOT_HURWITZ = "NotHurwitz"
    MARGINAL = "Marginal"


def spectral_abscissa(a) -> float:
    """Largest real part over the eigenvalues of a square matrix."""
    return float(np.max(np.linalg.eigvals(as_square(a)).real))


def hurwitz_band(mu: float, a, margin: float = HURWITZ_MARGIN) -> HurwitzResult:
    """Tri-state verdict from the spectral abscissa mu of a.

    Marginal when |mu| <= margin * max|a_ij|. The band is relative to the
    entries with no absolute floor, so c * a gets the verdict of a for every
    c > 0.
    """
    if abs(mu) <= margin * float(np.abs(a).max()):
        return HurwitzResult.MARGINAL
    return HurwitzResult.HURWITZ if mu < 0.0 else HurwitzResult.NOT_HURWITZ


def is_hurwitz(a, margin: float = HURWITZ_MARGIN) -> HurwitzResult:
    """Tri-state Hurwitz test: Hurwitz, NotHurwitz, or Marginal.

    Marginal means the spectral abscissa lies within the relative margin
    band of zero, so the spectrum is too close to the imaginary axis to call
    either way.
    """
    m = as_square(a)
    return hurwitz_band(spectral_abscissa(m), m, margin)
