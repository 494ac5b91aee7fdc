"""Dense matrix utilities, symmetric block matrices and a definiteness proof.

Everything downstream leans on this module: the BlockSymmetric type,
proves_negative_definite, a rounding-safe Cholesky proof of negative
definiteness that holds however accurate an eigensolver is, and the
spectral abscissa (the class verdicts in classes band it). Matrices are
dense, row-major numpy arrays of float64. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError


def as_matrix(obj) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, raising on anything else."""
    m = np.asarray(obj, dtype=float)
    if m.ndim != 2 or m.shape[0] == 0:
        raise DimensionError(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
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
    if not np.isfinite(v).all():
        raise ContractError("vector entries must be finite")
    if n is not None and v.size != n:
        raise DimensionError(f"expected a vector of length {n}, got {v.size}")
    return v


def as_positive_vector(obj, n: int | None = None) -> np.ndarray:
    v = as_vector(obj, n)
    if (v <= 0.0).any():
        raise ContractError("vector entries must be strictly positive")
    return v


def is_metzler(m) -> bool:
    """True when every off-diagonal entry is >= 0."""
    a = as_square(m)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return bool(np.all(off >= 0.0))


def is_nonnegative(m) -> bool:
    """True when every entry is >= 0."""
    return bool(np.all(as_matrix(m) >= 0.0))


@dataclass(frozen=True, eq=False)
class BlockSymmetric:
    """A symmetric 2n x 2n matrix with named n x n blocks."""

    full: np.ndarray

    def __post_init__(self):
        full = as_square(self.full)
        if full.shape[0] % 2:
            raise DimensionError(f"full matrix of shape {full.shape} is not 2n x 2n")
        if float(np.abs(full - full.T).max()) > 1e-12 * _symmetry_scale(full):
            raise ContractError("block matrix is not symmetric within tolerance")
        object.__setattr__(self, "full", full)

    @property
    def n(self) -> int:
        return self.full.shape[0] // 2

    @property
    def b11(self) -> np.ndarray:
        return self.full[: self.n, : self.n]

    @property
    def b12(self) -> np.ndarray:
        return self.full[: self.n, self.n :]

    @property
    def b22(self) -> np.ndarray:
        return self.full[self.n :, self.n :]


def _symmetry_scale(a: np.ndarray) -> float:
    """max(1, ||a||_F), formed on a / max|a| so that it cannot overflow."""
    top = float(np.abs(a).max())
    return max(1.0, top * float(np.linalg.norm(a / top))) if top > 0.0 else 1.0


def _up(x: float) -> float:
    """Next float up: bounds the real result of the rounding that made x."""
    return math.nextafter(x, math.inf)


def proves_negative_definite(a: np.ndarray, margin: float = 0.0) -> bool:
    """True only when a < -margin * I is proved despite rounding; a must be
    exactly symmetric, as a block form from riccati.block_lmi is.

    Floating-point Cholesky must complete on S = fl(G - cI), G = -a - margin I
    of size k, with Rump's a-priori shift (BIT 46, 2006), u = 2^-53,
    gamma = (k + 1) u / (1 - (k + 1) u) and eta = 2^-1074:
    c = (1 + 4u)((1 + u) tr(G) gamma / (1 - gamma) + u max g_ii) + 2k(k + 2 + max g_ii) eta.
    Completion gives R'R = S + E, |E| <= gamma |R'||R| (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), so lambda_min(S) >
    -gamma (1 + u) tr(G) / (1 - gamma); u max g_ii covers the rounding of
    diag(S), the eta term underflow. c is evaluated rounding upward, so the
    float shift is never below it. False means only that the proof failed.

    Where k max(|a_ii|, |margin|) >= 2^1020 the trace or c could overflow, so
    the proof runs on 2^-e a at margin 2^-e margin + k eta (2^e > that max):
    the scaling rounds only entries that end subnormal, each by <= eta / 2,
    which moves no eigenvalue by more than k eta / 2; k eta also covers the
    rounding of 2^-e margin.
    """
    k = a.shape[0]
    u, eta = 2.0**-53, 2.0**-1074
    g_diag = (-np.diag(a)).tolist()
    top = max(*map(abs, g_diag), abs(margin))
    if 2.0**1020 / k <= top < math.inf:
        scale = 2.0 ** -math.frexp(top)[1]
        return proves_negative_definite(a * scale, _up(_up(margin * scale) + k * eta))
    trace = _up(math.fsum([*g_diag, *[-margin] * k]))
    if trace <= 0.0:  # no positive definite G has a trace <= 0
        return False
    g_max = _up(max(g_diag) - margin)
    ku = (k + 1) * u
    ratio = _up(ku / (1.0 - 2.0 * ku))  # gamma / (1 - gamma), exactly ku / (1 - 2 ku)
    c = _up(_up(ratio * trace) * (1.0 + 2.0 * u))  # 1 + 2u: the float above 1 + u
    c = _up(_up(c + _up(u * g_max)) * (1.0 + 4.0 * u))
    c = _up(c + _up(_up(2.0 * k * _up(k + 2.0 + g_max)) * eta))
    try:
        np.linalg.cholesky(-a - _up(margin + c) * np.eye(k))  # rounds the diagonal only
    except np.linalg.LinAlgError:
        return False
    return True


def spectral_abscissa(a) -> float:
    """Largest real part over the eigenvalues of a square matrix."""
    return float(np.max(np.linalg.eigvals(as_square(a)).real))

