"""P-matrix tests by principal-minor enumeration.

A real square matrix is a P-matrix when every principal minor is strictly
positive. Minors are enumerated by subset size, then lexicographically, and
evaluated in stacks of up to MINOR_CHUNK submatrices, one call per stack:
closed forms for sizes 1 and 2, LU factorization with partial pivoting above
(its sign alone, from slogdet, when any positive minor passes).
The enumeration is exponential, so inputs are capped at n = 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ContractError, SizeGuardError
from .matcore import as_positive_vector, as_square

MAX_P_SIZE = 14
MINOR_BAND = 1e-12
MINOR_CHUNK = 256


@dataclass(frozen=True)
class PMatrixReport:
    """Outcome of a P-matrix test.

    failing_subset holds 0-based row/column indices of the first principal
    minor that is not clearly positive (empty tuple when the matrix is P).
    marginal is set when that minor is positive but below the scaled
    positivity band, so the verdict is a boundary call rather than a clean
    sign violation.
    """

    is_p: bool
    failing_subset: tuple[int, ...] = ()
    failing_minor: float | None = None
    marginal: bool = False


@lru_cache(maxsize=None)
def _subset_chunks(n: int, k: int) -> tuple[np.ndarray, ...]:
    """The k-subsets of range(n) in lexicographic order, MINOR_CHUNK rows per array."""
    table = np.array(list(combinations(range(n), k)), dtype=np.int8)
    table.flags.writeable = False
    return tuple(table[i : i + MINOR_CHUNK] for i in range(0, len(table), MINOR_CHUNK))


def stacked_minors(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (..., k, k) stack: closed forms for k <= 2, else one
    np.linalg.det call, which gives each matrix the value it would get alone."""
    k = stack.shape[-1]
    if k == 1:
        return stack[..., 0, 0]
    if k == 2:
        return stack[..., 0, 0] * stack[..., 1, 1] - stack[..., 0, 1] * stack[..., 1, 0]
    return np.linalg.det(stack)


def is_p_matrix(m, band: float = MINOR_BAND) -> PMatrixReport:
    """Test all principal minors of a square matrix for positivity.

    A minor counts as positive only when it exceeds band * scale, where scale
    is the product of row maxima of the submatrix (a crude determinant
    magnitude estimate). Minors in (0, band * scale] fail with the marginal
    flag; pass band=0.0 to accept any positive minor, in which case minors
    of size 3 and up are decided by the sign from slogdet, so that c * M gets
    M's verdict however small c is. Subsets are visited by size, then
    lexicographically, and the first failure is reported with its det value.
    """
    a = as_square(m)
    n = a.shape[0]
    if n > MAX_P_SIZE:
        raise SizeGuardError(f"P-matrix enumeration capped at n={MAX_P_SIZE}, got {n}")
    for size in range(1, n + 1):
        for subsets in _subset_chunks(n, size):
            subs = a[subsets[:, :, None], subsets[:, None, :]]
            if band == 0.0 and size >= 3:
                # the sign alone decides, and slogdet's survives where det rounds to 0.0
                failing = np.flatnonzero(np.linalg.slogdet(subs)[0] <= 0.0)
            else:
                limit = band * np.abs(subs).max(axis=2).prod(axis=1) if band else 0.0
                failing = np.flatnonzero(stacked_minors(subs) <= limit)
            if failing.size:
                subset, minor = tuple(subsets[failing[0]].tolist()), float(stacked_minors(subs[failing[0]]))
                return PMatrixReport(False, subset, minor, marginal=minor > 0.0)
    return PMatrixReport(is_p=True)


def nonpositive_minor(m) -> PMatrixReport | None:
    """The first principal minor <= 0 among those affordable at any size, or None.

    Up to MAX_P_SIZE: the walk of is_p_matrix with band=0. Above it: the
    diagonal entries, then the full determinant with its sign from slogdet
    (det = sign * exp(logdet) underflows to 0.0 for large n).
    """
    a = as_square(m)
    if a.shape[0] <= MAX_P_SIZE:
        report = is_p_matrix(a, band=0.0)
        return None if report.is_p else report
    bad = np.flatnonzero(np.diag(a) <= 0.0)
    if bad.size:
        return PMatrixReport(False, (int(bad[0]),), float(a[bad[0], bad[0]]))
    sign, logdet = np.linalg.slogdet(a)
    if sign > 0.0:
        return None
    with np.errstate(over="ignore"):  # the sign decided; the value is only reported
        return PMatrixReport(False, tuple(range(a.shape[0])), float(sign * np.exp(logdet)))


def p_sign_witness(m, x) -> int | None:
    """Index i with x_i * (Mx)_i > 0, or None when M reverses the sign of x.

    P-matrices admit such an index for every nonzero x; the returned index is
    the one with the largest product (0-based).
    """
    a = as_square(m)
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size != a.shape[0]:
        raise ContractError(f"vector length {v.size} does not match matrix size {a.shape[0]}")
    if not np.any(v != 0.0):
        raise ContractError("witness vector must be nonzero")
    products = v * (a @ v)
    idx = int(np.argmax(products))
    return idx if products[idx] > 0.0 else None


def dpd_conjugate(m, d) -> np.ndarray:
    """Two-sided scaling D M D with D = diag(d), d strictly positive.

    Preserves the P-property: principal minors scale by squared products of
    the d entries.
    """
    a = as_square(m)
    dv = as_positive_vector(d, a.shape[0])
    return a * np.outer(dv, dv)
