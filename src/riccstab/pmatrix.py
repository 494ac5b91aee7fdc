"""P-matrix tests by recursive Schur complements.

A real square matrix is a P-matrix when every principal minor is strictly
positive. Every principal minor is a product of Schur-complement pivots
(Tsatsomeros & Li, BIT 40, 2000; Griffin & Tsatsomeros, LAA 419, 2006):
for a subset alpha of {0..k-1} whose Schur complement on the indices
k..n-1 is S, det A[alpha + {k}] = det A[alpha] * S[0, 0], and the
complement of alpha + {k} on k+1..n-1 is S[1:, 1:] - S[1:, 0] S[0, 1:] / S[0, 0].
is_p_matrix adds one index at a time and updates the complements of all
live subsets as one stack: n batched rank-one updates and O(2^n) scalar
work for the 2^n - 1 minors. The updates do not pivot, so a running bound
on their rounding error decides which pivots the walk may read; a minor
whose pivot it may not is taken from its submatrix. The walk is still
exponential, so inputs are capped at n = 14. Only the signs of the minors
are tested, and c * M and D M D share those with M (c > 0, D positive
diagonal), as the P-property asks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SizeGuardError
from .matcore import _up, as_positive_vector, as_square, proves_negative_definite

MAX_P_SIZE = 14
PIVOT_TRUST = 2.0**-10  # largest error bound, relative to its pivot, at which the walk reads a pivot
_EPS = 2.0**-53  # unit roundoff
_HUGE = 2.0**900  # pivots are clamped here, so that one that overflowed never counts as read


@dataclass(frozen=True)
class PMatrixReport:
    """Outcome of a P-matrix test.

    failing_subset holds 0-based row/column indices of the first principal
    minor that is not strictly positive (empty tuple when the matrix is P),
    and failing_minor its determinant.
    """

    is_p: bool
    failing_subset: tuple[int, ...] = ()
    failing_minor: float | None = None


def stacked_minors(stack: np.ndarray) -> np.ndarray:
    """Determinants of a (..., k, k) stack: closed forms for k <= 2, else one
    np.linalg.det call, which gives each matrix the value it would get alone."""
    k = stack.shape[-1]
    if k == 1:
        return stack[..., 0, 0]
    if k == 2:
        return stack[..., 0, 0] * stack[..., 1, 1] - stack[..., 0, 1] * stack[..., 1, 0]
    return np.linalg.det(stack)


def is_p_matrix(m, band: float = 0.0) -> PMatrixReport:
    """Test all principal minors of a square matrix for strict positivity.

    Subsets are ranked by size, then lexicographically, and the first minor
    <= 0 is reported with its det value (stacked_minors of the submatrix;
    +-inf with the minor's sign, never NaN, when it is beyond the float
    range). band must be 0.0: any other value, NaN included, is refused.

    The diagonal is tested first, every other minor by the walk of the module
    docstring on M, scaled up by a power of two when its largest entry is
    below 1. The walk reads signs only, of pivots and of minors taken from
    submatrices scaled by powers of two, so no minor under- or overflows
    and c * M gets M's verdict however small or large c is. A pivot is read
    only when a bound on its rounding error is at most PIVOT_TRUST times its
    size; the minor of any other pivot (one lost to cancellation, or not
    finite), and every minor grown from it, is taken from its submatrix, as
    the per-minor walk would.
    """
    a = as_square(m)
    n = a.shape[0]
    if n > MAX_P_SIZE:
        raise SizeGuardError(f"P-matrix enumeration capped at n={MAX_P_SIZE}, got {n}")
    if band != 0.0:
        raise ContractError(f"minors are tested for strict positivity: band must be 0.0, got {band}")
    d = a.diagonal()
    if d.min() <= 0.0:  # the 1 x 1 minors come first
        subset = np.flatnonzero(d <= 0.0)[:1]
    else:
        top = float(np.abs(a).max())
        shift = max(1 - math.frexp(top)[1], 0)  # up only: exact, as no entry can underflow
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the walk checks finiteness
            subset = _first_failing_subset(np.ldexp(a, shift), math.ldexp(top, shift))
        if subset is None:
            return PMatrixReport(is_p=True)
    sub = a[subset[:, None], subset]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        minor = float(stacked_minors(sub))
        if not math.isfinite(minor):  # beyond the float range, or inf - inf: +-inf with the sign of the minor
            sign, log_abs_det = _signed_log_dets(sub[None])
            minor = float(sign[0] * np.exp(log_abs_det[0]))
    return PMatrixReport(False, tuple(subset.tolist()), minor)


def _first_failing_subset(a: np.ndarray, top: float) -> np.ndarray | None:
    """Indices of the first subset, by size then lexicographically, whose minor
    is <= 0, or None when there is none.

    A subset of size s is keyed by s * 2^n minus the sum of 2^(n-1-i) over
    its indices i, so keys order subsets by size, then lexicographically.
    At step k, slice r of the stack (its last axis) is a live subset alpha
    of {0..k-1}, with key keys[r], holding the Schur complement of a[alpha]
    on k..n-1; the subset axis is last so that the reductions over the
    pivot's row and column run along whole contiguous rows of the stack. A
    subset whose minor fails is dropped: every subset grown from it is
    larger, so comes later. Once a failure F is found, a subset is dropped
    unless it comes before F minus its largest index: whatever grows from
    any other subset comes after F.

    The update pivots on the diagonal, so cancellation can leave a pivot
    with no correct digit. growth[r] is the product, over the updates that
    formed the complement of alpha, of (1 + A/|c|)(1 + B/|c|), where c is the
    update's pivot and A, B are the largest other entries of its column and
    row. One update multiplies a bound on the error of the entries by
    (1 + A/|c|)(1 + B/|c|)(1 + 4 PIVOT_TRUST), as long as its pivot was read,
    and adds at most 4u times a bound on their size that grows by the same
    factor (u the unit roundoff, top = max|a| >= 1 the first size bound).
    So after k steps every entry of the complement is within
    k * 4u * top * (1 + 4 PIVOT_TRUST)^k * growth[r] of its exact value, and
    the walk reads a pivot only when that is at most PIVOT_TRUST * |pivot|.
    The sign of any other pivot's minor is taken from its submatrix by
    _minor_signs, and so is that of every minor grown from it (growth inf).
    The row of the empty subset holds entries of a itself: its pivots, the
    diagonal, are exact and known to be positive.
    """
    n = a.shape[0]
    full = 1 << n
    stack, keys, growth = a[:, :, None], np.zeros(1, dtype=np.int64), np.ones(1)
    unit_error = 4.0 * _EPS * top
    first = bound = None
    for k in range(n):
        step = full - (full >> (k + 1))  # key of alpha + {k} minus key of alpha
        pivots = stack[0, 0]
        child_keys = keys + step
        unsure = None
        if k:  # at k = 0 the pivots are the diagonal: positive and exact
            limit = PIVOT_TRUST / (k * unit_error * (1.0 + 4.0 * PIVOT_TRUST) ** k)
            ok = limit * np.minimum(pivots, _HUGE) >= growth  # positive and read; False for NaN
            if not ok.all():
                ok = pivots > 0.0
                sure = growth <= limit * np.minimum(np.abs(pivots), _HUGE)
                sure[0] |= keys[0] == 0  # alpha empty: the pivot is a diagonal entry, exact and positive
                if not sure.all():
                    unsure = np.flatnonzero(~sure)
                    ok[unsure] = _minor_signs(a, child_keys[unsure]) > 0.0
                if not ok.all():
                    failed = np.flatnonzero(~ok)
                    r = failed[child_keys[failed].argmin()]
                    if first is None or child_keys[r] < first:
                        first, bound = child_keys[r], child_keys[r] - step
        if k == n - 1:
            break
        column = stack[1:, 0] / pivots
        grown = stack[1:, 1:] - column[:, None] * stack[0, 1:]
        row = np.abs(stack[0, 1:]).max(axis=0) / pivots  # of a failing pivot: dropped below
        child_growth = growth * (1.0 + np.abs(column).max(axis=0)) * (1.0 + row)
        if unsure is not None:
            child_growth[unsure] = np.inf  # so every minor grown from one is taken from its submatrix
        stack = np.concatenate((stack[1:, 1:], grown), axis=2)
        keys = np.concatenate((keys, child_keys))
        growth = np.concatenate((growth, child_growth))
        if first is not None:
            live = keys < bound
            live[len(ok) :] &= ok
            stack, keys, growth = stack[:, :, live], keys[live], growth[live]
            if not keys.size:
                break
    return None if first is None else _indices(first, n)


def _indices(key: int, n: int) -> np.ndarray:
    """The indices of the subset with this key (see _first_failing_subset)."""
    return np.array([i for i in range(n) if -int(key) >> (n - 1 - i) & 1])


def _minor_signs(a: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Signs of the minors of a on the subsets with these keys, by
    _signed_log_dets, one call per subset size."""
    n = a.shape[0]
    members = ((1 << n) >> np.arange(1, n + 1) & -keys[:, None]) != 0
    sizes = members.sum(axis=1)
    sign = np.empty(len(keys))
    for s in np.unique(sizes):
        rows = np.flatnonzero(sizes == s)
        idx = np.nonzero(members[rows])[1].reshape(-1, s)
        sign[rows] = _signed_log_dets(a[idx[:, :, None], idx[:, None, :]])[0]
    return sign


def _signed_log_dets(subs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log |det| of a (..., s, s) stack, with no over- or underflow.

    Each matrix has its rows scaled by powers of two to a largest entry in
    [1, 2), then its columns scaled up to a largest entry of at least 1; the
    log is corrected after. Scaling up is exact; scaling a row down loses
    only entries below 2^-1022 times the row's largest. A 2 x 2 determinant
    is then taken in closed form, as by stacked_minors: neither product can
    overflow and one of them is at least 1, so underflow cannot flip its
    sign, while LAPACK's LU of [[1e-310, 1], [1e-310, 1e-100]] can. Larger
    ones come from one slogdet call.
    """
    rows = 1 - np.frexp(np.abs(subs).max(axis=-1))[1]
    subs = np.ldexp(subs, rows[..., :, None])
    cols = np.maximum(1 - np.frexp(np.abs(subs).max(axis=-2))[1], 0)
    subs = np.ldexp(subs, cols[..., None, :])
    shift = rows.sum(axis=-1) + cols.sum(axis=-1)
    if subs.shape[-1] <= 2:
        minors = stacked_minors(subs)
        sign, log_abs_det = np.sign(minors), np.log(np.abs(minors))
    else:
        sign, log_abs_det = np.linalg.slogdet(subs)
    return sign, log_abs_det - shift * np.log(2.0)


def nonpositive_minor(m) -> PMatrixReport | None:
    """The first principal minor <= 0 among those affordable at any size, or None.

    Up to MAX_P_SIZE: the walk of is_p_matrix, all 2^n - 1 minors. Above it:
    the diagonal entries, then the full determinant with its sign from
    _signed_log_dets, which neither under- nor overflows.
    """
    a = as_square(m)
    if a.shape[0] <= MAX_P_SIZE:
        report = is_p_matrix(a)
        return None if report.is_p else report
    bad = np.flatnonzero(np.diag(a) <= 0.0)
    if bad.size:
        return PMatrixReport(False, (int(bad[0]),), float(a[bad[0], bad[0]]))
    sign, logdet = _signed_log_dets(a[None])
    if sign[0] > 0.0:
        return None
    with np.errstate(over="ignore"):  # the sign decided; the value is only reported
        return PMatrixReport(False, tuple(range(a.shape[0])), float(sign[0] * np.exp(logdet[0])))


def _proves_definite_symmetric_part(m: np.ndarray) -> bool:
    """True only when the symmetric part H = (M + M')/2 of a square M is
    proved positive definite. Then so is that of every principal submatrix,
    whose determinant is therefore positive: M is a P-matrix (Fiedler & Ptak
    1962). False for a non-finite M, a diagonal entry <= 0, an M whose sums
    could overflow, and whenever the proof fails. M is first scaled up,
    exactly, by the power of two that puts max|M| at 1/2 or above. Forming H
    rounds each entry by at most u max|M| + 2^-1075 <= 2u max|M| (u = 2^-53),
    which moves no eigenvalue by more than 2ku max|M| (k = size), the margin
    at which matcore.proves_negative_definite proves -H negative definite.
    """
    k = m.shape[0]
    if not m.diagonal().min() > 0.0:  # NaN too
        return False
    top = float(np.abs(m).max())  # inf or NaN when m is not finite
    shift = max(-math.frexp(top)[1], 0)
    a, top = np.ldexp(m, shift), math.ldexp(top, shift)
    # 2k top finite: no sum here or in the proof overflows
    return math.isfinite(2.0 * k * top) and proves_negative_definite((a + a.T) * -0.5, _up(2.0 * k * _EPS * top))


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
