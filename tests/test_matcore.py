"""Core matrix helpers: sign tests, the block form's reported margin
against a Jacobi reference, and the Cholesky definiteness proof against an
exact oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from riccstab.errors import DimensionError
from riccstab.matcore import (
    BlockSymmetric,
    is_metzler,
    is_nonnegative,
    proves_negative_definite,
)
from riccstab.riccati import MatrixPair, Verdict, block_lmi, solve_diagonal, verify_certificate

JACOBI_MAX_SWEEPS = 50
JACOBI_OFF_TOL = 1e-12


def reference_jacobi_eigh(m):
    """Cyclic Jacobi diagonalization of a symmetric matrix, the engine the
    package used before LAPACK; kept as an independent reference.

    Returns (eigenvalues ascending, eigenvectors as columns, sweeps used).
    Converges when the off-diagonal Frobenius norm drops below
    JACOBI_OFF_TOL times the Frobenius norm of the input.
    """
    a = np.array(m, dtype=float)
    a = (a + a.T) / 2.0
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
    raise RuntimeError(f"Jacobi sweep did not converge in {JACOBI_MAX_SWEEPS} sweeps")


def exact_ldl_pivots(x):
    """LDL' pivots of a symmetric matrix of floats or Fractions over the
    rationals, exact because floats are dyadic; None once a pivot is <= 0
    (then x is not positive definite, and otherwise it is)."""
    k = len(x)
    a = [[Fraction(v) for v in row] for row in x]
    pivots = []
    for j in range(k):
        d = a[j][j]
        if d <= 0:
            return None
        pivots.append(d)
        for i in range(j + 1, k):
            f = a[i][j] / d
            for c in range(j + 1, i + 1):
                a[i][c] -= f * a[c][j]
    return pivots


def oracle_negative_definite(m, margin):
    """Exact decision of m < -margin I; the smallest pivot, or None."""
    k = m.shape[0]
    x = [[-Fraction(float(m[i, j])) - (Fraction(margin) if i == j else 0) for j in range(k)] for i in range(k)]
    pivots = exact_ldl_pivots(x)
    return None if pivots is None else min(pivots)


def test_is_metzler_examples():
    assert is_metzler([[-1.0, 0.5], [0.0, -2.0]])
    assert not is_metzler([[-1.0, -0.1], [0.0, -2.0]])
    assert is_nonnegative([[0.0, 1.0], [2.0, 0.0]])


def test_block_symmetric_reads_its_block_size_from_its_matrix():
    s = BlockSymmetric(np.arange(16.0).reshape(4, 4) + np.arange(16.0).reshape(4, 4).T)
    assert s.n == 2
    assert np.array_equal(s.b12, s.full[:2, 2:])
    with pytest.raises(DimensionError, match="2n x 2n"):
        BlockSymmetric(np.eye(3))


def test_jacobi_eigenpairs_random():
    rng = np.random.default_rng(11)
    for n in (2, 5, 8, 12):
        g = rng.standard_normal((n, n))
        m = (g + g.T) / 2.0
        w, v, _ = reference_jacobi_eigh(m)
        fro = np.linalg.norm(m)
        for k in range(n):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-9 * fro
        assert np.all(np.diff(w) >= 0.0)


def test_jacobi_matches_numpy_eigvalsh():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 13))
        g = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
        m = (g + g.T) / 2.0
        w, _, _ = reference_jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)
        worst = max(worst, float(np.abs(w - ref).max() / max(1.0, np.abs(ref).max())))
    assert worst <= 1e-10


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 1e3, 1e9])
def test_verify_certificate_margin_matches_jacobi_reference(scale):
    # the margin is minus the block form's top eigenvalue, accepted or not
    rng = np.random.default_rng(19)
    for n in range(1, 16):
        pair = MatrixPair(rng.standard_normal((n, n)) * scale, rng.standard_normal((n, n)) * scale)
        p, q = rng.uniform(0.1, 3.0, n), rng.uniform(0.1, 3.0, n)
        f = block_lmi(pair, p, q).full
        w, _, _ = reference_jacobi_eigh(f)
        _, margin = verify_certificate(pair, p, q)
        assert abs(-margin - w[-1]) <= 1e-12 * np.linalg.norm(f)


def _proof_cases():
    """(m, margin) pairs, k <= 12: seeded random negative definite blocks at
    margins spread around the exact boundary, then the block forms of solver
    certificates with margins within 1e-13 ||F|| of minus their top
    eigenvalue."""
    rng = np.random.default_rng(23)
    for _ in range(60):
        k = int(rng.integers(1, 13))
        g = rng.standard_normal((k, k)) * 10.0 ** rng.uniform(-6.0, 6.0)
        m = (g + g.T) / 2.0
        m = m - (np.linalg.eigvalsh(m)[-1] + abs(rng.standard_normal()) * np.abs(m).max()) * np.eye(k)
        top = float(np.linalg.eigvalsh(m)[-1])
        for rel in (-1e-3, -1e-8, -1e-13, 0.0, 1e-13, 1e-8):
            yield m, max(0.0, -top + rel * np.linalg.norm(m))
    for n in range(1, 7):
        for _ in range(4):
            pair = MatrixPair(rng.standard_normal((n, n)) - 3.0 * np.eye(n), rng.standard_normal((n, n)))
            verdict = solve_diagonal(pair)
            if verdict.status != Verdict.FEASIBLE:
                continue
            f = block_lmi(pair, verdict.certificate.p, verdict.certificate.q).full
            top = float(np.linalg.eigvalsh(f)[-1])
            for rel in (-1e-13, -1e-14, 0.0, 1e-14, 1e-13):
                yield f, max(0.0, -top + rel * np.linalg.norm(f))


def test_proof_agrees_with_exact_oracle():
    proved = refused = 0
    for m, margin in _proof_cases():
        smallest = oracle_negative_definite(m, margin)
        claim = proves_negative_definite(m, margin)
        if smallest is None:
            assert not claim
            refused += 1
            continue
        trace = -np.trace(m) - m.shape[0] * margin
        if smallest > Fraction(1e-10) * Fraction(float(trace)):
            assert claim
        proved += claim
    assert proved >= 100 and refused >= 50


def test_proof_near_the_float_range_agrees_with_exact_oracle():
    # entries up to about 1.7e308: the trace, and so the shift, leaves the float range unscaled
    rng = np.random.default_rng(29)
    proved = refused = 0
    for _ in range(40):
        k = int(rng.integers(1, 9))
        g = rng.standard_normal((k, k))
        m = (g + g.T) / 2.0
        m = m - (np.linalg.eigvalsh(m)[-1] + rng.uniform(0.0, 0.5)) * np.eye(k)
        m = m / np.abs(m).max()
        top = float(np.linalg.eigvalsh(m)[-1])
        for big in (1.7e308, 2.0**1023, 6e307, 1e307):
            for rel in (-1e-3, -1e-13, 0.0, 1e-13, 1e-3):
                margin = max(0.0, -top + rel) * big
                claim = proves_negative_definite(m * big, margin)
                if oracle_negative_definite(m * big, margin) is None:
                    assert not claim
                    refused += 1
                else:
                    proved += claim
    assert proved >= 100 and refused >= 50
    # a clear case at the top of the float range, and one past its trace
    assert proves_negative_definite(-1.7e308 * np.eye(8), 1.6e308)
    assert not proves_negative_definite(-1.7e308 * np.eye(8), 1.7e308)
    assert not proves_negative_definite(-np.eye(2), math.inf)


def test_proof_rejects_semidefinite_and_indefinite():
    assert not proves_negative_definite(np.zeros((3, 3)))
    assert not proves_negative_definite(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert not proves_negative_definite(np.array([[-1.0, 2.0], [2.0, -1.0]]))
    assert proves_negative_definite(-np.eye(4), 0.5)
    assert not proves_negative_definite(-np.eye(4), 1.0)
    assert proves_negative_definite(np.zeros((2, 2)), -1.0)  # 0 < I
