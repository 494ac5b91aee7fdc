"""P-matrix test, sign witnesses, and diagonal conjugation invariance."""

from itertools import combinations
from math import ceil, comb

import numpy as np
import pytest

from riccstab.errors import ContractError, SizeGuardError
from riccstab.pmatrix import (
    MAX_P_SIZE,
    MINOR_BAND,
    MINOR_CHUNK,
    PMatrixReport,
    dpd_conjugate,
    is_p_matrix,
    nonpositive_minor,
    p_sign_witness,
)


def reference_minor(sub: np.ndarray) -> float:
    """One principal minor at a time, as the walk evaluated them before stacking."""
    k = sub.shape[0]
    if k == 1:
        return float(sub[0, 0])
    if k == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    return float(np.linalg.det(sub))


def reference_is_p_matrix(m, band: float = MINOR_BAND) -> PMatrixReport:
    """The per-minor walk: one submatrix, one minor and one scale per subset."""
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            sub = a[np.ix_(subset, subset)]
            minor = reference_minor(sub)
            if minor <= band * float(np.prod(np.abs(sub).max(axis=1))):
                return PMatrixReport(
                    is_p=False, failing_subset=subset, failing_minor=minor, marginal=minor > 0.0
                )
    return PMatrixReport(is_p=True)


def test_identity_is_p():
    assert is_p_matrix(np.eye(3)).is_p


def test_two_by_two_failure():
    report = is_p_matrix([[1.0, 2.0], [2.0, 1.0]])
    assert not report.is_p
    assert report.failing_subset == (0, 1)
    assert report.failing_minor == pytest.approx(-3.0)


def test_two_by_two_success_minors():
    report = is_p_matrix([[2.0, -1.0], [-1.0, 2.0]])
    assert report.is_p


def test_sign_witness_examples():
    assert p_sign_witness(np.eye(2), [1.0, 0.0]) == 0
    assert p_sign_witness(-np.eye(2), [0.3, -0.7]) is None
    assert p_sign_witness([[1.0, 2.0], [2.0, 1.0]], [1.0, -1.0]) is None


def test_sign_witness_rejects_zero_vector():
    with pytest.raises(ContractError):
        p_sign_witness(np.eye(2), [0.0, 0.0])


def test_dpd_examples():
    m = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert np.array_equal(dpd_conjugate(m, [1.0, 1.0]), m)
    assert is_p_matrix(dpd_conjugate(m, [2.0, 3.0])).is_p
    assert not is_p_matrix(dpd_conjugate([[1.0, 2.0], [2.0, 1.0]], [1.0, 2.0])).is_p
    with pytest.raises(ContractError):
        dpd_conjugate(m, [1.0, 0.0])


def test_p_matrices_always_have_sign_witnesses():
    rng = np.random.default_rng(23)
    found = 0
    while found < 5:
        n = int(rng.integers(2, 5))
        m = rng.standard_normal((n, n)) + n * np.eye(n)
        if not is_p_matrix(m).is_p:
            continue
        found += 1
        for _ in range(200):
            x = rng.standard_normal(n)
            assert p_sign_witness(m, x) is not None


def test_non_p_matrices_have_sign_reversing_vector():
    """A failing principal submatrix with nonpositive determinant has a real
    eigenvalue <= 0; its eigenvector, zero-padded, defeats every witness."""
    rng = np.random.default_rng(29)
    found = 0
    while found < 25:
        n = int(rng.integers(2, 6))
        m = rng.standard_normal((n, n))
        report = is_p_matrix(m, band=0.0)
        if report.is_p:
            continue
        sub = m[np.ix_(report.failing_subset, report.failing_subset)]
        eigvals, eigvecs = np.linalg.eig(sub)
        real_mask = (np.abs(eigvals.imag) < 1e-9) & (eigvals.real <= 1e-12)
        if not real_mask.any():
            continue
        found += 1
        vec = eigvecs[:, int(np.argmax(real_mask))].real
        x = np.zeros(n)
        x[list(report.failing_subset)] = vec
        assert p_sign_witness(m, x) is None


def test_dpd_invariance_random():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = rng.standard_normal((n, n)) * 1.5
        d = rng.uniform(0.2, 3.0, n)
        assert is_p_matrix(m).is_p == is_p_matrix(dpd_conjugate(m, d)).is_p


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
def test_minor_band_is_scale_invariant(scale):
    """The band scales with the submatrix, so c * M gets M's verdict."""
    for m in (np.eye(3), [[2.0, -1.0], [-1.0, 2.0]]):
        report = is_p_matrix(scale * np.asarray(m))
        assert report.is_p, report
    report = is_p_matrix(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not report.is_p
    assert not report.marginal
    assert report.failing_subset == (0, 1)
    assert report.failing_minor == pytest.approx(-3.0 * scale**2)


def _reference_cases(rng, n):
    """P, non-P, D M D-conjugated and near-band matrices of size n."""
    yield rng.standard_normal((n, n)) + 2.0 * n * np.eye(n)
    yield rng.standard_normal((n, n))
    yield rng.standard_normal((n, n)) + 0.7 * n * np.eye(n)
    d = rng.uniform(0.1, 10.0, n)
    yield dpd_conjugate(rng.standard_normal((n, n)) + 0.6 * n * np.eye(n), d)
    g = rng.standard_normal((n, max(n - 1, 1)))
    yield g @ g.T + 1e-14 * np.eye(n)
    near = np.eye(n) + 0.01 * rng.standard_normal((n, n))
    if n >= 2:
        near[:2, :2] = [[1.0, 1.0], [1.0, 1.0 + 1e-13]]
    yield near


@pytest.mark.parametrize("n", range(1, 11))
def test_stacked_walk_matches_per_minor_reference(n):
    rng = np.random.default_rng(100 + n)
    for m in _reference_cases(rng, n):
        for band in (0.0, MINOR_BAND):
            report = is_p_matrix(m, band=band)
            expected = reference_is_p_matrix(m, band=band)
            assert report == expected
            assert repr(report.failing_minor) == repr(expected.failing_minor)


def test_largest_p_walk_accepts_diagonally_dominant():
    rng = np.random.default_rng(41)
    m = rng.uniform(-1.0, 1.0, (MAX_P_SIZE, MAX_P_SIZE))
    np.fill_diagonal(m, np.abs(m).sum(axis=1) + rng.uniform(0.1, 1.0, MAX_P_SIZE))
    assert is_p_matrix(m) == PMatrixReport(is_p=True)


def test_largest_p_walk_reports_full_size_failure():
    """(1 + t) I - t J: every proper principal minor is positive for t < 1/12,
    the full one is negative for t > 1/13."""
    n = MAX_P_SIZE
    t = 0.08
    m = dpd_conjugate((1.0 + t) * np.eye(n) - t * np.ones((n, n)), np.linspace(0.5, 2.0, n))
    report = is_p_matrix(m)
    assert not report.is_p
    assert not report.marginal
    assert report.failing_subset == tuple(range(n))
    assert report.failing_minor < 0.0


def test_walk_above_cap_raises_naming_the_limit():
    with pytest.raises(SizeGuardError, match=f"n={MAX_P_SIZE}"):
        is_p_matrix(np.eye(MAX_P_SIZE + 1))


def test_nonpositive_minor_is_the_strict_walk_up_to_the_cap():
    rng = np.random.default_rng(11)
    for n in (1, 3, 7, MAX_P_SIZE):
        for m in (np.eye(n) + 0.1 * rng.standard_normal((n, n)), rng.standard_normal((n, n))):
            report = is_p_matrix(m, band=0.0)
            assert nonpositive_minor(m) == (None if report.is_p else report)


def test_nonpositive_minor_above_the_cap():
    n = MAX_P_SIZE + 2
    m = 2.0 * np.eye(n)
    m[5, 5] = -1.0
    m[9, 9] = 0.0
    assert nonpositive_minor(m) == PMatrixReport(False, (5,), -1.0)
    t = 0.069  # (1+t)I - tJ: positive diagonal, negative determinant
    m = (1.0 + t) * np.eye(n) - t * np.ones((n, n))
    report = nonpositive_minor(m)
    assert report.failing_subset == tuple(range(n)) and report.failing_minor < 0.0
    report = nonpositive_minor(1e20 * m)  # a determinant of about -1e319, past the float range
    assert report.failing_subset == tuple(range(n)) and report.failing_minor == -np.inf
    assert nonpositive_minor(np.eye(n) + 0.01 * np.ones((n, n))) is None


@pytest.mark.parametrize("n, c", [(24, 1e-14), (40, 1e-9), (24, 1e20), (40, 1e9)])
def test_nonpositive_minor_sign_survives_determinant_range(n, c):
    # det = sign * exp(logdet) rounds to 0.0 below the float range and
    # overflows (a RuntimeWarning, an error under the test config) above it
    m = 1.9 * c * np.eye(n)
    assert nonpositive_minor(m) is None
    assert nonpositive_minor(-m).failing_subset == (0,)
    if c < 1.0:
        assert np.linalg.det(m) == 0.0


@pytest.mark.parametrize("n, c", [(3, 1e-120), (MAX_P_SIZE, 1e-25), (MAX_P_SIZE, 1e-100)])
def test_strict_walk_accepts_tiny_identity(n, c):
    # det of the k >= 3 minors rounds to 0.0; the sign from slogdet does not
    assert is_p_matrix(c * np.eye(n), band=0.0).is_p
    assert nonpositive_minor(c * np.eye(n)) is None
    report = is_p_matrix(-c * np.eye(n), band=0.0)
    assert report.failing_subset == (0,) and report.failing_minor == -c


def test_strict_walk_reports_the_failing_determinant():
    t = 0.6  # (1 + t) I - t J: proper minors positive, determinant -0.512
    m = 1e-120 * ((1.0 + t) * np.eye(3) - t * np.ones((3, 3)))
    report = is_p_matrix(m, band=0.0)
    assert report.failing_subset == (0, 1, 2) and not report.marginal
    assert report.failing_minor == np.linalg.det(m) == 0.0  # the det value, however it rounds


def test_largest_p_walk_makes_one_det_call_per_stack(monkeypatch):
    calls = []
    det = np.linalg.det

    def counting_det(stack):
        calls.append(stack.shape)
        return det(stack)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    n = MAX_P_SIZE
    m = np.eye(n) + 0.01 * np.ones((n, n))
    assert is_p_matrix(m).is_p
    assert 0 < len(calls) <= sum(ceil(comb(n, k) / MINOR_CHUNK) for k in range(1, n + 1))
