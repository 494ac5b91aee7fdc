"""P-matrix test, sign witnesses, and diagonal conjugation invariance."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from riccstab.errors import ContractError, SizeGuardError
from riccstab.pmatrix import (
    MAX_P_SIZE,
    PMatrixReport,
    _proves_definite_symmetric_part,
    dpd_conjugate,
    is_p_matrix,
    nonpositive_minor,
    p_sign_witness,
)
from test_matcore import exact_ldl_pivots


def reference_minor(sub: np.ndarray) -> float:
    """One principal minor at a time, as the walk evaluated them before stacking."""
    k = sub.shape[0]
    if k == 1:
        return float(sub[0, 0])
    if k == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    return float(np.linalg.det(sub))


def reference_is_p_matrix(m) -> PMatrixReport:
    """The per-minor walk: one submatrix and one minor per subset."""
    a = np.asarray(m, dtype=float)
    n = a.shape[0]
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            minor = reference_minor(a[np.ix_(subset, subset)])
            if minor <= 0.0:
                return PMatrixReport(is_p=False, failing_subset=subset, failing_minor=minor)
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
        report = is_p_matrix(m)
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


def test_dpd_conjugate_keeps_the_verdict_of_a_near_singular_block():
    """The minor of {0, 1} is about 1e-10, far below the product of the row
    maxima, 1e3: M and D M D are both P."""
    m = [[1.0, 1e3], [(1.0 - 1e-10) / 1e3, 1.0]]
    assert is_p_matrix(m).is_p
    assert is_p_matrix(dpd_conjugate(m, [1e3, 1.0])).is_p


def test_dpd_invariance_near_singular_family():
    """A block [[1, x], [(1 - delta) / x, 1]] with a tiny positive minor, in
    I + 0.05 N(0, 1), conjugated by powers of two: D M D gets M's verdict,
    P or not, however unbalanced the block."""
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        m = np.eye(n) + 0.05 * rng.standard_normal((n, n))
        x, delta = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-13, -9)
        m[:2, :2] = [[1.0, x], [(1.0 - delta) / x, 1.0]]
        d = 2.0 ** rng.integers(-10, 11, n)
        verdicts.append((is_p_matrix(m).is_p, is_p_matrix(dpd_conjugate(m, d)).is_p))
    assert sum(a != b for a, b in verdicts) == 0
    assert {a for a, _ in verdicts} == {True, False}


@pytest.mark.parametrize("scale", [1e-120, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e120])
def test_minor_band_is_scale_invariant(scale):
    """Only the signs of the minors are tested, so c * M gets M's verdict."""
    for m in (np.eye(3), [[2.0, -1.0], [-1.0, 2.0]]):
        report = is_p_matrix(scale * np.asarray(m))
        assert report.is_p, report
    report = is_p_matrix(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not report.is_p
    assert report.failing_subset == (0, 1)
    assert report.failing_minor == pytest.approx(-3.0 * scale**2)


SCALED_CASES = [
    [[2.0, 1.0], [1.0, 3.0]],  # P
    [[1.0, 2.0], [3.0, 1.0]],  # minor of {0, 1} is -5
    [[3.0, 1.0, -1.0], [0.5, 2.0, 1.0], [1.0, -0.5, 4.0]],  # P
    [[1.6, -0.6, -0.6], [-0.6, 1.6, -0.6], [-0.6, -0.6, 1.6]],  # (1 + t) I - t J: only the full minor fails
]


@pytest.mark.parametrize("c", [2.0**-1000, 2.0**1000, 1e300])
@pytest.mark.parametrize("m", SCALED_CASES, ids=["p2", "not_p2", "p3", "not_p3"])
def test_scaled_matrix_gets_the_verdict_of_the_matrix(m, c):
    """At c = 2^1000 or 1e300 every minor of size 2 or more overflows, so
    none of the walk's pivots is read and each minor is taken from its
    submatrix; a 2 x 2 one formed in closed form from entries that were only
    scaled up came out inf - inf. The reported minor keeps its sign and is
    never NaN."""
    base = is_p_matrix(m)
    report = is_p_matrix(c * np.asarray(m))
    assert (report.is_p, report.failing_subset) == (base.is_p, base.failing_subset)
    if not base.is_p:
        assert not np.isnan(report.failing_minor)
        assert np.sign(report.failing_minor) in (0.0, np.sign(base.failing_minor))  # 0.0: the det underflowed
        if c > 1.0:
            assert report.failing_minor == -np.inf


def _reference_cases(rng, n):
    """P, non-P, D M D-conjugated and near-singular matrices of size n."""
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


@pytest.mark.parametrize("n", range(1, MAX_P_SIZE + 1))
def test_stacked_walk_matches_per_minor_reference(n):
    rng = np.random.default_rng(100 + n)
    for m in _reference_cases(rng, n):
        report = is_p_matrix(m)
        expected = reference_is_p_matrix(m)
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
    assert report.failing_subset == tuple(range(n))
    assert report.failing_minor < 0.0


def test_walk_above_cap_raises_naming_the_limit():
    with pytest.raises(SizeGuardError, match=f"n={MAX_P_SIZE}"):
        is_p_matrix(np.eye(MAX_P_SIZE + 1))


def test_nonpositive_minor_is_the_strict_walk_up_to_the_cap():
    rng = np.random.default_rng(11)
    for n in (1, 3, 7, MAX_P_SIZE):
        for m in (np.eye(n) + 0.1 * rng.standard_normal((n, n)), rng.standard_normal((n, n))):
            report = is_p_matrix(m)
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
    # det of the k >= 3 minors rounds to 0.0; the pivots of the walk, scaled to unit size, do not
    assert is_p_matrix(c * np.eye(n)).is_p
    assert nonpositive_minor(c * np.eye(n)) is None
    report = is_p_matrix(-c * np.eye(n))
    assert report.failing_subset == (0,) and report.failing_minor == -c


def test_strict_walk_reports_the_failing_determinant():
    t = 0.6  # (1 + t) I - t J: proper minors positive, determinant -0.512
    m = 1e-120 * ((1.0 + t) * np.eye(3) - t * np.ones((3, 3)))
    report = is_p_matrix(m)
    assert report.failing_subset == (0, 1, 2)
    assert report.failing_minor == np.linalg.det(m) == 0.0  # the det value, however it rounds


def test_pivot_that_is_not_finite_is_never_read_as_a_sign():
    """The complement of {0} holds 1 / 1e-310, which overflows, so the pivot
    of {0, 1} is inf and the one of {0, 1, 2} computed from it would be
    inf - inf. No pivot grown from {0} has a finite error bound, so each of
    those minors is taken from its submatrix: {0, 1} and {0, 2} (det 1
    each) and {0, 1, 2} (det -1.1)."""
    m = [[1e-310, 1.0, 1.0], [-1.0, 1.0, 3.0], [-1.0, 0.1, 1.0]]
    for report in (is_p_matrix(m), nonpositive_minor(m)):
        assert not report.is_p
        assert report.failing_subset == (0, 1, 2)
        assert report.failing_minor == pytest.approx(-1.1)


def exact_minors(m):
    """Every principal minor of a float matrix, exactly, as a Fraction."""
    n = len(m)
    minors = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            rows = [[Fraction(m[i][j]) for j in subset] for i in subset]
            det = Fraction(1)
            for c in range(size):
                pivot = next((r for r in range(c, size) if rows[r][c] != 0), None)
                if pivot is None:
                    det = Fraction(0)
                    break
                if pivot != c:
                    rows[c], rows[pivot], det = rows[pivot], rows[c], -det
                det *= rows[c][c]
                for r in range(c + 1, size):
                    f = rows[r][c] / rows[c][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
            minors.append(det)
    return minors


def test_minors_grown_from_an_overflowing_pivot_are_taken_from_their_submatrices():
    """Every minor is positive. The pivot of {0, 1} is
    1e-100 + 1e-300 * (1 / 1e-310), about 1e10, but 1 / 1e-310 overflows, so
    it comes out inf, and every minor grown from {0} is taken from its
    submatrix. That of {0, 1, 2} has a determinant below the float range, so
    that slogdet of the submatrix as it stands rounds a pivot of its LU to
    0.0; with its rows and columns first scaled up by powers of two it does
    not."""
    m = [[1e-310, -1.0, 0.0], [1e-300, 1e-100, 0.0], [1.0, 1e-200, 1e-200]]
    assert all(minor > 0 for minor in exact_minors(m))
    assert np.linalg.slogdet(m)[0] == 0.0
    assert is_p_matrix(m).is_p
    assert nonpositive_minor(m) is None


CANCELLING = [
    # every minor positive; that of {0, 1, 2} is 2^-30 * (1 + 2^-30), its pivot comes out 0.0
    [[2.0**-30, 1.0, 1.0], [-1.0, 1.0, 1.0], [-1.0, 0.5, 0.5 + 2.0**-30]],
    # the minor of {0, 1, 2} is -2.24e-9, the others positive; its pivot comes out +6.0e-8
    [
        [1.5914696024576329e-10, -1.5834672557984086, 0.30784439170360933],
        [0.37314402803090047, 0.9367456665064732, -0.5796043699170684],
        [-0.16702193545367036, -0.4192939957842299, 0.25943504480768675],
    ],
]


@pytest.mark.parametrize("m", CANCELLING)
def test_pivot_lost_to_cancellation_is_taken_from_its_submatrix(m):
    """Without pivoting, the complement of {0} has entries of about
    1 / m[0][0], and the pivot of {0, 1, 2} computed from it keeps no
    correct digit. The bound on its error exceeds it, so that minor is taken
    from its submatrix: the walk finds the exact first failure, and its
    report is the per-minor reference's."""
    subsets = [s for size in (1, 2, 3) for s in combinations(range(3), size)]
    first = next((s for s, minor in zip(subsets, exact_minors(m)) if minor <= 0), ())
    report = is_p_matrix(m)
    assert report.failing_subset == first and report.is_p == (first == ())
    assert nonpositive_minor(m) == (None if report.is_p else report)
    expected = reference_is_p_matrix(m)
    assert report == expected
    assert repr(report.failing_minor) == repr(expected.failing_minor)


def test_subnormal_minor_keeps_its_sign():
    """The minor of {0, 1} is 1e-310 * 1e-100 - 1e-310, about -1e-310, the
    first product below the float range. The row ratio 1 / 1e-310 of the walk
    overflows, so the minor is taken from its submatrix, whose entries are
    scaled up before its determinant is formed: LAPACK's LU of such a
    submatrix as it stands can get the sign wrong."""
    m = [[1e-310, 1.0, 0.0], [1e-310, 1e-100, 0.0], [0.0, 0.0, 1.0]]
    assert exact_minors(m)[3] < 0
    for report in (is_p_matrix(m), nonpositive_minor(m)):
        assert report == PMatrixReport(False, (0, 1), -1e-310)


def test_failure_found_later_in_the_walk_can_come_first():
    """The walk meets {1, 2} (index 2) before {0, 3} (index 3), but (0, 3)
    comes first in the order of the report."""
    m = [[1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 2.0, 0.0], [0.0, 2.0, 1.0, 0.0], [2.0, 0.0, 0.0, 1.0]]
    report = is_p_matrix(m)
    assert report.failing_subset == (0, 3) and report.failing_minor == -3.0


def test_walk_scales_subnormal_input_to_unit_size():
    """M = [[3, 1], [1, x]] with 3x - 1 = 1.1e-13 is P. At c = 2^-1031 the
    entries of c * M are subnormal, and c / 3 rounds up on their grid, so an
    unscaled update would give the pivot 0.0 for {0, 1}."""
    c = 2.0**-1031
    m = np.array([[3.0 * c, c], [c, 2932031007403 * 2.0**-1074]])
    assert is_p_matrix(m).is_p
    assert nonpositive_minor(m) is None


def test_strict_walk_accepts_minors_below_the_float_range():
    """Every minor of a positive diagonal matrix is positive, however far
    apart the entries are; here the full minor, 2.4e-359, is below the float
    range, and the pivots of the walk are not."""
    m = np.diag([2.0, 3e-120, 4e-240])
    assert is_p_matrix(m) == PMatrixReport(is_p=True)


@pytest.mark.parametrize("band", [1e-12, -1e-12, 1.0, np.nan])
def test_every_nonzero_band_is_refused(band):
    assert is_p_matrix(np.eye(2), band=0.0).is_p
    with pytest.raises(ContractError, match="strict positivity"):
        is_p_matrix(np.eye(2), band=band)


def test_largest_walk_evaluates_only_the_reported_minor(monkeypatch):
    """The walk takes every minor from Schur pivots: a P-matrix of the largest
    size costs no determinant call, a failing one a single det call for the
    minor it reports."""
    calls = []
    for name in ("det", "slogdet"):
        real = getattr(np.linalg, name)

        def counting(stack, _real=real, _name=name):
            calls.append((_name, np.shape(stack)))
            return _real(stack)

        monkeypatch.setattr(np.linalg, name, counting)
    n = MAX_P_SIZE
    assert is_p_matrix(np.eye(n) + 0.01 * np.ones((n, n))).is_p
    assert calls == []
    t = 0.08  # (1 + t) I - t J: only the full minor is negative
    report = is_p_matrix((1.0 + t) * np.eye(n) - t * np.ones((n, n)))
    assert report.failing_subset == tuple(range(n))
    assert calls == [("det", (n, n))]


def _definiteness_cases():
    """Seeded square matrices at n = 1..16: random ones, ones whose symmetric
    part has its smallest eigenvalue near the proof's margin, both signs,
    and copies scaled by 2^+-1000, 1e+-300 and into the subnormal range."""
    for n in range(1, 17):
        rng = np.random.default_rng(900 + n)
        bases = [rng.standard_normal((n, n)) + t * np.sqrt(n) * np.eye(n) for t in (0.5, 1.0, 2.0)]
        for rel in (-1e-12, -1e-15, 1e-15, 1e-14, 1e-13, 1e-12):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eig = rng.uniform(1.0, 2.0, n)
            eig[0] = rel
            k = rng.standard_normal((n, n))
            bases.append((q * eig) @ q.T + (k - k.T))
        for m in bases:
            for c in (1.0, 2.0**1000, 2.0**-1000, 1e300, 1e-300, 1e-310, 2.0**-1070):
                yield c * m


def test_definite_symmetric_part_proof_is_sound():
    proved = refused = 0
    for m in _definiteness_cases():
        if not _proves_definite_symmetric_part(m):
            refused += 1
            continue
        proved += 1
        k = m.shape[0]
        part = [[(Fraction(m[i, j]) + Fraction(m[j, i])) / 2 for j in range(k)] for i in range(k)]
        assert exact_ldl_pivots(part) is not None
        assert nonpositive_minor(m) is None
    assert proved >= 300 and refused >= 300


@pytest.mark.parametrize(
    "m",
    [
        [[1.0, 3.0], [0.0, 1.0]],  # a P-matrix whose symmetric part is indefinite
        np.zeros((3, 3)),
        [[1.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, np.inf]],
        [[1.0, np.nan], [0.0, 1.0]],
        [[1e308, 0.0], [0.0, 1e308]],  # its sums overflow
    ],
    ids=["p-indefinite", "zero", "zero-diagonal", "inf", "nan", "overflow"],
)
def test_definite_symmetric_part_proof_refuses(m):
    assert not _proves_definite_symmetric_part(np.asarray(m, dtype=float))
