"""Core matrix helpers: Hadamard products, sign envelopes, the Jacobi
eigensolver, and the abscissa-based Hurwitz test."""

import numpy as np
import pytest

from riccstab.errors import ContractError
from riccstab.matcore import (
    HurwitzResult,
    hadamard,
    is_hurwitz,
    is_metzler,
    is_negative_definite,
    is_nonnegative,
    is_positive_definite,
    jacobi_eigh,
    sign_envelopes,
    sym_spectrum,
)


def test_hadamard_identity_mask():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(hadamard(np.eye(2), m), np.diag([1.0, 4.0]))


def test_hadamard_all_ones_is_identity():
    m = np.array([[1.0, -2.0], [0.5, 4.0]])
    assert np.array_equal(hadamard(np.ones((2, 2)), m), m)


def test_hadamard_by_hand():
    out = hadamard([[1.0, 2.0], [3.0, 4.0]], [[2.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(out, [[2.0, 0.0], [0.0, 8.0]])


def test_hadamard_algebra_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y, z = rng.standard_normal((3, 4, 4))
        assert np.allclose(hadamard(x, y), hadamard(y, x), atol=1e-12)
        assert np.allclose(hadamard(hadamard(x, y), z), hadamard(x, hadamard(y, z)), atol=1e-12)
        assert np.allclose(hadamard(x, y + z), hadamard(x, y) + hadamard(x, z), atol=1e-12)


def test_sign_envelopes_by_hand():
    env = sign_envelopes([[-1.0, -2.0], [3.0, -4.0]])
    assert np.array_equal(env.metzler, [[-1.0, 2.0], [3.0, -4.0]])
    assert np.array_equal(env.nonneg, [[1.0, 2.0], [3.0, 4.0]])


def test_sign_envelopes_metzler_fixed_point():
    m = np.array([[-1.0, 0.5], [0.0, -2.0]])
    assert np.array_equal(sign_envelopes(m).metzler, m)


def test_sign_envelopes_zero():
    env = sign_envelopes(np.zeros((3, 3)))
    assert not env.metzler.any()
    assert not env.nonneg.any()


def test_is_metzler_examples():
    assert is_metzler([[-1.0, 0.5], [0.0, -2.0]])
    assert not is_metzler([[-1.0, -0.1], [0.0, -2.0]])
    assert is_nonnegative([[0.0, 1.0], [2.0, 0.0]])


def test_sym_spectrum_diagonal():
    spec = sym_spectrum(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)


def test_sym_spectrum_swap():
    spec = sym_spectrum([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_sym_spectrum_negative_definite_case():
    spec = sym_spectrum([[-3.0, 1.0], [1.0, -1.0]])
    root = np.sqrt(2.0)
    assert np.allclose(spec.eigenvalues, [-2.0 - root, -2.0 + root], atol=1e-12)
    assert spec.abscissa < 0.0
    assert is_negative_definite([[-3.0, 1.0], [1.0, -1.0]])
    assert is_positive_definite([[3.0, -1.0], [-1.0, 1.0]])


def test_sym_spectrum_rejects_nonsymmetric():
    with pytest.raises(ContractError):
        sym_spectrum([[-1.0, 10.0], [0.0, -1.0]])


def test_jacobi_eigenpairs_random():
    rng = np.random.default_rng(11)
    for n in (2, 5, 8, 12):
        g = rng.standard_normal((n, n))
        m = (g + g.T) / 2.0
        w, v, _ = jacobi_eigh(m)
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
        w, _, _ = jacobi_eigh(m)
        ref = np.linalg.eigvalsh(m)
        worst = max(worst, float(np.abs(w - ref).max() / max(1.0, np.abs(ref).max())))
    assert worst <= 1e-10


def test_is_hurwitz_examples():
    assert is_hurwitz(-np.eye(4)) is HurwitzResult.HURWITZ
    assert is_hurwitz([[0.0, 1.0], [-1.0, -1.0]]) is HurwitzResult.HURWITZ
    assert is_hurwitz([[1.0]]) is HurwitzResult.NOT_HURWITZ
    assert is_hurwitz([[0.0, 1.0], [-1.0, 0.0]]) is HurwitzResult.MARGINAL


def test_is_hurwitz_nonnormal_case():
    assert is_hurwitz([[-1.0, 10.0], [0.0, -1.0]]) is HurwitzResult.HURWITZ


def test_is_hurwitz_against_eigenvalue_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2.0, 2.0, (n, n))
        mu = float(np.max(np.linalg.eigvals(a).real))
        if abs(mu) < 1e-6:
            continue
        checked += 1
        expected = HurwitzResult.HURWITZ if mu < 0.0 else HurwitzResult.NOT_HURWITZ
        for scale in (1.0, 1e-6, 1e6):
            assert is_hurwitz(scale * a) is expected
