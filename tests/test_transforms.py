"""Scaling transforms and the certificates they carry along."""

import numpy as np
import pytest

from riccstab.errors import ContractError
from riccstab.matcore import BlockSymmetric
from riccstab.riccati import (
    MatrixPair,
    RiccatiCertificate,
    Verdict,
    solve_diagonal,
    verify_certificate,
)
from riccstab.transforms import (
    ScalingPair,
    dad_transform,
    dscale_with_certificate,
    hadamard_congruence,
    normalize_correlation,
)

SCALAR_PAIR = MatrixPair([[-2.0]], [[1.0]])
SCALAR_CERT = RiccatiCertificate(np.array([1.0]), np.array([1.0]), 2.0 - np.sqrt(2.0))


def scalar_riccati_form(pair: MatrixPair, cert: RiccatiCertificate) -> float:
    """The 1 x 1 Riccati form 2ap + q + (pb)^2 / q, the block form's Schur complement."""
    (a,), (b,), (p,), (q,) = pair.a.ravel(), pair.b.ravel(), cert.p, cert.q
    return 2.0 * a * p + q + (p * b) ** 2 / q


def test_dad_identity():
    scaled, map_cert = dad_transform(SCALAR_PAIR, ScalingPair([1.0], [1.0]))
    assert np.array_equal(scaled.a, SCALAR_PAIR.a)
    assert np.array_equal(scaled.b, SCALAR_PAIR.b)
    mapped = map_cert(SCALAR_CERT)
    assert np.array_equal(mapped.p, SCALAR_CERT.p)
    assert np.array_equal(mapped.q, SCALAR_CERT.q)


def test_dad_scalar_example():
    scaled, map_cert = dad_transform(SCALAR_PAIR, ScalingPair([2.0], [1.0]))
    assert np.array_equal(scaled.a, [[-8.0]])
    assert np.array_equal(scaled.b, [[2.0]])
    mapped = map_cert(SCALAR_CERT)
    assert np.array_equal(mapped.p, [1.0])
    assert np.array_equal(mapped.q, [4.0])
    assert scalar_riccati_form(scaled, mapped) == pytest.approx(-11.0)
    assert mapped.margin > 0.0


def test_dad_signature_involution_exact():
    rng = np.random.default_rng(43)
    pair = MatrixPair(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    scaling = ScalingPair.signature([1.0, -1.0, 1.0], [-1.0, 1.0, 1.0])
    once, _ = dad_transform(pair, scaling)
    twice, _ = dad_transform(once, scaling)
    assert np.array_equal(twice.a, pair.a)
    assert np.array_equal(twice.b, pair.b)


def test_dad_rejects_expanding_e():
    with pytest.raises(ContractError):
        dad_transform(SCALAR_PAIR, ScalingPair([1.0], [2.0]))
    with pytest.raises(ContractError):
        dad_transform(SCALAR_PAIR, ScalingPair([1.0], [0.0]))


def test_dad_map_rejects_foreign_certificate():
    _, map_cert = dad_transform(MatrixPair([[-1.0]], [[0.9]]), ScalingPair([1.0], [1.0]))
    bogus = RiccatiCertificate(np.array([1.0]), np.array([100.0]), 1.0)
    with pytest.raises(ContractError):
        map_cert(bogus)


def test_hadamard_all_ones_identity():
    pair = MatrixPair([[-2.0, 0.5], [0.3, -1.0]], [[0.2, 0.0], [0.1, 0.4]])
    s = BlockSymmetric(np.ones((4, 4)), 2)
    out = hadamard_congruence(pair, s)
    assert np.array_equal(out.a, pair.a)
    assert np.array_equal(out.b, pair.b)


def test_hadamard_identity_blocks_keep_diagonal():
    pair = MatrixPair([[-2.0, 0.5], [0.3, -1.0]], [[0.2, 0.0], [0.1, 0.4]])
    out = hadamard_congruence(pair, BlockSymmetric(np.eye(4), 2))
    assert np.array_equal(out.a, np.diag([-2.0, -1.0]))
    assert not out.b.any()


def test_hadamard_rejects_indefinite_s():
    s = np.eye(4)
    s[0, 1] = s[1, 0] = 2.0
    with pytest.raises(ContractError):
        hadamard_congruence(MatrixPair(-np.eye(2), np.zeros((2, 2))), BlockSymmetric(s, 2))


def test_normalize_correlation_identity_on_unit_diagonal():
    g = np.random.default_rng(47).standard_normal((4, 4))
    s = g.T @ g
    scale = np.sqrt(np.diag(s))
    s = s / np.outer(scale, scale)
    np.fill_diagonal(s, 1.0)
    out = normalize_correlation(BlockSymmetric(s, 2))
    assert np.allclose(out.full, s, atol=1e-12)
    assert np.abs(np.diag(out.full) - 1.0).max() == 0.0


def test_normalize_correlation_undoes_uniform_scaling():
    base = np.eye(4)
    base[0, 2] = base[2, 0] = 0.5
    out = normalize_correlation(BlockSymmetric(4.0 * base, 2))
    assert np.array_equal(out.full, base)


def test_normalize_correlation_generic():
    s = np.array(
        [
            [4.0, 1.0, 0.5, 0.0],
            [1.0, 1.0, 0.0, 0.2],
            [0.5, 0.0, 4.0, 0.5],
            [0.0, 0.2, 0.5, 1.0],
        ]
    )
    out = normalize_correlation(BlockSymmetric(s, 2))
    assert np.allclose(np.diag(out.full), 1.0, atol=0.0)
    assert float(np.linalg.eigvalsh(out.full)[0]) >= -1e-10


def test_dscale_identity():
    scaled, cert = dscale_with_certificate(SCALAR_PAIR, [1.0], SCALAR_CERT)
    assert np.array_equal(scaled.a, SCALAR_PAIR.a)
    assert np.array_equal(cert.p, SCALAR_CERT.p)


def test_dscale_scalar_example():
    scaled, cert = dscale_with_certificate(SCALAR_PAIR, [3.0], SCALAR_CERT)
    assert np.array_equal(scaled.a, [[-6.0]])
    assert np.array_equal(scaled.b, [[3.0]])
    assert cert.p[0] == pytest.approx(1.0 / 3.0)
    assert np.array_equal(cert.q, [1.0])
    assert scalar_riccati_form(scaled, cert) == pytest.approx(-2.0)


def test_dscale_preserves_margin_exactly():
    verdict = solve_diagonal(SCALAR_PAIR)
    assert verdict.status == Verdict.FEASIBLE
    base = verdict.certificate
    scaled, cert = dscale_with_certificate(SCALAR_PAIR, [3.0], base)
    assert cert.margin == base.margin
    ok, margin = verify_certificate(scaled, cert.p, cert.q)
    assert ok
    assert margin == base.margin


def test_dscale_rejects_invalid_input_certificate():
    bogus = RiccatiCertificate(np.array([1.0]), np.array([100.0]), 1.0)
    with pytest.raises(ContractError):
        dscale_with_certificate(SCALAR_PAIR, [2.0], bogus)


def test_mapped_certificates_verify_on_random_pairs():
    rng = np.random.default_rng(53)
    done = 0
    while done < 20:
        n = int(rng.integers(1, 5))
        diag = rng.uniform(-2.5, -1.2, n)
        a = rng.uniform(0.0, 0.3 / max(1, n - 1), (n, n))
        np.fill_diagonal(a, diag)
        b = rng.uniform(0.0, 0.2 / n, (n, n))
        pair = MatrixPair(a, b)
        verdict = solve_diagonal(pair)
        assert verdict.status == Verdict.FEASIBLE
        d = rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 2.0, n)
        e = rng.choice([-1.0, 1.0], n) * np.abs(d) * rng.uniform(0.1, 1.0, n)
        scaled, map_cert = dad_transform(pair, ScalingPair(d, e))
        mapped = map_cert(verdict.certificate)
        ok, margin = verify_certificate(scaled, mapped.p, mapped.q)
        assert ok and margin > 0.0
        done += 1
