"""Scaling transforms and the certificates they carry along."""

import numpy as np
import pytest

from riccstab.errors import ContractError
from riccstab.matcore import BlockSymmetric
from riccstab.riccati import (
    MatrixPair,
    RiccatiCertificate,
    Verdict,
    block_lmi,
    make_witness,
    solve_diagonal,
    verify_certificate,
)
from riccstab.transforms import ScalingPair, dad_transform, hadamard_congruence

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
    scaling = ScalingPair([1.0, -1.0, 1.0], [-1.0, 1.0, 1.0])
    once, _ = dad_transform(pair, scaling)
    twice, _ = dad_transform(once, scaling)
    assert np.array_equal(twice.a, pair.a)
    assert np.array_equal(twice.b, pair.b)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_scaling_pair_refuses_non_finite_entries(bad):
    with pytest.raises(ContractError, match="finite"):
        ScalingPair([1.0, bad], [1.0, 1.0])
    with pytest.raises(ContractError, match="finite"):
        ScalingPair([1.0, 1.0], [bad, 1.0])


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
    s = BlockSymmetric(np.ones((4, 4)))
    out = hadamard_congruence(pair, s)
    assert np.array_equal(out.a, pair.a)
    assert np.array_equal(out.b, pair.b)


def test_hadamard_identity_blocks_keep_diagonal():
    pair = MatrixPair([[-2.0, 0.5], [0.3, -1.0]], [[0.2, 0.0], [0.1, 0.4]])
    out = hadamard_congruence(pair, BlockSymmetric(np.eye(4)))
    assert np.array_equal(out.a, np.diag([-2.0, -1.0]))
    assert not out.b.any()


def test_hadamard_rejects_indefinite_s():
    s = np.eye(4)
    s[0, 1] = s[1, 0] = 2.0
    with pytest.raises(ContractError):
        hadamard_congruence(MatrixPair(-np.eye(2), np.zeros((2, 2))), BlockSymmetric(s))


def generic_pairs(per_n: int):
    """A = G - diag(u) sqrt(n), u ~ U(0.5, 2.5), B standard normal, n = 1..8;
    G, u, B drawn per pair from one stream."""
    rng = np.random.default_rng(12345)
    for n in range(1, 9):
        for _ in range(per_n):
            g = rng.standard_normal((n, n))
            u = rng.uniform(0.5, 2.5, n)
            yield MatrixPair(g - np.diag(u) * np.sqrt(n), rng.standard_normal((n, n)))


def test_row_scaling_leaves_the_block_form_and_the_status_unchanged():
    """(A, B) -> (DA, DB) with P -> P D^-1 gives the same block form; with D
    of powers of two it is bitwise the same, so no status may change."""
    rng = np.random.default_rng(59)
    statuses = []
    for pair in generic_pairs(25):
        d = 2.0 ** rng.integers(-3, 4, pair.n)
        scaled = MatrixPair(d[:, None] * pair.a, d[:, None] * pair.b)
        p, q = rng.uniform(0.5, 2.0, pair.n), rng.uniform(0.5, 2.0, pair.n)
        assert np.array_equal(block_lmi(scaled, p / d, q).full, block_lmi(pair, p, q).full)
        status = solve_diagonal(pair).status
        assert solve_diagonal(scaled).status == status
        statuses.append(status)
    census = {status: statuses.count(status) for status in set(statuses)}
    assert census == {"Feasible": 51, "Refuted": 149}


def test_generic_pairs_are_decided_and_keep_their_status_under_signatures():
    """Every generic pair is decided, every witness qualifies, and the
    signature maps (A, B) -> (A, BE) and (DAD, DBE), congruences of the block
    form by diag(I, E) and diag(D, E), change no status."""
    rng = np.random.default_rng(61)
    statuses = []
    for pair in generic_pairs(100):
        d, e = rng.choice([-1.0, 1.0], (2, pair.n))
        verdict = solve_diagonal(pair)
        if verdict.witness is not None:
            assert make_witness(pair, verdict.witness.s) is not None
        assert solve_diagonal(MatrixPair(pair.a, pair.b * e)).status == verdict.status
        assert solve_diagonal(MatrixPair(d[:, None] * pair.a * d, d[:, None] * pair.b * e)).status == verdict.status
        statuses.append(verdict.status)
    census = {status: statuses.count(status) for status in set(statuses)}
    assert census == {"Feasible": 190, "Refuted": 610}


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
