"""Certifying solver: block form, certificate verification, refutation."""

import numpy as np
import pytest

from riccstab import lmi, pmatrix, riccati
from riccstab.errors import ContractError
from riccstab.matcore import BlockSymmetric
from riccstab.pmatrix import MAX_P_SIZE, _proves_definite_symmetric_part, nonpositive_minor
from riccstab.riccati import (
    MatrixPair,
    SolveOptions,
    Verdict,
    block_lmi,
    make_witness,
    solve_diagonal,
    verify_certificate,
)


def reference_riccati_form(pair: MatrixPair, p, q) -> np.ndarray:
    """The n x n Riccati form A'P + PA + Q + P B Q^-1 B' P, whose negative
    definiteness the block form decides through the Schur complement."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    pb = p[:, None] * pair.b
    return pair.a.T * p + p[:, None] * pair.a + np.diag(q) + (pb / q) @ pb.T


def reference_screen(pair: MatrixPair):
    """The extremes s = (1, +1), then (1, -1), each through the walk of
    nonpositive_minor and then make_witness, as (witness or None, count of
    extremes tried)."""
    n = pair.n
    for tried, s12_sign in ((1, 1.0), (2, -1.0)):
        if nonpositive_minor(-(pair.a + pair.b * s12_sign)) is not None:
            s_vec = np.concatenate([np.ones(n), np.full(n, s12_sign)])
            witness = make_witness(pair, BlockSymmetric(np.outer(s_vec, s_vec)))
            if witness is not None:
                return witness, tried
    return None, 2


def test_block_lmi_scalar_example():
    block = block_lmi(MatrixPair([[-2.0]], [[1.0]]), [1.0], [1.0])
    assert np.array_equal(block.full, [[-3.0, 1.0], [1.0, -1.0]])


def test_block_lmi_zero_b_is_block_diagonal():
    pair = MatrixPair([[-1.0, 0.3], [0.2, -2.0]], np.zeros((2, 2)))
    block = block_lmi(pair, [1.0, 2.0], [0.5, 0.5]).full
    assert not block[:2, 2:].any()
    assert not block[2:, :2].any()
    assert np.array_equal(block[2:, 2:], -np.diag([0.5, 0.5]))


def test_block_lmi_skew_symmetric_a():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.array([[0.5, -0.2], [0.1, 0.3]])
    block = block_lmi(MatrixPair(a, b), [1.0, 1.0], [1.0, 1.0]).full
    assert np.allclose(block[:2, :2], np.eye(2), atol=1e-15)
    assert np.array_equal(block[:2, 2:], b)
    assert np.allclose(block[2:, 2:], -np.eye(2), atol=1e-15)


def test_block_form_beyond_the_float_range_names_it():
    # every input is finite, but the block's (0, 0) entry 2 a p + q is -inf
    pair = MatrixPair([[-1e308]], [[1e307]])
    with pytest.raises(ContractError, match="float range"):
        block_lmi(pair, [1.0], [1.1e308])
    with pytest.raises(ContractError, match="float range"):
        verify_certificate(pair, [1.0], [1.1e308])


def test_verify_certificate_scalar_accept():
    ok, margin = verify_certificate(MatrixPair([[-2.0]], [[1.0]]), [1.0], [1.0])
    assert ok
    assert margin > 0.5
    value = reference_riccati_form(MatrixPair([[-2.0]], [[1.0]]), [1.0], [1.0])
    assert value[0, 0] == pytest.approx(-2.0)


def test_verify_certificate_scalar_reject():
    pair = MatrixPair([[-1.0]], [[2.0]])
    for p in (0.1, 1.0, 10.0):
        ok, _ = verify_certificate(pair, [p], [p])
        assert not ok


def test_verify_certificate_decoupled():
    pair = MatrixPair(-np.eye(2), np.zeros((2, 2)))
    ok, margin = verify_certificate(pair, [1.0, 1.0], [0.5, 0.5])
    assert ok
    value = reference_riccati_form(pair, [1.0, 1.0], [0.5, 0.5])
    assert np.allclose(np.diag(value), -1.5, atol=1e-12)
    assert margin == pytest.approx(0.5, abs=1e-9)


def test_verify_certificate_rejects_bad_q():
    with pytest.raises(ContractError):
        verify_certificate(MatrixPair([[-2.0]], [[1.0]]), [1.0], [0.0])


def test_make_witness_refuses_a_witness_of_the_wrong_size():
    with pytest.raises(ContractError, match="2 x 2"):
        make_witness(MatrixPair([[-1.0]], [[2.0]]), BlockSymmetric(np.ones((4, 4))))


def test_solve_scalar_feasible():
    verdict = solve_diagonal(MatrixPair([[-2.0]], [[1.0]]))
    assert verdict.status == Verdict.FEASIBLE
    ok, margin = verify_certificate(
        MatrixPair([[-2.0]], [[1.0]]), verdict.certificate.p, verdict.certificate.q
    )
    assert ok
    assert margin == pytest.approx(verdict.certificate.margin)


def test_solve_scalar_refuted_all_ones_witness():
    verdict = solve_diagonal(MatrixPair([[-1.0]], [[2.0]]))
    assert verdict.status == Verdict.REFUTED
    assert np.array_equal(verdict.witness.s.full, np.ones((2, 2)))
    assert not verdict.witness.p_report.is_p


def test_solve_metzler_pair_feasible():
    pair = MatrixPair([[-3.0, 1.0], [1.0, -3.0]], np.eye(2))
    verdict = solve_diagonal(pair)
    assert verdict.status == Verdict.FEASIBLE


def test_refute_scalar_first_extreme():
    verdict = solve_diagonal(MatrixPair([[-1.0]], [[2.0]]))
    assert verdict.witness is not None
    assert verdict.samples_tried == 1


def test_json_shares_one_float_object_per_unit_value():
    verdict = solve_diagonal(MatrixPair([[-1.0, 2.5], [2.2, -1.5]], [[0.2, 0.0], [0.3, 0.1]]))
    rows = verdict.to_json()["witness_S"]
    assert rows == [[float(x) for x in row] for row in verdict.witness.s.full]
    entries = [x for row in rows for x in row]
    assert set(entries) == {1.0}  # the all-ones extreme
    assert all(x is entries[0] for x in entries)  # a pointer each, not a float each
    certificate = solve_diagonal(MatrixPair([[-2.0]], [[1.0]])).certificate  # certified at w = 1
    assert certificate.to_json()["P"][0] is verdict.to_json()["witness_S"][0][0]


def test_refute_finds_nothing_on_feasible_pair():
    assert solve_diagonal(MatrixPair([[-1.0]], [[0.5]])).witness is None


def test_refute_diagonal_negative_a():
    pair = MatrixPair(np.diag([-1.0, -2.0]), np.zeros((2, 2)))
    assert solve_diagonal(pair).witness is None


def test_schur_sign_equivalence_random():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 6))
        pair = MatrixPair(rng.uniform(-2.0, 2.0, (n, n)), rng.uniform(-2.0, 2.0, (n, n)))
        p = rng.uniform(0.1, 3.0, n)
        q = rng.uniform(0.1, 3.0, n)
        ricc = float(np.linalg.eigvalsh(reference_riccati_form(pair, p, q))[-1])
        block = float(np.linalg.eigvalsh(block_lmi(pair, p, q).full)[-1])
        if abs(ricc) < 1e-9 or abs(block) < 1e-9:
            continue
        checked += 1
        assert (ricc < 0.0) == (block < 0.0)


def test_block_joint_scaling_homogeneity():
    rng = np.random.default_rng(41)
    pair = MatrixPair(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
    p = rng.uniform(0.5, 2.0, 3)
    q = rng.uniform(0.5, 2.0, 3)
    base = block_lmi(pair, p, q).full
    for t in (0.5, 2.0, 8.0):
        assert np.array_equal(block_lmi(pair, t * p, t * q).full, t * base)


def test_solver_deterministic():
    pair = MatrixPair([[-3.0, 1.0], [1.0, -3.0]], np.eye(2))
    first = solve_diagonal(pair)
    second = solve_diagonal(pair)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", float("nan")),
        ("tol", float("inf")),
        ("tol", -1.0),
        ("max_iter", -5),
    ],
)
def test_solve_options_refuse_out_of_range_values_naming_the_field(field, value):
    with pytest.raises(ContractError, match=field):
        SolveOptions(**{field: value})


def test_solve_options_accept_zero_budgets():
    opts = SolveOptions(tol=0.0, max_iter=0)
    assert solve_diagonal(MatrixPair([[-2.0]], [[1.0]]), opts).status == Verdict.FEASIBLE  # certified at w = 1


# feasible with margin about 1e-9, below the default tol: the search cannot
# certify it and no witness exists, so every solve ends Unknown
BOUNDARY = MatrixPair([[-1.0]], [[1.0 - 1e-9]])
FAST = SolveOptions(max_iter=200)


def test_unknown_counts_the_screen_once():
    # both extremes and the dual iterate, each counted once
    verdict = solve_diagonal(BOUNDARY, FAST)
    assert verdict.status == Verdict.UNKNOWN
    assert verdict.samples_tried == 3
    assert verdict.witness is None


def test_screen_runs_once_per_solve(monkeypatch):
    proofs = []
    proves = riccati._proves_definite_symmetric_part

    def counting_proves(image):
        proofs.append(image.shape[0])
        return proves(image)

    monkeypatch.setattr(riccati, "_proves_definite_symmetric_part", counting_proves)
    pairs = [BOUNDARY, MatrixPair([[-3.0, 1.0], [1.0, -3.0]], np.eye(2))]
    for pair in pairs:
        solve_diagonal(pair, FAST)
    assert proofs == [pair.n for pair in pairs for _ in range(2)]  # one proof per extreme


def _screen_exit(witness, tried: int) -> str:
    if witness is None:
        return "none"
    return {1: "plus", 2: "minus"}.get(tried, "dual")


def _screen_pairs(rng, n):
    """Pairs that leave the pipeline at every exit: the + extreme, the -
    extreme alone, the dual iterate (at n >= 2: at n = 1 the extremes are
    the only witnesses) and none."""
    eye = np.eye(n)
    yield MatrixPair(-eye, 2.0 * eye)  # -(A + B) = -I
    yield MatrixPair(-eye, -2.0 * eye)  # -(A + B) = 3I, -(A - B) = -I
    yield MatrixPair(-2.0 * eye, np.full((n, n), 1.9 / n))
    yield MatrixPair(np.round(rng.standard_normal((n, n))) - 2.0 * eye, np.round(rng.standard_normal((n, n))))
    for t in (0.6, 0.9, 1.2, 1.5):
        for _ in range(6):
            b = rng.standard_normal((n, n))
            yield MatrixPair(-eye + 0.3 * rng.standard_normal((n, n)), t * b / np.linalg.norm(b, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_screen_matches_the_walk_and_enumeration_reference(n):
    rng = np.random.default_rng(500 + n)
    exits = set()
    skipped = 0
    for pair in _screen_pairs(rng, n):
        # an extreme whose image the proof skips has no nonpositive minor
        for sign in (1.0, -1.0):
            image = -(pair.a + pair.b * sign)
            if _proves_definite_symmetric_part(image):
                assert nonpositive_minor(image) is None
                skipped += 1
        verdict = solve_diagonal(pair)
        witness, tried = verdict.witness, verdict.samples_tried
        expected, tried_ref = reference_screen(pair)
        if expected is not None:
            assert tried == tried_ref
            assert np.array_equal(witness.s.full, expected.s.full)
            assert witness.p_report == expected.p_report
        else:
            assert tried in (0, 2, 3)  # unit weights, the barrier's certificate, the dual
            if witness is not None:
                assert tried == 3 and make_witness(pair, witness.s) is not None
        exits.add(_screen_exit(witness, tried))
    assert exits == ({"plus", "minus", "dual", "none"} if n > 1 else {"plus", "minus", "none"})
    assert skipped > 0


@pytest.mark.parametrize("c", [2.0**-1000, 1e-300, 1e300])
@pytest.mark.parametrize("n", range(1, 9))
def test_screen_and_verdict_do_not_change_with_the_scale_of_the_pair(n, c):
    """An extreme is skipped only when the symmetric part of its image is
    proved positive definite, by a proof on the image scaled up by a power
    of two to a largest entry of at least 1/2, and such an image is P at
    every scale; the walk on any other image reads signs on it scaled by
    powers of two. The barrier works on the pair divided by its scale:
    c (A, B) leaves the pipeline where (A, B) does, with the same count, and
    gets its verdict. An extreme's witness (entries +-1) is the same bit for
    bit, and so is the dual's when c is a power of two; otherwise c (A, B) is
    (A, B) times c rounded, and the dual's S moves by that rounding only and
    refutes both pairs."""
    rng = np.random.default_rng(600 + n)
    exact = np.frexp(c)[0] == 0.5
    exits = set()
    pairs = list(_screen_pairs(rng, n))
    for pair in pairs[:4] + pairs[4::4]:  # the constructed exits and a quarter of the random pairs
        scaled = MatrixPair(c * pair.a, c * pair.b)
        found, found_c = solve_diagonal(pair), solve_diagonal(scaled)
        witness, tried = found.witness, found.samples_tried
        witness_c, tried_c = found_c.witness, found_c.samples_tried
        assert tried_c == tried
        assert (witness_c is None) == (witness is None)
        if witness is not None:
            if tried < 3 or exact:
                assert np.array_equal(witness_c.s.full, witness.s.full)
            else:
                np.testing.assert_allclose(witness_c.s.full, witness.s.full, rtol=0.0, atol=1e-12)
                assert make_witness(pair, witness_c.s) is not None
                assert make_witness(scaled, witness.s) is not None
            assert witness_c.p_report.failing_subset == witness.p_report.failing_subset
            assert witness_c.to_json()["failing_minor"] * witness.p_report.failing_minor >= 0.0
        exits.add(_screen_exit(witness, tried))
        verdict, verdict_c = solve_diagonal(pair, FAST), solve_diagonal(scaled, FAST)
        assert (verdict_c.status, verdict_c.samples_tried) == (verdict.status, verdict.samples_tried)
    assert {"plus", "minus", "none"} <= exits


@pytest.mark.parametrize("n", [MAX_P_SIZE + 1, MAX_P_SIZE + 2, 24])
def test_solve_above_the_minor_walk_cap(n):
    verdict = solve_diagonal(MatrixPair(-2.0 * np.eye(n), 0.1 * np.eye(n)))
    assert verdict.status == Verdict.FEASIBLE
    assert verdict.certificate.margin > 0.0


def test_refute_above_the_minor_walk_cap_by_a_diagonal_entry():
    n = MAX_P_SIZE + 2
    a = -2.0 * np.eye(n)
    a[3, 3] = 1.0
    verdict = solve_diagonal(MatrixPair(a, 0.1 * np.eye(n)))
    assert verdict.status == Verdict.REFUTED
    assert verdict.witness.p_report.failing_subset == (3,)
    assert verdict.witness.p_report.failing_minor <= 0.0


def test_refute_above_the_minor_walk_cap_by_the_full_determinant():
    n = MAX_P_SIZE + 2
    t = 0.069  # in (1/(n-1), 1/(n-2)): only the full minor of (1+t)I - tJ - 0.01I is negative
    m = (1.0 + t) * np.eye(n) - t * np.ones((n, n))
    for c in (1e-14, 1.0, 1e9):
        verdict = solve_diagonal(MatrixPair(-c * m, 0.01 * c * np.eye(n)))
        assert verdict.status == Verdict.REFUTED
        assert verdict.witness.p_report.failing_subset == tuple(range(n))
        assert verdict.witness.p_report.failing_minor < 0.0


@pytest.mark.parametrize("c", [1e-14, 1e-9, 1.0, 1e9])
def test_screen_above_the_minor_walk_cap_is_scale_invariant(c):
    # the all-ones extreme's image is 1.9c * I, whose determinant det rounds
    # to 0.0 at c = 1e-14 (n = 24) and c = 1e-9 (n = 40)
    for n in (24, 40):
        verdict = solve_diagonal(MatrixPair(-2.0 * c * np.eye(n), 0.1 * c * np.eye(n)))
        assert verdict.witness is None
        assert verdict.status == Verdict.FEASIBLE


def test_verify_certificate_at_its_margin():
    pair = MatrixPair([[-3.0, 1.0], [1.0, -3.0]], np.eye(2))
    cert = solve_diagonal(pair).certificate
    _, achieved = verify_certificate(pair, cert.p, cert.q)
    assert not verify_certificate(pair, cert.p, cert.q, margin_req=achieved * (1.0 + 1e-9))[0]
    assert verify_certificate(pair, cert.p, cert.q, margin_req=achieved * (1.0 - 1e-9))[0]


def test_verify_certificate_does_not_trust_the_eigensolver(monkeypatch):
    pair = MatrixPair([[-1.0]], [[2.0]])  # block form [[-1, 2], [2, -1]], eigenvalues -3 and 1
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigvalsh(m) - 10.0)
    ok, margin = verify_certificate(pair, [1.0], [1.0])
    assert margin > 0.0  # the shifted spectrum alone would accept
    assert not ok


def test_verify_certificate_makes_one_proof_and_one_spectrum(monkeypatch):
    counts = {"cholesky": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counting(m, _name=name, _original=original):
            counts[_name] += 1
            return _original(m)

        monkeypatch.setattr(np.linalg, name, counting)
    n = MAX_P_SIZE
    rng = np.random.default_rng(43)
    pair = MatrixPair(-3.0 * np.eye(n) + 0.1 * rng.standard_normal((n, n)), 0.1 * rng.standard_normal((n, n)))
    ok, _ = verify_certificate(pair, np.ones(n), np.ones(n))
    assert ok
    assert counts == {"cholesky": 1, "eigvalsh": 1}


def test_verify_certificate_symmetrises_its_block_once(monkeypatch):
    # the block is built once and its symmetry checked once, by BlockSymmetric
    calls = _counting_calls(monkeypatch, riccati, ("_block", "BlockSymmetric"))
    pair = INVARIANCE_BASES[1]
    ok, _ = verify_certificate(pair, np.ones(3), np.ones(3))
    assert ok
    assert calls == ["_block", "BlockSymmetric"]


def _counting_calls(monkeypatch, module, names):
    calls = []
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_extremes_check_a_witness_only_on_a_hit(monkeypatch):
    calls = _counting_calls(monkeypatch, riccati, ("make_witness", "nonpositive_minor"))
    verdict = solve_diagonal(INVARIANCE_BASES[0])  # no extreme hits; the barrier certifies
    assert verdict.witness is None
    assert verdict.samples_tried == 2
    assert calls == []
    verdict = solve_diagonal(MatrixPair([[-1.0]], [[2.0]]))
    assert verdict.witness is not None and verdict.samples_tried == 1
    assert calls == ["make_witness", "nonpositive_minor"]  # every check, on the hit alone


def test_extremes_walk_only_images_not_proved_positive_definite(monkeypatch):
    # an extreme whose image is not proved positive definite goes to
    # make_witness: its walk is the test, and the spectrum is taken only for
    # an image that fails
    n = 8
    walks = _counting_calls(monkeypatch, pmatrix, ("is_p_matrix",))
    spectra = _counting_calls(monkeypatch, np.linalg, ("eigvalsh",))
    verdict = solve_diagonal(MatrixPair(-np.eye(n), 2.0 * np.eye(n)))  # image of the + extreme is -I
    assert verdict.witness is not None and verdict.samples_tried == 1
    assert (len(walks), len(spectra)) == (1, 1)
    walks.clear()
    spectra.clear()
    # a barrier that stops at once with dual iterate I, whose S = I has the P image -diag(A)
    monkeypatch.setattr(riccati, "minimize", lambda a, b, **_: lmi.BarrierResult(np.ones(n), np.ones(n), 1.0, 0, np.eye(2 * n)))
    readme_blocks = MatrixPair(np.kron(np.eye(n // 2), [[-3.0, 1.0], [1.0, -3.0]]), np.eye(n))  # unit weights fail
    verdict = solve_diagonal(readme_blocks)
    assert (verdict.witness, verdict.samples_tried) == (None, 3)
    # both images are proved positive definite: the one walk is the dual's,
    # and the one spectrum is the unit-weight test's
    assert (len(walks), len(spectra)) == (1, 1)


@pytest.mark.parametrize("n", [8, 14])
def test_extremes_proved_positive_definite_make_no_walk(monkeypatch, n):
    # the README blocks: both images have a positive definite symmetric part
    # and the barrier certifies the pair, so no principal minor is walked
    walks = _counting_calls(monkeypatch, pmatrix, ("is_p_matrix",))
    verdict = solve_diagonal(MatrixPair(np.kron(np.eye(n // 2), [[-3.0, 1.0], [1.0, -3.0]]), np.eye(n)))
    assert (verdict.status, verdict.samples_tried) == (Verdict.FEASIBLE, 2)
    assert walks == []


def test_extreme_with_a_p_image_not_proved_definite_reaches_make_witness(monkeypatch):
    # -(A + B) = [[1, 3], [0, 1]] is a P-matrix with an indefinite symmetric
    # part, so make_witness walks it and refuses it; -(A - B) = 2I is skipped,
    # and the barrier certifies the pair
    pair = MatrixPair([[-1.5, -1.5], [0.0, -1.5]], [[0.5, -1.5], [0.0, 0.5]])
    assert np.array_equal(-(pair.a + pair.b), [[1.0, 3.0], [0.0, 1.0]])
    assert np.array_equal(-(pair.a - pair.b), 2.0 * np.eye(2))
    calls = _counting_calls(monkeypatch, riccati, ("make_witness",))
    walks = _counting_calls(monkeypatch, pmatrix, ("is_p_matrix",))
    verdict = solve_diagonal(pair)
    assert (verdict.status, verdict.samples_tried) == (Verdict.FEASIBLE, 2)
    assert (calls, len(walks)) == (["make_witness"], 1)


# the README pair (one Newton step) and a 3x3 base that unit weights certify
INVARIANCE_BASES = (
    MatrixPair([[-3.0, 1.0], [1.0, -3.0]], np.eye(2)),
    MatrixPair(
        [[-2.235, 0.006, 0.107], [-0.122, -2.109, 0.009], [-0.051, 0.158, -1.591]],
        [[-0.372, 0.023, 0.179], [-0.058, 0.212, -0.021], [0.207, 0.446, -0.209]],
    ),
)


@pytest.mark.parametrize("base", INVARIANCE_BASES, ids=["readme", "dense3"])
@pytest.mark.parametrize("c", [1e-300, 1e-150, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e150, 1e300])
def test_scaled_pair_gets_the_base_verdict_and_certificate(base, c):
    s = float(np.abs(base.a).max() + np.abs(base.b).max())
    expected = solve_diagonal(base)
    verdict = solve_diagonal(MatrixPair(c * base.a, c * base.b))
    assert verdict.status == expected.status == Verdict.FEASIBLE
    np.testing.assert_allclose(verdict.certificate.p, expected.certificate.p, rtol=1e-12, atol=0.0)
    rel = verdict.certificate.margin / (c * s)
    assert rel == pytest.approx(expected.certificate.margin / s, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("c", [1e-25, 1e-100])
def test_screen_finds_no_witness_at_small_scale(c):
    # the all-ones extreme's image is 1.9c * I; det of its minors rounds to 0.0
    n = MAX_P_SIZE
    assert solve_diagonal(MatrixPair(-2.0 * c * np.eye(n), 0.1 * c * np.eye(n))).witness is None


def test_solve_feasible_at_small_scale():
    n = MAX_P_SIZE
    pair = MatrixPair(-2.0e-25 * np.eye(n), 0.1e-25 * np.eye(n))
    verdict = solve_diagonal(pair)
    assert verdict.status == Verdict.FEASIBLE
    assert verify_certificate(pair, verdict.certificate.p, verdict.certificate.q)[0]


# an integer pair that neither extreme refutes and that the barrier cannot
# certify: only the dual iterate refutes it, also at 1e150 times it
REFUSED_HIT_PAIR = MatrixPair(
    [[-2.0, 2.0, -2.0, -1.0], [-4.0, -3.0, 2.0, -2.0], [1.0, 2.0, -4.0, 0.0], [0.0, 3.0, -3.0, -5.0]],
    [[1.0, 1.0, 0.0, -1.0], [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, -3.0], [0.0, -1.0, 0.0, -1.0]],
)


@pytest.mark.parametrize("c", [1.0, 1e150])
def test_screen_moves_past_a_hit_make_witness_refuses(c):
    # past both extremes and the barrier, the dual iterate refutes
    pair = MatrixPair(c * REFUSED_HIT_PAIR.a, c * REFUSED_HIT_PAIR.b)
    assert all(nonpositive_minor(-(pair.a + pair.b * sign)) is None for sign in (1.0, -1.0))
    verdict = solve_diagonal(pair)
    assert verdict.status == Verdict.REFUTED
    assert verdict.samples_tried == 3
    assert verdict.witness.p_report.failing_subset == (0, 1, 2, 3)
    for target in (pair, REFUSED_HIT_PAIR):  # a witness of c (A, B) refutes (A, B)
        assert make_witness(target, verdict.witness.s) is not None


@pytest.mark.parametrize("pair", [MatrixPair([[-2.0]], [[1.0]]), INVARIANCE_BASES[1]], ids=["scalar", "dense3"])
def test_pair_certified_at_unit_weights_skips_the_screen(monkeypatch, pair):
    def screen(*args, **kwargs):
        raise AssertionError("the screen ran on a pair that unit weights certify")

    for name in ("_proves_definite_symmetric_part", "make_witness", "minimize"):
        monkeypatch.setattr(riccati, name, screen)
    s = float(np.abs(pair.a).max() + np.abs(pair.b).max())
    verdict = solve_diagonal(pair)
    assert verdict.status == Verdict.FEASIBLE
    assert verdict.samples_tried == 0
    cert = verdict.certificate
    assert np.array_equal(cert.p, np.ones(pair.n)) and np.array_equal(cert.q, np.full(pair.n, s))
    assert verify_certificate(pair, cert.p, cert.q, margin_req=SolveOptions().tol * s)[0]


def test_pair_not_certified_at_unit_weights_runs_the_screen_first(monkeypatch):
    # the README pair needs one Newton step: Feasible after both extremes
    calls = _counting_calls(monkeypatch, riccati, ("_proves_definite_symmetric_part", "make_witness", "minimize"))
    verdict = solve_diagonal(INVARIANCE_BASES[0])
    assert verdict.status == Verdict.FEASIBLE
    assert verdict.samples_tried == 2
    # both images are proved positive definite, so make_witness is not called
    assert calls == ["_proves_definite_symmetric_part", "_proves_definite_symmetric_part", "minimize"]


@pytest.mark.parametrize("n", [1, 3, MAX_P_SIZE + 1])
def test_zero_pair_is_refuted_by_the_screen(n):
    verdict = solve_diagonal(MatrixPair(np.zeros((n, n)), np.zeros((n, n))))
    assert verdict.status == Verdict.REFUTED
    assert verdict.samples_tried == 1
