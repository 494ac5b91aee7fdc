"""Structural classification and closed-form stability conditions."""

import json

import numpy as np
import pytest

from riccstab import acceptance, classes, cli
from riccstab.classes import (
    CHAIN_3X3,
    FAN_IN_3X3,
    LAST_ROW_FORM,
    METZLER_NONNEG,
    METZLER_RANK_ONE_ROW,
    STRUCTURED_TAGS,
    SUPERDIAG_B,
    TRIDIAG_SIGN_SYM,
    UNSTRUCTURED,
    ClassTag,
    Stability,
    classify,
    correlation_form_bound,
    correlation_form_bound_oracle,
    evaluate_class,
    feedback_condition,
)
from riccstab.errors import ClassMismatchError, ContractError, RiccstabError
from riccstab.riccati import MatrixPair


def metzler_envelope(m):
    """m on its diagonal and |m| off it."""
    return np.where(np.eye(len(m), dtype=bool), m, np.abs(m))


def chain_pair(a, c, b):
    amat = np.array([[a[0], 0.0, 0.0], [c[0], a[1], 0.0], [0.0, c[1], a[2]]])
    bmat = np.zeros((3, 3))
    bmat[0, 2], bmat[1, 2] = b
    return MatrixPair(amat, bmat)


def fan_in_pair(a, c, b):
    amat = np.array([[a[0], 0.0, 0.0], [0.0, a[1], 0.0], [c[0], c[1], a[2]]])
    bmat = np.zeros((3, 3))
    bmat[0, 2], bmat[1, 2] = b
    return MatrixPair(amat, bmat)


def chain_condition(a, c, b):
    verdict = feedback_condition(chain_pair(a, c, b))
    assert verdict.tag.name == CHAIN_3X3
    return verdict


def fan_in_condition(a, c, b):
    verdict = feedback_condition(fan_in_pair(a, c, b))
    assert verdict.tag.name == FAN_IN_3X3
    return verdict


def metzler_condition(pair):
    verdict = evaluate_class(pair)
    assert verdict.tag.name == METZLER_NONNEG
    return verdict


def signature_condition(pair):
    verdict = evaluate_class(pair)
    assert verdict.tag.name in STRUCTURED_TAGS
    return verdict


def test_classify_metzler_nonneg():
    pair = MatrixPair([[-2.0, 1.0], [0.0, -2.0]], [[0.0, 0.0], [1.0, 0.0]])
    assert classify(pair).name == METZLER_NONNEG


def test_classify_chain_pattern():
    pair = chain_pair((-1.0, -1.0, -1.0), (-1.0, 1.0), (0.1, 0.1))
    assert classify(pair).name == CHAIN_3X3


def test_classify_dense_unstructured():
    rng = np.random.default_rng(3)
    pair = MatrixPair(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    assert classify(pair).name == UNSTRUCTURED
    with pytest.raises(ClassMismatchError):
        evaluate_class(pair)


def test_classify_rank_one_row():
    pair = MatrixPair(np.diag([-2.0, -2.0]), [[1.0, -1.0], [0.0, 0.0]])
    assert classify(pair).name == METZLER_RANK_ONE_ROW


def test_classify_remaining_tags():
    tridiag = MatrixPair([[-3.0, -1.0], [-1.0, -3.0]], [[0.0, 0.5], [0.0, 0.0]])
    assert classify(tridiag).name == TRIDIAG_SIGN_SYM

    a = np.diag([-1.0, -1.0, -2.0])
    a[2, :2] = (-1.0, 2.0)
    last_row = MatrixPair(a, np.zeros((3, 3)))
    assert classify(last_row).name == LAST_ROW_FORM

    b = np.zeros((3, 3))
    b[0, 1], b[1, 2] = 0.4, -0.3
    superdiag = MatrixPair(a, b)
    assert classify(superdiag).name == SUPERDIAG_B


def hurwitz_stability(a):
    """The tri-state Hurwitz test that the Hurwitz class verdicts run."""
    return classes._hurwitz_verdict(ClassTag(METZLER_NONNEG), np.asarray(a, dtype=float)).stable


def test_hurwitz_verdict_examples():
    assert hurwitz_stability(-np.eye(4)) is Stability.STABLE
    assert hurwitz_stability([[0.0, 1.0], [-1.0, -1.0]]) is Stability.STABLE
    assert hurwitz_stability([[1.0]]) is Stability.NOT_STABLE
    assert hurwitz_stability([[0.0, 1.0], [-1.0, 0.0]]) is Stability.MARGINAL


def test_hurwitz_verdict_nonnormal_case():
    assert hurwitz_stability([[-1.0, 10.0], [0.0, -1.0]]) is Stability.STABLE


def test_hurwitz_verdict_against_eigenvalue_oracle():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 7))
        a = rng.uniform(-2.0, 2.0, (n, n))
        mu = float(np.max(np.linalg.eigvals(a).real))
        if abs(mu) < 1e-6:
            continue
        checked += 1
        expected = Stability.STABLE if mu < 0.0 else Stability.NOT_STABLE
        for scale in (1.0, 1e-6, 1e6):
            assert hurwitz_stability(scale * a) is expected


def test_metzler_condition_examples():
    stable = metzler_condition(MatrixPair([[-2.0, 1.0], [0.0, -2.0]], [[0.0, 0.0], [1.0, 0.0]]))
    assert stable.stable is Stability.STABLE
    assert stable.condition_values["spectral_abscissa"] == pytest.approx(-1.0, abs=1e-9)

    marginal = metzler_condition(MatrixPair([[-1.0]], [[1.0]]))
    assert marginal.stable is Stability.MARGINAL

    unstable = metzler_condition(MatrixPair([[-1.0]], [[2.0]]))
    assert unstable.stable is Stability.NOT_STABLE
    assert unstable.condition_values["spectral_abscissa"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [8, 12, 16, 50])
@pytest.mark.parametrize("shift, expected", [(1.25, Stability.STABLE), (0.8, Stability.NOT_STABLE)])
def test_metzler_class_verdict_is_scale_invariant(shift, expected, n, c):
    # abscissa (1 - shift) * n: a fifth of the diagonal or more away from
    # zero, so every positive multiple must get the same decided verdict
    a = c * (np.ones((n, n)) - shift * n * np.eye(n))
    verdict = evaluate_class(MatrixPair(a, np.zeros((n, n))))
    assert verdict.stable is expected
    assert verdict.condition_values["spectral_abscissa"] == pytest.approx(c * (1.0 - shift) * n, rel=1e-9)


def test_structured_rank_one_row_example():
    pair = MatrixPair(np.diag([-2.0, -2.0]), [[1.0, -1.0], [0.0, 0.0]])
    verdict = signature_condition(pair)
    assert verdict.stable is Stability.STABLE
    assert verdict.condition_values["spectral_abscissa"] == pytest.approx(-1.0, abs=1e-9)


def test_structured_tridiagonal_example():
    pair = MatrixPair([[-3.0, -1.0], [-1.0, -3.0]], np.zeros((2, 2)))
    verdict = signature_condition(pair)
    assert verdict.stable is Stability.STABLE
    assert verdict.condition_values["spectral_abscissa"] == pytest.approx(-2.0, abs=1e-9)


def test_structured_last_row_mixed_signs_reduces_to_diagonal():
    a = np.diag([-1.0, -2.0, -3.0])
    a[2, :2] = (-4.0, 5.0)
    verdict = signature_condition(MatrixPair(a, np.zeros((3, 3))))
    assert verdict.stable is Stability.STABLE
    assert verdict.condition_values["spectral_abscissa"] == pytest.approx(-1.0, abs=1e-9)

    a2 = a.copy()
    a2[0, 0] = 0.5
    verdict2 = signature_condition(MatrixPair(a2, np.zeros((3, 3))))
    assert verdict2.stable is Stability.NOT_STABLE


def structured_family():
    """100 pairs from each structured generator, each also under one random
    signature conjugation (DAD, DBE): 800 pairs."""
    rng = np.random.default_rng(2201)
    for generator in (
        acceptance._rank_one_row_instance,
        acceptance._tridiag_instance,
        acceptance._last_row_instance,
        acceptance._superdiag_instance,
    ):
        for _ in range(100):
            pair = generator(rng)
            yield pair
            yield acceptance._signature_conjugate(rng, pair)


def test_signatures_refuse_an_unbalanced_pair():
    assert classes._signatures(np.array([[-1.0, 1.0], [-1.0, -1.0]]), np.zeros((2, 2))) is None


def test_signatures_solve_one_sided_and_negative_zero_entries():
    # a_01 = -0.0 and a_21 = 0 ask nothing; a_10 and a_12 still tie d_1 to d_0 and d_2
    a = np.array([[-1.0, -0.0, 0.0], [-0.5, -2.0, 0.3], [0.0, 0.0, -1.0]])
    b = np.zeros((3, 3))
    b[1] = (0.4, -0.2, -0.0)
    pair = MatrixPair(a, b)
    assert classify(pair).name == TRIDIAG_SIGN_SYM
    d, e = classes._signatures(a, b)
    assert np.array_equal(a * np.outer(d, d), metzler_envelope(a))
    assert np.array_equal(b * np.outer(d, e), np.abs(b))
    assert signature_condition(pair).stable is Stability.STABLE


def test_incompatible_last_row_pair_is_not_last_row_form():
    # sign(c_0 b_0) = -1 but sign(c_1 b_1) = +1: no single column sign absorbs both
    a = np.diag([-1.0, -1.0, -1.0, -2.0])
    a[3, :3] = (-1.0, 2.0, 0.0)
    b = np.zeros((4, 4))
    b[:2, 3] = (1.0, 1.0)
    pair = MatrixPair(a, b)
    assert classify(pair).name == UNSTRUCTURED
    b[1, 3] = -1.0
    assert classify(MatrixPair(a, b)).name == LAST_ROW_FORM


def test_tridiagonal_test_reads_only_the_entries_outside_the_band():
    # tridiagonal iff np.triu(a, 2) and np.tril(a, -2) are all zero; -0.0 is zero
    rng = np.random.default_rng(71)
    for n in range(1, 9):
        for _ in range(20):
            a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
            a[rng.random((n, n)) < 0.3] = -0.0
            if rng.random() < 0.5:
                a = np.triu(np.tril(a, 1), -1)
            expected = not (np.triu(a, 2).any() or np.tril(a, -2).any())
            assert classes._is_tridiagonal(a) is expected


def test_tridiagonal_signs_compare_where_their_product_underflows():
    # 1e-200 * -1e-200 rounds to -0.0; the signs still disagree
    a = np.array([[-1.0, -1e-200], [1e-200, -1.0]])
    b = np.zeros((2, 2))
    b[0, 1] = 0.5
    pair = MatrixPair(a, b)
    assert classify(pair).name == UNSTRUCTURED
    with pytest.raises(ClassMismatchError):
        evaluate_class(pair)


def test_every_structured_tag_has_exact_signatures():
    tagged = 0
    for pair in structured_family():
        if classify(pair).name not in classes.STRUCTURED_TAGS:
            continue
        tagged += 1
        d, e = classes._signatures(pair.a, pair.b)
        assert set(d.tolist()) <= {-1.0, 1.0} and set(e.tolist()) <= {-1.0, 1.0}
        assert np.array_equal(pair.a * np.outer(d, d), metzler_envelope(pair.a))
        assert np.array_equal(pair.b * np.outer(d, e), np.abs(pair.b))
    assert tagged == 686


def test_structured_family_census():
    census = {}
    for pair in structured_family():
        tag = classify(pair).name
        stable = evaluate_class(pair).stable.value if tag != UNSTRUCTURED else "-"
        census[tag, stable] = census.get((tag, stable), 0) + 1
    assert census == {
        (METZLER_NONNEG, "NotStable"): 9,
        (METZLER_NONNEG, "Stable"): 18,
        (METZLER_RANK_ONE_ROW, "NotStable"): 65,
        (METZLER_RANK_ONE_ROW, "Stable"): 73,
        (TRIDIAG_SIGN_SYM, "NotStable"): 115,
        (TRIDIAG_SIGN_SYM, "Stable"): 86,
        (LAST_ROW_FORM, "NotStable"): 38,
        (LAST_ROW_FORM, "Stable"): 162,
        (SUPERDIAG_B, "NotStable"): 55,
        (SUPERDIAG_B, "Stable"): 92,
        (UNSTRUCTURED, "-"): 87,
    }


def test_a_wrong_signature_is_refused_naming_the_matrix(monkeypatch):
    pair = MatrixPair([[-3.0, -1.0], [-1.0, -3.0]], [[0.0, 0.5], [0.0, 0.0]])
    d, e = classes._signatures(pair.a, pair.b)
    monkeypatch.setattr(classes, "_signatures", lambda a, b: (d * [1.0, -1.0], e))
    with pytest.raises(RiccstabError, match="on A"):
        signature_condition(pair)
    monkeypatch.setattr(classes, "_signatures", lambda a, b: (d, -e))
    with pytest.raises(RiccstabError, match="on B"):
        signature_condition(pair)


def test_chain_condition_stable_example():
    verdict = chain_condition((-1.0, -1.0, -1.0), (1.0, 1.0), (0.1, 0.1))
    assert verdict.stable is Stability.STABLE
    assert verdict.condition_values["tail_margin"] == pytest.approx(0.9)
    assert verdict.condition_values["determinant_margin"] == pytest.approx(0.8)


def test_chain_condition_unstable_example():
    verdict = chain_condition((-1.0, -1.0, -1.0), (1.0, 1.0), (20.0, 0.1))
    assert verdict.stable is Stability.NOT_STABLE
    assert verdict.condition_values["determinant_margin"] == pytest.approx(1.0 - 20.1)


def test_chain_condition_zero_b_reduces_to_diagonal():
    verdict = chain_condition((-0.5, -1.0, -2.0), (3.0, -2.5), (0.0, 0.0))
    assert verdict.stable is Stability.STABLE


def test_chain_condition_boundary_is_marginal():
    verdict = chain_condition((-1.0, -1.0, -1.0), (1.0, 1.0), (-0.5, 1.0))
    assert verdict.stable is Stability.MARGINAL
    assert verdict.condition_values["tail_margin"] == pytest.approx(0.0, abs=1e-12)
    assert verdict.condition_values["determinant_margin"] == pytest.approx(0.5)


def test_chain_condition_definite_failure_beats_boundary():
    verdict = chain_condition((-1.0, -1.0, -1.0), (1.0, 1.0), (0.1, 1.0))
    assert verdict.stable is Stability.NOT_STABLE


def test_fan_in_condition_examples():
    stable = fan_in_condition((-1.0, -1.0, -3.0), (1.0, 1.0), (1.0, 1.0))
    assert stable.stable is Stability.STABLE
    assert stable.condition_values["determinant_margin"] == pytest.approx(1.0)

    boundary = fan_in_condition((-1.0, -1.0, -2.0), (1.0, 1.0), (1.0, 1.0))
    assert boundary.stable is Stability.MARGINAL
    assert boundary.condition_values["determinant_margin"] == pytest.approx(0.0, abs=1e-12)

    zero_b = fan_in_condition((-1.0, -2.0, -3.0), (2.0, -2.0), (0.0, 0.0))
    assert zero_b.stable is Stability.STABLE


def test_feedback_conditions_decide_pairs_classify_tags_otherwise():
    # a nonnegative feedback loop is MetzlerNonneg to classify, and a chain
    # without its first coupling, also a fan-in, is LastRowForm;
    # feedback_condition matches the shape, not the tag
    metzler_chain = chain_pair((-1.0, -1.0, -1.0), (1.0, 1.0), (0.1, 0.1))
    metzler_fan_in = fan_in_pair((-1.0, -1.0, -3.0), (1.0, 1.0), (1.0, 1.0))
    assert classify(metzler_chain).name == classify(metzler_fan_in).name == METZLER_NONNEG
    assert feedback_condition(metzler_chain).tag.name == CHAIN_3X3
    assert feedback_condition(metzler_fan_in).tag.name == FAN_IN_3X3
    both = chain_pair((-1.0, -1.0, -1.0), (0.0, -1.0), (0.1, -0.1))
    assert classify(both).name == LAST_ROW_FORM
    # the chain reading comes first; the fan-in reading of the same pair agrees
    chain = feedback_condition(both)
    assert chain.tag.name == CHAIN_3X3
    assert chain == classes._chain_verdict(both, chain.tag)
    a = both.a
    fan_in_params = {"a": np.diag(a).tolist(), "c": [float(a[2, 0]), float(a[2, 1])], "b": both.b[:2, 2].tolist()}
    fan_in = classes._fan_in_verdict(both, ClassTag(FAN_IN_3X3, fan_in_params))
    assert (chain.tag.params, chain.stable) == (fan_in.tag.params, fan_in.stable)


def test_feedback_condition_refuses_a_pair_of_neither_shape():
    chain = chain_pair((-1.0, -1.0, -1.0), (1.0, 1.0), (0.1, 0.1))
    b_on_the_diagonal = MatrixPair(chain.a, chain.b + np.diag([0.0, 0.0, 0.1]))
    both_couplings = MatrixPair(chain.a + np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), chain.b)
    for pair in (ONE_PAIR_PER_TAG[METZLER_NONNEG], b_on_the_diagonal, both_couplings):
        with pytest.raises(ClassMismatchError, match="3x3 feedback"):
            feedback_condition(pair)


def _last_row_pair():
    a = np.diag([-1.0, -1.0, -2.0])
    a[2, :2] = (-1.0, 2.0)
    return a


ONE_PAIR_PER_TAG = {
    METZLER_NONNEG: MatrixPair([[-2.0, 1.0], [0.0, -2.0]], [[0.0, 0.0], [1.0, 0.0]]),
    METZLER_RANK_ONE_ROW: MatrixPair(np.diag([-2.0, -2.0]), [[1.0, -1.0], [0.0, 0.0]]),
    TRIDIAG_SIGN_SYM: MatrixPair([[-3.0, -1.0], [-1.0, -3.0]], [[0.0, 0.5], [0.0, 0.0]]),
    LAST_ROW_FORM: MatrixPair(_last_row_pair(), np.zeros((3, 3))),
    SUPERDIAG_B: MatrixPair(_last_row_pair(), [[0.0, 0.4, 0.0], [0.0, 0.0, -0.3], [0.0, 0.0, 0.0]]),
    CHAIN_3X3: chain_pair((-1.0, -1.0, -1.0), (-1.0, 1.0), (0.1, 0.1)),
    FAN_IN_3X3: fan_in_pair((-1.0, -1.0, -3.0), (-1.0, 1.0), (1.0, 1.0)),
    UNSTRUCTURED: MatrixPair([[-3.0, 0.4], [-0.3, -2.5]], [[0.1, -0.1], [0.0, 0.1]]),
}


def _counting_classify(monkeypatch):
    calls = []
    original = classes.classify

    def counting(pair):
        calls.append(pair)
        return original(pair)

    monkeypatch.setattr(classes, "classify", counting)
    return calls


@pytest.mark.parametrize("name", sorted(ONE_PAIR_PER_TAG))
def test_evaluate_class_classifies_once(monkeypatch, name):
    pair = ONE_PAIR_PER_TAG[name]
    tag = classify(pair)
    assert tag.name == name
    calls = _counting_classify(monkeypatch)
    if name == UNSTRUCTURED:
        with pytest.raises(ClassMismatchError):
            evaluate_class(pair)
    else:
        assert evaluate_class(pair).tag == tag
    assert len(calls) == 1


@pytest.mark.parametrize("name", sorted(ONE_PAIR_PER_TAG))
def test_cli_classify_classifies_once(monkeypatch, tmp_path, capsys, name):
    pair = ONE_PAIR_PER_TAG[name]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"A": pair.a.tolist(), "B": pair.b.tolist()}))
    calls = _counting_classify(monkeypatch)
    assert cli.main(["classify", str(problem)]) in (cli.EXIT_OK, cli.EXIT_UNDECIDED)
    assert json.loads(capsys.readouterr().out)["tag"]["name"] == name
    assert len(calls) == 1


def test_correlation_bound_examples():
    assert correlation_form_bound(1.0, 1.0) == pytest.approx(2.0)
    assert correlation_form_bound(1.0, -2.0) == pytest.approx(1.0)
    assert correlation_form_bound(-3.0, 1.0) == pytest.approx(3.0)
    with pytest.raises(ContractError):
        correlation_form_bound(0.0, 1.0)


def test_correlation_oracle_attains_bound_on_grid():
    assert correlation_form_bound_oracle(1.0, 1.0, 0.01) == pytest.approx(2.0, abs=1e-12)
    assert correlation_form_bound_oracle(1.0, -2.0, 0.01) == pytest.approx(1.0, abs=1e-12)


def test_correlation_oracle_includes_cube_corner():
    value = correlation_form_bound_oracle(1.0, 3.0, 0.1)
    assert value == pytest.approx(4.0, abs=1e-12)


def reference_correlation_form_bound_oracle(c, d, grid_step):
    """Per-x form of correlation_form_bound_oracle: one feasibility mask and
    one maximum of |c*x + d*y*z| over the feasible (y, z) per grid value x."""
    npts = int(round(2.0 / grid_step)) + 1
    g = np.linspace(-1.0, 1.0, npts)
    yy, zz = np.meshgrid(g, g)
    yz = yy * zz
    ss = yy * yy + zz * zz
    best = 0.0
    for x in g:
        feasible = 1.0 - (x * x + ss) + 2.0 * x * yz >= 0.0
        if np.any(feasible):
            vals = np.abs(c * x + d * yz[feasible])
            best = max(best, float(vals.max()))
    return best


def _oracle_cases():
    rng = np.random.default_rng(808)
    cases = [(1.0, -0.5), (1.0, 3.0), (-2.0, 1.0), (0.5, -0.5), (-1e-3, 1e-3)]
    for _ in range(7):
        c, d = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-3.0, np.log10(3.0), 2)
        cases.append((float(c), float(d)))
    return cases


@pytest.mark.parametrize("grid_step", [0.1, 0.05, 0.02, 0.01])
def test_correlation_oracle_matches_reference_loop(grid_step):
    for c, d in _oracle_cases():
        got = correlation_form_bound_oracle(c, d, grid_step)
        assert got == reference_correlation_form_bound_oracle(c, d, grid_step), (c, d)


@pytest.mark.parametrize("grid_step", [0.095, 0.03])
def test_correlation_oracle_grid_contains_axis_point(grid_step):
    # |c| > |c + d| is attained only at (x, y, z) = (sign(c), 0, 0), which an
    # even-sized grid misses
    for c, d in [(1.0, -0.5), (-2.5, 1.5), (0.3, -0.1), (-1.0, 1.9)]:
        assert correlation_form_bound_oracle(c, d, grid_step) == correlation_form_bound(c, d)


def test_correlation_oracle_sweeps_grid_once_per_size(monkeypatch):
    calls = []
    meshgrid = np.meshgrid

    def counting_meshgrid(*args, **kwargs):
        calls.append(len(args[0]))
        return meshgrid(*args, **kwargs)

    monkeypatch.setattr(np, "meshgrid", counting_meshgrid)
    classes._correlation_grid_table.cache_clear()
    assert acceptance.correlation_bound(0)["passed"]
    assert calls == [201]
    assert acceptance.correlation_bound(0)["passed"]
    assert calls == [201]


def test_classify_and_condition_agree_on_solver_hard_case():
    pair = fan_in_pair((-1.0, -1.0, -3.0), (1.0, -1.0), (1.0, 1.0))
    tag = classify(pair)
    verdict = evaluate_class(pair)
    assert tag.name in (FAN_IN_3X3, LAST_ROW_FORM)
    assert verdict.stable in (Stability.STABLE, Stability.NOT_STABLE, Stability.MARGINAL)
