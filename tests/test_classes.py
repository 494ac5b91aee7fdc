"""Structural classification and closed-form stability conditions."""

import numpy as np
import pytest

from riccstab import acceptance, classes
from riccstab.classes import (
    CHAIN_3X3,
    FAN_IN_3X3,
    LAST_ROW_FORM,
    METZLER_NONNEG,
    METZLER_RANK_ONE_ROW,
    SUPERDIAG_B,
    TRIDIAG_SIGN_SYM,
    UNSTRUCTURED,
    Stability,
    chain_feedback_condition,
    classify,
    correlation_form_bound,
    correlation_form_bound_oracle,
    evaluate_class,
    fan_in_feedback_condition,
    metzler_nonneg_condition,
    structured_condition,
)
from riccstab.errors import ClassMismatchError, ContractError
from riccstab.riccati import MatrixPair


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


def test_metzler_condition_examples():
    stable = metzler_nonneg_condition(MatrixPair([[-2.0, 1.0], [0.0, -2.0]], [[0.0, 0.0], [1.0, 0.0]]))
    assert stable.stable is Stability.STABLE
    assert stable.condition_values["spectral_abscissa"] == pytest.approx(-1.0, abs=1e-9)

    marginal = metzler_nonneg_condition(MatrixPair([[-1.0]], [[1.0]]))
    assert marginal.stable is Stability.MARGINAL

    unstable = metzler_nonneg_condition(MatrixPair([[-1.0]], [[2.0]]))
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
    verdict = structured_condition(pair)
    assert verdict.stable is Stability.STABLE
    assert verdict.condition_values["spectral_abscissa"] == pytest.approx(-1.0, abs=1e-9)


def test_structured_tridiagonal_example():
    pair = MatrixPair([[-3.0, -1.0], [-1.0, -3.0]], np.zeros((2, 2)))
    verdict = structured_condition(pair)
    assert verdict.stable is Stability.STABLE
    assert verdict.condition_values["spectral_abscissa"] == pytest.approx(-2.0, abs=1e-9)


def test_structured_last_row_mixed_signs_reduces_to_diagonal():
    a = np.diag([-1.0, -2.0, -3.0])
    a[2, :2] = (-4.0, 5.0)
    verdict = structured_condition(MatrixPair(a, np.zeros((3, 3))))
    assert verdict.stable is Stability.STABLE
    assert verdict.condition_values["spectral_abscissa"] == pytest.approx(-1.0, abs=1e-9)

    a2 = a.copy()
    a2[0, 0] = 0.5
    verdict2 = structured_condition(MatrixPair(a2, np.zeros((3, 3))))
    assert verdict2.stable is Stability.NOT_STABLE


def test_chain_condition_stable_example():
    verdict = chain_feedback_condition(chain_pair((-1.0, -1.0, -1.0), (1.0, 1.0), (0.1, 0.1)))
    assert verdict.stable is Stability.STABLE
    assert verdict.condition_values["tail_margin"] == pytest.approx(0.9)
    assert verdict.condition_values["determinant_margin"] == pytest.approx(0.8)


def test_chain_condition_unstable_example():
    verdict = chain_feedback_condition(chain_pair((-1.0, -1.0, -1.0), (1.0, 1.0), (20.0, 0.1)))
    assert verdict.stable is Stability.NOT_STABLE
    assert verdict.condition_values["determinant_margin"] == pytest.approx(1.0 - 20.1)


def test_chain_condition_zero_b_reduces_to_diagonal():
    verdict = chain_feedback_condition(chain_pair((-0.5, -1.0, -2.0), (3.0, -2.5), (0.0, 0.0)))
    assert verdict.stable is Stability.STABLE


def test_chain_condition_boundary_is_marginal():
    verdict = chain_feedback_condition(chain_pair((-1.0, -1.0, -1.0), (1.0, 1.0), (-0.5, 1.0)))
    assert verdict.stable is Stability.MARGINAL
    assert verdict.condition_values["tail_margin"] == pytest.approx(0.0, abs=1e-12)
    assert verdict.condition_values["determinant_margin"] == pytest.approx(0.5)


def test_chain_condition_definite_failure_beats_boundary():
    verdict = chain_feedback_condition(chain_pair((-1.0, -1.0, -1.0), (1.0, 1.0), (0.1, 1.0)))
    assert verdict.stable is Stability.NOT_STABLE


def test_fan_in_condition_examples():
    stable = fan_in_feedback_condition(fan_in_pair((-1.0, -1.0, -3.0), (1.0, 1.0), (1.0, 1.0)))
    assert stable.stable is Stability.STABLE
    assert stable.condition_values["determinant_margin"] == pytest.approx(1.0)

    boundary = fan_in_feedback_condition(fan_in_pair((-1.0, -1.0, -2.0), (1.0, 1.0), (1.0, 1.0)))
    assert boundary.stable is Stability.MARGINAL
    assert boundary.condition_values["determinant_margin"] == pytest.approx(0.0, abs=1e-12)

    zero_b = fan_in_feedback_condition(fan_in_pair((-1.0, -2.0, -3.0), (2.0, -2.0), (0.0, 0.0)))
    assert zero_b.stable is Stability.STABLE


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
