"""Structural classification and closed-form stability conditions."""

import numpy as np
import pytest

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


def test_classify_and_condition_agree_on_solver_hard_case():
    pair = fan_in_pair((-1.0, -1.0, -3.0), (1.0, -1.0), (1.0, 1.0))
    tag = classify(pair)
    verdict = evaluate_class(pair)
    assert tag.name in (FAN_IN_3X3, LAST_ROW_FORM)
    assert verdict.stable in (Stability.STABLE, Stability.NOT_STABLE, Stability.MARGINAL)
