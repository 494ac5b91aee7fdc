"""Barrier solver for the block LMI: derivatives, stopping rules, determinism."""

import numpy as np
import pytest

from riccstab import lmi
from riccstab.acceptance import (
    MARGIN_FILTER,
    _chain_instance,
    _fan_in_instance,
    _metzler_pair,
    _signature_conjugate,
    _strong_feasible_pair,
)
from riccstab.classes import Stability, feedback_condition
from riccstab.lmi import _block, _chol, _newton_system, minimize
from riccstab.matcore import spectral_abscissa
from riccstab.riccati import MatrixPair, SolveOptions, Verdict, solve_diagonal


def generators(a, b):
    """The 2n matrices F_i with F(w) = sum_i w_i F_i, built entry by entry."""
    n = a.shape[0]
    gens = []
    for i in range(n):
        f = np.zeros((2 * n, 2 * n))
        f[i, :n] += a[i]  # PA
        f[:n, i] += a[i]  # A'P
        f[i, n:] = b[i]  # PB
        f[n:, i] = b[i]  # B'P
        gens.append(f)
    for i in range(n):
        f = np.zeros((2 * n, 2 * n))
        f[i, i] = 1.0
        f[n + i, n + i] = -1.0
        gens.append(f)
    return gens


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_derivatives_match_dense_traces(n):
    rng = np.random.default_rng(500 + n)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    w = rng.uniform(0.3, 2.0, 2 * n)
    gens = generators(a, b)
    f = sum(wi * fi for wi, fi in zip(w, gens))
    v = np.hstack([a, b])
    assert np.allclose(_block(v, w), f, rtol=0.0, atol=1e-13)
    t = float(np.linalg.eigvalsh(f)[-1]) + 0.7
    kappa = 3.0
    x = np.linalg.inv(t * np.eye(2 * n) - f)
    # d/dt and d/dw_i of the barrier; G = tI - F has dG/dt = I, dG/dw_i = -F_i
    dg = [np.eye(2 * n)] + [-fi for fi in gens]
    grad = np.array([kappa - np.trace(x)] + [np.trace(x @ fi) - 1.0 / wi for wi, fi in zip(w, gens)])
    hess = np.array([[np.trace(x @ gi @ x @ gj) for gj in dg] for gi in dg])
    hess[1:, 1:] += np.diag(1.0 / w**2)
    got_grad, got_hess = _newton_system(v, kappa, w, _chol(f, t))
    np.testing.assert_allclose(got_grad, grad, rtol=1e-10, atol=1e-10 * np.abs(grad).max())
    np.testing.assert_allclose(got_hess, hess, rtol=1e-10, atol=1e-10 * np.abs(hess).max())


BOUNDARY_PAIRS = (
    ([[-1.0]], [[1.0 - 1e-9]]),
    # A = -I + K (K skew), B = (1 - 1e-9) U (U orthogonal); near the optimum
    # the Newton decrement stalls above CENTERED at working precision
    (
        [[-1.0, -0.04465873307292929], [0.04465873307292929, -1.0]],
        [[-0.6377224963003972, -0.7702661979552201], [-0.7702661979552201, 0.637722496300397]],
    ),
)


@pytest.mark.parametrize("a, b", BOUNDARY_PAIRS, ids=["scalar", "rotation"])
def test_boundary_pair_ends_unknown_within_sixty_steps(a, b):
    a, b = np.array(a), np.array(b)
    s = np.abs(a).max() + np.abs(b).max()
    opts = SolveOptions()
    found = minimize(a / s, b / s, stop=opts.stop_value(), tol=opts.tol, max_iter=opts.max_iter)
    assert found.steps <= 60
    assert found.lam > -opts.tol
    assert solve_diagonal(MatrixPair(a, b), SolveOptions(max_iter=60)).status == Verdict.UNKNOWN


def test_pair_certified_at_unit_weights_takes_no_newton_step():
    a = np.array([[-2.235, 0.006, 0.107], [-0.122, -2.109, 0.009], [-0.051, 0.158, -1.591]])
    b = np.array([[-0.372, 0.023, 0.179], [-0.058, 0.212, -0.021], [0.207, 0.446, -0.209]])
    s = np.abs(a).max() + np.abs(b).max()
    found = minimize(a / s, b / s, stop=-1e-3, tol=1e-7, max_iter=5000)
    assert found.steps == 0
    assert np.array_equal(found.p, np.ones(3)) and np.array_equal(found.q, np.ones(3))
    assert found.lam <= -1e-3
    # the start's factor, of (lam + 1) I - F(1)
    expected = -_block(np.hstack([a / s, b / s]), np.ones(6)) + (found.lam + 1.0) * np.eye(6)
    np.testing.assert_allclose(found.chol @ found.chol.T, expected, rtol=0.0, atol=1e-14)


def test_last_iterate_of_a_path_that_gives_up_is_a_dual_point():
    # the conditions of the theorem of alternatives that riccati's dual
    # witness rests on hold at Z = (L L')^-1: (A Z11 + B Z21)_ii >= 0 and
    # (Z11)_ii >= (Z22)_ii
    a = np.array([[-2.0, 2.0, -2.0, -1.0], [-4.0, -3.0, 2.0, -2.0], [1.0, 2.0, -4.0, 0.0], [0.0, 3.0, -3.0, -5.0]])
    b = np.array([[1.0, 1.0, 0.0, -1.0], [-1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, -3.0], [0.0, -1.0, 0.0, -1.0]])
    s = np.abs(a).max() + np.abs(b).max()
    found = minimize(a / s, b / s, stop=-1e-3, tol=1e-7, max_iter=5000)
    assert found.lam > 0.0 and found.steps > 0
    chol = found.chol
    assert np.array_equal(chol, np.tril(chol)) and (chol.diagonal() > 0.0).all()
    z = np.linalg.inv(chol @ chol.T)
    assert (np.diag(a @ z[:4, :4] + b @ z[4:, :4]) > 0.0).all()
    assert (z.diagonal()[:4] > z.diagonal()[4:]).all()


def test_max_iter_caps_newton_steps():
    a, b = np.array([[-1.0]]), np.array([[1.0 - 1e-9]])
    assert minimize(a, b, stop=-1e-3, tol=1e-7, max_iter=5).steps == 5


def test_two_solves_give_identical_json():
    # a similarity-scaled pair that unit weights do not certify: the path moves
    t = np.array([0.3, 1.0, 3.0])
    a = np.array([[-2.235, 0.006, 0.107], [-0.122, -2.109, 0.009], [-0.051, 0.158, -1.591]])
    b = np.array([[-0.372, 0.023, 0.179], [-0.058, 0.212, -0.021], [0.207, 0.446, -0.209]])
    pair = MatrixPair(t[:, None] * a / t[None, :], t[:, None] * b / t[None, :])
    first, second = solve_diagonal(pair), solve_diagonal(pair)
    assert first.status == Verdict.FEASIBLE
    assert first.to_json() == second.to_json()


def test_minimize_builds_one_block_per_line_search_trial(monkeypatch):
    counts = {"_block": 0, "cholesky": 0, "eigvalsh": 0}

    def counter(name, original):
        def counting(*args):
            counts[name] += 1
            return original(*args)

        return counting

    monkeypatch.setattr(lmi, "_block", counter("_block", lmi._block))
    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counter(name, getattr(np.linalg, name)))
    t = np.array([0.3, 1.0, 3.0])  # the similarity-scaled pair above: the path moves
    a = np.array([[-2.235, 0.006, 0.107], [-0.122, -2.109, 0.009], [-0.051, 0.158, -1.591]])
    b = np.array([[-0.372, 0.023, 0.179], [-0.058, 0.212, -0.021], [0.207, 0.446, -0.209]])
    a, b = t[:, None] * a / t[None, :], t[:, None] * b / t[None, :]
    s = np.abs(a).max() + np.abs(b).max()
    found = minimize(a / s, b / s, stop=-1e-3, tol=1e-7, max_iter=5000)
    assert found.steps > 0
    # F at w = 1 gives lambda_max and the first factor; each trial with w > 0
    # builds F once and factors it once; lambda_max is read from the accepted F
    assert counts["_block"] == counts["cholesky"] > found.steps
    assert counts["eigvalsh"] == found.steps + 1


def _feasible_family(rng, per_kind=25):
    """Feasible pairs from the battery's generators, kept by the class
    oracles, not by the solver: strongly dominant pairs n = 2..8, Metzler
    pairs with A + B Hurwitz (conjugated by signatures), and stable 3x3
    chain and fan-in instances, each clear of the oracle's margin band."""
    for _ in range(per_kind):
        yield _strong_feasible_pair(rng, int(rng.integers(2, 9)))
    kept = 0
    while kept < per_kind:
        pair = _metzler_pair(rng, int(rng.integers(2, 6)))
        if spectral_abscissa(pair.a + pair.b) < -MARGIN_FILTER:
            kept += 1
            yield _signature_conjugate(rng, pair)
    for generator in (_chain_instance, _fan_in_instance):
        kept = 0
        while kept < per_kind:
            pair = generator(rng)
            verdict = feedback_condition(pair)
            if verdict.stable is Stability.STABLE and min(map(abs, verdict.condition_values.values())) >= MARGIN_FILTER:
                kept += 1
                yield pair


def _generic_family(rng, sizes=(16, 24), per_n=5):
    """Generic pairs A = G - diag(u) sqrt(n), u ~ U(0.5, 2.5), B = G'; at
    these sizes none is certified."""
    for n in sizes:
        for _ in range(per_n):
            g = rng.standard_normal((n, n))
            yield MatrixPair(g - np.diag(rng.uniform(0.5, 2.5, n)) * np.sqrt(n), rng.standard_normal((n, n)))


def _newton_steps(pairs):
    """Total Newton steps of minimize over the pairs and how many it certified."""
    opts = SolveOptions()
    steps = certified = 0
    for pair in pairs:
        s = np.abs(pair.a).max() + np.abs(pair.b).max()
        found = minimize(pair.a / s, pair.b / s, stop=opts.stop_value(), tol=opts.tol, max_iter=opts.max_iter)
        steps += found.steps
        certified += found.lam <= -opts.tol
    return steps, certified


def test_newton_step_budget_on_feasible_pairs():
    # the path started at kappa = tr (tI - F)^-1 took 498 steps here; one
    # growth step up skips that first centering, which rarely certifies (290)
    steps, certified = _newton_steps(_feasible_family(np.random.default_rng([0, 13])))
    assert certified == 100
    assert steps <= 350


def test_newton_step_budget_on_generic_pairs_that_do_not_certify():
    # 202 steps with the path started at kappa = tr (tI - F)^-1 (169 now):
    # a later start must not make the give-up rules slower to fire
    steps, certified = _newton_steps(_generic_family(np.random.default_rng([0, 14])))
    assert certified == 0
    assert steps <= 202
