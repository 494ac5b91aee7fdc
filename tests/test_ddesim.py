"""Delay simulator, functional monitoring, and decay reports."""

import io
import math

import numpy as np
import pytest

from riccstab.ddesim import (
    _adjusted_step,
    decay_check,
    decay_report,
    export_csv,
    lk_functional,
    simulate,
)
from riccstab.errors import ContractError
from riccstab.riccati import MatrixPair, RiccatiCertificate, Verdict, solve_diagonal

SCALAR_PAIR = MatrixPair([[-2.0]], [[1.0]])
SCALAR_CERT = RiccatiCertificate(np.array([1.0]), np.array([1.0]), 2.0 - np.sqrt(2.0))


def test_undelayed_scalar_exponential():
    pair = MatrixPair([[-2.0]], [[0.0]])
    traj = simulate(pair, 0.0, [1.0], 5.0, 0.01)
    exact = math.exp(-10.0)
    assert abs(traj.xs[-1, 0] - exact) / exact <= 1e-6


def test_zero_delay_matches_reduced_system_exactly():
    pair = MatrixPair([[-1.0, 0.2], [0.1, -1.5]], [[0.1, 0.0], [0.05, 0.1]])
    reduced = MatrixPair(pair.a + pair.b, np.zeros((2, 2)))
    phi = [1.0, -0.5]
    a = simulate(pair, 0.0, phi, 12.0, 0.02)
    b = simulate(reduced, 0.0, phi, 12.0, 0.02)
    assert np.array_equal(a.xs, b.xs)


def rk4_reference(pair, tau, phi, horizon, h):
    """Stage-by-stage classical RK4 with the delayed term read off the grid
    once per step and held over its four stages; tau = 0 integrates A + B."""
    if tau == 0.0:
        a, b, step, m = pair.a + pair.b, np.zeros_like(pair.b), h, 0
    else:
        a, b = pair.a, pair.b
        step, m = _adjusted_step(tau, h)
    xs = [np.asarray(phi, dtype=float)]
    for k in range(math.ceil(horizon / step - 1e-9)):
        x = xs[-1]
        drive = b @ xs[max(k - m, 0)]
        k1 = a @ x + drive
        k2 = a @ (x + 0.5 * step * k1) + drive
        k3 = a @ (x + 0.5 * step * k2) + drive
        k4 = a @ (x + step * k3) + drive
        xs.append(x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(xs)


@pytest.mark.parametrize("tau", [0.0, 0.1, 1.0, 5.0])
def test_simulate_matches_stagewise_rk4(tau):
    pair = MatrixPair(
        [[-2.0, 0.4, 0.1], [0.3, -1.5, -0.2], [0.0, 0.5, -1.8]],
        [[0.3, -0.2, 0.0], [0.1, 0.4, 0.1], [-0.2, 0.0, 0.5]],
    )
    phi = [1.0, -0.5, 0.25]
    traj = simulate(pair, tau, phi, 15.0, 0.03)
    ref = rk4_reference(pair, tau, phi, 15.0, 0.03)
    assert traj.xs.shape == ref.shape
    assert np.abs(traj.xs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_adjusted_step_divides_delay():
    assert _adjusted_step(1.0, 0.3) == (0.25, 4)
    assert _adjusted_step(1.0, 0.25) == (0.25, 4)
    step, m = _adjusted_step(1.0, 0.5 + 1e-13)
    assert step == 0.5 + 1e-13
    assert m == 2


def test_delayed_scalar_example():
    traj = simulate(SCALAR_PAIR, 1.0, [1.0], 10.0, 0.01)
    ref = simulate(SCALAR_PAIR, 1.0, [1.0], 10.0, 0.001)
    assert abs(traj.xs[-1, 0]) < 1.1e-2
    assert abs(traj.xs[-1, 0] - ref.xs[-1, 0]) < 5e-4
    tail = np.abs(traj.xs[traj.ts >= 2.0, 0])
    assert np.all(np.diff(tail) <= 1e-12)


def test_simulate_input_validation():
    with pytest.raises(ContractError):
        simulate(SCALAR_PAIR, 1.0, [1.0], 10.0, 0.0)
    with pytest.raises(ContractError):
        simulate(SCALAR_PAIR, -1.0, [1.0], 10.0, 0.1)
    with pytest.raises(ContractError):
        simulate(SCALAR_PAIR, 5.0, [1.0], 1.0, 0.1)


def test_divergence_is_flagged_and_truncated():
    traj = simulate(MatrixPair([[1.0]], [[2.0]]), 1.0, [1.0], 200.0, 0.01)
    assert traj.diverged
    assert traj.ts.shape[0] < 20001
    assert np.all(np.isfinite(traj.xs))


def test_lk_zero_trajectory():
    traj = simulate(SCALAR_PAIR, 1.0, [0.0], 5.0, 0.1)
    values = lk_functional(traj, SCALAR_CERT)
    assert np.all(values[:, 1] == 0.0)


def test_lk_zero_delay_is_pure_quadratic():
    pair = MatrixPair([[-1.0, 0.0], [0.0, -2.0]], np.zeros((2, 2)))
    cert = RiccatiCertificate(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 1.0)
    traj = simulate(pair, 0.0, [1.0, 1.0], 3.0, 0.05)
    values = lk_functional(traj, cert)
    expect = 2.0 * traj.xs[:, 0] ** 2 + traj.xs[:, 1] ** 2
    assert np.allclose(values[:, 1], expect, atol=0.0)


def test_lk_initial_value_constant_history():
    traj = simulate(SCALAR_PAIR, 1.0, [1.0], 5.0, 0.01)
    values = lk_functional(traj, SCALAR_CERT)
    assert values[0, 1] == pytest.approx(2.0, abs=1e-12)


def test_lk_matches_direct_trapezoid():
    traj = simulate(SCALAR_PAIR, 0.7, [1.0], 6.0, 0.05)
    values = lk_functional(traj, SCALAR_CERT)
    m = traj.delay_steps
    for k in (0, 1, m - 1, m, m + 3, traj.xs.shape[0] - 1):
        window = np.array([traj.state_at(j)[0] ** 2 for j in range(k - m, k + 1)])
        integral = traj.h * (window.sum() - 0.5 * window[0] - 0.5 * window[-1])
        assert values[k, 1] == pytest.approx(traj.xs[k, 0] ** 2 + integral, abs=1e-12)


def test_decay_check_feasible_scalar():
    reports = decay_check(SCALAR_PAIR, SCALAR_CERT, [0.0, 0.5, 2.0], 40.0, 0.02)
    assert [r.tau for r in reports] == [0.0, 0.5, 2.0]
    assert all(r.decayed for r in reports)
    assert all(r.max_lk_increase <= 1e-6 * 2.0 for r in reports)


def test_decay_check_infeasible_pair_reported_not_raised():
    reports = decay_check(MatrixPair([[-1.0]], [[2.0]]), None, [2.0], 40.0, 0.02)
    assert not reports[0].decayed


def test_decay_check_rejects_bad_certificate():
    with pytest.raises(ContractError):
        decay_check(MatrixPair([[-1.0]], [[2.0]]), SCALAR_CERT, [1.0], 10.0, 0.1)


def test_decay_check_zero_b_any_delay():
    pair = MatrixPair([[-1.0, 0.5], [0.0, -2.0]], np.zeros((2, 2)))
    verdict = solve_diagonal(pair)
    assert verdict.status == Verdict.FEASIBLE
    reports = decay_check(pair, verdict.certificate, [0.0, 7.3, 25.0], 60.0, 0.05)
    assert all(r.decayed for r in reports)


def test_step_halving_fourth_order_on_undelayed_path():
    pair = MatrixPair([[-1.0]], [[0.0]])
    exact = math.exp(-1.0)
    errs = []
    for h in (0.1, 0.05):
        traj = simulate(pair, 0.0, [1.0], 1.0, h)
        errs.append(abs(traj.xs[-1, 0] - exact))
    assert errs[0] / errs[1] >= 8.0


def test_decay_report_without_functional_uses_norm_only():
    traj = simulate(SCALAR_PAIR, 0.5, [1.0], 40.0, 0.02)
    report = decay_report(traj)
    assert report.decayed
    assert report.max_lk_increase == 0.0


def test_export_csv_layout():
    traj = simulate(SCALAR_PAIR, 1.0, [1.0], 2.0, 0.5)
    lk = lk_functional(traj, SCALAR_CERT)
    buf = io.StringIO()
    export_csv(traj, buf, lk=lk)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "t,x_1,V"
    assert len(lines) == traj.xs.shape[0] + 1
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(2.0)


def test_export_csv_rejects_mismatched_functional():
    traj = simulate(SCALAR_PAIR, 1.0, [1.0], 2.0, 0.5)
    with pytest.raises(ContractError):
        export_csv(traj, io.StringIO(), lk=np.zeros((3, 2)))
