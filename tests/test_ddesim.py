"""Delay simulator, functional monitoring, and decay reports."""

import io
import math

import numpy as np
import pytest

from riccstab import ddesim
from riccstab.ddesim import (
    DIVERGENCE_NORM,
    GRID_SNAP_RTOL,
    MAX_GRID_VALUES,
    SCAN_LEVELS,
    _adjusted_step,
    _rk4_maps,
    decay_check,
    decay_report,
    export_csv,
    lk_functional,
    simulate,
)
from riccstab.errors import ContractError, SizeGuardError
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


def reference_simulate(pair, tau, phi, horizon, h):
    """Per-step form of simulate: one affine map x+ = M x + N x_d per
    Python iteration, stopping at the first state that is not finite or
    whose norm exceeds DIVERGENCE_NORM. Returns (xs, diverged)."""
    x0 = np.asarray(phi, dtype=float)
    if tau == 0.0:
        step, delay = h, 0
        m, n = _rk4_maps(pair.a + pair.b, np.zeros_like(pair.b), step)
    else:
        step, delay = _adjusted_step(tau, h)
        m, n = _rk4_maps(pair.a, pair.b, step)
    steps = max(1, math.ceil(horizon / step - GRID_SNAP_RTOL))
    xs = np.empty((steps + 1, pair.n))
    xs[0] = x0
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            j = k - delay
            x = m @ x + n @ (x0 if j < 0 else xs[j])
            if not np.all(np.isfinite(x)) or float(np.linalg.norm(x)) > DIVERGENCE_NORM:
                return xs[: k + 1], True
            xs[k + 1] = x
    return xs, False


def _random_pair(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(-0.3, 0.3, (n, n)) - 2.0 * np.eye(n)
    b = rng.uniform(-0.5, 0.5, (n, n)) / n
    return MatrixPair(a, b)


def _block_map_calls(monkeypatch):
    calls = []
    block_map = ddesim._block_map

    def counting_block_map(*args):
        calls.append(args[-1])
        return block_map(*args)

    monkeypatch.setattr(ddesim, "_block_map", counting_block_map)
    return calls


@pytest.mark.parametrize("n", [1, 3, 8])
@pytest.mark.parametrize("tau", [0.0, 0.02, 0.04, 0.1, 0.3, 1.0, 5.0, 25.0])
def test_block_scan_matches_per_step_reference(monkeypatch, n, tau):
    calls = _block_map_calls(monkeypatch)
    pair = _random_pair(n)
    phi = np.linspace(1.0, -0.5, n)
    traj = simulate(pair, tau, phi, 60.0, 0.02)
    ref, diverged = reference_simulate(pair, tau, phi, 60.0, 0.02)
    # the lifted state n * (d + 1) decides the path; tau = 0.3 at n = 8 is
    # 128 values, just above the cap
    b = traj.delay_steps + 1
    assert calls == ([b] if n * b <= ddesim._LIFT_MAX_VALUES else [])
    assert traj.xs.shape == ref.shape
    assert traj.diverged == diverged
    assert np.abs(traj.xs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_undelayed_run_spans_several_blocks():
    pair = _random_pair(3)
    traj = simulate(pair, 0.0, [1.0, -1.0, 0.5], 200.0, 0.02)
    ref, _ = reference_simulate(pair, 0.0, [1.0, -1.0, 0.5], 200.0, 0.02)
    assert ref.shape[0] - 1 > 2 * 2**SCAN_LEVELS
    assert traj.xs.shape == ref.shape
    assert np.abs(traj.xs - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize(
    "a, b, tau, length",
    [
        (1.0, 2.0, 1.0, 7883),
        (3.0, -1.0, 25.0, 3845),
        (400.0, 400.0, 0.0, 29),
        (400.0, 400.0, 1.0, 41),
        (400.0, 400.0, 5.0, 41),
        (400.0, 400.0, 0.1, 41),
        (1.0, 2.0, 0.1, 4575),
        (1.0, 2.0, 0.02, 4059),
        (3.0, -1.0, 0.3, 4525),
    ],
)
def test_block_scan_truncates_where_the_reference_does(a, b, tau, length):
    pair = MatrixPair([[a]], [[b]])
    traj = simulate(pair, tau, [1.0], 200.0, 0.02)
    ref, diverged = reference_simulate(pair, tau, [1.0], 200.0, 0.02)
    assert traj.diverged and diverged
    assert traj.xs.shape[0] == ref.shape[0] == length
    assert np.all(np.isfinite(traj.xs))
    assert np.abs(traj.xs - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("horizon", [60.02, 60.06, 60.1])
def test_lifted_run_ending_mid_block(horizon):
    pair = _random_pair(3)
    traj = simulate(pair, 0.1, [1.0, -1.0, 0.5], horizon, 0.02)
    ref, diverged = reference_simulate(pair, 0.1, [1.0, -1.0, 0.5], horizon, 0.02)
    assert (traj.delay_steps + ref.shape[0]) % (traj.delay_steps + 1) != 0
    assert traj.xs.shape == ref.shape
    assert not traj.diverged and not diverged
    assert np.abs(traj.xs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_block_map_that_is_not_finite_runs_block_by_block(monkeypatch):
    # the second mode is never excited, but its growth over one block of six
    # steps overflows, so the block map holds inf and cannot be applied
    calls = _block_map_calls(monkeypatch)
    pair = MatrixPair(np.diag([-1.0, 1e15]), np.diag([0.1, 0.0]))
    traj = simulate(pair, 0.1, [1.0, 0.0], 60.0, 0.02)
    ref, diverged = reference_simulate(pair, 0.1, [1.0, 0.0], 60.0, 0.02)
    assert calls == [6]
    assert not traj.diverged and not diverged
    assert traj.xs.shape == ref.shape
    assert np.abs(traj.xs - ref).max() <= 1e-12 * np.abs(ref).max()


def test_lifted_run_work_grows_logarithmically(monkeypatch):
    calls = _block_map_calls(monkeypatch)
    products = []
    matmul = np.matmul

    def counting_matmul(*args, **kwargs):
        products.append(args[0].shape[0])
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    pair = _random_pair(3)
    counts = []
    for horizon in (60.0, 600.0):
        products.clear()
        simulate(pair, 0.1, [1.0, -1.0, 0.5], horizon, 0.02)
        counts.append(len(products))
        # every block after the first is one row of exactly one product
        assert sum(products) == (5 + round(horizon / 0.02)) // 6
    # 501 and 5001 blocks of six steps; one doubling covers 2**SCAN_LEVELS
    # blocks, so the longer run takes a second one over the last 906
    assert calls == [6, 6]
    assert counts == [math.ceil(math.log2(501)), SCAN_LEVELS + math.ceil(math.log2(906))]


def test_lifted_products_cost_no_more_than_squaring_a_map_at_the_cap(monkeypatch):
    shapes = []
    matmul = np.matmul

    def recording_matmul(*args, **kwargs):
        shapes.append(args[0].shape + args[1].shape[1:])
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording_matmul)
    pair = _random_pair(8)
    traj = simulate(pair, 0.1, np.ones(8), 600.0, 0.02)
    ref, _ = reference_simulate(pair, 0.1, np.ones(8), 600.0, 0.02)
    assert {cols for _, _, cols in shapes} == {48}
    assert max(rows * inner * cols for rows, inner, cols in shapes) <= ddesim._LIFT_MAX_VALUES**3
    assert np.abs(traj.xs - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("tau", [0.0, 0.1, 5.0])
def test_simulate_is_deterministic(tau):
    pair = _random_pair(3)
    first = simulate(pair, tau, [1.0, -1.0, 0.5], 30.0, 0.02)
    second = simulate(pair, tau, [1.0, -1.0, 0.5], 30.0, 0.02)
    assert np.array_equal(first.xs, second.xs)


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


@pytest.mark.parametrize(
    "tau, horizon, h, name",
    [(0.0, 10.0, math.nan, "step"), (0.0, 10.0, math.inf, "step"), (math.nan, 10.0, 0.1, "tau"), (math.inf, math.inf, 0.1, "tau"), (0.0, math.inf, 0.1, "horizon"), (1.0, math.nan, 0.1, "horizon")],
)
def test_simulate_rejects_non_finite_arguments(tau, horizon, h, name):
    with pytest.raises(ContractError, match=name):
        simulate(SCALAR_PAIR, tau, [1.0], horizon, h)


@pytest.mark.parametrize("tau, horizon, h", [(0.0, 1e12, 0.02), (1e-6, 200.0, 0.02), (1e300, 1e300, 1e-10), (1e-12, 10.0, 0.02)])
def test_simulate_caps_the_grid(tau, horizon, h):
    with pytest.raises(SizeGuardError, match=str(MAX_GRID_VALUES)):
        simulate(SCALAR_PAIR, tau, [1.0], horizon, h)


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
        # the constant history phi stands in for the states before index 0
        window = np.array([(traj.xs[j] if j >= 0 else traj.phi)[0] ** 2 for j in range(k - m, k + 1)])
        integral = traj.h * (window.sum() - 0.5 * window[0] - 0.5 * window[-1])
        assert values[k, 1] == pytest.approx(traj.xs[k, 0] ** 2 + integral, abs=1e-12)


def test_decay_check_feasible_scalar():
    reports = decay_check(SCALAR_PAIR, SCALAR_CERT, [0.0, 0.5, 2.0], 40.0, 0.02)
    assert [r.tau for r in reports] == [0.0, 0.5, 2.0]
    assert all(r.decayed for r in reports)
    assert all(r.max_lk_increase <= 1e-6 * 2.0 for r in reports)


def test_decay_check_takes_one_horizon_per_delay():
    runs = ((0.0, 40.0), (2.0, 10.0), (12.0, 5.0))  # the last one runs to its delay
    reports = decay_check(SCALAR_PAIR, SCALAR_CERT, [tau for tau, _ in runs], [h for _, h in runs], 0.02)
    one_by_one = [decay_check(SCALAR_PAIR, SCALAR_CERT, [tau], h, 0.02)[0] for tau, h in runs]
    assert [r.to_json() for r in reports] == [r.to_json() for r in one_by_one]
    with pytest.raises(ContractError, match="horizons"):
        decay_check(SCALAR_PAIR, SCALAR_CERT, [0.0, 2.0], [40.0], 0.02)


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
