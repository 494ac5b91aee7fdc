"""Delay differential equation integrator and energy-decay validation.

Simulates dx/dt = A x(t) + B x(t - tau) from a constant initial function by
classical RK4 on a grid the delay falls on exactly. Each step is one affine
map of the current and the delayed state; since the delayed states of the
next d + 1 steps are already on the grid, each block of d + 1 steps is
computed at once by a doubling prefix scan. It also monitors the
quadratic functional V(t) = x'Px + integral of x'Qx over the trailing delay
window when a certificate is supplied. The functional is the one whose decay
the certificate inequality guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SizeGuardError
from .matcore import as_vector
from .riccati import MatrixPair, RiccatiCertificate, verify_certificate

DIVERGENCE_NORM = 1e100
FINAL_NORM_FRACTION = 1e-3
LK_STEP_FRACTION = 1e-6
GRID_SNAP_RTOL = 1e-9
MAX_GRID_VALUES = 10**8
SCAN_LEVELS = 12  # a scan block holds at most 2**SCAN_LEVELS steps, so its scratch stays small next to the grid


@dataclass(frozen=True, eq=False)
class DelayTrajectory:
    """Sampled solution on a uniform grid.

    ts runs from 0 to the horizon in steps of h (h may have been adjusted
    downward from the requested step so that tau/h is an integer); xs holds
    one state per row. phi is the constant pre-history on [-tau, 0]. When the
    state norm exceeds DIVERGENCE_NORM or leaves the floats, integration
    stops early and diverged is set; ts/xs then end at the last finite state.
    """

    ts: np.ndarray
    xs: np.ndarray
    tau: float
    h: float
    phi: np.ndarray
    diverged: bool = False

    @property
    def n(self) -> int:
        return self.xs.shape[1]

    @property
    def delay_steps(self) -> int:
        return int(round(self.tau / self.h)) if self.tau > 0.0 else 0

    def state_at(self, k: int) -> np.ndarray:
        """State at grid index k, with constant-phi extension for k < 0."""
        if k < 0:
            return self.phi
        return self.xs[k]


@dataclass(frozen=True)
class DecayReport:
    """Per-delay outcome of decay_check."""

    tau: float
    final_norm: float
    max_lk_increase: float
    decayed: bool
    diverged: bool

    def to_json(self) -> dict:
        return {
            "tau": float(self.tau),
            "final_norm": float(self.final_norm),
            "max_lk_increase": float(self.max_lk_increase),
            "decayed": bool(self.decayed),
            "diverged": bool(self.diverged),
        }


def _adjusted_step(tau: float, h: float) -> tuple[float, int]:
    """Largest step <= h dividing tau exactly; returns (step, tau/step).

    When tau is already within relative GRID_SNAP_RTOL of a multiple of h,
    the requested step is kept and the delay index snapped instead.
    """
    ratio = tau / h
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) <= GRID_SNAP_RTOL * max(ratio, 1.0):
        return h, int(nearest)
    m = max(1, math.ceil(ratio - GRID_SNAP_RTOL))
    return tau / m, m


def _require_grid(rows: float, n: int) -> None:
    if rows * n > MAX_GRID_VALUES:
        raise SizeGuardError(
            f"simulation grid of {rows:.4g} rows x {n} values exceeds MAX_GRID_VALUES = {MAX_GRID_VALUES}"
        )


def _rk4_maps(a: np.ndarray, b: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """One classical RK4 step of dx/dt = A x + B x_d with x_d held constant
    over the step, as the affine map x+ = M x + N x_d.

    M = sum over k <= 4 of (hA)^k / k! and N = h * sum over k <= 3 of
    (hA)^k / (k+1)! times B, which is what the four stages compute.
    """
    ha = h * a
    powers = [np.eye(a.shape[0])]
    for _ in range(4):
        powers.append(powers[-1] @ ha)
    m = sum(p / math.factorial(k) for k, p in enumerate(powers))
    n = h * sum(p / math.factorial(k + 1) for k, p in enumerate(powers[:4])) @ b
    return m, n


def simulate(pair: MatrixPair, tau: float, phi, horizon: float, h: float) -> DelayTrajectory:
    """Integrate the delay system from a constant initial function.

    The step is adjusted downward so the delay is a whole number d of steps,
    the delayed term is read off the stored grid once per step and held
    constant across the four RK4 stages. tau = 0 runs the same stepper on
    the undelayed system with matrix A + B and a zero delayed term, so it
    reduces exactly to RK4 on that system.

    Each step is the affine map x[k+1] = M x[k] + N x[k-d], and the next
    d + 1 states read only delayed states already on the grid, so they are
    computed together: with z[j] = N x[k+j-d] (plus M x[k] in z[0]), the
    prefix scan z[j] += M^o z[j-o] for o = 1, 2, 4, ... turns z[j] into
    x[k+1+j] in about log2(d + 1) array operations. With tau = 0 a block is
    the whole run. Blocks hold at most 2**SCAN_LEVELS steps. The grid (delay + steps + 1 rows of n values) is capped at
    MAX_GRID_VALUES.
    """
    for name, value in (("step", h), ("delay tau", tau), ("horizon", horizon)):
        if not math.isfinite(value):
            raise ContractError(f"{name} must be finite, got {value}")
    if h <= 0.0:
        raise ContractError("step must be positive")
    if tau < 0.0:
        raise ContractError("delay must be nonnegative")
    if horizon < tau:
        raise ContractError("horizon must be at least the delay")
    x0 = as_vector(phi, pair.n).copy()

    # the adjusted step is at most h, so the grid has at least horizon/h rows;
    # checking that first keeps the integer conversions below finite
    _require_grid(horizon / h, pair.n)
    if tau == 0.0:
        step, delay = h, 0
        m, n = _rk4_maps(pair.a + pair.b, np.zeros_like(pair.b), step)
    else:
        step, delay = _adjusted_step(tau, h)
        m, n = _rk4_maps(pair.a, pair.b, step)
    _require_grid(delay + horizon / step + 1.0, pair.n)
    steps = max(1, math.ceil(horizon / step - GRID_SNAP_RTOL))
    hist = np.empty((delay + steps + 1, pair.n))
    hist[: delay + 1] = x0
    xs = hist[delay:]
    block = delay + 1 if delay else steps
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        # (M')^1, (M')^2, (M')^4, ... for the scan's offsets; a power that is
        # not finite ends the list, and the block is shortened to match
        powers = []
        power = m.T
        while 2 ** len(powers) < block and len(powers) < SCAN_LEVELS and np.all(np.isfinite(power)):
            powers.append(power)
            power = power @ power
        block = min(block, 2 ** len(powers))
        for k in range(0, steps, block):
            size = min(block, steps - k)
            # without a delay N is zero and the rows ahead of k are not written yet
            z = hist[k : k + size] @ n.T if delay else np.zeros((size, pair.n))
            z[0] += m @ xs[k]
            for level, power in enumerate(powers):
                o = 2**level
                if o >= size:
                    break
                z[o:] += z[:-o] @ power
            # a row that is not finite has norm inf or nan, which fails <=
            kept = np.linalg.norm(z, axis=1) <= DIVERGENCE_NORM
            if not kept.all():
                first = int(np.argmin(kept))
                xs[k + 1 : k + 1 + first] = z[:first]
                xs = xs[: k + 1 + first]
                diverged = True
                break
            xs[k + 1 : k + 1 + size] = z
    ts = step * np.arange(xs.shape[0])
    return DelayTrajectory(ts, xs, tau, step, x0, diverged)


def lk_functional(trajectory: DelayTrajectory, cert: RiccatiCertificate) -> np.ndarray:
    """Values of V(t) = x'Px + integral over [t-tau, t] of x'Qx on the grid.

    Returns an array of (t, V) rows. The integral uses the trapezoidal rule
    on the trajectory grid, reading the constant initial function for times
    before zero. tau = 0 gives V = x'Px exactly.
    """
    p = as_vector(cert.p, trajectory.n)
    q = as_vector(cert.q, trajectory.n)
    m = trajectory.delay_steps
    xs = trajectory.xs
    count = xs.shape[0]
    quad_p = np.einsum("ij,j,ij->i", xs, p, xs)
    quad_q = np.einsum("ij,j,ij->i", xs, q, xs)
    phi_q = float(np.dot(trajectory.phi * q, trajectory.phi))

    values = np.empty((count, 2))
    values[:, 0] = trajectory.ts
    if m == 0:
        values[:, 1] = quad_p
        return values

    # trailing-window trapezoid via prefix sums over the phi-extended sequence
    ext = np.concatenate([np.full(m, phi_q), quad_q])
    prefix = np.concatenate([[0.0], np.cumsum(ext)])
    k = np.arange(count)
    window_sum = prefix[k + m + 1] - prefix[k]
    integral = trajectory.h * (window_sum - 0.5 * ext[k] - 0.5 * ext[k + m])
    values[:, 1] = quad_p + integral
    return values


def decay_report(trajectory: DelayTrajectory, lk: np.ndarray | None = None) -> DecayReport:
    """Judge one simulated run.

    decayed requires the final state norm under FINAL_NORM_FRACTION of the
    initial norm and, when functional values are supplied, every
    step-to-step increase of V at most LK_STEP_FRACTION of V(0). A diverged
    run never counts as decayed.
    """
    if trajectory.diverged:
        return DecayReport(trajectory.tau, float("inf"), float("inf"), False, True)
    final_norm = float(np.linalg.norm(trajectory.xs[-1]))
    if lk is not None:
        diffs = np.diff(lk[:, 1])
        max_increase = float(diffs.max()) if diffs.size else 0.0
        lk_ok = max_increase <= LK_STEP_FRACTION * float(lk[0, 1])
    else:
        max_increase = 0.0
        lk_ok = True
    norm_phi = float(np.linalg.norm(trajectory.phi))
    decayed = final_norm < FINAL_NORM_FRACTION * norm_phi and lk_ok
    return DecayReport(trajectory.tau, final_norm, max_increase, decayed, False)


def decay_check(
    pair: MatrixPair,
    cert: RiccatiCertificate | None,
    tau_list,
    horizon: float,
    h: float,
) -> list[DecayReport]:
    """Simulate across delays and check decay of the state and, when a
    certificate is given, of the functional it defines.

    Without a certificate only the norm criterion applies. The initial
    function is the all-ones vector. Failures are reported, never raised;
    an invalid certificate is rejected up front.
    """
    if cert is not None:
        ok, _ = verify_certificate(pair, cert.p, cert.q, 0.0)
        if not ok:
            raise ContractError("certificate does not verify for this pair")
    phi = np.ones(pair.n)
    reports = []
    for tau in tau_list:
        tau = float(tau)
        run_horizon = max(float(horizon), tau)
        traj = simulate(pair, tau, phi, run_horizon, h)
        lk = lk_functional(traj, cert) if cert is not None and not traj.diverged else None
        reports.append(decay_report(traj, lk))
    return reports


def export_csv(trajectory: DelayTrajectory, path, lk: np.ndarray | None = None) -> None:
    """Write the trajectory as CSV with columns t, x_1..x_n and V when given.

    lk must be the array returned by lk_functional for this trajectory.
    """
    if lk is not None and lk.shape[0] != trajectory.xs.shape[0]:
        raise ContractError("functional values do not match the trajectory grid")
    header = ["t"] + [f"x_{i + 1}" for i in range(trajectory.n)]
    if lk is not None:
        header.append("V")
    lines = [",".join(header)]
    for k in range(trajectory.xs.shape[0]):
        row = [f"{trajectory.ts[k]:.17g}"] + [f"{v:.17g}" for v in trajectory.xs[k]]
        if lk is not None:
            row.append(f"{lk[k, 1]:.17g}")
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
