"""Delay differential equation integrator and energy-decay validation.

Simulates dx/dt = A x(t) + B x(t - tau) from a constant initial function by
classical RK4 on a grid the delay falls on exactly, each step applied as one
affine map of the current and the delayed state, and monitors the
quadratic functional V(t) = x'Px + integral of x'Qx over the trailing delay
window when a certificate is supplied. The functional is the one whose decay
the certificate inequality guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .matcore import as_vector
from .riccati import MatrixPair, RiccatiCertificate, verify_certificate

DIVERGENCE_NORM = 1e100
FINAL_NORM_FRACTION = 1e-3
LK_STEP_FRACTION = 1e-6
GRID_SNAP_RTOL = 1e-9


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
    m = math.ceil(ratio - GRID_SNAP_RTOL)
    return tau / m, m


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

    The step is adjusted downward so the delay is a whole number of steps,
    the delayed term is read off the stored grid once per step and held
    constant across the four RK4 stages. tau = 0 runs the same stepper on
    the undelayed system with matrix A + B and a zero delayed term, so it
    reduces exactly to RK4 on that system.
    """
    if h <= 0.0:
        raise ContractError("step must be positive")
    if tau < 0.0:
        raise ContractError("delay must be nonnegative")
    if horizon < tau:
        raise ContractError("horizon must be at least the delay")
    x0 = as_vector(phi, pair.n).copy()

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
    diverged = False
    for k in range(steps):
        j = k - delay
        x = m @ x + n @ (x0 if j < 0 else xs[j])
        if not np.all(np.isfinite(x)) or float(np.linalg.norm(x)) > DIVERGENCE_NORM:
            diverged = True
            xs = xs[: k + 1]
            break
        xs[k + 1] = x
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
