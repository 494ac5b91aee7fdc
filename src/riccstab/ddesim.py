"""Delay differential equation integrator and energy-decay validation.

Simulates dx/dt = A x(t) + B x(t - tau) from a constant initial function by
classical RK4 on a grid the delay falls on exactly. Each step is one affine
map of the current and the delayed state; since the delayed states of the
next d + 1 steps are already on the grid, each block of d + 1 steps is
computed at once by a doubling prefix scan. A block is then a linear map G
of the block before it; while that lifted state is small, the whole run is
the powers of G applied by doubling, and otherwise it goes block by block.
It also monitors the quadratic functional V(t) = x'Px + integral of x'Qx
over the trailing delay window when a certificate is supplied. The
functional is the one whose decay the certificate inequality guarantees.
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
SCAN_LEVELS = 12  # a scan holds at most 2**SCAN_LEVELS steps and a doubling as many blocks, so scratch and powers stay small
_LIFT_MAX_VALUES = 96  # largest lifted state n * (d + 1) of a delayed run filled by doubling (see simulate)


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


def _doubling_powers(base: np.ndarray, count: int) -> list[np.ndarray]:
    """base^1, base^2, base^4, ... for a doubling over count rows: 2**len
    reaches count, or SCAN_LEVELS powers are kept; the list ends before the
    first power that is not finite."""
    powers = []
    power = base
    while 2 ** len(powers) < count and len(powers) < SCAN_LEVELS and np.all(np.isfinite(power)):
        powers.append(power)
        power = power @ power
    return powers


def _scan(z: np.ndarray, powers: list[np.ndarray]) -> None:
    """In-place doubling prefix scan along the second-to-last axis:
    z[j] += z[j-o] (M')^o for o = 1, 2, 4, ..., which leaves z[j] as the
    sum over i <= j of z[i] (M')^(j-i)."""
    size = z.shape[-2]
    for level, power in enumerate(powers):
        o = 2**level
        if o >= size:
            break
        z[..., o:, :] += z[..., :-o, :] @ power


def _block_map(m: np.ndarray, n: np.ndarray, powers: list[np.ndarray], b: int) -> np.ndarray:
    """The nb x nb matrix G with (x[k+1], ..., x[k+b]) = (x[k-d], ..., x[k]) G,
    blocks flattened row by row: the in-block scan run on all nb basis
    vectors at once."""
    nb = b * m.shape[0]
    basis = np.eye(nb).reshape(nb, b, m.shape[0])
    z = basis @ n.T
    z[:, 0] += basis[:, -1] @ m.T
    _scan(z, powers)
    return z.reshape(nb, nb)


def _run_lifted(grid: np.ndarray, powers: list[np.ndarray], b: int, rows: int) -> int:
    """Fill the grid, viewed as blocks of b rows, with Y[j] = Y[0] G^j from
    the powers G^(2^l); returns the first row that is not kept, or rows.

    Each chunk of at most 2**len(powers) blocks starts from the last block of
    the one before and fills blocks [2^l, 2^(l+1)) of itself from blocks
    [0, 2^l) by one product with G^(2^l), written straight into the grid.
    """
    ys = grid.reshape(grid.shape[0] // b, -1)
    span = 2 ** len(powers)
    for start in range(0, ys.shape[0] - 1, span - 1):
        end = min(start + span, ys.shape[0])
        for level, power in enumerate(powers):
            o = 2**level
            if start + o >= end:
                break
            np.matmul(ys[start : min(start + o, end - o)], power, out=ys[start + o : min(start + 2 * o, end)])
        first = (start + 1) * b
        # a row that is not finite has norm inf or nan, which fails <=
        kept = np.linalg.norm(grid[first : min(end * b, rows)], axis=1) <= DIVERGENCE_NORM
        if not kept.all():
            return first + int(np.argmin(kept))
    return rows


def _run_blocks(grid: np.ndarray, m: np.ndarray, n: np.ndarray, powers: list[np.ndarray], delay: int, rows: int) -> int:
    """Fill the grid one block of at most d + 1 steps at a time, each by the
    in-block scan; returns the first row that is not kept, or rows."""
    xs = grid[delay:rows]
    steps = rows - delay - 1
    block = min(delay + 1, 2 ** len(powers))
    for k in range(0, steps, block):
        size = min(block, steps - k)
        z = grid[k : k + size] @ n.T
        z[0] += m @ xs[k]
        _scan(z, powers)
        kept = np.linalg.norm(z, axis=1) <= DIVERGENCE_NORM
        if not kept.all():
            first = int(np.argmin(kept))
            xs[k + 1 : k + 1 + first] = z[:first]
            return delay + k + 1 + first
        xs[k + 1 : k + 1 + size] = z
    return rows


def simulate(pair: MatrixPair, tau: float, phi, horizon: float, h: float) -> DelayTrajectory:
    """Integrate the delay system from a constant initial function.

    The step is adjusted downward so the delay is a whole number d of steps,
    the delayed term is read off the stored grid once per step and held
    constant across the four RK4 stages. tau = 0 runs the same stepper on
    the undelayed system with matrix A + B and a zero delayed term, so it
    reduces exactly to RK4 on that system.

    Each step is the affine map x[k+1] = M x[k] + N x[k-d], and the next
    b = d + 1 states read only delayed states already on the grid, so they
    are computed together: with z[j] = N x[k+j-d] (plus M x[k] in z[0]), the
    prefix scan z[j] += M^o z[j-o] for o = 1, 2, 4, ... turns z[j] into
    x[k+1+j] in about log2(b) array operations. A block of b states thus
    depends linearly on the block before it alone: Y[j+1] = Y[j] G for one
    nb x nb matrix G, which the same scan builds from the nb basis vectors
    at once. While the lifted state of a delayed run holds at most
    _LIFT_MAX_VALUES = 96 values, the whole run is Y[j] = Y[0] G^j, filled
    by doubling in about log2(steps / b) products; tau = 0 is b = 1 with
    G = M and always runs this way. Larger lifted states go block by block:
    forming G and its powers costs O((nb)^3) per power there, while a block
    of d + 1 steps already carries its call overhead. No product of the
    doubling costs more than squaring G at the cap (96^3 multiply-adds):
    OpenBLAS runs products under about 2^20 on the calling thread, and
    larger ones, handed to a second thread, took 2-3 times as long in bursts
    on a 2-core host. A power that is not finite ends the power list, and so
    do SCAN_LEVELS and that product size: a doubling covers at most
    2**SCAN_LEVELS blocks and a scan as many steps. A run whose G is not
    finite goes block by block, where the scan shortens its blocks instead.
    The grid (delay + steps + 1 rows of n values, rounded up to whole
    blocks) is capped at MAX_GRID_VALUES.
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
    b = delay + 1
    rows = delay + steps + 1
    grid = np.empty((-(-rows // b) * b, pair.n))
    grid[:b] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        scan_powers = _doubling_powers(m.T, b)
        lifted = []
        if (delay == 0 or pair.n * b <= _LIFT_MAX_VALUES) and 2 ** len(scan_powers) >= b:
            # a product of the doubling has fewer rows than cover, so none
            # costs more than squaring a block map at the cap
            cover = max(2, _LIFT_MAX_VALUES**3 // (pair.n * b) ** 2)
            lifted = _doubling_powers(_block_map(m, n, scan_powers, b), min(grid.shape[0] // b, cover))
        if lifted:
            stop = _run_lifted(grid, lifted, b, rows)
        else:
            stop = _run_blocks(grid, m, n, scan_powers, delay, rows)
    xs = grid[delay:stop]
    ts = step * np.arange(xs.shape[0])
    return DelayTrajectory(ts, xs, tau, step, x0, stop < rows)


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
    horizon,
    h: float,
) -> list[DecayReport]:
    """Simulate across delays and check decay of the state and, when a
    certificate is given, of the functional it defines.

    horizon is one end time for every delay or a sequence of one per delay.
    Each delay is one _decay_run, the run `riccstab simulate` makes too:
    from the all-ones initial function to the larger of its horizon and its
    delay, by the norm criterion alone without a certificate. Failures are
    reported, never raised; an invalid certificate is rejected up front,
    once for all the delays.
    """
    taus = [float(tau) for tau in tau_list]
    horizons = [float(t) for t in horizon] if np.ndim(horizon) else [float(horizon)] * len(taus)
    if len(horizons) != len(taus):
        raise ContractError(f"{len(horizons)} horizons for {len(taus)} delays")
    if cert is not None:
        ok, _ = verify_certificate(pair, cert.p, cert.q, 0.0)
        if not ok:
            raise ContractError("certificate does not verify for this pair")
    return [_decay_run(pair, cert, tau, run_horizon, h)[2] for tau, run_horizon in zip(taus, horizons)]


def _decay_run(
    pair: MatrixPair, cert: RiccatiCertificate | None, tau: float, horizon: float, h: float
) -> tuple[DelayTrajectory, np.ndarray | None, DecayReport]:
    """One delay's run from the all-ones initial function to the larger of
    horizon and tau: the trajectory, its functional values (None without a
    certificate or after divergence, when only the norm criterion applies)
    and its report. cert is used as given, not verified."""
    traj = simulate(pair, tau, np.ones(pair.n), max(horizon, tau), h)
    lk = lk_functional(traj, cert) if cert is not None and not traj.diverged else None
    return traj, lk, decay_report(traj, lk)


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
