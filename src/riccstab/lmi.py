"""Barrier path-following for the diagonal Riccati LMI.

The Schur block F(w) = [[A'P + PA + Q, PB], [B'P, -Q]] is linear in
w = (p, q), so the best diagonal certificate solves the LMI problem

    minimize t  subject to  tI - F(w) > 0,  w > 0,  sum(w) = 2n.

minimize follows its central path: Newton centering on
kappa t - log det(tI - F(w)) - sum(log w), the equality constraint solved
in the same KKT system, then kappa grows by KAPPA_GROWTH. Gradient and
Hessian come in O(n^3) from the blocks of X = (tI - F)^-1. After a
centering the optimum lies within DEGREE_PER_N * n / kappa below t
(Boyd, El Ghaoui, Feron & Balakrishnan, Linear Matrix Inequalities in
System and Control Theory, SIAM 1994; Vandenberghe & Boyd, Semidefinite
programming, SIAM Review 38, 1996). Deterministic: no random starts. The
result keeps the last X, which riccati offers as a refutation witness.

The path starts at w = 1, t = lambda_max(F(1)) + 1 and
kappa = KAPPA_GROWTH tr X. kappa = tr X would make the t-gradient of the
barrier vanish at that point, but the centering at that kappa seldom
certifies before it has converged, so the path starts one growth step
later. The initial kappa is a free choice (Boyd & Vandenberghe, Convex
Optimization, 2004, sec. 11.3.1); the stopping and give-up rules do not
depend on it.

For small n the cost is the number of numpy calls, so each one is made
once: a line-search trial builds F(w) once and factors tI - F once, the
accepted trial's F gives lambda_max and its barrier value is carried to
the next step, and diagonals are added to in place.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

KAPPA_GROWTH = 8.0
ARMIJO = 0.25
CENTERED = 1e-9  # half the squared Newton decrement that ends a centering
MIN_GAP = 1e-13
DEGREE_PER_N = 4  # barrier degree: 2n from log det, 2n from the log w terms


class BarrierResult(NamedTuple):
    """Lowest-lambda point seen: p, q > 0 with sum 2n, lam = lambda_max(F(p, q)),
    and the number of Newton steps taken; chol is the Cholesky factor L of
    tI - F at the last iterate (the start when no step was taken), so that
    L^-T L^-1 is its dual iterate X."""

    p: np.ndarray
    q: np.ndarray
    lam: float
    steps: int
    chol: np.ndarray


def _add_to_diagonal(m: np.ndarray, values) -> None:
    """m[i, i] += values[i] in place; m must be C-contiguous."""
    m.reshape(-1)[:: m.shape[1] + 1] += values


def _block(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """F(w) from V = [A B]: S + S' + diag(q, -q) with S = [[PA, PB], [0, 0]]."""
    n = v.shape[0]
    s = np.zeros((2 * n, 2 * n))
    s[:n] = w[:n, None] * v
    f = s + s.T
    _add_to_diagonal(f, np.concatenate([w[n:], -w[n:]]))
    return f


def _chol(f: np.ndarray, t: float) -> np.ndarray | None:
    """Cholesky factor of tI - F, or None when it is not positive definite."""
    g = -f
    _add_to_diagonal(g, t)
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return None


def _inverse(chol: np.ndarray) -> np.ndarray:
    """X = (L L')^-1 = L^-T L^-1 from the Cholesky factor L, exactly symmetric."""
    linv = np.linalg.inv(chol)
    x = linv.T @ linv
    return 0.5 * (x + x.T)


def _barrier(kappa: float, t: float, w: np.ndarray, chol: np.ndarray) -> float:
    return kappa * t - 2.0 * float(np.log(chol.diagonal()).sum()) - float(np.log(w).sum())


def _newton_system(v: np.ndarray, kappa: float, w: np.ndarray, chol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the barrier in (t, p, q), from the blocks of X."""
    n = v.shape[0]
    x = _inverse(chol)
    x11, x12, x22 = x[:n, :n], x[:n, n:], x[n:, n:]
    vx = v @ x
    l, m = vx[:, :n], vx[:, n:]
    k = vx @ v.T
    y = x @ x
    dx, dy = x.diagonal(), y.diagonal()
    p, q = w[:n], w[n:]
    grad = np.concatenate([[kappa - dx.sum()], 2.0 * l.diagonal() - 1.0 / p, dx[:n] - dx[n:] - 1.0 / q])
    hess = np.empty((2 * n + 1, 2 * n + 1))
    hess[0, 0] = float(np.sum(x * x))
    hess[0, 1 : n + 1] = -2.0 * np.einsum("ij,ji->i", v, y[:, :n])
    hess[0, n + 1 :] = dy[n:] - dy[:n]
    hess[1:, 0] = hess[0, 1:]
    hess[1 : n + 1, 1 : n + 1] = 2.0 * (l * l.T + k * x11)
    hess[1 : n + 1, n + 1 :] = 2.0 * (l * x11 - m * x12)
    hess[n + 1 :, 1 : n + 1] = hess[1 : n + 1, n + 1 :].T
    hess[n + 1 :, n + 1 :] = x11 * x11 - x12 * x12 - x12.T * x12.T + x22 * x22
    hess.reshape(-1)[2 * n + 2 :: 2 * n + 2] += np.concatenate([1.0 / p**2, 1.0 / q**2])  # the log w terms
    return grad, hess


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Newton direction in (t, w) that keeps sum(w) fixed (one KKT solve)."""
    dim = grad.size
    kkt = np.zeros((dim + 1, dim + 1))
    kkt[:dim, :dim] = hess
    kkt[dim, 1:dim] = kkt[1:dim, dim] = 1.0
    return np.linalg.solve(kkt, np.concatenate([-grad, [0.0]]))[:dim]


def _line_search(
    v: np.ndarray, kappa: float, t: float, w: np.ndarray, phi: float, dz: np.ndarray, slope: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, float] | None:
    """Backtracking from the full Newton step, from a point with barrier value
    phi, to the first point where tI - F is positive definite, w > 0 and the
    Armijo condition holds, as (t, w, chol, F, barrier value); None once the
    promised decrease is below the rounding of phi, where Armijo would accept
    a step that moves nothing. Each trial with w > 0 builds F once."""
    step = 1.0
    while phi + ARMIJO * step * slope < phi:
        t_new, w_new = t + step * dz[0], w + step * dz[1:]
        if (w_new > 0.0).all():
            f = _block(v, w_new)
            chol = _chol(f, t_new)
            if chol is not None:
                phi_new = _barrier(kappa, t_new, w_new, chol)
                if phi_new <= phi + ARMIJO * step * slope:
                    return t_new, w_new, chol, f, phi_new
        step *= 0.5
    return None


def _lmax(f: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(f)[-1])


def minimize(a, b, stop: float, tol: float, max_iter: int) -> BarrierResult:
    """Minimize lambda_max(F(w)) over w > 0, sum(w) = 2n, for the pair (a, b).

    Returns at once when w = 1 reaches stop, and as soon as any accepted
    Newton step does; otherwise the path starts there, at
    t = lambda_max + 1 and kappa = KAPPA_GROWTH tr (tI - F)^-1. Gives up
    after a centering when the optimum cannot reach -tol
    (t - gap > -tol) or the gap DEGREE_PER_N * n / kappa is below MIN_GAP;
    max_iter caps the total number of Newton steps.
    """
    v = np.hstack([np.asarray(a, dtype=float), np.asarray(b, dtype=float)])
    n = v.shape[0]
    w = np.ones(2 * n)
    f = _block(v, w)
    lam = _lmax(f)
    t = lam + 1.0
    chol = _chol(f, t)
    best = BarrierResult(w[:n], w[n:], lam, 0, chol)
    if lam <= stop:
        return best
    linv = np.linalg.inv(chol)
    kappa = KAPPA_GROWTH * float(np.sum(linv * linv))  # one growth step past tr (tI - F)^-1
    steps = 0
    while steps < max_iter:
        phi = _barrier(kappa, t, w, chol)  # depends on kappa; the line search carries it within a centering
        while steps < max_iter:
            grad, hess = _newton_system(v, kappa, w, chol)
            dz = _newton_step(grad, hess)
            slope = float(grad @ dz)
            if -0.5 * slope < CENTERED:
                break
            accepted = _line_search(v, kappa, t, w, phi, dz, slope)
            if accepted is None:
                break  # no progress at working precision: the centering is as good as it gets
            t, w, chol, f, phi = accepted
            steps += 1
            lam = _lmax(f)
            if lam < best.lam:
                best = BarrierResult(w[:n], w[n:], lam, steps, chol)
            if lam <= stop:
                return best
        gap = DEGREE_PER_N * n / kappa
        if t - gap > -tol or gap < MIN_GAP:
            break
        kappa *= KAPPA_GROWTH
    return best._replace(steps=steps, chol=chol)
