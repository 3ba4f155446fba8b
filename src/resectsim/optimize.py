"""Damped least-squares solver with analytic Jacobians.

Levenberg-Marquardt: steps are accepted only when they reduce the sum of
squared residuals, so the recorded cost history is non-increasing by
construction. Updates are additive unless the caller supplies a ``retract``
that maps a tangent step onto its parameter manifold (for rotations, see
Sola et al., "A micro Lie theory for state estimation in robotics", 2018).
Tolerances follow the calibration contract (gradient and step tolerance
1e-12, at most 200 iterations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LeastSquaresResult:
    x: np.ndarray
    cost: float
    cost_history: list[float]
    iterations: int
    converged: bool
    jacobian: np.ndarray
    stop: str  # "gradient" | "step" | "no_descent" | "max_iter"


def levenberg_marquardt(residual, jacobian, x0, max_iter: int = 200,
                        lam0: float = 1e-3,
                        retract=np.add) -> LeastSquaresResult:
    """Minimize sum(residual(x)**2) starting from x0.

    ``residual`` maps (p,) -> (m,), ``jacobian`` maps (p,) -> (m, k) over k
    step directions, and ``retract(x, step)`` applies a (k,) step to x
    (default ``x + step``, where k = p).
    Returns the best point found even when tolerances were not reached;
    callers decide whether non-convergence is an error. ``stop`` names the
    exit: gradient or step tolerance met, no descent step at maximum damping
    (still reported as converged), or the iteration limit.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    cost = float(r @ r)
    history = [cost]
    lam = lam0
    stop = "max_iter"
    j = jacobian(x)
    iterations = 0

    for iterations in range(1, max_iter + 1):
        g = 2.0 * j.T @ r
        if np.max(np.abs(g)) <= 1e-12:
            stop = "gradient"
            break
        jtj = j.T @ j
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.eye(j.shape[1]),
                                       -(j.T @ r))
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_trial = retract(x, step)
            r_trial = residual(x_trial)
            cost_trial = float(r_trial @ r_trial)
            if cost_trial < cost:
                x, r, cost = x_trial, r_trial, cost_trial
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                history.append(cost)
                break
            lam *= 10.0
        if not accepted:
            stop = "no_descent"
            break
        j = jacobian(x)
        if np.linalg.norm(step) <= 1e-12 * (1.0 + np.linalg.norm(x)):
            stop = "step"
            break

    return LeastSquaresResult(x, cost, history, iterations,
                              stop != "max_iter", j, stop)
