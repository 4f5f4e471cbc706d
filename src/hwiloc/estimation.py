"""Projection-based position estimation for both receiver models.

Maximizing the likelihood over the complex path gain in closed form leaves a
projection objective over position alone:

    L(p) = ||y||^2 - |eta(p)^H y|^2 / ||eta(p)||^2

where eta(p) is the gain-free mean of a :class:`ProjectionModel` at
position p. Each estimator takes the model it fits: the matched
``mle_m1(y, impaired)`` knows the impairment realization, the mismatched
``mmle_m2(y, clean)`` fits the clean chain to whatever y holds. Both
minimize L(p) the same way: a coarse polar grid, then a damped Newton fit
in (aoa, range) on the exact gradient and Hessian of the captured energy,
the variable-projection form of separable least squares (Golub & Pereyra,
Inverse Problems 19, 2003).

Both stages work on the pulled observation u_g = M_g^H y_g (the unitary
phase-noise/CFO sandwich moved onto the data once per estimate) and use
the model's factorization eta_{g,k} = b_g(aoa) d_k(delay) x~_{g,k}, which
makes the objective separable in angle and range: one pilot block is
scanned over the whole grid with three matrix products
(:meth:`ProjectionModel.objective_grid`), and every derivative the Newton
fit needs comes from two (:meth:`ProjectionModel.captured_energy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SPEED_OF_LIGHT, ChannelParams
from .observation import ProjectionModel

# scanned ranges, metres
RANGE_MIN_M = 0.5
RANGE_MAX_M = 30.0
# Newton fit settings
INITIAL_STEP_M = 0.1  # steepest-descent step where the Hessian is not definite
GRAD_TOLERANCE = 1e-9  # on the Cartesian gradient of the normalized objective
DECREMENT_TOLERANCE = 1e-14  # Newton decrement g^T H^-1 g / 2, normalized objective
SUFFICIENT_DECREASE = 1e-4  # Armijo slope
MAX_BACKTRACKS = 40  # step halvings before the line search counts as stalled
# stop reasons of refine that count as converged
CONVERGED_STOPS = ("gradient", "decrement")


class NumericError(RuntimeError):
    """Raised when a numeric procedure cannot produce a usable result."""


@dataclass
class EstimatorConfig:
    """Grid size and iteration cap of the projection estimators."""

    n_grid_angles: int = 181  # angles strictly inside (-pi/2, pi/2)
    n_grid_ranges: int = 60
    max_iterations: int = 200

    def grid_angles(self) -> np.ndarray:
        return np.linspace(-np.pi / 2, np.pi / 2, self.n_grid_angles + 2)[1:-1]

    def grid_ranges(self) -> np.ndarray:
        return np.linspace(RANGE_MIN_M, RANGE_MAX_M, self.n_grid_ranges)


@dataclass
class Estimate:
    """Result of one grid + Newton fit run."""

    params: ChannelParams
    position: np.ndarray  # (2,) refined position
    objective: float  # projection objective at the optimum (unnormalized)
    stop: str  # gradient | decrement | stalled | max_iter
    n_iterations: int
    grid_point: np.ndarray  # (2,) coarse grid argmin the fit started from

    @property
    def converged(self) -> bool:
        return self.stop in CONVERGED_STOPS


def projection_objective(y: np.ndarray, eta: np.ndarray) -> float:
    """||y||^2 minus the energy of y captured by the eta direction."""
    y = np.asarray(y).ravel()
    eta = np.asarray(eta).ravel()
    ee = np.vdot(eta, eta).real
    if ee <= 0.0:
        raise ValueError("eta must be non-zero")
    return float(np.vdot(y, y).real - np.abs(np.vdot(eta, y)) ** 2 / ee)


def plug_in_gain(y: np.ndarray, eta: np.ndarray) -> complex:
    """Closed-form gain estimate eta^H y / ||eta||^2 given a position."""
    y = np.asarray(y).ravel()
    eta = np.asarray(eta).ravel()
    ee = np.vdot(eta, eta).real
    if ee <= 0.0:
        raise ValueError("eta must be non-zero")
    return complex(np.vdot(eta, y) / ee)


def scan_limit_m(subcarrier_spacing_hz: float) -> float:
    """Open upper end of the estimators' range window: RANGE_MAX_M, or one
    delay-ambiguity period c/df above RANGE_MIN_M where that is nearer.

    Beyond the period the subcarrier phasors repeat exactly, so farther
    duplicate basins would shadow the true one during the scan.
    """
    return min(RANGE_MAX_M, RANGE_MIN_M + SPEED_OF_LIGHT / subcarrier_spacing_hz)


def scan_ranges(model: ProjectionModel, est: EstimatorConfig) -> np.ndarray:
    """Grid ranges below :func:`scan_limit_m` (at least the first one)."""
    ranges = est.grid_ranges()
    kept = ranges[ranges < scan_limit_m(model.cfg.subcarrier_spacing_hz)]
    return kept if kept.size else ranges[:1]


def grid_search(
    u: np.ndarray, model: ProjectionModel, est: EstimatorConfig
) -> tuple[np.ndarray, float]:
    """Coarse polar scan of the pulled observation u; returns (position,
    objective) of the grid argmin.

    Ties break deterministically to the lowest angle index, then the lowest
    range index (row-major argmin). Ranges come from :func:`scan_ranges`.
    """
    aoas = est.grid_angles()
    ranges = scan_ranges(model, est)
    obj = model.objective_grid(u, aoas, ranges)
    if not np.any(np.isfinite(obj)):
        raise NumericError("projection objective is non-finite over the whole grid")
    flat = np.argmin(obj)  # first minimum in row-major order
    ia, ir = np.unravel_index(flat, obj.shape)
    p0 = ranges[ir] * np.array([np.cos(aoas[ia]), np.sin(aoas[ia])])
    return p0, float(obj[ia, ir])


def refine(
    u: np.ndarray, model: ProjectionModel, p_start: np.ndarray, est: EstimatorConfig
) -> tuple[np.ndarray, float, str, int]:
    """Damped Newton fit of the projection objective of the pulled
    observation u in (aoa, range).

    The objective is normalized by ||y||^2 so the tolerances are scale-free;
    its exact gradient and Hessian come from
    :meth:`ProjectionModel.captured_energy`. Where the Hessian is positive
    definite the step is the Newton step, elsewhere a steepest-descent step
    of INITIAL_STEP_M metres; either is halved until the Armijo condition
    holds at a positive range. The fit stops with one of these reasons:

    * ``gradient``: the Cartesian gradient is below GRAD_TOLERANCE;
    * ``decrement``: the Newton decrement is below DECREMENT_TOLERANCE,
      a decrease too small to test, so the last full step is taken as is;
    * ``stalled``: no step passed the line search in MAX_BACKTRACKS halvings;
    * ``max_iter``: est.max_iterations iterations ran out.

    Only the first two count as converged. Except for the final full Newton
    step, the objective sequence is non-increasing.

    Returns (position, unnormalized objective, stop reason, iterations).
    """
    yy = float(np.vdot(u, u).real)
    if not np.isfinite(yy) or yy <= 0.0:
        raise NumericError("observation energy must be positive and finite")
    w = np.conj(model.eff_pilots) * u

    def at(aoa: float, rng: float):
        e, (e_a, e_r), (e_aa, e_ar, e_rr) = model.captured_energy(w, aoa, rng)
        return 1.0 - e / yy, (-e_a / yy, -e_r / yy), (-e_aa / yy, -e_ar / yy, -e_rr / yy)

    aoa = float(np.arctan2(p_start[1], p_start[0]))
    rng = float(np.hypot(p_start[0], p_start[1]))
    f, grad, hess = at(aoa, rng)
    if not np.isfinite(f):
        raise NumericError("objective is non-finite at the starting point")

    stop = "max_iter"
    iters = 0
    for iters in range(1, est.max_iterations + 1):
        g_a, g_r = grad
        gnorm = math.hypot(g_a / rng, g_r)  # the Cartesian gradient, rotated to polar
        if not math.isfinite(gnorm):
            raise NumericError("gradient is non-finite during refinement")
        if gnorm < GRAD_TOLERANCE:
            stop = "gradient"
            break
        h_aa, h_ar, h_rr = hess
        det = h_aa * h_rr - h_ar * h_ar
        if h_aa > 0.0 and det > 0.0:
            d_a = (h_ar * g_r - h_rr * g_a) / det
            d_r = (h_ar * g_a - h_aa * g_r) / det
            if -0.5 * (g_a * d_a + g_r * d_r) <= DECREMENT_TOLERANCE and rng + d_r > 0.0:
                cand = at(aoa + d_a, rng + d_r)
                if np.isfinite(cand[0]):
                    aoa, rng, f = aoa + d_a, rng + d_r, cand[0]
                stop = "decrement"
                break
        else:
            # a Cartesian step of INITIAL_STEP_M against the gradient
            d_a = -INITIAL_STEP_M * g_a / (rng * rng * gnorm)
            d_r = -INITIAL_STEP_M * g_r / gnorm
        slope = g_a * d_a + g_r * d_r
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            c_a, c_r = aoa + t * d_a, rng + t * d_r
            if c_r > 0.0:
                cand = at(c_a, c_r)
                if cand[0] <= f + SUFFICIENT_DECREASE * t * slope:
                    break
            t *= 0.5
        else:
            stop = "stalled"
            break
        aoa, rng = c_a, c_r
        f, grad, hess = cand
    position = rng * np.array([math.cos(aoa), math.sin(aoa)])
    return position, f * yy, stop, iters


def fitted_params(y: np.ndarray, model: ProjectionModel, position: np.ndarray) -> ChannelParams:
    """Channel parameters of a fitted position: its (aoa, delay) and the
    plug-in gain of y against the model's mean there."""
    aoa = float(np.arctan2(position[1], position[0]))
    delay = float(np.hypot(position[0], position[1])) / SPEED_OF_LIGHT
    alpha = plug_in_gain(y, model.eta(aoa, delay))
    return ChannelParams(
        aoa=aoa, delay=delay, gain_amp=abs(alpha), gain_phase=float(-np.angle(alpha))
    )


def _finish(y: np.ndarray, model: ProjectionModel, est: EstimatorConfig) -> Estimate:
    y = np.asarray(y, dtype=complex)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains non-finite samples")
    u = model.pulled_observation(y)
    p0, _ = grid_search(u, model, est)
    p_hat, obj, stop, iters = refine(u, model, p0, est)
    return Estimate(
        params=fitted_params(y, model, p_hat),
        position=p_hat,
        objective=obj,
        stop=stop,
        n_iterations=iters,
        grid_point=p0,
    )


def mmle_m2(
    y: np.ndarray, clean: ProjectionModel, est: EstimatorConfig | None = None
) -> Estimate:
    """Mismatched estimator: fits the clean model to whatever y contains."""
    return _finish(y, clean, est or EstimatorConfig())


def mle_m1(
    y: np.ndarray, impaired: ProjectionModel, est: EstimatorConfig | None = None
) -> Estimate:
    """Matched estimator: fits the impaired model of the realization that
    made y."""
    return _finish(y, impaired, est or EstimatorConfig())
