"""Projection-based position estimation for both receiver models.

Maximizing the likelihood over the complex path gain in closed form leaves a
projection objective over position alone:

    L(p) = ||y||^2 - |eta(p)^H y|^2 / ||eta(p)||^2

where eta(p) is the gain-free mean of a :class:`ProjectionModel` at
position p. The matched estimator fits the impaired model (it knows the
realization), the mismatched estimator the clean one. Both minimize L(p)
the same way: a coarse polar grid, then gradient descent on p with
central-difference gradients and Armijo backtracking.

The grid stage uses the model's factorization eta_{g,k} = b_g(aoa)
d_k(delay) x~_{g,k} (after pulling the unitary phase-noise/CFO sandwich
onto the observation), which makes the objective separable in angle and
range and lets one pilot block be scanned over the whole grid with three
matrix products (:meth:`ProjectionModel.objective_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .impairments import ImpairmentConfig, ImpairmentRealization
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
)
from .observation import ProjectionModel

# scanned ranges, metres
RANGE_MIN_M = 0.5
RANGE_MAX_M = 30.0
# descent settings
FD_STEP = 1e-6  # relative central-difference step
ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
INITIAL_STEP_M = 0.1
GRAD_TOLERANCE = 1e-9  # on the gradient of the normalized objective
STEP_FLOOR_M = 1e-12  # line-search stall threshold


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
    """Result of one grid + descent run."""

    params: ChannelParams
    position: np.ndarray  # (2,) refined position
    objective: float  # projection objective at the optimum (unnormalized)
    converged: bool
    n_iterations: int
    grid_point: np.ndarray  # (2,) coarse grid argmin the descent started from


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


def scan_ranges(model: ProjectionModel, est: EstimatorConfig) -> np.ndarray:
    """Grid ranges clipped to one delay-ambiguity period c/df above range_min.

    Beyond that window the subcarrier phasors repeat exactly, so farther
    duplicate basins would shadow the true one during the scan.
    """
    ranges = est.grid_ranges()
    span = SPEED_OF_LIGHT / model.cfg.subcarrier_spacing_hz
    kept = ranges[ranges < RANGE_MIN_M + span]
    return kept if kept.size else ranges[:1]


def grid_search(
    y: np.ndarray, model: ProjectionModel, est: EstimatorConfig
) -> tuple[np.ndarray, float]:
    """Coarse polar scan; returns (position, objective) of the grid argmin.

    Ties break deterministically to the lowest angle index, then the lowest
    range index (row-major argmin). Ranges come from :func:`scan_ranges`.
    """
    u = model.pulled_observation(y)
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
    y: np.ndarray, model: ProjectionModel, p_start: np.ndarray, est: EstimatorConfig
) -> tuple[np.ndarray, float, bool, int]:
    """Gradient descent on position with Armijo backtracking.

    The objective is normalized by ||y||^2 so the gradient tolerance is
    scale-free. Gradients come from central differences with relative step
    FD_STEP. Stops when the gradient norm drops below tolerance, when
    the line search stalls below the step floor (the numerical minimum), or
    after max_iterations. The objective sequence is non-increasing.

    Returns (position, unnormalized objective, converged flag, iterations).
    """
    u = model.pulled_observation(y)
    yy = float(np.vdot(u, u).real)
    if not np.isfinite(yy) or yy <= 0.0:
        raise NumericError("observation energy must be positive and finite")

    def f(p: np.ndarray) -> float:
        return model.objective_at(u, p) / yy

    p = np.asarray(p_start, dtype=float).copy()
    fp = f(p)
    if not np.isfinite(fp):
        raise NumericError("objective is non-finite at the starting point")

    step = INITIAL_STEP_M
    converged = False
    iters = 0
    for iters in range(1, est.max_iterations + 1):
        grad = np.empty(2)
        for i in range(2):
            h = FD_STEP * max(abs(p[i]), 1.0)
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            grad[i] = (f(pp) - f(pm)) / (2.0 * h)
        gnorm = float(np.linalg.norm(grad))
        if not np.isfinite(gnorm):
            raise NumericError("gradient is non-finite during refinement")
        if gnorm < GRAD_TOLERANCE:
            converged = True
            break
        direction = -grad / gnorm
        s = min(INITIAL_STEP_M, 2.0 * step)
        accepted = False
        while s >= STEP_FLOOR_M:
            cand = p + s * direction
            fc = f(cand)
            if np.isfinite(fc) and fc <= fp - ARMIJO_SLOPE * s * gnorm:
                p, fp = cand, fc
                step = s
                accepted = True
                break
            s *= ARMIJO_SHRINK
        if not accepted:
            # no decrease at any resolvable step: numerical minimum reached
            converged = True
            break
    return p, fp * yy, converged, iters


def _finish(
    y: np.ndarray, model: ProjectionModel, est: EstimatorConfig
) -> Estimate:
    y = np.asarray(y, dtype=complex)
    if not np.all(np.isfinite(y)):
        raise ValueError("observation contains non-finite samples")
    p0, _ = grid_search(y, model, est)
    p_hat, obj, converged, iters = refine(y, model, p0, est)
    rng_m = float(np.hypot(p_hat[0], p_hat[1]))
    aoa = float(np.arctan2(p_hat[1], p_hat[0]))
    delay = rng_m / SPEED_OF_LIGHT
    alpha = plug_in_gain(y, model.eta(aoa, delay))
    params = ChannelParams(
        aoa=aoa,
        delay=delay,
        gain_amp=abs(alpha),
        gain_phase=float(-np.angle(alpha)),
    )
    return Estimate(
        params=params,
        position=p_hat,
        objective=obj,
        converged=converged,
        n_iterations=iters,
        grid_point=p0,
    )


def mmle_m2(
    y: np.ndarray,
    cfg: SystemConfig,
    block: PilotBlock,
    est: EstimatorConfig | None = None,
    coupling: tuple = (),
) -> Estimate:
    """Mismatched estimator: fits the clean chain to whatever y contains."""
    return _finish(y, ProjectionModel.clean(cfg, block, coupling), est or EstimatorConfig())


def mle_m1(
    y: np.ndarray,
    cfg: SystemConfig,
    block: PilotBlock,
    imp: ImpairmentConfig,
    real: ImpairmentRealization,
    est: EstimatorConfig | None = None,
) -> Estimate:
    """Matched estimator: knows the impairment realization it fits."""
    return _finish(
        y, ProjectionModel.impaired(cfg, block, imp, real), est or EstimatorConfig()
    )
