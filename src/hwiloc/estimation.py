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
Inverse Problems 19, 2003). Neither takes settings: the grid is
N_GRID_ANGLES by N_GRID_RANGES (:func:`scan_grid`, built once per link)
and a fit runs at most MAX_ITERATIONS Newton iterations.

Both stages work on the pulled observation u_g = M_g^H y_g (the unitary
phase-noise/CFO rotation moved onto the data once per observation, by FFT)
and use the model's factorization eta_{g,k} = b_g(aoa) d_k(delay) x~_{g,k},
which makes the objective separable in angle and range. Both read the
slots of a :class:`FitData`, which keeps of each pulled observation only
what the objective reads, with the row matrix and pilots it is fitted
with, so one FitData can hold observations of different models, such as
both estimators' trials of a sweep point. :func:`grid_search` gives every
slot its start, NaN where the scan failed; :func:`refine` then fits every
slot together on (T,) arrays, each with its own stop rules and one line
search per iteration that starts from the full step. A fit that stops or
fails leaves the active set, so no fit depends on the other slots, and
every failure, of the scan or of the fit, is recorded in one place. The
sweep harness fits a sweep point's trials of both estimators with one
scan and one Newton fit, and ``mmle_m2``/``mle_m1`` are the same path for
one slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    SPEED_OF_LIGHT, ChannelParams, SystemConfig, polar_to_positions, positions_to_polar
)
from .observation import FitData, ProjectionModel, ScanGrid

# scanned ranges, metres
RANGE_MIN_M = 0.5
RANGE_MAX_M = 30.0
# the scan grid: angles strictly inside (-pi/2, pi/2), ranges over [RANGE_MIN_M, RANGE_MAX_M]
N_GRID_ANGLES = 181
N_GRID_RANGES = 60
# Newton fit settings
MAX_ITERATIONS = 200  # Newton iterations before a fit stops as max_iter
INITIAL_STEP_M = 0.1  # steepest-descent step where the Hessian is not definite
GRAD_TOLERANCE = 1e-9  # on the Cartesian gradient of the normalized objective
DECREMENT_TOLERANCE = 1e-14  # Newton decrement g^T H^-1 g / 2, normalized objective
SUFFICIENT_DECREASE = 1e-4  # Armijo slope
MAX_BACKTRACKS = 40  # line-search trials, t = 1, 1/2, ..., before a fit stalls
# stop reasons of refine that count as converged
CONVERGED_STOPS = ("gradient", "decrement")
FAILED = "failed"  # the stop of a fit that failed numerically, its reason in Fits.errors
SCAN_FAILED = "projection objective is non-finite over the whole grid"


class NumericError(RuntimeError):
    """Raised when a numeric procedure cannot produce a usable result."""


class EstimatorConfig(NamedTuple):
    """The iteration cap as perfbench/tracer.py reads it; no estimator takes it."""

    max_iterations: int = MAX_ITERATIONS


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


@dataclass
class Fits:
    """Results of T fits, in the order their observations were added. A
    failed fit has NaN position and objective; the reason it failed is
    in ``errors``."""

    positions: np.ndarray  # (T, 2) refined positions
    objectives: np.ndarray  # (T,) projection objective at the optimum (unnormalized)
    stops: np.ndarray  # (T,) str: gradient | decrement | stalled | max_iter | failed
    n_iterations: np.ndarray  # (T,) int
    starts: np.ndarray  # (T, 2) grid_search's starts, NaN where the scan failed
    errors: list[str | None]

    @staticmethod
    def empty(n: int) -> "Fits":
        return Fits(
            positions=np.full((n, 2), np.nan),
            objectives=np.full(n, np.nan),
            stops=np.full(n, FAILED, dtype="<U9"),
            n_iterations=np.zeros(n, dtype=int),
            starts=np.full((n, 2), np.nan),
            errors=[None] * n,
        )

    @property
    def converged(self) -> np.ndarray:
        return np.isin(self.stops, CONVERGED_STOPS)

    def fail(self, index: np.ndarray, message: str) -> None:
        self.stops[index] = FAILED
        for i in np.atleast_1d(index):
            self.errors[i] = message

    def settle(
        self, index: np.ndarray, pos: np.ndarray, objective: np.ndarray, stop: str | np.ndarray
    ) -> None:
        """Record fits that stopped at polar positions pos = (aoa, range), (2,
        k), for the reason stop, one for all or (k,)."""
        self.positions[index] = polar_to_positions(*pos)
        self.objectives[index] = objective
        self.stops[index] = stop

    def take(self, index: np.ndarray) -> "Fits":
        """The fits at index, an index array."""
        return Fits(
            self.positions[index],
            self.objectives[index],
            self.stops[index],
            self.n_iterations[index],
            self.starts[index],
            [self.errors[i] for i in index],
        )


def scan_limit_m(subcarrier_spacing_hz: float) -> float:
    """Open upper end of the estimators' range window: RANGE_MAX_M, or one
    delay-ambiguity period c/df above RANGE_MIN_M where that is nearer.

    Beyond the period the subcarrier phasors repeat exactly, so farther
    duplicate basins would shadow the true one during the scan.
    """
    return min(RANGE_MAX_M, RANGE_MIN_M + SPEED_OF_LIGHT / subcarrier_spacing_hz)


def scan_grid(cfg: SystemConfig) -> ScanGrid:
    """The estimators' scan grid for a link: N_GRID_ANGLES angles strictly
    inside (-pi/2, pi/2), and of N_GRID_RANGES ranges over [RANGE_MIN_M,
    RANGE_MAX_M] those below :func:`scan_limit_m` (at least the first one).
    Built once per link and shared, so its arrays are read-only."""
    return _link_scan_grid(cfg.n_antennas, cfg.n_subcarriers, cfg.subcarrier_spacing_hz)


@lru_cache(maxsize=16)
def _link_scan_grid(n_antennas: int, n_subcarriers: int, spacing_hz: float) -> ScanGrid:
    aoas = np.linspace(-np.pi / 2, np.pi / 2, N_GRID_ANGLES + 2)[1:-1]
    ranges = np.linspace(RANGE_MIN_M, RANGE_MAX_M, N_GRID_RANGES)
    kept = ranges[ranges < scan_limit_m(spacing_hz)]
    ranges = kept if kept.size else ranges[:1]
    grid = ScanGrid.build(n_antennas, n_subcarriers, spacing_hz, aoas, ranges)
    for array in (grid.aoas, grid.ranges_m, grid.steering, grid.delay_conj):
        array.flags.writeable = False
    return grid


def grid_search(data: FitData, grid: ScanGrid) -> np.ndarray:
    """Coarse polar scan of every fit in data: the positions of their grid
    argmins, (T, 2), the starts of :func:`refine`. A fit whose objective is
    non-finite over the whole grid gets a NaN start, which refine fails
    with SCAN_FAILED.

    Ties break deterministically to the lowest angle index, then the lowest
    range index (row-major argmin).

    Each slot is scanned with the products of
    :meth:`~hwiloc.observation.ScanGrid.objective`, and its captured energy
    |s|^2 / den is bit for bit the one that method subtracts from ||u||^2:
    the subcarrier sums w conj(D), (G, n_r), then one (n_a, G) by (G, n_r)
    product, conj(s) = b^T (conj(w) D). The row gains b = (W C) a on the
    grid angles, and |b|^2, are built again only for a slot whose rows
    differ from the previous slot's, so a run of clean-chain slots shares
    them; den takes the slot's own pilot energies. The start is the argmax
    of the captured energy, which is the argmin of the objective up to ties
    that only rounding ||u||^2 - |s|^2 / den would make; the objective
    itself is not formed.
    """
    n, n_a, n_r = data.yy.size, grid.aoas.size, grid.ranges_m.size
    wd = np.empty((data.w.shape[1], n_r), dtype=complex)  # conj(w conj(D)) of one slot
    s = np.empty((n_a, n_r), dtype=complex)  # conj(s) of one slot
    parts = s.view(float)  # (n_a, 2 n_r): real and imaginary parts interleaved
    captured = np.empty((n_a, n_r))
    best = np.empty(n, dtype=int)
    failed = ~np.isfinite(data.yy)
    for i in range(n):
        if i == 0 or not np.array_equal(data.rows[i], data.rows[i - 1]):
            b = data.rows[i] @ grid.steering  # (G, n_a)
            b2 = np.abs(b) ** 2
        den = data.energies[i] @ b2  # (n_a,)
        inv = np.zeros_like(den)
        np.divide(1.0, den, out=inv, where=den > 0)
        np.matmul(data.w[i], grid.delay_conj, out=wd)
        np.matmul(b.T, np.conjugate(wd, out=wd), out=s)
        np.square(parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=captured)
        captured *= inv[:, None]
        best[i] = flat = captured.argmax()  # the first maximum in row-major order
        if not math.isfinite(captured.flat[flat]):
            failed[i] |= not np.isfinite(captured).any()
    ia, ir = np.divmod(best, n_r)
    starts = polar_to_positions(grid.aoas[ia], grid.ranges_m[ir])
    starts[failed] = np.nan
    return starts


def _normalized(data: FitData, aoa: np.ndarray, rng: np.ndarray) -> np.ndarray:
    """The objective normalized by ||u||^2 with its gradient and Hessian in
    (aoa, range): rows (f, g_a, g_r, h_aa, h_ar, h_rr), (6, T)."""
    out = data.captured_energy(aoa, rng) / -data.yy
    out[0] += 1.0
    return out


def refine(data: FitData, starts: np.ndarray) -> Fits:
    """Damped Newton fits of the projection objectives of T pulled
    observations in (aoa, range), from their starting positions (T, 2).

    Each objective is normalized by ||u||^2 so the tolerances are
    scale-free; its exact gradient and Hessian come from
    :meth:`FitData.captured_energy`. Where the Hessian is positive definite
    the step is the Newton step, elsewhere a steepest-descent step of
    INITIAL_STEP_M metres. One backtracking line search tries the step at t
    = 1, 1/2, 1/4, ... and takes the first that meets the Armijo condition
    at a positive range. A fit stops with one of these reasons:

    * ``gradient``: the Cartesian gradient is below GRAD_TOLERANCE;
    * ``decrement``: the Newton decrement is below DECREMENT_TOLERANCE, a
      decrease too small to test: the full step is taken, untested, if finite;
    * ``stalled``: no step passed the line search in MAX_BACKTRACKS trials;
    * ``max_iter``: MAX_ITERATIONS iterations ran out.

    Only the first two count as converged. Except for the final full Newton
    step, each objective sequence is non-increasing.

    The fits share array operations but not their steps: each follows the
    rules above on its own, and one that stops leaves the active set. A fit
    ends as ``failed``, with the reason in ``errors``, when its start is not
    finite (SCAN_FAILED: the scan found no start), else when its observation
    has no energy, or when its objective or gradient turns non-finite; the
    others go on.
    """
    starts = np.asarray(starts, dtype=float)
    out = Fits.empty(data.yy.size)
    out.starts[:] = starts
    ids = np.arange(data.yy.size)
    scanned = np.isfinite(starts).all(axis=1)
    usable = scanned & np.isfinite(data.yy) & (data.yy > 0.0)
    out.fail(ids[~scanned], SCAN_FAILED)
    out.fail(ids[scanned & ~usable], "observation energy must be positive and finite")
    if not usable.all():
        ids, data = ids[usable], data.take(usable)
    # per active fit: pos = (aoa, range), val = (f, g_a, g_r, h_aa, h_ar, h_rr)
    pos = np.array(positions_to_polar(starts[ids]))
    val = _normalized(data, *pos)
    ok = np.isfinite(val[0])
    if not ok.all():
        out.fail(ids[~ok], "objective is non-finite at the starting point")
        ids, data, pos, val = ids[ok], data.take(ok), pos[:, ok], val[:, ok]

    # each active fit's stop, "" while it runs: a fit that a line search stops
    # is settled and dropped with the next iteration's gradient stops, so the
    # active set is compacted once per iteration, before its line search
    stops = np.full(ids.size, "", dtype=out.stops.dtype)
    for it in range(1, MAX_ITERATIONS + 1):
        running = stops == ""
        gnorm = np.hypot(val[1] / pos[1], val[2])  # the Cartesian gradient, rotated to polar
        broken = running & ~np.isfinite(gnorm)
        stops[running & (gnorm < GRAD_TOLERANCE)] = "gradient"
        out.n_iterations[ids[running]] = it
        keep = (stops == "") & ~broken
        if not keep.all():
            out.fail(ids[broken], "gradient is non-finite during refinement")
            done = ~(keep | broken)
            out.settle(ids[done], pos[:, done], val[0, done] * data.yy[done], stops[done])
            ids, data, pos, val = ids[keep], data.take(keep), pos[:, keep], val[:, keep]
            gnorm, stops = gnorm[keep], stops[keep]
        if not ids.size:
            break
        rng = pos[1]
        f, g_a, g_r, h_aa, h_ar, h_rr = val[0].copy(), *val[1:]
        det = h_aa * h_rr - h_ar * h_ar
        newton = (h_aa > 0.0) & (det > 0.0)
        # each fit reads only the branch its Hessian selects, so the other
        # branch may divide by zero
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = np.where(
                newton,
                np.array([h_ar * g_r - h_rr * g_a, h_ar * g_a - h_aa * g_r]) / det,
                -INITIAL_STEP_M * np.array([g_a, g_r]) / np.array([rng * rng * gnorm, gnorm]),
            )
        slope = g_a * step[0] + g_r * step[1]
        last = newton & (-0.5 * slope <= DECREMENT_TOLERANCE) & (rng + step[1] > 0.0)
        # backtracking line search: every fit still searching tries the same
        # step length t, so one t serves them all; a decrement fit takes the
        # full step where its objective is finite, and leaves
        pending = np.ones(ids.size, dtype=bool)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            j = np.flatnonzero(pending)
            if not j.size:
                break
            cand = pos[:, j] + t * step[:, j]
            c_val = _normalized(data if j.size == ids.size else data.take(j), *cand)
            ok = (cand[1] > 0.0) & (c_val[0] <= f[j] + SUFFICIENT_DECREASE * t * slope[j])
            moved = ok | (last[j] & np.isfinite(c_val[0]))
            pos[:, j[moved]], val[:, j[moved]] = cand[:, moved], c_val[:, moved]
            pending[j[ok | last[j]]] = False
            t *= 0.5
        # settled at val[0], which a stalled fit has not left
        stops[last], stops[pending] = "decrement", "stalled"
    stops[stops == ""] = "max_iter"
    out.settle(ids, pos, val[0] * data.yy, stops)
    return out


def fitted_params(y: np.ndarray, model: ProjectionModel, position: np.ndarray) -> np.ndarray:
    """Channel parameters of fitted positions, (..., 4) rows (aoa, delay,
    gain_amp, gain_phase): the (aoa, delay) of each position, (..., 2), and
    the plug-in gain eta^H y / ||eta||^2 of its observation y against the
    model's mean eta there; one link's position is (2,), a stack of n links'
    positions (n, 2) with observations (n, G, K). Each link's row rounds as
    it would alone."""
    aoa, rng = positions_to_polar(position)
    delay = rng / SPEED_OF_LIGHT
    etas = model.eta(np.reshape(aoa, model.shape), np.reshape(delay, model.shape))
    etas = etas.reshape(-1, 1, etas.shape[-2] * etas.shape[-1])  # (n, 1, G K)
    conj = np.conjugate(etas)
    # one (1, G K) by (G K, 1) product per link, the dot product of np.vdot
    ee = (conj @ etas.swapaxes(-1, -2)).real[:, 0, 0]
    if np.any(ee <= 0.0):
        raise ValueError("eta must be non-zero")
    gains = ((conj @ np.reshape(y, etas.shape).swapaxes(-1, -2))[:, 0, 0] / ee).reshape(aoa.shape)
    return np.stack([aoa, delay, np.hypot(gains.real, gains.imag), -np.angle(gains)], axis=-1)


def _estimate(y: np.ndarray, model: ProjectionModel) -> Estimate:
    """One observation's fit: one slot scanned and refined."""
    u = model.pulled_observation(y)
    if not np.all(np.isfinite(u)):
        raise ValueError("observation contains non-finite samples")
    data = FitData.empty(model.cfg, 1)
    data.put(0, model.row_matrix, model.eff_pilots, u[None])
    fit = refine(data, grid_search(data, scan_grid(model.cfg)))
    if fit.errors[0] is not None:
        raise NumericError(fit.errors[0])
    position = fit.positions[0]
    return Estimate(
        params=ChannelParams.from_array(fitted_params(y, model, position)),
        position=position,
        objective=float(fit.objectives[0]),
        stop=str(fit.stops[0]),
        n_iterations=int(fit.n_iterations[0]),
        grid_point=fit.starts[0],
    )


def mmle_m2(y: np.ndarray, clean: ProjectionModel) -> Estimate:
    """Mismatched estimator: fits the clean model to whatever y contains."""
    return _estimate(y, clean)


def mle_m1(y: np.ndarray, impaired: ProjectionModel) -> Estimate:
    """Matched estimator: fits the impaired model of the realization that
    made y."""
    return _estimate(y, impaired)
