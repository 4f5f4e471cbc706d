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
phase-noise/CFO rotation moved onto the data once per observation, by FFT)
and use the model's factorization eta_{g,k} = b_g(aoa) d_k(delay) x~_{g,k},
which makes the objective separable in angle and range. The scan
(:func:`grid_search`) takes n observations at once on bases built once per
grid: the subcarrier sums for every range of all n in one product, the
row gains for every angle once when the n share their rows, then one
combination over transmissions per observation, the products of
:meth:`ScanGrid.objective`. Every derivative the Newton fit needs comes
from one product over transmissions per fit and one (K, 3) product shared
by all fits (:meth:`FitData.captured_energy`).

The Newton fit runs on many observations at once. A :class:`TrialBatch`
takes stacked pulled observations, n at a time, with the row matrices and
pilots they are fitted with, not model objects: it writes them straight
into the slots of a :class:`FitData` and scans the n slots together for
their starts, NaN where a scan failed. :func:`refine` then fits every
slot together on (T,) arrays, each with its own stop rules and line
search; a fit that stops or fails leaves the active set, so no fit
depends on the others in its batch, and every failure, of the scan or of
the fit, is recorded in one place. The sweep harness adds both
estimators' trials of a point chunk by chunk to one batch, and
``mmle_m2``/``mle_m1`` are a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SPEED_OF_LIGHT, ChannelParams, SystemConfig, polar_to_positions, positions_to_polar
)
from .observation import FitData, ProjectionModel, ScanGrid

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
FAILED = "failed"  # the stop of a fit that failed numerically, its reason in Fits.errors
SCAN_FAILED = "projection objective is non-finite over the whole grid"


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


@dataclass
class Fits:
    """Results of T fits, in the order their observations were added. A
    failed fit has NaN position and objective; the reason it failed is
    in ``errors``."""

    positions: np.ndarray  # (T, 2) refined positions
    objectives: np.ndarray  # (T,) projection objective at the optimum (unnormalized)
    stops: np.ndarray  # (T,) str: gradient | decrement | stalled | max_iter | failed
    n_iterations: np.ndarray  # (T,) int
    starts: np.ndarray  # (T, 2) starting positions, NaN where a TrialBatch's scan failed
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

    def settle(self, index: np.ndarray, pos: np.ndarray, objective: np.ndarray, stop: str) -> None:
        """Record fits that stopped at polar positions pos = (aoa, range), (2, k)."""
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


def scan_grid(cfg: SystemConfig, est: EstimatorConfig) -> ScanGrid:
    """The estimators' scan grid for a link: est's angles, and its ranges
    below :func:`scan_limit_m` (at least the first one)."""
    ranges = est.grid_ranges()
    kept = ranges[ranges < scan_limit_m(cfg.subcarrier_spacing_hz)]
    return ScanGrid.build(cfg, est.grid_angles(), kept if kept.size else ranges[:1])


def grid_search(data: FitData, index: slice, grid: ScanGrid) -> np.ndarray:
    """Coarse polar scan of the fits in the slice index of data: the
    positions of their grid argmins, (n, 2), the starts of :func:`refine`.
    A fit whose objective is non-finite over the whole grid gets a NaN
    start, which refine fails with SCAN_FAILED.

    Ties break deterministically to the lowest angle index, then the lowest
    range index (row-major argmin).

    The slots are scanned together with the products of
    :meth:`~hwiloc.observation.ScanGrid.objective`, and each slot's
    captured energy |s|^2 / den is bit for bit the one that method
    subtracts from ||u||^2. The subcarrier sums w conj(D) take one product
    for all slots. The row gains b = (W C) a on the grid angles, with den,
    take one product for all slots when their rows are equal (the clean
    chain), else one per slot: a stacked (n, G, n_a) product and its |b|^2
    would raise the desk.cfg estimate sweep's peak RSS by about 0.2 MB.
    Each slot then takes one (n_a, G) by (G, n_r) product, conj(s) = b^T
    (conj(w) D). The start is the argmax of the captured energy, which is
    the argmin of the objective up to ties that only rounding
    ||u||^2 - |s|^2 / den would make; the objective itself is not formed.
    """
    rows, energies, yy = data.rows[index], data.energies[index], data.yy[index]
    n, n_a, n_r = yy.size, grid.aoas.size, grid.ranges_m.size
    shared = bool(np.all(rows == rows[:1]))
    wd = data.w[index] @ grid.delay_conj  # (n, G, n_r)
    np.conjugate(wd, out=wd)
    s = np.empty((n_a, n_r), dtype=complex)  # conj(s) of one slot
    parts = s.view(float)  # (n_a, 2 n_r): real and imaginary parts interleaved
    captured = np.empty((n_a, n_r))
    best = np.empty(n, dtype=int)
    failed = ~np.isfinite(yy)
    for i in range(n):
        if i == 0 or not shared:
            b = rows[i] @ grid.steering  # (G, n_a)
            readers = slice(i, n if shared else i + 1)  # the slots that read b
            den = (energies[readers, None, :] @ (np.abs(b) ** 2))[:, 0]  # (m, n_a)
            inv = np.zeros_like(den)
            np.divide(1.0, den, out=inv, where=den > 0)
        np.matmul(b.T, wd[i], out=s)
        np.square(parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=captured)
        captured *= inv[i - readers.start, :, None]
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


def refine(data: FitData, starts: np.ndarray, est: EstimatorConfig) -> Fits:
    """Damped Newton fits of the projection objectives of T pulled
    observations in (aoa, range), from their starting positions (T, 2).

    Each objective is normalized by ||u||^2 so the tolerances are
    scale-free; its exact gradient and Hessian come from
    :meth:`FitData.captured_energy`. Where the Hessian is positive definite
    the step is the Newton step, elsewhere a steepest-descent step of
    INITIAL_STEP_M metres; either is halved until the Armijo condition holds
    at a positive range. A fit stops with one of these reasons:

    * ``gradient``: the Cartesian gradient is below GRAD_TOLERANCE;
    * ``decrement``: the Newton decrement is below DECREMENT_TOLERANCE,
      a decrease too small to test, so the last full step is taken as is;
    * ``stalled``: no step passed the line search in MAX_BACKTRACKS halvings;
    * ``max_iter``: est.max_iterations iterations ran out.

    Only the first two count as converged. Except for the final full Newton
    step, each objective sequence is non-increasing.

    The fits share array operations but not their steps: each follows the
    rules above on its own, and one that stops leaves the active set. A fit
    ends as ``failed``, with the reason in ``errors``, when its start is not
    finite (SCAN_FAILED: the scan found no start), else when its
    observation has no energy, or when its objective or gradient turns
    non-finite; the others go on.
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

    for it in range(1, est.max_iterations + 1):
        if not ids.size:
            break
        out.n_iterations[ids] = it
        rng = pos[1]
        f, g_a, g_r, h_aa, h_ar, h_rr = val
        gnorm = np.hypot(g_a / rng, g_r)  # the Cartesian gradient, rotated to polar
        broken = ~np.isfinite(gnorm)
        if broken.any():
            out.fail(ids[broken], "gradient is non-finite during refinement")
        small = gnorm < GRAD_TOLERANCE
        if small.any():
            out.settle(ids[small], pos[:, small], f[small] * data.yy[small], "gradient")
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
        last = (
            newton & ~(broken | small)
            & (-0.5 * slope <= DECREMENT_TOLERANCE) & (rng + step[1] > 0.0)
        )
        if broken.any() or small.any():
            keep = ~(broken | small)
            ids, data, pos, val = ids[keep], data.take(keep), pos[:, keep], val[:, keep]
            step, slope, last = step[:, keep], slope[keep], last[keep]

        # the full step, evaluated for every active fit at once: a fit whose
        # decrement is below tolerance takes it as is where its objective is
        # finite, the others test it like any step of the line search
        f = val[0].copy()
        cand = pos + step
        c_val = _normalized(data, *cand)
        ok = ~last & (cand[1] > 0.0) & (c_val[0] <= f + SUFFICIENT_DECREASE * slope)
        moved = ok | (last & np.isfinite(c_val[0]))
        pos[:, moved], val[:, moved] = cand[:, moved], c_val[:, moved]
        if last.any():
            out.settle(ids[last], pos[:, last], val[0, last] * data.yy[last], "decrement")
        # backtracking line search: every fit still searching halves the
        # same step length t, so one t serves them all
        pending = ~(last | ok)
        t = 0.5
        for _ in range(MAX_BACKTRACKS - 1):
            j = np.flatnonzero(pending)
            if not j.size:
                break
            cand = pos[:, j] + t * step[:, j]
            c_val = _normalized(data if j.size == ids.size else data.take(j), *cand)
            ok = (cand[1] > 0.0) & (c_val[0] <= f[j] + SUFFICIENT_DECREASE * t * slope[j])
            pos[:, j[ok]], val[:, j[ok]] = cand[:, ok], c_val[:, ok]
            pending[j[ok]] = False
            t *= 0.5
        if pending.any():
            out.settle(ids[pending], pos[:, pending], f[pending] * data.yy[pending], "stalled")
        if last.any() or pending.any():
            keep = ~(last | pending)
            ids, data, pos, val = ids[keep], data.take(keep), pos[:, keep], val[:, keep]
    out.settle(ids, pos, val[0] * data.yy, "max_iter")
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


class TrialBatch:
    """Up to size pulled observations, gathered n at a time for one Newton
    fit over all of them.

    :meth:`add` writes stacked observations into slots of a
    :class:`FitData`, which keeps only what the fit reads, and scans the n
    slots together for their starts (:func:`grid_search`). Each slot
    carries its own row matrix and pilots, so one batch can hold
    observations fitted with different models, such as both estimators'
    trials. :meth:`fit` runs one :func:`refine` over every slot filled,
    which fails a slot whose scan or fit failed, and that slot only.
    """

    def __init__(self, cfg: SystemConfig, size: int, est: EstimatorConfig | None = None) -> None:
        self.est = est or EstimatorConfig()
        self.grid = scan_grid(cfg, self.est)
        self._data = FitData.empty(cfg, size)
        self._starts = np.full((size, 2), np.nan)
        self._filled = 0  # slots written so far

    def add(self, rows: np.ndarray, pilots: np.ndarray, u: np.ndarray) -> range:
        """Add the pulled observations u, (n, G, K), each to be fitted with
        its row matrix W C and pilots x~ (shapes as for :meth:`FitData.put`),
        and scan them for their starts; returns their slots.
        """
        u = np.asarray(u, dtype=complex)
        if not np.all(np.isfinite(u)):
            raise ValueError("observation contains non-finite samples")
        slots = range(self._filled, self._filled + len(u))
        self._data.put(slots.start, rows, pilots, u)
        index = slice(slots.start, slots.stop)
        self._starts[index] = grid_search(self._data, index, self.grid)
        self._filled = slots.stop
        return slots

    def fit(self) -> Fits:
        """The fits of every observation added, in order. This spends the
        batch: popped straight into the call, its storage is held by refine
        alone, which frees the slots of the fits that stop."""
        filled = slice(0, self._filled)
        return refine(vars(self).pop("_data").take(filled), self._starts[filled], self.est)


def _estimate(y: np.ndarray, model: ProjectionModel, est: EstimatorConfig | None) -> Estimate:
    """One observation's fit: a batch of one."""
    batch = TrialBatch(model.cfg, 1, est)
    batch.add(model.row_matrix, model.eff_pilots, model.pulled_observation(y)[None])
    fit = batch.fit()
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


def mmle_m2(
    y: np.ndarray, clean: ProjectionModel, est: EstimatorConfig | None = None
) -> Estimate:
    """Mismatched estimator: fits the clean model to whatever y contains."""
    return _estimate(y, clean, est)


def mle_m1(
    y: np.ndarray, impaired: ProjectionModel, est: EstimatorConfig | None = None
) -> Estimate:
    """Matched estimator: fits the impaired model of the realization that
    made y."""
    return _estimate(y, impaired, est)
