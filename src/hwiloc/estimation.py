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
which makes the objective separable in angle and range: one pilot block is
scanned over the whole grid with three matrix products
(:meth:`ScanGrid.objective`: the row gains for every angle, the subcarrier
sums for every range, then their combination over transmissions) on bases
built once per grid, and every derivative the Newton fit needs comes from
two (:meth:`FitData.captured_energy`).

The Newton fit runs on many observations at once. A :class:`TrialBatch`
takes stacked pulled observations, n at a time, with the row matrices and
pilots they are fitted with, not model objects: it writes them straight
into the slots of a :class:`FitData` and scans each slot on the grid for
its start. :func:`refine` then fits every kept observation together on (T,)
arrays, each with its own stop rules and line search; a fit that stops
leaves the active set. The sweep harness adds a point's trials chunk by
chunk, and ``mmle_m2``/``mle_m1`` are a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SPEED_OF_LIGHT, ChannelParams, SystemConfig
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
FAILED = "failed"  # the stop of a fit that ended in a NumericError


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
    failed fit has NaN position and objective; its NumericError message is
    in ``errors``."""

    positions: np.ndarray  # (T, 2) refined positions
    objectives: np.ndarray  # (T,) projection objective at the optimum (unnormalized)
    stops: np.ndarray  # (T,) str: gradient | decrement | stalled | max_iter | failed
    n_iterations: np.ndarray  # (T,) int
    starts: np.ndarray  # (T, 2) starting positions: the grid argmins, for a TrialBatch
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
        aoa, rng = pos
        self.positions[index] = (rng * np.array([np.cos(aoa), np.sin(aoa)])).T
        self.objectives[index] = objective
        self.stops[index] = stop

    def put(self, index: np.ndarray, other: "Fits") -> None:
        """Write the fits of other into the slots index."""
        for name in ("positions", "objectives", "stops", "n_iterations", "starts"):
            getattr(self, name)[index] = getattr(other, name)
        for i, message in zip(index, other.errors):
            self.errors[i] = message


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


def scan_grid(cfg: SystemConfig, est: EstimatorConfig) -> ScanGrid:
    """The estimators' scan grid for a link: est's angles, and its ranges
    below :func:`scan_limit_m` (at least the first one)."""
    ranges = est.grid_ranges()
    kept = ranges[ranges < scan_limit_m(cfg.subcarrier_spacing_hz)]
    return ScanGrid.build(cfg, est.grid_angles(), kept if kept.size else ranges[:1])


def grid_search(data: FitData, index: int, grid: ScanGrid) -> tuple[np.ndarray, float]:
    """Coarse polar scan of the fit index of data; returns (position,
    objective) of the grid argmin.

    Ties break deterministically to the lowest angle index, then the lowest
    range index (row-major argmin).
    """
    obj = grid.objective(data.rows[index], data.energies[index], data.w[index], data.yy[index])
    if not np.any(np.isfinite(obj)):
        raise NumericError("projection objective is non-finite over the whole grid")
    flat = np.argmin(obj)  # first minimum in row-major order
    ia, ir = np.unravel_index(flat, obj.shape)
    p0 = grid.ranges_m[ir] * np.array([np.cos(grid.aoas[ia]), np.sin(grid.aoas[ia])])
    return p0, float(obj[ia, ir])


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
    whose observation has no energy, or whose objective or gradient turns
    non-finite, ends as ``failed`` with the reason in ``errors``; the others
    go on.
    """
    starts = np.asarray(starts, dtype=float)
    out = Fits.empty(data.yy.size)
    out.starts[:] = starts
    ids = np.arange(data.yy.size)
    usable = np.isfinite(data.yy) & (data.yy > 0.0)
    if not usable.all():
        out.fail(ids[~usable], "observation energy must be positive and finite")
        ids, data = ids[usable], data.take(usable)
    # per active fit: pos = (aoa, range), val = (f, g_a, g_r, h_aa, h_ar, h_rr)
    pos = np.array([np.arctan2(starts[ids, 1], starts[ids, 0]), np.hypot(*starts[ids].T)])
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
        if last.any():
            j = np.flatnonzero(last)
            cand = pos[:, j] + step[:, j]
            c_f = _normalized(data.take(j), *cand)[0]
            moved = np.isfinite(c_f)
            pos[:, j[moved]], val[0, j[moved]] = cand[:, moved], c_f[moved]
            out.settle(ids[j], pos[:, j], val[0, j] * data.yy[j], "decrement")

        # backtracking line search: every fit still searching halves the
        # same step length t, so one t serves them all
        pending = ~(broken | small | last)
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
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

        done = broken | small | last | pending
        if done.any():
            keep = ~done
            ids, data, pos, val = ids[keep], data.take(keep), pos[:, keep], val[:, keep]
    out.settle(ids, pos, val[0] * data.yy, "max_iter")
    return out


def fitted_params(y: np.ndarray, model: ProjectionModel, position: np.ndarray) -> ChannelParams:
    """Channel parameters of a fitted position: its (aoa, delay) and the
    plug-in gain of y against the model's mean there."""
    aoa = float(np.arctan2(position[1], position[0]))
    delay = float(np.hypot(position[0], position[1])) / SPEED_OF_LIGHT
    alpha = plug_in_gain(y, model.eta(aoa, delay))
    return ChannelParams(
        aoa=aoa, delay=delay, gain_amp=abs(alpha), gain_phase=float(-np.angle(alpha))
    )


class TrialBatch:
    """Up to size pulled observations, gathered n at a time for one Newton
    fit over all of them.

    :meth:`add` writes stacked observations into slots of a
    :class:`FitData`, which keeps only what the fit reads, and scans each
    slot on the grid for its start, one (n_a, n_r) objective at a time.
    :meth:`fit` runs :func:`refine` on every observation whose scan
    succeeded. A NumericError of one scan or fit fails that observation
    only.
    """

    def __init__(self, cfg: SystemConfig, size: int, est: EstimatorConfig | None = None) -> None:
        self.est = est or EstimatorConfig()
        self.grid = scan_grid(cfg, self.est)
        self._data = FitData.empty(cfg, size)
        self._starts = np.full((size, 2), np.nan)
        self._errors: list[str | None] = []  # one per observation added: its scan's error

    def add(self, rows: np.ndarray, pilots: np.ndarray, u: np.ndarray) -> None:
        """Add the pulled observations u, (n, G, K), each to be fitted with
        its row matrix W C and pilots x~ (shapes as for :meth:`FitData.put`).
        """
        u = np.asarray(u, dtype=complex)
        if not np.all(np.isfinite(u)):
            raise ValueError("observation contains non-finite samples")
        start = len(self._errors)
        self._data.put(start, rows, pilots, u)
        for index in range(start, start + len(u)):
            try:
                self._starts[index], _ = grid_search(self._data, index, self.grid)
            except NumericError as exc:
                self._errors.append(str(exc))
                continue
            self._errors.append(None)

    def fit(self) -> Fits:
        """The fits of every observation added, in order. This spends the
        batch: refine takes over its storage and frees what it is done with."""
        out = Fits.empty(len(self._errors))
        kept = np.array([i for i, e in enumerate(self._errors) if e is None], dtype=int)
        for i, message in enumerate(self._errors):
            if message is not None:
                out.fail(i, message)
        if kept.size:
            out.put(kept, refine(self._spend(kept), self._starts[kept], self.est))
        return out

    def _spend(self, kept: np.ndarray) -> FitData:
        data, self._data = self._data, None
        return data if kept.size == data.yy.size else data.take(kept)


def _estimate(y: np.ndarray, model: ProjectionModel, est: EstimatorConfig | None) -> Estimate:
    """One observation's fit: a batch of one."""
    batch = TrialBatch(model.cfg, 1, est)
    batch.add(model.row_matrix, model.eff_pilots, model.pulled_observation(y)[None])
    fit = batch.fit()
    if fit.errors[0] is not None:
        raise NumericError(fit.errors[0])
    position = fit.positions[0]
    return Estimate(
        params=fitted_params(y, model, position),
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
