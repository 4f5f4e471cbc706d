"""Seeded experiment sweeps, Monte-Carlo estimator trials, CSV emission.

The sweep axis varies one knob (transmit power, an impairment spread, or
the amplifier switch) across its value list. At each point the bounds
runner draws hardware realizations and reports mean/min/max of every
requested bound scalar across them; the trials runner draws full
observations and reports the position RMSE of the requested estimators.
Both draw each index's random numbers once per sweep, in the parent, at
unit spread (:func:`_units`): the index's generator draws its pilots (on
the amplifier axis only, which resamples them), its realization and, for
a trial, its noise. Every point scales the same units by its own levels
(:func:`_draws`), computes the couplings once for the stack and puts
resampled pilots through its PA. Off the amplifier axis a point's pilots
pass the PA once and serve all its draws (:func:`_point`).

Both sweeps read their links from model stacks, not from a model per
draw. The bounds runner fills one (point, draw) grid of results. A task
makes one clean and one impaired model stack of its (point, draw) pairs,
takes each bound of all pairs in one call as one stacked report and the
pseudo-trues in one descent, and returns its block of the grid
(:func:`_bounds_unit`); the sweep writes each block into its place and
reads each point's rows off the grid (:func:`_bounds_rows`). A draw's
units do not depend on the point, so off the phase-noise and CFO axes a
draw has the same rotation at every point: there a task is a unit of
draws that covers every point, and the dense sandwich that forms a draw's
impaired means for the lb is built once for all of them; on those two
axes a task is a point (:func:`_bounds_tasks`). The trials runner makes
one impaired model stack per TRIAL_CHUNK trials, whose FFT means and
pulled observations are stacked arrays, writes both estimators' trials
of a point into one batch and fits them all in one Newton fit.

Determinism: every random draw derives from
SeedSequence((master_seed, draw_index, stream_tag)), so output is
byte-identical across runs, worker counts and bounds task layouts; the
tests check this on one machine with one numpy/BLAS build (BLAS builds
round differently, so no cross-platform identity is claimed). The axis
value is deliberately left out of the seed: sweep points share each
index's units (common random numbers), so a sweep compares the same
hardware and noise scaled to different levels and its mean curves are
paired rather than independently noisy. A process pool capped by the
HWI_LOC_THREADS environment variable maps over the bounds tasks and over
runs of consecutive sweep points for the trials, one run per worker, so
each worker receives the trials' units once; rows are assembled per
point, in draw order, and sorted single-threaded.

Reporting units follow the plotting conventions of the study this package
supports: angle bounds in degrees, delay bounds converted to metres
(delay times the speed of light), position bounds and RMSE in metres.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .bounds import (
    BoundsReport,
    crb_m1_numeric,
    crb_m2_report,
    flat_coordinates,
    mismatch_report,
    pseudo_true,
)
from .config_io import (
    BOUND_FAMILIES,
    BOUND_SCALARS,
    ESTIMATOR_METRICS,
    ExperimentSpec,
)
from .estimation import (
    RANGE_MIN_M,
    EstimatorConfig,
    Fits,
    NumericError,
    TrialBatch,
    scan_limit_m,
)
from .impairments import ImpairmentConfig, mc_matrix, sample_realization
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    ConfigError,
    SystemConfig,
    generate_combiners,
    generate_pilots,
    geometric_params,
    noise_std,
    params_to_positions,
)
from .observation import (
    ProjectionModel,
    phase_rotations,
    sandwich_matrices,
    transmit_pilots,
    unit_noise,
)

logger = logging.getLogger(__name__)

CSV_HEADER = "sweep_value,metric,statistic,value,units,realizations,trials"

_STAT_ORDER = {"mean": 0, "min": 1, "max": 2}
# stream tags keep bound realizations and estimator trials on disjoint
# random streams even when indices collide
_REALIZATION_STREAM = 0
_TRIAL_STREAM = 1
# trials drawn, observed and pulled as one stack; a trial's results do not
# depend on the chunk it falls in
TRIAL_CHUNK = 16


@dataclass
class ResultRow:
    """One CSV row: a statistic of one metric at one sweep point.

    For bound rows `realizations` counts the hardware draws that
    contributed and `trials` is zero; for estimator rows `realizations`
    counts attempted trials and `trials` the converged ones actually
    averaged.
    """

    sweep_value: float
    metric: str
    statistic: str  # mean | min | max
    value: float
    units: str  # m | deg | s
    realizations: int
    trials: int

    def csv_line(self) -> str:
        return ",".join(
            [
                repr(float(self.sweep_value)),
                self.metric,
                self.statistic,
                repr(float(self.value)),
                self.units,
                str(int(self.realizations)),
                str(int(self.trials)),
            ]
        )


def metric_units(metric: str) -> str:
    if metric.endswith("_aeb"):
        return "deg"
    if metric.endswith(("_deb", "_peb", "_rmse")):
        return "m"
    raise ConfigError(f"unknown metric '{metric}'")


def rows_to_csv(rows: list[ResultRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_line() for r in rows]) + "\n"


def sort_rows(rows: list[ResultRow]) -> list[ResultRow]:
    """Canonical emission order: sweep value, then metric, then statistic."""
    return sorted(
        rows, key=lambda r: (r.sweep_value, r.metric, _STAT_ORDER[r.statistic])
    )


def apply_sweep_value(
    spec: ExperimentSpec, value: float
) -> tuple[SystemConfig, ImpairmentConfig]:
    """System and impairment configs with the sweep axis set to `value`."""
    sys_cfg, imp = spec.system, spec.impairments
    axis = spec.sweep_axis
    if axis == "tx_power_dbm":
        sys_cfg = replace(sys_cfg, tx_power_dbm=float(value))
    elif axis == "sigma_pn_deg":
        imp = replace(imp, sigma_pn=float(np.deg2rad(value)))
    elif axis == "sigma_cfo":
        imp = replace(imp, sigma_cfo=float(value))
    elif axis == "sigma_mc":
        imp = replace(imp, sigma_mc=float(value))
    elif axis == "pa":
        if value == 0.0:
            imp = replace(imp, pa_coeffs=(1.0 + 0.0j,), pa_clip=np.inf)
        # value 1 keeps the configured amplifier
    else:
        raise ConfigError(f"unknown sweep axis '{axis}'")
    return sys_cfg, imp


@dataclass
class Point:
    """A sweep point: its configs, its true parameters and the hardware that
    all its draws share (:func:`_point`)."""

    value: float
    sys_cfg: SystemConfig
    imp: ImpairmentConfig
    theta: ChannelParams
    combiners: np.ndarray  # W, (G, N)
    known: np.ndarray  # the known coupling, the clean chain's C, (N, N)
    pilots: np.ndarray | None  # as sent, (G, K); None on the amplifier axis
    sent: np.ndarray | None  # after the PA, (G, K); None on the amplifier axis


def _point(spec: ExperimentSpec, axis_index: int) -> Point:
    """Sweep point axis_index. Off the amplifier axis its draws keep the
    seeded pilot block, which passes the PA here, once for all of them; on
    it each draw draws its own pilots (:func:`_units`). Combiners stay fixed
    either way."""
    value = spec.sweep_values[axis_index]
    sys_cfg, imp = apply_sweep_value(spec, value)
    known = mc_matrix(imp.coupling, None, sys_cfg.n_antennas)
    pilots = sent = None
    if spec.sweep_axis != "pa":
        pilots = generate_pilots(sys_cfg)
        sent = transmit_pilots(pilots, imp, sys_cfg)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    return Point(value, sys_cfg, imp, theta, generate_combiners(sys_cfg), known, pilots, sent)


@dataclass
class Units:
    """The random numbers of a run of draw indices at unit spread, drawn once
    per sweep (:func:`_units`) and scaled by each point (:func:`_draws`)."""

    indices: range
    pilots: np.ndarray | None  # as sent, (n, G, K); on the amplifier axis only
    pn: np.ndarray  # standard-normal phase-noise phases, (n, G, K)
    cfo: np.ndarray  # standard-normal CFOs, (n,)
    mc: np.ndarray  # standard-normal coupling residuals, (n, N, N)
    noise: np.ndarray | None  # unit complex noise, (n, G, K); trials only

    def __getitem__(self, at: slice) -> "Units":
        arrays = (self.pilots, self.pn, self.cfo, self.mc, self.noise)
        return Units(self.indices[at], *(None if a is None else a[at] for a in arrays))


def _units(spec: ExperimentSpec, stream: int) -> Units:
    """The units of every draw index of a sweep: of its n_realizations on
    the realization stream, of its n_trials, noise included, on the trial
    stream.

    Each index has its own generator, seeded by (master_seed, index,
    stream), which draws the pilot symbols on the amplifier axis only, then
    the realization at unit spreads, then a trial's noise. x * 1.0 = x, so
    the realization holds the standard normals that
    :func:`~hwiloc.impairments.sample_realization` scales by the spreads,
    and the noise is what :func:`~hwiloc.observation.observe` scales by
    sigma_n / sqrt(2).
    """
    trials = stream == _TRIAL_STREAM
    sys_cfg = spec.system
    n, n_ant = spec.n_trials if trials else spec.n_realizations, sys_cfg.n_antennas
    unit = replace(spec.impairments, sigma_pn=1.0, sigma_cfo=1.0, sigma_mc=1.0)
    shape = (n, sys_cfg.n_transmissions, sys_cfg.n_subcarriers)
    pilots = np.empty(shape, dtype=complex) if spec.sweep_axis == "pa" else None
    noise = np.empty(shape, dtype=complex) if trials else None
    pn, cfo, mc = np.empty(shape), np.empty(n), np.empty((n, n_ant, n_ant))
    for index in range(n):
        rng = np.random.default_rng(np.random.SeedSequence((spec.master_seed, index, stream)))
        if pilots is not None:
            pilots[index] = generate_pilots(sys_cfg, rng)
        real = sample_realization(unit, sys_cfg, rng)
        pn[index], cfo[index], mc[index] = real.pn_phases, real.cfo, real.mc_residual
        if noise is not None:
            noise[index] = unit_noise(shape[1:], rng)
    return Units(range(n), pilots, pn, cfo, mc, noise)


@dataclass
class Draws:
    """The hardware of n draws of one sweep point as stacked arrays
    (:func:`_draws`). pilots and sent are (n, G, K): off the amplifier axis
    read-only views of the point's (G, K) arrays, on it each draw's own."""

    combiners: np.ndarray  # W, (G, N)
    pilots: np.ndarray  # as sent, the clean chain's x~, (n, G, K)
    sent: np.ndarray  # after the PA, the impaired chain's x~, (n, G, K)
    couplings: np.ndarray  # full couplings C, (n, N, N)
    pn: np.ndarray  # phase-noise phases, (n, G, K)
    cfo: np.ndarray  # (n,)


def _draws(point: Point, units: Units) -> Draws:
    """The draws of a sweep point, for both sweeps: the units scaled by the
    point's levels.

    The phase noise, the CFO and the coupling residual are the units times
    the point's spreads, the product that
    :func:`~hwiloc.impairments.sample_realization` forms, and the couplings
    are computed once for the stack. The amplifier axis resamples the
    pilots per draw (the nonlinearity's effect depends on the transmitted
    waveform) and puts the units' pilots through the point's PA here, once
    for the stack; every other axis keeps the point's pilots and varies
    only the hardware.
    """
    sys_cfg, imp = point.sys_cfg, point.imp
    if units.pilots is None:
        pilots, sent = point.pilots, point.sent
    else:
        pilots, sent = units.pilots, transmit_pilots(units.pilots, imp, sys_cfg)
    shape = units.pn.shape
    pilots, sent = (np.broadcast_to(a, shape) for a in (pilots, sent))
    couplings = mc_matrix(imp.coupling, units.mc * imp.sigma_mc, sys_cfg.n_antennas)
    return Draws(
        point.combiners, pilots, sent, couplings, units.pn * imp.sigma_pn, units.cfo * imp.sigma_cfo
    )


def _bound_scalars(family: str, rep: BoundsReport) -> np.ndarray:
    """A stacked report's scalars in the CSV's units, (n, 3): aeb in
    degrees, deb and peb in metres (BOUND_SCALARS' order)."""
    prefix = "lb_" if family == "lb" else ""
    aeb, deb, peb = (getattr(rep, prefix + name) for name in ("aeb_rad", "deb_s", "peb_m"))
    return np.stack([np.rad2deg(aeb), deb * SPEED_OF_LIGHT, peb], axis=-1)


def _families(spec: ExperimentSpec) -> list[str]:
    return [f for f in ("lb", "crb_m2", "crb_m1") if f in spec.outputs]


def _bounds_unit(
    spec: ExperimentSpec, points: list[Point], units: Units
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """The block of the sweep's (point, draw) grid at the given sweep points
    and the draws of the given units, p points by n draws: for each bound
    family the scalars (:func:`_bound_scalars`), (p, n, 3), NaN where a
    draw's bound failed, and when lb is requested the reason each draw's lb
    failed (None where it did not) and the pseudo-true stops, each (p, n).

    Each point scales these units (:func:`_draws`). The block's pairs make
    one clean and one impaired model stack of shape (p, n), the impaired one
    without M_g, which is unitary and theta-free: its FIM and its unrotated
    means are the impaired chain's. A point's pilots stay one (G, K) array
    for all its draws. Every bound takes all pairs in one call, each pair
    bit for bit as on its own: the impaired and the clean CRBs, one descent
    for the pseudo-trues and the lb. The lb's impaired means are the
    unrotated means under a dense sandwich
    (:func:`~hwiloc.observation.sandwich_matrices`), the form that the
    benchmark's lb reference encodes. A draw's units do not depend on the
    point, so off the phase-noise and CFO axes a draw has the same rotation
    at every point: its sandwich is built again only for a point whose
    rotation differs from the previous one's.
    """
    families = _families(spec)
    draws = [_draws(point, units) for point in points]
    first = points[0]
    shape = (len(points), len(units.indices))
    # the pairs' (p n, 4) rows: each point's true parameter, repeated over its draws
    truths = np.array([point.theta.as_array() for point in points])
    params = np.repeat(truths, shape[1], axis=0)
    sigmas = np.repeat([noise_std(point.sys_cfg) for point in points], shape[1])
    # off the amplifier axis a point's (G, K) pilots serve all its draws: (p, 1, G, K)
    shared = units.pilots is None
    scalars: dict[str, np.ndarray] = {}
    errors = np.full(len(params), None, dtype=object)
    stops = errors.copy()
    if {"lb", "crb_m1"} & set(families):
        couplings = np.stack([d.couplings for d in draws])
        sent = np.stack([p.sent[None] for p in points] if shared else [d.sent for d in draws])
        impaired = ProjectionModel(first.sys_cfg, first.combiners, couplings, sent)
        if "crb_m1" in families:
            scalars["crb_m1"] = _bound_scalars("crb_m1", crb_m1_numeric(params, impaired, sigmas))
        if "lb" in families:
            means = impaired.unrotated(truths[:, :1], truths[:, 1:2])  # (p, n, G, K)
        # the stacks are freed before the sandwiches, and the clean one is
        # built after them: held over them, they raised full.cfg's peak
        # allocation by 0.3 MB
        del impaired, couplings, sent
    if "lb" in families:
        for r in range(shape[1]):
            rotation = None
            for point, d, mean in zip(points, draws, means[:, r]):
                this = phase_rotations(d.cfo[r], d.pn[r], point.sys_cfg)
                if rotation is None or not np.array_equal(this, rotation):
                    rotation, sandwich = this, sandwich_matrices(this)
                mean[...] = point.theta.gain * np.einsum("gij,gj->gi", sandwich, mean)
            # freed here: held over the next draw's bounds, it raised
            # full.cfg's peak RSS by about 1.3 MB
            del sandwich
    if {"lb", "crb_m2"} & set(families):
        pilots = np.stack([p.pilots[None] for p in points]) if shared else units.pilots
        # the one clean coupling as a view over the axis that the pilots lack:
        # no derived array of the stack is formed per pair
        lead = (1, shape[1]) if shared else (shape[0], 1)
        known = np.broadcast_to(first.known, lead + first.known.shape)
        clean = ProjectionModel(first.sys_cfg, first.combiners, known, pilots)
        crbs = crb_m2_report(params, clean, sigmas)
        if "crb_m2" in families:
            scalars["crb_m2"] = _bound_scalars("crb_m2", crbs)
    if "lb" in families:
        theta0s, fits = pseudo_true(params, clean, means)
        stops[:], errors[:] = fits.stops, fits.errors
        fitted = ~np.isnan(theta0s[:, 0])
        # a pair whose fit failed takes its true parameter here; its lb is dropped
        theta0s = np.where(fitted[:, None], theta0s, params)
        rep = mismatch_report(params, theta0s, clean, means, sigmas, crbs)
        scalars["lb"] = np.where(fitted[:, None], _bound_scalars("lb", rep), np.nan)
        errors[fitted] = rep.errors[fitted]
    blocks = {f: v.reshape(*shape, 3) for f, v in scalars.items()}
    return blocks, errors.reshape(shape), stops.reshape(shape)


def _rows(
    value: float, metric: str, stats: dict, realizations: int, trials: int
) -> list[ResultRow]:
    """The rows of one metric at one sweep point, one per statistic."""
    units = metric_units(metric)
    return [
        ResultRow(float(value), metric, stat, float(v), units, realizations, trials)
        for stat, v in stats.items()
    ]


def _bounds_rows(
    spec: ExperimentSpec, point: Point, scalars: dict, errors: np.ndarray, stops: np.ndarray
) -> list[ResultRow]:
    """Bound rows of one sweep point from its row of the (point, draw) grid:
    each family's scalars, (R, 3), and the lb errors and pseudo-true stops,
    (R,), in draw order. A draw whose bound fails drops out of that family
    only: each family counts its own surviving draws, and one WARNING line
    counts the failed draws by reason. A scalar whose coordinate the link
    cannot identify (:func:`~hwiloc.bounds.flat_coordinates`) is inf in
    every family."""
    value = point.value
    families = _families(spec)
    survivors = {f: r[~np.isnan(r).any(axis=1)] for f, r in scalars.items()}
    if "lb" in families:
        logger.info(
            "bounds: sweep value %r pseudo-true stops: %s",
            value,
            " ".join(f"{reason}={count}" for reason, count in sorted(Counter(stops).items())),
        )
        reasons = Counter(e for e in errors if e is not None)
        if reasons:
            logger.warning(
                "bounds: sweep value %r lb failed for %d of %d realizations: %s",
                value,
                sum(reasons.values()),
                spec.n_realizations,
                "; ".join(f"{reason}={count}" for reason, count in sorted(reasons.items())),
            )
    empty = [f for f in families if not len(survivors[f])]
    if empty:
        names = ", ".join(empty)
        logger.warning("bounds: no surviving realizations for %s at %r", names, value)
        raise NumericError(f"no surviving realizations for {names} at sweep value {value!r}")
    rows: list[ResultRow] = []
    for family in families:
        for scalar in (s for s in BOUND_SCALARS if s in spec.outputs):
            arr = survivors[family][:, BOUND_SCALARS.index(scalar)]
            stats = {"mean": arr.mean(), "min": arr.min(), "max": arr.max()}
            rows += _rows(value, f"{family}_{scalar}", stats, len(arr), 0)
    return rows


def _fit_point(
    spec: ExperimentSpec, point: Point, units: Units, metrics: list[str], est: EstimatorConfig
) -> dict[str, Fits]:
    """Every trial of one sweep point, fitted by each requested estimator.

    The point scales the trials' units once (:func:`_draws`). Then
    TRIAL_CHUNK trials at a time make one impaired model stack, whose means
    (rotated by FFT), plus the scaled noise, are the observations, and join
    one batch, once per estimator with what that estimator fits: the clean
    chain's rows and pilots and the observations themselves for
    ``mmle_rmse``, the stack's rows and pilots and the observations pulled
    back through its rotations for ``mle_m1_rmse``. Then the batch runs one
    Newton fit over every trial of both; each estimator's fits are its own
    slots, and no fit depends on the others in the batch. A trial's
    observation is, up to rounding, the one that
    :func:`~hwiloc.observation.observe` draws for its impaired mean from the
    trial's generator after its realization.
    """
    sys_cfg = point.sys_cfg
    draws = _draws(point, units)
    clean_rows = draws.combiners @ point.known
    scale = noise_std(sys_cfg) / np.sqrt(2.0)
    batch = TrialBatch(sys_cfg, len(metrics) * spec.n_trials, est)
    slots: dict[str, list[int]] = {m: [] for m in metrics}
    for start in range(0, spec.n_trials, TRIAL_CHUNK):
        chunk = slice(start, start + TRIAL_CHUNK)
        rotations = phase_rotations(draws.cfo[chunk], draws.pn[chunk], sys_cfg)
        model = ProjectionModel(
            sys_cfg, draws.combiners, draws.couplings[chunk], draws.sent[chunk], rotations
        )
        y = model.mean(point.theta) + scale * units.noise[chunk]
        for m in metrics:
            if m == "mmle_rmse":
                slots[m] += batch.add(clean_rows, draws.pilots[chunk], y)
            else:
                u = model.pulled_observation(y)
                slots[m] += batch.add(model.row_matrix, model.eff_pilots, u)
    fits = batch.fit()
    return {m: fits.take(np.array(own)) for m, own in slots.items()}


def _trials_point(spec: ExperimentSpec, axis_index: int, units: Units) -> list[ResultRow]:
    point = _point(spec, axis_index)
    value = point.value
    p_true = params_to_positions(point.theta.as_array())
    metrics = [m for m in ESTIMATOR_METRICS if m in spec.outputs]
    fits = _fit_point(spec, point, units, metrics, EstimatorConfig())
    squared: dict[str, np.ndarray] = {}
    stops: dict[str, Counter] = {}
    for m in metrics:
        fit = fits[m]
        for t, error in enumerate(fit.errors):
            if error is not None:
                logger.debug("trials: sweep value %r trial %d %s failed: %s", value, t, m, error)
        stops[m] = Counter(fit.stops.tolist())
        squared[m] = np.sum((fit.positions[fit.converged] - p_true) ** 2, axis=1)
    all_converged = all(sum(stops[m].values()) == squared[m].size for m in metrics)
    logger.log(
        logging.INFO if all_converged else logging.WARNING,
        "trials: sweep value %r stops: %s",
        value,
        "; ".join(
            f"{m} " + " ".join(f"{reason}={n}" for reason, n in sorted(stops[m].items()))
            for m in metrics
        ),
    )
    empty = ", ".join(m for m in metrics if not squared[m].size)
    if empty:
        logger.warning("trials: no converged trials for %s at %r", empty, value)
        raise NumericError(f"no converged trials for {empty} at sweep value {value!r}")
    rows: list[ResultRow] = []
    for m in metrics:
        rmse = float(np.sqrt(np.mean(squared[m])))
        rows += _rows(value, m, {"mean": rmse}, spec.n_trials, squared[m].size)
    return rows


def _trials_points(spec: ExperimentSpec, indices: range, units: Units) -> list[ResultRow]:
    """The rows of a run of sweep points, one point after the other."""
    return [row for i in indices for row in _trials_point(spec, i, units)]


def _runs(n: int, parts: int) -> list[range]:
    """range(n) cut into parts runs of nearly equal length, in order."""
    edges = [n * part // parts for part in range(parts + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def _worker_count(n_tasks: int) -> int:
    cap = os.environ.get("HWI_LOC_THREADS")
    if cap is None:
        limit = os.cpu_count() or 1
    else:
        try:
            limit = int(cap)
        except ValueError:
            raise ConfigError(f"HWI_LOC_THREADS must be an integer, got '{cap}'") from None
        if limit < 1:
            raise ConfigError("HWI_LOC_THREADS must be at least 1")
    return max(1, min(limit, n_tasks))


def _map(worker, *args: list) -> list:
    """[worker(*a) for a in zip(*args)], in a process pool capped by
    HWI_LOC_THREADS (:func:`_worker_count`) when there is more than one
    call; results come back in call order."""
    workers = _worker_count(len(args[0]))
    if workers == 1:
        return list(map(worker, *args))
    # imported here: a one-worker run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, *args))


# sweep axes that scale each draw's phase-noise or CFO rotation, so no two
# of their points share a draw's dense sandwich
_ROTATION_AXES = ("sigma_pn_deg", "sigma_cfo")


def _bounds_tasks(spec: ExperimentSpec) -> list[tuple[list[int], range]]:
    """The bounds sweep's pool tasks, (sweep point indices, draw indices),
    in draw order. No row depends on them.

    Where the points share each draw's rotation, min(R, P) units of nearly
    equal runs of draws each cover every point. With R >= P that is as
    many tasks as points, each of about as many (point, draw) pairs as a
    point has, so a pool balances them as it balanced points, and a draw's
    dense sandwich is built once for all points instead of once per point.
    On the phase-noise and CFO axes, where units share nothing and ran
    about 10% slower than points, and where fewer units than workers would
    idle some, each point is a task with all its draws.
    """
    n_points, n_draws = len(spec.sweep_values), spec.n_realizations
    n_units = min(n_draws, n_points)
    if spec.sweep_axis in _ROTATION_AXES or n_units < _worker_count(n_points):
        return [([i], range(n_draws)) for i in range(n_points)]
    return [(list(range(n_points)), draws) for draws in _runs(n_draws, n_units)]


def run_bounds_sweep(spec: ExperimentSpec) -> list[ResultRow]:
    """Bound statistics over hardware realizations at each sweep point.

    A draw whose bound fails drops out of that family. Where the link
    cannot identify a coordinate (:func:`~hwiloc.bounds.flat_coordinates`),
    every family leaves it out of its inverse: the scalars of that
    coordinate, and the position bound, are inf, and those of the other
    coordinate are finite.
    """
    if not any(f in spec.outputs for f in BOUND_FAMILIES):
        raise ConfigError("outputs request no bound family (crb_m2, crb_m1, lb)")
    if not any(s in spec.outputs for s in BOUND_SCALARS):
        raise ConfigError("outputs request no bound scalar (aeb, deb, peb)")
    points = [_point(spec, i) for i in range(len(spec.sweep_values))]
    units = _units(spec, _REALIZATION_STREAM)
    tasks = _bounds_tasks(spec)
    blocks = _map(
        _bounds_unit,
        [spec] * len(tasks),
        [[points[i] for i in indices] for indices, _ in tasks],
        [units[draws.start : draws.stop] for _, draws in tasks],
    )
    # the (point, draw) grid, P by R, each task's block written into its place
    shape = (len(points), spec.n_realizations)
    scalars = {f: np.empty((*shape, 3)) for f in _families(spec)}
    errors, stops = np.empty(shape, dtype=object), np.empty(shape, dtype=object)
    for (indices, draws), (block, block_errors, block_stops) in zip(tasks, blocks):
        at = np.ix_(indices, draws)
        for f, v in block.items():
            scalars[f][at] = v
        errors[at], stops[at] = block_errors, block_stops
    rows: list[ResultRow] = []
    for i, point in enumerate(points):
        per_family = {f: v[i] for f, v in scalars.items()}
        rows += _bounds_rows(spec, point, per_family, errors[i], stops[i])
    return sort_rows(rows)


def run_estimator_trials(spec: ExperimentSpec) -> list[ResultRow]:
    """Monte-Carlo position RMSE of the requested estimators per sweep point.

    The UE must sit inside the estimators' range scan, from RANGE_MIN_M up
    to :func:`~hwiloc.estimation.scan_limit_m`. Beyond one delay-ambiguity
    span the delay phasors repeat, so a fit lands on an alias of the true
    range. The link must identify both coordinates
    (:func:`~hwiloc.bounds.flat_coordinates`), or a fit would report an
    arbitrary point.
    """
    if not any(m in spec.outputs for m in ESTIMATOR_METRICS):
        raise ConfigError("outputs request no estimator metric (mmle_rmse, mle_m1_rmse)")
    flat = flat_coordinates(spec.system)
    if 0 in flat:
        raise ConfigError(
            "the estimators need n_antennas >= 2 and n_transmissions >= 2: with one "
            "antenna or one transmission the projection objective is flat in angle"
        )
    if 1 in flat:
        raise ConfigError(
            "the estimators need n_subcarriers >= 2: with one subcarrier the "
            "projection objective is flat in range"
        )
    ue_range = float(np.hypot(*spec.ue_position))
    top = scan_limit_m(spec.system.subcarrier_spacing_hz)
    if not RANGE_MIN_M <= ue_range < top:
        raise ConfigError(
            f"UE range {ue_range:.6g} m is outside the estimators' scan "
            f"[{RANGE_MIN_M:g}, {top:.6g}) m"
        )
    units = _units(spec, _TRIAL_STREAM)
    n = len(spec.sweep_values)
    runs = _runs(n, _worker_count(n))
    per_run = _map(_trials_points, [spec] * len(runs), runs, [units] * len(runs))
    return sort_rows([row for rows in per_run for row in rows])
