"""Seeded experiment sweeps, Monte-Carlo estimator trials, CSV emission.

The sweep axis varies one knob (transmit power, an impairment spread, or
the amplifier switch) across its value list. At each point the bounds
runner draws hardware realizations and reports mean/min/max of every
requested bound scalar across them; the trials runner draws full
observations and reports the position RMSE of the requested estimators.
Both draw a point's hardware the same way, with one routine
(:func:`_draws`): each draw's generator draws the draw's pilots (on the
amplifier axis only, which resamples them) and its realization, and the
couplings are computed once for the stack. Off the amplifier axis a
point's pilots pass the PA once (:func:`_point`).

The bounds runner makes each point's clean model once off the amplifier
axis (:class:`BoundsPoint`), and takes each bound of a task's (point,
draw) pairs in one call as one stacked report, the pseudo-trues in one
descent (:func:`_bounds_unit`). A draw's generator does not depend on the
point, so off the phase-noise and CFO axes a draw has the same rotation at
every point: there a task is a unit of draws that covers every point, and
a draw's dense sandwich is built once for all of them; on those two axes a
task is a point (:func:`_bounds_tasks`). The trials
runner builds no model per trial: it draws each trial's noise from the
trial's generator, takes the rotations, means, observations and pulled
observations of TRIAL_CHUNK trials at a time as stacked arrays (the
rotations by FFT), writes both estimators' trials of a point into one
batch and fits them all in one Newton fit.

Determinism: every random draw derives from
SeedSequence((master_seed, draw_index, stream_tag)), so output is
byte-identical across runs, worker counts, bounds tasks and platforms. The
axis value is deliberately left out of the seed: sweep points share their
underlying unit draws (common random numbers), so a sweep compares the
same hardware scaled to different impairment levels and its mean curves
are paired rather than independently noisy. A process pool capped by the
HWI_LOC_THREADS environment variable maps over the bounds tasks and over
sweep points for the trials; rows are assembled per point, in draw order,
and sorted single-threaded.

Reporting units follow the plotting conventions of the study this package
supports: angle bounds in degrees, delay bounds converted to metres
(delay times the speed of light), position bounds and RMSE in metres.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
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
    PilotBlock,
    SystemConfig,
    generate_combiners,
    generate_pilots,
    geometric_params,
    noise_std,
    params_to_state,
)
from .observation import (
    ProjectionModel,
    impaired_means,
    phase_rotations,
    rotate,
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
    pilots: np.ndarray | None  # as sent, (G, K); None on the amplifier axis
    sent: np.ndarray | None  # after the PA, (G, K); None on the amplifier axis


def _point(spec: ExperimentSpec, axis_index: int) -> Point:
    """Sweep point axis_index. Off the amplifier axis its draws keep the
    seeded pilot block, which passes the PA here, once for all of them; on
    it each draw draws its own pilots (:func:`_draws`). Combiners stay
    fixed either way."""
    value = spec.sweep_values[axis_index]
    sys_cfg, imp = apply_sweep_value(spec, value)
    pilots = sent = None
    if spec.sweep_axis != "pa":
        pilots = generate_pilots(sys_cfg)
        sent = transmit_pilots(pilots, imp, sys_cfg)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    return Point(value, sys_cfg, imp, theta, generate_combiners(sys_cfg), pilots, sent)


@dataclass
class Draws:
    """The hardware of some draws of one sweep point as stacked arrays
    (:func:`_draws`). Off the amplifier axis every draw has the point's
    pilots, and pilots and sent are (G, K); on it they are (n, G, K)."""

    combiners: np.ndarray  # W, (G, N)
    pilots: np.ndarray  # as sent, the clean chain's x~
    sent: np.ndarray  # after the PA, the impaired chain's x~
    couplings: np.ndarray  # full couplings C, (n, N, N)
    pn: np.ndarray  # phase-noise phases, (n, G, K)
    cfo: np.ndarray  # (n,)
    rngs: list[np.random.Generator]  # each positioned after its realization

    def slot(self, array: np.ndarray, index: int | slice) -> np.ndarray:
        """pilots or sent (array) of the draws at index."""
        return array if array.ndim == 2 else array[index]

    def clean(self, cfg: SystemConfig, coupling: tuple, r: int) -> ProjectionModel:
        """Draw r's clean model."""
        block = PilotBlock(self.slot(self.pilots, r), self.combiners)
        return ProjectionModel.clean(cfg, block, coupling)

    def impaired(self, cfg: SystemConfig, r: int) -> ProjectionModel:
        """Draw r's impaired model without M_g. M_g is unitary and
        theta-free, so this model's FIM and unrotated mean are the impaired
        model's; the draw's rotation, where needed, is
        phase_rotations(cfo[r], pn[r], cfg)."""
        return ProjectionModel(cfg, self.combiners, self.couplings[r], self.slot(self.sent, r))


def _draws(spec: ExperimentSpec, point: Point, indices: range, stream: int) -> Draws:
    """The draws of the given indices at a sweep point, for both sweeps.

    Each index has its own generator, seeded by (master_seed, index,
    stream), which draws the pilot symbols on the amplifier axis only, then
    the realization. The amplifier axis resamples the pilots per draw (the
    nonlinearity's effect depends on the transmitted waveform) and puts
    them through the PA here, once for the stack; every other axis keeps the
    point's pilots and varies only the hardware. The couplings are computed
    once for the stack. The generators are returned after the realization:
    noise drawn from them next is the noise of
    :func:`~hwiloc.observation.observe`.
    """
    sys_cfg, imp = point.sys_cfg, point.imp
    g, k, n_ant = sys_cfg.n_transmissions, sys_cfg.n_subcarriers, sys_cfg.n_antennas
    n = len(indices)
    resample = point.pilots is None
    pilots = np.empty((n, g, k), dtype=complex) if resample else point.pilots
    pn, cfo, residual = np.empty((n, g, k)), np.empty(n), np.empty((n, n_ant, n_ant))
    rngs = []
    for i, index in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence((spec.master_seed, index, stream)))
        if resample:
            pilots[i] = generate_pilots(sys_cfg, rng)
        real = sample_realization(imp, sys_cfg, rng)
        pn[i], cfo[i], residual[i] = real.pn_phases, real.cfo, real.mc_residual
        rngs.append(rng)
    sent = transmit_pilots(pilots, imp, sys_cfg) if resample else point.sent
    couplings = mc_matrix(imp.coupling, residual, n_ant)
    return Draws(point.combiners, pilots, sent, couplings, pn, cfo, rngs)


def _bound_scalars(family: str, rep: BoundsReport) -> np.ndarray:
    """A stacked report's scalars in the CSV's units, (n, 3): aeb in
    degrees, deb and peb in metres (BOUND_SCALARS' order)."""
    prefix = "lb_" if family == "lb" else ""
    aeb, deb, peb = (getattr(rep, prefix + name) for name in ("aeb_rad", "deb_s", "peb_m"))
    return np.stack([np.rad2deg(aeb), deb * SPEED_OF_LIGHT, peb], axis=-1)


def _families(spec: ExperimentSpec) -> list[str]:
    return [f for f in ("lb", "crb_m2", "crb_m1") if f in spec.outputs]


@dataclass
class BoundsPoint:
    """A bounds sweep point with the clean model that its draws share off
    the amplifier axis, made once per point; None on the amplifier axis,
    where each draw has its own pilots."""

    point: Point
    clean: ProjectionModel | None

    @staticmethod
    def build(spec: ExperimentSpec, axis_index: int) -> "BoundsPoint":
        point = _point(spec, axis_index)
        clean = None
        if point.pilots is not None:
            block = PilotBlock(point.pilots, point.combiners)
            clean = ProjectionModel.clean(point.sys_cfg, block, point.imp.coupling)
        return BoundsPoint(point, clean)


@dataclass
class Outcomes:
    """What some draws of one sweep point gave, draw by draw: for each bound
    family the draws' scalars (:func:`_bound_scalars`), NaN where a draw's
    bound failed, and when lb is requested the reason each draw's lb failed
    (None where it did not) and the pseudo-true stops."""

    scalars: dict[str, np.ndarray]  # (n, 3) per family
    errors: list[str | None]
    stops: list[str]


def _bounds_unit(
    spec: ExperimentSpec, points: list[BoundsPoint], indices: range
) -> list[Outcomes]:
    """The bounds of the draws of the given indices at each of the given
    sweep points, one :class:`Outcomes` per point.

    Each point draws these indices (:func:`_draws`). Every bound takes all
    (point, draw) pairs of the task in one call, each pair bit for bit as on
    its own: the impaired and the clean CRBs, one descent for the
    pseudo-trues and the lb of every pair whose fit succeeded. A draw's
    generator does not depend on the point, so off the phase-noise and CFO
    axes a draw has the same rotation at every point: its dense sandwich
    (:func:`~hwiloc.observation.sandwich_matrices`, as
    :meth:`~hwiloc.observation.ProjectionModel.eta` applies it) is built
    again only for a point whose rotation differs from the previous one's.
    """
    families = _families(spec)
    n = len(indices)
    draws = [_draws(spec, bp.point, indices, _REALIZATION_STREAM) for bp in points]
    # the (point, draw) pairs, point-major
    pairs = [(bp, d, r) for bp, d in zip(points, draws) for r in range(n)]
    thetas = [bp.point.theta for bp, _, _ in pairs]
    sigmas = [noise_std(bp.point.sys_cfg) for bp, _, _ in pairs]
    cleans = [
        bp.clean if bp.clean is not None else d.clean(bp.point.sys_cfg, bp.point.imp.coupling, r)
        for bp, d, r in pairs
    ]
    scalars: dict[str, np.ndarray] = {}
    errors: list[str | None] = []
    stops: list[str] = []
    if "crb_m1" in families:
        # the lb makes each impaired model again: all of them held over its
        # sandwiches raised full.cfg's peak RSS by about 0.25 MB
        models = [d.impaired(bp.point.sys_cfg, r) for bp, d, r in pairs]
        scalars["crb_m1"] = _bound_scalars("crb_m1", crb_m1_numeric(thetas, models, sigmas))
        del models
    if {"lb", "crb_m2"} & set(families):
        crbs = crb_m2_report(thetas, cleans, sigmas)
        if "crb_m2" in families:
            scalars["crb_m2"] = _bound_scalars("crb_m2", crbs)
    if "lb" in families:
        means = np.empty((len(pairs), *cleans[0].eff_pilots.shape), dtype=complex)
        for r in range(n):
            rotation = None
            for i in range(r, len(pairs), n):
                bp, d, _ = pairs[i]
                this = phase_rotations(d.cfo[r], d.pn[r], bp.point.sys_cfg)
                if rotation is None or not np.array_equal(this, rotation):
                    rotation, sandwich = this, sandwich_matrices(this)
                v = d.impaired(bp.point.sys_cfg, r).unrotated(thetas[i].aoa, thetas[i].delay)
                means[i] = thetas[i].gain * np.einsum("gij,gj->gi", sandwich, v)
            # freed here: held over the next draw's bounds, it raised
            # full.cfg's peak RSS by about 1.3 MB
            del sandwich
        theta0s, fits = pseudo_true(thetas, cleans, means)
        stops, errors = fits.stops.tolist(), list(fits.errors)
        fitted = np.flatnonzero([theta0 is not None for theta0 in theta0s])
        scalars["lb"] = np.full((len(pairs), 3), np.nan)
        if fitted.size:
            args = (thetas, theta0s, cleans, means, sigmas)
            rep = mismatch_report(*([arg[i] for i in fitted] for arg in args), crbs.take(fitted))
            scalars["lb"][fitted] = _bound_scalars("lb", rep)
            for i, error in zip(fitted, rep.errors):
                errors[i] = error
    per_point = [slice(p * n, (p + 1) * n) for p in range(len(points))]
    return [Outcomes({f: v[o] for f, v in scalars.items()}, errors[o], stops[o]) for o in per_point]


def _bounds_rows(spec: ExperimentSpec, point: Point, outcomes: list[Outcomes]) -> list[ResultRow]:
    """Bound rows of one sweep point from the outcomes of its draws, in draw
    order. A draw whose bound fails drops out of that family only: each
    family counts its own surviving draws, and one WARNING line counts the
    failed draws by reason. A scalar whose coordinate the link cannot
    identify (:func:`~hwiloc.bounds.flat_coordinates`) is inf in every
    family."""
    value = point.value
    families = _families(spec)
    scalars = [s for s in BOUND_SCALARS if s in spec.outputs]
    results = {f: np.concatenate([o.scalars[f] for o in outcomes]) for f in families}
    survivors = {f: r[~np.isnan(r).any(axis=1)] for f, r in results.items()}
    if "lb" in families:
        stops = Counter(s for o in outcomes for s in o.stops)
        logger.info(
            "bounds: sweep value %r pseudo-true stops: %s",
            value,
            " ".join(f"{reason}={count}" for reason, count in sorted(stops.items())),
        )
        reasons = Counter(e for o in outcomes for e in o.errors if e is not None)
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
        for scalar in scalars:
            metric = f"{family}_{scalar}"
            arr = survivors[family][:, BOUND_SCALARS.index(scalar)]
            for stat, v in (("mean", arr.mean()), ("min", arr.min()), ("max", arr.max())):
                rows.append(
                    ResultRow(
                        sweep_value=float(value),
                        metric=metric,
                        statistic=stat,
                        value=float(v),
                        units=metric_units(metric),
                        realizations=len(arr),
                        trials=0,
                    )
                )
    return rows


def _fit_point(
    spec: ExperimentSpec, point: Point, metrics: list[str], est: EstimatorConfig
) -> dict[str, Fits]:
    """Every trial of one sweep point, fitted by each requested estimator.

    The point's trials are drawn once (:func:`_draws`). Then TRIAL_CHUNK
    trials at a time get their rotations, means, noise, observations and
    pulled observations as stacked arrays, and join one batch, once per
    estimator with what that estimator fits: the clean chain's rows and
    pilots and the observations themselves for ``mmle_rmse``, each trial's
    impaired rows and pilots and its observation pulled back through its
    rotation for ``mle_m1_rmse``. Then the batch runs one Newton fit over
    every trial of both; each estimator's fits are its own slots, and no
    fit depends on the others in the batch. A trial's observation is bit
    for bit the one that :func:`~hwiloc.observation.observe` draws from
    its generator for a given mean.
    """
    sys_cfg, theta = point.sys_cfg, point.theta
    g, k = sys_cfg.n_transmissions, sys_cfg.n_subcarriers
    draws = _draws(spec, point, range(spec.n_trials), _TRIAL_STREAM)
    clean_rows = draws.combiners @ mc_matrix(point.imp.coupling, None, sys_cfg.n_antennas)
    scale = noise_std(sys_cfg) / np.sqrt(2.0)
    batch = TrialBatch(sys_cfg, len(metrics) * spec.n_trials, est)
    slots: dict[str, list[int]] = {m: [] for m in metrics}
    for start in range(0, spec.n_trials, TRIAL_CHUNK):
        chunk = slice(start, start + TRIAL_CHUNK)
        rows = draws.combiners @ draws.couplings[chunk]
        sent = draws.slot(draws.sent, chunk)
        rotations = phase_rotations(draws.cfo[chunk], draws.pn[chunk], sys_cfg)
        noise = np.array([unit_noise((g, k), rng) for rng in draws.rngs[chunk]])
        y = impaired_means(theta, sys_cfg, rows, sent, rotations) + scale * noise
        for m in metrics:
            if m == "mmle_rmse":
                slots[m] += batch.add(clean_rows, draws.slot(draws.pilots, chunk), y)
            else:
                slots[m] += batch.add(rows, sent, rotate(y, np.conj(rotations)))
    fits = batch.fit()
    return {m: fits.take(np.array(own)) for m, own in slots.items()}


def _trials_point(spec: ExperimentSpec, axis_index: int) -> list[ResultRow]:
    point = _point(spec, axis_index)
    value = point.value
    p_true = params_to_state(point.theta).position
    metrics = [m for m in ESTIMATOR_METRICS if m in spec.outputs]
    fits = _fit_point(spec, point, metrics, EstimatorConfig())
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
        rows.append(
            ResultRow(
                sweep_value=float(value),
                metric=m,
                statistic="mean",
                value=float(np.sqrt(np.mean(squared[m]))),
                units="m",
                realizations=spec.n_trials,
                trials=squared[m].size,
            )
        )
    return rows


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
    edges = [n_draws * u // n_units for u in range(n_units + 1)]
    return [(list(range(n_points)), range(a, b)) for a, b in zip(edges, edges[1:])]


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
    points = [BoundsPoint.build(spec, i) for i in range(len(spec.sweep_values))]
    tasks = _bounds_tasks(spec)
    per_task = _map(
        _bounds_unit,
        [spec] * len(tasks),
        [[points[i] for i in indices] for indices, _ in tasks],
        [draws for _, draws in tasks],
    )
    per_point: list[list[Outcomes]] = [[] for _ in points]
    for (indices, _), outcomes in zip(tasks, per_task):
        for i, o in zip(indices, outcomes):
            per_point[i].append(o)
    return sort_rows(
        [row for bp, o in zip(points, per_point) for row in _bounds_rows(spec, bp.point, o)]
    )


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
    n = len(spec.sweep_values)
    per_point = _map(_trials_point, [spec] * n, range(n))
    return sort_rows([row for rows in per_point for row in rows])
