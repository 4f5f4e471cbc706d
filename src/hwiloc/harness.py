"""Seeded experiment sweeps, Monte-Carlo estimator trials, CSV emission.

The sweep axis varies one knob (transmit power, an impairment spread, or
the amplifier switch) across its value list. At each point the bounds
runner draws hardware realizations and reports mean/min/max of every
requested bound scalar across them; the trials runner draws full
observations and reports the position RMSE of the requested estimators.
Both draw a point's hardware the same way, with one routine
(:func:`_draws`): each draw's generator draws the draw's pilots (on the
amplifier axis only, which resamples them) and its realization, and the
couplings and the pilots after the PA are computed once for the stack, so
off the amplifier axis the PA runs once per point. The bounds runner
builds each draw's impaired model from its slot, one at a time, and the
clean model and its CRB once per point off the amplifier axis. The trials
runner builds no model per trial: it draws each trial's noise from the
trial's generator, takes the rotations, means, observations and pulled
observations of TRIAL_CHUNK trials at a time as stacked arrays (the
rotations by FFT), writes them into one batch per estimator and fits all
trials of a point together.

Determinism: every random draw derives from
SeedSequence((master_seed, draw_index, stream_tag)), so output is
byte-identical across runs, worker counts and platforms. The axis value is
deliberately left out of the seed: sweep points share their underlying
unit draws (common random numbers), so a sweep compares the same hardware
scaled to different impairment levels and its mean curves are paired
rather than independently noisy. Sweep points run in a process pool
capped by the HWI_LOC_THREADS environment variable; rows are assembled
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
    flat_scalars,
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
        """Draw r's impaired model, with its rotation built here: a point's
        rotations held stacked would outweigh one model's."""
        rotation = phase_rotations(self.cfo[r], self.pn[r], cfg)
        return ProjectionModel(
            cfg, self.combiners, self.couplings[r], self.slot(self.sent, r), rotation
        )


def _draws(
    spec: ExperimentSpec,
    sys_cfg: SystemConfig,
    imp: ImpairmentConfig,
    indices: range,
    stream: int,
) -> Draws:
    """The draws of the given indices at a sweep point, for both sweeps.

    Each index has its own generator, seeded by (master_seed, index,
    stream), which draws the pilot symbols on the amplifier axis only, then
    the realization. The amplifier axis resamples the pilots per draw (the
    nonlinearity's effect depends on the transmitted waveform); every other
    axis keeps the point's seeded pilot block and varies only the hardware.
    Combiners stay fixed either way. The couplings and the pilots after the
    PA are computed once for the stack, so off the amplifier axis the PA
    runs once per call. The generators are returned after the realization:
    noise drawn from them next is the noise of
    :func:`~hwiloc.observation.observe`.
    """
    g, k, n_ant = sys_cfg.n_transmissions, sys_cfg.n_subcarriers, sys_cfg.n_antennas
    n = len(indices)
    resample = spec.sweep_axis == "pa"
    pilots = np.empty((n, g, k), dtype=complex) if resample else generate_pilots(sys_cfg)
    pn, cfo, residual = np.empty((n, g, k)), np.empty(n), np.empty((n, n_ant, n_ant))
    rngs = []
    for i, index in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence((spec.master_seed, index, stream)))
        if resample:
            pilots[i] = generate_pilots(sys_cfg, rng)
        real = sample_realization(imp, sys_cfg, rng)
        pn[i], cfo[i], residual[i] = real.pn_phases, real.cfo, real.mc_residual
        rngs.append(rng)
    sent = transmit_pilots(pilots, imp, sys_cfg)
    couplings = mc_matrix(imp.coupling, residual, n_ant)
    return Draws(generate_combiners(sys_cfg), pilots, sent, couplings, pn, cfo, rngs)


def _bound_scalar(family: str, scalar: str, rep: BoundsReport) -> float:
    if family == "lb":
        aeb, deb, peb = rep.lb_aeb_rad, rep.lb_deb_s, rep.lb_peb_m
    else:
        aeb, deb, peb = rep.aeb_rad, rep.deb_s, rep.peb_m
    if scalar == "aeb":
        return float(np.rad2deg(aeb))
    if scalar == "deb":
        return float(deb * SPEED_OF_LIGHT)
    return float(peb)


def _bounds_point(spec: ExperimentSpec, axis_index: int) -> list[ResultRow]:
    """Bound rows of one sweep point. A draw whose bound fails drops out of
    that family only: each family counts its own surviving draws, and one
    WARNING line per family counts the failed draws by reason. A scalar
    whose coordinate the link cannot identify
    (:func:`~hwiloc.bounds.flat_scalars`) is inf in every family.

    Two passes over the point's draws (:func:`_draws`). Each draw builds
    its impaired model from its slot, takes its impaired CRB and keeps only
    its impaired mean for the misspecified bound, so no impaired model
    (with its dense sandwich) outlives its draw. Then one descent fits the
    pseudo-trues of all draws together, and each draw's lb follows from its
    own and from the clean CRB, which is taken once per clean model: once
    per point off the amplifier axis.
    """
    value = spec.sweep_values[axis_index]
    sys_cfg, imp = apply_sweep_value(spec, value)
    sigma = noise_std(sys_cfg)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    families = [f for f in ("lb", "crb_m2", "crb_m1") if f in spec.outputs]
    scalars = [s for s in BOUND_SCALARS if s in spec.outputs]
    reports: dict[str, list[BoundsReport]] = {f: [] for f in families}
    failures: dict[str, Counter] = {f: Counter() for f in families}

    def attempt(family: str, bound, *args) -> None:
        try:
            reports[family].append(bound(*args))
        except NumericError as exc:
            failures[family][str(exc)] += 1

    n = spec.n_realizations
    draws = _draws(spec, sys_cfg, imp, range(n), _REALIZATION_STREAM)

    def per_draw(make) -> list:
        # one for all draws where they share the point's pilots
        return [make(0)] * n if draws.pilots.ndim == 2 else [make(r) for r in range(n)]

    cleans = per_draw(lambda r: draws.clean(sys_cfg, imp.coupling, r))
    # the draws' impaired means in one block: one (G, K) array per draw,
    # interleaved with the sandwich builds, raised full.cfg's peak RSS by
    # about 0.2 MB
    means = np.empty((n, sys_cfg.n_transmissions, sys_cfg.n_subcarriers), dtype=complex)
    for r in range(n):
        impaired = draws.impaired(sys_cfg, r)
        if "crb_m1" in families:
            attempt("crb_m1", crb_m1_numeric, theta, impaired, sigma)
        if "lb" in families:
            means[r] = impaired.mean(theta)
        del impaired  # with its cached sandwich, before the next draw
    if "lb" in families:
        theta0s, fits = pseudo_true(theta, cleans, means)
        stops = Counter(fits.stops.tolist())
        logger.info(
            "bounds: sweep value %r pseudo-true stops: %s",
            value,
            " ".join(f"{reason}={count}" for reason, count in sorted(stops.items())),
        )
    if "lb" in families or "crb_m2" in families:
        crbs = per_draw(lambda r: crb_m2_report(theta, cleans[r], sigma))
        for r, (clean, crb) in enumerate(zip(cleans, crbs)):
            if "crb_m2" in families:
                reports["crb_m2"].append(crb)
            if "lb" in families:
                if theta0s[r] is None:
                    failures["lb"][fits.errors[r]] += 1
                else:
                    attempt("lb", mismatch_report, theta, theta0s[r], clean, means[r], sigma, crb)
    for family, reasons in failures.items():
        if reasons:
            logger.warning(
                "bounds: sweep value %r %s failed for %d of %d realizations: %s",
                value,
                family,
                sum(reasons.values()),
                spec.n_realizations,
                "; ".join(f"{reason}={count}" for reason, count in sorted(reasons.items())),
            )
    empty = [f for f in families if not reports[f]]
    if "lb" in empty:
        # every draw's lb failing on a link that cannot identify a
        # coordinate is the configuration's doing, not a numeric failure
        _require_identifiable(sys_cfg, "the misspecified bound lb needs")
    if empty:
        names = ", ".join(empty)
        logger.warning("bounds: no surviving realizations for %s at %r", names, value)
        raise NumericError(f"no surviving realizations for {names} at sweep value {value!r}")
    flat = flat_scalars(sys_cfg)
    rows: list[ResultRow] = []
    for family in families:
        for scalar in scalars:
            metric = f"{family}_{scalar}"
            arr = np.array([_bound_scalar(family, scalar, rep) for rep in reports[family]])
            if family == "lb" and scalar in flat:
                # lb inverts its whole curvature matrix, which may round to
                # finite diagonals where the coordinate is not identifiable
                arr[:] = np.inf
            for stat, v in (("mean", arr.mean()), ("min", arr.min()), ("max", arr.max())):
                rows.append(
                    ResultRow(
                        sweep_value=float(value),
                        metric=metric,
                        statistic=stat,
                        value=float(v),
                        units=metric_units(metric),
                        realizations=len(reports[family]),
                        trials=0,
                    )
                )
    return rows


def _fit_point(
    spec: ExperimentSpec,
    sys_cfg: SystemConfig,
    imp: ImpairmentConfig,
    metrics: list[str],
    est: EstimatorConfig,
) -> dict[str, Fits]:
    """Every trial of one sweep point, fitted by each requested estimator.

    The point's trials are drawn once (:func:`_draws`). Then TRIAL_CHUNK
    trials at a time get their rotations, means, noise, observations and
    pulled observations as stacked arrays, and join one batch per
    estimator with what that estimator fits: the clean chain's rows and
    pilots and the observations themselves for ``mmle_rmse``, each trial's
    impaired rows and pilots and its observation pulled back through its
    rotation for ``mle_m1_rmse``. Then each batch runs one Newton fit over
    all trials. A trial's observation is bit for bit the one that
    :func:`~hwiloc.observation.observe` draws from its generator for a
    given mean.
    """
    g, k = sys_cfg.n_transmissions, sys_cfg.n_subcarriers
    draws = _draws(spec, sys_cfg, imp, range(spec.n_trials), _TRIAL_STREAM)
    clean_rows = draws.combiners @ mc_matrix(imp.coupling, None, sys_cfg.n_antennas)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    scale = noise_std(sys_cfg) / np.sqrt(2.0)
    batches = {m: TrialBatch(sys_cfg, spec.n_trials, est) for m in metrics}
    for start in range(0, spec.n_trials, TRIAL_CHUNK):
        chunk = slice(start, start + TRIAL_CHUNK)
        rows = draws.combiners @ draws.couplings[chunk]
        sent = draws.slot(draws.sent, chunk)
        rotations = phase_rotations(draws.cfo[chunk], draws.pn[chunk], sys_cfg)
        noise = np.array([unit_noise((g, k), rng) for rng in draws.rngs[chunk]])
        y = impaired_means(theta, sys_cfg, rows, sent, rotations) + scale * noise
        for m, batch in batches.items():
            if m == "mmle_rmse":
                batch.add(clean_rows, draws.slot(draws.pilots, chunk), y)
            else:
                batch.add(rows, sent, rotate(y, np.conj(rotations)))
    return {m: batch.fit() for m, batch in batches.items()}


def _trials_point(spec: ExperimentSpec, axis_index: int) -> list[ResultRow]:
    value = spec.sweep_values[axis_index]
    sys_cfg, imp = apply_sweep_value(spec, value)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    p_true = params_to_state(theta).position
    metrics = [m for m in ESTIMATOR_METRICS if m in spec.outputs]
    fits = _fit_point(spec, sys_cfg, imp, metrics, EstimatorConfig())
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


def _worker_count(n_points: int) -> int:
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
    return max(1, min(limit, n_points))


def _run_points(spec: ExperimentSpec, worker) -> list[ResultRow]:
    n = len(spec.sweep_values)
    workers = _worker_count(n)
    if workers == 1:
        per_point = [worker(spec, i) for i in range(n)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(worker, [spec] * n, range(n)))
    return sort_rows([row for rows in per_point for row in rows])


def _require_identifiable(cfg: SystemConfig, subject: str) -> None:
    """Raise ConfigError, led by subject ("the estimators need"), when the
    link cfg cannot identify both coordinates
    (:func:`~hwiloc.bounds.flat_scalars`)."""
    flat = flat_scalars(cfg)
    if "aeb" in flat:
        raise ConfigError(
            f"{subject} n_antennas >= 2 and n_transmissions >= 2: with one "
            "antenna or one transmission the projection objective is flat in angle"
        )
    if "deb" in flat:
        raise ConfigError(
            f"{subject} n_subcarriers >= 2: with one subcarrier the "
            "projection objective is flat in range"
        )


def run_bounds_sweep(spec: ExperimentSpec) -> list[ResultRow]:
    """Bound statistics over hardware realizations at each sweep point.

    A draw whose bound fails drops out of that family. When no draw of a
    point has an lb and the link cannot identify a coordinate
    (:func:`_require_identifiable`), the run is a ConfigError naming it;
    otherwise the scalars of that coordinate, and the position bound, are
    inf in every family.
    """
    if not any(f in spec.outputs for f in BOUND_FAMILIES):
        raise ConfigError("outputs request no bound family (crb_m2, crb_m1, lb)")
    if not any(s in spec.outputs for s in BOUND_SCALARS):
        raise ConfigError("outputs request no bound scalar (aeb, deb, peb)")
    return _run_points(spec, _bounds_point)


def run_estimator_trials(spec: ExperimentSpec) -> list[ResultRow]:
    """Monte-Carlo position RMSE of the requested estimators per sweep point.

    The UE must sit inside the estimators' range scan, from RANGE_MIN_M up
    to :func:`~hwiloc.estimation.scan_limit_m`. Beyond one delay-ambiguity
    span the delay phasors repeat, so a fit lands on an alias of the true
    range. The link must identify both coordinates
    (:func:`_require_identifiable`), or a fit would report an arbitrary point.
    """
    if not any(m in spec.outputs for m in ESTIMATOR_METRICS):
        raise ConfigError("outputs request no estimator metric (mmle_rmse, mle_m1_rmse)")
    _require_identifiable(spec.system, "the estimators need")
    ue_range = float(np.hypot(*spec.ue_position))
    top = scan_limit_m(spec.system.subcarrier_spacing_hz)
    if not RANGE_MIN_M <= ue_range < top:
        raise ConfigError(
            f"UE range {ue_range:.6g} m is outside the estimators' scan "
            f"[{RANGE_MIN_M:g}, {top:.6g}) m"
        )
    return _run_points(spec, _trials_point)
