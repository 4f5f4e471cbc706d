"""Seeded experiment sweeps, Monte-Carlo estimator trials, CSV emission.

The sweep axis varies one knob (transmit power, an impairment spread, or
the amplifier switch) across its value list. At each point the bounds
runner draws hardware realizations and reports mean/min/max of every
requested bound scalar across them; the trials runner draws full
observations and reports the position RMSE of the requested estimators.
Both build a point's pilot block, its clean model and its pilots after the
PA once (per draw on the amplifier axis, which resamples the pilots), and
the bounds runner takes the clean CRB once per clean model. The trials
runner builds no model per trial: it draws each trial from its own
generator, then takes the rotations, couplings, means, observations and
pulled observations of TRIAL_CHUNK trials at a time as stacked arrays
(the rotations by FFT), writes them into one batch per estimator and fits
all trials of a point together.

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

from .bounds import BoundsReport, crb_m1_numeric, crb_m2_report, mismatch_report, pseudo_true
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


def _rng(master_seed: int, draw_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, draw_index, stream))
    )


def _shared_models(
    spec: ExperimentSpec, sys_cfg: SystemConfig, imp: ImpairmentConfig
) -> tuple[PilotBlock, ProjectionModel, np.ndarray] | None:
    """What every draw of a sweep point shares, built once per point: the
    pilot block, its clean model and its pilots after the PA (read-only);
    None on the amplifier axis.

    The amplifier axis resamples the pilot symbols per draw (the
    nonlinearity's effect depends on the transmitted waveform); every other
    axis keeps the seeded pilot block fixed and varies only the hardware, and
    the PA is deterministic in the pilots. Combiners stay fixed either way.
    """
    if spec.sweep_axis == "pa":
        return None
    block = PilotBlock.from_config(sys_cfg)
    sent = transmit_pilots(block.symbols, imp, sys_cfg)
    sent.flags.writeable = False
    return block, ProjectionModel.clean(sys_cfg, block, imp.coupling), sent


def _draw(
    spec: ExperimentSpec,
    sys_cfg: SystemConfig,
    imp: ImpairmentConfig,
    shared: tuple[PilotBlock, ProjectionModel, np.ndarray] | None,
    index: int,
    stream: int,
) -> tuple[np.random.Generator, ProjectionModel, ProjectionModel]:
    """One draw: its generator and the clean and impaired models of its
    pilot block and hardware realization (see :func:`_shared_models`).

    The generator is returned after the pilots and the realization have
    been drawn from it, so noise drawn next stays in the same order.
    """
    rng = _rng(spec.master_seed, index, stream)
    if shared is None:
        block = PilotBlock(
            symbols=generate_pilots(sys_cfg, rng), combiners=generate_combiners(sys_cfg)
        )
        clean = ProjectionModel.clean(sys_cfg, block, imp.coupling)
        sent = None  # the draw's own pilots go through the PA in impaired()
    else:
        block, clean, sent = shared
    real = sample_realization(imp, sys_cfg, rng)
    return rng, clean, ProjectionModel.impaired(sys_cfg, block, imp, real, sent)


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
    whose coordinate the link cannot identify (:func:`_flat_scalars`) is
    inf in every family.

    Two passes. Each draw builds its models, takes its impaired CRB and
    keeps only its clean model and impaired mean for the misspecified bound,
    so no impaired model (with its dense sandwich) outlives its draw. Then
    one descent fits the pseudo-trues of all draws together, and each
    draw's lb follows from its own and from the clean CRB, which is taken
    once per clean model: once per point off the amplifier axis.
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

    shared = _shared_models(spec, sys_cfg, imp)
    # the draws' impaired means in one block: one (G, K) array per draw,
    # interleaved with the sandwich builds, raised full.cfg's peak RSS by
    # about 0.2 MB
    cleans = []
    means = np.empty(
        (spec.n_realizations, sys_cfg.n_transmissions, sys_cfg.n_subcarriers), dtype=complex
    )
    for r in range(spec.n_realizations):
        _, clean, impaired = _draw(spec, sys_cfg, imp, shared, r, _REALIZATION_STREAM)
        cleans.append(clean)
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
            " ".join(f"{reason}={n}" for reason, n in sorted(stops.items())),
        )
    if "lb" in families or "crb_m2" in families:
        shared_crb = None if shared is None else crb_m2_report(theta, shared[1], sigma)
        for r, clean in enumerate(cleans):
            crb = crb_m2_report(theta, clean, sigma) if shared_crb is None else shared_crb
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
                "; ".join(f"{reason}={n}" for reason, n in sorted(reasons.items())),
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
    flat = _flat_scalars(sys_cfg)
    rows: list[ResultRow] = []
    for family in families:
        for scalar in scalars:
            metric = f"{family}_{scalar}"
            arr = np.array([_bound_scalar(family, scalar, rep) for rep in reports[family]])
            if scalar in flat:
                # a numerically singular matrix may still invert to finite
                # diagonals; the coordinate is not identifiable on this link
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


@dataclass
class Trials:
    """Trials of one sweep point as stacked arrays: what both estimators
    fit, with no model object per trial. Pilots of shape (G, K) are shared
    by every trial (off the amplifier axis)."""

    pilots: np.ndarray  # as sent, the clean chain's x~, (n, G, K) or (G, K)
    sent: np.ndarray  # after the PA, the impaired chain's x~, likewise
    rows: np.ndarray  # W C of each trial's full coupling, (n, G, N)
    rotations: np.ndarray  # phase-noise/CFO rotations, (n, G, K)
    y: np.ndarray  # observations, (n, G, K)


def _observe_trials(
    spec: ExperimentSpec,
    sys_cfg: SystemConfig,
    imp: ImpairmentConfig,
    shared: tuple[PilotBlock, ProjectionModel, np.ndarray] | None,
    trials: range,
) -> Trials:
    """The given trials of a sweep point, observed.

    Each trial's generator draws what :func:`_draw` draws, in its order
    (the pilots on the amplifier axis, then the realization), and then the
    noise, as :func:`~hwiloc.observation.observe` draws it: a given mean
    gives a bit-identical observation. The rest is computed once for the
    stack: the full couplings, the rotations, the means and the
    observations.
    """
    g, k, n_ant = sys_cfg.n_transmissions, sys_cfg.n_subcarriers, sys_cfg.n_antennas
    n = len(trials)
    if shared is None:
        combiners = generate_combiners(sys_cfg)
        pilots = np.empty((n, g, k), dtype=complex)
    else:
        block, _, sent = shared
        combiners, pilots = block.combiners, block.symbols
    pn, cfo = np.empty((n, g, k)), np.empty(n)
    residual = np.empty((n, n_ant, n_ant))
    noise = np.empty((n, g, k), dtype=complex)
    for i, t in enumerate(trials):
        rng = _rng(spec.master_seed, t, _TRIAL_STREAM)
        if shared is None:
            pilots[i] = generate_pilots(sys_cfg, rng)
        real = sample_realization(imp, sys_cfg, rng)
        pn[i], cfo[i], residual[i] = real.pn_phases, real.cfo, real.mc_residual
        noise[i] = unit_noise((g, k), rng)
    if shared is None:
        sent = transmit_pilots(pilots, imp, sys_cfg)
    rows = combiners @ mc_matrix(imp.coupling, residual, n_ant)
    rotations = phase_rotations(cfo, pn, sys_cfg)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    mean = impaired_means(theta, sys_cfg, rows, sent, rotations)
    y = mean + (noise_std(sys_cfg) / np.sqrt(2.0)) * noise
    return Trials(pilots, sent, rows, rotations, y)


def _fit_point(
    spec: ExperimentSpec,
    sys_cfg: SystemConfig,
    imp: ImpairmentConfig,
    metrics: list[str],
    est: EstimatorConfig,
) -> dict[str, Fits]:
    """Every trial of one sweep point, fitted by each requested estimator.

    The trials are observed TRIAL_CHUNK at a time (:func:`_observe_trials`)
    and each chunk joins one batch per estimator, with what that estimator
    fits: the clean chain's rows and pilots and the observations themselves
    for ``mmle_rmse``, each trial's impaired rows and pilots and its
    observation pulled back through its rotation for ``mle_m1_rmse``. Then
    each batch runs one Newton fit over all trials.
    """
    shared = _shared_models(spec, sys_cfg, imp)
    combiners = generate_combiners(sys_cfg) if shared is None else shared[0].combiners
    clean_rows = combiners @ mc_matrix(imp.coupling, None, sys_cfg.n_antennas)
    batches = {m: TrialBatch(sys_cfg, spec.n_trials, est) for m in metrics}
    for start in range(0, spec.n_trials, TRIAL_CHUNK):
        trials = range(start, min(start + TRIAL_CHUNK, spec.n_trials))
        chunk = _observe_trials(spec, sys_cfg, imp, shared, trials)
        for m, batch in batches.items():
            if m == "mmle_rmse":
                batch.add(clean_rows, chunk.pilots, chunk.y)
            else:
                batch.add(chunk.rows, chunk.sent, rotate(chunk.y, np.conj(chunk.rotations)))
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


def _flat_scalars(cfg: SystemConfig) -> set[str]:
    """The bound scalars that the link cfg cannot identify. With one antenna
    or one transmission the projection objective is flat in angle (the row
    gain |b_g|^2 cancels between the captured energy and its norm): aeb and
    peb. With one subcarrier it is flat in range (|d_1| = 1): deb and peb."""
    flat = set()
    if min(cfg.n_antennas, cfg.n_transmissions) < 2:
        flat |= {"aeb", "peb"}
    if cfg.n_subcarriers < 2:
        flat |= {"deb", "peb"}
    return flat


def _require_identifiable(cfg: SystemConfig, subject: str) -> None:
    """Raise ConfigError, led by subject ("the estimators need"), when the
    link cfg cannot identify both coordinates (:func:`_flat_scalars`)."""
    flat = _flat_scalars(cfg)
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
