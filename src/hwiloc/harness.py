"""Seeded experiment sweeps, Monte-Carlo estimator trials, CSV emission.

The sweep axis varies one knob (transmit power, an impairment spread, or
the amplifier switch) across its value list. At each point the bounds
runner draws hardware realizations and reports mean/min/max of every
requested bound scalar across them; the trials runner draws full
observations and reports the position RMSE of the requested estimators.
Both build a point's pilot block and clean model once (per draw on the
amplifier axis, which resamples the pilots), and the trials runner fits
all trials of a point together, in one batch per estimator.

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
from .impairments import ImpairmentConfig, sample_realization
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
from .observation import ProjectionModel, observe

logger = logging.getLogger(__name__)

CSV_HEADER = "sweep_value,metric,statistic,value,units,realizations,trials"

_STAT_ORDER = {"mean": 0, "min": 1, "max": 2}
# stream tags keep bound realizations and estimator trials on disjoint
# random streams even when indices collide
_REALIZATION_STREAM = 0
_TRIAL_STREAM = 1


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
) -> tuple[PilotBlock, ProjectionModel] | None:
    """The pilot block and clean model that every draw of a sweep point
    shares, built once per point; None on the amplifier axis.

    The amplifier axis resamples the pilot symbols per draw (the
    nonlinearity's effect depends on the transmitted waveform); every other
    axis keeps the seeded pilot block fixed and varies only the hardware.
    Combiners stay fixed either way.
    """
    if spec.sweep_axis == "pa":
        return None
    block = PilotBlock.from_config(sys_cfg)
    return block, ProjectionModel.clean(sys_cfg, block, imp.coupling)


def _draw(
    spec: ExperimentSpec,
    sys_cfg: SystemConfig,
    imp: ImpairmentConfig,
    shared: tuple[PilotBlock, ProjectionModel] | None,
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
    else:
        block, clean = shared
    real = sample_realization(imp, sys_cfg, rng)
    return rng, clean, ProjectionModel.impaired(sys_cfg, block, imp, real)


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
    that family only: each family counts its own surviving draws.

    Two passes. Each draw builds its models, takes its impaired CRB and
    keeps only its clean model and impaired mean for the misspecified bound,
    so no impaired model (with its dense sandwich) outlives its draw. Then
    one descent fits the pseudo-trues of all draws together, and each
    draw's lb follows from its own. The clean CRB is taken from the draw's
    lb report when there is one, which carries it.
    """
    value = spec.sweep_values[axis_index]
    sys_cfg, imp = apply_sweep_value(spec, value)
    sigma = noise_std(sys_cfg)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    families = [f for f in ("lb", "crb_m2", "crb_m1") if f in spec.outputs]
    scalars = [s for s in BOUND_SCALARS if s in spec.outputs]
    reports: dict[str, list[BoundsReport]] = {f: [] for f in families}

    def failed(family: str, r: int, error) -> None:
        logger.warning(
            "bounds: sweep value %r realization %d %s failed: %s", value, r, family, error
        )

    def attempt(family: str, r: int, bound, *args) -> BoundsReport | None:
        try:
            rep = bound(*args)
        except NumericError as exc:
            failed(family, r, exc)
            return None
        reports[family].append(rep)
        return rep

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
            attempt("crb_m1", r, crb_m1_numeric, theta, impaired, sigma)
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
    for r, clean in enumerate(cleans):
        lb = None
        if "lb" in families:
            if theta0s[r] is None:
                failed("lb", r, fits.errors[r])
            else:
                lb = attempt("lb", r, mismatch_report, theta, theta0s[r], clean, means[r], sigma)
        if "crb_m2" in families:
            if lb is None:
                attempt("crb_m2", r, crb_m2_report, theta, clean, sigma)
            else:
                reports["crb_m2"].append(lb)
    empty = ", ".join(f for f in families if not reports[f])
    if empty:
        logger.warning("bounds: no surviving realizations for %s at %r", empty, value)
        raise NumericError(f"no surviving realizations for {empty} at sweep value {value!r}")
    rows: list[ResultRow] = []
    for family in families:
        for scalar in scalars:
            metric = f"{family}_{scalar}"
            arr = np.array([_bound_scalar(family, scalar, rep) for rep in reports[family]])
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

    Each trial observes its impaired model's mean plus noise. The
    observation joins one batch per estimator, with the model that
    estimator fits: the clean one for ``mmle_rmse``, the trial's impaired
    one for ``mle_m1_rmse``. Each batch keeps only what its fit reads, so a
    trial's impaired model lives only while the trial is drawn; then each
    batch runs one Newton fit over all trials.
    """
    sigma = noise_std(sys_cfg)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    shared = _shared_models(spec, sys_cfg, imp)
    batches = {m: TrialBatch(sys_cfg, spec.n_trials, est) for m in metrics}
    for t in range(spec.n_trials):
        rng, clean, impaired = _draw(spec, sys_cfg, imp, shared, t, _TRIAL_STREAM)
        y = observe(impaired.mean(theta), sigma, rng)
        for m, batch in batches.items():
            batch.add(y, clean if m == "mmle_rmse" else impaired)
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


def run_bounds_sweep(spec: ExperimentSpec) -> list[ResultRow]:
    """Bound statistics over hardware realizations at each sweep point."""
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
    range. The link must identify both coordinates: with one antenna or one
    transmission the projection objective is flat in angle (the row gain
    |b_g|^2 cancels between the captured energy and its norm), and with one
    subcarrier it is flat in range (|d_1| = 1), so a fit would report an
    arbitrary point.
    """
    if not any(m in spec.outputs for m in ESTIMATOR_METRICS):
        raise ConfigError("outputs request no estimator metric (mmle_rmse, mle_m1_rmse)")
    cfg = spec.system
    if min(cfg.n_antennas, cfg.n_transmissions) < 2:
        raise ConfigError(
            "the estimators need n_antennas >= 2 and n_transmissions >= 2: with one "
            "antenna or one transmission the projection objective is flat in angle"
        )
    if cfg.n_subcarriers < 2:
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
    return _run_points(spec, _trials_point)
