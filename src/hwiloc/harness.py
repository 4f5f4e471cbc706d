"""Seeded experiment sweeps, Monte-Carlo estimator trials, CSV emission.

The sweep axis varies one knob (transmit power, an impairment spread, or
the amplifier switch) across its value list. At each point the bounds
runner draws hardware realizations and reports mean/min/max of every
requested bound scalar across them; the trials runner draws full
observations and reports the position RMSE of the requested estimators.

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

from .bounds import BoundsReport, crb_m1_numeric, crb_m2_report, lb_report
from .config_io import (
    BOUND_FAMILIES,
    BOUND_SCALARS,
    ESTIMATOR_METRICS,
    ExperimentSpec,
)
from .estimation import RANGE_MIN_M, NumericError, mle_m1, mmle_m2, scan_limit_m
from .impairments import ImpairmentConfig, ImpairmentRealization, sample_realization
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
from .observation import ProjectionModel, mu_m1, observe

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


def _block_for(spec: ExperimentSpec, sys_cfg: SystemConfig, rng: np.random.Generator) -> PilotBlock:
    """Pilot block for one draw.

    The amplifier axis resamples the pilot symbols per draw (the
    nonlinearity's effect depends on the transmitted waveform); every other
    axis keeps the seeded pilot block fixed and varies only the hardware.
    Combiners stay fixed either way.
    """
    if spec.sweep_axis == "pa":
        return PilotBlock(
            symbols=generate_pilots(sys_cfg, rng), combiners=generate_combiners(sys_cfg)
        )
    return PilotBlock.from_config(sys_cfg)


def _draw(
    spec: ExperimentSpec, sys_cfg: SystemConfig, imp: ImpairmentConfig, index: int, stream: int
) -> tuple[np.random.Generator, PilotBlock, ImpairmentRealization, ProjectionModel, ProjectionModel]:
    """One draw: its generator, pilot block, hardware realization and the
    clean and impaired models built on them.

    The generator is returned after the block and the realization have
    been drawn from it, so noise drawn next stays in the same order.
    """
    rng = _rng(spec.master_seed, index, stream)
    block = _block_for(spec, sys_cfg, rng)
    real = sample_realization(imp, sys_cfg, rng)
    clean = ProjectionModel.clean(sys_cfg, block, imp.coupling)
    impaired = ProjectionModel.impaired(sys_cfg, block, imp, real)
    return rng, block, real, clean, impaired


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


def _family_report(
    family: str,
    theta: ChannelParams,
    clean: ProjectionModel,
    impaired: ProjectionModel,
    sigma: float,
    lb_rep: BoundsReport | None,
) -> BoundsReport:
    """One bound family's report on one draw. The clean CRB is taken from
    the draw's lb report when there is one, which carries it."""
    if family == "lb":
        return lb_report(theta, clean, impaired, sigma)
    if family == "crb_m2":
        return lb_rep if lb_rep is not None else crb_m2_report(theta, clean, sigma)
    return crb_m1_numeric(theta, impaired, sigma)


def _bounds_point(spec: ExperimentSpec, axis_index: int) -> list[ResultRow]:
    """Bound rows of one sweep point. A draw whose bound fails drops out of
    that family only: each family counts its own surviving draws."""
    value = spec.sweep_values[axis_index]
    sys_cfg, imp = apply_sweep_value(spec, value)
    sigma = noise_std(sys_cfg)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    # lb first, so the clean CRB can come from its report
    families = [f for f in ("lb", "crb_m2", "crb_m1") if f in spec.outputs]
    scalars = [s for s in BOUND_SCALARS if s in spec.outputs]
    samples: dict[tuple[str, str], list[float]] = {
        (f, s): [] for f in families for s in scalars
    }
    n_ok = dict.fromkeys(families, 0)
    for r in range(spec.n_realizations):
        _, _, _, clean, impaired = _draw(spec, sys_cfg, imp, r, _REALIZATION_STREAM)
        reports: dict[str, BoundsReport] = {}
        for family in families:
            try:
                reports[family] = _family_report(
                    family, theta, clean, impaired, sigma, reports.get("lb")
                )
            except NumericError as exc:
                logger.warning(
                    "bounds: sweep value %r realization %d %s failed: %s", value, r, family, exc
                )
                continue
            n_ok[family] += 1
            for s in scalars:
                samples[family, s].append(_bound_scalar(family, s, reports[family]))
    empty = ", ".join(f for f in families if n_ok[f] == 0)
    if empty:
        logger.warning("bounds: no surviving realizations for %s at %r", empty, value)
        raise NumericError(f"no surviving realizations for {empty} at sweep value {value!r}")
    rows: list[ResultRow] = []
    for (family, scalar), vals in samples.items():
        metric = f"{family}_{scalar}"
        arr = np.asarray(vals)
        for stat, v in (("mean", arr.mean()), ("min", arr.min()), ("max", arr.max())):
            rows.append(
                ResultRow(
                    sweep_value=float(value),
                    metric=metric,
                    statistic=stat,
                    value=float(v),
                    units=metric_units(metric),
                    realizations=n_ok[family],
                    trials=0,
                )
            )
    return rows


def _trials_point(spec: ExperimentSpec, axis_index: int) -> list[ResultRow]:
    value = spec.sweep_values[axis_index]
    sys_cfg, imp = apply_sweep_value(spec, value)
    sigma = noise_std(sys_cfg)
    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    p_true = params_to_state(theta).position
    metrics = [m for m in ESTIMATOR_METRICS if m in spec.outputs]
    squared: dict[str, list[float]] = {m: [] for m in metrics}
    stops: dict[str, Counter] = {m: Counter() for m in metrics}
    for t in range(spec.n_trials):
        rng, block, real, clean, impaired = _draw(spec, sys_cfg, imp, t, _TRIAL_STREAM)
        # mu_m1 equals impaired.mean(theta); the benchmark's tracer counts it
        y = observe(mu_m1(theta, sys_cfg, block, imp, real), sigma, rng)
        for m in metrics:
            try:
                est = mmle_m2(y, clean) if m == "mmle_rmse" else mle_m1(y, impaired)
            except NumericError as exc:
                logger.debug("trials: sweep value %r trial %d %s failed: %s", value, t, m, exc)
                stops[m]["failed"] += 1
                continue
            stops[m][est.stop] += 1
            if est.converged:
                squared[m].append(float(np.sum((est.position - p_true) ** 2)))
    all_converged = all(sum(stops[m].values()) == len(squared[m]) for m in metrics)
    logger.log(
        logging.INFO if all_converged else logging.WARNING,
        "trials: sweep value %r stops: %s",
        value,
        "; ".join(
            f"{m} " + " ".join(f"{reason}={n}" for reason, n in sorted(stops[m].items()))
            for m in metrics
        ),
    )
    empty = ", ".join(m for m in metrics if not squared[m])
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
                trials=len(squared[m]),
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
    range.
    """
    if not any(m in spec.outputs for m in ESTIMATOR_METRICS):
        raise ConfigError("outputs request no estimator metric (mmle_rmse, mle_m1_rmse)")
    ue_range = float(np.hypot(*spec.ue_position))
    top = scan_limit_m(spec.system.subcarrier_spacing_hz)
    if not RANGE_MIN_M <= ue_range < top:
        raise ConfigError(
            f"UE range {ue_range:.6g} m is outside the estimators' scan "
            f"[{RANGE_MIN_M:g}, {top:.6g}) m"
        )
    return _run_points(spec, _trials_point)
