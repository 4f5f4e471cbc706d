"""Tests for configuration handling, the sweep harness and the CLI."""

import codecs
import importlib.util
import logging
import math
import os
import subprocess
import sys
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import hwiloc.estimation
import hwiloc.harness
from dense_oracle import dense_mean, generator_draws
from hwiloc.bounds import mismatch_covariance, pseudo_true
from hwiloc.cli import main
from hwiloc.config_io import (
    DEFAULT_SWEEP_VALUES,
    OUTPUT_TOKENS,
    SWEEP_AXES,
    ExperimentSpec,
    parse_config_text,
    read_config,
    resolve_spec,
    spec_to_text,
)
from hwiloc.estimation import NumericError, mle_m1, mmle_m2
from hwiloc.harness import (
    CSV_HEADER,
    ResultRow,
    apply_sweep_value,
    metric_units,
    rows_to_csv,
    run_bounds_sweep,
    run_estimator_trials,
    sort_rows,
)
from hwiloc.impairments import ImpairmentConfig, sample_realization
from hwiloc.model import (
    ConfigError,
    PilotBlock,
    SystemConfig,
    generate_pilots,
    geometric_params,
    noise_std,
)
from hwiloc.observation import (
    FitData,
    ProjectionModel,
    observe,
    sandwich_matrices,
    transmit_pilots,
)

DESK_OVERRIDES = {
    "n_antennas": "10",
    "n_transmissions": "5",
    "n_subcarriers": "32",
    "sweep_values": "10,30",
    "n_realizations": "2",
    "n_trials": "2",
    "master_seed": "42",
}


def desk_spec(**extra: str) -> ExperimentSpec:
    overrides = dict(DESK_OVERRIDES)
    overrides.update(extra)
    return resolve_spec(overrides)


# ---------------------------------------------------------------------------
# config parsing and resolution


def test_parse_ignores_comments_and_blanks():
    text = "\n# full line comment\n  n_antennas = 8  # trailing comment\n\nue_x=1.5\n"
    assert parse_config_text(text) == {"n_antennas": "8", "ue_x": "1.5"}


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("bogus_key=1", "unknown key"),
        ("n_antennas=4\nn_antennas=5", "duplicate key"),
        ("n_antennas=", "empty value"),
        ("no equals sign here", "expected key=value"),
        ("=5", "expected key=value"),
    ],
)
def test_parse_rejects_malformed_lines(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config_text(line)


def test_defaults_resolve_to_full_scale_profile():
    spec = resolve_spec({})
    assert spec.system.n_antennas == 10
    assert spec.system.n_subcarriers == 100
    assert spec.system.carrier_freq_hz == 140e9
    npt.assert_allclose(spec.impairments.sigma_pn, np.deg2rad(10.0))
    assert spec.impairments.coupling == (0.6 + 0.5j, 0.4054 - 0.128j)
    assert len(spec.impairments.pa_coeffs) == 3
    npt.assert_array_equal(spec.ue_position, [3.0, 2.0])
    assert spec.sweep_axis == "tx_power_dbm"
    assert spec.sweep_values == DEFAULT_SWEEP_VALUES["tx_power_dbm"]


def test_defaults_are_the_dataclass_defaults():
    spec = resolve_spec({})
    assert spec == ExperimentSpec()
    assert spec.system == SystemConfig()
    assert spec.impairments == ImpairmentConfig()


DEFAULT_CONFIG_TEXT = """\
n_antennas=10
n_transmissions=10
n_subcarriers=100
cp_length=7
carrier_freq_hz=140000000000.0
bandwidth_hz=1000000000.0
load_impedance_ohm=50.0
noise_psd_dbm_hz=-173.855
noise_figure_db=10.0
tx_power_dbm=20.0
pilot_seed=101
combiner_seed=202
sigma_pn_deg=10.0
sigma_cfo=0.01
mc_c1=0.6+0.5j
mc_c2=0.4054-0.128j
sigma_mc=0.02
pa_beta0=0.9798+0.0286j
pa_beta1=0.0122-0.0043j
pa_beta2=-0.0007+0.0001j
pa_clip=25.0
ue_x=3.0
ue_y=2.0
gain_phase=0.3
sweep_axis=tx_power_dbm
sweep_values=-10.0,0.0,10.0,20.0,30.0,40.0
n_realizations=25
n_trials=200
master_seed=1234
outputs=crb_m2,crb_m1,lb,aeb,deb,peb,mmle_rmse,mle_m1_rmse
"""


def test_cli_show_config_defaults_text(capsys):
    # pins the canonical key order and the number formatting
    assert main(["show-config"]) == 0
    assert capsys.readouterr().out == DEFAULT_CONFIG_TEXT


@pytest.mark.parametrize(
    "impairments,fragment",
    [
        (ImpairmentConfig(coupling=(0.5, 0.2, 0.1)), "two coupling taps"),
        (ImpairmentConfig(pa_coeffs=(1.0, 0.1, 0.01, 0.001)), "three PA coefficients"),
    ],
)
def test_spec_to_text_rejects_what_the_format_cannot_carry(impairments, fragment):
    with pytest.raises(ConfigError, match=fragment):
        spec_to_text(ExperimentSpec(impairments=impairments))


@pytest.mark.parametrize("key", ["n_antenas", "sigma_pn"])
def test_resolve_spec_rejects_unknown_keys(key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        resolve_spec({"n_antennas": "4", key: "30"})


@pytest.mark.parametrize("axis", sorted(DEFAULT_SWEEP_VALUES))
def test_default_sweep_values_follow_axis(axis):
    spec = resolve_spec({"sweep_axis": axis})
    assert spec.sweep_values == DEFAULT_SWEEP_VALUES[axis]


def test_zero_entries_trim_coupling_and_pa():
    spec = resolve_spec(
        {
            "mc_c1": "0",
            "mc_c2": "0",
            "pa_beta0": "1",
            "pa_beta1": "0",
            "pa_beta2": "0",
            "pa_clip": "inf",
        }
    )
    assert spec.impairments.coupling == ()
    assert spec.impairments.pa_coeffs == (1.0 + 0.0j,)
    assert spec.impairments.pa_is_linear


def test_spec_roundtrips_through_text():
    spec = desk_spec(sweep_axis="sigma_pn_deg", sweep_values="1,10,30")
    again = resolve_spec(parse_config_text(spec_to_text(spec)))
    assert again == spec


def _text(value) -> str:
    text = repr(value)
    return text[1:-1] if text.startswith("(") else text


_NUMERIC_KEYS = {
    "n_antennas": st.integers(1, 16),
    "n_transmissions": st.integers(1, 16),
    "n_subcarriers": st.integers(1, 128),
    "cp_length": st.integers(0, 16),
    "carrier_freq_hz": st.floats(1e6, 1e12),
    "bandwidth_hz": st.floats(1e3, 1e10),
    "load_impedance_ohm": st.floats(1e-3, 1e4),
    "noise_psd_dbm_hz": st.floats(-200.0, -100.0),
    "noise_figure_db": st.floats(0.0, 30.0),
    "tx_power_dbm": st.floats(-50.0, 60.0),
    "pilot_seed": st.integers(0, 2**32 - 1),
    "combiner_seed": st.integers(0, 2**32 - 1),
    "sigma_pn_deg": st.floats(0.0, 360.0),
    "sigma_cfo": st.floats(0.0, 1.0),
    "sigma_mc": st.floats(0.0, 1.0),
    "pa_clip": st.floats(1e-3, 1e3) | st.just(float("inf")),
    "ue_x": st.floats(1e-3, 100.0),
    "ue_y": st.floats(-100.0, 100.0),
    "gain_phase": st.floats(-10.0, 10.0),
    "n_realizations": st.integers(1, 1000),
    "n_trials": st.integers(1, 1000),
    "master_seed": st.integers(0, 2**64 - 1),
}
_COMPLEX = st.just(0j) | st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
_SWEEP_VALUES = {
    "tx_power_dbm": st.floats(-50.0, 60.0),
    "sigma_pn_deg": st.floats(0.0, 360.0),
    "sigma_cfo": st.floats(0.0, 1.0),
    "sigma_mc": st.floats(0.0, 1.0),
    "pa": st.sampled_from([0.0, 1.0]),
}


@st.composite
def _config_overrides(draw) -> dict[str, str]:
    """Valid overrides over the numeric, complex and list keys, each key
    present or left at its default."""
    optional = {k: v.map(_text) for k, v in _NUMERIC_KEYS.items()}
    optional.update(
        {k: _COMPLEX.map(_text) for k in ("mc_c1", "mc_c2", "pa_beta0", "pa_beta1", "pa_beta2")}
    )
    optional["outputs"] = st.lists(
        st.sampled_from(OUTPUT_TOKENS), min_size=1, unique=True
    ).map(",".join)
    overrides = draw(st.fixed_dictionaries({}, optional=optional))
    if draw(st.booleans()):
        axis = draw(st.sampled_from(SWEEP_AXES))
        overrides["sweep_axis"] = axis
        if draw(st.booleans()):
            values = draw(st.lists(_SWEEP_VALUES[axis], min_size=1, max_size=6, unique=True))
            overrides["sweep_values"] = ",".join(_text(v) for v in values)
    return overrides


@settings(max_examples=300, deadline=None)
@given(_config_overrides())
@example({"sigma_pn_deg": "48.79621435201634"})
def test_spec_text_roundtrip_property(overrides):
    """show-config text parses back to the same spec, and is a fixed point."""
    spec = resolve_spec(overrides)
    text = spec_to_text(spec)
    again = resolve_spec(parse_config_text(text))
    assert again == spec
    assert spec_to_text(again) == text


@pytest.mark.parametrize(
    "overrides,fragment",
    [
        ({"sweep_axis": "nonsense"}, "sweep axis"),
        ({"sweep_values": ","}, "non-empty"),
        ({"sweep_axis": "pa", "sweep_values": "0,2"}, "0 or 1"),
        ({"sweep_axis": "sigma_cfo", "sweep_values": "-0.1,0.1"}, "non-negative"),
        ({"n_realizations": "0"}, "n_realizations"),
        ({"n_trials": "-3"}, "n_trials"),
        ({"outputs": "peb,nonsense"}, "unknown outputs"),
        ({"ue_x": "-1"}, "front half-plane"),
        ({"n_antennas": "ten"}, "must be an integer"),
        ({"mc_c1": "notacomplex"}, "complex"),
        ({"master_seed": "-1"}, "master_seed"),
    ],
)
def test_spec_validation_errors(overrides, fragment):
    with pytest.raises(ConfigError, match=fragment):
        resolve_spec(overrides)


# ---------------------------------------------------------------------------
# sweep axis application


def test_apply_sweep_axes():
    spec = desk_spec()
    sys_cfg, _ = apply_sweep_value(spec, 37.0)
    assert sys_cfg.tx_power_dbm == 37.0

    spec_pn = desk_spec(sweep_axis="sigma_pn_deg", sweep_values="5")
    _, imp = apply_sweep_value(spec_pn, 5.0)
    npt.assert_allclose(imp.sigma_pn, np.deg2rad(5.0))

    spec_cfo = desk_spec(sweep_axis="sigma_cfo", sweep_values="0.02")
    _, imp = apply_sweep_value(spec_cfo, 0.02)
    assert imp.sigma_cfo == 0.02

    spec_mc = desk_spec(sweep_axis="sigma_mc", sweep_values="0.05")
    _, imp = apply_sweep_value(spec_mc, 0.05)
    assert imp.sigma_mc == 0.05

    spec_pa = desk_spec(sweep_axis="pa", sweep_values="0,1")
    _, imp_off = apply_sweep_value(spec_pa, 0.0)
    assert imp_off.pa_is_linear
    _, imp_on = apply_sweep_value(spec_pa, 1.0)
    assert imp_on.pa_coeffs == spec_pa.impairments.pa_coeffs


def test_apply_sweep_rejects_invalid_level():
    spec = desk_spec(sweep_axis="sigma_cfo", sweep_values="0.01")
    with pytest.raises(ConfigError):
        apply_sweep_value(spec, -0.5)


# ---------------------------------------------------------------------------
# rows and CSV


def test_metric_units_mapping():
    assert metric_units("crb_m2_aeb") == "deg"
    assert metric_units("lb_deb") == "m"
    assert metric_units("crb_m1_peb") == "m"
    assert metric_units("mmle_rmse") == "m"
    with pytest.raises(ConfigError):
        metric_units("nonsense_metric")


def test_csv_line_roundtrips_floats():
    row = ResultRow(
        sweep_value=-10.0,
        metric="lb_peb",
        statistic="mean",
        value=0.1 + 0.2,  # 0.30000000000000004, exercises shortest repr
        units="m",
        realizations=25,
        trials=0,
    )
    line = row.csv_line()
    fields = line.split(",")
    assert fields[0] == "-10.0"
    assert float(fields[3]) == 0.1 + 0.2
    assert fields[4:] == ["m", "25", "0"]


def test_sort_rows_orders_value_metric_statistic():
    def row(v, m, s):
        return ResultRow(v, m, s, 1.0, "m", 1, 0)

    rows = [
        row(30.0, "lb_peb", "max"),
        row(10.0, "lb_peb", "min"),
        row(10.0, "crb_m2_peb", "mean"),
        row(10.0, "lb_peb", "mean"),
    ]
    ordered = sort_rows(rows)
    assert [(r.sweep_value, r.metric, r.statistic) for r in ordered] == [
        (10.0, "crb_m2_peb", "mean"),
        (10.0, "lb_peb", "mean"),
        (10.0, "lb_peb", "min"),
        (30.0, "lb_peb", "max"),
    ]


# ---------------------------------------------------------------------------
# bounds sweep


def test_bounds_sweep_schema_and_determinism():
    spec = desk_spec(outputs="crb_m2,lb,peb")
    rows = run_bounds_sweep(spec)
    assert rows, "sweep produced no rows"
    assert rows_to_csv(rows).splitlines()[0] == CSV_HEADER
    for r in rows:
        assert r.metric in ("crb_m2_peb", "lb_peb")
        assert r.statistic in ("mean", "min", "max")
        assert r.units == metric_units(r.metric)
        assert r.realizations == 2 and r.trials == 0
        assert np.isfinite(r.value) and r.value > 0
    # one row per (point, metric, statistic)
    assert len(rows) == 2 * 2 * 3
    assert rows_to_csv(run_bounds_sweep(spec)) == rows_to_csv(rows)


def test_bounds_sweep_fixed_pilots_make_crb_m2_degenerate():
    """Off the amplifier axis the pilot block is fixed, so the clean-model
    bound cannot vary across hardware realizations."""
    rows = run_bounds_sweep(desk_spec(outputs="crb_m2,peb"))
    for v in (10.0, 30.0):
        stats = {
            r.statistic: r.value
            for r in rows
            if r.sweep_value == v and r.metric == "crb_m2_peb"
        }
        npt.assert_allclose(stats["min"], stats["max"], rtol=1e-12)


def test_bounds_sweep_pa_axis_resamples_pilots():
    """With every random impairment off, the nonlinear PA's bound (value 1)
    varies across draws only because the amplifier axis redraws the pilots;
    the bounds that see the constant-modulus pilots only through |x|^2 (the
    clean model, and the impaired one with a linear PA) do not vary."""
    spec = desk_spec(
        sweep_axis="pa",
        sweep_values="0,1",
        n_realizations="3",
        sigma_pn_deg="0",
        sigma_cfo="0",
        sigma_mc="0",
        outputs="crb_m2,crb_m1,peb",
    )
    stats = {(r.sweep_value, r.metric, r.statistic): r.value for r in run_bounds_sweep(spec)}
    lo, hi, mean = (stats[(1.0, "crb_m1_peb", k)] for k in ("min", "max", "mean"))
    assert (hi - lo) / mean > 1e-4, "pilot resampling should move the impaired bound"
    for value, metric in ((0.0, "crb_m2_peb"), (1.0, "crb_m2_peb"), (0.0, "crb_m1_peb")):
        npt.assert_allclose(
            stats[(value, metric, "min")], stats[(value, metric, "max")], rtol=1e-12
        )


def test_bounds_sweep_lb_dominates_crb():
    rows = run_bounds_sweep(desk_spec(outputs="crb_m2,lb,peb"))
    for v in (10.0, 30.0):
        by = {
            (r.metric, r.statistic): r.value for r in rows if r.sweep_value == v
        }
        assert by[("lb_peb", "mean")] >= by[("crb_m2_peb", "mean")]


def test_bounds_sweep_requires_bound_outputs():
    with pytest.raises(ConfigError, match="bound family"):
        run_bounds_sweep(desk_spec(outputs="mmle_rmse"))
    with pytest.raises(ConfigError, match="bound scalar"):
        run_bounds_sweep(desk_spec(outputs="crb_m2,mmle_rmse"))


def test_bounds_sweep_parallel_matches_serial(monkeypatch):
    spec = desk_spec(outputs="crb_m2,peb")
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    serial = rows_to_csv(run_bounds_sweep(spec))
    monkeypatch.setenv("HWI_LOC_THREADS", "2")
    parallel = rows_to_csv(run_bounds_sweep(spec))
    assert serial == parallel


def test_worker_cap_rejects_garbage(monkeypatch):
    monkeypatch.setenv("HWI_LOC_THREADS", "many")
    with pytest.raises(ConfigError, match="HWI_LOC_THREADS"):
        run_bounds_sweep(desk_spec(outputs="crb_m2,peb"))
    monkeypatch.setenv("HWI_LOC_THREADS", "0")
    with pytest.raises(ConfigError, match="HWI_LOC_THREADS"):
        run_bounds_sweep(desk_spec(outputs="crb_m2,peb"))


# ---------------------------------------------------------------------------
# estimator trials


def test_estimator_trials_schema_and_determinism():
    spec = desk_spec(outputs="mmle_rmse,mle_m1_rmse")
    rows = run_estimator_trials(spec)
    metrics = {(r.sweep_value, r.metric) for r in rows}
    assert metrics == {
        (10.0, "mmle_rmse"),
        (10.0, "mle_m1_rmse"),
        (30.0, "mmle_rmse"),
        (30.0, "mle_m1_rmse"),
    }
    for r in rows:
        assert r.statistic == "mean"
        assert r.units == "m"
        assert r.realizations == 2
        assert 0 < r.trials <= r.realizations
        assert np.isfinite(r.value) and r.value > 0
    assert rows_to_csv(run_estimator_trials(spec)) == rows_to_csv(rows)


def _patch_point_fit(monkeypatch, edit):
    """Run the real per-point fit, then let edit(fits) change its results."""
    real_fit = hwiloc.harness._fit_point

    def patched(*args, **kwargs):
        fits = real_fit(*args, **kwargs)
        edit(fits)
        return fits

    monkeypatch.setattr("hwiloc.harness._fit_point", patched)


def _fail_all(fit):
    fit.fail(np.arange(fit.stops.size), "synthetic failure")


def test_estimator_trials_without_converged_trials_raise(monkeypatch):
    _patch_point_fit(monkeypatch, lambda fits: _fail_all(fits["mmle_rmse"]))
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    with pytest.raises(NumericError, match="no converged trials for mmle_rmse"):
        run_estimator_trials(desk_spec(outputs="mmle_rmse,mle_m1_rmse"))


def test_estimator_trials_log_one_stop_count_line_per_point(monkeypatch, caplog):
    # the mismatched fit reports its iteration cap on every trial, the
    # matched one fails numerically: one warning line per point counts both
    def edit(fits):
        fits["mmle_rmse"].stops[:] = "max_iter"
        _fail_all(fits["mle_m1_rmse"])

    _patch_point_fit(monkeypatch, edit)
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    with caplog.at_level(logging.INFO, logger="hwiloc.harness"):
        with pytest.raises(NumericError, match="no converged trials for mmle_rmse, mle_m1_rmse"):
            run_estimator_trials(desk_spec(outputs="mmle_rmse,mle_m1_rmse", sweep_values="10"))
    stops = [r for r in caplog.records if "stops:" in r.getMessage()]
    assert [r.getMessage() for r in stops] == [
        "trials: sweep value 10.0 stops: mmle_rmse max_iter=2; "
        "mle_m1_rmse failed=2 (synthetic failure=2)"
    ]
    assert stops[0].levelno == logging.WARNING
    assert not [r for r in caplog.records if r.levelno == logging.WARNING and "trial 0" in r.getMessage()]


def test_estimator_trials_numeric_error_fails_one_trial_only(monkeypatch, caplog):
    # the point's one scan covers both estimators' slots, the mismatched
    # fit's first; trial 1 of it gets a non-finite objective and fails that
    # scan alone. The other trials of both estimators still fit and count,
    # and the point's stops line counts the failure by its reason
    real_scan = hwiloc.harness.grid_search
    calls = []

    def second_slot_fails(data, grid):
        calls.append(data.yy.size)
        data.w[1] = np.nan
        return real_scan(data, grid)

    monkeypatch.setattr("hwiloc.harness.grid_search", second_slot_fails)
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    spec = desk_spec(outputs="mmle_rmse,mle_m1_rmse", sweep_values="30")
    with caplog.at_level(logging.DEBUG, logger="hwiloc.harness"):
        rows = run_estimator_trials(spec)
    assert {r.metric: (r.realizations, r.trials) for r in rows} == {
        "mmle_rmse": (2, 1),
        "mle_m1_rmse": (2, 2),
    }
    # one line per point, none per trial
    assert not [r for r in caplog.records if "trial 1" in r.getMessage()]
    (line,) = [r.getMessage() for r in caplog.records if "stops:" in r.getMessage()]
    mmle, mle_m1 = line.split("; ")
    assert mmle.startswith("trials: sweep value 30.0 stops: mmle_rmse failed=1 ")
    assert mmle.endswith(" (projection objective is non-finite over the whole grid=1)")
    assert mle_m1.startswith("mle_m1_rmse ") and "failed" not in mle_m1
    assert calls == [4]


def test_estimator_trials_stop_counts_cover_every_trial(monkeypatch, caplog):
    spec = desk_spec(outputs="mmle_rmse,mle_m1_rmse")
    monkeypatch.setenv("HWI_LOC_THREADS", "1")  # worker processes log elsewhere
    with caplog.at_level(logging.INFO, logger="hwiloc.harness"):
        rows = run_estimator_trials(spec)
    lines = [r.getMessage() for r in caplog.records if "stops:" in r.getMessage()]
    assert len(lines) == len(spec.sweep_values)
    for line in lines:
        for m in ("mmle_rmse", "mle_m1_rmse"):
            counts = line.split(f"{m} ")[1].split(";")[0].split()
            assert sum(int(c.split("=")[1]) for c in counts) == spec.n_trials
    assert all(r.levelno == logging.INFO for r in caplog.records if "stops:" in r.getMessage())
    assert sum(r.trials for r in rows) == 2 * len(spec.sweep_values) * spec.n_trials


@pytest.mark.parametrize("axis, value", [("tx_power_dbm", -10.0), ("pa", 1.0)])
@pytest.mark.parametrize(
    "max_iterations, backtracks, forced",
    [(200, 40, "gradient"), (3, 40, "max_iter"), (3, 2, "stalled")],
)
def test_point_fit_matches_one_observation_estimators(
    monkeypatch, axis, value, max_iterations, backtracks, forced
):
    """The per-point fit gives each trial the stop, iteration count and
    position (within 1e-9 m) that mmle_m2 and mle_m1 give it alone, on
    desk.cfg draws in chunks of 4 trials, both estimators' trials in one
    FitData. Each trial's observation is read as the FitData takes it for
    the mismatched fit; it matches the trial's impaired model plus the noise
    that observe draws, both rebuilt from the trial's own generator: the
    pilots on the amplifier axis, the realization, then the noise. Trial 2 observes nothing for either estimator, so both its
    fits end in a NumericError, and only its fits."""
    monkeypatch.setattr("hwiloc.estimation.MAX_BACKTRACKS", backtracks)
    monkeypatch.setattr("hwiloc.estimation.MAX_ITERATIONS", max_iterations)
    monkeypatch.setattr("hwiloc.harness.TRIAL_CHUNK", 4)
    desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
    keys = parse_config_text(desk.read_text(encoding="utf-8"))
    keys.update(sweep_axis=axis, sweep_values=repr(value), n_trials="10")
    spec = resolve_spec(keys)
    point = hwiloc.harness._point(spec, 0)
    sys_cfg, imp = point.sys_cfg, point.imp
    blank = 2
    real_put = FitData.put
    # observations put so far by estimator: the clean chain's rows are one
    # (G, N) matrix, and its observations are the observations themselves
    filled = Counter()
    stores = set()
    observed = []

    def put_with_blank(data, at, rows, pilots, u):
        stores.add(id(data))
        start = filled[rows.ndim]
        filled[rows.ndim] += len(u)
        u = np.array(u)
        if rows.ndim == 2:
            observed.extend(u.copy())
        if start <= blank < start + len(u):
            u[blank - start] = 0.0
        return real_put(data, at, rows, pilots, u)

    monkeypatch.setattr(FitData, "put", put_with_blank)
    metrics = ["mmle_rmse", "mle_m1_rmse"]
    units = hwiloc.harness._units(spec, hwiloc.harness._TRIAL_STREAM)
    fits = hwiloc.harness._fit_point(spec, point, units, metrics)
    assert len(observed) == spec.n_trials and len(stores) == 1
    monkeypatch.setattr(FitData, "put", real_put)  # for the estimators

    theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
    for t in range(spec.n_trials):
        seed = (spec.master_seed, t, hwiloc.harness._TRIAL_STREAM)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        block = PilotBlock.from_config(sys_cfg)
        if axis == "pa":
            block = PilotBlock(generate_pilots(sys_cfg, rng), block.combiners)
        clean = ProjectionModel.clean(sys_cfg, block, imp.coupling)
        real = sample_realization(imp, sys_cfg, rng)
        impaired = ProjectionModel.impaired(sys_cfg, block, imp, real)
        y = observed[t]
        alone = observe(impaired.mean(theta), noise_std(sys_cfg), rng)
        assert np.abs(y - alone).max() <= 1e-12 * np.abs(alone).max()
        if t == blank:
            y = 0.0 * y
        for m in metrics:
            fit = fits[m]
            try:
                one = mmle_m2(y, clean) if m == "mmle_rmse" else mle_m1(y, impaired)
            except NumericError as exc:
                assert t == blank
                assert (fit.stops[t], fit.errors[t]) == ("failed", str(exc))
                continue
            assert (fit.stops[t], fit.n_iterations[t]) == (one.stop, one.n_iterations)
            assert np.linalg.norm(fit.positions[t] - one.position) <= 1e-9
            npt.assert_array_equal(fit.starts[t], one.grid_point)
    for m in metrics:
        assert [t for t, e in enumerate(fits[m].errors) if e is not None] == [blank]
    assert forced in np.concatenate([fits[m].stops for m in metrics])


ALL_AXES = [
    ("tx_power_dbm", "10,30"),
    ("sigma_pn_deg", "5,10"),
    ("sigma_cfo", "0.01,0.05"),
    ("sigma_mc", "0.01,0.05"),
    ("pa", "0,1"),
]
# the axes whose points share each draw's phase-noise/CFO rotation
ROTATION_SHARED = {"tx_power_dbm", "sigma_mc", "pa"}


@pytest.mark.parametrize("axis, values", ALL_AXES)
def test_bounds_draws_match_their_own_generators(monkeypatch, axis, values):
    """In units of draws, each draw's impaired mean at each sweep point is
    bit for bit the dense mean (W (C a) under the dense sandwich) of the
    model built on its own from what its own generator draws: the pilots on
    the amplifier axis, then the realization."""
    spec = desk_spec(sweep_axis=axis, sweep_values=values, n_realizations="3")
    fitted = []

    def keep_means(thetas, clean, ybars):
        fitted.append(np.array(ybars))
        return pseudo_true(thetas, clean, ybars)

    monkeypatch.setattr("hwiloc.harness.pseudo_true", keep_means)
    points = [hwiloc.harness._point(spec, i) for i in range(len(spec.sweep_values))]
    drawn = hwiloc.harness._units(spec, hwiloc.harness._REALIZATION_STREAM)
    units = [range(0, 1), range(1, 3)]  # the second does not start at draw 0
    for unit in units:
        hwiloc.harness._bounds_unit(spec, points, drawn[unit.start : unit.stop])
    means = np.concatenate(
        [m.reshape(len(points), len(u), *m.shape[-2:]) for m, u in zip(fitted, units)],
        axis=1,
    )
    for i, value in enumerate(spec.sweep_values):
        sys_cfg, imp = apply_sweep_value(spec, value)
        theta = geometric_params(spec.ue_position, spec.gain_phase, sys_cfg)
        for r in range(spec.n_realizations):
            seed = (spec.master_seed, r, hwiloc.harness._REALIZATION_STREAM)
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            block = PilotBlock.from_config(sys_cfg)
            if axis == "pa":
                block = PilotBlock(generate_pilots(sys_cfg, rng), block.combiners)
            model = ProjectionModel.impaired(
                sys_cfg, block, imp, sample_realization(imp, sys_cfg, rng)
            )
            npt.assert_array_equal(means[i, r], dense_mean(model, theta))


@pytest.mark.parametrize("axis, values", ALL_AXES)
@pytest.mark.parametrize("stream", ["realization", "trial"])
def test_scaled_units_match_a_generator_per_point(axis, values, stream):
    """At every sweep point the draws scaled from the sweep's units, and a
    task's slice of them, are bit for bit the draws of one generator per
    index and point at the point's own levels: the realizations, the
    amplifier axis's pilots and the trials' noise."""
    spec = desk_spec(sweep_axis=axis, sweep_values=values, n_realizations="3", n_trials="3")
    tag = getattr(hwiloc.harness, f"_{stream.upper()}_STREAM")
    units = hwiloc.harness._units(spec, tag)
    for i in range(len(spec.sweep_values)):
        point = hwiloc.harness._point(spec, i)
        for indices in (range(3), range(1, 3)):
            part = units[indices.start : indices.stop]
            assert part.indices == indices
            d = hwiloc.harness._draws(point, part)
            *oracle, noise = generator_draws(
                spec.master_seed, point, indices, tag, stream == "trial"
            )
            for got, want in zip((d.pilots, d.sent, d.couplings, d.pn, d.cfo), oracle):
                npt.assert_array_equal(got, want)
            if noise is None:
                assert part.noise is None
            else:
                npt.assert_array_equal(part.noise, noise)


@pytest.mark.parametrize("axis, values", [("tx_power_dbm", "10,20,30"), ("sigma_pn_deg", "5,10,15")])
def test_sweeps_draw_each_realization_once(monkeypatch, axis, values):
    """With one worker, a sweep of P points draws each index's realization
    once, not once per point: n_trials calls for the trials, n_realizations
    for the bounds, with one task per point or units over all points."""
    spec = desk_spec(sweep_axis=axis, sweep_values=values, n_realizations="4", n_trials="3")
    calls = []

    def counted(*args):
        calls.append(args)
        return sample_realization(*args)

    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    monkeypatch.setattr("hwiloc.harness.sample_realization", counted)
    run_estimator_trials(spec)
    assert len(calls) == spec.n_trials
    calls.clear()
    run_bounds_sweep(spec)
    assert len(calls) == spec.n_realizations


@pytest.mark.parametrize("axis, values", ALL_AXES)
def test_bounds_build_each_dense_sandwich_once_per_rotation(monkeypatch, axis, values):
    """A draw's dense sandwich is built once for every sweep point that
    shares its rotation: G R rows per sweep where the axis leaves the
    rotation alone, G R P on the phase-noise and CFO axes."""
    spec = desk_spec(sweep_axis=axis, sweep_values=values, n_realizations="3", outputs="lb,peb")
    built = []

    def counted(rotation):
        built.append(len(rotation))
        return sandwich_matrices(rotation)

    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    monkeypatch.setattr("hwiloc.harness.sandwich_matrices", counted)
    monkeypatch.setattr("hwiloc.observation.sandwich_matrices", counted)
    run_bounds_sweep(spec)
    rows = spec.system.n_transmissions * spec.n_realizations
    assert sum(built) == rows * (1 if axis in ROTATION_SHARED else len(spec.sweep_values))


@pytest.mark.parametrize("axis, values", ALL_AXES)
def test_bounds_do_not_depend_on_the_tasks(monkeypatch, caplog, axis, values):
    """Units of one draw, one unit of all R draws, one task per point and
    tasks that split a point's draws out of order give the CSV bytes and
    the INFO and WARNING records of the default tasks: units of 2 and 3 of
    the 5 draws over both points where they share each draw's rotation, one
    task per point otherwise. Draw 3's lb fails at the second point only,
    so a block written to the wrong place in the (point, draw) grid would
    move its WARNING line. Every layout makes one clean and one impaired
    model stack per task, each over the task's (point, draw) pairs, and no
    impaired one without crb_m1 or lb."""
    spec = desk_spec(sweep_axis=axis, sweep_values=values, n_realizations="5")
    real_draws, real_build = hwiloc.harness._draws, ProjectionModel.__post_init__
    built = []

    def failing_draws(point, units):
        d = real_draws(point, units)
        if point.value == spec.sweep_values[1] and 3 in units.indices:
            d.cfo[units.indices.index(3)] = np.nan  # a NaN lb mean: its pseudo-true fit fails
        return d

    def counted(self):
        real_build(self)
        built.append(self.shape)

    monkeypatch.setattr("hwiloc.harness._draws", failing_draws)
    monkeypatch.setattr(ProjectionModel, "__post_init__", counted)
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    caplog.set_level(logging.INFO, logger="hwiloc.harness")

    def run():
        caplog.clear()
        built.clear()
        csv = rows_to_csv(run_bounds_sweep(spec))
        tasks = hwiloc.harness._bounds_tasks(spec)
        assert sorted(built) == sorted(2 * [(len(points), len(draws)) for points, draws in tasks])
        return csv, [(r.levelname, r.getMessage()) for r in caplog.records]

    csv, records = run()
    failed = "observation energy must be positive and finite=1"
    value = spec.sweep_values[1]
    warning = f"bounds: sweep value {value!r} lb failed for 1 of 5 realizations: {failed}"
    assert [r for r in records if r[0] != "INFO"] == [("WARNING", warning)]
    assert len(records) == 3
    both, draws = [0, 1], range(5)
    per_point = [([0], draws), ([1], draws)]
    units = [(both, range(0, 2)), (both, range(2, 5))]
    assert hwiloc.harness._bounds_tasks(spec) == (units if axis in ROTATION_SHARED else per_point)
    for tasks in (
        [(both, range(r, r + 1)) for r in draws],
        [(both, draws)],
        per_point,
        [([1], range(0, 2)), ([0], draws), ([1], range(2, 5))],
    ):
        monkeypatch.setattr("hwiloc.harness._bounds_tasks", lambda spec, tasks=tasks: tasks)
        assert run() == (csv, records)
    built.clear()
    run_bounds_sweep(replace(spec, outputs=("crb_m2", "peb")))
    assert len(built) == len(hwiloc.harness._bounds_tasks(spec))


@pytest.mark.parametrize("axis, values", ALL_AXES)
def test_bounds_build_a_model_stack_per_task_not_per_pair(monkeypatch, axis, values):
    """A bounds sweep builds at most two link models per task plus one per
    sweep point, not one per (point, draw) pair: each task's pairs share one
    clean and one impaired model stack."""
    spec = desk_spec(sweep_axis=axis, sweep_values=values, n_realizations="4")
    real_build, built = ProjectionModel.__post_init__, []

    def counted(self):
        real_build(self)
        built.append(self.shape)

    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    monkeypatch.setattr(ProjectionModel, "__post_init__", counted)
    run_bounds_sweep(spec)
    tasks = hwiloc.harness._bounds_tasks(spec)
    assert len(built) <= 2 * len(tasks) + len(spec.sweep_values)


def test_bounds_tasks_leave_no_worker_idle(monkeypatch):
    """Where there are fewer draws than workers, each point is a task, so a
    sweep of one draw still runs on every worker."""
    spec = desk_spec(sweep_values="10,20,30", n_realizations="1")
    monkeypatch.setenv("HWI_LOC_THREADS", "2")
    assert hwiloc.harness._bounds_tasks(spec) == [([i], range(1)) for i in range(3)]
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert hwiloc.harness._bounds_tasks(spec) == [([0, 1, 2], range(1))]


@pytest.mark.parametrize("axis, values", [("tx_power_dbm", "10,30"), ("pa", "0,1")])
def test_pilots_pass_the_pa_once_per_point(monkeypatch, axis, values):
    """Both sweeps put a point's pilots through the PA in one call, also
    with one trial per chunk. On the amplifier axis, where each draw has
    its own pilots, the bounds sweep does so once per point and unit of
    draws."""
    spec = desk_spec(sweep_axis=axis, sweep_values=values, n_trials="3")
    calls = []

    def counted(*args):
        calls.append(args)
        return transmit_pilots(*args)

    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    monkeypatch.setattr("hwiloc.harness.TRIAL_CHUNK", 1)
    monkeypatch.setattr("hwiloc.harness.transmit_pilots", counted)
    monkeypatch.setattr("hwiloc.observation.transmit_pilots", counted)
    run_estimator_trials(spec)
    assert len(calls) == len(spec.sweep_values)
    run_bounds_sweep(spec)
    units = 2 if axis == "pa" else 1  # two units of one draw
    assert [draws for _, draws in hwiloc.harness._bounds_tasks(spec)] == [range(1), range(1, 2)]
    assert len(calls) == (1 + units) * len(spec.sweep_values)


@pytest.mark.parametrize("axis, values", [("tx_power_dbm", "10,30"), ("pa", "0,1")])
def test_estimator_trials_do_not_depend_on_the_chunk_size(monkeypatch, axis, values):
    """Chunks of 1 and 3 trials give the fits of the default chunk bit for
    bit, and so the same CSV bytes; 7 trials leave a partial last chunk."""
    spec = desk_spec(
        outputs="mmle_rmse,mle_m1_rmse", sweep_axis=axis, sweep_values=values, n_trials="7"
    )
    point = hwiloc.harness._point(spec, 1)
    metrics = ["mmle_rmse", "mle_m1_rmse"]
    units = hwiloc.harness._units(spec, hwiloc.harness._TRIAL_STREAM)
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    csv = rows_to_csv(run_estimator_trials(spec))
    fits = hwiloc.harness._fit_point(spec, point, units, metrics)
    assert hwiloc.harness.TRIAL_CHUNK >= spec.n_trials
    for size in (1, 3):
        monkeypatch.setattr("hwiloc.harness.TRIAL_CHUNK", size)
        assert rows_to_csv(run_estimator_trials(spec)) == csv
        chunked = hwiloc.harness._fit_point(spec, point, units, metrics)
        for m in metrics:
            for name in ("positions", "stops", "n_iterations", "starts"):
                npt.assert_array_equal(getattr(chunked[m], name), getattr(fits[m], name))


@pytest.mark.parametrize("axis, values", [("tx_power_dbm", "10,30"), ("pa", "0,1")])
def test_estimator_trials_parallel_matches_serial(monkeypatch, axis, values):
    spec = desk_spec(outputs="mmle_rmse,mle_m1_rmse", sweep_axis=axis, sweep_values=values)
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    serial = rows_to_csv(run_estimator_trials(spec))
    monkeypatch.setenv("HWI_LOC_THREADS", "2")
    parallel = rows_to_csv(run_estimator_trials(spec))
    assert serial == parallel


def test_estimator_trials_require_estimator_outputs():
    with pytest.raises(ConfigError, match="estimator metric"):
        run_estimator_trials(desk_spec(outputs="crb_m2,peb"))


# ---------------------------------------------------------------------------
# command line


def _write_cfg(tmp_path, **extra):
    lines = [f"{k}={v}" for k, v in {**DESK_OVERRIDES, **extra}.items()]
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_cli_bounds_writes_csv(tmp_path):
    cfg = _write_cfg(tmp_path, outputs="crb_m2,lb,peb")
    out = tmp_path / "r.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 1 + 12


def test_cli_estimate_runs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, outputs="mmle_rmse", sweep_values="30")
    assert main(["estimate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER
    assert "mmle_rmse" in out


def test_cli_seed_changes_output(tmp_path):
    cfg = _write_cfg(tmp_path, outputs="lb,peb")
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(["bounds", "--config", cfg, "--seed", "5", "--out", str(a)]) == 0
    assert main(["bounds", "--config", cfg, "--seed", "5", "--out", str(b)]) == 0
    assert main(["bounds", "--config", cfg, "--seed", "6", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_cli_sweep_override_uses_axis_defaults(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["show-config", "--config", cfg, "--sweep", "sigma_pn_deg"]) == 0
    out = capsys.readouterr().out
    assert "sweep_axis=sigma_pn_deg" in out
    assert "sweep_values=1.0,10.0,20.0,30.0" in out


def test_cli_show_config_roundtrips(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["show-config", "--config", cfg]) == 0
    printed = capsys.readouterr().out
    assert resolve_spec(parse_config_text(printed)) == resolve_spec(
        parse_config_text((tmp_path / "exp.cfg").read_text())
    )


def test_cli_bounds_on_show_config_output_is_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, sigma_pn_deg="48.79621435201634", outputs="lb,peb")
    shown = tmp_path / "shown.cfg"
    assert main(["show-config", "--config", cfg, "--out", str(shown)]) == 0
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bounds", "--config", cfg, "--out", str(a)]) == 0
    assert main(["bounds", "--config", str(shown), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_missing_config_exits_1(capsys):
    assert main(["bounds", "--config", "/definitely/not/here.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery=1\n", encoding="utf-8")
    assert main(["bounds", "--config", str(path)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_non_utf8_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"n_antennas=10\n\xff=3\n")
    assert main(["show-config", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "UTF-8" in err


def test_cli_unknown_flag_exits_1(capsys):
    assert main(["bounds", "--frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_cli_rejects_unknown_subcommand(capsys):
    assert main(["explode"]) == 1


def test_cli_numeric_failure_exits_2(tmp_path, monkeypatch, capsys):
    def boom(spec):
        raise NumericError("synthetic failure")

    monkeypatch.setattr("hwiloc.cli.run_bounds_sweep", boom)
    cfg = _write_cfg(tmp_path)
    assert main(["bounds", "--config", cfg]) == 2
    assert "numeric failure" in capsys.readouterr().err


def _desk_cfg(tmp_path, **overrides):
    """configs/desk.cfg with some keys replaced, written to tmp_path."""
    desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
    keys = parse_config_text(desk.read_text(encoding="utf-8"))
    keys.update(overrides)
    cfg = tmp_path / "desk_variant.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in keys.items()), encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize("values", ["10,10,20", "0,-0"])
def test_cli_duplicate_sweep_values_exit_1_and_write_no_csv(tmp_path, capsys, values):
    """A sweep value given twice (-0 and 0 are one value) would write its
    rows twice: both sweeps reject it as a config error and write no CSV."""
    cfg = _desk_cfg(tmp_path, sweep_values=values)
    for command in ("bounds", "estimate"):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "config error: sweep_values must be distinct"
        ]
        assert not out.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("pilot_seed", "-1", "pilot_seed and combiner_seed must be non-negative"),
        ("combiner_seed", "-3", "pilot_seed and combiner_seed must be non-negative"),
        ("carrier_freq_hz", "1e-300", "carrier frequency is too low"),
    ],
)
def test_cli_bad_link_config_exits_1_and_writes_no_csv(tmp_path, capsys, key, value, message):
    """A negative pilot or combiner seed, which the generator cannot take,
    and a carrier frequency whose wavelength c / f overflows are config
    errors: bounds, estimate and show-config exit 1 with one line and write
    nothing."""
    cfg = _desk_cfg(tmp_path, **{key: value})
    for command in ("bounds", "estimate", "show-config"):
        out = tmp_path / f"{command}.out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: " + message)
        assert not out.exists()


def test_config_with_a_byte_order_mark_reads_as_without(tmp_path):
    """A config that an editor saved with a UTF-8 byte-order mark resolves
    to the spec of the same file without one."""
    desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(codecs.BOM_UTF8 + desk.read_bytes())
    assert resolve_spec(read_config(str(marked))) == resolve_spec(read_config(str(desk)))


def test_cli_no_surviving_realizations_exits_2(tmp_path, monkeypatch, capsys):
    # every realization fails numerically: each pair's curvature matrix A
    # is singular
    def singular(a_mat, b_mat, flat=()):
        return np.full(a_mat.shape, np.nan)

    monkeypatch.setattr("hwiloc.bounds.mismatch_covariance", singular)
    cfg = _desk_cfg(tmp_path, n_realizations="3", sweep_values="0,10")
    out = tmp_path / "r.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 2
    assert "no surviving realizations" in capsys.readouterr().err
    assert not out.exists()


def test_cli_lb_failure_drops_the_draw_from_lb_only(tmp_path, monkeypatch, caplog):
    # the first (point, draw) pair of every lb call gets a singular
    # curvature matrix A; the clean and impaired CRBs stay defined on every
    # draw, and so does the lb of every other pair
    def singular_first(a_mat, b_mat, flat=()):
        a_mat = a_mat.copy()
        a_mat[0] = 0.0
        return mismatch_covariance(a_mat, b_mat, flat)

    monkeypatch.setattr("hwiloc.bounds.mismatch_covariance", singular_first)
    cfg = _desk_cfg(tmp_path)
    out = tmp_path / "g.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    with caplog.at_level(logging.WARNING, logger="hwiloc.harness"):
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]

    def realizations(family):
        return {int(r[5]) for r in rows if r[1].rsplit("_", 1)[0] == family}

    assert realizations("crb_m2") == {10}
    assert realizations("crb_m1") == {10}
    assert min(realizations("lb")) < 10
    # one line per point with failures, counting them by reason
    lines = [r.getMessage() for r in caplog.records if "failed for" in r.getMessage()]
    lb = {float(r[0]): int(r[5]) for r in rows if r[1] == "lb_deb"}
    expected = [
        f"bounds: sweep value {v!r} lb failed for {10 - n} of 10 realizations: "
        f"curvature matrix A is singular={10 - n}"
        for v, n in sorted(lb.items())
        if n < 10
    ]
    assert lines == expected


@pytest.mark.parametrize(
    "overrides, coordinate",
    [
        ({"n_transmissions": "1"}, "angle"),
        ({"n_antennas": "1", "mc_c1": "0", "mc_c2": "0"}, "angle"),
        ({"n_subcarriers": "1", "bandwidth_hz": "1e7"}, "range"),
    ],
)
def test_cli_estimate_rejects_an_unidentifiable_coordinate(
    tmp_path, monkeypatch, capsys, overrides, coordinate
):
    cfg = _desk_cfg(tmp_path, sweep_values="20", n_trials="3", **overrides)
    out = tmp_path / "e.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the estimators need n_")
    assert f"objective is flat in {coordinate}" in err
    assert not out.exists()


def test_cli_bounds_lb_on_a_flat_angle_bounds_the_range(tmp_path, monkeypatch):
    """With one antenna the angle leaves the model: lb leaves it out of A
    and B, as the CRBs leave it out of the FIM, so every draw has an lb,
    inf for the angle and the position and finite for the range."""
    one_antenna = {"n_antennas": "1", "mc_c1": "0", "mc_c2": "0"}
    cfg = _desk_cfg(tmp_path, sweep_values="0,20", n_realizations="3", **one_antenna)
    out = tmp_path / "b.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    lb = [r for r in rows if r[1].startswith("lb_")]
    assert len(lb) == 2 * 3 * 3  # points, scalars, statistics
    for r in lb:
        assert int(r[5]) == 3
        value = float(r[3])
        assert (np.isfinite(value) and value > 0) if r[1] == "lb_deb" else value == np.inf, r


@pytest.mark.parametrize(
    "error", [BrokenProcessPool("A process in the pool\nwas terminated abruptly"), MemoryError()]
)
@pytest.mark.parametrize("command", ["bounds", "estimate"])
def test_cli_lost_worker_or_memory_exits_2_with_one_line(
    tmp_path, monkeypatch, capsys, error, command
):
    def lost(worker, *args):
        raise error

    monkeypatch.setattr("hwiloc.harness._map", lost)
    out = tmp_path / "r.csv"
    assert main([command, "--config", _desk_cfg(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"run failure: {type(error).__name__}")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_cli_import_loads_no_process_pool():
    """A fresh interpreter that imports the CLI loads neither
    concurrent.futures.process nor multiprocessing: only a sweep that starts
    a pool does."""
    src = str(Path(hwiloc.harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, hwiloc.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


def test_cli_bounds_logs_pseudo_true_stops_once_per_point(tmp_path, monkeypatch, caplog):
    cfg = _desk_cfg(tmp_path, n_realizations="4", sweep_values="0,20")
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    with caplog.at_level(logging.INFO, logger="hwiloc.harness"):
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
    lines = [r.getMessage() for r in caplog.records if "pseudo-true stops" in r.getMessage()]
    assert len(lines) == 2
    for line in lines:
        counts = dict(item.split("=") for item in line.split(": ")[-1].split())
        assert set(counts) <= {"gradient", "stalled", "max_iter", "failed"}
        assert sum(map(int, counts.values())) == 4


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param(key, value, message, id=f"{key}={value}")
        for key, value, message in (
            ("noise_psd_dbm_hz", "1e308", "noise level"),
            ("tx_power_dbm", "1e308", "pilot amplitude"),
            ("ue_y", "nan", "must be finite"),
            ("sweep_values", "0,inf", "must be finite"),
            ("sigma_cfo", "inf", "spreads must be finite"),
            ("sigma_pn_deg", "inf", "spreads must be finite"),
            ("mc_c1", "nan+0j", "must be finite"),
            ("pa_clip", "nan", "clip level"),
        )
    ],
)
def test_cli_rejects_non_finite_values(tmp_path, monkeypatch, capsys, key, value, message):
    cfg = _desk_cfg(tmp_path, **{key: value})
    out = tmp_path / "r.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value, ok",
    [
        ("bandwidth_hz", "1e-300", False),  # sigma_n**4 underflows to 0
        ("bandwidth_hz", "1e-140", False),  # 4 / sigma_n**4 overflows
        ("bandwidth_hz", "1e-130", True),
        ("noise_psd_dbm_hz", "1500", False),  # sigma_n**4 overflows
    ],
)
def test_cli_noise_level_must_keep_lb_finite(tmp_path, monkeypatch, capsys, key, value, ok):
    cfg = _desk_cfg(tmp_path, sweep_values="20", n_realizations="2", **{key: value})
    out = tmp_path / "r.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    code = main(["bounds", "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    if ok:
        assert code == 0 and out.exists()
    else:
        assert code == 1 and err.startswith("config error:") and "noise level" in err
        assert not out.exists()


def test_cli_narrow_band_position_bound_is_finite(tmp_path, monkeypatch):
    # at 1e-130 Hz the delay information sits ~1e270 below the angle
    # information: the position bound must come out finite, not inf. It is
    # at least the delay bound, up to rounding: with the angle term ~1e-138
    # of it, the two agree to the last digits.
    cfg = _desk_cfg(tmp_path, sweep_values="20", n_realizations="2", bandwidth_hz="1e-130")
    out = tmp_path / "r.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = {
        (r[1], r[2]): float(r[3])
        for r in (line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:])
    }
    for family in ("crb_m2", "crb_m1"):
        for stat in ("mean", "min", "max"):
            peb, deb = rows[(f"{family}_peb", stat)], rows[(f"{family}_deb", stat)]
            assert math.isfinite(peb), (family, stat, peb)
            assert peb >= deb * (1.0 - 1e-12), (family, stat, peb, deb)


def test_cli_estimate_rejects_ue_outside_range_scan(tmp_path, monkeypatch, capsys):
    # 50 m is past the 9.6 m delay-ambiguity span of desk.cfg: every fit
    # would land on an alias of the true range
    cfg = _desk_cfg(tmp_path, ue_x="50", sweep_values="20", n_trials="5", n_realizations="1")
    out = tmp_path / "r.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "outside the estimators' scan" in err
    assert not out.exists()
    # the bounds need no scan and still run there
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("ue_x,ok", [("0.4", False), ("0.6", True), ("10.0", True), ("10.2", False)])
def test_estimator_trials_range_window_edges(ue_x, ok):
    # desk scale: c/df = 9.59 m, so the window is [0.5, 0.5 + 9.59) m
    spec = desk_spec(outputs="mmle_rmse", ue_x=ue_x, ue_y="0", sweep_values="30")
    if ok:
        assert len(run_estimator_trials(spec)) == 1
    else:
        with pytest.raises(ConfigError, match="outside the estimators' scan"):
            run_estimator_trials(spec)


def test_cli_accepts_infinite_pa_clip(tmp_path, monkeypatch, capsys):
    cfg = _desk_cfg(tmp_path, pa_clip="inf", sweep_values="20", n_realizations="1")
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 27


def _assert_csv_values_positive(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER and len(lines) > 1
    for line in lines[1:]:
        sweep_value, _, _, value, _, realizations, trials = line.split(",")
        assert not np.isnan(float(sweep_value))
        assert int(realizations) >= 0 and int(trials) >= 0
        assert float(value) > 0, line  # NaN fails this too


@pytest.mark.parametrize("key", ["n_transmissions", "n_subcarriers"])
def test_cli_bounds_unidentifiable_parameter_is_infinite(tmp_path, monkeypatch, key):
    # one transmission leaves the angle unidentifiable, one subcarrier the
    # delay: every row of the affected scalars, and of the position bound,
    # is inf in every family, never NaN, a clipped zero or the finite
    # diagonal of a numerically singular inverse
    flat = {"n_transmissions": ("aeb", "peb"), "n_subcarriers": ("deb", "peb")}[key]
    cfg = _desk_cfg(tmp_path, **{key: "1"}, n_realizations="2", sweep_values="0,20")
    out = tmp_path / "r.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    _assert_csv_values_positive(out)
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    affected = [r for r in rows if r[1].rsplit("_", 1)[1] in flat]
    families = {r[1].rsplit("_", 1)[0] for r in affected}
    assert families == {"crb_m2", "crb_m1", "lb"}
    assert len(affected) == 2 * 3 * len(flat) * 3  # points, families, scalars, statistics
    assert {r[3] for r in affected} == {"inf"}


@pytest.mark.parametrize(
    "overrides, scalar",
    [
        ({"n_subcarriers": "1"}, "aeb"),
        ({"n_antennas": "1", "mc_c1": "0", "mc_c2": "0"}, "deb"),
    ],
)
def test_cli_bounds_crb_of_the_identifiable_coordinate_is_finite(
    tmp_path, monkeypatch, overrides, scalar
):
    """On desk.cfg with one subcarrier (flat in range) the CRBs and lb of the
    angle, and with one antenna (flat in angle) those of the range, are
    finite on every draw: the FIM, and A and B, are inverted without the
    flat coordinate, so no draw reads the rounding of a singular inverse."""
    cfg = _desk_cfg(tmp_path, outputs=f"crb_m2,crb_m1,lb,{scalar}", **overrides)
    out = tmp_path / "r.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
    assert {r[1] for r in rows} == {f"crb_m2_{scalar}", f"crb_m1_{scalar}", f"lb_{scalar}"}
    assert len(rows) == 6 * 3 * 3  # points, families, statistics
    for r in rows:
        assert np.isfinite(float(r[3])) and float(r[3]) > 0, r
        assert int(r[5]) == 10


@st.composite
def _small_run(draw) -> dict[str, str]:
    """A valid small run: N <= 6, G <= 4, K <= 16, one sweep value, 1-3
    realizations and trials, random hardware and UE position."""
    axis = draw(st.sampled_from(SWEEP_AXES))
    ue_range = draw(st.floats(0.3, 6.0))
    ue_aoa = draw(st.floats(-1.5, 1.5))
    keys = {
        "n_antennas": st.integers(1, 6),
        "n_transmissions": st.integers(1, 4),
        "n_subcarriers": st.integers(1, 16),
        "cp_length": st.integers(0, 4),
        "n_realizations": st.integers(1, 3),
        "n_trials": st.integers(1, 3),
        "master_seed": st.integers(0, 2**32 - 1),
        "mc_c1": _COMPLEX,
        "mc_c2": _COMPLEX,
        **{
            k: _NUMERIC_KEYS[k]
            for k in ("tx_power_dbm", "sigma_pn_deg", "sigma_cfo", "sigma_mc", "pa_clip")
        },
    }
    run = {k: _text(draw(v)) for k, v in keys.items()}
    run.update(
        sweep_axis=axis,
        sweep_values=_text(draw(_SWEEP_VALUES[axis])),
        ue_x=_text(ue_range * math.cos(ue_aoa)),
        ue_y=_text(ue_range * math.sin(ue_aoa)),
    )
    return run


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_small_run())
def test_cli_small_random_configs_never_raise(tmp_path, run):
    """Every valid small config ends in a documented exit code, and a
    successful run writes only positive, non-NaN values."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in run.items()), encoding="utf-8")
    for command in ("bounds", "estimate"):
        out = tmp_path / f"{command}.csv"
        out.unlink(missing_ok=True)
        code = main([command, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 0:
            _assert_csv_values_positive(out)


def test_cli_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "6/6 checks passed"
    assert all(line.startswith("ok ") for line in lines[:-1])


@pytest.mark.parametrize(
    "flag, value", [("--config", "/nonexistent.cfg"), ("--seed", "5"), ("--sweep", "pa")]
)
def test_cli_validate_rejects_sweep_flags(tmp_path, capsys, flag, value):
    """validate reads no config, so a config, seed or sweep flag is a usage
    error, not a flag it ignores; --out still writes its report."""
    assert main(["validate", flag, value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    out = tmp_path / "report.txt"
    assert main(["validate", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[-1] == "6/6 checks passed"


@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_cli_unwritable_out_exits_1_before_any_sweep(tmp_path, monkeypatch, capsys, target):
    """An --out that is a directory, or whose directory does not exist, is
    a config error that names --out, raised before the sweep runs."""
    calls = []
    monkeypatch.setattr("hwiloc.cli.run_bounds_sweep", lambda spec: calls.append(spec))
    monkeypatch.setattr("hwiloc.cli.run_estimator_trials", lambda spec: calls.append(spec))
    out = tmp_path if target == "directory" else tmp_path / "missing" / "r.csv"
    cfg = _write_cfg(tmp_path)
    for command in ("bounds", "estimate", "show-config", "validate"):
        args = [command, "--out", str(out)]
        assert main(args if command == "validate" else args + ["--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: --out {out}")
    assert calls == []


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reads_the_iteration_cap():
    """The tracer's estimation.maxiter_share needs the estimators' iteration
    cap, which it reads from the estimation module by name."""
    assert _load_tracer()._max_iterations("hwiloc") == hwiloc.estimation.MAX_ITERATIONS


def test_benchmark_tracer_finds_every_layer(tmp_path, monkeypatch):
    """The benchmark tracer wraps package functions by name; every layer it
    times must still exist and be reached by a bounds and an estimate run."""
    tracer = _load_tracer()
    cfg = _desk_cfg(tmp_path, sweep_values="20,30", n_realizations="2", n_trials="3")
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    with tracer.Tracer("hwiloc") as t:
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        first = len(t.names)
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 0
    assert t.absent == []
    assert t.leftovers() == []
    # the bounds run fits the pseudo-trues of every (point, draw) pair of a
    # unit of draws in one call, here two units of one draw, and takes each
    # pair's lb from its own; lb_report, the one-draw form, is not called.
    # Both points share each draw's rotation: one dense sandwich per draw
    # (2 draws)
    bounds = Counter(t.names[:first])
    assert bounds["bounds.pseudo_true"] == 2
    assert bounds["observation.sandwich_matrices"] == 2
    # the estimate run draws a point's trials as stacked arrays, observes
    # and pulls them by FFT and fits both estimators' trials of a point in
    # one FitData: it never calls mu_m1, observe or the one-observation
    # estimators, and nothing else does
    skipped = (
        "observation.mu_m1",
        "observation.observe",
        "estimation.mmle_m2",
        "estimation.mle_m1",
        "bounds.lb_report",
    )
    estimate = Counter(t.names[first:])
    assert {name: bounds[name] + estimate[name] for name in skipped} == dict.fromkeys(skipped, 0)
    assert [n for n in tracer.SPAN_TARGETS if n not in t.names and n not in skipped] == []
    # the scans read slots of the point's FitData, not a model per trial
    assert t.counts[tracer.OBJECTIVE] == 0
    # one PA pass per point (2 points), its pilots shared by the point's
    # trials; no model and no dense sandwich per trial; one scan and one
    # Newton fit per point, over both estimators' trials
    assert estimate["observation.transmit_pilots"] == 2
    assert estimate["observation.sandwich_matrices"] == 0
    assert estimate["estimation.grid_search"] == 2
    assert estimate["estimation.refine"] == 2


def test_cli_rejects_negative_seed(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["bounds", "--config", cfg, "--seed", "-4"]) == 1
