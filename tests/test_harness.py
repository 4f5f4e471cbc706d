"""Tests for configuration handling, the sweep harness and the CLI."""

import importlib.util
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from hwiloc.cli import main
from hwiloc.config_io import (
    DEFAULT_SWEEP_VALUES,
    ExperimentSpec,
    parse_config_text,
    resolve_spec,
    spec_to_text,
)
from hwiloc.estimation import NumericError
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
from hwiloc.model import ConfigError

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
    spec = desk_spec(sweep_axis="pa", sweep_values="0,1", n_realizations="3")
    rows = run_bounds_sweep(spec)
    stats = {
        r.statistic: r.value
        for r in rows
        if r.sweep_value == 1.0 and r.metric == "crb_m2_peb"
    }
    assert stats["max"] > stats["min"], "pilot resampling should move the clean bound"


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


def test_estimator_trials_without_converged_trials_raise(monkeypatch):
    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setattr("hwiloc.harness.mmle_m2", boom)
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    with pytest.raises(NumericError, match="no converged trials for mmle_rmse"):
        run_estimator_trials(desk_spec(outputs="mmle_rmse,mle_m1_rmse"))


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


def test_cli_missing_config_exits_1(capsys):
    assert main(["bounds", "--config", "/definitely/not/here.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery=1\n", encoding="utf-8")
    assert main(["bounds", "--config", str(path)]) == 1
    assert "unknown key" in capsys.readouterr().err


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


def test_cli_no_surviving_realizations_exits_2(tmp_path, monkeypatch, capsys):
    # every realization fails numerically
    def singular(*args, **kwargs):
        raise NumericError("curvature matrix A is singular")

    monkeypatch.setattr("hwiloc.harness.lb_report", singular)
    cfg = _desk_cfg(tmp_path, n_realizations="3", sweep_values="0,10")
    out = tmp_path / "r.csv"
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 2
    assert "no surviving realizations" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_accepts_infinite_pa_clip(tmp_path, monkeypatch, capsys):
    cfg = _desk_cfg(tmp_path, pa_clip="inf", sweep_values="20", n_realizations="1")
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    assert main(["bounds", "--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 27


def test_cli_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "6/6 checks passed"
    assert all(line.startswith("ok ") for line in lines[:-1])


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_finds_every_layer(tmp_path, monkeypatch):
    """The benchmark tracer wraps package functions by name; every layer it
    times must still exist and be reached by a bounds and an estimate run."""
    tracer = _load_tracer()
    cfg = _desk_cfg(tmp_path, sweep_values="20", n_realizations="1", n_trials="1")
    monkeypatch.setenv("HWI_LOC_THREADS", "1")
    with tracer.Tracer("hwiloc") as t:
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b.csv")]) == 0
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "e.csv")]) == 0
    assert t.absent == []
    assert t.leftovers() == []
    assert [name for name in tracer.SPAN_TARGETS if name not in t.names] == []
    assert t.counts[tracer.OBJECTIVE] > 0


def test_cli_rejects_negative_seed(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["bounds", "--config", cfg, "--seed", "-4"]) == 1
