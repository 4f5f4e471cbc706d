"""Experiment configuration: flat key=value files and the resolved spec.

The config format is a plain text file of `key=value` lines. Blank lines
and `#` comments are ignored, keys may appear at most once, and unknown
keys are rejected. Every key has a default, so an empty file (or no file
at all) resolves to the full-scale profile. The key set:

system:
    n_antennas, n_transmissions, n_subcarriers, cp_length,
    carrier_freq_hz, bandwidth_hz, load_impedance_ohm, noise_psd_dbm_hz,
    noise_figure_db, tx_power_dbm, pilot_seed, combiner_seed
impairments:
    sigma_pn_deg, sigma_cfo, mc_c1, mc_c2, sigma_mc,
    pa_beta0, pa_beta1, pa_beta2, pa_clip
experiment:
    ue_x, ue_y, gain_phase, sweep_axis, sweep_values, n_realizations,
    n_trials, master_seed, outputs

Complex values are written like `0.6+0.5j`. `sweep_values` and `outputs`
are comma-separated lists. Setting both coupling taps (or the trailing PA
coefficients) to zero drops them, so `mc_c1=0, mc_c2=0` disables the known
coupling and `pa_beta0=1, pa_beta1=0, pa_beta2=0, pa_clip=inf` makes the
amplifier ideal. When `sweep_values` is not given, a built-in default list
for the chosen axis is used.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .impairments import ImpairmentConfig
from .model import ConfigError, SystemConfig

SWEEP_AXES = ("tx_power_dbm", "sigma_pn_deg", "sigma_cfo", "sigma_mc", "pa")

# bound rows are the cross product of requested families and scalars;
# estimator rows are requested directly
BOUND_FAMILIES = ("crb_m2", "crb_m1", "lb")
BOUND_SCALARS = ("aeb", "deb", "peb")
ESTIMATOR_METRICS = ("mmle_rmse", "mle_m1_rmse")
OUTPUT_TOKENS = BOUND_FAMILIES + BOUND_SCALARS + ESTIMATOR_METRICS

DEFAULT_SWEEP_VALUES: dict[str, tuple[float, ...]] = {
    "tx_power_dbm": (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0),
    "sigma_pn_deg": (1.0, 10.0, 20.0, 30.0),
    "sigma_cfo": (0.001, 0.01, 0.02),
    "sigma_mc": (0.005, 0.02, 0.05),
    "pa": (0.0, 1.0),
}

# canonical key order; values are default strings (None = depends on axis)
DEFAULTS: dict[str, str | None] = {
    "n_antennas": "10",
    "n_transmissions": "10",
    "n_subcarriers": "100",
    "cp_length": "7",
    "carrier_freq_hz": "140e9",
    "bandwidth_hz": "1e9",
    "load_impedance_ohm": "50.0",
    "noise_psd_dbm_hz": "-173.855",
    "noise_figure_db": "10.0",
    "tx_power_dbm": "20.0",
    "pilot_seed": "101",
    "combiner_seed": "202",
    "sigma_pn_deg": "10.0",
    "sigma_cfo": "0.01",
    "mc_c1": "0.6+0.5j",
    "mc_c2": "0.4054-0.128j",
    "sigma_mc": "0.02",
    "pa_beta0": "0.9798+0.0286j",
    "pa_beta1": "0.0122-0.0043j",
    "pa_beta2": "-0.0007+0.0001j",
    "pa_clip": "25.0",
    "ue_x": "3.0",
    "ue_y": "2.0",
    "gain_phase": "0.3",
    "sweep_axis": "tx_power_dbm",
    "sweep_values": None,
    "n_realizations": "25",
    "n_trials": "200",
    "master_seed": "1234",
    "outputs": ",".join(OUTPUT_TOKENS),
}


@dataclass
class ExperimentSpec:
    """Resolved experiment description.

    sweep_axis picks which knob varies (transmit power, one of the
    impairment spreads, or the amplifier on/off switch); sweep_values are
    its settings. Every random draw downstream is a pure function of
    (master_seed, realization/trial index, stream tag), shared across
    sweep points so curves are paired (common random numbers).
    """

    system: SystemConfig
    impairments: ImpairmentConfig
    ue_position: tuple[float, float]  # metres
    gain_phase: float
    sweep_axis: str
    sweep_values: tuple[float, ...]
    n_realizations: int
    n_trials: int
    master_seed: int
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        self.ue_position = tuple(float(v) for v in np.asarray(self.ue_position, dtype=float))
        self.sweep_values = tuple(float(v) for v in self.sweep_values)
        self.outputs = tuple(self.outputs)
        if len(self.ue_position) != 2:
            raise ConfigError("ue position must be a 2-vector")
        if not np.all(np.isfinite(self.ue_position + self.sweep_values + (self.gain_phase,))):
            raise ConfigError("ue_x, ue_y, gain_phase and sweep_values must be finite")
        if self.ue_position[0] <= 0.0:
            raise ConfigError("ue position must lie in the front half-plane (ue_x > 0)")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis '{self.sweep_axis}' (choose from {', '.join(SWEEP_AXES)})"
            )
        if not self.sweep_values:
            raise ConfigError("sweep_values must be non-empty")
        if self.sweep_axis == "pa" and any(v not in (0.0, 1.0) for v in self.sweep_values):
            raise ConfigError("pa sweep values must be 0 or 1")
        if self.sweep_axis.startswith("sigma") and any(v < 0 for v in self.sweep_values):
            raise ConfigError("impairment spread sweep values must be non-negative")
        if self.sweep_axis == "tx_power_dbm":
            for v in self.sweep_values:
                replace(self.system, tx_power_dbm=v)  # checks the pilot amplitude
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be at least 1")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit an unsigned 64-bit integer")
        unknown = [t for t in self.outputs if t not in OUTPUT_TOKENS]
        if unknown:
            raise ConfigError(
                f"unknown outputs {unknown} (choose from {', '.join(OUTPUT_TOKENS)})"
            )
        if not self.outputs:
            raise ConfigError("outputs must be non-empty")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines into a mapping of overrides (strings)."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ConfigError(f"config line {lineno}: expected key=value, got '{raw.strip()}'")
        if key not in DEFAULTS:
            raise ConfigError(f"config line {lineno}: unknown key '{key}'")
        if key in mapping:
            raise ConfigError(f"config line {lineno}: duplicate key '{key}'")
        if not value:
            raise ConfigError(f"config line {lineno}: empty value for '{key}'")
        mapping[key] = value
    return mapping


def read_config(path: str) -> dict[str, str]:
    """Overrides from a config file; raises OSError or ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _as_int(raw: Mapping[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"'{key}' must be an integer, got '{raw[key]}'") from None


def _as_float(raw: Mapping[str, str], key: str) -> float:
    try:
        return float(raw[key])
    except ValueError:
        raise ConfigError(f"'{key}' must be a number, got '{raw[key]}'") from None


def _as_complex(raw: Mapping[str, str], key: str) -> complex:
    try:
        return complex(raw[key].replace(" ", ""))
    except ValueError:
        raise ConfigError(f"'{key}' must be a complex number, got '{raw[key]}'") from None


def _as_float_list(raw: Mapping[str, str], key: str) -> tuple[float, ...]:
    toks = [t.strip() for t in raw[key].split(",") if t.strip()]
    try:
        return tuple(float(t) for t in toks)
    except ValueError:
        raise ConfigError(f"'{key}' must be a comma-separated number list, got '{raw[key]}'") from None


def _trim_trailing_zeros(values: list[complex], keep_at_least: int) -> tuple[complex, ...]:
    while len(values) > keep_at_least and values[-1] == 0:
        values.pop()
    return tuple(values)


def resolve_spec(overrides: Mapping[str, str] | None = None) -> ExperimentSpec:
    """Merge overrides onto the defaults and build the typed spec."""
    overrides = dict(overrides or {})
    raw: dict[str, str] = {k: v for k, v in DEFAULTS.items() if v is not None}
    raw.update(overrides)

    axis = raw["sweep_axis"]
    if "sweep_values" in overrides:
        sweep_values = _as_float_list(raw, "sweep_values")
    else:
        if axis not in DEFAULT_SWEEP_VALUES:
            raise ConfigError(
                f"unknown sweep axis '{axis}' (choose from {', '.join(SWEEP_AXES)})"
            )
        sweep_values = DEFAULT_SWEEP_VALUES[axis]

    system = SystemConfig(
        n_antennas=_as_int(raw, "n_antennas"),
        n_transmissions=_as_int(raw, "n_transmissions"),
        n_subcarriers=_as_int(raw, "n_subcarriers"),
        cp_length=_as_int(raw, "cp_length"),
        carrier_freq_hz=_as_float(raw, "carrier_freq_hz"),
        bandwidth_hz=_as_float(raw, "bandwidth_hz"),
        load_impedance_ohm=_as_float(raw, "load_impedance_ohm"),
        noise_psd_dbm_hz=_as_float(raw, "noise_psd_dbm_hz"),
        noise_figure_db=_as_float(raw, "noise_figure_db"),
        tx_power_dbm=_as_float(raw, "tx_power_dbm"),
        pilot_seed=_as_int(raw, "pilot_seed"),
        combiner_seed=_as_int(raw, "combiner_seed"),
    )
    coupling = _trim_trailing_zeros(
        [_as_complex(raw, "mc_c1"), _as_complex(raw, "mc_c2")], keep_at_least=0
    )
    pa_coeffs = _trim_trailing_zeros(
        [_as_complex(raw, "pa_beta0"), _as_complex(raw, "pa_beta1"), _as_complex(raw, "pa_beta2")],
        keep_at_least=1,
    )
    impairments = ImpairmentConfig(
        sigma_pn=float(np.deg2rad(_as_float(raw, "sigma_pn_deg"))),
        sigma_cfo=_as_float(raw, "sigma_cfo"),
        coupling=coupling,
        sigma_mc=_as_float(raw, "sigma_mc"),
        pa_coeffs=pa_coeffs,
        pa_clip=_as_float(raw, "pa_clip"),
    )
    return ExperimentSpec(
        system=system,
        impairments=impairments,
        ue_position=(_as_float(raw, "ue_x"), _as_float(raw, "ue_y")),
        gain_phase=_as_float(raw, "gain_phase"),
        sweep_axis=axis,
        sweep_values=sweep_values,
        n_realizations=_as_int(raw, "n_realizations"),
        n_trials=_as_int(raw, "n_trials"),
        master_seed=_as_int(raw, "master_seed"),
        outputs=tuple(t.strip() for t in raw["outputs"].split(",") if t.strip()),
    )


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_degrees(rad: float) -> str:
    """rad in degrees, as the float next to rad2deg(rad) that deg2rad maps
    back to rad exactly (rad2deg alone misses it for about 1 value in 20)."""
    deg = float(np.rad2deg(rad))
    for cand in (deg, np.nextafter(deg, -np.inf), np.nextafter(deg, np.inf)):
        if float(np.deg2rad(cand)) == rad:
            return _fmt_float(cand)
    return _fmt_float(deg)


def _fmt_complex(v: complex) -> str:
    s = repr(complex(v))
    return s[1:-1] if s.startswith("(") else s


def spec_to_text(spec: ExperimentSpec) -> str:
    """Serialize a spec to canonical config text (parses back to itself)."""
    imp = spec.impairments
    if len(imp.coupling) > 2:
        raise ConfigError("config format carries at most two coupling taps")
    if len(imp.pa_coeffs) > 3:
        raise ConfigError("config format carries at most three PA coefficients")
    taps = list(imp.coupling) + [0.0] * (2 - len(imp.coupling))
    betas = list(imp.pa_coeffs) + [0.0] * (3 - len(imp.pa_coeffs))
    sys_cfg = spec.system
    pairs = [
        ("n_antennas", str(sys_cfg.n_antennas)),
        ("n_transmissions", str(sys_cfg.n_transmissions)),
        ("n_subcarriers", str(sys_cfg.n_subcarriers)),
        ("cp_length", str(sys_cfg.cp_length)),
        ("carrier_freq_hz", _fmt_float(sys_cfg.carrier_freq_hz)),
        ("bandwidth_hz", _fmt_float(sys_cfg.bandwidth_hz)),
        ("load_impedance_ohm", _fmt_float(sys_cfg.load_impedance_ohm)),
        ("noise_psd_dbm_hz", _fmt_float(sys_cfg.noise_psd_dbm_hz)),
        ("noise_figure_db", _fmt_float(sys_cfg.noise_figure_db)),
        ("tx_power_dbm", _fmt_float(sys_cfg.tx_power_dbm)),
        ("pilot_seed", str(sys_cfg.pilot_seed)),
        ("combiner_seed", str(sys_cfg.combiner_seed)),
        ("sigma_pn_deg", _fmt_degrees(imp.sigma_pn)),
        ("sigma_cfo", _fmt_float(imp.sigma_cfo)),
        ("mc_c1", _fmt_complex(taps[0])),
        ("mc_c2", _fmt_complex(taps[1])),
        ("sigma_mc", _fmt_float(imp.sigma_mc)),
        ("pa_beta0", _fmt_complex(betas[0])),
        ("pa_beta1", _fmt_complex(betas[1])),
        ("pa_beta2", _fmt_complex(betas[2])),
        ("pa_clip", _fmt_float(imp.pa_clip)),
        ("ue_x", _fmt_float(spec.ue_position[0])),
        ("ue_y", _fmt_float(spec.ue_position[1])),
        ("gain_phase", _fmt_float(spec.gain_phase)),
        ("sweep_axis", spec.sweep_axis),
        ("sweep_values", ",".join(_fmt_float(v) for v in spec.sweep_values)),
        ("n_realizations", str(spec.n_realizations)),
        ("n_trials", str(spec.n_trials)),
        ("master_seed", str(spec.master_seed)),
        ("outputs", ",".join(spec.outputs)),
    ]
    return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"
