"""Experiment configuration: flat key=value files and the resolved spec.

The config format is a plain text file of `key=value` lines in UTF-8,
with or without a leading byte-order mark. Blank lines and `#` comments
are ignored, keys may appear at most once, and unknown keys are rejected.
Every key has a default, so an empty file (or no file at all) resolves to
the full-scale profile. The defaults live on the dataclasses
(`SystemConfig`, `ImpairmentConfig` and `ExperimentSpec`):
`ExperimentSpec()` is the default experiment, and `DEFAULTS` is that spec
written as config keys. The key set:

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
are comma-separated lists; the sweep values must be distinct. Setting
both coupling taps (or the trailing PA coefficients) to zero drops them,
so `mc_c1=0, mc_c2=0` disables the known coupling and `pa_beta0=1,
pa_beta1=0, pa_beta2=0, pa_clip=inf` makes the amplifier ideal. When
`sweep_values` is not given, a built-in default list for the chosen axis
is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Mapping

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


@dataclass
class ExperimentSpec:
    """Resolved experiment description; `ExperimentSpec()` is the default.

    sweep_axis picks which knob varies (transmit power, one of the
    impairment spreads, or the amplifier on/off switch); sweep_values are
    its settings. Every random draw downstream is a pure function of
    (master_seed, realization/trial index, stream tag), shared across
    sweep points so curves are paired (common random numbers).
    """

    system: SystemConfig = field(default_factory=SystemConfig)
    impairments: ImpairmentConfig = field(default_factory=ImpairmentConfig)
    ue_position: tuple[float, float] = (3.0, 2.0)  # metres
    gain_phase: float = 0.3
    sweep_axis: str = "tx_power_dbm"
    sweep_values: tuple[float, ...] = DEFAULT_SWEEP_VALUES["tx_power_dbm"]
    n_realizations: int = 25
    n_trials: int = 200
    master_seed: int = 1234
    outputs: tuple[str, ...] = OUTPUT_TOKENS

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
        if len(set(self.sweep_values)) < len(self.sweep_values):  # -0.0 == 0.0
            raise ConfigError("sweep_values must be distinct")
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


def _degrees(rad: float) -> float:
    """rad in degrees, as the float next to rad2deg(rad) that deg2rad maps
    back to rad exactly (rad2deg alone misses it for about 1 value in 20)."""
    deg = float(np.rad2deg(rad))
    for cand in (deg, np.nextafter(deg, -np.inf), np.nextafter(deg, np.inf)):
        if float(np.deg2rad(cand)) == rad:
            return float(cand)
    return deg


def _padded(values: tuple, size: int, what: str) -> tuple[complex, ...]:
    if len(values) > size:
        raise ConfigError(f"config format carries at most {what}")
    return tuple(values) + (0j,) * (size - len(values))


def _trimmed(values: tuple, keep_at_least: int) -> tuple[complex, ...]:
    """values without trailing zeros, keeping the first keep_at_least."""
    values = list(values)
    while len(values) > keep_at_least and values[-1] == 0:
        values.pop()
    return tuple(values)


# The one key map. Every field of ExperimentSpec, SystemConfig and
# ImpairmentConfig is the config key of the same name, in field order,
# except these: field -> (keys, field value -> key values, key values ->
# field value).
_FIELD_KEYS: dict[str, tuple[tuple[str, ...], Any, Any]] = {
    "sigma_pn": (
        ("sigma_pn_deg",),
        lambda rad: (_degrees(rad),),
        lambda deg: float(np.deg2rad(deg)),
    ),
    "coupling": (
        ("mc_c1", "mc_c2"),
        lambda taps: _padded(taps, 2, "two coupling taps"),
        lambda *taps: _trimmed(taps, keep_at_least=0),
    ),
    "pa_coeffs": (
        ("pa_beta0", "pa_beta1", "pa_beta2"),
        lambda betas: _padded(betas, 3, "three PA coefficients"),
        lambda *betas: _trimmed(betas, keep_at_least=1),
    ),
    "ue_position": (("ue_x", "ue_y"), tuple, lambda x, y: (x, y)),
}


def _key_values(config: Any) -> dict[str, Any]:
    """A spec (or one of its configs) as {config key: typed value}, in
    canonical key order."""
    values: dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            values.update(_key_values(value))
        elif f.name in _FIELD_KEYS:
            keys, to_keys, _ = _FIELD_KEYS[f.name]
            values.update(zip(keys, to_keys(value)))
        else:
            values[f.name] = value
    return values


def _from_key_values(cls: type, values: Mapping[str, Any]) -> Any:
    """Inverse of _key_values: build cls from {config key: typed value}."""
    kwargs = {}
    for f in fields(cls):
        if f.name in values:
            kwargs[f.name] = values[f.name]
        elif f.name in _FIELD_KEYS:
            keys, _, from_keys = _FIELD_KEYS[f.name]
            kwargs[f.name] = from_keys(*(values[k] for k in keys))
        else:  # a sub-config, whose default_factory is its class
            kwargs[f.name] = _from_key_values(f.default_factory, values)
    return cls(**kwargs)


# canonical key order, each key's default and (by its type) how it parses
DEFAULTS: dict[str, Any] = _key_values(ExperimentSpec())

_READERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    complex: (lambda text: complex(text.replace(" ", "")), "a complex number"),
    str: (str, "text"),
}


def _parse(key: str, text: str) -> Any:
    """Config text for key, as a value of the type of its default."""
    default = DEFAULTS[key]
    is_list = isinstance(default, tuple)
    read, what = _READERS[type(default[0] if is_list else default)]
    try:
        if is_list:
            return tuple(read(t.strip()) for t in text.split(",") if t.strip())
        return read(text)
    except ValueError:
        what = "a comma-separated number list" if is_list else what
        raise ConfigError(f"'{key}' must be {what}, got '{text}'") from None


def _format(value: Any, default: Any) -> str:
    """Config text for value, written as the type of default."""
    if isinstance(default, tuple):
        return ",".join(_format(v, default[0]) for v in value)
    if isinstance(default, complex):
        text = repr(complex(value))
        return text[1:-1] if text.startswith("(") else text
    if isinstance(default, float):
        return repr(float(value))
    return str(value)


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
    # utf-8-sig drops a leading byte-order mark, which editors may save
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    return parse_config_text(text)


def resolve_spec(overrides: Mapping[str, str] | None = None) -> ExperimentSpec:
    """Merge overrides onto the defaults and build the typed spec."""
    overrides = overrides or {}
    values = dict(DEFAULTS)
    for key, text in overrides.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key '{key}'")
        values[key] = _parse(key, text)
    if "sweep_values" not in overrides:
        # ExperimentSpec rejects an unknown axis
        values["sweep_values"] = DEFAULT_SWEEP_VALUES.get(values["sweep_axis"], ())
    return _from_key_values(ExperimentSpec, values)


def spec_to_text(spec: ExperimentSpec) -> str:
    """Serialize a spec to canonical config text (parses back to itself)."""
    return "".join(f"{k}={_format(v, DEFAULTS[k])}\n" for k, v in _key_values(spec).items())
