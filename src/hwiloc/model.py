"""Geometry, pilot and noise primitives for uplink OFDM localization.

A base station with an N-element half-wavelength uniform linear array (ULA)
receives uplink OFDM pilots from a single-antenna user over a line-of-sight
channel. The user sits at 2D position p, seen from the array at angle of
arrival aoa and propagation delay delay, with complex path gain
alpha = gain_amp * exp(-1j * gain_phase). Everything downstream (impairment
chains, estimators, bounds) builds on the primitives defined here.

Conventions used throughout the package:

* antennas are indexed n = 0 .. N-1, the reference element is n = 0;
* subcarriers are indexed k = 1 .. K when accumulating delay phase;
* the flattened observation stacks transmissions first (g-major), i.e.
  y = [y_1; y_2; ...; y_G] with each y_g of length K.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration values."""


@dataclass
class SystemConfig:
    """Static link parameters shared by simulation, estimation and bounds.

    Defaults correspond to a 140 GHz uplink with a 10-element ULA, 100
    subcarriers over 1 GHz and a 50 ohm load. Power levels are dBm.
    """

    n_antennas: int = 10
    n_transmissions: int = 10
    n_subcarriers: int = 100
    cp_length: int = 7
    carrier_freq_hz: float = 140e9
    bandwidth_hz: float = 1e9
    load_impedance_ohm: float = 50.0
    noise_psd_dbm_hz: float = -173.855
    noise_figure_db: float = 10.0
    tx_power_dbm: float = 20.0
    pilot_seed: int = 101
    combiner_seed: int = 202

    def __post_init__(self) -> None:
        if self.n_antennas < 1 or self.n_transmissions < 1 or self.n_subcarriers < 1:
            raise ConfigError("array/transmission/subcarrier counts must be positive")
        if self.cp_length < 0:
            raise ConfigError("cyclic prefix length must be non-negative")
        levels = (
            self.carrier_freq_hz, self.bandwidth_hz, self.load_impedance_ohm,
            self.noise_psd_dbm_hz, self.noise_figure_db, self.tx_power_dbm,
        )
        if not np.all(np.isfinite(levels)):
            raise ConfigError("frequencies, load impedance and power levels must be finite")
        if self.carrier_freq_hz <= 0 or self.bandwidth_hz <= 0:
            raise ConfigError("carrier frequency and bandwidth must be positive")
        if not np.isfinite(self.wavelength_m):
            raise ConfigError("carrier frequency is too low: its wavelength c / f is not finite")
        if self.pilot_seed < 0 or self.combiner_seed < 0:
            raise ConfigError("pilot_seed and combiner_seed must be non-negative")
        if self.load_impedance_ohm <= 0:
            raise ConfigError("load impedance must be positive")
        try:
            sigma_n = noise_std(self)
            quartic = sigma_n**4  # the lb bound scales by 4 / sigma_n**4
            scales = (sigma_n, self.pilot_amplitude, quartic, 4.0 / quartic if quartic > 0 else 0.0)
        except OverflowError:
            scales = (np.inf,)
        if not all(0.0 < s < np.inf for s in scales):
            raise ConfigError(
                "noise level and pilot amplitude must be positive and finite "
                "(check noise_psd_dbm_hz, noise_figure_db, bandwidth_hz and tx_power_dbm)"
            )

    @property
    def subcarrier_spacing_hz(self) -> float:
        return self.bandwidth_hz / self.n_subcarriers

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def tx_power_w(self) -> float:
        return 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)

    @property
    def pilot_amplitude(self) -> float:
        """Constant modulus of every pilot symbol, sqrt(P * R) volts."""
        return float(np.sqrt(self.tx_power_w * self.load_impedance_ohm))


@dataclass
class ChannelParams:
    """Channel-domain parameter vector theta = [aoa, delay, gain_amp, gain_phase].

    aoa is in radians within the ULA's unambiguous sector (-pi/2, pi/2),
    delay in seconds (non-negative), gain_amp >= 0 and gain_phase in radians.
    The complex path gain is gain_amp * exp(-1j * gain_phase).
    """

    aoa: float
    delay: float
    gain_amp: float
    gain_phase: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.gain_amp < 0:
            raise ValueError("gain amplitude must be non-negative")

    @property
    def gain(self) -> complex:
        return self.gain_amp * np.exp(-1j * self.gain_phase)

    def as_array(self) -> np.ndarray:
        return np.array([self.aoa, self.delay, self.gain_amp, self.gain_phase])

    @staticmethod
    def from_array(theta: np.ndarray) -> "ChannelParams":
        return ChannelParams(*(float(v) for v in np.asarray(theta)))


def polar_to_positions(aoa, range_m) -> np.ndarray:
    """Positions range_m * (cos aoa, sin aoa), (..., 2), of polar coordinates
    aoa and range_m, both (...)."""
    return np.asarray(range_m)[..., None] * np.stack([np.cos(aoa), np.sin(aoa)], axis=-1)


def positions_to_polar(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The polar coordinates (aoa, range) = (atan2(p_y, p_x), |p|), each
    (...), of positions (..., 2): the inverse of :func:`polar_to_positions`,
    and with delay = range / c of :func:`params_to_positions`."""
    px, py = np.moveaxis(np.asarray(positions, dtype=float), -1, 0)
    return np.arctan2(py, px), np.hypot(px, py)


def params_to_positions(params: np.ndarray) -> np.ndarray:
    """Positions p = c * delay * [cos aoa, sin aoa], (..., 2), of stacked
    (aoa, delay, gain_amp, gain_phase) rows, (..., 4)."""
    aoa, delay = np.moveaxis(np.asarray(params, dtype=float)[..., :2], -1, 0)
    if np.any(delay <= 0):
        raise ValueError("delay must be positive to place the user")
    return polar_to_positions(aoa, SPEED_OF_LIGHT * delay)


def steering_vector(aoa: float, n_antennas: int) -> np.ndarray:
    """ULA steering vector a(aoa), entries exp(1j * n * pi * sin(aoa)).

    Half-wavelength element spacing, reference element n = 0 (first entry
    always 1). Every entry has unit modulus.
    """
    n = np.arange(n_antennas)
    return np.exp(1j * np.pi * n * np.sin(aoa))


def steering_derivatives(
    aoa: float | np.ndarray, n_antennas: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The steering vector a with its first and second derivatives w.r.t. aoa.

    With phase(n) = n * pi * sin(aoa):
        da  = (1j * n * pi * cos(aoa)) * a
        dda = ((1j * n * pi * cos(aoa))**2 - 1j * n * pi * sin(aoa)) * a
    The second term of dda is the product-rule contribution from the
    aoa-dependence of the first-derivative factor. An aoa column of shape
    (T, 1) gives T vectors of each, (T, N).
    """
    a = steering_vector(aoa, n_antennas)
    n = np.arange(n_antennas)
    fac = 1j * np.pi * n * np.cos(aoa)
    da = fac * a
    dda = (fac**2 - 1j * np.pi * n * np.sin(aoa)) * a
    return a, da, dda


def delay_vector(delay: float, n_subcarriers: int, subcarrier_spacing_hz: float) -> np.ndarray:
    """Per-subcarrier delay phasors d(delay), entries exp(-2j*pi*k*df*delay).

    Subcarriers are counted k = 1 .. K. delay = 0 gives the all-ones vector.
    """
    k = np.arange(1, n_subcarriers + 1)
    return np.exp(-2j * np.pi * k * subcarrier_spacing_hz * delay)


def gain_from_geometry(delay: float, wavelength_m: float, gain_phase: float) -> complex:
    """Free-space path gain wavelength/(4*pi*c*delay) * exp(-1j*gain_phase)."""
    if delay <= 0:
        raise ValueError("delay must be positive")
    amp = wavelength_m / (4.0 * np.pi * SPEED_OF_LIGHT * delay)
    return amp * np.exp(-1j * gain_phase)


def geometric_params(position: np.ndarray, gain_phase: float, cfg: SystemConfig) -> ChannelParams:
    """Channel parameters of a user at `position` with free-space path gain.

    The gain amplitude follows from the geometry (wavelength over 4*pi times
    the path length); only the phase is free. The position must lie away
    from the array and strictly in its front half-plane (p_x > 0), so the
    angle stays inside the unambiguous sector.
    """
    position = np.asarray(position, dtype=float)
    if position.shape != (2,):
        raise ValueError("position must be a 2-vector")
    aoa, rng = positions_to_polar(position)
    if rng <= 0.0:
        raise ValueError("position must be away from the array origin")
    if position[0] <= 0.0:
        raise ValueError("position must lie in the front half-plane (p_x > 0)")
    delay = float(rng) / SPEED_OF_LIGHT
    alpha = gain_from_geometry(delay, cfg.wavelength_m, gain_phase)
    return ChannelParams(aoa=float(aoa), delay=delay, gain_amp=abs(alpha), gain_phase=gain_phase)


@lru_cache(maxsize=16)
def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix, entry (r, c) = exp(-2j*pi*r*c/n) / sqrt(n).

    Symmetric (F == F.T) and unitary (F @ F.conj().T == I). Built once per
    size and shared, so the returned array is read-only.
    """
    idx = np.arange(n)
    f = np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    f.flags.writeable = False
    return f


def generate_pilots(cfg: SystemConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """Constant-modulus pilot symbols, shape (G, K).

    Each symbol is pilot_amplitude * exp(1j * phase) with phases drawn
    uniformly on [0, 2*pi). Reproducible from cfg.pilot_seed unless an
    explicit generator is passed.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.pilot_seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.n_transmissions, cfg.n_subcarriers))
    return cfg.pilot_amplitude * np.exp(1j * phases)


def generate_combiners(cfg: SystemConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """Unit-norm analog combiners, shape (G, N), one row per transmission.

    Entries are random unit-modulus phasors scaled by 1/sqrt(N), so each row
    has exactly unit Euclidean norm. Reproducible from cfg.combiner_seed.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.combiner_seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.n_transmissions, cfg.n_antennas))
    return np.exp(1j * phases) / np.sqrt(cfg.n_antennas)


@dataclass
class PilotBlock:
    """One block of pilot symbols and the combiners used to receive them."""

    symbols: np.ndarray  # (G, K) complex, constant modulus
    combiners: np.ndarray  # (G, N) complex, unit-norm rows

    def __post_init__(self) -> None:
        self.symbols = np.asarray(self.symbols, dtype=complex)
        self.combiners = np.asarray(self.combiners, dtype=complex)
        if self.symbols.ndim != 2 or self.combiners.ndim != 2:
            raise ValueError("symbols and combiners must be 2D (G, K) and (G, N)")
        if self.symbols.shape[0] != self.combiners.shape[0]:
            raise ValueError("symbols and combiners must agree on the number of transmissions")

    @staticmethod
    def from_config(cfg: SystemConfig) -> "PilotBlock":
        return PilotBlock(symbols=generate_pilots(cfg), combiners=generate_combiners(cfg))


def noise_std(cfg: SystemConfig) -> float:
    """Complex noise standard deviation sigma_n over the full band.

    sigma_n^2 = 10**(((N0_dbm_hz + NF_db) - 30) / 10) * W, i.e. the thermal
    floor plus receiver noise figure converted from dBm/Hz to W/Hz and
    integrated over the bandwidth.
    """
    psd_dbw_hz = cfg.noise_psd_dbm_hz + cfg.noise_figure_db - 30.0
    var = 10.0 ** (psd_dbw_hz / 10.0) * cfg.bandwidth_hz
    return float(np.sqrt(var))
