"""Residual transmitter/receiver hardware impairments.

Four impairments distort the nominal uplink pilot model:

* residual phase noise: one random phase per transmission and time sample,
  applied as a diagonal rotation in the time domain;
* residual carrier frequency offset (CFO): a scalar per realization,
  normalized to the subcarrier spacing, producing a linear phase ramp across
  time samples plus a common phase that accumulates over transmissions
  (cyclic prefix included);
* antenna mutual coupling: a fixed banded symmetric Toeplitz matrix (known
  to the receiver) plus a random dense residual unknown to it;
* power-amplifier nonlinearity: a memoryless odd-order polynomial with
  continuous clipping, applied to non-oversampled time-domain samples.

The random parts are bundled per Monte-Carlo draw in ImpairmentRealization;
levels live in ImpairmentConfig. The phase-noise and CFO rotations are
built by :func:`hwiloc.observation.phase_rotations`. Zero levels reproduce
the clean model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError, SystemConfig

MEASURED_COUPLING = (0.6 + 0.5j, 0.4054 - 0.128j)
MEASURED_PA_COEFFS = (0.9798 + 0.0286j, 0.0122 - 0.0043j, -0.0007 + 0.0001j)


@dataclass
class ImpairmentConfig:
    """Impairment levels. Defaults are the measured residual levels used
    throughout the package (10 deg phase noise, 1e-2 normalized CFO, two
    coupling taps with 2e-2 residual spread, third-order PA clipping at 25 V).
    """

    sigma_pn: float = np.deg2rad(10.0)  # rad, std of residual phase noise
    sigma_cfo: float = 0.01  # std of residual CFO (fraction of subcarrier spacing)
    coupling: tuple = MEASURED_COUPLING  # known Toeplitz taps, length < N
    sigma_mc: float = 0.02  # std of the dense coupling residual
    pa_coeffs: tuple = MEASURED_PA_COEFFS  # polynomial coefficients beta_q
    pa_clip: float = 25.0  # clipping amplitude, V

    def __post_init__(self) -> None:
        if not all(0 <= s < np.inf for s in (self.sigma_pn, self.sigma_cfo, self.sigma_mc)):
            raise ConfigError("impairment spreads must be finite and non-negative")
        if not self.pa_clip > 0:
            raise ConfigError("PA clip level must be positive (inf disables clipping)")
        if len(self.pa_coeffs) < 1:
            raise ConfigError("PA polynomial needs at least one coefficient")
        self.coupling = tuple(complex(c) for c in self.coupling)
        self.pa_coeffs = tuple(complex(b) for b in self.pa_coeffs)
        if not np.all(np.isfinite(self.coupling + self.pa_coeffs)):
            raise ConfigError("coupling taps and PA coefficients must be finite")

    @staticmethod
    def neutral() -> "ImpairmentConfig":
        """All impairments off: zero spreads, no coupling, unit linear PA."""
        return ImpairmentConfig(
            sigma_pn=0.0,
            sigma_cfo=0.0,
            coupling=(),
            sigma_mc=0.0,
            pa_coeffs=(1.0 + 0.0j,),
            pa_clip=np.inf,
        )

    @property
    def pa_is_linear(self) -> bool:
        return self.pa_coeffs == (1.0 + 0.0j,) and np.isinf(self.pa_clip)


@dataclass
class ImpairmentRealization:
    """One random draw of the impairment state for a pilot block."""

    pn_phases: np.ndarray  # (G, K) real, rad
    cfo: float  # scalar, fraction of subcarrier spacing
    mc_residual: np.ndarray  # (N, N) real

    @staticmethod
    def neutral(cfg: SystemConfig) -> "ImpairmentRealization":
        return ImpairmentRealization(
            pn_phases=np.zeros((cfg.n_transmissions, cfg.n_subcarriers)),
            cfo=0.0,
            mc_residual=np.zeros((cfg.n_antennas, cfg.n_antennas)),
        )


def sample_realization(
    imp: ImpairmentConfig, cfg: SystemConfig, rng: np.random.Generator
) -> ImpairmentRealization:
    """Draw phase-noise phases, the CFO scalar and the coupling residual.

    Phase noise is i.i.d. N(0, sigma_pn^2) over transmissions and time
    samples, the CFO is one N(0, sigma_cfo^2) scalar shared by all
    transmissions of the realization, and the coupling residual is a dense
    real N(0, sigma_mc^2) matrix (diagonal included). The draw order is
    fixed so results are reproducible from the generator state.
    """
    pn = rng.normal(0.0, 1.0, size=(cfg.n_transmissions, cfg.n_subcarriers)) * imp.sigma_pn
    cfo = float(rng.normal(0.0, 1.0)) * imp.sigma_cfo
    mc = rng.normal(0.0, 1.0, size=(cfg.n_antennas, cfg.n_antennas)) * imp.sigma_mc
    return ImpairmentRealization(pn_phases=pn, cfo=cfo, mc_residual=mc)


def mc_matrix(
    coupling: tuple, mc_residual: np.ndarray | None, n_antennas: int
) -> np.ndarray:
    """Mutual-coupling matrix: banded symmetric Toeplitz plus dense residual.

    The Toeplitz part has first row [1, c_1, ..., c_n, 0, ...] and entries
    t[|i - j|]; the band must be narrower than the array. Passing None for
    the residual returns the known part alone (the receiver's model); n
    stacked residuals, (n, N, N), give n matrices.
    """
    taps = tuple(coupling)
    if len(taps) >= n_antennas:
        raise ConfigError("coupling band must be narrower than the array")
    t = np.zeros(n_antennas, dtype=complex)
    t[0] = 1.0
    if taps:
        t[1 : 1 + len(taps)] = taps
    idx = np.arange(n_antennas)
    c = t[np.abs(idx[:, None] - idx[None, :])]
    if mc_residual is not None:
        res = np.asarray(mc_residual)
        if res.shape[-2:] != (n_antennas, n_antennas):
            raise ValueError("coupling residual must be (N, N) or (n, N, N)")
        c = c + res
    return c


def pa_apply(x: np.ndarray, pa_coeffs: tuple, pa_clip: float) -> np.ndarray:
    """Memoryless polynomial PA with continuous clipping.

    Below the clip level the output is x * sum_q beta_q |x|^q. Above it the
    input amplitude saturates at pa_clip while the phase is kept, so the
    output is (x/|x|) * sum_q beta_q pa_clip^(q+1). The two branches agree
    at |x| = pa_clip.
    """
    x = np.asarray(x, dtype=complex)
    r = np.abs(x)
    s = np.minimum(r, pa_clip)
    poly = np.zeros_like(x)
    for q, beta in enumerate(pa_coeffs):
        poly = poly + beta * s**q
    # s/r rescales the clipped samples onto the saturation circle; r = 0 maps to 0
    ratio = np.ones_like(r)
    np.divide(s, r, out=ratio, where=r > 0)
    return x * poly * ratio
