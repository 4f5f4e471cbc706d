"""The link model of the uplink pilot block, for both receiver chains.

Every mean in the package comes from one factorized model,

    y_g = alpha * M_g (b_g(aoa) * d(delay) * x~_g),    b_g = w_g^T C a(aoa),

held by :class:`ProjectionModel`:

* the impaired chain (the signal the hardware actually produces): x~ are
  the pilots after the PA (time-domain distortion), C is the full coupling
  matrix (known Toeplitz part plus unknown residual), and M_g is the
  unitary time-domain phase-noise/CFO sandwich F E_g Xi_g F^H of one
  impairment realization;
* the clean chain assumed by a mismatched receiver: x~ are the pilots
  themselves, C is only the known Toeplitz coupling and M_g is the identity.

Means are (G, K) arrays of subcarrier-domain samples for one pilot block.
Flattening row-major gives the g-major stacked vector used by estimators and
bounds. The gain-free mean (alpha = 1) is what the projection-based
estimators search over. Its factors b_g and d_k, with their first two
derivatives in aoa and delay (:meth:`ProjectionModel.factors`), are the one
source of derivatives for the Newton fit, the Fisher information and the
misspecified bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .impairments import ImpairmentConfig, ImpairmentRealization, mc_matrix, pa_apply
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
    delay_vector,
    dft_matrix,
    steering_derivatives,
    steering_vector,
)


def transmit_pilots(block: PilotBlock, imp: ImpairmentConfig, cfg: SystemConfig) -> np.ndarray:
    """Frequency-domain pilots after the PA: F pa(F^H x_g) per row, (G, K).

    The PA acts on the K non-oversampled time-domain samples of each
    transmission. A linear PA returns the pilots unchanged.
    """
    if imp.pa_is_linear:
        return block.symbols.copy()
    f = dft_matrix(cfg.n_subcarriers)
    time = block.symbols @ f.conj()  # rows are F^H x_g
    distorted = pa_apply(time, imp.pa_coeffs, imp.pa_clip)
    return distorted @ f


def sandwich_matrices(real: ImpairmentRealization, cfg: SystemConfig) -> np.ndarray:
    """Per-transmission unitary phase-noise/CFO sandwich F E_g Xi_g F^H, (G, K, K).

    E_g Xi_g is the diagonal time-domain rotation exp(1j*(common_g + ramp +
    pn_g)): the CFO ramp 2*pi*cfo*k/K over samples k = 0 .. K-1, the common
    CFO phase 2*pi*cfo*g*(K + K_cp)/K accumulated over the g previous
    symbols and their cyclic prefixes (g is 1-based), and the phase noise.
    Each slice is unitary and preserves per-transmission energy.
    """
    k = cfg.n_subcarriers
    f = dft_matrix(k)
    fh = f.conj().T
    out = np.empty((cfg.n_transmissions, k, k), dtype=complex)
    samples = np.arange(k)
    total = k + cfg.cp_length
    for g in range(cfg.n_transmissions):
        ramp = 2 * np.pi * real.cfo * samples / k
        common = 2 * np.pi * real.cfo * (g + 1) * total / k
        diag = np.exp(1j * (common + ramp + real.pn_phases[g]))
        out[g] = (f * diag[None, :]) @ fh
    return out


@dataclass
class ProjectionModel:
    """The factorized link model of one pilot block and one receiver chain.

    Holds the combiners W, the coupling C, the effective pilots x~ and,
    for the impaired chain, the realization whose phase noise and CFO make
    up the sandwich (None for the clean chain). It gives the mean, the
    pulled observation, the projection objective and the factor derivatives
    (:meth:`factors`) that both the Newton fit (:meth:`captured_energy`)
    and the derivatives of the mean in :mod:`hwiloc.bounds` build on.
    """

    cfg: SystemConfig
    combiners: np.ndarray  # W, (G, N)
    coupling: np.ndarray  # C, (N, N)
    eff_pilots: np.ndarray  # x~, (G, K)
    realization: ImpairmentRealization | None = None
    # eta and factors round as W (C a), one steering vector at a time; the
    # scans round as (W C) a. The benchmark's lb reference was computed this
    # way: stacking eta's product (W (C S) or (W C) a) moves full.cfg lb rows
    # by 8.45e-6 or 2.0e-5, past its 1e-6 gate. Both stay until that
    # reference is regenerated.
    row_matrix: np.ndarray = field(init=False)  # W C, (G, N)
    pilot_energies: np.ndarray = field(init=False)  # (G,)
    # [1, r, r^2], r = -2j*pi*k*df in delay_vector's order: r^n d is the
    # n-th delay derivative of the phasors d, (K, 3)
    ring_powers: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.row_matrix = self.combiners @ self.coupling
        self.pilot_energies = np.sum(np.abs(self.eff_pilots) ** 2, axis=1)
        k = np.arange(1, self.cfg.n_subcarriers + 1)
        ring = -2j * np.pi * k * self.cfg.subcarrier_spacing_hz
        self.ring_powers = np.stack((np.ones_like(ring), ring, ring * ring), axis=1)

    @staticmethod
    def clean(cfg: SystemConfig, block: PilotBlock, coupling: tuple = ()) -> "ProjectionModel":
        """The receiver's model: known coupling taps only, pilots as sent."""
        return ProjectionModel(
            cfg, block.combiners, mc_matrix(coupling, None, cfg.n_antennas), block.symbols
        )

    @staticmethod
    def impaired(
        cfg: SystemConfig,
        block: PilotBlock,
        imp: ImpairmentConfig,
        real: ImpairmentRealization,
    ) -> "ProjectionModel":
        """The hardware's model for one realization."""
        c_full = mc_matrix(imp.coupling, real.mc_residual, cfg.n_antennas)
        return ProjectionModel(cfg, block.combiners, c_full, transmit_pilots(block, imp, cfg), real)

    @cached_property
    def sandwich(self) -> np.ndarray | None:
        """The dense (G, K, K) sandwich, built on first use; None if clean."""
        if self.realization is None:
            return None
        return sandwich_matrices(self.realization, self.cfg)

    # -- model mean ---------------------------------------------------------

    def eta(self, aoa: float, delay: float) -> np.ndarray:
        """Gain-free mean, (G, K)."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        b = self.combiners @ (self.coupling @ steering_vector(aoa, self.coupling.shape[0]))
        d = delay_vector(delay, self.cfg.n_subcarriers, self.cfg.subcarrier_spacing_hz)
        v = b[:, None] * (d[None, :] * self.eff_pilots)
        if self.sandwich is None:
            return v
        return np.einsum("gij,gj->gi", self.sandwich, v)

    def mean(self, theta: ChannelParams) -> np.ndarray:
        """Noise-free mean at theta, (G, K): gain times :meth:`eta`."""
        return theta.gain * self.eta(theta.aoa, theta.delay)

    # -- objective machinery ------------------------------------------------

    def _steering(self, aoas: np.ndarray) -> np.ndarray:
        n = np.arange(self.row_matrix.shape[1])
        return np.exp(1j * np.pi * np.outer(n, np.sin(aoas)))  # (N, n_angles)

    def _delay_conj(self, ranges_m: np.ndarray) -> np.ndarray:
        k = np.arange(1, self.cfg.n_subcarriers + 1)
        tau = np.asarray(ranges_m) / SPEED_OF_LIGHT
        return np.exp(2j * np.pi * self.cfg.subcarrier_spacing_hz * np.outer(k, tau))  # (K, n_r)

    def pulled_observation(self, y: np.ndarray) -> np.ndarray:
        """Pull the unitary sandwich onto the observation: u_g = M_g^H y_g."""
        y = np.asarray(y, dtype=complex)
        if self.sandwich is None:
            return y
        return np.einsum("gji,gj->gi", np.conj(self.sandwich), y)

    def objective_grid(
        self, u: np.ndarray, aoas: np.ndarray, ranges_m: np.ndarray
    ) -> np.ndarray:
        """Projection objective on the (angle, range) grid, shape (n_a, n_r).

        u is the pulled observation. Uses the separable structure: the
        captured energy is |sum_k conj(d_k) z_k(aoa)|^2 / den(aoa) with
        z(aoa) = sum_g conj(b_g x~_g) u_g and den = sum_g |b_g|^2 ||x~_g||^2.
        """
        b = self.row_matrix @ self._steering(aoas)  # (G, n_a)
        w = np.conj(self.eff_pilots) * u  # (G, K)
        z = b.conj().T @ w  # (n_a, K)
        s = z @ self._delay_conj(ranges_m)  # (n_a, n_r)
        den = (np.abs(b) ** 2).T @ self.pilot_energies  # (n_a,)
        yy = np.vdot(u, u).real
        captured = np.zeros_like(s, dtype=float)
        np.divide(np.abs(s) ** 2, den[:, None], out=captured, where=den[:, None] > 0)
        return yy - captured

    def objective_at(self, u: np.ndarray, position: np.ndarray) -> float:
        """Projection objective at one Cartesian position."""
        px, py = float(position[0]), float(position[1])
        rng = float(np.hypot(px, py))
        aoa = float(np.arctan2(py, px))
        grid = self.objective_grid(u, np.array([aoa]), np.array([rng]))
        return float(grid[0, 0])

    def factors(self, aoa: float, delay: float) -> tuple[np.ndarray, np.ndarray]:
        """The mean's factors and their derivatives: the row gains [b, b', b'']
        in aoa, (G, 3), and the delay phasors [d, d', d''] in delay, (K, 3).

        Each column of b is one product W (C v), rounding as :meth:`eta` does.
        """
        steer = steering_derivatives(aoa, self.coupling.shape[0])
        b = np.array([self.combiners @ (self.coupling @ v) for v in steer]).T
        return b, self.ring_powers * np.exp(self.ring_powers[:, 1] * delay)[:, None]

    def captured_energy(
        self, w: np.ndarray, aoa: float, range_m: float
    ) -> tuple[float, tuple[float, float], tuple[float, float, float]]:
        """Captured energy |s|^2 / D and its exact derivatives in (aoa, range).

        w = conj(x~) * u is the pulled observation weighted by the pilots,
        s = eta^H u = sum_{g,k} conj(b_g) w_{g,k} conj(d_k) and D = ||eta||^2
        = sum_g |b_g|^2 ||x~_g||^2. One product b^H w conj(d) of the
        :meth:`factors` gives every mixed derivative of s in (aoa, delay);
        range derivatives divide by c per order. D does not depend on range.
        Returns (energy, (e_a, e_r), (e_aa, e_ar, e_rr)); the energy is NaN
        when D vanishes.
        """
        c = SPEED_OF_LIGHT
        b, d = self.factors(aoa, range_m / c)
        (s, s_t, s_tt), (s_a, s_at, _), (s_aa, _, _) = (b.conj().T @ w @ d.conj()).tolist()
        s_r, s_rr, s_ar = s_t / c, s_tt / (c * c), s_at / c
        (q00, q01, q02), (_, q11, _) = ((b.conj().T[:2] * self.pilot_energies) @ b).real.tolist()
        den, den_a, den_aa = q00, 2.0 * q01, 2.0 * (q11 + q02)
        if not den > 0.0:
            return float("nan"), (0.0, 0.0), (0.0, 0.0, 0.0)
        sc = s.conjugate()
        p = (sc * s).real  # |s|^2 and its derivatives
        p_a, p_r = 2.0 * (sc * s_a).real, 2.0 * (sc * s_r).real
        p_aa = 2.0 * ((s_a.conjugate() * s_a).real + (sc * s_aa).real)
        p_ar = 2.0 * (s_a.conjugate() * s_r + sc * s_ar).real
        p_rr = 2.0 * ((s_r.conjugate() * s_r).real + (sc * s_rr).real)
        e = p / den
        rel_a = den_a / den
        e_a = p_a / den - e * rel_a
        e_aa = (p_aa - 2.0 * p_a * rel_a) / den - e * (den_aa / den - 2.0 * rel_a * rel_a)
        e_ar = (p_ar - p_r * rel_a) / den
        return e, (e_a, p_r / den), (e_aa, e_ar, p_rr / den)


def mu_m1(
    theta: ChannelParams,
    cfg: SystemConfig,
    block: PilotBlock,
    imp: ImpairmentConfig,
    real: ImpairmentRealization,
) -> np.ndarray:
    """Impaired-chain mean, (G, K), of one realization."""
    return ProjectionModel.impaired(cfg, block, imp, real).mean(theta)


def observe(mu: np.ndarray, sigma_n: float, rng: np.random.Generator) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of std sigma_n.

    Real and imaginary parts each get variance sigma_n^2 / 2 per element.
    sigma_n = 0 returns the mean unchanged (up to a copy).
    """
    if sigma_n < 0:
        raise ValueError("noise std must be non-negative")
    mu = np.asarray(mu, dtype=complex)
    if sigma_n == 0:
        return mu.copy()
    noise = rng.normal(0.0, 1.0, mu.shape) + 1j * rng.normal(0.0, 1.0, mu.shape)
    return mu + (sigma_n / np.sqrt(2.0)) * noise
