"""The link model of the uplink pilot block, for both receiver chains.

Every mean in the package comes from one factorized model,

    y_g = alpha * M_g (b_g(aoa) * d(delay) * x~_g),    b_g = w_g^T C a(aoa),

held by :class:`ProjectionModel`:

* the impaired chain (the signal the hardware actually produces): x~ are
  the pilots after the PA (time-domain distortion), C is the full coupling
  matrix (known Toeplitz part plus unknown residual), and M_g is the
  unitary time-domain phase-noise/CFO rotation F diag(exp(j phi_g)) F^H of
  one impairment realization, the common-phase/ICI form of OFDM phase
  noise and CFO (Pollet et al., IEEE Trans. Commun. 43, 1995);
* the clean chain assumed by a mismatched receiver: x~ are the pilots
  themselves, C is only the known Toeplitz coupling and M_g is the identity.

Of a realization's phase noise and CFO the model reads only the diagonal
of F^H M_g F, the (G, K) rotation of :func:`phase_rotations`, so an
impaired model carries that rotation, not the realization. A model is a
stack of links: its coupling, pilots and rotation may carry leading axes,
which broadcast against each other, so one model holds every draw of a
sweep point, or every (point, draw) pair of a bounds task, and pilots that
the draws share stay one (G, K) array. A single link is a stack with no
leading axes. M_g and M_g^H act by FFT (:func:`rotate`) on every link of a
stack at once. The dense (G, K, K) form (:func:`sandwich_matrices`) is left
to the bounds sweep, which applies its own to the impaired means it fits.

Means are (G, K) arrays of subcarrier-domain samples for one pilot block.
Flattening row-major gives the g-major stacked vector used by estimators and
bounds. The gain-free mean (alpha = 1) is what the projection-based
estimators search over. Its factors b_g and d_k, with their first two
derivatives in aoa and delay, are the one source of derivatives: the Fisher
information and the misspecified bound contract them in
:mod:`hwiloc.bounds`, and the estimators read a model through two
reductions of a pulled observation u_g = M_g^H y_g, stacked over many
observations in :class:`FitData`: a scan over an (angle, range) grid whose
bases are built once per grid (:class:`ScanGrid`), and the captured energy
with its exact derivatives, on the same factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

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


def transmit_pilots(symbols: np.ndarray, imp: ImpairmentConfig, cfg: SystemConfig) -> np.ndarray:
    """Frequency-domain pilots after the PA: F pa(F^H x_g) per row, of one
    pilot block's symbols, (G, K), or of n stacked blocks, (n, G, K).

    The PA acts on the K non-oversampled time-domain samples of each
    transmission. A linear PA returns the pilots unchanged.
    """
    if imp.pa_is_linear:
        return symbols.copy()
    f = dft_matrix(cfg.n_subcarriers)
    time = symbols @ f.conj()  # rows are F^H x_g
    distorted = pa_apply(time, imp.pa_coeffs, imp.pa_clip)
    return distorted @ f


def phase_rotations(cfo, pn_phases: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The diagonal time-domain rotations exp(1j*(common_g + ramp + pn_g))
    of one realization's CFO, a scalar, and phase noise, (G, K), or of n
    stacked ones, (n,) and (n, G, K); same shape as pn_phases.

    The CFO ramp is 2*pi*cfo*k/K over samples k = 0 .. K-1, the common CFO
    phase 2*pi*cfo*g*(K + K_cp)/K accumulates over the g previous symbols
    and their cyclic prefixes (g is 1-based).
    """
    k = cfg.n_subcarriers
    cfo = np.asarray(cfo, dtype=float)[..., None]
    ramp = 2 * np.pi * cfo * np.arange(k) / k  # (..., K)
    common = 2 * np.pi * cfo * np.arange(1, cfg.n_transmissions + 1) * (k + cfg.cp_length) / k
    return np.exp(1j * (common[..., :, None] + ramp[..., None, :] + pn_phases))


def rotate(v: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """M_g v_g = F diag(rotation_g) F^H v_g for every row of v, (..., K),
    by FFT over the last axis; conj(rotation) applies M_g^H.

    F is the unitary DFT of :func:`~hwiloc.model.dft_matrix`, so F v is
    fft(v, norm="ortho") and F^H v its inverse: K log K work per row
    against K^2 for a (K, K) sandwich, and none to build it. Each row rounds
    as it would alone, whatever the stack's size.
    """
    from numpy import fft  # loaded on first use: the bounds sweep never needs it

    t = fft.ifft(np.broadcast_to(v, np.broadcast_shapes(v.shape, rotation.shape)), norm="ortho")
    # written into t: a complex product rounds by its operand order, and
    # numpy's temporary elision turns rotation * tmp into tmp *= rotation
    # once tmp reaches 256 KiB, so the stack's size would pick the order
    np.multiply(rotation, t, out=t)
    return fft.fft(t, norm="ortho")


def sandwich_matrices(rotation: np.ndarray) -> np.ndarray:
    """Per-transmission unitary phase-noise/CFO sandwich F E_g Xi_g F^H,
    (G, K, K), of a (G, K) rotation of :func:`phase_rotations`.

    E_g Xi_g = diag(rotation_g). Each slice is unitary and preserves
    per-transmission energy. :func:`rotate` applies the same operator
    without building it.

    One (K, K) product per transmission: one stacked (G, K, K) product ran
    slower at K = 100 and needed a second (G, K, K) buffer.
    """
    g, k = rotation.shape
    f = dft_matrix(k)
    fh = f.conj().T
    out = np.empty((g, k, k), dtype=complex)
    for row, diag in enumerate(rotation):
        np.matmul(f * diag, fh, out=out[row])
    return out


@lru_cache(maxsize=16)
def ring_powers(n_subcarriers: int, spacing_hz: float) -> np.ndarray:
    """[1, r, r^2] with r = -2j*pi*k*df in delay_vector's order, (K, 3):
    r^n d is the n-th delay derivative of the delay phasors d. Built once
    per link and shared, so the returned array is read-only."""
    k = np.arange(1, n_subcarriers + 1)
    ring = -2j * np.pi * k * spacing_hz
    out = np.stack((np.ones_like(ring), ring, ring * ring), axis=1)
    out.flags.writeable = False
    return out


@dataclass
class ProjectionModel:
    """The factorized link model of one receiver chain: one pilot block, or
    a stack of them whose leading axes (:attr:`shape`) C, x~ and the
    rotation may carry and broadcast to; the links share W and cfg.

    Holds the combiners W, the coupling C, the effective pilots x~ and,
    for the impaired chain, the (G, K) rotation of :func:`phase_rotations`
    that makes up M_g (None for the clean chain): of a realization's phase
    noise and CFO the model keeps only this rotation. It gives the mean, the
    pulled observation, the projection objective on a grid
    (:meth:`objective_grid`, one link), and what the derivatives of the mean
    in :mod:`hwiloc.bounds` read: the row matrix, the ring powers and the
    pilot moments, each with the stack's leading axes. What the Newton fit
    and the pseudo-true descent read of it is a slot of :class:`FitData`.
    """

    cfg: SystemConfig
    combiners: np.ndarray  # W, (G, N)
    coupling: np.ndarray  # C, (..., N, N)
    eff_pilots: np.ndarray  # x~, (..., G, K)
    rotation: np.ndarray | None = None  # diagonal of F^H M_g F, (..., G, K)
    shape: tuple[int, ...] = field(init=False)  # the stack's leading axes; () for one link
    # W C, (..., G, N): the scans, the Newton fit, the pseudo-true descent
    # (FitData) and the bounds' derivatives round as (W C) a. The mean
    # (unrotated) rounds as W (C a), link by link: the bounds sweep's ybar,
    # built from it in harness._bounds_unit, is what the benchmark's lb
    # reference encodes, and (W C) a moves full.cfg lb rows by 2.0e-5, past
    # that reference's 1e-6 gate, until it is regenerated (ROADMAP item 1).
    row_matrix: np.ndarray = field(init=False)
    pilot_energies: np.ndarray = field(init=False)  # (..., G)
    ring_powers: np.ndarray = field(init=False)  # see ring_powers(), (K, 3)
    # P_g[m, n] = sum_k |x~_gk|^2 conj(r_k)^m r_k^n for m, n < 2, with r the
    # root of ring_powers: the theta-free part of the FIM, (..., G, 2, 2)
    pilot_moments: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        arrays = (self.coupling, self.eff_pilots, self.rotation)
        self.shape = np.broadcast_shapes(*(a.shape[:-2] for a in arrays if a is not None))
        lead, (g, n) = self.shape, self.combiners.shape
        power = np.abs(self.eff_pilots) ** 2
        self.ring_powers = ring_powers(self.cfg.n_subcarriers, self.cfg.subcarrier_spacing_hz)
        r = self.ring_powers[:, :2]
        products = (r.conj()[:, :, None] * r[:, None, :]).reshape(-1, 4)  # (K, 4)
        # each broadcast to the stack's shape: shared pilots stay one block
        self.row_matrix = np.broadcast_to(self.combiners @ self.coupling, (*lead, g, n))
        self.pilot_energies = np.broadcast_to(np.sum(power, axis=-1), (*lead, g))
        moments = np.broadcast_to(power @ products, (*lead, g, 4))
        self.pilot_moments = moments.reshape(*lead, g, 2, 2)

    @staticmethod
    def clean(cfg: SystemConfig, block: PilotBlock, coupling: tuple = ()) -> "ProjectionModel":
        """The receiver's model: known coupling taps only, pilots as sent."""
        return ProjectionModel(
            cfg, block.combiners, mc_matrix(coupling, None, cfg.n_antennas), block.symbols
        )

    @staticmethod
    def impaired(
        cfg: SystemConfig, block: PilotBlock, imp: ImpairmentConfig, real: ImpairmentRealization
    ) -> "ProjectionModel":
        """The hardware's model for one realization."""
        return ProjectionModel(
            cfg,
            block.combiners,
            mc_matrix(imp.coupling, real.mc_residual, cfg.n_antennas),
            transmit_pilots(block.symbols, imp, cfg),
            phase_rotations(real.cfo, real.pn_phases, cfg),
        )

    # -- model mean ---------------------------------------------------------

    def unrotated(self, aoa, delay) -> np.ndarray:
        """Gain-free means before M_g, b_g d x~_g, (..., G, K), at an aoa and
        delay, or arrays of them per link: the clean chain's :meth:`eta`."""
        aoa, delay = np.asarray(aoa, dtype=float), np.asarray(delay, dtype=float)
        if np.any(delay < 0):
            raise ValueError("delay must be non-negative")
        a = steering_vector(aoa[..., None], self.coupling.shape[-1])  # (..., N)
        b = self.combiners @ (self.coupling @ a[..., None])  # (..., G, 1)
        cfg = self.cfg
        d = delay_vector(delay[..., None, None], cfg.n_subcarriers, cfg.subcarrier_spacing_hz)
        # d x~, then b times it, in the one array of the means
        shape = np.broadcast_shapes(b.shape, d.shape, self.eff_pilots.shape)
        out = np.multiply(d, self.eff_pilots, out=np.empty(shape, dtype=complex))
        return np.multiply(b, out, out=out)

    def eta(self, aoa, delay) -> np.ndarray:
        """Gain-free means, (..., G, K): :meth:`unrotated` under M_g, by FFT."""
        v = self.unrotated(aoa, delay)
        return v if self.rotation is None else rotate(v, self.rotation)

    def mean(self, theta: ChannelParams) -> np.ndarray:
        """Noise-free means at theta, (..., G, K): gain times :meth:`eta`, in
        place, so a stack rounds as its links at any size (see :func:`rotate`)."""
        eta = self.eta(theta.aoa, theta.delay)
        return np.multiply(theta.gain, eta, out=eta)

    # -- objective machinery ------------------------------------------------

    def pulled_observation(self, y: np.ndarray) -> np.ndarray:
        """Pull the unitary rotation onto the observations: u_g = M_g^H y_g,
        by FFT (:func:`rotate`)."""
        y = np.asarray(y, dtype=complex)
        if self.rotation is None:
            return y
        return rotate(y, np.conj(self.rotation))

    def objective_grid(self, u: np.ndarray, grid: "ScanGrid") -> np.ndarray:
        """Projection objective of one link's pulled observation u on the
        (angle, range) grid, shape (n_a, n_r): :meth:`ScanGrid.objective`
        with this model's rows and pilots."""
        w = np.conj(self.eff_pilots) * u
        return grid.objective(self.row_matrix, self.pilot_energies, w, np.vdot(u, u).real)


@dataclass(frozen=True)
class ScanGrid:
    """An (angle, range) grid with the scan bases that depend only on it and
    the link: the steering columns a(aoa), (N, n_a), and the conjugate delay
    phasors conj(d(range / c)), (K, n_r). Built once, it serves every scan of
    a sweep point, on either chain."""

    aoas: np.ndarray  # (n_a,) rad
    ranges_m: np.ndarray  # (n_r,)
    steering: np.ndarray  # (N, n_a)
    delay_conj: np.ndarray  # (K, n_r)

    @staticmethod
    def build(cfg: SystemConfig, aoas: np.ndarray, ranges_m: np.ndarray) -> "ScanGrid":
        aoas, ranges_m = np.asarray(aoas, dtype=float), np.asarray(ranges_m, dtype=float)
        n = np.arange(cfg.n_antennas)
        k = np.arange(1, cfg.n_subcarriers + 1)
        tau = ranges_m / SPEED_OF_LIGHT
        return ScanGrid(
            aoas,
            ranges_m,
            np.exp(1j * np.pi * np.outer(n, np.sin(aoas))),
            np.exp(2j * np.pi * cfg.subcarrier_spacing_hz * np.outer(k, tau)),
        )

    def objective(
        self, rows: np.ndarray, energies: np.ndarray, w: np.ndarray, yy: float
    ) -> np.ndarray:
        """Projection objective of one pulled observation u on the grid,
        shape (n_a, n_r), from what a slot of :class:`FitData` keeps: the
        row matrix W C, (G, N), the pilot energies ||x~_g||^2, (G,), w =
        conj(x~) * u, (G, K), and ||u||^2.

        Uses the separable structure: the captured energy is |s|^2 / den
        with s(aoa, r) = sum_g conj(b_g) sum_k w_{g,k} conj(d_k(r)) and
        den(aoa) = sum_g |b_g|^2 ||x~_g||^2; where den is not positive
        nothing is captured.

        s is contracted over subcarriers first, b^H (w conj(D)): G n_r (K +
        n_a) complex multiply-adds against n_a K (G + n_r) for (b^H w)
        conj(D), as there are fewer transmissions and ranges than angles and
        subcarriers (desk.cfg: 21,300 against 144,800). The order moves the
        values by rounding only; :meth:`FitData.objective` keeps the other.
        """
        b = rows @ self.steering  # (G, n_a)
        s = b.conj().T @ (w @ self.delay_conj)  # (n_a, n_r)
        den = (np.abs(b) ** 2).T @ energies  # (n_a,)
        inv = np.zeros_like(den)
        np.divide(1.0, den, out=inv, where=den > 0)
        out = s.real**2 + s.imag**2
        out *= inv[:, None]
        return np.subtract(yy, out, out=out)


# The pairs (x, y) whose Re(conj(s_x) s_y) make |s|^2 and its derivatives
# in FitData.captured_energy: (s, s), (s, s_a), (s, s_r), (s, s_aa),
# (s, s_ar), (s, s_rr), (s_a, s_a), (s_a, s_r), (s_r, s_r), where s_x is
# entry 3 * (aoa order) + (range order) of its products
_PAIR_LEFT = np.array([0, 0, 0, 0, 0, 0, 3, 3, 1])
_PAIR_RIGHT = np.array([0, 3, 1, 6, 4, 2, 3, 1, 1])


@dataclass
class FitData:
    """Pulled observations u reduced to what the projection objective reads
    at any position, stacked over T fits: the row matrix W C and the pilot
    energies ||x~_g||^2 of the model each is fitted with, w = conj(x~) * u
    and ||u||^2. The rotation is not kept: it acted once, when u was pulled,
    so T of these weigh a few rows each, not T models.
    """

    rows: np.ndarray  # W C, (T, G, N)
    energies: np.ndarray  # (T, G)
    w: np.ndarray  # (T, G, K)
    yy: np.ndarray  # (T,)
    ring_powers: np.ndarray  # (K, 3), shared: see ring_powers()
    # conj(ring_powers) / [1, c, c^2], (K, 3), shared: column n times
    # conj(d) is the n-th range derivative of the conjugate delay phasors
    range_orders: np.ndarray
    spacing_hz: float  # subcarrier spacing

    @staticmethod
    def empty(cfg: SystemConfig, size: int) -> "FitData":
        """Room for size fits on the link cfg, to be filled by :meth:`put`."""
        g, n, k = cfg.n_transmissions, cfg.n_antennas, cfg.n_subcarriers
        ring = ring_powers(k, cfg.subcarrier_spacing_hz)
        c = SPEED_OF_LIGHT
        return FitData(
            np.empty((size, g, n), dtype=complex),
            np.empty((size, g)),
            np.empty((size, g, k), dtype=complex),
            np.empty(size),
            ring,
            np.conj(ring) / np.array([1.0, c, c * c]),
            cfg.subcarrier_spacing_hz,
        )

    def put(self, start: int, rows: np.ndarray, pilots: np.ndarray, u: np.ndarray) -> None:
        """Fill slots from start with the pulled observations u, (..., G,
        K), one slot each in row-major order, each fitted with its row
        matrix W C, (..., G, N), and pilots x~, (..., G, K); rows and pilots
        broadcast against u's leading axes, so (G, N) or (G, K) serve all.
        """
        lead, (g, k) = u.shape[:-2], u.shape[-2:]
        index = slice(start, start + math.prod(lead))
        self.rows[index].reshape(*lead, *self.rows.shape[1:])[...] = rows
        self.energies[index].reshape(*lead, g)[...] = np.sum(np.abs(pilots) ** 2, axis=-1)
        np.multiply(np.conj(pilots), u, out=self.w[index].reshape(u.shape))
        # kept until ROADMAP item 1: a vectorized sum moved full.cfg lb_deb min at 40 dBm by 7.1e-6
        self.yy[index] = [np.vdot(v, v).real for v in u.reshape(-1, g, k)]

    def take(self, index: np.ndarray) -> "FitData":
        """The fits selected by an index or mask array."""
        return replace(
            self,
            rows=self.rows[index],
            energies=self.energies[index],
            w=self.w[index],
            yy=self.yy[index],
        )

    def objective(self, px: np.ndarray, py: np.ndarray) -> np.ndarray:
        """Projection objectives ||u||^2 - |s|^2 / D of the T fits at the
        Cartesian positions (px, py), both (..., T): one position per fit in
        each leading slice.

        Each value rounds as s = (b^H w) conj(d) on its own, ||u||^2 where D
        is not positive: one matrix-vector and two dot products per slot,
        whatever else the call holds (the descent's stencil and its blocks
        of line-search halvings rely on this).
        The pseudo-true descent's stalls, and with them the benchmark's lb
        reference, depend on this rounding; stacking several positions of
        one fit into one (N, n) product, or the subcarrier-first order of
        :meth:`ProjectionModel.objective_grid`, would round differently.
        """
        k = self.ring_powers.shape[0]
        aoa = np.arctan2(py, px)[..., None]
        tau = (np.hypot(px, py) / SPEED_OF_LIGHT)[..., None]
        steer = np.exp(1j * np.pi * (np.arange(self.rows.shape[-1]) * np.sin(aoa)))
        b = self.rows @ steer[..., None]  # (..., T, G, 1)
        delay = np.exp(2j * np.pi * self.spacing_hz * (np.arange(1, k + 1) * tau))
        s = (b.conj().swapaxes(-1, -2) @ self.w) @ delay[..., None]  # (..., T, 1, 1)
        den = (np.abs(b) ** 2).swapaxes(-1, -2) @ self.energies[:, :, None]  # (..., T, 1, 1)
        captured = np.zeros_like(den)
        np.divide(np.abs(s) ** 2, den, out=captured, where=den > 0)
        return self.yy - captured[..., 0, 0]

    def captured_energy(self, aoa: np.ndarray, range_m: np.ndarray) -> np.ndarray:
        """Captured energies |s|^2 / D of the T fits at positions (aoa,
        range_m), both (T,), with their exact derivatives in (aoa, range).

        s = eta^H u = sum_{g,k} conj(b_g) w_{g,k} conj(d_k) and D = ||eta||^2
        = sum_g |b_g|^2 ||x~_g||^2, with b = W C [a, a', a''] and d the delay
        phasors, factors of :func:`hwiloc.bounds.model_derivatives`. The
        range derivatives of conj(d) are conj(d) times the columns of
        :attr:`range_orders`, so v = b^H w, (T, 3, K), times conj(d) and
        then one (K, 3) product shared by all fits give every mixed
        derivative of s in (aoa, range), with no (T, G, K) temporary. D
        does not depend on range. Returns the rows (e, e_a, e_r, e_aa, e_ar,
        e_rr), (6, T): the energy, its gradient and its Hessian; all NaN for
        a fit whose D vanishes.
        """
        k = self.ring_powers.shape[0]
        steer = np.stack(steering_derivatives(aoa[:, None], self.rows.shape[-1]), axis=-1)
        b = self.rows @ steer  # (T, G, 3)
        bh = b.conj().swapaxes(-1, -2)  # (T, 3, G)
        # over transmissions first, v = b^H w, (T, 3, K), then times conj(d)
        v = bh @ self.w
        d = np.exp(self.ring_powers[:, 1] * (range_m / SPEED_OF_LIGHT)[:, None])  # (T, K)
        v *= np.conjugate(d, out=d)[:, None, :]
        # s by [aoa order, range order], flattened: one (K, 3) product
        # serves every fit
        prods = (v.reshape(-1, k) @ self.range_orders).reshape(-1, 9)
        # Re(conj(s_x) s_y) for the pairs of _PAIR_LEFT and _PAIR_RIGHT
        p = (prods[:, _PAIR_LEFT].conj() * prods[:, _PAIR_RIGHT]).real  # (T, 9)
        # p_a, p_r, p_aa, p_ar, p_rr: the derivatives of |s|^2
        p_x = p[:, 1:6].copy()
        p_x[:, 2:] += p[:, 6:]
        p_x *= 2.0
        p_a, p_r, p_aa, p_ar, p_rr = p_x.T
        q = ((bh[:, :2] * self.energies[:, None, :]) @ b).real  # (T, 2, 3)
        den = np.where(q[:, 0, 0] > 0.0, q[:, 0, 0], np.nan)
        den_a, den_aa = 2.0 * q[:, 0, 1], 2.0 * (q[:, 1, 1] + q[:, 0, 2])
        e = p[:, 0] / den
        rel_a = den_a / den
        e_a = p_a / den - e * rel_a
        e_aa = (p_aa - 2.0 * p_a * rel_a) / den - e * (den_aa / den - 2.0 * rel_a * rel_a)
        e_ar = (p_ar - p_r * rel_a) / den
        return np.array([e, e_a, p_r / den, e_aa, e_ar, p_rr / den])


def mu_m1(
    theta: ChannelParams,
    cfg: SystemConfig,
    block: PilotBlock,
    imp: ImpairmentConfig,
    real: ImpairmentRealization,
) -> np.ndarray:
    """Impaired-chain mean, (G, K), of one realization."""
    return ProjectionModel.impaired(cfg, block, imp, real).mean(theta)


def unit_noise(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian samples whose real and imaginary parts are each
    N(0, 1), drawn real parts first: :func:`observe` scales them by
    sigma_n / sqrt(2)."""
    return rng.normal(0.0, 1.0, shape) + 1j * rng.normal(0.0, 1.0, shape)


def observe(mu: np.ndarray, sigma_n: float, rng: np.random.Generator) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of std sigma_n.

    Real and imaginary parts each get variance sigma_n^2 / 2 per element.
    sigma_n = 0 returns the mean unchanged (up to a copy).
    """
    if not (np.isfinite(sigma_n) and sigma_n >= 0):
        raise ValueError("noise std must be finite and non-negative")
    mu = np.asarray(mu, dtype=complex)
    if sigma_n == 0:
        return mu.copy()
    return mu + (sigma_n / np.sqrt(2.0)) * unit_noise(mu.shape, rng)
