"""Unit tests for the clean and impaired chains of the link model."""

import cmath
from dataclasses import replace

import numpy as np
import pytest

from hwiloc.impairments import (
    ImpairmentConfig,
    ImpairmentRealization,
    mc_matrix,
    sample_realization,
)
from hwiloc.model import ChannelParams, PilotBlock, SystemConfig, dft_matrix
from hwiloc.observation import (
    ProjectionModel,
    impaired_means,
    mu_m1,
    observe,
    phase_rotations,
    rotate,
    sandwich_matrices,
    transmit_pilots,
)


def tiny_cfg(n=2, g=1, k=2, w=2e6, cp=1):
    return SystemConfig(
        n_antennas=n, n_transmissions=g, n_subcarriers=k, cp_length=cp, bandwidth_hz=w
    )


# ---------------------------------------------------------------------------
# clean chain


def test_mu_m2_all_ones_degenerate_case():
    # single antenna, unit combiner, unit gain, zero delay, unit pilots
    cfg = tiny_cfg(n=1, g=1, k=4)
    blk = PilotBlock(symbols=np.ones((1, 4)), combiners=np.ones((1, 1)))
    th = ChannelParams(aoa=0.3, delay=0.0, gain_amp=1.0, gain_phase=0.0)
    assert np.allclose(ProjectionModel.clean(cfg, blk).mean(th), np.ones((1, 4)))


def test_mu_m2_hand_expansion_two_subcarriers():
    cfg = tiny_cfg(n=2, g=1, k=2, w=2e6)  # subcarrier spacing 1 MHz
    w0, w1 = 0.6 + 0.1j, -0.3 + 0.7j
    x1, x2 = 1.5 - 0.5j, -0.2 + 1.1j
    blk = PilotBlock(symbols=np.array([[x1, x2]]), combiners=np.array([[w0, w1]]))
    aoa, tau, rho, xi = 0.5, 3e-7, 2.0, 0.4
    th = ChannelParams(aoa=aoa, delay=tau, gain_amp=rho, gain_phase=xi)

    alpha = rho * cmath.exp(-1j * xi)
    b = w0 * 1.0 + w1 * cmath.exp(1j * cmath.pi * cmath.sin(aoa))
    df = 1e6
    expect = [
        alpha * b * cmath.exp(-2j * cmath.pi * 1 * df * tau) * x1,
        alpha * b * cmath.exp(-2j * cmath.pi * 2 * df * tau) * x2,
    ]
    assert np.allclose(ProjectionModel.clean(cfg, blk).mean(th), [expect], rtol=1e-12)


def test_mu_m2_known_coupling_enters_row_gain():
    cfg = tiny_cfg(n=2, g=1, k=2)
    blk = PilotBlock(symbols=np.ones((1, 2)), combiners=np.array([[1.0, 0.0]]))
    th = ChannelParams(aoa=0.0, delay=0.0, gain_amp=1.0, gain_phase=0.0)
    # with taps (c1,), w = e_0: b = (C a)[0] = 1 + c1 at broadside
    got = ProjectionModel.clean(cfg, blk, coupling=(0.2 + 0.1j,)).mean(th)
    assert np.allclose(got, (1.2 + 0.1j) * np.ones((1, 2)))


def test_mu_m2_negative_delay_rejected():
    cfg = tiny_cfg()
    blk = PilotBlock(symbols=np.ones((1, 2)), combiners=np.ones((1, 2)) / np.sqrt(2))
    with pytest.raises(ValueError):
        ProjectionModel.clean(cfg, blk).eta(0.1, -1e-9)


# ---------------------------------------------------------------------------
# impaired chain


def neutral_real(cfg):
    return ImpairmentRealization.neutral(cfg)


def test_mu_m1_neutral_equals_mu_m2():
    cfg = SystemConfig(n_antennas=4, n_transmissions=3, n_subcarriers=8)
    blk = PilotBlock.from_config(cfg)
    th = ChannelParams(aoa=-0.4, delay=1.1e-8, gain_amp=3e-4, gain_phase=1.2)
    clean = ProjectionModel.clean(cfg, blk).mean(th)
    impaired = mu_m1(th, cfg, blk, ImpairmentConfig.neutral(), neutral_real(cfg))
    assert np.allclose(impaired, clean, rtol=1e-11)


def test_mu_m1_hand_expansion_single_antenna():
    # G=1, K=2, N=1, linear PA, no coupling: only the PN/CFO sandwich acts
    cfg = tiny_cfg(n=1, g=1, k=2, w=2e6, cp=1)
    w0 = 1.0 + 0.0j
    x = np.array([1.0 - 2.0j, 0.5 + 0.3j])
    blk = PilotBlock(symbols=x[None, :], combiners=np.array([[w0]]))
    aoa, tau, rho, xi = 0.0, 2.5e-7, 1.3, -0.2
    th = ChannelParams(aoa=aoa, delay=tau, gain_amp=rho, gain_phase=xi)
    omega = np.array([0.2, -0.3])
    eps = 0.1
    imp = replace(ImpairmentConfig.neutral(), sigma_pn=0.1, sigma_cfo=0.1)
    real = ImpairmentRealization(pn_phases=omega[None, :], cfo=eps, mc_residual=np.zeros((1, 1)))

    # literal 2x2 chain: F real symmetric for K = 2
    f = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    alpha = rho * cmath.exp(-1j * xi)
    d = np.array(
        [cmath.exp(-2j * cmath.pi * 1e6 * 1 * tau), cmath.exp(-2j * cmath.pi * 1e6 * 2 * tau)]
    )
    v = w0 * d * x  # N=1: steering and coupling are unity
    u = f @ v  # to time domain (F^H = F here)
    u = u * np.exp(1j * omega)  # phase noise
    ktot = 2 + 1
    u = u * np.exp(1j * 2 * np.pi * eps * (np.arange(2) + 1 * ktot) / 2.0)  # CFO ramp + common
    expect = alpha * (f @ u)
    assert np.allclose(mu_m1(th, cfg, blk, imp, real), expect[None, :], rtol=1e-12)


def test_sandwich_matrices_are_unitary():
    cfg = SystemConfig(n_antennas=2, n_transmissions=3, n_subcarriers=16)
    real = sample_realization(ImpairmentConfig(), cfg, np.random.default_rng(5))
    m = sandwich_matrices(phase_rotations(real.cfo, real.pn_phases, cfg))
    for g in range(3):
        assert np.allclose(m[g] @ m[g].conj().T, np.eye(16), atol=1e-12)


@pytest.mark.parametrize("g, k, cp", [(5, 32, 7), (10, 100, 7)])
def test_sandwich_matrices_match_per_row_loop_bitwise(g, k, cp):
    """The sandwich equals, bit for bit, one rotation and one product per
    transmission built row by row, at desk.cfg and full.cfg shapes."""
    cfg = SystemConfig(n_antennas=2, n_transmissions=g, n_subcarriers=k, cp_length=cp)
    imp = replace(ImpairmentConfig(), sigma_cfo=0.05)
    real = sample_realization(imp, cfg, np.random.default_rng(21))
    assert real.cfo != 0.0 and np.all(real.pn_phases != 0.0)
    f = dft_matrix(k)
    samples = np.arange(k)
    out = sandwich_matrices(phase_rotations(real.cfo, real.pn_phases, cfg))
    for row in range(g):
        ramp = 2 * np.pi * real.cfo * samples / k
        common = 2 * np.pi * real.cfo * (row + 1) * (k + cp) / k
        diag = np.exp(1j * (common + ramp + real.pn_phases[row]))
        assert np.array_equal(out[row], (f * diag[None, :]) @ f.conj().T)


@pytest.mark.parametrize("g, k, cp", [(5, 32, 7), (10, 100, 7)])
def test_rotate_applies_the_dense_sandwich(g, k, cp):
    """The FFT operator M v matches the dense sandwich's product within
    1e-12 relative, at desk.cfg and full.cfg shapes, and its adjoint (the
    conjugate rotation) undoes it within 1e-12."""
    cfg = SystemConfig(n_antennas=2, n_transmissions=g, n_subcarriers=k, cp_length=cp)
    imp = replace(ImpairmentConfig(), sigma_cfo=0.05)
    real = sample_realization(imp, cfg, np.random.default_rng(21))
    rng = np.random.default_rng(4)
    v = rng.standard_normal((g, k)) + 1j * rng.standard_normal((g, k))
    rotation = phase_rotations(real.cfo, real.pn_phases, cfg)
    dense = np.einsum("gij,gj->gi", sandwich_matrices(rotation), v)
    mv = rotate(v, rotation)
    assert np.abs(mv - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.abs(rotate(mv, np.conj(rotation)) - v).max() <= 1e-12 * np.abs(v).max()


def test_stacked_draws_match_one_draw_at_a_time():
    """Rotations and rotated rows of n stacked realizations are, bit for
    bit, those of each realization alone; their impaired means match each
    realization's model within 1e-12 relative."""
    cfg = SystemConfig(n_antennas=4, n_transmissions=5, n_subcarriers=32, cp_length=7)
    imp = replace(ImpairmentConfig(), sigma_cfo=0.05)
    blk = PilotBlock.from_config(cfg)
    th = ChannelParams(aoa=0.4, delay=1.2e-8, gain_amp=2e-4, gain_phase=0.3)
    reals = [sample_realization(imp, cfg, np.random.default_rng(s)) for s in range(3)]
    cfo = np.array([r.cfo for r in reals])
    pn = np.array([r.pn_phases for r in reals])
    rotations = phase_rotations(cfo, pn, cfg)
    v = np.random.default_rng(5).standard_normal((3, 5, 32)) + 0j
    rotated = rotate(v, rotations)
    rows = blk.combiners @ mc_matrix(imp.coupling, np.array([r.mc_residual for r in reals]), 4)
    sent = transmit_pilots(blk.symbols, imp, cfg)
    means = impaired_means(th, cfg, rows, sent, rotations)
    for i, real in enumerate(reals):
        assert np.array_equal(rotations[i], phase_rotations(real.cfo, real.pn_phases, cfg))
        assert np.array_equal(rotated[i], rotate(v[i], rotations[i]))
        model = ProjectionModel.impaired(cfg, blk, imp, real)
        assert np.array_equal(rows[i], model.row_matrix)
        expect = model.mean(th)
        assert np.abs(means[i] - expect).max() <= 1e-12 * np.abs(expect).max()


def test_pn_cfo_preserve_per_transmission_energy():
    cfg = SystemConfig(n_antennas=4, n_transmissions=3, n_subcarriers=16)
    blk = PilotBlock.from_config(cfg)
    th = ChannelParams(aoa=0.2, delay=0.9e-8, gain_amp=1e-4, gain_phase=0.5)
    imp = replace(ImpairmentConfig.neutral(), sigma_pn=np.deg2rad(20), sigma_cfo=0.02)
    real = sample_realization(imp, cfg, np.random.default_rng(9))
    clean = ProjectionModel.clean(cfg, blk).mean(th)
    impaired = mu_m1(th, cfg, blk, imp, real)
    assert np.allclose(
        np.linalg.norm(impaired, axis=1), np.linalg.norm(clean, axis=1), rtol=1e-11
    )


def test_transmit_pilots_linear_pa_passthrough():
    cfg = SystemConfig(n_antennas=2, n_transmissions=2, n_subcarriers=8)
    blk = PilotBlock.from_config(cfg)
    out = transmit_pilots(blk.symbols, ImpairmentConfig.neutral(), cfg)
    assert np.array_equal(out, blk.symbols)


def test_transmit_pilots_nonlinear_pa_changes_spectrum():
    cfg = SystemConfig(n_antennas=2, n_transmissions=1, n_subcarriers=16, tx_power_dbm=40.0)
    blk = PilotBlock.from_config(cfg)
    out = transmit_pilots(blk.symbols, ImpairmentConfig(), cfg)
    assert out.shape == blk.symbols.shape
    assert not np.allclose(out, blk.symbols, rtol=1e-3)


def test_mc_residual_changes_row_gains_only():
    # with PN/CFO/PA off, the residual rescales rows but keeps the pilot pattern
    cfg = SystemConfig(n_antennas=3, n_transmissions=2, n_subcarriers=4)
    blk = PilotBlock.from_config(cfg)
    th = ChannelParams(aoa=0.1, delay=5e-9, gain_amp=1.0, gain_phase=0.0)
    imp = replace(ImpairmentConfig.neutral(), sigma_mc=0.1)
    real = ImpairmentRealization(
        pn_phases=np.zeros((2, 4)), cfo=0.0, mc_residual=0.05 * np.ones((3, 3))
    )
    got = mu_m1(th, cfg, blk, imp, real)
    ref = ProjectionModel.clean(cfg, blk).mean(th)
    ratios = got / ref
    # constant ratio within each transmission row
    assert np.allclose(ratios, ratios[:, :1], rtol=1e-10)


# ---------------------------------------------------------------------------
# noise


def test_observe_zero_noise_returns_mean():
    mu = np.array([[1.0 + 1j, 2.0], [0.5j, -1.0]])
    out = observe(mu, 0.0, np.random.default_rng(0))
    assert np.array_equal(out, mu)
    out[0, 0] = 0  # returned array is a copy
    assert mu[0, 0] == 1.0 + 1j


def test_observe_noise_statistics():
    rng = np.random.default_rng(123)
    mu = np.zeros((200, 500), dtype=complex)
    y = observe(mu, 2.0, rng)
    assert np.mean(np.abs(y) ** 2) == pytest.approx(4.0, rel=0.02)
    assert np.mean(y.real * y.imag) == pytest.approx(0.0, abs=0.02)


@pytest.mark.parametrize("sigma_n", [-1.0, np.nan, np.inf])
def test_observe_rejects_bad_noise(sigma_n):
    # a NaN or infinite std would give an all-NaN or infinite observation
    with pytest.raises(ValueError, match="noise std"):
        observe(np.ones((2, 3), dtype=complex), sigma_n, np.random.default_rng(0))


def test_observe_reproducible():
    mu = np.ones((2, 3), dtype=complex)
    a = observe(mu, 0.5, np.random.default_rng(7))
    b = observe(mu, 0.5, np.random.default_rng(7))
    assert np.array_equal(a, b)
