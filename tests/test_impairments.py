"""Unit tests for the hardware-impairment primitives."""

import numpy as np
import pytest

from hwiloc.impairments import (
    ImpairmentConfig,
    ImpairmentRealization,
    mc_matrix,
    pa_apply,
    sample_realization,
)
from hwiloc.model import ConfigError, SystemConfig, dft_matrix
from hwiloc.observation import sandwich_matrices


# ---------------------------------------------------------------------------
# configuration


def test_neutral_config_is_all_off():
    imp = ImpairmentConfig.neutral()
    assert imp.sigma_pn == 0 and imp.sigma_cfo == 0 and imp.sigma_mc == 0
    assert imp.coupling == ()
    assert imp.pa_is_linear


def test_default_config_levels():
    imp = ImpairmentConfig()
    assert imp.sigma_pn == pytest.approx(np.deg2rad(10.0))
    assert imp.coupling[0] == 0.6 + 0.5j
    assert imp.pa_coeffs[0] == 0.9798 + 0.0286j


def test_negative_spread_rejected():
    with pytest.raises(ConfigError):
        ImpairmentConfig(sigma_pn=-0.1)
    with pytest.raises(ConfigError):
        ImpairmentConfig(pa_clip=0.0)


# ---------------------------------------------------------------------------
# phase noise and CFO: the time-domain rotation inside the sandwich


def time_domain_rotations(real, cfg):
    """F^H M_g F per transmission: the diagonal rotation of each sandwich."""
    f = dft_matrix(cfg.n_subcarriers)
    return f.conj().T @ sandwich_matrices(real, cfg) @ f


def test_sandwich_zero_phases_is_identity():
    cfg = SystemConfig(n_antennas=2, n_transmissions=1, n_subcarriers=6)
    m = sandwich_matrices(ImpairmentRealization.neutral(cfg), cfg)
    assert np.allclose(m, np.eye(6))


def test_sandwich_is_time_domain_phase_diagonal():
    cfg = SystemConfig(n_antennas=2, n_transmissions=3, n_subcarriers=8, cp_length=2)
    real = sample_realization(ImpairmentConfig(sigma_cfo=0.1), cfg, np.random.default_rng(4))
    k, total = np.arange(8), 8 + 2
    for g, rot in enumerate(time_domain_rotations(real, cfg)):
        common = 2 * np.pi * real.cfo * (g + 1) * total / 8
        diag = np.exp(1j * (common + 2 * np.pi * real.cfo * k / 8 + real.pn_phases[g]))
        assert np.allclose(rot, np.diag(diag), atol=1e-12)
        assert np.allclose(np.abs(np.diag(rot)), 1.0)


def test_cfo_zero_is_identity():
    # without CFO only the phase noise rotates the time-domain samples
    cfg = SystemConfig(n_antennas=2, n_transmissions=3, n_subcarriers=8, cp_length=2)
    real = sample_realization(ImpairmentConfig(sigma_cfo=0.0), cfg, np.random.default_rng(6))
    assert real.cfo == 0.0
    for g, rot in enumerate(time_domain_rotations(real, cfg)):
        assert np.allclose(rot, np.diag(np.exp(1j * real.pn_phases[g])))


def test_cfo_frozen_example():
    # eps = 0.5, first transmission, K = 4, cp 1: common phase 2*pi*0.5*5/4,
    # ramp phases pi*k/4
    cfg = SystemConfig(n_antennas=2, n_transmissions=1, n_subcarriers=4, cp_length=1)
    real = ImpairmentRealization(pn_phases=np.zeros((1, 4)), cfo=0.5, mc_residual=np.zeros((2, 2)))
    common = np.exp(1j * 2 * np.pi * 0.5 * 5 / 4)
    ramp = np.exp(1j * np.pi * np.arange(4) / 4)
    assert np.allclose(time_domain_rotations(real, cfg)[0], common * np.diag(ramp), atol=1e-12)


def test_cfo_common_phase_accumulates_over_transmissions():
    cfg = SystemConfig(n_antennas=2, n_transmissions=2, n_subcarriers=16, cp_length=4)
    real = ImpairmentRealization(
        pn_phases=np.zeros((2, 16)), cfo=0.01, mc_residual=np.zeros((2, 2))
    )
    e1, e2 = sandwich_matrices(real, cfg)
    step = np.exp(1j * 2 * np.pi * 0.01 * 20 / 16)
    assert np.allclose(e2, step * e1)


# ---------------------------------------------------------------------------
# mutual coupling


def test_mc_matrix_no_coupling_is_identity():
    assert np.allclose(mc_matrix((), None, 5), np.eye(5))


def test_mc_matrix_first_row_frozen():
    c = mc_matrix((0.6 + 0.5j, 0.4054 - 0.128j), None, 4)
    assert np.allclose(c[0], [1.0, 0.6 + 0.5j, 0.4054 - 0.128j, 0.0])
    assert np.allclose(c, c.T)  # symmetric Toeplitz
    assert np.allclose(np.diag(c), 1.0)


def test_mc_matrix_band_too_wide_rejected():
    with pytest.raises(ConfigError):
        mc_matrix((0.1, 0.2, 0.3), None, 3)


def test_mc_matrix_residual_perturbs_all_entries():
    res = np.full((3, 3), 0.5)
    c = mc_matrix((), res, 3)
    assert np.allclose(c, np.eye(3) + 0.5)


# ---------------------------------------------------------------------------
# power amplifier


def test_pa_linear_identity_below_clip():
    x = np.array([1.0 + 2.0j, -3.0j, 0.5])
    assert np.allclose(pa_apply(x, (1.0,), 25.0), x)


def test_pa_clip_saturates_amplitude():
    out = pa_apply(np.array([50.0 + 0.0j]), (1.0, 0.0, 0.0), 25.0)
    assert out[0] == pytest.approx(25.0)


def test_pa_third_order_reference_point():
    # unit-amplitude input through the measured polynomial
    out = pa_apply(np.array([1.0 + 0.0j]), ImpairmentConfig().pa_coeffs, 25.0)
    assert out[0].real == pytest.approx(0.9913, abs=1e-4)
    assert out[0].imag == pytest.approx(0.0244, abs=1e-4)


def test_pa_continuous_at_clip_level():
    coeffs = ImpairmentConfig().pa_coeffs
    below = pa_apply(np.array([25.0 * (1 - 1e-9) + 0j]), coeffs, 25.0)
    above = pa_apply(np.array([25.0 * (1 + 1e-9) + 0j]), coeffs, 25.0)
    assert abs(below[0] - above[0]) < 1e-5 * abs(below[0])


def test_pa_zero_in_zero_out():
    out = pa_apply(np.array([0.0 + 0.0j, 1.0]), (1.0, 0.5), 10.0)
    assert out[0] == 0.0


def test_pa_preserves_phase_for_real_coeffs():
    x = 3.0 * np.exp(1j * np.linspace(-3, 3, 7))
    out = pa_apply(x, (0.9, 0.01), 25.0)
    assert np.allclose(np.angle(out), np.angle(x))


def test_pa_clipped_phase_kept():
    x = np.array([100.0 * np.exp(0.7j)])
    out = pa_apply(x, (1.0,), 25.0)
    assert np.angle(out[0]) == pytest.approx(0.7)
    assert abs(out[0]) == pytest.approx(25.0)


# ---------------------------------------------------------------------------
# realization sampling


def small_cfg():
    return SystemConfig(n_antennas=4, n_transmissions=3, n_subcarriers=8)


def test_sample_realization_shapes_and_types():
    r = sample_realization(ImpairmentConfig(), small_cfg(), np.random.default_rng(0))
    assert r.pn_phases.shape == (3, 8)
    assert np.isrealobj(r.pn_phases)
    assert isinstance(r.cfo, float)
    assert r.mc_residual.shape == (4, 4)
    assert np.isrealobj(r.mc_residual)


def test_sample_realization_neutral_config_draws_zeros():
    r = sample_realization(ImpairmentConfig.neutral(), small_cfg(), np.random.default_rng(1))
    assert np.all(r.pn_phases == 0)
    assert r.cfo == 0.0
    assert np.all(r.mc_residual == 0)


def test_sample_realization_reproducible():
    a = sample_realization(ImpairmentConfig(), small_cfg(), np.random.default_rng(42))
    b = sample_realization(ImpairmentConfig(), small_cfg(), np.random.default_rng(42))
    assert np.array_equal(a.pn_phases, b.pn_phases)
    assert a.cfo == b.cfo
    assert np.array_equal(a.mc_residual, b.mc_residual)


def test_sample_realization_levels_track_sigmas():
    cfg = SystemConfig(n_antennas=4, n_transmissions=40, n_subcarriers=64)
    r = sample_realization(ImpairmentConfig(sigma_pn=0.2), cfg, np.random.default_rng(3))
    assert np.std(r.pn_phases) == pytest.approx(0.2, rel=0.05)


def test_realization_neutral_helper():
    r = ImpairmentRealization.neutral(small_cfg())
    assert np.all(r.pn_phases == 0) and r.cfo == 0.0 and np.all(r.mc_residual == 0)
