"""Unit tests for the geometry, pilot and noise primitives."""

import numpy as np
import pytest

from hwiloc.model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    ConfigError,
    PilotBlock,
    SystemConfig,
    UeState,
    delay_vector,
    dft_matrix,
    gain_from_geometry,
    generate_combiners,
    generate_pilots,
    noise_std,
    params_to_positions,
    params_to_state,
    state_to_params,
    steering_derivatives,
    steering_vector,
)

RNG = np.random.default_rng(20240811)


# ---------------------------------------------------------------------------
# steering vector


def test_steering_broadside_is_all_ones():
    assert np.allclose(steering_vector(0.0, 8), np.ones(8))


def test_steering_30deg_two_elements():
    # sin(pi/6) = 1/2 so the second element carries phase pi/2
    a = steering_vector(np.pi / 6, 2)
    assert np.allclose(a, [1.0, 1j], atol=1e-12)


@pytest.mark.parametrize("aoa", RNG.uniform(-np.pi / 2, np.pi / 2, 6))
def test_steering_unit_modulus_and_conj_symmetry(aoa):
    a = steering_vector(aoa, 16)
    assert np.allclose(np.abs(a), 1.0)
    assert np.allclose(steering_vector(-aoa, 16), np.conj(a))


@pytest.mark.parametrize("aoa", RNG.uniform(-1.4, 1.4, 4))
def test_steering_derivatives_match_finite_differences(aoa):
    a, da, dda = steering_derivatives(aoa, 12)
    assert np.array_equal(a, steering_vector(aoa, 12))
    h1 = 1e-6
    fd1 = (steering_vector(aoa + h1, 12) - steering_vector(aoa - h1, 12)) / (2 * h1)
    # second difference needs a larger step: roundoff grows like eps/h^2
    h2 = 1e-4
    fd2 = (
        steering_vector(aoa + h2, 12)
        - 2 * steering_vector(aoa, 12)
        + steering_vector(aoa - h2, 12)
    ) / h2**2
    assert np.allclose(da, fd1, rtol=1e-7, atol=1e-7)
    assert np.allclose(dda, fd2, rtol=1e-5, atol=1e-4)


# ---------------------------------------------------------------------------
# delay vector


def test_delay_zero_is_all_ones():
    assert np.allclose(delay_vector(0.0, 5, 1e7), np.ones(5))


def test_delay_quarter_period_first_subcarrier():
    # tau = 1/(4 df) puts the first subcarrier (k = 1) at phase -pi/2
    df = 15e3
    d = delay_vector(1.0 / (4 * df), 4, df)
    assert np.allclose(d[0], -1j, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_delay_unit_modulus_and_additive_phase(seed):
    rng = np.random.default_rng(seed)
    t1, t2 = rng.uniform(0, 1e-7, 2)
    df = 1e9 / 64
    d1 = delay_vector(t1, 64, df)
    assert np.allclose(np.abs(d1), 1.0)
    assert np.allclose(d1 * delay_vector(t2, 64, df), delay_vector(t1 + t2, 64, df))


# ---------------------------------------------------------------------------
# geometric gain


def test_gain_from_geometry_frozen_value():
    # 140 GHz wavelength, 10 ns path: amplitude 5.6841e-5, phase -xi
    alpha = gain_from_geometry(1e-8, 0.0021413747, 0.0)
    assert alpha.real == pytest.approx(5.6841051104248336e-05, rel=1e-9)
    assert alpha.imag == 0.0


def test_gain_phase_convention():
    xi = 0.7
    alpha = gain_from_geometry(2e-8, 2.14e-3, xi)
    assert np.angle(alpha) == pytest.approx(-xi)


def test_gain_rejects_nonpositive_delay():
    with pytest.raises(ValueError):
        gain_from_geometry(0.0, 2.14e-3, 0.0)


# ---------------------------------------------------------------------------
# state <-> params


def test_state_to_params_on_axis():
    st = UeState(position=np.array([3.0, 0.0]), gain_amp=1.0, gain_phase=0.2)
    th = state_to_params(st)
    assert th.aoa == pytest.approx(0.0)
    assert th.delay == pytest.approx(1.0006922855944561e-08, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_state_params_round_trip(seed):
    rng = np.random.default_rng(100 + seed)
    p = rng.uniform([0.5, -5.0], [10.0, 5.0])
    st = UeState(position=p, gain_amp=rng.uniform(0.1, 2.0), gain_phase=rng.uniform(-3, 3))
    back = params_to_state(state_to_params(st))
    assert np.allclose(back.position, p, rtol=1e-12)
    assert abs(state_to_params(st).aoa) < np.pi / 2


def test_state_behind_array_rejected():
    st = UeState(position=np.array([-1.0, 2.0]), gain_amp=1.0, gain_phase=0.0)
    with pytest.raises(ValueError):
        state_to_params(st)


def test_params_to_positions_stacks_params_to_state():
    rng = np.random.default_rng(7)
    positions = rng.uniform([0.5, -5.0], [10.0, 5.0], size=(5, 2))
    thetas = [state_to_params(UeState(p, 1.0, 0.0)) for p in positions]
    stacked = params_to_positions(np.array([t.as_array() for t in thetas]))
    assert stacked.shape == (5, 2)
    for row, theta in zip(stacked, thetas):
        assert np.array_equal(row, params_to_state(theta).position)
    bad = ChannelParams(aoa=0.1, delay=0.0, gain_amp=1.0, gain_phase=0.0)
    with pytest.raises(ValueError, match="delay must be positive"):
        params_to_positions(np.array([thetas[0].as_array(), bad.as_array()]))
    with pytest.raises(ValueError, match="delay must be positive"):
        params_to_state(bad)


def test_channel_params_array_round_trip():
    th = ChannelParams(aoa=0.4, delay=1.2e-8, gain_amp=5e-5, gain_phase=0.3)
    assert np.allclose(ChannelParams.from_array(th.as_array()).as_array(), th.as_array())
    assert th.gain == pytest.approx(5e-5 * np.exp(-0.3j))


# ---------------------------------------------------------------------------
# DFT matrix


def test_dft_matrix_two_point():
    assert np.allclose(dft_matrix(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@pytest.mark.parametrize("n", [3, 8, 37])
def test_dft_matrix_unitary_and_symmetric(n):
    f = dft_matrix(n)
    assert np.allclose(f @ f.conj().T, np.eye(n), atol=1e-12)
    assert np.allclose(f, f.T)


def test_dft_matrix_parseval():
    f = dft_matrix(16)
    x = RNG.normal(size=16) + 1j * RNG.normal(size=16)
    assert np.linalg.norm(f @ x) == pytest.approx(np.linalg.norm(x))


def test_dft_matrix_cached_read_only():
    n = 12
    f = dft_matrix(n)
    idx = np.arange(n)
    fresh = np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)
    assert dft_matrix(n) is f
    assert np.array_equal(f, fresh)
    with pytest.raises(ValueError):
        f[0, 0] = 0.0
    assert np.array_equal(dft_matrix(n), fresh)


# ---------------------------------------------------------------------------
# pilots and combiners


def test_pilot_modulus_at_20_dbm():
    cfg = SystemConfig(tx_power_dbm=20.0)
    x = generate_pilots(cfg)
    assert x.shape == (cfg.n_transmissions, cfg.n_subcarriers)
    assert np.allclose(np.abs(x), 2.23606797749979)


def test_pilots_reproducible_from_seed():
    cfg = SystemConfig(pilot_seed=7)
    assert np.array_equal(generate_pilots(cfg), generate_pilots(cfg))
    other = SystemConfig(pilot_seed=8)
    assert not np.allclose(generate_pilots(cfg), generate_pilots(other))


def test_combiners_unit_norm_rows():
    cfg = SystemConfig()
    w = generate_combiners(cfg)
    assert w.shape == (cfg.n_transmissions, cfg.n_antennas)
    assert np.allclose(np.linalg.norm(w, axis=1), 1.0)
    assert np.allclose(np.abs(w), 1.0 / np.sqrt(cfg.n_antennas))


def test_pilot_block_from_config_consistent():
    cfg = SystemConfig(n_transmissions=4, n_subcarriers=8)
    blk = PilotBlock.from_config(cfg)
    assert blk.symbols.shape == (4, 8)
    assert blk.combiners.shape == (4, cfg.n_antennas)


def test_pilot_block_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        PilotBlock(symbols=np.ones((3, 4)), combiners=np.ones((2, 5)))


# ---------------------------------------------------------------------------
# noise level


def test_noise_std_frozen_value():
    # -173.855 dBm/Hz floor + 10 dB noise figure over 1 GHz
    cfg = SystemConfig()
    assert noise_std(cfg) == pytest.approx(6.4157879274705204e-06, rel=1e-12)
    assert noise_std(cfg) ** 2 == pytest.approx(4.116233473027648e-11, rel=1e-12)


def test_noise_std_scales_with_sqrt_bandwidth():
    lo = noise_std(SystemConfig(bandwidth_hz=1e9))
    hi = noise_std(SystemConfig(bandwidth_hz=4e9))
    assert hi == pytest.approx(2.0 * lo, rel=1e-12)


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_counts():
    with pytest.raises(ConfigError):
        SystemConfig(n_antennas=0)
    with pytest.raises(ConfigError):
        SystemConfig(cp_length=-1)
    with pytest.raises(ConfigError):
        SystemConfig(bandwidth_hz=0.0)


def test_config_derived_quantities():
    cfg = SystemConfig()
    assert cfg.subcarrier_spacing_hz == pytest.approx(1e7)
    assert cfg.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 140e9)
    assert cfg.tx_power_w == pytest.approx(0.1)
