"""Tests for the bound computations.

Derivative oracles are central finite differences: first derivatives are
checked against differences of the model mean, second derivatives against
differences of the analytic first derivatives (differencing the mean twice
loses too many digits to roundoff). The closed-form impaired information
matrix is checked against central differences of the impaired mean. The
single-sample information matrix is checked against a hand-expanded closed
form. Mismatch machinery is checked
through its exact degenerate limits: with no impairments the pseudo-true
parameter is the true one, A and B collapse to -I and +I, and every
misspecified bound equals its matched counterpart.
"""

import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from hwiloc.bounds import (
    BoundsReport,
    bias_vector,
    crb_m1_numeric,
    crb_m2_report,
    crb_state,
    fim_from_first_derivatives,
    fim,
    fim_m1_numeric,
    first_derivatives,
    jacobian_state,
    lb_matrix,
    lb_position,
    lb_report,
    matrix_a,
    matrix_b,
    mismatch_covariance,
    model_derivatives,
    pseudo_true,
    scalar_bounds,
)
from hwiloc.estimation import NumericError
from hwiloc.impairments import MEASURED_COUPLING, ImpairmentConfig, ImpairmentRealization, sample_realization
from hwiloc.model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
    UeState,
    geometric_params,
    noise_std,
    params_to_state,
    state_to_params,
)
from hwiloc.observation import ProjectionModel, mu_m1, transmit_pilots

SMALL = SystemConfig(n_antennas=5, n_transmissions=3, n_subcarriers=8, cp_length=2)
DESK = SystemConfig(n_antennas=10, n_transmissions=5, n_subcarriers=32, cp_length=7)


def clean_model(cfg=DESK, block=None, coupling=()):
    return ProjectionModel.clean(cfg, block or PilotBlock.from_config(cfg), coupling)


def random_params(seed: int) -> ChannelParams:
    rng = np.random.default_rng(seed)
    return ChannelParams(
        aoa=float(rng.uniform(-1.2, 1.2)),
        delay=float(rng.uniform(1.0, 20.0)) / SPEED_OF_LIGHT,
        gain_amp=float(rng.uniform(1e-5, 1e-3)),
        gain_phase=float(rng.uniform(-np.pi, np.pi)),
    )


def component_step(theta_vec: np.ndarray, i: int, scale: float = 1e-6) -> float:
    # relative steps for the scaled components (delay, amplitude),
    # absolute-capped steps for the two angles
    if i in (1, 2):
        return scale * abs(theta_vec[i])
    return scale * max(abs(theta_vec[i]), 1.0)


# ---------------------------------------------------------------------------
# closed-form derivatives against finite differences


@pytest.mark.parametrize("seed", range(10))
def test_first_derivatives_match_mean_differences(seed):
    coupling = MEASURED_COUPLING if seed % 2 else ()
    block = PilotBlock.from_config(SMALL)
    theta = random_params(seed)
    t = theta.as_array()
    model = clean_model(SMALL, block, coupling)
    derivs = model_derivatives(theta, model)
    for i in range(4):
        h = component_step(t, i)
        tp, tm = t.copy(), t.copy()
        tp[i] += h
        tm[i] -= h
        fd = (
            model.mean(ChannelParams.from_array(tp)) - model.mean(ChannelParams.from_array(tm))
        ) / (2.0 * h)
        err = np.linalg.norm(fd - derivs.first[i])
        assert err <= 1e-6 * np.linalg.norm(derivs.first[i])


@pytest.mark.parametrize("seed", range(10))
def test_second_derivatives_match_first_derivative_differences(seed):
    coupling = MEASURED_COUPLING if seed % 2 else ()
    block = PilotBlock.from_config(SMALL)
    theta = random_params(seed)
    t = theta.as_array()
    model = clean_model(SMALL, block, coupling)
    derivs = model_derivatives(theta, model)
    scale = max(
        np.linalg.norm(derivs.second[i, j]) for i in range(4) for j in range(4)
    )
    for i in range(4):
        h = component_step(t, i)
        tp, tm = t.copy(), t.copy()
        tp[i] += h
        tm[i] -= h
        fd_all = (
            model_derivatives(ChannelParams.from_array(tp), model).first
            - model_derivatives(ChannelParams.from_array(tm), model).first
        ) / (2.0 * h)
        for j in range(4):
            err = np.linalg.norm(fd_all[j] - derivs.second[i, j])
            ref = np.linalg.norm(derivs.second[i, j])
            if ref > 0:
                assert err <= 1e-6 * ref
            else:
                # the amplitude-amplitude derivative vanishes identically
                assert err <= 1e-9 * scale


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_derivative_identities(seed):
    """mu is linear in amplitude and a pure phasor in phase, so
    mu == gain_amp * d mu/d amp and d mu/d phase == -1j * mu exactly."""
    block = PilotBlock.from_config(SMALL)
    theta = random_params(seed)
    model = clean_model(SMALL, block)
    derivs = model_derivatives(theta, model)
    mu = model.mean(theta)
    npt.assert_allclose(theta.gain_amp * derivs.first[2], mu, rtol=1e-14)
    npt.assert_allclose(derivs.first[3], -1j * mu, rtol=1e-14)


def test_second_derivative_symmetry():
    block = PilotBlock.from_config(SMALL)
    derivs = model_derivatives(random_params(5), clean_model(SMALL, block, MEASURED_COUPLING))
    for i in range(4):
        for j in range(4):
            npt.assert_array_equal(derivs.second[i, j], derivs.second[j, i])


def full_table_derivatives(theta: ChannelParams, model: ProjectionModel):
    """Oracle: first and second derivatives read from the full (3, 3, G, K)
    table of factor products b^(i) d^(j) x~, every (aoa, delay) order pair."""
    b, d = model.factors(theta.aoa, theta.delay)
    e = b.T[:, None, :, None] * (d.T[:, None, :] * model.eff_pilots)
    amp = np.array([theta.gain_amp, 1.0, 0.0])
    phase = np.array([1.0, -1j, -1.0])
    rotation = np.exp(-1j * theta.gain_phase)
    eye = np.eye(4, dtype=int)

    def derivative(orders):
        n_aoa, n_delay, n_amp, n_phase = orders
        gain = amp[n_amp] * phase[n_phase] * rotation
        return gain[..., None, None] * e[n_aoa, n_delay]

    return derivative(eye), derivative(eye[:, :, None] + eye[:, None, :])


@pytest.mark.parametrize("impaired", [False, True])
def test_model_derivatives_match_full_product_table_bitwise(impaired):
    block = PilotBlock.from_config(DESK)
    imp = ImpairmentConfig()
    if impaired:
        real = sample_realization(imp, DESK, np.random.default_rng(4))
        model = ProjectionModel.impaired(DESK, block, imp, real)
    else:
        model = clean_model(DESK, block, MEASURED_COUPLING)
    for seed in range(20):
        theta = random_params(100 + seed)
        derivs = model_derivatives(theta, model)
        first, second = full_table_derivatives(theta, model)
        assert np.array_equal(derivs.first, first)
        assert np.array_equal(derivs.second, second)


@pytest.mark.parametrize("impaired", [False, True])
def test_first_derivatives_alone_match_model_derivatives_bitwise(impaired):
    """The FIM's first derivatives, built without the second, are those of
    model_derivatives bit for bit, and so is the FIM."""
    block = PilotBlock.from_config(DESK)
    imp = ImpairmentConfig()
    if impaired:
        real = sample_realization(imp, DESK, np.random.default_rng(4))
        model = ProjectionModel.impaired(DESK, block, imp, real)
    else:
        model = clean_model(DESK, block, MEASURED_COUPLING)
    for seed in range(20):
        theta = random_params(200 + seed)
        first = model_derivatives(theta, model).first
        assert np.array_equal(first_derivatives(theta, model), first)
        assert np.array_equal(fim(theta, model, 0.3), fim_from_first_derivatives(first, 0.3))


# ---------------------------------------------------------------------------
# information matrix


def test_fim_hand_computed_single_sample():
    """One antenna, one transmission, one subcarrier, pilot 2 + 0j.

    The steering vector degenerates to [1] with zero derivative, so the
    whole angle row vanishes. With w = 2*pi*df, rho = 1 and sigma^2 = 2 the
    remaining entries expand by hand to the matrix below (the pilot
    contributes |x|^2 = 4).
    """
    cfg = SystemConfig(n_antennas=1, n_transmissions=1, n_subcarriers=1, cp_length=0)
    block = PilotBlock(
        symbols=np.array([[2.0 + 0j]]), combiners=np.array([[1.0 + 0j]])
    )
    theta = ChannelParams(aoa=0.3, delay=5e-9, gain_amp=1.0, gain_phase=0.7)
    sigma = np.sqrt(2.0)
    w = 2.0 * np.pi * cfg.subcarrier_spacing_hz
    expected = 4.0 * np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, w**2, 0.0, w],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, w, 0.0, 1.0],
        ]
    )
    info = fim(theta, clean_model(cfg, block), sigma)
    npt.assert_allclose(info, expected, rtol=1e-12, atol=1e-4)


def test_fim_phase_diagonal_equals_mean_energy():
    """d mu/d phase = -1j mu makes I[3, 3] = (2/sigma^2) ||mu||^2 exactly."""
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    model = clean_model(DESK, block)
    info = fim(theta, model, sigma)
    mu = model.mean(theta)
    npt.assert_allclose(
        info[3, 3], 2.0 / sigma**2 * np.linalg.norm(mu) ** 2, rtol=1e-12
    )


def test_fim_block_tiling_doubles_information():
    block = PilotBlock.from_config(DESK)
    tiled = PilotBlock(
        symbols=np.vstack([block.symbols, block.symbols]),
        combiners=np.vstack([block.combiners, block.combiners]),
    )
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    fim1 = fim(theta, clean_model(DESK, block), sigma)
    fim2 = fim(theta, clean_model(DESK, tiled), sigma)
    # near-zero cross terms only need to agree relative to the matrix scale
    npt.assert_allclose(fim2, 2.0 * fim1, rtol=1e-13, atol=1e-13 * np.abs(fim1).max())


def test_fim_noise_scaling_exact():
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    model = clean_model(DESK, block)
    npt.assert_allclose(
        fim(theta, model, sigma), 4.0 * fim(theta, model, 2.0 * sigma), rtol=1e-15
    )
    rep1 = crb_m2_report(theta, model, sigma)
    rep2 = crb_m2_report(theta, model, 2.0 * sigma)
    npt.assert_allclose(rep2.aeb_rad, 2.0 * rep1.aeb_rad, rtol=1e-12)
    npt.assert_allclose(rep2.deb_s, 2.0 * rep1.deb_s, rtol=1e-12)
    npt.assert_allclose(rep2.peb_m, 2.0 * rep1.peb_m, rtol=1e-12)


def test_fim_rejects_bad_noise():
    first = np.zeros((4, 2, 3), dtype=complex)
    with pytest.raises(ValueError):
        fim_from_first_derivatives(first, 0.0)


# ---------------------------------------------------------------------------
# coordinate change and CRB


def test_jacobian_broadside_values():
    theta = ChannelParams(aoa=0.0, delay=1e-8, gain_amp=1.0, gain_phase=0.0)
    jac = jacobian_state(theta)
    # d aoa/d p = (0, 1/(c tau)), d delay/d p = (1/c, 0) at broadside
    npt.assert_allclose(jac[0], [0.0, 0.33356409519815206, 0.0, 0.0], atol=1e-15)
    npt.assert_allclose(jac[1], [3.3356409519815204e-09, 0.0, 0.0, 0.0], atol=1e-24)
    npt.assert_array_equal(jac[2], [0.0, 0.0, 1.0, 0.0])
    npt.assert_array_equal(jac[3], [0.0, 0.0, 0.0, 1.0])


def test_jacobian_matches_position_differences():
    pos = np.array([3.0, 2.0])
    theta = state_to_params(UeState(position=pos, gain_amp=1e-4, gain_phase=0.3))
    jac = jacobian_state(theta)
    h = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        pp, pm = pos.copy(), pos.copy()
        pp[j] += h
        pm[j] -= h
        tp = state_to_params(UeState(position=pp, gain_amp=1e-4, gain_phase=0.3))
        tm = state_to_params(UeState(position=pm, gain_amp=1e-4, gain_phase=0.3))
        fd[0, j] = (tp.aoa - tm.aoa) / (2.0 * h)
        fd[1, j] = (tp.delay - tm.delay) / (2.0 * h)
    npt.assert_allclose(fd, jac[:2, :2], rtol=1e-5)


def test_jacobian_rejects_zero_delay():
    theta = ChannelParams(aoa=0.0, delay=0.0, gain_amp=1.0, gain_phase=0.0)
    with pytest.raises(ValueError):
        jacobian_state(theta)


def test_crb_state_matches_direct_inverse():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    fim = m @ m.T + 4.0 * np.eye(4)
    jac = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
    expected = np.linalg.inv(jac.T @ fim @ jac)
    npt.assert_allclose(crb_state(fim, jac), expected, rtol=1e-10)


def test_crb_state_raises_on_singularity():
    with pytest.raises(NumericError):
        crb_state(np.diag([0.0, 1.0, 1.0, 1.0]), np.eye(4))


def test_peb_invariant_under_rotation():
    """Keeping the channel-domain information fixed, rotating the user
    rotates the position covariance, so its trace (the PEB) is unchanged."""
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    info = fim(theta, clean_model(DESK, block), sigma)
    rotated = ChannelParams(
        aoa=theta.aoa + 0.4,
        delay=theta.delay,
        gain_amp=theta.gain_amp,
        gain_phase=theta.gain_phase,
    )
    peb = np.sqrt(np.trace(crb_state(info, jacobian_state(theta))[:2, :2]))
    peb_rot = np.sqrt(np.trace(crb_state(info, jacobian_state(rotated))[:2, :2]))
    npt.assert_allclose(peb_rot, peb, rtol=1e-12)


def test_scalar_bounds_frozen_diagonal():
    fim = np.diag([4.0, 9.0, 16.0, 25.0])
    crb = np.diag([0.09, 0.16, 1.0, 1.0])
    aeb, deb, peb = scalar_bounds(fim, crb)
    npt.assert_allclose(aeb, 0.5, rtol=1e-15)
    npt.assert_allclose(deb, 1.0 / 3.0, rtol=1e-15)
    npt.assert_allclose(peb, 0.5, rtol=1e-15)
    rep = BoundsReport(fim, crb, aeb, deb, peb)
    npt.assert_allclose(rep.aeb_deg, np.rad2deg(0.5), rtol=1e-15)
    npt.assert_allclose(rep.deb_m, SPEED_OF_LIGHT / 3.0, rtol=1e-15)


def test_scalar_bounds_degenerate_inputs():
    aeb, deb, peb = scalar_bounds(np.diag([0.0, 1.0, 1.0, 1.0]), None)
    assert np.isinf(aeb) and np.isinf(deb) and np.isinf(peb)


def test_scalar_bounds_leave_out_a_flat_coordinate():
    # the delay's derivative is twice the phase's, so info is singular; the
    # delay's row and column are dropped before the inverse
    reduced = np.array([[4.0, 0.5, 1.0], [0.5, 9.0, 0.0], [1.0, 0.0, 2.0]])  # aoa, amp, phase
    lift = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0]])
    info = lift.T @ reduced @ lift
    aeb, deb, peb = scalar_bounds(info, None, flat=[1])
    npt.assert_allclose(aeb, np.sqrt(np.linalg.inv(reduced)[0, 0]), rtol=1e-15)
    assert np.isinf(deb) and np.isinf(peb)


def test_scalar_bounds_indefinite_matrix_gives_inf_not_nan():
    # a numerically singular inverse can carry negative diagonals: the
    # component is unidentifiable, not NaN, and no sqrt warning is raised
    fim = np.diag([-4.0, 9.0, 16.0, 25.0])
    crb = np.diag([-0.09, -0.16, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aeb, deb, peb = scalar_bounds(fim, crb)
    assert np.isinf(aeb) and np.isinf(peb)
    npt.assert_allclose(deb, 1.0 / 3.0, rtol=1e-15)


# ---------------------------------------------------------------------------
# closed-form information matrix of the impaired chain


def _normalized_gap(fim_a: np.ndarray, fim_b: np.ndarray) -> float:
    d = np.sqrt(np.diag(fim_b))
    return float(np.max(np.abs(fim_a - fim_b) / np.outer(d, d)))


def fd_fim_m1(theta, cfg, block, imp, real, sigma_n, step=1e-6):
    """Oracle: impaired-model FIM from central differences of mu_m1, which
    builds the phase-noise/CFO sandwich the closed form leaves out."""
    t = theta.as_array()
    first = []
    for i in range(4):
        h = component_step(t, i, step)
        tp, tm = t.copy(), t.copy()
        tp[i] += h
        tm[i] -= h
        mp = mu_m1(ChannelParams.from_array(tp), cfg, block, imp, real)
        mm = mu_m1(ChannelParams.from_array(tm), cfg, block, imp, real)
        first.append((mp - mm) / (2.0 * h))
    return fim_from_first_derivatives(np.stack(first), sigma_n)


def test_numeric_fim_matches_analytic_without_impairments():
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    imp = ImpairmentConfig.neutral()
    real = ImpairmentRealization.neutral(DESK)
    numeric = fim_m1_numeric(theta, ProjectionModel.impaired(DESK, block, imp, real), sigma)
    analytic = fim(theta, clean_model(DESK, block), sigma)
    assert _normalized_gap(numeric, analytic) < 1e-5


def test_numeric_fim_step_stability():
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    imp = ImpairmentConfig()
    real = sample_realization(imp, DESK, np.random.default_rng(12))
    closed = fim_m1_numeric(theta, ProjectionModel.impaired(DESK, block, imp, real), sigma)
    for step in (1e-6, 5e-7):
        oracle = fd_fim_m1(theta, DESK, block, imp, real, sigma, step)
        assert _normalized_gap(closed, oracle) < 1e-5


def test_numeric_fim_matches_oracle_with_all_impairments():
    cfg = replace(DESK, tx_power_dbm=30.0)
    block = PilotBlock.from_config(cfg)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, cfg)
    sigma = noise_std(cfg)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(5))
    # every impairment is active: nonlinear PA, phase noise, CFO, residual
    assert not imp.pa_is_linear
    assert np.abs(transmit_pilots(block.symbols, imp, cfg) - block.symbols).max() > 1e-3
    assert np.abs(real.pn_phases).max() > 0 and real.cfo != 0
    assert np.abs(real.mc_residual).max() > 0
    closed = fim_m1_numeric(theta, ProjectionModel.impaired(cfg, block, imp, real), sigma)
    oracle = fd_fim_m1(theta, cfg, block, imp, real, sigma)
    assert _normalized_gap(closed, oracle) < 1e-6


def test_impaired_fim_invariant_under_phase_rotations():
    """Phase noise and CFO enter as a unitary, theta-free rotation per
    transmission, so they move the impaired mean but not its information."""
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    imp = ImpairmentConfig()
    real = sample_realization(imp, DESK, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    rotated = replace(
        real,
        pn_phases=rng.normal(0.0, 0.5, real.pn_phases.shape),
        cfo=real.cfo + 0.2,
    )
    mean = mu_m1(theta, DESK, block, imp, real)
    moved = mu_m1(theta, DESK, block, imp, rotated)
    assert np.linalg.norm(moved - mean) > 0.1 * np.linalg.norm(mean)
    npt.assert_array_equal(
        fim_m1_numeric(theta, ProjectionModel.impaired(DESK, block, imp, rotated), sigma),
        fim_m1_numeric(theta, ProjectionModel.impaired(DESK, block, imp, real), sigma),
    )
    oracle = fd_fim_m1(theta, DESK, block, imp, real, sigma)
    oracle_rotated = fd_fim_m1(theta, DESK, block, imp, rotated, sigma)
    assert _normalized_gap(oracle_rotated, oracle) < 1e-6


def test_numeric_fim_rejects_zero_delay():
    block = PilotBlock.from_config(DESK)
    theta = ChannelParams(aoa=0.1, delay=0.0, gain_amp=1e-4, gain_phase=0.0)
    imp = ImpairmentConfig.neutral()
    real = ImpairmentRealization.neutral(DESK)
    with pytest.raises(ValueError):
        fim_m1_numeric(theta, ProjectionModel.impaired(DESK, block, imp, real), noise_std(DESK))


def test_crb_m1_report_fields():
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    imp = ImpairmentConfig()
    real = sample_realization(imp, DESK, np.random.default_rng(3))
    rep = crb_m1_numeric(theta, ProjectionModel.impaired(DESK, block, imp, real), sigma)
    assert isinstance(rep, BoundsReport)
    assert rep.fim.shape == (4, 4)
    assert rep.crb is not None and rep.crb.shape == (4, 4)
    assert rep.aeb_rad > 0 and rep.deb_s > 0 and rep.peb_m > 0
    assert rep.theta0 is None and rep.mcrb is None


# ---------------------------------------------------------------------------
# misspecified machinery: exact degenerate limits


def test_pseudo_true_degenerates_without_mismatch():
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    imp = ImpairmentConfig.neutral()
    real = ImpairmentRealization.neutral(DESK)
    ybar = mu_m1(theta, DESK, block, imp, real)
    theta0 = pseudo_true(theta, clean_model(DESK, block), ybar)
    npt.assert_allclose(theta0.as_array(), theta.as_array(), rtol=1e-8, atol=1e-14)


def _pseudo_true_batch(n: int, seed: int):
    """theta, the clean models and the impaired means of n draws at 30 dBm;
    every other draw fits the clean model without the known coupling, so
    the slots of the batch hold different models."""
    cfg = replace(DESK, tx_power_dbm=30.0)
    block = PilotBlock.from_config(cfg)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, cfg)
    imp = ImpairmentConfig()
    rng = np.random.default_rng(seed)
    cleans = [clean_model(cfg, block, imp.coupling if r % 2 else ()) for r in range(n)]
    means = [
        ProjectionModel.impaired(cfg, block, imp, sample_realization(imp, cfg, rng)).mean(theta)
        for _ in range(n)
    ]
    return theta, cleans, means


def test_pseudo_true_batch_matches_batches_of_one_bitwise():
    """R draws fitted in lockstep land bit for bit where R batches of one
    land, although their descents take different numbers of iterations."""
    theta, cleans, means = _pseudo_true_batch(6, 21)
    theta0s, fits = pseudo_true(theta, cleans, means)
    assert fits.errors == [None] * 6
    assert set(fits.stops) <= {"gradient", "stalled", "max_iter"}
    assert len(set(fits.n_iterations)) > 1
    for theta0, clean, ybar in zip(theta0s, cleans, means):
        assert np.array_equal(theta0.as_array(), pseudo_true(theta, clean, ybar).as_array())


def test_pseudo_true_batch_fails_a_draw_without_energy_alone():
    theta, cleans, means = _pseudo_true_batch(4, 22)
    alone = [pseudo_true(theta, clean, ybar) for clean, ybar in zip(cleans, means)]
    means[2] = np.zeros_like(means[2])
    theta0s, fits = pseudo_true(theta, cleans, means)
    assert theta0s[2] is None and fits.stops[2] == "failed"
    assert fits.errors == [None, None, "observation energy must be positive and finite", None]
    for r in (0, 1, 3):
        assert np.array_equal(theta0s[r].as_array(), alone[r].as_array())
    with pytest.raises(NumericError, match="observation energy must be positive"):
        pseudo_true(theta, cleans[2], means[2])


def test_ab_matrices_reduce_to_information():
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    model = clean_model(DESK, block)
    derivs = model_derivatives(theta, model)
    info = fim(theta, model, sigma)
    eps = np.zeros((DESK.n_transmissions, DESK.n_subcarriers), dtype=complex)
    a_mat = matrix_a(derivs, eps, sigma)
    b_mat = matrix_b(derivs, eps, sigma)
    npt.assert_allclose(a_mat, -info, rtol=1e-12)
    npt.assert_allclose(b_mat, info, rtol=1e-12)
    inv = np.linalg.inv(info)
    npt.assert_allclose(
        mismatch_covariance(a_mat, b_mat), inv, rtol=1e-9, atol=1e-12 * np.abs(inv).max()
    )


def test_bias_vector_wraps_phase():
    a = ChannelParams(aoa=0.1, delay=1e-8, gain_amp=1e-4, gain_phase=3.0)
    b = ChannelParams(aoa=0.1, delay=1e-8, gain_amp=1e-4, gain_phase=-3.0)
    d = bias_vector(a, b)
    npt.assert_allclose(d[3], 6.0 - 2.0 * np.pi, atol=1e-12)
    npt.assert_allclose(d[:3], 0.0, atol=1e-20)


def test_lb_matrix_and_position_bias_only():
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    shifted = geometric_params(np.array([3.1, 2.0]), 0.3, DESK)
    zero = np.zeros((4, 4))
    lbm = lb_matrix(theta, shifted, zero)
    d = bias_vector(theta, shifted)
    npt.assert_allclose(lbm, np.outer(d, d), rtol=1e-12)
    npt.assert_allclose(lb_position(theta, shifted, zero), 0.1, rtol=1e-9)


def test_lb_report_zero_mismatch_equals_matched_bounds():
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    imp = ImpairmentConfig.neutral()
    real = ImpairmentRealization.neutral(DESK)
    impaired = ProjectionModel.impaired(DESK, block, imp, real)
    rep = lb_report(theta, clean_model(DESK, block), impaired, sigma)
    npt.assert_allclose(rep.theta0.as_array(), theta.as_array(), rtol=1e-8, atol=1e-14)
    npt.assert_allclose(rep.lb_aeb_rad, rep.aeb_rad, rtol=1e-8)
    npt.assert_allclose(rep.lb_deb_s, rep.deb_s, rtol=1e-8)
    npt.assert_allclose(rep.lb_peb_m, rep.peb_m, rtol=1e-8)
    inv = np.linalg.inv(rep.fim)
    npt.assert_allclose(rep.lb_matrix, inv, rtol=1e-6, atol=1e-12 * np.abs(inv).max())


def test_lb_report_with_impairments_is_sane():
    block = PilotBlock.from_config(DESK)
    cfg = SystemConfig(
        n_antennas=DESK.n_antennas,
        n_transmissions=DESK.n_transmissions,
        n_subcarriers=DESK.n_subcarriers,
        cp_length=DESK.cp_length,
        tx_power_dbm=30.0,
    )
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, cfg)
    sigma = noise_std(cfg)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(21))
    impaired = ProjectionModel.impaired(cfg, block, imp, real)
    rep = lb_report(theta, clean_model(cfg, block, imp.coupling), impaired, sigma)
    p_bar = params_to_state(theta).position
    p0 = params_to_state(rep.theta0).position
    offset = float(np.linalg.norm(p_bar - p0))
    assert offset < 0.5, "pseudo-true point wandered out of the local basin"
    # the total bound is at least its own bias part and dominates the
    # matched bound once the impairments bite
    assert rep.lb_peb_m >= offset
    assert rep.lb_peb_m > rep.peb_m
    assert rep.lb_aeb_rad > 0 and rep.lb_deb_s > 0
    npt.assert_allclose(rep.mcrb, rep.mcrb.T, rtol=1e-9)
    eigs = np.linalg.eigvalsh(rep.mcrb)
    assert eigs.min() >= -1e-10 * eigs.max()
