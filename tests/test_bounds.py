"""Tests for the bound computations.

The bounds contract the factors of the mean; the derivatives they stand
for are assembled as dense tensors in tests/dense_oracle.py. Derivative
oracles are central finite differences: first derivatives are checked
against differences of the model mean, second derivatives against
differences of the analytic first derivatives (differencing the mean twice
loses too many digits to roundoff). The factored FIM, A and B are checked
against the dense contractions, and a stack of (theta, model) pairs
against batches of one. The closed-form impaired information matrix is
checked against central differences of the impaired mean. The
single-sample information matrix is checked against a hand-expanded closed
form. Mismatch machinery is checked through its exact degenerate limits:
with no impairments the pseudo-true parameter is the true one, A and B
collapse to -I and +I, and every misspecified bound equals its matched
counterpart.
"""

import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import hwiloc.bounds
from dense_oracle import (
    dense_a,
    dense_b,
    dense_derivatives,
    dense_fim,
    dense_mean,
    dense_unrotated,
    factor_table,
    factored_derivatives,
    sequential_descent,
    stack_links,
    table_derivatives,
)
from hwiloc.bounds import (
    LINE_SEARCH_BLOCK,
    BoundsReport,
    crb_m1_numeric,
    crb_m2_report,
    fim,
    fim_m1_numeric,
    jacobian_state,
    lb_report,
    mismatch_covariance,
    mismatch_matrices,
    mismatch_report,
    model_derivatives,
    pseudo_true,
)
from hwiloc.estimation import NumericError
from hwiloc.impairments import MEASURED_COUPLING, ImpairmentConfig, ImpairmentRealization, sample_realization
from hwiloc.model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
    geometric_params,
    noise_std,
    params_to_positions,
    positions_to_polar,
)
from hwiloc.observation import FitData, ProjectionModel, mu_m1, sandwich_matrices, transmit_pilots

SMALL = SystemConfig(n_antennas=5, n_transmissions=3, n_subcarriers=8, cp_length=2)
DESK = SystemConfig(n_antennas=10, n_transmissions=5, n_subcarriers=32, cp_length=7)


def clean_model(cfg=DESK, block=None, coupling=()):
    return ProjectionModel.clean(cfg, block or PilotBlock.from_config(cfg), coupling)


def rows(thetas) -> np.ndarray:
    """The (n, 4) rows of a list of n ChannelParams."""
    return np.array([t.as_array() for t in thetas])


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
    first, _ = factored_derivatives(theta, model)
    for i in range(4):
        h = component_step(t, i)
        tp, tm = t.copy(), t.copy()
        tp[i] += h
        tm[i] -= h
        fd = (
            model.mean(ChannelParams.from_array(tp)) - model.mean(ChannelParams.from_array(tm))
        ) / (2.0 * h)
        err = np.linalg.norm(fd - first[i])
        assert err <= 1e-6 * np.linalg.norm(first[i])


@pytest.mark.parametrize("seed", range(10))
def test_second_derivatives_match_first_derivative_differences(seed):
    coupling = MEASURED_COUPLING if seed % 2 else ()
    block = PilotBlock.from_config(SMALL)
    theta = random_params(seed)
    t = theta.as_array()
    model = clean_model(SMALL, block, coupling)
    _, second = factored_derivatives(theta, model)
    scale = max(
        np.linalg.norm(second[i, j]) for i in range(4) for j in range(4)
    )
    for i in range(4):
        h = component_step(t, i)
        tp, tm = t.copy(), t.copy()
        tp[i] += h
        tm[i] -= h
        fd_all = (
            factored_derivatives(ChannelParams.from_array(tp), model)[0]
            - factored_derivatives(ChannelParams.from_array(tm), model)[0]
        ) / (2.0 * h)
        for j in range(4):
            err = np.linalg.norm(fd_all[j] - second[i, j])
            ref = np.linalg.norm(second[i, j])
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
    first, _ = factored_derivatives(theta, model)
    mu = model.mean(theta)
    npt.assert_allclose(theta.gain_amp * first[2], mu, rtol=1e-14)
    npt.assert_allclose(first[3], -1j * mu, rtol=1e-14)


def test_second_derivative_symmetry():
    block = PilotBlock.from_config(SMALL)
    model = clean_model(SMALL, block, MEASURED_COUPLING)
    _, second = factored_derivatives(random_params(5), model)
    for i in range(4):
        for j in range(4):
            npt.assert_array_equal(second[i, j], second[j, i])


def impaired_or_clean(impaired: bool, cfg=DESK, seed: int = 4) -> ProjectionModel:
    """An impaired model with the PA, phase noise, CFO and coupling residual
    all on, or the clean model with the known coupling."""
    block = PilotBlock.from_config(cfg)
    if not impaired:
        return clean_model(cfg, block, MEASURED_COUPLING)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(seed))
    return ProjectionModel.impaired(cfg, block, imp, real)


@pytest.mark.parametrize("impaired", [False, True])
def test_model_derivatives_match_full_product_table_bitwise(impaired):
    """The derivatives the bounds contract (mean_derivatives: the package's
    gain factors times the factors of model_derivatives) are those of the
    full table of factor products with hand-written gain factors, bit for
    bit."""
    model = impaired_or_clean(impaired)
    for seed in range(20):
        theta = random_params(100 + seed)
        first, second = factored_derivatives(theta, model)
        table_first, table_second = table_derivatives(factor_table(theta, model), theta)
        assert np.array_equal(first, table_first)
        assert np.array_equal(second, table_second)


def _normalized(x: np.ndarray, ref: np.ndarray) -> float:
    """Largest gap of x from ref, entry (i, j) relative to
    sqrt(|ref_ii ref_jj|): the scale of a 4 x 4 bound matrix whose entries
    span many orders of magnitude and whose cross terms can vanish."""
    d = np.sqrt(np.abs(np.diag(ref)))
    return float(np.max(np.abs(x - ref) / np.outer(d, d)))


@pytest.mark.parametrize("impaired", [False, True])
def test_factored_bounds_match_the_dense_oracle(impaired):
    """The FIM, A and B contracted from the factors equal the dense
    sample-by-sample contractions within 1e-12 (see _normalized). The
    fitted model is the clean one or an impaired one with every impairment
    on, whose derivatives are the dense ones under its sandwich; the data
    come from another realization."""
    cfg = replace(DESK, tx_power_dbm=30.0)
    model = impaired_or_clean(impaired, cfg, seed=5)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(6))
    data = ProjectionModel.impaired(cfg, PilotBlock.from_config(cfg), imp, real)
    sigma = noise_std(cfg)
    theta_bar = geometric_params(np.array([3.0, 2.0]), 0.3, cfg)
    ybar = data.mean(theta_bar)
    # the true parameter, where the score is not zero, and the pseudo-true
    for theta in (theta_bar, pseudo_true(theta_bar, model, ybar)):
        first, second = dense_derivatives(theta, model)
        if impaired:
            sandwich = sandwich_matrices(model.rotation)
            first = np.einsum("gij,...gj->...gi", sandwich, first)
            second = np.einsum("gij,...gj->...gi", sandwich, second)
        eps = ybar - model.mean(theta)
        info = dense_fim(first, sigma)
        a_mat, b_mat = mismatch_matrices(rows([theta]), model, ybar, [sigma])
        assert _normalized(fim(theta, model, sigma), info) < 1e-12
        assert _normalized(a_mat[0], dense_a(first, second, eps, sigma)) < 1e-12
        assert _normalized(b_mat[0], dense_b(first, eps, sigma)) < 1e-12


def _stack_inputs(n: int, seed: int):
    """n (theta_bar, theta0, clean model, impaired model, impaired mean)
    draws at 30 dBm with different thetas, couplings and realizations."""
    cfg = replace(DESK, tx_power_dbm=30.0)
    block = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    rng = np.random.default_rng(seed)
    out = []
    for r in range(n):
        theta_bar = geometric_params(np.array([3.0 + 0.1 * r, 2.0 - 0.2 * r]), 0.3 * r, cfg)
        clean = clean_model(cfg, block, imp.coupling if r % 2 else ())
        impaired = ProjectionModel.impaired(cfg, block, imp, sample_realization(imp, cfg, rng))
        ybar = impaired.mean(theta_bar)
        out.append((theta_bar, pseudo_true(theta_bar, clean, ybar), clean, impaired, ybar))
    return out, noise_std(cfg)


def _assert_reports_equal(stacked, alone):
    for name in ("fim", "crb", "mcrb", "lb_matrix"):
        x, y = getattr(stacked, name), getattr(alone, name)
        assert (x is None and y is None) or np.array_equal(x, y, equal_nan=True), name
    for name in ("aeb_rad", "deb_s", "peb_m", "lb_aeb_rad", "lb_deb_s", "lb_peb_m", "errors"):
        assert getattr(stacked, name) == getattr(alone, name), name


@pytest.mark.parametrize("impaired", [False, True])
def test_stacked_bounds_match_batches_of_one_bitwise(impaired):
    """A stack of six links of one chain, shaped (2, 3), gives for each
    link bit for bit what that link alone gives: its row matrix and pilot
    moments, its unrotated mean and its mean at per-link parameters, the
    factors, the FIMs, the CRB reports, A and B, the pseudo-trues and the
    misspecified-bound reports. The stack holds each link's pilots, one
    (G, K) block for all links, or one per row. Each link's unrotated mean
    rounds as the dense oracle's W (C a). A pair whose FIM is singular has
    inf scalars and leaves the others as they are."""
    draws, sigma = _stack_inputs(6, 31)
    thetas, theta0s, cleans, impaireds, ybars = map(list, zip(*draws))
    links = impaireds if impaired else cleans
    per_link = stack_links(links, (2, 3))
    for stack in (
        per_link,
        stack_links(links, (2, 3), shared_pilots=True),
        replace(per_link, eff_pilots=per_link.eff_pilots[:, :1]),
    ):
        assert stack.shape == (2, 3)
        _assert_stack_matches_links(stack, links, thetas, theta0s, ybars, sigma, impaired)
    # with zero gain only the amplitude is informative: that pair's FIM is
    # singular, so the stack is inverted slice by slice
    thetas[2] = replace(thetas[2], gain_amp=0.0)
    report = crb_m1_numeric if impaired else crb_m2_report
    stacked = report(rows(thetas), per_link, sigma)
    assert np.isinf([stacked.aeb_rad[2], stacked.deb_s[2], stacked.peb_m[2]]).all()
    assert np.isnan(stacked.crb[2]).all()
    for r, (theta, link) in enumerate(zip(thetas, links)):
        _assert_reports_equal(stacked.take(r), report(theta, link, sigma))


def _assert_stack_matches_links(stack, links, thetas, theta0s, ybars, sigma, impaired):
    aoa, delay = (np.reshape([getattr(t, k) for t in thetas], (2, 3)) for k in ("aoa", "delay"))
    unrotated, eta = stack.unrotated(aoa, delay), stack.eta(aoa, delay)
    for r, (theta, link) in enumerate(zip(thetas, links)):
        at = np.unravel_index(r, (2, 3))
        assert np.array_equal(stack.row_matrix[at], link.row_matrix)
        assert np.array_equal(stack.pilot_moments[at], link.pilot_moments)
        alone = link.unrotated(theta.aoa, theta.delay)
        assert np.array_equal(alone, dense_unrotated(link, theta.aoa, theta.delay))
        assert np.array_equal(unrotated[at], alone)
        assert np.array_equal(eta[at], link.eta(theta.aoa, theta.delay))
    params, params0 = rows(thetas), rows(theta0s)
    b, d = model_derivatives(params, stack)
    for r, link in enumerate(links):
        b1, d1 = model_derivatives(params[r : r + 1], link)
        assert np.array_equal(b[r], b1[0]) and np.array_equal(d[r], d1[0])
    assert np.array_equal(
        fim(params, stack, sigma), np.array([fim(t, m, sigma) for t, m in zip(thetas, links)])
    )
    a_mat, b_mat = mismatch_matrices(params0, stack, ybars, [sigma] * 6)
    for r, (link, ybar) in enumerate(zip(links, ybars)):
        (a1,), (b1,) = mismatch_matrices(params0[r : r + 1], link, ybar, [sigma])
        assert np.array_equal(a_mat[r], a1) and np.array_equal(b_mat[r], b1)
    fitted, fits = pseudo_true(params, stack, ybars)
    assert fits.errors == [None] * 6 and fitted.shape == (6, 4)
    for r, (theta, link, ybar) in enumerate(zip(thetas, links, ybars)):
        assert np.array_equal(fitted[r], pseudo_true(theta, link, ybar).as_array())
    report = crb_m1_numeric if impaired else crb_m2_report
    stacked = report(params, stack, sigma)
    assert stacked.fim.shape == stacked.crb.shape == (6, 4, 4) and stacked.peb_m.shape == (6,)
    for r, (theta, link) in enumerate(zip(thetas, links)):
        _assert_reports_equal(stacked.take(r), report(theta, link, sigma))
    crbs = crb_m2_report(params, stack, sigma)
    lbs = mismatch_report(params, params0, stack, np.array(ybars), sigma, crbs)
    assert np.array_equal(lbs.theta0, params0)
    assert lbs.errors.tolist() == [None] * 6
    for r, args in enumerate(zip(thetas, theta0s, links, ybars)):
        _assert_reports_equal(lbs.take(r), mismatch_report(*args, sigma, crbs.take(r)))


def test_mismatch_report_fails_a_draw_alone(monkeypatch):
    """In a stack where one draw's A or B is not finite and another's A is
    singular, those two fail with their reasons, and every other draw is
    bit for bit its batch of one."""
    draws, sigma = _stack_inputs(5, 32)
    thetas, theta0s, cleans, _, ybars = map(list, zip(*draws))
    stack = stack_links(cleans)
    crbs = crb_m2_report(rows(thetas), stack, sigma)
    pairs = zip(thetas, theta0s, cleans, ybars)
    alone = [mismatch_report(*args, sigma, crbs.take(r)) for r, args in enumerate(pairs)]
    ybars[1] = np.full_like(ybars[1], np.nan)

    def singular_fourth(a_mat, b_mat, flat=()):
        a_mat = a_mat.copy()
        if len(a_mat) == 5:
            a_mat[3] = 0.0
        return mismatch_covariance(a_mat, b_mat, flat)

    monkeypatch.setattr(hwiloc.bounds, "mismatch_covariance", singular_fourth)
    out = mismatch_report(rows(thetas), rows(theta0s), stack, ybars, sigma, crbs)
    assert out.errors.tolist() == [
        None,
        "curvature or score matrix is non-finite",
        None,
        "curvature matrix A is singular",
        None,
    ]
    for r in (1, 3):
        assert np.isnan(out.mcrb[r]).all() and np.isnan(out.lb_matrix[r]).all()
        assert np.isnan([out.lb_aeb_rad[r], out.lb_deb_s[r], out.lb_peb_m[r]]).all()
    for r in (0, 2, 4):
        _assert_reports_equal(out.take(r), alone[r])
    with pytest.raises(NumericError, match="non-finite"):
        mismatch_report(thetas[1], theta0s[1], cleans[1], ybars[1], sigma, crbs.take(1))


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
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, SMALL)
    with pytest.raises(ValueError):
        fim(theta, clean_model(SMALL), 0.0)


@pytest.mark.parametrize("sigma_n", [np.nan, np.inf])
def test_bounds_reject_non_finite_noise(sigma_n):
    # a NaN std would give an all-NaN FIM, an infinite one inf bounds
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, SMALL)
    model = clean_model(SMALL)
    with pytest.raises(ValueError, match="noise std"):
        fim(theta, model, sigma_n)
    with pytest.raises(ValueError, match="noise std"):
        crb_m2_report(rows([theta, theta]), stack_links([model, model]), [1.0, sigma_n])


# ---------------------------------------------------------------------------
# coordinate change and CRB


def test_jacobian_broadside_values():
    theta = ChannelParams(aoa=0.0, delay=1e-8, gain_amp=1.0, gain_phase=0.0)
    jac = jacobian_state(rows([theta]))[0]
    # d aoa/d p = (0, 1/(c tau)), d delay/d p = (1/c, 0) at broadside
    npt.assert_allclose(jac[0], [0.0, 0.33356409519815206, 0.0, 0.0], atol=1e-15)
    npt.assert_allclose(jac[1], [3.3356409519815204e-09, 0.0, 0.0, 0.0], atol=1e-24)
    npt.assert_array_equal(jac[2], [0.0, 0.0, 1.0, 0.0])
    npt.assert_array_equal(jac[3], [0.0, 0.0, 0.0, 1.0])


def test_jacobian_matches_position_differences():
    pos = np.array([3.0, 2.0])
    aoa, rng = positions_to_polar(pos)
    jac = jacobian_state(np.array([[aoa, rng / SPEED_OF_LIGHT, 1e-4, 0.3]]))[0]
    h = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        pp, pm = pos.copy(), pos.copy()
        pp[j] += h
        pm[j] -= h
        (ap, rp), (am, rm) = positions_to_polar(pp), positions_to_polar(pm)
        fd[0, j] = (ap - am) / (2.0 * h)
        fd[1, j] = (rp - rm) / SPEED_OF_LIGHT / (2.0 * h)
    npt.assert_allclose(fd, jac[:2, :2], rtol=1e-5)


def test_jacobian_rejects_zero_delay():
    theta = ChannelParams(aoa=0.0, delay=0.0, gain_amp=1.0, gain_phase=0.0)
    with pytest.raises(ValueError):
        jacobian_state(rows([theta]))


# a UE 1 m out at broadside: J = [[0, 1], [1/c, 0]] in position, so the
# position variances are c^2 var(delay) and var(aoa)
BROADSIDE = ChannelParams(aoa=0.0, delay=1.0 / SPEED_OF_LIGHT, gain_amp=1.0, gain_phase=0.0)


def _crb(info, theta=BROADSIDE, model=None):
    """The CRB report of a given channel-coordinate FIM at theta."""
    return hwiloc.bounds._crb_reports(info, theta, model or clean_model(SMALL))


def test_crb_state_matches_direct_inverse():
    # a random state-coordinate information S, mapped to channel
    # coordinates: I = T^T S T with T = inv(J), whose state CRB is inv(S)
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4))
    state_info = m @ m.T + 4.0 * np.eye(4)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, SMALL)
    jac = jacobian_state(rows([theta]))[0]
    t = np.linalg.inv(jac)
    info = t.T @ state_info @ t
    expected = np.linalg.inv(jac.T @ info @ jac)
    npt.assert_allclose(_crb(info, theta).crb, expected, rtol=1e-10)


def test_crb_state_raises_on_singularity():
    # a singular FIM leaves the state CRB undefined: NaN, and its scalars inf
    rep = _crb(np.diag([0.0, 1.0, 1.0, 1.0]))
    assert np.isnan(rep.crb).all()


def test_peb_invariant_under_rotation():
    """Keeping the channel-domain information fixed, rotating the user
    rotates the position covariance, so its trace (the PEB) is unchanged."""
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    model = clean_model(DESK, block)
    info = fim(theta, model, sigma)
    rotated = ChannelParams(
        aoa=theta.aoa + 0.4,
        delay=theta.delay,
        gain_amp=theta.gain_amp,
        gain_phase=theta.gain_phase,
    )
    peb = _crb(info, theta, model).peb_m
    peb_rot = _crb(info, rotated, model).peb_m
    npt.assert_allclose(peb_rot, peb, rtol=1e-12)


def test_scalar_bounds_frozen_diagonal():
    # var(aoa) 0.09 rad^2 and var(delay) 0.16 m^2 / c^2: peb = sqrt(0.09 + 0.16)
    info = np.diag([1.0 / 0.09, SPEED_OF_LIGHT**2 / 0.16, 16.0, 25.0])
    rep = _crb(info)
    npt.assert_allclose(rep.aeb_rad, 0.3, rtol=1e-15)
    npt.assert_allclose(rep.deb_s, 0.4 / SPEED_OF_LIGHT, rtol=1e-15)
    npt.assert_allclose(rep.peb_m, 0.5, rtol=1e-15)
    assert isinstance(rep, BoundsReport)
    npt.assert_allclose(rep.aeb_deg, np.rad2deg(0.3), rtol=1e-15)
    npt.assert_allclose(rep.deb_m, 0.4, rtol=1e-15)


def test_scalar_bounds_degenerate_inputs():
    rep = _crb(np.diag([0.0, 1.0, 1.0, 1.0]))
    assert np.isinf(rep.aeb_rad) and np.isinf(rep.deb_s) and np.isinf(rep.peb_m)


def test_scalar_bounds_leave_out_a_flat_coordinate():
    # the delay's derivative is twice the phase's, so info is singular; with
    # one subcarrier the delay's row and column are dropped before the inverse
    reduced = np.array([[4.0, 0.5, 1.0], [0.5, 9.0, 0.0], [1.0, 0.0, 2.0]])  # aoa, amp, phase
    lift = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0]])
    info = lift.T @ reduced @ lift
    rep = _crb(info, model=clean_model(replace(SMALL, n_subcarriers=1, cp_length=0)))
    npt.assert_allclose(rep.aeb_rad, np.sqrt(np.linalg.inv(reduced)[0, 0]), rtol=1e-15)
    assert np.isinf(rep.deb_s) and np.isinf(rep.peb_m)


def test_scalar_bounds_indefinite_matrix_gives_inf_not_nan():
    # a numerically singular inverse can carry negative diagonals: the
    # component is unidentifiable, not NaN, and no sqrt warning is raised.
    # Here var(aoa) is negative and c^2 var(delay) = 1/9 m^2 smaller than
    # its magnitude, so the position variance is negative too
    info = np.diag([-4.0, 9.0 * SPEED_OF_LIGHT**2, 16.0, 25.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = _crb(info)
    assert np.isinf(rep.aeb_rad) and np.isinf(rep.peb_m)
    npt.assert_allclose(rep.deb_m, 1.0 / 3.0, rtol=1e-15)


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
    return dense_fim(np.stack(first), sigma_n)


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
    """theta, the clean models and the impaired means of n draws at 30 dBm,
    the means formed as the bounds sweep forms those it fits (dense_mean);
    every other draw fits the clean model without the known coupling, so
    the slots of the batch hold different models."""
    cfg = replace(DESK, tx_power_dbm=30.0)
    block = PilotBlock.from_config(cfg)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, cfg)
    imp = ImpairmentConfig()
    rng = np.random.default_rng(seed)
    cleans = [clean_model(cfg, block, imp.coupling if r % 2 else ()) for r in range(n)]
    impaireds = [
        ProjectionModel.impaired(cfg, block, imp, sample_realization(imp, cfg, rng))
        for _ in range(n)
    ]
    means = [dense_mean(model, theta) for model in impaireds]
    return theta, cleans, means


def test_pseudo_true_batch_matches_batches_of_one_bitwise():
    """R draws fitted in lockstep land bit for bit where R batches of one
    land, although their descents take different numbers of iterations."""
    theta, cleans, means = _pseudo_true_batch(6, 21)
    theta0s, fits = pseudo_true(theta, stack_links(cleans), means)
    assert fits.errors == [None] * 6
    assert set(fits.stops) <= {"gradient", "stalled", "max_iter"}
    assert len(set(fits.n_iterations)) > 1
    for r, (theta0, clean, ybar) in enumerate(zip(theta0s, cleans, means)):
        assert np.array_equal(theta0, pseudo_true(theta, clean, ybar).as_array())
        _, alone = pseudo_true(theta, stack_links([clean]), [ybar])
        assert (alone.stops[0], alone.n_iterations[0]) == (fits.stops[r], fits.n_iterations[r])


def _descent_data(cleans, means) -> FitData:
    """The FitData that pseudo_true descends on: each draw's pulled mean,
    fitted with its clean model."""
    data = FitData.empty(cleans[0].cfg, len(cleans))
    for i, (model, y) in enumerate(zip(cleans, means)):
        data.put(i, model.row_matrix, model.eff_pilots, model.pulled_observation(y)[None])
    return data


@pytest.mark.parametrize("case", ["batch", "zero_energy", "far_start", "nan_wall"])
def test_descent_matches_one_halving_per_call_bitwise(case, monkeypatch):
    """The descent's line search tests a block of halvings per objective
    call and takes the first that passes: its positions, objectives, stops,
    iteration counts and errors are bit for bit those of a search that
    tests one halving per call (sequential_descent). Cases: six draws from
    the true position, where fits stall on the step floor; the same with a
    draw without energy; a start 0.5 m off, where fits also stop on the
    gradient; and that start with an objective that is NaN more than 0.15 m
    from it for every other draw, so that from the second iteration on the
    longer trial steps of those fits are NaN and they end failed."""
    theta, cleans, means = _pseudo_true_batch(6, 21)
    starts = params_to_positions(rows([theta] * 6))
    if case == "zero_energy":
        means[2] = np.zeros_like(means[2])
    if case in ("far_start", "nan_wall"):
        starts = starts + 0.5 * np.array([0.6, -0.8])
    if case == "nan_wall":
        walled = _descent_data(cleans, means).yy[::2]
        objective = FitData.objective

        def nan_past_wall(self, px, py):
            far = np.hypot(px - starts[0, 0], py - starts[0, 1]) > 0.15
            return np.where(far & np.isin(self.yy, walled), np.nan, objective(self, px, py))

        monkeypatch.setattr(FitData, "objective", nan_past_wall)
    expected, most_halvings = sequential_descent(_descent_data(cleans, means), starts)
    fits = hwiloc.bounds._descend(_descent_data(cleans, means), starts)
    for field in ("positions", "objectives", "stops", "n_iterations", "starts"):
        got, want = getattr(fits, field), getattr(expected, field)
        assert np.array_equal(got, want, equal_nan=field != "stops"), field
    assert fits.errors == expected.errors
    # some accepted step lies past the first block of halvings
    assert most_halvings >= LINE_SEARCH_BLOCK
    stops = list(fits.stops)
    if case == "batch":
        assert "stalled" in stops and fits.errors == [None] * 6
    elif case == "zero_energy":
        assert fits.errors[2] == "observation energy must be positive and finite"
        assert stops.count("failed") == 1
    elif case == "far_start":
        assert "gradient" in stops and "stalled" in stops
    else:
        assert stops[::2] == ["failed"] * 3 and "failed" not in stops[1::2]
        assert set(fits.errors[::2]) == {"gradient is non-finite during refinement"}


def test_pseudo_true_batch_fails_a_draw_without_energy_alone():
    theta, cleans, means = _pseudo_true_batch(4, 22)
    alone = [pseudo_true(theta, clean, ybar) for clean, ybar in zip(cleans, means)]
    means[2] = np.zeros_like(means[2])
    theta0s, fits = pseudo_true(theta, stack_links(cleans), means)
    assert np.isnan(theta0s[2]).all() and fits.stops[2] == "failed"
    assert fits.errors == [None, None, "observation energy must be positive and finite", None]
    for r in (0, 1, 3):
        assert np.array_equal(theta0s[r], alone[r].as_array())
    with pytest.raises(NumericError, match="observation energy must be positive"):
        pseudo_true(theta, cleans[2], means[2])


def test_ab_matrices_reduce_to_information():
    block = PilotBlock.from_config(DESK)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    sigma = noise_std(DESK)
    model = clean_model(DESK, block)
    info = fim(theta, model, sigma)
    # the data are the model's own mean, formed from the factors as the
    # mismatch is: zero to the last bit
    b, d = model_derivatives(rows([theta]), model)
    ybar = theta.gain * (b[0, :, :1] * (d[0] * model.eff_pilots))
    a_mat, b_mat = mismatch_matrices(rows([theta]), model, ybar, [sigma])
    npt.assert_allclose(a_mat[0], -info, rtol=1e-12)
    npt.assert_allclose(b_mat[0], info, rtol=1e-12)
    inv = np.linalg.inv(info)
    npt.assert_allclose(
        mismatch_covariance(a_mat, b_mat)[0], inv, rtol=1e-9, atol=1e-12 * np.abs(inv).max()
    )


def _mismatch_at(theta_bar, theta0):
    """The misspecified-bound report of a draw at a given pseudo-true, with
    data that the clean model fits exactly there."""
    model = clean_model(DESK)
    sigma = noise_std(DESK)
    crb = crb_m2_report(theta_bar, model, sigma)
    return mismatch_report(theta_bar, theta0, model, model.mean(theta0), sigma, crb)


def test_bias_vector_wraps_phase():
    a = ChannelParams(aoa=0.15, delay=1e-8, gain_amp=1e-4, gain_phase=3.0)
    b = ChannelParams(aoa=0.1, delay=1e-8, gain_amp=1e-4, gain_phase=-3.0)
    rep = _mismatch_at(a, b)
    bias_outer = rep.lb_matrix - rep.mcrb  # outer(d, d), d the pseudo-true bias
    d_aoa = a.aoa - b.aoa
    npt.assert_allclose(np.sqrt(bias_outer[3, 3]), 2.0 * np.pi - 6.0, atol=1e-12)
    # the sign of the wrapped phase bias, read from its cross term with the angle's
    npt.assert_allclose(bias_outer[0, 3] / d_aoa, 6.0 - 2.0 * np.pi, atol=1e-12)
    npt.assert_allclose(bias_outer[0, 0], d_aoa**2, rtol=1e-12)
    npt.assert_allclose(bias_outer[1:3], 0.0, atol=1e-20)


def test_lb_matrix_and_position_bias_only(monkeypatch):
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, DESK)
    shifted = geometric_params(np.array([3.1, 2.0]), 0.3, DESK)
    monkeypatch.setattr(
        hwiloc.bounds, "mismatch_covariance", lambda a_mat, b_mat, flat=(): np.zeros(a_mat.shape)
    )
    rep = _mismatch_at(theta, shifted)
    d = theta.as_array() - shifted.as_array()
    npt.assert_allclose(rep.lb_matrix, np.outer(d, d), rtol=1e-12)
    npt.assert_allclose(rep.lb_peb_m, 0.1, rtol=1e-9)


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
    p_bar = params_to_positions(theta.as_array())
    p0 = params_to_positions(rep.theta0.as_array())
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
