"""Unit tests for the projection objective, grid search and refinement."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from hwiloc.estimation import (
    CONVERGED_STOPS,
    Estimate,
    EstimatorConfig,
    NumericError,
    ProjectionModel,
    grid_search,
    mle_m1,
    mmle_m2,
    plug_in_gain,
    projection_objective,
    refine,
    scan_grid,
)
from hwiloc.impairments import ImpairmentConfig, mc_matrix, pa_apply, sample_realization
from hwiloc.model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
    UeState,
    state_to_params,
)
from hwiloc.observation import FitData, ScanGrid, mu_m1, observe


def desk_cfg(**kw):
    base = dict(
        n_antennas=6, n_transmissions=3, n_subcarriers=16, cp_length=2, tx_power_dbm=20.0
    )
    base.update(kw)
    return SystemConfig(**base)


def true_state(cfg, pos=(3.0, 2.0), phase=0.3):
    p = np.asarray(pos, dtype=float)
    st = UeState(position=p, gain_amp=1.0, gain_phase=phase)
    th = state_to_params(st)
    amp = cfg.wavelength_m / (4 * np.pi * SPEED_OF_LIGHT * th.delay)
    return ChannelParams(aoa=th.aoa, delay=th.delay, gain_amp=amp, gain_phase=phase)


def fit_data(model, u):
    """FitData of the one pulled observation u, fitted with model."""
    data = FitData.empty(model.cfg, 1)
    data.put(0, model.row_matrix, model.eff_pilots, np.asarray(u)[None])
    return data


def angle_first_grid(model, u, grid):
    """The projection objective on a grid contracted over transmissions
    first, s = (b^H w) conj(D), with one division per point: the scan's
    former order, and the rounding that FitData.objective keeps."""
    b = model.row_matrix @ grid.steering
    w = np.conj(model.eff_pilots) * u
    s = (b.conj().T @ w) @ grid.delay_conj
    den = (np.abs(b) ** 2).T @ model.pilot_energies
    captured = np.zeros_like(s, dtype=float)
    np.divide(np.abs(s) ** 2, den[:, None], out=captured, where=den[:, None] > 0)
    return np.vdot(u, u).real - captured


def refine_one(y, model, p_start, est):
    """refine on one observation: (position, objective, stop, iterations)."""
    fit = refine(fit_data(model, model.pulled_observation(y)), np.asarray(p_start)[None], est)
    return fit.positions[0], fit.objectives[0], fit.stops[0], fit.n_iterations[0]


def captured_energy_one(model, u, aoa, rng_m):
    """FitData.captured_energy of one observation at one position, as floats."""
    e, e_a, e_r, e_aa, e_ar, e_rr = fit_data(model, u).captured_energy(
        np.array([aoa]), np.array([rng_m])
    )[:, 0]
    return e, (e_a, e_r), (e_aa, e_ar, e_rr)


# ---------------------------------------------------------------------------
# projection objective and plug-in gain


def test_projection_objective_orthogonal_direction():
    assert projection_objective(np.array([1.0, 1.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_projection_objective_aligned_is_zero():
    y = np.array([2.0 + 1j, -0.5j, 0.3])
    assert projection_objective(3.7j * y, y) == pytest.approx(0.0, abs=1e-12)


def test_projection_objective_zero_eta_rejected():
    with pytest.raises(ValueError):
        projection_objective(np.ones(3), np.zeros(3))


def test_plug_in_gain_scaled_copy():
    eta = np.array([1.0 + 1j, -2.0, 0.5j])
    assert plug_in_gain((2.0 - 0.5j) * eta, eta) == pytest.approx(2.0 - 0.5j)


def test_plug_in_gain_beats_dense_scan():
    # no complex gain on a dense grid does better than the closed form
    rng = np.random.default_rng(3)
    eta = rng.normal(size=8) + 1j * rng.normal(size=8)
    y = rng.normal(size=8) + 1j * rng.normal(size=8)
    a_hat = plug_in_gain(y, eta)
    best = np.linalg.norm(y - a_hat * eta) ** 2
    offsets = np.linspace(-0.2, 0.2, 21)
    for dr in offsets:
        for di in offsets:
            trial = a_hat + dr + 1j * di
            assert np.linalg.norm(y - trial * eta) ** 2 >= best - 1e-12


def test_residual_energy_identity():
    # objective equals the squared residual after removing the best gain
    rng = np.random.default_rng(4)
    eta = rng.normal(size=10) + 1j * rng.normal(size=10)
    y = rng.normal(size=10) + 1j * rng.normal(size=10)
    a_hat = plug_in_gain(y, eta)
    assert projection_objective(y, eta) == pytest.approx(
        np.linalg.norm(y - a_hat * eta) ** 2
    )


# ---------------------------------------------------------------------------
# factorized model vs direct evaluation


def literal_chain(aoa, delay, cfg, blk, coupling_mat, pilots, rotations=None):
    """Gain-free mean written out: b_g = w_g^T C a(aoa), delay phasors over
    k = 1..K, and each optional time-domain rotation applied with FFTs."""
    n = np.arange(cfg.n_antennas)
    k = np.arange(1, cfg.n_subcarriers + 1)
    b = blk.combiners @ (coupling_mat @ np.exp(1j * np.pi * n * np.sin(aoa)))
    v = b[:, None] * np.exp(-2j * np.pi * k * cfg.subcarrier_spacing_hz * delay) * pilots
    if rotations is None:
        return v
    return np.fft.fft(rotations * np.fft.ifft(v, axis=1, norm="ortho"), axis=1, norm="ortho")


@pytest.mark.parametrize("seed", range(3))
def test_clean_model_eta_matches_observation_builder(seed):
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    rng = np.random.default_rng(seed)
    aoa, rng_m = rng.uniform(-1.2, 1.2), rng.uniform(1.0, 20.0)
    th = ChannelParams(aoa=aoa, delay=rng_m / SPEED_OF_LIGHT, gain_amp=2.0, gain_phase=0.4)
    model = ProjectionModel.clean(cfg, blk, coupling=(0.3 + 0.2j,))
    n = cfg.n_antennas
    coupling_mat = np.eye(n) + (0.3 + 0.2j) * (np.eye(n, k=1) + np.eye(n, k=-1))  # one tap
    direct = th.gain * literal_chain(aoa, th.delay, cfg, blk, coupling_mat, blk.symbols)
    assert np.allclose(model.mean(th), direct, rtol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_impaired_model_eta_matches_observation_builder(seed):
    cfg = desk_cfg(tx_power_dbm=40.0)
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(100 + seed))
    rng = np.random.default_rng(seed)
    aoa, rng_m = rng.uniform(-1.2, 1.2), rng.uniform(1.0, 20.0)
    th = ChannelParams(aoa=aoa, delay=rng_m / SPEED_OF_LIGHT, gain_amp=2.0, gain_phase=0.4)
    model = ProjectionModel.impaired(cfg, blk, imp, real)
    time = np.fft.ifft(blk.symbols, axis=1, norm="ortho")
    pilots = np.fft.fft(pa_apply(time, imp.pa_coeffs, imp.pa_clip), axis=1, norm="ortho")
    k, g = np.arange(cfg.n_subcarriers), np.arange(1, cfg.n_transmissions + 1)
    total = cfg.n_subcarriers + cfg.cp_length
    phases = 2 * np.pi * real.cfo * (g[:, None] * total + k[None, :]) / cfg.n_subcarriers
    rotations = np.exp(1j * (phases + real.pn_phases))
    coupling_mat = mc_matrix(imp.coupling, real.mc_residual, cfg.n_antennas)
    direct = th.gain * literal_chain(aoa, th.delay, cfg, blk, coupling_mat, pilots, rotations)
    assert np.allclose(model.mean(th), direct, rtol=1e-11)


@pytest.mark.parametrize("impaired", [False, True])
def test_grid_objective_matches_direct_projection(impaired):
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(8))
    if impaired:
        model = ProjectionModel.impaired(cfg, blk, imp, real)
        y = observe(
            mu_m1(true_state(cfg), cfg, blk, imp, real), 1e-6, np.random.default_rng(9)
        )
    else:
        model = ProjectionModel.clean(cfg, blk)
        y = observe(model.mean(true_state(cfg)), 1e-6, np.random.default_rng(9))
    aoas = np.array([-0.7, 0.1, 0.9])
    ranges = np.array([2.0, 7.5, 18.0])
    u = model.pulled_observation(y)
    grid = model.objective_grid(u, ScanGrid.build(cfg, aoas, ranges))
    for i, a in enumerate(aoas):
        for j, r in enumerate(ranges):
            direct = projection_objective(y, model.eta(a, r / SPEED_OF_LIGHT))
            assert grid[i, j] == pytest.approx(direct, rel=1e-9, abs=1e-18)


@pytest.mark.parametrize("impaired", [False, True])
def test_fit_objective_matches_grid_bitwise(impaired):
    """The pseudo-true descent's objective rounds exactly as a 1x1 grid
    contracted over transmissions first (angle_first_grid) at its (angle,
    range), at points from 1e-9 m to 100 m off the truth, evaluated all at
    once."""
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(8))
    if impaired:
        model = ProjectionModel.impaired(cfg, blk, imp, real)
    else:
        model = ProjectionModel.clean(cfg, blk, coupling=(0.3 + 0.2j,))
    y = observe(mu_m1(true_state(cfg), cfg, blk, imp, real), 1e-6, np.random.default_rng(9))
    u = model.pulled_observation(y)
    rng = np.random.default_rng(10)
    points = [
        np.array([3.0, 2.0]) + 10 ** rng.uniform(-9.0, 2.0) * rng.normal(size=2)
        for _ in range(500)
    ]
    px, py = np.array(points)[:, :, None].transpose(1, 0, 2)  # (500, T=1) each
    values = fit_data(model, u).objective(px, py)[:, 0]
    for p, value in zip(points, values):
        grid = angle_first_grid(
            model, u, ScanGrid.build(cfg, np.arctan2(p[1:], p[:1]), np.hypot(p[:1], p[1:]))
        )
        assert value == grid[0, 0]


@pytest.mark.parametrize("impaired", [False, True])
@pytest.mark.parametrize("sizes", [{}, {"n_transmissions": 10, "n_subcarriers": 100}])
def test_grid_scan_matches_angle_first_order(impaired, sizes):
    """The subcarrier-first scan finds the argmin of the former
    transmission-first order and agrees with its values to rounding, over
    random observations near and far from the model, at the estimators' own
    grid."""
    cfg = desk_cfg(**sizes)
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    grid = scan_grid(cfg, EstimatorConfig())
    rng = np.random.default_rng(11)
    for trial in range(8):
        real = sample_realization(imp, cfg, rng)
        truth = ProjectionModel.impaired(cfg, blk, imp, real)
        model = truth if impaired else ProjectionModel.clean(cfg, blk, coupling=imp.coupling)
        aoa, rng_m = rng.uniform(-1.2, 1.2), rng.uniform(1.0, 6.0)
        theta = true_state(cfg, rng_m * np.array([np.cos(aoa), np.sin(aoa)]))
        y = observe(truth.mean(theta), 10.0 ** rng.uniform(-9.0, -5.0), rng)
        u = model.pulled_observation(y)
        new, old = model.objective_grid(u, grid), angle_first_grid(model, u, grid)
        assert np.argmin(new) == np.argmin(old), trial
        npt.assert_allclose(new, old, rtol=1e-12, atol=0)


def test_fit_objective_without_row_gain_is_observation_energy():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    model = ProjectionModel(cfg, np.zeros_like(blk.combiners), np.eye(cfg.n_antennas), blk.symbols)
    u = observe(blk.symbols, 1.0, np.random.default_rng(3))
    energy = np.vdot(u, u).real
    assert fit_data(model, u).objective(np.array([3.0]), np.array([2.0]))[0] == energy
    assert model.objective_grid(u, ScanGrid.build(cfg, [0.5], [3.6]))[0, 0] == energy


@pytest.mark.parametrize(
    "sizes, flat_axis",
    [({"n_transmissions": 1}, 0), ({"n_antennas": 1}, 0), ({"n_subcarriers": 1}, 1)],
)
def test_objective_is_flat_in_an_unidentifiable_coordinate(sizes, flat_axis):
    """One transmission or one antenna leaves no angle information in the
    projection objective, one subcarrier no range information: the scan is
    constant along that axis up to rounding, and varies along the other."""
    cfg = desk_cfg(**sizes)
    model = ProjectionModel.clean(cfg, PilotBlock.from_config(cfg))
    y = observe(model.mean(true_state(cfg)), 1e-6, np.random.default_rng(4))
    grid = ScanGrid.build(cfg, np.linspace(-1.2, 1.2, 7), np.linspace(1.0, 6.0, 7))
    obj = model.objective_grid(y, grid) / np.vdot(y, y).real
    assert np.ptp(obj, axis=flat_axis).max() < 1e-12
    assert np.ptp(obj, axis=1 - flat_axis).max() > 1e-3


# ---------------------------------------------------------------------------
# grid search


def test_grid_search_recovers_grid_node():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    est = EstimatorConfig(n_grid_angles=41, n_grid_ranges=30)
    aoa = est.grid_angles()[25]
    rng_m = est.grid_ranges()[3]  # inside the delay-ambiguity window
    th = ChannelParams(
        aoa=aoa, delay=rng_m / SPEED_OF_LIGHT, gain_amp=1e-4, gain_phase=0.1
    )
    y = ProjectionModel.clean(cfg, blk).mean(th)
    p0, obj0 = grid_search(fit_data(ProjectionModel.clean(cfg, blk), y), 0, scan_grid(cfg, est))
    assert np.allclose(p0, rng_m * np.array([np.cos(aoa), np.sin(aoa)]), atol=1e-9)
    assert obj0 == pytest.approx(0.0, abs=1e-12 * np.vdot(y, y).real)


def test_grid_search_matches_brute_force_argmin():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    est = EstimatorConfig(n_grid_angles=31, n_grid_ranges=20)
    th = true_state(cfg, pos=(4.3, -1.7))
    y = observe(ProjectionModel.clean(cfg, blk).mean(th), 5e-6, np.random.default_rng(11))
    model = ProjectionModel.clean(cfg, blk)
    grid = scan_grid(cfg, est)
    p0, _ = grid_search(fit_data(model, y), 0, grid)
    best, best_p = np.inf, None
    for a in est.grid_angles():
        for r in grid.ranges_m:
            val = projection_objective(y, model.eta(a, r / SPEED_OF_LIGHT))
            if val < best - 1e-15:
                best, best_p = val, r * np.array([np.cos(a), np.sin(a)])
    assert np.allclose(p0, best_p)


def test_grid_search_tie_breaks_to_lowest_angle_index():
    # single antenna: the row gain is angle-independent, so every angle ties
    # exactly and the contract picks the lowest angle index
    cfg = desk_cfg(n_antennas=1)
    blk = PilotBlock.from_config(cfg)
    th = ChannelParams(aoa=0.0, delay=2e-8, gain_amp=1e-4, gain_phase=0.0)
    y = ProjectionModel.clean(cfg, blk).mean(th)
    est = EstimatorConfig(n_grid_angles=21, n_grid_ranges=15)
    p0, _ = grid_search(fit_data(ProjectionModel.clean(cfg, blk), y), 0, scan_grid(cfg, est))
    aoa0 = float(np.arctan2(p0[1], p0[0]))
    assert aoa0 == pytest.approx(est.grid_angles()[0])


# ---------------------------------------------------------------------------
# refinement


def test_refine_at_optimum_stops_immediately():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    th = true_state(cfg)
    y = ProjectionModel.clean(cfg, blk).mean(th)
    model = ProjectionModel.clean(cfg, blk)
    p_true = np.array([3.0, 2.0])
    p_hat, obj, stop, iters = refine_one(y, model, p_true, EstimatorConfig())
    assert stop == "gradient"
    assert iters == 1
    assert np.allclose(p_hat, p_true)


def test_refine_improves_on_grid_point():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    th = true_state(cfg, pos=(3.1, 1.9))
    y = ProjectionModel.clean(cfg, blk).mean(th)
    model = ProjectionModel.clean(cfg, blk)
    est = EstimatorConfig()
    p0, obj0 = grid_search(fit_data(model, y), 0, scan_grid(cfg, est))
    p_hat, obj, stop, _ = refine_one(y, model, p0, est)
    assert stop in CONVERGED_STOPS
    assert obj <= obj0 + 1e-15
    assert np.linalg.norm(p_hat - [3.1, 1.9]) < np.linalg.norm(p0 - [3.1, 1.9]) + 1e-12


def test_refine_noise_free_reaches_truth():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    p_true = np.array([2.7, 1.4])
    th = true_state(cfg, pos=p_true)
    y = ProjectionModel.clean(cfg, blk).mean(th)
    model = ProjectionModel.clean(cfg, blk)
    est = EstimatorConfig()
    p0, _ = grid_search(fit_data(model, y), 0, scan_grid(cfg, est))
    p_hat, obj, stop, _ = refine_one(y, model, p0, est)
    assert stop in CONVERGED_STOPS
    assert np.linalg.norm(p_hat - p_true) < 1e-4


def test_refine_iteration_cap_is_not_converged():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    th = true_state(cfg)
    model = ProjectionModel.clean(cfg, blk)
    y = model.mean(th)
    far = np.array([3.3, 1.6])  # 0.5 m off, inside the same basin
    est = EstimatorConfig(max_iterations=1)
    p_hat, obj, stop, iters = refine_one(y, model, far, est)
    assert (stop, iters) == ("max_iter", 1)
    start = fit_data(model, model.pulled_observation(y)).objective(far[:1], far[1:])[0]
    assert obj < start
    # a coarse grid starts the estimator far off too
    coarse = EstimatorConfig(n_grid_angles=21, n_grid_ranges=15, max_iterations=1)
    out = mmle_m2(y, model, coarse)
    assert out.stop == "max_iter" and not out.converged


def fd_objective_derivatives(model, u, aoa, rng_m, h=1e-5):
    """Central differences of FitData.objective in (aoa, range): gradient
    and Hessian (aa, ar, rr)."""
    data = fit_data(model, u)

    def obj(a, r):
        return data.objective(np.array([r * np.cos(a)]), np.array([r * np.sin(a)]))[0]

    f0 = obj(aoa, rng_m)
    fa = (obj(aoa + h, rng_m) - obj(aoa - h, rng_m)) / (2 * h)
    fr = (obj(aoa, rng_m + h) - obj(aoa, rng_m - h)) / (2 * h)
    faa = (obj(aoa + h, rng_m) - 2 * f0 + obj(aoa - h, rng_m)) / h**2
    frr = (obj(aoa, rng_m + h) - 2 * f0 + obj(aoa, rng_m - h)) / h**2
    far = (
        obj(aoa + h, rng_m + h)
        - obj(aoa + h, rng_m - h)
        - obj(aoa - h, rng_m + h)
        + obj(aoa - h, rng_m - h)
    ) / (4 * h * h)
    return f0, np.array([fa, fr]), np.array([faa, far, frr])


@pytest.mark.parametrize("impaired", [False, True])
def test_captured_energy_derivatives_match_objective_differences(impaired):
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(8))
    th = true_state(cfg)
    if impaired:
        model = ProjectionModel.impaired(cfg, blk, imp, real)
    else:
        model = ProjectionModel.clean(cfg, blk, coupling=(0.3 + 0.2j,))
    mu = model.mean(th)
    sigma = float(np.sqrt(np.mean(np.abs(mu) ** 2) * 1e-2))
    y = observe(mu, sigma, np.random.default_rng(9))
    u = model.pulled_observation(y)
    # off the grid and off the optimum, so gradient and Hessian are generic
    aoa, rng_m = float(th.aoa) + 0.0123, float(th.delay * SPEED_OF_LIGHT) + 0.0217
    energy, grad, hess = captured_energy_one(model, u, aoa, rng_m)
    f0, fd_grad, fd_hess = fd_objective_derivatives(model, u, aoa, rng_m)
    yy = np.vdot(u, u).real
    assert yy - energy == pytest.approx(f0, rel=1e-12)
    # the objective is ||u||^2 minus the captured energy
    assert np.max(np.abs(-np.array(grad) - fd_grad)) <= 1e-7 * np.max(np.abs(fd_grad))
    assert np.max(np.abs(-np.array(hess) - fd_hess)) <= 1e-5 * np.max(np.abs(fd_hess))


def test_captured_energy_is_nan_without_row_gain():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    model = ProjectionModel(cfg, np.zeros_like(blk.combiners), np.eye(cfg.n_antennas), blk.symbols)
    energy, _, _ = captured_energy_one(model, np.ones_like(blk.symbols), 0.2, 3.0)
    assert np.isnan(energy)


# ---------------------------------------------------------------------------
# end-to-end estimators


def test_mmle_recovers_clean_truth():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    th = true_state(cfg)
    y = ProjectionModel.clean(cfg, blk).mean(th)
    out = mmle_m2(y, ProjectionModel.clean(cfg, blk))
    assert isinstance(out, Estimate)
    assert np.linalg.norm(out.position - [3.0, 2.0]) < 1e-4
    assert out.params.gain_amp == pytest.approx(th.gain_amp, rel=1e-3)
    assert out.params.gain_phase == pytest.approx(0.3, abs=1e-3)


def test_mle_m1_recovers_impaired_truth():
    cfg = desk_cfg(tx_power_dbm=30.0)
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(21))
    th = true_state(cfg)
    y = mu_m1(th, cfg, blk, imp, real)
    out = mle_m1(y, ProjectionModel.impaired(cfg, blk, imp, real))
    # the wide-beam toy geometry leaves a slow diagonal valley (Cartesian
    # curvature 0.57 of the normalized objective), where the gradient stop
    # alone bounds the error by 1e-9 / 0.57 = 1.8e-9 m; the Newton fit
    # lands within 2e-15 m
    assert out.converged
    assert np.linalg.norm(out.position - [3.0, 2.0]) < 1e-8


def test_mmle_under_noise_stays_near_truth():
    cfg = desk_cfg(tx_power_dbm=30.0)
    blk = PilotBlock.from_config(cfg)
    th = true_state(cfg)
    mu = ProjectionModel.clean(cfg, blk).mean(th)
    # strong signal: noise 40 dB below the per-sample mean power
    sigma = float(np.sqrt(np.mean(np.abs(mu) ** 2) * 1e-4))
    y = observe(mu, sigma, np.random.default_rng(31))
    out = mmle_m2(y, ProjectionModel.clean(cfg, blk))
    assert np.linalg.norm(out.position - [3.0, 2.0]) < 0.1


def test_estimators_reject_non_finite_observations():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    y = np.full((cfg.n_transmissions, cfg.n_subcarriers), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        mmle_m2(y, ProjectionModel.clean(cfg, blk))


def test_estimate_records_grid_start():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    th = true_state(cfg)
    y = ProjectionModel.clean(cfg, blk).mean(th)
    out = mmle_m2(y, ProjectionModel.clean(cfg, blk))
    assert out.grid_point.shape == (2,)
    assert out.objective <= projection_objective(
        y, ProjectionModel.clean(cfg, blk).eta(
            float(np.arctan2(out.grid_point[1], out.grid_point[0])),
            float(np.hypot(*out.grid_point)) / SPEED_OF_LIGHT,
        )
    ) + 1e-15
