"""Unit tests for the projection objective, grid search and refinement."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from hwiloc.estimation import (
    CONVERGED_STOPS,
    SCAN_FAILED,
    Estimate,
    EstimatorConfig,
    NumericError,
    ProjectionModel,
    TrialBatch,
    fitted_params,
    grid_search,
    mle_m1,
    mmle_m2,
    refine,
    scan_grid,
)
from hwiloc.impairments import ImpairmentConfig, mc_matrix, pa_apply, sample_realization
from hwiloc.model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
    positions_to_polar,
)
from hwiloc.observation import FitData, ScanGrid, mu_m1, observe
from dense_oracle import plug_in_gain, stack_links


def projection_objective(y: np.ndarray, eta: np.ndarray) -> float:
    """The oracle of the projection objective: ||y||^2 minus the energy of
    y captured by the eta direction."""
    y = np.asarray(y).ravel()
    eta = np.asarray(eta).ravel()
    ee = np.vdot(eta, eta).real
    if ee <= 0.0:
        raise ValueError("eta must be non-zero")
    return float(np.vdot(y, y).real - np.abs(np.vdot(eta, y)) ** 2 / ee)


def desk_cfg(**kw):
    base = dict(
        n_antennas=6, n_transmissions=3, n_subcarriers=16, cp_length=2, tx_power_dbm=20.0
    )
    base.update(kw)
    return SystemConfig(**base)


def true_state(cfg, pos=(3.0, 2.0), phase=0.3):
    aoa, rng = positions_to_polar(np.asarray(pos, dtype=float))
    delay = float(rng) / SPEED_OF_LIGHT
    amp = cfg.wavelength_m / (4 * np.pi * SPEED_OF_LIGHT * delay)
    return ChannelParams(aoa=float(aoa), delay=delay, gain_amp=amp, gain_phase=phase)


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


def _fitted_gain(y, model, position):
    """The plug-in gain alpha = gain_amp * exp(-1j * gain_phase) that
    fitted_params reports at a position."""
    _, _, amp, phase = fitted_params(y, model, position)
    return amp * np.exp(-1j * phase)


def test_plug_in_gain_scaled_copy():
    """fitted_params reads a scaled copy of the model's mean as its gain,
    and the (aoa, delay) of its position."""
    model = ProjectionModel.clean(desk_cfg(), PilotBlock.from_config(desk_cfg()))
    position = np.array([3.0, 2.0])
    aoa, rng = positions_to_polar(position)
    eta = model.eta(aoa, rng / SPEED_OF_LIGHT)
    out = fitted_params((2.0 - 0.5j) * eta, model, position)
    assert out.shape == (4,)
    assert out[:2].tolist() == [aoa, rng / SPEED_OF_LIGHT]
    assert _fitted_gain((2.0 - 0.5j) * eta, model, position) == pytest.approx(2.0 - 0.5j)


def test_plug_in_gain_beats_dense_scan():
    # no complex gain on a dense grid does better than the closed form
    cfg = desk_cfg()
    model = ProjectionModel.clean(cfg, PilotBlock.from_config(cfg))
    position = np.array([2.0, -1.0])
    aoa, rng = positions_to_polar(position)
    eta = model.eta(aoa, rng / SPEED_OF_LIGHT)
    noise = np.random.default_rng(3)
    y = noise.normal(size=eta.shape) + 1j * noise.normal(size=eta.shape)
    a_hat = _fitted_gain(y, model, position)
    assert a_hat == pytest.approx(plug_in_gain(y, eta), rel=1e-12)
    best = np.linalg.norm(y - a_hat * eta) ** 2
    scale = abs(a_hat)
    offsets = np.linspace(-0.2, 0.2, 21) * scale
    for dr in offsets:
        for di in offsets:
            trial = a_hat + dr + 1j * di
            assert np.linalg.norm(y - trial * eta) ** 2 >= best * (1 - 1e-12)


def test_fitted_params_of_a_stack_match_one_link_calls_bitwise():
    """fitted_params of a (2, 3) impaired stack's six positions and
    observations equals, row for row and bit for bit, its call on each link
    alone; a link whose mean vanishes is rejected."""
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    rng = np.random.default_rng(17)
    links = [
        ProjectionModel.impaired(cfg, blk, imp, sample_realization(imp, cfg, rng))
        for _ in range(6)
    ]
    stack = stack_links(links, (2, 3))
    positions = rng.uniform([1.0, -3.0], [6.0, 3.0], (6, 2))
    y = rng.normal(size=(6, 3, 16)) + 1j * rng.normal(size=(6, 3, 16))
    stacked = fitted_params(y, stack, positions)
    assert stacked.shape == (6, 4)
    for r, link in enumerate(links):
        assert np.array_equal(stacked[r], fitted_params(y[r], link, positions[r]))
    silent = replace(stack, eff_pilots=np.zeros_like(stack.eff_pilots))
    with pytest.raises(ValueError, match="eta must be non-zero"):
        fitted_params(y, silent, positions)


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


def test_fit_objective_stacked_positions_match_one_call_per_slice_bitwise():
    """FitData.objective on (B, T) positions gives bit for bit the B calls
    on (T,) positions, and each fit's value is the one it has alone or in
    any subset made by take: the pseudo-true line search evaluates a block
    of halvings as one (block, T) call. The fits are a clean model with and
    without coupling, an impaired model, and a model without row gain,
    whose D is 0 and whose objective is ||u||^2."""
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    real = sample_realization(imp, cfg, np.random.default_rng(12))
    models = [
        ProjectionModel.clean(cfg, blk, coupling=(0.3 + 0.2j,)),
        ProjectionModel.impaired(cfg, blk, imp, real),
        ProjectionModel(cfg, np.zeros_like(blk.combiners), np.eye(cfg.n_antennas), blk.symbols),
        ProjectionModel.clean(cfg, blk),
    ]
    y = observe(mu_m1(true_state(cfg), cfg, blk, imp, real), 1e-6, np.random.default_rng(13))
    data = FitData.empty(cfg, len(models))
    for t, model in enumerate(models):
        data.put(t, model.row_matrix, model.eff_pilots, model.pulled_observation(y)[None])
    rng = np.random.default_rng(14)
    # (B, T, 2): strided (B, T) coordinates, as the line search passes them
    offsets = 10 ** rng.uniform(-9.0, 0.0, (5, 4, 1)) * rng.normal(size=(5, 4, 2))
    points = np.array([3.0, 2.0]) + offsets
    px, py = points[..., 0], points[..., 1]
    stacked = data.objective(px, py)
    assert stacked.shape == (5, 4)
    assert np.array_equal(stacked, [data.objective(px[b], py[b]) for b in range(5)])
    assert np.all(stacked[:, 2] == data.yy[2])
    for index in (np.array([3, 1]), np.array([True, False, True, True]), np.array([0])):
        subset = data.take(index).objective(px[:, index], py[:, index])
        assert np.array_equal(subset, stacked[:, index])
    for b in range(5):
        for t in range(4):
            alone = data.take(np.array([t])).objective(px[b, t : t + 1], py[b, t : t + 1])
            assert alone[0] == stacked[b, t]


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
    model = ProjectionModel.clean(cfg, blk)
    y = model.mean(th)
    grid = scan_grid(cfg, est)
    p0 = grid_search(fit_data(model, y), slice(0, 1), grid)[0]
    assert np.allclose(p0, rng_m * np.array([np.cos(aoa), np.sin(aoa)]), atol=1e-9)
    assert model.objective_grid(y, grid).min() == pytest.approx(0.0, abs=1e-12 * np.vdot(y, y).real)


def grid_argmin(data, index, grid):
    """The start of slot index from its own ScanGrid.objective: the
    row-major argmin, as a position."""
    obj = grid.objective(data.rows[index], data.energies[index], data.w[index], data.yy[index])
    ia, ir = np.unravel_index(np.argmin(obj), obj.shape)
    return grid.ranges_m[ir] * np.array([np.cos(grid.aoas[ia]), np.sin(grid.aoas[ia])])


def chunk_data(cfg, rows, pilots, u):
    """FitData of the stacked observations u, (n, G, K), with rows (G, N)
    shared or (n, G, N) and pilots (n, G, K)."""
    data = FitData.empty(cfg, len(u))
    data.put(0, rows, pilots, u)
    return data


def scaled_pilots(blk, n, seed):
    """n copies of blk's pilots, each transmission scaled by its own gain,
    so each slot has its own pilot energies."""
    gains = np.random.default_rng(seed).uniform(0.3, 2.0, (n, blk.symbols.shape[0], 1))
    gains[0] = 1.0
    return gains * blk.symbols


def test_grid_search_matches_brute_force_argmin():
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    est = EstimatorConfig(n_grid_angles=31, n_grid_ranges=20)
    th = true_state(cfg, pos=(4.3, -1.7))
    y = observe(ProjectionModel.clean(cfg, blk).mean(th), 5e-6, np.random.default_rng(11))
    model = ProjectionModel.clean(cfg, blk)
    grid = scan_grid(cfg, est)
    p0 = grid_search(fit_data(model, y), slice(0, 1), grid)[0]
    best, best_p = np.inf, None
    for a in est.grid_angles():
        for r in grid.ranges_m:
            val = projection_objective(y, model.eta(a, r / SPEED_OF_LIGHT))
            if val < best - 1e-15:
                best, best_p = val, r * np.array([np.cos(a), np.sin(a)])
    assert np.allclose(p0, best_p)
    # a chunk that shares the rows, with pilots (and so energies) of its
    # own per slot: each start is the argmin of its own objective, and the
    # first slot, fitted with the model's pilots, starts where it does alone
    n = 6
    pilots = scaled_pilots(blk, n, 12)
    noise = observe(np.zeros((n, *y.shape)), 5e-6, np.random.default_rng(13))
    u = np.array([model.mean(th) * x / blk.symbols for x in pilots]) + noise
    u[0] = y
    data = chunk_data(cfg, model.row_matrix, pilots, u)
    starts = grid_search(data, slice(0, n), grid)
    assert starts.shape == (n, 2)
    assert len({float(e) for e in data.energies[:, 0]}) == n
    for i in range(n):
        npt.assert_array_equal(starts[i], grid_argmin(data, i, grid))
    npt.assert_array_equal(starts[0], p0)
    # the same slots one at a time, and inside a larger batch
    for i in range(n):
        npt.assert_array_equal(grid_search(data, slice(i, i + 1), grid)[0], starts[i])
    npt.assert_array_equal(grid_search(data, slice(2, 5), grid), starts[2:5])


def test_grid_search_tie_breaks_to_lowest_angle_index():
    # single antenna: the row gain is angle-independent, so every angle ties
    # exactly and the contract picks the lowest angle index
    cfg = desk_cfg(n_antennas=1)
    blk = PilotBlock.from_config(cfg)
    th = ChannelParams(aoa=0.0, delay=2e-8, gain_amp=1e-4, gain_phase=0.0)
    y = ProjectionModel.clean(cfg, blk).mean(th)
    est = EstimatorConfig(n_grid_angles=21, n_grid_ranges=15)
    grid = scan_grid(cfg, est)
    model = ProjectionModel.clean(cfg, blk)
    p0 = grid_search(fit_data(model, y), slice(0, 1), grid)[0]
    aoa0 = float(np.arctan2(p0[1], p0[0]))
    assert aoa0 == pytest.approx(est.grid_angles()[0])
    # a chunk with its own pilots per slot ties on every angle too; a slot
    # that observes nothing ties everywhere and starts at the lowest angle
    # index, then the lowest range index
    n = 4
    pilots = scaled_pilots(blk, n, 14)
    u = np.array([y * x / blk.symbols for x in pilots])
    u[2] = 0.0
    data = chunk_data(cfg, model.row_matrix, pilots, u)
    starts = grid_search(data, slice(0, n), grid)
    for i in range(n):
        npt.assert_array_equal(starts[i], grid_argmin(data, i, grid))
        assert float(np.arctan2(starts[i, 1], starts[i, 0])) == pytest.approx(grid.aoas[0])
    npt.assert_array_equal(
        starts[2], grid.ranges_m[0] * np.array([np.cos(grid.aoas[0]), np.sin(grid.aoas[0])])
    )


@pytest.mark.parametrize("shared", [True, False])
def test_grid_search_fails_a_non_finite_slot_alone(shared):
    """A slot whose objective is non-finite over the whole grid fails its
    scan with the message it always had; the other slots of its chunk get
    the starts they get alone, and fit."""
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    model = ProjectionModel.clean(cfg, blk)
    est = EstimatorConfig(n_grid_angles=31, n_grid_ranges=20)
    n, bad = 4, 1
    pilots = scaled_pilots(blk, n, 15)
    pilots[bad] = np.nan
    th = true_state(cfg)
    u = observe(np.array([model.mean(th)] * n), 1e-6, np.random.default_rng(16))
    # unshared rows differ per slot by a complex scale, which the captured
    # energy does not see
    scales = (1.0 + np.arange(n)) * np.exp(1j * np.arange(n))
    rows = model.row_matrix if shared else scales[:, None, None] * model.row_matrix
    batch = TrialBatch(cfg, n, est)
    assert list(batch.add(rows, pilots, u)) == list(range(n))
    fit = batch.fit()
    assert fit.errors[bad] == "projection objective is non-finite over the whole grid"
    assert fit.stops[bad] == "failed" and np.isnan(fit.starts[bad]).all()
    assert fit.n_iterations[bad] == 0
    data = chunk_data(cfg, rows, pilots, u)
    for i in set(range(n)) - {bad}:
        assert fit.errors[i] is None and fit.stops[i] in CONVERGED_STOPS
        npt.assert_array_equal(fit.starts[i], grid_argmin(data, i, scan_grid(cfg, est)))


# ---------------------------------------------------------------------------
# refinement


def test_refine_fails_a_slot_without_a_start_alone():
    """refine fails a slot whose start is not finite, as a failed scan
    leaves it, with SCAN_FAILED after 0 iterations, before it checks the
    slot's energy; every other slot is bit for bit its fit in a batch
    without the failed slots."""
    cfg = desk_cfg()
    blk = PilotBlock.from_config(cfg)
    model = ProjectionModel.clean(cfg, blk)
    est = EstimatorConfig(n_grid_angles=31, n_grid_ranges=20)
    n, bad = 5, [1, 3]
    u = observe(np.array([model.mean(true_state(cfg))] * n), 1e-6, np.random.default_rng(17))
    u[3] = 0.0  # no energy either
    data = chunk_data(cfg, model.row_matrix, model.eff_pilots, u)
    starts = grid_search(data, slice(0, n), scan_grid(cfg, est))
    starts[bad] = np.nan
    fit = refine(data, starts, est)
    for i in bad:
        assert (fit.stops[i], fit.errors[i], fit.n_iterations[i]) == ("failed", SCAN_FAILED, 0)
        assert np.isnan(fit.positions[i]).all() and np.isnan(fit.objectives[i])
    rest = np.array([0, 2, 4])
    alone = refine(data.take(rest), starts[rest], est)
    for field in ("positions", "objectives", "stops", "n_iterations", "starts"):
        npt.assert_array_equal(getattr(fit, field)[rest], getattr(alone, field))
    assert [fit.errors[i] for i in rest] == alone.errors == [None] * 3
    assert all(stop in CONVERGED_STOPS for stop in alone.stops)


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
    grid = scan_grid(cfg, est)
    p0 = grid_search(fit_data(model, y), slice(0, 1), grid)[0]
    obj0 = model.objective_grid(y, grid).min()
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
    p0 = grid_search(fit_data(model, y), slice(0, 1), scan_grid(cfg, est))[0]
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


def test_refine_slot_does_not_depend_on_its_batch():
    """One FitData holds both estimators' slots, with their own rows and
    pilots, in mixed order; each slot gets bit for bit the fit it gets in a
    batch of its own estimator only. One slot observes nothing, and one runs
    out of iterations."""
    cfg = desk_cfg(tx_power_dbm=10.0)
    blk = PilotBlock.from_config(cfg)
    imp = ImpairmentConfig()
    th = true_state(cfg)
    clean = ProjectionModel.clean(cfg, blk, imp.coupling)
    n = 5
    slots = {"mmle": [], "mle_m1": []}  # (rows, pilots, u) per trial
    for t in range(n):
        impaired = ProjectionModel.impaired(
            cfg, blk, imp, sample_realization(imp, cfg, np.random.default_rng(40 + t))
        )
        mu = impaired.mean(th)
        y = observe(mu, float(np.sqrt(np.mean(np.abs(mu) ** 2) * 1e-2)), np.random.default_rng(t))
        slots["mmle"].append((clean.row_matrix, clean.eff_pilots, 0.0 * y if t == 1 else y))
        slots["mle_m1"].append(
            (impaired.row_matrix, impaired.eff_pilots, impaired.pulled_observation(y))
        )
    est = EstimatorConfig(n_grid_angles=41, n_grid_ranges=30, max_iterations=6)
    grid = scan_grid(cfg, est)

    def batch(entries):
        data = FitData.empty(cfg, len(entries))
        for i, (rows, pilots, u) in enumerate(entries):
            data.put(i, rows, pilots, np.asarray(u)[None])
        return data, grid_search(data, slice(0, len(entries)), grid)

    alone = {m: refine(*batch(entries), est) for m, entries in slots.items()}
    order = [("mle_m1", 2), ("mmle", 0), ("mmle", 3), ("mle_m1", 0), ("mle_m1", 4),
             ("mmle", 1), ("mle_m1", 1), ("mmle", 4), ("mle_m1", 3), ("mmle", 2)]
    together = refine(*batch([slots[m][t] for m, t in order]), est)
    for i, (m, t) in enumerate(order):
        one = alone[m]
        # the mixed chunk's scan gives each slot its own start too
        npt.assert_array_equal(together.starts[i], one.starts[t])
        npt.assert_array_equal(together.positions[i], one.positions[t])
        npt.assert_array_equal(together.objectives[i], one.objectives[t])
        assert together.stops[i] == one.stops[t]
        assert together.n_iterations[i] == one.n_iterations[t]
        assert together.errors[i] == one.errors[t]
    stops = together.stops.tolist()
    assert alone["mmle"].stops[1] == "failed" and stops.count("failed") == 1
    assert alone["mmle"].stops[0] == "max_iter"
    assert sum(stop in CONVERGED_STOPS for stop in stops) >= 6


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
