"""Acceptance suite: one test and one printed PASS/FAIL line per shipped
guarantee, each at its stated tolerance and runtime limit.

Run with `pytest -s tests/test_acceptance.py` to see the lines with their
measured values; the pytest verdicts mirror them. Monte-Carlo checks use
frozen seeds, so every number is reproducible run to run.
"""

import functools
import time

import numpy as np

from dense_oracle import factored_derivatives
from hwiloc.bounds import (
    crb_m1_numeric,
    crb_m2_report,
    lb_report,
    mismatch_matrices,
    pseudo_true,
)
from hwiloc.cli import main
from hwiloc.config_io import resolve_spec
from hwiloc.estimation import grid_search, mmle_m2, refine, scan_grid
from hwiloc.harness import run_bounds_sweep, run_estimator_trials
from hwiloc.impairments import (
    MEASURED_COUPLING,
    ImpairmentConfig,
    ImpairmentRealization,
    sample_realization,
)
from hwiloc.model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
    geometric_params,
    noise_std,
    positions_to_polar,
)
from hwiloc.observation import FitData, ProjectionModel, mu_m1, observe

DESK = SystemConfig(n_antennas=10, n_transmissions=5, n_subcarriers=32, cp_length=7)
DESK_KEYS = {
    "n_antennas": "10",
    "n_transmissions": "5",
    "n_subcarriers": "32",
    "master_seed": "1234",
}
UE = (3.0, 2.0)
GAIN_PHASE = 0.3

_elapsed: dict[str, float] = {}


def _check(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _mean_of(rows, sweep_value, metric):
    return next(
        r.value
        for r in rows
        if r.sweep_value == sweep_value and r.metric == metric and r.statistic == "mean"
    )


def _random_params(seed: int) -> ChannelParams:
    rng = np.random.default_rng(seed)
    return ChannelParams(
        aoa=float(rng.uniform(-1.2, 1.2)),
        delay=float(rng.uniform(1.0, 20.0)) / SPEED_OF_LIGHT,
        gain_amp=float(rng.uniform(1e-5, 1e-3)),
        gain_phase=float(rng.uniform(-np.pi, np.pi)),
    )


def _component_step(theta_vec: np.ndarray, i: int, scale: float = 1e-6) -> float:
    if i in (1, 2):
        return scale * abs(theta_vec[i])
    return scale * max(abs(theta_vec[i]), 1.0)


@functools.lru_cache(maxsize=None)
def _power_sweep_rows():
    spec = resolve_spec(
        {
            **DESK_KEYS,
            "sweep_values": "-10,0,10,20,30,40",
            "n_realizations": "25",
            "outputs": "crb_m2,lb,peb",
        }
    )
    return tuple(run_bounds_sweep(spec))


# 1 -------------------------------------------------------------------------


def test_1_no_impairment_degeneration():
    """With every impairment off the pseudo-true parameter is the true one
    and the misspecified bound collapses onto the matched bound."""
    t0 = time.perf_counter()
    imp = ImpairmentConfig.neutral()
    real = ImpairmentRealization.neutral(DESK)
    block = PilotBlock.from_config(DESK)
    theta_bar = geometric_params(UE, GAIN_PHASE, DESK)

    clean = ProjectionModel.clean(DESK, block)
    impaired = ProjectionModel.impaired(DESK, block, imp, real)
    theta0 = pseudo_true(theta_bar, clean, impaired.mean(theta_bar))
    tb = theta_bar.as_array()
    scales = np.array([max(abs(tb[0]), 1.0), abs(tb[1]), abs(tb[2]), 1.0])
    drift = float(np.max(np.abs(theta0.as_array() - tb) / scales))

    rep = lb_report(theta_bar, clean, impaired, noise_std(DESK))
    crb = np.linalg.inv(rep.fim)
    d = np.sqrt(np.diag(crb))
    # element-wise relative, with the natural row/column scale standing in
    # as denominator for structurally null cross terms
    denom = np.where(np.abs(crb) > 1e-10 * np.outer(d, d), np.abs(crb), np.outer(d, d))
    gap = float(np.max(np.abs(rep.lb_matrix - crb) / denom))
    scalar_gap = max(
        abs(rep.lb_aeb_rad / rep.aeb_rad - 1.0),
        abs(rep.lb_deb_s / rep.deb_s - 1.0),
        abs(rep.lb_peb_m / rep.peb_m - 1.0),
    )
    dt = time.perf_counter() - t0
    ok = drift <= 1e-8 and gap <= 1e-8 and scalar_gap <= 1e-8 and dt < 1.0
    _check(
        "no-impairment degeneration",
        ok,
        f"pseudo-true drift {drift:.2e}, bound gap {gap:.2e}, "
        f"scalar gap {scalar_gap:.2e} (tol 1e-8), {dt:.2f}s (limit 1 s)",
    )


# 2 -------------------------------------------------------------------------


def test_2_derivatives_match_finite_differences():
    t0 = time.perf_counter()
    block = PilotBlock.from_config(DESK)
    worst_first = 0.0
    worst_second = 0.0
    for seed in range(10):
        coupling = MEASURED_COUPLING if seed % 2 else ()
        theta = _random_params(seed)
        t = theta.as_array()
        model = ProjectionModel.clean(DESK, block, coupling)
        first, second = factored_derivatives(theta, model)
        scale = max(
            np.linalg.norm(second[i, j]) for i in range(4) for j in range(4)
        )
        for i in range(4):
            h = _component_step(t, i)
            tp, tm = t.copy(), t.copy()
            tp[i] += h
            tm[i] -= h
            fd_mu = (
                model.mean(ChannelParams.from_array(tp)) - model.mean(ChannelParams.from_array(tm))
            ) / (2.0 * h)
            worst_first = max(
                worst_first,
                np.linalg.norm(fd_mu - first[i]) / np.linalg.norm(first[i]),
            )
            fd_first = (
                factored_derivatives(ChannelParams.from_array(tp), model)[0]
                - factored_derivatives(ChannelParams.from_array(tm), model)[0]
            ) / (2.0 * h)
            for j in range(4):
                err = np.linalg.norm(fd_first[j] - second[i, j])
                ref = np.linalg.norm(second[i, j])
                worst_second = max(worst_second, err / ref if ref > 0 else err / scale)
    dt = time.perf_counter() - t0
    ok = worst_first <= 1e-6 and worst_second <= 1e-6 and dt < 10.0
    _check(
        "derivative oracle",
        ok,
        f"worst first {worst_first:.2e}, worst second {worst_second:.2e} "
        f"over 10 random draws (tol 1e-6), {dt:.1f}s (limit 10 s)",
    )


# 3 -------------------------------------------------------------------------


def test_3_sandwich_matrices_match_monte_carlo():
    """The curvature and score-covariance matrices equal brute-force
    Monte-Carlo estimates of their defining expectations: the score is
    averaged over noise draws, the curvature re-derived by differencing
    the draw-averaged objective."""
    t0 = time.perf_counter()
    cfg = SystemConfig(n_antennas=4, n_transmissions=2, n_subcarriers=8, cp_length=3)
    imp = ImpairmentConfig()
    block = PilotBlock.from_config(cfg)
    theta_bar = geometric_params(UE, GAIN_PHASE, cfg)
    real = sample_realization(imp, cfg, np.random.default_rng(np.random.SeedSequence((999, 0))))
    sigma = noise_std(cfg)

    clean = ProjectionModel.clean(cfg, block, imp.coupling)
    ybar = mu_m1(theta_bar, cfg, block, imp, real)
    theta0 = pseudo_true(theta_bar, clean, ybar)
    (a_ref,), (b_ref,) = mismatch_matrices(theta0.as_array()[None], clean, ybar, [sigma])
    ybar = ybar.ravel()
    eps = ybar - clean.mean(theta0).ravel()
    first, _ = factored_derivatives(theta0, clean)

    m_draws = 100_000
    rng = np.random.default_rng(np.random.SeedSequence((999, 1)))
    gk = cfg.n_transmissions * cfg.n_subcarriers
    noise = (
        rng.standard_normal((gk, m_draws)) + 1j * rng.standard_normal((gk, m_draws))
    ) * (sigma / np.sqrt(2.0))

    flat1 = first.reshape(4, -1)
    score = (2.0 / sigma**2) * (flat1.conj() @ (eps[:, None] + noise)).real
    b_hat = score @ score.T / m_draws

    noise_mean = noise.mean(axis=1)

    def mean_objective(tv: np.ndarray) -> float:
        th = ChannelParams.from_array(tv)
        eps_p = ybar - clean.mean(th).ravel()
        return float((eps_p.conj() @ eps_p).real) + 2.0 * float(
            (eps_p.conj() @ noise_mean).real
        )

    th0 = theta0.as_array()
    steps = np.array([_component_step(th0, i, scale=1e-3) for i in range(4)])
    a_hat = np.empty((4, 4))
    f0 = mean_objective(th0)
    for i in range(4):
        ei = np.zeros(4)
        ei[i] = steps[i]
        a_hat[i, i] = (
            mean_objective(th0 + ei) + mean_objective(th0 - ei) - 2.0 * f0
        ) / steps[i] ** 2
    for i in range(4):
        for j in range(i + 1, 4):
            ei = np.zeros(4)
            ej = np.zeros(4)
            ei[i] = steps[i]
            ej[j] = steps[j]
            val = (
                mean_objective(th0 + ei + ej)
                - mean_objective(th0 + ei - ej)
                - mean_objective(th0 - ei + ej)
                + mean_objective(th0 - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
            a_hat[i, j] = val
            a_hat[j, i] = val
    a_hat *= -1.0 / sigma**2

    gaps = {}
    for name, ref, hat in (("A", a_ref, a_hat), ("B", b_ref, b_hat)):
        mask = np.abs(ref) > 0.01 * np.linalg.norm(ref, 2)
        rel = float(np.max(np.abs(hat - ref)[mask] / np.abs(ref)[mask]))
        d = np.sqrt(np.abs(np.diag(ref)))
        normalized = float(np.max(np.abs(hat - ref) / np.outer(d, d)))
        gaps[name] = (rel, normalized)
    dt = time.perf_counter() - t0
    ok = all(rel <= 0.02 and nrm <= 0.02 for rel, nrm in gaps.values()) and dt < 120.0
    _check(
        "sandwich-matrix expectations",
        ok,
        f"A rel {gaps['A'][0]:.1e} / normalized {gaps['A'][1]:.1e}, "
        f"B rel {gaps['B'][0]:.1e} / normalized {gaps['B'][1]:.1e} "
        f"over {m_draws} draws (tol 2e-2), {dt:.1f}s (limit 120 s)",
    )


# 4 -------------------------------------------------------------------------


def test_4a_bound_inflation_grows_with_power():
    t0 = time.perf_counter()
    rows = _power_sweep_rows()
    ratio_lo = _mean_of(rows, -10.0, "lb_peb") / _mean_of(rows, -10.0, "crb_m2_peb")
    ratio_hi = _mean_of(rows, 40.0, "lb_peb") / _mean_of(rows, 40.0, "crb_m2_peb")
    dt = time.perf_counter() - t0
    _elapsed["power_sweep"] = dt
    ok = ratio_lo <= 1.15 and ratio_hi >= 3.0 and dt < 900.0
    _check(
        "bound inflation vs power",
        ok,
        f"lb/crb position ratio {ratio_lo:.4f} at -10 dBm (limit 1.15), "
        f"{ratio_hi:.1f} at 40 dBm (floor 3), {dt:.1f}s",
    )


def test_4b_mismatched_estimator_tracks_lb():
    t0 = time.perf_counter()
    bound_rows = _power_sweep_rows()
    spec = resolve_spec(
        {**DESK_KEYS, "sweep_values": "10,20,30", "n_trials": "200", "outputs": "mmle_rmse"}
    )
    est_rows = run_estimator_trials(spec)
    ratios = {}
    converged = {}
    for p in (10.0, 20.0, 30.0):
        ratios[p] = _mean_of(est_rows, p, "mmle_rmse") / _mean_of(bound_rows, p, "lb_peb")
        converged[p] = next(r.trials for r in est_rows if r.sweep_value == p)
    dt = time.perf_counter() - t0
    total = dt + _elapsed.get("power_sweep", 0.0)
    ok = (
        all(0.9 <= r <= 1.8 for r in ratios.values())
        and all(c >= 200 for c in converged.values())
        and total < 900.0
    )
    _check(
        "mismatched estimator tracks its bound",
        ok,
        "rmse/lb " + ", ".join(f"{r:.3f} at {int(p)} dBm" for p, r in ratios.items())
        + f" (window [0.9, 1.8]), {min(converged.values())}/200 converged, "
        f"{total:.1f}s combined (limit 900 s)",
    )


# 5 -------------------------------------------------------------------------


def test_5_impairment_families_hit_angle_and_delay_differently():
    t0 = time.perf_counter()
    base = {
        **DESK_KEYS,
        "sweep_values": "40",
        "n_realizations": "25",
        "outputs": "crb_m2,lb,aeb,deb",
    }
    off = {
        "sigma_pn_deg": "0",
        "sigma_cfo": "0",
        "sigma_mc": "0",
        "mc_c1": "0",
        "mc_c2": "0",
        "pa_beta0": "1",
        "pa_beta1": "0",
        "pa_beta2": "0",
        "pa_clip": "inf",
    }
    families = {
        "pn": {"sigma_pn_deg": "10"},
        "cfo": {"sigma_cfo": "0.01"},
        "mc": {"sigma_mc": "0.02", "mc_c1": "0.6+0.5j", "mc_c2": "0.4054-0.128j"},
        "pa": {
            "pa_beta0": "0.9798+0.0286j",
            "pa_beta1": "0.0122-0.0043j",
            "pa_beta2": "-0.0007+0.0001j",
            "pa_clip": "25",
        },
    }
    inflation = {}
    for fam, keys in families.items():
        rows = run_bounds_sweep(resolve_spec({**base, **off, **keys}))
        inflation[fam] = (
            _mean_of(rows, 40.0, "lb_aeb") / _mean_of(rows, 40.0, "crb_m2_aeb"),
            _mean_of(rows, 40.0, "lb_deb") / _mean_of(rows, 40.0, "crb_m2_deb"),
        )
    dt = time.perf_counter() - t0
    ok = (
        inflation["cfo"][0] >= 1.5 * inflation["cfo"][1]
        and inflation["mc"][0] >= 1.5 * inflation["mc"][1]
        and all(v > 1.05 for v in inflation["pn"])
        and all(v > 1.05 for v in inflation["pa"])
        and dt < 600.0
    )
    detail = ", ".join(
        f"{fam} aeb x{a:.1f} / deb x{d:.1f}" for fam, (a, d) in inflation.items()
    )
    _check(
        "per-family angle/delay asymmetry",
        ok,
        detail + f"; cfo and mc need aeb >= 1.5x deb, pn and pa need both > 1.05; {dt:.1f}s",
    )


# 6 -------------------------------------------------------------------------


def test_6_phase_noise_sweep_monotone_and_snr_ordered():
    t0 = time.perf_counter()
    base = {
        **DESK_KEYS,
        "sweep_axis": "sigma_pn_deg",
        "sweep_values": "1,10,20,30",
        "n_realizations": "25",
        "outputs": "crb_m2,lb,peb",
    }
    rows_hi = run_bounds_sweep(resolve_spec({**base, "tx_power_dbm": "30"}))
    rows_lo = run_bounds_sweep(resolve_spec({**base, "tx_power_dbm": "10"}))
    sigmas = (1.0, 10.0, 20.0, 30.0)
    lb_hi = [_mean_of(rows_hi, s, "lb_peb") for s in sigmas]
    monotone = all(b >= a for a, b in zip(lb_hi, lb_hi[1:]))
    ordered = all(
        _mean_of(rows_hi, s, "lb_peb") / _mean_of(rows_hi, s, "crb_m2_peb")
        > _mean_of(rows_lo, s, "lb_peb") / _mean_of(rows_lo, s, "crb_m2_peb")
        for s in sigmas
    )
    dt = time.perf_counter() - t0
    ok = monotone and ordered and dt < 600.0
    _check(
        "phase-noise sweep shape",
        ok,
        "lb peb at 30 dBm " + " -> ".join(f"{v:.3e}" for v in lb_hi)
        + f" (non-decreasing: {monotone}), inflation 30 dBm > 10 dBm at every "
        f"spread: {ordered}, {dt:.1f}s",
    )


# 7 -------------------------------------------------------------------------


def test_7_scaling_laws():
    t0 = time.perf_counter()
    theta = geometric_params(UE, GAIN_PHASE, DESK)
    block = PilotBlock.from_config(DESK)
    sigma = noise_std(DESK)
    rep1 = crb_m2_report(theta, ProjectionModel.clean(DESK, block), sigma)
    aeb1, deb1 = rep1.aeb_rad, rep1.deb_s

    from dataclasses import replace

    cfg4 = replace(DESK, n_transmissions=4 * DESK.n_transmissions)
    block4 = PilotBlock(
        symbols=np.tile(block.symbols, (4, 1)), combiners=np.tile(block.combiners, (4, 1))
    )
    rep4 = crb_m2_report(theta, ProjectionModel.clean(cfg4, block4), sigma)
    aeb4, deb4 = rep4.aeb_rad, rep4.deb_s
    tile_aeb = aeb1 / aeb4
    tile_deb = deb1 / deb4

    rep2 = crb_m2_report(theta, ProjectionModel.clean(DESK, block), 2.0 * sigma)
    aeb2, deb2 = rep2.aeb_rad, rep2.deb_s
    noise_aeb = aeb2 / aeb1
    noise_deb = deb2 / deb1
    dt = time.perf_counter() - t0
    ok = (
        abs(tile_aeb - 2.0) <= 0.02
        and abs(tile_deb - 2.0) <= 0.02
        and abs(noise_aeb / 2.0 - 1.0) <= 1e-10
        and abs(noise_deb / 2.0 - 1.0) <= 1e-10
        and dt < 5.0
    )
    _check(
        "scaling laws",
        ok,
        f"4x transmissions: aeb /{tile_aeb:.6f}, deb /{tile_deb:.6f} (2 +- 1%); "
        f"2x noise: aeb x{noise_aeb:.12f}, deb x{noise_deb:.12f} (2 +- 1e-10); {dt:.2f}s",
    )


# 8 -------------------------------------------------------------------------


def test_8_matched_estimator_is_efficient_on_clean_data():
    t0 = time.perf_counter()
    from dataclasses import replace

    cfg = replace(DESK, tx_power_dbm=30.0)
    theta = geometric_params(UE, GAIN_PHASE, cfg)
    block = PilotBlock.from_config(cfg)
    sigma = noise_std(cfg)
    clean = ProjectionModel.clean(cfg, block)
    mu = clean.mean(theta)
    peb = crb_m2_report(theta, clean, sigma).peb_m

    squares = []
    n_converged = 0
    for trial in range(500):
        rng = np.random.default_rng(np.random.SeedSequence((77, trial)))
        est = mmle_m2(observe(mu, sigma, rng), clean)
        if est.converged:
            n_converged += 1
            squares.append(float(np.sum((est.position - np.asarray(UE)) ** 2)))
    rmse = float(np.sqrt(np.mean(squares)))
    dt = time.perf_counter() - t0
    ok = abs(rmse / peb - 1.0) <= 0.15 and n_converged == 500 and dt < 600.0
    _check(
        "matched-data efficiency",
        ok,
        f"rmse {rmse:.3e} vs crb peb {peb:.3e}, ratio {rmse / peb:.4f} "
        f"(within 15%), {n_converged}/500 converged, {dt:.1f}s (limit 600 s)",
    )


# 9 -------------------------------------------------------------------------


def test_9_csv_outputs_are_deterministic(tmp_path):
    t0 = time.perf_counter()
    lines = [f"{k}={v}" for k, v in DESK_KEYS.items()]
    lines += ["sweep_values=10,30", "n_realizations=2", "n_trials=3"]
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    outs = [tmp_path / n for n in ("b1.csv", "b2.csv", "e1.csv", "e2.csv")]
    for out in outs[:2]:
        assert main(["bounds", "--config", str(cfg_path), "--out", str(out)]) == 0
    for out in outs[2:]:
        assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    bounds_same = outs[0].read_bytes() == outs[1].read_bytes()
    estimate_same = outs[2].read_bytes() == outs[3].read_bytes()
    dt = time.perf_counter() - t0
    ok = bounds_same and estimate_same
    _check(
        "deterministic command output",
        ok,
        f"bounds byte-identical: {bounds_same}, estimate byte-identical: "
        f"{estimate_same}, {dt:.1f}s",
    )


# 10 ------------------------------------------------------------------------


def test_10_estimators_match_their_bounds_draw_by_draw():
    """For one hardware draw, the mismatched estimator's angle and delay are
    centred on the pseudo-true theta0 with the MCRB's variances, and the
    matched one's on the truth with crb_m1's: two fixed draws, 2,000 noise
    trials per power, both estimators' fits of a (draw, power) in one
    FitData. Each mean lies within 4 standard errors of its centre, and
    each variance over its bound within 4 standard errors (sqrt(2 / (n -
    1)), Gaussian fits) of 1."""
    t0 = time.perf_counter()
    from dataclasses import replace

    imp = ImpairmentConfig()
    n = 2000
    se_ratio = np.sqrt(2.0 / (n - 1))
    worst = {"mean": 0.0, "variance": 0.0}
    worst_bias = 0.0
    n_converged = 0
    for draw in range(2):
        for power in (10.0, 20.0, 30.0, 40.0):
            cfg = replace(DESK, tx_power_dbm=power)
            block = PilotBlock.from_config(cfg)
            theta = geometric_params(UE, GAIN_PHASE, cfg)
            seed = np.random.SeedSequence((2020, draw))
            real = sample_realization(imp, cfg, np.random.default_rng(seed))
            clean = ProjectionModel.clean(cfg, block, imp.coupling)
            impaired = ProjectionModel.impaired(cfg, block, imp, real)
            sigma = noise_std(cfg)
            lb = lb_report(theta, clean, impaired, sigma)
            crb = crb_m1_numeric(theta, impaired, sigma)
            mean = np.broadcast_to(impaired.mean(theta), (n, *block.symbols.shape))
            noise_seed = np.random.SeedSequence((2021, draw, int(power)))
            y = observe(mean, sigma, np.random.default_rng(noise_seed))
            data = FitData.empty(cfg, 2 * n)
            data.put(0, clean.row_matrix, clean.eff_pilots, y)
            data.put(n, impaired.row_matrix, impaired.eff_pilots, impaired.pulled_observation(y))
            fits = refine(data, grid_search(data, scan_grid(cfg)))
            n_converged += int(fits.converged.sum())
            aoa, rng_m = positions_to_polar(fits.positions)
            fitted = np.stack([aoa, rng_m / SPEED_OF_LIGHT], axis=1)  # (2 n, 2): angle, delay
            truth, theta0 = theta.as_array()[:2], lb.theta0.as_array()[:2]
            mcrb = np.diag(lb.mcrb)[:2]
            worst_bias = max(worst_bias, float(np.abs((theta0 - truth) / np.sqrt(mcrb)).max()))
            for part, centre, bound in (
                (slice(0, n), theta0, mcrb),
                (slice(n, 2 * n), truth, np.array([crb.aeb_rad, crb.deb_s]) ** 2),
            ):
                variance = fitted[part].var(axis=0, ddof=1)
                z_mean = (fitted[part].mean(axis=0) - centre) / np.sqrt(variance / n)
                z_variance = (variance / bound - 1.0) / se_ratio
                worst["mean"] = max(worst["mean"], float(np.abs(z_mean).max()))
                worst["variance"] = max(worst["variance"], float(np.abs(z_variance).max()))
    dt = time.perf_counter() - t0
    ok = (
        worst["mean"] <= 4.0
        and worst["variance"] <= 4.0
        and n_converged == 2 * 4 * 2 * n
        and dt < 60.0
    )
    _check(
        "estimators match their bounds draw by draw",
        ok,
        f"|mean - centre| up to {worst['mean']:.2f} standard errors, "
        f"|variance / bound - 1| up to {worst['variance']:.2f} standard errors (limits 4), "
        f"mismatched bias up to {worst_bias:.0f} MCRB standard deviations, "
        f"{n_converged}/{2 * 4 * 2 * n} converged, {dt:.1f}s (limit 60 s)",
    )
