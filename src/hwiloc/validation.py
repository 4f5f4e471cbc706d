"""Self-contained invariant checks behind the `validate` subcommand.

Each check re-derives an exact property of the implementation at runtime:
degenerate limits, finite-difference consistency of the closed-form
derivatives, analytic scaling laws, noise-free estimator recovery, a
hand-expanded information matrix, and end-to-end sweep determinism. They
run in seconds and need no data files, so a freshly installed package can
be smoke-tested anywhere.
"""

from __future__ import annotations

import numpy as np

from .bounds import crb_m2_report, fim, lb_report, mean_derivatives
from .config_io import resolve_spec
from .estimation import mmle_m2
from .harness import rows_to_csv, run_bounds_sweep, run_estimator_trials
from .impairments import ImpairmentConfig, ImpairmentRealization
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
    geometric_params,
    noise_std,
    params_to_positions,
)
from .observation import ProjectionModel

_DESK = dict(n_antennas=10, n_transmissions=5, n_subcarriers=32, cp_length=7)


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _check_mismatch_free_degeneration() -> str:
    cfg = SystemConfig(**_DESK)
    block = PilotBlock.from_config(cfg)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, cfg)
    impaired = ProjectionModel.impaired(
        cfg, block, ImpairmentConfig.neutral(), ImpairmentRealization.neutral(cfg)
    )
    rep = lb_report(theta, ProjectionModel.clean(cfg, block), impaired, noise_std(cfg))
    t = theta.as_array()
    drift = np.max(np.abs(rep.theta0.as_array() - t) / np.maximum(np.abs(t), 1e-300))
    _require(drift < 1e-8, f"pseudo-true drift {drift:.3e} exceeds 1e-8")
    for name, lb, crb in (
        ("aeb", rep.lb_aeb_rad, rep.aeb_rad),
        ("deb", rep.lb_deb_s, rep.deb_s),
        ("peb", rep.lb_peb_m, rep.peb_m),
    ):
        gap = abs(lb - crb) / crb
        _require(gap < 1e-8, f"lb/crb {name} gap {gap:.3e} exceeds 1e-8")
    return f"pseudo-true drift {drift:.2e}, bounds coincide"


def _check_derivative_consistency() -> str:
    cfg = SystemConfig(n_antennas=5, n_transmissions=3, n_subcarriers=8, cp_length=2)
    model = ProjectionModel.clean(cfg, PilotBlock.from_config(cfg))
    eye = np.eye(4, dtype=int)
    worst = 0.0
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        theta = ChannelParams(
            aoa=float(rng.uniform(-1.2, 1.2)),
            delay=float(rng.uniform(1.0, 20.0)) / SPEED_OF_LIGHT,
            gain_amp=float(rng.uniform(1e-5, 1e-3)),
            gain_phase=float(rng.uniform(-np.pi, np.pi)),
        )
        t = theta.as_array()
        first = mean_derivatives(theta, model, eye)
        second = mean_derivatives(theta, model, eye[:, None] + eye[None, :])
        steps = np.diag([1e-6 * max(abs(t[0]), 1.0), 1e-6 * t[1], 1e-6 * t[2], 1e-6])
        for i, step in enumerate(steps):
            tp, tm = ChannelParams.from_array(t + step), ChannelParams.from_array(t - step)
            fd1 = (model.mean(tp) - model.mean(tm)) / (2 * step[i])
            worst = max(worst, np.linalg.norm(fd1 - first[i]) / np.linalg.norm(first[i]))
            fd2 = mean_derivatives(tp, model, eye) - mean_derivatives(tm, model, eye)
            fd2 /= 2 * step[i]
            for j in range(4):
                ref = np.linalg.norm(second[i, j])
                if ref > 0:
                    worst = max(worst, np.linalg.norm(fd2[j] - second[i, j]) / ref)
    _require(worst < 1e-6, f"worst derivative error {worst:.3e} exceeds 1e-6")
    return f"worst relative derivative error {worst:.2e}"


def _check_scaling_laws() -> str:
    cfg = SystemConfig(**_DESK)
    block = PilotBlock.from_config(cfg)
    tiled = PilotBlock(
        symbols=np.tile(block.symbols, (4, 1)), combiners=np.tile(block.combiners, (4, 1))
    )
    model = ProjectionModel.clean(cfg, block)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, cfg)
    sigma = noise_std(cfg)
    base = crb_m2_report(theta, model, sigma)
    quad = crb_m2_report(theta, ProjectionModel.clean(cfg, tiled), sigma)
    ratio = base.aeb_rad / quad.aeb_rad
    _require(abs(ratio - 2.0) < 0.02, f"4x transmissions gave AEB ratio {ratio:.6f}")
    doubled = crb_m2_report(theta, model, 2.0 * sigma)
    for name, a, b in (
        ("aeb", doubled.aeb_rad, base.aeb_rad),
        ("deb", doubled.deb_s, base.deb_s),
    ):
        gap = abs(a - 2.0 * b) / (2.0 * b)
        _require(gap < 1e-10, f"sigma doubling broke {name} by {gap:.3e}")
    return f"4x transmissions halve AEB (ratio {ratio:.4f}), sigma doubling exact"


def _check_noise_free_recovery() -> str:
    cfg = SystemConfig(**_DESK)
    block = PilotBlock.from_config(cfg)
    theta = geometric_params(np.array([3.0, 2.0]), 0.3, cfg)
    clean = ProjectionModel.clean(cfg, block)
    est = mmle_m2(clean.mean(theta), clean)
    err = float(np.linalg.norm(est.position - params_to_positions(theta.as_array())))
    _require(err < 1e-4, f"noise-free position error {err:.3e} m exceeds 1e-4")
    return f"noise-free position error {err:.2e} m"


def _check_single_sample_information() -> str:
    cfg = SystemConfig(n_antennas=1, n_transmissions=1, n_subcarriers=1, cp_length=0)
    block = PilotBlock(symbols=np.array([[2.0 + 0j]]), combiners=np.array([[1.0 + 0j]]))
    theta = ChannelParams(aoa=0.3, delay=5e-9, gain_amp=1.0, gain_phase=0.7)
    w = 2.0 * np.pi * cfg.subcarrier_spacing_hz
    expected = 4.0 * np.array(
        [[0, 0, 0, 0], [0, w**2, 0, w], [0, 0, 1, 0], [0, w, 0, 1]], dtype=float
    )
    info = fim(theta, ProjectionModel.clean(cfg, block), np.sqrt(2.0))
    gap = np.max(np.abs(info - expected)) / np.max(expected)
    _require(gap < 1e-12, f"single-sample information off by {gap:.3e}")
    return "hand-expanded information matrix reproduced"


def _check_sweep_determinism() -> str:
    overrides = {
        "n_antennas": "10",
        "n_transmissions": "5",
        "n_subcarriers": "32",
        "sweep_values": "10,30",
        "n_realizations": "2",
        "n_trials": "2",
        "outputs": "crb_m2,lb,peb,mmle_rmse",
    }
    spec = resolve_spec(overrides)
    b1 = rows_to_csv(run_bounds_sweep(spec))
    b2 = rows_to_csv(run_bounds_sweep(spec))
    _require(b1 == b2, "bounds sweep is not deterministic")
    e1 = rows_to_csv(run_estimator_trials(spec))
    e2 = rows_to_csv(run_estimator_trials(spec))
    _require(e1 == e2, "estimator trials are not deterministic")
    return "repeated sweeps byte-identical"


CHECKS = (
    ("mismatch-free degeneration", _check_mismatch_free_degeneration),
    ("derivative consistency", _check_derivative_consistency),
    ("scaling laws", _check_scaling_laws),
    ("noise-free recovery", _check_noise_free_recovery),
    ("single-sample information", _check_single_sample_information),
    ("sweep determinism", _check_sweep_determinism),
)


def validate_build() -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) per check."""
    results = []
    for name, fn in CHECKS:
        try:
            results.append((name, True, fn()))
        except Exception as exc:  # a failed invariant, whatever the signal
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
