"""Performance bounds: matched/mismatched Cramer-Rao analysis.

Three bound families are computed for the uplink localization problem:

* the CRB of the clean model evaluated analytically from closed-form
  derivatives of its mean (what a receiver ignoring the impairments would
  predict for itself);
* the CRB of the impaired model (the genie bound that knows the
  realization), also in closed form: each transmission's phase-noise/CFO
  sandwich is unitary and does not depend on theta, so it drops out of the
  Fisher information, which is then the clean-model one with rows
  W C_full and the PA-distorted pilots;
* the misspecified bound for the mismatched receiver: the estimator that
  fits the clean model to impaired data concentrates around the pseudo-true
  parameter, and its covariance about the true parameter is bounded by
  A^-1 B A^-1 plus the squared pseudo-true bias.

Parameters are ordered theta = [aoa, delay, gain_amp, gain_phase]
throughout; positional bounds use the state s = [p_x, p_y, gain_amp,
gain_phase] through the chain-rule Jacobian d theta / d s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimation import EstimatorConfig, NumericError, ProjectionModel, plug_in_gain, refine
from .impairments import ImpairmentConfig, ImpairmentRealization, mc_matrix
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    PilotBlock,
    SystemConfig,
    params_to_state,
    steering_derivatives,
    steering_vector,
)
from .observation import mu_m1, mu_m2, transmit_pilots

N_PARAMS = 4


@dataclass
class ModelDerivatives:
    """Closed-form derivatives of the clean-model mean at one parameter point.

    first[i] is d mu / d theta_i, second[i, j] the symmetric second
    derivative, both as (G, K) arrays.
    """

    first: np.ndarray  # (4, G, K)
    second: np.ndarray  # (4, 4, G, K)


@dataclass
class BoundsReport:
    """Bound matrices and scalar summaries at one operating point.

    The matched/clean CRB part is always present. The mismatch part
    (pseudo-true parameter, misspecified covariance and total lower bound)
    is filled only by :func:`lb_report`.
    """

    fim: np.ndarray  # (4, 4) information matrix in channel coordinates
    crb: np.ndarray | None  # (4, 4) in state coordinates, None if singular
    aeb_rad: float
    deb_s: float
    peb_m: float
    theta0: ChannelParams | None = None
    mcrb: np.ndarray | None = None  # (4, 4) A^-1 B A^-1 in channel coordinates
    lb_matrix: np.ndarray | None = None  # mcrb plus pseudo-true bias outer product
    lb_aeb_rad: float | None = None
    lb_deb_s: float | None = None
    lb_peb_m: float | None = None

    @property
    def aeb_deg(self) -> float:
        return float(np.rad2deg(self.aeb_rad))

    @property
    def deb_m(self) -> float:
        return float(self.deb_s * SPEED_OF_LIGHT)


# ---------------------------------------------------------------------------
# closed-form derivatives of the link mean


def link_derivatives(
    theta: ChannelParams,
    cfg: SystemConfig,
    combiners: np.ndarray,
    coupling_mat: np.ndarray,
    pilots: np.ndarray,
) -> ModelDerivatives:
    """All first and second derivatives of a phase-rotation-free link mean.

    The mean factorizes per sample as alpha * b_g(aoa) * d_k(delay) *
    x_{g,k} with row gains b_g = w_g^T C a(aoa), so every derivative is an
    outer product of per-transmission scalars, per-subcarrier phasors and
    the pilot symbols. The rows W C come as their two factors and are
    applied right to left, rounding as the mean builders do. Gain
    derivatives use alpha = gain_amp * exp(-1j*gain_phase): d alpha/d amp =
    exp(-1j*phase), d alpha/d phase = -1j*alpha, and the amp-amp second
    derivative vanishes.
    """
    if theta.delay < 0:
        raise ValueError("delay must be non-negative")
    a = steering_vector(theta.aoa, cfg.n_antennas)
    da, dda = steering_derivatives(theta.aoa, cfg.n_antennas)
    b = combiners @ (coupling_mat @ a)  # (G,)
    bd = combiners @ (coupling_mat @ da)
    bdd = combiners @ (coupling_mat @ dda)

    k = np.arange(1, cfg.n_subcarriers + 1)
    ring = -2j * np.pi * k * cfg.subcarrier_spacing_hz  # d/d delay phase factors
    d = np.exp(ring * theta.delay)
    dd = ring * d
    ddd = ring**2 * d

    alpha = theta.gain
    d_amp = np.exp(-1j * theta.gain_phase)  # d alpha / d gain_amp
    d_phase = -1j * alpha  # d alpha / d gain_phase

    def outer(bg: np.ndarray, dk: np.ndarray) -> np.ndarray:
        return bg[:, None] * (dk[None, :] * pilots)

    e00 = outer(b, d)  # the gain-free mean
    e_a = outer(bd, d)  # aoa direction
    e_t = outer(b, dd)  # delay direction
    e_aa = outer(bdd, d)
    e_at = outer(bd, dd)
    e_tt = outer(b, ddd)

    first = np.stack(
        [alpha * e_a, alpha * e_t, d_amp * e00, d_phase * e00]
    )

    second = np.zeros((N_PARAMS, N_PARAMS) + e00.shape, dtype=complex)
    second[0, 0] = alpha * e_aa
    second[0, 1] = alpha * e_at
    second[0, 2] = d_amp * e_a
    second[0, 3] = d_phase * e_a
    second[1, 1] = alpha * e_tt
    second[1, 2] = d_amp * e_t
    second[1, 3] = d_phase * e_t
    # amp-amp derivative is exactly zero
    second[2, 3] = -1j * d_amp * e00
    second[3, 3] = -alpha * e00
    for i in range(N_PARAMS):
        for j in range(i + 1, N_PARAMS):
            second[j, i] = second[i, j]
    return ModelDerivatives(first=first, second=second)


def model_derivatives(
    theta: ChannelParams,
    cfg: SystemConfig,
    block: PilotBlock,
    coupling: tuple = (),
) -> ModelDerivatives:
    """Derivatives of the clean-model mean: rows W C~, pilots x."""
    ctilde = mc_matrix(coupling, None, cfg.n_antennas)
    return link_derivatives(theta, cfg, block.combiners, ctilde, block.symbols)


# ---------------------------------------------------------------------------
# information matrices and the CRB


def fim_from_first_derivatives(first: np.ndarray, sigma_n: float) -> np.ndarray:
    """I_ij = (2/sigma^2) sum Re[conj(d mu_i) d mu_j] over all samples."""
    if sigma_n <= 0:
        raise ValueError("noise std must be positive")
    flat = first.reshape(N_PARAMS, -1)
    gram = flat.conj() @ flat.T
    return (2.0 / sigma_n**2) * gram.real


def fim_theta(
    theta: ChannelParams,
    cfg: SystemConfig,
    sigma_n: float,
    block: PilotBlock | None = None,
    coupling: tuple = (),
) -> np.ndarray:
    """Clean-model Fisher information in channel coordinates, (4, 4).

    Singular matrices are legitimate (e.g. a single antenna carries no
    angle information) and are returned as-is.
    """
    if block is None:
        block = PilotBlock.from_config(cfg)
    derivs = model_derivatives(theta, cfg, block, coupling)
    return fim_from_first_derivatives(derivs.first, sigma_n)


def jacobian_state(theta: ChannelParams, dimension_corrected: bool = True) -> np.ndarray:
    """Chain-rule Jacobian J[i, j] = d theta_i / d s_j, (4, 4).

    With p = c*delay*(cos aoa, sin aoa):
        d aoa / d p   = (-sin aoa, cos aoa) / (c*delay)
        d delay / d p = (cos aoa, sin aoa) / c
    dimension_corrected=False keeps the delay row as the dimensionless
    (cos aoa, sin aoa) variant for auditing against older conventions; the
    corrected form is the one consistent with finite differences of the
    position-to-channel map.
    """
    if theta.delay <= 0:
        raise ValueError("delay must be positive")
    c, tau = SPEED_OF_LIGHT, theta.delay
    sa, ca = np.sin(theta.aoa), np.cos(theta.aoa)
    jac = np.zeros((N_PARAMS, N_PARAMS))
    jac[0, 0] = -sa / (c * tau)
    jac[0, 1] = ca / (c * tau)
    if dimension_corrected:
        jac[1, 0] = ca / c
        jac[1, 1] = sa / c
    else:
        jac[1, 0] = ca
        jac[1, 1] = sa
    jac[2, 2] = 1.0
    jac[3, 3] = 1.0
    return jac


def crb_state(fim: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """CRB in state coordinates: inv(J^T I J). Raises on singularity."""
    info_s = jac.T @ fim @ jac
    try:
        return np.linalg.inv(info_s)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"state information matrix is singular (cond {np.linalg.cond(info_s):.3e})"
        ) from exc


@dataclass
class ScalarBounds:
    """Root bounds on angle (rad), delay (s) and position (m)."""

    aeb_rad: float
    deb_s: float
    peb_m: float

    @property
    def aeb_deg(self) -> float:
        return float(np.rad2deg(self.aeb_rad))

    @property
    def deb_m(self) -> float:
        return float(self.deb_s * SPEED_OF_LIGHT)


def scalar_bounds(fim: np.ndarray, crb: np.ndarray | None) -> ScalarBounds:
    """AEB/DEB from the channel-coordinate bound, PEB from the state one.

    A singular information matrix means some component is unidentifiable;
    the affected scalars come out infinite rather than raising.
    """
    try:
        cov = np.linalg.inv(fim)
        aeb = float(np.sqrt(cov[0, 0]))
        deb = float(np.sqrt(cov[1, 1]))
    except np.linalg.LinAlgError:
        aeb = deb = np.inf
    peb = float(np.sqrt(np.trace(crb[:2, :2]))) if crb is not None else np.inf
    return ScalarBounds(aeb_rad=aeb, deb_s=deb, peb_m=peb)


def _crb_report(fim: np.ndarray, theta: ChannelParams) -> BoundsReport:
    """Matched-bound report from a channel-coordinate FIM at theta."""
    try:
        crb = crb_state(fim, jacobian_state(theta))
    except NumericError:
        crb = None
    sc = scalar_bounds(fim, crb)
    return BoundsReport(
        fim=fim, crb=crb, aeb_rad=sc.aeb_rad, deb_s=sc.deb_s, peb_m=sc.peb_m
    )


def crb_m2_report(
    theta: ChannelParams,
    cfg: SystemConfig,
    sigma_n: float,
    block: PilotBlock | None = None,
    coupling: tuple = (),
) -> BoundsReport:
    """Analytic clean-model CRB report at theta."""
    return _crb_report(fim_theta(theta, cfg, sigma_n, block, coupling), theta)


# ---------------------------------------------------------------------------
# CRB of the impaired model


def fim_m1_numeric(
    theta: ChannelParams,
    cfg: SystemConfig,
    block: PilotBlock,
    imp: ImpairmentConfig,
    real: ImpairmentRealization,
    sigma_n: float,
) -> np.ndarray:
    """Impaired-model Fisher information in channel coordinates, (4, 4).

    The impaired mean is M_g v_g(theta) per transmission, with M_g the
    phase-noise/CFO sandwich. M_g is unitary and does not depend on theta,
    so <M_g dv_i, M_g dv_j> = <dv_i, dv_j>: the information is the clean
    closed form with rows W C_full and the PA-distorted pilots, and the
    sandwich is never built. The delay must be positive, as for the
    position-domain bound built on top.
    """
    if theta.delay <= 0:
        raise ValueError("delay must be positive")
    c_full = mc_matrix(imp.coupling, real.mc_residual, cfg.n_antennas)
    pilots = transmit_pilots(block, imp, cfg)
    derivs = link_derivatives(theta, cfg, block.combiners, c_full, pilots)
    return fim_from_first_derivatives(derivs.first, sigma_n)


def crb_m1_numeric(
    theta: ChannelParams,
    cfg: SystemConfig,
    block: PilotBlock,
    imp: ImpairmentConfig,
    real: ImpairmentRealization,
    sigma_n: float,
) -> BoundsReport:
    """Impaired-model CRB report at theta (one realization), from the
    closed-form :func:`fim_m1_numeric`."""
    return _crb_report(fim_m1_numeric(theta, cfg, block, imp, real, sigma_n), theta)


# ---------------------------------------------------------------------------
# misspecified analysis


def _wrap_phase(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


def pseudo_true(
    theta_bar: ChannelParams,
    cfg: SystemConfig,
    block: PilotBlock,
    imp: ImpairmentConfig,
    real: ImpairmentRealization,
    est: EstimatorConfig | None = None,
    ybar: np.ndarray | None = None,
) -> ChannelParams:
    """Parameter the mismatched receiver converges to without noise.

    Minimizes the clean-model projection objective against the noise-free
    impaired mean ybar (built from theta_bar when not given), descending
    from the true parameter (the mismatch offsets are small, so the global
    basin is the local one). The gain pair comes from the plug-in estimate
    at the refined position; its phase is unwrapped to the branch nearest
    the true phase so downstream bias terms stay wrap-free.
    """
    if est is None:
        est = EstimatorConfig(max_iterations=1000)
    if ybar is None:
        ybar = mu_m1(theta_bar, cfg, block, imp, real)
    model = ProjectionModel.clean(cfg, block, coupling=imp.coupling)
    p_bar = params_to_state(theta_bar).position
    p0, _, _, _ = refine(ybar, model, p_bar, est)
    aoa = float(np.arctan2(p0[1], p0[0]))
    delay = float(np.hypot(p0[0], p0[1])) / SPEED_OF_LIGHT
    alpha = plug_in_gain(ybar, model.eta(aoa, delay))
    phase = theta_bar.gain_phase + _wrap_phase(-np.angle(alpha) - theta_bar.gain_phase)
    return ChannelParams(aoa=aoa, delay=delay, gain_amp=abs(alpha), gain_phase=float(phase))


def matrix_a(derivs: ModelDerivatives, eps: np.ndarray, sigma_n: float) -> np.ndarray:
    """Expected curvature of the mismatched log-likelihood at theta0.

    A_ij = (2/sigma^2) Re[<d2 mu_ij, eps> - <d mu_i, d mu_j>] with
    <u, v> = sum conj(u) v and eps the noise-free model mismatch. At zero
    mismatch this is minus the information matrix.
    """
    e = np.asarray(eps).ravel()
    flat1 = derivs.first.reshape(N_PARAMS, -1)
    gram = (flat1.conj() @ flat1.T).real
    curv = np.empty((N_PARAMS, N_PARAMS))
    for i in range(N_PARAMS):
        for j in range(i, N_PARAMS):
            curv[i, j] = curv[j, i] = np.vdot(derivs.second[i, j].ravel(), e).real
    return (2.0 / sigma_n**2) * (curv - gram)


def matrix_b(derivs: ModelDerivatives, eps: np.ndarray, sigma_n: float) -> np.ndarray:
    """Covariance of the mismatched score at theta0.

    B_ij = (4/sigma^4) Re<d mu_i, eps> Re<d mu_j, eps>
         + (2/sigma^2) Re<d mu_i, d mu_j>; at zero mismatch this is the
    information matrix.
    """
    e = np.asarray(eps).ravel()
    flat1 = derivs.first.reshape(N_PARAMS, -1)
    gram = (flat1.conj() @ flat1.T).real
    score = (flat1.conj() @ e).real
    return (4.0 / sigma_n**4) * np.outer(score, score) + (2.0 / sigma_n**2) * gram


def mismatch_covariance(a_mat: np.ndarray, b_mat: np.ndarray) -> np.ndarray:
    """Asymptotic covariance A^-1 B A^-1 of the mismatched estimator."""
    try:
        a_inv = np.linalg.inv(a_mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError("curvature matrix A is singular") from exc
    return a_inv @ b_mat @ a_inv


def bias_vector(theta_bar: ChannelParams, theta0: ChannelParams) -> np.ndarray:
    """Pseudo-true bias theta_bar - theta0 with the phase component wrapped."""
    diff = theta_bar.as_array() - theta0.as_array()
    diff[3] = _wrap_phase(diff[3])
    return diff


def lb_matrix(
    theta_bar: ChannelParams, theta0: ChannelParams, mcrb: np.ndarray
) -> np.ndarray:
    """Total lower bound about the true parameter: MCRB plus bias outer."""
    d = bias_vector(theta_bar, theta0)
    return mcrb + np.outer(d, d)


def lb_position(
    theta_bar: ChannelParams, theta0: ChannelParams, mcrb: np.ndarray
) -> float:
    """Positional lower bound in metres.

    The 2x2 angle/delay block of the MCRB is mapped to position covariance
    through the inverse polar Jacobian at the pseudo-true point; the squared
    pseudo-true position offset adds on top.
    """
    jac2 = jacobian_state(theta0)[:2, :2]
    t = np.linalg.inv(jac2)
    pos_cov = t @ mcrb[:2, :2] @ t.T
    p_bar = params_to_state(theta_bar).position
    p0 = params_to_state(theta0).position
    return float(np.sqrt(np.trace(pos_cov) + np.sum((p_bar - p0) ** 2)))


def lb_report(
    theta_bar: ChannelParams,
    cfg: SystemConfig,
    block: PilotBlock,
    imp: ImpairmentConfig,
    real: ImpairmentRealization,
    sigma_n: float,
    est: EstimatorConfig | None = None,
) -> BoundsReport:
    """Full misspecified-bound report for one impairment realization.

    Also carries the clean-model CRB evaluated at the true parameter so the
    caller can form inflation ratios from a single object.
    """
    base = crb_m2_report(theta_bar, cfg, sigma_n, block, imp.coupling)
    ybar = mu_m1(theta_bar, cfg, block, imp, real)
    theta0 = pseudo_true(theta_bar, cfg, block, imp, real, est, ybar)
    derivs = model_derivatives(theta0, cfg, block, imp.coupling)
    eps = ybar - mu_m2(theta0, cfg, block, imp.coupling)
    a_mat = matrix_a(derivs, eps, sigma_n)
    b_mat = matrix_b(derivs, eps, sigma_n)
    mcrb = mismatch_covariance(a_mat, b_mat)
    total = lb_matrix(theta_bar, theta0, mcrb)
    if total[0, 0] < 0 or total[1, 1] < 0:
        warnings.warn("negative diagonal in the misspecified bound", RuntimeWarning)
    return BoundsReport(
        fim=base.fim,
        crb=base.crb,
        aeb_rad=base.aeb_rad,
        deb_s=base.deb_s,
        peb_m=base.peb_m,
        theta0=theta0,
        mcrb=mcrb,
        lb_matrix=total,
        lb_aeb_rad=float(np.sqrt(max(total[0, 0], 0.0))),
        lb_deb_s=float(np.sqrt(max(total[1, 1], 0.0))),
        lb_peb_m=lb_position(theta_bar, theta0, mcrb),
    )
