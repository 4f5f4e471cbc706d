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

Every bound takes the link models (:class:`ProjectionModel`) it needs,
built once per pilot block and realization by the caller.

Parameters are ordered theta = [aoa, delay, gain_amp, gain_phase]
throughout; positional bounds use the state s = [p_x, p_y, gain_amp,
gain_phase] through the chain-rule Jacobian d theta / d s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimation import EstimatorConfig, NumericError, plug_in_gain, refine
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    params_to_state,
    steering_derivatives,
    steering_vector,
)
from .observation import ProjectionModel

N_PARAMS = 4


@dataclass
class ModelDerivatives:
    """Closed-form derivatives of a link mean at one parameter point.

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


def model_derivatives(theta: ChannelParams, model: ProjectionModel) -> ModelDerivatives:
    """All first and second derivatives of the link mean before its sandwich.

    The mean factorizes per sample as alpha * b_g(aoa) * d_k(delay) *
    x~_{g,k} with row gains b_g = w_g^T C a(aoa), so every derivative is an
    outer product of per-transmission scalars, per-subcarrier phasors and
    the effective pilots. For the clean model these are the derivatives of
    its mean; the impaired mean is M_g times this one, with M_g unitary and
    theta-free. Rows are applied as W (C a), rounding as the mean does.
    Gain derivatives use alpha = gain_amp * exp(-1j*gain_phase): d alpha/d
    amp = exp(-1j*phase), d alpha/d phase = -1j*alpha, and the amp-amp
    second derivative vanishes.
    """
    if theta.delay < 0:
        raise ValueError("delay must be non-negative")
    combiners, coupling_mat, pilots = model.combiners, model.coupling, model.eff_pilots
    n_antennas = coupling_mat.shape[0]
    a = steering_vector(theta.aoa, n_antennas)
    da, dda = steering_derivatives(theta.aoa, n_antennas)
    b = combiners @ (coupling_mat @ a)  # (G,)
    bd = combiners @ (coupling_mat @ da)
    bdd = combiners @ (coupling_mat @ dda)

    k = np.arange(1, model.cfg.n_subcarriers + 1)
    ring = -2j * np.pi * k * model.cfg.subcarrier_spacing_hz  # d/d delay phase factors
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


# ---------------------------------------------------------------------------
# information matrices and the CRB


def fim_from_first_derivatives(first: np.ndarray, sigma_n: float) -> np.ndarray:
    """I_ij = (2/sigma^2) sum Re[conj(d mu_i) d mu_j] over all samples."""
    if sigma_n <= 0:
        raise ValueError("noise std must be positive")
    flat = first.reshape(N_PARAMS, -1)
    gram = flat.conj() @ flat.T
    return (2.0 / sigma_n**2) * gram.real


def fim(theta: ChannelParams, model: ProjectionModel, sigma_n: float) -> np.ndarray:
    """Fisher information of a link model in channel coordinates, (4, 4).

    The impaired mean is M_g v_g(theta) per transmission, with M_g the
    phase-noise/CFO sandwich. M_g is unitary and does not depend on theta,
    so <M_g dv_i, M_g dv_j> = <dv_i, dv_j>: the derivatives of v_g give the
    information of either chain, and the sandwich is never built. Singular
    matrices are legitimate (e.g. a single antenna carries no angle
    information) and are returned as-is.
    """
    return fim_from_first_derivatives(model_derivatives(theta, model).first, sigma_n)


def jacobian_state(theta: ChannelParams) -> np.ndarray:
    """Chain-rule Jacobian J[i, j] = d theta_i / d s_j, (4, 4).

    With p = c*delay*(cos aoa, sin aoa):
        d aoa / d p   = (-sin aoa, cos aoa) / (c*delay)
        d delay / d p = (cos aoa, sin aoa) / c
    """
    if theta.delay <= 0:
        raise ValueError("delay must be positive")
    c, tau = SPEED_OF_LIGHT, theta.delay
    sa, ca = np.sin(theta.aoa), np.cos(theta.aoa)
    jac = np.zeros((N_PARAMS, N_PARAMS))
    jac[0, 0] = -sa / (c * tau)
    jac[0, 1] = ca / (c * tau)
    jac[1, 0] = ca / c
    jac[1, 1] = sa / c
    jac[2, 2] = 1.0
    jac[3, 3] = 1.0
    return jac


def crb_state(info: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """CRB in state coordinates: inv(J^T I J). Raises on singularity."""
    info_s = jac.T @ info @ jac
    try:
        return np.linalg.inv(info_s)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"state information matrix is singular (cond {np.linalg.cond(info_s):.3e})"
        ) from exc


def scalar_bounds(info: np.ndarray, crb: np.ndarray | None) -> tuple[float, float, float]:
    """Root bounds (aeb rad, deb s, peb m): AEB/DEB from the
    channel-coordinate bound, PEB from the state one.

    A singular information matrix means some component is unidentifiable;
    the affected scalars come out infinite rather than raising.
    """
    try:
        cov = np.linalg.inv(info)
        aeb = float(np.sqrt(cov[0, 0]))
        deb = float(np.sqrt(cov[1, 1]))
    except np.linalg.LinAlgError:
        aeb = deb = np.inf
    peb = float(np.sqrt(np.trace(crb[:2, :2]))) if crb is not None else np.inf
    return aeb, deb, peb


def _crb_report(info: np.ndarray, theta: ChannelParams) -> BoundsReport:
    """Matched-bound report from a channel-coordinate FIM at theta."""
    try:
        crb = crb_state(info, jacobian_state(theta))
    except NumericError:
        crb = None
    return BoundsReport(info, crb, *scalar_bounds(info, crb))


def crb_m2_report(theta: ChannelParams, clean: ProjectionModel, sigma_n: float) -> BoundsReport:
    """Analytic clean-model CRB report at theta."""
    return _crb_report(fim(theta, clean, sigma_n), theta)


# ---------------------------------------------------------------------------
# CRB of the impaired model


def fim_m1_numeric(theta: ChannelParams, impaired: ProjectionModel, sigma_n: float) -> np.ndarray:
    """Impaired-model Fisher information, (4, 4): the closed form of
    :func:`fim` with rows W C_full and the PA-distorted pilots. The delay
    must be positive, as for the position-domain bound built on top."""
    if theta.delay <= 0:
        raise ValueError("delay must be positive")
    return fim(theta, impaired, sigma_n)


def crb_m1_numeric(theta: ChannelParams, impaired: ProjectionModel, sigma_n: float) -> BoundsReport:
    """Impaired-model CRB report at theta (one realization)."""
    return _crb_report(fim_m1_numeric(theta, impaired, sigma_n), theta)


# ---------------------------------------------------------------------------
# misspecified analysis


def _wrap_phase(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


def pseudo_true(
    theta_bar: ChannelParams,
    clean: ProjectionModel,
    ybar: np.ndarray,
    est: EstimatorConfig | None = None,
) -> ChannelParams:
    """Parameter the mismatched receiver converges to without noise.

    Minimizes the clean model's projection objective against the noise-free
    impaired mean ybar at theta_bar, descending from the true parameter
    (the mismatch offsets are small, so the global basin is the local one).
    The gain pair comes from the plug-in estimate at the refined position;
    its phase is unwrapped to the branch nearest the true phase so
    downstream bias terms stay wrap-free.
    """
    if est is None:
        est = EstimatorConfig(max_iterations=1000)
    p_bar = params_to_state(theta_bar).position
    p0, _, _, _ = refine(ybar, clean, p_bar, est)
    aoa = float(np.arctan2(p0[1], p0[0]))
    delay = float(np.hypot(p0[0], p0[1])) / SPEED_OF_LIGHT
    alpha = plug_in_gain(ybar, clean.eta(aoa, delay))
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
    clean: ProjectionModel,
    impaired: ProjectionModel,
    sigma_n: float,
    est: EstimatorConfig | None = None,
) -> BoundsReport:
    """Full misspecified-bound report for one impairment realization.

    The data follow the impaired model, the receiver fits the clean one.
    Also carries the clean-model CRB evaluated at the true parameter so the
    caller can form inflation ratios from a single object.
    """
    base = crb_m2_report(theta_bar, clean, sigma_n)
    ybar = impaired.mean(theta_bar)
    theta0 = pseudo_true(theta_bar, clean, ybar, est)
    derivs = model_derivatives(theta0, clean)
    eps = ybar - clean.mean(theta0)
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
