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
built once per pilot block and realization by the caller. The first and
second derivatives of a mean (:func:`model_derivatives`) are products of the
model's factor derivatives (:meth:`ProjectionModel.factors`) and a gain
factor; the FIM and both MCRB matrices A and B are contractions of them.

Parameters are ordered theta = [aoa, delay, gain_amp, gain_phase]
throughout; positional bounds use the state s = [p_x, p_y, gain_amp,
gain_phase] through the chain-rule Jacobian d theta / d s.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .estimation import GRAD_TOLERANCE, INITIAL_STEP_M, Fits, NumericError, fitted_params
from .model import SPEED_OF_LIGHT, ChannelParams, SystemConfig, params_to_state
from .observation import FitData, ProjectionModel

N_PARAMS = 4
# orders in (aoa, delay, amp, phase) of each first derivative, [order, i],
# and each second derivative, [order, i, j]
_FIRST_ORDERS = np.eye(N_PARAMS, dtype=int)
_SECOND_ORDERS = _FIRST_ORDERS[:, :, None] + _FIRST_ORDERS[:, None, :]
# the (aoa, delay) orders i + j <= 2 that those derivatives read, by total
# order (the first three serve the first derivatives), and the slot of each
# order pair among them
_PRODUCT_AOA = np.array([0, 0, 1, 0, 1, 2])
_PRODUCT_DELAY = np.array([0, 1, 0, 2, 1, 0])
_FIRST_PRODUCTS = 3
_PRODUCT_SLOT = np.zeros((3, 3), dtype=int)
_PRODUCT_SLOT[_PRODUCT_AOA, _PRODUCT_DELAY] = np.arange(_PRODUCT_AOA.size)


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
    is filled only by :func:`mismatch_report` (through :func:`lb_report`).
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
    x~_{g,k}, so a derivative of orders (n_aoa, n_delay, n_amp, n_phase)
    is the gain factor times e[n_aoa, n_delay] = b^(n_aoa) d^(n_delay) x~,
    built from :meth:`ProjectionModel.factors` for the six pairs n_aoa +
    n_delay <= 2 that a second derivative reaches. For the clean model these
    are the derivatives of its mean; the impaired mean is M_g times this
    one, with M_g unitary and theta-free. With alpha = gain_amp *
    exp(-1j*gain_phase) the gain factor is (gain_amp, 1, 0)[n_amp] *
    (1, -1j, -1)[n_phase] * exp(-1j*gain_phase), read from tables so the
    amp-amp derivative is exactly zero and second is exactly symmetric.
    """
    return ModelDerivatives(*_derivatives(theta, model, second=True))


def first_derivatives(theta: ChannelParams, model: ProjectionModel) -> np.ndarray:
    """The first derivatives of :func:`model_derivatives`, (4, G, K), bit for
    bit, from the three products n_aoa + n_delay <= 1 alone."""
    return _derivatives(theta, model, second=False)[0]


def _derivatives(
    theta: ChannelParams, model: ProjectionModel, second: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    if theta.delay < 0:
        raise ValueError("delay must be non-negative")
    b, d = model.factors(theta.aoa, theta.delay)
    n = _PRODUCT_AOA.size if second else _FIRST_PRODUCTS
    dx = d.T[: 3 if second else 2, None, :] * model.eff_pilots  # (delay order, G, K)
    e = b.T[_PRODUCT_AOA[:n], :, None] * dx[_PRODUCT_DELAY[:n]]  # (n, G, K)
    amp = np.array([theta.gain_amp, 1.0, 0.0])
    phase = np.array([1.0, -1j, -1.0])
    rotation = np.exp(-1j * theta.gain_phase)

    def derivative(orders: np.ndarray) -> np.ndarray:
        n_aoa, n_delay, n_amp, n_phase = orders
        gain = amp[n_amp] * phase[n_phase] * rotation
        out = e[_PRODUCT_SLOT[n_aoa, n_delay]]  # a copy: advanced indexing
        return np.multiply(gain[..., None, None], out, out=out)

    return derivative(_FIRST_ORDERS), derivative(_SECOND_ORDERS) if second else None


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
    information of either chain, and the sandwich is never built. Only the
    first derivatives are built (:func:`first_derivatives`). Singular
    matrices are legitimate (e.g. a single antenna carries no angle
    information) and are returned as-is.
    """
    return fim_from_first_derivatives(first_derivatives(theta, model), sigma_n)


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
    """CRB in state coordinates, inv(J^T I J), formed as T inv(I) T^T with
    T = inv(J): for :func:`jacobian_state`, the inverse polar Jacobian that
    :func:`lb_position` maps the MCRB with. Inverting the channel-coordinate
    information first keeps the bound when the angle and delay information
    lie many orders of magnitude apart (a very narrow band), where J^T I J
    mixes them into a numerically singular matrix. Raises on singularity.
    """
    try:
        t = np.linalg.inv(jac)
        cov = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"information matrix is singular (cond {np.linalg.cond(info):.3e})"
        ) from exc
    return t @ cov @ t.T


def root_bound(v: float) -> float:
    """sqrt(v) when the variance v is finite and positive, else inf: an
    inverse of a numerically singular information matrix can carry NaN or
    non-positive diagonals, and the component is then unidentifiable."""
    return float(np.sqrt(v)) if np.isfinite(v) and v > 0.0 else np.inf


def flat_scalars(cfg: SystemConfig) -> set[str]:
    """The bound scalars that the link cfg cannot identify. With one antenna
    or one transmission the projection objective is flat in angle (the row
    gain |b_g|^2 cancels between the captured energy and its norm): aeb and
    peb. With one subcarrier it is flat in range (|d_1| = 1): deb and peb.
    The FIM of such a link is singular in exact arithmetic."""
    flat = set()
    if min(cfg.n_antennas, cfg.n_transmissions) < 2:
        flat |= {"aeb", "peb"}
    if cfg.n_subcarriers < 2:
        flat |= {"deb", "peb"}
    return flat


def scalar_bounds(
    info: np.ndarray, crb: np.ndarray | None, flat: Sequence[int] = ()
) -> tuple[float, float, float]:
    """Root bounds (aeb rad, deb s, peb m): AEB/DEB from the
    channel-coordinate bound, PEB from the state one.

    The channel coordinates in flat (0 the angle, 1 the delay) are left
    out: their rows and columns are dropped before info is inverted, and
    their scalars are inf. A singular information matrix means some
    component is unidentifiable; the affected scalars come out infinite
    (see :func:`root_bound`) rather than raising.
    """
    keep = [i for i in range(N_PARAMS) if i not in flat]
    var = np.full(N_PARAMS, np.inf)
    try:
        var[keep] = np.linalg.inv(info[keep][:, keep]).diagonal()
        aeb, deb = root_bound(var[0]), root_bound(var[1])
    except np.linalg.LinAlgError:
        aeb = deb = np.inf
    peb = root_bound(np.trace(crb[:2, :2])) if crb is not None else np.inf
    return aeb, deb, peb


def _crb_report(info: np.ndarray, theta: ChannelParams, cfg: SystemConfig) -> BoundsReport:
    """Matched-bound report from a channel-coordinate FIM at theta on the
    link cfg.

    A coordinate that the link cannot identify (:func:`flat_scalars`) is
    left out of the inverse, where any finite diagonal would be rounding:
    its scalar and peb are inf. Its derivative of the mean is a complex
    multiple of the mean, which the gain pair absorbs, so leaving it out
    does not change the other coordinate's bound."""
    flat = [i for i, scalar in enumerate(("aeb", "deb")) if scalar in flat_scalars(cfg)]
    crb = None
    if not flat:
        try:
            crb = crb_state(info, jacobian_state(theta))
        except NumericError:
            pass
    return BoundsReport(info, crb, *scalar_bounds(info, crb, flat))


def crb_m2_report(theta: ChannelParams, clean: ProjectionModel, sigma_n: float) -> BoundsReport:
    """Analytic clean-model CRB report at theta."""
    return _crb_report(fim(theta, clean, sigma_n), theta, clean.cfg)


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
    return _crb_report(fim_m1_numeric(theta, impaired, sigma_n), theta, impaired.cfg)


# ---------------------------------------------------------------------------
# misspecified analysis


def _wrap_phase(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


# The pseudo-true fit keeps the estimators' former central-difference
# descent, because perfbench/reference/bounds_full.csv encodes the point
# where it stalls (a converged fit moves lb rows by up to 4.5e-6, past the
# 1e-6 gate). Its objective is FitData.objective, whose rounding is fixed
# with it: a 1-ulp change there moves the stall. The descent goes once that
# reference is regenerated from a converged fit (ROADMAP item 1); the same
# FitData then goes to estimation.refine.
FD_STEP = 1e-6  # relative central-difference step
MAX_DESCENT_ITERATIONS = 1000
ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5
STEP_FLOOR_M = 1e-12  # line-search stall threshold


def _descend(data: FitData, starts: np.ndarray) -> Fits:
    """Gradient descents on position with Armijo backtracking for T fits in
    lockstep, from their starting positions (T, 2).

    Each objective is :meth:`FitData.objective` normalized by ||u||^2 so
    the gradient tolerance is scale-free. Gradients come from central
    differences with relative step FD_STEP, the four points of every fit in
    one evaluation. A fit stops with one of these reasons:

    * ``gradient``: the gradient norm is below GRAD_TOLERANCE;
    * ``stalled``: the line search found no decrease at any step down to
      STEP_FLOOR_M, the numerical minimum;
    * ``max_iter``: MAX_DESCENT_ITERATIONS iterations ran out.

    Each fit keeps its own line-search step and leaves the active set when
    it stops; its iterates are bit for bit those of a descent on it alone,
    and its objective sequence is non-increasing. A fit whose observation
    has no energy, or whose objective or gradient turns non-finite, ends as
    ``failed`` with the reason in ``errors``; the others go on.
    """
    out = Fits.empty(data.yy.size)
    out.starts[:] = starts
    ids = np.arange(data.yy.size)
    usable = np.isfinite(data.yy) & (data.yy > 0.0)
    if not usable.all():
        out.fail(ids[~usable], "observation energy must be positive and finite")
        ids, data = ids[usable], data.take(usable)
    p = out.starts[ids]  # (T, 2), a copy
    fp = data.objective(*p.T) / data.yy
    ok = np.isfinite(fp)
    if not ok.all():
        out.fail(ids[~ok], "objective is non-finite at the starting point")
        ids, data, p, fp = ids[ok], data.take(ok), p[ok], fp[ok]
    step = np.full(ids.size, INITIAL_STEP_M)

    def settle(done: np.ndarray, reason: str) -> None:
        out.positions[ids[done]] = p[done]
        out.objectives[ids[done]] = fp[done] * data.yy[done]
        out.stops[ids[done]] = reason

    for it in range(1, MAX_DESCENT_ITERATIONS + 1):
        if not ids.size:
            break
        out.n_iterations[ids] = it
        h = FD_STEP * np.maximum(np.abs(p), 1.0)
        (px, py), (hx, hy) = p.T, h.T
        f = data.objective(
            np.array([px + hx, px - hx, px, px]), np.array([py, py, py + hy, py - hy])
        ) / data.yy
        # contiguous (T, 2) rows: each (1, 2) @ (2, 1) product is the
        # unit-stride BLAS dot that np.linalg.norm takes, so gnorm is the
        # norm of a descent on one fit (g0*g0 + g1*g1 can round differently)
        grad = np.ascontiguousarray(((f[0::2] - f[1::2]) / (2.0 * h.T)).T)
        gnorm = np.sqrt(grad[:, None, :] @ grad[:, :, None])[:, 0, 0]
        broken = ~np.isfinite(gnorm)
        if broken.any():
            out.fail(ids[broken], "gradient is non-finite during refinement")
        small = gnorm < GRAD_TOLERANCE
        if small.any():
            settle(small, "gradient")
        done = broken | small
        if done.any():
            keep = ~done
            ids, data, p, fp = ids[keep], data.take(keep), p[keep], fp[keep]
            step, grad, gnorm = step[keep], grad[keep], gnorm[keep]
        direction = -grad / gnorm[:, None]
        # each fit halves its own trial step s until the Armijo condition
        # holds; one that reaches the floor has stalled
        s = np.minimum(INITIAL_STEP_M, 2.0 * step)
        pending = np.ones(ids.size, dtype=bool)
        while (j := np.flatnonzero(pending & (s >= STEP_FLOOR_M))).size:
            cand = p[j] + s[j, None] * direction[j]
            c_data = data if j.size == ids.size else data.take(j)
            fc = c_data.objective(*cand.T) / c_data.yy
            ok = np.isfinite(fc) & (fc <= fp[j] - ARMIJO_SLOPE * s[j] * gnorm[j])
            moved = j[ok]
            p[moved], fp[moved], step[moved] = cand[ok], fc[ok], s[moved]
            pending[moved] = False
            s[j[~ok]] *= ARMIJO_SHRINK
        if pending.any():
            settle(pending, "stalled")
            keep = ~pending
            ids, data, p, fp, step = ids[keep], data.take(keep), p[keep], fp[keep], step[keep]
    settle(np.ones(ids.size, dtype=bool), "max_iter")
    return out


def pseudo_true(
    theta_bar: ChannelParams | Sequence[ChannelParams],
    clean: ProjectionModel | Sequence[ProjectionModel],
    ybar: np.ndarray | Sequence[np.ndarray],
) -> ChannelParams | tuple[list[ChannelParams | None], Fits]:
    """Parameter the mismatched receiver converges to without noise.

    Minimizes the clean model's projection objective against the noise-free
    impaired mean ybar at theta_bar, descending from the true parameter
    (the mismatch offsets are small, so the global basin is the local one).
    The gain pair comes from the plug-in estimate at the refined position;
    its phase is unwrapped to the branch nearest the true phase so
    downstream bias terms stay wrap-free.

    For one draw, clean is its model and ybar its mean; returns the
    pseudo-true, or raises NumericError if the fit fails. R draws are fitted
    together in one descent (:func:`_descend`) when clean and ybar are
    sequences of R models and means, and theta_bar is one true parameter for
    all or a sequence of R: returns the R pseudo-trues, None for a failed
    fit, and the descent's :class:`~hwiloc.estimation.Fits`, whose stops and
    errors say how each fit ended. One draw is a batch of one.
    """
    one = isinstance(clean, ProjectionModel)
    cleans, ybars = ([clean], [ybar]) if one else (clean, ybar)
    shared = isinstance(theta_bar, ChannelParams)
    thetas = [theta_bar] * len(cleans) if shared else theta_bar
    data = FitData.empty(cleans[0].cfg, len(cleans))
    for i, (model, y) in enumerate(zip(cleans, ybars)):
        data.put(i, model.row_matrix, model.eff_pilots, model.pulled_observation(y)[None])
    fits = _descend(data, np.array([params_to_state(t).position for t in thetas]))
    params: list[ChannelParams | None] = [None] * len(cleans)
    for i, (model, y, error, theta) in enumerate(zip(cleans, ybars, fits.errors, thetas)):
        if error is None:
            fit = fitted_params(y, model, fits.positions[i])
            phase = theta.gain_phase + _wrap_phase(fit.gain_phase - theta.gain_phase)
            params[i] = replace(fit, gain_phase=float(phase))
    if not one:
        return params, fits
    if params[0] is None:
        raise NumericError(fits.errors[0])
    return params[0]


def matrix_a(derivs: ModelDerivatives, eps: np.ndarray, sigma_n: float) -> np.ndarray:
    """Expected curvature of the mismatched log-likelihood at theta0.

    A_ij = (2/sigma^2) Re[<d2 mu_ij, eps> - <d mu_i, d mu_j>] with
    <u, v> = sum conj(u) v and eps the noise-free model mismatch. At zero
    mismatch this is minus the information matrix.
    """
    curv = (derivs.second.reshape(N_PARAMS, N_PARAMS, -1) @ np.conj(eps).ravel()).real
    return (2.0 / sigma_n**2) * curv - fim_from_first_derivatives(derivs.first, sigma_n)


def matrix_b(derivs: ModelDerivatives, eps: np.ndarray, sigma_n: float) -> np.ndarray:
    """Covariance of the mismatched score at theta0.

    B_ij = (4/sigma^4) Re<d mu_i, eps> Re<d mu_j, eps>
         + (2/sigma^2) Re<d mu_i, d mu_j>; at zero mismatch this is the
    information matrix.
    """
    score = (derivs.first.reshape(N_PARAMS, -1) @ np.conj(eps).ravel()).real
    return (4.0 / sigma_n**4) * np.outer(score, score) + fim_from_first_derivatives(
        derivs.first, sigma_n
    )


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
    return root_bound(np.trace(pos_cov) + np.sum((p_bar - p0) ** 2))


def mismatch_report(
    theta_bar: ChannelParams,
    theta0: ChannelParams,
    clean: ProjectionModel,
    ybar: np.ndarray,
    sigma_n: float,
    clean_crb: BoundsReport,
) -> BoundsReport:
    """Misspecified-bound report of one draw whose impaired mean ybar and
    pseudo-true theta0 are known: the matrices A and B at theta0, the MCRB
    and the total lower bound about theta_bar. Also carries clean_crb, the
    clean model's CRB report at theta_bar (:func:`crb_m2_report`), so the
    caller can form inflation ratios from a single object; draws that share
    a clean model share it.
    """
    derivs = model_derivatives(theta0, clean)
    eps = ybar - clean.mean(theta0)
    a_mat = matrix_a(derivs, eps, sigma_n)
    b_mat = matrix_b(derivs, eps, sigma_n)
    mcrb = mismatch_covariance(a_mat, b_mat)
    total = lb_matrix(theta_bar, theta0, mcrb)
    return replace(
        clean_crb,
        theta0=theta0,
        mcrb=mcrb,
        lb_matrix=total,
        lb_aeb_rad=root_bound(total[0, 0]),
        lb_deb_s=root_bound(total[1, 1]),
        lb_peb_m=lb_position(theta_bar, theta0, mcrb),
    )


def lb_report(
    theta_bar: ChannelParams,
    clean: ProjectionModel,
    impaired: ProjectionModel,
    sigma_n: float,
) -> BoundsReport:
    """Full misspecified-bound report for one impairment realization.

    The data follow the impaired model, the receiver fits the clean one:
    :func:`mismatch_report` at the pseudo-true of the impaired mean.
    """
    ybar = impaired.mean(theta_bar)
    theta0 = pseudo_true(theta_bar, clean, ybar)
    return mismatch_report(
        theta_bar, theta0, clean, ybar, sigma_n, crb_m2_report(theta_bar, clean, sigma_n)
    )
