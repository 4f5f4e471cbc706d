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
built by the caller, for one (theta, model) pair or a stack of n, each
pair's values independent of the stack. Every derivative of a mean is a
gain factor times a product of its factors, the row gains W C [a, a', a'']
and the delay phasors (:func:`model_derivatives`), and every bound
contracts these factors: the FIM with each model's pilot moments, A and B
with one (3, 3) product with the mismatch per pair.

Parameters are ordered theta = [aoa, delay, gain_amp, gain_phase]
throughout; positional bounds use the state s = [p_x, p_y, gain_amp,
gain_phase] through the chain-rule Jacobian d theta / d s.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .estimation import GRAD_TOLERANCE, INITIAL_STEP_M, Fits, NumericError, fitted_params
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    SystemConfig,
    params_to_state,
    steering_derivatives,
)
from .observation import FitData, ProjectionModel

N_PARAMS = 4
# orders in (aoa, delay, amp, phase) of each first derivative, [i, order],
# and of each second derivative, [i, j, order]
_FIRST_ORDERS = np.eye(N_PARAMS, dtype=int)
_SECOND_ORDERS = _FIRST_ORDERS[:, None, :] + _FIRST_ORDERS[None, :, :]
# FIM entry (i, j) reads first derivatives (lo, hi) = (min, max)(i, j), so it
# is exactly symmetric, at their (aoa, delay) orders' slots of the gram
_ROW, _COL = np.indices((N_PARAMS, N_PARAMS))
_LO, _HI = np.minimum(_ROW, _COL), np.maximum(_ROW, _COL)
_GRAM = tuple(2 * _FIRST_ORDERS[_LO, k] + _FIRST_ORDERS[_HI, k] for k in (0, 1))


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
# the factors of the link mean and the information matrix


def _stack(theta, model, sigma_n=1.0) -> tuple[bool, list, list, np.ndarray]:
    """(one, thetas, models, sigmas) of one (theta, model) pair, or of n:
    model a sequence of n, theta and sigma_n one for all or n each."""
    one = isinstance(model, ProjectionModel)
    models = [model] if one else list(model)
    thetas = [theta] * len(models) if isinstance(theta, ChannelParams) else list(theta)
    sigmas = np.broadcast_to(np.asarray(sigma_n, dtype=float), (len(models),))
    if np.any(sigmas <= 0):
        raise ValueError("noise std must be positive")
    return one, thetas, models, sigmas


def model_derivatives(thetas, models) -> tuple[np.ndarray, np.ndarray]:
    """The factors of the means of n (theta, model) pairs before their
    sandwich: the row gains b = W C [a, a', a''], (n, G, 3), each product
    (W C) v as in :meth:`~hwiloc.observation.FitData.captured_energy`, and
    the delay phasors d, (n, K), whose j-th delay derivative is
    ring_powers[:, j] * d. The mean's derivative of orders (i, j, n_amp,
    n_phase) is :func:`gain_factors` times b[:, i] * ring_powers[:, j] * d
    * x~; M_g, unitary and theta-free, multiplies it on the impaired chain."""
    rows = np.array([m.row_matrix for m in models])  # (n, G, N)
    aoa = np.array([t.aoa for t in thetas])[:, None]
    steer = np.stack(steering_derivatives(aoa, rows.shape[-1]), axis=-1)  # (n, N, 3)
    ring = np.array([m.ring_powers[:, 1] for m in models])
    return rows @ steer, np.exp(ring * np.array([t.delay for t in thetas])[:, None])


def gain_factors(thetas: Sequence[ChannelParams], orders: np.ndarray) -> np.ndarray:
    """Derivatives of alpha = gain_amp * exp(-1j*gain_phase) of n thetas,
    (n, ...), of orders (..., 4) in (aoa, delay, amp, phase): (gain_amp, 1,
    0)[n_amp] * (1, -1j, -1)[n_phase] * exp(-1j*gain_phase), read from tables
    so the amp-amp factor is exactly zero."""
    amp = np.array([[t.gain_amp, 1.0, 0.0] for t in thetas])[:, orders[..., 2]]
    phase = np.array([1.0, -1j, -1.0])[orders[..., 3]]
    rotation = np.exp(-1j * np.array([t.gain_phase for t in thetas]))
    return amp * phase * rotation.reshape((-1,) + (1,) * phase.ndim)


def mean_derivatives(theta: ChannelParams, model: ProjectionModel, orders: np.ndarray):
    """Derivatives of orders (..., 4) of one pair's mean before its sandwich,
    (..., G, K), from the factors as :func:`model_derivatives` says: what the
    bounds contract without forming, for `validate` to check."""
    b, d = model_derivatives([theta], [model])
    delays = (model.ring_powers * d[0][:, None]).T  # (3, K)
    table = b[0].T[:, None, :, None] * (delays[None, :, None, :] * model.eff_pilots)
    return gain_factors([theta], orders)[0][..., None, None] * table[orders[..., 0], orders[..., 1]]


def fim(theta, model, sigma_n) -> np.ndarray:
    """Fisher information of a link model in channel coordinates, (4, 4),
    or of n (theta, model) pairs, (n, 4, 4) (see :func:`_stack`): (2/sigma^2)
    Re[conj(c_i) c_j sum_g conj(b_g^(p_i)) b_g^(p_j) P_g[q_i, q_j]] for first
    derivatives of gain factors c and (aoa, delay) orders (p, q), with the
    factors b of :func:`model_derivatives` and the pilot moments P_g of the
    model.

    The impaired mean is M_g v_g(theta) per transmission, with M_g the
    phase-noise/CFO sandwich. M_g is unitary and does not depend on theta,
    so <M_g dv_i, M_g dv_j> = <dv_i, dv_j>: the derivatives of v_g give the
    information of either chain, and the sandwich is never built. Singular
    matrices are legitimate (e.g. a single antenna carries no angle
    information) and are returned as-is.
    """
    one, thetas, models, sigmas = _stack(theta, model, sigma_n)
    b = model_derivatives(thetas, models)[0]
    n, g = b.shape[:2]
    c = gain_factors(thetas, _FIRST_ORDERS)  # (n, 4)
    moments = np.array([m.pilot_moments for m in models]).reshape(n, g, 4)
    pairs = (b[..., :2, None].conj() * b[..., None, :2]).reshape(n, g, 4)
    gram = pairs.swapaxes(-1, -2) @ moments  # [2 p_i + p_j, 2 q_i + q_j], (n, 4, 4)
    products = c[:, _LO].conj() * c[:, _HI] * gram[:, _GRAM[0], _GRAM[1]]
    info = (2.0 / sigmas**2)[:, None, None] * products.real
    return info[0] if one else info


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


def flat_coordinates(cfg: SystemConfig) -> list[int]:
    """The channel coordinates (0 the angle, 1 the delay) that the link cfg
    cannot identify, where its FIM is singular in exact arithmetic. With one
    antenna or one transmission the projection objective is flat in angle
    (the row gain |b_g|^2 cancels between the captured energy and its
    norm), with one subcarrier in range (|d_1| = 1)."""
    counts = (min(cfg.n_antennas, cfg.n_transmissions), cfg.n_subcarriers)
    return [i for i, count in enumerate(counts) if count < 2]


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


def _crb_reports(info: np.ndarray, theta, model) -> BoundsReport | list:
    """Matched-bound reports from the channel-coordinate FIMs info, (4, 4)
    or (n, 4, 4), of the pairs that :func:`_stack` reads from theta and
    model: one report, or a list of n.

    A coordinate that the link cannot identify (:func:`flat_coordinates`)
    is left out of the inverse, where any finite diagonal would be
    rounding: its scalar and peb are inf. Its derivative of the mean is a
    complex multiple of the mean, which the gain pair absorbs, so leaving it
    out does not change the other coordinate's bound."""
    one, thetas, models, _ = _stack(theta, model)
    reports = []
    for info_i, theta_i, model_i in zip(info.reshape(-1, N_PARAMS, N_PARAMS), thetas, models):
        flat, crb = flat_coordinates(model_i.cfg), None
        if not flat:
            try:
                crb = crb_state(info_i, jacobian_state(theta_i))
            except NumericError:
                pass
        reports.append(BoundsReport(info_i, crb, *scalar_bounds(info_i, crb, flat)))
    return reports[0] if one else reports


def crb_m2_report(theta, clean, sigma_n) -> BoundsReport | list[BoundsReport]:
    """Analytic clean-model CRB report at theta, or the list of reports of
    n (theta, clean model) pairs (see :func:`fim`)."""
    return _crb_reports(fim(theta, clean, sigma_n), theta, clean)


# ---------------------------------------------------------------------------
# CRB of the impaired model


def fim_m1_numeric(theta, impaired, sigma_n) -> np.ndarray:
    """Impaired-model Fisher information, (4, 4) or (n, 4, 4): :func:`fim`
    with rows W C_full and the PA-distorted pilots. The delays must be
    positive, as for the position-domain bound built on top."""
    if any(t.delay <= 0 for t in _stack(theta, impaired, sigma_n)[1]):
        raise ValueError("delay must be positive")
    return fim(theta, impaired, sigma_n)


def crb_m1_numeric(theta, impaired, sigma_n) -> BoundsReport | list[BoundsReport]:
    """Impaired-model CRB report at theta (one realization), or the list of
    reports of n (theta, impaired model) pairs."""
    return _crb_reports(fim_m1_numeric(theta, impaired, sigma_n), theta, impaired)


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
    one, thetas, cleans, _ = _stack(theta_bar, clean)
    ybars = [ybar] if one else ybar
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


def mismatch_matrices(thetas, models, ybars, sigmas) -> tuple[np.ndarray, np.ndarray]:
    """The matrices A and B, each (n, 4, 4), of n (theta, model) pairs with
    data means ybars and noise stds sigmas, eps = ybar - mean:

        A_ij = (2/sigma^2) Re<d2 mu_ij, eps> - I_ij,
        B_ij = (4/sigma^4) Re<d mu_i, eps> Re<d mu_j, eps> + I_ij,

    <u, v> = sum conj(u) v; at zero mismatch A = -I and B = I. Each eps,
    pulled through its model's rotation, is formed on its own (a stack holds
    no (n, G, K) array beyond its means) into one (3, 3) product S = b^H
    ((conj(x~) * eps) conj([d, r d, r^2 d])): <b^(i) r^j d x~, eps> = conj(S_ij).
    """
    sigmas = np.asarray(sigmas, dtype=float)
    b, d = model_derivatives(thetas, models)
    s = np.empty((len(models), 3, 3), dtype=complex)
    for i, (theta, model, ybar) in enumerate(zip(thetas, models, ybars)):
        x = model.eff_pilots
        eps = model.pulled_observation(ybar) - theta.gain * (b[i, :, :1] * (d[i] * x))
        delay = model.ring_powers * d[i][:, None]  # (K, 3)
        s[i] = b[i].conj().T @ ((np.conj(x) * eps) @ delay.conj())
    c = gain_factors(thetas, _FIRST_ORDERS)
    c2 = gain_factors(thetas, _SECOND_ORDERS)
    score = (c.conj() * s[:, _FIRST_ORDERS[:, 0], _FIRST_ORDERS[:, 1]]).real  # (n, 4)
    curv = (c2.conj() * s[:, _SECOND_ORDERS[..., 0], _SECOND_ORDERS[..., 1]]).real
    info = fim(thetas, models, sigmas)
    a_mat = (2.0 / sigmas**2)[:, None, None] * curv - info
    b_mat = (4.0 / sigmas**4)[:, None, None] * (score[:, :, None] * score[:, None, :]) + info
    return a_mat, b_mat


def mismatch_covariance(a_mat: np.ndarray, b_mat: np.ndarray, flat=()) -> np.ndarray:
    """Asymptotic covariances A^-1 B A^-1 of the mismatched estimator,
    (n, 4, 4), of stacked A and B, (n, 4, 4).

    The coordinates in flat (:func:`flat_coordinates`) are left out, as
    :func:`scalar_bounds` leaves them out of the CRBs: their rows and
    columns are dropped before A is inverted and are NaN in the result. A
    slice whose A is singular or not finite is NaN throughout; no slice
    depends on the others.
    """
    keep = [i for i in range(N_PARAMS) if i not in flat]
    block = np.ix_(range(len(a_mat)), keep, keep)
    a = a_mat[block]
    a_inv = np.full_like(a, np.nan)
    ok = np.flatnonzero(np.isfinite(a).all(axis=(1, 2)))
    try:
        a_inv[ok] = np.linalg.inv(a[ok])
    except np.linalg.LinAlgError:  # one by one, to leave out the singular ones
        for i in ok:
            with suppress(np.linalg.LinAlgError):
                a_inv[i] = np.linalg.inv(a[i])
    out = np.full(a_mat.shape, np.nan)
    out[block] = a_inv @ b_mat[block] @ a_inv
    return out


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


def mismatch_report(theta_bar, theta0, clean, ybar, sigma_n, clean_crb) -> BoundsReport | list:
    """Misspecified-bound report of one draw whose impaired mean ybar and
    pseudo-true theta0 are known: the matrices A and B at theta0, the MCRB
    and the total lower bound about theta_bar. Also carries clean_crb, the
    clean model's CRB report at theta_bar (:func:`crb_m2_report`), so the
    caller can form inflation ratios from a single object. A coordinate that
    the link cannot identify is left out (:func:`mismatch_covariance`).

    n draws take sequences of n (theta_bar and sigma_n may be one for all;
    the models share one link) and give a list of n: each draw's report or
    the reason its bound failed, a singular A or a non-finite A or B. One
    draw raises NumericError with its reason.
    """
    one, theta_bars, models, sigmas = _stack(theta_bar, clean, sigma_n)
    theta0s, ybars, crbs = ([theta0], [ybar], [clean_crb]) if one else (theta0, ybar, clean_crb)
    a_mat, b_mat = mismatch_matrices(theta0s, models, ybars, sigmas)
    mcrbs = mismatch_covariance(a_mat, b_mat, flat_coordinates(models[0].cfg))
    finite = np.isfinite(a_mat).all(axis=(1, 2)) & np.isfinite(b_mat).all(axis=(1, 2))
    out: list[BoundsReport | str] = []
    for bar, t0, mcrb, crb, ok in zip(theta_bars, theta0s, mcrbs, crbs, finite):
        if not ok:
            out.append("curvature or score matrix is non-finite")
        elif np.isnan(mcrb).all():
            out.append("curvature matrix A is singular")
        else:
            total = lb_matrix(bar, t0, mcrb)
            out.append(
                replace(
                    crb,
                    theta0=t0,
                    mcrb=mcrb,
                    lb_matrix=total,
                    lb_aeb_rad=root_bound(total[0, 0]),
                    lb_deb_s=root_bound(total[1, 1]),
                    lb_peb_m=lb_position(bar, t0, mcrb),
                )
            )
    if one and isinstance(out[0], str):
        raise NumericError(out[0])
    return out[0] if one else out


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
