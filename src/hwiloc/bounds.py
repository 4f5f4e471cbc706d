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
with one (3, 3) product with the mismatch per pair. A stack's report is
one :class:`BoundsReport` of stacked arrays, and one guarded inverse
(:func:`_guarded_inverse`) serves the CRBs and the MCRB.

Parameters are ordered theta = [aoa, delay, gain_amp, gain_phase]
throughout; positional bounds use the state s = [p_x, p_y, gain_amp,
gain_phase] through the chain-rule Jacobian d theta / d s.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, fields, replace

import numpy as np

from .estimation import GRAD_TOLERANCE, INITIAL_STEP_M, Fits, NumericError, fitted_params
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    SystemConfig,
    params_to_positions,
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
    """Bound matrices and scalar summaries of one (theta, model) pair, or of
    a stack of n pairs: there every array field has a leading axis of n, a
    scalar is an (n,) array, and theta0 and errors are lists of n.

    The matched/clean CRB part is always present; where the CRB is
    undefined (a singular FIM) crb is NaN. The mismatch part (pseudo-true
    parameter, misspecified covariance and total lower bound) is filled only
    by :func:`mismatch_report` (through :func:`lb_report`); a draw of a
    stack whose misspecified bound failed has NaN there and the reason in
    errors.
    """

    fim: np.ndarray  # (..., 4, 4) information matrix in channel coordinates
    crb: np.ndarray  # (..., 4, 4) in state coordinates
    aeb_rad: float | np.ndarray
    deb_s: float | np.ndarray
    peb_m: float | np.ndarray
    theta0: ChannelParams | list[ChannelParams] | None = None
    mcrb: np.ndarray | None = None  # (..., 4, 4) A^-1 B A^-1 in channel coordinates
    lb_matrix: np.ndarray | None = None  # mcrb plus pseudo-true bias outer product
    lb_aeb_rad: float | np.ndarray | None = None
    lb_deb_s: float | np.ndarray | None = None
    lb_peb_m: float | np.ndarray | None = None
    errors: list[str | None] | None = None  # why each draw's lb failed, or None

    @property
    def aeb_deg(self) -> float | np.ndarray:
        return np.rad2deg(self.aeb_rad)

    @property
    def deb_m(self) -> float | np.ndarray:
        return self.deb_s * SPEED_OF_LIGHT

    def take(self, index: int | np.ndarray) -> "BoundsReport":
        """The report of one pair of a stack (index an integer), or the
        stack of the pairs at index (an integer array)."""

        def pick(v):
            if isinstance(v, list):
                return v[index] if np.ndim(index) == 0 else [v[i] for i in index]
            return None if v is None else v[index]

        return BoundsReport(**{f.name: pick(getattr(self, f.name)) for f in fields(self)})


# ---------------------------------------------------------------------------
# the factors of the link mean and the information matrix


def _stack(theta, model, sigma_n=1.0) -> tuple[bool, list, list, np.ndarray]:
    """(one, thetas, models, sigmas) of one (theta, model) pair, or of n:
    model a sequence of n, theta and sigma_n one for all or n each."""
    one = isinstance(model, ProjectionModel)
    models = [model] if one else list(model)
    thetas = [theta] * len(models) if isinstance(theta, ChannelParams) else list(theta)
    sigmas = np.broadcast_to(np.asarray(sigma_n, dtype=float), (len(models),))
    if not np.all(np.isfinite(sigmas) & (sigmas > 0)):
        raise ValueError("noise std must be positive and finite")
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


def _params(thetas: Sequence[ChannelParams]) -> np.ndarray:
    """n thetas as one (n, 4) array."""
    return np.array([t.as_array() for t in thetas])


def jacobian_state(thetas: Sequence[ChannelParams]) -> np.ndarray:
    """Chain-rule Jacobians J[i, j] = d theta_i / d s_j of n thetas,
    (n, 4, 4).

    With p = c*delay*(cos aoa, sin aoa):
        d aoa / d p   = (-sin aoa, cos aoa) / (c*delay)
        d delay / d p = (cos aoa, sin aoa) / c
    """
    aoa, tau = _params(thetas)[:, :2].T
    if np.any(tau <= 0):
        raise ValueError("delay must be positive")
    c, sa, ca = SPEED_OF_LIGHT, np.sin(aoa), np.cos(aoa)
    jac = np.zeros((len(aoa), N_PARAMS, N_PARAMS))
    jac[:, :2, :2] = np.moveaxis([[-sa / (c * tau), ca / (c * tau)], [ca / c, sa / c]], -1, 0)
    jac[:, 2, 2] = jac[:, 3, 3] = 1.0
    return jac


def root_bound(v: np.ndarray) -> np.ndarray:
    """sqrt(v) element-wise where the variance v is finite and positive,
    else inf: an inverse of a numerically singular information matrix can
    carry NaN or non-positive diagonals, and the component is then
    unidentifiable."""
    return np.sqrt(v, out=np.full(v.shape, np.inf), where=np.isfinite(v) & (v > 0.0))


def flat_coordinates(cfg: SystemConfig) -> list[int]:
    """The channel coordinates (0 the angle, 1 the delay) that the link cfg
    cannot identify, where its FIM is singular in exact arithmetic. With one
    antenna or one transmission the projection objective is flat in angle
    (the row gain |b_g|^2 cancels between the captured energy and its
    norm), with one subcarrier in range (|d_1| = 1)."""
    counts = (min(cfg.n_antennas, cfg.n_transmissions), cfg.n_subcarriers)
    return [i for i, count in enumerate(counts) if count < 2]


def _guarded_inverse(mats: np.ndarray, flat=(), middle: np.ndarray | None = None) -> np.ndarray:
    """Inverses M^-1 of a stack of matrices M, (n, 4, 4), or the sandwiches
    M^-1 middle M^-1 with middle a stack of the same shape. The coordinates
    in flat (:func:`flat_coordinates`) are dropped before M is inverted and
    are NaN in the result. A slice whose M is singular or not finite is NaN
    throughout, and no slice depends on the others: the stack is inverted
    in one call, slice by slice only when that call finds a singular one."""
    keep = [i for i in range(N_PARAMS) if i not in flat]
    block = np.ix_(range(len(mats)), keep, keep)
    m = mats[block]
    inv = np.full_like(m, np.nan)
    ok = np.flatnonzero(np.isfinite(m).all(axis=(1, 2)))
    try:
        inv[ok] = np.linalg.inv(m[ok])
    except np.linalg.LinAlgError:  # one by one, to leave out the singular ones
        for i in ok:
            with suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(m[i])
    out = np.full(mats.shape, np.nan)
    out[block] = inv if middle is None else inv @ middle[block] @ inv
    return out


def _crb_reports(info: np.ndarray, theta, model) -> BoundsReport:
    """Matched-bound report from the channel-coordinate FIMs info, (4, 4)
    or (n, 4, 4), of the pairs that :func:`_stack` reads from theta and
    model: one pair's report, or the stacked report of n. The models share
    one link's dimensions, as their stacked factors do.

    Each FIM's inverse (:func:`_guarded_inverse`) gives the AEB and DEB
    and, through T = inv(J) (:func:`jacobian_state`), the state CRB
    T inv(I) T^T = inv(J^T I J) and the PEB. Inverting I first keeps the
    bound where the angle and delay information lie many orders of
    magnitude apart (a very narrow band) and J^T I J would be numerically
    singular. A coordinate that the link cannot identify
    (:func:`flat_coordinates`) is left out of the inverse, where any finite
    diagonal would be rounding: its scalar and the peb are inf. Its
    derivative of the mean is a complex multiple of the mean, which the gain
    pair absorbs, so the other coordinate's bound stands."""
    one, thetas, models, _ = _stack(theta, model)
    info = info.reshape(-1, N_PARAMS, N_PARAMS)
    cov = _guarded_inverse(info, flat_coordinates(models[0].cfg))
    t = np.linalg.inv(jacobian_state(thetas))
    crb = t @ cov @ t.swapaxes(-1, -2)
    variances = (cov[:, 0, 0], cov[:, 1, 1], np.trace(crb[:, :2, :2], axis1=1, axis2=2))
    report = BoundsReport(info, crb, *map(root_bound, variances))
    return report.take(0) if one else report


def crb_m2_report(theta, clean, sigma_n) -> BoundsReport:
    """Analytic clean-model CRB report at theta, or the stacked report of n
    (theta, clean model) pairs (see :func:`fim`)."""
    return _crb_reports(fim(theta, clean, sigma_n), theta, clean)


# ---------------------------------------------------------------------------
# CRB of the impaired model


def fim_m1_numeric(theta, impaired, sigma_n) -> np.ndarray:
    """Impaired-model Fisher information, (4, 4) or (n, 4, 4): :func:`fim`
    with rows W C_full and the PA-distorted pilots. The delays must be
    positive, as for the position-domain bound built on top.

    It is closed form, as :func:`crb_m1_numeric` is; both keep their names
    only because perfbench/tracer.py wraps them by name."""
    if any(t.delay <= 0 for t in _stack(theta, impaired, sigma_n)[1]):
        raise ValueError("delay must be positive")
    return fim(theta, impaired, sigma_n)


def crb_m1_numeric(theta, impaired, sigma_n) -> BoundsReport:
    """Impaired-model CRB report at theta (one realization), or the stacked
    report of n (theta, impaired model) pairs; closed form, like
    :func:`fim_m1_numeric`."""
    return _crb_reports(fim_m1_numeric(theta, impaired, sigma_n), theta, impaired)


# ---------------------------------------------------------------------------
# misspecified analysis


def _wrap_phase(x):
    """x wrapped to (-pi, pi], element-wise."""
    return np.angle(np.exp(1j * x))


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
    fits = _descend(data, params_to_positions(_params(thetas)))
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
    (n, 4, 4), of stacked A and B, (n, 4, 4), with the coordinates in flat
    left out and a singular or non-finite A NaN (:func:`_guarded_inverse`)."""
    return _guarded_inverse(a_mat, flat, b_mat)


def mismatch_report(theta_bar, theta0, clean, ybar, sigma_n, clean_crb) -> BoundsReport:
    """Misspecified-bound report of one draw whose impaired mean ybar and
    pseudo-true theta0 are known: A and B at theta0, the MCRB and the total
    lower bound about theta_bar, the MCRB plus the outer product of the
    pseudo-true bias (phase wrapped), whose position bound maps the MCRB's
    angle/delay block through the inverse polar Jacobian at theta0 and adds
    the squared position offset. It carries clean_crb, the clean CRB report
    at theta_bar (:func:`crb_m2_report`), for inflation ratios. A coordinate
    that the link cannot identify is left out (:func:`mismatch_covariance`).

    n draws take sequences of n and clean_crb's stacked report (theta_bar
    and sigma_n may be one for all; the models share one link's
    dimensions) and give a stacked report: a draw whose bound failed (a
    singular A, a non-finite A or B) has NaN mismatch fields and its reason
    in errors. One draw raises NumericError with its reason.
    """
    one, theta_bars, models, sigmas = _stack(theta_bar, clean, sigma_n)
    theta0s, ybars = ([theta0], [ybar]) if one else (list(theta0), ybar)
    a_mat, b_mat = mismatch_matrices(theta0s, models, ybars, sigmas)
    mcrb = mismatch_covariance(a_mat, b_mat, flat_coordinates(models[0].cfg))
    finite = np.isfinite(a_mat).all(axis=(1, 2)) & np.isfinite(b_mat).all(axis=(1, 2))
    singular = np.isnan(mcrb).all(axis=(1, 2))
    singular_or_none = np.where(singular, "curvature matrix A is singular", None)
    errors = np.where(finite, singular_or_none, "curvature or score matrix is non-finite").tolist()
    if one and errors[0] is not None:
        raise NumericError(errors[0])
    failed = ~finite | singular
    mcrb[failed] = np.nan
    bar, est = _params(theta_bars), _params(theta0s)
    bias = bar - est
    bias[:, 3] = _wrap_phase(bias[:, 3])
    total = mcrb + bias[:, :, None] * bias[:, None, :]
    t = np.linalg.inv(jacobian_state(theta0s)[:, :2, :2])
    pos_cov = t @ mcrb[:, :2, :2] @ t.swapaxes(-1, -2)
    offset = np.sum((params_to_positions(bar) - params_to_positions(est)) ** 2, axis=-1)
    aeb, deb, peb = (
        np.where(failed, np.nan, root_bound(v))
        for v in (total[:, 0, 0], total[:, 1, 1], np.trace(pos_cov, axis1=1, axis2=2) + offset)
    )
    mismatch = dict(
        theta0=theta0s, mcrb=mcrb, lb_matrix=total, lb_aeb_rad=aeb, lb_deb_s=deb, lb_peb_m=peb,
        errors=errors,
    )
    if one:
        mismatch = {name: v[0] for name, v in mismatch.items()}
    return replace(clean_crb, **mismatch)


def lb_report(
    theta_bar: ChannelParams, clean: ProjectionModel, impaired: ProjectionModel, sigma_n: float
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
