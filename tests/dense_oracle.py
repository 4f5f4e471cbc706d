"""Dense oracles of the factored bounds in hwiloc.bounds.

The bounds contract the factors of a link mean (its row gains and delay
phasors) and never form a derivative per sample. These helpers do: they
build every first and second derivative of the mean before its sandwich as
(4, G, K) and (4, 4, G, K) tensors and contract them sample by sample into
the FIM and the misspecified bound's A and B, the textbook forms the
factored algebra must reproduce.

dense_mean is one link's mean as the bounds sweep forms the impaired
means it fits: b = W (C a) one matrix-vector product at a time, and M_g as
the dense (G, K, K) sandwich, not by FFT. stack_links makes one model
stack of single links.

sequential_descent is the pseudo-true descent with the plain line search,
one halving per objective call, that the blocked search must reproduce.

plug_in_gain is the closed-form gain of one observation at one mean, as
np.vdot gives it, that the stacked gains of fitted_params reproduce.

generator_draws is the sweep points' draws from one generator per index
and point, each realization drawn at the point's own spreads, that the
harness's units, drawn once per sweep and scaled per point, must
reproduce.
"""

import numpy as np

from hwiloc.bounds import (
    ARMIJO_SHRINK,
    ARMIJO_SLOPE,
    FD_STEP,
    MAX_DESCENT_ITERATIONS,
    STEP_FLOOR_M,
    mean_derivatives,
    model_derivatives,
)
from hwiloc.estimation import GRAD_TOLERANCE, INITIAL_STEP_M, Fits
from hwiloc.impairments import mc_matrix, sample_realization
from hwiloc.model import delay_vector, generate_pilots, steering_derivatives, steering_vector
from hwiloc.observation import ProjectionModel, sandwich_matrices, transmit_pilots, unit_noise

EYE = np.eye(4, dtype=int)
# orders in (aoa, delay, amp, phase) of each first derivative, [i, order],
# and of each second derivative, [i, j, order]
FIRST_ORDERS = EYE
SECOND_ORDERS = EYE[:, None, :] + EYE[None, :, :]


def table_derivatives(table, theta):
    """first (4, G, K) and second (4, 4, G, K) derivatives from a (aoa
    order, delay order, G, K) table of factor products, with theta's gain
    factors written out by hand."""
    amp = np.array([theta.gain_amp, 1.0, 0.0])
    phase = np.array([1.0, -1j, -1.0])
    rotation = np.exp(-1j * theta.gain_phase)

    def derivative(orders):
        gain = amp[orders[..., 2]] * phase[orders[..., 3]] * rotation
        return gain[..., None, None] * table[orders[..., 0], orders[..., 1]]

    return derivative(FIRST_ORDERS), derivative(SECOND_ORDERS)


def dense_derivatives(theta, model):
    """Independent oracle: first and second derivatives of the mean before
    its sandwich, from the steering derivatives (rounding as W (C v), as the
    model's eta), the delay phasors of delay_vector and a hand-written gain
    table."""
    cfg = model.cfg
    steer = steering_derivatives(theta.aoa, cfg.n_antennas)
    b = np.array([model.combiners @ (model.coupling @ v) for v in steer])  # (3, G)
    d = delay_vector(theta.delay, cfg.n_subcarriers, cfg.subcarrier_spacing_hz)
    r = -2j * np.pi * np.arange(1, cfg.n_subcarriers + 1) * cfg.subcarrier_spacing_hz
    delays = np.array([d, r * d, r * r * d])  # (3, K)
    table = b[:, None, :, None] * (delays[None, :, None, :] * model.eff_pilots)
    return table_derivatives(table, theta)


def factor_table(theta, model):
    """The (3, 3, G, K) table b^(i) r^j d x~ of the factors that
    model_derivatives gives for one (theta, model) pair."""
    b, d = model_derivatives(theta.as_array()[None], model)
    delays = (model.ring_powers * d[0][:, None]).T  # (3, K)
    return b[0].T[:, None, :, None] * (delays[None, :, None, :] * model.eff_pilots)


def dense_unrotated(model, aoa, delay):
    """One link's gain-free mean before M_g, b_g d x~_g, with b = W (C a)."""
    cfg = model.cfg
    b = model.combiners @ (model.coupling @ steering_vector(aoa, cfg.n_antennas))
    d = delay_vector(delay, cfg.n_subcarriers, cfg.subcarrier_spacing_hz)
    return b[:, None] * (d[None, :] * model.eff_pilots)


def dense_mean(model, theta):
    """One link's mean at theta with M_g applied as the dense sandwich."""
    v = dense_unrotated(model, theta.aoa, theta.delay)
    if model.rotation is not None:
        v = np.einsum("gij,gj->gi", sandwich_matrices(model.rotation), v)
    return theta.gain * v


def stack_links(models, shape=None, shared_pilots=False):
    """One model stack of single links that share their combiners, in the
    given leading shape (default (n,)); with shared_pilots it keeps the first
    link's (G, K) pilots for all."""
    first = models[0]
    shape = shape or (len(models),)

    def stacked(name):
        one = getattr(first, name)
        return np.stack([getattr(m, name) for m in models]).reshape(*shape, *one.shape)

    pilots = first.eff_pilots if shared_pilots else stacked("eff_pilots")
    rotation = None if first.rotation is None else stacked("rotation")
    return ProjectionModel(first.cfg, first.combiners, stacked("coupling"), pilots, rotation)


def factored_derivatives(theta, model):
    """first and second derivatives of the mean before its sandwich from
    the package's factors (mean_derivatives): the derivatives that the
    factored bounds contract."""
    return tuple(mean_derivatives(theta, model, o) for o in (FIRST_ORDERS, SECOND_ORDERS))


def dense_fim(first, sigma_n):
    """I_ij = (2/sigma^2) sum Re[conj(d mu_i) d mu_j] over all samples."""
    flat = first.reshape(4, -1)
    return (2.0 / sigma_n**2) * (flat.conj() @ flat.T).real


def dense_a(first, second, eps, sigma_n):
    """A_ij = (2/sigma^2) Re<d2 mu_ij, eps> - I_ij, <u, v> = sum conj(u) v."""
    curv = (second.reshape(4, 4, -1).conj() @ np.ravel(eps)).real
    return (2.0 / sigma_n**2) * curv - dense_fim(first, sigma_n)


def dense_b(first, eps, sigma_n):
    """B_ij = (4/sigma^4) Re<d mu_i, eps> Re<d mu_j, eps> + I_ij."""
    score = (first.reshape(4, -1).conj() @ np.ravel(eps)).real
    return (4.0 / sigma_n**4) * np.outer(score, score) + dense_fim(first, sigma_n)


def sequential_descent(data, starts):
    """The descent of hwiloc.bounds._descend with a line search that tests
    one halving of each pending fit's step per objective call. Returns the
    Fits and the most halvings that any accepted step took."""
    out = Fits.empty(data.yy.size)
    out.starts[:] = starts
    ids = np.arange(data.yy.size)
    usable = np.isfinite(data.yy) & (data.yy > 0.0)
    if not usable.all():
        out.fail(ids[~usable], "observation energy must be positive and finite")
        ids, data = ids[usable], data.take(usable)
    p = out.starts[ids]
    fp = data.objective(*p.T) / data.yy
    ok = np.isfinite(fp)
    if not ok.all():
        out.fail(ids[~ok], "objective is non-finite at the starting point")
        ids, data, p, fp = ids[ok], data.take(ok), p[ok], fp[ok]
    step = np.full(ids.size, INITIAL_STEP_M)
    most_halvings = 0

    def settle(done, reason):
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
        s = np.minimum(INITIAL_STEP_M, 2.0 * step)
        halvings = np.zeros(ids.size, dtype=int)
        pending = np.ones(ids.size, dtype=bool)
        while (j := np.flatnonzero(pending & (s >= STEP_FLOOR_M))).size:
            cand = p[j] + s[j, None] * direction[j]
            c_data = data if j.size == ids.size else data.take(j)
            fc = c_data.objective(*cand.T) / c_data.yy
            ok = np.isfinite(fc) & (fc <= fp[j] - ARMIJO_SLOPE * s[j] * gnorm[j])
            moved = j[ok]
            p[moved], fp[moved], step[moved] = cand[ok], fc[ok], s[moved]
            pending[moved] = False
            most_halvings = max(most_halvings, halvings[moved].max(initial=0))
            s[j[~ok]] *= ARMIJO_SHRINK
            halvings[j[~ok]] += 1
        if pending.any():
            settle(pending, "stalled")
            keep = ~pending
            ids, data, p, fp, step = ids[keep], data.take(keep), p[keep], fp[keep], step[keep]
    settle(np.ones(ids.size, dtype=bool), "max_iter")
    return out, most_halvings


def plug_in_gain(y, eta):
    """Closed-form gain estimate eta^H y / ||eta||^2 given a position."""
    y = np.asarray(y).ravel()
    eta = np.asarray(eta).ravel()
    ee = np.vdot(eta, eta).real
    if ee <= 0.0:
        raise ValueError("eta must be non-zero")
    return complex(np.vdot(eta, y) / ee)


def generator_draws(master_seed, point, indices, stream, noise):
    """The draws of the given indices at a sweep point, each from its own
    generator seeded by (master_seed, index, stream): the pilots on the
    amplifier axis (point.pilots is None), then the realization at the
    point's spreads, then, with noise, the trial's unit noise. Returns the
    pilots as sent and after the PA, the couplings, the phase-noise phases,
    the CFOs, each stacked over the indices, and the noise or None."""
    sys_cfg, imp = point.sys_cfg, point.imp
    pilots, pn, cfo, residuals, unit = [], [], [], [], []
    for index in indices:
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, index, stream)))
        pilots.append(point.pilots if point.pilots is not None else generate_pilots(sys_cfg, rng))
        real = sample_realization(imp, sys_cfg, rng)
        pn.append(real.pn_phases)
        cfo.append(real.cfo)
        residuals.append(real.mc_residual)
        if noise:
            unit.append(unit_noise(real.pn_phases.shape, rng))
    pilots = np.array(pilots)
    sent = transmit_pilots(pilots, imp, sys_cfg) if point.pilots is None else point.sent
    couplings = mc_matrix(imp.coupling, np.array(residuals), sys_cfg.n_antennas)
    return (
        pilots,
        np.broadcast_to(sent, pilots.shape),
        couplings,
        np.array(pn),
        np.array(cfo),
        np.array(unit) if noise else None,
    )
