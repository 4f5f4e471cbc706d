"""Dense oracles of the factored bounds in hwiloc.bounds.

The bounds contract the factors of a link mean (its row gains and delay
phasors) and never form a derivative per sample. These helpers do: they
build every first and second derivative of the mean before its sandwich as
(4, G, K) and (4, 4, G, K) tensors and contract them sample by sample into
the FIM and the misspecified bound's A and B, the textbook forms the
factored algebra must reproduce.
"""

import numpy as np

from hwiloc.bounds import mean_derivatives, model_derivatives
from hwiloc.model import delay_vector, steering_derivatives

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
    b, d = model_derivatives([theta], [model])
    delays = (model.ring_powers * d[0][:, None]).T  # (3, K)
    return b[0].T[:, None, :, None] * (delays[None, :, None, :] * model.eff_pilots)


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
