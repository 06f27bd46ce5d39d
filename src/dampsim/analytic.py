"""Closed-form moment evolution under two independent amplitude damping
channels (interaction picture, zero temperature)."""

from __future__ import annotations

import numpy as np

from .model import (MomentState, TwoModeSystem, check_damped, checked_times,
                    vacuum_state)


def evolve_trajectory(state0: MomentState, system: TwoModeSystem,
                      times: np.ndarray) -> MomentState:
    """The moments of a one-time state at each time of the (T,) grid
    `times`: a MomentState of means (T, 4) and covariances (T, 4, 4).

    With the diagonal decay map X = e^{-kappa_i t}, the Gaussian channel is
    mean -> X mean, cov -> X cov X + (I - X^2) C_vac. The cross blocks thus
    decay by e^{-(kappa_1+kappa_2) t}, the closed-form covariance decay of
    two independent channels; the intra-mode xp decay follows from the
    uniform e^{-2 kappa t} scaling of all bilinears (a^2, a^dag^2, a^dag a)
    in the Heisenberg picture.
    """
    times = checked_times(times)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid, got a scalar")
    kappa = np.repeat([system.mode1.kappa, system.mode2.kappa], 2)
    with np.errstate(over="ignore"):  # kappa t past float range: e = 0
        e = np.exp(-kappa * times[:, None])
    mean = e * state0.mean
    cov = (e[:, :, None] * e[:, None, :] * state0.cov
           + (1.0 - e ** 2)[:, :, None] * vacuum_state(system).cov)
    return MomentState(mean=mean, cov=cov)


def evolve_state(state0: MomentState, system: TwoModeSystem,
                 t: float) -> MomentState:
    """Evolve a moment state for time t: evolve_trajectory at one time."""
    trajectory = evolve_trajectory(state0, system, np.array([t]))
    return MomentState(mean=trajectory.mean[0], cov=trajectory.cov[0])


def asymptotic_state(system: TwoModeSystem) -> MomentState:
    """The t -> infinity fixed point of two damped modes: the two-mode
    vacuum."""
    check_damped(system)
    return vacuum_state(system)


def uncertainty_products(cov: np.ndarray) -> np.ndarray:
    """Delta q * Delta p of the two sectors (quadrature pairs 0-1 and 2-3)
    of a (..., 4, 4) covariance stack; shape (..., 2).

    sqrt(var_q var_p) from the variances' mantissas in [1/2, 1) and their
    exponent sum e: sqrt(m_q m_p 2^(e mod 2)) 2^(e div 2). That is
    sqrt(var_q * var_p) bit for bit where the product is a normal float,
    since scaling by 2^e commutes with the rounding there, and stays in
    float range where the product would overflow or underflow but its root
    does not (hbar = 1e300 or 1e-300 at the vacuum)."""
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    (m_q, e_q), (m_p, e_p) = np.frexp(var[..., 0::2]), np.frexp(var[..., 1::2])
    e = e_q + e_p
    return np.ldexp(np.sqrt(m_q * m_p * (1 + e % 2)), e // 2)


def uncertainty_product(state: MomentState,
                        mode_index: int) -> float | np.ndarray:
    """Delta x * Delta p for mode 1 or 2 from the covariance diagonal, per
    time for a state on a grid."""
    if mode_index not in (1, 2):
        raise ValueError(f"mode_index must be 1 or 2, got {mode_index}")
    return uncertainty_products(state.cov)[..., mode_index - 1]
