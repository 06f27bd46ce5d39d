"""Closed-form moment evolution under two independent amplitude damping
channels (interaction picture, zero temperature)."""

from __future__ import annotations

import numpy as np

from .model import (QUADRATURES, MomentState, TwoModeSystem, check_damped,
                    vacuum_state)


def evolve_trajectory(state0: MomentState, system: TwoModeSystem,
                      times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means (T, 4) and covariances (T, 4, 4) of a state at T times.

    With the diagonal decay map X = e^{-kappa_i t}, the Gaussian channel is
    mean -> X mean, cov -> X cov X + (I - X^2) C_vac. The cross blocks thus
    decay by e^{-(kappa_1+kappa_2) t}, the closed-form covariance decay of
    two independent channels; the intra-mode xp decay follows from the
    uniform e^{-2 kappa t} scaling of all bilinears (a^2, a^dag^2, a^dag a)
    in the Heisenberg picture.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(times >= 0):
        raise ValueError(f"time must be non-negative, got {np.min(times)}")
    kappa = np.repeat([system.mode1.kappa, system.mode2.kappa], 2)
    with np.errstate(over="ignore"):  # kappa t past float range: e = 0
        e = np.exp(-kappa * times[:, None])
    mean = e * state0.mean
    cov = (e[:, :, None] * e[:, None, :] * state0.cov
           + (1.0 - e ** 2)[:, :, None] * vacuum_state(system).cov)
    return mean, cov


def evolve_state(state0: MomentState, system: TwoModeSystem,
                 t: float) -> MomentState:
    """Evolve a moment state for time t: evolve_trajectory at one time."""
    mean, cov = evolve_trajectory(state0, system, np.array([t]))
    return MomentState(mean=mean[0], cov=cov[0])


def asymptotic_state(system: TwoModeSystem) -> MomentState:
    """The t -> infinity fixed point of two damped modes: the two-mode
    vacuum."""
    check_damped(system)
    return vacuum_state(system)


def uncertainty_products(cov: np.ndarray) -> np.ndarray:
    """Delta q * Delta p of the two sectors (quadrature pairs 0-1 and 2-3)
    of a (..., 4, 4) covariance stack; shape (..., 2)."""
    var = np.diagonal(cov, axis1=-2, axis2=-1)
    return np.sqrt(var[..., 0::2] * var[..., 1::2])


def uncertainty_product(state: MomentState, mode_index: int) -> float:
    """Delta x * Delta p for mode 1 or 2 from the covariance diagonal."""
    if mode_index not in (1, 2):
        raise ValueError(f"mode_index must be 1 or 2, got {mode_index}")
    return float(uncertainty_products(state.cov)[mode_index - 1])


def cross_covariance(state: MomentState, obs1: str, obs2: str) -> float:
    """Covariance between a mode-1 and a mode-2 quadrature.

    The observables commute, so the symmetrized entry equals the plain
    covariance function <A1 A2> - <A1><A2>.
    """
    if obs1 not in ("x1", "p1"):
        raise ValueError(f"obs1 must be x1 or p1, got {obs1!r}")
    if obs2 not in ("x2", "p2"):
        raise ValueError(f"obs2 must be x2 or p2, got {obs2!r}")
    return float(state.cov[QUADRATURES.index(obs1),
                           QUADRATURES.index(obs2)])
