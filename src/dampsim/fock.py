"""Truncated-Fock-space oracle: explicit Kraus operators of the amplitude
damping channel and brute-force Schroedinger/Heisenberg evolution.

The Kraus family is exactly finite on the truncated space (a^n = 0 for
n >= D), so no extra truncation of the channel sum is needed. Each K_n is
nonzero only on its n-th superdiagonal, so a KrausSet holds only those D
bands, built in closed form in O(D^2), and one private kernel applies the
whole sum as D shifted, reweighted slices of the operand, in the
Schroedinger and the Heisenberg picture alike. A two-mode density is a
(D1 D2, D1 D2) matrix with mode-1-major index ordering, viewed as a
(D1, D2, D1, D2) tensor; the product channel acts on it one mode at a time
(axes (0, 2), then (1, 3)), O(D^5) elementwise work for D1 = D2 = D, and
no two-mode operator is ever formed.

A CPTP channel keeps a valid density valid, so the evolution functions check
only shapes; check_density (an O(D^6) eigvalsh for two modes) runs once on
each density a caller supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (MomentState, ModeParams, PhysicalConstants, TwoModeSystem,
                    vacuum_variances)


class ModeOperators(NamedTuple):
    a: np.ndarray
    a_dag: np.ndarray
    number: np.ndarray
    x: np.ndarray
    p: np.ndarray


def lowering(dim: int) -> np.ndarray:
    """Annihilation operator on the number basis |0> ... |dim-1>."""
    if dim < 2:
        raise ValueError(f"Fock cutoff must be >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def build_mode_operators(dim: int, params: ModeParams,
                         constants: PhysicalConstants) -> ModeOperators:
    """Ladder, number and quadrature matrices for one mode."""
    a = lowering(dim)
    a_dag = a.conj().T
    number = np.diag(np.arange(dim)).astype(complex)
    sx, sp = map(math.sqrt, vacuum_variances(params, constants.hbar))
    x = sx * (a + a_dag)
    p = 1j * sp * (a_dag - a)
    return ModeOperators(a=a, a_dag=a_dag, number=number, x=x, p=p)


@dataclass(frozen=True)
class KrausSet:
    """The family K_n(t) = sqrt((1-e^{-2kt})^n / n!) e^{-kt N} a^n,
    n = 0 ... dim-1, of one amplitude damping channel at one time; K_n is
    bands[n, :dim-n] on its n-th superdiagonal and zero elsewhere."""

    kappa: float
    t: float
    bands: np.ndarray

    @property
    def dim(self) -> int:
        return self.bands.shape[1]


def kraus_operators(kappa: float, t: float, dim: int) -> KrausSet:
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and non-negative, got {t}")
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and non-negative, got {kappa}")
    if dim < 2:
        raise ValueError(f"Fock cutoff must be >= 2, got {dim}")
    # 1 - e^{-2kt}, computed without cancellation for small kt
    loss = -math.expm1(-2.0 * kappa * t)
    i = np.arange(dim)
    bands = np.zeros((dim, dim), dtype=complex)
    # (e^{-kt N} a^n)_{i,i+n} = e^{-kt i} sqrt((i+1)...(i+n)). When kt
    # overflows, e^{-kt N} is the ground-state projector (-kt * 0 is NaN).
    bands[0] = np.exp(-kappa * t * i) if kappa * t < math.inf else i == 0
    for n in range(1, dim):
        bands[n, :-n] = bands[n - 1, :-n] * np.sqrt(loss * i[n:] / n)
    return KrausSet(kappa=kappa, t=t, bands=bands)


def completeness_defect(ks: KrausSet) -> float:
    """Max-norm of the diagonal I - sum_n K_n^dag K_n: the trace defect."""
    acc = np.zeros(ks.dim)
    for n, band in enumerate(ks.bands):
        acc[n:] += np.abs(band[:ks.dim - n]) ** 2
    return float(np.max(np.abs(1.0 - acc)))


def check_density(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a finite, Hermitian, unit-trace,
    positive semidefinite matrix, each within 1e-10."""
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix is not finite")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {np.trace(rho).real} != 1")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
        raise ValueError("density matrix is not positive semidefinite")


def _kraus_sum(x: np.ndarray, ks: KrausSet, axes: tuple[int, int],
               adjoint: bool) -> np.ndarray:
    """sum_n K_n x K_n^dag, or sum_n K_n^dag x K_n when adjoint, acting on
    the (row, column) axis pair `axes` of x.

    K_n is its band w_n = ks.bands[n, :dim-n], so each term is a shifted
    slice: (K_n x K_n^dag)_ij = w_n[i] x_{i+n,j+n} conj(w_n[j]) and
    (K_n^dag x K_n)_ij = conj(w_n[i-n]) x_{i-n,j-n} w_n[j-n].
    """
    x = np.moveaxis(np.asarray(x, dtype=complex), axes, (0, 1))
    out = np.zeros_like(x)
    lead = (1,) * (x.ndim - 2)
    for n, band in enumerate(ks.bands):
        m = ks.dim - n
        w = band[:m]
        if not w.any():
            continue
        if adjoint:
            w, dst, src = w.conj(), slice(n, None), slice(None, m)
        else:
            dst, src = slice(None, m), slice(n, None)
        out[dst, dst] += (np.outer(w, w.conj()).reshape((m, m) + lead)
                          * x[src, src])
    return np.moveaxis(out, (0, 1), axes)


def _two_mode_tensor(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """A (d1 d2, d1 d2) two-mode matrix as its (d1, d2, d1, d2) view."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"two-mode density shape {rho.shape} does not "
                         f"match cutoffs ({d1}, {d2})")
    return rho.reshape(d1, d2, d1, d2)


def evolve_density(rho0: np.ndarray, ks1: KrausSet,
                   ks2: KrausSet | None = None) -> np.ndarray:
    """Schroedinger-picture Kraus sum; single mode, or the two-mode product
    channel applied one mode at a time."""
    rho0 = np.asarray(rho0, dtype=complex)
    if ks2 is None:
        if rho0.shape != (ks1.dim, ks1.dim):
            raise ValueError(f"density shape {rho0.shape} does not match "
                             f"cutoff {ks1.dim}")
        return _kraus_sum(rho0, ks1, (0, 1), adjoint=False)
    rho4 = _kraus_sum(_two_mode_tensor(rho0, ks1.dim, ks2.dim), ks1, (0, 2),
                      adjoint=False)
    return _kraus_sum(rho4, ks2, (1, 3), adjoint=False).reshape(rho0.shape)


def heisenberg_evolve(A: np.ndarray, ks: KrausSet) -> np.ndarray:
    """Heisenberg-picture observable map A -> sum_n K_n^dag A K_n, on one
    (dim, dim) observable or a stack of them."""
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (ks.dim, ks.dim):
        raise ValueError(f"observable shape {A.shape} does not match "
                         f"cutoff {ks.dim}")
    return _kraus_sum(A, ks, (-2, -1), adjoint=True)


def _cross_expectations(q1: np.ndarray, q2: np.ndarray,
                        rho4: np.ndarray) -> np.ndarray:
    """tr[(q1[a] otimes q2[b]) rho] for stacks q1 (A, d1, d1) and
    q2 (B, d2, d2): mode 2 is traced out against each q2[b] first, reading
    rho4 in place, then each q1[a] is contracted with the result."""
    partial = np.einsum("bkl,jlik->bji", q2, rho4)
    return np.einsum("aij,bji->ab", q1, partial)


def reduced_densities(rho: np.ndarray,
                      dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-mode reduced density matrices of a two-mode density."""
    rho4 = _two_mode_tensor(rho, dim, dim)
    return np.einsum("ikjk->ij", rho4), np.einsum("kikj->ij", rho4)


def top_level_population(reduced: np.ndarray, ks: KrausSet) -> float:
    """Population of the top level |dim-1> of a one-mode density after the
    channel, tr[E^dag(|dim-1><dim-1|) rho]: the weight at the cutoff. Only
    K_0 reaches |dim-1>, so it is |K_0[dim-1, dim-1]|^2 rho[dim-1, dim-1]."""
    return float(abs(ks.bands[0, -1]) ** 2 * reduced[-1, -1].real)


def bh_identity_residual(kappa: float, t: float, dim: int) -> float:
    """Max-norm residual of e^{-ktN} a e^{-ktN} = e^{-kt} e^{-2ktN} a.

    Both sides are lowering-band matrices with entries sqrt(n) e^{-kt(2n-1)}
    fully contained in the cutoff, so the identity holds exactly on the
    truncated space. (Equivalently e^{+kt} a e^{-2ktN}; the conjugate
    identity for a^dag carries e^{-kt} with a^dag on the left.)
    """
    a = lowering(dim)
    decay = np.diag(np.exp(-kappa * t * np.arange(dim)))
    lhs = decay @ a @ decay
    rhs = math.exp(-kappa * t) * np.diag(
        np.exp(-2.0 * kappa * t * np.arange(dim))) @ a
    return float(np.max(np.abs(lhs - rhs)))


def coherent_density(displacement: complex, dim: int) -> np.ndarray:
    """Truncated coherent state |alpha><alpha|, renormalized.

    Rejects displacements whose Poisson tail would leak past the cutoff
    (|alpha|^2 > dim/4).
    """
    alpha = complex(displacement)
    # |alpha| > dim fails the guard anyway, and squaring it could overflow
    norm2 = (math.inf if math.hypot(alpha.real, alpha.imag) > dim
             else abs(alpha) ** 2)
    if not norm2 <= dim / 4.0:
        raise ValueError(
            f"|displacement|^2 = {norm2:g} exceeds dim/4 = "
            f"{dim / 4.0:g}; increase the cutoff")
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, dim)))))
    amps = np.exp(-0.5 * norm2 - 0.5 * log_fact) * alpha ** n
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def fock_density(level: int, dim: int) -> np.ndarray:
    """Number eigenstate |level><level|."""
    if not 0 <= level < dim:
        raise ValueError(f"level {level} outside cutoff {dim}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[level, level] = 1.0
    return rho


def moment_trajectory(rho0: np.ndarray, system: TwoModeSystem,
                      times: np.ndarray, dim: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Means (T, 4) and symmetrized covariances (T, 4, 4) of a two-mode
    density matrix after damping for each of T times, via per-mode
    Heisenberg evolution of the quadrature observables.

    This is the oracle counterpart of analytic.evolve_trajectory. The
    intra-mode moments are read from the two reduced densities, taken once;
    the four cross moments come from one contraction against the density.
    """
    times = np.asarray(times, dtype=float)
    rho4 = _two_mode_tensor(rho0, dim, dim)
    reduced = reduced_densities(rho0, dim)
    observables = []  # per mode: x, p, x^2, p^2, (xp + px)/2
    for mode in system.modes:
        ops = build_mode_operators(dim, mode, system.constants)
        observables.append(np.stack([ops.x, ops.p, ops.x @ ops.x,
                                     ops.p @ ops.p,
                                     0.5 * (ops.x @ ops.p + ops.p @ ops.x)]))
    mean = np.empty((len(times), 4))
    cov = np.empty((len(times), 4, 4))
    for k, t in enumerate(times):
        evolved = [heisenberg_evolve(obs, kraus_operators(mode.kappa, t, dim))
                   for obs, mode in zip(observables, system.modes)]
        local = np.array([np.einsum("aij,ji->a", e, r).real
                          for e, r in zip(evolved, reduced)])
        m = mean[k] = local[:, :2].ravel()
        c = cov[k]
        for base, (_, _, x2, p2, xp) in zip((0, 2), local):
            c[base, base] = x2 - m[base] ** 2
            c[base + 1, base + 1] = p2 - m[base + 1] ** 2
            c[base, base + 1] = c[base + 1, base] = xp - m[base] * m[base + 1]
        # the factors commute, so the cross block needs no symmetrization
        c[:2, 2:] = (_cross_expectations(evolved[0][:2], evolved[1][:2], rho4)
                     .real - np.outer(m[:2], m[2:]))
        c[2:, :2] = c[:2, 2:].T
    return mean, cov


def two_mode_moments(rho0: np.ndarray, system: TwoModeSystem, t: float,
                     dim: int) -> MomentState:
    """Oracle moments of a two-mode density after damping for time t:
    moment_trajectory at one time."""
    mean, cov = moment_trajectory(rho0, system, np.array([t]), dim)
    return MomentState(mean=mean[0], cov=cov[0])
