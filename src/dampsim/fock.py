"""Truncated-Fock-space oracle: explicit Kraus operators of the amplitude
damping channel and brute-force Schroedinger/Heisenberg evolution.

The Kraus family is exactly finite on the truncated space (a^n = 0 for
n >= D), so no extra truncation of the channel sum is needed. Two-mode
operators are Kronecker products with mode-1-major index ordering.
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
    n = 0 ... dim-1, of one amplitude damping channel at one time."""

    kappa: float
    t: float
    dim: int
    ops: tuple[np.ndarray, ...]


def kraus_operators(kappa: float, t: float, dim: int) -> KrausSet:
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if kappa < 0:
        raise ValueError(f"kappa must be non-negative, got {kappa}")
    a = lowering(dim)
    # 1 - e^{-2kt}, computed without cancellation for small kt
    loss = -math.expm1(-2.0 * kappa * t)
    decay = np.diag(np.exp(-kappa * t * np.arange(dim))).astype(complex)
    ops = []
    a_pow = np.eye(dim, dtype=complex)
    for n in range(dim):
        coeff = math.sqrt(loss ** n / math.factorial(n))
        ops.append(coeff * (decay @ a_pow))
        a_pow = a @ a_pow
    return KrausSet(kappa=kappa, t=t, dim=dim, ops=tuple(ops))


def completeness_defect(ks: KrausSet) -> float:
    """Max-norm of I - sum_n K_n^dag K_n; the trace-preservation defect."""
    acc = np.zeros((ks.dim, ks.dim), dtype=complex)
    for k in ks.ops:
        acc += k.conj().T @ k
    return float(np.max(np.abs(np.eye(ks.dim) - acc)))


def _check_density(rho: np.ndarray, trace_tol: float = 1e-10,
                   psd_floor: float = -1e-10) -> None:
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {np.trace(rho).real} != 1")
    if np.min(np.linalg.eigvalsh(rho)) < psd_floor:
        raise ValueError("density matrix is not positive semidefinite")


def evolve_density(rho0: np.ndarray, ks1: KrausSet,
                   ks2: KrausSet | None = None) -> np.ndarray:
    """Schroedinger-picture Kraus sum; single mode or two-mode product
    channel (K1_m otimes K2_n)."""
    rho0 = np.asarray(rho0, dtype=complex)
    _check_density(rho0)
    if ks2 is None:
        if rho0.shape != (ks1.dim, ks1.dim):
            raise ValueError(f"density shape {rho0.shape} does not match "
                             f"cutoff {ks1.dim}")
        out = np.zeros_like(rho0)
        for k in ks1.ops:
            out += k @ rho0 @ k.conj().T
        return out
    d = ks1.dim * ks2.dim
    if rho0.shape != (d, d):
        raise ValueError(f"two-mode density shape {rho0.shape} does not "
                         f"match cutoffs ({ks1.dim}, {ks2.dim})")
    out = np.zeros_like(rho0)
    for k1 in ks1.ops:
        for k2 in ks2.ops:
            k = np.kron(k1, k2)
            out += k @ rho0 @ k.conj().T
    return out


def heisenberg_evolve(A: np.ndarray, ks: KrausSet) -> np.ndarray:
    """Heisenberg-picture observable map A -> sum_n K_n^dag A K_n."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (ks.dim, ks.dim):
        raise ValueError(f"observable shape {A.shape} does not match "
                         f"cutoff {ks.dim}")
    out = np.zeros_like(A)
    for k in ks.ops:
        out += k.conj().T @ A @ k
    return out


def product_expectation(A1: np.ndarray, A2: np.ndarray,
                        rho: np.ndarray) -> complex:
    """tr[(A1 otimes A2) rho] without materializing the Kronecker product."""
    d1, d2 = A1.shape[0], A2.shape[0]
    rho4 = np.asarray(rho, dtype=complex).reshape(d1, d2, d1, d2)
    return complex(np.einsum("ij,kl,jlik->", A1, A2, rho4, optimize=True))


def heisenberg_moment(A1: np.ndarray, A2: np.ndarray | None,
                      ks1: KrausSet, ks2: KrausSet,
                      rho0: np.ndarray) -> complex:
    """Heisenberg expectation <A1(t) A2(t)> on a two-mode density matrix.

    Each factor is evolved by its own mode's Kraus set; A2 = None means
    the identity on mode 2.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    d = ks1.dim * ks2.dim
    if rho0.shape != (d, d):
        raise ValueError(f"two-mode density shape {rho0.shape} does not "
                         f"match cutoffs ({ks1.dim}, {ks2.dim})")
    a1 = heisenberg_evolve(A1, ks1)
    a2 = (np.eye(ks2.dim, dtype=complex) if A2 is None
          else heisenberg_evolve(A2, ks2))
    return product_expectation(a1, a2, rho0)


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
    if abs(alpha) ** 2 > dim / 4.0:
        raise ValueError(
            f"|displacement|^2 = {abs(alpha) ** 2:g} exceeds dim/4 = "
            f"{dim / 4.0:g}; increase the cutoff")
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, dim)))))
    amps = np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * alpha ** n
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


def fock_density(level: int, dim: int) -> np.ndarray:
    """Number eigenstate |level><level|."""
    if not 0 <= level < dim:
        raise ValueError(f"level {level} outside cutoff {dim}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[level, level] = 1.0
    return rho


def two_mode_moments(rho0: np.ndarray, system: TwoModeSystem, t: float,
                     dim: int) -> MomentState:
    """All first and symmetrized second quadrature moments of a two-mode
    density matrix after damping for time t, via per-mode Heisenberg
    evolution of the quadrature observables.

    This is the oracle counterpart of the analytic moment evolution.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim * dim, dim * dim):
        raise ValueError(f"density shape {rho0.shape} does not match "
                         f"cutoff {dim}")
    ks = [kraus_operators(mode.kappa, t, dim) for mode in system.modes]
    ident = np.eye(dim, dtype=complex)
    evolved = []  # per mode: x(t), p(t), x2(t), p2(t), sym_xp(t)
    for mode, k in zip(system.modes, ks):
        ops = build_mode_operators(dim, mode, system.constants)
        sym_xp = 0.5 * (ops.x @ ops.p + ops.p @ ops.x)
        evolved.append([heisenberg_evolve(A, k) for A in
                        (ops.x, ops.p, ops.x @ ops.x, ops.p @ ops.p, sym_xp)])

    def expect(A1, A2):
        return product_expectation(A1, A2, rho0).real

    mean = np.array([expect(evolved[0][0], ident),
                     expect(evolved[0][1], ident),
                     expect(ident, evolved[1][0]),
                     expect(ident, evolved[1][1])])
    cov = np.zeros((4, 4))
    # intra-mode blocks from the evolved bilinears
    for m, base in ((0, 0), (1, 2)):
        x2 = expect(evolved[m][2], ident) if m == 0 else expect(ident, evolved[m][2])
        p2 = expect(evolved[m][3], ident) if m == 0 else expect(ident, evolved[m][3])
        xp = expect(evolved[m][4], ident) if m == 0 else expect(ident, evolved[m][4])
        cov[base, base] = x2 - mean[base] ** 2
        cov[base + 1, base + 1] = p2 - mean[base + 1] ** 2
        cov[base, base + 1] = cov[base + 1, base] = xp - mean[base] * mean[base + 1]
    # cross blocks; the factors commute so no symmetrization is needed
    for i in range(2):
        for j in range(2):
            c = expect(evolved[0][i], evolved[1][j]) - mean[i] * mean[2 + j]
            cov[i, 2 + j] = cov[2 + j, i] = c
    return MomentState(mean=mean, cov=0.5 * (cov + cov.T))
