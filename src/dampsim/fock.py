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

Every Kraus-set function also takes a time axis: given a (T,) array of
times, kraus_operators returns bands of shape (T, D, D) by the same
recurrence, broadcast over T, and the kernel maps a stack of observables
(K, D, D) to their images at every time, (T, K, D, D). Row k of a batch is
bit for bit the one-time result at times[k]. moment_chunks walks a time
grid in chunks sized so that the chunk's working set (bands, Heisenberg
images, kernel temporaries and partial traces) stays near _CHUNK_BYTES;
no array grows with the grid but the (T, 4) and (T, 4, 4) moments
themselves. Per chunk and mode there is one band build and one
Heisenberg call. The cross moments trace mode 1 out first as BLAS matrix
products, rho4[j] against column j of every mode-1 image in the chunk,
so the D^4 density is read once per chunk, in place, and never copied or
permuted.

A CPTP channel keeps a valid density valid, so the evolution functions check
only shapes; check_density (an O(D^6) eigvalsh for two modes) runs once on
each density a caller supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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
    n = 0 ... dim-1, of one amplitude damping channel at one time t, or at
    each of a (T,) array of times; K_n is bands[..., n, :dim-n] on its n-th
    superdiagonal and zero elsewhere, bands being (dim, dim) or
    (T, dim, dim)."""

    kappa: float
    t: float | np.ndarray
    bands: np.ndarray

    @property
    def dim(self) -> int:
        return self.bands.shape[-1]


def _checked_times(t) -> np.ndarray:
    """t as a float array of at most one axis, every entry finite and
    non-negative."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape "
                         f"{times.shape}")
    bad = ~((times >= 0) & (times < math.inf))
    if bad.any():
        raise ValueError(f"time must be finite and non-negative, got "
                         f"{times[bad].flat[0]}")
    return times


def kraus_operators(kappa: float, t: float | np.ndarray,
                    dim: int) -> KrausSet:
    """The Kraus set at time t, or at each time of a (T,) array t."""
    times = _checked_times(t)
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and non-negative, got {kappa}")
    if dim < 2:
        raise ValueError(f"Fock cutoff must be >= 2, got {dim}")
    # per time in Python floats: kt may overflow to inf (handled below),
    # and math.expm1 keeps each batch row bit for bit the one-time set;
    # 1 - e^{-2kt} without cancellation for small kt
    ts = np.atleast_1d(times).tolist()
    kt = np.array([kappa * s for s in ts])
    loss = np.array([-math.expm1(-2.0 * kappa * s) for s in ts])
    i = np.arange(dim)
    bands = np.zeros(kt.shape + (dim, dim))
    # (e^{-kt N} a^n)_{i,i+n} = e^{-kt i} sqrt((i+1)...(i+n)). When kt
    # overflows, e^{-kt N} is the ground-state projector (-kt * 0 is NaN).
    finite = kt < math.inf
    bands[:, 0] = np.exp(np.where(finite, -kt, 0.0)[:, None] * i)
    bands[~finite, 0] = i == 0
    for n in range(1, dim):
        bands[:, n, :-n] = (bands[:, n - 1, :-n]
                            * np.sqrt(loss[:, None] * i[n:] / n))
    bands = bands.astype(complex)
    if times.ndim:
        return KrausSet(kappa=kappa, t=times, bands=bands)
    return KrausSet(kappa=kappa, t=t, bands=bands[0])


def completeness_defect(ks: KrausSet) -> float | np.ndarray:
    """Max-norm of the diagonal I - sum_n K_n^dag K_n: the trace defect, per
    time for a batched set."""
    weights = np.abs(ks.bands) ** 2
    acc = np.zeros(weights.shape[:-2] + (ks.dim,))
    for n in range(weights.shape[-2]):
        acc[..., n:] += weights[..., n, :ks.dim - n]
    return np.max(np.abs(1.0 - acc), axis=-1)


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
    the (row, column) axis pair `axes` of x. Batched bands (B..., n, dim)
    apply one channel per batch entry, and their axes B lead the result.

    K_n is its band w_n = ks.bands[..., n, :dim-n], so each term is a
    shifted slice: (K_n x K_n^dag)_ij = w_n[i] x_{i+n,j+n} conj(w_n[j]) and
    (K_n^dag x K_n)_ij = conj(w_n[i-n]) x_{i-n,j-n} w_n[j-n].
    """
    x = np.asarray(x, dtype=complex)
    batch = ks.bands.shape[:-2]
    result = np.zeros(batch + x.shape, dtype=complex)
    out = np.moveaxis(result, tuple(a % x.ndim + len(batch) for a in axes),
                      (0, 1))
    x = np.moveaxis(x, axes, (0, 1))
    rest = x.shape[2:]
    x = x.reshape(x.shape[:2] + (1,) * len(batch) + rest)
    lead = (1,) * len(rest)
    # band n as an (m, B...) array, so its outer product broadcasts over x
    for n, band in enumerate(np.moveaxis(ks.bands, (-2, -1), (0, 1))):
        m = ks.dim - n
        w = band[:m]
        if not w.any():
            continue
        if adjoint:
            w, dst, src = w.conj(), slice(n, None), slice(None, m)
        else:
            dst, src = slice(None, m), slice(n, None)
        out[dst, dst] += ((w[:, None] * w.conj()[None, :])
                          .reshape((m, m) + batch + lead) * x[src, src])
    return result


def _two_mode_tensor(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """A (d1 d2, d1 d2) two-mode matrix as its (d1, d2, d1, d2) view."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"two-mode density shape {rho.shape} does not "
                         f"match cutoffs ({d1}, {d2})")
    return rho.reshape(d1, d2, d1, d2)


def evolve_density(rho0: np.ndarray, ks1: KrausSet,
                   ks2: KrausSet | None = None) -> np.ndarray:
    """Schroedinger-picture Kraus sum; single mode (at one time, or at each
    time of a batched set), or the two-mode product channel at one time,
    applied one mode at a time."""
    rho0 = np.asarray(rho0, dtype=complex)
    if ks2 is None:
        if rho0.shape != (ks1.dim, ks1.dim):
            raise ValueError(f"density shape {rho0.shape} does not match "
                             f"cutoff {ks1.dim}")
        return _kraus_sum(rho0, ks1, (0, 1), adjoint=False)
    if ks1.bands.ndim + ks2.bands.ndim > 4:
        raise ValueError("the two-mode channel takes Kraus sets of one time")
    rho4 = _kraus_sum(_two_mode_tensor(rho0, ks1.dim, ks2.dim), ks1, (0, 2),
                      adjoint=False)
    return _kraus_sum(rho4, ks2, (1, 3), adjoint=False).reshape(rho0.shape)


def heisenberg_evolve(A: np.ndarray, ks: KrausSet) -> np.ndarray:
    """Heisenberg-picture observable map A -> sum_n K_n^dag A K_n, on one
    (dim, dim) observable or a stack of them; a batched set of T times
    prepends a time axis, (K, dim, dim) -> (T, K, dim, dim)."""
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (ks.dim, ks.dim):
        raise ValueError(f"observable shape {A.shape} does not match "
                         f"cutoff {ks.dim}")
    return _kraus_sum(A, ks, (-2, -1), adjoint=True)


def _trace_out_mode1(q1: np.ndarray, rho4: np.ndarray) -> np.ndarray:
    """sigma[l, t, a, k] = (tr_1[(q1[t, a] otimes I) rho])_{lk}, the mode-2
    operators left by tracing mode 1 out against a stack q1 (T, A, d1, d1).

    With rho4[j, l, i, k] = rho_{(j,l),(i,k)}, sigma[l, (t, a), k] =
    sum_ij q1[t, a]_ij rho4[j, l, i, k]: one BLAS product per row index j
    of the contiguous block rho4[j], against the j-th columns of every q1
    in the stack. rho4 is read in place, never permuted or copied.
    """
    n_t, n_a, d1 = q1.shape[:3]
    d2 = rho4.shape[1]
    # columns[j] holds column j of every q1[t, a] as a row, contiguous
    columns = np.ascontiguousarray(np.moveaxis(q1, -1, 0))
    columns = columns.reshape(d1, n_t * n_a, d1)
    sigma = np.zeros((d2, n_t * n_a, d2), dtype=complex)
    term = np.empty_like(sigma)
    for j, block in enumerate(rho4):
        sigma += np.matmul(columns[j], block, out=term)
    return sigma.reshape(d2, n_t, n_a, d2)


def reduced_densities(rho: np.ndarray,
                      dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-mode reduced density matrices of a two-mode density."""
    rho4 = _two_mode_tensor(rho, dim, dim)
    return np.einsum("ikjk->ij", rho4), np.einsum("kikj->ij", rho4)


def top_level_population(reduced: np.ndarray,
                         ks: KrausSet) -> float | np.ndarray:
    """Population of the top level |dim-1> of a one-mode density after the
    channel, tr[E^dag(|dim-1><dim-1|) rho]: the weight at the cutoff, per
    time for a batched set. Only K_0 reaches |dim-1>, so it is
    |K_0[dim-1, dim-1]|^2 rho[dim-1, dim-1]."""
    return np.abs(ks.bands[..., 0, -1]) ** 2 * reduced[-1, -1].real


def bh_identity_residual(kappa: float, t: float | np.ndarray,
                         dim: int) -> float | np.ndarray:
    """Max-norm residual of e^{-ktN} a e^{-ktN} = e^{-kt} e^{-2ktN} a, per
    time for a (T,) array t.

    Both sides are lowering-band matrices with entries sqrt(n) e^{-kt(2n-1)}
    fully contained in the cutoff, so the identity holds exactly on the
    truncated space, and only the band can differ: entry (n, n+1) is
    e^{-ktn} sqrt(n+1) e^{-kt(n+1)} on the left, e^{-kt} e^{-2ktn} sqrt(n+1)
    on the right. (Equivalently e^{+kt} a e^{-2ktN}; the conjugate identity
    for a^dag carries e^{-kt} with a^dag on the left.)
    """
    # e^{-kt} is 0.0 from kt ~ 745 on, so a cap at 1e3 changes no value but
    # keeps an overflowed kt (inf, and -inf * 0 is NaN) and -2 kt n finite
    with np.errstate(over="ignore"):
        kt = np.minimum(kappa * np.asarray(t, dtype=float), 1e3)[..., None]
    n = np.arange(dim)
    decay = np.exp(-kt * n)
    root = np.sqrt(n[1:])
    lhs = decay[..., :-1] * root * decay[..., 1:]
    rhs = np.exp(-kt) * (np.exp(-2.0 * kt * n[:-1]) * root)
    return np.max(np.abs(lhs - rhs), axis=-1)


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


#: Bytes the oracle's working set per chunk of times may take. Per time it
#: holds both modes' Kraus bands, one mode's five Heisenberg images at a
#: time, the kernel's temporaries and mode 1 traced out: about
#: _TIME_ARRAYS complex (D, D) arrays (tracemalloc at D = 32: 256 KiB per
#: time). So a chunk is 6 times at D = 32 and 24 at D = 16, and the working
#: set does not grow with the grid. At D = 32, 6 times per chunk ran a
#: 1000-time grid in three quarters of the time that 4 did.
_CHUNK_BYTES = 3 * 2 ** 19
_TIME_ARRAYS = 16


def _chunk_size(dim: int) -> int:
    """Times per chunk at cutoff dim: the most that fit _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // (_TIME_ARRAYS * dim * dim * 16))


class MomentChunk(NamedTuple):
    """Oracle moments at a run of consecutive grid times, with the Kraus
    sets (batched over those times) they came from."""
    index: slice
    kraus: tuple[KrausSet, KrausSet]
    mean: np.ndarray
    cov: np.ndarray


def _chunk_moments(kraus: tuple[KrausSet, KrausSet], observables: list,
                   reduced: tuple[np.ndarray, np.ndarray],
                   rho4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means (C, 4) and covariances (C, 4, 4) at the C times of a pair of
    batched Kraus sets: one Heisenberg call per mode on its five
    observables, the intra-mode moments from its reduced density, and the
    cross block tr[(q1 otimes q2) rho] = tr[q2 tr_1[(q1 otimes I) rho]]
    from the x and p images q1, q2 of the two modes."""
    (obs1, obs2), (ks1, ks2), (r1, r2) = observables, kraus, reduced
    evolved = heisenberg_evolve(obs1, ks1)
    local1 = np.einsum("taij,ji->ta", evolved, r1).real
    sigma = _trace_out_mode1(evolved[:, :2], rho4)
    del evolved  # free mode 1's images before mode 2's are built
    evolved = heisenberg_evolve(obs2, ks2)
    local2 = np.einsum("taij,ji->ta", evolved, r2).real
    cross = np.einsum("ltak,tbkl->tab", sigma, evolved[:, :2]).real
    mean = np.concatenate([local1[:, :2], local2[:, :2]], axis=1)
    cov = np.empty((len(mean), 4, 4))
    for base, (x, p, x2, p2, xp) in zip((0, 2), (local1.T, local2.T)):
        cov[:, base, base] = x2 - x ** 2
        cov[:, base + 1, base + 1] = p2 - p ** 2
        cov[:, base, base + 1] = cov[:, base + 1, base] = xp - x * p
    # the factors commute, so the cross block needs no symmetrization
    cov[:, :2, 2:] = cross - mean[:, :2, None] * mean[:, None, 2:]
    cov[:, 2:, :2] = cov[:, :2, 2:].transpose(0, 2, 1)
    return mean, cov


def moment_chunks(rho0: np.ndarray, system: TwoModeSystem,
                  times: np.ndarray, dim: int) -> Iterator[MomentChunk]:
    """Means (C, 4) and symmetrized covariances (C, 4, 4) of a two-mode
    density after damping, chunk by chunk of the (T,) grid `times`, via
    per-mode Heisenberg evolution of the quadrature observables.

    The whole grid is checked before any work starts. Per chunk and mode
    there is one band build and one Heisenberg call; the intra-mode
    moments are read from the two reduced densities, taken once.
    """
    times = _checked_times(times)
    rho4 = _two_mode_tensor(rho0, dim, dim)
    reduced = reduced_densities(rho0, dim)
    observables = []  # per mode: x, p, x^2, p^2, (xp + px)/2
    for mode in system.modes:
        ops = build_mode_operators(dim, mode, system.constants)
        observables.append(np.stack([ops.x, ops.p, ops.x @ ops.x,
                                     ops.p @ ops.p,
                                     0.5 * (ops.x @ ops.p + ops.p @ ops.x)]))
    size = _chunk_size(dim)
    for start in range(0, len(times), size):
        kraus = tuple(kraus_operators(mode.kappa, times[start:start + size],
                                      dim) for mode in system.modes)
        yield MomentChunk(slice(start, start + size), kraus,
                          *_chunk_moments(kraus, observables, reduced, rho4))


def moment_trajectory(rho0: np.ndarray, system: TwoModeSystem,
                      times: np.ndarray, dim: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Means (T, 4) and symmetrized covariances (T, 4, 4) of a two-mode
    density matrix after damping for each of T times: the chunks of
    moment_chunks, gathered.

    This is the oracle counterpart of analytic.evolve_trajectory.
    """
    n_times = len(np.asarray(times))
    mean, cov = np.empty((n_times, 4)), np.empty((n_times, 4, 4))
    for chunk in moment_chunks(rho0, system, times, dim):
        mean[chunk.index], cov[chunk.index] = chunk.mean, chunk.cov
    return mean, cov


def two_mode_moments(rho0: np.ndarray, system: TwoModeSystem, t: float,
                     dim: int) -> MomentState:
    """Oracle moments of a two-mode density after damping for time t:
    moment_trajectory at one time."""
    mean, cov = moment_trajectory(rho0, system, np.array([t]), dim)
    return MomentState(mean=mean[0], cov=cov[0])
