"""Truncated-Fock-space oracle: explicit Kraus operators of the amplitude
damping channel, Schroedinger-picture density evolution and
Heisenberg-picture moments.

The Kraus family is exactly finite on the truncated space (a^n = 0 for
n >= D), so no extra truncation of the channel sum is needed and trace
preservation holds to rounding. Each K_n is nonzero only on its n-th
superdiagonal, so a Kraus set is those D bands, a (D, D) array that
kraus_operators builds in closed form in O(D^2), with a cap on kappa t as
the one overflow policy. The bands are real; the kernels take complex
(phased) ones too. One private kernel applies the whole Schroedinger sum
as D shifted, reweighted slices of the density. A two-mode density is a
(D1 D2, D1 D2) matrix with mode-1-major index ordering, viewed as a
(D1, D2, D1, D2) tensor; the product channel acts on it one mode at a time
(axes (0, 2), then (1, 3)), O(D^5) elementwise work for D1 = D2 = D, and
no two-mode operator is ever formed.

That kernel takes the bands of one time; kraus_operators also builds a
(T,) grid of them as bands (T, D, D), row k bit for bit the set at
times[k]. The channel maps each diagonal of an operator to itself, and
_heisenberg_diagonal maps one at every time of such a grid, O(D^2) per
time, bit for bit the dense image's diagonal. Diagonal k = 0, 1, 2 of
x, p, x^2, p^2 and (xp + px)/2 is one ladder diagonal (2n+1, sqrt(n+1),
sqrt((n+1)(n+2))) times a coefficient of the mode, and diagonal -k its
conjugate, so by linearity the oracle maps the three ladder diagonals
alone, one row each, and weights their images; no dense operator is
formed. moment_trajectory walks a grid in chunks within _CHUNK_BYTES,
with one band build per mode and chunk, whose moments and margins it
returns; the cross moments meet only 4 (D-1)^2 density entries. It reads
those entries and the two reduced densities once, off a two-mode density,
or straight off the factors of a product state rho1 otimes rho2 given as
the pair (rho1, rho2) of (D, D) densities, so that no D^4 array is formed
for one. Each margin reads the bands the moments apply: the completeness
defect is I - E^dag(I) on diagonal 0, the BH residual and the cutoff
population are read off K_0's band e^{-ktN}. Damping never raises a
level, so the moments are exact on the truncated space whenever the
observables are. The oracle takes no closed-form moment formula, so it
stays an independent check of analytic.evolve_trajectory.

A CPTP channel keeps a valid density valid, so the evolution functions check
only shapes; check_density (a Cholesky factorization, O(D^6) for two
modes) runs once on each density a caller supplies.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (MomentState, ModeParams, PhysicalConstants, Record,
                    TwoModeSystem, checked_times, vacuum_variances)


class ModeOperators(Record):
    __slots__ = ("x", "p")


def _quadrature_diagonals(dim: int, params: ModeParams,
                          constants: PhysicalConstants) -> tuple:
    """Diagonals k = 0, 1, 2 of x, p, x^2, p^2 and (xp + px)/2 as the
    cutoff's ladder diagonals 2n+1, sqrt(n+1), sqrt((n+1)(n+2)) and the
    mode's (3, 5) table: diagonal k of observable c is table[k, c] times
    ladder k, and diagonal -k its conjugate. x^2 is the exact P x^2 P, not
    (PxP)^2, which is short by v_x D |D-1><D-1| (p^2 likewise)."""
    if dim < 2:
        raise ValueError(f"Fock cutoff must be >= 2, got {dim}")
    vx, vp = vacuum_variances(params, constants.hbar)
    sx, sp = math.sqrt(vx), math.sqrt(vp)
    n = np.arange(dim)
    ladders = (2.0 * n + 1.0, np.sqrt(n[1:]), np.sqrt(n[1:-1] * n[2:]))
    return ladders, np.array([[0, 0, vx, vp, 0],
                              [sx, -1j * sp, 0, 0, 0],
                              [0, 0, vx, -vp, -1j * sx * sp]])


def build_mode_operators(dim: int, params: ModeParams,
                         constants: PhysicalConstants) -> ModeOperators:
    """Dense quadrature matrices x and p of one mode."""
    ladders, table = _quadrature_diagonals(dim, params, constants)
    x, p = (np.diag(d, 1) + np.diag(d.conj(), -1)
            for d in table[1, :2, None] * ladders[1])
    return ModeOperators(x=x, p=p)


def kraus_operators(kappa: float, t: float | np.ndarray,
                    dim: int) -> np.ndarray:
    """The family K_n(t) = sqrt((1-e^{-2kt})^n / n!) e^{-kt N} a^n,
    n = 0 ... dim-1, of one amplitude damping channel as its bands: K_n is
    bands[..., n, :dim-n] on its n-th superdiagonal and zero elsewhere.
    The bands are (dim, dim) at one time t, (T, dim, dim) at each time of a
    (T,) array t, row k bit for bit the set at t[k]."""
    times = checked_times(t)
    kappa = float(kappa)
    if not 0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and non-negative, got {kappa}")
    if dim < 2:
        raise ValueError(f"Fock cutoff must be >= 2, got {dim}")
    # per time in Python floats, so each batch row is bit for bit the
    # one-time set. e^{-kt} is 0.0 from kt ~ 745 on, so the cap at 1e3
    # changes no value but keeps kt, kt i and -2 kt finite; math.expm1
    # gives 1 - e^{-2kt} without cancellation for small kt
    kt = np.minimum([kappa * s for s in np.atleast_1d(times).tolist()], 1e3)
    loss = np.array([-math.expm1(-2.0 * s) for s in kt.tolist()])
    i = np.arange(dim)
    bands = np.zeros(kt.shape + (dim, dim))
    # (e^{-kt N} a^n)_{i,i+n} = e^{-kt i} sqrt((i+1)...(i+n))
    bands[:, 0] = np.exp(-kt[:, None] * i)
    for n in range(1, dim):
        bands[:, n, :-n] = (bands[:, n - 1, :-n]
                            * np.sqrt(loss[:, None] * i[n:] / n))
    return bands if times.ndim else bands[0]


def completeness_defect(bands: np.ndarray) -> float | np.ndarray:
    """Max-norm of the diagonal I - E^dag(I) = I - sum_n K_n^dag K_n: the
    trace defect, per time for batched bands, through the kernel the
    moments use."""
    identity = _heisenberg_diagonal(np.ones(bands.shape[-1]), 0, bands)
    return np.max(np.abs(1.0 - identity), axis=-1)


def check_density(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a finite, Hermitian, unit-trace,
    positive semidefinite matrix, each within 1e-10."""
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix is not finite")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {np.trace(rho).real} != 1")
    try:  # rho + 1e-10 I has a Cholesky factor: no eigenvalue < -1e-10
        np.linalg.cholesky(rho + 1e-10 * np.eye(len(rho)))
    except np.linalg.LinAlgError:
        raise ValueError("density matrix is not positive semidefinite")


def _kraus_sum(x: np.ndarray, bands: np.ndarray,
               axes: tuple[int, int]) -> np.ndarray:
    """sum_n K_n x K_n^dag acting on the (row, column) axis pair `axes` of
    x, for the bands of one time. K_n is its band w_n = bands[n, :dim-n],
    so each term is a shifted slice,
    (K_n x K_n^dag)_ij = w_n[i] x_{i+n,j+n} conj(w_n[j]).
    """
    if bands.ndim != 2:
        raise ValueError("the channel takes the Kraus bands of one time")
    x = np.moveaxis(np.asarray(x, dtype=complex), axes, (0, 1))
    out = np.zeros_like(x)  # the layout of x, so the result is contiguous
    lead = (1,) * (x.ndim - 2)
    for n, band in enumerate(bands):
        m = len(band) - n
        w = band[:m]
        if not w.any():
            continue
        out[:m, :m] += ((w[:, None] * w.conj()[None, :])
                        .reshape((m, m) + lead) * x[n:, n:])
    return np.moveaxis(out, (0, 1), axes)


def _heisenberg_diagonal(x: np.ndarray, k: int,
                         bands: np.ndarray) -> np.ndarray:
    """Diagonal k of sum_n K_n^dag X K_n for operators X on their diagonal
    k only, given as x = np.diagonal(X, k) (..., dim - |k|); batched bands
    prepend their time axis. Term n adds conj(w_n[i+lo]) w_n[i+hi] x[i] at
    n+i, lo, hi = max(-k, 0), max(k, 0), the products of the shifted-slice
    sum (K_n^dag X K_n)_ij = conj(w_n[i-n]) X_{i-n,j-n} w_n[j-n] in its
    order n = 0, 1, ..., so the result is bit for bit that dense image's
    diagonal."""
    x = np.asarray(x, dtype=complex)
    batch = bands.shape[:-2]
    lo, hi = max(-k, 0), max(k, 0)
    size = bands.shape[-1] - abs(k)
    out = np.zeros(batch + x.shape, dtype=complex)
    shape = batch + (1,) * (x.ndim - 1) + (-1,)
    for n in range(size):
        m = size - n
        w = bands[..., n, :]
        out[..., n:] += ((w[..., lo:lo + m].conj() * w[..., hi:hi + m])
                         .reshape(shape) * x[..., :m])
    return out


def _two_mode_tensor(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """A (d1 d2, d1 d2) two-mode matrix as its (d1, d2, d1, d2) view."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"two-mode density shape {rho.shape} does not "
                         f"match cutoffs ({d1}, {d2})")
    return rho.reshape(d1, d2, d1, d2)


def evolve_density(rho0: np.ndarray, bands1: np.ndarray,
                   bands2: np.ndarray | None = None) -> np.ndarray:
    """Schroedinger-picture Kraus sum at one time; single mode, or the
    two-mode product channel applied one mode at a time."""
    rho0 = np.asarray(rho0, dtype=complex)
    d1 = bands1.shape[-1]
    if bands2 is None:
        if rho0.shape != (d1, d1):
            raise ValueError(f"density shape {rho0.shape} does not match "
                             f"cutoff {d1}")
        return _kraus_sum(rho0, bands1, (0, 1))
    rho4 = _kraus_sum(_two_mode_tensor(rho0, d1, bands2.shape[-1]), bands1,
                      (0, 2))
    return _kraus_sum(rho4, bands2, (1, 3)).reshape(rho0.shape)


def reduced_densities(rho: np.ndarray,
                      dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The one-mode reduced density matrices of a two-mode density."""
    rho4 = _two_mode_tensor(rho, dim, dim)
    return np.einsum("ikjk->ij", rho4), np.einsum("kikj->ij", rho4)


def top_level_population(reduced: np.ndarray,
                         bands: np.ndarray) -> float | np.ndarray:
    """Population of the top level |dim-1> of a one-mode density after the
    channel, tr[E^dag(|dim-1><dim-1|) rho]: the weight at the cutoff, per
    time for batched bands. Only K_0 reaches |dim-1>, so it is
    |K_0[dim-1, dim-1]|^2 rho[dim-1, dim-1]."""
    return np.abs(bands[..., 0, -1]) ** 2 * reduced[-1, -1].real


def _bh_residual(bands: np.ndarray) -> float | np.ndarray:
    """Max-norm residual of e^{-ktN} a e^{-ktN} = e^{-kt} e^{-2ktN} a on
    K_0's band b = e^{-ktN}, e^{-kt} = b[1], per time for batched bands.
    Both sides are exact on the truncated space (the conjugate identity for
    a^dag carries e^{-kt} with a^dag on the left), so only their lowering
    band can differ: b[n] sqrt(n+1) b[n+1] against b[1] b[n]^2 sqrt(n+1)."""
    b = bands[..., 0, :]
    root = np.sqrt(np.arange(1.0, b.shape[-1]))
    return np.max(np.abs(b[..., :-1] * root * b[..., 1:]
                         - b[..., 1:2] * (b[..., :-1] ** 2 * root)), axis=-1)


def bh_identity_residual(kappa: float, t: float | np.ndarray,
                         dim: int) -> float | np.ndarray:
    """Residual of the Baker-Hausdorff identity on the Kraus set
    kraus_operators(kappa, t, dim), per time for a (T,) array t."""
    return _bh_residual(kraus_operators(kappa, t, dim))


def coherent_density(displacement: complex, dim: int) -> np.ndarray:
    """Truncated coherent state |alpha><alpha|, renormalized.

    Rejects displacements whose Poisson tail would leak past the cutoff
    (|alpha|^2 > dim/4).
    """
    alpha = complex(displacement)
    try:
        norm2 = abs(alpha) ** 2
    except OverflowError:  # |alpha|^2 is past float range
        norm2 = math.inf
    if not norm2 <= dim / 4.0:
        raise ValueError(
            f"|displacement|^2 = {norm2:g} exceeds dim/4 = "
            f"{dim / 4.0:g}; increase the cutoff")
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1.0, dim)))))
    amps = np.exp(-0.5 * norm2 - 0.5 * log_fact) * alpha ** n
    amps /= np.linalg.norm(amps)
    return np.outer(amps, amps.conj())


#: Bytes the oracle's working set per chunk of times may take. Per time it
#: holds both modes' real Kraus bands and their ladder images: 2.0 complex
#: (D, D) arrays at D = 32, 2.2 at D = 16 and 3.4 at D = 64 by tracemalloc,
#: setup included. _TIME_ARRAYS keeps the chunks of 54 times at D = 16,
#: 13 at D = 32 and 3 at D = 64, and the working set does not grow with
#: the grid: the tracemalloc peak of moment_trajectory less its outputs,
#: on 1000 times, is about 0.53 MiB at D = 32 and 0.79 MiB at D = 64.
_CHUNK_BYTES = 3 * 2 ** 19
_TIME_ARRAYS = 7


def _chunk_size(dim: int) -> int:
    """Times per chunk at cutoff dim: the most that fit _CHUNK_BYTES."""
    return max(1, _CHUNK_BYTES // (_TIME_ARRAYS * dim * dim * 16))


class OracleTrajectory(Record):
    """Oracle means (T, 4) and covariances (T, 4, 4) on a (T,) grid, and per
    time the largest over both modes of the completeness defect, the BH
    identity residual and the population at the cutoff."""

    __slots__ = ("mean", "cov", "completeness", "bh_residual", "fock_tail")


def _chunk_moments(kraus: tuple[np.ndarray, np.ndarray], tables: list,
                   rho_xp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Means (C, 4) and covariances (C, 4, 4) at the C times of a pair of
    batched Kraus bands. Per mode of `tables`, ladder diagonal k's image
    against the reduced density's diagonal -k is z_k, and diagonal -k, the
    conjugate of k, adds conj(z_k): the moment of table column c is
    Re(c_0 z_0 + 2 c_1 z_1 + 2 c_2 z_2), the 2 held in the density's
    diagonals. The cross block takes x and p on diagonals -1, 1, table row 1
    times the diagonal-1 image, against rho_xp."""
    local, q = [], []
    for bands, (ladders, table, r) in zip(kraus, tables):
        images = [_heisenberg_diagonal(x, k, bands)
                  for k, x in enumerate(ladders)]
        z = [(image * r[k]).sum(axis=-1) for k, image in enumerate(images)]
        local.append(sum(z[k][:, None] * table[k] for k in range(3)).real)
        x_p = table[1, :2, None] * images[1][:, None]
        q.append(np.concatenate([x_p.conj(), x_p], axis=-1))
    cross = (q[0] @ rho_xp @ q[1].transpose(0, 2, 1)).real
    mean = np.concatenate([local[0][:, :2], local[1][:, :2]], axis=1)
    cov = np.empty((len(mean), 4, 4))
    for base, (x, p, x2, p2, xp) in zip((0, 2), (local[0].T, local[1].T)):
        cov[:, base, base] = x2 - x ** 2
        cov[:, base + 1, base + 1] = p2 - p ** 2
        cov[:, base, base + 1] = cov[:, base + 1, base] = xp - x * p
    # the factors commute, so the cross block needs no symmetrization
    cov[:, :2, 2:] = cross - mean[:, :2, None] * mean[:, None, 2:]
    cov[:, 2:, :2] = cov[:, :2, 2:].transpose(0, 2, 1)
    return mean, cov


def moment_trajectory(rho0: np.ndarray | tuple, system: TwoModeSystem,
                      times: np.ndarray, dim: int) -> OracleTrajectory:
    """The oracle counterpart of analytic.evolve_trajectory: moments and
    margins of a two-mode density after damping at each time of the (T,)
    grid `times`, by per-mode Heisenberg evolution of the quadratures.

    rho0 is the (D^2, D^2) density, or a tuple (rho1, rho2) of (D, D)
    one-mode densities standing for rho1 otimes rho2, whose reduced
    densities and cross entries are read off the factors; either form
    must match the cutoff dim (ValueError otherwise).

    The whole grid is checked before any work starts. Per chunk and mode
    one band build serves the moments and the margins, with one kernel
    call per diagonal; the density entries the moments meet are read once.
    """
    times = checked_times(times)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D grid, got a scalar")
    # tr[(q1 otimes q2) rho] = sum q1_ij q2_lk rho4[j, k, i, l], and (i, j)
    # is (u + 1, u) on diagonal -1, then (u, u + 1) on 1, u < dim - 1; for
    # rho1 otimes rho2, rho4[j, k, i, l] = rho1[j, i] rho2[k, l]
    i, j = np.r_[1:dim, :dim - 1], np.r_[:dim - 1, 1:dim]
    if isinstance(rho0, tuple):  # rho1 otimes rho2: read off its factors
        densities = np.asarray(rho0, dtype=complex)
        if densities.shape != (2, dim, dim):
            raise ValueError(f"density pair shape {densities.shape} does "
                             f"not match cutoff {dim}")
        rho_xp = np.outer(densities[0, j, i], densities[1, j, i])
    else:
        densities = reduced_densities(rho0, dim)
        rho_xp = _two_mode_tensor(rho0, dim, dim)[j[:, None], j, i[:, None], i]
    # per mode the ladders, the table and diagonals 0, -1, -2 of the
    # reduced density, the last two doubled for their conjugates
    tables = [(*_quadrature_diagonals(dim, mode, system.constants),
               [np.diagonal(r, -k) * (2 if k else 1) for k in range(3)])
              for mode, r in zip(system.modes, densities)]
    mean, cov = np.empty(times.shape + (4,)), np.empty(times.shape + (4, 4))
    margins = np.empty((3,) + times.shape)  # in OracleTrajectory's order
    size = _chunk_size(dim)
    for start in range(0, len(times), size):
        index = slice(start, start + size)
        kraus = tuple(kraus_operators(mode.kappa, times[index], dim)
                      for mode in system.modes)
        mean[index], cov[index] = _chunk_moments(kraus, tables, rho_xp)
        margins[:, index] = np.max([(completeness_defect(bands),
                                     _bh_residual(bands),
                                     top_level_population(r, bands))
                                    for bands, r in zip(kraus, densities)],
                                   axis=0)
    return OracleTrajectory(mean=mean, cov=cov, completeness=margins[0],
                            bh_residual=margins[1], fock_tail=margins[2])


def two_mode_moments(rho0: np.ndarray | tuple, system: TwoModeSystem,
                     t: float, dim: int) -> MomentState:
    """Oracle moments of a two-mode density, or of the product state of a
    (rho1, rho2) pair, after damping for time t: moment_trajectory at one
    time."""
    oracle = moment_trajectory(rho0, system, np.array([t]), dim)
    return MomentState(mean=oracle.mean[0], cov=oracle.cov[0])
