"""Alternate A+B degrees of freedom: LCT-transformed moments, asymptotic
uncertainty products and cross covariances, and a numerical search for
classical-like alternate structures.

At the vacuum asymptote all of these are functions of the rescaled block
M' = M diag(1/s), s_i = sqrt(m_i omega_i), acting on an isotropic vacuum
of variances hbar/2 (N' = N diag(s) = inv(M'.T) for a canonical LCT).
With rows alpha', beta' and d = det M', ``_rescaled`` is the one
definition of ratio = |alpha'||beta'|/|d|, dot = alpha'.beta' and the
hbar-free classicality residual 2 (ratio - 1)^2 + dot^2 + (dot/d^2)^2:
both products are (hbar/2) ratio, cov_xx = (hbar/2) dot and
cov_pp = -cov_xx/d^2. It takes no powers, so a value past float range is
inf, never an exception.

By Hadamard's inequality |alpha'||beta'| >= |d|, with equality exactly
when the rows of M' are orthogonal. So the residual and the family
distance |dot|/(|alpha'||beta'|) both vanish exactly on the family
M = diag(scales) R(theta) diag(s) (``classical_family``), for any masses
and frequencies.

The search runs ``_nelder_mead`` (a pure-Python port of scipy's
Nelder-Mead) on the residual over M', where no mass, frequency or hbar
enters, and maps the best block back once, M = M' diag(s). So the search
and its trace depend on the seed alone. Its starts are
numpy.random.default_rng(seed).uniform(-2, 2) draws, bit for bit, from
``_uniform_draws``, a standard-library port of numpy's SeedSequence and
PCG64; only transform_state imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import (Block, Lct, MomentState, TwoModeSystem, check_damped,
                    check_lct)

if TYPE_CHECKING:
    import numpy as np

# Nelder-Mead limits per restart (iterations, function and simplex
# tolerances), and the trivial-family exclusion margin
MAX_ITER = 2000
TOL = 1e-12
XATOL = 1e-9
EXCLUSION_MARGIN = 1e-3


def center_of_mass_lct() -> Lct:
    """The center-of-mass / relative-coordinate transform: X_A is the mean
    position, xi_B the position difference."""
    return Lct(M=((0.5, 0.5), (1.0, -1.0)), N=((1.0, 1.0), (0.5, -0.5)))


def lct_matrix(lct: Lct) -> np.ndarray:
    """Embed the LCT as a 4x4 map from (x1, p1, x2, p2) to
    (X_A, P_A, xi_B, pi_B)."""
    import numpy as np
    s = np.zeros((4, 4))
    s[0::2, 0::2] = lct.M  # rows alpha, beta
    s[1::2, 1::2] = lct.N  # rows gamma, delta
    return s


def transform_state(state: MomentState, lct: Lct) -> MomentState:
    """Moments of the alternate degrees of freedom, ordering
    (X_A, P_A, xi_B, pi_B), at the state's leading shape. The product
    s cov s^T is symmetric only up to rounding, so its upper triangle is
    kept and mirrored into the lower one. A frame whose moments leave float
    range (a canonical M of entries 1e200, or 1e-200 and so N of 5e199)
    raises FloatingPointError, a computation failure."""
    import numpy as np
    check_lct(lct)
    s = lct_matrix(lct)
    with np.errstate(over="raise", invalid="raise"):
        cov = s @ state.cov @ s.T
        mean = (s @ state.mean[..., None])[..., 0]
    i, j = np.tril_indices(4, -1)  # i > j
    cov[..., i, j] = cov[..., j, i]
    return MomentState(mean=mean, cov=cov)


def _mode_scales(system: TwoModeSystem) -> tuple[float, float]:
    """sqrt(m_i omega_i), the factors that map each mode's vacuum onto the
    isotropic one; asymptotic quantities need both modes damped."""
    check_damped(system)
    return tuple(math.sqrt(mode.mass * mode.omega) for mode in system.modes)


#: Largest entries of M' that ``_rescaled`` leaves unscaled: below 2^256
#: no product of two entries comes near the float range.
_UNSCALED_TOP = 2.0 ** 256


def _rescaled(a: float, b: float, c: float, e: float) -> tuple[float, ...]:
    """k, d, dot, ratio, family distance and residual of the rescaled block
    M' = [[a, b], [c, e]] (module docstring), for d != 0. d and dot are
    those of 2^k M', where k brings a largest entry below 1/2 or of 2^256
    and more into [1/2, 1), so d stays representable for a tiny or huge,
    well-conditioned M'; the rest are those of M' itself, unscaled
    exactly."""
    top = max(abs(a), abs(b), abs(c), abs(e))
    k = -math.frexp(top)[1] if not 0.5 <= top < _UNSCALED_TOP else 0
    if k:
        a, b, c, e = (math.ldexp(v, k) for v in (a, b, c, e))
    d = a * e - b * c
    dot = a * c + b * e
    norms = math.hypot(a, b) * math.hypot(c, e)
    ratio = norms / abs(d)
    p, q = math.ldexp(dot, -2 * k), math.ldexp(dot / d / d, 2 * k)
    residual = 2.0 * (ratio - 1.0) * (ratio - 1.0) + p * p + q * q
    return k, d, dot, ratio, abs(dot) / norms, residual


def asymptotic_products(lct: Lct, system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic Delta X_A * Delta P_A and Delta xi_B * Delta pi_B, both
    (hbar/2)|alpha'||beta'|/|d| >= hbar/2 for a canonical LCT."""
    check_lct(lct)
    report = evaluate_structure(lct.M, system)
    return report.product_A, report.product_B


def asymptotic_cross_covariances(lct: Lct,
                                 system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic A-B covariances cov_xx = (hbar/2) alpha'.beta' and
    cov_pp = (hbar/2) gamma'.delta' = -cov_xx/d^2; the mixed x-p ones
    vanish identically at the vacuum asymptote."""
    check_lct(lct)
    report = evaluate_structure(lct.M, system)
    return report.cov_xx, report.cov_pp


def classicality_residual(lct: Lct, system: TwoModeSystem) -> float:
    """Scalar defect of the classicality criterion, ((prod_A - hbar/2)^2 +
    (prod_B - hbar/2)^2 + cov_xx^2 + cov_pp^2) / (hbar/2)^2: zero iff both
    products sit at hbar/2 and both cross covariances vanish."""
    check_lct(lct)
    return evaluate_structure(lct.M, system).residual


def classical_family(system: TwoModeSystem, theta: float,
                     scales: tuple[float, float]) -> Block:
    """Position block diag(scales) R(theta) diag(sqrt(m_i omega_i)).

    Its rescaled rows are orthogonal, so every member (nonzero scales)
    reaches the classicality residual's zero: a product of
    minimal-uncertainty states with no A-B correlation. Members with theta
    off the multiples of pi/2 mix the modes.
    """
    c, s = math.cos(theta), math.sin(theta)
    s1, s2 = _mode_scales(system)
    u, w = scales
    return ((u * c * s1, u * -s * s2), (w * s * s1, w * c * s2))


def _objective(v: list[float]) -> float:
    """The search's objective: the residual of the rescaled block
    [[v0, v1], [v2, v3]], with a steep penalty near singular blocks."""
    a, b, c, e = v
    det = a * e - b * c
    if abs(det) < 1e-8:
        return 1e6 + 1.0 / (abs(det) + 1e-12)
    return _rescaled(a, b, c, e)[-1]


def _nelder_mead(f, x0: list[float]) -> tuple[list[float], float, int]:
    """Minimize f from x0 by the fixed-coefficient Nelder-Mead method.

    A port of scipy.optimize.minimize(method="Nelder-Mead") with options
    maxiter=MAX_ITER, fatol=TOL, xatol=XATOL: the same initial simplex,
    coefficients (reflect 1, expand 2, contract 1/2, shrink 1/2), stable
    ordering, row-order centroid and stopping test, so the same
    floating-point operations in the same order; the test reads the
    function spread before the simplex spread, which only skips work.
    Returns (x, f(x), iterations).
    """
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fs = [f(x) for x in sim]
    it = 1
    while True:
        order = sorted(range(n + 1), key=fs.__getitem__)
        sim, fs = [sim[j] for j in order], [fs[j] for j in order]
        best, worst = sim[0], sim[-1]
        if it >= MAX_ITER or (
                max(abs(fs[0] - g) for g in fs[1:]) <= TOL and
                max(abs(u - b) for x in sim[1:] for u, b in zip(x, best))
                <= XATOL):
            return best, fs[0], it
        xbar = sim[0]
        for x in sim[1:-1]:
            xbar = [u + w for u, w in zip(xbar, x)]
        xbar = [u / n for u in xbar]
        xr = [2 * u - w for u, w in zip(xbar, worst)]
        fxr = f(xr)
        if fxr < fs[0]:
            xe = [3 * u - 2 * w for u, w in zip(xbar, worst)]
            fxe = f(xe)
            sim[-1], fs[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fs[-2]:
            sim[-1], fs[-1] = xr, fxr
        else:
            outside = fxr < fs[-1]
            xc = ([1.5 * u - 0.5 * w for u, w in zip(xbar, worst)] if outside
                  else [0.5 * u + 0.5 * w for u, w in zip(xbar, worst)])
            fxc = f(xc)
            if (fxc <= fxr) if outside else (fxc < fs[-1]):
                sim[-1], fs[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (u - b) for u, b in zip(sim[j], best)]
                    fs[j] = f(sim[j])
        it += 1


_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1


def _seed_sequence_words(seed: int) -> list[int]:
    """numpy.random.SeedSequence(seed).generate_state(4, np.uint64): the
    entropy's 32-bit words (least significant first) hashed into a pool of
    four, mixed, and drawn out as eight 32-bit words."""
    words = (seed.bit_length() + 31) // 32 or 1
    entropy = [seed >> 32 * i & _M32 for i in range(words)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def _uniform_draws(seed: int, low: float, high: float):
    """The draws of numpy.random.default_rng(seed).uniform(low, high), one
    at a time and bit for bit: PCG64 (a 128-bit LCG with the XSL-RR output)
    seeded from SeedSequence(seed), and 53-bit doubles."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    s_hi, s_lo, i_hi, i_lo = _seed_sequence_words(seed)
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * mult + inc) & _M128
    while True:
        state = (state * mult + inc) & _M128
        word, rot = ((state >> 64) ^ state) & _M64, state >> 122
        word = (word >> rot | word << (64 - rot)) & _M64
        yield low + (high - low) * ((word >> 11) * (1.0 / 2 ** 53))


def _distance_to_identity(m: Block) -> float:
    """Frobenius distance of m to the identity: the search's tie-break."""
    (a, b), (c, e) = m
    return math.hypot(a - 1.0, b, c, e - 1.0)


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 32
    seed: int = 0


@dataclass(frozen=True)
class StructureReport:
    lct: Lct
    product_A: float
    product_B: float
    cov_xx: float
    cov_pp: float
    residual: float
    family_distance: float


@dataclass(frozen=True)
class RestartResult:
    index: int
    rescaled_block: Block  # M' = M diag(1/s), where the search runs
    residual: float
    iterations: int
    trivial: bool


def trivial_mixing_distance(M) -> float:
    """Normalized Frobenius distance of the 2x2 block M to the nearest
    scaled permutation (mode relabeling/rescaling, i.e. a structure
    equivalent to 1+2)."""
    (a, b), (c, e) = M
    norm = math.hypot(a, b, c, e)
    if norm == 0:
        return 0.0
    return min(math.hypot(b, c), math.hypot(a, e)) / norm


def evaluate_structure(M, system: TwoModeSystem) -> StructureReport:
    """Full report for the canonical LCT with position block M, read from
    ``_rescaled`` of M' = M diag(1/s). M is taken as checked: the momentum
    block is N = N' diag(1/s), N' = inv(M'.T) = adj(M')^T / d."""
    s1, s2 = _mode_scales(system)
    (a, b), (c, e) = ((float(v) for v in row) for row in M)
    a, b, c, e = a / s1, b / s2, c / s1, e / s2
    k, d, dot, ratio, distance, residual = _rescaled(a, b, c, e)
    a, b, c, e = (math.ldexp(v, k) for v in (a, b, c, e))
    half = system.constants.hbar / 2.0
    n = [[math.ldexp(v / d, k) for v in row]
         for row in ((e / s1, -c / s2), (-b / s1, a / s2))]
    return StructureReport(lct=Lct(M=M, N=n), product_A=half * ratio,
                           product_B=half * ratio,
                           cov_xx=math.ldexp(half * dot, -2 * k),
                           cov_pp=math.ldexp(-(half * dot) / d / d, 2 * k),
                           residual=residual, family_distance=distance)


def search_classical_structure(
        system: TwoModeSystem,
        config: SearchConfig = SearchConfig()) -> tuple[StructureReport,
                                                        list[RestartResult]]:
    """Minimize the classicality residual over nontrivial position blocks.

    Nelder-Mead on the residual of M' from seeded random starts, so the
    same for every system; restarts converging into the excluded trivial
    family (scaled permutations of M', within the exclusion margin) are
    recorded but not eligible. The best M' maps back to M = M' diag(s).
    Raises if every restart lands in the trivial family.
    """
    scales = _mode_scales(system)
    draws = _uniform_draws(config.seed, -2.0, 2.0)

    trace: list[RestartResult] = []
    for i in range(config.restarts):
        start = [next(draws) for _ in range(4)]
        while abs(start[0] * start[3] - start[1] * start[2]) < 0.1:
            start = [next(draws) for _ in range(4)]
        x, fun, nit = _nelder_mead(_objective, start)
        m = (tuple(x[:2]), tuple(x[2:]))
        trace.append(RestartResult(
            index=i, rescaled_block=m, residual=fun, iterations=nit,
            trivial=trivial_mixing_distance(m) < EXCLUSION_MARGIN))

    candidates = [r for r in trace if not r.trivial]
    if not candidates:
        raise RuntimeError("every restart converged to a trivial "
                           "(mode-relabeling) structure")
    best = min(candidates, key=lambda r: (
        r.residual, _distance_to_identity(r.rescaled_block), r.index))
    (a, b), (c, e) = best.rescaled_block
    s1, s2 = scales
    return evaluate_structure(((a * s1, b * s2), (c * s1, e * s2)),
                              system), trace
