"""Alternate A+B degrees of freedom: LCT-transformed moments, asymptotic
uncertainty products and cross covariances, and a numerical search for
classical-like alternate structures.

At the vacuum asymptote everything reduces to rescaled blocks. With
s_i = sqrt(m_i omega_i), M' = M diag(1/s) and N' = N diag(s) = inv(M'.T)
act on an isotropic vacuum whose variances are all hbar/2, so the
uncertainty products are (hbar/2)|alpha'||gamma'| and
(hbar/2)|beta'||delta'|, and the cross covariances (hbar/2) alpha'.beta'
and (hbar/2) gamma'.delta'. For a canonical LCT, with d = det M', both
products equal (hbar/2)|alpha'||beta'|/|d|, and the classicality residual
is the hbar-free scalar

    2 (|alpha'||beta'|/|d| - 1)^2 + (alpha'.beta')^2 (1 + 1/d^4).

By Hadamard's inequality |alpha'||beta'| >= |d|, with equality exactly
when the rows of M' are orthogonal. The residual is therefore zero on the
whole family M = diag(scales) R(theta) diag(s) (``classical_family``), for
any masses and frequencies, and positive off it.

The search minimizes that scalar with ``_nelder_mead``, a pure-Python port
of scipy's fixed-coefficient Nelder-Mead, so the package needs no scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (Lct, MomentState, TwoModeSystem, check_damped, check_lct,
                    lct_from_position_block)

# Nelder-Mead limits per restart (iterations, function and simplex
# tolerances), and the trivial-family exclusion margin
MAX_ITER = 2000
TOL = 1e-12
XATOL = 1e-9
EXCLUSION_MARGIN = 1e-3


def center_of_mass_lct() -> Lct:
    """The center-of-mass / relative-coordinate transform: X_A is the mean
    position, xi_B the position difference."""
    return Lct(M=np.array([[0.5, 0.5], [1.0, -1.0]]),
               N=np.array([[1.0, 1.0], [0.5, -0.5]]))


def lct_matrix(lct: Lct) -> np.ndarray:
    """Embed the LCT as a 4x4 map from (x1, p1, x2, p2) to
    (X_A, P_A, xi_B, pi_B)."""
    s = np.zeros((4, 4))
    s[0, 0], s[0, 2] = lct.alpha
    s[1, 1], s[1, 3] = lct.gamma
    s[2, 0], s[2, 2] = lct.beta
    s[3, 1], s[3, 3] = lct.delta
    return s


def transform_state(state: MomentState, lct: Lct) -> MomentState:
    """Moments of the alternate degrees of freedom, ordering
    (X_A, P_A, xi_B, pi_B)."""
    check_lct(lct)
    s = lct_matrix(lct)
    return MomentState(mean=s @ state.mean, cov=s @ state.cov @ s.T)


def _mode_scales(system: TwoModeSystem) -> tuple[float, float]:
    """sqrt(m_i omega_i), the factors that map each mode's vacuum onto the
    isotropic one; asymptotic quantities need both modes damped."""
    check_damped(system)
    return tuple(math.sqrt(mode.mass * mode.omega) for mode in system.modes)


def _rescaled_blocks(lct: Lct,
                     system: TwoModeSystem) -> tuple[np.ndarray, np.ndarray]:
    """M' = M diag(1/s) and N' = N diag(s), s_i = sqrt(m_i omega_i)."""
    s = np.array(_mode_scales(system))
    return lct.M / s, lct.N * s


def asymptotic_products(lct: Lct, system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic Delta X_A * Delta P_A and Delta xi_B * Delta pi_B.

    In rescaled blocks these are (hbar/2)|alpha'||gamma'| and
    (hbar/2)|beta'||delta'|, each bounded below by hbar/2 whenever the LCT
    is canonical.
    """
    m, n = _rescaled_blocks(lct, system)
    half = system.constants.hbar / 2.0
    prod = half * np.linalg.norm(m, axis=1) * np.linalg.norm(n, axis=1)
    return float(prod[0]), float(prod[1])


def asymptotic_cross_covariances(lct: Lct,
                                 system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic covariances between the A and B sectors.

    cov_xx = (hbar/2) alpha'.beta' is the position-sector covariance;
    cov_pp = (hbar/2) gamma'.delta' is its momentum-sector analogue (the
    mixed x-p covariances vanish identically at the vacuum asymptote).
    """
    m, n = _rescaled_blocks(lct, system)
    half = system.constants.hbar / 2.0
    return float(half * (m[0] @ m[1])), float(half * (n[0] @ n[1]))


def classicality_residual(lct: Lct, system: TwoModeSystem) -> float:
    """Scalar defect of the classicality criterion for the A+B structure:
    zero iff both uncertainty products sit at hbar/2 and both cross
    covariances vanish. Normalized by (hbar/2)^2."""
    half = system.constants.hbar / 2.0
    prod_a, prod_b = asymptotic_products(lct, system)
    cov_xx, cov_pp = asymptotic_cross_covariances(lct, system)
    return float(((prod_a - half) ** 2 + (prod_b - half) ** 2
                  + cov_xx ** 2 + cov_pp ** 2) / half ** 2)


def classical_family(system: TwoModeSystem, theta: float,
                     scales: tuple[float, float]) -> np.ndarray:
    """Position block diag(scales) R(theta) diag(sqrt(m_i omega_i)).

    Its rescaled rows are orthogonal, so every member (nonzero scales)
    reaches the classicality residual's zero: a product of
    minimal-uncertainty states with no A-B correlation. Members with theta
    off the multiples of pi/2 mix the modes.
    """
    c, s = math.cos(theta), math.sin(theta)
    return (np.diag(scales) @ np.array([[c, -s], [s, c]])
            @ np.diag(_mode_scales(system)))


def _position_residual(v: list[float], scales: tuple[float, float]) -> float:
    """Classicality residual of the position block [[v0, v1], [v2, v3]] in
    closed form, with a steep penalty near singular blocks."""
    a, b, c, e = v
    det = a * e - b * c
    if abs(det) < 1e-8:
        return 1e6 + 1.0 / (abs(det) + 1e-12)
    s1, s2 = scales
    a, b, c, e = a / s1, b / s2, c / s1, e / s2
    d = a * e - b * c
    dot = a * c + b * e
    ratio = math.hypot(a, b) * math.hypot(c, e) / abs(d)
    return 2.0 * (ratio - 1.0) ** 2 + dot * dot * (1.0 + 1.0 / d ** 4)


def _nelder_mead(f, x0: list[float]) -> tuple[list[float], float, int]:
    """Minimize f from x0 by the fixed-coefficient Nelder-Mead method.

    A port of scipy.optimize.minimize(method="Nelder-Mead") with options
    maxiter=MAX_ITER, fatol=TOL, xatol=XATOL: the same initial simplex,
    coefficients (reflect 1, expand 2, contract 1/2, shrink 1/2), stable
    ordering, row-order centroid and stopping test, so the same
    floating-point operations in the same order. Returns (x, f(x),
    iterations).
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
                max(abs(u - b) for x in sim[1:] for u, b in zip(x, best))
                <= XATOL and max(abs(fs[0] - g) for g in fs[1:]) <= TOL):
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


@dataclass(frozen=True)
class RestartResult:
    index: int
    position_block: np.ndarray
    residual: float
    iterations: int
    trivial: bool


def trivial_mixing_distance(M: np.ndarray) -> float:
    """Normalized Frobenius distance of M to the nearest scaled permutation
    (mode relabeling/rescaling, i.e. a structure equivalent to 1+2)."""
    norm = np.linalg.norm(M)
    if norm == 0:
        return 0.0
    off_diag = np.hypot(M[0, 1], M[1, 0])
    on_diag = np.hypot(M[0, 0], M[1, 1])
    return float(min(off_diag, on_diag) / norm)


def evaluate_structure(M: np.ndarray, system: TwoModeSystem) -> StructureReport:
    """Full report for the structure defined by a position block."""
    lct = lct_from_position_block(M)
    prod_a, prod_b = asymptotic_products(lct, system)
    cov_xx, cov_pp = asymptotic_cross_covariances(lct, system)
    return StructureReport(lct=lct, product_A=prod_a, product_B=prod_b,
                           cov_xx=cov_xx, cov_pp=cov_pp,
                           residual=classicality_residual(lct, system))


def search_classical_structure(
        system: TwoModeSystem,
        config: SearchConfig = SearchConfig()) -> tuple[StructureReport,
                                                        list[RestartResult]]:
    """Minimize the classicality residual over nontrivial position blocks.

    Nelder-Mead on the closed-form residual from seeded random starts;
    restarts that converge into the excluded trivial family (scaled
    permutations, within the exclusion margin) are recorded but not
    eligible as the result. Deterministic for a fixed seed. Raises if every
    restart lands in the trivial family.
    """
    objective = functools.partial(_position_residual,
                                  scales=_mode_scales(system))
    rng = np.random.default_rng(config.seed)

    trace: list[RestartResult] = []
    for i in range(config.restarts):
        start = rng.uniform(-2.0, 2.0, size=4)
        while abs(start[0] * start[3] - start[1] * start[2]) < 0.1:
            start = rng.uniform(-2.0, 2.0, size=4)
        x, fun, nit = _nelder_mead(objective, start.tolist())
        m = np.array(x).reshape(2, 2)
        trace.append(RestartResult(
            index=i, position_block=m, residual=fun, iterations=nit,
            trivial=trivial_mixing_distance(m) < EXCLUSION_MARGIN))

    candidates = [r for r in trace if not r.trivial]
    if not candidates:
        raise RuntimeError("every restart converged to a trivial "
                           "(mode-relabeling) structure")
    best = min(candidates,
               key=lambda r: (r.residual,
                              np.linalg.norm(r.position_block - np.eye(2)),
                              r.index))
    return evaluate_structure(best.position_block, system), trace
