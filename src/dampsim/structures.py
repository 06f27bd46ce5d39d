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
and its trace depend on the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Lct, MomentState, TwoModeSystem, check_damped, check_lct

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


def _rescaled(a: float, b: float, c: float, e: float) -> tuple[float, ...]:
    """d, dot, ratio, family distance and residual of the rescaled block
    M' = [[a, b], [c, e]] (module docstring), for d != 0."""
    d = a * e - b * c
    dot = a * c + b * e
    norms = math.hypot(a, b) * math.hypot(c, e)
    ratio = norms / abs(d)
    q = dot / d / d
    residual = 2.0 * (ratio - 1.0) * (ratio - 1.0) + dot * dot + q * q
    return d, dot, ratio, abs(dot) / norms, residual


def asymptotic_products(lct: Lct, system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic Delta X_A * Delta P_A and Delta xi_B * Delta pi_B, both
    (hbar/2)|alpha'||beta'|/|d| >= hbar/2 for a canonical LCT."""
    report = evaluate_structure(lct.M, system)
    return report.product_A, report.product_B


def asymptotic_cross_covariances(lct: Lct,
                                 system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic A-B covariances cov_xx = (hbar/2) alpha'.beta' and
    cov_pp = (hbar/2) gamma'.delta' = -cov_xx/d^2; the mixed x-p ones
    vanish identically at the vacuum asymptote."""
    report = evaluate_structure(lct.M, system)
    return report.cov_xx, report.cov_pp


def classicality_residual(lct: Lct, system: TwoModeSystem) -> float:
    """Scalar defect of the classicality criterion, ((prod_A - hbar/2)^2 +
    (prod_B - hbar/2)^2 + cov_xx^2 + cov_pp^2) / (hbar/2)^2: zero iff both
    products sit at hbar/2 and both cross covariances vanish."""
    return evaluate_structure(lct.M, system).residual


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
    family_distance: float


@dataclass(frozen=True)
class RestartResult:
    index: int
    rescaled_block: np.ndarray  # M' = M diag(1/s), where the search runs
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
    """Full report for the canonical LCT with position block M, read from
    ``_rescaled`` of M' = M diag(1/s). M is taken as checked: the momentum
    block is N = N' diag(1/s), N' = inv(M'.T) = adj(M')^T / d."""
    s1, s2 = _mode_scales(system)
    (a, b), (c, e) = np.asarray(M, dtype=float).tolist()
    a, b, c, e = a / s1, b / s2, c / s1, e / s2
    d, dot, ratio, distance, residual = _rescaled(a, b, c, e)
    half = system.constants.hbar / 2.0
    n = [[e / s1 / d, -c / s2 / d], [-b / s1 / d, a / s2 / d]]
    return StructureReport(lct=Lct(M=M, N=n), product_A=half * ratio,
                           product_B=half * ratio, cov_xx=half * dot,
                           cov_pp=-(half * dot) / d / d, residual=residual,
                           family_distance=distance)


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
    rng = np.random.default_rng(config.seed)

    trace: list[RestartResult] = []
    for i in range(config.restarts):
        start = rng.uniform(-2.0, 2.0, size=4)
        while abs(start[0] * start[3] - start[1] * start[2]) < 0.1:
            start = rng.uniform(-2.0, 2.0, size=4)
        x, fun, nit = _nelder_mead(_objective, start.tolist())
        m = np.array(x).reshape(2, 2)
        trace.append(RestartResult(
            index=i, rescaled_block=m, residual=fun, iterations=nit,
            trivial=trivial_mixing_distance(m) < EXCLUSION_MARGIN))

    candidates = [r for r in trace if not r.trivial]
    if not candidates:
        raise RuntimeError("every restart converged to a trivial "
                           "(mode-relabeling) structure")
    best = min(candidates,
               key=lambda r: (r.residual,
                              np.linalg.norm(r.rescaled_block - np.eye(2)),
                              r.index))
    return evaluate_structure(best.rescaled_block * scales, system), trace
