"""Alternate A+B degrees of freedom: LCT-transformed moments, asymptotic
uncertainty products and cross covariances, and classical-like alternate
structures in closed form.

At the vacuum asymptote all of these are functions of the rescaled block
M' = M diag(1/s), s_i = sqrt(m_i omega_i), acting on an isotropic vacuum
of variances hbar/2 (N' = N diag(s) = inv(M'.T) enters through d alone).
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

The search therefore needs no minimizer: ``_project_to_family`` maps
each seeded start M' onto that zero set in closed form, where no mass,
frequency or hbar enters, and the chosen block maps back once,
M = M' diag(s). So the search and its trace depend on the seed alone.
The starts are random.Random(seed).uniform(-2, 2) draws, a stream Python
keeps the same for an int seed on every version. Only transform_state
imports numpy.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from .model import (Block, Lct, MomentState, Record, TwoModeSystem,
                    _block, _inverse_transpose, check_damped)

if TYPE_CHECKING:
    import numpy as np

# The trivial-family exclusion margin of trivial_mixing_distance
EXCLUSION_MARGIN = 1e-3


def center_of_mass_lct() -> Lct:
    """The center-of-mass / relative-coordinate transform: X_A is the mean
    position, xi_B the position difference."""
    return Lct(M=((0.5, 0.5), (1.0, -1.0)))  # N = ((1, 1), (0.5, -0.5))


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
#: no product of two entries comes near the float range. Scaling every
#: block would give the same bits for blocks of one scale, but not for
#: one whose entries span ~1e175 (masses 1e-150 and 1e200): in [1/2, 1)
#: its small entries are ~1e-175, so d is too and dot/d/d overflows to a
#: reported cov_pp of -inf, where unscaled it is a finite -3.6e199.
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
    report = evaluate_structure(lct.M, system)
    return report.product_A, report.product_B


def asymptotic_cross_covariances(lct: Lct,
                                 system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic A-B covariances cov_xx = (hbar/2) alpha'.beta' and
    cov_pp = (hbar/2) gamma'.delta' = -cov_xx/d^2; the mixed x-p ones
    vanish identically at the vacuum asymptote."""
    report = evaluate_structure(lct.M, system)
    return report.cov_xx, report.cov_pp


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


def _project_to_family(a: float, b: float, c: float, e: float) -> Block:
    """The family member diag(u, w) R(theta) for the rescaled block
    M' = [[a, b], [c, e]], d != 0: R(theta) is the rotation nearest
    diag(1, sign d) M', u and |w| are the row norms of M', and w has the
    sign of d, so reflections are members too. A member maps to itself."""
    sign = math.copysign(1.0, a * e - b * c)
    theta = math.atan2(sign * c - b, a + sign * e)
    u, w = math.hypot(a, b), sign * math.hypot(c, e)
    co, si = math.cos(theta), math.sin(theta)
    return ((u * co, -u * si), (w * si, w * co))


class SearchConfig(Record):
    __slots__ = ("restarts", "seed")

    def __init__(self, restarts: int = 32, seed: int = 0):
        super().__init__(restarts=restarts, seed=seed)


class StructureReport(Record):
    __slots__ = ("lct", "product_A", "product_B", "cov_xx", "cov_pp",
                 "residual", "family_distance")


class RestartResult(Record):
    """One restart: rescaled_block is M' = M diag(1/s), where the search
    runs; iterations is 0, as the projection is closed form."""

    __slots__ = ("index", "rescaled_block", "residual", "iterations",
                 "trivial")


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
    ``_rescaled`` of M' = M diag(1/s). M is taken as checked: the report's
    Lct has the N = inv(M.T) that Lct(M) gives and checks M N^T = I, which
    holds for the search's family members past Lct(M)'s cond(M) bound."""
    s1, s2 = _mode_scales(system)
    (a, b), (c, e) = m = _block(M)
    k, d, dot, ratio, distance, residual = _rescaled(a / s1, b / s2,
                                                     c / s1, e / s2)
    half = system.constants.hbar / 2.0
    return StructureReport(lct=Lct(M=m, N=_inverse_transpose(m)),
                           product_A=half * ratio, product_B=half * ratio,
                           cov_xx=math.ldexp(half * dot, -2 * k),
                           cov_pp=math.ldexp(-(half * dot) / d / d, 2 * k),
                           residual=residual, family_distance=distance)


def search_classical_structure(
        system: TwoModeSystem,
        config: SearchConfig = SearchConfig()) -> tuple[StructureReport,
                                                        list[RestartResult]]:
    """A nontrivial position block on the classicality residual's zero set.

    Each seeded random start M' is projected onto the family in closed
    form, so the same for every system, with residual 0 up to rounding and
    iterations 0; members within the exclusion margin of a scaled
    permutation (trivial) are recorded but not eligible. The eligible
    member that mixes the modes most (largest trivial_mixing_distance,
    ties to the lower index) maps back to M = M' diag(s). Raises if every
    restart lands in the trivial family.
    """
    s1, s2 = _mode_scales(system)
    rng = random.Random(config.seed)

    trace: list[RestartResult] = []
    for i in range(config.restarts):
        start = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        while abs(start[0] * start[3] - start[1] * start[2]) < 0.1:
            start = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        m = _project_to_family(*start)
        trace.append(RestartResult(
            index=i, rescaled_block=m, residual=_rescaled(*m[0], *m[1])[-1],
            iterations=0,
            trivial=trivial_mixing_distance(m) < EXCLUSION_MARGIN))

    candidates = [r for r in trace if not r.trivial]
    if not candidates:
        raise RuntimeError("every restart landed on a trivial "
                           "(mode-relabeling) structure")
    best = max(candidates,
               key=lambda r: trivial_mixing_distance(r.rescaled_block))
    (a, b), (c, e) = best.rescaled_block
    return evaluate_structure(((a * s1, b * s2), (c * s1, e * s2)),
                              system), trace
