"""Alternate A+B degrees of freedom: LCT-transformed moments, asymptotic
uncertainty products and cross covariances, and a numerical search for
classical-like alternate structures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Lct, MomentState, TwoModeSystem, lct_from_position_block,
                    vacuum_variances, validate_lct)

# Nelder-Mead limits per restart, and the trivial-family exclusion margin
MAX_ITER = 2000
TOL = 1e-12
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
    violations = validate_lct(lct)
    if violations:
        raise ValueError("invalid LCT: " + "; ".join(violations))
    s = lct_matrix(lct)
    return MomentState(mean=s @ state.mean, cov=s @ state.cov @ s.T)


def _require_damped(system: TwoModeSystem) -> None:
    if system.mode1.kappa == 0 or system.mode2.kappa == 0:
        raise ValueError("asymptotic quantities need kappa > 0 on both modes")


def _asymptotic_variances(
        system: TwoModeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Asymptotic (vacuum) position and momentum variances of modes 1, 2."""
    _require_damped(system)
    (vx1, vp1), (vx2, vp2) = (vacuum_variances(mode, system.constants.hbar)
                              for mode in system.modes)
    return np.array([vx1, vx2]), np.array([vp1, vp2])


def asymptotic_products(lct: Lct, system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic Delta X_A * Delta P_A and Delta xi_B * Delta pi_B.

    Each is sqrt(sum_i alpha_i^2 vx_i) * sqrt(sum_i gamma_i^2 vp_i) (and
    the beta/delta analogue) and is bounded below by hbar/2 whenever the
    LCT is canonical.
    """
    vx, vp = _asymptotic_variances(system)
    prod_a = np.sqrt((lct.alpha ** 2 @ vx) * (lct.gamma ** 2 @ vp))
    prod_b = np.sqrt((lct.beta ** 2 @ vx) * (lct.delta ** 2 @ vp))
    return float(prod_a), float(prod_b)


def asymptotic_cross_covariances(lct: Lct,
                                 system: TwoModeSystem) -> tuple[float, float]:
    """Asymptotic covariances between the A and B sectors.

    cov_xx = sum_i alpha_i beta_i vx_i is the position-sector covariance;
    cov_pp = sum_i gamma_i delta_i vp_i is its momentum-sector analogue
    (the mixed x-p covariances vanish identically at the vacuum asymptote).
    """
    vx, vp = _asymptotic_variances(system)
    return (float((lct.alpha * lct.beta) @ vx),
            float((lct.gamma * lct.delta) @ vp))


def classicality_residual(lct: Lct, system: TwoModeSystem) -> float:
    """Scalar defect of the classicality criterion for the A+B structure:
    zero iff both uncertainty products sit at hbar/2 and both cross
    covariances vanish. Normalized by (hbar/2)^2."""
    half = system.constants.hbar / 2.0
    prod_a, prod_b = asymptotic_products(lct, system)
    cov_xx, cov_pp = asymptotic_cross_covariances(lct, system)
    return float(((prod_a - half) ** 2 + (prod_b - half) ** 2
                  + cov_xx ** 2 + cov_pp ** 2) / half ** 2)


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
    start: np.ndarray
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

    Derivative-free simplex search from seeded random starts; restarts that
    converge into the excluded trivial family (scaled permutations, within
    the exclusion margin) are recorded but not eligible as the result.
    Deterministic for a fixed seed. Raises if every restart lands in the
    trivial family.
    """
    from scipy.optimize import minimize  # heavy import, only needed here

    _require_damped(system)
    rng = np.random.default_rng(config.seed)

    def objective(v: np.ndarray) -> float:
        m = v.reshape(2, 2)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-8:
            return 1e6 + 1.0 / (abs(det) + 1e-12)
        return classicality_residual(lct_from_position_block(m), system)

    trace: list[RestartResult] = []
    for i in range(config.restarts):
        start = rng.uniform(-2.0, 2.0, size=4)
        while abs(start[0] * start[3] - start[1] * start[2]) < 0.1:
            start = rng.uniform(-2.0, 2.0, size=4)
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"maxiter": MAX_ITER, "fatol": TOL,
                                "xatol": 1e-9})
        m = res.x.reshape(2, 2)
        trace.append(RestartResult(
            index=i, start=start.reshape(2, 2), position_block=m,
            residual=float(res.fun), iterations=int(res.nit),
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
