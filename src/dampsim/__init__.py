"""Two-mode amplitude damping simulator: exact analytic moment evolution,
a truncated-Fock Kraus oracle, and classical-structure analysis under
linear canonical transformations."""

from .model import (Lct, ModeParams, MomentState, PhysicalConstants,
                    TwoModeSystem, lct_from_position_block, symplectic_defect,
                    vacuum_state)
from .analytic import (asymptotic_state, evolve_state, evolve_trajectory,
                       uncertainty_product)
from .fock import (bh_identity_residual, build_mode_operators, check_density,
                   coherent_density, completeness_defect, evolve_density,
                   kraus_operators, moment_trajectory, two_mode_moments)
from .structures import (SearchConfig, StructureReport,
                         asymptotic_cross_covariances, asymptotic_products,
                         center_of_mass_lct, classicality_residual,
                         search_classical_structure, transform_state)

__all__ = [
    "Lct", "ModeParams", "MomentState", "PhysicalConstants", "TwoModeSystem",
    "lct_from_position_block", "symplectic_defect", "vacuum_state",
    "asymptotic_state", "evolve_state", "evolve_trajectory",
    "uncertainty_product", "bh_identity_residual",
    "build_mode_operators", "coherent_density", "check_density",
    "completeness_defect", "evolve_density", "kraus_operators",
    "moment_trajectory", "two_mode_moments", "SearchConfig",
    "StructureReport", "asymptotic_cross_covariances", "asymptotic_products",
    "center_of_mass_lct", "classicality_residual",
    "search_classical_structure", "transform_state",
]

__version__ = "0.1.0"
