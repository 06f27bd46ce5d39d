"""Two-mode amplitude damping simulator: exact analytic moment evolution,
a truncated-Fock Kraus oracle, and classical-structure analysis under
linear canonical transformations.

Each export is imported from its module on first access (PEP 562), so
``import dampsim`` loads no engine and no numpy until one is used."""

import importlib

_EXPORTS = {
    "model": ("Lct", "ModeParams", "MomentState", "PhysicalConstants",
              "TwoModeSystem", "symplectic_defect", "vacuum_state"),
    "analytic": ("asymptotic_state", "evolve_state", "evolve_trajectory",
                 "uncertainty_product"),
    "fock": ("bh_identity_residual", "build_mode_operators",
             "coherent_density", "check_density", "completeness_defect",
             "evolve_density", "kraus_operators", "moment_trajectory",
             "two_mode_moments"),
    "structures": ("SearchConfig", "StructureReport",
                   "asymptotic_cross_covariances", "asymptotic_products",
                   "center_of_mass_lct", "classicality_residual",
                   "search_classical_structure", "transform_state"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    return getattr(module, name)
