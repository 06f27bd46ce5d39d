"""Library script of the fock-schroedinger workload: two-mode
Schroedinger-picture damping through the public ``dampsim.fock`` API.

Usage: python perfbench/schroedinger.py SPEC.json OUT_DIR

For each time in the spec it evolves the generated two-mode density with
``fock.evolve_density(rho0, ks1, ks2)`` and reads the first and symmetrized
second quadrature moments off the evolved state with its own contraction
(not ``fock.product_expectation``). It writes ``moments.json`` with the
moments, trace, smallest eigenvalue and Hermiticity defect of each state.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from dampsim import fock
from dampsim.model import ModeParams, PhysicalConstants


def load_inputs(path: str) -> tuple[dict, list[ModeParams], np.ndarray]:
    with open(path) as fh:
        spec = json.load(fh)
    rho0 = np.load(os.path.join(os.path.dirname(path), spec["density"]))
    return spec, [ModeParams(**m) for m in spec["modes"]], rho0


def moments(rho: np.ndarray, quads: list[tuple[int, np.ndarray]],
            dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetrized covariance of the (mode, operator) quadratures
    ``quads``, ordered (x1, p1, x2, p2)."""
    rho4 = rho.reshape(dim, dim, dim, dim)
    reduced = (np.einsum("ikjk->ij", rho4), np.einsum("kikj->ij", rho4))

    def local(op, mode):
        return np.einsum("ij,ji->", op, reduced[mode]).real

    mean = np.array([local(op, mode) for mode, op in quads])
    cov = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            (mi, a), (mj, b) = quads[i], quads[j]
            if mi == mj:
                second = local(0.5 * (a @ b + b @ a), mi)
            else:  # i < j, so a acts on mode 1 and b on mode 2
                second = np.einsum("ab,cd,bdac->", a, b, rho4).real
            cov[i, j] = cov[j, i] = second - mean[i] * mean[j]
    return mean, cov


def record(t: float, rho: np.ndarray, quads, dim: int) -> dict:
    mean, cov = moments(rho, quads, dim)
    return {"t": t, "mean": mean.tolist(), "cov": cov.tolist(),
            "trace": float(np.trace(rho).real),
            "min_eigenvalue": float(np.min(np.linalg.eigvalsh(rho))),
            "hermiticity_defect": float(np.max(np.abs(rho - rho.conj().T)))}


def main(argv: list[str]) -> int:
    spec_path, out_dir = argv
    spec, modes, rho0 = load_inputs(spec_path)
    dim = spec["fock_dim"]
    constants = PhysicalConstants(hbar=spec["hbar"])
    quads = []
    for index, mode in enumerate(modes):
        ops = fock.build_mode_operators(dim, mode, constants)
        quads += [(index, ops.x), (index, ops.p)]
    records = []
    for t in spec["times"]:
        ks1, ks2 = (fock.kraus_operators(m.kappa, t, dim) for m in modes)
        records.append(record(t, fock.evolve_density(rho0, ks1, ks2),
                              quads, dim))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "moments.json"), "w") as fh:
        json.dump({"fock_dim": dim, "records": records}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
