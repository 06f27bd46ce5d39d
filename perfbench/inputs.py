"""Seeded input generator for the dampsim benchmark workloads.

Every workload draws its inputs from ``numpy.random.default_rng([seed,
index])``, so one ``--seed`` gives the same files on every machine, and the
program under test receives only those files.

Sizes and why they were chosen:

- ``analytic-pipeline``: 10000 trajectory rows, where the per-row work of
  ``analytic``, ``model`` validation, ``structures.transform_state`` and
  the CSV writer is about half of ``evolve`` and more than interpreter
  start, plus the default 32-restart classicality search. Twice as many
  rows halves the repetitions that fit in a run, and on a shared machine
  the median of fewer repetitions spreads more.
- ``fock-oracle``: ``fock_dim`` 32 over 16 time points. Each two-mode
  density is D^4 * 16 B = 16 MiB, well past L2, and the Kraus construction,
  Heisenberg map and moment contractions take over 99% of the run.
- ``fock-schroedinger``: three two-mode Schroedinger evolutions at D = 16.
  The density is D^4 * 16 B = 1 MiB, and the O(D^8) Kronecker path of
  ``fock.evolve_density`` dominates; no CLI command reaches it.

Coherent displacements keep ``|alpha| <= 1.2`` at D = 32 (and ``<= 1.0``
at D = 16), so the Fock truncation error stays many orders of magnitude
below the 1e-8 engine-deviation tolerance and no check fails because of
the generator.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("analytic-pipeline", "fock-oracle", "fock-schroedinger")

PIPELINE_ROWS = 10000
ORACLE_DIM = 32
ORACLE_TIMES = 16
SCHROEDINGER_DIM = 16
SCHROEDINGER_TIMES = 3
SCHROEDINGER_BRANCHES = 3
COMPLEX_BYTES = 16


def _modes(rng: np.random.Generator) -> list[dict]:
    return [{"mass": float(rng.uniform(0.5, 2.0)),
             "omega": float(rng.uniform(0.5, 2.0)),
             "kappa": float(rng.uniform(0.1, 2.0))} for _ in range(2)]


def _displacement(rng: np.random.Generator, max_abs: float) -> complex:
    r = rng.uniform(0.2, max_abs)
    return complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def _coherent_initial(rng: np.random.Generator) -> dict:
    a1, a2 = (_displacement(rng, 1.2) for _ in range(2))
    return {"type": "coherent", "alpha1": [a1.real, a1.imag],
            "alpha2": [a2.real, a2.imag]}


def _position_block(rng: np.random.Generator) -> list[list[float]]:
    """R(theta) diag(s) R(phi) with s in [0.5, 2]: condition number <= 4."""
    def rot(a):
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    s = np.diag(rng.uniform(0.5, 2.0, size=2))
    m = rot(rng.uniform(0, np.pi)) @ s @ rot(rng.uniform(0, np.pi))
    return m.tolist()


def _scenario(modes, initial, t_end, n_steps, fock_dim, seed, lct=None):
    out = {"system": {"hbar": 1.0, "mode1": modes[0], "mode2": modes[1]},
           "initial": initial,
           "time_grid": {"t_start": 0.0, "t_end": t_end, "n_steps": n_steps},
           "engine": "analytic", "fock_dim": fock_dim, "seed": seed}
    if lct is not None:
        out["lct"] = {"M": lct}
    return out


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Truncated, renormalized coherent-state amplitudes <n|alpha>."""
    n = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, dim)))))
    amps = np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * alpha ** n
    return amps / np.linalg.norm(amps)


def generate(workload: str, seed: int, directory: str) -> dict:
    """Write the workload's input files into ``directory``.

    Returns a description: the paths of the inputs, the generated
    parameters the checks need, and the input sizes for provenance.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    modes = _modes(rng)
    kappa_max = max(m["kappa"] for m in modes)
    if workload == "analytic-pipeline":
        scen = _scenario(modes, _coherent_initial(rng), 4.0 / kappa_max,
                         PIPELINE_ROWS, ORACLE_DIM,
                         int(rng.integers(0, 2 ** 31)),
                         lct=_position_block(rng))
        return {"scenario": scen,
                "config": _write_json(os.path.join(directory, "pipeline.json"),
                                      scen),
                "sizes": {"rows": PIPELINE_ROWS, "restarts": 32,
                          "fock_working_set_bytes": 0}}
    if workload == "fock-oracle":
        scen = _scenario(modes, _coherent_initial(rng), 3.0 / kappa_max,
                         ORACLE_TIMES, ORACLE_DIM, 0)
        return {"scenario": scen,
                "config": _write_json(os.path.join(directory, "oracle.json"),
                                      scen),
                "sizes": {"fock_dim": ORACLE_DIM, "time_points": ORACLE_TIMES,
                          "fock_working_set_bytes":
                              ORACLE_DIM ** 4 * COMPLEX_BYTES}}
    if workload == "fock-schroedinger":
        dim = SCHROEDINGER_DIM
        # A classical mixture of product coherent states whose mode-2
        # displacement follows the mode-1 one, so cov(x1, x2) != 0.
        weights = rng.dirichlet(np.ones(SCHROEDINGER_BRANCHES))
        branches = []
        rho = np.zeros((dim * dim, dim * dim), dtype=complex)
        for w in weights:
            a1 = _displacement(rng, 1.0)
            a2 = a1 * rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(-0.3, 0.3))
            psi = np.kron(coherent_amplitudes(a1, dim),
                          coherent_amplitudes(a2, dim))
            rho += w * np.outer(psi, psi.conj())
            branches.append({"weight": float(w), "alpha1": [a1.real, a1.imag],
                             "alpha2": [a2.real, a2.imag]})
        rho = 0.5 * (rho + rho.conj().T)
        np.save(os.path.join(directory, "density.npy"), rho)
        times = np.sort(rng.uniform(0.1, 2.0, size=SCHROEDINGER_TIMES)) / kappa_max
        spec = {"hbar": 1.0, "modes": modes, "fock_dim": dim,
                "times": times.tolist(), "density": "density.npy",
                "branches": branches}
        return {"scenario": spec,
                "config": _write_json(os.path.join(directory,
                                                   "schroedinger.json"), spec),
                "sizes": {"fock_dim": dim, "time_points": SCHROEDINGER_TIMES,
                          "fock_working_set_bytes": dim ** 4 * COMPLEX_BYTES}}
    raise ValueError(f"unknown workload {workload!r}")
