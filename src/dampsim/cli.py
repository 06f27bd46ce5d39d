"""Batch command line front end.

Reads a JSON scenario file, dispatches to the analytic and/or Fock engines,
and writes CSV time series plus plain-text summary reports. Exit codes:
0 success, 1 scenario parse error, 2 validation error (ValueError), 3 I/O
error, 4 computation failed (RuntimeError, e.g. a classicality search whose
restarts all converged to trivial structures; MemoryError; ArithmeticError,
a float overflow or division by zero on extreme but finite parameters).

Resource limits, checked before anything is allocated (exit 2): the time
grid's (n_steps, 4, 4) covariance trajectory may take at most 128 MiB
(n_steps <= 1048576), and the two-mode density at most 1 GiB
(fock_dim <= 90).

Each value is checked once, where it enters; the engines trust what they
get. load_scenario, for every command, parses types and numbers (exit 1),
then checks the parameters, time grid, initial state, LCT and seed
(exit 2): explicit moments with MomentState and assert_physical, an
explicit density with its shape and fock.check_density. Each command then
builds the density it needs once. The CSV writer checks the trajectory
with model.check_moments.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import analytic, fock, structures
from .model import (QUADRATURES, Lct, ModeParams, MomentState,
                    PhysicalConstants, TwoModeSystem, assert_physical,
                    check_lct, check_moments, lct_from_position_block,
                    vacuum_state, vacuum_variances)


class ParseError(Exception):
    """Malformed scenario file (bad JSON, missing/unknown keys, bad types)."""


#: Largest two-mode density matrix the fock engine may allocate:
#: fock_dim^4 complex entries of 16 bytes each, so fock_dim <= 90.
_FOCK_BUDGET_BYTES = 2 ** 30

#: Largest covariance trajectory a time grid may ask for: n_steps 4x4
#: float64 matrices, so n_steps <= 2^20. A whole evolve run, CSV text
#: included, takes about 20 times this per row, so the budget bounds it.
_GRID_BUDGET_BYTES = 2 ** 27


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


@dataclasses.dataclass(frozen=True)
class Scenario:
    system: TwoModeSystem
    # coherent displacements (the vacuum is (0, 0)), a physical MomentState,
    # or a checked (fock_dim^2, fock_dim^2) density matrix
    initial: tuple[complex, complex] | MomentState | np.ndarray
    times: np.ndarray
    engine: str
    fock_dim: int
    lct: Lct | None
    seed: int

    def __post_init__(self):  # dataclasses.replace runs it for --seed too
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


_MISSING = object()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _get(d: dict, key: str, kind, default=_MISSING):
    if key not in d:
        if default is _MISSING:
            raise ParseError(f"missing scenario key: {key!r}")
        return default
    value = d[key]
    if kind is float and _is_number(value):
        return float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"scenario key {key!r} has wrong type: "
                         f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _parse_mode(d: dict, label: str) -> ModeParams:
    try:
        return ModeParams(mass=_get(d, "mass", float),
                          omega=_get(d, "omega", float),
                          kappa=_get(d, "kappa", float))
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def _floats(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{what} is not numeric: {exc}") from exc


def _parse_lct(d: dict) -> Lct:
    if not isinstance(d, dict) or "M" not in d:
        raise ParseError("lct spec must be an object with key 'M'")
    m = _floats(d["M"], "lct position block")
    if "N" not in d:
        return lct_from_position_block(m)
    lct = Lct(M=m, N=_floats(d["N"], "lct momentum block"))
    check_lct(lct)
    return lct


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} in scenario")


def _parse_int(text: str) -> int:
    # any scenario number may be read as a float, so an integer must fit one
    if len(text.lstrip("-")) > 308:
        raise ParseError(f"{len(text)}-digit integer in scenario is out of "
                         "float range")
    return int(text)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_constant,
                            parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario root must be a JSON object")

    sysd = _get(raw, "system", dict)
    constants = PhysicalConstants(hbar=_get(sysd, "hbar", float, 1.0))
    system = TwoModeSystem(mode1=_parse_mode(_get(sysd, "mode1", dict), "mode1"),
                           mode2=_parse_mode(_get(sysd, "mode2", dict), "mode2"),
                           constants=constants)

    grid = _get(raw, "time_grid", dict)
    t_start = _get(grid, "t_start", float)
    t_end = _get(grid, "t_end", float)
    n_steps = _get(grid, "n_steps", int)
    if not 0 <= t_start < t_end < math.inf or n_steps < 1:
        raise ValueError(
            f"time grid requires finite 0 <= t_start < t_end, n_steps >= 1; "
            f"got t_start={t_start}, t_end={t_end}, n_steps={n_steps}")
    grid_bytes = n_steps * 4 * 4 * 8
    if grid_bytes > _GRID_BUDGET_BYTES:
        raise ValueError(
            f"n_steps {n_steps} needs a {grid_bytes / 2 ** 20:.3g} MiB "
            f"covariance trajectory; the limit is 128 MiB "
            f"(n_steps <= 1048576)")
    times = np.linspace(t_start, t_end, n_steps)

    engine = _get(raw, "engine", str, "analytic")
    if engine not in ("analytic", "fock", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    fock_dim = _get(raw, "fock_dim", int, 32)
    if fock_dim < 2:
        raise ValueError(f"fock_dim must be >= 2, got {fock_dim}")

    initial = _parse_initial(_get(raw, "initial", dict, {"type": "vacuum"}),
                             system, fock_dim)
    lct = _parse_lct(raw["lct"]) if "lct" in raw else None
    seed = _get(raw, "seed", int, 0)
    return Scenario(system=system, initial=initial, times=times,
                    engine=engine, fock_dim=fock_dim, lct=lct, seed=seed)


def _parse_initial(d: dict, system: TwoModeSystem, dim: int):
    """The checked initial state, as Scenario.initial holds it."""
    kind = _get(d, "type", str)
    if kind == "vacuum":
        return 0j, 0j
    if kind == "coherent":
        pair = []
        for key in ("alpha1", "alpha2"):
            v = d.get(key, 0.0)
            parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
            if not all(map(_is_number, parts)):
                raise ParseError(f"{key} must be a number or [re, im] pair")
            pair.append(complex(*parts))
        return tuple(pair)
    if kind == "moments":
        mean = _floats(_get(d, "mean", list), "initial mean")
        cov = _floats(_get(d, "cov", list), "initial cov")
        try:
            state = MomentState(mean=mean, cov=cov)
            assert_physical(state, system.constants.hbar)
        except ValueError as exc:
            raise ValueError(f"initial moments: {exc}") from exc
        return state
    if kind == "density":
        rho = _floats(_get(d, "real", list), "density matrix").astype(complex)
        if d.get("imag") is not None:
            rho = rho + 1j * _floats(d["imag"], "density matrix")
        if rho.shape != (dim * dim, dim * dim):
            raise ValueError(
                f"density matrix shape {rho.shape} does not match "
                f"fock_dim^2 = {dim * dim}")
        fock.check_density(rho)
        return rho
    raise ValueError(f"unknown initial state type {kind!r}")


def initial_moment_state(scenario: Scenario) -> MomentState:
    """The initial moments; a density's come from the Fock engine at t = 0."""
    system, initial = scenario.system, scenario.initial
    if isinstance(initial, MomentState):
        return initial
    if isinstance(initial, np.ndarray):
        return fock.two_mode_moments(initial, system, 0.0, scenario.fock_dim)
    # coherent: <x> = 2 sqrt(vx) Re(alpha), <p> = 2 sqrt(vp) Im(alpha)
    mean = []
    for alpha, mode in zip(initial, system.modes):
        vx, vp = vacuum_variances(mode, system.constants.hbar)
        mean += [2.0 * np.sqrt(vx) * alpha.real,
                 2.0 * np.sqrt(vp) * alpha.imag]
    return MomentState(mean=np.array(mean), cov=vacuum_state(system).cov)


def initial_density(scenario: Scenario) -> np.ndarray:
    """The initial two-mode density; a coherent pair's is built here."""
    initial, dim = scenario.initial, scenario.fock_dim
    if dim ** 4 * 16 > _FOCK_BUDGET_BYTES:
        raise ValueError(
            f"fock_dim {dim} needs a {dim ** 4 * 16 / 2 ** 30:.3g} GiB "
            f"two-mode density matrix; the limit is 1 GiB (fock_dim <= 90)")
    if isinstance(initial, np.ndarray):
        return initial
    if isinstance(initial, MomentState):
        raise ValueError(
            "the fock engine needs an initial state expressible as a "
            "density matrix; 'moments' is not")
    a1, a2 = initial
    return np.kron(fock.coherent_density(a1, dim),
                   fock.coherent_density(a2, dim))


def _trajectory_csv(times: np.ndarray, mean: np.ndarray, cov: np.ndarray,
                    lct: Lct | None) -> str:
    """CSV of (T, 4) means and (T, 4, 4) covariances, plus the LCT-frame
    moments when an (already validated) LCT is given."""
    check_moments(mean, cov)
    q = QUADRATURES
    upper = np.triu_indices(4)
    header = (["t"] + [f"mean_{a}" for a in q]
              + [f"cov_{q[i]}_{q[j]}" for i, j in zip(*upper)]
              + ["uncertainty_mode1", "uncertainty_mode2"])
    columns = [times[:, None], mean, cov[:, upper[0], upper[1]],
               analytic.uncertainty_products(cov)]
    if lct is not None:
        s = structures.lct_matrix(lct)
        ts_cov = s @ cov @ s.T
        header += ["mean_XA", "mean_PA", "mean_xiB", "mean_piB",
                   "product_A", "product_B", "cov_XA_xiB", "cov_PA_piB"]
        columns += [(s @ mean[:, :, None])[:, :, 0],
                    analytic.uncertainty_products(ts_cov),
                    ts_cov[:, [0, 1], [2, 3]]]
    rows = np.hstack(columns).tolist()
    fmt = ",".join(["%.17g"] * len(header))  # _fmt's format, per row
    return "\n".join([",".join(header)]
                     + [fmt % tuple(row) for row in rows]) + "\n"


def _atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _decay_fit_slope(times: np.ndarray, cov: np.ndarray) -> float | None:
    """Least-squares slope of log|cov(x1,x2)| vs t; None if degenerate."""
    c = np.abs(cov[:, 0, 2])
    mask = c > 1e-290
    if mask.sum() < 2 or np.ptp(times[mask]) == 0:
        return None
    return float(np.polyfit(times[mask], np.log(c[mask]), 1)[0])


def _engine_deviation(a: tuple, f: tuple) -> np.ndarray:
    """Per-time max-norm distance between two (mean, cov) trajectories."""
    return np.maximum(np.max(np.abs(a[0] - f[0]), axis=1),
                      np.max(np.abs(a[1] - f[1]), axis=(1, 2)))


def run_evolve(scenario: Scenario, out_dir: str) -> None:
    system, times = scenario.system, scenario.times
    rho0 = (initial_density(scenario) if scenario.engine in ("fock", "both")
            else None)
    trajectories = {}
    if scenario.engine in ("analytic", "both"):
        trajectories["analytic"] = analytic.evolve_trajectory(
            initial_moment_state(scenario), system, times)
    if rho0 is not None:
        trajectories["fock"] = fock.moment_trajectory(
            rho0, system, times, scenario.fock_dim)

    mean, cov = trajectories.get("analytic", trajectories.get("fock"))
    _atomic_write(os.path.join(out_dir, "trajectory.csv"),
                  _trajectory_csv(times, mean, cov, scenario.lct))

    summary = [f"engine: {scenario.engine}",
               f"samples: {len(times)}",
               f"t_final: {_fmt(times[-1])}",
               "final uncertainty products: "
               + " ".join(map(_fmt, analytic.uncertainty_products(cov[-1])))]
    if system.mode1.kappa > 0 and system.mode2.kappa > 0:
        asym = analytic.asymptotic_state(system)
        summary.append("asymptotic cov diagonal: "
                       + " ".join(_fmt(v) for v in np.diag(asym.cov)))
    slope = _decay_fit_slope(times, cov)
    summary.append("covariance decay fit slope (x1,x2): "
                   + (_fmt(slope) if slope is not None else "n/a"))
    if scenario.engine == "both":
        dev = _engine_deviation(trajectories["analytic"], trajectories["fock"])
        summary.append(f"max analytic-vs-fock deviation: {_fmt(dev.max())}")
    _atomic_write(os.path.join(out_dir, "summary.txt"),
                  "\n".join(summary) + "\n")


def run_oracle(scenario: Scenario, out_dir: str) -> None:
    system, dim, times = scenario.system, scenario.fock_dim, scenario.times
    rho0 = initial_density(scenario)
    mean, cov = analytic.evolve_trajectory(initial_moment_state(scenario),
                                           system, times)
    reduced = fock.reduced_densities(rho0, dim)
    dev = np.empty(len(times))
    lines = [f"fock_dim: {dim}"]
    # the report reads the Kraus sets each chunk of moments was built from
    for chunk in fock.moment_chunks(rho0, system, times, dim):
        i = chunk.index
        dev[i] = _engine_deviation((mean[i], cov[i]), (chunk.mean, chunk.cov))
        defect = np.max([fock.completeness_defect(ks) for ks in chunk.kraus],
                        axis=0)
        residual = np.max([fock.bh_identity_residual(ks.kappa, ks.t, dim)
                           for ks in chunk.kraus], axis=0)
        # population of |dim-1> in either mode: the truncation error's size
        tail = np.max([fock.top_level_population(r, ks)
                       for r, ks in zip(reduced, chunk.kraus)], axis=0)
        lines += [f"t={_fmt(t)} completeness={_fmt(c)} "
                  f"bh_residual={_fmt(b)} engine_deviation={_fmt(d)} "
                  f"fock_tail={_fmt(f)}"
                  for t, c, b, d, f in zip(times[i], defect, residual, dev[i],
                                           tail)]
    lines.append(f"max engine deviation: {_fmt(dev.max())}")
    _atomic_write(os.path.join(out_dir, "oracle_report.txt"),
                  "\n".join(lines) + "\n")


def run_structure(scenario: Scenario, out_dir: str) -> None:
    if scenario.lct is None:
        raise ValueError("the structure command needs an 'lct' entry "
                              "in the scenario")
    report = structures.evaluate_structure(scenario.lct.M, scenario.system)
    lines = ["position block M: "
             + " ".join(_fmt(v) for v in report.lct.M.ravel()),
             "momentum block N: "
             + " ".join(_fmt(v) for v in report.lct.N.ravel()),
             f"product_A: {_fmt(report.product_A)}",
             f"product_B: {_fmt(report.product_B)}",
             f"cov_xx: {_fmt(report.cov_xx)}",
             f"cov_pp: {_fmt(report.cov_pp)}",
             f"residual: {_fmt(report.residual)}",
             f"family_distance: {_fmt(report.family_distance)}"]
    _atomic_write(os.path.join(out_dir, "structure.txt"),
                  "\n".join(lines) + "\n")


def run_classicality(scenario: Scenario, out_dir: str) -> None:
    config = structures.SearchConfig(seed=scenario.seed)
    report, trace = structures.search_classical_structure(scenario.system,
                                                          config)
    lines = [f"seed: {scenario.seed}",
             f"restarts: {config.restarts}",
             f"best residual: {_fmt(report.residual)}",
             "best position block M: "
             + " ".join(_fmt(v) for v in report.lct.M.ravel()),
             f"product_A: {_fmt(report.product_A)}",
             f"product_B: {_fmt(report.product_B)}",
             f"cov_xx: {_fmt(report.cov_xx)}",
             f"cov_pp: {_fmt(report.cov_pp)}",
             f"family_distance: {_fmt(report.family_distance)}"]
    _atomic_write(os.path.join(out_dir, "classicality.txt"),
                  "\n".join(lines) + "\n")
    rows = ["restart,residual,iterations,trivial"]
    rows += [f"{r.index},{_fmt(r.residual)},{r.iterations},"
             f"{int(r.trivial)}" for r in trace]
    _atomic_write(os.path.join(out_dir, "search_trace.csv"),
                  "\n".join(rows) + "\n")


_COMMANDS = {"evolve": run_evolve, "oracle": run_oracle,
             "structure": run_structure, "classicality": run_classicality}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dampsim",
        description="Two-mode amplitude damping simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("evolve", "sample moment trajectories"),
                            ("oracle", "Fock-oracle consistency report"),
                            ("structure", "evaluate a given LCT structure"),
                            ("classicality", "search for classical-like "
                                             "alternate structures")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON scenario file")
        p.add_argument("--output", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        os.makedirs(args.output, exist_ok=True)
        _COMMANDS[args.command](scenario, args.output)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, MemoryError, ArithmeticError) as exc:
        print(f"error: computation failed: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
