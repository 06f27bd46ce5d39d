"""Batch command line front end: reads a JSON scenario file, runs one
command, and writes its CSV and plain-text files. evolve runs the exact
analytic engine; the Fock engine is oracle's, which compares the two.
README states the contract: the commands and their files, the scenario
format and its limits, the exit codes and the validation table.

Each value is checked once, where it enters; the engines trust what they
get. load_scenario, for every command, parses one scenario entry at a time
(ParseError, exit 1) and checks its values (ValueError, exit 2) before it
reads the next, so the first bad entry in README's order sets the exit
code. It reads every key one of two ways, and each error names the key's
path: _get for a value of one JSON type, _array for a numeric array, whose
shape it checks as soon as the array is parsed. Every trajectory the CSV
writer reads is a model.MomentState, checked when it was built.

Each module is imported where it is used: numpy by evolve, oracle and
the parsing of moments or a density; analytic by evolve and oracle; fock
by oracle and by a density state; structures by structure,
classicality and an LCT frame of evolve; _csv17, the exact "%.17g" of
trajectory.csv, by _trajectory_csv. So structure and classicality on a
vacuum or coherent scenario run on the standard library, and check the
arrays they read without numpy (_array).

main puts each run together and is the one writer: it loads the
scenario, runs the command, which returns {file name: list of text},
and only then makes the output directory and writes them (_write_files).
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
from contextlib import suppress
from typing import TYPE_CHECKING

from .model import (QUADRATURES, Lct, ModeParams, MomentState,
                    PhysicalConstants, Record, TwoModeSystem,
                    assert_physical, vacuum_state, vacuum_variances)

if TYPE_CHECKING:
    import argparse

    import numpy as np

    from .structures import StructureReport


class ParseError(Exception):
    """Malformed scenario file (bad JSON, missing/unknown keys, bad types)."""


#: Largest two-mode density matrix at the cutoff of an oracle run or an
#: explicit density: fock_dim^4 complex entries of 16 bytes each, so
#: fock_dim <= 90.
_FOCK_BUDGET_BYTES = 2 ** 30

#: Largest covariance trajectory a time grid may ask for: n_steps 4x4
#: float64 matrices, so n_steps <= 2^20. A whole evolve run with an LCT
#: frame, CSV text included, peaks at about 8 times this per row, 1.0 KB
#: (ru_maxrss) beyond a 31 MiB start, so about 1.1 GB at the cap.
_GRID_BUDGET_BYTES = 2 ** 27


#: The float format of every output file; 17 digits read back bit for bit.
#: trajectory.csv gets the same text from _csv17.
_FLOAT_FORMAT = "%.17g"


def _fmt(v: float) -> str:
    return _FLOAT_FORMAT % float(v)


def _fmt_all(values) -> str:
    return " ".join(map(_fmt, values))


def _text(lines: list[str]) -> list[str]:
    return [line + "\n" for line in lines]


class Scenario(Record):
    """A checked scenario. initial holds coherent displacements (the
    vacuum is (0, 0)), a physical MomentState, or a checked
    (fock_dim^2, fock_dim^2) density matrix; the time grid is n_steps
    samples from t_start to t_end. load_scenario builds it."""

    __slots__ = ("system", "initial", "t_start", "t_end", "n_steps",
                 "fock_dim", "lct", "seed")

    @property
    def times(self) -> np.ndarray:
        import numpy as np
        return np.linspace(self.t_start, self.t_end, self.n_steps)


_MISSING = object()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: The JSON name of each type json.load returns.
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer",
               float: "number", bool: "boolean", type(None): "null"}


def _get(d: dict, prefix: str, key: str, kinds, default=_MISSING):
    """d[key] as one of kinds, a type or a tuple of them, float taking any
    number, or default; a ParseError names prefix + key and JSON types."""
    if key not in d:
        if default is _MISSING:
            raise ParseError(f"missing scenario key: {prefix + key!r}")
        return default
    value, kinds = d[key], kinds if isinstance(kinds, tuple) else (kinds,)
    if float in kinds and _is_number(value):
        return float(value)
    if type(value) not in kinds:
        expected = " or ".join(_JSON_TYPES[kind] for kind in kinds)
        got = _JSON_TYPES[type(value)]
        raise ParseError(f"scenario key {prefix + key!r} has wrong type: "
                         f"expected {expected}, got {got}")
    return value


def _known(d: dict, prefix: str, *keys: str) -> None:
    """Raise ParseError for a key of d outside keys, named prefix + key."""
    for key in d:
        if key not in keys:
            raise ParseError(f"unknown scenario key: {prefix + key!r}")


def _parse_mode(sysd: dict, label: str) -> ModeParams:
    d, prefix = _get(sysd, "system.", label, dict), f"system.{label}."
    _known(d, prefix, "mass", "omega", "kappa")
    try:
        return ModeParams(mass=_get(d, prefix, "mass", float),
                          omega=_get(d, prefix, "omega", float),
                          kappa=_get(d, prefix, "kappa", float))
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


#: Most dimensions an array may have, numpy's own limit.
_MAX_DIMS = 64


def _float_shape(value, what: str, dims: int = _MAX_DIMS) -> tuple[int, ...]:
    """The shape of value as an array of floats: value is a number, or
    lists nesting numbers to one depth, at most dims deep, with one length
    per level. ParseError for anything else: booleans, strings and null
    are not numbers, and a ragged or too deep nest is not an array."""
    if _is_number(value):
        return ()
    if not isinstance(value, list):
        raise ParseError(f"{what} is not numeric: got "
                         f"{_JSON_TYPES[type(value)]}")
    if not dims:
        raise ParseError(f"{what} is not numeric: nested deeper than "
                         f"{_MAX_DIMS} lists")
    if set(map(type, value)) <= {int, float}:  # a row of numbers, or []
        return (len(value),)
    shapes = {_float_shape(v, what, dims - 1) for v in value}
    if len(shapes) > 1:
        raise ParseError(f"{what} is not numeric: ragged nested lists")
    return (len(value),) + shapes.pop()


def _array(d: dict, prefix: str, key: str, shape: tuple[int, ...],
           default=_MISSING):
    """d[key] as nested lists of numbers of the given shape, or default;
    a ParseError (not a numeric array) or a ValueError (another shape)
    names prefix + key."""
    value = _get(d, prefix, key, list, default)
    what = f"scenario key {prefix + key!r}"
    if value is not default and (got := _float_shape(value, what)) != shape:
        raise ValueError(f"{what} has wrong shape: expected {shape}, "
                         f"got {got}")
    return value


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} in scenario")


def _parse_int(text: str) -> int:
    # any scenario number may be read as a float, so an integer must fit one
    if len(text.lstrip("-")) > 308:
        raise ParseError(f"{len(text)}-digit integer in scenario is out of "
                         "float range")
    return int(text)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # a scenario says each thing once, where json.load keeps the last
    d = {}
    for key, value in pairs:
        if key in d:
            raise ParseError(f"duplicate scenario key: {key!r}")
        d[key] = value
    return d


def load_scenario(path: str) -> Scenario:
    """The checked scenario of the JSON file at path."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant,
                            parse_int=_parse_int,
                            object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RFC 8259 JSON is UTF-8; a nest past the recursion limit is unread
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario root must be a JSON object")
    _known(raw, "", "system", "initial", "time_grid", "engine", "fock_dim",
           "lct", "seed")

    sysd = _get(raw, "", "system", dict)
    _known(sysd, "system.", "hbar", "mode1", "mode2")
    constants = PhysicalConstants(hbar=_get(sysd, "system.", "hbar", float,
                                            1.0))
    system = TwoModeSystem(mode1=_parse_mode(sysd, "mode1"),
                           mode2=_parse_mode(sysd, "mode2"),
                           constants=constants)

    grid = _get(raw, "", "time_grid", dict)
    _known(grid, "time_grid.", "t_start", "t_end", "n_steps")
    t_start = _get(grid, "time_grid.", "t_start", float)
    t_end = _get(grid, "time_grid.", "t_end", float)
    n_steps = _get(grid, "time_grid.", "n_steps", int)
    if not 0 <= t_start < t_end < math.inf or n_steps < 1:
        raise ValueError(
            f"time grid requires finite 0 <= t_start < t_end, n_steps >= 1; "
            f"got t_start={t_start}, t_end={t_end}, n_steps={n_steps}")
    grid_bytes = n_steps * 4 * 4 * 8
    if grid_bytes > _GRID_BUDGET_BYTES:
        raise ValueError(
            f"n_steps {n_steps} needs a {grid_bytes / 2 ** 20:.3g} MiB "
            f"covariance trajectory; the limit is "
            f"{_GRID_BUDGET_BYTES / 2 ** 20:.3g} MiB "
            f"(n_steps <= {_GRID_BUDGET_BYTES // (4 * 4 * 8)})")
    engine = _get(raw, "", "engine", str, "analytic")
    if engine != "analytic":
        raise ValueError(f"unknown engine {engine!r}: evolve runs 'analytic', "
                         "and the oracle command runs the Fock engine")
    fock_dim = _get(raw, "", "fock_dim", int, 32)
    if fock_dim < 2:
        raise ValueError(f"fock_dim must be >= 2, got {fock_dim}")

    initial = _parse_initial(_get(raw, "", "initial", dict,
                                  {"type": "vacuum"}), system, fock_dim)
    lct = _get(raw, "", "lct", dict, None)
    if lct is not None:
        _known(lct, "lct.", "M")
        lct = Lct(_array(lct, "lct.", "M", (2, 2)))
    seed = _get(raw, "", "seed", int, 0)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return Scenario(system=system, initial=initial, t_start=t_start,
                    t_end=t_end, n_steps=n_steps, fock_dim=fock_dim, lct=lct,
                    seed=seed)


def _parse_initial(d: dict, system: TwoModeSystem, dim: int):
    """The checked initial state, as Scenario.initial holds it."""
    kind = _get(d, "initial.", "type", str)
    if kind == "vacuum":
        _known(d, "initial.", "type")
        return 0j, 0j
    if kind == "coherent":
        _known(d, "initial.", "type", "alpha1", "alpha2")
        pair = []
        for key in ("alpha1", "alpha2"):  # a number, or [re, im]
            alpha = _get(d, "initial.", key, (float, list), 0.0)
            pair.append(complex(*_array(d, "initial.", key, (2,)))
                        if isinstance(alpha, list) else complex(alpha))
        mean = _coherent_mean(pair, system)
        for key, alpha, mode_mean in zip(("alpha1", "alpha2"), pair,
                                         (mean[:2], mean[2:])):
            if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
                raise ValueError(f"initial.{key} must be finite, got {alpha}")
            if not all(map(math.isfinite, mode_mean)):
                raise ValueError(
                    f"initial.{key} = {alpha} puts the mode's mean "
                    "2 sqrt(v) alpha, v its vacuum variance, past float range")
        return tuple(pair)
    if kind == "moments":
        _known(d, "initial.", "type", "mean", "cov")
        mean = _array(d, "initial.", "mean", (4,))
        cov = _array(d, "initial.", "cov", (4, 4))
        try:
            state = MomentState(mean=mean, cov=cov)
            assert_physical(state, system.constants.hbar)
        except ValueError as exc:
            raise ValueError(f"initial moments: {exc}") from exc
        return state
    if kind == "density":
        _known(d, "initial.", "type", "real", "imag")
        _check_fock_budget(dim)
        import numpy as np
        from . import fock
        shape = (dim * dim, dim * dim)
        rho = np.asarray(_array(d, "initial.", "real", shape), dtype=complex)
        if (imag := _array(d, "initial.", "imag", shape, None)) is not None:
            with np.errstate(invalid="ignore"):  # 1j * inf, rejected below
                rho = rho + 1j * np.asarray(imag, dtype=float)
        fock.check_density(rho)
        return rho
    raise ValueError(f"unknown initial state type {kind!r}")


def initial_moment_state(scenario: Scenario) -> MomentState:
    """The initial moments; a density's come from the Fock engine at t = 0."""
    import numpy as np
    system, initial = scenario.system, scenario.initial
    if isinstance(initial, MomentState):
        return initial
    if isinstance(initial, np.ndarray):
        from . import fock
        return fock.two_mode_moments(initial, system, 0.0, scenario.fock_dim)
    return MomentState(mean=_coherent_mean(initial, system),
                       cov=vacuum_state(system).cov)


def _coherent_mean(pair, system: TwoModeSystem) -> list[float]:
    """The (x1, p1, x2, p2) mean of the displacements pair, inf or nan past
    float range: <x> = 2 sqrt(vx) Re(alpha), <p> = 2 sqrt(vp) Im(alpha)."""
    hbar = system.constants.hbar
    return [2.0 * math.sqrt(v) * part
            for mode, alpha in zip(system.modes, pair)
            for v, part in zip(vacuum_variances(mode, hbar),
                               (alpha.real, alpha.imag))]


def _check_fock_budget(dim: int) -> None:
    """Raise ValueError if a two-mode density at cutoff dim would pass
    _FOCK_BUDGET_BYTES; the message holds whether or not one is built."""
    if (size := dim ** 4 * 16) > _FOCK_BUDGET_BYTES:
        try:
            gib = f"{size / 2 ** 30:.3g}"
        except OverflowError:  # past float range, from fock_dim ~1e79
            from decimal import Decimal
            gib = f"{Decimal(size) / 2 ** 30:.3g}"
        raise ValueError(
            f"fock_dim {dim} is past the fock engine's cutoff limit: a "
            f"two-mode density there takes {gib} GiB, over "
            f"{_FOCK_BUDGET_BYTES / 2 ** 30:.3g} GiB (fock_dim <= "
            f"{math.isqrt(math.isqrt(_FOCK_BUDGET_BYTES // 16))})")


def initial_density(scenario: Scenario) -> np.ndarray | tuple:
    """The initial state as fock.moment_trajectory takes it: an explicit
    density as it is, a coherent pair as its two one-mode densities."""
    import numpy as np
    from . import fock
    initial, dim = scenario.initial, scenario.fock_dim
    _check_fock_budget(dim)
    if isinstance(initial, np.ndarray):
        return initial
    if isinstance(initial, MomentState):
        raise ValueError(
            "the fock engine needs an initial state expressible as a "
            "density matrix; 'moments' is not")
    a1, a2 = initial
    return fock.coherent_density(a1, dim), fock.coherent_density(a2, dim)


def _trajectory_csv(times: np.ndarray, state: MomentState,
                    lct: Lct | None) -> list[str]:
    """CSV chunks, header line first, of a trajectory on the (T,) grid
    `times`, plus its moments in the LCT frame (structures.transform_state)
    when an LCT is given."""
    import numpy as np
    from . import analytic
    q = QUADRATURES
    upper = np.triu_indices(4)
    header = (["t"] + [f"mean_{a}" for a in q]
              + [f"cov_{q[i]}_{q[j]}" for i, j in zip(*upper)]
              + ["uncertainty_mode1", "uncertainty_mode2"])
    columns = [times[:, None], state.mean, state.cov[:, upper[0], upper[1]],
               analytic.uncertainty_products(state.cov)]
    if lct is not None:
        from . import structures
        alt = structures.transform_state(state, lct)
        header += ["mean_XA", "mean_PA", "mean_xiB", "mean_piB",
                   "product_A", "product_B", "cov_XA_xiB", "cov_PA_piB"]
        columns += [alt.mean, analytic.uncertainty_products(alt.cov),
                    alt.cov[:, [0, 1], [2, 3]]]
    from ._csv17 import format_rows
    return [",".join(header) + "\n"] + format_rows(np.hstack(columns))


def _write_files(directory: str, files: dict[str, list[str]]) -> None:
    """Write each {name: chunks} to a temporary file in directory, named for
    this process, and only then rename them all into place, so they have
    the caller's umask and a reader never sees one half written. On any
    failure the temporaries and the files already renamed are removed."""
    temporaries = [os.path.join(directory, f".tmp-{os.getpid()}-{name}")
                   for name in files]
    made = []
    try:
        for tmp, chunks in zip(temporaries, files.values()):
            made.append(tmp)
            with open(tmp, "w") as fh:
                fh.writelines(chunks)
        for tmp, name in zip(temporaries, files):
            os.replace(tmp, path := os.path.join(directory, name))
            made.append(path)
    except BaseException:
        for path in made:
            with suppress(OSError):  # renamed already, or never made
                os.unlink(path)
        raise


#: The largest |cov(x1,x2)| / sqrt(var_x1 var_x2) that counts as zero in the
#: decay fit. A product state's is exactly 0 but for a density state, whose
#: t = 0 moments fock.two_mode_moments reads with noise of up to ~D eps:
#: measured, at most 6.1e-17 on 60 random product densities (D = 4 to 19)
#: and 1.5e-14 on coherent ones near |alpha|^2 = D/4 (D = 16 to 40).
_CROSS_COV_FLOOR = 1e-12


def _decay_fit_slope(times: np.ndarray, cov: np.ndarray) -> float | None:
    """Least-squares slope of log|cov(x1,x2)| vs t over the times where it
    is above _CROSS_COV_FLOOR, in closed form: the centered times, divided
    by their span so that no square underflows, against the centered logs.
    None if degenerate."""
    import numpy as np
    c = np.abs(cov[:, 0, 2])
    scale = np.sqrt(cov[:, 0, 0]) * np.sqrt(cov[:, 2, 2])  # cannot overflow
    mask = c > _CROSS_COV_FLOOR * scale
    t = times[mask]
    if t.size < 2 or (span := float(np.ptp(t))) == 0:
        return None
    u = (t - t.mean()) / span
    y = np.log(c[mask])
    return float(u @ (y - y.mean())) / float(u @ u) / span


def _engine_deviation(a, f, system: TwoModeSystem) -> np.ndarray:
    """Per-time max over the (T, 4) means and (T, 4, 4) covariances of
    |a - f| in vacuum units, over s_i for mean i and s_i s_j for cov ij, s
    the vacuum standard deviations; a is the analytic trajectory."""
    import numpy as np
    s = np.sqrt(np.diag(vacuum_state(system).cov))
    return np.maximum(
        np.max(np.abs(a.mean - f.mean) / s, axis=1),
        np.max(np.abs(a.cov - f.cov) / np.outer(s, s), axis=(1, 2)))


def run_evolve(scenario: Scenario) -> dict[str, list[str]]:
    from . import analytic
    system, times = scenario.system, scenario.times
    state = analytic.evolve_trajectory(initial_moment_state(scenario), system,
                                       times)
    csv = _trajectory_csv(times, state, scenario.lct)
    summary = ["engine: analytic",
               f"samples: {len(times)}",
               f"t_final: {_fmt(times[-1])}",
               "final uncertainty products: "
               + _fmt_all(analytic.uncertainty_products(state.cov[-1]))]
    if system.mode1.kappa > 0 and system.mode2.kappa > 0:
        asym = analytic.asymptotic_state(system)
        summary.append("asymptotic cov diagonal: "
                       + _fmt_all(asym.cov.diagonal()))
    slope = _decay_fit_slope(times, state.cov)
    summary.append("covariance decay fit slope (x1,x2): "
                   + (_fmt(slope) if slope is not None else "n/a"))
    return {"trajectory.csv": csv, "summary.txt": _text(summary)}


def run_oracle(scenario: Scenario) -> dict[str, list[str]]:
    from . import analytic, fock
    system, dim, times = scenario.system, scenario.fock_dim, scenario.times
    oracle = fock.moment_trajectory(initial_density(scenario), system, times,
                                    dim)
    dev = _engine_deviation(analytic.evolve_trajectory(
        initial_moment_state(scenario), system, times), oracle, system)
    lines = [f"fock_dim: {dim}"]
    lines += [f"t={_fmt(t)} completeness={_fmt(c)} "
              f"bh_residual={_fmt(b)} engine_deviation={_fmt(d)} "
              f"fock_tail={_fmt(f)}"
              for t, c, b, d, f in zip(times, oracle.completeness,
                                       oracle.bh_residual, dev,
                                       oracle.fock_tail)]
    lines.append(f"max engine deviation: {_fmt(dev.max())}")
    return {"oracle_report.txt": _text(lines)}


def _report_lines(report: StructureReport, *names: str) -> list[str]:
    """The "name: value" lines of a structure report: its products and
    cross covariances, then the named fields."""
    return [f"{name}: {_fmt(getattr(report, name))}"
            for name in ("product_A", "product_B", "cov_xx", "cov_pp") + names]


def run_structure(scenario: Scenario) -> dict[str, list[str]]:
    from . import structures
    if scenario.lct is None:
        raise ValueError("the structure command needs an 'lct' entry "
                              "in the scenario")
    report = structures.evaluate_structure(scenario.lct.M, scenario.system)
    m, n = report.lct.M, report.lct.N
    lines = (["position block M: " + _fmt_all(m[0] + m[1]),
              "momentum block N: " + _fmt_all(n[0] + n[1])]
             + _report_lines(report, "residual", "family_distance"))
    return {"structure.txt": _text(lines)}


def run_classicality(scenario: Scenario) -> dict[str, list[str]]:
    from . import structures
    config = structures.SearchConfig(seed=scenario.seed)
    report, trace = structures.search_classical_structure(scenario.system,
                                                          config)
    lines = ([f"seed: {scenario.seed}",
              f"restarts: {config.restarts}",
              f"best residual: {_fmt(report.residual)}",
              "best position block M: "
              + _fmt_all(report.lct.M[0] + report.lct.M[1])]
             + _report_lines(report, "family_distance"))
    rows = ["restart,residual,iterations,trivial"]
    rows += [f"{r.index},{_fmt(r.residual)},{r.iterations},"
             f"{int(r.trivial)}" for r in trace]
    return {"classicality.txt": _text(lines), "search_trace.csv": _text(rows)}


_COMMANDS = {"evolve": run_evolve, "oracle": run_oracle,
             "structure": run_structure, "classicality": run_classicality}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # with gettext, 2 ms that load_scenario has no use for
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
    return parser


#: The thread-count variables of OpenBLAS, OpenMP and MKL, which BLAS
#: reads once, when numpy loads it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    if "numpy" not in sys.modules:
        # The commands' matrices are too small for a second BLAS thread,
        # and an idle one spins on a CPU; a value already set wins.
        for name in _BLAS_THREAD_VARS:
            os.environ.setdefault(name, "1")
    args = build_parser().parse_args(argv)
    try:
        files = _COMMANDS[args.command](load_scenario(args.config))
        os.makedirs(args.output, exist_ok=True)
        _write_files(args.output, files)
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


def process_main() -> None:
    """The dampsim process: main with the cyclic collector off, then the
    heap frozen, so that exit does not sweep it; exits with main's code.
    A command frees its arrays, lists and tuples by reference counting and
    has written and closed every output before main returns, so the
    collector's passes over the ~21k containers that numpy leaves tracked,
    during the run and again at interpreter exit, would find nothing to
    free. main itself leaves the collector alone: a process that calls it,
    such as a test session calling it hundreds of times, keeps collecting."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    process_main()
