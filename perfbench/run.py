"""dampsim benchmark: end-to-end timing of the CLI and library from outside,
with a separate traced run for per-layer numbers.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Load model: one client in a closed loop. A repetition runs the workload's
commands one after another, each as its own Python subprocess with
interpreter start and imports included, and waits for each. BLAS keeps its
default thread count. Inputs are generated from --seed (see inputs.py) into
a temporary directory under .perfbench_out/, and every output is checked
(see checks.py); a failed check counts as a failed operation.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end_to_end entries of BENCHMARK.json: setup_s, wall_s, cpu_s and
peak_rss_mb. With --trace 1 they are the per_layer entries: the workload
also runs under trace_child.py, which wraps each layer's public functions,
and under a single BLAS thread. With --workload all the last line maps
each workload to its result. Results, provenance and the last traced
repetition's spans are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN_SCENARIO = os.path.join(ROOT, "tests", "data", "golden_scenario.json")
GOLDEN_CSV = os.path.join(ROOT, "tests", "data", "golden_trajectory.csv")
PY = sys.executable

IMPORTTIME_REPEATS = 3
MIN_REPETITIONS = 3     # even when one repetition exceeds --seconds / 3
CHILD_TIMEOUT_S = 150
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}



@dataclass
class Op:
    """One command of a repetition: a CLI command or the Schroedinger
    script, and the check its outputs must pass."""
    name: str
    target: str  # "cli" or "schroedinger"
    args: list[str]
    out_dir: str
    check: Callable[[str], checks.Check]  # out_dir -> result


@dataclass
class Proc:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Tally:
    """Operations attempted and failed, failure messages and the accuracy
    values measured, over a whole invocation."""
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)

    def record(self, label: str, problems: list[str],
               values: dict[str, float] | None = None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]
        for key, value in (values or {}).items():
            self.accuracy[key] = max(self.accuracy.get(key, value), value)


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def run_child(argv: list[str], env: dict[str, str], log_path: str) -> Proc:
    """Run one subprocess to completion; wall time from outside, CPU time
    and max RSS from os.wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def exit_problems(proc: Proc, log_path: str) -> list[str]:
    """A non-zero exit as a failure message with the end of the log."""
    if proc.returncode == 0:
        return []
    with open(log_path, errors="replace") as fh:
        tail = " | ".join(fh.read().strip().splitlines()[-3:])
    return [f"exit code {proc.returncode}: {tail}"]


def workload_ops(workload: str, gen: dict, rep_dir: str,
                 state: dict) -> list[Op]:
    cfg, scen = gen["config"], gen["scenario"]

    def cli_op(command, check):
        out = os.path.join(rep_dir, command)
        return Op(command, "cli", [command, "--config", cfg, "--output", out],
                  out, check)

    if workload == "analytic-pipeline":
        def classicality_check(out):
            result = checks.check_classicality(out, state.get("search_trace"))
            if "search_trace" not in state and not result.failures:
                with open(os.path.join(out, "search_trace.csv"), "rb") as fh:
                    state["search_trace"] = fh.read()
            return result
        return [cli_op("evolve", lambda o: checks.check_trajectory(o, scen)),
                cli_op("structure", lambda o: checks.check_structure(o, scen)),
                cli_op("classicality", classicality_check)]
    if workload == "fock-oracle":
        return [cli_op("oracle", lambda o: checks.check_oracle(o, scen))]
    out = os.path.join(rep_dir, "schroedinger")
    return [Op("schroedinger", "schroedinger", [cfg, out], out,
               lambda o: checks.check_schroedinger(o, scen))]


def child_argv(op: Op, trace: tuple[str, str, int] | None) -> list[str]:
    if trace is not None:
        spans, workload, rep = trace
        return [PY, os.path.join(HERE, "trace_child.py"), spans, workload,
                str(rep), op.target, *op.args]
    if op.target == "cli":
        return [PY, "-m", "dampsim.cli", *op.args]
    return [PY, os.path.join(HERE, "schroedinger.py"), *op.args]


def output_stats(out_dir: str) -> tuple[int, int]:
    rows = size = 0
    for name in os.listdir(out_dir) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        rows += data.count(b"\n")
        size += len(data)
    return rows, size


def run_repetition(workload: str, gen: dict, work_dir: str, rep: int,
                   state: dict, tally: Tally, traced: bool = False,
                   env_extra: dict[str, str] | None = None) -> dict:
    """One full repetition of the workload; returns its wall, CPU and RSS
    figures, output sizes and (when traced) the per-layer metrics."""
    rep_dir = os.path.join(work_dir, f"rep{rep}")
    os.makedirs(rep_dir)
    env = child_env(env_extra)
    result = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
              "rows": 0, "bytes": 0, "layers": [], "ops": {}}
    for op in workload_ops(workload, gen, rep_dir, state):
        spans = os.path.join(rep_dir, f"{op.name}.spans.json")
        log = os.path.join(rep_dir, f"{op.name}.log")
        proc = run_child(child_argv(op, (spans, workload, rep) if traced
                                    else None), env, log)
        result["wall_s"] += proc.wall
        result["cpu_s"] += proc.cpu
        result["peak_rss_mb"] = max(result["peak_rss_mb"], proc.rss_mb)
        result["ops"][op.name] = {"wall_s": proc.wall, "cpu_s": proc.cpu}
        problems = exit_problems(proc, log)
        if problems:
            tally.record(op.name, problems)
            continue
        check = op.check(op.out_dir)
        tally.record(op.name, check.failures, check.values)
        if op.target == "cli":
            rows, size = output_stats(op.out_dir)
            result["rows"] += rows
            result["bytes"] += size
        if traced:
            with open(spans) as fh:
                result["layers"].append(json.load(fh))
            shutil.copyfile(spans, os.path.join(
                OUT_ROOT, f"{workload}-{op.name}-spans.json"))
    shutil.rmtree(rep_dir)
    return result


def run_golden(work_dir: str, tally: Tally) -> None:
    """Once per invocation (and as the warm-up that fills the bytecode
    and page caches): the golden scenario reproduces its CSV byte for
    byte."""
    out = os.path.join(work_dir, "golden")
    log = os.path.join(work_dir, "golden.log")
    proc = run_child([PY, "-m", "dampsim.cli", "evolve", "--config",
                      GOLDEN_SCENARIO, "--output", out], child_env(), log)
    check = checks.check_golden(out, GOLDEN_CSV)
    tally.record("golden", exit_problems(proc, log) + check.failures,
                 check.values)


def setup_argv(workload: str, gen: dict) -> list[str]:
    """Interpreter start, import and input load of the workload's program."""
    if workload == "fock-schroedinger":
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import schroedinger; schroedinger.load_inputs(sys.argv[2])")
        return [PY, "-c", code, HERE, gen["config"]]
    code = "import sys; from dampsim import cli; cli.load_scenario(sys.argv[1])"
    return [PY, "-c", code, gen["config"]]


def measure_setup(workload: str, gen: dict, work_dir: str, tally: Tally,
                  index: int) -> float:
    log = os.path.join(work_dir, f"setup{index}.log")
    proc = run_child(setup_argv(workload, gen), child_env(), log)
    tally.record("setup", exit_problems(proc, log))
    return proc.wall


def import_times(work_dir: str, tally: Tally) -> dict[str, float]:
    """Total and scipy import time of ``import dampsim.cli`` from
    ``python -X importtime`` (cumulative microseconds of the outermost
    entries), median of a few runs."""
    totals, scipys = [], []
    for i in range(IMPORTTIME_REPEATS):
        log = os.path.join(work_dir, f"importtime{i}.log")
        proc = run_child([PY, "-X", "importtime", "-c", "import dampsim.cli"],
                         child_env(), log)
        tally.record("importtime", exit_problems(proc, log))
        entries = []
        with open(log) as fh:
            for line in fh:
                if not line.startswith("import time:") or "[us]" in line:
                    continue
                _, cumulative, name = line[len("import time:"):].split("|")
                depth = (len(name) - len(name.lstrip())) // 2
                entries.append((depth, int(cumulative), name.strip()))
        # importtime prints children before parents; walking backwards
        # visits each parent before its children.
        total = scipy = 0
        parents: dict[int, str] = {}
        for depth, cumulative, name in reversed(entries):
            parents[depth] = name
            parent = parents.get(depth - 1, "") if depth else ""
            if depth == 0:
                total += cumulative
            if name.split(".")[0] == "scipy" and \
                    parent.split(".")[0] != "scipy":
                scipy += cumulative
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return {"import.total_s": statistics.median(totals),
            "import.scipy_s": statistics.median(scipys)}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer counts and times of one traced command from its spans.
    ``X_s`` is the inclusive time of the spans named X; self time is a
    span's duration minus that of its direct children."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, incl = Counter(), defaultdict(float)
    self_by_module, write = defaultdict(float), 0.0
    for i, (name, start, end, *_) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        own = end - start - child_time[i]
        self_by_module[name.partition(".")[0]] += own
        if name.startswith("cli.run_"):
            write += own
    c = trace["counters"]
    out = {"cli.load_scenario_s": incl["cli.load_scenario"],
           "cli.initial_density_s": incl["cli.initial_density"],
           "cli.write_s": write,
           "model.moment_state.count": calls["model.moment_state"],
           "model.moment_state_s": incl["model.moment_state"],
           "model.validate_lct.calls": calls["model.validate_lct"],
           "structures.search_s": incl["structures.search_classical_structure"],
           "structures.search.nm_iterations":
               c["structures.search.nm_iterations"],
           "structures.search.restarts": c["structures.search.restarts"],
           "structures.search.nontrivial": c["structures.search.nontrivial"],
           "fock.two_mode_moments_s": incl["fock.two_mode_moments"],
           "fock.completeness_defect_s": incl["fock.completeness_defect"],
           "fock.evolve_density.peak_alloc_mb":
               c["fock.evolve_density.peak_alloc_bytes"] / 2 ** 20,
           "self.fock": self_by_module["fock"],
           "self.analytic": self_by_module["analytic"]}
    for name in ("analytic.evolve_state", "structures.transform_state",
                 "fock.kraus_operators", "fock.heisenberg_evolve",
                 "fock.product_expectation", "fock.evolve_density"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}_s"] = incl[name]
    return out


def repetition_layers(rep: dict) -> dict[str, float]:
    """Sum the per-command layer metrics of one traced repetition."""
    total: dict[str, float] = defaultdict(float)
    for trace in rep["layers"]:
        for key, value in layer_metrics(trace).items():
            if key.endswith("peak_alloc_mb"):
                total[key] = max(total[key], value)
            else:
                total[key] += value
    restarts = total.pop("structures.search.restarts", 0)
    nontrivial = total.pop("structures.search.nontrivial", 0)
    total["structures.search.nontrivial_ratio"] = (nontrivial / restarts
                                                   if restarts else 0.0)
    wall = rep["wall_s"]
    total["share.fock"] = total.pop("self.fock") / wall
    total["share.analytic_and_cli_write"] = (total.pop("self.analytic")
                                             + total["cli.write_s"]) / wall
    total["cli.rows_written"] = rep["rows"]
    total["cli.bytes_written"] = rep["bytes"]
    return total


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def summed_op_medians(reps: list[dict], key: str) -> float:
    """A repetition's wall or CPU time as the sum over its commands of each
    command's median, which resists a slow spell hitting one command."""
    return sum(statistics.median(r["ops"][op][key] for r in reps)
               for op in reps[0]["ops"])


def timed_loop(seconds: float, minimum: int, step) -> None:
    """Call step() until the next call would end past ``seconds``."""
    start, durations = time.perf_counter(), []
    while len(durations) < minimum or (time.perf_counter() - start
                                       + statistics.median(durations)
                                       <= seconds):
        t = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t)


def openblas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(workload: str, seed: int, gen: dict, args) -> dict:
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as a, \
                    open(os.path.join(index, "type")) as b, \
                    open(os.path.join(index, "size")) as c:
                caches[f"L{a.read().strip()}{b.read().strip()[0].lower()}"] = \
                    c.read().strip()
        except OSError:
            continue
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "dampsim", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    sizes = dict(gen["sizes"])
    return {
        "workload": workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches,
        "fock_working_set_bytes": sizes.pop("fock_working_set_bytes"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ[k] for k in SINGLE_THREAD
                       if k in os.environ},
        "git_commit": commit, "source_sha256": digest.hexdigest(),
        "input_sizes": sizes,
    }


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 args) -> dict:
    os.makedirs(OUT_ROOT, exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_ROOT, prefix="run-") as work:
        gen = inputs.generate(workload, seed, work)
        prov = provenance(workload, seed, gen, args)
        print("provenance " + json.dumps(prov), flush=True)
        run_golden(work, tally)
        state: dict = {}
        setup, plain, traced, single = [], [], [], []

        if not trace:
            # Set-up probes alternate with repetitions, so that both sample
            # the same spells of a noisy machine.
            def step(i):
                setup.append(measure_setup(workload, gen, work, tally, i))
                plain.append(run_repetition(workload, gen, work, i, state,
                                            tally))
            timed_loop(seconds, MIN_REPETITIONS, step)
            metrics = {"setup_s": statistics.median(setup),
                       "wall_s": summed_op_medians(plain, "wall_s"),
                       "cpu_s": summed_op_medians(plain, "cpu_s"),
                       "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        else:
            def cycle(i):
                plain.append(run_repetition(workload, gen, work, 3 * i,
                                            state, tally))
                traced.append(run_repetition(workload, gen, work, 3 * i + 1,
                                             state, tally, traced=True))
                single.append(run_repetition(workload, gen, work, 3 * i + 2,
                                             state, tally,
                                             env_extra=SINGLE_THREAD))
            timed_loop(seconds, 1, cycle)
            layers = [repetition_layers(r) for r in traced]
            metrics = {k: statistics.median(l.get(k, 0.0) for l in layers)
                       for k in layers[0]}
            metrics.update(import_times(work, tally))
            metrics["blas.parallel_speedup"] = (median_of(single, "wall_s")
                                                / median_of(plain, "wall_s"))
            metrics["trace.overhead_s"] = (median_of(traced, "wall_s")
                                           - median_of(plain, "wall_s"))
        acc = tally.accuracy
        accuracy = {
            "accuracy.engine_deviation_max": acc.get("engine_deviation", 0.0),
            "accuracy.completeness_defect_max":
                acc.get("completeness_defect", 0.0),
            "accuracy.trace_defect_max": acc.get("trace_defect", 0.0),
            "accuracy.golden_csv_match": acc.get("golden_csv_match", 0.0),
            "accuracy.search_best_residual":
                acc.get("search_best_residual", 0.0),
            "error_rate": tally.failed / tally.attempted,
        }
        if trace:
            metrics.update(accuracy)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": metrics[k], "unit": unit}
                          for k, unit in metric_units(trace).items()}}
    report = {"provenance": prov, "result": result, "accuracy": accuracy,
              "failures": tally.failures, "setup_walls_s": setup,
              "repetitions": {"plain": [_summary(r) for r in plain],
                              "traced": [_summary(r) for r in traced],
                              "single_thread": [_summary(r) for r in single]}}
    with open(os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace"
                                     f"{int(trace)}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print_human(workload, report)
    return result


def _summary(rep: dict) -> dict:
    return {k: rep[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "rows",
                                "bytes", "ops")}


def print_human(workload: str, report: dict) -> None:
    result = report["result"]
    print(f"== {workload} (seed {report['provenance']['seed']})")
    reps = report["repetitions"]["plain"]
    print(f"  repetitions: {len(reps)} untraced, "
          f"{len(report['repetitions']['traced'])} traced, "
          f"{len(report['repetitions']['single_thread'])} single-thread BLAS;"
          f" set-up probes: {len(report['setup_walls_s'])}")
    for name, m in result["metrics"].items():
        if name != "error_rate":
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':40s} {report['accuracy']['error_rate']:.6g} "
          f"ratio ({result['failed']} of {result['attempted']} operations "
          "failed)")
    for name, value in report["accuracy"].items():
        if name not in result["metrics"] and name != "error_rate":
            print(f"  {name:40s} {value:.3g}")
    print("  checks: " + ("all passed" if not report["failures"] else
                          f"{len(report['failures'])} failed"))
    for failure in report["failures"]:
        print(f"    FAIL {failure}")


def print_table(results: dict[str, dict]) -> None:
    """One row per workload: every metric with its unit, and error_rate."""
    first = next(iter(results.values()))["metrics"]
    heads = [f"{name} [{m['unit']}]" for name, m in first.items()]
    heads.append("error_rate [ratio]")
    width = max(len(h) for h in heads) + 2
    print("workload".ljust(20) + "".join(h.rjust(width) for h in heads))
    for workload, result in results.items():
        values = [m["value"] for m in result["metrics"].values()]
        values.append(result["failed"] / result["attempted"])
        print(workload.ljust(20)
              + "".join(f"{v:.4g}".rjust(width) for v in values))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    needed = [os.path.join(ROOT, "src", "dampsim", "cli.py"),
              GOLDEN_SCENARIO, GOLDEN_CSV, BENCHMARK_JSON]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print("error: not a dampsim checkout; missing "
              + ", ".join(os.path.relpath(p, ROOT) for p in missing),
              file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args) for name in names}
    if args.workload == "all":
        print_table(results)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
