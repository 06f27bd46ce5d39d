"""Self-test of the benchmark's correctness checks.

Usage (from the repository root; about 20 s):
    python3 perfbench/selftest.py

Runs every command of every workload once on seed 0 and requires its
outputs to pass their checks. Then it corrupts copies of those outputs,
one defect at a time, and requires each copy to fail; it also requires a
command that exits non-zero to count as a failed operation. Exits 1 if any
expectation is not met.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

import checks
import inputs
import run


def _edit(path: str, fn) -> None:
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(fn(text))


def _bump_number(line: str, column: int) -> str:
    cells = line.split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-6) + 1e-6)
    return ",".join(cells)


def _bump_row(text: str, row: int, column: int) -> str:
    lines = text.split("\n")
    lines[row] = _bump_number(lines[row], column)
    return "\n".join(lines)


def _set_field(text: str, key: str, value: str, count: int = 1) -> str:
    return re.sub(rf"{key}=\S+", f"{key}={value}", text, count=count)


def _schroedinger_edit(key: str, fn):
    def edit(text):
        doc = json.loads(text)
        doc["records"][-1][key] = fn(doc["records"][-1][key])
        return json.dumps(doc)
    return edit


# (label, command, file, edit of the file's text or None to delete it)
CORRUPTIONS = [
    ("trajectory value off by 1e-6", "evolve", "trajectory.csv",
     lambda t: _bump_row(t, 1000, 1)),
    ("transformed column off by 1e-6", "evolve", "trajectory.csv",
     lambda t: _bump_row(t, 5, 22)),
    ("trajectory row missing", "evolve", "trajectory.csv",
     lambda t: t[:t.rstrip("\n").rfind("\n") + 1]),
    ("summary missing", "evolve", "summary.txt", None),
    ("structure residual wrong", "structure", "structure.txt",
     lambda t: re.sub(r"residual: \S+", "residual: 0.5", t)),
    ("search trace row missing", "classicality", "search_trace.csv",
     lambda t: t[:t.rstrip("\n").rfind("\n") + 1]),
    ("engine deviation above 1e-8", "oracle", "oracle_report.txt",
     lambda t: _set_field(t, "engine_deviation", "2e-06")),
    ("completeness defect above 1e-13", "oracle", "oracle_report.txt",
     lambda t: _set_field(t, "completeness", "1e-12")),
    ("oracle report truncated", "oracle", "oracle_report.txt",
     lambda t: t.split("\n", 3)[3]),
    ("evolved trace off by 1e-9", "schroedinger", "moments.json",
     _schroedinger_edit("trace", lambda v: v + 1e-9)),
    ("evolved mean off by 1e-6", "schroedinger", "moments.json",
     _schroedinger_edit("mean", lambda v: [v[0] + 1e-6] + v[1:])),
    ("negative eigenvalue", "schroedinger", "moments.json",
     _schroedinger_edit("min_eigenvalue", lambda v: -1e-6)),
]


def main() -> int:
    problems = []
    os.makedirs(run.OUT_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT, prefix="selftest-") \
            as work:
        good: dict[str, tuple[str, object]] = {}
        for workload in inputs.WORKLOADS:
            wdir = os.path.join(work, workload)
            os.makedirs(wdir)
            gen = inputs.generate(workload, 0, wdir)
            state: dict = {}
            for op in run.workload_ops(workload, gen, wdir, state):
                log = os.path.join(wdir, f"{op.name}.log")
                proc = run.run_child(run.child_argv(op, None), run.child_env(),
                                     log)
                result = op.check(op.out_dir)
                ok = proc.returncode == 0 and not result.failures
                print(f"{'ok  ' if ok else 'FAIL'} {workload}/{op.name} "
                      f"passes its checks {result.failures}")
                if not ok:
                    problems.append(f"{workload}/{op.name} failed on real "
                                    "output")
                good[op.name] = (op.out_dir, op.check)

        def expect_failure(label, check):
            caught = bool(check.failures)
            print(f"{'ok  ' if caught else 'FAIL'} {label} is caught: "
                  f"{check.failures[:1]}")
            if not caught:
                problems.append(f"{label} was not caught")

        for label, command, name, edit in CORRUPTIONS:
            out_dir, check = good[command]
            bad = os.path.join(work, "corrupt")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(out_dir, bad)
            if edit is None:
                os.remove(os.path.join(bad, name))
            else:
                _edit(os.path.join(bad, name), edit)
            expect_failure(label, check(bad))

        classicality_dir = good["classicality"][0]
        expect_failure("search trace differing between repetitions",
                       checks.check_classicality(classicality_dir,
                                                 b"restart,residual\n"))

        golden = os.path.join(work, "golden")
        os.makedirs(golden)
        shutil.copyfile(run.GOLDEN_CSV, os.path.join(golden, "trajectory.csv"))
        _edit(os.path.join(golden, "trajectory.csv"),
              lambda t: t.replace("0.5", "0.50", 1))
        expect_failure("golden CSV not byte-identical",
                       checks.check_golden(golden, run.GOLDEN_CSV))

        # A command that exits non-zero is a failed operation.
        bdir = os.path.join(work, "broken")
        os.makedirs(bdir)
        gen = inputs.generate("fock-oracle", 0, bdir)
        with open(gen["config"], "w") as fh:
            fh.write("{not json")
        tally = run.Tally()
        run.run_repetition("fock-oracle", gen, bdir, 0, {}, tally)
        caught = tally.failed == tally.attempted == 1
        print(f"{'ok  ' if caught else 'FAIL'} non-zero exit is a failed "
              f"operation: {tally.failures[:1]}")
        if not caught:
            problems.append("non-zero exit was not counted as a failure")

    print("selftest: " + ("passed" if not problems else
                          f"{len(problems)} problem(s): {problems}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
