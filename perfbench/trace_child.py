"""Run one dampsim entry point with its layers wrapped in timing spans.

Usage:
    python perfbench/trace_child.py SPANS.json WORKLOAD REPETITION cli ARGS...
    python perfbench/trace_child.py SPANS.json WORKLOAD REPETITION schroedinger ARGS...

Every public function of ``dampsim.cli``, ``model``, ``analytic``, ``fock``
and ``structures`` is wrapped where its callers look it up: in each module
namespace that binds it, in ``cli._COMMANDS``, and as
``MomentState.__post_init__``. The package itself is not edited. Spans are
kept in memory as ``[name, start, end, parent, workload, repetition]`` and
written, with a few counters, to SPANS.json when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc


class Tracer:
    def __init__(self, workload: str, repetition: int):
        self.workload = workload
        self.repetition = repetition
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"structures.search.nm_iterations": 0,
                         "structures.search.restarts": 0,
                         "structures.search.nontrivial": 0,
                         "fock.evolve_density.peak_alloc_bytes": 0}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        workload, repetition = self.workload, self.repetition
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = [name, start, clock(), parent, workload,
                                repetition]
                stack.pop()
        return traced

    def _observe_search(self, fn):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            report, trace = fn(*args, **kwargs)
            c = self.counters
            c["structures.search.nm_iterations"] += sum(r.iterations
                                                        for r in trace)
            c["structures.search.restarts"] += len(trace)
            c["structures.search.nontrivial"] += sum(not r.trivial
                                                     for r in trace)
            return report, trace
        return observed

    def _observe_alloc(self, fn):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = "fock.evolve_density.peak_alloc_bytes"
                self.counters[key] = max(self.counters[key], peak)
        return observed

    def install(self) -> None:
        import dampsim
        from dampsim import analytic, cli, fock, model, structures
        layers = (cli, model, analytic, fock, structures)
        wrapped = {}
        for module in layers:
            short = module.__name__.rpartition(".")[2]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        search = structures.search_classical_structure
        wrapped[search] = self._observe_search(wrapped[search])
        evolve = fock.evolve_density
        wrapped[evolve] = self._observe_alloc(wrapped[evolve])
        for module in (dampsim,) + layers:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])
        for command, fn in cli._COMMANDS.items():
            cli._COMMANDS[command] = wrapped[fn]
        model.MomentState.__post_init__ = self.wrap(
            "model.moment_state", model.MomentState.__post_init__)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def main(argv: list[str]) -> int:
    spans_path, workload, repetition, target, *args = argv
    tracer = Tracer(workload, int(repetition))
    tracer.install()
    try:
        if target == "cli":
            from dampsim import cli
            return cli.main(args)
        import schroedinger
        return schroedinger.main(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
