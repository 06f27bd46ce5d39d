"""Every output of the CLI on a fixed input corpus, pinned by digest.

tests/data/corpus holds the analytic-pipeline and fock-oracle benchmark
inputs of seeds 1-5, made once with perfbench/inputs.generate and
committed as they were written, so a later change to the benchmark cannot
move them. The runs are the ones the two CLI workloads make on them
(evolve, structure and classicality on a pipeline input, oracle on an
oracle input) and all four commands on both golden scenarios.
tests/data/output_digests.json maps each input and command to its exit
code, the sha256 of its stderr and the sha256 of each file it wrote. A
change that moves an output on purpose rewrites that file and names each
changed entry and its reason, as for a golden file.

The bytes are those of this host's floating point: like the golden
files, they can differ under another numpy SIMD dispatch or OpenBLAS
core, so a failure names both.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np

from dampsim.cli import main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DIGESTS = os.path.join(DATA_DIR, "output_digests.json")

COMMANDS = ("evolve", "oracle", "structure", "classicality")

#: (input, command) for each run, the input a path under tests/data
CORPUS_RUNS = (
    [(f"corpus/pipeline_seed{seed}.json", command) for seed in range(1, 6)
     for command in ("evolve", "structure", "classicality")]
    + [(f"corpus/oracle_seed{seed}.json", "oracle") for seed in range(1, 6)]
    + [(golden, command)
       for golden in ("golden_scenario.json",
                      "golden_general_lct_scenario.json")
       for command in COMMANDS])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(name, command, directory, capsys):
    """The exit code, stderr digest and file digests of one in-process
    run of command on tests/data/name, writing into directory."""
    code = main([command, "--config", os.path.join(DATA_DIR, name),
                 "--output", directory])
    err = capsys.readouterr().err
    files = {}
    if os.path.isdir(directory):
        for file in sorted(os.listdir(directory)):
            with open(os.path.join(directory, file), "rb") as fh:
                files[file] = sha256(fh.read())
    return {"exit": code, "stderr": sha256(err.encode()), "files": files}


def flat_entries(digests):
    """{"input command field": value} for the nested digests."""
    out = {}
    for name, runs in digests.items():
        for command, run in runs.items():
            out[f"{name} {command} exit"] = run["exit"]
            out[f"{name} {command} stderr"] = run["stderr"]
            for file, digest in run["files"].items():
                out[f"{name} {command} {file}"] = digest
    return out


def openblas_core() -> str:
    """The kernel OpenBLAS chose, read from the library numpy bundles."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_char_p
                return getattr(lib, symbol)().decode()
    return "unknown"


def host() -> str:
    dispatch = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return (f"numpy {np.__version__}, SIMD dispatch {dispatch}, "
            f"OpenBLAS core {openblas_core()}")


def test_outputs_match_the_committed_digests(tmp_path, capsys):
    with open(DIGESTS) as fh:
        expected = json.load(fh)
    got = {}
    for i, (name, command) in enumerate(CORPUS_RUNS):
        got.setdefault(name, {})[command] = run_digests(
            name, command, str(tmp_path / str(i)), capsys)
    assert len(CORPUS_RUNS) == 28
    want, have = flat_entries(expected), flat_entries(got)
    differing = [f"  {key}: {have.get(key, 'absent')}"
                 for key in sorted(want.keys() | have.keys())
                 if want.get(key) != have.get(key)]
    assert not differing, (
        f"{len(differing)} output digests differ from {DIGESTS}, with "
        f"their new values:\n" + "\n".join(differing)
        + f"\nThis host runs {host()}. The committed digests were made "
        "with numpy's AVX-512 dispatch and OpenBLAS's SkylakeX core; "
        "another dispatch or core can change the last bits (ROADMAP "
        "item 9).")
