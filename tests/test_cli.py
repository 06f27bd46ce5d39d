import ast
import contextlib
import copy
import decimal
import gc
import io
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import dampsim
from dampsim import cli, fock, structures
from dampsim.cli import main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def base_scenario(**overrides):
    scenario = {
        "system": {"hbar": 1.0,
                   "mode1": {"mass": 1.0, "omega": 1.0, "kappa": 0.5},
                   "mode2": {"mass": 1.0, "omega": 1.0, "kappa": 0.3}},
        "initial": {"type": "coherent", "alpha1": [1.0, 0.0],
                    "alpha2": [0.5, 0.5]},
        "time_grid": {"t_start": 0.0, "t_end": 4.0, "n_steps": 9},
        "engine": "analytic",
        "fock_dim": 24,
        "seed": 11,
    }
    scenario.update(overrides)
    return scenario


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


def report_values(path):
    """The single-number lines of a structure or classicality report."""
    lines = (line.split(": ") for line in path.read_text().splitlines())
    return {key: float(value) for key, value in lines if " " not in value}


def decimal_structure(scenario):
    """structure.txt's products, covariances and residual, composed from
    the vacuum variances and N = inv(M.T) in 40-digit decimals, where no
    value overflows."""
    with decimal.localcontext(decimal.Context(prec=40)):
        hbar = Decimal(scenario["system"]["hbar"])
        vx, vp = [], []
        for label in ("mode1", "mode2"):
            mode = scenario["system"][label]
            m_omega = Decimal(mode["mass"]) * Decimal(mode["omega"])
            vx.append(hbar / (2 * m_omega))
            vp.append(m_omega * hbar / 2)
        (a, b), (c, e) = [[Decimal(v) for v in row]
                          for row in scenario["lct"]["M"]]
        det = a * e - b * c
        n = [[e / det, -c / det], [-b / det, a / det]]
        m = [[a, b], [c, e]]

        def moment(u, w, var):
            return u[0] * w[0] * var[0] + u[1] * w[1] * var[1]

        out = {"product_A": (moment(m[0], m[0], vx)
                             * moment(n[0], n[0], vp)).sqrt(),
               "product_B": (moment(m[1], m[1], vx)
                             * moment(n[1], n[1], vp)).sqrt(),
               "cov_xx": moment(m[0], m[1], vx),
               "cov_pp": moment(n[0], n[1], vp)}
        half = hbar / 2
        out["residual"] = ((out["product_A"] - half) ** 2
                           + (out["product_B"] - half) ** 2
                           + out["cov_xx"] ** 2 + out["cov_pp"] ** 2) / half ** 2
        return out


def decimal_damping_law(scenario, times):
    """evolve's means, covariances and uncertainty products at each of
    times, Decimals, by the damping law in 50-digit decimals: with
    e_i = exp(-kappa_i t), mean_i e_i and cov_ij e_i e_j, plus
    (1 - e_i^2) v_i on the diagonal, v_i the vacuum variances. The
    scenario's floats and the times are taken as exact."""
    q = ("x1", "p1", "x2", "p2")
    with decimal.localcontext(decimal.Context(prec=50)):
        system = scenario["system"]
        hbar = Decimal(system["hbar"])
        vac, kappa = [], []
        for label in ("mode1", "mode2"):
            mode = system[label]
            m_omega = Decimal(mode["mass"]) * Decimal(mode["omega"])
            vac += [hbar / (2 * m_omega), m_omega * hbar / 2]
            kappa += [Decimal(mode["kappa"])] * 2
        initial = scenario["initial"]
        if initial["type"] == "moments":
            mean0 = [Decimal(v) for v in initial["mean"]]
            cov0 = [[Decimal(v) for v in row] for row in initial["cov"]]
        else:  # coherent: <x> = 2 sqrt(v_x) Re(alpha), <p> with Im(alpha)
            parts = initial["alpha1"] + initial["alpha2"]
            mean0 = [2 * v.sqrt() * Decimal(a) for v, a in zip(vac, parts)]
            cov0 = [[vac[i] * (i == j) for j in range(4)] for i in range(4)]
        rows = []
        for t in times:
            e = [(-k * t).exp() for k in kappa]
            cov = [[e[i] * e[j] * cov0[i][j]
                    + (1 - e[i] ** 2) * vac[i] * (i == j)
                    for j in range(4)] for i in range(4)]
            row = {f"mean_{q[i]}": e[i] * mean0[i] for i in range(4)}
            row.update({f"cov_{q[i]}_{q[j]}": cov[i][j]
                        for i in range(4) for j in range(i, 4)})
            row["uncertainty_mode1"] = (cov[0][0] * cov[1][1]).sqrt()
            row["uncertainty_mode2"] = (cov[2][2] * cov[3][3]).sqrt()
            rows.append(row)
        return rows


def float_steps(a, b):
    """How many floats apart a and b are: the distance of their bits read
    as integers, negated for negative floats so the order is the floats'."""
    def ordinal(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & (2 ** 63 - 1))
    return abs(ordinal(a) - ordinal(b))


def overflowing_lct_scenario(v):
    """A coherent-state scenario in the canonical LCT frame
    M = [[v, v], [v, -v]], whose evolve frame overflows for v = 1e200 and
    1e-200."""
    return base_scenario(lct={"M": [[v, v], [v, -v]]})


def conditioned_block_scenario(seed):
    """A scenario whose lct.M is the seeded R(theta) diag(s) R(phi), s in
    [0.5, 2], so cond(M) <= 4, as the benchmark draws its blocks."""
    rng = np.random.default_rng(seed)
    theta, phi = rng.uniform(0.0, np.pi, size=2)
    rotations = [np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
                 for a in (theta, phi)]
    m = rotations[0] @ np.diag(rng.uniform(0.5, 2.0, size=2)) @ rotations[1]
    return base_scenario(lct={"M": m.tolist()})


def extreme_hbar_scenario(hbar):
    """The vacuum at hbar, at a small cutoff."""
    scenario = base_scenario(fock_dim=4, initial={"type": "vacuum"})
    scenario["system"]["hbar"] = hbar
    return scenario


def density_scenario(real):
    """The density scenario of fuzz_bases with real as its real
    part; fock_dim 2, so real is 4 x 4."""
    scenario = fuzz_bases()[3]
    scenario["initial"] = {"type": "density", "real": real}
    return scenario


#: Hermitian and of unit trace, but with eigenvalue -1.7e308
INDEFINITE_DENSITY = [[0.5, -1.7e308, 0, 0], [-1.7e308, 0, 0, 0],
                      [0, 0, 0, 0], [0, 0, 0, 0.5]]
#: Off-diagonals of +1.7e308 and -1.7e308, whose difference overflows
MIRRORED_DENSITY = [[0.5, 1.7e308, 0, 0], [-1.7e308, 0, 0, 0],
                    [0, 0, 0, 0], [0, 0, 0, 0.5]]
#: Well-conditioned position blocks whose structure leaves float range
HUGE_BLOCKS = [[[0.5, -1.7e308], [1.7e308, -1.0]],
               [[1e200, 1e300], [1e300, -1.0]]]


def mirrored_cov_scenario():
    """The moments base of fuzz_bases with cov[0][1] = 1.7e308 and
    cov[1][0] = -1.7e308."""
    scenario = fuzz_bases()[2]
    cov = scenario["initial"]["cov"]
    cov[0][1], cov[1][0] = 1.7e308, -1.7e308
    return scenario


def max_engine_deviation(tmp_path, scenario):
    """The last line of oracle_report.txt for scenario, as a float."""
    config = write_scenario(tmp_path, scenario)
    assert main(["oracle", "--config", config,
                 "--output", str(tmp_path)]) == 0
    line = (tmp_path / "oracle_report.txt").read_text().splitlines()[-1]
    assert line.startswith("max engine deviation: ")
    return float(line.split(": ")[1])


#: evolve on each golden scenario against its committed trajectory.csv
GOLDEN = pytest.mark.parametrize("scenario, csv", [
    ("golden_scenario", "golden_trajectory"),
    # unequal masses, squeezed correlated moments and a non-dyadic LCT,
    # where the summation order of the LCT transform shows in the digits
    ("golden_general_lct_scenario", "golden_general_lct_trajectory"),
], ids=["center_of_mass", "general_lct"])

#: The most floats that evolve's column groups lie from the correctly
#: rounded damping law on each golden scenario, measured with numpy's
#: AVX-512 exp and with it disabled, where the golden bytes differ
GOLDEN_STEPS = {"golden_scenario": {"mean": 2, "cov": 1, "uncertainty": 1},
                "golden_general_lct_scenario": {"mean": 3, "cov": 4,
                                                "uncertainty": 1}}


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    return header, rows


class TestExitCodes:
    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        nan_kappa = json.dumps(base_scenario()).replace('"kappa": 0.5',
                                                        '"kappa": NaN')
        inf_t_end = json.dumps(base_scenario()).replace('"t_end": 4.0',
                                                        '"t_end": Infinity')
        # an integer past float range, unlike 1e400, is not read as inf
        huge_kappa = json.dumps(base_scenario()).replace(
            '"kappa": 0.5', '"kappa": 1' + "0" * 400)
        ragged = [[1.0, 0.0], [0.0]]
        malformed_values = [
            base_scenario(initial={"type": "coherent", "alpha1": ["a", 1]}),
            base_scenario(initial={"type": "coherent", "alpha1": [None, 1]}),
            base_scenario(lct={"M": ragged}),
            base_scenario(lct=[[1.0, 0.0], [0.0, 1.0]]),  # not an object
        ]
        # nor is a nest deeper than numpy's 64 dimensions an array
        deep = 1.0
        for _ in range(65):
            deep = [deep]
        malformed_values.append(base_scenario(lct={"M": deep}))
        # booleans, numeric strings and null are not numbers in an array
        # either, as they are not in a scalar key
        for entry in (True, "0.0", None):
            block = [[1.0, entry], [0.0, 1.0]]
            malformed_values.append(base_scenario(lct={"M": block}))
        # JSON is UTF-8 whatever the locale, and a nest past the decoder's
        # recursion limit is unreadable, not a failed computation
        not_utf8 = b'\xff\xfe{"a":1}'
        too_deep = "[" * 100000
        for text in ("{not json", nan_kappa, inf_t_end, huge_kappa, not_utf8,
                     too_deep, *map(json.dumps, malformed_values)):
            path.write_bytes(text if isinstance(text, bytes)
                             else text.encode())
            capsys.readouterr()
            assert main(["evolve", "--config", str(path),
                         "--output", str(tmp_path)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")

    def test_missing_key_exits_1(self, tmp_path, capsys):
        # a missing or mistyped key is named by its path, as an unknown one
        no_kappa = base_scenario()
        del no_kappa["system"]["mode2"]["kappa"]
        text_steps = base_scenario()
        text_steps["time_grid"]["n_steps"] = "x"
        for scenario, message in (
                ({"system": {}}, "missing scenario key: 'system.mode1'"),
                (no_kappa, "missing scenario key: 'system.mode2.kappa'"),
                (base_scenario(initial={"type": "moments", "mean": [0] * 4}),
                 "missing scenario key: 'initial.cov'"),
                (text_steps, "scenario key 'time_grid.n_steps' has wrong "
                             "type: expected integer, got string")):
            config = write_scenario(tmp_path, scenario)
            assert main(["evolve", "--config", config,
                         "--output", str(tmp_path)]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        # a misspelt key fails rather than being ignored: "engin": "fock"
        # must not run the analytic engine, nor "kapa" leave kappa as it is
        lct = {"M": [[0.5, 0.5], [1.0, -1.0]]}
        initials = [{"type": "vacuum", "alpha1": 1.0},
                    {"type": "coherent", "alpha1": 1.0, "mean": []},
                    {"type": "moments", "mean": [], "cov": [], "real": []},
                    {"type": "density", "real": [], "cov": []}]
        cases = [(base_scenario(engin="fock"), "engin"),
                 (base_scenario(lct=dict(lct, n=1.0)), "lct.n"),
                 # canonicity fixes N by M, so a scenario never gives it,
                 # not even the exact inverse of this M
                 (base_scenario(lct=dict(lct, N=[[1.0, 1.0], [0.5, -0.5]])),
                  "lct.N"),
                 (base_scenario(time_grid={"t_start": 0.0, "t_end": 1.0,
                                           "n_steps": 2, "dt": 0.5}),
                  "time_grid.dt")]
        cases += [(base_scenario(initial=initial), f"initial.{key}")
                  for initial, key in zip(initials,
                                          ("alpha1", "mean", "real", "cov"))]
        for path in ("system", "system.mode1", "system.mode2"):
            scenario = base_scenario(lct=lct)
            parent = scenario
            for part in path.split("."):
                parent = parent[part]
            parent["kapa"] = 0.1
            cases.append((scenario, f"{path}.kapa"))
        for scenario, path in cases:
            config = write_scenario(tmp_path, scenario)
            for command in ("evolve", "oracle", "structure", "classicality"):
                assert main([command, "--config", config,
                             "--output", str(tmp_path / "out")]) == 1
                err = capsys.readouterr().err
                assert err == f"error: unknown scenario key: {path!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("first, second, key", [
        ('"seed": 11', '"seed": 3', "seed"),
        ('"engine": "analytic"', '"engine": "both"', "engine"),
        ('"kappa": 0.5', '"kappa": 0.25', "kappa"),
    ])
    def test_duplicate_key_exits_1(self, tmp_path, capsys, first, second,
                                   key):
        # json.load would keep the last value; a scenario says each thing
        # once, so a repeat at any depth fails before anything runs
        text = json.dumps(base_scenario()).replace(first,
                                                   f"{first}, {second}", 1)
        assert f"{first}, {second}" in text
        config = tmp_path / "scenario.json"
        config.write_text(text)
        for command in cli._COMMANDS:
            assert main([command, "--config", str(config),
                         "--output", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == (
                f"error: duplicate scenario key: {key!r}\n")
        assert not (tmp_path / "out").exists()

    def test_negative_kappa_exits_2(self, tmp_path, capsys):
        for kappa in ("-0.5", "1e400"):
            text = json.dumps(base_scenario()).replace('"kappa": 0.5',
                                                       f'"kappa": {kappa}')
            path = tmp_path / "scenario.json"
            path.write_text(text)
            assert main(["evolve", "--config", str(path),
                         "--output", str(tmp_path)]) == 2
            assert "kappa" in capsys.readouterr().err
        # the system is checked before the time grid is read, so a bad
        # kappa comes first even beside a parse error there
        scenario = base_scenario()
        scenario["system"]["mode1"]["kappa"] = -0.5
        scenario["time_grid"]["n_steps"] = "x"
        config = write_scenario(tmp_path, scenario)
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_bad_time_grid_exits_2(self, tmp_path, capsys):
        # 1e400 is a valid JSON number that parses to inf
        for t_start, t_end in (("2.0", "1.0"), ("0.0", "1e400"),
                               ("1e400", "1e400"), ("-1.0", "1.0")):
            text = json.dumps(base_scenario()).replace(
                '"t_start": 0.0, "t_end": 4.0',
                f'"t_start": {t_start}, "t_end": {t_end}')
            path = tmp_path / "scenario.json"
            path.write_text(text)
            assert main(["evolve", "--config", str(path),
                         "--output", str(tmp_path)]) == 2
        # rejected before the grid is allocated, even where it is unused
        scenario = base_scenario(lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
        scenario["time_grid"]["n_steps"] = 10 ** 13
        config = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        for command in ("evolve", "structure"):
            assert main([command, "--config", config,
                         "--output", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [
                "error: time grid requires finite 0 <= t_start < t_end and "
                "1 <= n_steps <= 1048576; got t_start=0.0, t_end=4.0, "
                "n_steps=10000000000000"]

    def test_coherent_displacement_past_float_range_exits_2(self, tmp_path,
                                                            capsys):
        # |alpha|^2 overflows a float; the cutoff guard still rejects it,
        # and load_scenario first where the mean 2 sqrt(v) alpha overflows
        for alpha, message in (([1e300, 0.0], "increase the cutoff"),
                               ([1.7e308, 1.7e308], "initial.alpha1 = ")):
            scenario = base_scenario(initial={"type": "coherent",
                                              "alpha1": alpha})
            config = write_scenario(tmp_path, scenario)
            assert main(["oracle", "--config", config,
                         "--output", str(tmp_path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and message in err[0]

    @pytest.mark.parametrize("key, alpha, text", [
        ("alpha1", [1e160, 0.0], "(1e+160+0j)"),
        ("alpha2", [0.0, -1e160], "-1e+160j"),
        ("alpha2", 1e160, "(1e+160+0j)")])
    def test_overflowing_coherent_mean_exits_2(self, tmp_path, capsys, key,
                                               alpha, text):
        # a finite displacement whose mean <x> = 2 sqrt(vx) Re(alpha), or
        # <p>, is past float range at hbar 1e300 (vx = vp = 5e299): every
        # command rejects it while loading, naming the key, and writes
        # nothing else to stderr
        scenario = base_scenario(initial={"type": "coherent", key: alpha},
                                 lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
        scenario["system"]["hbar"] = 1e300
        config = write_scenario(tmp_path, scenario)
        for command in cli._COMMANDS:
            assert main([command, "--config", config,
                         "--output", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == (
                f"error: initial.{key} = {text} puts the mode's mean "
                "2 sqrt(v) alpha, v its vacuum variance, past float range\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha, square", [(40, "1600"),
                                               ([1e300, 0.0], "inf")])
    def test_coherent_guard_names_the_squared_displacement(
            self, tmp_path, capsys, alpha, square):
        # |alpha|^2 is reported as it is, inf only past float range
        scenario = base_scenario(fock_dim=32,
                                 initial={"type": "coherent",
                                          "alpha1": alpha})
        config = write_scenario(tmp_path, scenario)
        assert main(["oracle", "--config", config,
                     "--output", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: |displacement|^2 = {square} exceeds dim/4 = "
                       "8; increase the cutoff"]

    def test_moments_initial_with_fock_engine_exits_2(self, tmp_path):
        # oracle runs the Fock engine, which needs a density
        scenario = base_scenario(initial={"type": "moments",
                                          "mean": [0, 0, 0, 0],
                                          "cov": np.diag([0.5] * 4).tolist()})
        config = write_scenario(tmp_path, scenario)
        assert main(["oracle", "--config", config,
                     "--output", str(tmp_path)]) == 2

    def test_oversized_fock_dim_exits_2(self, tmp_path, capsys):
        # the engine and fock_dim are checked for every command, and
        # fock_dim from below too
        for bad, message in (({"engine": "quantum"}, "unknown engine"),
                             ({"fock_dim": 1}, "fock_dim must be >= 2")):
            config = write_scenario(tmp_path, base_scenario(**bad))
            for command in cli._COMMANDS:
                assert main([command, "--config", config,
                             "--output", str(tmp_path)]) == 2
                assert message in capsys.readouterr().err
        # oracle builds a coherent state's (D, D) pair only within the
        # product-state limit; evolve builds no Fock array for it, so no
        # limit applies
        limit = fock.MAX_PRODUCT_DIM
        config = write_scenario(tmp_path, base_scenario(fock_dim=limit + 1))
        assert main(["oracle", "--config", config,
                     "--output", str(tmp_path)]) == 2
        assert (f"a product state (fock_dim <= {limit})"
                in capsys.readouterr().err)
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0

    @pytest.mark.parametrize("initial", [{"type": "vacuum"},
                                         base_scenario()["initial"]])
    def test_product_state_past_its_cutoff_limit_exits_2(self, tmp_path,
                                                         capsys, initial):
        # refused before the pair is built, with the limit it passes
        dim = fock.MAX_PRODUCT_DIM + 1
        config = write_scenario(tmp_path, base_scenario(fock_dim=dim,
                                                        initial=initial))
        out = tmp_path / "out"
        assert main(["oracle", "--config", config, "--output", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: fock_dim {dim} is past the fock engine's cutoff limit "
            f"for a product state (fock_dim <= {fock.MAX_PRODUCT_DIM})"]
        assert not out.exists()

    @pytest.mark.parametrize("dim", [10 ** 80, 10 ** 300],
                             ids=["1e80", "1e300"])
    def test_cutoff_limit_past_float_range_exits_2(self, tmp_path, capsys,
                                                   dim):
        # a cutoff past float range is compared as an integer; oracle on
        # a product state and every command on a density state check it,
        # each against its own limit
        density = {"type": "density", "real": (np.eye(4) / 4).tolist()}
        runs = [("oracle", base_scenario(fock_dim=dim), fock.MAX_PRODUCT_DIM)]
        runs += [(command, base_scenario(fock_dim=dim, initial=density,
                                         lct={"M": [[1.0, 0.0], [0.0, 1.0]]}),
                  90)
                 for command in cli._COMMANDS]
        for command, scenario, limit in runs:
            config = write_scenario(tmp_path, scenario)
            assert main([command, "--config", config,
                         "--output", str(tmp_path / "out")]) == 2, command
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].endswith(f"(fock_dim <= {limit})")
            assert err[0].startswith(f"error: fock_dim {dim} is past")

    def test_non_finite_position_block_exits_2(self, tmp_path, capsys):
        # 1e400 parses to inf, which no LCT has; every command refuses it
        # at load and writes nothing
        scenario = base_scenario(lct={"M": [[1.0, 0.0], [0.0, "inf"]]})
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario).replace('"inf"', "1e400"))
        out = tmp_path / "out"
        for command in cli._COMMANDS:
            assert main([command, "--config", str(config),
                         "--output", str(out / command)]) == 2
            assert capsys.readouterr().err == (
                "error: position block must be a finite 2x2 matrix\n")
            assert not (out / command).exists()

    def test_computation_failure_exits_4(self, tmp_path, capsys,
                                         monkeypatch):
        # every restart lands on the identity block; and an LCT frame,
        # canonical with cond(M) = 1, whose moments leave float range:
        # M itself at 1e200, N = inv(M.T) at 5e199 for 1e-200
        monkeypatch.setattr(structures, "_project_to_family",
                            lambda *a: ((1.0, 0.0), (0.0, 1.0)))
        cases = [("classicality", base_scenario(), "trivial",
                  "classicality.txt")]
        cases += [("evolve", overflowing_lct_scenario(v), "overflow",
                   "trajectory.csv") for v in (1e200, 1e-200)]
        for command, scenario, cause, output in cases:
            config = write_scenario(tmp_path, scenario)
            assert main([command, "--config", config,
                         "--output", str(tmp_path)]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: computation failed: ")
            assert cause in err and len(err.splitlines()) == 1
            assert "Traceback" not in err
            assert not (tmp_path / output).exists()

    def test_position_block_whose_inverse_leaves_float_range(self, tmp_path,
                                                             capsys):
        # subnormal blocks that pass the cond(M) check, whose N = inv(M.T)
        # is not finite: [[v, v], [v, -v]] at v = 1e-310, N of 5e309, and
        # one of 5e-324 times [[3, 2], [1, 1]], where the LU's u11 rounds to
        # 0. Building the Lct refuses them, so every command exits 2 at
        # load, naming the position block, and writes nothing
        tiny = 5e-324
        for m in ([[1e-310, 1e-310], [1e-310, -1e-310]],
                  [[3 * tiny, 2 * tiny], [tiny, tiny]]):
            config = write_scenario(tmp_path, base_scenario(lct={"M": m}))
            out = tmp_path / "out"
            for command in ("structure", "evolve", "classicality", "oracle"):
                assert main([command, "--config", config,
                             "--output", str(out / command)]) == 2
                assert capsys.readouterr().err == (
                    "error: position block: N = inv(M^T) leaves float "
                    "range\n")
                assert not (out / command).exists()

    def test_uncertainty_products_past_float_range_exit_0(self, tmp_path,
                                                          capsys):
        # var_x var_p = (hbar/2)^2 overflows at hbar 1e300 and underflows
        # at 1e-300, but its root hbar/2 is a float; the Fock engine, which
        # oracle runs, raises no float warning there either
        for hbar, want in ((1e300, "5.0000000000000003e+299"),
                           (1e-300, "5.0000000000000001e-301")):
            config = write_scenario(tmp_path, extreme_hbar_scenario(hbar))
            out = tmp_path / f"{hbar:g}"
            for command in ("oracle", "evolve"):
                assert main([command, "--config", config,
                             "--output", str(out)]) == 0
                assert capsys.readouterr().err == ""
            header, rows = read_csv(out / "trajectory.csv")
            columns = [header.index(f"uncertainty_mode{i}") for i in (1, 2)]
            assert [rows[0][i] for i in columns] == [want, want]
            products = [float(row[i]) for row in rows for i in columns]
            summary = (out / "summary.txt").read_text().splitlines()
            line = [l for l in summary if l.startswith("final uncertainty")]
            products += map(float, line[0].split(": ")[1].split())
            assert all(abs(v - hbar / 2) <= 4e-16 * hbar for v in products)

    def test_extreme_masses_exit_0(self, tmp_path):
        # m omega from 1e-150 to 1e200: no float error escapes, as a
        # warning or as exit 4, and only a value past float range reads inf
        with open(os.path.join(DATA_DIR,
                               "golden_general_lct_scenario.json")) as fh:
            scenario = json.load(fh)
        golden_m = scenario["lct"]["M"]
        cases = [(m1, m2, golden_m) for m1, m2 in itertools.product(
            (1e-150, 1.0, 1e150, 1e200), repeat=2)]
        # a tiny, well-conditioned M' = diag(1e-200): det M' = 1e-400
        # is past float range, the structure is not
        tiny = [[1e-100, 0.0], [0.0, 1e-100]]
        cases.append((1e200, 1e200, tiny))
        args, wants = [], []
        for i, (m1, m2, m) in enumerate(cases):
            scenario["system"]["mode1"]["mass"] = m1
            scenario["system"]["mode2"]["mass"] = m2
            scenario["lct"]["M"] = m
            args += [write_scenario(tmp_path, scenario, f"s{i}.json"),
                     str(tmp_path / f"out{i}")]
            wants.append(decimal_structure(scenario))
        code = ("import sys; from dampsim.cli import main; "
                "print(*[main([c, '--config', f, '--output', o]) "
                "for f, o in zip(sys.argv[1::2], sys.argv[2::2]) "
                "for c in ('structure', 'classicality')])")
        src = os.path.dirname(os.path.dirname(dampsim.__file__))
        out = subprocess.run([sys.executable, "-W", "error", "-c", code,
                              *args], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True)
        assert out.stderr == ""
        assert out.stdout.split() == ["0"] * 2 * len(cases)
        for i, want in enumerate(wants):
            got = report_values(tmp_path / f"out{i}" / "structure.txt")
            for key, value in want.items():
                if key == "residual" and value > sys.float_info.max:
                    assert got[key] == math.inf
                elif key == "residual" and value < 1e-60:
                    # zero to the reference's 40 digits
                    assert got[key] == 0.0
                else:
                    assert math.isfinite(got[key])
                    assert abs(got[key] - float(value)) <= \
                        1e-12 * abs(float(value)), (cases[i], key)
            got = report_values(tmp_path / f"out{i}" / "classicality.txt")
            assert got["best residual"] <= 1e-10
            assert all(math.isfinite(got[key]) for key in
                       ("product_A", "product_B", "cov_xx", "cov_pp"))
        report = tmp_path / f"out{len(cases) - 1}" / "structure.txt"
        got = report_values(report)
        assert got["product_A"] == got["product_B"] == 0.5
        lines = report.read_text()
        n = [float(v) for v in lines.splitlines()[1].split(": ")[1].split()]
        assert n[1:3] == [0.0, 0.0]
        assert all(abs(v - 1e100) <= 1e-12 * 1e100 for v in n[::3])

    def test_unrepresentable_vacuum_variances_exit_2(self, tmp_path, capsys):
        # m omega underflows to 0 (1e-200 squared), or 2 m omega overflows
        # so that hbar/(2 m omega) is 0: finite parameters, no vacuum scale
        for label, params in (("mode1", {"mass": 1e-200, "omega": 1e-200}),
                              ("mode2", {"mass": 1e308}),
                              ("mode2", {"mass": 1e200, "omega": 1e200})):
            scenario = base_scenario(lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
            scenario["system"][label].update(params)
            config = write_scenario(tmp_path, scenario)
            for command in ("evolve", "oracle", "structure", "classicality"):
                assert main([command, "--config", config,
                             "--output", str(tmp_path / "out")]) == 2
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error: ")
                assert label in err[0] and "vacuum variances" in err[0]

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # every command checks the scenario's seed, though only
        # classicality reads it
        config = write_scenario(tmp_path, base_scenario(seed=-1))
        for command in cli._COMMANDS:
            assert main([command, "--config", config,
                         "--output", str(tmp_path)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "seed" in err[0]

    def test_io_error_exits_3(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario())
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["evolve", "--config", config,
                     "--output", str(blocker / "sub")]) == 3
        # a directory where trajectory.csv goes fails the rename, and the
        # temporary file is removed
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
        assert main(["evolve", "--config", config, "--output", str(out)]) == 3
        assert os.listdir(out) == ["trajectory.csv"]
        assert os.listdir(out / "trajectory.csv") == []
        # a directory where summary.txt goes fails the second rename, and
        # the trajectory.csv already renamed is removed with the temporary
        out = tmp_path / "out2"
        (out / "summary.txt").mkdir(parents=True)
        assert main(["evolve", "--config", config, "--output", str(out)]) == 3
        assert os.listdir(out) == ["summary.txt"]
        assert os.listdir(out / "summary.txt") == []

    def test_no_partial_files_on_error(self, tmp_path, monkeypatch):
        scenario = base_scenario()
        scenario["system"]["mode1"]["kappa"] = -1.0
        config = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        main(["evolve", "--config", config, "--output", str(out)])
        assert not (out / "trajectory.csv").exists()
        # nor after the work has started: the summary fails once the
        # trajectory is built, and no file is written
        def fail(*args):
            raise FloatingPointError("overflow encountered")

        monkeypatch.setattr(cli, "_decay_fit_slope", fail)
        config = write_scenario(tmp_path, base_scenario())
        assert main(["evolve", "--config", config, "--output", str(out)]) == 4
        assert not out.exists()

    def test_failed_command_makes_no_output_directory(self, tmp_path):
        # the scenario loads, but structure needs an lct: the run fails
        # before it has files to write, so it makes no directory either
        config = write_scenario(tmp_path, base_scenario())
        out = tmp_path / "out"
        assert main(["structure", "--config", config,
                     "--output", str(out)]) == 2
        assert not out.exists()


class TestEvolve:
    def test_vacuum_rows_are_constant(self, tmp_path):
        config = write_scenario(tmp_path,
                                base_scenario(initial={"type": "vacuum"}))
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert header[0] == "t"
        body = [row[1:] for row in rows]
        assert all(row == body[0] for row in body)
        values = dict(zip(header[1:], map(float, body[0])))
        assert values["cov_x1_x1"] == 0.5
        assert values["mean_x1"] == 0.0

    def test_engine_both_exits_2_and_oracle_compares_the_engines(
            self, tmp_path, capsys):
        # evolve runs the analytic engine, and the Fock engine is oracle's,
        # the one place the engines are compared: every other engine value
        # fails every command before any work
        out = tmp_path / "out"
        for engine in ("both", "fock"):
            config = write_scenario(tmp_path, base_scenario(engine=engine))
            for command in cli._COMMANDS:
                assert main([command, "--config", config,
                             "--output", str(out)]) == 2
                assert capsys.readouterr().err == (
                    f"error: unknown engine {engine!r}: evolve runs "
                    "'analytic', and the oracle command runs the Fock "
                    "engine\n")
        assert not out.exists()
        assert max_engine_deviation(tmp_path, base_scenario()) <= 1e-8

    def test_lct_columns_present(self, tmp_path):
        # a non-dyadic LCT, so the columns carry rounding; they are the
        # rows of transform_state on the analytic trajectory, bit for bit
        config = os.path.join(DATA_DIR, "golden_general_lct_scenario.json")
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        values = np.array(rows, dtype=float)
        scenario = cli.load_scenario(config)
        alt = structures.transform_state(
            dampsim.evolve_trajectory(cli.initial_moment_state(scenario),
                                      scenario.system, scenario.times),
            scenario.lct)
        want = {"mean_XA": alt.mean[:, 0], "mean_PA": alt.mean[:, 1],
                "mean_xiB": alt.mean[:, 2], "mean_piB": alt.mean[:, 3],
                "product_A": np.sqrt(alt.cov[:, 0, 0] * alt.cov[:, 1, 1]),
                "product_B": np.sqrt(alt.cov[:, 2, 2] * alt.cov[:, 3, 3]),
                "cov_XA_xiB": alt.cov[:, 0, 2], "cov_PA_piB": alt.cov[:, 1, 3]}
        assert header[-len(want):] == list(want)
        for col, column in want.items():
            assert np.array_equal(values[:, header.index(col)], column)

    def test_degenerate_fit_grid_writes_nothing_to_stderr(self, tmp_path):
        # grids on which a fitted slope is ill-posed: 1e-15 wide at t = 1,
        # 1e-310 wide, where squares of centered times underflow, and
        # 1.7e308 wide, where the sum of the times is past float range, on
        # a decay too slow to read off the grid
        src = os.path.dirname(os.path.dirname(dampsim.__file__))
        with open(os.path.join(DATA_DIR,
                               "golden_general_lct_scenario.json")) as fh:
            scenario = json.load(fh)
        slow = copy.deepcopy(scenario)
        for mode in ("mode1", "mode2"):
            slow["system"][mode]["kappa"] = 1e-310
        for raw, t_start, t_end in ((scenario, 1.0, 1.0 + 1e-15),
                                    (scenario, 0.0, 1e-310),
                                    (slow, 0.0, 1.7e308)):
            raw["time_grid"] = {"t_start": t_start, "t_end": t_end,
                                "n_steps": 9}
            config = write_scenario(tmp_path, raw)
            out = subprocess.run(
                [sys.executable, "-m", "dampsim.cli", "evolve", "--config",
                 config, "--output", str(tmp_path)],
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True, text=True)
            assert (out.returncode, out.stderr) == (0, "")
            summary = (tmp_path / "summary.txt").read_text().splitlines()
            slope = [line.split(": ")[1] for line in summary
                     if line.startswith("covariance decay fit slope")]
            assert math.isfinite(float(slope[0]))

    def test_product_state_has_no_fit_slope(self, tmp_path):
        # the cross covariance of a product state is exactly 0: a coherent
        # pair's from the analytic engine, and an explicit product
        # density's up to the rounding noise of its t = 0 moments, which
        # the Fock engine reads; evolve fits no decay to either
        with open(os.path.join(DATA_DIR, "golden_scenario.json")) as fh:
            scenario = json.load(fh)
        dim = 6
        # its t = 0 cross covariance reads 1.1e-15 of sqrt(var_x1 var_x2)
        rho = np.kron(fock.coherent_density(1.1 + 0.4j, dim),
                      fock.coherent_density(-0.7 + 0.6j, dim))
        density = {"type": "density", "real": rho.real.tolist(),
                   "imag": rho.imag.tolist()}
        for initial in (scenario["initial"], density):
            config = write_scenario(tmp_path, dict(scenario, fock_dim=dim,
                                                   initial=initial))
            assert main(["evolve", "--config", config,
                         "--output", str(tmp_path)]) == 0
            summary = (tmp_path / "summary.txt").read_text().splitlines()
            assert "covariance decay fit slope (x1,x2): n/a" in summary

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario())
        for command in ("evolve", "oracle"):
            out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
            for out in (out1, out2):
                assert main([command, "--config", config,
                             "--output", str(out)]) == 0
            files = sorted(os.listdir(out1))
            assert files and files == sorted(os.listdir(out2))
            for name in files:
                assert (out1 / name).read_bytes() == \
                    (out2 / name).read_bytes()

    @GOLDEN
    def test_golden_trajectory(self, tmp_path, scenario, csv):
        config = os.path.join(DATA_DIR, f"{scenario}.json")
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
        golden = os.path.join(DATA_DIR, f"{csv}.csv")
        with open(golden, "rb") as fh:
            expected = fh.read()
        assert (tmp_path / "trajectory.csv").read_bytes() == expected

    @GOLDEN
    @pytest.mark.parametrize("core", ["Haswell", "Zen"])
    def test_golden_trajectory_under_other_blas_kernels(self, tmp_path,
                                                        scenario, csv, core):
        # OpenBLAS picks its kernels for the CPU, and OPENBLAS_CORETYPE, set
        # in the child alone, forces others. N = inv(M.T) is computed
        # without BLAS, so these FMA kernels give the golden bytes too;
        # Sandybridge's, without FMA, changes transform_state's matmul
        # (CHANGES.md). Without OpenBLAS the variable does nothing.
        src = os.path.dirname(os.path.dirname(dampsim.__file__))
        out = subprocess.run(
            [sys.executable, "-m", "dampsim.cli", "evolve", "--config",
             os.path.join(DATA_DIR, f"{scenario}.json"),
             "--output", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": core},
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        with open(os.path.join(DATA_DIR, f"{csv}.csv"), "rb") as fh:
            assert (tmp_path / "trajectory.csv").read_bytes() == fh.read()

    @GOLDEN
    @pytest.mark.parametrize("features", [
        None, "X86_V4 AVX512_ICL AVX512_SPR"], ids=["native", "no_avx512"])
    def test_golden_trajectory_within_ulps_of_the_exact_law(
            self, tmp_path, scenario, csv, features):
        # the law's own columns, not the LCT frame's; the child's numpy
        # leaves out the CPU features named, as a host without them would
        src = os.path.dirname(os.path.dirname(dampsim.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        if features is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = features
        config = os.path.join(DATA_DIR, f"{scenario}.json")
        out = subprocess.run(
            [sys.executable, "-m", "dampsim.cli", "evolve", "--config",
             config, "--output", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        header, rows = read_csv(tmp_path / "trajectory.csv")
        with open(config) as fh:
            exact = decimal_damping_law(
                json.load(fh), [Decimal(row[0]) for row in rows])
        worst = {}
        for row, law in zip(rows, exact):
            for key, value in law.items():
                group = key.split("_")[0]
                steps = float_steps(float(row[header.index(key)]),
                                    float(value))
                worst[group] = max(worst.get(group, 0), steps)
        bound = GOLDEN_STEPS[scenario]
        assert all(worst[group] <= bound[group] for group in bound), worst


class TestOtherCommands:
    def test_oracle_report(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario())
        assert main(["oracle", "--config", config,
                     "--output", str(tmp_path)]) == 0
        report = (tmp_path / "oracle_report.txt").read_text()
        line = [l for l in report.splitlines()
                if l.startswith("max engine deviation")][0]
        assert float(line.split(":")[1]) <= 1e-8
        assert "completeness=" in report
        assert "bh_residual=" in report

    def test_engine_deviation_is_relative(self, tmp_path):
        # in vacuum units the engines agree to rounding at every hbar: at
        # 1e300 an absolute deviation would read ~1e134 on the coherent
        # means (~1e150) and ~1e284 on the covariances, and at 1e-300 it
        # would read ~1e-166 and see nothing
        for hbar in (1e-300, 1.0, 1e300):
            coherent = base_scenario()
            coherent["system"]["hbar"] = hbar
            for scenario in (coherent, extreme_hbar_scenario(hbar)):
                assert max_engine_deviation(tmp_path, scenario) <= 1e-14

    def test_engine_deviation_sees_a_covariance_error_at_any_hbar(
            self, tmp_path, monkeypatch):
        # an oracle whose covariances are off by 1e-6 of themselves reads
        # about 1e-6 at hbar 1e-300, where every covariance is ~1e-300
        moment_trajectory = fock.moment_trajectory

        def scaled(*args):
            oracle = moment_trajectory(*args)
            oracle.cov[...] *= 1 + 1e-6
            return oracle

        monkeypatch.setattr(fock, "moment_trajectory", scaled)
        scenario = base_scenario()
        scenario["system"]["hbar"] = 1e-300
        assert max_engine_deviation(tmp_path, scenario) >= 1e-7

    def test_oracle_builds_each_kraus_set_once_per_chunk(self, tmp_path,
                                                         monkeypatch):
        calls = {"kraus_operators": [], "_heisenberg_diagonal": [],
                 "moment_trajectory": []}
        for name, record in calls.items():
            fn = getattr(fock, name)
            monkeypatch.setattr(fock, name,
                                lambda *a, fn=fn, record=record:
                                record.append(a) or fn(*a))
        dim, n_times = 32, 16
        scenario = base_scenario(fock_dim=dim,
                                 time_grid={"t_start": 0.0, "t_end": 3.0,
                                            "n_steps": n_times})
        config = write_scenario(tmp_path, scenario)
        assert main(["oracle", "--config", config,
                     "--output", str(tmp_path)]) == 0
        chunks = -(-n_times // fock._chunk_size(dim))
        assert 1 < chunks < n_times
        # per mode and chunk, for the moments and the report alike, and
        # one kernel call per mode, chunk and ladder diagonal 0, 1, 2 (-1
        # and -2 are their conjugates), and one for the completeness defect
        # E^dag(I) on diagonal 0
        assert len(calls["kraus_operators"]) == 2 * chunks
        assert len(calls["_heisenberg_diagonal"]) == 2 * 4 * chunks
        # each call maps one row: a ladder diagonal or the identity's, not
        # a stack of observables
        assert [np.ndim(x) for x, k, bands in calls["_heisenberg_diagonal"]
                ] == [1] * (2 * 4 * chunks)
        # the report makes one oracle call for the moments and the margins
        assert len(calls["moment_trajectory"]) == 1
        lines = (tmp_path / "oracle_report.txt").read_text().splitlines()
        assert len(lines) == n_times + 2

    @pytest.mark.parametrize("dim, alpha, low, high", [
        (32, 1.2, 0.0, 1e-20),   # Poisson tail at n = 31: ~2e-30
        (8, 1.4, 1e-6, 1.0),     # |alpha|^2 = 1.96: ~3e-3 on |7> at t = 0
    ])
    def test_oracle_report_measures_fock_tail(self, tmp_path, dim, alpha,
                                              low, high):
        scenario = base_scenario(fock_dim=dim,
                                 initial={"type": "coherent",
                                          "alpha1": [alpha, 0.0],
                                          "alpha2": [0.0, 0.3]},
                                 time_grid={"t_start": 0.0, "t_end": 1.0,
                                            "n_steps": 3})
        config = write_scenario(tmp_path, scenario)
        assert main(["oracle", "--config", config,
                     "--output", str(tmp_path)]) == 0
        lines = (tmp_path / "oracle_report.txt").read_text().splitlines()
        assert len(lines) == 3 + 2 and lines[0] == f"fock_dim: {dim}"
        per_t = [dict(item.split("=") for item in line.split())
                 for line in lines[1:-1]]
        assert all(set(r) == {"t", "completeness", "bh_residual",
                              "engine_deviation", "fock_tail"}
                   for r in per_t)
        tails = [float(r["fock_tail"]) for r in per_t]
        assert all(0.0 <= v for v in tails)
        assert low < max(tails) < high

    @pytest.mark.parametrize("dim, alpha1", [(128, [1.0, 0.0]),
                                             (400, [9.0, 0.0])])
    def test_oracle_runs_a_product_state_past_the_density_limit(
            self, tmp_path, dim, alpha1):
        # a coherent pair past fock_dim 90 forms no D^4 density, so only the
        # product-state limit applies; the engines agree to rounding, also
        # at |alpha1|^2 near dim/4, where alpha1^n is past float range
        scenario = base_scenario(fock_dim=dim,
                                 initial={"type": "coherent",
                                          "alpha1": alpha1,
                                          "alpha2": [0.5, 0.5]},
                                 time_grid={"t_start": 0.0, "t_end": 2.0,
                                            "n_steps": 3})
        config = write_scenario(tmp_path, scenario)
        assert main(["oracle", "--config", config,
                     "--output", str(tmp_path)]) == 0
        lines = (tmp_path / "oracle_report.txt").read_text().splitlines()
        assert len(lines) == 3 + 2 and lines[0] == f"fock_dim: {dim}"
        deviations = [float(line.split("engine_deviation=")[1].split()[0])
                      for line in lines[1:-1]]
        assert max(deviations) < 1e-8

    def test_structure_command(self, tmp_path):
        scenario = base_scenario(lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
        config = write_scenario(tmp_path, scenario)
        assert main(["structure", "--config", config,
                     "--output", str(tmp_path)]) == 0
        report = (tmp_path / "structure.txt").read_text()
        values = dict(line.split(": ") for line in report.splitlines())
        assert float(values["product_A"]) == pytest.approx(0.5)
        assert float(values["residual"]) == pytest.approx(0.0, abs=1e-12)
        assert float(values["family_distance"]) == pytest.approx(0.0,
                                                                 abs=1e-15)

    @pytest.mark.parametrize("v, m, n", [
        (1e200, "9.9999999999999997e+199", "4.9999999999999999e-201"),
        (1e-200, "9.9999999999999998e-201", "4.9999999999999998e+199")])
    def test_structure_of_a_well_conditioned_block_past_float_range(
            self, tmp_path, v, m, n):
        # M' = v [[1, 1], [1, -1]]: det M' = -2 v^2 is past float range,
        # the structure is not; N = inv(M.T) has entries 1/(2 v)
        config = write_scenario(tmp_path, overflowing_lct_scenario(v))
        assert main(["structure", "--config", config,
                     "--output", str(tmp_path)]) == 0
        assert (tmp_path / "structure.txt").read_text().splitlines() == [
            f"position block M: {m} {m} {m} -{m}",
            f"momentum block N: {n} {n} {n} -{n}",
            "product_A: 0.5", "product_B: 0.5", "cov_xx: 0", "cov_pp: -0",
            "residual: 0", "family_distance: 0"]

    @pytest.mark.parametrize("m", HUGE_BLOCKS, ids=["1.7e308", "1e300"])
    def test_structure_past_float_range_reads_inf(self, tmp_path, capsys, m):
        # well-conditioned blocks whose alpha'.beta' leaves float range, and
        # with it the residual (and cov_xx at 1e300): structure reads inf
        # there and the exact value elsewhere; evolve's frame overflows
        scenario = base_scenario(lct={"M": m})
        config = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        assert main(["structure", "--config", config,
                     "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        got = report_values(out / "structure.txt")
        assert got["residual"] == math.inf
        for key, value in decimal_structure(scenario).items():
            if abs(value) > sys.float_info.max:
                assert got[key] == math.copysign(math.inf, value), key
            else:
                assert abs(got[key] - float(value)) <= \
                    1e-12 * abs(float(value)), key
        assert main(["evolve", "--config", config,
                     "--output", str(out / "evolve")]) == 4
        assert capsys.readouterr().err.startswith(
            "error: computation failed: overflow")

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5], ids=lambda seed:
                             f"seed{seed}" if seed else "general_lct")
    def test_structure_reports_the_frames_momentum_block(self, tmp_path,
                                                         seed):
        # structure.txt's N is, to the last digit, the N of the scenario's
        # Lct(M), which evolve's frame applies: on the general-LCT golden
        # block and on seeded well-conditioned ones
        if seed is None:
            config = os.path.join(DATA_DIR,
                                  "golden_general_lct_scenario.json")
        else:
            config = write_scenario(tmp_path,
                                    conditioned_block_scenario(seed))
        assert main(["structure", "--config", config,
                     "--output", str(tmp_path)]) == 0
        n = cli.load_scenario(config).lct.N
        line = (tmp_path / "structure.txt").read_text().splitlines()[1]
        assert line == "momentum block N: " + " ".join(
            "%.17g" % v for v in n[0] + n[1])

    def test_structure_without_lct_exits_2(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario())
        assert main(["structure", "--config", config,
                     "--output", str(tmp_path)]) == 2

    def test_invalid_lct_exits_2(self, tmp_path, capsys):
        # ill-conditioned (cond ~ 4e10, det 1e-10); a numeric block that
        # is not 2x2, named by its key
        for lct, message in (
                ({"M": [[1.0, 1.0], [1.0, 1.0 + 1e-10]]}, "cond(M)"),
                ({"M": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
                 "error: scenario key 'lct.M' has wrong shape: expected "
                 "(2, 2), got (3, 2)\n")):
            config = write_scenario(tmp_path, base_scenario(lct=lct))
            assert main(["structure", "--config", config,
                         "--output", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err

    def test_classicality_resonant(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario(seed=5))
        assert main(["classicality", "--config", config,
                     "--output", str(tmp_path)]) == 0
        report = (tmp_path / "classicality.txt").read_text()
        values = dict(line.split(": ") for line in report.splitlines()
                      if ": " in line)
        assert float(values["best residual"]) <= 1e-10
        trace = (tmp_path / "search_trace.csv").read_text().splitlines()
        assert trace[0] == "restart,residual,iterations,trivial"
        assert len(trace) == 33

    def test_search_trace_depends_on_seed_alone(self, tmp_path):
        other = base_scenario(seed=5)
        other["system"] = {"hbar": 0.3,
                           "mode1": {"mass": 2.5, "omega": 0.7, "kappa": 0.2},
                           "mode2": {"mass": 1e-3, "omega": 40.0,
                                     "kappa": 1.1}}
        outs = [tmp_path / "a", tmp_path / "b"]
        for i, scenario in enumerate((base_scenario(seed=5), other)):
            config = write_scenario(tmp_path, scenario, f"s{i}.json")
            assert main(["classicality", "--config", config,
                         "--output", str(outs[i])]) == 0
        trace_a, trace_b = (out / "search_trace.csv" for out in outs)
        assert trace_a.read_bytes() == trace_b.read_bytes()
        # the systems differ only in the map back, M = M' diag(s)
        blocks = [line for out in outs
                  for line in (out / "classicality.txt").read_text()
                  .splitlines() if line.startswith("best position block M")]
        assert len(blocks) == 2 and blocks[0] != blocks[1]

    def test_overflowing_decay_exponent_exits_0(self, tmp_path):
        # kappa t = 1e400 is past float range; e^{-kappa t} = 0 is exact.
        # kappa t = 1e308 is a float, but kappa t n is not; and at kappa
        # 1.7e308, -2 kappa overflows, so -2 kappa t is NaN at t = 0
        src = os.path.dirname(os.path.dirname(dampsim.__file__))
        for kappa, t_end in ((1e200, 1e200), (1e200, 1e108), (1.7e308, 1.0)):
            scenario = base_scenario(fock_dim=8,
                                     time_grid={"t_start": 0.0,
                                                "t_end": t_end, "n_steps": 5})
            for label in ("mode1", "mode2"):
                scenario["system"][label]["kappa"] = kappa
            config = write_scenario(tmp_path, scenario)
            for command in ("oracle", "evolve"):
                out = subprocess.run(
                    [sys.executable, "-m", "dampsim.cli", command, "--config",
                     config, "--output", str(tmp_path)],
                    env={**os.environ, "PYTHONPATH": src},
                    capture_output=True, text=True)
                assert (out.returncode, out.stderr) == (0, "")
            summary = (tmp_path / "summary.txt").read_text()
            assert "nan" not in summary
            report = (tmp_path / "oracle_report.txt").read_text()
            assert "nan" not in report
            residuals = [field for field in report.split()
                         if field.startswith("bh_residual=")]
            assert residuals == ["bh_residual=0"] * 5

    def test_no_command_takes_a_seed_flag(self, tmp_path, capsys):
        # the scenario file is a run's only input
        config = write_scenario(tmp_path, base_scenario())
        for command in cli._COMMANDS:
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", config, "--seed", "3"])
            assert exc.value.code == 2
            assert "--seed" in capsys.readouterr().err

    def test_scenario_seed_drives_the_search(self, tmp_path):
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for seed, out in zip((9, 9, 5), outs):
            config = write_scenario(tmp_path, base_scenario(seed=seed),
                                    f"s{seed}.json")
            assert main(["classicality", "--config", config,
                         "--output", str(out)]) == 0
        files = [{name: (out / name).read_bytes()
                  for name in ("classicality.txt", "search_trace.csv")}
                 for out in outs]
        assert files[0] == files[1]
        assert b"seed: 9" in files[0]["classicality.txt"]
        assert files[2]["search_trace.csv"] != files[0]["search_trace.csv"]


class TestInitialStates:
    def test_explicit_moments_roundtrip(self, tmp_path):
        cov = np.diag([1.3, 0.5, 1.3, 0.5])
        cov[0, 2] = cov[2, 0] = 0.8
        scenario = base_scenario(initial={"type": "moments",
                                          "mean": [0.0, 0.0, 0.0, 0.0],
                                          "cov": cov.tolist()})
        config = write_scenario(tmp_path, scenario)
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        idx = header.index("cov_x1_x2")
        assert float(rows[0][idx]) == pytest.approx(0.8)

    def test_unphysical_moments_exit_2(self, tmp_path):
        cov = np.diag([0.5, 0.5, 0.5, 0.5])
        cov[0, 2] = cov[2, 0] = 0.8  # violates symplectic positivity
        # and a valid state given as a one-row stack is not one state
        for mean, cov in (([0.0] * 4, cov.tolist()),
                          ([[0.0] * 4], [np.diag([0.5] * 4).tolist()])):
            scenario = base_scenario(initial={"type": "moments",
                                              "mean": mean, "cov": cov})
            config = write_scenario(tmp_path, scenario)
            assert main(["evolve", "--config", config,
                         "--output", str(tmp_path)]) == 2

    def test_explicit_density_initial(self, tmp_path):
        from dampsim.fock import coherent_density
        dim = 6
        rho = np.kron(coherent_density(0.5, dim), coherent_density(0.0, dim))
        scenario = base_scenario(fock_dim=dim,
                                 time_grid={"t_start": 0.0, "t_end": 1.0,
                                            "n_steps": 3},
                                 initial={"type": "density",
                                          "real": rho.real.tolist(),
                                          "imag": rho.imag.tolist()})
        config = write_scenario(tmp_path, scenario)
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "trajectory.csv")
        idx = header.index("mean_x1")
        # dim-6 truncation shifts the renormalized coherent moments a bit
        assert float(rows[0][idx]) == pytest.approx(np.sqrt(2) * 0.5,
                                                    abs=1e-4)

    def test_density_is_checked_once_per_command(self, tmp_path,
                                                 monkeypatch):
        check, calls = fock.check_density, []
        monkeypatch.setattr(fock, "check_density",
                            lambda rho: calls.append(1) or check(rho))
        dim = 4
        rho = np.kron(fock.coherent_density(0.5, dim),
                      fock.coherent_density(0.3j, dim))
        scenario = base_scenario(fock_dim=dim,
                                 initial={"type": "density",
                                          "real": rho.real.tolist(),
                                          "imag": rho.imag.tolist()},
                                 lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
        config = write_scenario(tmp_path, scenario)
        for command in cli._COMMANDS:
            calls.clear()
            assert main([command, "--config", config,
                         "--output", str(tmp_path)]) == 0
            assert len(calls) == 1, command

    @pytest.mark.parametrize("command", ["evolve", "oracle", "structure",
                                         "classicality"])
    def test_density_budget_is_checked_before_the_density(
            self, tmp_path, capsys, monkeypatch, command):
        # a density limit of 2 refuses fock_dim 3 before its density is
        # read
        monkeypatch.setattr(fock, "MAX_DENSITY_DIM", 2)
        check, calls = fock.check_density, []
        monkeypatch.setattr(fock, "check_density",
                            lambda rho: calls.append(1) or check(rho))
        for dim, code in ((3, 2), (2, 0)):
            rho = np.kron(fock.coherent_density(0.2, dim),
                          fock.coherent_density(0.1j, dim))
            scenario = base_scenario(fock_dim=dim,
                                     initial={"type": "density",
                                              "real": rho.real.tolist(),
                                              "imag": rho.imag.tolist()},
                                     lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
            config = write_scenario(tmp_path, scenario)
            calls.clear()
            out = tmp_path / f"out-{dim}"
            assert main([command, "--config", config,
                         "--output", str(out)]) == code, dim
            err = capsys.readouterr().err.splitlines()
            if code:
                assert len(err) == 1 and err[0].startswith("error: fock_dim 3")
                assert err[0].endswith("(fock_dim <= 2)")
                assert calls == [] and not out.exists()
            else:
                assert err == [] and calls == [1]

    @pytest.mark.parametrize("command", ["evolve", "oracle", "structure",
                                         "classicality"])
    def test_initial_state_is_checked_for_every_command(self, tmp_path,
                                                        capsys, command):
        dim = 2
        rho = np.kron(np.eye(dim) / dim, np.eye(dim) / dim)
        asymmetric = rho.copy()
        asymmetric[0, 1] = 0.1
        unphysical = np.diag([0.1, 0.1, 0.1, 0.1]).tolist()
        malformed = [{"type": "moments", "mean": [0.0] * 4},
                     {"type": "moments", "mean": [0.0] * 4,
                      "cov": [[1.0, 0.0], [0.0]]},
                     {"type": "density"},
                     {"type": "density", "real": [[0.5, 0.5], ["a", 0.5]]},
                     {"type": "coherent", "alpha1": ["a", 1]},
                     {"type": "moments", "mean": ["1.3", "0", "0", "0"],
                      "cov": np.eye(4).tolist()},
                     {"type": "moments", "mean": [0.0, 0.0, 0.0, False],
                      "cov": np.eye(4).tolist()},
                     {"type": "moments", "mean": [0.0] * 4,
                      "cov": [[True, 0.0, 0.0, 0.0]] + np.eye(4)[1:].tolist()},
                     {"type": "density",
                      "real": [[True, 0.0, 0.0, 0.0]] + rho[1:].tolist()},
                     {"type": "density", "real": rho.tolist(),
                      "imag": [["0", 0.0, 0.0, 0.0]] + rho[1:].tolist()}]
        invalid = [{"type": "moments", "mean": [0.0] * 4, "cov": unphysical},
                   {"type": "moments", "mean": [0.0, 0.0, 0.0, "INF"],
                    "cov": np.eye(4).tolist()},
                   {"type": "coherent", "alpha1": ["INF", 0]},
                   {"type": "density", "real": [[1.0]]},
                   {"type": "density", "real": asymmetric.tolist()},
                   {"type": "density", "real": (2 * rho).tolist()},
                   {"type": "squeezed"}]
        # an imag part is an array of real's shape: a number is no array,
        # and an array of another shape is not broadcast
        malformed.append({"type": "density", "real": rho.tolist(),
                          "imag": 0.0})
        for imag in ([0.0] * 4, np.zeros((3, 3)).tolist()):
            invalid.append({"type": "density", "real": rho.tolist(),
                            "imag": imag})
        for code, initials in ((1, malformed), (2, invalid)):
            for initial in initials:
                scenario = base_scenario(
                    initial=initial, fock_dim=dim,
                    lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
                # 1e400 is valid JSON and parses to inf
                config = tmp_path / "scenario.json"
                config.write_text(json.dumps(scenario).replace('"INF"',
                                                               "1e400"))
                assert main([command, "--config", str(config),
                             "--output", str(tmp_path / "out")]) == code, \
                    initial
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_non_finite_displacement_is_named(self, tmp_path, capsys):
        scenario = base_scenario(initial={"type": "coherent", "alpha1": 1.0,
                                          "alpha2": [0.5, "INF"]})
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(scenario).replace('"INF"', "-1e400"))
        for command in cli._COMMANDS:
            assert main([command, "--config", str(config),
                         "--output", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: initial.alpha2 must be finite, got (0.5-infj)"]

    def test_imag_shape_is_named(self, tmp_path, capsys):
        rho = np.eye(4) / 4
        scenario = base_scenario(fock_dim=2, initial={
            "type": "density", "real": rho.tolist(),
            "imag": np.zeros((3, 3)).tolist()})
        config = write_scenario(tmp_path, scenario)
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: scenario key 'initial.imag' has wrong shape: expected "
            "(4, 4), got (3, 3)\n")

    def test_density_on_the_top_level_exits_0(self, tmp_path):
        # (|0> + |1>)/sqrt2 x |0> at fock_dim 2 lives on mode 1's top level:
        # (PxP)^2 there gave cov_x1_x1 = v_x - v_x, rejected at mass 0.3
        psi = np.zeros(4)
        psi[[0, 2]] = math.sqrt(0.5)
        system = base_scenario()["system"]
        system["mode1"]["mass"] = 0.3
        vx = 1.0 / (2 * 0.3)
        config = write_scenario(tmp_path, base_scenario(
            system=system, fock_dim=2,
            initial={"type": "density", "real": np.outer(psi, psi).tolist()}))
        for command in ("evolve", "oracle"):
            assert main([command, "--config", config,
                         "--output", str(tmp_path)]) == 0, command
        header, rows = read_csv(tmp_path / "trajectory.csv")
        assert float(rows[0][0]) == 0.0
        cov = float(rows[0][header.index("cov_x1_x1")])
        assert abs(cov - vx) <= 1e-15

    def test_vacuum_is_the_zero_displacement(self, tmp_path):
        zero = {"type": "coherent", "alpha1": 0, "alpha2": [0, 0.0]}
        outputs = []
        for initial in ({"type": "vacuum"}, zero, None):
            scenario = base_scenario(fock_dim=4, initial=initial,
                                     lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
            if initial is None:
                del scenario["initial"]
            config = write_scenario(tmp_path, scenario)
            out = tmp_path / f"out-{len(outputs)}"
            for command in cli._COMMANDS:
                assert main([command, "--config", config,
                             "--output", str(out)]) == 0
            outputs.append({name: (out / name).read_bytes()
                            for name in sorted(os.listdir(out))})
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1] == outputs[2]
        # the folded vacuum is the number state |0> in each mode, bit for
        # bit, and its mean is +0.0
        for dim in (2, 4, 32):
            config = write_scenario(tmp_path, base_scenario(
                fock_dim=dim, initial={"type": "vacuum"}))
            scenario = cli.load_scenario(config)
            factors = cli.initial_density(scenario)
            assert isinstance(factors, tuple) and len(factors) == 2
            for rho in factors:
                assert np.array_equal(rho, np.diag(np.eye(dim)[0] + 0j))
                assert not np.signbit(rho.view(float)).any()
            mean = cli.initial_moment_state(scenario).mean
            assert np.array_equal(mean, np.zeros(4))
            assert not np.signbit(mean).any()

    def test_non_finite_density_exits_2(self, tmp_path):
        # an infinite entry in either part, with no warning on stderr
        dim = 2
        rho = np.kron(np.eye(dim) / dim, np.eye(dim) / dim).tolist()
        for part, entries in (("real", rho),
                              ("imag", np.zeros((4, 4)).tolist())):
            initial = {"type": "density", "real": rho,
                       part: [row[:] for row in entries]}
            initial[part][0][1] = initial[part][1][0] = "OVERFLOW"
            scenario = base_scenario(fock_dim=dim, initial=initial)
            # 1e400 is valid JSON and parses to inf
            text = json.dumps(scenario).replace('"OVERFLOW"', "1e400")
            config = tmp_path / "scenario.json"
            config.write_text(text)
            src = os.path.dirname(os.path.dirname(dampsim.__file__))
            out = subprocess.run(
                [sys.executable, "-m", "dampsim.cli", "evolve", "--config",
                 str(config), "--output", str(tmp_path / "out")],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                text=True)
            assert out.returncode == 2, part
            errors = [line for line in out.stderr.splitlines()
                      if line.startswith("error:")]
            assert len(errors) == 1 and "finite" in errors[0]
            assert "Warning" not in out.stderr, part

    @pytest.mark.parametrize("real", [INDEFINITE_DENSITY, MIRRORED_DENSITY],
                             ids=["indefinite", "mirrored"])
    def test_density_past_the_bound_exits_2(self, tmp_path, capsys, real):
        # entries of 1.7e308, whose Cholesky factor is NaN or whose
        # Hermitian test overflows: the bound refuses both first, in every
        # command, in process and where a float warning is an error
        config = write_scenario(tmp_path, density_scenario(real))
        want = "error: density matrix is not finite with |Re|, |Im| <= 2\n"
        src = os.path.dirname(os.path.dirname(dampsim.__file__))
        procs = {command: subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "dampsim.cli", command, "--config", config, "--output",
             str(tmp_path / command)], env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for command in cli._COMMANDS}
        for command, proc in procs.items():
            assert main([command, "--config", config,
                         "--output", str(tmp_path / command)]) == 2
            assert capsys.readouterr().err == want
            err = proc.communicate()[1]
            assert (proc.returncode, err) == (2, want), command
            assert not (tmp_path / command).exists()


def json_paths(value, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON value, the root
    path () included."""
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


# Integers stay small so fock_dim and n_steps stay cheap; the huge ones lie
# beyond the resource limits (or past float range) and must be rejected.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.sampled_from([2 ** 63, 10 ** 400, -10 ** 400])
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)


def fuzz_bases():
    """Valid scenarios, one per initial state type, small enough that every
    command finishes in milliseconds."""
    from dampsim.fock import coherent_density
    rho = np.kron(coherent_density(0.3, 2), coherent_density(0.2j, 2))
    small = dict(seed=3,
                 time_grid={"t_start": 0.0, "t_end": 2.0, "n_steps": 3},
                 lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
    initials = [{"type": "coherent", "alpha1": [0.5, 0.1], "alpha2": 0.3},
                {"type": "vacuum"},
                {"type": "moments", "mean": [0.1, 0.0, 0.0, -0.2],
                 "cov": np.diag([0.6, 0.5, 0.5, 0.7]).tolist()},
                {"type": "density", "real": rho.real.tolist(),
                 "imag": rho.imag.tolist()}]
    return [base_scenario(initial=initial, **small,
                          fock_dim=2 if initial["type"] == "density" else 4)
            for initial in initials]


@st.composite
def mutated_scenarios(draw):
    """A valid base scenario with one to three of its values, at any depth,
    replaced by arbitrary JSON."""
    scenario = draw(st.sampled_from(fuzz_bases()))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(scenario))))
        value = draw(JSON_VALUES)
        if not path:
            scenario = value
            continue
        json_value(scenario, path[:-1])[path[-1]] = value
    return scenario


#: The extreme numbers extreme_scenarios puts into a scenario: zeros of
#: both signs, subnormals, and finite values up to the edge of float range
EXTREME_VALUES = [0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, 1e30, 1e200,
                  1e300, 1.7e308, -1.7e308, -1e300]


@st.composite
def extreme_scenarios(draw):
    """A valid base scenario with one to three of its numbers replaced by
    extreme ones; an entry [i][j] of cov, real or imag may take its mirror
    [j][i] along, at the same value or its negative."""
    scenario = draw(st.sampled_from(fuzz_bases()))
    numbers = [path for path in json_paths(scenario)
               if type(json_value(scenario, path)) in (int, float)]
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = path = draw(st.sampled_from(numbers))
        value = draw(st.sampled_from(EXTREME_VALUES))
        json_value(scenario, parents)[key] = value
        if (len(path) == 4 and path[1] in ("cov", "real", "imag")
                and draw(st.booleans())):
            mirror = json_value(scenario, path[:-2] + (key,))
            mirror[path[-2]] = draw(st.sampled_from([value, -value]))
    return scenario


def json_value(value, path):
    """The value at path (a tuple of keys and indices) into a JSON value."""
    for key in path:
        value = value[key]
    return value


def assert_documented_outcome(scenario):
    """README's promise for every command on scenario: an exit code in
    0-4; nothing on stderr on 0, and otherwise exactly one `error: ` line,
    with no warning raised or printed and no traceback; no output directory
    after a nonzero exit; and exit 4 only from evolve's LCT frame, so that
    evolve without the frame exits 0."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "scenario.json")
        with open(config, "w") as fh:
            json.dump(scenario, fh)
        for command in ("evolve", "oracle", "structure", "classicality"):
            out = os.path.join(tmp, command)
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stderr(io.StringIO()) as err):
                warnings.simplefilter("always")
                code = main([command, "--config", config, "--output", out])
            assert code in (0, 1, 2, 3, 4), command
            assert not caught, (command, [str(w.message) for w in caught])
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == [], command
                continue
            assert len(lines) == 1 and lines[0].startswith("error: "), \
                (command, lines)
            assert "Warning" not in lines[0] and "Traceback" not in lines[0]
            assert not os.path.exists(out), command
            if code == 4:
                assert command == "evolve" and "lct" in scenario, lines
                frameless = {k: v for k, v in scenario.items() if k != "lct"}
                with open(config, "w") as fh:
                    json.dump(frameless, fh)
                assert main([command, "--config", config,
                             "--output", out]) == 0, lines
                with open(config, "w") as fh:
                    json.dump(scenario, fh)


@given(mutated_scenarios())
@example(extreme_hbar_scenario(1e300))
@example(overflowing_lct_scenario(1e200))
def test_any_scenario_exits_with_a_documented_code(scenario):
    assert_documented_outcome(scenario)


@given(extreme_scenarios())
@example(density_scenario(INDEFINITE_DENSITY))
@example(density_scenario(MIRRORED_DENSITY))
@example(mirrored_cov_scenario())
@example(base_scenario(lct={"M": HUGE_BLOCKS[0]}))
@example(base_scenario(lct={"M": HUGE_BLOCKS[1]}))
def test_extreme_numbers_exit_with_a_documented_outcome(scenario):
    assert_documented_outcome(scenario)


#: Every key of the scenario format, as its path: the keys of fuzz_bases.
SCENARIO_KEYS = sorted({".".join(path) for base in fuzz_bases()
                        for path in json_paths(base)
                        if path and all(isinstance(k, str) for k in path)})

#: A value of each JSON type.
JSON_TYPE_VALUES = [None, True, 2, 0.5, "0.5", [0.5], {"x": 0.5}]

#: The JSON name of each value's type, as parse errors give it.
JSON_TYPE_NAMES = {type(None): "null", bool: "boolean", int: "integer",
                   float: "number", str: "string", list: "array",
                   dict: "object"}


@pytest.mark.parametrize("path", SCENARIO_KEYS)
def test_every_key_is_read_one_way(tmp_path, capsys, path):
    # null or a value of a type the key does not take is a parse error
    # (exit 1) that names the JSON types, and so is a non-numeric array; a
    # numeric array of another shape is a validation error (exit 2); each
    # error names the key's path, for every command
    *parents, key = path.split(".")

    def holder(scenario):
        for name in parents:
            scenario = scenario.get(name, {})
        return scenario

    base = next(base for base in fuzz_bases() if key in holder(base))
    value = holder(base)[key]
    displacement = key in ("alpha1", "alpha2")  # a number or [re, im]
    takes = ({int, float, list} if displacement
             else {int, float} if type(value) is float else {type(value)})
    expected = ("number or array" if displacement
                else JSON_TYPE_NAMES[type(value)])
    cases = [(wrong, 1, f"has wrong type: expected {expected}, got "
                        f"{JSON_TYPE_NAMES[type(wrong)]}\n")
             for wrong in JSON_TYPE_VALUES if type(wrong) not in takes]
    if list in takes:
        cases += [(["0.5", 0.5], 1, "is not numeric: "),
                  ([0.0] * 3 if displacement else value + value[:1], 2,
                   "has wrong shape: ")]
    assert len(cases) >= 5
    config = tmp_path / "scenario.json"
    for wrong, code, what in cases:
        scenario = copy.deepcopy(base)
        holder(scenario)[key] = wrong
        config.write_text(json.dumps(scenario))
        for command in cli._COMMANDS:
            assert main([command, "--config", str(config),
                         "--output", str(tmp_path / "out")]) == code, \
                (command, wrong)
            err = capsys.readouterr().err
            assert err.startswith(f"error: scenario key {path!r} {what}")
            assert len(err.splitlines()) == 1


def test_cli_leaves_numpy_and_scipy_unloaded(tmp_path):
    # importing the CLI, loading a scenario without a density, and the
    # structure and classicality commands all run on the standard library,
    # and none of them imports dataclasses or inspect (plain-class records)
    # or the trajectory CSV's formatter; only main, which parses the command
    # line, imports argparse and its gettext
    src = os.path.dirname(os.path.dirname(dampsim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    config = write_scenario(tmp_path, base_scenario(
        lct={"M": [[0.5, 0.5], [1.0, -1.0]]}))
    steps = ["import dampsim.cli", f"dampsim.cli.load_scenario({config!r})"]
    argvs = [[command, "--config", config, "--output", str(tmp_path)]
             for command in ("structure", "classicality")]
    steps += [f"assert dampsim.cli.main({argv!r}) == 0" for argv in argvs]
    modules = {"numpy", "scipy", "dataclasses", "inspect", "dampsim._csv17"}
    loading = modules | {"argparse", "gettext"}
    code = "import sys\n" + "".join(
        f"{step}\nprint(sorted({names!r} & set(sys.modules)))\n"
        for step, names in zip(steps, [loading, loading, modules, modules]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == ["[]"] * 4
    assert sorted(os.listdir(tmp_path)) == [
        "classicality.txt", "scenario.json", "search_trace.csv",
        "structure.txt"]


def test_only_a_density_or_a_fock_engine_loads_fock(tmp_path):
    # evolve loads the Fock engine's module only for a density state's
    # t = 0 moments, and oracle, which runs that engine, always
    src = os.path.dirname(os.path.dirname(dampsim.__file__))
    rho = (np.eye(4) / 4).tolist()
    initials = [{"type": "vacuum"}, base_scenario()["initial"],
                {"type": "moments", "mean": [0.0] * 4,
                 "cov": np.diag([0.5] * 4).tolist()}]
    runs = [[("evolve", initial) for initial in initials]
            + [("oracle", {"type": "vacuum"})],
            [("evolve", {"type": "density", "real": rho})]]
    loaded = []
    for i, steps in enumerate(runs):  # one process each
        code = "import sys\nfrom dampsim.cli import main\n"
        for j, (command, initial) in enumerate(steps):
            config = write_scenario(tmp_path, base_scenario(
                fock_dim=2, initial=initial), f"s{i}{j}.json")
            code += (f"assert main([{command!r}, '--config', {config!r}, "
                     f"'--output', {str(tmp_path)!r}]) == 0\n"
                     "print('dampsim.fock' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code],
                             env={**os.environ, "PYTHONPATH": src},
                             check=True, capture_output=True, text=True)
        loaded += out.stdout.splitlines()
    assert loaded == ["False", "False", "False", "True", "True"]


def test_only_an_lct_command_loads_structures(tmp_path):
    # loading a scenario, oracle and an evolve without an LCT frame have
    # no use for the structures module
    src = os.path.dirname(os.path.dirname(dampsim.__file__))
    plain = write_scenario(tmp_path, base_scenario())
    framed = write_scenario(tmp_path, base_scenario(
        lct={"M": [[0.5, 0.5], [1.0, -1.0]]}), "framed.json")
    steps = [f"cli.load_scenario({framed!r})"]
    steps += [f"assert cli.main([{command!r}, '--config', {config!r}, "
              f"'--output', {str(tmp_path)!r}]) == 0"
              for command, config in (("oracle", plain), ("evolve", plain),
                                      ("evolve", framed))]
    code = "import sys\nfrom dampsim import cli\n" + "".join(
        f"{step}\nprint('dampsim.structures' in sys.modules)\n"
        for step in steps)
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == ["False", "False", "False", "True"]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


@pytest.mark.parametrize("prelude, action, preset, want", [
    # main sets each variable the caller left unset to one thread
    ("", "main", {}, [False, "1", "1", "1"]),
    ("", "main", {"OPENBLAS_NUM_THREADS": "3"}, [False, "3", "1", "1"]),
    # once numpy has loaded its BLAS, the variables no longer act
    ("import numpy", "main", {}, [True, None, None, None]),
    # the library never touches the environment
    ("", "import dampsim.fock", {}, [True, None, None, None]),
])
def test_cli_runs_blas_on_one_thread_by_default(tmp_path, prelude, action,
                                                preset, want):
    src = os.path.dirname(os.path.dirname(dampsim.__file__))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=src)
    config = write_scenario(tmp_path, base_scenario(
        initial={"type": "vacuum"}, fock_dim=4))
    if action == "main":
        action = ("from dampsim.cli import main\n"
                  f"assert main(['oracle', '--config', {config!r}, "
                  f"'--output', {str(tmp_path)!r}]) == 0")
    code = (f"import os\n{prelude}\nbefore = dict(os.environ)\n{action}\n"
            f"print([dict(os.environ) == before] + "
            f"[os.environ.get(k) for k in {BLAS_THREAD_VARS!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == repr(want)


def test_output_files_are_utf8_with_newline_line_ends(tmp_path,
                                                     monkeypatch):
    # every temporary is opened so that no host's text mode or locale
    # changes an output byte
    calls = []

    def recording_open(file, *args, **kwargs):
        calls.append((os.path.basename(file), args, kwargs))
        return open(file, *args, **kwargs)

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    config = write_scenario(tmp_path, base_scenario(
        lct={"M": [[0.5, 0.5], [1.0, -1.0]]}))
    for command in cli._COMMANDS:
        assert main([command, "--config", config,
                     "--output", str(tmp_path / "out")]) == 0
    temporaries = [call for call in calls if call[0].startswith(".tmp-")]
    assert sorted(name.split("-", 2)[2] for name, _, _ in temporaries) == [
        "classicality.txt", "oracle_report.txt", "search_trace.csv",
        "structure.txt", "summary.txt", "trajectory.csv"]
    assert all(args == ("w",)
               and kwargs == {"encoding": "utf-8", "newline": "\n"}
               for _, args, kwargs in temporaries)


def test_output_files_have_the_callers_umask(tmp_path):
    config = write_scenario(tmp_path, base_scenario(
        lct={"M": [[0.5, 0.5], [1.0, -1.0]]}))
    for umask in (0o022, 0o027):
        out = tmp_path / f"out{umask:o}"
        old = os.umask(umask)
        try:
            for command in cli._COMMANDS:
                assert main([command, "--config", config,
                             "--output", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {name: os.stat(out / name).st_mode & 0o777
                 for name in os.listdir(out)}
        assert len(modes) == 6
        assert set(modes.values()) == {0o666 & ~umask}, modes


TRACE_CHILD = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "perfbench", "trace_child.py")


def test_benchmark_selftest_passes():
    # the benchmark's checks accept every command's real output and reject
    # each corrupted copy, so an output change that blinds one fails here
    selftest = os.path.join(os.path.dirname(TRACE_CHILD), "selftest.py")
    out = subprocess.run([sys.executable, selftest], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selftest: passed"


@pytest.mark.parametrize("command, spans", [
    ("evolve", ["model.moment_state"]),
    ("oracle", ["cli.initial_density", "model.moment_state"]),
    ("structure", []),
    ("classicality", ["structures.search_classical_structure"]),
])
def test_traced_benchmark_harness_runs_every_command(tmp_path, command,
                                                     spans):
    # the traced harness finds cli._COMMANDS' values among the public
    # functions and wraps MomentState.__post_init__; each command must
    # still run under it and leave the spans the layer metrics read
    src = os.path.dirname(os.path.dirname(dampsim.__file__))
    config = write_scenario(tmp_path, base_scenario(
        fock_dim=4, lct={"M": [[0.5, 0.5], [1.0, -1.0]]}))
    trace = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, TRACE_CHILD, str(trace), "tiny", "0", "cli",
         command, "--config", config, "--output", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True)
    assert (out.returncode, out.stderr) == (0, "")
    names = {span[0] for span in json.loads(trace.read_text())["spans"]}
    want = {"cli.load_scenario", f"cli.run_{command}", *spans}
    assert want <= names, want - names


def test_main_leaves_the_collector_as_it_was(tmp_path):
    # a process that calls main, as this test session does hundreds of
    # times, keeps its collector on and its heap unfrozen
    ok = write_scenario(tmp_path, base_scenario(
        lct={"M": [[0.5, 0.5], [1.0, -1.0]]}))
    bad = write_scenario(tmp_path, base_scenario(seed=-1), "bad.json")
    before = gc.isenabled(), gc.get_freeze_count()
    for command in cli._COMMANDS:
        for config, code in ((ok, 0), (bad, 2)):
            assert main([command, "--config", config,
                         "--output", str(tmp_path)]) == code
            assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_process_entry_runs_a_command_without_the_collector(tmp_path):
    src = os.path.dirname(os.path.dirname(dampsim.__file__))
    config = write_scenario(tmp_path, base_scenario())
    code = ("import gc, sys\nfrom dampsim import cli\n"
            "print(gc.isenabled(), gc.get_freeze_count())\n"
            "seen = []\n"
            "cli._COMMANDS['evolve'] = lambda scenario: "
            "seen.append(gc.isenabled()) or {}\n"
            f"sys.argv = ['dampsim', 'evolve', '--config', {config!r}, "
            f"'--output', {str(tmp_path)!r}]\n"
            "try:\n"
            "    cli.process_main()\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, seen, gc.get_freeze_count() > 0)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": src}, check=True,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == ["True 0", "0 [False] True"]


def test_script_entry_is_the_module_entry():
    # the installed dampsim script and python -m dampsim.cli run one function
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        scripts = fh.read().split("[project.scripts]\n", 1)[1]
    target = re.match(r'dampsim = "dampsim\.cli:(\w+)"\n', scripts).group(1)
    with open(cli.__file__) as fh:
        tree = ast.parse(fh.read())
    block, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in block.body] == [f"{target}()"]


def test_process_entry_keeps_exit_codes_and_stderr(tmp_path, capsys):
    src = os.path.dirname(os.path.dirname(dampsim.__file__))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = str(tmp_path / "out")
    cases = [
        (["structure", "--config", write_scenario(tmp_path, base_scenario(
            lct={"M": [[0.5, 0.5], [1.0, -1.0]]}), "ok.json"),
          "--output", out], 0),
        (["evolve", "--config", str(bad_json), "--output", out], 1),
        (["oracle", "--config", write_scenario(
            tmp_path, base_scenario(seed=-1), "seed.json"),
          "--output", out], 2),
        (["evolve", "--config", str(tmp_path / "missing.json"),
          "--output", out], 3),
        (["evolve", "--config", write_scenario(tmp_path, base_scenario()),
          "--output", str(blocker / "sub")], 3),
        (["evolve", "--config", write_scenario(
            tmp_path, overflowing_lct_scenario(1e200), "overflow.json"),
          "--output", out], 4),
        (["oracle", "--output", out], 2),  # argparse: --config is required
    ]
    for argv, want in cases:
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        proc = subprocess.run([sys.executable, "-m", "dampsim.cli", *argv],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert code == want and (proc.returncode, proc.stderr) == (code, err)
        assert (err == "") == (want == 0), argv


def test_package_exports_resolve():
    # a name left in __all__ after its object is deleted fails both checks
    for name in dampsim.__all__:
        assert hasattr(dampsim, name), name
    namespace = {}
    exec("from dampsim import *", namespace)
    assert set(dampsim.__all__) <= set(namespace)
