import decimal
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
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
            base_scenario(lct={"M": [[1.0, 0.0], [0.0, 1.0]], "N": {}}),
            base_scenario(lct={"M": [[1.0, 0.0], [0.0, 1.0]], "N": ragged}),
            base_scenario(lct={"M": ragged}),
        ]
        for text in ("{not json", nan_kappa, inf_t_end, huge_kappa,
                     *map(json.dumps, malformed_values)):
            path.write_text(text)
            capsys.readouterr()
            assert main(["evolve", "--config", str(path),
                         "--output", str(tmp_path)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ")

    def test_missing_key_exits_1(self, tmp_path):
        config = write_scenario(tmp_path, {"system": {}})
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 1

    def test_negative_kappa_exits_2(self, tmp_path, capsys):
        for kappa in ("-0.5", "1e400"):
            text = json.dumps(base_scenario()).replace('"kappa": 0.5',
                                                       f'"kappa": {kappa}')
            path = tmp_path / "scenario.json"
            path.write_text(text)
            assert main(["evolve", "--config", str(path),
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
            assert len(err) == 1 and err[0].startswith("error: ")
            assert "n_steps" in err[0]

    def test_coherent_displacement_past_float_range_exits_2(self, tmp_path,
                                                            capsys):
        # |alpha|^2 overflows a float; the cutoff guard still rejects it
        for alpha in ([1e300, 0.0], [1.7e308, 1.7e308]):
            scenario = base_scenario(initial={"type": "coherent",
                                              "alpha1": alpha})
            for engine, command in (("fock", "evolve"), ("both", "evolve"),
                                    ("analytic", "oracle")):
                scenario["engine"] = engine
                config = write_scenario(tmp_path, scenario)
                assert main([command, "--config", config,
                             "--output", str(tmp_path)]) == 2
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and "increase the cutoff" in err[0]

    def test_moments_initial_with_fock_engine_exits_2(self, tmp_path):
        scenario = base_scenario(engine="fock",
                                 initial={"type": "moments",
                                          "mean": [0, 0, 0, 0],
                                          "cov": np.diag([0.5] * 4).tolist()})
        config = write_scenario(tmp_path, scenario)
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 2

    def test_oversized_fock_dim_exits_2(self, tmp_path, capsys):
        config = write_scenario(tmp_path, base_scenario(engine="fock",
                                                        fock_dim=1000))
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 2
        assert "fock_dim <= 90" in capsys.readouterr().err
        # analytic-only runs never allocate a density, so no limit applies
        config = write_scenario(tmp_path, base_scenario(fock_dim=1000))
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0

    def test_computation_failure_exits_4(self, tmp_path, capsys,
                                         monkeypatch):
        # every restart "converges" to the identity block in one iteration
        monkeypatch.setattr(structures, "_nelder_mead",
                            lambda *a, **k: ([1.0, 0.0, 0.0, 1.0], 0.0, 1))
        config = write_scenario(tmp_path, base_scenario())
        assert main(["classicality", "--config", config,
                     "--output", str(tmp_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trivial" in err
        assert "Traceback" not in err
        assert not (tmp_path / "classicality.txt").exists()

    def test_extreme_masses_exit_0(self, tmp_path):
        # m omega from 1e-150 to 1e200: no float error escapes, as a
        # warning or as exit 4, and only a value past float range reads inf
        with open(os.path.join(DATA_DIR,
                               "golden_general_lct_scenario.json")) as fh:
            scenario = json.load(fh)
        masses = list(itertools.product((1e-150, 1.0, 1e150, 1e200),
                                        repeat=2))
        args, wants = [], []
        for i, (m1, m2) in enumerate(masses):
            scenario["system"]["mode1"]["mass"] = m1
            scenario["system"]["mode2"]["mass"] = m2
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
        assert out.stdout.split() == ["0"] * 2 * len(masses)
        for i, want in enumerate(wants):
            got = report_values(tmp_path / f"out{i}" / "structure.txt")
            for key, value in want.items():
                if key == "residual" and value > sys.float_info.max:
                    assert got[key] == math.inf
                else:
                    assert math.isfinite(got[key])
                    assert abs(got[key] - float(value)) <= \
                        1e-12 * abs(float(value)), (masses[i], key)
            got = report_values(tmp_path / f"out{i}" / "classicality.txt")
            assert got["best residual"] <= 1e-10
            assert all(math.isfinite(got[key]) for key in
                       ("product_A", "product_B", "cov_xx", "cov_pp"))

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
        for seed, flag in ((-1, []), (5, ["--seed", "-1"])):
            config = write_scenario(tmp_path, base_scenario(seed=seed))
            for command in ("evolve", "classicality"):
                assert main([command, "--config", config, *flag,
                             "--output", str(tmp_path)]) == 2
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and "seed" in err[0]

    def test_io_error_exits_3(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario())
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["evolve", "--config", config,
                     "--output", str(blocker / "sub")]) == 3

    def test_no_partial_files_on_error(self, tmp_path):
        scenario = base_scenario()
        scenario["system"]["mode1"]["kappa"] = -1.0
        config = write_scenario(tmp_path, scenario)
        out = tmp_path / "out"
        main(["evolve", "--config", config, "--output", str(out)])
        assert not (out / "trajectory.csv").exists()


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

    def test_engine_both_reports_small_deviation(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario(engine="both"))
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
        summary = (tmp_path / "summary.txt").read_text()
        line = [l for l in summary.splitlines()
                if l.startswith("max analytic-vs-fock deviation")][0]
        assert float(line.split(":")[1]) <= 1e-8

    def test_lct_columns_present(self, tmp_path):
        scenario = base_scenario(lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
        config = write_scenario(tmp_path, scenario)
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
        header, _ = read_csv(tmp_path / "trajectory.csv")
        for col in ("mean_XA", "product_A", "cov_XA_xiB", "cov_PA_piB"):
            assert col in header

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario(engine="both"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["evolve", "--config", config, "--output", str(out1)]) == 0
        assert main(["evolve", "--config", config, "--output", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("scenario, csv", [
        ("golden_scenario", "golden_trajectory"),
        # unequal masses, squeezed correlated moments and a non-dyadic LCT,
        # where the summation order of the LCT transform shows in the digits
        ("golden_general_lct_scenario", "golden_general_lct_trajectory"),
    ], ids=["center_of_mass", "general_lct"])
    def test_golden_trajectory(self, tmp_path, scenario, csv):
        config = os.path.join(DATA_DIR, f"{scenario}.json")
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
        golden = os.path.join(DATA_DIR, f"{csv}.csv")
        with open(golden, "rb") as fh:
            expected = fh.read()
        assert (tmp_path / "trajectory.csv").read_bytes() == expected


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

    def test_oracle_builds_each_kraus_set_once_per_chunk(self, tmp_path,
                                                         monkeypatch):
        calls = {"kraus_operators": [], "heisenberg_evolve": []}
        for name, record in calls.items():
            fn = getattr(fock, name)
            monkeypatch.setattr(fock, name,
                                lambda *a, fn=fn, record=record:
                                record.append(1) or fn(*a))
        dim, n_times = 32, 16
        scenario = base_scenario(fock_dim=dim,
                                 time_grid={"t_start": 0.0, "t_end": 3.0,
                                            "n_steps": n_times})
        config = write_scenario(tmp_path, scenario)
        assert main(["oracle", "--config", config,
                     "--output", str(tmp_path)]) == 0
        chunks = -(-n_times // fock._chunk_size(dim))
        assert 1 < chunks < n_times
        # per mode and chunk, for the moments and the report alike
        assert len(calls["kraus_operators"]) == 2 * chunks
        assert len(calls["heisenberg_evolve"]) == 2 * chunks
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

    def test_structure_without_lct_exits_2(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario())
        assert main(["structure", "--config", config,
                     "--output", str(tmp_path)]) == 2

    def test_invalid_lct_exits_2(self, tmp_path):
        # not canonical; ill-conditioned (cond ~ 4e10, det 1e-10)
        for lct in ({"M": [[1.0, 0.0], [0.0, 1.0]],
                     "N": [[2.0, 0.0], [0.0, 1.0]]},
                    {"M": [[1.0, 1.0], [1.0, 1.0 + 1e-10]]}):
            config = write_scenario(tmp_path, base_scenario(lct=lct))
            assert main(["structure", "--config", config,
                         "--output", str(tmp_path)]) == 2

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
        # kappa t = 1e400 is past float range; e^{-kappa t} = 0 is exact
        scenario = base_scenario(engine="both", fock_dim=8,
                                 time_grid={"t_start": 0.0, "t_end": 1e200,
                                            "n_steps": 5})
        for label in ("mode1", "mode2"):
            scenario["system"][label]["kappa"] = 1e200
        config = write_scenario(tmp_path, scenario)
        src = os.path.dirname(os.path.dirname(dampsim.__file__))
        for command in ("oracle", "evolve"):
            out = subprocess.run(
                [sys.executable, "-m", "dampsim.cli", command, "--config",
                 config, "--output", str(tmp_path)],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                text=True)
            assert (out.returncode, out.stderr) == (0, "")
        lines = (tmp_path / "oracle_report.txt").read_text().splitlines()
        residuals = [field for line in lines for field in line.split()
                     if field.startswith("bh_residual=")]
        assert residuals == ["bh_residual=0"] * 5

    def test_seed_flag_overrides_scenario(self, tmp_path):
        config = write_scenario(tmp_path, base_scenario(seed=5))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["classicality", "--config", config, "--seed", "9",
                     "--output", str(out1)]) == 0
        assert main(["classicality", "--config", config, "--seed", "9",
                     "--output", str(out2)]) == 0
        assert (out1 / "classicality.txt").read_text() == \
            (out2 / "classicality.txt").read_text()
        assert "seed: 9" in (out1 / "classicality.txt").read_text()


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
        scenario = base_scenario(initial={"type": "moments",
                                          "mean": [0.0, 0.0, 0.0, 0.0],
                                          "cov": cov.tolist()})
        config = write_scenario(tmp_path, scenario)
        assert main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 2

    def test_explicit_density_initial(self, tmp_path):
        from dampsim.fock import coherent_density
        dim = 6
        rho = np.kron(coherent_density(0.5, dim), coherent_density(0.0, dim))
        scenario = base_scenario(engine="fock", fock_dim=dim,
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
        for command, engine in (("evolve", "analytic"), ("evolve", "fock"),
                                ("evolve", "both"), ("oracle", "analytic"),
                                ("structure", "analytic"),
                                ("classicality", "analytic")):
            scenario = base_scenario(engine=engine, fock_dim=dim,
                                     initial={"type": "density",
                                              "real": rho.real.tolist(),
                                              "imag": rho.imag.tolist()},
                                     lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
            config = write_scenario(tmp_path, scenario)
            calls.clear()
            assert main([command, "--config", config,
                         "--output", str(tmp_path)]) == 0
            assert len(calls) == 1, (command, engine)

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
                     {"type": "coherent", "alpha1": ["a", 1]}]
        invalid = [{"type": "moments", "mean": [0.0] * 4, "cov": unphysical},
                   {"type": "moments", "mean": [0.0, 0.0, 0.0, "INF"],
                    "cov": np.eye(4).tolist()},
                   {"type": "density", "real": [[1.0]]},
                   {"type": "density", "real": asymmetric.tolist()},
                   {"type": "density", "real": (2 * rho).tolist()},
                   {"type": "squeezed"}]
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

    def test_vacuum_is_the_zero_displacement(self, tmp_path):
        zero = {"type": "coherent", "alpha1": 0, "alpha2": [0, 0.0]}
        for engine in ("analytic", "fock", "both"):
            outputs = []
            for initial in ({"type": "vacuum"}, zero, None):
                scenario = base_scenario(
                    engine=engine, fock_dim=4, initial=initial,
                    lct={"M": [[0.5, 0.5], [1.0, -1.0]]})
                if initial is None:
                    del scenario["initial"]
                config = write_scenario(tmp_path, scenario)
                out = tmp_path / f"{engine}-{len(outputs)}"
                for command in ("evolve", "oracle", "structure",
                                "classicality"):
                    assert main([command, "--config", config,
                                 "--output", str(out)]) == 0
                outputs.append({name: (out / name).read_bytes()
                                for name in sorted(os.listdir(out))})
            assert len(outputs[0]) == 6
            assert outputs[0] == outputs[1] == outputs[2], engine
        # the folded vacuum is the number state |0, 0>, bit for bit, and
        # its mean is +0.0
        for dim in (2, 4, 32):
            config = write_scenario(tmp_path, base_scenario(
                fock_dim=dim, initial={"type": "vacuum"}))
            scenario = cli.load_scenario(config)
            rho = cli.initial_density(scenario)
            ground = fock.fock_density(0, dim)
            assert np.array_equal(rho, np.kron(ground, ground))
            assert not np.signbit(rho.view(float)).any()
            mean = cli.initial_moment_state(scenario).mean
            assert np.array_equal(mean, np.zeros(4))
            assert not np.signbit(mean).any()

    def test_non_finite_density_exits_2(self, tmp_path):
        dim = 2
        rho = np.kron(np.eye(dim) / dim, np.eye(dim) / dim).tolist()
        rho[0][1] = rho[1][0] = "OVERFLOW"
        scenario = base_scenario(engine="fock", fock_dim=dim,
                                 initial={"type": "density", "real": rho})
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
        assert out.returncode == 2
        errors = [line for line in out.stderr.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1 and "finite" in errors[0]
        assert "Warning" not in out.stderr


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
    small = dict(engine="both", seed=3,
                 time_grid={"t_start": 0.0, "t_end": 2.0, "n_steps": 3},
                 lct={"M": [[0.5, 0.5], [1.0, -1.0]],
                      "N": [[1.0, 1.0], [0.5, -0.5]]})
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
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return scenario


@given(mutated_scenarios())
def test_any_scenario_exits_with_a_documented_code(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "scenario.json")
        with open(config, "w") as fh:
            json.dump(scenario, fh)
        for command in ("evolve", "oracle", "structure", "classicality"):
            code = main([command, "--config", config,
                         "--output", os.path.join(tmp, "out")])
            assert code in (0, 1, 2, 3, 4)


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(dampsim.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    config = write_scenario(tmp_path, base_scenario())
    # importing the CLI, and running the search, both leave scipy unloaded
    argv = ["classicality", "--config", config, "--output", str(tmp_path)]
    code = ("import sys, dampsim.cli; print('scipy' in sys.modules); "
            f"code = dampsim.cli.main({argv!r}); "
            "print(code, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.splitlines() == ["False", "0 False"]
