"""Correctness checks on the outputs of every timed operation.

Each check returns a ``Check``: a list of failure messages (empty when the
output is correct) and the accuracy values it measured. The reference
moments come from the closed-form damping law written out here, not from
``dampsim``, so a change to the program cannot move its own yardstick.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Tolerances of the acceptance criteria the checks mirror.
ENGINE_TOL = 1e-8        # acceptance 3: engine deviation
COMPLETENESS_TOL = 1e-13  # acceptance 4: completeness and BH identity
TRACE_TOL = 1e-10        # acceptance 7: trace and positivity
FORMULA_RTOL = 1e-9      # structure report against the closed form

PIPELINE_COLUMNS = 25


@dataclass
class Check:
    failures: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)

    def require(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


def _read(path: str, check: Check) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        check.failures.append(f"missing output {os.path.basename(path)}: "
                              f"{exc.strerror}")
        return None


def vacuum_cov(modes: list[dict], hbar: float) -> np.ndarray:
    diag = []
    for m in modes:
        diag += [hbar / (2 * m["mass"] * m["omega"]),
                 hbar * m["mass"] * m["omega"] / 2]
    return np.diag(diag)


def coherent_mean(modes: list[dict], alphas, hbar: float) -> np.ndarray:
    mean = []
    for m, (re, im) in zip(modes, alphas):
        mean += [np.sqrt(2 * hbar / (m["mass"] * m["omega"])) * re,
                 np.sqrt(2 * hbar * m["mass"] * m["omega"]) * im]
    return np.array(mean)


def damped_moments(modes: list[dict], hbar: float, mean0: np.ndarray,
                   cov0: np.ndarray, times: np.ndarray):
    """Closed-form amplitude damping of first and second moments over a
    time grid: mean E m0, cov E C0 E + (1 - E^2) C_vac."""
    kappa = np.repeat([m["kappa"] for m in modes], 2)
    e = np.exp(-np.outer(times, kappa))
    mean = e * mean0
    cov = (e[:, :, None] * e[:, None, :] * cov0
           + (1 - e ** 2)[:, :, None] * vacuum_cov(modes, hbar))
    return mean, cov


def lct_embedding(position_block) -> np.ndarray:
    m = np.asarray(position_block, dtype=float)
    n = np.linalg.inv(m.T)
    s = np.zeros((4, 4))
    s[0, [0, 2]], s[1, [1, 3]] = m[0], n[0]
    s[2, [0, 2]], s[3, [1, 3]] = m[1], n[1]
    return s


def _modes(scenario: dict) -> list[dict]:
    return [scenario["system"]["mode1"], scenario["system"]["mode2"]]


def check_trajectory(out_dir: str, scenario: dict) -> Check:
    """trajectory.csv row count, columns and every value against the
    closed form, plus the presence of summary.txt."""
    check = Check()
    _read(os.path.join(out_dir, "summary.txt"), check)
    text = _read(os.path.join(out_dir, "trajectory.csv"), check)
    if text is None:
        return check
    lines = text.splitlines()
    n_steps = scenario["time_grid"]["n_steps"]
    if not check.require(len(lines) == n_steps + 1,
                         f"trajectory.csv has {len(lines) - 1} rows, "
                         f"expected {n_steps}"):
        return check
    try:
        data = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
    except ValueError as exc:
        check.failures.append(f"trajectory.csv is not numeric: {exc}")
        return check
    if not check.require(data.shape[1] == PIPELINE_COLUMNS,
                         f"trajectory.csv has {data.shape[1]} columns, "
                         f"expected {PIPELINE_COLUMNS}"):
        return check
    grid = scenario["time_grid"]
    times = np.linspace(grid["t_start"], grid["t_end"], n_steps)
    modes, hbar = _modes(scenario), scenario["system"]["hbar"]
    init = scenario["initial"]
    mean0 = coherent_mean(modes, (init["alpha1"], init["alpha2"]), hbar)
    mean, cov = damped_moments(modes, hbar, mean0, vacuum_cov(modes, hbar),
                               times)
    s = lct_embedding(scenario["lct"]["M"])
    tmean = mean @ s.T
    tcov = s @ cov @ s.T
    iu = np.triu_indices(4)
    expected = np.column_stack([
        times, mean, cov[:, iu[0], iu[1]],
        np.sqrt(cov[:, 0, 0] * cov[:, 1, 1]),
        np.sqrt(cov[:, 2, 2] * cov[:, 3, 3]),
        tmean, np.sqrt(tcov[:, 0, 0] * tcov[:, 1, 1]),
        np.sqrt(tcov[:, 2, 2] * tcov[:, 3, 3]), tcov[:, 0, 2], tcov[:, 1, 3]])
    deviation = float(np.max(np.abs(data - expected)))
    check.values["engine_deviation"] = deviation
    check.require(deviation < ENGINE_TOL,
                  f"trajectory deviates from the closed form by {deviation:g}")
    return check


def _report_fields(text: str) -> dict[str, list[float]]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = [float(v) for v in value.split()]
    return out


def check_structure(out_dir: str, scenario: dict) -> Check:
    """structure.txt against the asymptotic closed form of the given M."""
    check = Check()
    text = _read(os.path.join(out_dir, "structure.txt"), check)
    if text is None:
        return check
    try:
        got = _report_fields(text)
        got = {k: got[k][0] for k in ("product_A", "product_B", "cov_xx",
                                      "cov_pp", "residual")}
    except (KeyError, IndexError, ValueError) as exc:
        check.failures.append(f"structure.txt is malformed: {exc!r}")
        return check
    modes, hbar = _modes(scenario), scenario["system"]["hbar"]
    vac = np.diag(vacuum_cov(modes, hbar))
    vx, vp = vac[0::2], vac[1::2]
    m = np.asarray(scenario["lct"]["M"], dtype=float)
    n = np.linalg.inv(m.T)
    half = hbar / 2
    want = {"product_A": np.sqrt((m[0] ** 2 @ vx) * (n[0] ** 2 @ vp)),
            "product_B": np.sqrt((m[1] ** 2 @ vx) * (n[1] ** 2 @ vp)),
            "cov_xx": (m[0] * m[1]) @ vx, "cov_pp": (n[0] * n[1]) @ vp}
    want["residual"] = ((want["product_A"] - half) ** 2
                        + (want["product_B"] - half) ** 2
                        + want["cov_xx"] ** 2 + want["cov_pp"] ** 2) / half ** 2
    for key, value in want.items():
        check.require(abs(got[key] - value) <= FORMULA_RTOL * (1 + abs(value)),
                      f"structure {key} = {got[key]!r}, closed form {value!r}")
    return check


def check_classicality(out_dir: str, reference_trace: bytes | None) -> Check:
    """classicality.txt and search_trace.csv: one row per restart, the
    best residual is the smallest non-trivial one, and the trace is
    byte-identical to ``reference_trace`` (the first repetition's)."""
    check = Check()
    report = _read(os.path.join(out_dir, "classicality.txt"), check)
    trace_path = os.path.join(out_dir, "search_trace.csv")
    if _read(trace_path, check) is None or report is None:
        return check
    with open(trace_path, "rb") as fh:
        trace_bytes = fh.read()
    try:
        fields = _report_fields(report)
        restarts, best = int(fields["restarts"][0]), fields["best residual"][0]
        rows = [line.split(",") for line in
                trace_bytes.decode().splitlines()[1:]]
        nontrivial = [float(r[1]) for r in rows if r[3] == "0"]
    except (KeyError, IndexError, ValueError) as exc:
        check.failures.append(f"classicality output is malformed: {exc!r}")
        return check
    check.values["search_best_residual"] = best
    check.require(len(rows) == restarts,
                  f"search_trace.csv has {len(rows)} rows for {restarts} "
                  "restarts")
    check.require(bool(nontrivial) and abs(best - min(nontrivial)) <= 1e-12,
                  f"best residual {best!r} is not the smallest non-trivial "
                  "restart residual")
    check.require(reference_trace is None or trace_bytes == reference_trace,
                  "search_trace.csv differs between repetitions of one seed")
    return check


def check_oracle(out_dir: str, scenario: dict) -> Check:
    """oracle_report.txt: one line per time point, completeness and BH
    residuals within 1e-13, engine deviation below 1e-8."""
    check = Check()
    text = _read(os.path.join(out_dir, "oracle_report.txt"), check)
    if text is None:
        return check
    lines = text.splitlines()
    n_times = scenario["time_grid"]["n_steps"]
    if not check.require(len(lines) == n_times + 2,
                         f"oracle_report.txt has {len(lines)} lines, "
                         f"expected {n_times + 2}"):
        return check
    try:
        per_t = [dict(item.split("=") for item in line.split())
                 for line in lines[1:-1]]
        completeness = max(float(r["completeness"]) for r in per_t)
        bh = max(float(r["bh_residual"]) for r in per_t)
        deviation = max(float(r["engine_deviation"]) for r in per_t)
        reported = float(lines[-1].rpartition(":")[2])
    except (KeyError, ValueError) as exc:
        check.failures.append(f"oracle_report.txt is malformed: {exc!r}")
        return check
    check.values["completeness_defect"] = completeness
    check.values["engine_deviation"] = max(deviation, reported)
    check.require(lines[0] == f"fock_dim: {scenario['fock_dim']}",
                  f"oracle_report.txt header is {lines[0]!r}")
    check.require(completeness <= COMPLETENESS_TOL,
                  f"completeness defect {completeness:g} > 1e-13")
    check.require(bh <= COMPLETENESS_TOL, f"BH identity residual {bh:g} > 1e-13")
    check.require(deviation < ENGINE_TOL and reported == deviation,
                  f"engine deviation {deviation:g} (reported max "
                  f"{reported:g}), tolerance 1e-8")
    return check


def check_schroedinger(out_dir: str, spec: dict) -> Check:
    """moments.json: every evolved density has unit trace and no negative
    eigenvalue within 1e-10, and its moments follow the closed form from
    the generated mixture's initial moments within 1e-8."""
    check = Check()
    text = _read(os.path.join(out_dir, "moments.json"), check)
    if text is None:
        return check
    try:
        records = json.loads(text)["records"]
        times = np.array([r["t"] for r in records])
        got_mean = np.array([r["mean"] for r in records], dtype=float)
        got_cov = np.array([r["cov"] for r in records], dtype=float)
        trace_defect = max(abs(r["trace"] - 1.0) for r in records)
        min_eig = min(r["min_eigenvalue"] for r in records)
        herm = max(r["hermiticity_defect"] for r in records)
    except (KeyError, TypeError, ValueError) as exc:
        check.failures.append(f"moments.json is malformed: {exc!r}")
        return check
    if not check.require(got_mean.shape == (len(spec["times"]), 4)
                         and times.tolist() == spec["times"],
                         "moments.json does not hold one record per time"):
        return check
    modes, hbar = spec["modes"], spec["hbar"]
    vac = vacuum_cov(modes, hbar)
    means = [coherent_mean(modes, (b["alpha1"], b["alpha2"]), hbar)
             for b in spec["branches"]]
    weights = np.array([b["weight"] for b in spec["branches"]])
    mean0 = weights @ np.array(means)
    cov0 = vac + sum(w * np.outer(m - mean0, m - mean0)
                     for w, m in zip(weights, means))
    mean, cov = damped_moments(modes, hbar, mean0, cov0, times)
    deviation = float(max(np.max(np.abs(got_mean - mean)),
                          np.max(np.abs(got_cov - cov))))
    check.values["engine_deviation"] = deviation
    check.values["trace_defect"] = trace_defect
    check.require(deviation < ENGINE_TOL,
                  f"evolved moments deviate from the closed form by "
                  f"{deviation:g}")
    check.require(trace_defect <= TRACE_TOL,
                  f"trace defect {trace_defect:g} > 1e-10")
    check.require(min_eig >= -TRACE_TOL,
                  f"evolved density has eigenvalue {min_eig:g} < -1e-10")
    check.require(herm <= TRACE_TOL, f"Hermiticity defect {herm:g} > 1e-10")
    return check


def check_golden(out_dir: str, golden_csv: str) -> Check:
    """The golden scenario's trajectory.csv, byte for byte."""
    check = Check()
    path = os.path.join(out_dir, "trajectory.csv")
    if _read(path, check) is None:
        return check
    with open(path, "rb") as got, open(golden_csv, "rb") as want:
        match = got.read() == want.read()
    check.values["golden_csv_match"] = float(match)
    check.require(match, "golden scenario trajectory.csv is not byte-identical")
    return check
