"""End-to-end acceptance suite.

Each test prints one `ACCEPTANCE <n> ...: PASS|FAIL` line (visible with
`pytest -s` or in captured output) and enforces the stated tolerance.
"""

import functools
import json
import os
import time

import numpy as np
import pytest

from dampsim import analytic, fock, structures
from dampsim.cli import main as cli_main
from dampsim.model import (Lct, MomentState, ModeParams, PhysicalConstants,
                           TwoModeSystem, symplectic_defect, vacuum_state)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")
        return wrapper
    return decorate


def random_system(rng, hbar=1.0):
    return TwoModeSystem(
        mode1=ModeParams(mass=rng.uniform(0.5, 3), omega=rng.uniform(0.5, 3),
                         kappa=rng.uniform(0.1, 2)),
        mode2=ModeParams(mass=rng.uniform(0.5, 3), omega=rng.uniform(0.5, 3),
                         kappa=rng.uniform(0.1, 2)),
        constants=PhysicalConstants(hbar=hbar))


def random_state(rng, system, spread=0.5):
    vac = vacuum_state(system)
    r = rng.normal(size=4)
    return MomentState(mean=rng.normal(size=4),
                       cov=vac.cov + spread * np.outer(r, r))


def correlated_mixture_system_and_states(kappa1=0.25, kappa2=0.15, dim=32):
    """Classical mixture of two displaced vacua with cov(x1, x2) = 0.8,
    as both a moment state and a Fock density matrix."""
    system = TwoModeSystem(mode1=ModeParams(1.0, 1.0, kappa1),
                           mode2=ModeParams(1.0, 1.0, kappa2))
    c = np.sqrt(0.4)  # <x> = sqrt(2) c per branch, so Var and Cov gain 0.8
    cov = np.diag([1.3, 0.5, 1.3, 0.5])
    cov[0, 2] = cov[2, 0] = 0.8
    state = MomentState(mean=np.zeros(4), cov=cov)
    plus = np.kron(fock.coherent_density(c, dim),
                   fock.coherent_density(c, dim))
    minus = np.kron(fock.coherent_density(-c, dim),
                    fock.coherent_density(-c, dim))
    return system, state, 0.5 * (plus + minus)


@criterion(1, "fixed point and asymptote")
def test_criterion_1_fixed_point_and_asymptote():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(5):
        system = random_system(rng)
        state0 = random_state(rng, system)
        kappa_min = min(system.mode1.kappa, system.mode2.kappa)
        evolved = analytic.evolve_state(state0, system, 20.0 / kappa_min)
        vac = vacuum_state(system)
        assert np.max(np.abs(evolved.mean - vac.mean)) < 1e-8
        assert np.max(np.abs(evolved.cov - vac.cov)) < 1e-8
        for mode in (1, 2):
            assert abs(analytic.uncertainty_product(evolved, mode) - 0.5) \
                < 1e-8
    assert time.monotonic() - start < 1.0


@criterion(2, "covariance decay rate")
def test_criterion_2_covariance_decay_rate():
    start = time.monotonic()
    system, state0, rho0 = correlated_mixture_system_and_states()
    rate = system.mode1.kappa + system.mode2.kappa
    times = np.linspace(0.0, 5.0, 50)

    analytic_c = [analytic.evolve_state(state0, system, t).cov[0, 2]
                  for t in times]
    slope = np.polyfit(times, np.log(np.abs(analytic_c)), 1)[0]
    assert abs(slope - (-rate)) < 1e-9

    fock_c = [fock.two_mode_moments(rho0, system, t, 32).cov[0, 2]
              for t in times]
    fock_slope = np.polyfit(times, np.log(np.abs(fock_c)), 1)[0]
    assert abs(fock_slope - (-rate)) < 1e-4
    assert time.monotonic() - start < 30.0


@criterion(3, "oracle equivalence")
def test_criterion_3_oracle_equivalence():
    system = TwoModeSystem(mode1=ModeParams(1.2, 0.9, 0.7),
                           mode2=ModeParams(0.8, 1.4, 0.4))
    a1, a2 = 1.1 + 0.6j, -0.8 + 0.9j
    dim = 32
    rho0 = np.kron(fock.coherent_density(a1, dim),
                   fock.coherent_density(a2, dim))
    mean = []
    for alpha, mode in zip((a1, a2), system.modes):
        mean.append(np.sqrt(2 / (mode.mass * mode.omega)) * alpha.real)
        mean.append(np.sqrt(2 * mode.mass * mode.omega) * alpha.imag)
    state0 = MomentState(mean=np.array(mean), cov=vacuum_state(system).cov)

    kappa_max = max(system.mode1.kappa, system.mode2.kappa)
    for t in np.linspace(0.0, 3.0 / kappa_max, 10):
        closed = analytic.evolve_state(state0, system, t)
        oracle = fock.two_mode_moments(rho0, system, t, dim)
        assert np.max(np.abs(closed.mean - oracle.mean)) < 1e-8
        assert np.max(np.abs(closed.cov - oracle.cov)) < 1e-8


@criterion(4, "exact structural identities")
def test_criterion_4_exact_structural_identities():
    for dim in (8, 16, 32):
        for kt in (0.0, 0.5, 2.0, 10.0):
            ks = fock.kraus_operators(1.0, kt, dim)
            assert fock.completeness_defect(ks) <= 1e-13
            assert fock.bh_identity_residual(1.0, kt, dim) <= 1e-13


@criterion(5, "uncertainty product inequality")
def test_criterion_5_inequality_suite():
    rng = np.random.default_rng(505)
    lcts = []
    while len(lcts) < 1000:
        m = rng.uniform(-3.0, 3.0, size=(2, 2))
        if abs(np.linalg.det(m)) >= 0.05:
            lcts.append(Lct(m))
    systems = [random_system(rng) for _ in range(20)]
    for system in systems:
        half = system.constants.hbar / 2
        for lct in lcts:
            pa, pb = structures.asymptotic_products(lct, system)
            assert pa >= half - 1e-10
            assert pb >= half - 1e-10

    com = structures.center_of_mass_lct()
    for m, w, hbar in ((1.0, 1.0, 1.0), (2.0, 0.7, 1.0), (0.5, 3.0, 2.0)):
        system = TwoModeSystem(mode1=ModeParams(m, w, 0.5),
                               mode2=ModeParams(m, w, 0.9),
                               constants=PhysicalConstants(hbar=hbar))
        half = hbar / 2
        pa, pb = structures.asymptotic_products(com, system)
        assert abs(pa - half) < 1e-12
        assert abs(pb - half) < 1e-12
        cxx, cpp = structures.asymptotic_cross_covariances(com, system)
        assert abs(cxx) < 1e-12
        assert abs(cpp) < 1e-12


@criterion(6, "non-classicality of alternate structures")
def test_criterion_6_nonclassicality_of_alternates():
    start = time.monotonic()
    config = structures.SearchConfig(restarts=32, seed=6)

    resonant = TwoModeSystem(mode1=ModeParams(1.0, 1.0, 0.5),
                             mode2=ModeParams(1.0, 1.0, 0.5))
    report, _ = structures.search_classical_structure(resonant, config)
    assert report.residual <= 1e-10

    # Stated expectation: no nontrivial structure reaches residual <= 1e-4
    # for unequal masses or detuned frequencies. Mode-mixing blocks with
    # momentum rows rescaled by 1/(m_i omega_i) reach residual 0 exactly
    # (e.g. M = [[1, 1], [1, -2]] for m = (1, 2)), so the search does find
    # nontrivial classical structures and these assertions fail.
    unequal_mass = TwoModeSystem(mode1=ModeParams(1.0, 1.0, 0.5),
                                 mode2=ModeParams(2.0, 1.0, 0.5))
    report_mass, _ = structures.search_classical_structure(unequal_mass,
                                                           config)
    detuned = TwoModeSystem(mode1=ModeParams(1.0, 1.0, 0.5),
                            mode2=ModeParams(1.0, 2.0, 0.5))
    report_detuned, _ = structures.search_classical_structure(detuned, config)
    assert time.monotonic() - start < 60.0
    assert report_mass.residual > 1e-4, \
        (f"nontrivial classical structure found for unequal masses: "
         f"M = {np.array(report_mass.lct.M).tolist()}, "
         f"residual = {report_mass.residual:g}")
    assert report_detuned.residual > 1e-4, \
        (f"nontrivial classical structure found for detuned frequencies: "
         f"M = {np.array(report_detuned.lct.M).tolist()}, "
         f"residual = {report_detuned.residual:g}")


@criterion(7, "positivity preservation")
def test_criterion_7_positivity_preservation():
    rng = np.random.default_rng(707)
    for _ in range(200):
        system = random_system(rng)
        state0 = random_state(rng, system)
        for t in rng.uniform(0.0, 15.0, size=20):
            evolved = analytic.evolve_state(state0, system, t)
            assert symplectic_defect(evolved, 1.0) >= -1e-10

    dim = 16
    for kt in (0.2, 1.0, 4.0):
        ks = fock.kraus_operators(1.0, kt, dim)
        for alpha in (0.0, 0.9, 1.2 - 0.8j):
            rho = fock.evolve_density(fock.coherent_density(alpha, dim), ks)
            assert abs(np.trace(rho).real - 1.0) <= 1e-10
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10
    dim2 = 6
    rho0 = np.kron(fock.coherent_density(0.5, dim2),
                   fock.coherent_density(-0.4j, dim2))
    ks1 = fock.kraus_operators(0.7, 0.9, dim2)
    ks2 = fock.kraus_operators(0.2, 0.9, dim2)
    rho = fock.evolve_density(rho0, ks1, ks2)
    assert abs(np.trace(rho).real - 1.0) <= 1e-10
    assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10


@criterion(8, "CLI contract")
def test_criterion_8_cli_contract(tmp_path):
    config = os.path.join(DATA_DIR, "golden_scenario.json")
    assert cli_main(["evolve", "--config", config,
                     "--output", str(tmp_path)]) == 0
    with open(os.path.join(DATA_DIR, "golden_trajectory.csv"), "rb") as fh:
        golden = fh.read()
    assert (tmp_path / "trajectory.csv").read_bytes() == golden

    bad = dict(json.loads(open(config).read()))
    bad["system"]["mode1"]["kappa"] = -0.5
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert cli_main(["evolve", "--config", str(bad_path),
                     "--output", str(tmp_path)]) == 2
