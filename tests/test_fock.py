import ast
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dampsim import analytic, fock
from dampsim.fock import (KrausSet, bh_identity_residual,
                          build_mode_operators, check_density,
                          coherent_density, completeness_defect,
                          evolve_density, fock_density, heisenberg_evolve,
                          kraus_operators, lowering, moment_trajectory,
                          two_mode_moments)
from dampsim.model import MomentState, PhysicalConstants

from test_model import make_system, systems


def coherent_pair_density(a1, a2, dim):
    return np.kron(coherent_density(a1, dim), coherent_density(a2, dim))


def random_density(dim, rng):
    """A full-rank random density matrix (non-product when dim is a
    two-mode size)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def dense_ops(ks):
    """Each K_n as a dense (dim, dim) matrix, its band on the n-th
    superdiagonal."""
    return tuple(np.diag(band[:ks.dim - n], n)
                 for n, band in enumerate(ks.bands))


def literal_kraus_product(kappa, t, dim):
    """The Kraus family as the literal dense product
    sqrt(loss^n / n!) e^{-kt N} a^n."""
    a = lowering(dim)
    loss = -math.expm1(-2.0 * kappa * t)
    decay = np.diag(np.exp(-kappa * t * np.arange(dim))).astype(complex)
    return tuple(math.sqrt(loss ** n / math.factorial(n))
                 * (decay @ np.linalg.matrix_power(a, n))
                 for n in range(dim))


def phased(ks, rng):
    """The same channel with complex bands: K_n -> U_n K_n for random
    diagonal unitaries U_n, so a missing conjugate shows."""
    phases = np.exp(2j * np.pi * rng.random(ks.bands.shape))
    return KrausSet(kappa=ks.kappa, t=ks.t, bands=phases * ks.bands)


def kron_channel_reference(rho, ks1, ks2):
    """The product channel as the explicit double sum over Kronecker
    products, sum_mn (K1_m otimes K2_n) rho (K1_m otimes K2_n)^dag."""
    out = np.zeros_like(rho)
    for k1 in dense_ops(ks1):
        for k2 in dense_ops(ks2):
            k = np.kron(k1, k2)
            out += k @ rho @ k.conj().T
    return out


def coherent_pair_moments(a1, a2, system):
    """Exact moment state of a product coherent state (unit trust anchor
    independent of the Fock machinery)."""
    from dampsim.model import vacuum_state
    hbar = system.constants.hbar
    mean = []
    for alpha, mode in zip((a1, a2), system.modes):
        mean.append(np.sqrt(2 * hbar / (mode.mass * mode.omega)) * alpha.real)
        mean.append(np.sqrt(2 * hbar * mode.mass * mode.omega) * alpha.imag)
    return MomentState(mean=np.array(mean), cov=vacuum_state(system).cov)


class TestModeOperators:
    def test_lowering_smallest(self):
        assert np.allclose(lowering(2), [[0, 1], [0, 0]])

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError):
            lowering(1)

    def test_position_matrix_element(self):
        ops = build_mode_operators(3, make_system().mode1,
                                   PhysicalConstants())
        assert ops.x[0, 1] == pytest.approx(1 / np.sqrt(2))
        assert ops.x[1, 0] == pytest.approx(1 / np.sqrt(2))

    def test_ladder_adjoint_and_number(self):
        ops = build_mode_operators(8, make_system().mode1,
                                   PhysicalConstants())
        assert np.allclose(ops.a_dag, ops.a.conj().T)
        assert np.allclose(ops.number, np.diag(np.arange(8)))

    def test_canonical_commutator_below_cutoff(self):
        dim = 10
        system = make_system(m1=1.7, w1=0.6, hbar=1.4)
        ops = build_mode_operators(dim, system.mode1, system.constants)
        comm = ops.x @ ops.p - ops.p @ ops.x
        block = comm[:dim - 1, :dim - 1]
        assert np.allclose(block, 1.4j * np.eye(dim - 1), atol=1e-13)


class TestKrausOperators:
    def test_zero_time_is_identity_channel(self):
        ops = dense_ops(kraus_operators(0.8, 0.0, 6))
        assert np.allclose(ops[0], np.eye(6))
        for k in ops[1:]:
            assert np.allclose(k, 0.0)

    def test_long_time_projects_to_ground(self):
        kt = 30.0
        ks = kraus_operators(1.0, kt, 6)
        diag = np.diag(dense_ops(ks)[0]).real
        assert diag[0] == pytest.approx(1.0)
        assert np.allclose(diag[1:], np.exp(-kt * np.arange(1, 6)))
        # kappa t overflows to inf: the exact ground-state limit, K_n = |0><n|
        limit = kraus_operators(1e200, 1e200, 4)
        assert np.all(np.isfinite(limit.bands))
        for n, k in enumerate(dense_ops(limit)):
            assert np.array_equal(k, np.outer(np.eye(4)[0], np.eye(4)[n]))
        assert completeness_defect(limit) == 0.0

    def test_set_size_matches_cutoff(self):
        ks = kraus_operators(0.5, 1.0, 9)
        assert len(dense_ops(ks)) == 9

    @pytest.mark.parametrize("kappa, t", [(-0.1, 1.0), (1.0, -0.1),
                                          (np.nan, 1.0), (1.0, np.nan),
                                          (np.inf, 1.0), (1.0, np.inf)])
    def test_invalid_parameters_rejected(self, kappa, t):
        with pytest.raises(ValueError, match="finite and non-negative"):
            kraus_operators(kappa, t, 4)

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match="cutoff"):
            kraus_operators(1.0, 1.0, 1)

    @pytest.mark.parametrize("dim", [8, 20, 32])
    @pytest.mark.parametrize("kt", [0.0, 0.3, 1.0, 6.0])
    def test_completeness_binomial_identity(self, dim, kt):
        ks = kraus_operators(1.0, kt, dim)
        assert completeness_defect(ks) <= 1e-13

    def test_dropping_last_operator_breaks_completeness(self):
        full = kraus_operators(1.0, 1.0, 4)
        broken = KrausSet(kappa=1.0, t=1.0, bands=full.bands[:-1])
        assert completeness_defect(broken) > 1e-3

    @pytest.mark.parametrize("dim", [2, 9, 32])
    @pytest.mark.parametrize("kappa, t", [(0.0, 1.0), (0.7, 0.2),
                                          (1.0, 1.0), (1.3, 4.0)])
    def test_bands_match_literal_product(self, kappa, t, dim):
        ks = kraus_operators(kappa, t, dim)
        assert ks.bands.shape == (dim, dim)
        for got, want in zip(dense_ops(ks),
                             literal_kraus_product(kappa, t, dim)):
            assert np.max(np.abs(got - want)) <= 1e-14


class TestBakerHausdorffIdentity:
    def test_zero_time(self):
        assert bh_identity_residual(1.3, 0.0, 8) == 0.0

    def test_generic_parameters(self):
        assert bh_identity_residual(0.7, 2.3, 15) <= 1e-13

    def test_raising_version_by_adjoint(self):
        dim, s = 12, 0.9
        a_dag = lowering(dim).conj().T
        decay = np.diag(np.exp(-s * np.arange(dim)))
        lhs = decay @ a_dag @ decay
        rhs = np.exp(-s) * a_dag @ np.diag(np.exp(-2 * s * np.arange(dim)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


class TestCoherentDensity:
    def test_zero_displacement_is_vacuum(self):
        assert np.allclose(coherent_density(0.0, 10), fock_density(0, 10))

    def test_ground_population_is_poisson_weight(self):
        rho = coherent_density(1.0, 20)
        assert rho[0, 0].real == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_position_expectation(self):
        system = make_system()
        rho = coherent_pair_density(1.0, 0.0, 20)
        m = two_mode_moments(rho, system, 0.0, 20)
        assert m.mean[0] == pytest.approx(np.sqrt(2.0), abs=1e-9)

    def test_tail_mass_guard(self):
        with pytest.raises(ValueError, match="cutoff"):
            coherent_density(3.0, 8)
        # |alpha|^2 past float range meets the same guard, not an overflow
        for bad in (np.nan, complex(0.5, np.nan), np.inf, 1e300,
                    complex(0.0, 1e200), complex(1.7e308, 1.7e308)):
            with pytest.raises(ValueError, match="increase the cutoff"):
                coherent_density(bad, 8)
        # the boundary |alpha|^2 = dim/4 is accepted, and just past it not
        assert np.trace(coherent_density(1.0, 4)).real == pytest.approx(1.0)
        with pytest.raises(ValueError, match="cutoff"):
            coherent_density(math.nextafter(1.0, 2.0), 4)


class TestEvolveDensity:
    def test_vacuum_fixed_point(self):
        rho0 = fock_density(0, 10)
        for kt in (0.3, 2.0):
            rho = evolve_density(rho0, kraus_operators(1.0, kt, 10))
            assert np.allclose(rho, rho0, atol=1e-14)

    def test_single_excitation_branching(self):
        # e^{-2 kappa t} = 0.25 leaves population (0.75, 0.25) on levels 0, 1
        t = np.log(2.0)
        rho = evolve_density(fock_density(1, 5), kraus_operators(1.0, t, 5))
        assert rho[0, 0].real == pytest.approx(0.75, abs=1e-13)
        assert rho[1, 1].real == pytest.approx(0.25, abs=1e-13)

    def test_trace_hermiticity_positivity(self):
        rng = np.random.default_rng(5)
        dim = 12
        for _ in range(5):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            rho0 = np.outer(psi, psi.conj())
            rho = evolve_density(rho0, kraus_operators(0.6, 0.8, dim))
            assert abs(np.trace(rho).real - 1.0) <= 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-10

    def test_two_mode_product_channel_matches_heisenberg_route(self):
        system = make_system(k1=0.5, k2=0.2)
        dim, t = 8, 0.9
        rho0 = coherent_pair_density(0.6, -0.4 + 0.3j, dim)
        ks1 = kraus_operators(0.5, t, dim)
        ks2 = kraus_operators(0.2, t, dim)
        rho_t = evolve_density(rho0, ks1, ks2)
        schrodinger = two_mode_moments(rho_t, system, 0.0, dim)
        heisenberg = two_mode_moments(rho0, system, t, dim)
        assert np.allclose(schrodinger.mean, heisenberg.mean, atol=1e-10)
        assert np.allclose(schrodinger.cov, heisenberg.cov, atol=1e-10)

    def test_two_mode_matches_kronecker_reference(self):
        rng = np.random.default_rng(11)
        rho0 = random_density(4 * 6, rng)
        ks1 = kraus_operators(0.7, 0.9, 4)
        ks2 = kraus_operators(0.3, 1.4, 6)
        for k1, k2 in ((ks1, ks2), (phased(ks1, rng), phased(ks2, rng))):
            got = evolve_density(rho0, k1, k2)
            want = kron_channel_reference(rho0, k1, k2)
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_two_mode_duality(self):
        rng = np.random.default_rng(12)
        dim = 6
        rho0 = random_density(dim * dim, rng)
        A, B = (rng.normal(size=(2, dim, dim))
                + 1j * rng.normal(size=(2, dim, dim)))
        ks1 = kraus_operators(0.4, 1.1, dim)
        ks2 = kraus_operators(0.9, 1.1, dim)
        schroedinger = np.trace(evolve_density(rho0, ks1, ks2)
                                @ np.kron(A, B))
        heisenberg = np.trace(rho0 @ np.kron(heisenberg_evolve(A, ks1),
                                             heisenberg_evolve(B, ks2)))
        assert abs(schroedinger - heisenberg) <= 1e-13

    def test_rejects_non_density(self):
        with pytest.raises(ValueError, match="Hermitian"):
            check_density(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError, match="trace"):
            check_density(2.0 * fock_density(0, 4))
        not_finite = fock_density(0, 4)
        not_finite[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            check_density(not_finite)
        # the channel trusts its input: a linear map of twice a density
        doubled = evolve_density(2.0 * fock_density(0, 4),
                                 kraus_operators(1.0, 1.0, 4))
        assert np.trace(doubled).real == pytest.approx(2.0, abs=1e-12)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            evolve_density(fock_density(0, 4), kraus_operators(1.0, 1.0, 6))


class TestHeisenbergMoment:
    def test_banded_map_matches_dense_sum(self):
        rng = np.random.default_rng(13)
        dim = 9
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for ks in (kraus_operators(0.6, 0.7, dim),
                   phased(kraus_operators(0.6, 0.7, dim), rng)):
            dense = sum(k.conj().T @ A @ k for k in dense_ops(ks))
            assert np.max(np.abs(heisenberg_evolve(A, ks) - dense)) <= 1e-14
        stacked = heisenberg_evolve(np.stack([A, A.T]), ks)
        assert np.array_equal(stacked[0], heisenberg_evolve(A, ks))

    def test_annihilation_decay_on_coherent_state(self):
        dim, kappa, t = 20, 0.5, 1.2
        system = make_system(k1=kappa, k2=kappa)
        ops = build_mode_operators(dim, system.mode1, system.constants)
        rho0 = coherent_pair_density(1.0, 0.0, dim)
        ks = kraus_operators(kappa, t, dim)
        val = np.trace(np.kron(heisenberg_evolve(ops.a, ks), np.eye(dim))
                       @ rho0)
        assert val.real == pytest.approx(np.exp(-kappa * t), abs=1e-9)
        assert val.imag == pytest.approx(0.0, abs=1e-9)

    def test_number_decay_on_single_excitation(self):
        dim, kappa, t = 12, 0.7, 0.9
        system = make_system(k1=kappa, k2=kappa)
        ops = build_mode_operators(dim, system.mode1, system.constants)
        rho0 = np.kron(fock_density(1, dim), fock_density(0, dim))
        ks = kraus_operators(kappa, t, dim)
        val = np.trace(np.kron(heisenberg_evolve(ops.number, ks),
                               np.eye(dim)) @ rho0)
        assert val.real == pytest.approx(np.exp(-2 * kappa * t), abs=1e-12)

    def test_identity_traces_to_one(self):
        dim = 10
        rho0 = coherent_pair_density(0.8, 0.5j, dim)
        ks1 = kraus_operators(0.4, 2.0, dim)
        ks2 = kraus_operators(0.9, 2.0, dim)
        ident = np.eye(dim, dtype=complex)
        val = np.trace(np.kron(heisenberg_evolve(ident, ks1),
                               heisenberg_evolve(ident, ks2)) @ rho0)
        assert val.real == pytest.approx(1.0, abs=1e-12)

    def test_cross_moment_factorizes_for_product_input(self):
        dim, t = 16, 0.8
        system = make_system(k1=0.5, k2=0.2)
        rho0 = coherent_pair_density(0.9, -0.6 + 0.4j, dim)
        ks1 = kraus_operators(0.5, t, dim)
        ks2 = kraus_operators(0.2, t, dim)
        ops1 = build_mode_operators(dim, system.mode1, system.constants)
        ops2 = build_mode_operators(dim, system.mode2, system.constants)
        ident = np.eye(dim, dtype=complex)
        x1, x2 = heisenberg_evolve(ops1.x, ks1), heisenberg_evolve(ops2.x, ks2)
        joint = np.trace(np.kron(x1, x2) @ rho0)
        m1 = np.trace(np.kron(x1, heisenberg_evolve(ident, ks2)) @ rho0)
        m2 = np.trace(np.kron(heisenberg_evolve(ident, ks1), x2) @ rho0)
        assert abs(joint - m1 * m2) < 1e-9

    def test_top_level_population_is_the_heisenberg_projector(self):
        # the closed form against tr[E^dag(|D-1><D-1|) rho] through the
        # kernel, bit for bit
        rng = np.random.default_rng(17)
        for dim in (2, 5, 16, 32):
            reduced = random_density(dim, rng)
            for kt in (0.0, 0.05, 0.7, 3.0):
                ks = kraus_operators(1.0, kt, dim)
                evolved = heisenberg_evolve(fock_density(dim - 1, dim), ks)
                expected = float(np.einsum("ij,ji->", evolved, reduced).real)
                assert fock.top_level_population(reduced, ks) == expected


class TestOracleMoments:
    def test_initial_moments_match_exact_coherent_values(self):
        system = make_system()
        a1, a2 = 1.1 + 0.4j, -0.8 + 0.2j
        m = two_mode_moments(coherent_pair_density(a1, a2, 28), system,
                             0.0, 28)
        exact = coherent_pair_moments(a1, a2, system)
        assert np.allclose(m.mean, exact.mean, atol=1e-9)
        assert np.allclose(m.cov, exact.cov, atol=1e-9)

    def test_evolution_matches_analytic_engine(self):
        system = make_system(m1=1.2, w2=0.8, k1=0.5, k2=0.25)
        a1, a2 = 1.0 + 0.5j, -0.7
        dim = 30
        rho0 = coherent_pair_density(a1, a2, dim)
        state0 = coherent_pair_moments(a1, a2, system)
        for t in (0.4, 1.5, 3.0):
            oracle = two_mode_moments(rho0, system, t, dim)
            closed = analytic.evolve_state(state0, system, t)
            assert np.max(np.abs(oracle.mean - closed.mean)) < 1e-8
            assert np.max(np.abs(oracle.cov - closed.cov)) < 1e-8

    @given(systems(),
           *[st.complex_numbers(max_magnitude=1.0, allow_nan=False)] * 2,
           st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
    def test_agrees_with_analytic_engine_on_random_systems(self, system, a1,
                                                           a2, times):
        dim = 16
        times = np.array(times)
        mean, cov = moment_trajectory(coherent_pair_density(a1, a2, dim),
                                      system, times, dim)
        closed = analytic.evolve_trajectory(
            coherent_pair_moments(a1, a2, system), system, times)
        assert np.max(np.abs(mean - closed[0])) <= 1e-8
        assert np.max(np.abs(cov - closed[1])) <= 1e-8

    def test_trajectory_equals_per_time_moments(self):
        system = make_system(m1=1.2, w2=0.8, k1=0.5, k2=0.25)
        dim = 12
        rho0 = random_density(dim * dim, np.random.default_rng(14))
        times = np.linspace(0.0, 2.5, 6)
        mean, cov = moment_trajectory(rho0, system, times, dim)
        states = [two_mode_moments(rho0, system, t, dim) for t in times]
        assert np.array_equal(mean, np.stack([s.mean for s in states]))
        assert np.array_equal(cov, np.stack([s.cov for s in states]))
        with pytest.raises(ValueError, match="non-negative"):
            moment_trajectory(rho0, system, np.array([0.0, -1.0]), dim)

    def test_cutoff_convergence(self):
        system = make_system(k1=0.3, k2=0.7)
        a1, a2 = 0.9, 0.4 + 0.6j
        results = []
        for dim in (24, 34):
            m = two_mode_moments(coherent_pair_density(a1, a2, dim), system,
                                 1.1, dim)
            results.append(np.concatenate([m.mean, m.cov.ravel()]))
        assert np.max(np.abs(results[0] - results[1])) < 1e-9


def test_fock_imports_nothing_from_analytic():
    """The oracle stays independent of the closed-form engine."""
    with open(fock.__file__) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(part == "analytic" for name in names
                       for part in name.split(".")), ast.dump(node)
