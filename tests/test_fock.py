import ast
import math
import tracemalloc

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


def dense_kraus_sum(x, ks, adjoint):
    """sum_n K_n x K_n^dag, or sum_n K_n^dag x K_n when adjoint, as dense
    matrix products of one time's Kraus operators."""
    if adjoint:
        return sum(k.conj().T @ x @ k for k in dense_ops(ks))
    return sum(k @ x @ k.conj().T for k in dense_ops(ks))


def per_time_moments(rho, system, t, dim):
    """Means and covariance at one time, each moment a trace of the
    Kronecker product of the two modes' Heisenberg images against rho."""
    ident = np.eye(dim, dtype=complex)
    images = []  # per mode: I, x, p, x^2, p^2, (xp + px)/2
    for mode in system.modes:
        ops = build_mode_operators(dim, mode, system.constants)
        obs = [ident, ops.x, ops.p, ops.x @ ops.x, ops.p @ ops.p,
               0.5 * (ops.x @ ops.p + ops.p @ ops.x)]
        ks = kraus_operators(mode.kappa, t, dim)
        images.append([heisenberg_evolve(a, ks) for a in obs])

    def expect(a1, a2):
        return np.trace(np.kron(a1, a2) @ rho).real

    (i1, x1, p1, xx1, pp1, xp1), (i2, x2, p2, xx2, pp2, xp2) = images
    mean = np.array([expect(x1, i2), expect(p1, i2),
                     expect(i1, x2), expect(i1, p2)])
    second = np.empty((4, 4))
    second[:2, :2] = [[expect(xx1, i2), expect(xp1, i2)],
                      [expect(xp1, i2), expect(pp1, i2)]]
    second[2:, 2:] = [[expect(i1, xx2), expect(i1, xp2)],
                      [expect(i1, xp2), expect(i1, pp2)]]
    second[:2, 2:] = [[expect(x1, x2), expect(x1, p2)],
                      [expect(p1, x2), expect(p1, p2)]]
    second[2:, :2] = second[:2, 2:].T
    return mean, second - np.outer(mean, mean)


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


    def test_time_batch_rows_are_the_one_time_sets(self):
        times = np.array([0.0, 0.3, 2.0, 40.0])
        batch = kraus_operators(0.7, times, 9)
        assert batch.bands.shape == (4, 9, 9)
        assert np.array_equal(batch.t, times)
        defects = completeness_defect(batch)
        residuals = bh_identity_residual(0.7, times, 9)
        reduced = random_density(9, np.random.default_rng(19))
        tails = fock.top_level_population(reduced, batch)
        for k, t in enumerate(times):
            ks = kraus_operators(0.7, t, 9)
            assert np.array_equal(batch.bands[k], ks.bands)
            assert defects[k] == completeness_defect(ks)
            assert residuals[k] == bh_identity_residual(0.7, t, 9)
            assert tails[k] == fock.top_level_population(reduced, ks)
        # kappa t overflowing in one row leaves the others alone
        mixed = kraus_operators(1e200, np.array([0.0, 1e200]), 4)
        assert np.array_equal(mixed.bands[0], kraus_operators(1e200, 0.0,
                                                              4).bands)
        assert np.array_equal(mixed.bands[1], kraus_operators(1e200, 1e200,
                                                              4).bands)

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_bad_time_anywhere_in_a_batch_is_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            kraus_operators(1.0, np.array([0.0, 1.0, bad, 2.0]), 4)
        with pytest.raises(ValueError, match="1-D"):
            kraus_operators(1.0, np.zeros((2, 2)), 4)


class TestBakerHausdorffIdentity:
    def test_zero_time(self):
        assert bh_identity_residual(1.3, 0.0, 8) == 0.0

    def test_generic_parameters(self):
        assert bh_identity_residual(0.7, 2.3, 15) <= 1e-13

    def test_overflowing_kappa_t_is_the_exact_limit(self):
        # kappa t = 1e400 overflows and 2 kappa t = 2e308 too; both sides
        # of the identity vanish there, so the residual is exactly 0
        times = np.array([0.0, 1e108, 1e200])
        assert np.array_equal(bh_identity_residual(1e200, times, 8),
                              [0.0, 0.0, 0.0])
        assert bh_identity_residual(1e200, 1e200, 8) == 0.0

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

    @given(st.integers(2, 8), st.floats(0.0, 3.0),
           st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    def test_kernel_matches_dense_sum_at_every_time(self, dim, kappa, times,
                                                    seed):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng)
        A = rng.normal(size=(3, dim, dim)) + 1j * rng.normal(size=(3, dim,
                                                                    dim))
        batch = kraus_operators(kappa, np.array(times), dim)
        rho_t, A_t = evolve_density(rho, batch), heisenberg_evolve(A, batch)
        assert rho_t.shape == (len(times), dim, dim)
        assert A_t.shape == (len(times), 3, dim, dim)
        for k, t in enumerate(times):
            ks = kraus_operators(kappa, t, dim)
            one_rho, one_A = evolve_density(rho, ks), heisenberg_evolve(A, ks)
            # a batch row is the one-time call, bit for bit
            assert np.array_equal(batch.bands[k], ks.bands)
            assert np.array_equal(rho_t[k], one_rho)
            assert np.array_equal(A_t[k], one_A)
            assert np.max(np.abs(one_rho - dense_kraus_sum(rho, ks, False))
                          ) <= 1e-13
            for a, image in zip(A, one_A):
                assert np.max(np.abs(image - dense_kraus_sum(a, ks, True))
                              ) <= 1e-13

    def test_two_mode_channel_takes_one_time(self):
        batch = kraus_operators(0.5, np.array([0.1, 0.2]), 3)
        with pytest.raises(ValueError, match="one time"):
            evolve_density(np.eye(9) / 9, batch, batch)

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

    def test_chunked_grid_matches_per_time_reference(self):
        system = make_system(m1=1.3, w1=0.7, w2=1.4, k1=0.6, k2=0.2,
                             hbar=0.8)
        dim = 12
        rho0 = random_density(dim * dim, np.random.default_rng(21))
        # two full chunks and a partial one
        times = np.linspace(0.0, 3.0, 2 * fock._chunk_size(dim) + 3)
        mean, cov = moment_trajectory(rho0, system, times, dim)
        for k, t in enumerate(times):
            want_mean, want_cov = per_time_moments(rho0, system, t, dim)
            assert np.max(np.abs(mean[k] - want_mean)) <= 1e-13
            assert np.max(np.abs(cov[k] - want_cov)) <= 1e-13

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_time_mid_grid_raises_before_any_work(self, monkeypatch,
                                                      bad):
        calls = []
        build = fock.kraus_operators
        monkeypatch.setattr(fock, "kraus_operators",
                            lambda *args: calls.append(1) or build(*args))
        dim = 6
        rho0 = coherent_pair_density(0.5, 0.2j, dim)
        times = np.linspace(0.0, 2.0, 4 * fock._chunk_size(dim))
        times[len(times) // 2] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            moment_trajectory(rho0, make_system(), times, dim)
        assert calls == []

    def test_working_set_does_not_grow_with_the_grid(self):
        system = make_system(k1=0.4, k2=0.9)
        dim = 16
        rho0 = random_density(dim * dim, np.random.default_rng(22))
        bound = 2 * fock._CHUNK_BYTES
        # a fraction of one (T, D, D) complex array of the long grid
        assert 4 * bound < 5000 * dim * dim * 16
        for n_times in (1, 5000):
            times = np.linspace(0.0, 4.0, n_times)
            tracemalloc.start()
            try:
                mean, cov = moment_trajectory(rho0, system, times, dim)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - mean.nbytes - cov.nbytes <= bound, n_times

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
