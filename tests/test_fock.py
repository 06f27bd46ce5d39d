import ast
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dampsim import analytic, fock
from dampsim.fock import (bh_identity_residual, build_mode_operators,
                          check_density, coherent_density,
                          completeness_defect, evolve_density,
                          kraus_operators, moment_trajectory,
                          two_mode_moments)
from dampsim.fock import _heisenberg_diagonal as heisenberg_diagonal
from dampsim.fock import _quadrature_diagonals as quadrature_diagonals
from dampsim.model import MomentState, PhysicalConstants, vacuum_variances

from test_model import make_system, systems


def coherent_pair_density(a1, a2, dim):
    return np.kron(coherent_density(a1, dim), coherent_density(a2, dim))


def coherent_ket(alpha, dim):
    """Truncated coherent amplitudes <n|alpha>, not renormalized."""
    n = np.arange(dim)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    return np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * alpha ** n


def non_gaussian_density(kind, a1, a2, dim, rng):
    """A two-mode density that no Gaussian describes: a product of number
    states, an entangled cat (|a1, a2> + e^{i phi} |-a1, -a2>), or a random
    correlated mixture; number states and mixtures stay on levels < 6."""
    if kind == "number":
        n1, n2 = rng.integers(0, 6, size=2)
        return np.kron(np.diag(np.eye(dim)[n1] + 0j),
                       np.diag(np.eye(dim)[n2] + 0j))
    if kind == "cat":
        # phi in [0, pi/2] keeps the two branches from cancelling
        psi = (np.kron(coherent_ket(a1, dim), coherent_ket(a2, dim))
               + np.exp(0.5j * np.pi * rng.random())
               * np.kron(coherent_ket(-a1, dim), coherent_ket(-a2, dim)))
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    s = int(rng.integers(2, 6))
    rho = np.zeros((dim,) * 4, dtype=complex)
    rho[:s, :s, :s, :s] = random_density(s * s, rng).reshape((s,) * 4)
    return rho.reshape(dim * dim, dim * dim)


def random_density(dim, rng):
    """A full-rank random density matrix (non-product when dim is a
    two-mode size)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def lowering(dim):
    """Annihilation operator on the number basis |0> ... |dim-1>."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def dense_quadratures(dim, mode, constants):
    """x = s_x (a + a^dag) and p = i s_p (a^dag - a) as dense matrices of
    the test-local ladder, sharing no code with the oracle's table."""
    a = lowering(dim)
    sx, sp = map(math.sqrt, vacuum_variances(mode, constants.hbar))
    return sx * (a + a.conj().T), 1j * sp * (a.conj().T - a)


def dense_ops(bands):
    """Each K_n as a dense (dim, dim) matrix, its band on the n-th
    superdiagonal."""
    return tuple(np.diag(band[:len(band) - n], n)
                 for n, band in enumerate(bands))


def literal_kraus_product(kappa, t, dim):
    """The Kraus family as the literal dense product
    sqrt(loss^n / n!) e^{-kt N} a^n."""
    a = lowering(dim)
    loss = -math.expm1(-2.0 * kappa * t)
    decay = np.diag(np.exp(-kappa * t * np.arange(dim))).astype(complex)
    return tuple(math.sqrt(loss ** n / math.factorial(n))
                 * (decay @ np.linalg.matrix_power(a, n))
                 for n in range(dim))


def band_weight_defect(bands):
    """The completeness defect summed as band weights: |K_n|^2 is the
    diagonal |w_n|^2 shifted down by n, accumulated n = 0, 1, ..."""
    dim = bands.shape[-1]
    weights = np.abs(bands) ** 2
    acc = np.zeros(weights.shape[:-2] + (dim,))
    for n in range(dim):
        acc[..., n:] += weights[..., n, :dim - n]
    return np.max(np.abs(1.0 - acc), axis=-1)


def exp_bh_residual(kappa, t, dim):
    """The BH identity residual from its own exp tables: entry (n, n+1) is
    e^{-ktn} sqrt(n+1) e^{-kt(n+1)} on the left, e^{-kt} e^{-2ktn}
    sqrt(n+1) on the right."""
    with np.errstate(over="ignore"):
        kt = np.minimum(kappa * np.asarray(t, dtype=float), 1e3)[..., None]
    n = np.arange(dim)
    decay = np.exp(-kt * n)
    root = np.sqrt(n[1:])
    lhs = decay[..., :-1] * root * decay[..., 1:]
    rhs = np.exp(-kt) * (np.exp(-2.0 * kt * n[:-1]) * root)
    return np.max(np.abs(lhs - rhs), axis=-1)


def phased(bands, rng):
    """The same channel with complex bands: K_n -> U_n K_n for random
    diagonal unitaries U_n, so a missing conjugate shows."""
    return np.exp(2j * np.pi * rng.random(bands.shape)) * bands


def kron_channel_reference(rho, ks1, ks2):
    """The product channel as the explicit double sum over Kronecker
    products, sum_mn (K1_m otimes K2_n) rho (K1_m otimes K2_n)^dag."""
    out = np.zeros_like(rho)
    for k1 in dense_ops(ks1):
        for k2 in dense_ops(ks2):
            k = np.kron(k1, k2)
            out += k @ rho @ k.conj().T
    return out


def heisenberg_evolve(A, bands):
    """The Heisenberg map A -> sum_n K_n^dag A K_n at one time, on one
    (dim, dim) observable or a stack of them, as shifted slices
    (K_n^dag A K_n)_ij = conj(w_n[i-n]) A_{i-n,j-n} w_n[j-n] accumulated
    n = 0, 1, ...: the products _heisenberg_diagonal forms, in its order."""
    A = np.asarray(A, dtype=complex)
    out = np.zeros_like(A)
    for n, band in enumerate(bands):
        m = len(band) - n
        w = band[:m]
        out[..., n:, n:] += (w.conj()[:, None] * w[None, :]) * A[..., :m, :m]
    return out


def top_level_gap(dim, mode, constants):
    """P x^2 P - (PxP)^2 and the same for p on a cutoff dim: only the top
    level differs, by v_x dim and v_p dim."""
    vx, vp = vacuum_variances(mode, constants.hbar)
    top = np.zeros((dim, dim))
    top[-1, -1] = dim
    return vx * top, vp * top


def dense_kraus_sum(x, ks, adjoint):
    """sum_n K_n x K_n^dag, or sum_n K_n^dag x K_n when adjoint, as dense
    matrix products of one time's Kraus operators."""
    if adjoint:
        return sum(k.conj().T @ x @ k for k in dense_ops(ks))
    return sum(k @ x @ k.conj().T for k in dense_ops(ks))


def per_time_moments(rho, system, t, dim):
    """Means and covariance at one time, each moment a trace of the
    Kronecker product of the two modes' Heisenberg images against rho; x^2
    and p^2 are the truncated products corrected at the top level."""
    ident = np.eye(dim, dtype=complex)
    images = []  # per mode: I, x, p, x^2, p^2, (xp + px)/2
    for mode in system.modes:
        ops = build_mode_operators(dim, mode, system.constants)
        gap_x, gap_p = top_level_gap(dim, mode, system.constants)
        obs = [ident, ops.x, ops.p, ops.x @ ops.x + gap_x,
               ops.p @ ops.p + gap_p, 0.5 * (ops.x @ ops.p + ops.p @ ops.x)]
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
    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match="Fock cutoff must be >= 2"):
            build_mode_operators(1, make_system().mode1, PhysicalConstants())

    def test_position_matrix_element(self):
        ops = build_mode_operators(3, make_system().mode1,
                                   PhysicalConstants())
        assert ops.x[0, 1] == pytest.approx(1 / np.sqrt(2))
        assert ops.x[1, 0] == pytest.approx(1 / np.sqrt(2))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_table_is_the_untruncated_products(self, dim):
        # every diagonal -2..2 of x, p, x^2, p^2 and (xp + px)/2 against
        # the dense products three levels up, cropped to the cutoff
        system = make_system(m1=0.3, w1=1.7, hbar=0.8)
        mode, constants = system.mode1, system.constants
        x, p = dense_quadratures(dim + 3, mode, constants)
        dense = np.stack([x, p, x @ x, p @ p,
                          0.5 * (x @ p + p @ x)])[:, :dim, :dim]
        ladders, table = quadrature_diagonals(dim, mode, constants)
        assert len(ladders) == 3 and table.shape == (3, 5)
        for k, (ladder, row) in enumerate(zip(ladders, table)):
            assert ladder.shape == (dim - k,)
            diagonal = row[:, None] * ladder
            for got, d in ((diagonal, k), (diagonal.conj(), -k)):
                want = np.diagonal(dense, d, 1, 2)
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), d
        # the dense x and p are table row 1 times ladder 1, and conjugates
        ops = build_mode_operators(dim, mode, constants)
        assert np.array_equal(ops.x, x[:dim, :dim])
        assert np.array_equal(ops.p, p[:dim, :dim])

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_cutoff_squares_differ_only_at_the_top_level(self, dim):
        # P x^2 P - (PxP)^2 = v_x D |D-1><D-1| and likewise for p, with
        # P x^2 P read off a larger cutoff; the symmetrized xp has no term
        system = make_system(m1=0.3, w1=1.7, hbar=0.8)
        mode, constants = system.mode1, system.constants
        small = build_mode_operators(dim, mode, constants)
        big = build_mode_operators(dim + 3, mode, constants)
        crop = (slice(None, dim),) * 2
        gap_x, gap_p = top_level_gap(dim, mode, constants)
        assert gap_x[-1, -1] > 0 and np.count_nonzero(gap_x) == 1
        for wide, cut, gap in ((big.x, small.x, gap_x),
                               (big.p, small.p, gap_p)):
            exact = (wide @ wide)[crop]
            assert np.max(np.abs(exact - cut @ cut - gap)) <= \
                1e-15 * np.max(np.abs(exact))
        exact = (big.x @ big.p + big.p @ big.x)[crop]
        truncated = small.x @ small.p + small.p @ small.x
        assert np.max(np.abs(exact - truncated)) <= \
            1e-15 * np.max(np.abs(exact))

    def test_canonical_commutator_below_cutoff(self):
        dim = 10
        system = make_system(m1=1.7, w1=0.6, hbar=1.4)
        ops = build_mode_operators(dim, system.mode1, system.constants)
        comm = ops.x @ ops.p - ops.p @ ops.x
        block = comm[:dim - 1, :dim - 1]
        assert np.allclose(block, 1.4j * np.eye(dim - 1), atol=1e-13)


class TestKrausOperators:
    def test_zero_time_is_identity_channel(self):
        # at kappa 1.7e308, -2 kappa overflows and -inf * 0 is NaN
        for kappa in (0.8, 1.7e308):
            ops = dense_ops(kraus_operators(kappa, 0.0, 6))
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
        assert np.all(np.isfinite(limit))
        for n, k in enumerate(dense_ops(limit)):
            assert np.array_equal(k, np.outer(np.eye(4)[0], np.eye(4)[n]))
        assert completeness_defect(limit) == 0.0
        # kappa t = 1e308 is a float, kappa t n is not: the same limit, and
        # no RuntimeWarning, which fails the suite
        assert np.array_equal(kraus_operators(1e200, 1e108, 4), limit)

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

    @pytest.mark.parametrize("dim", [2, 3, 8, 32, 90])
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 7.0, 1e200])
    def test_completeness_is_the_band_weight_sum(self, dim, kappa):
        times = np.array([0.0, 1e-9, 0.05, 0.3, 1.0, 2.5, 40.0, 1e3, 1e108,
                          1e200])
        batch = kraus_operators(kappa, times, dim)
        assert np.array_equal(completeness_defect(batch),
                              band_weight_defect(batch))
        assert np.all(completeness_defect(batch) <= 1e-13)

    def test_dropping_last_operator_breaks_completeness(self):
        broken = kraus_operators(1.0, 1.0, 4)
        broken[-1] = 0.0
        assert completeness_defect(broken) > 1e-3

    @pytest.mark.parametrize("dim", [2, 9, 32])
    @pytest.mark.parametrize("kappa, t", [(0.0, 1.0), (0.7, 0.2),
                                          (1.0, 1.0), (1.3, 4.0)])
    def test_bands_match_literal_product(self, kappa, t, dim):
        ks = kraus_operators(kappa, t, dim)
        assert ks.shape == (dim, dim)
        for got, want in zip(dense_ops(ks),
                             literal_kraus_product(kappa, t, dim)):
            assert np.max(np.abs(got - want)) <= 1e-14


    def test_time_batch_rows_are_the_one_time_sets(self):
        times = np.array([0.0, 0.3, 2.0, 40.0])
        batch = kraus_operators(0.7, times, 9)
        assert batch.shape == (4, 9, 9)
        defects = completeness_defect(batch)
        residuals = bh_identity_residual(0.7, times, 9)
        reduced = random_density(9, np.random.default_rng(19))
        tails = fock.top_level_population(reduced, batch)
        for k, t in enumerate(times):
            ks = kraus_operators(0.7, t, 9)
            assert np.array_equal(batch[k], ks)
            assert defects[k] == completeness_defect(ks)
            assert residuals[k] == bh_identity_residual(0.7, t, 9)
            assert tails[k] == fock.top_level_population(reduced, ks)
        # kappa t overflowing in one row leaves the others alone
        mixed = kraus_operators(1e200, np.array([0.0, 1e200]), 4)
        assert np.array_equal(mixed[0], kraus_operators(1e200, 0.0, 4))
        assert np.array_equal(mixed[1], kraus_operators(1e200, 1e200, 4))

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

    @pytest.mark.parametrize("kappa, t, match", [
        (-50.0, 1.0, "kappa"), (np.nan, 1.0, "kappa"),
        (np.inf, 1.0, "kappa"), (1.0, -0.5, "non-negative"),
        (1.0, np.nan, "non-negative"), (1.0, np.inf, "non-negative"),
        (1.0, np.array([0.0, np.nan]), "non-negative"),
        (1.0, np.zeros((2, 2)), "1-D"),
    ])
    def test_bad_inputs_rejected(self, kappa, t, match):
        # unchecked, kappa = -50 gives a residual of 1e267 and NaN a NaN
        with pytest.raises(ValueError, match=match):
            bh_identity_residual(kappa, t, 8)

    def test_overflowing_kappa_t_is_the_exact_limit(self):
        # kappa t = 1e400 overflows and 2 kappa t = 2e308 too; both sides
        # of the identity vanish there, so the residual is exactly 0
        times = np.array([0.0, 1e108, 1e200])
        assert np.array_equal(bh_identity_residual(1e200, times, 8),
                              [0.0, 0.0, 0.0])
        assert bh_identity_residual(1e200, 1e200, 8) == 0.0

    @pytest.mark.parametrize("dim", [2, 8, 15, 32])
    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.7, 7.0, 1e200])
    def test_residual_matches_exp_formula(self, kappa, dim):
        times = np.array([0.0, 1e-9, 0.05, 0.3, 1.0, 2.3, 40.0, 1e3, 1e108,
                          1e200])
        got = bh_identity_residual(kappa, times, dim)
        assert np.all(np.abs(got - exp_bh_residual(kappa, times, dim))
                      <= 1e-15)
        assert np.all(got <= 1e-13)

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError, match="cutoff"):
            bh_identity_residual(1.0, 0.5, 1)

    def test_raising_version_by_adjoint(self):
        dim, s = 12, 0.9
        a_dag = lowering(dim).conj().T
        decay = np.diag(np.exp(-s * np.arange(dim)))
        lhs = decay @ a_dag @ decay
        rhs = np.exp(-s) * a_dag @ np.diag(np.exp(-2 * s * np.arange(dim)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


class TestCoherentDensity:
    def test_zero_displacement_is_vacuum(self):
        assert np.allclose(coherent_density(0.0, 10),
                           np.diag(np.eye(10)[0] + 0j))

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
        rho0 = np.diag(np.eye(10)[0] + 0j)
        for kt in (0.3, 2.0):
            rho = evolve_density(rho0, kraus_operators(1.0, kt, 10))
            assert np.allclose(rho, rho0, atol=1e-14)

    def test_single_excitation_branching(self):
        # e^{-2 kappa t} = 0.25 leaves population (0.75, 0.25) on levels 0, 1
        t = np.log(2.0)
        rho = evolve_density(np.diag(np.eye(5)[1] + 0j),
                             kraus_operators(1.0, t, 5))
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
            check_density(2.0 * np.diag(np.eye(4)[0] + 0j))
        not_finite = np.diag(np.eye(4)[0] + 0j)
        not_finite[1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            check_density(not_finite)
        # the channel trusts its input: a linear map of twice a density
        doubled = evolve_density(2.0 * np.diag(np.eye(4)[0] + 0j),
                                 kraus_operators(1.0, 1.0, 4))
        assert np.trace(doubled).real == pytest.approx(2.0, abs=1e-12)

    def test_positivity_floor_is_the_eigenvalue_floor(self):
        # Hermitian, unit-trace densities whose smallest eigenvalue is just
        # above and just below the floor -1e-10; the Cholesky test of
        # rho + 1e-10 I decides as the smallest eigenvalue does
        rng = np.random.default_rng(23)
        dim = 6
        basis = np.linalg.qr(rng.normal(size=(dim, dim))
                             + 1j * rng.normal(size=(dim, dim)))[0]
        for lowest, accepted in ((-1e-10 + 1e-11, True),
                                 (-1e-10 - 1e-11, False)):
            spectrum = np.concatenate(([lowest], rng.random(dim - 1)))
            spectrum[1:] *= (1.0 - lowest) / spectrum[1:].sum()
            rho = (basis * spectrum) @ basis.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            assert abs(np.trace(rho).real - 1.0) <= 1e-14
            assert (np.min(np.linalg.eigvalsh(rho)) >= -1e-10) == accepted
            if accepted:
                check_density(rho)
            else:
                with pytest.raises(ValueError, match="positive semidefinite"):
                    check_density(rho)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            evolve_density(np.diag(np.eye(4)[0] + 0j),
                           kraus_operators(1.0, 1.0, 6))


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
        diagonals = {k: heisenberg_diagonal(np.diagonal(A, k, 1, 2), k, batch)
                     for k in range(1 - dim, dim)}
        for k, t in enumerate(times):
            ks = kraus_operators(kappa, t, dim)
            one_rho, one_A = evolve_density(rho, ks), heisenberg_evolve(A, ks)
            # a batch row is the one-time call, bit for bit
            assert np.array_equal(batch[k], ks)
            for d, rows in diagonals.items():
                assert rows.shape == (len(times), 3, dim - abs(d))
                assert np.array_equal(rows[k], np.diagonal(one_A, d, 1, 2))
            assert np.max(np.abs(one_rho - dense_kraus_sum(rho, ks, False))
                          ) <= 1e-13
            for a, image in zip(A, one_A):
                assert np.max(np.abs(image - dense_kraus_sum(a, ks, True))
                              ) <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3, 8, 17, 32])
    def test_diagonal_kernel_is_the_dense_diagonal(self, dim):
        rng = np.random.default_rng(dim)
        A = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim,
                                                                    dim))
        times = np.array([0.0, 0.05, 0.7, 3.0, 1e200])
        for batch in (kraus_operators(0.8, times, dim),
                      phased(kraus_operators(0.8, times, dim), rng)):
            for k in range(1 - dim, dim):
                x = np.diagonal(A, k, 1, 2)
                rows = heisenberg_diagonal(x, k, batch)
                for row, ks in zip(rows, batch):
                    want = np.diagonal(heisenberg_evolve(A, ks), k, 1, 2)
                    assert np.array_equal(row, want), k
                    assert np.array_equal(heisenberg_diagonal(x, k, ks), want)

    @pytest.mark.parametrize("dim", [2, 3, 8, 17, 32])
    def test_real_bands_map_conjugate_diagonals_to_conjugates(self, dim):
        # the oracle maps ladder diagonals 0, 1, 2 and takes conjugates for
        # -1, -2: for the real bands kraus_operators returns, bit for bit
        # the kernel's own image of diagonal -k, for the ladders and the
        # observables table[k] times them alike
        rng = np.random.default_rng(dim + 2)
        batch = kraus_operators(0.8, np.array([0.0, 0.05, 0.7, 3.0, 1e200]),
                                dim)
        ladders, table = quadrature_diagonals(dim, make_system().mode1,
                                              PhysicalConstants())
        for k in range(1, min(dim, 3)):
            size = dim - k
            noise = rng.normal(size=(2, size)) + 1j * rng.normal(size=(2,
                                                                       size))
            for x in (ladders[k], table[k][:, None] * ladders[k], noise):
                assert np.array_equal(heisenberg_diagonal(x.conj(), -k, batch),
                                      heisenberg_diagonal(x, k, batch).conj())

    @pytest.mark.parametrize("dim", [2, 5, 16])
    def test_channel_keeps_each_diagonal(self, dim):
        # band closure: an operator on diagonal k has its image, in either
        # picture, on diagonal k only, with exact zeros elsewhere
        rng = np.random.default_rng(dim + 1)
        ks = phased(kraus_operators(0.6, 0.9, dim), rng)
        for k in range(1 - dim, dim):
            size = dim - abs(k)
            X = np.diag(rng.normal(size=size) + 1j * rng.normal(size=size), k)
            off = np.diag(np.ones(size, dtype=bool), k) == 0
            for image in (heisenberg_evolve(X, ks), evolve_density(X, ks)):
                assert np.all(image[off] == 0), k
                assert np.any(np.diagonal(image, k) != 0), k

    def test_two_mode_channel_takes_one_time(self):
        batch = kraus_operators(0.5, np.array([0.1, 0.2]), 3)
        for call in (lambda: evolve_density(np.eye(9) / 9, batch, batch),
                     lambda: evolve_density(np.eye(3) / 3, batch)):
            with pytest.raises(ValueError, match="one time"):
                call()

    def test_annihilation_decay_on_coherent_state(self):
        dim, kappa, t = 20, 0.5, 1.2
        rho0 = coherent_pair_density(1.0, 0.0, dim)
        ks = kraus_operators(kappa, t, dim)
        val = np.trace(np.kron(heisenberg_evolve(lowering(dim), ks),
                               np.eye(dim)) @ rho0)
        assert val.real == pytest.approx(np.exp(-kappa * t), abs=1e-9)
        assert val.imag == pytest.approx(0.0, abs=1e-9)

    def test_number_decay_on_single_excitation(self):
        dim, kappa, t = 12, 0.7, 0.9
        number = np.diag(np.arange(dim)).astype(complex)
        rho0 = np.kron(np.diag(np.eye(dim)[1] + 0j),
                       np.diag(np.eye(dim)[0] + 0j))
        ks = kraus_operators(kappa, t, dim)
        val = np.trace(np.kron(heisenberg_evolve(number, ks),
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
                top = np.diag(np.eye(dim)[dim - 1] + 0j)
                evolved = heisenberg_evolve(top, ks)
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
           st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3),
           st.sampled_from(["coherent", "number", "cat", "mixture"]),
           st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_analytic_engine_on_random_systems(self, system, a1,
                                                           a2, times, kind,
                                                           seed):
        # damping evolves first and second moments in closed form for any
        # state, so non-Gaussian states start from their t = 0 moments,
        # taken as Kronecker traces that share no code with the chunks
        dim = 16
        times = np.array(times)
        if kind == "coherent":
            rho0 = coherent_pair_density(a1, a2, dim)
            state0 = coherent_pair_moments(a1, a2, system)
        else:
            rho0 = non_gaussian_density(kind, a1, a2, dim,
                                        np.random.default_rng(seed))
            state0 = MomentState(*per_time_moments(rho0, system, 0.0, dim))
        oracle = moment_trajectory(rho0, system, times, dim)
        mean, cov = oracle.mean, oracle.cov
        closed = analytic.evolve_trajectory(state0, system, times)
        assert np.max(np.abs(mean - closed.mean)) <= 1e-8
        assert np.max(np.abs(cov - closed.cov)) <= 1e-8

    @given(systems(), st.integers(2, 8),
           st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3),
           st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_analytic_engine_on_every_level(self, system, dim,
                                                        times, seed):
        # a full-rank density fills every level below the cutoff, the top
        # one included, where (PxP)^2 is not P x^2 P
        times = np.array(times)
        rho0 = random_density(dim * dim, np.random.default_rng(seed))
        state0 = MomentState(*per_time_moments(rho0, system, 0.0, dim))
        oracle = moment_trajectory(rho0, system, times, dim)
        closed = analytic.evolve_trajectory(state0, system, times)
        for got, want in ((oracle.mean, closed.mean),
                          (oracle.cov, closed.cov)):
            assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))

    def test_trajectory_equals_per_time_moments(self):
        system = make_system(m1=1.2, w2=0.8, k1=0.5, k2=0.25)
        dim = 12
        rho0 = random_density(dim * dim, np.random.default_rng(14))
        times = np.linspace(0.0, 2.5, 6)
        oracle = moment_trajectory(rho0, system, times, dim)
        mean, cov = oracle.mean, oracle.cov
        states = [two_mode_moments(rho0, system, t, dim) for t in times]
        assert np.array_equal(mean, np.stack([s.mean for s in states]))
        assert np.array_equal(cov, np.stack([s.cov for s in states]))
        with pytest.raises(ValueError, match="non-negative"):
            moment_trajectory(rho0, system, np.array([0.0, -1.0]), dim)

    def test_chunked_grid_matches_per_time_reference(self, monkeypatch):
        system = make_system(m1=1.3, w1=0.7, w2=1.4, k1=0.6, k2=0.2,
                             hbar=0.8)
        dim = 12
        rho0 = random_density(dim * dim, np.random.default_rng(21))
        # two full chunks and a partial one
        times = np.linspace(0.0, 3.0, 2 * fock._chunk_size(dim) + 3)
        oracle = moment_trajectory(rho0, system, times, dim)
        reduced = fock.reduced_densities(rho0, dim)
        for k, t in enumerate(times):
            want_mean, want_cov = per_time_moments(rho0, system, t, dim)
            assert np.max(np.abs(oracle.mean[k] - want_mean)) <= 1e-13
            assert np.max(np.abs(oracle.cov[k] - want_cov)) <= 1e-13
            # the margins are those of the one-time Kraus sets, bit for bit
            kraus = [kraus_operators(mode.kappa, t, dim)
                     for mode in system.modes]
            assert oracle.completeness[k] == max(map(completeness_defect,
                                                     kraus))
            assert oracle.bh_residual[k] == max(
                bh_identity_residual(mode.kappa, t, dim)
                for mode in system.modes)
            assert oracle.fock_tail[k] == max(
                fock.top_level_population(r, ks)
                for r, ks in zip(reduced, kraus))
        # and no bit of the moments or the margins depends on the chunking
        for size in (1, 3, 16):
            monkeypatch.setattr(fock, "_chunk_size",
                                lambda dim, size=size: size)
            rechunked = moment_trajectory(rho0, system, times, dim)
            for name in fock.OracleTrajectory.__slots__:
                assert np.array_equal(getattr(rechunked, name),
                                      getattr(oracle, name)), (name, size)

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
        with pytest.raises(ValueError, match="1-D"):
            moment_trajectory(rho0, make_system(), 1.0, dim)
        assert calls == []

    def test_working_set_does_not_grow_with_the_grid(self):
        system = make_system(k1=0.4, k2=0.9)
        # |3> otimes |5> at D = 64: the 256 MiB density stays zero pages but
        # one; there the working set meets the budget itself
        number = np.zeros((64 * 64, 64 * 64), dtype=complex)
        number[3 * 64 + 5, 3 * 64 + 5] = 1.0
        for dim, rho0, long, bound in (
                (16, random_density(16 * 16, np.random.default_rng(22)), 5000,
                 2 * fock._CHUNK_BYTES),
                (64, number, 200, fock._CHUNK_BYTES)):
            # a fraction of one (T, D, D) complex array of the long grid
            assert 4 * bound < long * dim * dim * 16
            for n_times in (1, long):
                times = np.linspace(0.0, 4.0, n_times)
                tracemalloc.start()
                try:
                    oracle = moment_trajectory(rho0, system, times, dim)
                    mean, cov = oracle.mean, oracle.cov
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak - mean.nbytes - cov.nbytes <= bound, (dim,
                                                                  n_times)

    @pytest.mark.parametrize("dim", [2, 3, 8, 32])
    def test_product_pair_matches_its_kronecker_density(self, dim):
        # the kron's partial traces carry a factor tr rho2 that is 1 only
        # to rounding, so the moments may move in the last bits: a
        # covariance by those of its second moment cov + mean mean^T,
        # which cancels against mean mean^T. The margins that read no
        # density are the same bits
        rng = np.random.default_rng(dim)
        edge = math.sqrt(dim / 4.0) * (1 - 2 ** -50)
        displacements = [0j, edge * np.exp(2j * np.pi * rng.random()),
                         rng.random() * edge * np.exp(2j * np.pi
                                                      * rng.random())]
        times = np.linspace(0.0, 4.0, fock._chunk_size(dim) + 3)
        for a1, a2 in itertools.product(displacements, repeat=2):
            m1, w1, m2, w2 = rng.uniform(0.5, 2.0, size=4)
            k1, k2 = rng.uniform(0.0, 2.0, size=2)
            system = make_system(m1, w1, k1, m2, w2, k2,
                                 hbar=rng.uniform(0.3, 7.0))
            pair = coherent_density(a1, dim), coherent_density(a2, dim)
            got = moment_trajectory(pair, system, times, dim)
            want = moment_trajectory(np.kron(*pair), system, times, dim)
            second = want.cov + want.mean[:, :, None] * want.mean[:, None]
            for g, w, v in ((got.mean, want.mean, want.mean),
                            (got.cov, want.cov, second)):
                assert np.all(np.abs(g - w) <= 1e-14 * (1 + np.abs(v))), \
                    (a1, a2)
            assert np.array_equal(got.completeness, want.completeness)
            assert np.array_equal(got.bh_residual, want.bh_residual)
            assert np.all(np.abs(got.fock_tail - want.fock_tail)
                          <= 1e-15 * want.fock_tail), (a1, a2)
            single = two_mode_moments(pair, system, times[-1], dim)
            assert np.array_equal(single.mean, got.mean[-1])
            assert np.array_equal(single.cov, got.cov[-1])

    def test_pair_of_the_wrong_shape_is_rejected(self):
        dim, system, times = 4, make_system(), np.array([0.0, 1.0])
        ground = np.diag(np.eye(dim)[0] + 0j)
        for pair in ((ground, np.diag(np.eye(dim + 1)[0] + 0j)),
                     (ground[:, :-1], ground[:, :-1]),
                     (ground, ground, ground), (ground,),
                     (np.diag(np.eye(dim + 1)[0] + 0j),) * 2):
            with pytest.raises(ValueError):
                moment_trajectory(pair, system, times, dim)
            with pytest.raises(ValueError):
                two_mode_moments(pair, system, 1.0, dim)

    def test_pair_working_set_is_no_two_mode_density(self):
        # the kron of two D = 64 factors would take 256 MiB
        dim = 64
        pair = coherent_density(1.5 - 2j, dim), coherent_density(3.0, dim)
        times = np.linspace(0.0, 4.0, 4)
        tracemalloc.start()
        try:
            moment_trajectory(pair, make_system(k1=0.4, k2=0.9), times, dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

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
