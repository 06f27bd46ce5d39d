import math

import numpy as np
import pytest

from dampsim import structures
from dampsim.analytic import asymptotic_state, evolve_state
from dampsim.model import (Lct, MomentState, lct_from_position_block,
                           validate_lct, vacuum_state)
from dampsim.structures import (SearchConfig, asymptotic_cross_covariances,
                                asymptotic_products, center_of_mass_lct,
                                classical_family, classicality_residual,
                                evaluate_structure,
                                search_classical_structure, transform_state,
                                trivial_mixing_distance)

from test_model import make_system


class TestCenterOfMassLct:
    def test_coefficients(self):
        lct = center_of_mass_lct()
        assert np.allclose(lct.alpha, [0.5, 0.5])
        assert np.allclose(lct.beta, [1.0, -1.0])
        assert np.allclose(lct.gamma, [1.0, 1.0])
        assert np.allclose(lct.delta, [0.5, -0.5])
        assert validate_lct(lct) == []

    def test_alpha_delta_orthogonality(self):
        lct = center_of_mass_lct()
        assert lct.alpha @ lct.delta == pytest.approx(0.0, abs=1e-15)

    def test_position_block_invertible(self):
        assert np.linalg.det(center_of_mass_lct().M) == pytest.approx(-1.0)


class TestTransformState:
    def test_identity_lct_is_noop(self):
        system = make_system(m2=2.0)
        state = vacuum_state(system)
        out = transform_state(state, Lct(M=np.eye(2), N=np.eye(2)))
        assert np.allclose(out.mean, state.mean)
        assert np.allclose(out.cov, state.cov)

    def test_center_of_mass_on_resonant_vacuum(self):
        out = transform_state(vacuum_state(make_system()),
                              center_of_mass_lct())
        assert out.cov[0, 0] == pytest.approx(0.25)   # (Delta X_A)^2
        assert out.cov[1, 1] == pytest.approx(1.0)    # (Delta P_A)^2
        assert np.sqrt(out.cov[0, 0] * out.cov[1, 1]) == pytest.approx(0.5)

    def test_unequal_mass_cross_covariance(self):
        out = transform_state(vacuum_state(make_system(m2=2.0)),
                              center_of_mass_lct())
        assert out.cov[0, 2] == pytest.approx(0.125)

    def test_invalid_lct_rejected(self):
        bad = Lct(M=np.eye(2), N=2.0 * np.eye(2))
        with pytest.raises(ValueError, match="invalid LCT"):
            transform_state(vacuum_state(make_system()), bad)


class TestAsymptoticQuantities:
    def test_resonant_equal_mass_equalities(self):
        system = make_system()
        assert asymptotic_products(center_of_mass_lct(), system) == \
            pytest.approx((0.5, 0.5), abs=1e-15)
        assert asymptotic_cross_covariances(center_of_mass_lct(), system) == \
            pytest.approx((0.0, 0.0), abs=1e-15)

    def test_unequal_masses(self):
        system = make_system(m2=2.0)
        pa, pb = asymptotic_products(center_of_mass_lct(), system)
        assert pa == pytest.approx(3.0 / (4.0 * np.sqrt(2.0)), rel=1e-12)
        assert pa > 0.5
        cxx, cpp = asymptotic_cross_covariances(center_of_mass_lct(), system)
        assert cxx == pytest.approx(0.125)
        assert cpp == pytest.approx(-0.25)

    def test_identity_lct_reduces_to_per_mode_products(self):
        for system in (make_system(), make_system(m1=2.3, w2=0.4)):
            ident = Lct(M=np.eye(2), N=np.eye(2))
            assert asymptotic_products(ident, system) == \
                pytest.approx((0.5, 0.5), abs=1e-15)
            assert asymptotic_cross_covariances(ident, system) == \
                pytest.approx((0.0, 0.0), abs=1e-15)

    def test_undamped_mode_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            asymptotic_products(center_of_mass_lct(), make_system(k1=0.0))
        with pytest.raises(ValueError, match="kappa"):
            asymptotic_cross_covariances(center_of_mass_lct(),
                                         make_system(k2=0.0))

    def test_inequality_over_random_lcts(self):
        rng = np.random.default_rng(19)
        count = 0
        while count < 300:
            m = rng.uniform(-3.0, 3.0, size=(2, 2))
            if abs(np.linalg.det(m)) < 0.1:
                continue
            system = make_system(m1=rng.uniform(0.5, 3), w1=rng.uniform(0.5, 3),
                                 m2=rng.uniform(0.5, 3), w2=rng.uniform(0.5, 3),
                                 k1=rng.uniform(0.1, 2), k2=rng.uniform(0.1, 2))
            pa, pb = asymptotic_products(lct_from_position_block(m), system)
            assert pa >= 0.5 - 1e-10
            assert pb >= 0.5 - 1e-10
            count += 1

    def test_closed_forms_match_transformed_asymptote(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = rng.uniform(-2.0, 2.0, size=(2, 2))
            if abs(np.linalg.det(m)) < 0.2:
                continue
            lct = lct_from_position_block(m)
            system = make_system(m1=rng.uniform(0.5, 3), w2=rng.uniform(0.5, 3),
                                 k1=0.4, k2=0.9)
            out = transform_state(asymptotic_state(system), lct)
            pa, pb = asymptotic_products(lct, system)
            assert np.sqrt(out.cov[0, 0] * out.cov[1, 1]) == \
                pytest.approx(pa, abs=1e-12)
            assert np.sqrt(out.cov[2, 2] * out.cov[3, 3]) == \
                pytest.approx(pb, abs=1e-12)
            cxx, cpp = asymptotic_cross_covariances(lct, system)
            assert out.cov[0, 2] == pytest.approx(cxx, abs=1e-12)
            assert out.cov[1, 3] == pytest.approx(cpp, abs=1e-12)

    def test_dynamical_convergence_of_cross_covariances(self):
        system = make_system(m1=1.5, k1=0.3, k2=0.7)
        lct = center_of_mass_lct()
        cov = vacuum_state(system).cov.copy()
        cov[0, 2] = cov[2, 0] = 0.2
        cov[0, 0] += 0.4
        cov[2, 2] += 0.4
        s0 = MomentState(mean=np.array([1.0, 0.0, -0.5, 0.3]), cov=cov)
        out = transform_state(evolve_state(s0, system, 20.0 / 0.3), lct)
        cxx, cpp = asymptotic_cross_covariances(lct, system)
        assert abs(out.cov[0, 2] - cxx) < 1e-8
        assert abs(out.cov[1, 3] - cpp) < 1e-8


class TestClassicalityResidual:
    def test_resonant_center_of_mass_is_zero(self):
        assert classicality_residual(center_of_mass_lct(),
                                     make_system()) < 1e-12

    def test_identity_structure_is_zero(self):
        ident = Lct(M=np.eye(2), N=np.eye(2))
        for system in (make_system(), make_system(m1=0.7, w2=2.2)):
            assert classicality_residual(ident, system) < 1e-12

    def test_unequal_mass_center_of_mass_is_positive(self):
        system = make_system(m2=2.0)
        lct = center_of_mass_lct()
        pa, pb = asymptotic_products(lct, system)
        cxx, cpp = asymptotic_cross_covariances(lct, system)
        expected = ((pa - 0.5) ** 2 + (pb - 0.5) ** 2
                    + cxx ** 2 + cpp ** 2) / 0.25
        value = classicality_residual(lct, system)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value > 1e-2
        # rescaled rows (1/2, 1/(2 sqrt2)) and (1, -1/sqrt2): cosine 1/3
        assert evaluate_structure(lct.M, system).family_distance == \
            pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_scaling_leaves_zero_set_unchanged(self):
        system = make_system()
        for c in (0.5, 2.0):
            lct = lct_from_position_block(c * center_of_mass_lct().M)
            assert classicality_residual(lct, system) < 1e-12

    def test_nontrivial_zero_exists_even_for_unequal_masses(self):
        # The residual vanishes on the whole family classical_family, for
        # any masses; the center-of-mass block alone loses it when
        # m_1 omega_1 != m_2 omega_2. M = [[1, 1], [1, -2]] at masses
        # (1, 2) has rescaled rows (1, 1/sqrt2) and (1, -sqrt2): orthogonal,
        # with lengths sqrt(3/2) and sqrt(3).
        system = make_system(m2=2.0)
        m = classical_family(system, math.atan2(-1.0, math.sqrt(2.0)),
                             (math.sqrt(1.5), -math.sqrt(3.0)))
        assert np.allclose(m, [[1.0, 1.0], [1.0, -2.0]], rtol=0, atol=1e-15)
        lct = lct_from_position_block(np.array([[1.0, 1.0], [1.0, -2.0]]))
        assert trivial_mixing_distance(lct.M) > 0.1
        assert classicality_residual(lct, system) < 1e-28
        assert evaluate_structure(lct.M, system).family_distance < 1e-15


def random_system(rng):
    return make_system(m1=rng.uniform(0.5, 3), w1=rng.uniform(0.5, 3),
                       m2=rng.uniform(0.5, 3), w2=rng.uniform(0.5, 3),
                       hbar=rng.uniform(0.2, 5.0))


def seeded_starts(seed, restarts=32):
    """The starting points search_classical_structure draws for a seed."""
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        start = rng.uniform(-2.0, 2.0, size=4)
        while abs(start[0] * start[3] - start[1] * start[2]) < 0.1:
            start = rng.uniform(-2.0, 2.0, size=4)
        yield start


def composed_residual(lct, system):
    """The classicality residual composed from the transformed asymptotic
    covariance: products, cross covariances, then the normalized sum."""
    cov = transform_state(asymptotic_state(system), lct).cov
    half = system.constants.hbar / 2.0
    prod_a = np.sqrt(cov[0, 0] * cov[1, 1])
    prod_b = np.sqrt(cov[2, 2] * cov[3, 3])
    return float(((prod_a - half) ** 2 + (prod_b - half) ** 2
                  + cov[0, 2] ** 2 + cov[1, 3] ** 2) / half ** 2)


class TestClosedFormObjective:
    def test_matches_classicality_residual(self):
        # blocks with |det| >= 0.1 and entries within 3 have cond <= 360;
        # the two computations differ by about cond * eps
        rng = np.random.default_rng(61)
        count = 0
        while count < 400:
            m = rng.uniform(-3.0, 3.0, size=(2, 2))
            if abs(np.linalg.det(m)) < 0.1:
                continue
            system = random_system(rng)
            lct = lct_from_position_block(m)
            expected = composed_residual(lct, system)
            value = classicality_residual(lct, system)
            assert abs(value - expected) <= 1e-12 * (1.0 + abs(expected))
            count += 1

    def test_near_singular_penalty(self):
        assert structures._objective([1.0, 1.0, 1.0, 1.0]) > 1e6
        # the penalty is the search's alone: a well-conditioned block with
        # det M' = 1e-10 reports its closed-form residual, here exactly 0
        assert structures._objective([1e-5, 0.0, 0.0, 1e-5]) > 1e6
        report = evaluate_structure(1e-5 * np.eye(2), make_system())
        assert report.residual == 0.0


class TestNelderMead:
    @pytest.mark.parametrize("system", [make_system(m2=2.0),
                                        make_system(m1=1.3, w2=0.6)],
                             ids=["unequal_mass", "detuned"])
    @pytest.mark.parametrize("seed", [3, 41])
    def test_matches_scipy_bit_for_bit(self, system, seed):
        optimize = pytest.importorskip("scipy.optimize")
        _, trace = search_classical_structure(system, SearchConfig(seed=seed))
        for start, restart in zip(seeded_starts(seed), trace, strict=True):
            ref = optimize.minimize(structures._objective, start,
                                    method="Nelder-Mead",
                                    options={"maxiter": structures.MAX_ITER,
                                             "fatol": structures.TOL,
                                             "xatol": structures.XATOL})
            x, fun, nit = structures._nelder_mead(structures._objective,
                                                  start.tolist())
            assert x == ref.x.tolist()
            assert fun == float(ref.fun)
            assert nit == ref.nit
            # the search runs this very minimization, whatever the system
            assert restart.rescaled_block.ravel().tolist() == x
            assert (restart.residual, restart.iterations) == (fun, nit)

    def test_minimizes_a_quadratic(self):
        x, fun, nit = structures._nelder_mead(
            lambda v: (v[0] - 1.0) ** 2 + 3.0 * (v[1] + 2.0) ** 2, [0.0, 0.0])
        assert x == pytest.approx([1.0, -2.0], abs=1e-8)
        assert fun <= 1e-12
        assert 1 < nit < structures.MAX_ITER


class TestClassicalFamily:
    def test_members_are_classical(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            system = random_system(rng)
            theta = rng.uniform(-np.pi, np.pi)
            scales = tuple(rng.choice([-1, 1], size=2)
                           * rng.uniform(0.3, 3.0, size=2))
            m = classical_family(system, theta, scales)
            report = evaluate_structure(m, system)
            assert report.residual <= 1e-28
            assert report.family_distance <= 1e-14

    @pytest.mark.parametrize("system", [make_system(m2=2.0),
                                        make_system(w2=2.0)],
                             ids=["unequal_mass", "detuned"])
    def test_search_result_lies_in_family(self, system):
        report, _ = search_classical_structure(system, SearchConfig(seed=6))
        s = np.array([np.sqrt(m.mass * m.omega) for m in system.modes])
        rows = report.lct.M / s
        norms = np.linalg.norm(rows, axis=1)
        # the residual is at least (rows[0] . rows[1])^2
        cosine = rows[0] @ rows[1] / (norms[0] * norms[1])
        assert abs(cosine) <= np.sqrt(report.residual) / norms.prod() + 1e-15
        # the reported family distance is the same cosine, from one dot
        # product with the residual
        assert report.family_distance == pytest.approx(abs(cosine), abs=1e-15)
        assert report.family_distance <= (np.sqrt(report.residual)
                                          / norms.prod() * (1 + 1e-12))
        # the member with the same first row and row lengths is M itself
        theta = math.atan2(-rows[0, 1], rows[0, 0])
        sign = math.copysign(1.0, rows[1] @ [math.sin(theta),
                                             math.cos(theta)])
        member = classical_family(system, theta, (norms[0], sign * norms[1]))
        assert np.allclose(member, report.lct.M, rtol=0,
                           atol=2 * abs(cosine) * norms.max() * s.max()
                           + 1e-14)


class TestTrivialMixingDistance:
    def test_scaled_permutations_are_trivial(self):
        assert trivial_mixing_distance(np.diag([2.0, -0.3])) == 0.0
        assert trivial_mixing_distance(np.array([[0.0, 1.5],
                                                 [0.7, 0.0]])) == 0.0

    def test_mixing_blocks_are_far(self):
        assert trivial_mixing_distance(center_of_mass_lct().M) > 0.1


class TestSearch:
    def test_resonant_equal_mass_finds_classical_structure(self):
        report, trace = search_classical_structure(
            make_system(), SearchConfig(seed=5))
        assert report.residual <= 1e-10
        assert trivial_mixing_distance(report.lct.M) >= 1e-3
        assert len(trace) == 32

    def test_deterministic_for_fixed_seed(self):
        system = make_system(m1=1.3, k1=0.4, k2=0.8)
        r1, t1 = search_classical_structure(system, SearchConfig(seed=77))
        r2, t2 = search_classical_structure(system, SearchConfig(seed=77))
        assert np.array_equal(r1.lct.M, r2.lct.M)
        assert r1.residual == r2.residual
        assert [r.residual for r in t1] == [r.residual for r in t2]

    def test_undamped_system_rejected(self):
        with pytest.raises(ValueError, match="kappa"):
            search_classical_structure(make_system(k1=0.0))

    def test_all_trivial_restarts_raise(self, monkeypatch):
        # every restart "converges" to the identity block in one iteration
        monkeypatch.setattr(structures, "_nelder_mead",
                            lambda *a, **k: ([1.0, 0.0, 0.0, 1.0], 0.0, 1))
        with pytest.raises(RuntimeError, match="trivial"):
            search_classical_structure(make_system(),
                                       SearchConfig(restarts=4, seed=1))

    def test_report_fields_consistent(self):
        report, _ = search_classical_structure(make_system(),
                                               SearchConfig(seed=9))
        recomputed = evaluate_structure(report.lct.M, make_system())
        assert report.residual == pytest.approx(recomputed.residual)
        assert report.product_A == pytest.approx(recomputed.product_A)
