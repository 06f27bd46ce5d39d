import itertools
import math
import random

import numpy as np
import pytest

from dampsim import model, structures
from dampsim.analytic import asymptotic_state, evolve_state, evolve_trajectory
from dampsim.model import Lct, MomentState, vacuum_state
from dampsim.structures import (SearchConfig, asymptotic_cross_covariances,
                                asymptotic_products, center_of_mass_lct,
                                classical_family,
                                evaluate_structure,
                                search_classical_structure, transform_state,
                                trivial_mixing_distance)

from test_model import make_system


class TestCenterOfMassLct:
    def test_coefficients(self):
        lct = center_of_mass_lct()
        assert np.allclose(lct.M[0], [0.5, 0.5])  # alpha
        assert np.allclose(lct.M[1], [1.0, -1.0])  # beta
        assert np.allclose(lct.N[0], [1.0, 1.0])  # gamma
        assert np.allclose(lct.N[1], [0.5, -0.5])  # delta
        Lct(M=lct.M, N=lct.N)

    def test_alpha_delta_orthogonality(self):
        lct = center_of_mass_lct()
        assert np.array(lct.M[0]) @ np.array(lct.N[1]) == \
            pytest.approx(0.0, abs=1e-15)

    def test_position_block_invertible(self):
        assert np.linalg.det(center_of_mass_lct().M) == pytest.approx(-1.0)


class TestOwnLctsAreAccepted:
    def test_blocks_up_to_the_condition_bound_are_canonical(self):
        # an M the cond(M) test passes, even near its bound, yields an N
        # that meets M N^T = I within STRUCTURAL_TOL: numpy's inv(M.T) of
        # Lct(M), and the closed form of evaluate_structure at any masses
        rng = np.random.default_rng(26)
        top = math.log10(model.MAX_CONDITION)
        checked = worst = 0
        while checked < 2400:
            cond = 10.0 ** rng.uniform(4.0, top)
            u, v = (np.array([[math.cos(a), -math.sin(a)],
                              [math.sin(a), math.cos(a)]])
                    for a in rng.uniform(0.0, 2.0 * math.pi, size=2))
            signs = np.diag(rng.choice([-1.0, 1.0], size=2))
            m = 10.0 ** rng.uniform(-3.0, 3.0) * (u @ np.diag([1.0, 1 / cond])
                                                  @ signs @ v)
            if (np.linalg.cond(m) < 1e4
                    or model.condition_violation(m.tolist()) is not None):
                continue
            m1, w1, m2, w2 = 10.0 ** rng.uniform(-4.0, 4.0, size=4)
            system = make_system(m1=m1, w1=w1, m2=m2, w2=w2)
            for lct in (Lct(m), evaluate_structure(m, system).lct):
                residual = np.array(lct.M) @ np.array(lct.N).T - np.eye(2)
                worst = max(worst, np.max(np.abs(residual)))
                Lct(M=lct.M, N=lct.N)
            checked += 1
        assert worst <= model.STRUCTURAL_TOL

    def test_extreme_mass_structures_are_taken_back(self):
        # the search reports a canonical LCT far past the cond(M) bound of
        # an M alone (cond(M) ~ 1e175 at masses 1e-150 and 1e200), and the
        # package's own functions take it back
        past_bound = 0
        for m1, m2 in itertools.product((1e-150, 1.0, 1e150, 1e200),
                                        repeat=2):
            system = make_system(m1=m1, m2=m2)
            report, _ = search_classical_structure(system)
            lct = report.lct
            past_bound += model.condition_violation(lct.M) is not None
            out = transform_state(vacuum_state(system), lct)
            assert np.sqrt(out.cov[0, 0] * out.cov[1, 1]) == \
                pytest.approx(0.5, rel=1e-12)
            assert asymptotic_products(lct, system) == \
                pytest.approx((0.5, 0.5), rel=1e-12)
        assert past_bound == 12  # every pair of unequal masses


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
        with pytest.raises(ValueError, match="invalid LCT"):
            transform_state(vacuum_state(make_system()),
                            Lct(M=np.eye(2), N=2.0 * np.eye(2)))

    def test_rounding_asymmetry_of_the_product_is_not_rejected(self):
        # s cov s^T rounds asymmetrically beyond the 1e-12 symmetry check
        # on a few physical states with m omega in [1e-4, 1e4]; the
        # transform keeps the upper triangle and mirrors it
        rng = np.random.default_rng(0)
        asymmetric = 0
        for _ in range(200):
            m1, m2 = 10.0 ** rng.uniform(-4.0, 4.0, size=2)
            vac = vacuum_state(make_system(m1=m1, m2=m2)).cov
            scale = np.sqrt(np.diag(vac))
            r = rng.normal(size=4) * scale
            state = MomentState(mean=rng.normal(size=4) * scale,
                                cov=vac + np.outer(r, r))
            m = rng.normal(size=(2, 2))
            while np.linalg.cond(m) > 10.0:
                m = rng.normal(size=(2, 2))
            lct = Lct(m)
            s = structures.lct_matrix(lct)
            product = s @ state.cov @ s.T
            asymmetric += np.max(np.abs(product - product.T)) > 1e-12
            out = transform_state(state, lct)
            upper = np.triu_indices(4)
            assert np.array_equal(out.cov[upper], product[upper])
            assert np.array_equal(out.cov, out.cov.T)
        assert asymmetric > 0

    def test_trajectory_equals_per_row_transforms(self):
        system = make_system(m1=0.7, w1=1.3, k1=0.45, m2=1.9, w2=0.6, k2=0.17)
        cov = np.diag([0.98, 0.35, 0.46, 0.75])
        cov[0, 2] = cov[2, 0] = -0.35
        cov[1, 3] = cov[3, 1] = 0.27
        s0 = MomentState(mean=np.array([1.3, -0.5, -0.6, 1.2]), cov=cov)
        trajectory = evolve_trajectory(s0, system, np.linspace(0.0, 9.0, 31))
        lct = Lct([[0.7652840865482607, -0.7432149197268948],
                   [0.9500790643898325, 0.09654854416033645]])
        out = transform_state(trajectory, lct)
        assert out.mean.shape == (31, 4) and out.cov.shape == (31, 4, 4)
        for k, (mean, cov) in enumerate(zip(trajectory.mean,
                                            trajectory.cov)):
            row = transform_state(MomentState(mean=mean, cov=cov), lct)
            assert np.array_equal(out.mean[k], row.mean)
            assert np.array_equal(out.cov[k], row.cov)


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

    @pytest.mark.parametrize("bad", [
        (np.eye(2), 2.0 * np.eye(2)),        # M N^T = 2 I
        (np.ones((2, 2)), np.ones((2, 2))),  # singular M
    ])
    @pytest.mark.parametrize("quantity", [
        asymptotic_products, asymptotic_cross_covariances,
        pytest.param(lambda lct, system:
                     evaluate_structure(lct.M, system).residual,
                     id="classicality_residual")])
    def test_invalid_lct_rejected(self, quantity, bad):
        # as transform_state does: read as M alone, M = I, N = 2I has the
        # products (0.5, 0.5) and residual 0, and a singular M divides by
        # 0; the Lct itself rejects both
        with pytest.raises(ValueError, match="invalid LCT"):
            quantity(Lct(*bad), make_system())

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
            pa, pb = asymptotic_products(Lct(m), system)
            assert pa >= 0.5 - 1e-10
            assert pb >= 0.5 - 1e-10
            count += 1

    def test_closed_forms_match_transformed_asymptote(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = rng.uniform(-2.0, 2.0, size=(2, 2))
            if abs(np.linalg.det(m)) < 0.2:
                continue
            lct = Lct(m)
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
        report = evaluate_structure(center_of_mass_lct().M, make_system())
        assert report.residual < 1e-12

    def test_identity_structure_is_zero(self):
        ident = Lct(M=np.eye(2), N=np.eye(2))
        for system in (make_system(), make_system(m1=0.7, w2=2.2)):
            assert evaluate_structure(ident.M, system).residual < 1e-12

    def test_unequal_mass_center_of_mass_is_positive(self):
        system = make_system(m2=2.0)
        lct = center_of_mass_lct()
        pa, pb = asymptotic_products(lct, system)
        cxx, cpp = asymptotic_cross_covariances(lct, system)
        expected = ((pa - 0.5) ** 2 + (pb - 0.5) ** 2
                    + cxx ** 2 + cpp ** 2) / 0.25
        value = evaluate_structure(lct.M, system).residual
        assert value == pytest.approx(expected, rel=1e-12)
        assert value > 1e-2
        # rescaled rows (1/2, 1/(2 sqrt2)) and (1, -1/sqrt2): cosine 1/3
        assert evaluate_structure(lct.M, system).family_distance == \
            pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_scaling_leaves_zero_set_unchanged(self):
        system = make_system()
        for c in (0.5, 2.0):
            lct = Lct(c * np.array(center_of_mass_lct().M))
            assert evaluate_structure(lct.M, system).residual < 1e-12

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
        lct = Lct(np.array([[1.0, 1.0], [1.0, -2.0]]))
        assert trivial_mixing_distance(lct.M) > 0.1
        assert evaluate_structure(lct.M, system).residual < 1e-28
        assert evaluate_structure(lct.M, system).family_distance < 1e-15


def random_system(rng):
    return make_system(m1=rng.uniform(0.5, 3), w1=rng.uniform(0.5, 3),
                       m2=rng.uniform(0.5, 3), w2=rng.uniform(0.5, 3),
                       hbar=rng.uniform(0.2, 5.0))


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
            lct = Lct(m)
            expected = composed_residual(lct, system)
            value = evaluate_structure(lct.M, system).residual
            assert abs(value - expected) <= 1e-12 * (1.0 + abs(expected))
            count += 1

    def test_near_singular_penalty(self):
        # a well-conditioned block with det M' = 1e-10 reports its
        # closed-form residual, here exactly 0
        report = evaluate_structure(1e-5 * np.eye(2), make_system())
        assert report.residual == 0.0


SEARCH_SYSTEMS = pytest.mark.parametrize(
    "system", [make_system(m2=2.0), make_system(m1=1.3, w2=0.6)],
    ids=["unequal_mass", "detuned"])


class TestProjection:
    def test_family_member_is_a_fixed_point(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            theta = rng.uniform(-np.pi, np.pi)
            scales = tuple(rng.choice([-1, 1], size=2)
                           * rng.uniform(0.3, 3.0, size=2))
            member = np.array(classical_family(make_system(), theta, scales))
            image = np.array(structures._project_to_family(*member.ravel()))
            assert np.abs(image - member).max() <= \
                1e-15 * np.abs(member).max()

    @SEARCH_SYSTEMS
    @pytest.mark.parametrize("seed", [3, 41])
    def test_every_restart_lands_on_the_family(self, system, seed):
        _, trace = search_classical_structure(system, SearchConfig(seed=seed))
        assert len(trace) == 32
        for restart in trace:
            report = evaluate_structure(restart.rescaled_block, make_system())
            assert restart.residual == report.residual <= 1e-28
            assert report.family_distance <= 1e-15
            assert restart.iterations == 0

    def test_reflection_keeps_the_sign_of_the_determinant(self):
        (a, b), (c, e) = structures._project_to_family(0.3, 1.2, 1.1, -0.4)
        assert a * e - b * c < 0
        # w < 0: the second row is w (sin theta, cos theta), theta from
        # the first row u (cos theta, -sin theta) with u > 0
        theta = math.atan2(-b, a)
        assert c * math.sin(theta) + e * math.cos(theta) < 0

    def test_first_start_of_seed_zero_is_pinned(self):
        # random.Random(0).uniform(-2, 2) four times; |det| >= 0.1, so
        # this is restart 0's start, and its member has the same row norms
        want = [1.3776874061001925, 1.03181761176121,
                -0.31771367667662, -0.9643329988281466]
        rng = random.Random(0)
        assert [rng.uniform(-2.0, 2.0) for _ in range(4)] == want
        _, trace = search_classical_structure(make_system(), SearchConfig())
        rows = np.array(trace[0].rescaled_block)
        assert np.linalg.norm(rows, axis=1) == pytest.approx(
            [math.hypot(*want[:2]), math.hypot(*want[2:])], rel=1e-15)


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
        rows = np.array(report.lct.M) / s
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
        # every restart lands on the identity block
        monkeypatch.setattr(structures, "_project_to_family",
                            lambda *a: ((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(RuntimeError, match="trivial"):
            search_classical_structure(make_system(),
                                       SearchConfig(restarts=4, seed=1))

    @SEARCH_SYSTEMS
    def test_reports_the_most_mixing_nontrivial_restart(self, system):
        report, trace = search_classical_structure(system,
                                                   SearchConfig(seed=6))
        # largest mixing distance first, then the lowest index
        _, index = max((trivial_mixing_distance(r.rescaled_block), -r.index)
                       for r in trace if not r.trivial)
        s = np.array([np.sqrt(m.mass * m.omega) for m in system.modes])
        assert np.allclose(np.array(report.lct.M) / s,
                           trace[-index].rescaled_block, rtol=1e-15, atol=0)

    def test_report_fields_consistent(self):
        report, _ = search_classical_structure(make_system(),
                                               SearchConfig(seed=9))
        recomputed = evaluate_structure(report.lct.M, make_system())
        assert report.residual == pytest.approx(recomputed.residual)
        assert report.product_A == pytest.approx(recomputed.product_A)
