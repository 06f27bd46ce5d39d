import numpy as np
import pytest
import scipy.optimize

from dampsim.analytic import asymptotic_state, evolve_state
from dampsim.model import (Lct, MomentState, lct_from_position_block,
                           validate_lct, vacuum_state)
from dampsim.structures import (SearchConfig, asymptotic_cross_covariances,
                                asymptotic_products, center_of_mass_lct,
                                classicality_residual, evaluate_structure,
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

    def test_scaling_leaves_zero_set_unchanged(self):
        system = make_system()
        for c in (0.5, 2.0):
            lct = lct_from_position_block(c * center_of_mass_lct().M)
            assert classicality_residual(lct, system) < 1e-12

    def test_nontrivial_zero_exists_even_for_unequal_masses(self):
        # The asymptote is a pure product Gaussian, so mode-mixing
        # transforms with momentum rows matched to 1/(m_i omega_i) also
        # reach exact classicality; the center-of-mass family alone loses
        # it when m_1 omega_1 != m_2 omega_2.
        lct = lct_from_position_block(np.array([[1.0, 1.0], [1.0, -2.0]]))
        assert trivial_mixing_distance(lct.M) > 0.1
        assert classicality_residual(lct, make_system(m2=2.0)) < 1e-28


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
        class FakeResult:
            x = np.array([1.0, 0.0, 0.0, 1.0])
            fun = 0.0
            nit = 1

        # the search imports minimize when it runs, so patch it at the source
        monkeypatch.setattr(scipy.optimize, "minimize",
                            lambda *a, **k: FakeResult())
        with pytest.raises(RuntimeError, match="trivial"):
            search_classical_structure(make_system(),
                                       SearchConfig(restarts=4, seed=1))

    def test_report_fields_consistent(self):
        report, _ = search_classical_structure(make_system(),
                                               SearchConfig(seed=9))
        recomputed = evaluate_structure(report.lct.M, make_system())
        assert report.residual == pytest.approx(recomputed.residual)
        assert report.product_A == pytest.approx(recomputed.product_A)
