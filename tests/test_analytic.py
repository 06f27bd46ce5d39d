import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dampsim.analytic import (asymptotic_state, evolve_state,
                              evolve_trajectory, uncertainty_product)
from dampsim.model import MomentState, symplectic_defect, vacuum_state

from test_model import make_system, systems


def correlated_state(c=0.8):
    """Valid moments with cross covariance c between x1 and x2 (classical
    mixture of displaced vacua, so physicality is guaranteed)."""
    cov = np.diag([0.5 + c, 0.5, 0.5 + c, 0.5])
    cov[0, 2] = cov[2, 0] = c
    return MomentState(mean=np.zeros(4), cov=cov)


class TestEvolveState:
    def test_zero_time_is_identity(self):
        system = make_system(k1=0.7, k2=0.2)
        s0 = correlated_state()
        s = evolve_state(s0, system, 0.0)
        assert np.allclose(s.mean, s0.mean, atol=1e-15)
        assert np.allclose(s.cov, s0.cov, atol=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            evolve_state(vacuum_state(make_system()), make_system(), -0.1)
        # unchecked, an undamped mode at t = inf gives NaN moments and a
        # 2-D grid a broadcast error
        undamped = make_system(k1=0.0)
        state = vacuum_state(undamped)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"finite and non-negative, "
                                                 f"got {bad}"):
                evolve_state(state, undamped, bad)
        # a scalar has no time axis to evolve along
        for grid in (np.zeros((2, 2)), 1.0):
            with pytest.raises(ValueError, match="1-D"):
                evolve_trajectory(state, undamped, grid)

    def test_coherent_mean_decay(self):
        system = make_system(k1=0.5, k2=0.5)
        vac = vacuum_state(system)
        s0 = MomentState(mean=np.array([2.0, 0.0, 0.0, 0.0]), cov=vac.cov)
        s = evolve_state(s0, system, 2.0)
        assert s.mean == pytest.approx([2.0 * np.exp(-1.0), 0, 0, 0],
                                       abs=1e-14)
        assert np.allclose(s.cov, vac.cov, atol=1e-14)

    def test_cross_covariance_decay_factor(self):
        system = make_system(k1=0.1, k2=0.3)
        s = evolve_state(correlated_state(0.8), system, 5.0)
        assert s.cov[0, 2] == pytest.approx(0.8 * np.exp(-2.0), rel=1e-12)

    def test_vacuum_is_fixed_point(self):
        system = make_system(k1=0.9, k2=0.4)
        vac = vacuum_state(system)
        for t in (0.1, 1.0, 7.3):
            s = evolve_state(vac, system, t)
            assert np.allclose(s.mean, vac.mean, atol=1e-12)
            assert np.allclose(s.cov, vac.cov, atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(3)
        system = make_system(m1=1.4, w2=0.7, k1=0.35, k2=0.8)
        vac = vacuum_state(system)
        for _ in range(20):
            r = rng.normal(size=4)
            s0 = MomentState(mean=rng.normal(size=4),
                             cov=vac.cov + 0.4 * np.outer(r, r))
            t1, t2 = rng.uniform(0, 3, size=2)
            via_two = evolve_state(evolve_state(s0, system, t1), system, t2)
            direct = evolve_state(s0, system, t1 + t2)
            assert np.allclose(via_two.mean, direct.mean, atol=1e-12)
            assert np.allclose(via_two.cov, direct.cov, atol=1e-12)

    @given(systems(), st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
           st.floats(0.0, 5.0), st.lists(st.floats(0.0, 5.0), min_size=1,
                                         max_size=3))
    def test_semigroup_law(self, system, draws, t1, t2):
        # evolving for t1 and then for each t2 is evolving for t1 + t2
        r = np.array(draws[4:])
        s0 = MomentState(mean=np.array(draws[:4]),
                         cov=vacuum_state(system).cov + np.outer(r, r))
        t2 = np.array(t2)
        via_two = evolve_trajectory(evolve_state(s0, system, t1), system, t2)
        direct = evolve_trajectory(s0, system, t1 + t2)
        for a, b in ((via_two.mean, direct.mean), (via_two.cov, direct.cov)):
            assert np.all(np.abs(a - b) <= 1e-12 * (1.0 + np.abs(b)))

    def test_mean_decay_is_exact_exponential(self):
        system = make_system(k1=0.6, k2=0.25)
        s0 = MomentState(mean=np.array([1.5, -0.7, 0.3, 2.0]),
                         cov=vacuum_state(system).cov)
        for t in (0.5, 1.7, 4.0):
            s = evolve_state(s0, system, t)
            factors = np.exp(-np.array([0.6, 0.6, 0.25, 0.25]) * t)
            assert np.allclose(s.mean, factors * s0.mean, rtol=1e-14)

    def test_log_cross_covariance_is_affine_in_time(self):
        system = make_system(k1=0.22, k2=0.47)
        times = np.linspace(0.0, 6.0, 50)
        values = [evolve_state(correlated_state(0.8), system, t).cov[0, 2]
                  for t in times]
        coeffs = np.polyfit(times, np.log(np.abs(values)), 1)
        fit = np.polyval(coeffs, times)
        assert np.max(np.abs(fit - np.log(np.abs(values)))) < 1e-9
        assert coeffs[0] == pytest.approx(-(0.22 + 0.47), abs=1e-9)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(11)
        system = make_system(m1=0.8, w1=1.9, k1=0.3, m2=2.4, k2=1.1)
        vac = vacuum_state(system)
        for _ in range(25):
            r = rng.normal(size=4)
            s0 = MomentState(mean=rng.normal(size=4),
                             cov=vac.cov + 0.5 * np.outer(r, r))
            for t in rng.uniform(0, 10, size=5):
                s = evolve_state(s0, system, t)
                assert symplectic_defect(s, 1.0) >= -1e-10

    def test_trajectory_equals_per_time_reference(self):
        # the grid broadcast must reproduce the one-time-at-a-time
        # arithmetic bit for bit, since the CLI output is byte-compared
        system = make_system(m1=0.7, w1=1.3, k1=0.45, m2=1.9, w2=0.6, k2=0.17)
        s0 = correlated_state(0.8)
        times = np.linspace(0.0, 9.0, 57)
        trajectory = evolve_trajectory(s0, system, times)
        cov_vac = vacuum_state(system).cov
        for t, m, c in zip(times, trajectory.mean, trajectory.cov):
            e = np.exp(-np.array([0.45, 0.45, 0.17, 0.17]) * t)
            assert np.array_equal(m, e * s0.mean)
            assert np.array_equal(c, np.outer(e, e) * s0.cov
                                  + np.diag(1.0 - e ** 2) @ cov_vac)
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError, match="non-negative"):
                evolve_trajectory(s0, system, np.array([0.0, bad]))

    def test_undamped_mode_accepted(self):
        system = make_system(k1=0.0, k2=0.5)
        s0 = MomentState(mean=np.array([1.0, 0.0, 1.0, 0.0]),
                         cov=vacuum_state(system).cov)
        s = evolve_state(s0, system, 3.0)
        assert s.mean[0] == pytest.approx(1.0)
        assert s.mean[2] == pytest.approx(np.exp(-1.5))


class TestAsymptoticState:
    def test_equals_vacuum(self):
        system = make_system(m2=2.0, k1=0.3, k2=0.8)
        asym = asymptotic_state(system)
        vac = vacuum_state(system)
        assert np.allclose(asym.mean, vac.mean)
        assert np.allclose(asym.cov, vac.cov)

    def test_undamped_mode_rejected(self):
        with pytest.raises(ValueError, match="undamped"):
            asymptotic_state(make_system(k2=0.0))

    def test_long_time_evolution_converges(self):
        system = make_system(k1=0.4, k2=1.3)
        t = 20.0 / 0.4
        s = evolve_state(correlated_state(0.8), system, t)
        asym = asymptotic_state(system)
        assert np.max(np.abs(s.mean - asym.mean)) < 1e-8
        assert np.max(np.abs(s.cov - asym.cov)) < 1e-8

    def test_minimal_uncertainty(self):
        system = make_system(m1=1.6, w2=0.4, k1=0.3, k2=0.8)
        asym = asymptotic_state(system)
        assert uncertainty_product(asym, 1) == pytest.approx(0.5, abs=1e-15)
        assert uncertainty_product(asym, 2) == pytest.approx(0.5, abs=1e-15)


class TestMomentAccessors:
    def test_uncertainty_product_vacuum(self):
        v = vacuum_state(make_system())
        assert uncertainty_product(v, 1) == pytest.approx(0.5)
        assert uncertainty_product(v, 2) == pytest.approx(0.5)

    def test_uncertainty_product_direct_arithmetic(self):
        cov = np.diag([1.0, 1.0, 0.125, 2.0])
        s = MomentState(mean=np.zeros(4), cov=cov)
        assert uncertainty_product(s, 1) == pytest.approx(1.0)
        assert uncertainty_product(s, 2) == pytest.approx(0.5)

    def test_uncertainty_product_bad_mode(self):
        with pytest.raises(ValueError):
            uncertainty_product(vacuum_state(make_system()), 3)

    def test_uncertainty_product_per_time_on_a_grid(self):
        system = make_system(m1=1.6, w2=0.4, k1=0.3, k2=0.8)
        state0 = correlated_state(0.8)
        times = np.array([0.0, 0.7, 3.0])
        trajectory = evolve_trajectory(state0, system, times)
        for mode in (1, 2):
            got = uncertainty_product(trajectory, mode)
            assert got.shape == (3,)
            for k, t in enumerate(times):
                assert got[k] == uncertainty_product(
                    evolve_state(state0, system, t), mode)

    def test_cross_covariance_product_state(self):
        v = vacuum_state(make_system())
        # rows x1, p1 against columns x2, p2
        assert np.array_equal(v.cov[:2, 2:], np.zeros((2, 2)))

    def test_cross_covariance_closed_form_decay(self):
        system = make_system(k1=0.25, k2=0.15)
        s = evolve_state(correlated_state(0.8), system, 5.0)
        assert s.cov[0, 2] == pytest.approx(0.8 * np.exp(-2.0), rel=1e-12)

    def test_cross_covariance_vanishes_asymptotically(self):
        system = make_system(k1=0.25, k2=0.15)
        s = evolve_state(correlated_state(0.8), system, 200.0)
        assert abs(s.cov[0, 2]) < 1e-12

