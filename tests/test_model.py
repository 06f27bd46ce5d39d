import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from dampsim import cli, model, structures
from dampsim.model import (Lct, ModeParams, MomentState, PhysicalConstants,
                           TwoModeSystem, symplectic_defect, symplectic_form,
                           vacuum_state)


def make_system(m1=1.0, w1=1.0, k1=0.5, m2=1.0, w2=1.0, k2=0.5, hbar=1.0):
    return TwoModeSystem(mode1=ModeParams(m1, w1, k1),
                         mode2=ModeParams(m2, w2, k2),
                         constants=PhysicalConstants(hbar=hbar))


def systems():
    """Random two-mode systems: masses and frequencies in [0.5, 2], damping
    rates in [0, 2] and hbar in [0.2, 5]."""
    scale = st.floats(0.5, 2.0)
    mode = st.builds(ModeParams, scale, scale, st.floats(0.0, 2.0))
    return st.builds(TwoModeSystem, mode, mode,
                     st.builds(PhysicalConstants, st.floats(0.2, 5.0)))


class TestParams:
    def test_invalid_mode_params(self):
        with pytest.raises(ValueError):
            ModeParams(mass=-1.0, omega=1.0, kappa=0.5)
        with pytest.raises(ValueError):
            ModeParams(mass=1.0, omega=0.0, kappa=0.5)
        with pytest.raises(ValueError):
            ModeParams(mass=1.0, omega=1.0, kappa=-0.1)
        for bad in (float("nan"), float("inf")):
            for kwargs in ({"mass": bad, "omega": 1.0, "kappa": 0.5},
                           {"mass": 1.0, "omega": bad, "kappa": 0.5},
                           {"mass": 1.0, "omega": 1.0, "kappa": bad}):
                with pytest.raises(ValueError, match="finite"):
                    ModeParams(**kwargs)

    def test_unrepresentable_vacuum_variances(self):
        # hbar/(2 m omega) divides by an underflowed m omega, or is 0
        # because 2 m omega overflows; m hbar omega/2 overflows
        for m1, w1, m2, w2, hbar, label in (
                (1e-200, 1e-200, 1.0, 1.0, 1.0, "mode1"),
                (1.0, 1.0, 1e308, 1.0, 1.0, "mode2"),
                (1.0, 1.0, 1e200, 1e200, 1.0, "mode2"),
                (1e-160, 1e-160, 1.0, 1.0, 1e-10, "mode1")):
            with pytest.raises(ValueError, match=f"{label}: vacuum"):
                make_system(m1=m1, w1=w1, m2=m2, w2=w2, hbar=hbar)
        # extreme but representable scales are accepted
        make_system(m1=1e-100, w1=1e-100, m2=1e150, w2=1e150)

    def test_invalid_hbar(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                PhysicalConstants(hbar=bad)


class TestMomentState:
    def test_asymmetric_cov_rejected(self):
        cov = np.eye(4)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            MomentState(mean=np.zeros(4), cov=cov)
        # every time of a stack is checked
        with pytest.raises(ValueError, match="symmetric"):
            MomentState(mean=np.zeros((2, 4)), cov=np.stack([np.eye(4), cov]))
        # a difference past float range is refused with no overflow warning
        cov[0, 1], cov[1, 0] = 1.7e308, -1.7e308
        with pytest.raises(ValueError, match="symmetric"):
            MomentState(mean=np.zeros(4), cov=cov)

    def test_nonpositive_diagonal_rejected(self):
        cov = np.diag([1.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="diagonal"):
            MomentState(mean=np.zeros(4), cov=cov)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            mean = np.zeros(4)
            mean[1] = bad
            with pytest.raises(ValueError, match="finite"):
                MomentState(mean=mean, cov=np.eye(4))
            cov = np.eye(4)
            cov[0, 2] = cov[2, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                MomentState(mean=np.zeros(4), cov=cov)

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            MomentState(mean=np.zeros(3), cov=np.eye(4))
        with pytest.raises(ValueError):
            MomentState(mean=np.zeros(4), cov=np.eye(3))
        # a stack needs one leading shape for both
        for mean, cov in ((np.zeros((2, 4)), np.eye(4)),
                          (np.zeros(4), np.stack([np.eye(4)] * 2)),
                          (np.zeros((2, 4)), np.stack([np.eye(4)] * 3)),
                          (np.zeros(()), np.eye(4))):
            with pytest.raises(ValueError, match="leading shape"):
                MomentState(mean=mean, cov=cov)

    def test_stacks_accepted(self):
        # any leading shape, an empty grid included
        for lead in ((3,), (2, 5), (0,)):
            state = MomentState(mean=np.zeros(lead + (4,)),
                                cov=np.broadcast_to(np.eye(4), lead + (4, 4)))
            assert state.mean.shape == lead + (4,)
            assert state.cov.shape == lead + (4, 4)


class TestRecords:
    def test_fields_are_read_only(self):
        # one of each read-only record the package builds
        system = make_system()
        report, trace = structures.search_classical_structure(system)
        built = [PhysicalConstants(), ModeParams(1.0, 1.0, 0.5), system,
                 vacuum_state(system),
                 cli.Scenario(system=system, initial=(0j, 0j), t_start=0.0,
                              t_end=1.0, n_steps=3, fock_dim=8, lct=None,
                              seed=0),
                 structures.SearchConfig(), report, trace[0],
                 Lct(M=((0.5, 0.5), (1.0, -1.0)))]
        assert len({type(record) for record in built}) == 9
        for record in built:
            for name in type(record).__slots__:
                value = getattr(record, name)
                with pytest.raises(AttributeError, match="read-only"):
                    setattr(record, name, value)
                with pytest.raises(AttributeError, match="read-only"):
                    delattr(record, name)
                assert getattr(record, name) is value
            with pytest.raises(AttributeError):
                record.extra = 1.0

    def test_defaults(self):
        mode = ModeParams(1.0, 2.0, 0.5)
        system = TwoModeSystem(mode, mode)
        assert isinstance(system.constants, PhysicalConstants)
        assert system.constants.hbar == 1.0
        assert system.modes == (mode, mode)
        config = structures.SearchConfig()
        assert (config.restarts, config.seed) == (32, 0)
        config = structures.SearchConfig(seed=7)
        assert (config.restarts, config.seed) == (32, 7)

    def test_post_init_runs_once_per_moment_state(self, monkeypatch):
        # the hook perfbench's tracer wraps to count constructions
        calls = []
        check = MomentState.__post_init__

        def counted(state):
            calls.append(state)
            check(state)

        monkeypatch.setattr(model.MomentState, "__post_init__", counted)
        state = MomentState([0.0] * 4, np.eye(4).tolist())
        assert len(calls) == 1 and calls[0] is state
        assert isinstance(state.mean, np.ndarray)
        vacuum_state(make_system())
        assert len(calls) == 2
        with pytest.raises(ValueError, match="finite"):
            MomentState(np.full(4, np.nan), np.eye(4))
        assert len(calls) == 3


class TestVacuumState:
    def test_symmetric_units(self):
        v = vacuum_state(make_system())
        assert np.allclose(np.diag(v.cov), 0.5)
        assert np.allclose(v.mean, 0.0)
        assert np.allclose(v.cov - np.diag(np.diag(v.cov)), 0.0)

    def test_unequal_masses(self):
        v = vacuum_state(make_system(m2=2.0))
        assert np.allclose(np.diag(v.cov), [0.5, 0.5, 0.25, 1.0])

    def test_minimal_uncertainty_every_mode(self):
        for system in (make_system(), make_system(m1=2.0, w2=0.3, hbar=2.0),
                       make_system(m1=0.4, w1=2.5, m2=3.0)):
            v = vacuum_state(system)
            hbar = system.constants.hbar
            for i in (0, 2):
                assert np.sqrt(v.cov[i, i] * v.cov[i + 1, i + 1]) == \
                    pytest.approx(hbar / 2, abs=1e-15)

    def test_minimal_symplectic_eigenvalue(self):
        system = make_system(m1=1.7, w1=0.8, m2=0.6, w2=2.1, hbar=1.3)
        v = vacuum_state(system)
        hbar = system.constants.hbar
        assert symplectic_defect(v, hbar) >= -1e-12
        # symplectic eigenvalues via |eig(i Omega C)|
        sympl = np.abs(np.linalg.eigvals(1j * symplectic_form() @ v.cov))
        assert np.allclose(sympl, hbar / 2, atol=1e-12)


class TestLct:
    def test_identity_is_valid(self):
        Lct(M=np.eye(2), N=np.eye(2))

    def test_center_of_mass_coefficients_valid(self):
        Lct(M=np.array([[0.5, 0.5], [1.0, -1.0]]),
            N=np.array([[1.0, 1.0], [0.5, -0.5]]))

    def test_constructed_violation_reported(self):
        # alpha=(1,0), gamma=(0,1): sum alpha_i gamma_i = 0, not 1
        with pytest.raises(ValueError,
                           match="^invalid LCT: sum alpha_i gamma_i - 1 = "):
            Lct(M=np.array([[1.0, 0.0], [1.0, 1.0]]),
                N=np.array([[0.0, 1.0], [1.0, 1.0]]))
        # M N^T past float range, inf - inf on the diagonal: NaN is no pass
        big = 1e200
        with pytest.raises(ValueError,
                           match="^invalid LCT: sum alpha_i gamma_i - 1 = nan"):
            Lct(M=[[big, big], [big, -big]], N=[[big, -big], [big, big]])
        with pytest.raises(ValueError, match="^invalid LCT: "):
            Lct(M=np.eye(2), N=[[2.0, 0.0], [0.0, 1.0]])

    def test_blocks_must_be_2x2(self):
        with pytest.raises(ValueError,
                           match="^M and N must be finite 2x2 matrices$"):
            Lct(M=np.eye(2), N=[1.0, 0.0])

    # N to the bit, signed zeros included, which repr tells apart and the
    # CSV prints as 0 and -0: the zeros LAPACK's dgesv gives
    def test_from_position_block_identity(self):
        lct = Lct(np.eye(2))
        assert repr(lct.N) == "((1.0, 0.0), (0.0, 1.0))"

    def test_from_position_block_signed_zeros(self):
        assert repr(Lct([[2.0, 0.0], [0.0, -0.5]]).N) == \
            "((0.5, 0.0), (-0.0, -2.0))"
        assert repr(Lct([[0.0, 1.0], [1.0, 0.0]]).N) == \
            "((0.0, 1.0), (1.0, 0.0))"

    def test_from_position_block_center_of_mass(self):
        lct = Lct(np.array([[0.5, 0.5], [1.0, -1.0]]))
        assert lct.N == ((1.0, 1.0), (0.5, -0.5))
        Lct(M=lct.M, N=lct.N)

    def test_singular_block_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            Lct(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_random_blocks_satisfy_constraints(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            m = rng.uniform(-3.0, 3.0, size=(2, 2))
            if abs(np.linalg.det(m)) < 0.1:
                continue
            lct = Lct(m)
            residual = np.array(lct.M) @ np.array(lct.N).T - np.eye(2)
            assert np.max(np.abs(residual)) < 1e-10
            checked += 1

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    def test_inverse_is_exact_to_cond_eps(self, scale):
        # ||N - inv(M^T)||_F <= cond(M) eps ||inv(M^T)||_F against the
        # exact inverse of the float M, cond(M) = ||M||_F ||inv(M)||_F: the
        # bound of LU with partial pivoting (Higham, Accuracy and Stability
        # of Numerical Algorithms, ch. 9 and 14); measured at most 0.44 of
        # it. The second row is k times the first plus d (x, y), so cond(M)
        # spans 1 to MAX_CONDITION
        rng = random.Random(11)
        eps = Fraction(sys.float_info.epsilon)
        checked = 0
        while checked < 1000:
            a, b, k, x, y = (rng.uniform(-3.0, 3.0) for _ in range(5))
            d = 10.0 ** -rng.uniform(0.0, 6.0)
            m = ((scale * a, scale * b),
                 (scale * (k * a + d * x), scale * (k * b + d * y)))
            if model.condition_violation(m):
                continue
            (a, b), (c, e) = ((Fraction(v) for v in row) for row in m)
            det = a * e - b * c
            exact = ((e / det, -c / det), (-b / det, a / det))
            n = Lct(m).N
            error = sum((Fraction(n[i][j]) - exact[i][j]) ** 2
                        for i in range(2) for j in range(2))
            size = sum(w * w for row in exact for w in row)
            cond = (a * a + b * b + c * c + e * e) / abs(det)
            assert error <= (cond * eps) ** 2 * size
            checked += 1
