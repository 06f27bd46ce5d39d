"""Shared physical types: mode parameters, Gaussian moment states, and
linear canonical transformations (LCTs) of the two-mode phase space.

The parameter types and the LCT, whose blocks are 2x2 float tuples
checked in closed form, need only the standard library. numpy is
imported by the array code alone: MomentState, the symplectic form and
defect, vacuum_state and checked_times.

Every record of the package is a read-only __slots__ class on Record. A
frozen dataclass would cost the import of dataclasses and inspect,
8-13 ms, plus 1.0-1.7 ms per class to exec generated methods."""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

# Default tolerances; structural checks (LCT constraints, symplectic
# positivity) use 1e-10, exact symmetries 1e-12.
STRUCTURAL_TOL = 1e-10
SYMMETRY_TOL = 1e-12

#: Largest condition number accepted for an LCT position block M. Inverting
#: M loses about cond(M) * eps of relative accuracy, so beyond
#: STRUCTURAL_TOL / eps (~4.5e5) N = inv(M.T) cannot be trusted to the
#: structural tolerance. Scale-free, unlike a bound on det(M).
MAX_CONDITION = STRUCTURAL_TOL / sys.float_info.epsilon

#: Quadrature labels in canonical ordering.
QUADRATURES = ("x1", "p1", "x2", "p2")


def symplectic_form() -> np.ndarray:
    """The 4x4 symplectic form for the (x1, p1, x2, p2) ordering."""
    import numpy as np
    out = np.zeros((4, 4))
    out[[0, 2], [1, 3]], out[[1, 3], [0, 2]] = 1.0, -1.0  # [[0, 1], [-1, 0]]
    return out


class Record:
    """Base of the read-only records: a subclass names its fields in
    __slots__ and is built by keyword, Record.__init__ setting each once.
    It writes its own __init__ only to check its fields or give them
    defaults. Assigning or deleting a field afterwards raises
    AttributeError, so a value checked when it was built stays checked.
    Records compare and hash by identity."""

    __slots__ = ()

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class PhysicalConstants(Record):
    """Simulation constants; dimensionless units with hbar configurable."""

    __slots__ = ("hbar",)

    def __init__(self, hbar: float = 1.0):
        if not 0 < hbar < math.inf:
            raise ValueError(f"hbar must be finite and > 0, got {hbar}")
        super().__init__(hbar=hbar)


class ModeParams(Record):
    """One harmonic mode: mass, angular frequency, damping rate."""

    __slots__ = ("mass", "omega", "kappa")

    def __init__(self, mass: float, omega: float, kappa: float):
        for name, value in (("mass", mass), ("omega", omega)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0 <= kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
        super().__init__(mass=mass, omega=omega, kappa=kappa)


class TwoModeSystem(Record):
    """Two uncoupled damped modes plus shared constants."""

    __slots__ = ("mode1", "mode2", "constants")

    def __init__(self, mode1: ModeParams, mode2: ModeParams,
                 constants: PhysicalConstants = PhysicalConstants()):
        # finite masses and frequencies can still put hbar/(2 m omega) or
        # m hbar omega/2 past float range, and every engine scales by them
        hbar = constants.hbar
        for label, mode in (("mode1", mode1), ("mode2", mode2)):
            try:
                variances = vacuum_variances(mode, hbar)
            except ZeroDivisionError:  # m omega underflowed to zero
                variances = (math.inf,)
            if not all(0 < v < math.inf for v in variances):
                raise ValueError(
                    f"{label}: vacuum variances hbar/(2 m omega) and "
                    f"m hbar omega/2 must be finite and > 0 (mass "
                    f"{mode.mass:g}, omega {mode.omega:g}, hbar {hbar:g})")
        super().__init__(mode1=mode1, mode2=mode2, constants=constants)

    @property
    def modes(self) -> tuple[ModeParams, ModeParams]:
        return (self.mode1, self.mode2)


class MomentState(Record):
    """Gaussian moments at one time or on a grid: means (..., 4) and
    symmetrized covariances (..., 4, 4), both in (x1, p1, x2, p2) ordering,
    with the same leading shape. One time is the empty leading shape, a
    (T,) grid the trajectory the engines return. Construction raises
    ValueError unless both are finite and every covariance is symmetric
    within SYMMETRY_TOL with a positive diagonal.

    The covariance convention is the symmetrized central second moment
    <{A,B}>/2 - <A><B>, which is real-symmetric by construction.
    """

    __slots__ = ("mean", "cov")

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        super().__init__(mean=mean, cov=cov)
        self.__post_init__()  # looked up on the class, so it can be wrapped

    def __post_init__(self):
        import numpy as np
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape[-1:] != (4,) or cov.shape != mean.shape + (4,):
            raise ValueError(f"mean must be (..., 4) and cov (..., 4, 4) of "
                             f"one leading shape, got shapes {mean.shape} "
                             f"and {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and cov must be finite")
        asymmetry = np.abs(cov - np.swapaxes(cov, -1, -2))
        if np.max(asymmetry, initial=0.0) > SYMMETRY_TOL:  # T = 0 passes
            raise ValueError("cov is not symmetric within 1e-12")
        if np.any(np.diagonal(cov, axis1=-2, axis2=-1) <= 0):
            raise ValueError("cov diagonal entries must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def symplectic_defect(state: MomentState, hbar: float = 1.0) -> float:
    """Minimum eigenvalue of cov + (i*hbar/2)*Omega, over every time of a
    stack.

    Non-negative (up to numerical floor) for any physical Gaussian state.
    """
    import numpy as np
    m = state.cov + 0.5j * hbar * symplectic_form()
    return float(np.min(np.linalg.eigvalsh(m)))


def assert_physical(state: MomentState, hbar: float = 1.0) -> None:
    """Raise ValueError if the state violates symplectic positivity."""
    defect = symplectic_defect(state, hbar)
    if defect < -STRUCTURAL_TOL:
        raise ValueError(
            f"state violates symplectic positivity: min eigenvalue {defect:g}")


def vacuum_variances(mode: ModeParams, hbar: float) -> tuple[float, float]:
    """Ground-state x and p variances hbar/(2 m omega), m hbar omega/2."""
    return (hbar / (2.0 * mode.mass * mode.omega),
            mode.mass * hbar * mode.omega / 2.0)


def checked_times(t) -> np.ndarray:
    """t as a float array of at most one axis, every entry finite and
    non-negative; ValueError otherwise."""
    import numpy as np
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape "
                         f"{times.shape}")
    bad = ~((times >= 0) & (times < math.inf))
    if bad.any():
        raise ValueError(f"time must be finite and non-negative, got "
                         f"{times[bad].flat[0]}")
    return times


def check_damped(system: TwoModeSystem) -> None:
    """Raise ValueError unless kappa > 0 on both modes: an undamped mode
    keeps its initial moments, so it has no asymptotic state."""
    for label, mode in (("mode1", system.mode1), ("mode2", system.mode2)):
        if mode.kappa == 0:
            raise ValueError(f"{label} is undamped (kappa = 0): "
                             "no unique asymptotic state")


def vacuum_state(system: TwoModeSystem) -> MomentState:
    """Ground-state moments: zero mean, diagonal cov of vacuum_variances."""
    import numpy as np
    hbar = system.constants.hbar
    diag = [v for mode in system.modes for v in vacuum_variances(mode, hbar)]
    return MomentState(mean=np.zeros(4), cov=np.diag(diag))


#: A 2x2 matrix as a pair of float rows.
Block = tuple[tuple[float, float], tuple[float, float]]


def _block(value) -> Block | None:
    """A 2x2 matrix (nested sequence or array) as a Block, or None unless it
    is 2x2 and finite."""
    try:
        rows = tuple(tuple(map(float, row)) for row in value)
    except (TypeError, ValueError):
        return None
    if (len(rows) != 2 or any(len(row) != 2 for row in rows)
            or not all(map(math.isfinite, rows[0] + rows[1]))):
        return None
    return rows


class Lct(Record):
    """Linear canonical transformation mixing positions with positions and
    momenta with momenta.

    M rows are the position coefficients (alpha, beta); N rows the momentum
    coefficients (gamma, delta), both Blocks. Canonicity requires
    M @ N.T == I, i.e. N = inv(M.T). Construction is the one check: a
    given N must meet M N^T = I within STRUCTURAL_TOL ("invalid LCT: ..."
    with each residual); M alone must pass condition_violation, and N is
    then _inverse_transpose(M), which must be finite. That is the package's
    one inverse of a block: structures.evaluate_structure gives it as N to
    blocks past the cond(M) bound too, such as the structure it reports for
    masses 1e-150 and 1e200, of cond(M) ~1e175 and canonical to 2.2e-16.
    """

    __slots__ = ("M", "N")

    def __init__(self, M, N=None):
        m, n = _block(M), None if N is None else _block(N)
        if N is not None:
            if m is None or n is None:
                raise ValueError("M and N must be finite 2x2 matrices")
            labels = (("sum alpha_i gamma_i - 1", "sum alpha_i delta_i"),
                      ("sum beta_i gamma_i", "sum beta_i delta_i - 1"))
            violations = []
            for i, row in enumerate(m):
                for j, col in enumerate(n):
                    r = row[0] * col[0] + row[1] * col[1] - (i == j)
                    if not abs(r) <= STRUCTURAL_TOL:  # (M N^T - I)_ij, or NaN
                        violations.append(f"{labels[i][j]} = {r:.3e}")
            if violations:
                raise ValueError("invalid LCT: " + "; ".join(violations))
        elif m is None:
            raise ValueError("position block must be a finite 2x2 matrix")
        elif conditioning := condition_violation(m):
            raise ValueError(f"position block: {conditioning}")
        elif (n := _block(_inverse_transpose(m))) is None:
            raise ValueError("position block: N = inv(M^T) leaves float range")
        super().__init__(M=m, N=n)

    def __repr__(self) -> str:
        return f"Lct(M={self.M}, N={self.N})"


def _inverse_transpose(m: Block) -> Block:
    """inv(M^T) by the steps of LAPACK's dgesv on A = M^T, B = I, bit for
    bit numpy's inv under OpenBLAS's FMA kernels: partial pivoting, the
    multiplier by the reciprocal pivot (by the pivot if it is subnormal, as
    dgetf2), u11 = a11 - l10 u01 rounded twice, and per column b of P I
    x1 = y1 (1/u11) and x0 = fma(-u01, x1, b0) (1/u00), the fma exact."""
    (a00, a10), (a01, a11) = m  # the rows of A are the columns of M
    b0 = (1.0, 0.0)  # the first entry of each column of P I
    if abs(a10) > abs(a00):
        (a00, a01), (a10, a11), b0 = (a10, a11), (a00, a01), (0.0, 1.0)
    r0 = 1.0 / a00
    l10 = a10 * r0 if abs(a00) >= sys.float_info.min else a10 / a00
    u11 = a11 - l10 * a01  # rounding can cancel it to 0 on subnormals
    r1 = 1.0 / u11 if u11 else math.copysign(math.inf, u11)
    # y1 = b1 - l10 b0 is 1, or 0.0 - l10: +0.0 where l10 is 0, as LAPACK's
    x1 = [(0.0 - l10) * r1 if b else r1 for b in b0]
    return (tuple(_fma(-a01, v, b) * r0 for b, v in zip(b0, x1)), tuple(x1))


def _fma(a: float, b: float, c: float) -> float:
    """a b + c, c an integer, rounded once (int / int) where a b is finite."""
    if not math.isfinite(a * b):
        return a * b + c
    (p, q), (r, s) = a.as_integer_ratio(), b.as_integer_ratio()
    return (p * r + int(c) * q * s) / (q * s)


def condition_violation(m: Block) -> str | None:
    """Why a position block is too ill-conditioned to invert, if it is.
    cond(M) = smax/smin = smax^2/|det M|, where smax^2 and smin^2 are the
    roots of l^2 - |M|_F^2 l + det(M)^2, taken after an exact power-of-two
    scaling that keeps every square in float range; inf if singular."""
    (a, b), (c, e) = m
    k = -math.frexp(max(abs(a), abs(b), abs(c), abs(e)))[1]
    a, b, c, e = (math.ldexp(v, k) for v in (a, b, c, e))
    det = abs(a * e - b * c)
    frobenius = a * a + b * b + c * c + e * e
    gap = math.sqrt(max((frobenius - 2 * det) * (frobenius + 2 * det), 0.0))
    cond = (frobenius + gap) / 2 / det if det else math.inf
    if not cond <= MAX_CONDITION:
        return (f"cond(M) = {cond:.3e} exceeds {MAX_CONDITION:.2e}: "
                f"singular or ill-conditioned")
    return None

