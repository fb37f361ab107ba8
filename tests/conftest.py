import cmath
import math
from collections import namedtuple

import numpy as np
import pytest

from diracband import Kinematics, ModelParams, Spinor, SpinorField, lyapunov_many

FloquetPair = namedtuple("FloquetPair", "beta1 beta2")


@pytest.fixture(scope="session")
def canonical() -> ModelParams:
    """The parameter set every regression constant in the suite refers to."""
    return ModelParams.from_lambda(mass=2.0, lam=1.0, half_period=1.0)


@pytest.fixture(scope="session")
def steep() -> ModelParams:
    """Alternative nodeless seed parameters (gamma given directly)."""
    return ModelParams(mass=2.0, gamma=1.0, half_period=1.0)


def floquet_multipliers(discriminant: float) -> FloquetPair:
    """The two Bloch multipliers: both roots of beta^2 - D*beta + 1 = 0.

    |D| <= 2 puts the pair on the unit circle; |D| > 2 gives a real,
    reciprocal pair.  beta1*beta2 = 1 and beta1+beta2 = D always.
    """
    if not math.isfinite(discriminant):
        raise ValueError("discriminant must be finite")
    root = cmath.sqrt(complex(discriminant * discriminant / 4.0 - 1.0))
    return FloquetPair(discriminant / 2.0 + root, discriminant / 2.0 - root)


def free_spinor_field(mass: float, energy: float) -> SpinorField:
    """A free-particle (S = 0) solution at the given energy, with analytic
    derivative; the standard seed for Darboux-mapping tests."""
    kin = Kinematics.for_energy(mass, energy)
    k, delta = kin.k, kin.delta

    def fn(x: float) -> Spinor:
        return Spinor(cmath.cos(k * x), cmath.cos(k * x - delta))

    def dfn(x: float) -> Spinor:
        return Spinor(-k * cmath.sin(k * x), -k * cmath.sin(k * x - delta))

    return SpinorField(fn, energy, derivative=dfn, label="free particle")


def count_crossings(d_values: np.ndarray, level: float = 2.0) -> int:
    """Sign changes of |D| - level along consecutive samples."""
    s = np.sign(np.abs(np.asarray(d_values)) - level)
    return int(np.sum(s[:-1] * s[1:] < 0))


def crossing_brackets(params: ModelParams, e_max: float, step: float) -> list[tuple[float, float, float]]:
    """Brute-force band edges: (lo, hi, line) for every sign change of
    D - 2 and of D + 2 between neighbours of a uniform grid on [0, e_max].

    The two lines are scanned separately because a band narrower than the
    step carries both crossings in one cell, where |D| - 2 keeps its sign.
    A gap narrower than the step can still fall between two samples.
    """
    xs = np.linspace(0.0, e_max, int(np.ceil(e_max / step)) + 1)
    chunk = 1 << 18
    ds = np.concatenate([lyapunov_many(params, xs[i:i + chunk]) for i in range(0, xs.size, chunk)])
    out = []
    for line in (2.0, -2.0):
        above = ds > line
        k = np.nonzero(above[:-1] != above[1:])[0]
        out.extend((float(xs[j]), float(xs[j + 1]), line) for j in k)
    return sorted(out)
