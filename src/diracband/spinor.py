"""Elementary spinor algebra for the 1D Dirac equation.

The Hamiltonian is h = i*sigma_y d/dx + (m + S(x))*sigma_x, acting on
two-component spinors.  Written out, h psi = E psi is the first-order
system

    psi1' = (m + S) psi1 - E psi2
    psi2' = E psi1 - (m + S) psi2

which is what every numerical routine in this package integrates or
checks against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: step of the central-difference fallback for fields without a derivative
FD_STEP = 1e-6


@dataclass(frozen=True)
class Spinor:
    """Two-component real amplitude at a single point."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValueError("spinor components must be finite")

    def norm(self) -> float:
        return math.hypot(self.c1, self.c2)


@dataclass(frozen=True)
class ScalarPotential:
    """Position-dependent scalar (mass-like) term S(x).

    ``fn`` should accept floats; accepting numpy arrays as well makes the
    monodromy integrator faster, but a scalar-only callable is folded
    through a loop transparently.
    """

    fn: Callable
    description: str = ""

    def __call__(self, x):
        return self.fn(x)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate on an array, tolerating scalar-only callables."""
        try:
            out = np.asarray(self.fn(xs), dtype=float)
            if out.shape == np.shape(xs):
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(self.fn(float(x))) for x in np.asarray(xs).ravel()]).reshape(np.shape(xs))

    @staticmethod
    def zero() -> "ScalarPotential":
        return ScalarPotential(lambda x: np.asarray(x, dtype=float) * 0.0, "zero")


@dataclass(frozen=True)
class SpinorField:
    """Map x -> Spinor tagged with its energy.

    ``derivative`` is optional; callers that need psi' (the Darboux map,
    the intertwining check) fall back to a central difference with step
    FD_STEP when it is absent, at the documented cost of accuracy.
    """

    fn: Callable[[float], Spinor]
    energy: float
    derivative: Callable[[float], Spinor] | None = None
    label: str = ""

    def __call__(self, x: float) -> Spinor:
        return self.fn(x)

    def d(self, x: float) -> Spinor:
        if self.derivative is not None:
            return self.derivative(x)
        h = FD_STEP
        fp, fm = self.fn(x + h), self.fn(x - h)
        return Spinor((fp.c1 - fm.c1) / (2 * h), (fp.c2 - fm.c2) / (2 * h))


def wronskian(phi: Spinor, psi: Spinor) -> float:
    """Spinor Wronskian W(phi, psi) = phi1*psi2 - phi2*psi1, the
    determinant of the matrix with columns phi and psi.

    Constant in x when both arguments solve the same Dirac problem at the
    same energy, because the system is trace-free.
    """
    return phi.c1 * psi.c2 - phi.c2 * psi.c1


def det_drift(m11, m12, m21, m22):
    """|det M - 1| / max(1, max|M_ij|)^2, entrywise over stacked 2x2
    matrices M that should be unimodular.

    m11*m22 - m12*m21 cancels two products of size max|M_ij|^2, so
    rounding alone moves det M by about eps * max|M_ij|^2 where the
    entries are large (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3); the scaled drift reads rounding as eps.
    """
    scale = np.maximum(1.0, np.max(np.abs([m11, m12, m21, m22]), axis=0))
    return np.abs(m11 * m22 - m12 * m21 - 1.0) / (scale * scale)


def hamiltonian_residual(
    field: SpinorField,
    potential: ScalarPotential,
    m: float,
    energy: float,
    x: float,
    h: float = 1e-4,
) -> float:
    """Norm of (h - E) applied to the field at x, with a central-difference
    derivative of step h.

    For an exact solution at the right energy the result is O(h^2); a
    wrong energy or potential shows up at O(1).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    fp, fm, f0 = field(x + h), field(x - h), field(x)
    d1 = (fp.c1 - fm.c1) / (2 * h)
    d2 = (fp.c2 - fm.c2) / (2 * h)
    s = m + potential(x)
    r1 = d2 + s * f0.c2 - energy * f0.c1
    r2 = -d1 + s * f0.c1 - energy * f0.c2
    return math.hypot(r1, r2)
