"""Seeded benchmark inputs: parameter sets and tabulated potential profiles.

Every input is drawn from the seed; nothing is filtered afterwards, so
inputs that hit known defects stay in (see ``checks.KNOWN_DEFECTS``).
Parameter sets cover the whole valid space the ROADMAP names:
``m`` in [0.5, 5], ``gamma/m`` in [0.05, 0.95], ``a`` in [0.3, 3].
The canonical set (m=2, lambda=1, a=1) always comes first.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

#: how many parameter sets are drawn up front; runs cycle through them
SWEEP_SETS = 1000
ORACLE_SETS = 64
#: rows in every tabulated profile; the soliton table's interpolation
#: budget in ``checks`` holds for this spacing
TABLE_POINTS = 401
#: energy window above the mass for every band and trace request
E_ABOVE_MASS = 5.0

# independent random streams per input kind, so adding sets of one kind
# never changes the others
_SWEEP, _ORACLE, _TABLES = 1, 2, 3


@dataclass(frozen=True)
class ParamSet:
    mass: float
    gamma: float
    half_period: float
    canonical: bool = False

    @property
    def lam(self) -> float:
        return math.sqrt(self.mass * self.mass - self.gamma * self.gamma)

    @property
    def e_max(self) -> float:
        return self.mass + E_ABOVE_MASS

    def cli_args(self) -> list[str]:
        # the canonical set goes in as the README does, through the default
        # --lambda 1, so that `verify` runs its canonical-only regression check
        coupling = [] if self.canonical else ["--gamma", repr(self.gamma)]
        return ["--mass", repr(self.mass), *coupling, "--half-period", repr(self.half_period)]


CANONICAL = ParamSet(2.0, math.sqrt(3.0), 1.0, canonical=True)


@dataclass(frozen=True)
class Profile:
    kind: str  # soliton | square-well | smooth
    params: ParamSet
    path: str


def _draw_sets(rng: np.random.Generator, n: int) -> list[ParamSet]:
    m = rng.uniform(0.5, 5.0, n)
    ratio = rng.uniform(0.05, 0.95, n)
    a = rng.uniform(0.3, 3.0, n)
    return [ParamSet(float(mi), float(mi * ri), float(ai)) for mi, ri, ai in zip(m, ratio, a)]


def sweep_sets(seed: int) -> list[ParamSet]:
    return [CANONICAL] + _draw_sets(np.random.default_rng([seed, _SWEEP]), SWEEP_SETS - 1)


def oracle_sets(seed: int) -> list[ParamSet]:
    return [CANONICAL] + _draw_sets(np.random.default_rng([seed, _ORACLE]), ORACLE_SETS - 1)


def write_profiles(seed: int, directory: str) -> list[Profile]:
    """The soliton table of the canonical set, then a seeded square well and
    a seeded smooth even profile, each as a two-column CSV over [-a, a]."""
    rng = np.random.default_rng([seed, _TABLES])
    well, smooth = _draw_sets(rng, 2)
    depth, width = rng.uniform(0.2, 0.9), rng.uniform(0.2, 0.8)
    coeffs = rng.normal(0.0, 0.3, 4) / (1.0 + np.arange(4))
    out = []
    for kind, p in (("soliton", CANONICAL), ("square-well", well), ("smooth", smooth)):
        a = p.half_period
        x = np.linspace(-a, a, TABLE_POINTS)
        if kind == "soliton":
            s = -2.0 * p.gamma**2 / (p.mass + p.lam * np.cosh(2.0 * p.gamma * x))
        elif kind == "square-well":
            s = np.where(np.abs(x) < width * a, -depth * p.mass, 0.0)
        else:
            s = p.mass * sum(c * np.cos(j * math.pi * x / a) for j, c in enumerate(coeffs))
        path = os.path.join(directory, f"profile-{kind}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x,S\n")
            fh.writelines(f"{float(xi)!r},{float(si)!r}\n" for xi, si in zip(x, s))
        out.append(Profile(kind, p, path))
    return out


def make_inputs(seed: int, directory: str) -> dict:
    """The units of each workload, canonical first; the profiles are
    written to ``directory``."""
    profiles = write_profiles(seed, directory)
    return {
        "sweep": sweep_sets(seed),
        "oracle": [(p, profiles[i % len(profiles)]) for i, p in enumerate(oracle_sets(seed))],
    }
