"""Scale covariance: the system psi' = [[m+S, -E], [E, -(m+S)]] psi is
unchanged under x -> x/s with (m, gamma, E, S) -> s (m, gamma, E, S), so every
result for (m, gamma, a, E) is the result for (sm, s gamma, a/s, sE), energies
and tol times s and K times s.  With s a power of two, floating point keeps
this to the bit."""
import numpy as np
import pytest

from diracband import ModelParams, band_edges, bands, lyapunov_many, monodromy, soliton
from inputs import sweep_sets

SCALES = (2.0**-6, 2.0**-2, 2.0, 2.0**6)
SETS = [ModelParams(p.mass, p.gamma, p.half_period) for p in sweep_sets(1)[:30]]


def scaled(params: ModelParams, s: float) -> ModelParams:
    return ModelParams(s * params.mass, s * params.gamma, params.half_period / s)


def energies(params: ModelParams, n: int) -> np.ndarray:
    """Seeded energies over [-(m + 5), m + 5], with E = 0, +-m, +-lam, a point
    1e-10 of m above the mass shell and one 1e-6 of lam above the pole."""
    m, lam = params.mass, params.lam
    rng = np.random.default_rng([1, n, round(1e6 * m)])
    special = [0.0, m, -m, m * (1 + 1e-10), lam, -lam, lam * (1 + 1e-6)]
    return np.concatenate([special, rng.uniform(-m - 5.0, m + 5.0, n - len(special))])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("s", SCALES)
def test_closed_form_is_bit_covariant(s):
    for params in SETS:
        big = scaled(params, s)
        es = energies(params, 200)
        assert same_bits(lyapunov_many(big, s * es), lyapunov_many(params, es)), params
        labels = bands.regimes(params, es)  # es[3] is 1e-10 of m above the mass shell
        assert bands.regimes(big, s * es) == labels and labels[3] == "limit", params

        e_max = params.mass + 5.0
        table = band_edges(params, e_max=e_max, tol=1e-6)
        big_table = band_edges(big, e_max=s * e_max, tol=s * 1e-6)
        assert same_bits(big_table.edges, s * np.array(table.edges)), params
        assert (big_table.e_max, big_table.tol) == (s * table.e_max, s * table.tol)
        assert [(b.e_lo, b.e_hi, b.kind) for b in big_table.bands] == [
            (s * b.e_lo, s * b.e_hi, b.kind) for b in table.bands]

        for band, big_band in zip(table.allowed_bands(True), big_table.allowed_bands(True)):
            es_k, ks = bands.dispersion(params, band, 41)
            big_es, big_ks = bands.dispersion(big, big_band, 41)
            assert same_bits(big_es, s * es_k) and same_bits(big_ks, s * ks), (params, band)


@pytest.mark.parametrize("params", SETS[:8], ids=lambda p: f"m{p.mass:.3g}")
def test_oracle_is_bit_covariant(params):
    es = energies(params, 40)
    base = monodromy.lyapunov_numeric_many(
        soliton.periodized_potential(params), params.mass, es, params.half_period)
    for s in SCALES:
        big = scaled(params, s)
        d = monodromy.lyapunov_numeric_many(
            soliton.periodized_potential(big), big.mass, s * es, big.half_period)
        assert same_bits(d, base), s
