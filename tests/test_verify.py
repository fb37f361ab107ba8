"""verify's array checks against their per-call reference forms: each
check is one array call, and must report what the loops reported, to the
last bit of every residual."""
import pytest
from conftest import (
    reference_evenness,
    reference_intertwining,
    reference_solution_residuals,
    reference_wronskian_unity,
)
from inputs import oracle_sets

from diracband import ModelParams, verify

CHECKS = (
    (verify.check_wronskian_unity, reference_wronskian_unity),
    (verify.check_evenness, reference_evenness),
    (verify.check_solution_residuals, reference_solution_residuals),
    (verify.check_intertwining, reference_intertwining),
)


@pytest.mark.parametrize("check, reference", CHECKS, ids=[c.__name__ for c, _ in CHECKS])
def test_array_check_matches_reference(check, reference):
    for p in oracle_sets(1):  # the canonical set and 63 seeded ones
        params = ModelParams(p.mass, p.gamma, p.half_period)
        got, want = check(params), reference(params)
        got, want = (r if isinstance(r, list) else [r] for r in (got, want))
        assert got == want, p
        assert [r.residual.hex() for r in got] == [r.residual.hex() for r in want], p
