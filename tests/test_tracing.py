"""The benchmark's tracer against the package: every layer it wraps by name
exists, a canonical verify run reaches the layers through those names,
and unwrap restores the originals."""
from tracing import VERIFY_CHECKS, Tracer

from diracband import bands, darboux, monodromy, soliton, verify

WRAPPED = {
    bands: ("lyapunov_many", "band_edges", "dispersion", "lyapunov_trace"),
    monodromy: ("lyapunov_numeric_many",),
    soliton: ("basis_spinors", "potential_s1"),
    verify: ("hamiltonian_residual", "run_verification", *VERIFY_CHECKS),
    darboux: ("intertwining_check",),
}


def test_install_reaches_every_layer_and_unwrap_restores(canonical):
    originals = {(m, name): getattr(m, name) for m, names in WRAPPED.items() for name in names}
    tracer = Tracer()
    tracer.install()
    try:
        replaced = {key for key, fn in originals.items() if getattr(*key) is not fn}
        tracer.active = True
        verify.run_verification(canonical)
    finally:
        tracer.active = False
        tracer.unwrap()
    assert replaced == set(originals)
    assert all(getattr(*key) is fn for key, fn in originals.items())
    spans = {span[0] for span in tracer.spans}
    reached = {"soliton.basis_spinors", "soliton.potential_s1", "spinor.hamiltonian_residual",
               "darboux.intertwining_check", "bands.lyapunov_many", "bands.band_edges",
               "monodromy.lyapunov_numeric_many", "verify.run_verification"}
    reached |= {"verify." + check[len("check_"):] for check in VERIFY_CHECKS}
    assert reached <= spans
