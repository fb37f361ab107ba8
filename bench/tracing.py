"""In-memory span tracer that wraps the program's public functions from
outside, by replacing each name where its caller looks it up.

A span is ``[name, start, end, parent, op, attrs]``; ``parent`` is the
index of the enclosing span and ``op`` the id of the CLI invocation it
belongs to.  Wrappers cost one attribute test when tracing is inactive,
and nothing once ``unwrap`` has restored the originals.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from diracband import bands, darboux, monodromy, soliton, verify

VERIFY_CHECKS = (
    "check_wronskian_unity",
    "check_evenness",
    "check_solution_residuals",
    "check_intertwining",
    "check_darboux_consistency",
    "check_oracle_equivalence",
    "check_band_structure",
    "check_band_edge_regression",
)


def _energies(position: int):
    def before(args, kwargs, attrs):
        e = args[position] if len(args) > position else kwargs["energies"]
        attrs["energies"] = int(np.size(e))
    return before


def _oracle_before(args, kwargs, attrs):
    _energies(2)(args, kwargs, attrs)
    steps = args[4] if len(args) > 4 else kwargs.get("steps", monodromy.DEFAULT_STEPS)
    attrs["energy_steps"] = attrs["energies"] * steps


def _edges_after(attrs, table):
    attrs["edges"] = len(table.edges)


def _margin_after(attrs, result):
    results = result if isinstance(result, list) else [result]
    margins = [r.residual / r.threshold for r in results]
    attrs["margin"] = max(margins)
    attrs["checks_failed"] = sum(not r.passed for r in results)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        rec = self._open(name)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        fn = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            if before is not None:
                before(args, kwargs, rec[5])
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5]["failed"] = 1
                raise
            finally:
                tracer._close(rec)
            if after is not None:
                after(rec[5], result)
            return result

        self._originals.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap each layer's public functions at the name its callers use."""
        self.wrap(bands, "lyapunov_many", "bands.lyapunov_many", before=_energies(1))
        self.wrap(bands, "band_edges", "bands.band_edges", after=_edges_after)
        self.wrap(bands, "dispersion", "bands.dispersion")
        self.wrap(bands, "lyapunov_trace", "bands.lyapunov_trace")
        self.wrap(monodromy, "lyapunov_numeric_many", "monodromy.lyapunov_numeric_many",
                  before=_oracle_before)
        self.wrap(soliton, "basis_spinors", "soliton.basis_spinors")
        self.wrap(soliton, "potential_s1", "soliton.potential_s1")
        self.wrap(verify, "hamiltonian_residual", "spinor.hamiltonian_residual")
        self.wrap(darboux, "intertwining_check", "darboux.intertwining_check")
        self.wrap(verify, "run_verification", "verify.run_verification")
        for check in VERIFY_CHECKS:
            self.wrap(verify, check, "verify." + check[len("check_"):], after=_margin_after)

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps([name, start, end, parent, op, attrs]) + "\n")
