#!/usr/bin/env python3
"""diracband benchmark: one command, one process, seeded, closed loop.

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0

Drives the CLI the way its users do: every operation is one in-process
``diracband.cli.main(argv)`` call that writes its artifact to a scratch
directory, one call at a time, with BLAS/OpenMP pinned to one thread.
Every artifact is checked outside the timed region (``checks.py``); a
nonzero exit or a failed check counts the operation as failed, it is
never skipped.

Units of work, drawn from ``--seed`` by ``inputs.py``:
  sweep   one parameter set: potential, lyapunov (701 samples), bands to
          e_max = m + 5, then dispersion (101 samples) for every complete
          positive allowed band.  The closed-form path; no oracle.
  oracle  one parameter set: ``verify`` and ``bands --verify``, the RK4
          oracle on few energies (40, or the band edges), then one
          ``lyapunov --potential-file`` trace of 701 energies over the
          soliton table, a square well or a smooth profile, the same
          oracle on a wide batch that reads the table via np.interp.

A run's units are a fixed list drawn from ``--seed``: the canonical
inputs, then draws across the whole parameter space, as many as
``pass_size`` gives for the workload and ``--seconds``.  The list runs once
in full, then again from its start until ``--seconds`` have passed.  So the
operations a run attempts, and which of them fail, depend on the seed
alone and not on the host's speed; ``attempted`` and ``failed`` count each
distinct operation once, and every repeat must reproduce the outcome of
its first run.  Timings take each distinct unit's median over its runs, so
a pass cut short by the deadline does not tilt the mix.  ``unit_s.norm``
is the mean of those medians: unit costs differ by parameter set (a sweep
set whose band table fails runs no dispersion), so a median across units
would jump between modes from one seed's draws to the next.

The host this runs on is shared, and its speed drifts by 40% over
minutes.  Between calls, outside the timed intervals, ``hostspeed``
samples a fixed kernel of the benchmark's own, and the end-to-end times
are divided by the host factor, the kernel's mean time against its
reference, so they read as seconds on a host of reference speed: the
``.norm`` metrics by the factor over the run, ``setup_s`` by the factor
between its cold starts.  The raw figures and the factors are printed
as a comment.  The per-kind
medians and tails (``study_s`` per sweep set; ``verify_s``,
``verified_table_s`` and ``trace_s`` per call) are printed as comments and
reported by the traced run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps each
layer's public functions (``tracing.py``), first runs canonical units
untraced and traced to measure the tracing overhead and compare the
artifacts byte for byte (``calibrate``), then prints per-layer metrics
and writes the spans to ``.bench_out/``.  The last stdout line is the JSON
result; ``correct`` is false when traced and untraced artifacts differ, when
an output fails in a way not listed in ``checks.KNOWN_DEFECTS``, when a
known cause fails well more operations than it did at the seed
(``bench/baseline.json``), when a canonical unit has a failed operation,
or when a repeated unit's outcome differs from its first run.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import filecmp
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SCRATCH = ROOT / ".bench_tmp"

if not (SRC / "diracband" / "cli.py").is_file():
    sys.exit(f"bench: no diracband sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from diracband import cli  # noqa: E402
from inputs import make_inputs  # noqa: E402

WORKLOADS = ("sweep", "oracle")
#: distinct units per second of ``--seconds`` (see ``pass_size``): about
#: half (sweep) and three fifths (oracle) of what a 2 vCPU Xeon runs in
#: that time, so the first pass ends before the deadline unless the host
#: is slow
UNITS_PER_SECOND = {"sweep": 4.5, "oracle": 0.09}
#: untraced/traced pairs of the canonical sweep set in a traced run
CALIBRATION_PAIRS = 40
SETUP_SPAWNS = 20
POTENTIAL_SAMPLES = 701
TRACE_SAMPLES = 701
DISPERSION_SAMPLES = 101
BASELINE = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))
OP_KINDS = ("potential", "lyapunov", "bands", "dispersion", "verify", "bands-verify", "tabulated")

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import diracband.cli
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import inputs
inputs.make_inputs(int(sys.argv[2]), sys.argv[3])
print(t1 - t0)
"""


@dataclass
class Op:
    kind: str
    wall: float
    cpu: float
    code: int
    cause: str | None = None
    checked: bool = False


@dataclass
class Unit:
    kind: str
    ops: list[Op] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def cpu(self) -> float:
        return sum(op.cpu for op in self.ops)

    @property
    def outcome(self) -> list[tuple[str, str | None]]:
        return [(op.kind, op.cause) for op in self.ops]


def all_ops(units: list[Unit]) -> list[Op]:
    return [op for u in units for op in u.ops]


class Runner:
    """Invokes the CLI, times each call and checks each artifact."""

    def __init__(self, tracer: tracing.Tracer, workdir: Path, probe: hostspeed.Probe | None = None):
        self.tracer = tracer
        self.workdir = workdir
        self.probe = probe
        self.op_id = 0
        self.edges_missed: list[int] = []

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def invoke(self, unit: Unit, kind: str, argv: list[str]) -> Op:
        out, err = io.StringIO(), io.StringIO()
        self.op_id += 1
        self.tracer.op = self.op_id
        if self.probe is not None:
            self.probe.burst()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with self.tracer.span("cli." + argv[0]), redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a lost run
            code = -1
            traceback.print_exc(file=sys.stderr)
        op = Op(kind, time.perf_counter() - t0, time.process_time() - c0, code)
        if code != 0 and not (kind == "verify" and code == cli.EXIT_VERIFICATION):
            op.cause = checks.exit_cause(kind, code, err.getvalue())
        unit.ops.append(op)
        return op

    def check(self, op: Op, check, *args):
        """Run ``check`` with tracing paused and record its cause on ``op``;
        returns the check's extra result, if it has one."""
        if op.cause is not None:
            return None
        active, self.tracer.active = self.tracer.active, False
        try:
            result = check(*args)
        finally:
            self.tracer.active = active
        op.cause, extra = result if isinstance(result, tuple) else (result, None)
        op.checked = True
        return extra

    def sweep(self, p) -> Unit:
        unit = Unit("sweep")
        args = p.cli_args()
        e_range = ["--emin", repr(-p.e_max), "--emax", repr(p.e_max)]
        out = self.path("potential.csv")
        op = self.invoke(unit, "potential", ["potential", *args, "--samples", str(POTENTIAL_SAMPLES),
                                             "--out", out])
        self.check(op, checks.check_potential, p, out, POTENTIAL_SAMPLES)
        out = self.path("trace.csv")
        op = self.invoke(unit, "lyapunov", ["lyapunov", *args, "--emin", "0", "--emax", repr(p.e_max),
                                            "--samples", str(TRACE_SAMPLES), "--out", out])
        self.check(op, checks.check_trace, p, out, TRACE_SAMPLES)
        out = self.path("bands.json")
        op = self.invoke(unit, "bands", ["bands", *args, *e_range, "--out", out])
        if op.cause is not None:
            return unit
        doc = checks.load_json(out)
        self.edges_missed.append(self.check(op, checks.check_band_table, p, doc))
        for index, band in enumerate(checks.complete_positive_bands(doc)):
            out = self.path(f"dispersion-{index}.csv")
            op = self.invoke(unit, "dispersion", [
                "dispersion", *args, *e_range, "--band-index", str(index),
                "--samples", str(DISPERSION_SAMPLES), "--out", out,
            ])
            self.check(op, checks.check_dispersion, p, out, DISPERSION_SAMPLES, band, doc["data"]["tol"])
        return unit

    def oracle(self, item) -> Unit:
        """``verify`` and ``bands --verify`` on one parameter set, then one
        ``lyapunov --potential-file`` trace."""
        p, profile = item
        unit = Unit("oracle")
        args = p.cli_args()
        out = self.path("report.json")
        op = self.invoke(unit, "verify", ["verify", *args, "--out", out])
        if op.cause is None:
            self.check(op, checks.check_verify_report, checks.load_json(out), op.code)
        out = self.path("verified.json")
        op = self.invoke(unit, "bands-verify", [
            "bands", *args, "--emin", repr(-p.e_max), "--emax", repr(p.e_max), "--verify", "--out", out,
        ])
        if op.cause is None:
            self.edges_missed.append(self.check(op, checks.check_verified_table, p, checks.load_json(out)))
        q = profile.params
        out = self.path(f"tabulated-{profile.kind}.csv")
        op = self.invoke(unit, "tabulated", [
            "lyapunov", "--mass", repr(q.mass), "--gamma", repr(q.gamma),
            "--half-period", repr(q.half_period), "--emin", repr(-q.e_max), "--emax", repr(q.e_max),
            "--samples", str(TRACE_SAMPLES), "--potential-file", profile.path, "--out", out,
        ])
        self.check(op, checks.check_tabulated, profile, out, TRACE_SAMPLES)
        return unit


def measure_setup(seed: int, probe: hostspeed.Probe) -> tuple[list[float], list[float]]:
    """Cold starts: a fresh interpreter imports the CLI and generates the
    inputs.  Returns the wall seconds of each and the import part of each;
    ``probe`` samples the host between them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports = [], []
    for _ in range(SETUP_SPAWNS):
        probe.burst()
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(BENCH), str(seed), tmp],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
            )
            walls.append(time.perf_counter() - t0)
        imports.append(float(done.stdout.split()[-1]))
    probe.burst()
    return walls, imports


def pass_size(workload: str, seconds: float) -> int:
    """How many distinct units a run of ``seconds`` draws."""
    return max(1, int(seconds * UNITS_PER_SECOND[workload]))


def run_window(runner: Runner, items: list, workload: str, seconds: float) -> list[Unit]:
    """Every unit of ``items`` once, then again in order until ``seconds``
    have passed; unit ``i`` of the result ran ``items[i % len(items)]``."""
    deadline = time.perf_counter() + seconds
    units: list[Unit] = []
    while len(units) < len(items) or time.perf_counter() < deadline:
        units.append(getattr(runner, workload)(items[len(units) % len(items)]))
    return units


def by_input(units: list[Unit], n: int) -> list[list[Unit]]:
    """The runs of each of the ``n`` distinct units."""
    return [units[i::n] for i in range(n)]


def calibrate(runner: Runner, workload: str, inputs: dict) -> tuple[float, bool]:
    """Run canonical units untraced and traced, in pairs that alternate
    which goes first, and compare their artifacts byte for byte.

    The overhead comes from sweep sets, the unit with the most spans per
    second, so it bounds the overhead on the other units; the oracle
    workload adds one pair of its own canonical unit for the comparison.
    Returns the overhead as a share of the untraced time, and whether
    every pair wrote identical artifacts."""
    base = runner.workdir
    walls = {False: 0.0, True: 0.0}
    identical = True
    kinds = ["sweep"] * CALIBRATION_PAIRS + ([] if workload == "sweep" else [workload])
    for pair, kind in enumerate(kinds):
        for traced in (pair % 2 == 1, pair % 2 == 0):
            runner.workdir = base / ("traced" if traced else "plain")
            runner.workdir.mkdir(exist_ok=True)
            runner.tracer.active = traced
            wall = getattr(runner, kind)(inputs[kind][0]).wall
            if kind == "sweep":
                walls[traced] += wall
        names = sorted(os.listdir(base / "plain"))
        identical &= names == sorted(os.listdir(base / "traced")) and all(
            filecmp.cmp(base / "plain" / n, base / "traced" / n, shallow=False) for n in names
        )
    runner.workdir = base
    runner.edges_missed.clear()
    runner.tracer.spans.clear()
    return walls[True] / walls[False] - 1.0, identical


def _walls(units: list[Unit], kind: str) -> list[float]:
    return [op.wall for u in units for op in u.ops if op.kind == kind]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile."""
    ordered = sorted(samples)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def by_kind(units: list[Unit]) -> dict[str, list[float]]:
    """Per-kind timings: seconds per parameter set, or per call."""
    walls = {
        "study_s": [u.wall for u in units if u.kind == "sweep"],
        "verify_s": _walls(units, "verify"),
        "verified_table_s": _walls(units, "bands-verify"),
        "trace_s": _walls(units, "tabulated"),
    }
    return {name: w for name, w in walls.items() if w}


def end_to_end(units: list[Unit], n: int, setup: list[float], setup_host: float = 1.0,
               run_host: float = 1.0) -> dict:
    """Each distinct unit counts once, with the median of its runs.  Times
    are divided by the host factor measured around them (``hostspeed``);
    with factors of 1 they are the raw times."""
    groups = by_input(units, n)
    wall = [statistics.median(u.wall for u in runs) / run_host for runs in groups]
    cpu = [statistics.median(u.cpu for u in runs) / run_host for runs in groups]
    n_ops = sum(len(runs[0].ops) for runs in groups)
    return {
        "setup_s": (statistics.median(setup) / setup_host, "s"),
        "unit_s.norm": (sum(wall) / n, "s"),
        "ops_per_s.norm": (n_ops / sum(wall), "1/s"),
        "cpu_s_per_op.norm": (sum(cpu) / n_ops, "s"),
    }


def per_layer(units: list[Unit], n: int, tracer: tracing.Tracer, runner: Runner,
              imports: list[float], overhead: float) -> dict:
    """Aggregate the spans.  ``self_s`` is seconds per call; ``calls`` and
    ``energies`` are per CLI invocation, so they do not grow with run length."""
    ops = all_ops(units)
    n_ops = len(ops)
    op_wall = sum(op.wall for op in ops)
    own = tracer.self_times()
    spans = tracer.spans
    stats: dict[str, dict] = {}
    for (name, start, end, _, _, attrs), self_s in zip(spans, own):
        s = stats.setdefault(name, {"calls": 0, "self": 0.0, "total": 0.0})
        s["calls"] += 1
        s["self"] += self_s
        s["total"] += end - start
        for key, value in attrs.items():
            if key == "margin":
                if math.isfinite(value):
                    s[key] = max(s.get(key, 0.0), value)
            else:
                s[key] = s.get(key, 0) + value

    def get(name: str, key: str = "self"):
        return stats.get(name, {}).get(key, 0)

    def per(name: str, key: str = "self", by: str = "calls") -> float:
        base = get(name, by)
        return get(name, key) / base if base else 0.0

    edge_energies = sum(
        attrs["energies"] for name, _, _, parent, _, attrs in spans
        if name == "bands.lyapunov_many" and parent >= 0 and spans[parent][0] == "bands.band_edges"
    )
    first = all_ops(units[:n])
    failed = sum(op.cause is not None for op in first)
    kinds = by_kind(units)
    m = {"cli.import_s": (statistics.median(imports), "s")}
    for name in ("study_s", "verify_s", "verified_table_s", "trace_s"):
        m[f"{name}.p50"] = (statistics.median(kinds[name]) if name in kinds else 0.0, "s")
    m["study_s.tail"] = (tail(kinds["study_s"])[0] if "study_s" in kinds else 0.0, "s")
    m |= {
        "failed_share": (failed / len(first), "share"),
        "trace.overhead_share": (overhead, "share"),
        "trace.layer_share": (sum(t for span, t in zip(spans, own) if not span[0].startswith("cli."))
                              / op_wall, "share"),
    }
    for cmd in ("potential", "lyapunov", "bands", "dispersion", "verify"):
        m[f"cli.{cmd}.self_s"] = (per(f"cli.{cmd}"), "s")
    lm = "bands.lyapunov_many"
    m[f"{lm}.calls"] = (get(lm, "calls") / n_ops, "count/op")
    m[f"{lm}.energies"] = (get(lm, "energies") / n_ops, "count/op")
    m[f"{lm}.self_s"] = (per(lm), "s")
    m[f"{lm}.ns_per_energy"] = (1e9 * per(lm, by="energies"), "ns")
    be = "bands.band_edges"
    m[f"{be}.calls"] = (get(be, "calls") / n_ops, "count/op")
    m[f"{be}.self_s"] = (per(be), "s")
    m[f"{be}.edges"] = (per(be, "edges"), "count/call")
    missed = runner.edges_missed
    m[f"{be}.edges_missed"] = (sum(missed) / len(missed) if missed else 0.0, "count/table")
    m["bands.energies_per_edge"] = (edge_energies / get(be, "edges") if get(be, "edges") else 0.0, "ratio")
    ds = "bands.dispersion"
    m[f"{ds}.calls"] = (get(ds, "calls") / n_ops, "count/op")
    m[f"{ds}.self_s"] = (per(ds), "s")
    m[f"{ds}.failed"] = (per(ds, "failed"), "share")
    m["bands.lyapunov_trace.self_s"] = (per("bands.lyapunov_trace"), "s")
    mo = "monodromy.lyapunov_numeric_many"
    m[f"{mo}.calls"] = (get(mo, "calls") / n_ops, "count/op")
    m[f"{mo}.energies"] = (per(mo, "energies"), "count/call")
    m[f"{mo}.energy_steps"] = (per(mo, "energy_steps"), "count/call")
    m[f"{mo}.self_s"] = (per(mo), "s")
    m[f"{mo}.energy_steps_per_s"] = (per(mo, "energy_steps", by="self"), "1/s")
    m[f"{mo}.failed"] = (per(mo, "failed"), "share")
    for name in ("soliton.basis_spinors", "soliton.potential_s1",
                 "spinor.hamiltonian_residual", "darboux.intertwining_check"):
        m[f"{name}.calls"] = (get(name, "calls") / n_ops, "count/op")
        m[f"{name}.self_s"] = (per(name), "s")
    checks_failed = 0
    for check in tracing.VERIFY_CHECKS:
        name = "verify." + check[len("check_"):]
        m[f"{name}.s"] = (per(name, "total"), "s")
        m[f"{name}.margin"] = (get(name, "margin"), "ratio")
        checks_failed += get(name, "checks_failed")
    runs = get("verify.run_verification", "calls")
    m["verify.checks_failed"] = (checks_failed / runs if runs else 0.0, "count/call")
    return m


def verdict(workload: str, units: list[Unit], identical: bool,
            n: int | None = None) -> tuple[list[str], list[str]]:
    """Failure counts of the ``n`` distinct units by operation kind and
    cause, each against its limit, and the reasons the run's outputs are
    wrong (none when correct)."""
    n = len(units) if n is None else n
    seed_rates = BASELINE["failures"][workload]["by_operation"]
    ops = all_ops(units[:n])
    lines, wrong = [], []
    if not identical:
        wrong.append("traced and untraced artifacts differ")
    if any(op.cause is not None for op in units[0].ops):
        wrong.append("the canonical unit, which passes at the seed, has a failed operation")
    if any(u.outcome != units[i % n].outcome for i, u in enumerate(units)):
        wrong.append("a repeated unit's outcome differs from its first run")
    for kind in OP_KINDS:
        of_kind = [op for op in ops if op.kind == kind]
        for cause in sorted({op.cause for op in of_kind} - {None}):
            count = sum(op.cause == cause for op in of_kind)
            if cause not in checks.KNOWN_DEFECTS:
                lines.append(f"# failed {kind} {cause}: {count} (NEW)")
                wrong.append(f"new failure cause {cause}")
                continue
            seed = seed_rates[kind]
            limit = checks.rate_limit(len(of_kind), seed["by_cause"].get(cause, 0) / seed["attempted"])
            lines.append(f"# failed {kind} {cause}: {count} (known defect, limit {limit:.1f})")
            if count > limit:
                wrong.append(f"{cause} fails {count} {kind} operations, above its limit {limit:.1f}")
    return lines, wrong


def report(args, units: list[Unit], n: int, metrics: dict, identical: bool) -> None:
    ops = all_ops(units[:n])
    failed = [op for op in ops if op.cause is not None]
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"Python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} cpus, "
          f"{platform.processor() or platform.machine()}")
    for name, walls in by_kind(units).items():
        line = f"# {name}: {len(walls)} samples, p50 {statistics.median(walls):.4f} s"
        if len(walls) > 10:
            value, pct = tail(walls)
            line += f", p{pct:.1f} {value:.4f} s"
        print(line)
    print(f"# units: {n} distinct {args.workload}, {len(units)} runs ({len(units) / n:.2f} passes)")
    for kind in OP_KINDS:
        of_kind = [op for op in ops if op.kind == kind]
        if of_kind:
            print(f"# ops {kind}: {len(of_kind)} attempted, "
                  f"{sum(op.cause is not None for op in of_kind)} failed")
    print(f"# outputs checked: {sum(op.checked for op in all_ops(units))} of "
          f"{len(all_ops(units))} operations run")
    counts, wrong = verdict(args.workload, units, identical, n)
    for line in counts + [f"# wrong: {reason}" for reason in wrong]:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="diracband benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    SCRATCH.mkdir(exist_ok=True)
    setup_probe = hostspeed.Probe()
    setup, imports = measure_setup(args.seed, setup_probe)
    probe = None if args.trace else hostspeed.Probe()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=SCRATCH))
    tracer = tracing.Tracer()
    try:
        inputs = make_inputs(args.seed, str(workdir))
        runner = Runner(tracer, workdir, probe)
        overhead, identical = 0.0, True
        if args.trace:
            tracer.install()
            overhead, identical = calibrate(runner, args.workload, inputs)
            tracer.active = True
        n = pass_size(args.workload, args.seconds)
        units = run_window(runner, inputs[args.workload][:n], args.workload, args.seconds)
        tracer.active = False
        if probe is not None:
            probe.burst()  # the host while the last call ran
    finally:
        tracer.unwrap()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = per_layer(units, n, tracer, runner, imports, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        raw = end_to_end(units, n, setup)
        print(f"# host factor: {setup_probe.factor():.4f} over set-up, {probe.factor():.4f} over the run "
              f"({len(probe.samples)} samples); raw: "
              + ", ".join(f"{name.removesuffix('.norm')} {value:.6g} {unit}" for name, (value, unit) in raw.items()))
        metrics = end_to_end(units, n, setup, setup_probe.factor(), probe.factor())
    report(args, units, n, metrics, identical)
    return 0


if __name__ == "__main__":
    sys.exit(main())
