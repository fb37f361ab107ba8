"""Command-line front end.

Subcommands compute plot-ready data artifacts (CSV or JSON) for the
periodized one-soliton model: the potential profile, the discriminant
trace, the band table, dispersion curves, and the self-check report.
Artifacts are deterministic for a fixed configuration; numbers are
written with 12 significant digits.

Exit codes: 0 success, 1 validation failure, 2 computation error,
3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, bands, monodromy, soliton, verify
from .errors import DiracBandError
from .spinor import ScalarPotential

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
EXIT_VERIFICATION = 3


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    mass: float
    gamma: float
    lam: float
    half_period: float
    e_min: float
    e_max: float
    samples: int
    tol: float
    output_format: str
    output_path: str
    band_index: int = 0
    cross_check: bool = False
    potential_file: str | None = None
    alpha_scale: float | None = None

    def model(self) -> soliton.ModelParams:
        params = soliton.ModelParams(self.mass, self.gamma, self.half_period)
        if self.alpha_scale is not None:
            params = soliton.ModelParams(
                self.mass, self.gamma, self.half_period,
                alpha_override=params.alpha * self.alpha_scale,
            )
        return params


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    mass = args.mass
    if not 0 < mass < math.inf:
        raise ConfigError(f"--mass must be positive and finite, got {mass}")
    if not 0 < args.half_period < math.inf:
        raise ConfigError(f"--half-period must be positive and finite, got {args.half_period}")
    if args.lam is not None and args.gamma is not None:
        raise ConfigError("provide exactly one of --lambda / --gamma")
    if args.gamma is not None:
        gamma = args.gamma
        if not 0 < gamma < mass:
            raise ConfigError(f"--gamma must lie in (0, mass), got {gamma}")
        lam = math.sqrt(mass * mass - gamma * gamma)
    else:
        lam = args.lam if args.lam is not None else 1.0
        if not 0 < lam < mass:
            raise ConfigError(f"--lambda must lie in (0, mass), got {lam}")
        gamma = math.sqrt(mass * mass - lam * lam)
    if not -math.inf < args.e_min < args.e_max < math.inf:
        raise ConfigError(
            f"--emin must be below --emax, both finite, got [{args.e_min}, {args.e_max}]"
        )
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")
    if not args.tol > 0:
        raise ConfigError(f"--tol must be positive, got {args.tol}")
    if args.output_format not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {args.output_format}")
    return RunConfig(
        mass=mass,
        gamma=gamma,
        lam=lam,
        half_period=args.half_period,
        e_min=args.e_min,
        e_max=args.e_max,
        samples=args.samples,
        tol=args.tol,
        output_format=args.output_format,
        output_path=args.out,
        band_index=getattr(args, "band_index", 0),
        cross_check=getattr(args, "verify", False),
        potential_file=getattr(args, "potential_file", None),
        alpha_scale=getattr(args, "alpha_scale", None),
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(_fmt(value))


def _params_echo(config: RunConfig) -> dict:
    echo = {
        "mass": _round12(config.mass),
        "gamma": _round12(config.gamma),
        "lambda": _round12(config.lam),
        "half_period": _round12(config.half_period),
    }
    if config.alpha_scale is not None:
        echo["alpha_override"] = _round12(config.model().alpha)
    return echo


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DiracBandError(f"cannot write artifact to '{path}': {exc}") from exc


def _csv_artifact(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_artifact(config: RunConfig, kind: str, data) -> str:
    doc = {
        "params": _params_echo(config),
        "data": data,
        "meta": {"version": __version__, "kind": kind},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_potential(config: RunConfig) -> int:
    """Periodized potential profile over three periods, header `x,s1`."""
    params = config.model()
    a = params.half_period
    xs = np.linspace(-3.0 * a, 3.0 * a, config.samples)
    values = soliton.potential_s1(params, soliton.fold_into_cell(params, xs))
    if config.output_format == "json":
        data = [{"x": _round12(float(x)), "s1": _round12(float(s))} for x, s in zip(xs, values)]
        _write_text(config.output_path, _json_artifact(config, "potential", data))
    else:
        rows = [(float(x), float(s)) for x, s in zip(xs, values)]
        _write_text(config.output_path, _csv_artifact("x,s1", rows))
    return EXIT_OK


def _tabulated_potential(path: str, params: soliton.ModelParams) -> ScalarPotential:
    """Two-column CSV (x, S), linearly interpolated and periodized.

    Interpolation error between samples is the caller's to budget.
    """
    try:
        raw = np.genfromtxt(path, delimiter=",", comments="#", skip_header=0)
    except OSError as exc:
        raise DiracBandError(f"cannot read potential file '{path}': {exc}") from exc
    except ValueError as exc:  # rows of unequal length
        raise ConfigError(f"--potential-file '{path}' is not a two-column table: {exc}") from exc
    if raw.ndim != 2 or raw.shape[1] < 2:
        raise ConfigError(f"--potential-file '{path}' must have two numeric columns")
    if np.isnan(raw[0]).any():  # header row
        raw = raw[1:]
    if np.isnan(raw).any() or raw.shape[0] < 2:
        raise ConfigError(f"--potential-file '{path}' has non-numeric or too few rows")
    xs, ss = raw[:, 0], raw[:, 1]
    order = np.argsort(xs)
    xs, ss = xs[order], ss[order]
    a = params.half_period
    if xs[0] > -a or xs[-1] < a:
        raise ConfigError(
            f"--potential-file '{path}' must cover [-a, a] = [{-a}, {a}], spans [{xs[0]}, {xs[-1]}]"
        )

    def fn(x):
        return np.interp(soliton.fold_into_cell(params, x), xs, ss)

    return ScalarPotential(fn, f"tabulated from {path}")


def cmd_lyapunov(config: RunConfig) -> int:
    """Discriminant trace, header `e,d,regime`."""
    params = config.model()
    if config.potential_file is not None:
        pot = _tabulated_potential(config.potential_file, params)
        es = np.linspace(config.e_min, config.e_max, config.samples)
        ds = monodromy.lyapunov_numeric_many(pot, params.mass, es, params.half_period)
        rows = [
            (float(e), float(d), "propagating" if abs(e) > params.mass else "evanescent")
            for e, d in zip(es, ds)
        ]
    else:
        trace = bands.lyapunov_trace(params, config.e_min, config.e_max, config.samples)
        rows = [(s.e, s.d, s.regime) for s in trace.samples]
    if config.output_format == "json":
        data = [{"e": _round12(e), "d": _round12(d), "regime": r} for e, d, r in rows]
        _write_text(config.output_path, _json_artifact(config, "lyapunov", data))
    else:
        _write_text(config.output_path, _csv_artifact("e,d,regime", rows))
    return EXIT_OK


def _band_table(config: RunConfig, params: soliton.ModelParams) -> bands.BandTable:
    """The band table over [-e, e], e = max(|e_min|, |e_max|); a window
    too wide for the edge scan is rejected before any work."""
    e_max = max(abs(config.e_min), abs(config.e_max))
    try:
        bands.check_scan_window(params, e_max)
    except ValueError as exc:
        raise ConfigError(f"--emin/--emax: {exc}") from exc
    return bands.band_edges(params, e_max=e_max, tol=config.tol)


def cmd_bands(config: RunConfig) -> int:
    """Band table as JSON; `--verify` adds the per-edge oracle residual."""
    if config.output_format != "json":
        raise ConfigError("--format: the bands artifact is JSON only")
    params = config.model()
    table = _band_table(config, params)
    want_negative = config.e_min < 0
    edges = [e for e in table.edges if want_negative or e >= 0]
    bands_out = [b for b in table.bands if want_negative or b.e_hi > 0]
    data = {
        "edges": [_round12(e) for e in edges],
        "bands": [
            {"e_lo": _round12(b.e_lo), "e_hi": _round12(b.e_hi), "kind": b.kind}
            for b in bands_out
        ],
        "e_max": _round12(table.e_max),
        "tol": _round12(table.tol),
    }
    if config.cross_check:
        pot = soliton.periodized_potential(params)
        edge_arr = np.array(edges, dtype=float)
        closed = bands.lyapunov_many(params, edge_arr)
        numeric = monodromy.lyapunov_numeric_many(pot, params.mass, edge_arr, params.half_period)
        data["verification"] = [
            {
                "edge": _round12(float(e)),
                "closed": _round12(float(c)),
                "oracle": _round12(float(o)),
                "residual": _round12(abs(float(c) - float(o))),
            }
            for e, c, o in zip(edge_arr, closed, numeric)
        ]
    _write_text(config.output_path, _json_artifact(config, "bands", data))
    return EXIT_OK


def cmd_dispersion(config: RunConfig) -> int:
    """Dispersion samples for one allowed band, header `k,e`.

    Bands are indexed over the allowed bands with e_lo >= 0, in
    increasing energy; index 0 is the lowest positive band.
    """
    params = config.model()
    table = _band_table(config, params)
    allowed = table.allowed_bands(positive_only=True)
    if not 0 <= config.band_index < len(allowed):
        raise ConfigError(
            f"--band-index {config.band_index} out of range; table has {len(allowed)} "
            "positive allowed bands"
        )
    band = allowed[config.band_index]
    points = bands.dispersion(params, band, config.samples)
    if config.output_format == "json":
        data = [{"k": _round12(k), "e": _round12(e)} for e, k in points]
        _write_text(config.output_path, _json_artifact(config, "dispersion", data))
    else:
        rows = [(k, e) for e, k in points]
        _write_text(config.output_path, _csv_artifact("k,e", rows))
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    """Run the self-check suite; nonzero exit on any failed check."""
    if config.output_format != "json":
        raise ConfigError("--format: the verify report is JSON only")
    params = config.model()
    results = verify.run_verification(params)
    report = verify.report_dict(params, results)
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"{status}  {check['name']}: residual {check['residual']:.3e} "
            f"(threshold {check['threshold']:.1e})  {check['detail']}"
        )
    if config.output_path != "-":
        _write_text(config.output_path, _json_artifact(config, "verify", report))
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2; validation failures are 1 here
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mass", type=float, default=2.0, help="particle mass (default 2)")
    group = common.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="bound-state energy scale in (0, mass); default 1")
    group.add_argument("--gamma", dest="gamma", type=float, default=None,
                       help="soliton steepness in (0, mass); alternative to --lambda")
    common.add_argument("--half-period", type=float, default=1.0, dest="half_period",
                        help="half-period a of the periodization (default 1)")
    common.add_argument("--emin", type=float, default=0.0, dest="e_min")
    common.add_argument("--emax", type=float, default=7.0, dest="e_max")
    common.add_argument("--samples", type=int, default=701)
    common.add_argument("--tol", type=float, default=1e-6,
                        help="band tables: gaps narrower than this may read as closed; "
                             "edges are located to adjacent floats whatever it is (default 1e-6)")
    common.add_argument("--format", dest="output_format", choices=("csv", "json"), default=None)
    common.add_argument("--out", default="-", help="output path; '-' writes to stdout")

    parser = _Parser(prog="diracband", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("potential", parents=[common],
                   help="periodized potential profile over three periods")
    p_ly = sub.add_parser("lyapunov", parents=[common], help="discriminant trace over energy")
    p_ly.add_argument("--potential-file", dest="potential_file", default=None,
                      help="two-column CSV (x, S); switches to the ODE path")
    p_b = sub.add_parser("bands", parents=[common], help="band edges and intervals (JSON)")
    p_b.add_argument("--verify", action="store_true",
                     help="add per-edge closed-form vs oracle residuals")
    p_d = sub.add_parser("dispersion", parents=[common], help="K(E) samples for one allowed band")
    p_d.add_argument("--band-index", dest="band_index", type=int, default=0,
                     help="0-based index among the positive allowed bands")
    p_v = sub.add_parser("verify", parents=[common], help="run the self-check suite")
    p_v.add_argument("--alpha-scale", dest="alpha_scale", type=float, default=None,
                     help=argparse.SUPPRESS)
    return parser


_COMMANDS = {
    "potential": cmd_potential,
    "lyapunov": cmd_lyapunov,
    "bands": cmd_bands,
    "dispersion": cmd_dispersion,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.output_format is None:
            args.output_format = "json" if args.command in ("bands", "verify") else "csv"
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DiracBandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
