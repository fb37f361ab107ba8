"""Command-line front end.

Subcommands compute plot-ready data artifacts (CSV or JSON) for the
periodized one-soliton model: the potential profile, the discriminant
trace, the band table, dispersion curves, and the self-check report.
Artifacts are deterministic for a fixed configuration on one machine and
BLAS build (the oracle evaluates its step polynomials by matrix
products, whose last bits may differ on another CPU or BLAS, and with
the other energies of the call); numbers are written with 12
significant digits, except the band table's energies (edges, band
bounds, e_max), which are written at round-trip precision.

Exit codes: 0 success, 1 validation failure, 2 computation error,
3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, bands, monodromy, soliton, verify
from .errors import DiracBandError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
EXIT_VERIFICATION = 3


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


#: commands whose artifact is a JSON document, never CSV
JSON_ONLY = {"bands", "verify"}


def _model(args: argparse.Namespace) -> soliton.ModelParams:
    """The model from --mass, --lambda or --gamma and --half-period;
    ModelParams' range checks become validation failures."""
    try:
        if args.gamma is not None:
            return soliton.ModelParams(args.mass, args.gamma, args.half_period)
        lam = args.lam if args.lam is not None else 1.0
        return soliton.ModelParams.from_lambda(args.mass, lam, args.half_period)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_sampling(args: argparse.Namespace) -> None:
    """The ranges no model holds: the energy window, --samples and --tol."""
    if not -math.inf < args.e_min < args.e_max < math.inf:
        raise ConfigError(
            f"--emin must be below --emax, both finite, got [{args.e_min}, {args.e_max}]"
        )
    if args.samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")
    if not args.tol > 0:
        raise ConfigError(f"--tol must be positive, got {args.tol}")


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DiracBandError(f"cannot write artifact to '{path}': {exc}") from exc


def _write_artifact(args: argparse.Namespace, params: soliton.ModelParams, data) -> None:
    """Write a command's data to --out: row records (a list of dicts, one
    key per column) as CSV or JSON, a document (a dict) as JSON.  Floats
    in rows are written at 12 significant digits; a document is written
    as given."""
    if args.output_format == "csv":
        # one format per row, typed from the first: "%.12g" % v is f"{v:.12g}"
        row_format = ",".join("%.12g" if isinstance(v, float) else "%s" for v in data[0].values())
        lines = [",".join(data[0])]
        lines.extend(row_format % tuple(row.values()) for row in data)
        _write_text(args.out, "\n".join(lines) + "\n")
        return
    if isinstance(data, list):
        data = [{k: _round12(v) if isinstance(v, float) else v for k, v in row.items()} for row in data]
    doc = {
        "params": {
            "mass": _round12(params.mass),
            "gamma": _round12(params.gamma),
            "lambda": _round12(params.lam),
            "half_period": _round12(params.half_period),
        },
        "data": data,
        "meta": {"version": __version__, "kind": args.command},
    }
    _write_text(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_potential(args: argparse.Namespace, params: soliton.ModelParams) -> list[dict]:
    """Periodized potential profile over three periods, columns `x,s1`."""
    a = params.half_period
    xs = np.linspace(-3.0 * a, 3.0 * a, args.samples)
    values = soliton.potential_s1(params, soliton.fold_into_cell(params, xs))
    return [{"x": float(x), "s1": float(s)} for x, s in zip(xs, values)]


def _tabulated_potential(path: str, params: soliton.ModelParams):
    """Two-column CSV (x, S), linearly interpolated and periodized, and
    its x column, sorted.

    Interpolation error between samples is the caller's to budget.
    """
    import warnings  # loaded with numpy already

    try:
        with open(path, encoding="utf-8") as fh:
            # the first line that is not blank or a comment: a header
            # unless every field is a number
            line = fh.readline()
            while line and not line.split("#", 1)[0].strip():
                line = fh.readline()
            try:
                [float(field) for field in line.split("#", 1)[0].split(",")]
                fh.seek(0)
            except ValueError:
                pass
            with warnings.catch_warnings():  # a header and no rows: no data
                warnings.simplefilter("ignore", UserWarning)
                raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise DiracBandError(f"cannot read potential file '{path}': {exc}") from exc
    except ValueError as exc:  # rows of unequal length, or a cell not a number
        raise ConfigError(f"--potential-file '{path}' is not a two-column table: {exc}") from exc
    if raw.shape[1] < 2:
        raise ConfigError(f"--potential-file '{path}' must have two numeric columns")
    if not np.isfinite(raw).all() or raw.shape[0] < 2:
        raise ConfigError(f"--potential-file '{path}' has non-numeric, non-finite or too few rows")
    xs, ss = raw[:, 0], raw[:, 1]
    order = np.argsort(xs)
    xs, ss = xs[order], ss[order]
    a = params.half_period
    if xs[0] > -a or xs[-1] < a:
        raise ConfigError(
            f"--potential-file '{path}' must cover [-a, a] = [{-a}, {a}], spans [{xs[0]}, {xs[-1]}]"
        )

    return (lambda x: np.interp(soliton.fold_into_cell(params, x), xs, ss)), xs


def cmd_lyapunov(args: argparse.Namespace, params: soliton.ModelParams) -> list[dict]:
    """Discriminant trace, columns `e,d,regime`."""
    if args.potential_file is not None:
        pot, knots = _tabulated_potential(args.potential_file, params)
        es = bands.energy_grid(args.e_min, args.e_max, args.samples)
        # steps on the table's rows: RK4 meets one linear piece per step
        ds = monodromy.lyapunov_numeric_many(pot, params.mass, es, params.half_period, knots=knots)
        rows = zip(es.tolist(), ds.tolist(), bands.regimes(params, es))
    else:
        rows = bands.lyapunov_trace(params, args.e_min, args.e_max, args.samples)
    return [{"e": e, "d": d, "regime": r} for e, d, r in rows]


def _band_table(args: argparse.Namespace, params: soliton.ModelParams) -> bands.BandTable:
    """The band table over [-e, e], e = max(|e_min|, |e_max|); a window
    too wide for the edge scan is rejected before any work."""
    e_max = max(abs(args.e_min), abs(args.e_max))
    try:
        bands.check_scan_window(params, e_max)
    except ValueError as exc:
        raise ConfigError(f"--emin/--emax: {exc}") from exc
    return bands.band_edges(params, e_max=e_max, tol=args.tol)


def cmd_bands(args: argparse.Namespace, params: soliton.ModelParams) -> dict:
    """Band table; `--verify` adds the per-edge oracle residual."""
    table = _band_table(args, params)
    want_negative = args.e_min < 0
    edges = [e for e in table.edges if want_negative or e >= 0]
    bands_out = [b for b in table.bands if want_negative or b.e_hi > 0]
    # energies at round-trip precision: 12 digits can move |D| - 2 at the
    # edge of a narrow band by 1e-5.  e_max too, since the last band's
    # e_hi equals it and a band ending below e_max reads as complete
    data = {
        "edges": [float(e) for e in edges],
        "bands": [
            {"e_lo": float(b.e_lo), "e_hi": float(b.e_hi), "kind": b.kind}
            for b in bands_out
        ],
        "e_max": float(table.e_max),
        "tol": _round12(table.tol),
    }
    if args.verify:
        pot = soliton.periodized_potential(params)
        edge_arr = np.array(edges, dtype=float)
        closed = bands.lyapunov_many(params, edge_arr)
        numeric = monodromy.lyapunov_numeric_many(pot, params.mass, edge_arr, params.half_period)
        data["verification"] = [
            {
                "edge": float(e),
                "closed": _round12(float(c)),
                "oracle": _round12(float(o)),
                "residual": _round12(abs(float(c) - float(o))),
            }
            for e, c, o in zip(edge_arr, closed, numeric)
        ]
    return data


def cmd_dispersion(args: argparse.Namespace, params: soliton.ModelParams) -> list[dict]:
    """Dispersion samples for one allowed band, columns `k,e`.

    Bands are indexed over the allowed bands with e_lo >= 0, in
    increasing energy; index 0 is the lowest positive band.
    """
    table = _band_table(args, params)
    allowed = table.allowed_bands(positive_only=True)
    if not 0 <= args.band_index < len(allowed):
        raise ConfigError(
            f"--band-index {args.band_index} out of range; table has {len(allowed)} "
            "positive allowed bands"
        )
    points = bands.dispersion(params, allowed[args.band_index], args.samples)
    return [{"k": k, "e": e} for e, k in points]


def cmd_verify(args: argparse.Namespace, params: soliton.ModelParams) -> dict:
    """Run the self-check suite and print one summary line per check."""
    report = verify.report_dict(params, verify.run_verification(params))
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(
            f"{status}  {check['name']}: residual {check['residual']:.3e} "
            f"(threshold {check['threshold']:.1e})  {check['detail']}"
        )
    return report


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
    sub.add_parser("verify", parents=[common], help="run the self-check suite")
    return parser


_COMMANDS = {
    "potential": cmd_potential,
    "lyapunov": cmd_lyapunov,
    "bands": cmd_bands,
    "dispersion": cmd_dispersion,
    "verify": cmd_verify,
}


#: main's parser, built on its first call (not at import) and then reused
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()  # parse_args keeps no state between calls
    try:
        args = _parser.parse_args(argv)
        if args.output_format is None:
            args.output_format = "json" if args.command in JSON_ONLY else "csv"
        elif args.output_format == "csv" and args.command in JSON_ONLY:
            raise ConfigError(f"--format: the {args.command} artifact is JSON only")
        params = _model(args)
        _check_sampling(args)
        data = _COMMANDS[args.command](args, params)
        # verify's stdout is its summary; its report is written only to a file
        if args.command != "verify" or args.out != "-":
            _write_artifact(args, params, data)
        if args.command == "verify" and not data["passed"]:
            return EXIT_VERIFICATION
        return EXIT_OK
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
