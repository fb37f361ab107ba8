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
import os
import stat
import sys

import numpy as np

from . import __version__, bands, monodromy, soliton, verify
from .errors import DiracBandError, ScanWindowTooWide

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTATION = 2
EXIT_VERIFICATION = 3


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


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
    """The ranges no model holds, of the options the command has: window, --samples."""
    if "e_min" in args and not -math.inf < args.e_min < args.e_max < math.inf:
        raise ConfigError(
            f"--emin must be below --emax, both finite, got [{args.e_min}, {args.e_max}]"
        )
    if "samples" in args and args.samples < 2:
        raise ConfigError(f"--samples must be >= 2, got {args.samples}")


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _write_text(path: str, text: str) -> None:
    """Write text to path as UTF-8, or to stdout for '-'.  A file is
    rewritten in place and then cut to the bytes written, also when a write
    fails: emptying it first makes ext4 (auto_da_alloc) flush it in close()."""
    if path == "-":
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    done = 0
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            while done < len(data):
                done += os.write(fd, data[done:])
        finally:
            try:
                if stat.S_ISREG(os.fstat(fd).st_mode):  # not /dev/null or a FIFO
                    os.ftruncate(fd, done)
            finally:
                os.close(fd)
    except OSError as exc:
        raise DiracBandError(f"cannot write artifact to '{path}': {exc}") from exc


def _write_artifact(args: argparse.Namespace, params: soliton.ModelParams, data: dict) -> None:
    """Write a command's data to --out: columns (a dict of equal-length
    sequences, in column order) as CSV lines or JSON rows, per --format, the
    document of a command without --format as JSON.  Floats in columns are
    written at 12 significant digits; a document is written as given."""
    output_format = getattr(args, "output_format", None)
    if output_format == "csv":
        # one format per column, typed from its first value: "%.12g" % v is f"{v:.12g}"
        row_format = ",".join("%.12g" if isinstance(c[0], float) else "%s" for c in data.values())
        lines = [",".join(data)]
        lines.extend(map(row_format.__mod__, zip(*data.values())))
        _write_text(args.out, "\n".join(lines) + "\n")
        return
    if output_format == "json":  # columns: one object per row
        columns = [list(map(_round12, c)) if isinstance(c[0], float) else c for c in data.values()]
        data = [dict(zip(data, row)) for row in zip(*columns)]
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


def cmd_potential(args: argparse.Namespace, params: soliton.ModelParams) -> dict:
    """Periodized potential profile over three periods, columns `x,s1`."""
    a = params.half_period
    xs = np.linspace(-3.0 * a, 3.0 * a, args.samples)
    values = soliton.potential_s1(params, soliton.fold_into_cell(params, xs))
    return {"x": xs.tolist(), "s1": values.tolist()}


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


def cmd_lyapunov(args: argparse.Namespace, params: soliton.ModelParams) -> dict:
    """Discriminant trace, columns `e,d,regime`: D in closed form, or from
    the oracle on --potential-file."""
    es = bands.energy_grid(args.e_min, args.e_max, args.samples)
    if args.potential_file is None:
        ds = bands.lyapunov_trace(params, es)
    else:
        pot, knots = _tabulated_potential(args.potential_file, params)
        # steps on the table's rows: RK4 meets one linear piece per step
        ds = monodromy.lyapunov_numeric_many(pot, params.mass, es, params.half_period, knots=knots)
    return {"e": es.tolist(), "d": ds.tolist(), "regime": bands.regimes(params, es)}


def _band_table(args: argparse.Namespace, params: soliton.ModelParams) -> bands.BandTable:
    """The band table over [-e, e], e = max(|e_min|, |e_max|); a window
    too wide for the edge scan is rejected before any work."""
    e_max = max(abs(args.e_min), abs(args.e_max))
    try:
        return bands.band_edges(params, e_max=e_max)
    except ScanWindowTooWide as exc:
        raise ConfigError(f"--emin/--emax: {exc}") from exc


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
        "edges": edges,
        "bands": [{"e_lo": b.e_lo, "e_hi": b.e_hi, "kind": b.kind} for b in bands_out],
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


def cmd_dispersion(args: argparse.Namespace, params: soliton.ModelParams) -> dict:
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
    es, ks = bands.dispersion(params, allowed[args.band_index], args.samples)
    return {"k": ks.tolist(), "e": es.tolist()}


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

    def parse_known_args(self, args=None, namespace=None):
        # each parser refuses its own leftovers, so a subcommand's are
        # reported under its usage line, which lists what it does take
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    # option groups by what reads them; each subcommand takes only the groups it reads
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--mass", type=float, default=2.0, help="particle mass (default 2)")
    group = model.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="bound-state energy scale in (0, mass); default 1")
    group.add_argument("--gamma", dest="gamma", type=float, default=None,
                       help="soliton steepness in (0, mass); alternative to --lambda")
    model.add_argument("--half-period", type=float, default=1.0, dest="half_period",
                       help="half-period a of the periodization (default 1)")
    model.add_argument("--out", default="-", help="output path; '-' writes to stdout")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--emin", type=float, default=0.0, dest="e_min")
    window.add_argument("--emax", type=float, default=7.0, dest="e_max")
    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument("--samples", type=int, default=701)
    rows.add_argument("--format", dest="output_format", choices=("csv", "json"), default="csv")

    parser = _Parser(prog="diracband", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_p = sub.add_parser("potential", parents=[model, rows],
                         help="periodized potential profile over three periods")
    p_p.set_defaults(handler=cmd_potential)
    p_ly = sub.add_parser("lyapunov", parents=[model, window, rows],
                          help="discriminant trace over energy")
    p_ly.add_argument("--potential-file", dest="potential_file", default=None,
                      help="two-column CSV (x, S); switches to the ODE path")
    p_ly.set_defaults(handler=cmd_lyapunov)
    p_b = sub.add_parser("bands", parents=[model, window],
                         help="band edges and intervals (JSON)")
    p_b.add_argument("--verify", action="store_true",
                     help="add per-edge closed-form vs oracle residuals")
    p_b.set_defaults(handler=cmd_bands)
    p_d = sub.add_parser("dispersion", parents=[model, window, rows],
                         help="K(E) samples for one allowed band")
    p_d.add_argument("--band-index", dest="band_index", type=int, default=0,
                     help="0-based index among the positive allowed bands")
    p_d.set_defaults(handler=cmd_dispersion)
    p_v = sub.add_parser("verify", parents=[model], help="run the self-check suite (JSON)")
    p_v.set_defaults(handler=cmd_verify)
    return parser


#: main's parser, built on its first call (not at import) and then reused
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()  # parse_args keeps no state between calls
    try:
        args = _parser.parse_args(argv)
        params = _model(args)
        _check_sampling(args)
        # every non-finite value that could reach an artifact already exits 2
        # by an explicit check (D's finiteness, the oracle's det drift), so
        # numpy's overflow and invalid-value warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            data = args.handler(args, params)
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
