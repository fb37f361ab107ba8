import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import count_crossings, with_alpha
from diracband import ModelParams, band_edges, cli, lyapunov_many, potential_s1
from diracband.errors import StepCountTooSmall
from diracband.verify import REFERENCE_EDGES


def run(args, tmp_path=None, name="out"):
    """Invoke the CLI in-process; returns (exit_code, artifact_text)."""
    path = None
    if tmp_path is not None:
        path = tmp_path / name
        args = args + ["--out", str(path)]
    code = cli.main(args)
    text = path.read_text(encoding="utf-8") if path is not None and path.exists() else ""
    return code, text


@pytest.fixture(scope="module")
def schema():
    with resources.files("diracband").joinpath("schemas/artifact.schema.json").open() as fh:
        return json.load(fh)


def validate(doc, schema):
    jsonschema.validate(doc, schema)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestPotentialCommand:
    def test_rows_header_and_minimum(self, tmp_path):
        code, text = run(["potential", "--samples", "601"], tmp_path)
        assert code == 0
        header, rows = parse_csv(text)
        assert header == ["x", "s1"]
        assert len(rows) == 601
        xs = np.array([float(r[0]) for r in rows])
        ss = np.array([float(r[1]) for r in rows])
        assert xs[0] == -3.0 and xs[-1] == 3.0  # three full periods
        # minima of -2 at the lattice points x = -2, 0, 2
        for lattice in (-2.0, 0.0, 2.0):
            i = int(np.argmin(np.abs(xs - lattice)))
            assert ss[i] == pytest.approx(-2.0, abs=1e-9)
        assert ss.min() >= -2.0 - 1e-12

    def test_periodicity_of_profile(self, tmp_path):
        code, text = run(["potential", "--samples", "241"], tmp_path)
        _, rows = parse_csv(text)
        xs = np.array([float(r[0]) for r in rows])
        ss = np.array([float(r[1]) for r in rows])
        period_shift = 80  # 240 intervals over 6 length units -> 2.0 is 80 steps
        assert np.allclose(ss[:-period_shift], ss[period_shift:], atol=1e-9)

    def test_deterministic_output(self, tmp_path):
        _, first = run(["potential", "--samples", "101"], tmp_path, "a.csv")
        _, second = run(["potential", "--samples", "101"], tmp_path, "b.csv")
        assert first == second

    def test_json_format_validates(self, tmp_path, schema):
        code, text = run(["potential", "--samples", "11", "--format", "json"], tmp_path, "p.json")
        assert code == 0
        doc = json.loads(text)
        validate(doc, schema)
        assert doc["meta"]["kind"] == "potential"
        assert len(doc["data"]) == 11


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("ly") / "trace.csv"
    code = cli.main(["lyapunov", "--emin", "0", "--emax", "7", "--samples", "701",
                     "--out", str(path)])
    assert code == 0
    return path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def bands_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("bands") / "bands.json"
    code = cli.main(["bands", "--emin", "-7", "--emax", "7", "--verify", "--out", str(path)])
    assert code == 0
    return json.loads(path.read_text(encoding="utf-8"))


class TestLyapunovCommand:
    def test_header_and_regimes(self, trace_csv):
        header, rows = parse_csv(trace_csv)
        assert header == ["e", "d", "regime"]
        for e_s, _, regime in rows:
            e = float(e_s)
            if abs(e - 2.0) < 1e-9:
                assert regime == "limit"
            elif e > 2.0:
                assert regime == "propagating"
            else:
                assert regime == "evanescent"

    def test_crossings_bracket_every_reference_edge(self, trace_csv):
        _, rows = parse_csv(trace_csv)
        es = np.array([float(r[0]) for r in rows])
        ds = np.array([float(r[1]) for r in rows])
        for ref in REFERENCE_EDGES:
            window = (es > ref - 0.011) & (es < ref + 0.011)
            assert count_crossings(ds[window]) >= 1, f"no |D|=2 crossing near {ref}"
        # total count on [0, 7] is nine: the eight reference edges plus the
        # gap edge at 6.3654, both evaluation paths agree on it
        assert count_crossings(ds) == 9

    def test_symmetric_range_writes_even_trace(self, tmp_path):
        code, text = run(["lyapunov", "--emin", "-4", "--emax", "4", "--samples", "41"], tmp_path)
        assert code == 0
        _, rows = parse_csv(text)
        ds = [float(r[1]) for r in rows]
        assert all(abs(a - b) < 1e-10 for a, b in zip(ds, reversed(ds)))

    def test_symmetric_tabulated_trace_is_exactly_even(self, tmp_path, canonical):
        # the grid's first half is the exact negation of its last half, so
        # E and -E share one oracle integration and D matches bit for bit
        xs = np.linspace(-1.0, 1.0, 401)
        table = tmp_path / "pot.csv"
        table.write_text(
            "\n".join(f"{x:.17g},{s:.17g}" for x, s in zip(xs, potential_s1(canonical, xs))),
            encoding="utf-8",
        )
        args = cli.build_parser().parse_args(
            ["lyapunov", "--potential-file", str(table), "--emin", "-7", "--emax", "7"])
        columns = cli.cmd_lyapunov(args, canonical)
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        es = np.array([row["e"] for row in rows])
        ds = np.array([row["d"] for row in rows])
        assert len(rows) == 701 and np.array_equal(es, -es[::-1])
        assert ds.tobytes() == ds[::-1].tobytes()

    def test_tabulated_potential_matches_closed_form(self, tmp_path, canonical):
        xs = np.linspace(-1.0, 1.0, 4001)
        ss = potential_s1(canonical, xs)
        table = tmp_path / "pot.csv"
        table.write_text(
            "x,s\n" + "\n".join(f"{x:.12g},{s:.12g}" for x, s in zip(xs, ss)),
            encoding="utf-8",
        )
        out = tmp_path / "trace.csv"
        code = cli.main(["lyapunov", "--potential-file", str(table), "--emin", "0.5",
                         "--emax", "6.5", "--samples", "13", "--out", str(out)])
        assert code == 0
        _, rows = parse_csv(out.read_text(encoding="utf-8"))
        from diracband import lyapunov_many

        es = np.array([float(r[0]) for r in rows])
        ds = np.array([float(r[1]) for r in rows])
        assert np.abs(ds - lyapunov_many(canonical, es)).max() < 1e-4

    def test_missing_potential_file(self, tmp_path):
        code, _ = run(["lyapunov", "--potential-file", str(tmp_path / "nope.csv")], tmp_path)
        assert code == 2

    def test_short_potential_file_rejected(self, tmp_path):
        table = tmp_path / "short.csv"
        table.write_text("x,s\n0.0,1.0\n0.5,1.0\n", encoding="utf-8")
        code, _ = run(["lyapunov", "--potential-file", str(table)], tmp_path)
        assert code == 1

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_non_finite_potential_file_rejected(self, tmp_path, value):
        table = tmp_path / "inf.csv"
        table.write_text(f"x,s\n-1.0,0.0\n0.0,{value}\n1.0,0.0\n", encoding="utf-8")
        code, _ = run(["lyapunov", "--potential-file", str(table)], tmp_path)
        assert code == 1

    def test_tabulated_trace_labels_the_mass_shell_limit(self, tmp_path, canonical):
        # both trace paths share one regime rule: E = m is "limit"
        xs = np.linspace(-1.0, 1.0, 401)
        table = tmp_path / "pot.csv"
        table.write_text(
            "\n".join(f"{x:.12g},{s:.12g}" for x, s in zip(xs, potential_s1(canonical, xs))),
            encoding="utf-8",
        )
        code, text = run(["lyapunov", "--potential-file", str(table), "--emin", "0",
                          "--emax", "4", "--samples", "5"], tmp_path)
        assert code == 0
        _, rows = parse_csv(text)
        assert [r[2] for r in rows] == [
            "evanescent", "evanescent", "limit", "propagating", "propagating"]

    def test_comments_before_the_header(self, tmp_path, canonical):
        xs = np.linspace(-1.0, 1.0, 401)
        rows = "\n".join(f"{x:.17g},{s:.17g}" for x, s in zip(xs, potential_s1(canonical, xs)))
        (tmp_path / "plain.csv").write_text(rows + "\n", encoding="utf-8")
        (tmp_path / "commented.csv").write_text("# a soliton\n\nx,S # columns\n" + rows, encoding="utf-8")
        args = ["lyapunov", "--emax", "4", "--samples", "9", "--potential-file"]
        plain = run(args + [str(tmp_path / "plain.csv")], tmp_path, "a.csv")
        commented = run(args + [str(tmp_path / "commented.csv")], tmp_path, "b.csv")
        assert plain[0] == 0 and plain == commented

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "x,s\n", "# only a comment\n", "-1.0\n0.0\n1.0\n"])
    def test_potential_file_without_two_columns_rejected(self, tmp_path, text, capsys):
        table = tmp_path / "empty.csv"
        table.write_text(text, encoding="utf-8")
        code, _ = run(["lyapunov", "--potential-file", str(table)], tmp_path)
        assert code == 1
        assert "must have two numeric columns" in capsys.readouterr().err

    def test_non_numeric_cell_rejected(self, tmp_path, capsys):
        table = tmp_path / "cell.csv"
        table.write_text("x,s\n-1.0,0.0\n0.0,abc\n1.0,0.0\n", encoding="utf-8")
        code, _ = run(["lyapunov", "--potential-file", str(table)], tmp_path)
        assert code == 1
        assert "is not a two-column table" in capsys.readouterr().err

    def test_ragged_potential_file_rejected(self, tmp_path):
        table = tmp_path / "ragged.csv"
        table.write_text("x,s\n-1.0,0.0\n0.0,0.0,5.0\n1.0,0.0\n", encoding="utf-8")
        code, _ = run(["lyapunov", "--potential-file", str(table)], tmp_path)
        assert code == 1


class TestBandsCommand:
    def test_schema(self, bands_doc, schema):
        validate(bands_doc, schema)
        assert bands_doc["meta"]["kind"] == "bands"
        assert bands_doc["params"]["lambda"] == pytest.approx(1.0)

    def test_reference_edges(self, bands_doc):
        pos = [e for e in bands_doc["data"]["edges"] if e > 0]
        for found, ref in zip(pos, REFERENCE_EDGES):
            assert abs(found - ref) < 2e-3

    def test_mirrored_negative_edges(self, bands_doc):
        edges = bands_doc["data"]["edges"]
        neg = sorted(-e for e in edges if e < 0)
        pos = sorted(e for e in edges if e > 0)
        assert neg == pos

    def test_verify_at_high_energy(self, tmp_path):
        # the oracle's first count follows |E| up to 100 (8000 steps), so no
        # count drifts; the fixed 20000-step oracle answered them too
        code, text = run(["bands", "--verify", "--emax", "100"], tmp_path, "b.json")
        assert code == 0
        residuals = [v["residual"] for v in json.loads(text)["data"]["verification"]]
        assert len(residuals) == 127 and max(residuals) < 1e-8

    @pytest.mark.xfail(strict=True, raises=StepCountTooSmall, reason=(
        "ROADMAP item 10: at E = +-lambda of this wide cell max|M_ij| is about 9e30, and since "
        "_BLOCK_ELEMENTS became 2**12 the oracle's det drifts past 1e-6 at the 32000-step cap"))
    def test_verify_in_a_wide_cell(self, tmp_path, capsys):
        # exited 0 at _BLOCK_ELEMENTS = 2**11; the drift depends on how the steps are
        # grouped and on numpy's SIMD loops: 5.83e-06 with its AVX-512 loops, 1.75e-05
        # without.  Only that failure is expected; any other fails the test
        code, _ = run(["bands", "--verify", "--mass", "2", "--gamma", "1", "--half-period", "50"],
                      tmp_path, "b.json")
        err = capsys.readouterr().err
        if code == cli.EXIT_COMPUTATION and "det drifted by" in err:
            raise StepCountTooSmall(err.strip())
        assert code == cli.EXIT_OK, err

    def test_narrow_band_edges_round_trip(self, tmp_path):
        # an allowed band 7e-7 wide at E = 2.5396: rounded to 12 digits its
        # upper edge reads |D| - 2 = 1.7e-5
        params = ModelParams(3.916126470242469, 2.9810453672304136, 2.9369025569032225)
        e_max = params.mass + 5.0
        code, text = run(["bands", "--mass", repr(params.mass), "--gamma", repr(params.gamma),
                          "--half-period", repr(params.half_period), "--emin", repr(-e_max),
                          "--emax", repr(e_max), "--verify"], tmp_path, "b.json")
        assert code == 0
        data = json.loads(text)["data"]
        table = band_edges(params, e_max=e_max, tol=1e-6)
        assert data["edges"] == list(table.edges)
        assert [v["edge"] for v in data["verification"]] == data["edges"]
        assert [(b["e_lo"], b["e_hi"]) for b in data["bands"]] == [
            (b.e_lo, b.e_hi) for b in table.bands]
        # the last band ends at e_max, so it stays incomplete
        assert data["e_max"] == table.e_max == data["bands"][-1]["e_hi"]
        edges = np.array(data["edges"])
        assert np.max(np.abs(np.abs(lyapunov_many(params, edges)) - 2.0)) < 1e-6

    def test_oracle_residuals(self, bands_doc):
        checks = bands_doc["data"]["verification"]
        assert len(checks) == len(bands_doc["data"]["edges"])
        assert all(c["residual"] < 1e-6 for c in checks)

    def test_positive_only_when_emin_nonnegative(self, tmp_path):
        code, text = run(["bands", "--emin", "0", "--emax", "7"], tmp_path, "b.json")
        assert code == 0
        doc = json.loads(text)
        assert all(e >= 0 for e in doc["data"]["edges"])

    def test_csv_format_rejected(self, tmp_path, capsys):
        code, _ = run(["bands", "--format", "csv"], tmp_path)
        assert code == 1
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        _, a = run(["bands", "--emax", "4"], tmp_path, "a.json")
        _, b = run(["bands", "--emax", "4"], tmp_path, "b.json")
        assert a == b


class TestDispersionCommand:
    def test_lowest_band_artifact(self, tmp_path):
        code, text = run(
            ["dispersion", "--band-index", "0", "--samples", "41"], tmp_path, "disp.csv"
        )
        assert code == 0
        header, rows = parse_csv(text)
        assert header == ["k", "e"]
        ks = [float(r[0]) for r in rows]
        es = [float(r[1]) for r in rows]
        assert abs(ks[0]) < 1e-9
        assert abs(ks[-1] - math.pi / 2) < 1e-9
        assert es[0] == pytest.approx(0.738, abs=2e-3)
        assert es[-1] == pytest.approx(1.381, abs=2e-3)
        assert all(b > a for a, b in zip(ks[:-1], ks[1:]))

    def test_round_trip_relation(self, tmp_path, canonical):
        # written rows are quantized to 12 significant digits; through
        # cos(2K) and the local slope of D that budgets ~1e-11, against
        # the unquantized 1e-12 round trip checked at API level
        _, text = run(["dispersion", "--samples", "21"], tmp_path, "d.csv")
        _, rows = parse_csv(text)
        from diracband import lyapunov

        for k_s, e_s in rows[1:-1]:
            assert abs(math.cos(2 * float(k_s)) - lyapunov(canonical, float(e_s)) / 2) < 2e-11

    def test_band_index_out_of_range(self, tmp_path):
        code, _ = run(["dispersion", "--band-index", "99"], tmp_path)
        assert code == 1

    def test_json_validates(self, tmp_path, schema):
        code, text = run(
            ["dispersion", "--samples", "5", "--format", "json"], tmp_path, "d.json"
        )
        assert code == 0
        validate(json.loads(text), schema)


@pytest.mark.parametrize("args", [
    ["potential", "--samples", "21"],
    ["lyapunov", "--emin", "-3", "--emax", "3", "--samples", "31"],
    ["dispersion", "--band-index", "1", "--samples", "21"],
], ids=lambda args: args[0])
def test_csv_and_json_rows_agree(tmp_path, schema, args):
    _, csv_text = run(args, tmp_path, "rows.csv")
    _, json_text = run(args + ["--format", "json"], tmp_path, "rows.json")
    header, rows = parse_csv(csv_text)
    doc = json.loads(json_text)
    validate(doc, schema)
    assert doc["meta"]["kind"] == args[0]
    assert len(doc["data"]) == len(rows)
    for record, row in zip(doc["data"], rows):
        assert sorted(record) == sorted(header)
        for column, text in zip(header, row):
            assert record[column] == (text if column == "regime" else float(text))


class TestVerifyCommand:
    def test_default_parameters_pass(self, tmp_path, schema, capsys):
        path = tmp_path / "report.json"
        code = cli.main(["verify", "--out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        doc = json.loads(path.read_text(encoding="utf-8"))
        validate(doc, schema)
        assert doc["data"]["passed"] is True
        names = {c["name"] for c in doc["data"]["checks"]}
        assert {"wronskian-unity", "lyapunov-evenness", "dirac-residual",
                "intertwining", "oracle-equivalence", "band-edge-regression"} <= names

    @pytest.mark.parametrize("model", [
        ["--mass", "2", "--lambda", "1.42"],  # E = 1.42 of wronskian-unity is +-lam
        ["--mass", "4", "--lambda", "3"],  # E = 3 of dirac-residual is +-lam
        ["--mass", "2", "--gamma", "1.9999999"],  # lam = 6.3e-4, cancelling in m^2 - gamma^2
    ])
    def test_sets_at_the_fixed_energies_pass(self, tmp_path, capsys, model):
        code, text = run(["verify", *model], tmp_path, "report.json")
        assert "FAIL" not in capsys.readouterr().out
        assert code == 0 and json.loads(text)["data"]["passed"] is True

    def test_one_band_table_for_both_table_checks(self, canonical, monkeypatch):
        band_edges_calls = []
        build = cli.verify.bands.band_edges
        monkeypatch.setattr(cli.verify.bands, "band_edges",
                            lambda *a, **k: band_edges_calls.append(a) or build(*a, **k))
        names = [r.name for r in cli.verify.run_verification(canonical)]
        assert len(band_edges_calls) == 1
        assert {"band-table-structure", "band-edge-regression"} <= set(names)

    def test_corrupted_alpha_fails_regression(self, tmp_path, capsys, monkeypatch):
        run_verification = cli.verify.run_verification

        def corrupted(params, **kwargs):
            return run_verification(with_alpha(params, 1.1 * params.alpha), **kwargs)

        monkeypatch.setattr(cli.verify, "run_verification", corrupted)
        path = tmp_path / "report.json"
        code = cli.main(["verify", "--out", str(path)])
        capsys.readouterr()
        assert code == 3
        doc = json.loads(path.read_text(encoding="utf-8"))
        regression = [c for c in doc["data"]["checks"] if c["name"] == "band-edge-regression"]
        assert regression and regression[0]["passed"] is False


class TestValidation:
    def test_both_lambda_and_gamma_rejected(self):
        assert cli.main(["potential", "--lambda", "1", "--gamma", "1"]) == 1

    def test_gamma_out_of_range(self):
        assert cli.main(["potential", "--gamma", "2.5"]) == 1

    def test_lambda_out_of_range(self):
        assert cli.main(["potential", "--lambda", "0"]) == 1

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_bad_mass_is_named_before_lambda(self, value, capsys):
        # --lambda defaults to 1, whose range check depends on the mass
        assert cli.main(["bands", "--mass", value]) == 1
        assert capsys.readouterr().err.startswith("error: mass must be positive and finite")

    def test_bad_energy_window(self):
        assert cli.main(["lyapunov", "--emin", "3", "--emax", "1"]) == 1

    def test_too_few_samples(self):
        assert cli.main(["lyapunov", "--samples", "1"]) == 1

    def test_nonpositive_tol(self, capsys):
        # the table tolerance is fixed: --tol is refused, whatever its value
        assert cli.main(["bands", "--tol", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: diracband bands") and "unrecognized arguments: --tol 0" in err

    def test_unknown_flag(self):
        assert cli.main(["potential", "--frequency", "3"]) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--mass", "nan"), ("--mass", "inf"), ("--half-period", "nan"), ("--half-period", "inf"),
        ("--tol", "nan"), ("--emin", "-inf"), ("--emax", "inf"),
    ])
    def test_non_finite_rejected(self, flag, value, capsys):
        assert cli.main(["bands", flag, value]) == 1
        if flag == "--tol":  # no option of bands: refused before any value is read
            err = capsys.readouterr().err
            assert err.startswith("usage: diracband bands") and "unrecognized arguments: --tol nan" in err

    @pytest.mark.parametrize("command,window", [
        ("bands", ["--emin", "0", "--emax", "2.5"]), ("lyapunov", ["--emin", "0", "--emax", "1"]),
    ])
    def test_wide_cell_is_a_computation_error(self, tmp_path, command, window, capsys):
        # 2a kappa passes 709 at E = 0: cosh overflows, and D would read NaN
        path = tmp_path / "out"
        code = cli.main([command, "--mass", "2", "--gamma", "1.5", "--half-period", "300",
                         *window, "--out", str(path)])
        assert code == 2 and not path.exists()
        assert "D is not finite at E=0.0" in capsys.readouterr().err

    def test_overflowing_energy_is_a_computation_error(self, tmp_path, capsys):
        # above the mass there is no cosh: D is finite up to |E| ~ 1.34e154,
        # and past it E^2 overflows
        path = tmp_path / "out"
        code = cli.main(["lyapunov", "--emin", "0", "--emax", "1e160", "--samples", "5",
                         "--out", str(path)])
        assert code == 2 and not path.exists()
        err = capsys.readouterr().err
        assert "D is not finite at E=2.5e+159: E^2 overflows" in err and "cosh" not in err

    @pytest.mark.parametrize("argv,expected", [
        (["verify", "--mass", "100", "--gamma", "50", "--half-period", "50"], 2),
        (["potential", "--half-period", "300"], 0),
    ])
    def test_wide_cell_prints_no_numpy_warning(self, tmp_path, argv, expected, capsys):
        # cosh overflows in both cells; verify stops on the oracle's NaN det
        # drift, and the potential's -0.0 far from the kinks is its limit
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == expected
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bands", "dispersion"])
    def test_oversize_energy_window(self, command, capsys):
        # finite, so it passes the window check, but its edge scan is too large
        assert cli.main([command, "--emax", "1e308"]) == 1
        assert "--emin/--emax" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_validation_failure(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(cli.bands, "band_edges", broken)
        with pytest.raises(ValueError, match="internal"):
            cli.main(["bands"])

    def test_unwritable_output_path(self, tmp_path, capsys):
        code = cli.main(["potential", "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == 2
        assert "cannot write artifact to" in capsys.readouterr().err

    def test_console_script_writes_to_stdout(self):
        exe = shutil.which("diracband")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, "potential", "--samples", "5"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("x,s1\n")
        assert len(proc.stdout.strip().split("\n")) == 6

    def test_module_entry_writes_to_stdout(self):
        # runs where the console script is not installed: the package is
        # found through PYTHONPATH, as in a source checkout
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "diracband.cli", "potential", "--samples", "5"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("x,s1\n")
        assert len(proc.stdout.strip().split("\n")) == 6

    def test_gamma_flag_echoes_derived_lambda(self, tmp_path):
        code, text = run(["bands", "--gamma", "1.0", "--emax", "3"], tmp_path, "g.json")
        assert code == 0
        doc = json.loads(text)
        # the echo is quantized to 12 significant digits
        assert doc["params"]["lambda"] == pytest.approx(math.sqrt(3.0), abs=1e-10)
        assert doc["params"]["mass"] ** 2 == pytest.approx(
            doc["params"]["gamma"] ** 2 + doc["params"]["lambda"] ** 2, abs=1e-9
        )

    def test_derived_pair_identity_unquantized(self):
        params = cli._model(cli.build_parser().parse_args(["bands", "--gamma", "1.3"]))
        assert params.mass**2 == pytest.approx(params.gamma**2 + params.lam**2, abs=1e-12)


MODEL = ["--mass", "--lambda", "--gamma", "--half-period", "--out"]
WINDOW = ["--emin", "--emax"]
ROWS = ["--samples", "--format"]
#: every option of each subcommand: only the ones it reads
OPTIONS = {
    "potential": MODEL + ROWS,
    "lyapunov": MODEL + WINDOW + ROWS + ["--potential-file"],
    "bands": MODEL + WINDOW + ["--verify"],
    "dispersion": MODEL + WINDOW + ROWS + ["--band-index"],
    "verify": MODEL,
}


class TestOptionSurface:
    def test_each_subcommand_has_only_the_options_it_reads(self):
        parser = cli.build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert sorted(commands) == sorted(OPTIONS)
        for name, sub in commands.items():
            options = [o for a in sub._actions for o in a.option_strings]
            assert sorted(options) == sorted(["-h", "--help", *OPTIONS[name]]), name
        assert sum(map(len, OPTIONS.values())) == 40

    @pytest.mark.parametrize("command,option,value", [
        ("potential", "--emin", "0"), ("potential", "--emax", "7"), ("potential", "--tol", "1e-6"),
        ("lyapunov", "--tol", "1e-6"), ("bands", "--samples", "701"), ("bands", "--format", "json"),
        ("verify", "--emin", "0"), ("verify", "--emax", "7"), ("verify", "--samples", "701"),
        ("verify", "--tol", "1e-6"), ("verify", "--format", "json"),
        ("bands", "--tol", "1e-6"), ("dispersion", "--tol", "1e-6"), ("dispersion", "--tol", "0"),
    ])
    def test_option_not_read_is_rejected(self, tmp_path, capsys, command, option, value):
        # valid values (--tol's were, while bands took it): the option is refused, not its
        # value, under the subcommand's usage line, which lists the options it takes
        path = tmp_path / "out"
        assert cli.main([command, option, value, "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: diracband {command} [-h]")
        assert f"unrecognized arguments: {option} {value}" in err
        assert not path.exists()

    @pytest.mark.parametrize("argv,message", [
        (["frobnicate"], "invalid choice: 'frobnicate'"),
        (["--frob", "potential"], "unrecognized arguments: --frob"),
    ])
    def test_top_level_refusal_keeps_top_level_usage(self, argv, message, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: diracband [-h]") and message in err

    @pytest.mark.parametrize("argv", [
        ["potential", "--samples", "1"], ["dispersion", "--samples", "1"],
        ["dispersion", "--emin", "3", "--emax", "1"], ["bands", "--emin", "3", "--emax", "1"],
    ])
    def test_each_range_check_runs_where_its_option_is(self, argv, capsys):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {argv[1]} must")


class TestSharedParser:
    # flags of one call must not reach the next: --verify, a rejected
    # --lambda/--gamma pair and --format json, then the defaults again
    CALLS = (
        ["bands", "--verify", "--emax", "3"],
        ["potential", "--lambda", "1", "--gamma", "1"],
        ["potential", "--format", "json", "--samples", "5"],
        ["bands", "--emax", "3"],
        ["potential", "--samples", "5"],
    )

    def test_no_state_between_calls(self, monkeypatch, capsys):
        def call(argv):
            code = cli.main(argv)  # the artifact goes to stdout
            return (code, *capsys.readouterr())

        monkeypatch.setattr(cli, "_parser", None)
        shared = [call(argv) for argv in self.CALLS]
        built = cli._parser
        assert built is not None
        assert call(["potential", "--samples", "3"])[0] == 0 and cli._parser is built
        fresh = []
        for argv in self.CALLS:
            monkeypatch.setattr(cli, "_parser", cli.build_parser())
            fresh.append(call(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 1, 0, 0, 0]
        assert shared[1][2].startswith("usage: diracband potential")
        assert '"verification"' in shared[0][1] and '"verification"' not in shared[3][1]
        assert shared[2][1].startswith("{") and shared[4][1].startswith("x,s1\n")

    def test_import_builds_no_parser(self):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", "import diracband.cli as c; print(c._parser)"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0 and proc.stdout == "None\n"


def test_csv_bytes_locked(tmp_path, canonical):
    # the writer's lines are f"{v:.12g}" per float and str per text column,
    # in the rows' key order
    values = [-0.0, 1e-5, 1e16, 123456789012.5, 1e-300, 1.0 / 3.0, -2.5, 7.0]
    regimes = ["evanescent", "limit", "propagating"] * 3
    rows = [{"e": v, "d": -v / 7.0, "regime": r} for v, r in zip(values, regimes)]
    path = tmp_path / "rows.csv"
    args = argparse.Namespace(output_format="csv", out=str(path), command="lyapunov")
    cli._write_artifact(args, canonical, {k: [row[k] for row in rows] for k in rows[0]})
    lines = path.read_bytes().decode("utf-8").split("\n")
    expected = [",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row.values())
                for row in rows]
    assert lines == ["e,d,regime", *expected, ""]
    assert [line.split(",")[0] for line in lines[1:-1]] == [
        "-0", "1e-05", "1e+16", "123456789012", "1e-300", "0.333333333333", "-2.5", "7"]
    assert lines[1] == "-0,0,evanescent" and lines[2] == "1e-05,-1.42857142857e-06,limit"


def test_json_rows_bytes_locked(tmp_path, canonical):
    # the JSON counterpart on the same values: one object per row, keys
    # sorted, floats rounded to 12 significant digits, text as given
    values = [-0.0, 1e-5, 1e16, 123456789012.5, 1e-300, 1.0 / 3.0, -2.5, 7.0]
    regimes = ["evanescent", "limit", "propagating"] * 3
    rows = [{"e": v, "d": -v / 7.0, "regime": r} for v, r in zip(values, regimes)]
    path = tmp_path / "rows.json"
    args = argparse.Namespace(output_format="json", out=str(path), command="lyapunov")
    cli._write_artifact(args, canonical, {k: [row[k] for row in rows] for k in rows[0]})
    text = path.read_bytes().decode("utf-8")
    expected = {
        "params": {"mass": 2.0, "gamma": 1.73205080757, "lambda": 1.0, "half_period": 1.0},
        "data": [{"d": float(f"{-v / 7.0:.12g}"), "e": float(f"{v:.12g}"), "regime": r}
                 for v, r in zip(values, regimes)],
        "meta": {"version": cli.__version__, "kind": "lyapunov"},
    }
    assert text == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    data = json.loads(text)["data"]
    assert [row["e"] for row in data] == [
        -0.0, 1e-05, 1e16, 123456789012.0, 1e-300, 0.333333333333, -2.5, 7.0]
    assert math.copysign(1.0, data[0]["e"]) == -1.0 and data[1]["d"] == -1.42857142857e-06
    assert '"e": 123456789012.0' in text and '"e": 1e+16' in text


class TestOverwrite:
    """--out over an existing file: rewritten in place, then cut to length."""

    @pytest.mark.parametrize("args", [
        ["potential", "--samples", "21"],
        ["potential", "--samples", "21", "--format", "json"],
        ["lyapunov", "--emin", "-3", "--emax", "3", "--samples", "31"],
        ["lyapunov", "--emin", "-3", "--emax", "3", "--samples", "31", "--format", "json"],
        ["dispersion", "--band-index", "1", "--samples", "21"],
        ["dispersion", "--band-index", "1", "--samples", "21", "--format", "json"],
        ["bands", "--emin", "-4", "--emax", "4"],
        ["bands", "--emin", "-4", "--emax", "4", "--verify"],
        ["verify"],
    ], ids=["potential-csv", "potential-json", "lyapunov-csv", "lyapunov-json", "dispersion-csv",
            "dispersion-json", "bands", "bands-verify", "verify"])
    def test_stale_file_gives_fresh_bytes(self, tmp_path, args, capsys):
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        assert cli.main([*args, "--out", str(fresh)]) == 0
        expected = fresh.read_bytes()
        for size in (len(expected) + 4099, len(expected) // 2):
            stale.write_bytes(b"#" * size)
            assert cli.main([*args, "--out", str(stale)]) == 0
            assert stale.read_bytes() == expected
        capsys.readouterr()

    def test_keeps_inode_mode_and_links(self, tmp_path):
        path, link = tmp_path / "x.csv", tmp_path / "link.csv"
        path.write_bytes(b"#" * 5000)
        path.chmod(0o640)
        os.link(path, link)
        before = path.stat()
        assert cli.main(["potential", "--samples", "5", "--out", str(path)]) == 0
        after = path.stat()
        assert (after.st_ino, after.st_mode, after.st_nlink) == (
            before.st_ino, before.st_mode, before.st_nlink)
        assert link.read_bytes() == path.read_bytes()
        assert path.read_text().startswith("x,s1\n") and len(path.read_text()) < 5000

    def test_new_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "x.csv"
        assert cli.main(["potential", "--samples", "5", "--out", str(path)]) == 0
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_devnull(self):
        assert cli.main(["potential", "--samples", "5", "--out", os.devnull]) == 0

    def test_failed_write_leaves_no_stale_tail(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "x.csv"
        path.write_bytes(b"#" * 100_000)
        write, calls = os.write, []

        def first_chunk_then_full(fd, data):  # a short write, then the disk is full
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            return write(fd, data[:64])

        monkeypatch.setattr(os, "write", first_chunk_then_full)
        code = cli.main(["potential", "--samples", "21", "--out", str(path)])
        monkeypatch.undo()
        assert code == 2 and len(calls) == 2
        assert "cannot write artifact to" in capsys.readouterr().err
        _, expected = run(["potential", "--samples", "21"], tmp_path, "fresh.csv")
        assert path.read_bytes() == expected.encode("utf-8")[:64]
