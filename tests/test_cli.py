import contextlib
import dataclasses
import inspect
import io
import json
import math
import os
import stat
import tempfile
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dgreen import cli
from dgreen.cli import (
    EXIT_ACCEPTANCE,
    EXIT_CONFIG,
    EXIT_INADMISSIBLE,
    EXIT_MEMORY,
    EXIT_OK,
    SCHEMA_VERSION,
    RunConfig,
    _atomic_write,
    _cells,
    _fmt,
    _json,
    build_parser,
    config_from_args,
    main,
    make_stencil,
)
from dgreen.approx import ApproxParams, approx_G, approx_H
from dgreen.green import (evolve, green_direct, green_spectral,
                          sample_step)
from dgreen.stencil import assumption_audit


def run(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestConfig:
    def test_named_scheme_requires_lambda(self):
        with pytest.raises(ValueError):
            RunConfig(command="coeffs", scheme="lw")

    def test_custom_requires_coefficients(self):
        with pytest.raises(ValueError):
            RunConfig(command="coeffs", scheme="custom")

    def test_custom_conflicts_with_named(self):
        with pytest.raises(ValueError):
            RunConfig(command="coeffs", scheme="lw", lam=0.5,
                      custom_coefficients=((0, 1.0, 0.0),))

    def test_make_stencil_custom_dense(self):
        cfg = RunConfig(command="coeffs", scheme="custom",
                        custom_coefficients=((2, 0.25, 0.0), (0, 0.75, 0.0)))
        s = make_stencil(cfg)
        assert s.min_offset == 0
        assert s.coefficient(1) == 0.0
        assert s.coefficient(2) == 0.25


class TestExitCodes:
    def test_missing_lambda(self, capsys):
        assert run("coeffs", "--scheme", "lw") == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    def test_lambda_out_of_range(self):
        assert run("coeffs", "--scheme", "lw", "--lambda", "1.5") == EXIT_CONFIG

    def test_bad_format_for_command(self):
        assert run("coeffs", "--scheme", "lw", "--lambda", "0.75",
                   "--format", "csv") == EXIT_CONFIG

    def test_bad_custom_triplet(self):
        assert run("coeffs", "--scheme", "custom",
                   "--custom", "0:1") == EXIT_CONFIG

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == EXIT_CONFIG
        capsys.readouterr()

    def test_require_admissible(self):
        assert run("coeffs", "--scheme", "lw", "--lambda", "1.0",
                   "--require-admissible") == EXIT_INADMISSIBLE

    def test_memory_budget(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DG_MEMORY_BUDGET_MB", "0.01")
        out = tmp_path / "g.csv"
        assert run("green", "--scheme", "lw", "--lambda", "0.75",
                   "--n", "100000", "--out", str(out)) == EXIT_MEMORY
        assert not out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1", "abc"])
    def test_invalid_memory_budget(self, tmp_path, monkeypatch, capsys,
                                   budget):
        monkeypatch.setenv("DG_MEMORY_BUDGET_MB", budget)
        out = tmp_path / "g.csv"
        assert run("green", "--scheme", "lw", "--lambda", "0.75",
                   "--n", "1000", "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: DG_MEMORY_BUDGET_MB must be a finite number of MB > 0, "
            f"got {budget!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ("green", "--n", "1000", "--method", "direct"),
        ("bounds",),
        ("bv",),
        ("evolve", "--dx", "0.5", "--t", "10"),
    ])
    @pytest.mark.parametrize("budget,code,message", [
        ("1e-9", EXIT_MEMORY, "budget is 1e-09 MB"),
        ("nan", EXIT_CONFIG, "DG_MEMORY_BUDGET_MB must be a finite number"),
    ])
    def test_direct_routes_check_budget(self, tmp_path, monkeypatch, capsys,
                                        args, budget, code, message):
        monkeypatch.setenv("DG_MEMORY_BUDGET_MB", budget)
        out = tmp_path / "o"
        assert run(*args, "--scheme", "lw", "--lambda", "0.75",
                   "--out", str(out)) == code
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ("evolve", "--dx", "0.5", "--t", "1e300"),
        ("evolve", "--dx", "1e-300", "--t", "1"),
        ("green", "--n", "1000000", "--method", "direct"),
    ])
    def test_work_cap(self, tmp_path, capsys, args):
        out = tmp_path / "o.csv"
        assert run(*args, "--scheme", "lw", "--lambda", "0.75",
                   "--out", str(out)) == EXIT_MEMORY
        assert "work cap" in capsys.readouterr().err
        assert not out.exists()

    def test_out_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.csv"
        assert run("green", "--scheme", "lw", "--lambda", "0.75",
                   "--n", "8", "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")
        assert not out.parent.exists()

    def test_nonfinite_coefficient(self, capsys):
        assert run("coeffs", "--scheme", "custom",
                   "--custom", "0:nan:0") == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    def test_custom_needs_custom_scheme(self, capsys):
        assert run("coeffs", "--custom", "0:0.5:0,1:0.5:0") == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --custom conflicts with a named scheme\n")

    @pytest.mark.parametrize("custom,n,method", [
        ("0:1e10:0,1:1:0", 100, "spectral"),
        ("0:1e10:0,1:1:0", 100, "direct"),
        ("0:2:0", 2000, "spectral"),
        ("0:2:0", 2000, "direct"),
    ])
    def test_overflow_refused_without_warnings(self, tmp_path, capsys,
                                               custom, n, method):
        out = tmp_path / "g.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("green", "--scheme", "custom", "--custom", custom,
                       "--n", str(n), "--method", method, "--out", str(out))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: G^{n} overflows: the table has non-finite values"]
        assert not out.exists()

    def test_sparse_wide_custom_is_quick(self, tmp_path):
        # Two nonzero coefficients 400000 sites apart: the audit samples
        # the symbol once per nonzero coefficient, not once per offset.
        start = time.perf_counter()
        assert run("coeffs", "--scheme", "custom",
                   "--custom", "0:0.5:0,400000:0.5:0",
                   "--out", str(tmp_path / "c.txt")) == EXIT_OK
        assert time.perf_counter() - start < 10.0

    def test_strict_growth_failure(self, tmp_path):
        out = tmp_path / "up.json"
        code = run("growth", "--scheme", "custom",
                   "--custom", "0:0.25:0,1:0.75:0",
                   "--n-list", "40,80", "--strict", "--out", str(out))
        assert code == EXIT_ACCEPTANCE
        # the report is still written before the strict gate exits
        assert json.loads(out.read_text())["accepted"] is False


class TestCoeffs:
    def test_text_output(self, capsys):
        assert run("coeffs", "--scheme", "lw", "--lambda", "0.75") == EXIT_OK
        out = capsys.readouterr().out
        assert "alpha         0.75" in out
        assert "c3            0.0546875" in out
        assert "admissible    true" in out

    def test_json_output(self, capsys):
        assert run("coeffs", "--scheme", "bw", "--lambda", "0.5",
                   "--format", "json") == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1
        assert data["c3"] == pytest.approx(-0.0625)
        assert data["admissible"] is True

    def test_upwind_kappa2_reported(self, capsys):
        assert run("coeffs", "--scheme", "custom",
                   "--custom", "0:0.25:0,1:0.75:0",
                   "--format", "json") == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["kappa2"] == pytest.approx(0.1875)
        assert data["admissible"] is False


class TestGreen:
    def test_header_and_rows(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("green", "--scheme", "lw", "--lambda", "0.75",
                   "--n", "1", "--method", "direct", "--out", str(out)) == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["j", "re", "im", "abs", "approx_G", "approx_H"]
        assert [r[0] for r in rows] == ["-1", "0", "1"]
        assert float(rows[0][1]) == -0.09375
        assert float(rows[2][1]) == 0.65625

    def test_direct_vs_spectral_files(self, tmp_path):
        args = ("green", "--scheme", "lw", "--lambda", "0.75", "--n", "50")
        d_path = tmp_path / "d.csv"
        s_path = tmp_path / "s.csv"
        assert run(*args, "--method", "direct", "--out", str(d_path)) == EXIT_OK
        assert run(*args, "--method", "spectral", "--out", str(s_path)) == EXIT_OK
        _, d_rows = read_csv(d_path)
        _, s_rows = read_csv(s_path)
        for dr, sr in zip(d_rows, s_rows):
            assert dr[0] == sr[0]
            for k in (1, 2, 3, 4, 5):
                assert abs(float(dr[k]) - float(sr[k])) <= 1e-10

    def test_inadmissible_leaves_approx_empty(self, tmp_path):
        out = tmp_path / "shift.csv"
        assert run("green", "--scheme", "lw", "--lambda", "1.0",
                   "--n", "3", "--out", str(out)) == EXIT_OK
        _, rows = read_csv(out)
        assert all(r[4] == "" and r[5] == "" for r in rows)

    def test_negative_c3_leaves_airy_empty(self, tmp_path):
        out = tmp_path / "bw.csv"
        assert run("green", "--scheme", "bw", "--lambda", "0.5",
                   "--n", "8", "--out", str(out)) == EXIT_OK
        _, rows = read_csv(out)
        assert all(r[5] == "" for r in rows)
        assert any(r[4] != "" for r in rows)

    def test_json_format(self, tmp_path):
        out = tmp_path / "g.json"
        assert run("green", "--scheme", "lw", "--lambda", "0.75",
                   "--n", "4", "--format", "json", "--out", str(out)) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1
        assert data["j"][0] == -4
        assert len(data["re"]) == 9
        assert data["approx_H"] is not None

    def test_requires_n(self):
        assert run("green", "--scheme", "lw", "--lambda", "0.75") == EXIT_CONFIG


def reference_artifact(argv):
    """The artifact of `coeffs` or `green` as the per-cell loops and
    json.dumps(indent=2) wrote it, from the same library results."""
    cfg = config_from_args(build_parser().parse_args(argv))
    s = make_stencil(cfg)
    audit = assumption_audit(s)
    if cfg.command == "coeffs":
        e = audit.expansion
        if cfg.output_format != "json":
            lines = [f"stencil       {s.label or 'custom'}"]
            for offset, c in zip(s.offsets, s.coefficients):
                lines.append(f"a[{offset:+d}]        {_fmt(c.real)}"
                             + (f" {_fmt(c.imag)}i" if c.imag else ""))
            lines += [
                f"alpha         {_fmt(e.alpha)}",
                f"kappa2        {_fmt(e.kappa2)}",
                f"c3            {_fmt(e.c3)}",
                f"c4            {_fmt(e.c4)}",
                f"residual5     {_fmt(e.residual5)}",
                f"sums_to_one   {str(audit.sums_to_one).lower()}",
                f"dissipative   {str(audit.dissipative).lower()}"
                f" (margin {_fmt(audit.min_margin)})",
                f"admissible    {str(audit.admissible).lower()}",
            ]
            return "\n".join(lines) + "\n"
        fields = {**dataclasses.asdict(e),
                  "sums_to_one": audit.sums_to_one,
                  "dissipative": audit.dissipative,
                  "min_margin": audit.min_margin,
                  "admissible": audit.admissible}
    else:
        table = (green_direct(s, cfg.n) if cfg.method == "direct"
                 else green_spectral(s, cfg.n))
        offsets, values = table.offsets, table.values
        g_col = h_col = None
        if audit.admissible:
            params = ApproxParams.from_expansion(audit.expansion)
            g_col = approx_G(params, cfg.n, offsets)
            if params.c3_sign > 0:
                h_col = approx_H(params, cfg.n, offsets)
        if cfg.output_format != "json":
            lines = [f"# dgreen green {cli._scheme_meta(cfg)} n={cfg.n} "
                     f"method={table.method}",
                     "j,re,im,abs,approx_G,approx_H"]
            mags = np.abs(values)
            for k, j in enumerate(offsets):
                g_s = _fmt(g_col[k]) if g_col is not None else ""
                h_s = _fmt(h_col[k]) if h_col is not None else ""
                lines.append(f"{int(j)},{_fmt(values[k].real)},"
                             f"{_fmt(values[k].imag)},{_fmt(mags[k])},"
                             f"{g_s},{h_s}")
            return "\n".join(lines) + "\n"
        fields = {
            "n": cfg.n,
            "method": table.method,
            "j": [int(j) for j in offsets],
            "re": [float(v.real) for v in values],
            "im": [float(v.imag) for v in values],
            "abs": [float(a) for a in np.abs(values)],
            "approx_G": None if g_col is None else [float(v) for v in g_col],
            "approx_H": None if h_col is None else [float(v) for v in h_col],
        }
    stencil = {"label": s.label,
               "coefficients": [[int(o), float(c.real), float(c.imag)]
                                for o, c in zip(s.offsets, s.coefficients)]}
    report = {"schema_version": SCHEMA_VERSION, "command": cfg.command,
              "stencil": stencil, **fields}
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


_LW = ("--scheme", "lw", "--lambda", "0.75")
_BW = ("--scheme", "bw", "--lambda", "1.5")
_COMPLEX = ("--scheme", "custom",
            "--custom=-1:0.25:0.05,0:0.5:-0.05,1:0.25:0")


class TestWriters:
    """The bulk writers give the bytes of the per-cell reference."""

    @pytest.mark.parametrize("argv", [
        ("green", *_LW, "--n", "20000"),        # c3 > 0, zeros outside
        ("green", *_BW, "--n", "20000"),        # the window
        ("green", "--scheme", "bw", "--lambda", "0.5", "--n", "3000"),
        ("green", "--scheme", "custom", "--custom", "0:0.25:0,1:0.75:0",
         "--n", "500"),                         # inadmissible
        ("green", *_COMPLEX, "--n", "300"),
        ("green", "--scheme", "custom", "--custom=0:-0.0:1", "--n", "5"),
        ("green", *_LW, "--n", "300", "--method", "direct"),
        ("green", *_BW, "--n", "1"),
        ("coeffs", *_LW),
        ("coeffs", *_COMPLEX),
        ("coeffs", "--scheme", "custom",
         "--custom=-1:0.25:-0.0,0:-0.0:0.5,2000:0.75:-0.5"),
    ], ids=" ".join)
    @pytest.mark.parametrize("output_format", ["default", "json"])
    def test_bytes_match_reference(self, tmp_path, argv, output_format):
        if output_format == "json":
            argv = (*argv, "--format", "json")
        out = tmp_path / "artifact"
        assert run(*argv, "--out", str(out)) == EXIT_OK
        assert out.read_bytes() == reference_artifact(argv).encode()

    def test_nonfinite_column_refused(self, tmp_path, capsys, monkeypatch):
        def nan_tail(params, n, j):
            col = approx_G(params, n, j)
            col[-1] = math.nan
            return col

        monkeypatch.setattr(cli, "approx_G", nan_tail)
        out = tmp_path / "g.json"
        assert run("green", *_LW, "--n", "50", "--format", "json",
                   "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: Out of range float values are not JSON compliant: nan\n")
        assert list(tmp_path.iterdir()) == []


# Floats a table can hold: signed zeros, subnormals, the largest finite
# values, integral values (json prints 3.0, .17g prints 3) and any other.
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 3.0, -7.0, 1e16,
                     1e17, 123456789012345678.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(values=st.lists(_FLOATS, max_size=40),
       ints=st.lists(st.integers(-2 ** 62, 2 ** 62), max_size=5))
def test_bulk_cells_match_per_cell_formatting(values, ints):
    a = np.asarray(values, dtype=float)
    assert _cells(a) == [format(x, ".17g") for x in values]
    coefficients = np.asarray(values[:len(ints)], dtype=float)
    report = {"column": a, "ints": np.asarray(ints, dtype=np.int64),
              "nested": {"rows": np.rec.fromarrays(
                             [np.asarray(ints[:len(coefficients)]),
                              coefficients, -coefficients]),
                         "empty": a[:0], "none": None},
              "scalar": values[0] if values else 0.5}
    expected = {"column": values, "ints": ints,
                "nested": {"rows": [[i, x, -x] for i, x in zip(ints, values)],
                           "empty": [], "none": None},
                "scalar": values[0] if values else 0.5}
    assert _json(report) == json.dumps(expected, indent=2, allow_nan=False)


class TestEvolve:
    def test_time_zero_identity(self, tmp_path):
        out = tmp_path / "t0.csv"
        assert run("evolve", "--scheme", "lw", "--lambda", "0.75",
                   "--dx", "0.1", "--t", "0", "--out", str(out)) == EXIT_OK
        _, rows = read_csv(out)
        assert all(r[1] == r[2] for r in rows)

    def test_mass_conserved(self, tmp_path):
        out = tmp_path / "ev.csv"
        assert run("evolve", "--scheme", "lw", "--lambda", "0.75",
                   "--dx", "0.05", "--t", "0.5", "--out", str(out)) == EXIT_OK
        _, rows = read_csv(out)
        u0 = sum(float(r[1]) for r in rows)
        un = sum(float(r[2]) for r in rows)
        assert un == pytest.approx(u0, abs=1e-9)

    def test_bad_dx(self):
        assert run("evolve", "--scheme", "lw", "--lambda", "0.75",
                   "--dx", "0", "--t", "1") == EXIT_CONFIG

    def test_negative_t(self):
        assert run("evolve", "--scheme", "lw", "--lambda", "0.75",
                   "--dx", "0.1", "--t", "-1") == EXIT_CONFIG

    @pytest.mark.parametrize("scheme", [
        ("--scheme", "lw", "--lambda", "0.75"),
        ("--scheme", "bw", "--lambda", "1.5"),
        # G^n's window leaves the step data's window: u0 reads its tails.
        ("--scheme", "custom", "--custom", "3:0.5:0,4:0.5:0",
         "--lambda", "0.5"),
    ])
    def test_rows_match_per_row_formatting(self, tmp_path, scheme):
        out = tmp_path / "ev.csv"
        assert run("evolve", *scheme, "--dx", "0.05", "--t", "1.0",
                   "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        n = int(lines[0].rsplit("n=", 1)[1])
        cfg = config_from_args(build_parser().parse_args(
            ["evolve", *scheme, "--dx", "0.05", "--t", "1.0"]))
        u0 = sample_step(0.05, 0.5, -11, 11)
        un = evolve(make_stencil(cfg), u0, n)
        rows = [f"{_fmt((j + 0.5) * 0.05)},{_fmt(u0.value_at(j).real)},"
                f"{_fmt(un.values[k].real)}"
                for k, j in enumerate(range(un.min_index, un.max_index + 1))]
        assert lines[2:] == rows

    @pytest.mark.parametrize("args", [
        ("--dx", "0.1", "--t", "inf"),
        ("--dx", "nan", "--t", "1"),
        ("--dx", "0.1", "--t", "1", "--half-width", "inf"),
    ])
    def test_nonfinite_arguments(self, args):
        assert run("evolve", "--scheme", "lw", "--lambda", "0.75",
                   *args) == EXIT_CONFIG


class TestReports:
    def test_growth_json(self, tmp_path):
        out = tmp_path / "gr.json"
        assert run("growth", "--scheme", "lw", "--lambda", "0.75",
                   "--n-list", "100,400", "--out", str(out)) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["schema_version"] == 1
        assert data["n_values"] == [100, 400]
        assert data["errors_decreasing"] is True
        assert data["ell_target"] == pytest.approx(0.6362153564491495)

    def test_bounds_json_sides_switched(self, tmp_path):
        out = tmp_path / "b.json"
        assert run("bounds", "--scheme", "bw", "--lambda", "0.5",
                   "--n-list", "250,500", "--out", str(out)) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["sides_switched"] is True
        assert data["bound1"]["side"] == "right_tail"
        assert data["bound1"]["stable"] is True
        assert data["bound2"]["stable"] is True

    def test_bv_json(self, tmp_path):
        out = tmp_path / "bv.json"
        assert run("bv", "--scheme", "lw", "--lambda", "0.75",
                   "--n-list", "50,200", "--out", str(out)) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["stable"] is True
        assert data["max_identity_gap"] <= 1e-12
        assert data["sup_overall"] == pytest.approx(1.0, abs=1e-10)


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("green", "--scheme", "lw", "--lambda", "0.75", "--n", "64"),
        ("growth", "--scheme", "lw", "--lambda", "0.75",
         "--n-list", "100,400"),
        ("coeffs", "--scheme", "bw", "--lambda", "1.5", "--format", "json"),
    ])
    def test_byte_identical_reruns(self, tmp_path, args):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert run(*args, "--out", str(a)) == EXIT_OK
        assert run(*args, "--out", str(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_no_temporary_residue(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("green", "--scheme", "lw", "--lambda", "0.75",
                   "--n", "8", "--out", str(out)) == EXIT_OK
        assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]

    def test_foreign_temporary_untouched(self, tmp_path):
        # Another writer's temporary file next to the target survives.
        out = tmp_path / "g.csv"
        other = tmp_path / "g.csv.tmp"
        other.write_text("other writer")
        assert run("green", "--scheme", "lw", "--lambda", "0.75",
                   "--n", "8", "--out", str(out)) == EXIT_OK
        assert other.read_text() == "other writer"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv",
                                                              "g.csv.tmp"]

    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            _atomic_write(str(tmp_path / "g.csv"), "data\n")
        assert list(tmp_path.iterdir()) == []

    def test_written_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "g.csv"
        _atomic_write(str(out), "data\n")
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    def test_no_wall_clock_in_output(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("green", "--scheme", "lw", "--lambda", "0.75",
                   "--n", "8", "--out", str(out)) == EXIT_OK
        meta = out.read_text().splitlines()[0]
        assert meta == "# dgreen green scheme=lw lambda=0.75 n=8 method=spectral"


class TestDefaults:
    """Parsing only the required flags gives these configurations."""

    BASE = {"scheme": "lw", "lam": 0.75, "custom_coefficients": None,
            "n": None, "n_list": None, "output_path": None,
            "method": "spectral", "strict": False,
            "require_admissible": False, "dx": None, "t_final": None,
            "half_width": 0.5, "growth_tol": 0.15}

    @pytest.mark.parametrize("argv, changed", [
        (("coeffs",), {"output_format": "text"}),
        (("green", "--n", "8"), {"output_format": "csv", "n": 8}),
        (("evolve", "--dx", "0.1", "--t", "1"),
         {"output_format": "csv", "dx": 0.1, "t_final": 1.0}),
        (("growth",), {"output_format": "json"}),
        (("bounds",), {"output_format": "json"}),
        (("bv",), {"output_format": "json"}),
    ])
    def test_run_config(self, argv, changed):
        args = build_parser().parse_args([*argv, "--lambda", "0.75"])
        expected = {"command": argv[0], **self.BASE, **changed}
        assert dataclasses.asdict(config_from_args(args)) == expected

    @pytest.mark.parametrize("command, callee, n_values", [
        ("growth", "growth_series", (1000, 10000, 100000)),
        ("bounds", "envelope_reports", (250, 500, 1000, 2000)),
        ("bv", "bv_bounds", (100, 1000, 10000)),
    ])
    def test_n_list(self, monkeypatch, capsys, command, callee, n_values):
        signature = inspect.signature(getattr(cli, callee))
        seen = []

        def record(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(tuple(bound.arguments["n_values"]))
            raise ValueError("recorded")

        monkeypatch.setattr(cli, callee, record)
        assert run(command, "--lambda", "0.75") == EXIT_CONFIG
        assert seen == [n_values]
        capsys.readouterr()


def test_public_names():
    import dgreen

    assert set(dgreen.__all__) == set("""
        CONSERVATION_TOL C3_FLOOR C4_FLOOR KAPPA2_TOL AssumptionAudit Stencil
        SymbolExpansion assumption_audit beam_warming dissipation_check
        expansion_coefficients lax_wendroff modulus_identity_check symbol_eval
        DEFAULT_MEMORY_BUDGET_MB MEMORY_BUDGET_ENV GreenTable GridFunction
        MemoryBudgetError WorkBudgetError Norms cell_average_indicator
        evolve green_direct green_spectral norms sample_step spectral_sweep
        ApproxParams airy_ai approx_G approx_H erf growth_constant FIT_SAFETY
        FIT_WINDOW BoundReport BVReport GrowthReport bv_apply_bound bv_bounds
        check_bound1 check_bound2 corollary1_sums envelope_reports
        fit_decay_rate growth_series oscillation_side total_variation
        """.split())
    assert all(hasattr(dgreen, name) for name in dgreen.__all__)
    # The library's optional parameters and dataclass fields, private ones
    # included: each is set to different values by callers in the package.
    defaulted = set()
    for module in (dgreen.stencil, dgreen.green, dgreen.approx,
                   dgreen.analysis):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for fn in vars(obj).values() if inspect.isclass(obj) else [obj]:
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn):
                    defaulted.update(
                        f"{fn.__qualname__}.{p.name}"
                        for p in inspect.signature(fn).parameters.values()
                        if p.default is not p.empty)
    assert defaulted == {
        "Stencil.__init__.label", "GridFunction.__init__.left_tail",
        "GridFunction.__init__.right_tail", "_expansion.normalization",
        "_expansion.probe", "_spectral_window.reserve",
        "envelope_reports.n_values"}


# Argument values for the fuzz: three draws in four ordinary, the rest zero,
# negative, tiny, huge, past every size cap, non-finite, empty or garbage.
def _values(ordinary, extreme):
    ordinary = st.sampled_from(ordinary)
    return st.one_of(ordinary, ordinary, ordinary,
                     st.sampled_from(extreme + ["", "x", "nan", "inf", "-inf",
                                                "1,2"]))


_REALS = _values(["0.75", "0.5", "1.5", "0.1", "1"],
                 ["0", "-1", "1e-300", "1e300"])
_COUNTS = _values(["1", "3", "100", "2000"],
                  ["0", "-5", "1000000", "1000000000", "1" + "0" * 30, "2.5"])
_TRIPLETS = st.tuples(
    _values(["-2", "-1", "0", "1", "2"], ["1000000000000", "-1000000000000"]),
    _values(["0.5", "0.25", "-0.125", "0.375", "1"],
            ["0", "2", "1e10", "1e200", "-1e200", "1e308"]),
    _values(["0"], ["0.05"])).map(":".join)
_N_LISTS = st.lists(_COUNTS, max_size=4).map(",".join)
_STENCILS = st.one_of(
    st.tuples(st.sampled_from(["lw", "bw"]), _REALS).map(
        lambda p: [f"--scheme={p[0]}", f"--lambda={p[1]}"]),
    st.lists(_TRIPLETS, max_size=5).map(
        lambda t: ["--scheme=custom", "--custom=" + ",".join(t)]),
    st.lists(st.sampled_from(["--scheme=x", "--scheme=custom", "--custom=",
                              "--lambda=0.5", "--custom=0:1"]), max_size=2))
_OPTIONS = {
    "--lambda": _REALS,
    "--format": _values(["json"], ["text", "csv"]),
    "--strict": None,
    "--require-admissible": None,
}
_OWN = {
    "coeffs": {},
    "green": {"--n": _COUNTS,
              "--method": st.sampled_from(["direct", "spectral", "x"])},
    "evolve": {"--dx": _REALS, "--t": _REALS, "--half-width": _REALS},
    "growth": {"--n-list": _N_LISTS, "--growth-tol": _REALS},
    "bounds": {"--n-list": _N_LISTS},
    "bv": {"--n-list": _N_LISTS},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OWN)))
    argv = [command, *draw(_STENCILS)]
    for flag, value in sorted({**_OPTIONS, **_OWN[command]}.items()):
        if draw(st.booleans()):
            argv.append(flag if value is None else f"{flag}={draw(value)}")
    return argv


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# Inputs that ended in a traceback, a hang or a report with NaN or Infinity,
# and the exit code each gives now.
_CASES = {
    "coeffs --scheme custom --custom=0:0.5:0,1000000000000:0.5:0": EXIT_MEMORY,
    "coeffs --scheme custom --custom=0:1e308:0,1:1e308:0": EXIT_CONFIG,
    "green --scheme custom --custom=0:1e200:0,1:-1e200:0,2:1:0 --n 3":
        EXIT_CONFIG,
    "green --scheme custom --custom=0:1e10:0,1:1:0 --n 100": EXIT_CONFIG,
    "green --scheme custom --custom=0:2:0 --n 2000 --format json": EXIT_CONFIG,
    "growth --lambda 0.75 --growth-tol nan": EXIT_CONFIG,
    "green --scheme custom --custom=0:1:0 --n 1000000000 --method direct":
        EXIT_OK,
}


def _with_cases(test):
    for case in _CASES:
        test = example(argv=case.split(), target="file")(test)
    return test


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argv=_argvs(), target=st.sampled_from(["file", "stdout", "missing"]))
@_with_cases
def test_cli_fuzz(argv, target):
    """Every run ends in a documented exit code, without a traceback.

    A failed run writes no artifact; exit 5 writes the report it judged.
    Every JSON report is standard JSON, without NaN or Infinity.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    # A small memory budget turns large tables into a quick exit 4.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"DG_MEMORY_BUDGET_MB": "32"}), \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        path = os.path.join(tmp, "artifact")
        out = {"file": ["--out", path], "stdout": [],
               "missing": ["--out", os.path.join(tmp, "missing", "artifact")]}
        code = main(argv + out[target])
        written = sorted(os.listdir(tmp))
        text = ""
        if target == "file" and written:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_INADMISSIBLE, EXIT_MEMORY,
                    EXIT_ACCEPTANCE)
    assert "Traceback" not in stderr.getvalue()
    assert code == _CASES.get(" ".join(argv), code)
    if code in (EXIT_OK, EXIT_ACCEPTANCE):
        assert written == (["artifact"] if target == "file" else [])
        text = text or stdout.getvalue()
        if text.startswith("{"):
            json.loads(text, parse_constant=_reject_constant)
    else:
        assert written == []
