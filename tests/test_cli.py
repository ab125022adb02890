import ast
import contextlib
import dataclasses
import functools
import hashlib
import inspect
import io
import json
import math
import os
import pathlib
import stat
import tempfile
import time
import tracemalloc
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
from dgreen.stencil import assumption_audit, lax_wendroff


def run(*argv):
    return main(list(argv))


def assert_traced_peak_within_check(monkeypatch, *argv):
    """Run argv; cli checks the budget once, and the traced peak of the
    whole run stays within that many complex128 entries."""
    checked = []
    check = cli._check_budget

    def spy(entries):
        checked.append(entries)
        check(entries)

    monkeypatch.setattr(cli, "_check_budget", spy)
    tracemalloc.start()
    try:
        assert run(*argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(checked) == 1 and peak <= 16 * checked[0]


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
        assert s.coefficients == (0.75, 0.0, 0.25)


class TestExitCodes:
    def test_missing_lambda(self, capsys):
        assert run("coeffs", "--scheme", "lw") == EXIT_CONFIG
        assert "lambda" in capsys.readouterr().err

    def test_lambda_out_of_range(self):
        assert run("coeffs", "--scheme", "lw", "--lambda", "1.5") == EXIT_CONFIG

    @pytest.mark.parametrize("command,message", [
        ("bounds", "n_values must be positive integers"),
        ("bv", "n_values must be positive integers"),
        ("growth", "n_values must be positive integers"),
    ])
    def test_nonpositive_step_count(self, capsys, command, message):
        assert run(command, "--scheme", "lw", "--lambda", "0.75",
                   "--n-list", "0,100") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bad_format_for_command(self):
        assert run("coeffs", "--scheme", "lw", "--lambda", "0.75",
                   "--format", "csv") == EXIT_CONFIG

    def test_empty_n_list(self, capsys):
        assert run("bounds", "--scheme", "lw", "--lambda", "0.75",
                   "--n-list", ",") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty n list\n"

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
        ("green", "--n", "100000", "--method", "direct"),
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

    def test_empty_out_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("coeffs", "--lambda", "0.75", "--out", "") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --out must be a file path, not empty "
                                "(omit --out for stdout)\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_sparse_wide_green_is_quick(self, tmp_path):
        # The spectral route's lag loop runs over the two nonzero
        # coefficients, not over the 400001 offsets between them.
        out = tmp_path / "g.csv"
        start = time.perf_counter()
        assert run("green", "--scheme", "custom",
                   "--custom", "0:0.5:0,400000:0.5:0", "--n", "1",
                   "--out", str(out)) == EXIT_OK
        assert time.perf_counter() - start < 10.0
        _, rows = read_csv(out)
        assert len(rows) == 400001 and {r[2] for r in rows} == {"0"}

    def test_overflowing_difference_from_one_refused(self, tmp_path, capsys):
        # The sum 1.7e308(1 + i) is finite, but |sum - 1| is not.
        for argv in (("coeffs",), ("green", "--n", "1")):
            out = tmp_path / "artifact"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run(*argv, "--scheme", "custom",
                           "--custom", "0:1.7e308:1.7e308", "--out", str(out))
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == (
                "error: stencil coefficient sum overflows\n")
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # m2 itself leaves the float range.
        ("coeffs", "--custom", "0:1e300:0,100000:-1e300:0,1:1:0"),
        ("green", "--n", "2", "--custom", "0:1e300:0,100000:-1e300:0,1:1:0"),
        # The cumulants of F / F(0) are finite; m2 about the support's left
        # edge, where the spectral route centers the lags, is not.
        ("green", "--n", "1", "--custom", "-1:6e307:0,0:1e300:0,1:-6e307:0"),
    ])
    def test_overflowing_moments_refused(self, tmp_path, capsys, argv):
        out = tmp_path / "artifact"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(*argv, "--scheme", "custom", "--out", str(out))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: the moments of the stencil coefficients overflow\n")
        assert not out.exists()

    def test_bv_converts_coefficients_once(self, monkeypatch, capsys):
        # Stencil converts its coefficient tuple to an array once; every
        # route reads that array, its sum and its nonzero terms after.
        coefficients = lax_wendroff(0.75).coefficients
        conversions = []
        for name in ("array", "asarray"):
            def spy(obj, *args, _convert=getattr(np, name), **kwargs):
                if isinstance(obj, tuple) and obj == coefficients:
                    conversions.append(obj)
                return _convert(obj, *args, **kwargs)

            monkeypatch.setattr(np, name, spy)
        assert run("bv", "--lambda", "0.75",
                   "--n-list", "100,1000") == EXIT_OK
        capsys.readouterr()
        assert len(conversions) == 1

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
        assert data["schema_version"] == 2
        assert data["c3"] == pytest.approx(-0.0625)
        assert data["admissible"] is True

    def test_upwind_kappa2_reported(self, capsys):
        assert run("coeffs", "--scheme", "custom",
                   "--custom", "0:0.25:0,1:0.75:0",
                   "--format", "json") == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["kappa2"] == pytest.approx(0.1875)
        assert data["admissible"] is False


    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_custom_value_with_leading_minus(self, capsys, output_format):
        # argparse reads a separate value starting with '-' as an option.
        argv = ("coeffs", "--scheme", "custom", "--format", output_format)
        assert run(*argv, "--custom=-1:0.5:0,0:0.5:0") == EXIT_OK
        glued = capsys.readouterr()
        assert run(*argv, "--custom", "-1:0.5:0,0:0.5:0") == EXIT_OK
        assert capsys.readouterr() == glued
        assert glued.err == ""
        if output_format == "json":
            assert json.loads(glued.out)["stencil"]["coefficients"][0][0] == -1
        else:
            assert "a[-1]" in glued.out

    @pytest.mark.parametrize("output_format,digest", [
        ("text",
         "059c253bedf060796addfedf5b908a47a39736d09c64ca2f213df89e287747b5"),
        ("json",
         "e50008556b2de9d80018c52fa2a17b89a0ffb8d5c1b371f883181a9eb1fa41bd"),
    ])
    def test_sparse_wide_bytes_unchanged(self, capsys, output_format, digest):
        # Recorded when Stencil checked and summed its 400001 coefficients
        # one Python object at a time; the JSON digest re-taken at schema 2,
        # whose bytes differ from schema 1's in the version line alone.
        assert run("coeffs", "--scheme", "custom",
                   "--custom", "0:0.5:0,400000:0.5:0",
                   "--format", output_format) == EXIT_OK
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode()).hexdigest() == digest


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
        assert data["schema_version"] == 2
        assert data["j"][0] == -4
        assert len(data["re"]) == 9
        assert data["approx_H"] is not None

    def test_requires_n(self):
        assert run("green", "--scheme", "lw", "--lambda", "0.75") == EXIT_CONFIG

    def test_step_counts_exact_in_float64(self, capsys):
        # (-1)^n of a pure shift is exact for every n up to 2**53; past it
        # the step count is refused, not rounded to an even float.
        argv = ("green", "--scheme", "custom", "--custom=0:-1:0", "--n")
        assert run(*argv, str(2 ** 53 - 1)) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[2] == "0,-1,0,1,,"
        assert run(*argv, str(2 ** 53 + 1)) == EXIT_MEMORY
        assert capsys.readouterr() == (
            "", "error: step counts above 2**53 are not exact in float64\n")

    def test_budget_checked_before_route(self, tmp_path, monkeypatch, capsys):
        # 4e5 rows of about forty complex128 entries each: 256 MB.
        monkeypatch.setenv("DG_MEMORY_BUDGET_MB", "64")
        out = tmp_path / "g.csv"
        with mock.patch.object(cli, "green_spectral",
                               side_effect=AssertionError):
            assert run("green", "--lambda", "0.75", "--n", "200000",
                       "--out", str(out)) == EXIT_MEMORY
        assert capsys.readouterr().err == (
            "error: the computation needs about 256 MB, budget is 64 MB\n")
        assert list(tmp_path.iterdir()) == []

    def test_refusal_reads_above_budget(self, monkeypatch, capsys):
        # 40 * 800001 entries of 16 bytes: 512.00064 MB, which three
        # digits would print as the 512 MB budget.
        monkeypatch.delenv("DG_MEMORY_BUDGET_MB", raising=False)
        with mock.patch.object(cli, "green_spectral",
                               side_effect=AssertionError):
            assert run("green", "--lambda", "0.75",
                       "--n", "400000") == EXIT_MEMORY
        assert capsys.readouterr() == ("", "error: the computation needs "
                                       "about 512.001 MB, budget is 512 MB\n")

    def test_csv_traced_peak_per_row(self, tmp_path):
        # A complex stencil's cells are all nonzero.  Formatting all rows
        # at once peaked at about 560 B a row; by blocks of rows, 200 B.
        out = tmp_path / "g.csv"
        tracemalloc.start()
        try:
            assert run("green", "--scheme", "custom",
                       "--custom=-1:0.25:-0.05,0:0.5:0.1,1:0.25:-0.05",
                       "--n", "50000", "--out", str(out)) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 280 * 100001

    @pytest.mark.parametrize("scheme,per_row", [
        (("--scheme", "custom",
          "--custom=-1:0.25:-0.05,0:0.5:0.1,1:0.25:-0.05"), 280),
        (("--lambda", "0.75"), 160)])
    def test_json_traced_peak_per_row(self, tmp_path, scheme, per_row):
        # Holding every cell string of a column, then the framed text,
        # peaked at about 316 (complex) and 236 B a row (LW 3/4); by
        # blocks of rows, 200 and 115.
        out = tmp_path / "g.json"
        tracemalloc.start()
        try:
            assert run("green", *scheme, "--n", "50000", "--format", "json",
                       "--out", str(out)) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_row * 100001

    @pytest.mark.parametrize("scheme", [
        ("--lambda", "0.75"),
        ("--scheme", "bw", "--lambda", "0.5"),
        ("--scheme", "custom",
         "--custom=-1:0.25:-0.05,0:0.5:0.1,1:0.25:-0.05"),
    ])
    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_traced_peak_within_checked_budget(self, tmp_path, monkeypatch,
                                               scheme, output_format):
        assert_traced_peak_within_check(
            monkeypatch, "green", *scheme, "--n", "5000", "--format",
            output_format, "--out", str(tmp_path / "g"))


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
        error = "error: Out of range float values are not JSON compliant: nan\n"
        assert run("green", *_LW, "--n", "50", "--format", "json",
                   "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == error
        assert list(tmp_path.iterdir()) == []
        # Without --out, nothing reaches stdout either.
        assert run("green", *_LW, "--n", "50", "--format", "json") == \
            EXIT_CONFIG
        assert capsys.readouterr() == ("", error)


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
    assert "".join(_json(report)) == json.dumps(expected, indent=2,
                                                allow_nan=False)


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

    @pytest.mark.parametrize("stencil", [
        ("--scheme", "custom", "--custom", "0:0.5:0,1:0.5:0"),
        ("--scheme", "custom", "--custom", "0:0.5:0,1:0.5:0", "--lambda", "0"),
        ("--scheme", "lw", "--lambda", "nan"),
        ("--scheme", "bw", "--lambda", "-1"),
    ])
    def test_time_step_refused(self, capsys, stencil):
        assert run("evolve", *stencil, "--dx", "0.1",
                   "--t", "1") == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: evolve requires --lambda with a "
                                "finite time step --lambda * --dx > 0\n")

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
        # u0 has zero tails: cells off its window read 0.
        u0_at = dict(zip(range(-11, 12), u0.values.real.tolist()))
        rows = [f"{_fmt((j + 0.5) * 0.05)},{_fmt(u0_at.get(j, 0.0))},"
                f"{_fmt(un.values[k].real)}"
                for k, j in enumerate(range(un.min_index, un.max_index + 1))]
        assert lines[2:] == rows

    def test_budget_checked_before_step_data(self, tmp_path, monkeypatch,
                                             capsys):
        # 2e5 cells of step data: about 51 MB with evolve's arrays and CSV.
        monkeypatch.setenv("DG_MEMORY_BUDGET_MB", "1")
        out = tmp_path / "ev.csv"
        with mock.patch.object(cli, "sample_step", side_effect=AssertionError):
            assert run("evolve", "--lambda", "0.75", "--dx", "1e-5",
                       "--t", "1e-5", "--half-width", "1",
                       "--out", str(out)) == EXIT_MEMORY
        assert capsys.readouterr().err == (
            "error: the computation needs about 51.2 MB, budget is 1 MB\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ("--lambda", "0.75", "--dx", "5e-5", "--t", "5e-5", "--half-width",
         "1"),
        ("--lambda", "0.75", "--dx", "0.0005", "--t", "0.9375"),
        ("--lambda", "0.49", "--dx", "0.01", "--t", "24.5"),
        ("--scheme", "bw", "--lambda", "1.5", "--dx", "1e-4", "--t", "0.075",
         "--half-width", "1"),
        ("--scheme", "custom", "--custom=-2:0.01171875:0,-1:-0.125:0,"
         "0:0.2109375:0,1:0.65625:0,2:0.24609375:0", "--lambda", "0.5",
         "--dx", "0.001", "--t", "1.5"),
        ("--scheme", "custom", "--custom=-1:0.25:-0.05,0:0.5:0.1,1:0.25:-0.05",
         "--lambda", "0.5", "--dx", "0.001", "--t", "0.5"),
    ])
    def test_traced_peak_within_checked_budget(self, tmp_path, monkeypatch,
                                               args):
        assert_traced_peak_within_check(
            monkeypatch, "evolve", *args, "--out", str(tmp_path / "ev.csv"))

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
        assert data["schema_version"] == 2
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
        assert data["oscillation_side"] == "right"

    def test_bounds_json_one_sided_sums(self, tmp_path):
        out = tmp_path / "b.json"
        assert run("bounds", "--scheme", "lw", "--lambda", "0.75",
                   "--n-list", "20,40", "--out", str(out)) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["oscillation_side"] is None
        assert data["accepted"] is True
        for key in ("bound1", "bound2"):
            sums = data[key]["sum_per_n"]
            assert [n for n, _ in sums] == [20, 40]
            assert all(0.0 < v < 1.0 for _, v in sums)

    def test_bv_json(self, tmp_path):
        out = tmp_path / "bv.json"
        assert run("bv", "--scheme", "lw", "--lambda", "0.75",
                   "--n-list", "50,200", "--out", str(out)) == EXIT_OK
        data = json.loads(out.read_text())
        assert data["stable"] is True
        assert data["max_identity_gap"] <= 1e-12
        assert data["sup_overall"] == pytest.approx(1.0, abs=1e-10)


LW5_CUSTOM = ("--custom=-2:0.01171875:0,-1:-0.125:0,0:0.2109375:0,"
              "1:0.65625:0,2:0.24609375:0")       # LW(3/4) * LW(1/2)
COMPLEX_CUSTOM = _COMPLEX[-1]
# sha256 of the bounds and bv reports as the direct route wrote them when
# every step convolved the whole support, subnormal tails included (numpy
# 2.4.6, x86-64).  Trimming the underflowed tails must not move one byte.
# Every JSON digest here was re-taken at schema_version 2, after a check
# that each report differed from its schema 1 bytes in the version line
# alone, and a bounds report also in its added sum_per_n and
# oscillation_side keys.  Six were re-taken when the spectral route began
# to power the stencil it was given, with exact moment sums, and growth
# stopped reflecting c3 < 0 stencils: the bv reports of LW 0.3, 0.49 and
# BW 0.36, 1.8 (their direct-route fields unchanged, the spectral sups
# within 3e-13 relative, the route gap no larger) and the growth reports
# of BW 0.5 and the complex custom (l1 and ratios within 1e-15 relative,
# every other field unchanged).
REPORT_SHA256 = {
    "bounds --scheme lw --lambda 0.75":
        "f2bfd11c41df02e6bcba3f2d69c46a98bad91cb44bbe53f408f4777d129edd30",
    "bv --scheme lw --lambda 0.75 --n-list 100,1000,3000":
        "5418c99fe1b8fdac64fd1257d93e6f45f35a1bd51a32e7a19a1a70e9997caab2",
    "bounds --scheme lw --lambda 0.3":
        "675621f82752ad07e48ddcb8dfabd8c0126579c63029a10756d40ba82ab0497f",
    "bv --scheme lw --lambda 0.3 --n-list 100,1000,3000":
        "3209f5a9eecfa026cd530609f77265ecb398e54cde40e14fb4433d71691b90f2",
    "bounds --scheme lw --lambda 0.49":
        "a20b70554276144ac5b9384f977985c8047edf6aac85d0ff9fabd6ee8e7cb67e",
    "bv --scheme lw --lambda 0.49 --n-list 100,1000,3000":
        "0ecce3e9eed10aa30e2015d6130ab7770803f7301f030ab74eff60587991d9fd",
    "bounds --scheme bw --lambda 0.5":
        "79660b0d0ae479cb23265b949b074f31b4022feef2b8b289ee7400ff4fff8367",
    "bv --scheme bw --lambda 0.5 --n-list 100,1000,3000":
        "a86900dc95e4c3cf38d71e9946306757c20d04188a3d9fc56df1985c2685369e",
    "bounds --scheme bw --lambda 0.36":
        "93efea06e2f74939f9615afa50d652be8a6e60e1736d2b6d92439c3942a15569",
    "bv --scheme bw --lambda 0.36 --n-list 100,1000,3000":
        "50cc3a89f421e312949d5a691ef588c9c27cc968db6569c8b054c64d92248de3",
    "bounds --scheme bw --lambda 1.5":
        "862ca1a9d8b5874b01f98fc4342e0f8747e80b8736fc7e076a31b5bbe700d01b",
    "bv --scheme bw --lambda 1.5 --n-list 100,1000,3000":
        "74e19d36d3004226fd640e501a58ee6deb8bf333a1f7c00905544ffe961cf750",
    "bounds --scheme bw --lambda 1.8":
        "9a49d6bf7866fb2e247288333ae38f7ff63e81e09837339b475a8163e7e1deea",
    "bv --scheme bw --lambda 1.8 --n-list 100,1000,3000":
        "f24fec98caed5016c64adc58d629e9694f3acb65a24ed1bfe4d76103a6b12b89",
    f"bounds --scheme custom {LW5_CUSTOM}":
        "3df8d2ca8c03406044c3f56a0c6602fe6f18cf5e878f136587b9e0ada2f6a8ce",
    f"bv --scheme custom {LW5_CUSTOM} --n-list 100,1000,3000":
        "17e975249e8a8e8e7648c0bcbb37a35ce042dd0e84017ffc8a1f4a19d8bc622e",
    # Duplicate step counts: each one keeps its own row, in grid order
    # (numpy 2.4.6, x86-64).
    "bounds --scheme lw --lambda 0.75 --n-list 250,250,1000":
        "0b64274814f8fd4116539fd2820c91b49b0e9dcbdfa5c27748df88a36ebeaf9b",
    "bv --scheme lw --lambda 0.75 --n-list 100,100,1000":
        "cf78649e10029c3d8eed144c59759c6dd3ae3b39b3e6c261efda5d42163fae86",
    # coeffs, green (both routes, CSV and JSON), evolve and growth as
    # written before each route read the stencil's coefficient data from
    # one place (numpy 2.4.6, x86-64).
    "coeffs --scheme lw --lambda 0.75":
        "e2e6049fde38d31cd412094660815c34641a500b3581c6a35f31ce609570d9a4",
    "coeffs --scheme lw --lambda 0.75 --format json":
        "1cc08b7051317316cc3f52890801a2e7d06d2ca84746486ea05930e9b6e312fc",
    "green --scheme lw --lambda 0.75 --n 500 --method spectral":
        "a480fd8ff3f6a029f7036c2faa1056fafdec460450d1259ec4dcf5040a0b7101",
    "green --scheme lw --lambda 0.75 --n 500 --method spectral --format json":
        "bcc9c7f5a16a48b14b56aacc816d9c061d08fe60e455366d8d929ec6ab4116fa",
    "green --scheme lw --lambda 0.75 --n 500 --method direct":
        "f3354a384c03a879ff7cf1b5e780382e563cee49436c644ea4abf526017239eb",
    "green --scheme lw --lambda 0.75 --n 500 --method direct --format json":
        "5cf95ef10361099f76d0f974fba7d056dcb7bdba5ee2a2e4ee41f5ad471e31c6",
    "evolve --scheme lw --lambda 0.75 --dx 0.05 --t 1.0":
        "5f8013704d9bf235259b42f15a96e04a0ef8d0b197df895aad37c16b9fd04105",
    "growth --scheme lw --lambda 0.75":
        "e0dccbcf24bd7a03f6c9976496cfaa4cca1babb5272c1918e3f3858d7b5f91ad",
    "coeffs --scheme bw --lambda 0.5":
        "75a690c771864c0b1a013287c64bc00138f7f3e2c51914e6295a5913ee841df6",
    "coeffs --scheme bw --lambda 0.5 --format json":
        "08cf8187d7e6f1837598d19a893419c72ef7f4c8c9b2a7c26bb6976952ce55b1",
    "green --scheme bw --lambda 0.5 --n 500 --method spectral":
        "235036c9e7372b220166be4ef12776dbd6529b90af20aa083d4a2b81fb94b1a7",
    "green --scheme bw --lambda 0.5 --n 500 --method spectral --format json":
        "27a40acdec86d124657ac35e71865f7f2362755e9e6d6e1a3c0d96a680a882bd",
    "green --scheme bw --lambda 0.5 --n 500 --method direct":
        "935c5d3889eb38744a4efa09104ae6f3b6cdfe35a01534b1eac3d4577fdba0c9",
    "green --scheme bw --lambda 0.5 --n 500 --method direct --format json":
        "7fe825bc8766712b69d733b79e0eb8ed81fc0547089d1b910547e66b6dcd00e6",
    "evolve --scheme bw --lambda 0.5 --dx 0.05 --t 1.0":
        "8dfc292656a7aaf2de9c691504d05e388315bca7fb8f3909618270aaa4895b7a",
    "growth --scheme bw --lambda 0.5":
        "b282ea8fceebf52267f03a75340dfe499a98bb07b676343ac4840d00807a8b38",
    "coeffs --scheme bw --lambda 1.5":
        "121a2283864c363d398175413156b31e53cc1b2a29c7dae994754c5470af7397",
    "coeffs --scheme bw --lambda 1.5 --format json":
        "582d788b0d61459b7d901cb958c5e67e51a07fe135e85aedb912f21459e6eac0",
    "green --scheme bw --lambda 1.5 --n 500 --method spectral":
        "714a565d7194b13c2b60fa78f52621e7c363bfb9f2996ed87d18b8acd75a183c",
    "green --scheme bw --lambda 1.5 --n 500 --method spectral --format json":
        "8028f2bab8e89edcf4c428a91f56c56d52e4965d21740682054670e59a2198b0",
    "green --scheme bw --lambda 1.5 --n 500 --method direct":
        "302683b990d95b9b13772be66f5705f429fd86d5aff1ba251b183cba39d0c373",
    "green --scheme bw --lambda 1.5 --n 500 --method direct --format json":
        "bed9017742f18c81129190eed5478cb59e4931a5aa4d54d1563b0debcdfabfb8",
    "evolve --scheme bw --lambda 1.5 --dx 0.05 --t 1.0":
        "ef3f0283add51537342c92b8a57949cd818c43066b2b8ee302c90dfbad325c26",
    "growth --scheme bw --lambda 1.5":
        "d1942e494fee7df7fc3939407e3478b16946324257721bf6a748d41e52c0cee8",
    f"coeffs --scheme custom {LW5_CUSTOM}":
        "23b3e5e714170cf8bda0ddae93c3e0ac10b97fbcbac8284f0e8ac272f69f5b3b",
    f"coeffs --scheme custom {LW5_CUSTOM} --format json":
        "4bd6d0deb2112cf063ce11ad7439ac0c9349ed46f56cf36dcafba5e5ac157914",
    f"green --scheme custom {LW5_CUSTOM} --n 500 --method spectral":
        "2e8c0f991c6637c7fe065ee445c50fb3f51e628b648f82b5f0a751e29531b8ad",
    (f"green --scheme custom {LW5_CUSTOM} --n 500 --method spectral"
     " --format json"):
        "a81bd1da4f76710f041ddc74e1130108b4a2fe188c4e9e81d1bdc67a2dcbad51",
    f"green --scheme custom {LW5_CUSTOM} --n 500 --method direct":
        "2ba4bb1837a32020606f0b1490fdd1342eff37cc35ee85cee0079a08bf0d8442",
    (f"green --scheme custom {LW5_CUSTOM} --n 500 --method direct"
     " --format json"):
        "0d9f9ab420e4ac1ea40ee34d2ac6da237d0f16dd179ac6d809af4ad97eba7041",
    f"evolve --scheme custom {LW5_CUSTOM} --lambda 0.5 --dx 0.05 --t 1.0":
        "9db617450f73b6072309b04ef2cf0525ed771b4f64c9ebcfbcc9c056c0ff3242",
    f"growth --scheme custom {LW5_CUSTOM}":
        "fe9e4eee9e651ada5313a51218575e536a9d44cd42ca1251da7545ad7dc07143",
    f"coeffs --scheme custom {COMPLEX_CUSTOM}":
        "dbf6f8bfb3cda1d07800d342cc1cadfe3252cd7ce1900b99cbe3c0a3963c583e",
    f"coeffs --scheme custom {COMPLEX_CUSTOM} --format json":
        "b6b91ff4b509bd2e90a23ca4bcba9b54d0654b715481f48c0546a523ab96cec4",
    f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method spectral":
        "31218bf0a7a59e2d63a9bbaf0bb58bfb4192b9f48ea14be800c72cb3046ecc90",
    (f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method spectral"
     " --format json"):
        "31e6d59c353408e17a19f9de7c455289f4c0846de1492d65835e16da27ae836d",
    f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method direct":
        "ad5a535115f9682dc9f5cae180a776b0e4e8a5934b08b0cf7122010c40948605",
    (f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method direct"
     " --format json"):
        "f6783307d76ec2af0ab589fa36256ddaadd9f268a19d9c84ceeb03d5808d6090",
    f"evolve --scheme custom {COMPLEX_CUSTOM} --lambda 0.5 --dx 0.05 --t 1.0":
        "6bacdc95f4c23220d97fe581a511216e85c3686861a0f9d4b8d105f67633260d",
    f"growth --scheme custom {COMPLEX_CUSTOM}":
        "e8b2b69cc80ef01d7edd9487c60e69e62ba255c96a79b923fc980212b99e9002",
    "evolve --scheme custom --custom=3:0.5:0,4:0.5:0 --lambda 0.5"
    " --dx 0.05 --t 1.0":
        "17bb14d27b821885888bbe537dde73e0907d3eb79a51e31e06cf2616cd3eaede",
}


@pytest.mark.parametrize("command,digest", REPORT_SHA256.items())
def test_report_bytes_unchanged(tmp_path, capsys, command, digest):
    argv = command.split()
    out = tmp_path / "report.json"
    assert run(*argv) == EXIT_OK
    text = capsys.readouterr().out
    assert run(*argv, "--out", str(out)) == EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
        expansion_coefficients lax_wendroff symbol_eval
        DEFAULT_MEMORY_BUDGET_MB MEMORY_BUDGET_ENV GreenTable GridFunction
        MemoryBudgetError WorkBudgetError
        evolve green_direct green_spectral sample_step spectral_sweep
        ApproxParams airy_ai approx_G approx_H erf growth_constant FIT_SAFETY
        FIT_WINDOW BoundReport BVReport GrowthReport bv_bounds
        envelope_reports growth_series
        """.split())
    assert len(dgreen.__all__) == 38
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
        "GridFunction.__init__.right_tail", "_spectral_window.reserve"}


def test_public_names_have_callers():
    """Every public name is read in src/dgreen or benchmark/ outside its own
    top-level definition.

    Reads inside the definition of a public name count only once that name
    has a reader of its own, so a public helper whose one caller is another
    name without callers has none either.
    """
    import dgreen

    root = pathlib.Path(__file__).resolve().parent.parent
    package = root / "src" / "dgreen"
    public = set(dgreen.__all__)
    reads = {}      # public name -> names its definition reads; None: rest
    for path in [*package.glob("*.py"), *(root / "benchmark").glob("*.py")]:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", None)
            if isinstance(stmt, ast.Assign):
                owner = getattr(stmt.targets[0], "id", None)
            if path.parent != package or owner not in public:
                owner = None
            reads.setdefault(owner, set()).update(
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, ast.Attribute)
                or isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load))
    called = reads[None]
    while True:
        more = called.union(*(reads.get(name, ()) for name in called & public))
        if more == called:
            break
        called = more
    assert sorted(public - called) == []


def test_public_methods_have_callers():
    """Every method and property of a class in dgreen.__all__ is read as
    an attribute in src/dgreen or benchmark/ outside its own definition."""
    import dgreen

    members = {(cls.__name__, name)
               for cls in map(vars(dgreen).get, dgreen.__all__)
               if inspect.isclass(cls)
               for name, member in vars(cls).items()
               if not name.startswith("__")
               and (inspect.isfunction(member) or isinstance(member, (
                   property, classmethod, staticmethod,
                   functools.cached_property)))}
    root = pathlib.Path(__file__).resolve().parent.parent
    read = set()

    def visit(node, inside):
        if isinstance(node, ast.Attribute) and node.attr not in inside:
            read.add(node.attr)
        if isinstance(node, ast.FunctionDef):
            inside = inside | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in [*(root / "src" / "dgreen").glob("*.py"),
                 *(root / "benchmark").glob("*.py")]:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    assert sorted(m for m in members if m[1] not in read) == []


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


# Inputs that ended in a traceback, a hang, a warning, a wrong artifact or a
# report with NaN or Infinity, and the exit code each gives now.
_CASES = {
    "coeffs --scheme custom --custom=0:0.5:0,1000000000000:0.5:0": EXIT_MEMORY,
    "coeffs --scheme custom --custom=0:1e308:0,1:1e308:0": EXIT_CONFIG,
    "green --scheme custom --custom=0:1e200:0,1:-1e200:0,2:1:0 --n 3":
        EXIT_CONFIG,
    "green --scheme custom --custom=0:1e10:0,1:1:0 --n 100": EXIT_CONFIG,
    # Moments that leave the float range: m2 itself, or m2 about the drift.
    "coeffs --scheme custom --custom=0:1e300:0,100000:-1e300:0,1:1:0":
        EXIT_CONFIG,
    "green --scheme custom --custom=0:1e300:0,100000:-1e300:0,1:1:0 --n 2":
        EXIT_CONFIG,
    "green --scheme custom --custom=-1:6e307:0,0:1e300:0,1:-6e307:0 --n 1":
        EXIT_CONFIG,
    "green --scheme custom --custom=0:2:0 --n 2000 --format json": EXIT_CONFIG,
    "growth --lambda 0.75 --growth-tol nan": EXIT_CONFIG,
    "green --scheme custom --custom=0:1:0 --n 1000000000 --method direct":
        EXIT_OK,
    # Step counts past 2**53, the largest a float64 holds exactly.
    **{f"{argv} 1{'0' * 400}": EXIT_MEMORY
       for argv in ("green --lambda 0.75 --n",
                    "green --lambda 0.75 --method direct --n",
                    "green --scheme custom --custom=0:1:0 --n",
                    "growth --lambda 0.75 --n-list",
                    "bv --lambda 0.75 --n-list",
                    "bounds --lambda 0.75 --n-list")},
    "green --scheme custom --custom=0:-1:0 --n 9007199254740993": EXIT_MEMORY,
    # An empty --out path, refused before anything runs.
    "coeffs --lambda 0.75 --out=": EXIT_CONFIG,
    # A grid too small for an oscillation side: the report says null.
    "bounds --scheme lw --lambda 0.75 --n-list 20,40": EXIT_OK,
    # A separate --custom value with a negative first offset.
    "coeffs --scheme custom --custom -1:0.5:0,0:0.5:0": EXIT_OK,
    # Coefficient sums below the smallest normal float64.
    **{f"coeffs --scheme custom --custom={custom} --format {output_format}":
       EXIT_OK
       for custom in ("0:1e-310:0", "0:1e-320:0,1:1e-320:0")
       for output_format in ("text", "json")},
    # A time step lambda * dx that is not a finite number > 0.
    **{f"evolve --scheme custom --custom=0:0.5:0,1:0.5:0 --dx 0.1 --t 1 {lam}":
       EXIT_CONFIG
       for lam in ("--lambda 0", "--lambda 1e-300 --dx 1e-300",
                   "--lambda -1", "--lambda inf", "--lambda nan")},
}


def _with_cases(test):
    for case in _CASES:
        # A case that sets --out runs with no second --out after it.
        target = "stdout" if "--out" in case else "file"
        test = example(argv=case.split(), target=target)(test)
    return test


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argv=_argvs(), target=st.sampled_from(["file", "stdout", "missing"]))
@_with_cases
def test_cli_fuzz(argv, target):
    """Every run ends in a documented exit code, without a traceback.

    A failed run writes no artifact; exit 5 writes the report it judged.
    Every JSON report is standard JSON, without NaN or Infinity.  Exit 0
    and 5 write nothing to stderr, and a refusal after parsing writes one
    `error: ` line; a warning, which the CLI would print, raises.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    # A small memory budget turns large tables into a quick exit 4.
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"DG_MEMORY_BUDGET_MB": "32"}), \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("error")
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
    err = stderr.getvalue()
    assert "Traceback" not in err
    assert code == _CASES.get(" ".join(argv), code)
    if code in (EXIT_OK, EXIT_ACCEPTANCE):
        assert err == ""
        assert written == (["artifact"] if target == "file" else [])
        text = text or stdout.getvalue()
        if text.startswith("{"):
            json.loads(text, parse_constant=_reject_constant)
    else:
        assert written == []
        if not err.startswith("usage: "):
            assert err.startswith("error: ") and err.count("\n") == 1
