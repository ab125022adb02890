import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
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
        assert s.coefficient(1) == 0.0
        assert s.coefficient(2) == 0.25


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
         "a23ea6381f37f789ff8c47fdf16a04144c2b89fc16fe0c6387bec97d3572772e"),
    ])
    def test_sparse_wide_bytes_unchanged(self, capsys, output_format, digest):
        # Recorded when Stencil checked and summed its 400001 coefficients
        # one Python object at a time.
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
        assert data["schema_version"] == 1
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
        rows = [f"{_fmt((j + 0.5) * 0.05)},{_fmt(u0.value_at(j).real)},"
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


LW5_CUSTOM = ("--custom=-2:0.01171875:0,-1:-0.125:0,0:0.2109375:0,"
              "1:0.65625:0,2:0.24609375:0")       # LW(3/4) * LW(1/2)
COMPLEX_CUSTOM = _COMPLEX[-1]
# sha256 of the bounds and bv reports as the direct route wrote them when
# every step convolved the whole support, subnormal tails included (numpy
# 2.4.6, x86-64).  Trimming the underflowed tails must not move one byte.
REPORT_SHA256 = {
    "bounds --scheme lw --lambda 0.75":
        "9b5780107a93b2e65dbfda47c7f8106187c6f7eb5e42766a65264cae101487e6",
    "bv --scheme lw --lambda 0.75 --n-list 100,1000,3000":
        "6ff854406406dba020572906b10c6b549aba9a78ccce99aeb309a8ffaf6a59db",
    "bounds --scheme lw --lambda 0.3":
        "73c1b2703d80689dc244f781b84644fb3666a3e128c4e2aea906ba528826624f",
    "bv --scheme lw --lambda 0.3 --n-list 100,1000,3000":
        "815091f573ffac9a244f605ccada0afcea79b5e0bbd8f0bca3ed572a745b79bb",
    "bounds --scheme lw --lambda 0.49":
        "5a0d368f0289d210d8223b336ccf35ad5ebb0080b97d0c1dc45293f81086c3aa",
    "bv --scheme lw --lambda 0.49 --n-list 100,1000,3000":
        "ad901451cf37ebc17d801f649965f5ff8f86fb0923f3c8f355f20769a397d108",
    "bounds --scheme bw --lambda 0.5":
        "9de86c52428a9c4c7c1b119f127ab4a5bed5d6380aa8b6e5ff4c4e5136acc423",
    "bv --scheme bw --lambda 0.5 --n-list 100,1000,3000":
        "344172c407c4dd80fbac598f24980c9fa2d055fb06b9fc4777213e840e7dc1d8",
    "bounds --scheme bw --lambda 0.36":
        "a6a9865bf3309224df5be344de5873a38ce46e35385b9314f8fb50b25dfb226d",
    "bv --scheme bw --lambda 0.36 --n-list 100,1000,3000":
        "b65af5b2dd7acb853e711937c11300fa06a13fac29f0f84226346abf21023cd6",
    "bounds --scheme bw --lambda 1.5":
        "3b80d823cbcbb0161fd088b20db25c5fdbb72fcb429d16855a1ca5628b2b6f2c",
    "bv --scheme bw --lambda 1.5 --n-list 100,1000,3000":
        "fe48d425a6359ef7196aa3e5206fb5213b5570b7b7d5d8e6a598a8a20cbe7bb0",
    "bounds --scheme bw --lambda 1.8":
        "5a76927cd501c0c69ba51ea7db5c390497b51f349ef2660c9f73c97c11a6a2de",
    "bv --scheme bw --lambda 1.8 --n-list 100,1000,3000":
        "9d908bb639a905dd5749561150fdf09bee1183318071d72dd0f072d8c4dc352f",
    f"bounds --scheme custom {LW5_CUSTOM}":
        "373bee52740b228048b1b6291b8c237f923e1157351260b60229ed55d9abd6be",
    f"bv --scheme custom {LW5_CUSTOM} --n-list 100,1000,3000":
        "876d71504c2c832e5138011e104bb46a3723b98d2b0ea843603106adc59e9411",
    # Duplicate step counts: each one keeps its own row, in grid order
    # (numpy 2.4.6, x86-64).
    "bounds --scheme lw --lambda 0.75 --n-list 250,250,1000":
        "ed7bd92568cc98ccd2db6fc1579bb2424aac079c08a9699491693c7172dcfbf4",
    "bv --scheme lw --lambda 0.75 --n-list 100,100,1000":
        "1d033ceddb86f0e64bdd7f7d1655f4298b928d492c11ba993ab0d82d4ca6a8a8",
    # coeffs, green (both routes, CSV and JSON), evolve and growth as
    # written before each route read the stencil's coefficient data from
    # one place (numpy 2.4.6, x86-64).
    "coeffs --scheme lw --lambda 0.75":
        "e2e6049fde38d31cd412094660815c34641a500b3581c6a35f31ce609570d9a4",
    "coeffs --scheme lw --lambda 0.75 --format json":
        "1bc00e054fea865c1aca6f7d500e634872de86032b6c46a4e9435d583b0fe977",
    "green --scheme lw --lambda 0.75 --n 500 --method spectral":
        "a480fd8ff3f6a029f7036c2faa1056fafdec460450d1259ec4dcf5040a0b7101",
    "green --scheme lw --lambda 0.75 --n 500 --method spectral --format json":
        "285501cf19bffc83e6988f1e618f2ca2f0687476fc3c26dec3b7cf8e2a5fc6a3",
    "green --scheme lw --lambda 0.75 --n 500 --method direct":
        "f3354a384c03a879ff7cf1b5e780382e563cee49436c644ea4abf526017239eb",
    "green --scheme lw --lambda 0.75 --n 500 --method direct --format json":
        "ece7c0e6d744ab82293b0ec7cfb60df48192d624eeac511b57dada75a3a96d55",
    "evolve --scheme lw --lambda 0.75 --dx 0.05 --t 1.0":
        "5f8013704d9bf235259b42f15a96e04a0ef8d0b197df895aad37c16b9fd04105",
    "growth --scheme lw --lambda 0.75":
        "ccb03d1aa57c54bf827aa358f06fd5bf9756673d20644b38a7d9ff9b96d89ba6",
    "coeffs --scheme bw --lambda 0.5":
        "75a690c771864c0b1a013287c64bc00138f7f3e2c51914e6295a5913ee841df6",
    "coeffs --scheme bw --lambda 0.5 --format json":
        "291c974b7aa140e54bbda399230b499d0745ee69cf90c183152a4463388edc1d",
    "green --scheme bw --lambda 0.5 --n 500 --method spectral":
        "235036c9e7372b220166be4ef12776dbd6529b90af20aa083d4a2b81fb94b1a7",
    "green --scheme bw --lambda 0.5 --n 500 --method spectral --format json":
        "aa2123f6258069cc8f4f2b35a012483de720d090d4a5d10324cfeaec36aa3598",
    "green --scheme bw --lambda 0.5 --n 500 --method direct":
        "935c5d3889eb38744a4efa09104ae6f3b6cdfe35a01534b1eac3d4577fdba0c9",
    "green --scheme bw --lambda 0.5 --n 500 --method direct --format json":
        "e274a4e5a38a436b043e0eeb1c52344ec53fd355d11ebb548b8654341e235d46",
    "evolve --scheme bw --lambda 0.5 --dx 0.05 --t 1.0":
        "8dfc292656a7aaf2de9c691504d05e388315bca7fb8f3909618270aaa4895b7a",
    "growth --scheme bw --lambda 0.5":
        "5f8b85503d0a5c10f41754f45be9ceb68d2bd30a2a7871bcd366943e0cb84f48",
    "coeffs --scheme bw --lambda 1.5":
        "121a2283864c363d398175413156b31e53cc1b2a29c7dae994754c5470af7397",
    "coeffs --scheme bw --lambda 1.5 --format json":
        "4e26f364d3d40917bb5974ad0c1a8d002bc30ca0b7a0f162f8ff93c15bcb70a4",
    "green --scheme bw --lambda 1.5 --n 500 --method spectral":
        "714a565d7194b13c2b60fa78f52621e7c363bfb9f2996ed87d18b8acd75a183c",
    "green --scheme bw --lambda 1.5 --n 500 --method spectral --format json":
        "1c1dd459716649135963e2aa16af98eea3c1c1bcbb1fb1045e1b4edffb49dd5f",
    "green --scheme bw --lambda 1.5 --n 500 --method direct":
        "302683b990d95b9b13772be66f5705f429fd86d5aff1ba251b183cba39d0c373",
    "green --scheme bw --lambda 1.5 --n 500 --method direct --format json":
        "b458ae7a4e10628a11c0ecda5b8e0c93e555e3253f2c8809cf1b937a42c7d2fa",
    "evolve --scheme bw --lambda 1.5 --dx 0.05 --t 1.0":
        "ef3f0283add51537342c92b8a57949cd818c43066b2b8ee302c90dfbad325c26",
    "growth --scheme bw --lambda 1.5":
        "1a9d7f44faa234237cfc6b2497436e670383a4edae918b976763a8836f34a67c",
    f"coeffs --scheme custom {LW5_CUSTOM}":
        "23b3e5e714170cf8bda0ddae93c3e0ac10b97fbcbac8284f0e8ac272f69f5b3b",
    f"coeffs --scheme custom {LW5_CUSTOM} --format json":
        "28d552500014dd83d01ede2682ffe093ff0b1e488f55c296a130b5759be7a867",
    f"green --scheme custom {LW5_CUSTOM} --n 500 --method spectral":
        "2e8c0f991c6637c7fe065ee445c50fb3f51e628b648f82b5f0a751e29531b8ad",
    (f"green --scheme custom {LW5_CUSTOM} --n 500 --method spectral"
     " --format json"):
        "07d53e72bda400085833b7d56c9c8066f1416c935a23f4129a47ad15de5282b5",
    f"green --scheme custom {LW5_CUSTOM} --n 500 --method direct":
        "2ba4bb1837a32020606f0b1490fdd1342eff37cc35ee85cee0079a08bf0d8442",
    (f"green --scheme custom {LW5_CUSTOM} --n 500 --method direct"
     " --format json"):
        "b807579b6e705e526ab705e6d8a9d38cca1a803da7aaf664f323cdeb6a1419a3",
    f"evolve --scheme custom {LW5_CUSTOM} --lambda 0.5 --dx 0.05 --t 1.0":
        "9db617450f73b6072309b04ef2cf0525ed771b4f64c9ebcfbcc9c056c0ff3242",
    f"growth --scheme custom {LW5_CUSTOM}":
        "4938d482f6ab5007b5f75e308d877e8b9345ed00ed85f0a879467d591e37fbb4",
    f"coeffs --scheme custom {COMPLEX_CUSTOM}":
        "dbf6f8bfb3cda1d07800d342cc1cadfe3252cd7ce1900b99cbe3c0a3963c583e",
    f"coeffs --scheme custom {COMPLEX_CUSTOM} --format json":
        "0f9b737ffde62cd330720e6b520fb554ceefd8104fb51c7404497dd610f86d2b",
    f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method spectral":
        "31218bf0a7a59e2d63a9bbaf0bb58bfb4192b9f48ea14be800c72cb3046ecc90",
    (f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method spectral"
     " --format json"):
        "bb55d0ce4cefe11faea57fc1d1d6537609631cc54ace7fd4b006941531ac0903",
    f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method direct":
        "ad5a535115f9682dc9f5cae180a776b0e4e8a5934b08b0cf7122010c40948605",
    (f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method direct"
     " --format json"):
        "31f2cab5a193c31f6d337705589729e8683d9498d9f8310bc64e1843766d7c82",
    f"evolve --scheme custom {COMPLEX_CUSTOM} --lambda 0.5 --dx 0.05 --t 1.0":
        "6bacdc95f4c23220d97fe581a511216e85c3686861a0f9d4b8d105f67633260d",
    f"growth --scheme custom {COMPLEX_CUSTOM}":
        "d59510f12d8a8adfb93e7158db051994a91c1a283528a2a248b21dcfe5e1aeef",
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
        "_spectral_window.reserve"}


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
        test = example(argv=case.split(), target="file")(test)
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
