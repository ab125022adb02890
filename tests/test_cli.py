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

from dgreen import cli, green
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
    whole run stays within that need: the bytes checked plus the fixed
    term of _check_budget."""
    checked = []
    check = cli._check_budget

    def spy(nbytes):
        checked.append(nbytes)
        check(nbytes)

    monkeypatch.setattr(cli, "_check_budget", spy)
    tracemalloc.start()
    try:
        assert run(*argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(checked) == 1
            and peak <= checked[0] + green._FIXED_BYTES)


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

    @pytest.mark.parametrize("command", ["bounds", "bv"])
    def test_long_n_list_within_work_cap(self, monkeypatch, capsys, command):
        # A dense list takes one product per n besides the squarings, and
        # one past the cap is refused before any work.
        products = []
        span_product = green._span_product

        def spy(a, b, repeats):
            products.append(repeats)
            return span_product(a, b, repeats)

        monkeypatch.setattr(green, "_span_product", spy)
        args = (command, "--scheme", "lw", "--lambda", "0.75", "--n-list")
        assert run(*args, ",".join(map(str, range(1, 1001)))) == EXIT_OK
        assert len(products) <= 9 + 1000
        products.clear()
        assert run(*args, ",".join(map(str, range(1, 31624)))) == EXIT_MEMORY
        assert "work cap" in capsys.readouterr().err
        assert products == []

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
        # 4e5 rows of 256 B, 1 MB and the fixed term of 64 KiB: 103.5 MB.
        monkeypatch.setenv("DG_MEMORY_BUDGET_MB", "64")
        out = tmp_path / "g.csv"
        with mock.patch.object(cli, "green_spectral",
                               side_effect=AssertionError):
            assert run("green", "--lambda", "0.75", "--n", "200000",
                       "--out", str(out)) == EXIT_MEMORY
        assert capsys.readouterr().err == (
            "error: the computation needs about 104 MB, budget is 64 MB\n")
        assert list(tmp_path.iterdir()) == []

    def test_refusal_reads_above_budget(self, monkeypatch, capsys):
        # 256 * 1995649 B, 1 MB and the fixed term of 64 KiB: 512.000256
        # MB, which three digits would print as the 512 MB budget.
        monkeypatch.delenv("DG_MEMORY_BUDGET_MB", raising=False)
        with mock.patch.object(cli, "green_spectral",
                               side_effect=AssertionError):
            assert run("green", "--lambda", "0.75",
                       "--n", "997824") == EXIT_MEMORY
        assert capsys.readouterr() == ("", "error: the computation needs "
                                       "about 512.0003 MB, budget is 512 MB\n")

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
        # 2e5 cells of step data: about 43 MB with evolve's arrays and CSV.
        monkeypatch.setenv("DG_MEMORY_BUDGET_MB", "1")
        out = tmp_path / "ev.csv"
        with mock.patch.object(cli, "sample_step", side_effect=AssertionError):
            assert run("evolve", "--lambda", "0.75", "--dx", "1e-5",
                       "--t", "1e-5", "--half-width", "1",
                       "--out", str(out)) == EXIT_MEMORY
        assert capsys.readouterr().err == (
            "error: the computation needs about 43.3 MB, budget is 1 MB\n")
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
# sha256 of the bounds and bv reports (numpy 2.4.6, x86-64).  Every JSON
# digest here was re-taken at schema_version 2, after a check
# that each report differed from its schema 1 bytes in the version line
# alone, and a bounds report also in its added sum_per_n and
# oscillation_side keys.  Six were re-taken when the spectral route began
# to power the stencil it was given, with exact moment sums, and growth
# stopped reflecting c3 < 0 stencils: the bv reports of LW 0.3, 0.49 and
# BW 0.36, 1.8 (their direct-route fields unchanged, the spectral sups
# within 3e-13 relative, the route gap no larger) and the growth reports
# of BW 0.5 and the complex custom (l1 and ratios within 1e-15 relative,
# every other field unchanged).  Every digest of a report that reads the
# direct route (bounds, bv, green --method direct and evolve, 32 in all)
# was re-taken when that route became binary powering with extended short
# levels: against the step loop's reports, the bounds fields moved by at
# most 1.4e-13 relative and the bv sups by 2e-15, the table cells of at
# least 1e-250 by 4.6e-13 and the evolved cells by 4.3e-14; the bv route
# gaps fell from up to 2.2e-15 to at most 5.6e-16.
REPORT_SHA256 = {
    "bounds --scheme lw --lambda 0.75":
        "960fc1ef75c88e3077e6e0851490a5d3ff871847840b53fbca2409ca6474d4b3",
    "bv --scheme lw --lambda 0.75 --n-list 100,1000,3000":
        "c30c502ff6e704e70b06289ea65d3913b8f34777281967ac76daef90674b7ce9",
    "bounds --scheme lw --lambda 0.3":
        "38d6145625f8d1bc3349abe1dc8739feda43b75667bcec55fc9272d83d4574a2",
    "bv --scheme lw --lambda 0.3 --n-list 100,1000,3000":
        "11d7edb6f0cb599e3f7e00b90972bca561087da705adf8a171069d852714bef6",
    "bounds --scheme lw --lambda 0.49":
        "ae91b17c92f46eba9e4b82c693bcd29525fa26943067a427760bb90c67da6cfc",
    "bv --scheme lw --lambda 0.49 --n-list 100,1000,3000":
        "a491e85e9796e1421fb98f9be834e1af1162921f19d4faa576246bc53feb917c",
    "bounds --scheme bw --lambda 0.5":
        "17d41b0e3e80a0c1a3ce2ac1d53b003082b33e49e1fa60ede61895e283ac110a",
    "bv --scheme bw --lambda 0.5 --n-list 100,1000,3000":
        "be60436045ee5fbf797f4b8bd1189382349b961693236191aeafe059128ceca4",
    "bounds --scheme bw --lambda 0.36":
        "7fb8a9f9092d27d28cff9afcdab41e3ae7e96af3966eba7eb64c4df799b39282",
    "bv --scheme bw --lambda 0.36 --n-list 100,1000,3000":
        "d1990f56358c0d3f3ad092e5127c83be487474d7018ebe5937612fbe3b557fa6",
    "bounds --scheme bw --lambda 1.5":
        "1dc7c39c83161eff194502fa7df9e182ff90b8ce903a07f95383c5f13fab0f75",
    "bv --scheme bw --lambda 1.5 --n-list 100,1000,3000":
        "896c14a42643f69851682ea921ba725014f72da1b68b45c2f366241a90132a45",
    "bounds --scheme bw --lambda 1.8":
        "145605b1b73feb1a24615c852814e44a5ff135660bdff9ba8247910cdc9d8cd8",
    "bv --scheme bw --lambda 1.8 --n-list 100,1000,3000":
        "c2a0dc1928df15749808732229d8b9ede0b104a368e97a128478e71aeec53661",
    f"bounds --scheme custom {LW5_CUSTOM}":
        "94c34aacc45ae469e53837c6b839ce21eeec6180dcff7c4742450c847bb2030c",
    f"bv --scheme custom {LW5_CUSTOM} --n-list 100,1000,3000":
        "6d496e6c548c71b301a9ef354c2aac2e92721ca8190173612348b41329294475",
    # Duplicate step counts: each one keeps its own row, in grid order
    # (numpy 2.4.6, x86-64).
    "bounds --scheme lw --lambda 0.75 --n-list 250,250,1000":
        "09585861b9f799617a661d16a4586109219e3d4983e3f8432d5c3f13fba45ed0",
    "bv --scheme lw --lambda 0.75 --n-list 100,100,1000":
        "2d4609c800caff9c8debbdc593b155c279aa4fbdb3a9fad9f9f3b554139a6a25",
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
        "edd90f7f02e162191bca2383aa9f14bb477f0efb3d3bfe44d5914ace91e7630a",
    "green --scheme lw --lambda 0.75 --n 500 --method direct --format json":
        "b32963a65a9c23f421d84775a519e961883e17e4995a45759a3933779c703a29",
    "evolve --scheme lw --lambda 0.75 --dx 0.05 --t 1.0":
        "a22cce074171feb0bf8ad6d7c36682a48440af7d64b27fa58a700d885c95ec14",
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
        "2ebff4425193b75c6d33ac2a9d3d036028b4b043b3098ecabbd29c34220e3833",
    "green --scheme bw --lambda 0.5 --n 500 --method direct --format json":
        "c27394be9123619f2bad92363a3499e126320c87823bac23785e77a4dfd7900e",
    "evolve --scheme bw --lambda 0.5 --dx 0.05 --t 1.0":
        "fab425d7fb265d32cab2d5bb71865a9702aba23fa97a733a8044a5251bc23cc7",
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
        "1b03e889c3de4371fe692321a6b7011265fbe8adc44bd00660f239db93ac6ba0",
    "green --scheme bw --lambda 1.5 --n 500 --method direct --format json":
        "18b83da73a97433a128720fdc4d42fb78ecde8415348af52e8b1dcc1b5ad8735",
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
        "72400fff4cf765c1a4da7c2a4a7b69478cfed519e726767b30258ea8bcbaf852",
    (f"green --scheme custom {LW5_CUSTOM} --n 500 --method direct"
     " --format json"):
        "d6a767d95f2c0d99e62648fff43e276c4cfa77ef6c6fbce3fc4fd25f6433e9c8",
    f"evolve --scheme custom {LW5_CUSTOM} --lambda 0.5 --dx 0.05 --t 1.0":
        "4bcdb92d4e993625de8b8cf29811f89f48e43e5de7f8c79643925500fc41f455",
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
        "438a1f58dfd18a663be5a8d70fe846ad7843db4484b7e583216fd066d826b42a",
    (f"green --scheme custom {COMPLEX_CUSTOM} --n 500 --method direct"
     " --format json"):
        "c79f83ce3661ebd6b342d5eb2f442046dc82ec5850c9317aa52a652240e546c1",
    f"evolve --scheme custom {COMPLEX_CUSTOM} --lambda 0.5 --dx 0.05 --t 1.0":
        "a7ac7652f4b687cba6fb00d54ca9a8c4137d4f465f258fdfdf67156601b33f89",
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
    # included: a caller inside the package, not a test alone, passes each
    # of them a value other than its default.
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
    assert defaulted == {"Stencil.__init__.label", "_spectral_window.reserve"}


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
