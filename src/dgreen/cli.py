"""Command line front end emitting deterministic CSV/JSON artifacts.

Identical configuration produces byte-identical files: numeric cells use 17
significant digits, rows are ordered by index, and the single `#` metadata
line carries only the configuration, never wall-clock time.  Files are
written to a uniquely named temporary sibling and renamed into place so a
crash cannot leave a partial artifact.

Exit codes: 0 success, 2 invalid configuration or unwritable output, 3
inadmissible scheme under --require-admissible, 4 memory budget or work cap
refusal, 5 failed acceptance predicate under --strict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .approx import ApproxParams, approx_G, approx_H
from .green import (
    MemoryBudgetError,
    WorkBudgetError,
    _check_work,
    evolve,
    green_direct,
    green_spectral,
    sample_step,
)
from .analysis import bv_bounds, envelope_reports, growth_series
from .stencil import Stencil, assumption_audit, beam_warming, lax_wendroff

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INADMISSIBLE = 3
EXIT_MEMORY = 4
EXIT_ACCEPTANCE = 5

SCHEMA_VERSION = 1

_GROWTH_DEFAULT_N = (1000, 10000, 100000)
_BOUNDS_DEFAULT_N = (250, 500, 1000, 2000)
_BV_DEFAULT_N = (100, 1000, 10000)


class InadmissibleSchemeError(ValueError):
    """Scheme fails the admissibility audit under --require-admissible."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI invocation.

    Exactly one stencil source is set: a named scheme (lw or bw) with its
    Courant number, or explicit custom coefficients.  Documented defaults:
    method 'spectral', half_width 0.5 (step data is the indicator of
    [-1/2, 1/2]), growth_tol 0.15, n grids (1000, 10000, 100000) for growth,
    (250, 500, 1000, 2000) for bounds, (100, 1000, 10000) for bv.  All runs
    are seedless and deterministic.
    """

    command: str
    scheme: str = "lw"
    lam: float | None = None
    custom_coefficients: tuple | None = None
    n: int | None = None
    n_list: tuple | None = None
    output_format: str | None = None
    output_path: str | None = None
    method: str = "spectral"
    strict: bool = False
    require_admissible: bool = False
    dx: float | None = None
    t_final: float | None = None
    half_width: float = 0.5
    growth_tol: float = 0.15

    def __post_init__(self):
        if self.scheme in ("lw", "bw"):
            if self.lam is None:
                raise ValueError(f"--scheme {self.scheme} requires --lambda")
            if self.custom_coefficients is not None:
                raise ValueError("--custom conflicts with a named scheme")
        elif self.scheme == "custom":
            if not self.custom_coefficients:
                raise ValueError("--scheme custom requires --custom triplets")
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")


def _parse_custom(text: str) -> tuple:
    """Parse 'offset:re:im,offset:re:im,...' into coefficient triplets."""
    triplets = []
    seen = set()
    for chunk in text.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 3:
            raise ValueError(f"bad custom coefficient {chunk!r}; "
                             "expected offset:re:im")
        offset = int(parts[0])
        if offset in seen:
            raise ValueError(f"duplicate custom offset {offset}")
        seen.add(offset)
        triplets.append((offset, float(parts[1]), float(parts[2])))
    if not triplets:
        raise ValueError("empty custom coefficient list")
    return tuple(triplets)


def _parse_n_list(text: str) -> tuple:
    values = tuple(int(v) for v in text.split(",") if v.strip())
    if not values:
        raise ValueError("empty n list")
    return values


def make_stencil(cfg: RunConfig) -> Stencil:
    if cfg.scheme == "lw":
        return lax_wendroff(cfg.lam)
    if cfg.scheme == "bw":
        return beam_warming(cfg.lam)
    triplets = sorted(cfg.custom_coefficients)
    lo = triplets[0][0]
    hi = triplets[-1][0]
    dense = [0j] * (hi - lo + 1)
    for offset, re, im in triplets:
        dense[offset - lo] = complex(re, im)
    return Stencil(lo, tuple(dense), label="custom")


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _atomic_write(path: str, text: str) -> None:
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp",
                               dir=directory)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output_path is None:
        sys.stdout.write(text)
    else:
        _atomic_write(cfg.output_path, text)


def _scheme_meta(cfg: RunConfig) -> str:
    if cfg.scheme == "custom":
        spec = ",".join(f"{o}:{re!r}:{im!r}"
                        for o, re, im in sorted(cfg.custom_coefficients))
        return f"scheme=custom coefficients={spec}"
    return f"scheme={cfg.scheme} lambda={cfg.lam!r}"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _stencil_json(s: Stencil):
    return {
        "label": s.label,
        "coefficients": [[int(o), float(c.real), float(c.imag)]
                         for o, c in zip(s.offsets, s.coefficients)],
    }


def _audit_or_raise(cfg: RunConfig, s: Stencil):
    audit = assumption_audit(s)
    if cfg.require_admissible and not audit.admissible:
        raise InadmissibleSchemeError(
            f"scheme {s.label or 'custom'} is not admissible")
    return audit


def cmd_coeffs(cfg: RunConfig) -> int:
    s = make_stencil(cfg)
    audit = _audit_or_raise(cfg, s)
    e = audit.expansion
    if cfg.output_format == "json":
        obj = {
            "schema_version": SCHEMA_VERSION,
            "command": "coeffs",
            "stencil": _stencil_json(s),
            "alpha": e.alpha,
            "kappa2": e.kappa2,
            "c3": e.c3,
            "c4": e.c4,
            "residual5": e.residual5,
            "sums_to_one": audit.sums_to_one,
            "dissipative": audit.dissipative,
            "min_margin": audit.min_margin,
            "admissible": audit.admissible,
        }
        text = _json_text(obj)
    else:
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
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return EXIT_OK


def cmd_green(cfg: RunConfig) -> int:
    if cfg.n is None or cfg.n < 1:
        raise ValueError("green requires --n >= 1")
    s = make_stencil(cfg)
    audit = _audit_or_raise(cfg, s)
    if cfg.method == "direct":
        table = green_direct(s, cfg.n)
    else:
        table = green_spectral(s, cfg.n)
    offsets = table.offsets
    values = table.values
    g_col = h_col = None
    if audit.admissible:
        params = ApproxParams.from_expansion(audit.expansion)
        g_col = approx_G(params, cfg.n, offsets)
        if params.c3_sign > 0:
            h_col = approx_H(params, cfg.n, offsets)
    if cfg.output_format == "json":
        obj = {
            "schema_version": SCHEMA_VERSION,
            "command": "green",
            "stencil": _stencil_json(s),
            "n": cfg.n,
            "method": table.method,
            "j": [int(j) for j in offsets],
            "re": [float(v.real) for v in values],
            "im": [float(v.imag) for v in values],
            "abs": [float(a) for a in np.abs(values)],
            "approx_G": None if g_col is None else [float(v) for v in g_col],
            "approx_H": None if h_col is None else [float(v) for v in h_col],
        }
        text = _json_text(obj)
    else:
        lines = [f"# dgreen green {_scheme_meta(cfg)} n={cfg.n} "
                 f"method={table.method}",
                 "j,re,im,abs,approx_G,approx_H"]
        mags = np.abs(values)
        for k, j in enumerate(offsets):
            g_s = _fmt(g_col[k]) if g_col is not None else ""
            h_s = _fmt(h_col[k]) if h_col is not None else ""
            lines.append(f"{int(j)},{_fmt(values[k].real)},"
                         f"{_fmt(values[k].imag)},{_fmt(mags[k])},{g_s},{h_s}")
        text = "\n".join(lines) + "\n"
    _emit(cfg, text)
    return EXIT_OK


def cmd_evolve(cfg: RunConfig) -> int:
    if cfg.dx is None or not 0 < cfg.dx < math.inf:
        raise ValueError("evolve requires a finite --dx > 0")
    if cfg.t_final is None or not 0 <= cfg.t_final < math.inf:
        raise ValueError("evolve requires a finite --t >= 0")
    if not 0 < cfg.half_width < math.inf:
        raise ValueError("evolve requires a finite --half-width > 0")
    if cfg.lam is None:
        raise ValueError("evolve requires --lambda to size the time step")
    s = make_stencil(cfg)
    _audit_or_raise(cfg, s)
    # dt = lambda * dx at unit velocity.  The loop is checked in floats,
    # before its size is rounded to integers; the step data alone has
    # 2 * ceil(half_width / dx) + 3 < 2 * half_width / dx + 5 cells.
    steps = cfg.t_final / (cfg.lam * cfg.dx)
    _check_work(steps, 2.0 * cfg.half_width / cfg.dx + 5.0, s.support_width)
    # Tiny negative slack keeps an exact multiple of dt from rounding up to
    # an extra step.
    n = max(0, math.ceil(steps - 1e-9))
    j_half = math.ceil(cfg.half_width / cfg.dx)
    u0 = sample_step(cfg.dx, cfg.half_width, -j_half - 1, j_half + 1)
    un = evolve(s, u0, n)
    lines = [f"# dgreen evolve {_scheme_meta(cfg)} dx={cfg.dx!r} "
             f"t={cfg.t_final!r} half_width={cfg.half_width!r} n={n}",
             "x,u0,un"]
    for k in range(len(un.values)):
        j = un.min_index + k
        x = (j + 0.5) * cfg.dx
        lines.append(f"{_fmt(x)},{_fmt(u0.value_at(j).real)},"
                     f"{_fmt(un.values[k].real)}")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_growth(cfg: RunConfig) -> int:
    s = make_stencil(cfg)
    _audit_or_raise(cfg, s)
    n_list = cfg.n_list or _GROWTH_DEFAULT_N
    report = growth_series(s, n_list)
    accepted = (report.errors_decreasing
                and report.final_rel_error <= cfg.growth_tol)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "command": "growth",
        "stencil": _stencil_json(s),
        "n_values": list(report.n_values),
        "l1_values": list(report.l1_values),
        "ratios": list(report.ratios),
        "ell_target": report.ell_target,
        "final_rel_error": report.final_rel_error,
        "errors_decreasing": report.errors_decreasing,
        "tolerance": cfg.growth_tol,
        "accepted": accepted,
    }
    _emit(cfg, _json_text(obj))
    if cfg.strict and not accepted:
        return EXIT_ACCEPTANCE
    return EXIT_OK


def _bound_json(report):
    return {
        "side": report.side,
        "c_used": report.c_used,
        "C_fitted_per_n": [[int(n), float(c)]
                           for n, c in report.C_fitted_per_n],
        "sup_C": report.sup_C,
        "stable": report.stable,
    }


def cmd_bounds(cfg: RunConfig) -> int:
    s = make_stencil(cfg)
    audit = _audit_or_raise(cfg, s)
    n_list = cfg.n_list or _BOUNDS_DEFAULT_N
    rep1, rep2 = envelope_reports(s, n_list)
    accepted = rep1.stable and rep2.stable
    obj = {
        "schema_version": SCHEMA_VERSION,
        "command": "bounds",
        "stencil": _stencil_json(s),
        "sides_switched": audit.expansion.c3 < 0,
        "bound1": _bound_json(rep1),
        "bound2": _bound_json(rep2),
        "accepted": accepted,
    }
    _emit(cfg, _json_text(obj))
    if cfg.strict and not accepted:
        return EXIT_ACCEPTANCE
    return EXIT_OK


def cmd_bv(cfg: RunConfig) -> int:
    s = make_stencil(cfg)
    _audit_or_raise(cfg, s)
    n_list = cfg.n_list or _BV_DEFAULT_N
    report = bv_bounds(s, n_list)
    sups = report.sup_cumsum_per_n
    stable = report.sup_overall <= 1.5 * float(np.median(sups))
    gaps = [abs(a - b) for a, b in zip(sups, report.heaviside_linf_per_n)]
    obj = {
        "schema_version": SCHEMA_VERSION,
        "command": "bv",
        "stencil": _stencil_json(s),
        "n_values": list(report.n_values),
        "sup_cumsum_per_n": list(sups),
        "heaviside_linf_per_n": list(report.heaviside_linf_per_n),
        "sup_overall": report.sup_overall,
        "max_identity_gap": max(gaps),
        "stable": stable,
    }
    _emit(cfg, _json_text(obj))
    if cfg.strict and not stable:
        return EXIT_ACCEPTANCE
    return EXIT_OK


_HANDLERS = {
    "coeffs": cmd_coeffs,
    "green": cmd_green,
    "evolve": cmd_evolve,
    "growth": cmd_growth,
    "bounds": cmd_bounds,
    "bv": cmd_bv,
}

_FORMAT_CHOICES = {
    # Allowed --format values per command; first entry is the default.
    "coeffs": ("text", "json"),
    "green": ("csv", "json"),
    "evolve": ("csv",),
    "growth": ("json",),
    "bounds": ("json",),
    "bv": ("json",),
}


def _add_common(sub):
    sub.add_argument("--scheme", choices=("lw", "bw", "custom"), default="lw")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="Courant number of the named scheme")
    sub.add_argument("--custom", default=None,
                     help="coefficients as offset:re:im triplets, "
                          "comma separated")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", dest="output_format",
                     choices=("text", "csv", "json"), default=None)
    sub.add_argument("--strict", action="store_true",
                     help="exit 5 when the acceptance predicate fails")
    sub.add_argument("--require-admissible", action="store_true",
                     help="exit 3 when the scheme fails the audit")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgreen",
        description="Green's functions of explicit one-step schemes: exact "
                    "tables, approximations, envelope and growth checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("coeffs", help="stencil and symbol expansion data")
    _add_common(p)

    p = subs.add_parser("green", help="table of G^n with approximations")
    _add_common(p)
    p.add_argument("--n", type=int, default=None, help="number of steps")
    p.add_argument("--method", choices=("direct", "spectral"),
                   default="spectral")

    p = subs.add_parser("evolve", help="propagate step data to time t")
    _add_common(p)
    p.add_argument("--dx", type=float, default=None, help="cell size")
    p.add_argument("--t", dest="t_final", type=float, default=None,
                   help="final time at unit velocity")
    p.add_argument("--half-width", dest="half_width", type=float, default=0.5,
                   help="step data is the indicator of [-w, w]")

    p = subs.add_parser("growth", help="l1 growth law report")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", default=None,
                   help="comma separated step counts")
    p.add_argument("--growth-tol", dest="growth_tol", type=float,
                   default=0.15, help="final relative error tolerance")

    p = subs.add_parser("bounds", help="envelope constant report")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", default=None)

    p = subs.add_parser("bv", help="cumulative sum / BV bound report")
    _add_common(p)
    p.add_argument("--n-list", dest="n_list", default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fmt_choices = _FORMAT_CHOICES[args.command]
    fmt = args.output_format or fmt_choices[0]
    if fmt not in fmt_choices:
        raise ValueError(
            f"--format {fmt} is not valid for {args.command}; "
            f"choose from {', '.join(fmt_choices)}")
    custom = _parse_custom(args.custom) if args.custom else None
    n_list = None
    if getattr(args, "n_list", None):
        n_list = _parse_n_list(args.n_list)
    return RunConfig(
        command=args.command,
        scheme=args.scheme,
        lam=args.lam,
        custom_coefficients=custom,
        n=getattr(args, "n", None),
        n_list=n_list,
        output_format=fmt,
        output_path=args.out,
        method=getattr(args, "method", "spectral"),
        strict=args.strict,
        require_admissible=args.require_admissible,
        dx=getattr(args, "dx", None),
        t_final=getattr(args, "t_final", None),
        half_width=getattr(args, "half_width", 0.5),
        growth_tol=getattr(args, "growth_tol", 0.15),
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else EXIT_CONFIG
    try:
        cfg = config_from_args(args)
        return _HANDLERS[cfg.command](cfg)
    except InadmissibleSchemeError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (MemoryBudgetError, WorkBudgetError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_MEMORY
    except OSError as ex:
        print(f"error: cannot write {args.out or 'stdout'}: "
              f"{ex.strerror or ex}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
