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
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from .approx import ApproxParams, approx_G, approx_H
from .green import (
    WORK_LIMIT,
    MemoryBudgetError,
    WorkBudgetError,
    _check_work,
    evolve,
    green_direct,
    green_spectral,
    sample_step,
)
from .analysis import bv_bounds, envelope_reports, growth_series
from .stencil import (AUDIT_GRID, AssumptionAudit, Stencil, assumption_audit,
                      beam_warming, lax_wendroff)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INADMISSIBLE = 3
EXIT_MEMORY = 4
EXIT_ACCEPTANCE = 5

SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI invocation.

    Exactly one stencil source is set: a named scheme (lw or bw) with its
    Courant number, or explicit custom coefficients.  The field defaults
    are the CLI defaults; n_list None selects the command's own grid.  All
    runs are seedless and deterministic.
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
            if self.custom_coefficients is not None:
                raise ValueError("--custom conflicts with a named scheme")
            if self.lam is None:
                raise ValueError(f"--scheme {self.scheme} requires --lambda")
        elif self.scheme == "custom":
            if not self.custom_coefficients:
                raise ValueError("--scheme custom requires --custom triplets")
        else:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0.0 <= self.growth_tol < math.inf:
            raise ValueError("--growth-tol must be finite and >= 0")
        if self.command == "green" and (self.n is None or self.n < 1):
            raise ValueError("green requires --n >= 1")
        if self.command == "evolve":
            if self.dx is None or not 0 < self.dx < math.inf:
                raise ValueError("evolve requires a finite --dx > 0")
            if self.t_final is None or not 0 <= self.t_final < math.inf:
                raise ValueError("evolve requires a finite --t >= 0")
            if not 0 < self.half_width < math.inf:
                raise ValueError("evolve requires a finite --half-width > 0")
            if self.lam is None:
                raise ValueError(
                    "evolve requires --lambda to size the time step")


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
    # The audit samples the symbol at AUDIT_GRID points per nonzero
    # coefficient, so a dense span costs that per offset; every stored offset
    # also passes through the Python loops of the moment sums.
    if AUDIT_GRID * (hi - lo + 1) > WORK_LIMIT:
        raise WorkBudgetError(
            f"custom offsets span {hi - lo + 1} sites; auditing them "
            f"exceeds the work cap of {WORK_LIMIT:.0e} entries touched")
    dense = [0j] * (hi - lo + 1)
    for offset, re, im in triplets:
        dense[offset - lo] = complex(re, im)
    return Stencil(lo, tuple(dense), label="custom")


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _cells(values, spec: str = ".17g") -> list:
    """format(x, spec) of every float of a 1-d array, as a list of str.

    Only the nonzero cells are formatted: the exact zeros outside a
    table's window, most cells of a large table, share one string for 0.0
    and one for -0.0.
    """
    values = np.asarray(values, dtype=float)
    zeros = np.array([format(0.0, spec), format(-0.0, spec)], dtype=object)
    cells = zeros[np.signbit(values).astype(np.intp)]
    nonzero = values != 0.0
    cells[nonzero] = list(map(format, values[nonzero].tolist(),
                              itertools.repeat(spec)))
    return cells.tolist()


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


def _framing(brackets: str, level: int) -> tuple:
    """(start, separator, end) of a container in json.dumps(indent=2)'s
    layout whose brackets are `level` deep."""
    pad = "\n" + "  " * level
    return brackets[0] + pad + "  ", "," + pad + "  ", pad + brackets[1]


def _framed(items, brackets: str, level: int) -> str:
    start, separator, end = _framing(brackets, level)
    return start + separator.join(items) + end


def _json_items(values: np.ndarray, level: int):
    """json's own text of each element of a 1-d array `level` deep, or None.

    json prints an int with int.__repr__ and a float with float.__repr__,
    which is format(x, ""); a record is a row of its fields.  None for
    other dtypes and for floats holding NaN or an infinity.
    """
    if values.dtype.names:
        columns = [_json_items(values[name], level + 1)
                   for name in values.dtype.names]
        if None in columns:
            return None
        start, separator, end = _framing("[]", level + 1)
        return [start + separator.join(row) + end for row in zip(*columns)]
    if values.dtype.kind in "iu":
        return list(map(repr, values.tolist()))
    if values.dtype.kind == "f" and np.isfinite(values).all():
        return _cells(values, "")
    return None


def _json(value, level: int = 0) -> str:
    """json.dumps(value, indent=2, allow_nan=False), nested `level` deep.

    Dicts with string keys are framed here so that the 1-d numpy arrays in
    them are written in bulk by _json_items.  Everything else, an array
    holding a NaN or an infinity included, is json's own, which refuses
    non-finite floats with ValueError.
    """
    if isinstance(value, dict) and value:
        return _framed([f"{json.dumps(key)}: {_json(item, level + 1)}"
                        for key, item in value.items()], "{}", level)
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and len(value):
            items = _json_items(value, level)
            if items is not None:
                return _framed(items, "[]", level)
        value = value.tolist()
    return json.dumps(value, indent=2, allow_nan=False).replace(
        "\n", "\n" + "  " * level)


def _emit_json(cfg: RunConfig, s: Stencil, fields: dict,
               accepted: bool = True) -> int:
    """Write the command's JSON report; under --strict exit 5 unless accepted.

    NaN and infinities are refused (ValueError) before anything is written.
    """
    coefficients = s.as_array()
    stencil = {"label": s.label,
               "coefficients": np.rec.fromarrays(
                   [s.offsets, coefficients.real, coefficients.imag])}
    report = {"schema_version": SCHEMA_VERSION, "command": cfg.command,
              "stencil": stencil, **fields}
    _emit(cfg, _json(report) + "\n")
    return EXIT_ACCEPTANCE if cfg.strict and not accepted else EXIT_OK


def cmd_coeffs(cfg: RunConfig, s: Stencil, audit: AssumptionAudit) -> int:
    e = audit.expansion
    if cfg.output_format == "json":
        return _emit_json(cfg, s, {
            **dataclasses.asdict(e),
            "sums_to_one": audit.sums_to_one,
            "dissipative": audit.dissipative,
            "min_margin": audit.min_margin,
            "admissible": audit.admissible,
        })
    coefficients = s.as_array()
    imaginary = [f" {cell}i" if im else "" for im, cell in zip(
        coefficients.imag.tolist(), _cells(coefficients.imag))]
    lines = [f"stencil       {s.label or 'custom'}"]
    lines.extend(f"a[{offset:+d}]        {re}{im}" for offset, re, im in zip(
        s.offsets.tolist(), _cells(coefficients.real), imaginary))
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


def cmd_green(cfg: RunConfig, s: Stencil, audit: AssumptionAudit) -> int:
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
    mags = np.abs(values)
    if cfg.output_format == "json":
        return _emit_json(cfg, s, {
            "n": cfg.n,
            "method": table.method,
            "j": offsets,
            "re": values.real,
            "im": values.imag,
            "abs": mags,
            "approx_G": g_col,
            "approx_H": h_col,
        })
    columns = [map(str, offsets.tolist()), _cells(values.real),
               _cells(values.imag), _cells(mags)]
    columns += [itertools.repeat("") if col is None else _cells(col)
                for col in (g_col, h_col)]
    lines = [f"# dgreen green {_scheme_meta(cfg)} n={cfg.n} "
             f"method={table.method}",
             "j,re,im,abs,approx_G,approx_H"]
    lines.extend(map(",".join, zip(*columns)))
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, s: Stencil, audit: AssumptionAudit) -> int:
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
    j = np.arange(un.min_index, un.max_index + 1)
    # u0 padded onto un's window with its tails, as u0.value_at(j) reads it.
    k = j - u0.min_index
    u0_col = np.where(k < 0, u0.left_tail.real,
                      np.where(k >= len(u0.values), u0.right_tail.real,
                               u0.values.real[np.clip(k, 0, len(u0.values) - 1)]))
    lines = [f"# dgreen evolve {_scheme_meta(cfg)} dx={cfg.dx!r} "
             f"t={cfg.t_final!r} half_width={cfg.half_width!r} n={n}",
             "x,u0,un"]
    lines.extend(f"{x:.17g},{a:.17g},{b:.17g}" for x, a, b in zip(
        ((j + 0.5) * cfg.dx).tolist(), u0_col.tolist(), un.values.real.tolist()))
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_growth(cfg: RunConfig, s: Stencil, audit: AssumptionAudit) -> int:
    report = growth_series(s, cfg.n_list or (1000, 10000, 100000))
    accepted = (report.errors_decreasing
                and report.final_rel_error <= cfg.growth_tol)
    return _emit_json(cfg, s, {
        **dataclasses.asdict(report),
        "tolerance": cfg.growth_tol,
        "accepted": accepted,
    }, accepted)


def cmd_bounds(cfg: RunConfig, s: Stencil, audit: AssumptionAudit) -> int:
    rep1, rep2 = (envelope_reports(s, cfg.n_list) if cfg.n_list
                  else envelope_reports(s))
    accepted = rep1.stable and rep2.stable
    return _emit_json(cfg, s, {
        "sides_switched": audit.expansion.c3 < 0,
        "bound1": dataclasses.asdict(rep1),
        "bound2": dataclasses.asdict(rep2),
        "accepted": accepted,
    }, accepted)


def cmd_bv(cfg: RunConfig, s: Stencil, audit: AssumptionAudit) -> int:
    report = bv_bounds(s, cfg.n_list or (100, 1000, 10000))
    sups = report.sup_cumsum_per_n
    stable = report.sup_overall <= 1.5 * float(np.median(sups))
    gaps = [abs(a - b) for a, b in zip(sups, report.heaviside_linf_per_n)]
    return _emit_json(cfg, s, {
        "n_values": list(report.n_values),
        "sup_cumsum_per_n": list(sups),
        "heaviside_linf_per_n": list(report.heaviside_linf_per_n),
        "sup_overall": report.sup_overall,
        "max_identity_gap": max(gaps),
        "stable": stable,
    }, stable)


class _Command(NamedTuple):
    handler: Callable[[RunConfig, Stencil, AssumptionAudit], int]
    help: str
    formats: tuple          # --format choices, the default first
    arguments: tuple = ()   # (flag, add_argument keywords) of its own options


_N_LIST = ("--n-list", {"help": "comma separated step counts"})

_COMMANDS = {
    "coeffs": _Command(cmd_coeffs, "stencil and symbol expansion data",
                       ("text", "json")),
    "green": _Command(cmd_green, "table of G^n with approximations",
                      ("csv", "json"), (
        ("--n", {"type": int, "help": "number of steps"}),
        ("--method", {"choices": ("direct", "spectral")}),
    )),
    "evolve": _Command(cmd_evolve, "propagate step data to time t", ("csv",), (
        ("--dx", {"type": float, "help": "cell size"}),
        ("--t", {"dest": "t_final", "type": float,
                 "help": "final time at unit velocity"}),
        ("--half-width", {"type": float,
                          "help": "step data is the indicator of [-w, w]"}),
    )),
    "growth": _Command(cmd_growth, "l1 growth law report", ("json",), (
        _N_LIST,
        ("--growth-tol", {"type": float,
                          "help": "final relative error tolerance"}),
    )),
    "bounds": _Command(cmd_bounds, "envelope constant report", ("json",),
                       (_N_LIST,)),
    "bv": _Command(cmd_bv, "cumulative sum / BV bound report", ("json",),
                   (_N_LIST,)),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per _COMMANDS entry; options left out of argv stay out
    of the namespace, so RunConfig's field defaults are the only ones."""
    parser = argparse.ArgumentParser(
        prog="dgreen",
        description="Green's functions of explicit one-step schemes: exact "
                    "tables, approximations, envelope and growth checks.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = subs.add_parser(name, help=command.help,
                            argument_default=argparse.SUPPRESS)
        p.add_argument("--scheme", choices=("lw", "bw", "custom"))
        p.add_argument("--lambda", dest="lam", type=float,
                       help="Courant number of the named scheme")
        p.add_argument("--custom", dest="custom_coefficients",
                       help="coefficients as offset:re:im triplets, "
                            "comma separated")
        p.add_argument("--out", dest="output_path",
                       help="output path (default stdout)")
        p.add_argument("--format", dest="output_format",
                       choices=command.formats, default=command.formats[0])
        p.add_argument("--strict", action="store_true",
                       help="exit 5 when the acceptance predicate fails")
        p.add_argument("--require-admissible", action="store_true",
                       help="exit 3 when the scheme fails the audit")
        for flag, keywords in command.arguments:
            p.add_argument(flag, **keywords)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = dict(vars(args))
    custom = fields.pop("custom_coefficients", None)
    if custom:
        fields["custom_coefficients"] = _parse_custom(custom)
    n_list = fields.pop("n_list", None)
    if n_list:
        fields["n_list"] = _parse_n_list(n_list)
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else EXIT_CONFIG
    try:
        cfg = config_from_args(args)
        s = make_stencil(cfg)
        audit = assumption_audit(s)
        if cfg.require_admissible and not audit.admissible:
            print(f"error: scheme {s.label or 'custom'} is not admissible",
                  file=sys.stderr)
            return EXIT_INADMISSIBLE
        return _COMMANDS[cfg.command].handler(cfg, s, audit)
    except (MemoryBudgetError, WorkBudgetError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_MEMORY
    except OSError as ex:
        print(f"error: cannot write {cfg.output_path or 'stdout'}: "
              f"{ex.strerror or ex}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
