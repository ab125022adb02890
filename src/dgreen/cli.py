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
    _check_budget,
    _check_work,
    _evolve_bytes,
    _step_count,
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

SCHEMA_VERSION = 2

# Rows of a CSV or JSON column whose cells are formatted at once.
_BLOCK = 1024


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
        if self.output_path == "":
            raise ValueError("--out must be a file path, not empty (omit "
                             "--out for stdout)")
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
            if self.lam is None or not 0 < self.lam * self.dx < math.inf:
                raise ValueError("evolve requires --lambda with a finite "
                                 "time step --lambda * --dx > 0")


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
    # coefficient, so a dense span costs that per offset; the stencil also
    # stores every offset of its span.
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


def _atomic_write(path: str, *chunks: str) -> None:
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp",
                               dir=directory)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            # mkstemp creates the file 0600; give it the mode open() would.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _emit(cfg: RunConfig, *chunks: str) -> None:
    """Write the artifact, the concatenation of chunks, to its output."""
    if cfg.output_path is None:
        sys.stdout.writelines(chunks)
    else:
        _atomic_write(cfg.output_path, *chunks)


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


def _blocks(column: np.ndarray, spec: str):
    """The cells of an int or float column, _BLOCK rows at a time:
    ints by str, floats as _cells formats them with spec."""
    for lo in range(0, len(column), _BLOCK):
        rows = column[lo:lo + _BLOCK]
        yield (list(map(str, rows.tolist())) if rows.dtype.kind in "iu"
               else _cells(rows, spec))


def _is_column(value) -> bool:
    """Whether value is a nonempty 1-d int or finite float array."""
    return (isinstance(value, np.ndarray) and value.ndim == 1
            and len(value) > 0
            and (value.dtype.kind in "iu" or value.dtype.kind == "f"
                 and bool(np.isfinite(value).all())))


def _json(value, level: int = 0) -> list:
    """json.dumps(value, indent=2, allow_nan=False), nested `level` deep, as
    a list of chunks.

    Dicts with string keys are framed here, and so are the columns in them,
    1-d int or finite float arrays, and tuples of equally long columns,
    which stand for the list of their rows.  Column cells are formatted by
    _blocks, floats with spec "", which is float.__repr__ as json prints
    it.  Everything else is json's own, other arrays as their lists; json
    refuses NaN and infinities with ValueError.
    """
    start, separator, end = _framing("{}" if isinstance(value, dict)
                                     else "[]", level)
    if isinstance(value, dict) and value:
        items = ([f"{json.dumps(key)}: ", *_json(item, level + 1)]
                 for key, item in value.items())
    elif _is_column(value):
        items = ([separator.join(block)] for block in _blocks(value, ""))
    elif (isinstance(value, tuple) and value
          and all(map(_is_column, value))):
        row = _framing("[]", level + 1)
        items = ([separator.join(row[0] + row[1].join(cells) + row[2]
                                 for cells in zip(*blocks))]
                 for blocks in zip(*(_blocks(c, "") for c in value)))
    else:
        return [json.dumps(value, indent=2, allow_nan=False,
                           default=np.ndarray.tolist).replace(
            "\n", "\n" + "  " * level)]
    chunks = [start]
    for item in items:
        chunks += [*item, separator]
    chunks[-1] = end
    return chunks


def _emit_json(cfg: RunConfig, s: Stencil, fields: dict,
               accepted: bool = True) -> int:
    """Write the command's JSON report; under --strict exit 5 unless accepted.

    NaN and infinities are refused (ValueError) before anything is written.
    """
    coefficients = s.as_array()
    stencil = {"label": s.label, "coefficients": (
        s.offsets, coefficients.real, coefficients.imag)}
    report = {"schema_version": SCHEMA_VERSION, "command": cfg.command,
              "stencil": stencil, **fields}
    _emit(cfg, *_json(report), "\n")
    return EXIT_ACCEPTANCE if cfg.strict and not accepted else EXIT_OK


def _emit_csv(cfg: RunConfig, header: str, columns: list) -> int:
    """Write the header, then one row per entry of the equal-length columns:
    cells as _blocks gives them, None as empty cells.

    Rows are formatted _BLOCK at a time, so that only the text grows
    with the table.
    """
    blocks = [itertools.repeat(itertools.repeat("")) if col is None
              else _blocks(col, ".17g") for col in columns]
    _emit(cfg, header, *("\n".join(map(",".join, zip(*cells))) + "\n"
                         for cells in zip(*blocks)))
    return EXIT_OK


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
    # Before the route runs, which checks its own charge: the table, the
    # approx columns and the CSV or JSON text of its rows, 256 B a row, and
    # 1 MB for the cells of one block of rows.  Traced from n = 5e3 to 4e5,
    # either route and format: at most 203 B a row for a complex stencil,
    # whose cells are all nonzero, and 188 B for real ones; from n = 5e4
    # on, 200 and 113 B.
    _check_budget(256 * (_step_count(cfg.n) * s.support_width + 1) + 2 ** 20)
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
    return _emit_csv(cfg, f"# dgreen green {_scheme_meta(cfg)} n={cfg.n} "
                     f"method={table.method}\nj,re,im,abs,approx_G,approx_H\n",
                     [offsets, values.real, values.imag, mags, g_col, h_col])


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
    # Before anything is allocated: the float64 step data, evolve's table
    # and arrays, and the CSV of the output window, whose columns and text
    # take about 192 B a row.
    cells = 2 * j_half + 3
    _check_budget(8 * cells + _evolve_bytes(cells, n, s, 8)
                  + 192 * (cells + n * s.support_width))
    u0 = sample_step(cfg.dx, cfg.half_width, -j_half - 1, j_half + 1)
    un = evolve(s, u0, n)
    # u0 on un's window: the cells beyond u0's own window lie off the step,
    # so they average to 0, the value of u0 outside its window.
    u0_col = sample_step(cfg.dx, cfg.half_width, un.min_index,
                         un.max_index).values.real
    x = (np.arange(un.min_index, un.max_index + 1) + 0.5) * cfg.dx
    return _emit_csv(cfg, f"# dgreen evolve {_scheme_meta(cfg)} dx={cfg.dx!r} "
                     f"t={cfg.t_final!r} half_width={cfg.half_width!r} "
                     f"n={n}\nx,u0,un\n", [x, u0_col, un.values.real])


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
    rep1, rep2, side = envelope_reports(
        s, cfg.n_list or (250, 500, 1000, 2000))
    accepted = rep1.stable and rep2.stable
    return _emit_json(cfg, s, {
        "sides_switched": audit.expansion.c3 < 0,
        "bound1": dataclasses.asdict(rep1),
        "bound2": dataclasses.asdict(rep2),
        "oscillation_side": side,
        "accepted": accepted,
    }, accepted)


def cmd_bv(cfg: RunConfig, s: Stencil, audit: AssumptionAudit) -> int:
    report = bv_bounds(s, cfg.n_list or (100, 1000, 10000))
    return _emit_json(cfg, s, dataclasses.asdict(report), report.stable)


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
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value starting with one '-' for an option, as in
    # --custom -1:0.5:0,...; glued to its flag the value is one argument.
    for k in reversed(range(len(argv) - 1)):
        if (argv[k] == "--custom" and argv[k + 1].startswith("-")
                and not argv[k + 1].startswith("--")):
            argv[k:k + 2] = ["--custom=" + argv[k + 1]]
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
