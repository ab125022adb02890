"""Seeded job lists of the benchmark's workloads and the checks on each job.

The seed picks only the Courant numbers; problem sizes are fixed, so two
seeds do the same amount of work.  CLI jobs call dgreen.cli.main in process
and write their artifact with --out; library jobs call dgreen's functions.
Every function of the program is looked up on its module at call time, so
the wrappers that spans.Recorder installs see the call.  NOTES.md records
why each workload and each range was chosen.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dgreen import approx, cli, green, stencil

WORKLOADS = ("export", "study", "sweep")

LW_RANGE = (0.3, 0.85)
BW_WAKE_RIGHT = (0.3, 0.7)   # c3 < 0: reflected and side-switched paths
BW_WAKE_LEFT = (1.3, 1.8)    # c3 > 0: approx_H is filled

# Problem sizes: full size, then the fast mode used by the self-test.
SIZES = {
    False: dict(green_n=100_000, table_n=1_000_000,
                growth_n="1000,10000,100000,1000000", bv_n="100,1000,3000",
                evolve_steps=2500, evolve_dx=0.0005, sweep_green_n=500,
                sweep_n=2000, agree_n=2000),
    True: dict(green_n=200, table_n=2000, growth_n="100,1000",
               bv_n="10,100", evolve_steps=20, evolve_dx=0.01,
               sweep_green_n=50, sweep_n=50, agree_n=200),
}

# Rounding budgets that grow with n.  The spectral route's imaginary residual
# is rounding in the phase of F^n, about eps * |alpha| * sqrt(n / c4): 1e-12
# up to n = 1e5, widening like sqrt(n) beyond.  The bv identity gap carries
# the direct route's rounding, which adds up over n steps: the README's 1e-12
# at n = 1e3, widening like n beyond.
IM_TOL_AT_1E5 = 1e-12
IDENTITY_GAP_TOL_AT_1E3 = 1e-12
SUM_TOL = 1e-9
AGREE_TOL = 1e-10
L2_TOL = 1e-12


class CheckFailed(AssertionError):
    """A job's output broke one of its checks."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _lw_coeffs(lam):
    return (-(lam - lam * lam) / 2.0, 1.0 - lam * lam, (lam + lam * lam) / 2.0)


@dataclass(frozen=True)
class Scheme:
    """One stencil of a workload: kind 'lw', 'bw' or 'custom' (LW * LW)."""

    kind: str
    lams: tuple

    @property
    def min_offset(self):
        return {"lw": -1, "bw": 0, "custom": -2}[self.kind]

    @property
    def width(self):
        return 4 if self.kind == "custom" else 2

    @property
    def alpha(self):
        return sum(self.lams)

    @property
    def wake_left(self):
        """True when c3 > 0: the wake is left of the front, approx_H exists."""
        return not (self.kind == "bw" and self.lams[0] < 1.0)

    @property
    def label(self):
        return f"{self.kind}({'*'.join(f'{x:g}' for x in self.lams)})"

    def coefficients(self):
        a, b = (_lw_coeffs(x) for x in self.lams)
        return tuple(float(c) for c in np.convolve(a, b))

    def argv(self):
        if self.kind == "custom":
            spec = ",".join(f"{self.min_offset + k}:{c!r}:0.0"
                            for k, c in enumerate(self.coefficients()))
            # A first offset of -2 must be glued to the flag, or argparse
            # reads "-2:..." as an option.
            return ["--scheme", "custom", f"--custom={spec}"]
        return ["--scheme", self.kind, "--lambda", repr(self.lams[0])]

    def build(self):
        if self.kind == "lw":
            return stencil.lax_wendroff(self.lams[0])
        if self.kind == "bw":
            return stencil.beam_warming(self.lams[0])
        return stencil.Stencil(self.min_offset, self.coefficients(),
                               label="custom")


def transform_length(n, width):
    """Length of the alias-free spectral grid for G^n of this width."""
    return max(16, 1 << (n * width).bit_length())


@dataclass
class Job:
    """One timed operation; check() runs untimed on what run() returned."""

    metric: str | None   # per-command metric; None counts in wall_s only
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    transform: int = 0
    out_path: str | None = None


# --------------------------------------------------------------------------
# checks


def check_table(scheme, n, j, re, im, approx_g, approx_h):
    rows = n * scheme.width + 1
    require(len(j) == rows, f"{len(j)} rows, expected {rows}")
    require(len(re) == len(im) == rows, "columns of unequal length")
    require(int(j[0]) == n * scheme.min_offset
            and bool(np.all(np.diff(j) == 1)),
            "offsets j are not contiguous from n * min_offset")
    require(bool(np.all(np.isfinite(re)) and np.all(np.isfinite(im))),
            "non-finite table entry")
    total = math.fsum(re)
    require(abs(total - 1.0) <= SUM_TOL, f"sum of re is {total!r}")
    im_tol = IM_TOL_AT_1E5 * max(1.0, math.sqrt(n / 1e5))
    im_max = float(np.max(np.abs(im)))
    require(im_max <= im_tol, f"max |im| = {im_max:.3e} > {im_tol:.1e}")
    require(approx_g is not None and len(approx_g) == rows
            and bool(np.all(np.isfinite(approx_g))), "approx_G not finite")
    if scheme.wake_left:
        require(approx_h is not None and len(approx_h) == rows
                and bool(np.all(np.isfinite(approx_h))), "approx_H not finite")
    else:
        require(approx_h is None, "approx_H filled although c3 < 0")


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _csv_columns(path, comment, header, usecols):
    with open(path, encoding="utf-8") as handle:
        require(handle.readline().startswith(comment), "missing metadata line")
        require(handle.readline() == header + "\n", "wrong header")
    return np.loadtxt(path, delimiter=",", skiprows=2, usecols=usecols,
                      ndmin=2).T


def check_green_csv(scheme, n, path):
    usecols = (0, 1, 2, 4, 5) if scheme.wake_left else (0, 1, 2, 4)
    cols = _csv_columns(path, "# dgreen green ",
                        "j,re,im,abs,approx_G,approx_H", usecols)
    if not scheme.wake_left:
        require(_read(path).count(",\n") == n * scheme.width + 1,
                "approx_H filled although c3 < 0")
    check_table(scheme, n, cols[0].astype(np.int64), cols[1], cols[2],
                cols[3], cols[4] if scheme.wake_left else None)


def check_green_json(scheme, n, path):
    obj = json.loads(_read(path))
    require(obj["command"] == "green" and obj["n"] == n, "wrong header")
    g_col, h_col = (None if obj[key] is None else np.asarray(obj[key])
                    for key in ("approx_G", "approx_H"))
    check_table(scheme, n, np.asarray(obj["j"]), np.asarray(obj["re"]),
                np.asarray(obj["im"]), g_col, h_col)


def check_growth(n_list, path):
    obj = json.loads(_read(path))
    require(obj["n_values"] == n_list, f"n_values {obj['n_values']}")
    l1 = np.asarray(obj["l1_values"])
    require(bool(np.all(np.isfinite(l1)) and np.all(l1 >= 1.0 - SUM_TOL)),
            "l1 norms not finite or below 1")
    require(bool(np.all(np.isfinite(obj["ratios"])))
            and obj["ell_target"] > 0.0, "ratios or ell not finite")


def check_bounds(scheme, agree_n, path):
    obj = json.loads(_read(path))
    for key in ("bound1", "bound2"):
        c = np.asarray([pair[1] for pair in obj[key]["C_fitted_per_n"]])
        require(bool(np.all(np.isfinite(c)) and np.all(c > 0.0))
                and obj[key]["c_used"] > 0.0, f"{key} constants not positive")
    require(obj["sides_switched"] == (not scheme.wake_left), "wrong sides")
    s = scheme.build()
    gap = float(np.max(np.abs(green.green_spectral(s, agree_n).values
                              - green.green_direct(s, agree_n).values)))
    require(gap <= AGREE_TOL, f"spectral vs direct differ by {gap:.3e} "
            f"at n = {agree_n}")


def check_bv(n_list, path):
    obj = json.loads(_read(path))
    require(obj["n_values"] == n_list, f"n_values {obj['n_values']}")
    gap = obj["max_identity_gap"]
    tol = IDENTITY_GAP_TOL_AT_1E3 * max(1.0, n_list[-1] / 1e3)
    require(gap <= tol, f"max_identity_gap = {gap!r} > {tol:.1e}")
    sups = np.asarray(obj["sup_cumsum_per_n"])
    require(bool(np.all(np.isfinite(sups)) and np.all(sups >= 1.0 - SUM_TOL)),
            "cumulative sums not finite or below 1")


def check_evolve(scheme, steps, dx, path):
    _, u0, un = _csv_columns(path, "# dgreen evolve ", "x,u0,un", None)
    rows = 2 * math.ceil(0.5 / dx) + 3 + steps * scheme.width
    require(len(un) == rows, f"{len(un)} rows, expected {rows}")
    require(bool(np.all(np.isfinite(un))), "non-finite evolved value")
    mass0, mass = math.fsum(u0), math.fsum(un)
    require(abs(mass - mass0) <= SUM_TOL * mass0,
            f"mass {mass!r} differs from initial {mass0!r}")


def check_coeffs(scheme, path):
    obj = json.loads(_read(path))
    require(obj["admissible"] is True, "scheme reported inadmissible")
    require(abs(obj["alpha"] - scheme.alpha) <= 1e-12, f"alpha {obj['alpha']}")
    require((obj["c3"] > 0) == scheme.wake_left, "wrong sign of c3")


def check_sweep(n_max, result):
    sums, l1, l2, linf = result
    require(len(sums) == n_max, f"{len(sums)} sweep entries, expected {n_max}")
    drift = float(np.max(np.abs(sums - 1.0)))
    require(drift <= SUM_TOL, f"conservation off by {drift:.3e}")
    require(float(np.max(l2)) <= 1.0 + L2_TOL, f"l2 max {np.max(l2)!r}")
    require(bool(np.all(np.isfinite(l1)) and np.all(np.isfinite(linf))),
            "non-finite sweep norm")


# --------------------------------------------------------------------------
# jobs


class JobFactory:
    """Builds jobs whose artifacts land in one work directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.count = 0

    def cli(self, metric, label, args, check, transform=0, ext="json"):
        self.count += 1
        path = os.path.join(self.workdir, f"job{self.count:02d}.{ext}")
        argv = args + ["--out", path]
        return Job(metric, label, lambda: cli.main(argv),
                   lambda code: (require(code == 0, f"exit code {code}"),
                                 check(path)),
                   transform, path)

    @staticmethod
    def table(scheme, n):
        def run():
            s = scheme.build()
            g = green.green_spectral(s, n)
            params = approx.ApproxParams.from_expansion(
                stencil.expansion_coefficients(s))
            return (g, approx.approx_G(params, n, g.offsets),
                    approx.approx_H(params, n, g.offsets))

        def check(result):
            g, g_col, h_col = result
            check_table(scheme, n, g.offsets, g.values.real, g.values.imag,
                        g_col, h_col)
        return Job("table_s", f"table {scheme.label} n={n}", run, check,
                   transform_length(n, scheme.width))

    @staticmethod
    def sweep(scheme, n_max):
        return Job("sweep_s", f"sweep {scheme.label} n_max={n_max}",
                   lambda: green.spectral_sweep(scheme.build(), n_max),
                   lambda result: check_sweep(n_max, result),
                   transform_length(n_max, scheme.width))


def _strata(rng, kind, bounds, count):
    """`count` schemes, one lambda drawn in each of `count` equal slices.

    The cost of a job swings with lambda (subnormal tails in the step loops
    and the powered symbol), so spreading each run over the whole range
    keeps the work of one run nearly the same from seed to seed.
    """
    lo, hi = bounds
    width = (hi - lo) / count
    return [Scheme(kind, (round(lo + (k + rng.random()) * width, 4),))
            for k in range(count)]


def schemes(name, seed):
    """The stencils of one workload; the seed picks only their lambdas."""
    rng = random.Random(f"{name}:{seed}")
    if name == "export":
        return (_strata(rng, "lw", LW_RANGE, 1)
                + _strata(rng, "bw", BW_WAKE_LEFT, 1))
    if name == "study":
        return (_strata(rng, "lw", LW_RANGE, 2)
                + _strata(rng, "bw", BW_WAKE_RIGHT, 2))
    if name == "sweep":
        a, b = _strata(rng, "lw", LW_RANGE, 2)
        return (_strata(rng, "lw", LW_RANGE, 3)
                + _strata(rng, "bw", BW_WAKE_RIGHT, 2)
                + _strata(rng, "bw", BW_WAKE_LEFT, 2)
                + [Scheme("custom", a.lams + b.lams)])
    raise ValueError(f"unknown workload {name!r}")


def build(name, seed, workdir, fast=False):
    """The job list of one pass over workload `name`."""
    size = SIZES[fast]
    make = JobFactory(workdir)
    jobs = []
    if name == "export":
        lw, bw = schemes(name, seed)
        n = size["green_n"]
        for scheme in (lw, bw):
            jobs.append(make.cli(
                "green_csv_s", f"green csv {scheme.label} n={n}",
                ["green", *scheme.argv(), "--n", str(n)],
                lambda p, s=scheme: check_green_csv(s, n, p),
                transform_length(n, scheme.width), ext="csv"))
        jobs.append(make.cli(
            "green_json_s", f"green json {lw.label} n={n}",
            ["green", *lw.argv(), "--n", str(n), "--format", "json"],
            lambda p: check_green_json(lw, n, p),
            transform_length(n, lw.width)))
        jobs.append(make.table(lw, size["table_n"]))
    elif name == "study":
        growth_n, bv_n = size["growth_n"], size["bv_n"]
        growth_list = [int(v) for v in growth_n.split(",")]
        bv_list = [int(v) for v in bv_n.split(",")]
        steps, dx = size["evolve_steps"], size["evolve_dx"]
        for scheme in schemes(name, seed):
            jobs.append(make.cli(
                "growth_s", f"growth {scheme.label}",
                ["growth", *scheme.argv(), "--n-list", growth_n],
                lambda p: check_growth(growth_list, p),
                transform_length(growth_list[-1], scheme.width)))
            jobs.append(make.cli(
                "bounds_s", f"bounds {scheme.label}",
                ["bounds", *scheme.argv()],
                lambda p, s=scheme: check_bounds(s, size["agree_n"], p)))
            jobs.append(make.cli(
                "bv_s", f"bv {scheme.label}",
                ["bv", *scheme.argv(), "--n-list", bv_n],
                lambda p: check_bv(bv_list, p),
                transform_length(bv_list[-1], scheme.width)))
            if scheme.kind != "lw":
                continue
            # A fixed step count, not a fixed end time, keeps the work
            # independent of the seeded lambda.
            t_final = steps * scheme.lams[0] * dx
            jobs.append(make.cli(
                "evolve_s", f"evolve {scheme.label} steps={steps}",
                ["evolve", *scheme.argv(), "--dx", repr(dx),
                 "--t", repr(t_final)],
                lambda p, s=scheme: check_evolve(s, steps, dx, p),
                ext="csv"))
    elif name == "sweep":
        n, n_max = size["sweep_green_n"], size["sweep_n"]
        for scheme in schemes(name, seed):
            jobs.append(make.cli(
                None, f"coeffs {scheme.label}",
                ["coeffs", *scheme.argv(), "--format", "json"],
                lambda p, s=scheme: check_coeffs(s, p)))
            jobs.append(make.cli(
                None, f"green csv {scheme.label} n={n}",
                ["green", *scheme.argv(), "--n", str(n)],
                lambda p, s=scheme: check_green_csv(s, n, p),
                transform_length(n, scheme.width), ext="csv"))
            jobs.append(make.sweep(scheme, n_max))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return jobs
