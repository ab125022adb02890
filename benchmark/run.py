"""dgreen benchmark: one workload, one seed, one measured run.

    python3 benchmark/run.py --workload study --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports dgreen from src/ and
needs nothing built.  With --trace 0 it reports the end-to-end metrics:
set-up time (median of fresh interpreters importing dgreen.cli), the time of
one pass over the workload's jobs at a reference machine speed (each job's
time scaled by the probe in speed.py), and the workload process's peak RSS.
With --trace 1 it reports the per-layer metrics of NOTES.md from spans
recorded around dgreen's public functions.  It prints a table, then as
its last line one JSON object with the keys correct, attempted, failed and
metrics.  Results and spans are also written under .bench_build/dgreen/.
--fast shrinks every problem for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("export", "study", "sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = {False: 11, True: 2}
TIME_LIMIT_S = 170.0

# Per-command metrics printed in the table; wall_s sums one pass of them.
UNITS = {"setup_s": "s", "wall_ref_s": "s", "probe_s": "s",
         "wall_s": "s", "green_csv_s": "s",
         "green_json_s": "s", "table_s": "s", "growth_s": "s",
         "bounds_s": "s", "bv_s": "s", "evolve_s": "s", "sweep_s": "s",
         "peak_rss_mb": "MB", "failed_ratio": "1"}
END_TO_END = ("setup_s", "wall_ref_s", "peak_rss_mb")
# Units of per-layer metrics by name suffix; the rest are counts.
LAYER_UNITS = {"self_s": "s", "overhead_s": "s", "peak_mb": "MB",
               "bytes_out": "bytes", "unattributed_s": "s"}


def child_env():
    """dgreen on the path, and one BLAS thread so no run oversubscribes."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def measure_setup(env, repeats):
    """Seconds from starting an interpreter to `import dgreen.cli` done."""
    cmd = [sys.executable, "-c",
           "import dgreen.cli, time; print(time.monotonic())"]
    # The first run writes the bytecode cache, which users pay once.
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                   timeout=60)
    samples = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        samples.append(float(done.stdout) - start)
    return samples


def summary(samples):
    """Median, the highest percentile with ten samples beyond it, max, count.

    The percentile is None below 20 samples, where no percentile above the
    median has ten samples beyond it.
    """
    count = len(samples)
    high = None
    if count >= 20:
        p = math.floor(100 * (1 - 10 / count))
        high = (p, statistics.quantiles(samples, n=100)[p - 1])
    return {"median": statistics.median(samples), "high": high,
            "max": max(samples), "count": count}


def end_to_end(result, setup):
    """Every per-command timing of an untraced run, summarised."""
    untraced = [p for p in result["passes"] if not p["trace"]]
    # Each job's median scaled time, summed over the job list: a probe that
    # misjudged the speed around one job then moves one sample of that job,
    # not a whole pass.
    per_job = list(zip(*[[e["ref_s"] for e in p["jobs"]] for p in untraced]))
    table = {"setup_s": summary(setup),
             "wall_ref_s": {"median": sum(map(statistics.median, per_job)),
                            "high": None, "max": sum(map(max, per_job)),
                            "count": len(untraced)}}
    samples = {"wall_s": [p["wall_s"] for p in untraced],
               "probe_s": [e["probe_s"] for p in untraced
                           for e in p["jobs"]]}
    for record in untraced:
        for entry in record["jobs"]:
            if entry["metric"]:
                samples.setdefault(entry["metric"], []).append(
                    entry["seconds"])
    table.update((name, summary(values)) for name, values in samples.items())
    table["peak_rss_mb"] = summary([result["peak_rss_mb"]])
    table["failed_ratio"] = summary([result["failed"] / result["attempted"]])
    return table


def final_line(result, metrics, units):
    """The last line of output: the result object the contract asks for."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    })


def print_report(args, result, table):
    env = result["environment"]
    transform = result["largest_transform"]
    print(f"dgreen benchmark workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(result['passes'])} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"schemes: {' '.join(result['schemes'])}")
    print(f"environment: nproc={env['nproc']} "
          f"cpus_allowed={env['cpus_allowed']} cpu={env['cpu_model']!r} "
          f"caches={env['caches']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']!r} "
          f"threads={env['threads']} threads_alive={result['threads_alive']}")
    print(f"largest transform: {transform} complex128 = "
          f"{16 * transform / 1e6:.1f} MB, last-level cache "
          f"{max(env['caches'].items(), default=('?', '?'))[1]}")
    for error in result["errors"]:
        print(f"FAILED {error.strip()}")
    for name, row in table.items():
        high = "-" if row["high"] is None else (
            f"p{row['high'][0]}={row['high'][1]:.6g}")
        unit = UNITS.get(name) or LAYER_UNITS.get(name.rsplit(".", 1)[-1], "")
        print(f"  {name:26s} median={row['median']:<12.6g} {high:18s} "
              f"max={row['max']:<12.6g} n={row['count']:<4d} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true",
                        help="tiny problem sizes, for the self-test")
    args = parser.parse_args(argv)

    started = time.monotonic()
    # Exit through Python on SIGTERM, so subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "dgreen" / "cli.py").is_file():
        print(f"error: no dgreen source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    outdir = (ROOT / ".bench_build" / "dgreen"
              / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    outdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    setup = [] if args.trace else measure_setup(env, SETUP_REPEATS[args.fast])

    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--outdir", str(outdir)]
    if args.fast:
        cmd.append("--fast")
    try:
        # The worker's stdout goes to stderr so the result stays last.
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=TIME_LIMIT_S - (time.monotonic()
                                                      - started))
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(outdir / "work", ignore_errors=True)
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    with open(outdir / "result.json") as handle:
        result = json.load(handle)

    if args.trace:
        metrics = result["layers"]
        units = {name: LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")
                 for name in metrics}
        table = {name: summary([value]) for name, value in metrics.items()}
        table["unattributed_s"] = summary([result["unattributed_s"]])
    else:
        table = end_to_end(result, setup)
        metrics = {name: table[name]["median"] for name in END_TO_END}
        units = UNITS
    with open(outdir / "report.json", "w") as handle:
        json.dump({"result": {k: v for k, v in result.items()
                              if k != "passes"}, "table": table}, handle,
                  indent=1)
    print_report(args, result, table)
    print(final_line(result, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
