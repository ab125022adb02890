"""Runs one workload's passes in a single process and writes the results.

Each job is timed on its own; its output is checked after the clock stops, and
a job that raises, exits non-zero or fails a check counts as failed.  Between
jobs, also untimed, speed.Gauge probes the machine's current speed.  Passes
repeat until the next one would overrun --seconds.  With --trace 1 the passes
cycle through untraced, traced, and traced with tracemalloc: the second kind
gives the self times and counts, the third the peak memory, and the first the
baseline for the tracing overhead, all in the same process.  run.py starts
this file with BLAS threads pinned and dgreen on the path; it is not meant to
be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback

import numpy as np

import spans
import speed
import workloads


def run_pass(jobs, recorder=None, pass_id=0, gauge=None):
    """Run every job once; return per-job seconds, artifact bytes and errors.

    The record's "trace" is 0 untraced, 1 traced, 2 traced with tracemalloc.
    With a speed.Gauge, each job's entry also gets the probe time around it
    and its time scaled to the reference speed.
    """
    trace = 0 if recorder is None else 1 + recorder.memory
    record = {"trace": trace, "jobs": []}
    for index, job in enumerate(jobs):
        if job.out_path and os.path.exists(job.out_path):
            os.remove(job.out_path)
        entry = {"metric": job.metric, "label": job.label, "error": None,
                 "bytes_out": 0}
        if recorder is not None:
            recorder.job = (pass_id, index)
        result = None
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception:
            entry["error"] = traceback.format_exc(limit=-3)
        finally:
            entry["seconds"] = time.perf_counter() - start
            if recorder is not None:
                recorder.job = None
        if job.out_path and os.path.exists(job.out_path):
            entry["bytes_out"] = os.path.getsize(job.out_path)
        if entry["error"] is None:
            try:
                job.check(result)
            except Exception as ex:
                entry["error"] = f"{type(ex).__name__}: {ex}"
        # Drop the output before the next job so it does not raise that
        # job's peak memory.
        del result
        if entry["error"] is not None:
            print(f"job failed: {job.label}: {entry['error']}",
                  file=sys.stderr)
        record["jobs"].append(entry)
        if gauge is not None:
            gauge.after(entry, index == len(jobs) - 1)
    record["wall_s"] = sum(entry["seconds"] for entry in record["jobs"])
    if gauge is not None:
        for entry in record["jobs"]:
            entry["ref_s"] = (entry["seconds"] * speed.REFERENCE_S
                              / entry["probe_s"])
    return record


def tally(passes):
    """Attempted and failed operations over all passes, and the errors."""
    entries = [entry for record in passes for entry in record["jobs"]]
    return {"attempted": len(entries),
            "failed": sum(entry["error"] is not None for entry in entries),
            "errors": sorted({f"{e['label']}: {e['error']}" for e in entries
                              if e["error"] is not None})}


def run_passes(jobs, seconds, gauge, recorder=None):
    """Repeat passes while the next one fits in `seconds`.

    With a recorder, passes cycle through the three kinds of run_pass and
    always end on a whole cycle, so each kind gets the same number of samples.
    """
    step = 1 if recorder is None else 3
    deadline = time.perf_counter() + seconds
    passes = []
    longest = 0.0
    while True:
        traced = len(passes) % step > 0
        start = time.perf_counter()
        if traced:
            recorder.memory = len(passes) % step == 2
            recorder.install()
        try:
            passes.append(run_pass(jobs, recorder if traced else None,
                                   len(passes), gauge))
        finally:
            if traced:
                recorder.uninstall()
        longest = max(longest, time.perf_counter() - start)
        if (len(passes) % step == 0
                and time.perf_counter() + step * longest > deadline):
            return passes


def layer_metrics(recorder, passes):
    """Per-layer metrics, as medians over the traced passes.

    Self times and counts come from the passes traced without tracemalloc,
    peak memory from those with it.  Also checks that the spans account for
    each traced job: its self times must add up to its root spans, and the
    job's duration outside its root spans must stay within 5% (plus 2 ms).
    Returns the metrics and that unattributed time per traced pass.
    """
    kinds = {layer: (count_name, track_memory)
             for _, _, layer, count_name, _, track_memory in spans.LAYERS}
    traced = [i for i, record in enumerate(passes) if record["trace"]]
    per_pass = {i: dict.fromkeys(layer_names(), 0) for i in traced}
    covered = {}
    for s, self_s in zip(recorder.spans, spans.self_times(recorder.spans)):
        pass_id, job = s[spans.JOB]
        layer = s[spans.NAME]
        count_name, track_memory = kinds[layer]
        m = per_pass[pass_id]
        m[f"{layer}.self_s"] += self_s
        if count_name:
            m[f"{layer}.{count_name}"] += s[spans.COUNT]
        if track_memory:
            m[f"{layer}.peak_mb"] = max(m[f"{layer}.peak_mb"],
                                        s[spans.PEAK_MB])
        acc = covered.setdefault((pass_id, job), [0.0, 0.0])
        acc[1] += self_s
        if s[spans.PARENT] is None:
            acc[0] += s[spans.END] - s[spans.START]
    unattributed = 0.0
    for i in traced:
        per_pass[i]["cli.bytes_out"] = sum(entry["bytes_out"]
                                           for entry in passes[i]["jobs"])
        for job, entry in enumerate(passes[i]["jobs"]):
            roots, selfs = covered.get((i, job), (0.0, 0.0))
            gap = entry["seconds"] - roots
            if (abs(selfs - roots) > 1e-6
                    or gap > 0.05 * entry["seconds"] + 0.002):
                raise RuntimeError(
                    f"spans do not account for job {entry['label']}: "
                    f"{entry['seconds']:.4f} s timed, {roots:.4f} s in root "
                    f"spans, {selfs:.4f} s of self time")
            unattributed += gap
    timed = [i for i in traced if passes[i]["trace"] == 1]
    memory = [i for i in traced if passes[i]["trace"] == 2]
    metrics = {name: statistics.median(
                   per_pass[i][name]
                   for i in (memory if name.endswith(".peak_mb") else timed))
               for name in layer_names()}
    metrics["trace.overhead_s"] = (
        statistics.median(passes[i]["wall_s"] for i in timed)
        - statistics.median(record["wall_s"] for record in passes
                            if not record["trace"]))
    return metrics, unattributed / len(traced)


def layer_names():
    """Every per-layer metric name, in the order of spans.LAYERS."""
    names = []
    for _, _, layer, count_name, _, track_memory in spans.LAYERS:
        names.append(f"{layer}.self_s")
        if count_name:
            names.append(f"{layer}.{count_name}")
        if track_memory:
            names.append(f"{layer}.peak_mb")
    names.insert(names.index("cli.calls"), "cli.bytes_out")
    names.append("trace.overhead_s")
    return names


def _read_first(path, prefix):
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as handle:
                level = handle.read().strip()
            with open(os.path.join(base, entry, "size")) as handle:
                sizes[f"L{level}"] = handle.read().strip()
    except OSError:
        pass
    return sizes


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fast", action="store_true")
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)

    workdir = os.path.join(args.outdir, "work")
    os.makedirs(workdir, exist_ok=True)
    # Untimed warm-up at the small sizes: lazy imports and small FFT plans.
    run_pass(workloads.build(args.workload, args.seed, workdir, fast=True))
    jobs = workloads.build(args.workload, args.seed, workdir, args.fast)
    recorder = spans.Recorder() if args.trace else None
    passes = run_passes(jobs, args.seconds, speed.Gauge(), recorder)
    for job in jobs:
        if job.out_path and os.path.exists(job.out_path):
            os.remove(job.out_path)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "schemes": [s.label for s in workloads.schemes(args.workload,
                                                       args.seed)],
        **tally(passes),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "threads_alive": threading.active_count(),
        "largest_transform": max(job.transform for job in jobs),
        "environment": environment(),
    }
    if recorder is not None:
        out["layers"], out["unattributed_s"] = layer_metrics(recorder,
                                                             passes)
        with open(os.path.join(args.outdir, "spans.json"), "w") as handle:
            json.dump([dict(zip(("name", "start", "end", "parent", "job",
                                 "count", "peak_mb"), s))
                       for s in recorder.spans], handle)
    with open(os.path.join(args.outdir, "result.json"), "w") as handle:
        json.dump(out, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
