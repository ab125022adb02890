"""Self-test of the benchmark itself; takes well under a minute.

    python3 benchmark/selftest.py

1. Runs every workload at the fast sizes, untraced and traced, and checks
   that the last line carries exactly the metrics and units BENCHMARK.json
   declares, and that the report names the workload's per-command timings.
2. Corrupts a CLI artifact, corrupts a library table and forces a non-zero
   exit, and checks that each is a failed operation and that the run's
   result reads correct: false with the failures counted.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark, and expects an error exit without a result.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from dgreen import cli  # noqa: E402

COMMANDS = {
    "export": {"green_csv_s", "green_json_s", "table_s"},
    "study": {"growth_s", "bounds_s", "bv_s", "evolve_s"},
    "sweep": {"sweep_s"},
}
COMMON = {"setup_s", "wall_ref_s", "probe_s", "wall_s", "peak_rss_mb",
          "failed_ratio"}
SEED = 7

failures = []


def check(condition, message):
    print(f"{'ok  ' if condition else 'FAIL'} {message}")
    if not condition:
        failures.append(message)


def bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--fast"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_fast_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(workload, trace)
            name = f"{workload} trace={trace}"
            check(done.returncode == 0, f"{name} exits 0")
            if done.returncode != 0:
                print(done.stderr[-2000:])
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{name} result keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{name} correct, 0 failed")
            units = {m["name"]: m["unit"] for m in spec[key]}
            check({k: v["unit"] for k, v in result["metrics"].items()}
                  == units, f"{name} reports exactly the {key} metrics")
            if trace == 0:
                report = json.loads(
                    (ROOT / ".bench_build" / "dgreen"
                     / f"{workload}-seed{SEED}-trace0" / "report.json")
                    .read_text())
                check(set(report["table"]) == COMMON | COMMANDS[workload],
                      f"{name} report names its per-command timings")


def test_failures_count():
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_build")
    try:
        csv_job, _, json_job, table_job = workloads.build(
            "export", SEED, workdir, fast=True)
        run_csv, run_table = csv_job.run, table_job.run

        def corrupt_csv():
            code = run_csv()
            with open(csv_job.out_path) as handle:
                lines = handle.read().split("\n")
            j, re, rest = lines[2].split(",", 2)
            lines[2] = f"{j},{float(re) + 1e-3!r},{rest}"
            with open(csv_job.out_path, "w") as handle:
                handle.write("\n".join(lines))
            return code

        def corrupt_table():
            table, g_col, h_col = run_table()
            table.values[len(table.values) // 2] += 1e-6j
            return table, g_col, h_col

        csv_job.run = corrupt_csv
        table_job.run = corrupt_table
        json_job.run = lambda: cli.main(
            ["green", "--scheme", "lw", "--lambda", "1.5", "--n", "10",
             "--out", json_job.out_path])
        record = worker.run_pass([csv_job, json_job, table_job],
                                 gauge=speed.Gauge())
    finally:
        shutil.rmtree(workdir)
    errors = [entry["error"] or "" for entry in record["jobs"]]
    check("sum of re" in errors[0], "corrupted CSV artifact fails its check")
    check("exit code 2" in errors[1], "non-zero exit counts as failed")
    check("max |im|" in errors[2], "corrupted library table fails its check")
    result = {**worker.tally([record]), "passes": [record],
              "peak_rss_mb": 1.0}
    line = json.loads(run.final_line(result, {"wall_s": 1.0}, run.UNITS))
    check(line["correct"] is False and line["failed"] == 3
          and line["attempted"] == 3, "result reads correct: false, 3 of 3")
    table = run.end_to_end(result, [0.1])
    check(table["failed_ratio"]["median"] == 1.0, "failed_ratio is 3/3")


def test_without_sources():
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_build"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, tmp / "benchmark",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("export", 0, root=tmp)
    finally:
        shutil.rmtree(tmp)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without dgreen sources: error exit, no result")


def main():
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    test_fast_runs()
    test_failures_count()
    test_without_sources()
    print(f"{len(failures)} check(s) failed" if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
