"""Run the benchmark alternately in two checkouts and compare their metrics.

    python tools/bench_pairs.py BASE CHANGE --workload sweep --pairs 10 \\
        --seconds 15

Pair k runs `python3 benchmark/run.py --workload W --seed k --seconds S
--trace 0` once in each checkout, BASE first on odd k and CHANGE first on
even k, so that a drift in the machine's speed falls on both sides alike.
The last line a run prints is its JSON result; the lines above it hold the
run's table of per-command medians (sweep_s, green_csv_s, ...) and a
header with its count of passes over the workload.  For every end-to-end
metric of the results, then every other metric of the table, then the
pass count, the tool prints each side's median (IQR) and the pairs in
which CHANGE read lower: every metric is better lower, and the pass count
stands beside peak_rss_mb, which grows with it.  It exits 1 if any run
exits nonzero, prints no result, or reads correct: false.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def parse_result(stdout: str):
    """The JSON object on the last non-empty line of a run's stdout, or
    None if there is none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


# A row of the run's table, "  sweep_s   median=0.024  p89=0.036  max=0.058
# n=96   s": its name, median and unit; and the header's pass count.
TABLE_ROW = re.compile(r"^  (\S+) +median=(\S+) .* (\S+)$")
PASSES = re.compile(r"^dgreen benchmark .*\bpasses=(\d+)\b")


def parse_table(stdout: str, skip=()):
    """The medians of a run's table and its pass count, as metrics
    {name: {"value": v, "unit": u}}, leaving out the names in `skip`; the
    pass count comes last, as "passes"."""
    table, passes = {}, None
    for line in stdout.splitlines():
        if (row := TABLE_ROW.match(line)) and row[1] not in skip:
            table[row[1]] = {"value": float(row[2]), "unit": row[3]}
        elif header := PASSES.match(line):
            passes = {"value": int(header[1]), "unit": ""}
    if passes:
        table["passes"] = passes
    return table


def median_iqr(values):
    """The median and the interquartile range of `values`."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summarize(pairs):
    """Lines comparing the (base, change) result pairs metric by metric:
    the results' metrics, then those of their "table", if any."""
    lines = [f"{'metric':14} {'base median (IQR)':>24} "
             f"{'change median (IQR)':>24}  change won"]
    for key, name in [(key, name) for key in ("metrics", "table")
                      for name in pairs[0][0].get(key, {})]:
        unit = pairs[0][0][key][name]["unit"]
        sides = [[pair[k][key][name]["value"] for pair in pairs]
                 for k in (0, 1)]
        won = sum(change < base for base, change in zip(*sides))
        cells = [f"{m:.4g} ({iqr:.2g}) {unit}".rstrip()
                 for m, iqr in map(median_iqr, sides)]
        lines.append(f"{name:14} {cells[0]:>24} {cells[1]:>24}  "
                     f"{won}/{len(pairs)}")
    return lines


def run(checkout, workload, seed, seconds):
    """One benchmark run in `checkout`: its result, or None if it failed."""
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    result = parse_result(done.stdout)
    if done.returncode or result is None or not result.get("correct"):
        print(f"FAILED {checkout} seed {seed}: exit {done.returncode}, "
              f"result {result}", file=sys.stderr)
        return None
    result["table"] = parse_table(done.stdout, skip=result["metrics"])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    pairs, failed = [], False
    for seed in range(1, args.pairs + 1):
        order = (0, 1) if seed % 2 else (1, 0)
        pair = [None, None]
        for k in order:
            pair[k] = run((args.base, args.change)[k], args.workload, seed,
                          args.seconds)
        if None in pair:
            failed = True
        else:
            pairs.append(pair)
    if pairs:
        print("\n".join(summarize(pairs)))
    return 1 if failed or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
