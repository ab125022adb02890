"""Run the benchmark alternately in two checkouts and compare their metrics.

    python tools/bench_pairs.py BASE CHANGE --workload sweep --pairs 10 \\
        --seconds 15

Pair k runs `python3 benchmark/run.py --workload W --seed k --seconds S
--trace 0` once in each checkout, BASE first on odd k and CHANGE first on
even k, so that a drift in the machine's speed falls on both sides alike.
The last line a run prints is its JSON result.  For every metric in the
results the tool prints each side's median (IQR) and the pairs that CHANGE
won; every end-to-end metric is better lower.  It exits 1 if any run
exits nonzero, prints no result, or reads correct: false.
"""

import argparse
import json
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


def median_iqr(values):
    """The median and the interquartile range of `values`."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def summarize(pairs):
    """Lines comparing the (base, change) result pairs metric by metric."""
    first = pairs[0][0]["metrics"]
    lines = [f"{'metric':14} {'base median (IQR)':>24} "
             f"{'change median (IQR)':>24}  change won"]
    for name in first:
        unit = first[name]["unit"]
        sides = [[pair[k]["metrics"][name]["value"] for pair in pairs]
                 for k in (0, 1)]
        won = sum(change < base for base, change in zip(*sides))
        cells = [f"{m:.4g} ({iqr:.2g}) {unit}"
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
