import importlib.util
import json
import pathlib
import subprocess

import pytest

TOOL = (pathlib.Path(__file__).resolve().parent.parent / "tools"
        / "bench_pairs.py")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall, rss, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 8, "failed": 0 if correct else 1,
        "metrics": {"wall_ref_s": {"value": wall, "unit": "s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def stdout(line):
    return ("dgreen benchmark workload=sweep seed=1 trace=0\n"
            "  wall_s                     median=0.3\n" + line + "\n")


# (base, change) of three pairs: the change is faster in two and uses
# more memory in all three.
PAIRS = [((0.35, 44.2), (0.31, 44.3)),
         ((0.36, 44.4), (0.30, 44.5)),
         ((0.34, 44.3), (0.35, 44.4))]


def test_parse_result(tool):
    assert tool.parse_result(stdout(result_line(0.3, 44.0))) == json.loads(
        result_line(0.3, 44.0))
    for text in ("", "table only\n", "[1, 2]\n", "{\"cut\": \n"):
        assert tool.parse_result(text) is None


def test_summary_of_canned_results(tool):
    pairs = [[tool.parse_result(stdout(result_line(*side))) for side in pair]
             for pair in PAIRS]
    assert tool.summarize(pairs) == [
        "metric                base median (IQR)      change median (IQR)"
        "  change won",
        "wall_ref_s                0.35 (0.01) s           0.31 (0.025) s"
        "  2/3",
        "peak_rss_mb               44.3 (0.1) MB            44.4 (0.1) MB"
        "  0/3",
    ]


def test_median_iqr(tool):
    assert tool.median_iqr([2.0]) == (2.0, 0.0)
    assert tool.median_iqr([4.0, 1.0, 3.0, 2.0, 5.0]) == (3.0, 2.0)


@pytest.mark.parametrize("returncode, line", [
    (0, result_line(0.3, 44.0, correct=False)),
    (1, result_line(0.3, 44.0)),
    (0, "error: no result"),
])
def test_failed_run_is_none(tool, monkeypatch, returncode, line):
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: (
        subprocess.CompletedProcess(a, returncode, stdout(line))))
    assert tool.run(".", "sweep", 1, 1.0) is None


def test_pairs_alternate_and_exit_code(tool, monkeypatch, capsys):
    results = {(checkout, seed): json.loads(result_line(*side))
               for seed, pair in enumerate(PAIRS, 1)
               for checkout, side in zip("ab", pair)}
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append(checkout)
        return results[checkout, seed]

    monkeypatch.setattr(tool, "run", fake_run)
    assert tool.main(["a", "b", "--workload", "sweep", "--pairs", "3"]) == 0
    assert order == list("abbaab")
    assert capsys.readouterr().out.splitlines() == tool.summarize(
        [[results[k, seed] for k in "ab"] for seed in (1, 2, 3)])
    results["b", 2] = None
    assert tool.main(["a", "b", "--workload", "sweep", "--pairs", "3"]) == 1
