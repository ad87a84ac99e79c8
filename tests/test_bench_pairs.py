import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

_METRICS = ["wall_s", "setup_s", "peak_rss_mb"]


def _side(wall, failed_run=False):
    return {"wall_s": wall, "setup_s": None if wall is None else 0.3,
            "peak_rss_mb": None if wall is None else 60.0, "failed": 0,
            "attempted": 0 if wall is None else 10, "failed_run": failed_run}


def _pair(seed, parent, change):
    run = {"seed": seed}
    for side, res in (("parent", parent), ("change", change)):
        run.update({f"{side}_{k}": v for k, v in res.items()})
    return run


def test_run_without_a_result_line_is_a_failed_run(tmp_path):
    # no perfbench/run.py in the tree: python exits 2 and prints nothing
    bench = {"command": ["python3", "perfbench/run.py"], "seconds": 1,
             "metrics": _METRICS}
    res = bench_pairs.run_once(tmp_path, bench, "verify", 1)
    assert res["failed_run"] and res["exit"] == 2
    assert res["wall_s"] is None and res["probe_s"] is None


@pytest.mark.parametrize("stdout,want", [
    ("", None), ("header\nnot json", None), ("[1, 2]", None),
    ('x\n{"failed": 0, "metrics": {}}\n', {"failed": 0, "metrics": {}})])
def test_result_line(stdout, want):
    assert bench_pairs._result_line(stdout) == want


def test_benchmark_reads_the_trees_settings():
    bench = bench_pairs.benchmark(_PATH.parent.parent)
    assert bench["command"][-1] == "perfbench/run.py"
    assert bench["seconds"] > 0 and bench["workloads"]
    assert "wall_s" in bench["metrics"]
    assert bench_pairs._argv(bench, "verify", 3)[-8:] == [
        "--workload", "verify", "--seed", "3",
        "--seconds", str(bench["seconds"]), "--trace", "0"]


def test_summary_counts_failed_runs_and_skips_their_pairs():
    runs = [_pair(1, _side(1.0), _side(0.5)),
            _pair(2, _side(None, failed_run=True), _side(0.6)),
            _pair(3, _side(1.2), _side(0.7))]
    out = bench_pairs.summarize(runs, _METRICS)
    assert out["before_failed_runs"] == 1 and out["after_failed_runs"] == 0
    assert out["before"]["wall_s"]["median"] == pytest.approx(1.1)
    assert out["after"]["wall_s"] == pytest.approx(
        {"median": 0.6, "q1": 0.55, "q3": 0.65})
    assert out["pairs_compared"]["wall_s"] == 2
    assert out["pairs_won_by_change"]["wall_s"] == 2
    assert out["median_change"]["wall_s"] == pytest.approx(0.6 / 1.1 - 1.0)


def test_summary_of_a_side_with_no_results():
    out = bench_pairs.summarize([_pair(1, _side(None, failed_run=True),
                                       _side(0.5))], _METRICS)
    assert out["before"]["wall_s"] is None
    assert out["median_change"]["wall_s"] is None
    assert out["parent_iqr"]["wall_s"] is None
