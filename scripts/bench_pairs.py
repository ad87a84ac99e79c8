#!/usr/bin/env python3
"""Run perfbench on two commits in alternating pairs; write a BENCH file.

    python scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 901-910 --out BENCH_9.json

Both commits are exported with git archive into temporary directories
(under $TMPDIR), so only committed files are measured. The benchmark
command, its run_seconds, its workloads and its end-to-end metrics come
from the parent tree's BENCHMARK.json. For each workload and seed, the
script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each tree, one run at a time. The parent runs first in the first
pair, and the order alternates from pair to pair. A run's end-to-end
metrics, failure counts and probe time are read from its output.

A run that exits non-zero, or prints no JSON result line, is recorded as
a failed run with whatever it did report, and the pairs go on. Per
workload the file holds, for each side: the median and quartiles
(linear interpolation, as numpy.percentile) of every end-to-end metric
over the runs that reported it, the failed operations and failed runs.
Over the pairs where both runs reported a metric, it also holds the
pairs the change won (strictly lower value). Then come the relative
change of the medians, the parent's interquartile range and every run.
The file is rewritten after each workload.
"""

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
_PROBE = re.compile(r"probe median=([0-9.]+) s")


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True).stdout


def export(rev: str, into: Path) -> str:
    """Extract rev's committed tree into the directory; return its hash."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tar = io.BytesIO(_git("archive", "--format=tar", sha))
    with tarfile.open(fileobj=tar) as tf:
        tf.extractall(into, filter="data")
    return sha


def benchmark(tree: Path) -> dict:
    """The command, run length, workloads and metrics of the tree's benchmark."""
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"command": spec["command"], "seconds": spec["run_seconds"],
            "workloads": [w["name"] for w in spec["workloads"]],
            "metrics": [m["name"] for m in spec["end_to_end"]]}


def _argv(bench: dict, workload: str, seed) -> list:
    return [*bench["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["seconds"]), "--trace", "0"]


def _result_line(stdout: str):
    """run.py's last line, a JSON object, or None if it printed none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_once(tree: Path, bench: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run(_argv(bench, workload, seed), cwd=tree,
                          capture_output=True, text=True)
    result = _result_line(proc.stdout)
    metrics = (result or {}).get("metrics", {})
    probe = _PROBE.search(proc.stdout)
    out = {m: metrics.get(m, {}).get("value") for m in bench["metrics"]}
    out.update(probe_s=float(probe.group(1)) if probe else None,
               failed=(result or {}).get("failed"),
               attempted=(result or {}).get("attempted"),
               exit=proc.returncode,
               failed_run=proc.returncode != 0 or result is None)
    if out["failed_run"]:
        out["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return out


def _stats(values: list):
    if not values:
        return None
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarize(runs: list, metrics: list) -> dict:
    def reported(side, m):
        return [r[f"{side}_{m}"] for r in runs if r[f"{side}_{m}"] is not None]

    out = {"seeds": [r["seed"] for r in runs], "pairs": len(runs)}
    for side, label in zip(SIDES, ("before", "after")):
        out[label] = {m: _stats(reported(side, m)) for m in metrics}
        out[f"{label}_failed"] = sum(r[f"{side}_failed"] or 0 for r in runs)
        out[f"{label}_attempted"] = sum(r[f"{side}_attempted"] or 0 for r in runs)
        out[f"{label}_failed_runs"] = sum(r[f"{side}_failed_run"] for r in runs)
    both = {m: [(r[f"parent_{m}"], r[f"change_{m}"]) for r in runs
                if None not in (r[f"parent_{m}"], r[f"change_{m}"])]
            for m in metrics}
    out["pairs_compared"] = {m: len(both[m]) for m in metrics}
    out["pairs_won_by_change"] = {m: sum(c < p for p, c in both[m])
                                  for m in metrics}
    before, after = out["before"], out["after"]
    out["median_change"] = {
        m: after[m]["median"] / before[m]["median"] - 1.0
        if before[m] and after[m] else None for m in metrics}
    out["parent_iqr"] = {m: before[m]["q3"] - before[m]["q1"]
                         if before[m] else None for m in metrics}
    out["runs"] = runs
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", help="commit to compare against "
                    "(default: the change's first parent)")
    ap.add_argument("--change", default="HEAD", help="commit to measure")
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 901-910")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    revs = {"parent": args.parent or f"{args.change}^", "change": args.change}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        doc = {"parent": export(revs["parent"], trees["parent"]),
               "change": export(revs["change"], trees["change"])}
        bench = benchmark(trees["parent"])
        doc.update(
            command=" ".join(_argv(bench, "W", "S")),
            host=f"{os.cpu_count()} CPUs, {platform.machine()}, "
                 f"{platform.system()} {platform.release()}, Python "
                 f"{platform.python_version()}",
            method="pairs of runs with the same seed, one in each exported "
                   "tree, alternating which side runs first; times are "
                   "run.py's probe-scaled medians of the passes",
            workloads={})
        for workload in bench["workloads"]:
            runs = []
            for i, seed in enumerate(_seeds(args.seeds)):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    t0 = time.perf_counter()
                    res = run_once(trees[side], bench, workload, seed)
                    run.update({f"{side}_{k}": v for k, v in res.items()})
                    status = "FAILED RUN " if res["failed_run"] else ""
                    values = " ".join(f"{m}={res[m]}" for m in bench["metrics"])
                    print(f"{workload} seed={seed} {side}: {status}{values} "
                          f"exit={res['exit']} "
                          f"({time.perf_counter() - t0:.0f} s)", flush=True)
                runs.append(run)
            doc["workloads"][workload] = summarize(runs, bench["metrics"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n",
                                encoding="utf-8")

if __name__ == "__main__":
    main()
