"""Benchmark entry point: one workload, one fresh worker process per pass.

    python3 perfbench/run.py --workload tau_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads: tau_sweep, cli_io, verify (see
README.md). Closed loop, one client: passes run one after another until
--seconds have gone by, each in a new worker (worker.py) with the BLAS
thread count pinned to BLAS_THREADS. The seed fixes every generated
input, and every pass of a run gets the same inputs.

--trace 0 reports the end-to-end metrics: medians over the run's passes.
--trace 1 alternates untraced and traced passes, at least two of each,
and reports the per-layer metrics: span figures from the traced passes,
stage, command and check-family times from the untraced ones, and
trace.overhead, the ratio of their median pass times minus one. The
spans are written to perfbench/.runs/ when the run ends.

The metric names and units come from BENCHMARK.json; every one is
printed by name with its unit, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
an output fails its check or a count does not repeat exactly, and 2
when the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracer import is_exact, layer_metrics  # noqa: E402
from worker import OPS_PER_PASS, WORKLOADS  # noqa: E402

BLAS_THREADS = 1
THREAD_ENV = {name: str(BLAS_THREADS) for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
MIN_SETUPS = 7       # set-up samples per run; set-up-only workers fill up
# Times are reported at a fixed host speed: each worker's times are scaled
# by PROBE_REF_S / (median of its probe samples, worker.make_probe). The
# constant is the probe's typical time on a two-core Intel Xeon VM with
# OpenBLAS at one thread; it only fixes the unit and cancels in every ratio.
PROBE_REF_S = 0.020
MIN_TRACE_PASSES = 4
PASS_TIMEOUT_S = 90
STAGES = ("kernel_build_s", "evolve_s", "spectrum_s", "cli_s", "read_s")


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    for name in ("QOSC_THREADS", "QOSC_BENCH_SPANS"):
        env.pop(name, None)
    return env


def run_worker(args, work: Path, traced: bool, setup_only: bool) -> dict:
    """One worker process; returns its result with setup_s filled in."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--work", str(work)] + (["--setup-only"] if setup_only else [])
    t_spawn = perf_counter()
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = f"worker killed after {PASS_TIMEOUT_S} s"
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    result_file = work / "result.json"
    try:
        if proc.returncode != 0 or not result_file.exists():
            n = OPS_PER_PASS[args.workload]
            return {"crashed": (err or "").strip()[-600:] or
                    f"worker exit {proc.returncode}", "attempted": n, "failed": n}
        result = json.loads(result_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = result["t_ready"] - t_spawn
    result["scale"] = PROBE_REF_S / result["probe_s"]
    return result


def per_layer(spec, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run and the counts that did not repeat."""
    layers = [layer_metrics(r["spans"], r["scale"]) for r in traced]
    out: dict[str, float] = {}
    unsteady = []
    for name in layers[0]:
        values = [lm[name] for lm in layers]
        if is_exact(name):
            if len(set(values)) != 1:
                unsteady.append(f"{name} differs between passes: {values}")
            out[name] = values[0]
        else:
            out[name] = median(values)
    for name in STAGES:
        out[name] = median(r["stage_s"].get(name, 0.0) * r["scale"]
                           for r in untraced)
    out.update((m["name"], 0.0) for m in spec["per_layer"]
               if m["name"].startswith(("cli.", "verify.")))
    for key, fmt in (("label_s", "{}.s"), ("family_s", "verify.{}.s")):
        for field in sorted({k for r in untraced for k in r[key]}):
            out[fmt.format(field)] = median(r[key].get(field, 0.0) * r["scale"]
                                            for r in untraced)
    out["trace.overhead"] = (median(r["wall_s"] * r["scale"] for r in traced)
                             / median(r["wall_s"] * r["scale"] for r in untraced)
                             - 1.0)
    return out, unsteady


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qosc" / "__init__.py").is_file():
        print(f"no qosc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    runs = HERE / ".runs"
    work = runs / f"work-{os.getpid()}"
    results: list[tuple[bool, dict]] = []
    setups: list[dict] = []
    min_passes = MIN_TRACE_PASSES if args.trace else 1
    t0 = perf_counter()
    try:
        while len(results) < min_passes or perf_counter() - t0 < args.seconds:
            traced = bool(args.trace) and len(results) % 2 == 1
            r = run_worker(args, work / f"pass-{len(results)}", traced, False)
            results.append((traced, r))
            if "crashed" in r:
                break
            setups.append(r)
        while setups and len(setups) < MIN_SETUPS:
            r = run_worker(args, work / f"setup-{len(setups)}", False, True)
            if "crashed" in r:
                results.append((False, r))
                break
            setups.append(r)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for _, r in results)
    failed = sum(r["failed"] for _, r in results)
    problems = [f"pass {i}: {r['crashed']}" for i, (_, r) in enumerate(results)
                if "crashed" in r]
    problems += [f"pass {i}: {f}" for i, (_, r) in enumerate(results)
                 for f in r.get("failures", ())]
    ok = [(t, r) for t, r in results if "crashed" not in r]
    untraced = [r for t, r in ok if not t]
    traced = [r for t, r in ok if t]
    walls = sorted(r["wall_s"] * r["scale"] for r in untraced)

    metrics: dict[str, float] = {}
    if not args.trace and untraced:
        metrics = {"setup_s": median(r["setup_s"] * r["scale"] for r in setups),
                   "wall_s": median(walls),
                   "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced)}
    elif untraced and traced:
        metrics, unsteady = per_layer(spec, untraced, traced)
        problems += unsteady
        runs.mkdir(exist_ok=True)
        trace_file = runs / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with trace_file.open("w", encoding="utf-8") as fh:
            for i, r in enumerate(traced):
                for name, start, end, parent, attrs in r["spans"]:
                    fh.write(json.dumps({"pass": i, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "attrs": attrs}) + "\n")
        print(f"spans: {trace_file.relative_to(ROOT)}")
    if metrics and set(metrics) != set(units):
        raise SystemExit(f"metrics do not match BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(results)} (traced {len(traced)}) "
          f"setups={len(setups)} blas_threads={BLAS_THREADS}")
    if walls:
        hi = math.floor(100 * (len(walls) - 10) / len(walls)) if len(walls) > 10 else None
        tail = (f"p{hi}={walls[len(walls) - 11]:.4f} s" if hi is not None
                else "no percentile with 10 samples beyond it")
        print(f"pass time (untraced, at probe {PROBE_REF_S} s): "
              f"median={median(walls):.4f} s, {tail}, n={len(walls)}")
        print(f"as measured: pass median={median(r['wall_s'] for r in untraced):.4f} s, "
              f"set-up median={median(r['setup_s'] for r in setups):.4f} s, "
              f"probe median={median(r['probe_s'] for r in setups):.4f} s")
    for name in units if metrics else ():
        value = metrics[name]
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{name:45s} {text} {units[name]}")
    for p in problems[:20]:
        print(f"FAILED {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units if metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
