"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --work DIR

run.py starts one worker per pass and reads DIR/result.json back. The
worker imports qosc from src/, makes one warm-up call at a tiny context
unrelated to every workload, and records the clock: run.py counts set-up
from its own clock reading just before the spawn. Then it runs the pass
one operation at a time, checks each output against the committed
reference (reference.py), and writes the result. The benchmark's checks
run between operations and are not counted in any time. With --trace 1
the layer spans are recorded (tracer.py) and returned with the result;
--setup-only stops after the warm-up.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import subprocess
import sys
from collections import defaultdict
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("tau_sweep", "cli_io", "verify")
# Operations one pass attempts; a pass whose worker dies counts them all failed.
OPS_PER_PASS = {"tau_sweep": 36, "cli_io": 10, "verify": 56}
PROBES_AROUND_PASS = 5  # probe samples before and after the pass


class Pass:
    """Timed operations of one pass and the failures among them."""

    def __init__(self, probe):
        self.probe = probe
        self.probe_s: list[float] = []
        self.wall_s = 0.0
        self.stage_s = defaultdict(float)
        self.label_s = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def sample_probe(self, n: int) -> None:
        self.probe_s.extend(self.probe() for _ in range(n))

    def op(self, stage: str, fn, check, label: str | None = None,
           count: int = 1):
        """Time fn() as `count` operations, then check its output.

        check(out) returns None, one problem, or a list of problems (one
        per failed operation). An exception from fn fails all of them.
        One probe sample is taken before each operation, outside its time.
        """
        self.sample_probe(1)
        self.attempted += count
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failing operation is a result to report
            dt = perf_counter() - t0
            problems = [f"raised {exc!r}"] * count
        else:
            dt = perf_counter() - t0
            problems = check(out) or []
            if isinstance(problems, str):
                problems = [problems]
        self.wall_s += dt
        self.stage_s[stage] += dt
        if label is not None:
            self.label_s[label] += dt
        self.failed += min(count, len(problems))
        self.failures.extend(f"{label or stage}: {p}" for p in problems)


def _eigenvalues(rep) -> list[float]:
    return [m.value for m in rep.matched] + list(rep.unmatched)


def tau_sweep(ps: Pass, seed: int, qosc, reference) -> None:
    """Per context: one spectrum, then one kernel and one evolve per tau."""
    import numpy as np

    rng = np.random.default_rng(seed)
    for q, S, N in reference.CONTEXTS:
        ref = reference.Reference(q, S, N)
        ctx = qosc.DeformationContext(q=q, fock_dim=N, lattice_depth=S)
        taus = [float(t) for t in reference.random_taus(rng, 4)]
        states = [reference.random_state(rng) for _ in taus]
        ps.op("spectrum_s",
              lambda: qosc.spectrum_report(qosc.build_Q(ctx), ctx),
              lambda rep: ref.check_spectrum(_eigenvalues(rep), rep.s_match))
        for tau, b in zip(taus, states):
            F = qosc.LatticeFunction("position", ref.state(b), rescaled=True)
            ps.op("kernel_build_s", lambda: qosc.fractional_ft(tau, ctx),
                  lambda k: ref.check_kernel(k.matrix, tau))
            ps.op("evolve_s", lambda: qosc.evolve(F, tau, ctx),
                  lambda g: ref.check_evolved(g.values, tau, b))


def _write_state(path: Path, q: float, S: int, values) -> None:
    """Rescaled lattice-function CSV, written by the benchmark itself."""
    lines = ["sign,s,x,re,im,rescaled_flag"]
    for s in range(S):
        for i, (sign, x) in enumerate(((1, q**s), (-1, -(q**s)))):
            v = complex(values[2 * s + i])
            lines.append(f"{sign},{s},{x!r},{v.real!r},{v.imag!r},1")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cli_io(ps: Pass, seed: int, work: Path, qosc, reference,
           spans: list[list] | None) -> None:
    """Five CLI commands, then the five artifacts read back.

    With spans given, each command records its own spans, which are
    appended here with their parent indices shifted to match.
    """
    import numpy as np

    q, S, N = reference.CONTEXTS[0]
    ref = reference.Reference(q, S, N)
    rng = np.random.default_rng(seed)
    tau_csv, tau_json, tau_evolve = (float(t) for t in reference.random_taus(rng, 3))
    b = reference.random_state(rng)
    _write_state(work / "state.csv", q, S, ref.state(b))

    size = ["--q", repr(q), "--fock-dim", str(N), "--lattice-depth", str(S)]
    commands = {
        "spectrum": ["spectrum", "--format", "json", "--out", "spectrum.json"],
        "hermite": ["hermite", "--out", "modes.csv"],
        "kernel_csv": ["kernel", "--tau", repr(tau_csv), "--format", "csv",
                       "--out", "kernel.csv"],
        "kernel_json": ["kernel", "--tau", repr(tau_json), "--format", "json",
                        "--out", "kernel.json"],
        "evolve": ["evolve", "--input", "state.csv", "--tau", repr(tau_evolve),
                   "--out", "evolved.csv"],
    }
    for name, argv in commands.items():
        env = dict(os.environ)
        span_file = work / f"spans-{name}.json"
        if spans is not None:
            env["QOSC_BENCH_SPANS"] = str(span_file)
        cmd = [sys.executable, str(HERE / "launcher.py"), *argv, *size]
        ps.op("cli_s",
              lambda: subprocess.run(cmd, cwd=work, env=env, timeout=60,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True),
              lambda p: None if p.returncode == 0 else
              f"exit {p.returncode}: {p.stderr.strip()[-300:]}",
              label=f"cli.{name}")
        if spans is not None and span_file.exists():
            offset = len(spans)
            for s in json.loads(span_file.read_text(encoding="utf-8")):
                s[3] = s[3] + offset if s[3] >= 0 else -1
                spans.append(s)

    def kernel_check(tau):
        def check(k):
            if k.tau != tau or k.variant != "rescaled_Phi":
                return f"kernel file holds tau={k.tau!r} {k.variant}"
            return ref.check_kernel(k.matrix, tau)
        return check

    reads = [
        (lambda: qosc.load_spectrum_report(str(work / "spectrum.json")),
         lambda rep: ref.check_spectrum(_eigenvalues(rep), rep.s_match)),
        (lambda: qosc.load_mode_table(str(work / "modes.csv")),
         lambda t: ref.check_mode_table(t.values)),
        (lambda: qosc.load_kernel(str(work / "kernel.csv")),
         kernel_check(tau_csv)),
        (lambda: qosc.load_kernel(str(work / "kernel.json")),
         kernel_check(tau_json)),
        (lambda: qosc.load_lattice_function(str(work / "evolved.csv")),
         lambda f: ref.check_evolved(f.values, tau_evolve, b)),
    ]
    for load, check in reads:
        ps.op("read_s", load, check)


def verify(ps: Pass, seed: int, qosc) -> dict:
    """`qosc verify --seed N` in this process; returns seconds per family."""
    import qosc.cli as cli

    reports = []
    run_verification = cli.run_verification

    def capture(*args, **kwargs):
        rep = run_verification(*args, **kwargs)
        reports.append(rep)
        return rep

    cli.run_verification = capture
    n_checks = len(qosc.verify.default_checks(seed))

    def command():
        with redirect_stdout(io.StringIO()):
            try:
                cli.main(["verify", "--seed", str(seed)], prog_name="qosc",
                         standalone_mode=False)
            except SystemExit as exc:
                return exc.code
        return 0

    def check(code):
        if not reports:
            return [f"exit {code} without a report"] * n_checks
        problems = [f"{c.name}: residual {c.residual!r} tol {c.tolerance!r}"
                    for c in reports[-1].checks
                    if not (c.passed and math.isfinite(c.residual))]
        missing = n_checks - len(reports[-1].checks)
        problems += ["check missing from the report"] * missing
        if code not in (0, None) and not problems:
            problems.append(f"exit {code} with every check passing")
        return problems

    ps.op("verify_s", command, check, count=n_checks)
    family_s: dict[str, float] = defaultdict(float)
    for c in reports[-1].checks if reports else ():
        family_s[c.name.split("[", 1)[0]] += c.runtime_s
    return dict(family_s)


def make_probe():
    """probe() times one fixed mix of work that touches no qosc code.

    A tridiagonal eigensolve with vectors, a complex GEMM, float repr and
    an interpreter loop: the kinds of work the three workloads spend
    their time on, about 20 ms in all. The host is shared and its speed
    drifts by tens of percent over minutes; a pass time divided by the
    probe times sampled through the same pass moves far less.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(0)
    d, e = rng.standard_normal(128), rng.standard_normal(127)
    A = rng.standard_normal((128, 128))

    def probe() -> float:
        t0 = perf_counter()
        eigh_tridiagonal(d, e, lapack_driver="stebz")
        A @ (A + 1j * A)
        ",".join(repr(x) for x in A[:16].ravel())
        acc = 0.0
        for i in range(40_000):
            acc += i * 0.5
        return perf_counter() - t0

    return probe


def warm_up(qosc) -> None:
    """Pays imports and lazy BLAS/LAPACK set-up at an unrelated tiny size."""
    ctx = qosc.DeformationContext(q=0.7, fock_dim=24, lattice_depth=8)
    k = qosc.fractional_ft(0.3, ctx)
    qosc.evolve(qosc.rescaled_mode(1, ctx), 0.3, ctx, kernel=k)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import qosc
    import qosc.cli  # noqa: F401  (the cli_io and verify workloads use it)
    if Path(qosc.__file__).resolve().parent != ROOT / "src" / "qosc":
        raise SystemExit(f"imported qosc from {qosc.__file__}, not from src/")
    import reference
    from tracer import Recorder

    warm_up(qosc)
    result = {"t_ready": perf_counter()}
    ps = Pass(make_probe())
    ps.sample_probe(PROBES_AROUND_PASS)
    if not args.setup_only:
        recorder = None
        if args.trace:
            recorder = Recorder()
            recorder.install()
        spans = recorder.spans if recorder else None
        family_s: dict[str, float] = {}
        if args.workload == "tau_sweep":
            tau_sweep(ps, args.seed, qosc, reference)
        elif args.workload == "cli_io":
            cli_io(ps, args.seed, args.work, qosc, reference, spans)
        else:
            family_s = verify(ps, args.seed, qosc)
        ps.sample_probe(PROBES_AROUND_PASS)
        rss_kb = max(resource.getrusage(who).ru_maxrss for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result.update(wall_s=ps.wall_s, stage_s=ps.stage_s,
                      label_s=ps.label_s, family_s=family_s,
                      attempted=ps.attempted, failed=ps.failed,
                      failures=ps.failures[:20], peak_rss_mb=rss_kb / 1024.0,
                      spans=spans)
    result["probe_s"] = median(ps.probe_s)
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
