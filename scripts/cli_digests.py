#!/usr/bin/env python3
"""SHA-256 of every artifact of a fixed set of qosc CLI commands.

Most of the set runs at q = 0.5, S = 128, N = 320:

    hermite                    CSV, JSON, and --n-max 4 JSON
    spectrum --format json
    kernel                     CSV, JSON, and --variant raw JSON
    evolve                     on a seeded rescaled state, CSV and JSON
    verify --seed 3            its stdout, and its --format json report
                               as two digests, one of the header
                               (overall_pass, seed, qs) and one of the
                               check list, with the timings stripped

hermite, kernel (CSV and --variant raw JSON) and evolve also run at
q = 0.95, S = 256, N = 640, where Miller's backward band is w = 63
degrees wide (18 at q = 0.5). hermite, evolve, a CSV kernel and a raw
JSON kernel, both at tau = 0.7, run once more at q = 0.99, S = 400,
N = 800 (w = 143), a window that builds in about 0.1 s, where a_n rises
for about 70 degrees before it decays and a start before that peak
would break the core levels. Every other kernel runs at the default
tau = pi/2, whose phases lie within roundoff of +-1 and +-i; these two
fold other phases over several block rows cut short by the Miller tail,
at S > 256. The raw one also scales by a complex factor at a generic
phase, and its entries cancel terms up to about 1e18 times their size,
so it is the digest most sensitive to summation and operand order. One
more CSV kernel runs at q = 0.95, S = 24, N = 120, a window so shallow
that the phased rows its fold reads do not fit in the kernel's lower
half and get an array of their own (every other kernel here builds them
inside the kernel). Another CSV kernel runs on a one-level window, at
q = 0.8, S = 1, N = 64: there the completeness sum over degrees is one
column, which numpy's reductions may add in another order than a sum
over several levels, so its tail_estimate pins that order in the last
bits. hermite and a CSV kernel at tau = 0.7 also run at q = 0.02,
S = 30, N = 60, where Miller's backward values pass 1e250 and are
rescaled, so the digests cover the step that tests for that (a test the
mode table runs only where a bound from the couplings allows such
values). Two polynomial tables run at q = 0.5, N = 64:
hermite --grid -1:1:0.02 as CSV (its values reach 1.3e292) and hermite
--family hermite at S = 128 as JSON.

Each command runs in a fresh temporary directory, as a subprocess that
imports qosc from --src (default: this checkout's src/) with BLAS pinned
to one thread. Each artifact is then read back with the public loader
for its kind, in one more such subprocess. Two lines per artifact are
printed, digest then name: one of the file's bytes, and one, named
"<artifact> (loaded)", of every field of the loaded object (the bytes,
dtype and shape of each array, the repr of each other value). Each CSV
artifact is loaded once more with its data rows in reverse order (the
metadata line and header kept first), which must give the same object:
its digest, named "<artifact> (loaded, rows reversed)", must equal the
"(loaded)" line. The bulk loaders parse a chunk of rows at a time, and
the mode tables at q = 0.95 and 0.99 span 40 and 79 chunks. The
polynomial tables have no loader, so only their bytes are digested. Run it on
two checkouts and diff the output to see whether a change moved any
written byte or any value a loader returns:

    python scripts/cli_digests.py [--src path/to/src]

No digest is committed: kernel bytes depend on the BLAS build's
summation order, so they are only comparable on one machine.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SIZE = ["--q", "0.5", "--lattice-depth", "128", "--fock-dim", "320"]
WIDE = ["--q", "0.95", "--lattice-depth", "256", "--fock-dim", "640"]
NEAR_ONE = ["--q", "0.99", "--lattice-depth", "400", "--fock-dim", "800"]
SMALL_Q = ["--q", "0.02", "--lattice-depth", "30", "--fock-dim", "60"]

# (artifact name, qosc arguments); each writes its artifact to --out
COMMANDS = [
    ("hermite.csv", ["hermite", *SIZE]),
    ("hermite.json", ["hermite", *SIZE, "--format", "json"]),
    ("hermite_n4.json", ["hermite", *SIZE, "--n-max", "4", "--format", "json"]),
    ("spectrum.json", ["spectrum", *SIZE, "--format", "json"]),
    ("kernel.csv", ["kernel", *SIZE]),
    ("kernel.json", ["kernel", *SIZE, "--format", "json"]),
    ("kernel_raw.json", ["kernel", *SIZE, "--variant", "raw", "--format",
                         "json"]),
    ("evolved.csv", ["evolve", *SIZE, "--input", "state.csv"]),
    ("evolved.json", ["evolve", *SIZE, "--input", "state.csv", "--format",
                      "json"]),
    ("hermite_q095.csv", ["hermite", *WIDE]),
    ("kernel_q095.csv", ["kernel", *WIDE]),
    ("kernel_raw_q095.json", ["kernel", *WIDE, "--variant", "raw", "--format",
                              "json"]),
    ("evolved_q095.csv", ["evolve", *WIDE, "--input", "state.csv"]),
    ("hermite_q099.csv", ["hermite", *NEAR_ONE]),
    ("evolved_q099.csv", ["evolve", *NEAR_ONE, "--input", "state.csv"]),
    ("kernel_q099_tau07.csv", ["kernel", *NEAR_ONE, "--tau", "0.7"]),
    ("kernel_raw_q099_tau07.json", ["kernel", *NEAR_ONE, "--variant", "raw",
                                    "--tau", "0.7", "--format", "json"]),
    ("kernel_q095_s24.csv", ["kernel", "--q", "0.95", "--lattice-depth", "24",
                             "--fock-dim", "120"]),
    ("kernel_q08_s1.csv", ["kernel", "--q", "0.8", "--lattice-depth", "1",
                           "--fock-dim", "64"]),
    ("hermite_q002.csv", ["hermite", *SMALL_Q]),
    ("kernel_q002_tau07.csv", ["kernel", *SMALL_Q, "--tau", "0.7"]),
]

# polynomial tables, which no loader reads
POLY = ["--q", "0.5", "--fock-dim", "64"]
TABLES = [
    ("hermite_grid.csv", ["hermite", *POLY, "--grid", "-1:1:0.02"]),
    ("hermite_family.json", ["hermite", *POLY, "--lattice-depth", "128",
                             "--family", "hermite", "--format", "json"]),
]

# the loader for each artifact, by the command that wrote it
LOADERS = {"hermite": "load_mode_table", "spectrum": "load_spectrum_report",
           "kernel": "load_kernel", "evolve": "load_lattice_function"}

# prints the SHA-256 of every field of the object argv[2] loads from argv[1]
_LOAD = """
import hashlib, sys, numpy as np, qosc
obj = getattr(qosc, sys.argv[2])(sys.argv[1])
h = hashlib.sha256()
for key, value in sorted(vars(obj).items()):
    if isinstance(value, np.ndarray):
        text = f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    else:
        text = repr(value).encode()
    h.update(f"{key}:{len(text)}:".encode() + text)
print(h.hexdigest())
"""

_TIMING = re.compile(r" \(\d+\.\d+s\)$| in \d+\.\d+s(?= )")


def _run(src: Path, cwd: str, argv: list) -> str:
    """stdout of python argv, importing qosc from src."""
    env = {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    r = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                       capture_output=True, text=True)
    if r.returncode != 0:
        raise SystemExit(f"python {' '.join(argv)[:80]} exited "
                         f"{r.returncode}:\n{r.stderr}")
    return r.stdout


def _seeded_state(src: Path, path: str, size: list) -> None:
    """A rescaled position function of seeded values at size, a list of
    --q, --lattice-depth and --fock-dim flags with their values."""
    q, depth, dim = size[1::2]
    code = (
        "import sys, numpy as np, qosc\n"
        f"ctx = qosc.DeformationContext(q={q}, lattice_depth={depth}, "
        f"fock_dim={dim})\n"
        "v = np.random.default_rng(3).standard_normal((2, 2 * ctx.lattice_depth))\n"
        "f = qosc.LatticeFunction('position', v[0] + 1j * v[1], "
        "rescaled=True)\n"
        "qosc.write_lattice_function(f, ctx, sys.argv[1])\n")
    subprocess.run([sys.executable, "-c", code, path], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def digests(src: Path) -> list:
    out = []
    for name, args in COMMANDS + TABLES:
        with tempfile.TemporaryDirectory() as tmp:
            if "evolve" in args:  # its size flags follow the command name
                _seeded_state(src, os.path.join(tmp, "state.csv"), args[1:7])
            _run(src, tmp, ["-m", "qosc.cli", *args, "--out", name])
            out.append((hashlib.sha256(Path(tmp, name).read_bytes())
                        .hexdigest(), name))
            if (name, args) in TABLES:
                continue
            loaded = _run(src, tmp, ["-c", _LOAD, name, LOADERS[args[0]]])
            out.append((loaded.strip(), f"{name} (loaded)"))
            if name.endswith(".csv"):
                lines = Path(tmp, name).read_text().splitlines(keepends=True)
                head = 2 if lines[0].startswith("#") else 1
                Path(tmp, "reversed.csv").write_text(
                    "".join(lines[:head] + lines[head:][::-1]))
                loaded = _run(src, tmp, ["-c", _LOAD, "reversed.csv",
                                         LOADERS[args[0]]])
                out.append((loaded.strip(), f"{name} (loaded, rows reversed)"))
    with tempfile.TemporaryDirectory() as tmp:
        stdout = _run(src, tmp, ["-m", "qosc.cli", "verify", "--seed", "3",
                                 "--format", "json", "--out", "verify.json"])
        report = json.loads(Path(tmp, "verify.json").read_text())
    text = "".join(_TIMING.sub("", line) + "\n"
                   for line in stdout.splitlines())
    out.append((hashlib.sha256(text.encode()).hexdigest(), "verify-seed3.txt"))
    # the report's residuals at full precision, every runtime_s removed;
    # the header (overall_pass, seed, qs) and the check list apart
    checks = report.pop("checks")
    for item in [report, *checks]:
        del item["runtime_s"]
    for part, value in (("header", report), ("checks", checks)):
        out.append((hashlib.sha256(json.dumps(value).encode()).hexdigest(),
                    f"verify-seed3.json {part} (no runtime_s)"))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent / "src",
                    help="directory holding the qosc package to run")
    args = ap.parse_args(argv)
    for digest, name in digests(args.src.resolve()):
        print(f"{digest}  {name}")


if __name__ == "__main__":
    main()
