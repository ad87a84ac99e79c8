"""Byte-for-byte golden files for every artifact writer.

The files under tests/golden/ were written once and are never rewritten
to make this test pass: a difference means a writer changed its on-disk
format. Inputs are seeded arrays plus literals that stress float
formatting (-0.0, the smallest subnormal, a near-overflow value, 0.1).
Nothing here comes from a GEMM or from numpy's vectorized power, whose
last bits depend on the CPU; the `hermite --family hermite` command runs
a pure-Python recurrence.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qosc import (CheckResult, DeformationContext, EvolutionKernel,
                  LatticeFunction, MatchedLevel, ModeTable, SpectrumReport,
                  VerifyReport, write_kernel, write_lattice_function,
                  write_mode_table, write_spectrum_report, write_verify_report)
from qosc.cli import main

GOLDEN = Path(__file__).parent / "golden"
Q, N, S = 0.7, 5, 4
AWKWARD = [-0.0, 5e-324, 1e308, 0.1]


def _real(rng, shape):
    v = rng.standard_normal(shape)
    v.reshape(-1)[:4] = AWKWARD
    return v


def _complex(rng, shape):
    return _real(rng, shape) + 1j * _real(rng, shape)[::-1]


def _write_all(out: Path) -> None:
    rng = np.random.default_rng(20071)
    ctx = DeformationContext(q=Q, fock_dim=N, lattice_depth=S)
    tails = rng.integers(0, N + 1, 2 * S)
    tables = {
        "position": ModeTable("position", Q, N, S, _real(rng, (N, 2 * S)), tails),
        "momentum": ModeTable("momentum", Q, N, S, _complex(rng, (N, 2 * S)),
                              tails),
    }
    functions = {
        "bare": LatticeFunction("position", _complex(rng, 2 * S)),
        "rescaled": LatticeFunction("momentum", _real(rng, 2 * S),
                                    rescaled=True),
    }
    kernels = {
        "raw_K": EvolutionKernel(0.1, "raw_K", Q, N, S,
                                 _complex(rng, (2 * S, 2 * S)), 5e-324, 6),
        "rescaled_Phi": EvolutionKernel(math.pi / 2, "rescaled_Phi", Q, N, S,
                                        _complex(rng, (2 * S, 2 * S)),
                                        0.1, 1),
    }
    matched = [MatchedLevel(1, 0, 1.0, 0.0), MatchedLevel(-1, 0, -1.0, 5e-324),
               MatchedLevel(1, 1, 0.7000000000000001, 1e-16),
               MatchedLevel(-1, 1, -0.7, 0.1)]
    spectrum = SpectrumReport(Q, N, S, 1e-10, matched,
                              [0.1, -0.0, 5e-324, -1e308], 1, 0.1)
    checks = [CheckResult("qpoch-recurrence", True, 5e-324, 1e-12, 0.1),
              CheckResult("spectrum-match", False, 1e308, 1e-10, -0.0,
                          detail="q=0.7, s=3")]
    report = VerifyReport(False, 3, (0.5, 0.7), 0.1, checks)
    for fmt in ("csv", "json"):
        for kind, t in tables.items():
            write_mode_table(t, str(out / f"mode_{kind}.{fmt}"), fmt)
        for name, f in functions.items():
            write_lattice_function(f, ctx, str(out / f"lattice_{name}.{fmt}"))
        for variant, k in kernels.items():
            write_kernel(k, str(out / f"kernel_{variant}.{fmt}"))
        write_spectrum_report(spectrum, str(out / f"spectrum.{fmt}"))
        write_verify_report(report, str(out / f"verify.{fmt}"))
        for name, extra in (("grid", ["--grid", "-1:1:0.3"]), ("lattice", [])):
            r = CliRunner().invoke(main, [
                "hermite", "--family", "hermite", "--q", str(Q), "--n-max", "3",
                "--fock-dim", "8", "--lattice-depth", str(S), "--format", fmt,
                "--out", str(out / f"hermite_{name}.{fmt}"), *extra])
            assert r.exit_code == 0, r.output


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    _write_all(out)
    return out


def test_golden_set_is_complete(written):
    assert sorted(p.name for p in written.iterdir()) == \
        sorted(p.name for p in GOLDEN.iterdir())


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_writer_bytes_match_golden(written, name):
    assert (written / name).read_bytes() == (GOLDEN / name).read_bytes()
