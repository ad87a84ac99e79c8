"""Byte-for-byte golden files for every artifact writer.

The files under tests/golden/ were written once and are never rewritten
to make this test pass: a difference means a writer changed its on-disk
format. Inputs are seeded arrays plus literals that stress float
formatting (-0.0, the smallest subnormal, a near-overflow value, 0.1).
Nothing here comes from a GEMM or from numpy's vectorized power, whose
last bits depend on the CPU; the `hermite --family hermite` command runs
a pure-Python recurrence.

tests/golden/schema1/ holds the files of the same inputs that schema 1
wrote where schema 2 writes other bytes: every JSON file and the kernel
CSVs. They are loader fixtures: each must still load to the very object
written.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qosc import (CheckResult, DeformationContext, EvolutionKernel,
                  LatticeFunction, MatchedLevel, ModeTable, SpectrumReport,
                  VerifyReport, load_kernel, load_lattice_function,
                  load_mode_table, load_spectrum_report, write_kernel,
                  write_lattice_function, write_mode_table,
                  write_spectrum_report, write_verify_report)
from qosc.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCHEMA1 = GOLDEN / "schema1"
Q, N, S = 0.7, 5, 4
AWKWARD = [-0.0, 5e-324, 1e308, 0.1]


def _real(rng, shape):
    v = rng.standard_normal(shape)
    v.reshape(-1)[:4] = AWKWARD
    return v


def _complex(rng, shape):
    return _real(rng, shape) + 1j * _real(rng, shape)[::-1]


def _objects() -> dict:
    """The artifacts _write_all writes through the library's writers, by
    file name without the format suffix."""
    rng = np.random.default_rng(20071)
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
    return {**{f"mode_{kind}": t for kind, t in tables.items()},
            **{f"lattice_{name}": f for name, f in functions.items()},
            **{f"kernel_{variant}": k for variant, k in kernels.items()},
            "spectrum": spectrum, "verify": report}


def _write_all(out: Path) -> None:
    ctx = DeformationContext(q=Q, fock_dim=N, lattice_depth=S)
    objects = _objects()
    for fmt in ("csv", "json"):
        for name, obj in objects.items():
            path = str(out / f"{name}.{fmt}")
            if isinstance(obj, ModeTable):
                write_mode_table(obj, path, fmt)
            elif isinstance(obj, LatticeFunction):
                write_lattice_function(obj, ctx, path)
            elif isinstance(obj, EvolutionKernel):
                write_kernel(obj, path)
            elif isinstance(obj, SpectrumReport):
                write_spectrum_report(obj, path)
            else:
                write_verify_report(obj, path)
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


def _files(directory: Path) -> list:
    return sorted(p.name for p in directory.iterdir() if p.is_file())


def test_golden_set_is_complete(written):
    assert _files(written) == _files(GOLDEN)


@pytest.mark.parametrize("name", _files(GOLDEN))
def test_writer_bytes_match_golden(written, name):
    assert (written / name).read_bytes() == (GOLDEN / name).read_bytes()


_LOADERS = {"mode": load_mode_table, "lattice": load_lattice_function,
            "kernel": load_kernel, "spectrum": load_spectrum_report}


def _fields(obj) -> dict:
    """Each field of obj: an array as its dtype, shape and bytes, any
    other value as its repr."""
    return {key: (v.dtype.str, v.shape, v.tobytes())
            if isinstance(v, np.ndarray) else repr(v)
            for key, v in vars(obj).items()}


@pytest.mark.parametrize("name", _files(SCHEMA1))
def test_schema1_fixture_loads_to_written_object(name):
    stem = name.rpartition(".")[0]
    loader = _LOADERS.get(stem.partition("_")[0])
    if loader is None:
        # no loader reads verify reports or polynomial tables; their
        # layout did not change, and only the version moved
        new = json.loads((GOLDEN / name).read_text())
        assert json.loads((SCHEMA1 / name).read_text()) == {
            **new, "schema_version": 1}
        return
    assert _fields(loader(str(SCHEMA1 / name))) == _fields(_objects()[stem])
