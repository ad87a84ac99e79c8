import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qosc
from qosc import (DeformationContext, ValidationError, build_mode_table,
                  forward_rows, fractional_ft, rescaled_mode)
from qosc.cli import (ENTRY_BYTES, MAX_WORK_BYTES, _check_size,
                       _spectrum_bytes, main)
from qosc.evolution import _certificate
from qosc.qhermite import _half_table, _weights
from qosc.serialize import (load_lattice_function, load_mode_table,
                            write_lattice_function)


@pytest.fixture
def runner():
    return CliRunner()


def test_spectrum_success(runner, tmp_path):
    out = str(tmp_path / "s.csv")
    r = runner.invoke(main, ["spectrum", "--q", "0.5", "--fock-dim", "60",
                             "--require-s", "8", "--out", out])
    assert r.exit_code == 0, r.output
    assert "s_match=28" in r.output
    assert os.path.exists(out)


def test_spectrum_requirement_failure(runner, tmp_path):
    out = str(tmp_path / "s.csv")
    r = runner.invoke(main, ["spectrum", "--fock-dim", "24", "--require-s",
                             "25", "--out", out])
    assert r.exit_code == 2


def test_spectrum_json_format(runner, tmp_path):
    out = str(tmp_path / "s.json")
    r = runner.invoke(main, ["spectrum", "--format", "json", "--out", out])
    assert r.exit_code == 0
    doc = json.load(open(out))
    assert doc["schema_version"] == 2


def test_hermite_lattice_table(runner, tmp_path):
    out = str(tmp_path / "m.csv")
    r = runner.invoke(main, ["hermite", "--n-max", "4", "--lattice-depth",
                             "6", "--out", out])
    assert r.exit_code == 0
    header = open(out).readline().strip()
    assert header == "sign,s,x,n,value_re,value_im"


def test_hermite_n_max_keeps_a_tail_start_per_site(runner, tmp_path):
    out = str(tmp_path / "m.json")
    r = runner.invoke(main, ["hermite", "--n-max", "4", "--fock-dim", "12",
                             "--lattice-depth", "6", "--format", "json",
                             "--out", out])
    assert r.exit_code == 0, r.output
    full = build_mode_table(
        "position", DeformationContext(q=0.5, fock_dim=12, lattice_depth=6))
    back = load_mode_table(out)
    assert back.fock_dim == 5
    assert np.array_equal(back.tail_start, np.minimum(full.tail_start, 5))


def _qosc_subprocess(code: str, *args: str, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(Path(qosc.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          **kwargs)


# Blocks scipy in the subprocess: importing it, or any of its submodules,
# raises ImportError, so a command that needs it fails instead of loading it.
_NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def test_hermite_does_not_import_scipy(tmp_path):
    code = (_NO_SCIPY +
            "from qosc.cli import main\n"
            "main(['hermite', '--fock-dim', '8', '--lattice-depth', '4',\n"
            "      '--out', sys.argv[1]], standalone_mode=False)\n")
    r = _qosc_subprocess(code, str(tmp_path / "m.csv"))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "m.csv").exists()


def test_kernel_and_evolve_do_not_import_scipy(tmp_path):
    # a kernel's s_match comes from Sturm counts, so no eigensolver loads
    ctx = DeformationContext(q=0.5, lattice_depth=10, fock_dim=44)
    write_lattice_function(rescaled_mode(1, ctx), ctx, str(tmp_path / "in.csv"))
    code = (_NO_SCIPY +
            "from qosc.cli import main\n"
            "size = ['--lattice-depth', '10', '--fock-dim', '44']\n"
            "main(['kernel', *size, '--out', 'k.csv'], standalone_mode=False)\n"
            "main(['evolve', *size, '--input', 'in.csv', '--out', 'e.csv'],\n"
            "     standalone_mode=False)\n")
    r = _qosc_subprocess(code, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "k.csv").exists() and (tmp_path / "e.csv").exists()


def test_spectrum_and_verify_do_not_import_scipy(tmp_path):
    # the spectrum is numpy's SVD and the eigenpairs numpy's eigh: qosc
    # needs no scipy, and the whole battery runs without it
    code = (_NO_SCIPY +
            "from qosc.cli import main\n"
            "main(['spectrum', '--fock-dim', '60', '--out', 's.json',\n"
            "      '--format', 'json'], standalone_mode=False)\n"
            "try:\n"
            "    main(['verify', '--seed', '3'], standalone_mode=False)\n"
            "except SystemExit as exc:\n"
            "    sys.exit(exc.code)\n")
    r = _qosc_subprocess(code, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "s.json").exists()
    n = len(qosc.verify.default_checks(0))
    assert f"PASS overall {n}/{n} checks" in r.stdout, r.stdout


def test_kernel_command_leaves_the_battery_unloaded(tmp_path):
    # only the verify command loads qosc.verify; the package still names
    # the battery's entry points, which load it on first access
    code = ("import sys\n"
            "import qosc\n"
            "from qosc.cli import main\n"
            "main(['kernel', '--lattice-depth', '6', '--fock-dim', '16',\n"
            "      '--out', 'k.csv'], standalone_mode=False)\n"
            "assert 'qosc.verify' not in sys.modules, 'battery loaded'\n"
            "run = qosc.run_verification\n"
            "assert run is sys.modules['qosc.verify'].run_verification\n"
            "assert qosc.verify.VerifyReport is qosc.VerifyReport\n")
    r = _qosc_subprocess(code, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "k.csv").exists()


def test_oversized_inputs_fail_before_allocating(tmp_path):
    # under 1 GiB of address space: the window alone of 10^12 levels
    # would raise MemoryError; the size check must come first, before
    # evolve even opens its (missing) input
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from qosc.cli import main\n"
            "for args in sys.argv[1:]:\n"
            "    try:\n"
            "        main(args.split(), standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        print(args.split()[0], exc.code)\n")
    deep = "--lattice-depth 1000000000000"
    r = _qosc_subprocess(code, f"spectrum {deep}", f"kernel {deep}",
                         f"evolve {deep} --input missing.csv",
                         "spectrum --fock-dim 1000000000",
                         "kernel --lattice-depth 8192",
                         "hermite --fock-dim 20000 --lattice-depth 20000",
                         cwd=tmp_path)
    assert r.stdout.split("\n") == ["spectrum 1", "kernel 1", "evolve 1",
                                     "spectrum 1", "kernel 1", "hermite 1",
                                     ""], r.stderr
    assert r.stderr.count("over the 4.29e+09-byte cap") == 6, r.stderr
    assert not list(tmp_path.iterdir())


def test_spectrum_is_charged_for_its_largest_block(tmp_path):
    # under 1 GiB of address space. At q = 0.99 every coupling of
    # N = 40000 is nonzero, so the bidiagonal half would be 20000 x 20000
    # (6.4 GB with LAPACK's copy): refused before anything is formed. At
    # q = 0.5 the couplings underflow to 0 from n = 1075 on, so the same N
    # solves blocks of at most 1076 sites
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from qosc.cli import main\n"
            "for q in ('0.99', '0.5'):\n"
            "    try:\n"
            "        main(['spectrum', '--q', q, '--fock-dim', '40000',\n"
            "              '--out', f'{q}.csv'], standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        print(q, exc.code)\n")
    r = _qosc_subprocess(code, cwd=tmp_path)
    assert r.stdout.splitlines()[0] == "0.99 1", r.stdout + r.stderr
    assert "over the 4.29e+09-byte cap" in r.stderr
    assert not (tmp_path / "0.99.csv").exists()
    assert (tmp_path / "0.5.csv").exists(), r.stdout + r.stderr
    assert _spectrum_bytes(DeformationContext(q=0.5, fock_dim=40000)) \
        == 16 * 538 * 538


@pytest.mark.parametrize("command, tau", [("kernel", "nan"), ("evolve", "inf")])
def test_non_finite_tau_exits_1(runner, tmp_path, command, tau):
    ctx = DeformationContext(q=0.5, lattice_depth=4, fock_dim=8)
    src = str(tmp_path / "in.csv")
    write_lattice_function(rescaled_mode(1, ctx), ctx, src)
    out = tmp_path / "out.csv"
    args = [command, "--lattice-depth", "4", "--fock-dim", "8", "--tau", tau,
            "--out", str(out)]
    if command == "evolve":
        args += ["--input", src]
    r = runner.invoke(main, args)
    assert r.exit_code == 1 and "tau must be finite" in r.output, r.output
    assert not out.exists()


def test_size_cap_boundary():
    ctx = DeformationContext(q=0.5, fock_dim=64, lattice_depth=32)
    at = MAX_WORK_BYTES - ENTRY_BYTES * (64 + 32)
    _check_size(ctx, at)
    with pytest.raises(ValidationError, match="cap"):
        _check_size(ctx, at + 1)


@pytest.mark.parametrize("q, S, N", [(0.95, 256, 640), (0.95, 200, 1000),
                                     (0.99, 150, 1000)])
def test_kernel_charge_covers_a_kernel_built_from_empty_caches(q, S, N):
    # the fold's work arrays live inside the kernel, so building one from
    # scratch (weights, half table, certificate and fold) peaks within
    # what the kernel command is charged for; at (0.99, 150, 1000) the
    # kernel is small beside the 1000-degree table it is folded from
    ctx = DeformationContext(q=q, lattice_depth=S, fock_dim=N)
    for cached in (_weights, _half_table, _certificate):
        cached.cache_clear()
    tracemalloc.start()
    try:
        fractional_ft(1.5707963, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (2 * S) ** 2 + 8 * N * S + ENTRY_BYTES * (N + S)


def test_vector_commands_run_past_the_kernel_cap(runner, tmp_path):
    # spectrum and evolve never form a 2S x 2S kernel, so S above the
    # kernel's limit (S = 8182 at N = 16) runs at a small N
    size = ["--lattice-depth", "8200", "--fock-dim", "16"]
    ctx = DeformationContext(q=0.5, fock_dim=16, lattice_depth=8200)
    src = str(tmp_path / "in.csv")
    write_lattice_function(rescaled_mode(1, ctx), ctx, src)
    for args in (["spectrum", *size, "--out", str(tmp_path / "s.csv")],
                 ["evolve", *size, "--input", src,
                  "--out", str(tmp_path / "e.csv")]):
        r = runner.invoke(main, args)
        assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["kernel", *size, "--out", str(tmp_path / "k.csv")])
    assert r.exit_code == 1 and "cap" in r.output
    assert not (tmp_path / "k.csv").exists()


def test_hermite_grid(runner, tmp_path):
    out = str(tmp_path / "g.csv")
    r = runner.invoke(main, ["hermite", "--family", "hermite", "--n-max", "2",
                             "--grid", "0.0:1.0:0.5", "--out", out])
    assert r.exit_code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "n,sign,s,x,value"
    assert len(lines) == 1 + 3 * 3


def test_hermite_bad_grid_is_validation_error(runner):
    r = runner.invoke(main, ["hermite", "--grid", "1:0:nope"])
    assert r.exit_code == 1


@pytest.mark.parametrize("grid", ["1:0:0.5", "0:1:0", "0:1:-0.5"])
def test_hermite_empty_grid_is_validation_error(runner, grid):
    r = runner.invoke(main, ["hermite", "--grid", grid])
    assert r.exit_code == 1 and "range is empty" in r.output, r.output


def test_hermite_bad_n_max(runner):
    r = runner.invoke(main, ["hermite", "--n-max", "200"])
    assert r.exit_code == 1


def test_hermite_deep_window_is_a_domain_error(runner, tmp_path):
    out = tmp_path / "modes.csv"
    r = runner.invoke(main, ["hermite", "--q", "0.3", "--fock-dim", "800",
                             "--lattice-depth", "300", "--out", str(out)])
    assert r.exit_code == 1
    assert "not finite" in r.output
    assert not out.exists()


@pytest.mark.parametrize("n_max", [200, 1199])
def test_hermite_grid_out_of_double_range_is_a_domain_error(runner, tmp_path,
                                                            n_max):
    # off the lattice p_n grows like q^(-n^2/4) and overflows from n ~ 75
    # at q = 0.5; from n = 1075 on a coupling is 0 as well
    out = tmp_path / "g.csv"
    r = runner.invoke(main, ["hermite", "--grid", "0:1:0.5", "--fock-dim",
                             "1200", "--n-max", str(n_max), "--out", str(out)])
    assert r.exit_code == 1
    assert r.output.startswith("error: degree ") and "not finite" in r.output
    assert not out.exists()


def test_kernel_writes_metadata(runner, tmp_path):
    out = str(tmp_path / "k.csv")
    r = runner.invoke(main, ["kernel", "--tau", "0.5", "--lattice-depth",
                             "8", "--fock-dim", "40", "--out", out])
    assert r.exit_code == 0
    first = open(out).readline()
    assert first.startswith("#") and "tau=" in first


def test_evolve_roundtrip(runner, tmp_path):
    ctx = DeformationContext(q=0.5, lattice_depth=10, fock_dim=44)
    src = str(tmp_path / "in.csv")
    write_lattice_function(rescaled_mode(1, ctx), ctx, src)
    out = str(tmp_path / "out.csv")
    r = runner.invoke(main, ["evolve", "--input", src, "--lattice-depth",
                             "10", "--fock-dim", "44", "--tau", "0.0",
                             "--out", out])
    assert r.exit_code == 0, r.output
    back = load_lattice_function(out)
    orig = load_lattice_function(src)
    assert np.allclose(back.values, orig.values, atol=1e-9)


def test_evolve_rejects_bare_input(runner, tmp_path):
    ctx = DeformationContext(q=0.5, lattice_depth=10, fock_dim=44)
    from qosc import mode_function
    src = str(tmp_path / "bare.csv")
    write_lattice_function(mode_function(1, ctx), ctx, src)
    r = runner.invoke(main, ["evolve", "--input", src, "--lattice-depth",
                             "10", "--fock-dim", "44"])
    assert r.exit_code == 1
    r = runner.invoke(main, ["evolve", "--input", src, "--lattice-depth",
                             "10", "--fock-dim", "44", "--rescale-input",
                             "--out", str(tmp_path / "o.csv")])
    assert r.exit_code == 0, r.output


def test_evolve_missing_input_is_io_error(runner, tmp_path):
    r = runner.invoke(main, ["evolve", "--input",
                             str(tmp_path / "absent.csv")])
    assert r.exit_code == 3


def test_evolve_window_mismatch(runner, tmp_path):
    ctx = DeformationContext(q=0.5, lattice_depth=10, fock_dim=44)
    src = str(tmp_path / "in.csv")
    write_lattice_function(rescaled_mode(0, ctx), ctx, src)
    r = runner.invoke(main, ["evolve", "--input", src,
                             "--lattice-depth", "12"])
    assert r.exit_code == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_rejects_input_written_at_another_q(runner, tmp_path, fmt):
    ctx = DeformationContext(q=0.8, lattice_depth=10, fock_dim=44)
    src = str(tmp_path / f"in.{fmt}")
    write_lattice_function(rescaled_mode(1, ctx), ctx, src)
    args = ["evolve", "--input", src, "--lattice-depth", "10", "--fock-dim",
            "44", "--out", str(tmp_path / "o.csv")]
    r = runner.invoke(main, [*args, "--q", "0.5"])
    assert r.exit_code == 1
    assert "q=0.8" in r.output
    assert runner.invoke(main, [*args, "--q", "0.8"]).exit_code == 0


def test_config_file_and_flag_precedence(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 0.3\nfock_dim = 24\n")
    out = str(tmp_path / "s.json")
    r = runner.invoke(main, ["spectrum", "--config", str(cfg), "--format",
                             "json", "--out", out])
    assert r.exit_code == 0
    assert json.load(open(out))["q"] == 0.3
    # explicit flag beats the file
    r = runner.invoke(main, ["spectrum", "--config", str(cfg), "--q", "0.5",
                             "--format", "json", "--out", out])
    assert r.exit_code == 0
    assert json.load(open(out))["q"] == 0.5


def test_config_json_variant(runner, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"q": 0.3, "fock_dim": 24}))
    out = str(tmp_path / "s.json")
    r = runner.invoke(main, ["spectrum", "--config", str(cfg), "--format",
                             "json", "--out", out])
    assert r.exit_code == 0
    assert json.load(open(out))["q"] == 0.3


@pytest.mark.parametrize("entry", [
    {"fock_dim": 64.7}, {"fock_dim": 24.0}, {"lattice_depth": True},
    {"seed": False}, {"q": True}, {"tail_tol": False},
], ids=["float-fock-dim", "integral-float-fock-dim", "boolean-depth",
        "boolean-seed", "boolean-q", "boolean-tail-tol"])
def test_config_json_rejects_what_key_value_text_rejects(runner, tmp_path,
                                                          entry):
    # a JSON true is no number and a JSON float no count, as in the
    # key=value form, where "fock_dim = 64.7" fails to parse
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"q": 0.3, **entry}))
    r = runner.invoke(main, ["spectrum", "--config", str(cfg), "--out",
                             str(tmp_path / "s.csv")])
    assert r.exit_code == 1 and "bad value" in r.output, r.output
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("text, error", [
    ('{"q": 0.3,}', "not valid JSON"), ('  {"q": 0.3} []', "not valid JSON"),
    ("q = 0.3\nfock_dim 24\n", "line 2: expected key=value"),
    ("[0.3]\n", "line 1: expected key=value"),
], ids=["json-trailing-comma", "json-extra-data", "line-without-equals",
        "json-array"])
def test_config_that_does_not_parse_exits_1(runner, tmp_path, text, error):
    # a file that starts with '{' is JSON, and JSON that starts with '{' is
    # an object; any other file is key=value lines
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    r = runner.invoke(main, ["spectrum", "--config", str(cfg), "--out",
                             str(tmp_path / "s.csv")])
    assert r.exit_code == 1 and error in r.output, r.output


def test_config_unknown_key(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("qq = 0.5\n")
    r = runner.invoke(main, ["spectrum", "--config", str(cfg)])
    assert r.exit_code == 1


def test_verify_config_reads_only_the_seed(runner, tmp_path, monkeypatch):
    # verify computes at its own q values; the config's q is not checked
    seen = []
    monkeypatch.setattr(qosc.cli, "run_verification", lambda seed, **kw: (
        seen.append(seed) or qosc.VerifyReport(True, seed, (), 0.0, [])))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 2\nseed = 7\n")
    r = runner.invoke(main, ["verify", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    assert seen == [7]
    r = runner.invoke(main, ["spectrum", "--config", str(cfg)])
    assert r.exit_code == 1 and "q must be a float" in r.output


@pytest.mark.parametrize("q", ["0.998", "0.999"])
def test_kernel_with_weights_outside_double_range_fails(runner, tmp_path, q):
    out = tmp_path / "k.csv"
    r = runner.invoke(main, ["kernel", "--q", q, "--out", str(out)])
    assert r.exit_code == 1
    assert "outside double range" in r.output
    assert not out.exists()


def test_invalid_q_is_validation_error(runner):
    r = runner.invoke(main, ["spectrum", "--q", "1.7"])
    assert r.exit_code == 1


def test_outputs_byte_identical_across_runs(runner, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for out in (a, b):
        r = runner.invoke(main, ["kernel", "--tau", "0.9", "--lattice-depth",
                                 "8", "--fock-dim", "40", "--out", out])
        assert r.exit_code == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_verify_battery_passes(runner, tmp_path):
    out = str(tmp_path / "report.csv")
    r = runner.invoke(main, ["verify", "--out", out])
    assert r.exit_code == 0, r.output[-2000:]
    lines = [ln for ln in r.output.splitlines() if ln.startswith("PASS ")]
    assert len(lines) >= 21  # >= 20 named checks plus the overall line
    assert "overall" in r.output.splitlines()[-1]
    assert os.path.exists(out)


def test_verify_corrupt_coupling_fails(runner):
    r = runner.invoke(main, ["verify", "--corrupt-coupling"])
    assert r.exit_code == 2
    assert "FAIL" in r.output


@pytest.mark.parametrize("command, flag", [
    ("hermite", "--tol"), ("hermite", "--match-tol"), ("hermite", "--seed"),
    ("spectrum", "--tol"), ("spectrum", "--seed"), ("kernel", "--seed"),
    ("evolve", "--seed"), ("verify", "--q"), ("verify", "--fock-dim"),
    ("verify", "--lattice-depth"), ("verify", "--tol"),
    ("verify", "--match-tol"),
])
def test_unread_flag_is_usage_error(runner, command, flag):
    # each command takes only the options it reads
    r = runner.invoke(main, [command, flag, "1"])
    assert r.exit_code == 2
    assert "No such option" in r.output and flag in r.output


@pytest.mark.parametrize("args", [
    ["--grid", "0:nan:0.1"], ["--grid", "nan:1:0.1"], ["--grid", "0:1:nan"],
    ["--grid", "0:inf:1"], ["--grid", "-1e308:1e308:1e-300"],
    ["--grid", "0:1:1e-9"],
    ["--family", "hermite", "--fock-dim", "2", "--lattice-depth", "600000"],
], ids=["nan-stop", "nan-start", "nan-step", "inf-stop", "overflow-count",
        "oversized-grid", "oversized-lattice"])
def test_hermite_table_edges_are_validation_errors(runner, args):
    r = runner.invoke(main, ["hermite", *args])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit), r.exception
    assert r.output.startswith("error:")


def test_hermite_json_evaluates_each_value_once(runner, tmp_path, monkeypatch):
    calls = []

    def counting(family, n, x, ctx):  # one pass yields degrees 0..n
        calls.extend((k, v) for k in range(n + 1) for v in np.atleast_1d(x))
        return forward_rows(family, n, x, ctx)

    monkeypatch.setattr("qosc.cli.forward_rows", counting)
    out = str(tmp_path / "h.json")
    r = runner.invoke(main, ["hermite", "--family", "hermite", "--n-max", "2",
                             "--grid", "0.0:1.0:0.5", "--format", "json",
                             "--out", out])
    assert r.exit_code == 0, r.output
    assert len(json.load(open(out))["rows"]) == len(set(calls)) == len(calls) == 9
