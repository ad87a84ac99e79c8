"""Command line interface.

Exit codes: 0 success, 1 invalid input or configuration, 2 a verification
or matching requirement failed, 3 I/O failure. Data outputs are
byte-identical across runs for a fixed configuration and seed; the verify
report is the one exception, since it embeds wall-clock timings.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys

import click
import numpy as np

from .context import DeformationContext
from .errors import DomainError, QoscError, ValidationError
from .evolution import evolve, fractional_ft, kernel_K, rescale
from .fock import build_Q, spectrum_report
from .qhermite import build_mode_table, forward_rows, lattice_window
from .serialize import (load_lattice_function, write_kernel,
                        write_lattice_function, write_mode_table,
                        write_polynomial_table, write_spectrum_report,
                        write_verify_report)
from .verify import run_verification

# The CLI's own default is q; the rest are DeformationContext's.
_DEFAULTS = {"q": 0.5, **{f.name: f.default
                          for f in dataclasses.fields(DeformationContext)
                          if f.default is not dataclasses.MISSING}}

_CONFIG_KEYS = set(_DEFAULTS) | {"seed"}

# Largest table `hermite --grid` or `hermite --family hermite` may write.
MAX_TABLE_ROWS = 1_000_000

# Largest working set `spectrum`, `kernel`, `evolve` or the mode table of
# `hermite` may ask for, in bytes. Each command's is estimated from its
# arrays before any is formed (_check_size): the complex 2S x 2S kernel
# (16 (2S)^2; kernel only), the real N x S half table of the modes (8 N S;
# all but spectrum) and the N x 2S table written from it (16 N S; hermite
# only), the bidiagonal half of Q's largest block and its copy (spectrum
# only), and ENTRY_BYTES per level and per eigenvalue for the vectors,
# Python floats and file rows of the window, the spectrum report and the
# artifact readers (evolve holds about 0.9 KB per level at S = 200000).
MAX_WORK_BYTES = 4 * 2**30
ENTRY_BYTES = 1024


def _parse_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {path!r} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ValidationError(f"config {path!r} must hold an object")
    else:
        raw = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(
                    f"config {path!r} line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    out = {}
    for key, value in raw.items():
        if key not in _CONFIG_KEYS:
            raise ValidationError(f"config {path!r}: unknown key {key!r}")
        try:
            out[key] = int(value) if key in ("fock_dim", "lattice_depth",
                                             "seed") else float(value)
        except (TypeError, ValueError):
            raise ValidationError(
                f"config {path!r}: bad value for {key}: {value!r}")
    return out


def _settings(config, **flags) -> dict:
    """Defaults, then config file, then explicit flags."""
    merged = {**_DEFAULTS, "seed": 0}
    if config is not None:
        merged.update(_parse_config_file(config))
    merged.update((k, v) for k, v in flags.items() if v is not None)
    return merged


def _resolve(config, **flags) -> DeformationContext:
    """The context of a command that computes; a config seed is unused."""
    merged = _settings(config, **flags)
    del merged["seed"]
    return DeformationContext(**merged)


def _check_size(ctx: DeformationContext, matrix_bytes: int) -> None:
    """ValidationError, before anything is allocated, when matrix_bytes
    plus ENTRY_BYTES per level and per eigenvalue would pass
    MAX_WORK_BYTES."""
    nbytes = matrix_bytes + ENTRY_BYTES * (ctx.fock_dim + ctx.lattice_depth)
    if nbytes > MAX_WORK_BYTES:
        raise ValidationError(
            f"fock_dim={ctx.fock_dim}, lattice_depth={ctx.lattice_depth} "
            f"would need about {nbytes:.3g} bytes, over the "
            f"{MAX_WORK_BYTES:.3g}-byte cap; lower --fock-dim or "
            f"--lattice-depth")


def _spectrum_bytes(ctx: DeformationContext) -> int:
    """16 ceil(m/2) floor(m/2): the largest block's bidiagonal half and
    numpy's copy of it. Q splits where a_n underflows to 0, from
    q^n < 2^-1075 on, so no block has more than m = min(N, that n + 1)."""
    m = min(ctx.fock_dim, math.ceil(1075 * math.log(2) / -math.log(ctx.q)) + 1)
    return 16 * ((m + 1) // 2) * (m // 2)


# The context options default to None, so that _settings can tell an
# explicit flag from a config value; their real default is _DEFAULTS.
_OPTIONS = {
    name: click.option(flag, name, type=type(_DEFAULTS[name]), default=None,
                       help=f"{text} [default: {_DEFAULTS[name]}]")
    for name, flag, text in (
        ("q", "--q", "Deformation parameter in (0, 1)."),
        ("fock_dim", "--fock-dim", "Truncation dimension N."),
        ("lattice_depth", "--lattice-depth", "Lattice levels per sign S."),
        ("tail_tol", "--tol", "Infinite-product tail tolerance."),
        ("match_tol", "--match-tol", "Spectrum matching tolerance."))
}
_OPTIONS.update({
    "fmt": click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                        default="csv", show_default=True),
    "out": click.option("--out", type=click.Path(dir_okay=False), default=None,
                        help="Output path; a per-command default is used if omitted."),
    "seed": click.option("--seed", type=int, default=None,
                         help="Seed for randomized checks. [default: 0]"),
    "config": click.option("--config", type=click.Path(dir_okay=False), default=None,
                           help="JSON or key=value file; explicit flags win."),
})


def options(*names):
    """The named shared options, in the order given; a command takes only
    the ones it reads."""
    def decorate(fn):
        for name in reversed(names):
            fn = _OPTIONS[name](fn)
        return fn
    return decorate


def guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except QoscError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        except OSError as exc:
            click.echo(f"io error: {exc}", err=True)
            sys.exit(3)
    return wrapper


@click.group()
def main():
    """Numerics for a q-deformed oscillator on the lattice {+-q^s}."""


@main.command()
@options("q", "fock_dim", "lattice_depth", "fmt", "out", "config")
@click.option("--n-max", type=int, default=None,
              help="Highest degree to tabulate; defaults to fock_dim - 1.")
@click.option("--grid", type=str, default=None,
              help="Evaluate on start:stop:step instead of the lattice.")
@click.option("--family", type=click.Choice(["orthonormal", "hermite"]),
              default="orthonormal", show_default=True)
@guarded
def hermite(fmt, out, config, n_max, grid, family, **flags):
    """Tabulate wavefunction polynomials on the lattice or a grid."""
    ctx = _resolve(config, **flags)
    top = ctx.fock_dim - 1 if n_max is None else n_max
    if not 0 <= top < ctx.fock_dim:
        raise ValidationError(
            f"--n-max must lie in [0, {ctx.fock_dim}), got {n_max}")

    if grid is None and family == "orthonormal":
        _check_size(ctx, 24 * ctx.fock_dim * ctx.lattice_depth)
        path = out or f"modes.{fmt}"
        table = build_mode_table("position", ctx)
        if top < ctx.fock_dim - 1:
            table = dataclasses.replace(table, fock_dim=top + 1,
                                        values=table.values[: top + 1],
                                        tail_start=np.minimum(table.tail_start,
                                                              top + 1))
        write_mode_table(table, path, fmt)
        click.echo(path)
        return

    if grid is None:
        count = 2 * ctx.lattice_depth
    else:
        try:
            start, stop, step = (float(p) for p in grid.split(":"))
        except ValueError:
            raise ValidationError(
                f"--grid expects start:stop:step, got {grid!r}")
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValidationError(f"--grid needs finite numbers, got {grid!r}")
        if step <= 0 or stop < start:
            raise ValidationError(f"--grid range is empty: {grid!r}")
        count = int(min((stop - start) / step + 1e-9, MAX_TABLE_ROWS)) + 1
    if (top + 1) * count > MAX_TABLE_ROWS:
        raise ValidationError(
            f"the table would exceed {MAX_TABLE_ROWS} rows; lower --n-max, "
            f"the grid size or --lattice-depth")
    if grid is None:
        sites = [(p.sign, p.s, p.value) for p in lattice_window(ctx)]
    else:
        sites = [("", "", start + k * step) for k in range(count)]
    xs = np.array([x for _, _, x in sites])

    with np.errstate(all="ignore"):  # non-finite values are reported below
        vals = forward_rows(family, top, xs, ctx)
    if not np.isfinite(vals).all():
        n, i = np.argwhere(~np.isfinite(vals))[0]
        raise DomainError(f"degree {n} is not finite at x = {float(xs[i])!r} "
                          f"at q={ctx.q}; lower --n-max or --fock-dim")
    path = out or f"hermite.{fmt}"
    write_polynomial_table(sites, vals, family, ctx.q, path, fmt)
    click.echo(path)


@main.command()
@options("q", "fock_dim", "lattice_depth", "match_tol", "fmt", "out", "config")
@click.option("--require-s", type=int, default=0, show_default=True,
              help="Fail (exit 2) unless the matched prefix reaches this depth.")
@guarded
def spectrum(fmt, out, config, require_s, **flags):
    """Diagonalize the position operator and match levels to +-q^s."""
    ctx = _resolve(config, **flags)
    _check_size(ctx, _spectrum_bytes(ctx))
    rep = spectrum_report(build_Q(ctx), ctx)
    path = out or f"spectrum.{fmt}"
    write_spectrum_report(rep, path, fmt)
    click.echo(f"{path} s_match={rep.s_match} max_error={rep.max_error:.3e}")
    if rep.s_match < require_s:
        click.echo(f"matched prefix {rep.s_match} < required {require_s}",
                   err=True)
        sys.exit(2)


@main.command()
@options("q", "fock_dim", "lattice_depth", "tail_tol", "match_tol", "fmt",
         "out", "config")
@click.option("--tau", type=float, default=math.pi / 2, show_default="pi/2",
              help="Evolution angle.")
@click.option("--variant", type=click.Choice(["rescaled", "raw"]),
              default="rescaled", show_default=True)
@guarded
def kernel(fmt, out, config, tau, variant, **flags):
    """Write the finite-time evolution kernel on the lattice window."""
    ctx = _resolve(config, **flags)
    S = ctx.lattice_depth
    _check_size(ctx, 16 * (2 * S) ** 2 + 8 * ctx.fock_dim * S)
    k = fractional_ft(tau, ctx) if variant == "rescaled" else kernel_K(tau, ctx)
    path = out or f"kernel.{fmt}"
    write_kernel(k, path, fmt)
    click.echo(f"{path} s_match={k.s_match} tail={k.tail_estimate:.3e}")


@main.command(name="evolve")
@options("q", "fock_dim", "lattice_depth", "tail_tol", "match_tol", "fmt",
         "out", "config")
@click.option("--input", "input_path", type=click.Path(dir_okay=False),
              required=True, help="Lattice function to evolve.")
@click.option("--tau", type=float, default=math.pi / 2, show_default="pi/2")
@click.option("--rescale-input", is_flag=True,
              help="Apply the sqrt-weight rescaling to the input first.")
@guarded
def evolve_cmd(fmt, out, config, input_path, tau, rescale_input, **flags):
    """Evolve a rescaled position-realization function by angle tau."""
    ctx = _resolve(config, **flags)
    _check_size(ctx, 8 * ctx.fock_dim * ctx.lattice_depth)  # matrix-free
    f = load_lattice_function(input_path, ctx=ctx)
    if rescale_input and not f.rescaled:
        f = rescale(f, ctx)
    result = evolve(f, tau, ctx)
    path = out or f"evolved.{fmt}"
    write_lattice_function(result, ctx, path, fmt)
    click.echo(path)


@main.command()
@options("fmt", "out", "seed", "config")
@click.option("--corrupt-coupling", is_flag=True,
              help="Deliberately break one coupling; the run must then fail.")
@guarded
def verify(fmt, out, seed, config, corrupt_coupling):
    """Run the named verification battery and report per-check results."""
    run_seed = _settings(config, seed=seed)["seed"]
    rep = run_verification(seed=run_seed, corrupt_coupling=corrupt_coupling)
    for c in rep.checks:
        status = "PASS" if c.passed else "FAIL"
        click.echo(f"{status} {c.name:40s} residual={c.residual:.3e} "
                   f"tol={c.tolerance:.1e} ({c.runtime_s:.2f}s)")
    click.echo(f"{'PASS' if rep.overall_pass else 'FAIL'} overall "
               f"{sum(c.passed for c in rep.checks)}/{len(rep.checks)} checks "
               f"in {rep.runtime_s:.1f}s (seed={rep.seed})")
    if out is not None:
        write_verify_report(rep, out, fmt)
    if not rep.overall_pass:
        sys.exit(2)


if __name__ == "__main__":
    main()
