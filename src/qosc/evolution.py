"""Fractional Fourier evolution on the lattice window.

The evolution kernel at angle tau is

    K^tau(x, x') = c_{s(x')} e^{i tau/2} sum_n p_n(x) p_n(x') e^{i n tau}

with the normalized weight on the summed (column) index, so that
K^0 acts as the identity. The rescaled variant strips the ground phase
and moves to F = sqrt(w) f values:

    Phi^tau(x, x') = sqrt(w(x) / w(x')) c_{s(x')} sum_n p_n p_n e^{i n tau}

Phi^tau diagonalizes the rescaled modes F_n = sqrt(w) p_n with eigenvalue
e^{i n tau}; evolve() is a plain matrix product against rescaled values.

Only the phases e^{i n tau} depend on tau. Everything else (the position
mode table, c, sqrt(w), the completeness tail and s_match) is built once
per context by _plan and cached for the few most recent contexts, so
repeated tau on one context pay for two real matrix products each.
s_match comes from spectrum_report, which computes eigenvalues only.

Window truncation matters for every identity at tau != 0: the modes do
not decay along the lattice, so a kernel built on the output window alone
truncates its input side. The *_residual helpers therefore evaluate on a
deepened window (buffer_levels extra, fock_dim grown to cover it) and
compare only the requested core rows. Identity, unitarity and 2*pi
periodicity need no buffer and are checked directly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .context import DeformationContext
from .errors import (AlreadyRescaled, DimensionMismatch, KindMismatch,
                     NotRescaled, ValidationError)
from .fock import build_P, build_Q, spectrum_report
from .hilbert import LatticeFunction
from .qhermite import (_weight_prefactor, build_mode_table,
                       completeness_defect, lattice_weight_window,
                       norm_c_window, window_values)

_VARIANTS = ("raw_K", "rescaled_Phi")


@dataclass(frozen=True)
class EvolutionKernel:
    """Dense kernel over the interleaved window.

    tail_estimate is the bilinear completeness defect of the mode table
    the kernel was summed from (how far sum_n c p_n^2 falls short of 1 on
    the worst site). Rows at levels s > s_match - 4 are considered
    low-confidence: the truncated operator no longer resolves those
    levels, and serialized output flags them.
    """

    tau: float
    variant: str
    q: float
    n_max: int
    lattice_depth: int
    matrix: np.ndarray
    tail_estimate: float
    s_match: int

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValidationError(
                f"variant must be one of {_VARIANTS}, got {self.variant!r}")

    def low_confidence(self, s: int) -> bool:
        return s > self.s_match - 4


@dataclass(frozen=True)
class _Plan:
    """The tau-independent part of both kernels on one window.

    modes[n, i] = p_n at window site i (the position mode table A); c and
    sqrt_w are per site. The arrays are read-only because one plan is
    shared by every caller with an equal context.
    """

    modes: np.ndarray
    c: np.ndarray
    sqrt_w: np.ndarray
    tail_estimate: float
    s_match: int


@lru_cache(maxsize=4)
def _plan(ctx: DeformationContext) -> _Plan:
    table = build_mode_table("position", ctx)
    c = norm_c_window(ctx)
    sqrt_w = np.sqrt(lattice_weight_window(ctx))
    for a in (table.values, c, sqrt_w):
        a.flags.writeable = False
    return _Plan(modes=table.values, c=c, sqrt_w=sqrt_w,
                 tail_estimate=completeness_defect(table, ctx),
                 s_match=spectrum_report(build_Q(ctx), ctx).s_match)


def _bilinear(tau: float, plan: _Plan) -> np.ndarray:
    """A^T diag(e^{i n tau}) A, as two real products for its two parts."""
    A = plan.modes
    phases = np.exp(1j * tau * np.arange(A.shape[0]))
    G = np.empty((A.shape[1], A.shape[1]), dtype=complex)
    G.real = A.T @ (phases.real[:, None] * A)
    G.imag = A.T @ (phases.imag[:, None] * A)
    return G


def _kernel(tau: float, variant: str, matrix: np.ndarray,
            ctx: DeformationContext, plan: _Plan) -> EvolutionKernel:
    return EvolutionKernel(tau=float(tau), variant=variant, q=ctx.q,
                           n_max=ctx.fock_dim, lattice_depth=ctx.lattice_depth,
                           matrix=matrix, tail_estimate=plan.tail_estimate,
                           s_match=plan.s_match)


def kernel_K(tau: float, ctx: DeformationContext) -> EvolutionKernel:
    """Raw kernel, ground phase included."""
    plan = _plan(ctx)
    matrix = cmath.exp(1j * tau / 2.0) * _bilinear(tau, plan) * plan.c[None, :]
    return _kernel(tau, "raw_K", matrix, ctx, plan)


def fractional_ft(tau: float, ctx: DeformationContext) -> EvolutionKernel:
    """Rescaled kernel Phi^tau acting on sqrt(w)-rescaled values."""
    plan = _plan(ctx)
    sw = plan.sqrt_w
    matrix = (sw[:, None] / sw[None, :]) * _bilinear(tau, plan) * plan.c[None, :]
    return _kernel(tau, "rescaled_Phi", matrix, ctx, plan)


def rescale(f: LatticeFunction, ctx: DeformationContext) -> LatticeFunction:
    """Multiply by sqrt(w(x)); evolution and standard_inner want this form."""
    if f.rescaled:
        raise AlreadyRescaled("values already carry the sqrt(w) factor")
    if f.values.shape[0] != 2 * ctx.lattice_depth:
        raise DimensionMismatch(
            f"function has {f.values.shape[0]} sites, window wants "
            f"{2 * ctx.lattice_depth}")
    sw = np.sqrt(lattice_weight_window(ctx))
    return LatticeFunction(f.kind, sw * f.values, rescaled=True)


def unrescale(F: LatticeFunction, ctx: DeformationContext) -> LatticeFunction:
    """Inverse of rescale; the weights are strictly positive."""
    if not F.rescaled:
        raise NotRescaled("values do not carry the sqrt(w) factor")
    if F.values.shape[0] != 2 * ctx.lattice_depth:
        raise DimensionMismatch(
            f"function has {F.values.shape[0]} sites, window wants "
            f"{2 * ctx.lattice_depth}")
    sw = np.sqrt(lattice_weight_window(ctx))
    return LatticeFunction(F.kind, F.values / sw, rescaled=False)


def rescaled_mode(n: int, ctx: DeformationContext) -> LatticeFunction:
    """F_n = sqrt(w) p_n, the eigenfunction of Phi^tau with value e^{in tau}."""
    plan = _plan(ctx)
    return LatticeFunction("position", plan.sqrt_w * plan.modes[n],
                           rescaled=True)


def evolve(F: LatticeFunction, tau: float, ctx: DeformationContext,
           kernel: EvolutionKernel | None = None) -> LatticeFunction:
    """Apply Phi^tau to a rescaled position function."""
    if F.kind != "position":
        raise KindMismatch(f"evolve wants a position function, got {F.kind}")
    if not F.rescaled:
        raise NotRescaled("evolve acts on rescaled values; call rescale first")
    if F.values.shape[0] != 2 * ctx.lattice_depth:
        raise DimensionMismatch(
            f"function has {F.values.shape[0]} sites, window wants "
            f"{2 * ctx.lattice_depth}")
    if kernel is None:
        kernel = fractional_ft(tau, ctx)
    if kernel.variant != "rescaled_Phi":
        raise KindMismatch("evolve needs the rescaled_Phi kernel variant")
    if kernel.matrix.shape[0] != F.values.shape[0]:
        raise DimensionMismatch(
            f"kernel window {kernel.matrix.shape[0]} does not match "
            f"function window {F.values.shape[0]}")
    return LatticeFunction("position", kernel.matrix @ F.values, rescaled=True)


def standard_inner(F1: LatticeFunction, F2: LatticeFunction,
                   ctx: DeformationContext) -> complex:
    """<F1, F2> = sum_x |x| F1(x) conj(F2(x)) / ((q^2;q^2)_inf (-1;q)_inf).

    Defined on rescaled values; equals the bare-function window inner
    product because |x| w(x) over the prefactor reproduces the c weights.
    Signs are paired before accumulation.
    """
    for F in (F1, F2):
        if not F.rescaled:
            raise NotRescaled("standard_inner is defined on rescaled values")
        if F.values.shape[0] != 2 * ctx.lattice_depth:
            raise DimensionMismatch(
                f"function has {F.values.shape[0]} sites, window wants "
                f"{2 * ctx.lattice_depth}")
    if F1.kind != F2.kind:
        raise KindMismatch(f"kinds differ: {F1.kind} vs {F2.kind}")
    absx = np.abs(window_values(ctx))
    prod = absx * F1.values * np.conj(F2.values)
    paired = prod[0::2] + prod[1::2]
    return complex(np.sum(paired)) / _weight_prefactor(ctx)


def heisenberg_rotation_check(tau: float, ctx: DeformationContext) -> float:
    """Max interior defect of e^{i tau H} Q e^{-i tau H} = cos(tau) Q + sin(tau) P.

    The identity is entrywise on the tridiagonals, so this is a pure
    roundoff figure; the outermost two rows and columns are excluded to
    keep the contract aligned with the commutator checks.
    """
    n = np.arange(ctx.fock_dim, dtype=float)
    u = np.exp(1j * tau * (n + 0.5))
    Q = build_Q(ctx).to_dense().astype(complex)
    P = build_P(ctx).to_dense()
    rotated = u[:, None] * Q * np.conj(u)[None, :]
    target = math.cos(tau) * Q + math.sin(tau) * P
    d = ctx.fock_dim - 2
    if d <= 0:
        return float(np.max(np.abs(rotated - target)))
    return float(np.max(np.abs((rotated - target)[:d, :d])))


def unitarity_residual(kernel: EvolutionKernel,
                       ctx: DeformationContext) -> tuple[float, float]:
    """(max |Phi^dag M Phi - M|, lattice tail bound) for the Gram M of
    standard_inner. The bound 1e3 * max(q^S / (1 - q), machine eps) is
    what window truncation alone can account for."""
    if kernel.variant != "rescaled_Phi":
        raise KindMismatch("unitarity is a statement about rescaled_Phi")
    absx = np.abs(window_values(ctx)) / _weight_prefactor(ctx)
    A = kernel.matrix.conj().T @ (absx[:, None] * kernel.matrix)
    resid = float(np.max(np.abs(A - np.diag(absx))))
    bound = 1e3 * max(ctx.q**ctx.lattice_depth / (1.0 - ctx.q),
                      np.finfo(float).eps)
    return resid, bound


def _deepened(ctx: DeformationContext, buffer_levels: int) -> DeformationContext:
    s_eval = ctx.lattice_depth + buffer_levels
    return replace(ctx, lattice_depth=s_eval, fock_dim=2 * s_eval + 24)


def identity_residual(ctx: DeformationContext) -> float:
    """max |Phi^0 - I| over the full window, no buffering."""
    k = fractional_ft(0.0, ctx)
    return float(np.max(np.abs(k.matrix - np.eye(2 * ctx.lattice_depth))))


def periodicity_residual(tau: float, ctx: DeformationContext) -> float:
    """max |Phi^{tau + 2 pi} - Phi^tau|; exact up to phase roundoff."""
    a = fractional_ft(tau, ctx)
    b = fractional_ft(tau + 2.0 * math.pi, ctx)
    return float(np.max(np.abs(a.matrix - b.matrix)))


def kernel_sign_flip_residual(ctx: DeformationContext) -> float:
    """max |K^{2 pi} + K^0|: the raw kernel picks up the ground phase -1."""
    a = kernel_K(0.0, ctx)
    b = kernel_K(2.0 * math.pi, ctx)
    return float(np.max(np.abs(b.matrix + a.matrix)))


def group_law_residual(t1: float, t2: float, ctx: DeformationContext,
                       buffer_levels: int = 30) -> float:
    """max core defect of Phi^{t1} Phi^{t2} = Phi^{t1 + t2}.

    Composition feeds intermediate values from the whole lattice back
    into the core, so both factors are built on a window deepened by
    buffer_levels and only the leading 2S rows and columns are compared.
    """
    deep = _deepened(ctx, buffer_levels)
    k1 = fractional_ft(t1, deep).matrix
    k2 = fractional_ft(t2, deep).matrix
    k12 = fractional_ft(t1 + t2, deep).matrix
    core = 2 * ctx.lattice_depth
    return float(np.max(np.abs((k1 @ k2 - k12)[:core, :core])))


def inverse_residual(tau: float, ctx: DeformationContext,
                     buffer_levels: int = 30) -> float:
    """max core defect of Phi^tau Phi^{-tau} = I."""
    deep = _deepened(ctx, buffer_levels)
    k1 = fractional_ft(tau, deep).matrix
    k2 = fractional_ft(-tau, deep).matrix
    core = 2 * ctx.lattice_depth
    prod = (k1 @ k2)[:core, :core]
    return float(np.max(np.abs(prod - np.eye(core))))


def phase_map_residual(ctx: DeformationContext, n_modes: int = 20,
                       buffer_levels: int = 40) -> float:
    """Worst core defect of Phi^{pi/2} F_n = i^n F_n for n <= n_modes."""
    deep = _deepened(ctx, buffer_levels)
    k = fractional_ft(math.pi / 2.0, deep).matrix
    plan = _plan(deep)
    core = 2 * ctx.lattice_depth
    worst = 0.0
    for n in range(n_modes + 1):
        F = plan.sqrt_w * plan.modes[n]
        d = (k @ F - 1j**n * F)[:core]
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


def intertwine_residual(ctx: DeformationContext, n_support: int = 12,
                        buffer_levels: int = 40, seed: int = 0) -> float:
    """Core defect of: evolving a state's rescaled position function by
    pi/2 equals its rescaled momentum function (i^n p_n on the same grid).

    Draws a random state supported on modes n < n_support.
    """
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n_support) + 1j * rng.standard_normal(n_support)
    deep = _deepened(ctx, buffer_levels)
    plan = _plan(deep)
    F_pos = plan.sqrt_w * (b @ plan.modes[:n_support])
    evolved = fractional_ft(math.pi / 2.0, deep).matrix @ F_pos
    phases = 1j ** np.arange(n_support)
    F_mom = plan.sqrt_w * ((b * phases) @ plan.modes[:n_support])
    core = 2 * ctx.lattice_depth
    return float(np.max(np.abs((evolved - F_mom)[:core])))


def norm_drift_max(ctx: DeformationContext, n_support: int = 10,
                   n_draws: int = 100, seed: int = 0) -> float:
    """Largest relative drift of standard_inner under evolve at this
    exact window, over seeded random states.

    The draws live on modes n < n_support: that is the band a window of
    this depth resolves (wider support provably cannot stay below 1e-7
    on a 30-level window, whatever the implementation does).
    """
    rng = np.random.default_rng(seed)
    kernel = fractional_ft(1.0, ctx)
    plan = _plan(ctx)
    absx = np.abs(window_values(ctx))
    worst = 0.0
    for _ in range(n_draws):
        b = rng.standard_normal(n_support) + 1j * rng.standard_normal(n_support)
        F = plan.sqrt_w * (b @ plan.modes[:n_support])
        G = kernel.matrix @ F
        n0 = float(np.sum(absx * np.abs(F) ** 2))
        n1 = float(np.sum(absx * np.abs(G) ** 2))
        worst = max(worst, abs(n1 - n0) / n0)
    return worst
