"""Fractional Fourier evolution on the lattice window.

The evolution kernel at angle tau is

    K^tau(x, x') = c_{s(x')} e^{i tau/2} sum_n p_n(x) p_n(x') e^{i n tau}

with the normalized weight on the summed (column) index, so that
K^0 acts as the identity. The rescaled variant strips the ground phase
and moves to F = sqrt(w) f values:

    Phi^tau(x, x') = sqrt(w(x) / w(x')) c_{s(x')} sum_n p_n p_n e^{i n tau}

Phi^tau diagonalizes the rescaled modes F_n = sqrt(w) p_n with eigenvalue
e^{i n tau}.

Only the phases e^{i n tau} depend on tau. qhermite owns the window:
p_n on its +x half, c and sqrt(w) are its cached per-context arrays, and
they are all evolve() reads. Since p_n(-x) = (-1)^n p_n(x), the sum over
n splits into an even part E and an odd part O on the half window: sites
of equal sign get E + O, sites of opposite sign E - O. E and O are
complex symmetric; each is formed a block row of levels at a time from
the degrees before the block's Miller tail cut (_parity_product). _fold
builds each kernel inside its own output (E and O in its upper half, the
phased rows they are summed from in its lower half), then scales and
interleaves E +- O a block of levels at a time from the last block down,
so a fold holds the kernel plus one block of levels.
evolve() applies the same split to a vector in O(N S) without forming
any kernel. Only the kernels report the completeness tail (the largest
qhermite._completeness) and s_match (fock._count_s_match: Sturm counts
on Q), cached per context by _certificate.

Window truncation matters for every identity at tau != 0: the modes do
not decay along the lattice, so a kernel built on the output window alone
truncates its input side. The *_residual helpers therefore evaluate on a
deepened window (30 or 40 levels extra, fock_dim grown to cover it) and
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
from .errors import (AlreadyRescaled, KindMismatch, NoConvergence, NotRescaled,
                     ValidationError)
from .fock import build_P, build_Q, _count_s_match
from .hilbert import LatticeFunction, _check_window
from .qhermite import (_I_POWERS, _completeness, _half_table, _index, _modes,
                       _weights, window_values)

_VARIANTS = ("raw_K", "rescaled_Phi")
# levels per block row of _parity_product: 32, 48 and 64 time within noise
# of each other at S = 128 to 800; one block of 1024 is 15-45% slower
_FOLD_BLOCK = 64
_BELOW = np.tri(_FOLD_BLOCK, k=-1, dtype=bool)  # a diagonal block's mirror
# levels per block of _fold's E +- O assembly: 32 took 1-14% less time
# than 64 at S = 256 to 1600, and 128 is slower still
_FOLD_ROWS = 32


@dataclass(frozen=True)
class EvolutionKernel:
    """Dense kernel over the interleaved window.

    tail_estimate is the bilinear completeness defect of the mode table
    the kernel was summed from (how far sum_n c p_n^2 falls short of 1 on
    the worst site). s_match is the depth through which the truncated Q
    reproduces +-q^s (spectrum_report's s_match, from _count_s_match).
    Both depend on the context alone (_certificate). Rows at levels
    s > s_match - 4 are considered low-confidence: the truncated operator
    no longer resolves those levels, and serialized output flags them.
    An unknown variant, a tau that is not finite, a tail_estimate outside
    [0, 1] or an s_match below -1 raises ValidationError.
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
        _check_tau(self.tau)
        if not 0.0 <= self.tail_estimate <= 1.0 or self.s_match < -1:
            raise ValidationError(
                f"kernel tail_estimate {self.tail_estimate!r} must lie in "
                f"[0, 1] and s_match {self.s_match} be >= -1")

    def low_confidence(self, s):  # s: a level or an integer array of them
        return s > self.s_match - 4


@lru_cache(maxsize=4)
def _certificate(ctx: DeformationContext) -> tuple[float, int]:
    """(tail_estimate, s_match) of every kernel at ctx: the largest
    |_completeness| over the levels, and the Sturm-count s_match."""
    tail = float(np.max(np.abs(_completeness(ctx))))
    return tail, _count_s_match(build_Q(ctx), ctx)


def _parity_product(A: np.ndarray, ph: np.ndarray, tail_start: np.ndarray,
                    p: int, out: np.ndarray, buf: np.ndarray) -> None:
    """Write A^T diag(ph) A into out (S x S complex, its rows may be
    strided) for the parity-p rows A = half[p::2], one block row of levels
    I = [i0, i1) at a time.

    Row j of A is degree 2j + p, exact zero at every level of I from the
    block's largest tail_start t on, so only the first (t - p + 1) // 2
    rows enter block row I. The phased rows ph A that any block reads are
    formed in buf, a flat complex array at least that many rows of S long.
    Block row I's columns from i0 on come from one real product on their
    interleaved (re, im) columns, written straight into out; the product
    is complex symmetric, so the blocks left of the diagonal are the
    transposes of those above it, and each diagonal block mirrors its own
    upper triangle. Any tail_start is correct; a monotone one (the meet
    rule's) is what makes the later block rows cheap.
    """
    S = A.shape[1]
    k = (int(tail_start.max()) - p + 1) // 2
    Z = buf[:k * S].reshape(k, S)
    np.multiply(ph[:k, None], A[:k], out=Z)
    Z = Z.view(float)
    for i0 in range(0, S, _FOLD_BLOCK):
        i1 = min(i0 + _FOLD_BLOCK, S)
        k = (int(tail_start[i0:i1].max()) - p + 1) // 2
        np.matmul(A[:k, i0:i1].T, Z[:k, 2 * i0:],
                  out=out.view(float)[i0:i1, 2 * i0:])
        out[i1:, i0:i1] = out[i0:i1, i1:].T
        D = out[i0:i1, i0:i1]
        np.copyto(D, D.T, where=_BELOW[:i1 - i0, :i1 - i0])


def _fold(tau: float, ctx: DeformationContext, scale) -> np.ndarray:
    """scale * A^T diag(e^{i n tau}) A on the interleaved window, by parity.

    E and O are the sums over even and odd n on the half table, each
    complex symmetric; sites of equal sign get E + O, opposite signs
    E - O. scale(w, rows) gives the rows of the level-pair factor, shared
    by all four blocks; it stays the left operand: for a complex scale,
    E + O times scale differs from scale times E + O in the last bit.

    The result G is allocated first and the large work runs inside it.
    _parity_product forms E in G[:S, :S] and O in G[:S, S:] from phased
    rows held in G's lower half G[S:] (2 S^2 entries; a window whose
    (max(tail_start) + 1) // 2 phased rows of S do not fit there gets an
    array of its own). The scaling and stride-2 interleave then run
    _FOLD_ROWS levels at a time from the last block down: block [r0, r1)
    copies its E and O rows (contiguous, so no ufunc buffers a strided
    read) before it writes window rows [2 r0, 2 r1). Those rows hold the
    E and O rows of levels 2 r0 on, all at or past r0, so read by this
    block or by a block of higher levels, which the descending loop has
    already assembled. The fold's working set is its output plus one block.
    """
    half, tail_start = _half_table(ctx)
    w, S = _weights(ctx), half.shape[1]
    phases = np.exp(1j * tau * np.arange(half.shape[0]))
    G = np.empty((2 * S, 2 * S), dtype=complex)
    lower = G[S:].reshape(-1)
    need = (int(tail_start.max()) + 1) // 2 * S
    buf = lower if need <= lower.size else np.empty(need, dtype=complex)
    E, O = G[:S, :S], G[:S, S:]
    for p, out in enumerate((E, O)):
        _parity_product(half[p::2], phases[p::2], tail_start, p, out, buf)
    sites = G.reshape(S, 2, S, 2)  # [level, sign, level, sign]
    for r0 in reversed(range(0, S, _FOLD_ROWS)):
        rows = slice(r0, r0 + _FOLD_ROWS)
        s, e, o = scale(w, rows), E[rows].copy(), O[rows].copy()
        sites[rows, 0, :, 0] = sites[rows, 1, :, 1] = s * (e + o)
        sites[rows, 0, :, 1] = sites[rows, 1, :, 0] = s * (e - o)
    return G


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real A times complex v, as one real product on its (re, im) columns."""
    v = np.ascontiguousarray(v, dtype=complex)
    return (A @ v.view(float).reshape(-1, 2)).view(complex).ravel()


def _apply(tau: float, F: np.ndarray, ctx: DeformationContext) -> np.ndarray:
    """Phi^tau F in O(N S): the parity split of _fold on a vector."""
    half, w = _half_table(ctx)[0], _weights(ctx)
    phases = np.exp(1j * tau * np.arange(half.shape[0]))
    plus = w.c * F[0::2] / w.sqrt_w
    minus = w.c * F[1::2] / w.sqrt_w
    A_e, A_o = half[0::2], half[1::2]
    even = _matvec(A_e.T, phases[0::2] * _matvec(A_e, plus + minus))
    odd = _matvec(A_o.T, phases[1::2] * _matvec(A_o, plus - minus))
    out = np.empty(F.shape[0], dtype=complex)
    out[0::2] = w.sqrt_w * (even + odd)
    out[1::2] = w.sqrt_w * (even - odd)
    return out


def _check_tau(tau: float) -> None:
    if not math.isfinite(tau):
        raise ValidationError(f"tau must be finite, got {tau!r}")


def _kernel(tau: float, variant: str, ctx: DeformationContext,
            scale) -> EvolutionKernel:
    _check_tau(tau)
    tail, s_match = _certificate(ctx)
    return EvolutionKernel(tau=float(tau), variant=variant, q=ctx.q,
                           n_max=ctx.fock_dim, lattice_depth=ctx.lattice_depth,
                           matrix=_fold(tau, ctx, scale),
                           tail_estimate=tail, s_match=s_match)


def kernel_K(tau: float, ctx: DeformationContext) -> EvolutionKernel:
    """Raw kernel, ground phase included."""
    return _kernel(tau, "raw_K", ctx,
                   lambda w, rows: cmath.exp(1j * tau / 2.0) * w.c[None, :])


def fractional_ft(tau: float, ctx: DeformationContext) -> EvolutionKernel:
    """Rescaled kernel Phi^tau acting on sqrt(w)-rescaled values."""
    return _kernel(tau, "rescaled_Phi", ctx, lambda w, rows: (
        w.sqrt_w[rows, None] / w.sqrt_w[None, :]) * w.c[None, :])


def rescale(f: LatticeFunction, ctx: DeformationContext) -> LatticeFunction:
    """Multiply by sqrt(w(x)); evolution and standard_inner want this form."""
    if f.rescaled:
        raise AlreadyRescaled("values already carry the sqrt(w) factor")
    _check_window(f, ctx)
    sw = np.repeat(_weights(ctx).sqrt_w, 2)
    return LatticeFunction(f.kind, sw * f.values, rescaled=True)


def unrescale(F: LatticeFunction, ctx: DeformationContext) -> LatticeFunction:
    """Inverse of rescale; the weights are strictly positive."""
    if not F.rescaled:
        raise NotRescaled("values do not carry the sqrt(w) factor")
    _check_window(F, ctx)
    sw = np.repeat(_weights(ctx).sqrt_w, 2)
    return LatticeFunction(F.kind, F.values / sw, rescaled=False)


def _rescaled_modes(n, ctx: DeformationContext) -> np.ndarray:
    """F_n = sqrt(w) p_n on the window, for a degree n or one per row."""
    return np.repeat(_weights(ctx).sqrt_w, 2) * _modes("position", n, ctx)


def rescaled_mode(n: int, ctx: DeformationContext) -> LatticeFunction:
    """F_n = sqrt(w) p_n, the eigenfunction of Phi^tau with value e^{in tau},
    for 0 <= n < fock_dim (IndexOutOfRange otherwise)."""
    n = _index(n, ctx.fock_dim, "degree")
    return LatticeFunction("position", _rescaled_modes(n, ctx), rescaled=True)


def evolve(F: LatticeFunction, tau: float, ctx: DeformationContext,
           kernel: EvolutionKernel | None = None) -> LatticeFunction:
    """Apply Phi^tau to a rescaled position function, matrix-free.

    Each call costs O(fock_dim * lattice_depth) on qhermite's cached
    window arrays; no kernel is formed. kernel= is accepted from callers
    that already hold fractional_ft(tau, ctx): it must be the
    rescaled_Phi variant (KindMismatch otherwise) built at this tau, q,
    fock_dim and lattice_depth (ValidationError otherwise). Its matrix is
    not applied, so the result is the same with or without it. A tau
    that is not finite raises ValidationError, here and in the kernels.
    """
    if F.kind != "position":
        raise KindMismatch(f"evolve wants a position function, got {F.kind}")
    if not F.rescaled:
        raise NotRescaled("evolve acts on rescaled values; call rescale first")
    _check_tau(tau)
    _check_window(F, ctx)
    if kernel is not None:
        if kernel.variant != "rescaled_Phi":
            raise KindMismatch("evolve needs the rescaled_Phi kernel variant")
        got = (kernel.tau, kernel.q, kernel.n_max, kernel.lattice_depth)
        want = (float(tau), ctx.q, ctx.fock_dim, ctx.lattice_depth)
        if got != want:
            raise ValidationError(
                f"kernel (tau, q, n_max, lattice_depth) = {got} does not "
                f"match the call's {want}")
    return LatticeFunction("position", _apply(tau, F.values, ctx),
                           rescaled=True)


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
        _check_window(F, ctx)
    if F1.kind != F2.kind:
        raise KindMismatch(f"kinds differ: {F1.kind} vs {F2.kind}")
    absx = np.abs(window_values(ctx))
    prod = absx * F1.values * np.conj(F2.values)
    paired = prod[0::2] + prod[1::2]
    return complex(np.sum(paired)) / _weights(ctx).prefactor


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
    absx = np.abs(window_values(ctx)) / _weights(ctx).prefactor
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


def group_law_residual(t1: float, t2: float, ctx: DeformationContext) -> float:
    """max core defect of Phi^{t1} Phi^{t2} = Phi^{t1 + t2}.

    Composition feeds intermediate values from the whole lattice back
    into the core, so both factors are built on a window deepened by 30
    levels and only the leading 2S rows and columns are compared.
    """
    deep = _deepened(ctx, 30)
    k1 = fractional_ft(t1, deep).matrix
    k2 = fractional_ft(t2, deep).matrix
    k12 = fractional_ft(t1 + t2, deep).matrix
    core = 2 * ctx.lattice_depth
    return float(np.max(np.abs((k1 @ k2 - k12)[:core, :core])))


def inverse_residual(tau: float, ctx: DeformationContext) -> float:
    """max core defect of Phi^tau Phi^{-tau} = I, on a window deepened by
    30 levels."""
    deep = _deepened(ctx, 30)
    k1 = fractional_ft(tau, deep).matrix
    k2 = fractional_ft(-tau, deep).matrix
    core = 2 * ctx.lattice_depth
    prod = (k1 @ k2)[:core, :core]
    return float(np.max(np.abs(prod - np.eye(core))))


def _pi2_defect(ctx: DeformationContext, n_modes: int) -> np.ndarray:
    """Rows n < n_modes of Phi^{pi/2} F_n - i^n F_n on the core sites, on a
    window deepened by 40 levels."""
    deep, core = _deepened(ctx, 40), 2 * ctx.lattice_depth
    F = _rescaled_modes(np.arange(n_modes), deep)
    return np.array([_apply(math.pi / 2.0, f, deep)[:core] for f in F]) - (
        _I_POWERS[np.arange(n_modes) % 4, None] * F[:, :core])


def phase_map_residual(ctx: DeformationContext) -> float:
    """Worst core defect of Phi^{pi/2} F_n = i^n F_n for n <= 20, on a
    window deepened by 40 levels."""
    return float(np.max(np.abs(_pi2_defect(ctx, 21))))


def intertwine_residual(ctx: DeformationContext) -> float:
    """Worst core defect of: evolving a state's rescaled position function
    by pi/2 equals its rescaled momentum function (i^n p_n on the same grid),
    over unit states b on modes n < 12: sum_n b_n D[n, x] at site x, for D
    = _pi2_defect, so the largest site column norm of D."""
    return float(np.max(np.linalg.norm(_pi2_defect(ctx, 12), axis=0)))


def norm_drift_max(ctx: DeformationContext) -> float:
    """Sup of the relative drift of standard_inner under evolve by tau = 1
    at this exact window, over every state on modes n < 10: the extremal
    eigenvalue of G1 - G0 relative to G0, the band's Gram matrices before
    and after, from G0's Cholesky factor (NoConvergence if it fails).
    n < 10 is the band a window of 30 levels resolves (wider support
    provably cannot stay below 1e-7 there, whatever the implementation does).
    """
    F0 = _rescaled_modes(np.arange(10), ctx)
    F1 = np.array([_apply(1.0, F, ctx) for F in F0])
    absx = np.abs(window_values(ctx))
    G0, G1 = ((absx * F) @ F.conj().T for F in (F0, F1))
    # G1 - G0 as the real symmetric [[Re, -Im], [Im, Re]], its spectrum twice:
    # complex LAPACK would be the battery's only use of it (0.7 MB more RSS)
    D = G1 - G0
    M = np.block([[D.real, -D.imag], [D.imag, D.real]])
    try:
        L = np.kron(np.eye(2), np.linalg.cholesky(G0))
        left = np.linalg.solve(L, M)  # then the eigenvalues of L^-1 M L^-T
        mu = np.linalg.eigvalsh(np.linalg.solve(L, left.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"band Gram matrix did not factor: {exc}") from exc
    return float(np.max(np.abs(mu)))
