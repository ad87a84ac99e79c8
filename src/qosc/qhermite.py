"""Discrete q-Hermite polynomials on the geometric lattice {+-q^s}.

Two polynomial families appear:

* h_n: the monic-style family with recurrence
      h_{n+1}(z) = z h_n(z) - q^{n-1} (1 - q^n) h_{n-1}(z),
      h_0 = 1, h_1 = z.
* p_n: the orthonormal family with recurrence
      a_n p_{n+1}(x) = x p_n(x) - a_{n-1} p_{n-1}(x),
      a_n = sqrt(q^n (1 - q^{n+1})),
  related by p_n = (q; q)_n^{-1/2} q^{-n(n-1)/4} h_n.

The lattice window interleaves signs: index 2s holds +q^s, index 2s+1
holds -q^s, for s = 0 .. lattice_depth-1. Orthogonality weights:

    w_s    = (q^{2s+2}; q^2)_inf           (bare weight)
    c_s    = q^s w_s / (2 (q;q)_inf (-q;q)_inf^2)   (normalized weight)

so that sum over the window of c_{s(x)} p_k(x) p_m(x) = delta_km up to
the lattice tail.

This module owns the window: window_values defines its abscissas, and two
read-only per-context caches hold the rest. _weights holds every weight
the package reads, from one qpoch_inf product and the exact level ratio.
_half_table holds p_n(+q^s); every window table is its parity mirror
(_modes). The forward recurrence is unstable past the turning point
n > 2s, so each column's decaying tail comes from the backward (Miller)
recurrence from its meet, the first n past the peak of a_n with
2 a_n < |x| (_p_matrix). The meets and Miller's pass, one sweep over all
flagged columns, read only the couplings; the forward pass then forms
each degree only on the columns that keep it. Every entry sees the same
operations as a column run alone. forward_rows runs the plain forward
recurrence over degrees 0..n at any abscissas, for shallow degrees.
_completeness sums the half table's squares per level, in one einsum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .context import DeformationContext, _index, _per_context
from .errors import DimensionMismatch, DomainError, ValidationError
from .qcore import coupling, qpoch, qpoch_inf

TAIL_MARGIN = 4
_KINDS = ("position", "momentum")

# i^n, indexed by n % 4: exact at every degree, where numpy's complex
# power 1j ** n misses by roundoff from n = 100 on
_I_POWERS = np.array([1, 1j, -1, -1j])

# Miller backfill keeps the decaying band down to ~1e-22 of the column
# scale; 50.7 = -ln(1e-22), and the Gaussian decay exponent is
# (n - 2s)^2 ln(1/q) / 4. The backward sweep keeps w = tail_width(q)
# degrees past each column's meet and starts 2w + 8 past it.
_BAND_LOG = 50.7
_SCAN_BLOCK = 1 << 17  # entries: 1 MB per float block at any size


@dataclass(frozen=True)
class LatticePoint:
    """One lattice site. Identity and ordering use (sign, s) only."""

    sign: int
    s: int
    value: float = field(compare=False)

    def __post_init__(self):
        if isinstance(self.sign, bool) or self.sign not in (1, -1):
            raise ValidationError(f"sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "s", _index(self.s, "level", exc=ValidationError))


def lattice_point(sign: int, s: int, ctx: DeformationContext) -> LatticePoint:
    s = _index(s, "level", ctx.lattice_depth)
    return LatticePoint(sign, s, float(sign * ctx.q ** s))  # as in window_values


def window_index(sign, s):
    """Window position of site (sign, s); elementwise on integer arrays."""
    return 2 * s + (sign < 0)


def window_values(ctx: DeformationContext) -> np.ndarray:
    """The abscissas +q^0, -q^0, +q^1, ...; every site's x comes from here.
    Python's q ** s is correctly rounded at nearly every level, where
    numpy's vectorized power misses by one ulp at about one in twenty."""
    levels = np.array([ctx.q ** s for s in range(ctx.lattice_depth)])
    return np.stack([levels, -levels], axis=1).ravel()


def window_levels(ctx: DeformationContext) -> np.ndarray:
    return np.repeat(np.arange(ctx.lattice_depth), 2)


def window_signs(ctx: DeformationContext) -> np.ndarray:
    return np.tile(np.array([1, -1]), ctx.lattice_depth)


def forward_rows(family: str, n: int, z, ctx: DeformationContext) -> np.ndarray:
    """Degrees 0..n at the abscissas z by one forward pass of the
    three-term recurrence: out[k] holds h_k(z) (family "hermite") or the
    orthonormal p_k(z) ("orthonormal"), with z's shape. Each coefficient
    is a Python float formed once per degree, coupling(k, ctx) for p_k, so
    every value has the bits of a pass run for its degree alone.

    Fine for shallow degrees; past the turning point n > 2s the forward
    recurrence loses relative accuracy, use build_mode_table there.
    """
    n = _index(n, "degree")
    if family not in ("hermite", "orthonormal"):
        raise ValidationError(
            f"family must be 'hermite' or 'orthonormal', got {family!r}")
    shape, z = np.shape(z), np.ravel(z)  # rows stay arrays for out=
    out = np.empty((n + 1, z.size), np.result_type(z, 1.0))
    out[0], buf = 1.0, np.empty(z.size, out.dtype)
    if family == "hermite" and n > 0:
        q, out[1] = ctx.q, z
        for k in range(1, n):
            row = np.multiply(z, out[k], out=out[k + 1])
            row -= np.multiply(q ** (k - 1) * (1.0 - q**k), out[k - 1], out=buf)
    elif n > 0:
        a = [coupling(k, ctx) for k in range(n)]
        np.divide(z, a[0], out=out[1])
        for k in range(1, n):
            row = np.multiply(z, out[k], out=out[k + 1])
            row -= np.multiply(a[k - 1], out[k - 1], out=buf)
            row /= a[k]
    return out.reshape((n + 1,) + shape)


def tail_width(q: float) -> int:
    return int(np.ceil(np.sqrt(4.0 * _BAND_LOG / np.log(1.0 / q))))


def _p_matrix(x: np.ndarray, nmax: int, ctx: DeformationContext) -> tuple[np.ndarray, np.ndarray]:
    """p_n at the given points for n < nmax, hybrid forward/backward.

    Returns (values, tail_start) where values[n, c] = p_n(x[c]) and
    tail_start[c] is the first degree stored as exact zero (nmax if the
    column has no flagged tail). Miller's pass starts at each column's meet:
    its first n in [1, nmax - 2] past the peak of a_n with 2 a_n < |x|, found
    from the couplings alone. There p_n is the minimal solution (Gautschi,
    SIAM Rev. 9, 1967). In order: the meets; Miller's pass; the forward
    pass, row n + 1 only on the shortest suffix of columns that keep degree
    n + 1 (to the meet where Miller filled the column, else to nmax - 1);
    the write-back of the Miller band, scaled to p_meet. Miller's exact test
    for values past 1e250 runs only where a bound on their growth, from the
    couplings, is not <= 1e250. Raises DomainError if any value is not
    finite, as on deep windows where the couplings underflow.
    """
    m = x.shape[0]
    a = coupling(np.arange(max(nmax, 2), dtype=float), ctx)
    P = np.zeros((nmax, m))
    P[0] = 1.0
    tail_start = np.full(m, nmax, dtype=int)
    ax, w, buf = np.abs(x), tail_width(ctx.q), np.empty(m)
    keep = np.full(m, nmax - 1)  # the last degree each column reads forward
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the meets, from the couplings alone: the first n in (peak, nmax - 2]
        # with 2 a_n < |x|, by a search of the decreasing a_n past the peak
        peak = int(np.argmax(a[:nmax]))
        lim = -2.0 * a[peak + 1:nmax - 1]
        meet = peak + 1 + np.searchsorted(lim, -ax, side="right")
        meet[meet >= nmax - 1] = -1
        # Miller's backward pass over all flagged columns c at once: row i of
        # v is p_{meet+i} up to a per-column scale, started from v[2w+8] = 1.
        # bound >= max |v| over the two latest rows, as a step grows a column
        # at most (|x| + a_{meet+i}) / a_{meet+i-1} times, plus roundoff
        c = np.flatnonzero(meet >= 0)
        if c.size:
            mc, xc = meet[c], x[c]
            a_all = coupling(np.arange(nmax + 2 * w + 16, dtype=float), ctx)
            ac = a_all[mc + np.arange(2 * w + 9)[:, None]]  # ac[i] = a_{meet+i}
            growth = (((ax[c] + ac[1:]) / ac[:-1]).max(axis=1)
                      * (1 + 1e-15)).tolist()
            v, big = np.zeros((2 * w + 10, c.size)), np.empty(c.size, bool)
            v[-2], cbuf, bound = 1.0, buf[:c.size], 1.0
            for i in range(2 * w + 8, 0, -1):
                row = np.multiply(xc, v[i], out=v[i - 1])
                row -= np.multiply(ac[i], v[i + 1], out=cbuf)
                row /= ac[i - 1]
                bound *= growth[i - 1]
                if not bound <= 1e250:
                    if np.greater(np.abs(row, out=cbuf), 1e250, out=big).any():
                        v[i - 1:, big] /= cbuf[big]
                    bound = max(float(np.abs(v[i - 1:i + 1]).max()), 1.0)  # NaN stays
            del ac  # so that later temporaries do not stack on it
            ok = v[0] != 0.0
            keep[c[ok]] = mc[ok]
        # the forward pass, row n + 1 on the shortest suffix of columns that
        # keeps degree n + 1, up to the deepest degree any column keeps
        P[1:2] = x / a[0]  # empty when nmax == 1, and so is every loop below
        top = int(keep.max())
        lo = np.searchsorted(np.maximum.accumulate(keep), np.arange(2, top + 1))
        for n, j in zip(range(1, top), lo.tolist()):  # in place
            row = np.multiply(x[j:], P[n, j:], out=P[n + 1, j:])
            row -= np.multiply(a[n - 1], P[n - 1, j:], out=buf[j:])
            row /= a[n]
        if c.size:
            rows = mc + np.arange(1, w + 1)[:, None]
            put = (rows < nmax) & ok
            P[rows[put], np.broadcast_to(c, put.shape)[put]] = (
                v[1:w + 1] * (P[mc, c] / v[0]))[put]
            tail_start[c[ok]] = np.minimum(mc[ok] + w, nmax - 1) + 1
    # cut each flagged column from tail_start on, then check what is left,
    # by blocks of rows: no N x S mask at any size
    step = max(1, _SCAN_BLOCK // m)
    for n0 in range(0, nmax, step):
        blk = P[n0:n0 + step]
        blk[np.arange(n0, n0 + len(blk))[:, None] >= tail_start] = 0.0
        if np.isfinite(blk).all():
            continue
        n, c = np.argwhere(~np.isfinite(blk))[0]
        n += n0
        xc = float(x[c])
        level = round(math.log(abs(xc), ctx.q)) if xc else None
        raise DomainError(
            f"p_{n} is not finite at x = {xc!r} (level {level}): the "
            f"recurrence leaves double range at q={ctx.q}, fock_dim={nmax}; "
            f"use a smaller fock_dim or lattice_depth")
    return P, tail_start


class Weights(NamedTuple):
    """Per level s < lattice_depth: w_s, sqrt(w_s) and c_s = q^s w_s /
    prefactor, with prefactor = 2 (q; q)_inf (-q; q)_inf^2."""

    w: np.ndarray
    sqrt_w: np.ndarray
    c: np.ndarray
    prefactor: float


@_per_context
def _weights(ctx: DeformationContext) -> Weights:
    """Every level's weights, computed once per context: the deepest,
    w_{S-1} = (q^{2S}; q^2)_inf, is one qpoch_inf call, and each
    shallower level follows by the exact ratio w_s = (1 - q^{2s+2})
    w_{s+1}. The prefactor and w_0, the smallest w_s, must be finite
    positive normal floats (from q ~ 0.998 on they are not), or
    DomainError is raised. c_s may underflow to 0 on deep levels.
    """
    q, q2, tiny, S = ctx.q, ctx.q * ctx.q, sys.float_info.min, ctx.lattice_depth
    pq = float(qpoch_inf(q, ctx))
    mq = float(qpoch_inf(-q, ctx))
    pref = 2.0 * pq * (mq * mq)
    if not (math.isfinite(pref) and pref >= tiny):
        raise DomainError(f"weight prefactor {pref!r} outside double range at q={q}")
    w = np.empty(S)
    np.cumprod([float(qpoch_inf(q2 ** S, ctx, base=q2))]
               + [1.0 - q2 ** (s + 1) for s in range(S - 2, -1, -1)], out=w[::-1])
    if not w[0] >= tiny:
        raise DomainError(f"weight w_0 = {w[0]!r} outside double range at q={q}")
    out = Weights(w=w, sqrt_w=np.sqrt(w), c=window_values(ctx)[0::2] * w / pref,
                  prefactor=pref)
    for a in out[:3]:
        a.flags.writeable = False
    return out


def lattice_weight(pt: LatticePoint, ctx: DeformationContext) -> float:
    """Bare weight w_s = (q^{2s+2}; q^2)_inf; sign-independent, in (0, 1]."""
    return float(_weights(ctx).w[_index(pt.s, "level", ctx.lattice_depth)])


def norm_c(s: int, ctx: DeformationContext) -> float:
    """Normalized weight c_s = q^s w_s / (2 (q;q)_inf (-q;q)_inf^2)."""
    return float(_weights(ctx).c[_index(s, "level", ctx.lattice_depth)])


def norm_c_window(ctx: DeformationContext) -> np.ndarray:
    """c_{s(x)} for every window site, interleaved like the window."""
    return np.repeat(_weights(ctx).c, 2)


def lattice_weight_window(ctx: DeformationContext) -> np.ndarray:
    """w_{s(x)} for every window site."""
    return np.repeat(_weights(ctx).w, 2)


@_per_context
def _half_table(ctx: DeformationContext) -> tuple[np.ndarray, np.ndarray]:
    """(p_n(+q^s) for n < fock_dim, tail_start per level), read-only:
    the one tabulation of the modes."""
    out = _p_matrix(window_values(ctx)[0::2], ctx.fock_dim, ctx)
    for a in out:
        a.flags.writeable = False
    return out


def _completeness(ctx: DeformationContext) -> np.ndarray:
    """1 - c_s sum_n p_n(q^s)^2 per level s: one einsum, which adds the
    squares in degree order with no N x S temporary."""
    half = _half_table(ctx)[0]
    return 1.0 - _weights(ctx).c * np.einsum("ij,ij->j", half, half)


@dataclass(frozen=True)
class ModeTable:
    """p_n (or i^n p_n) tabulated over the window.

    values[n, i] is the degree-n mode at window index i. kind "position"
    stores real p_n; kind "momentum" stores complex i^n p_n on the same
    grid. tail_start[i] is the first degree stored as exact zero after
    the flagged tail cut (fock_dim if none). fock_dim and lattice_depth
    are ints >= 1, or ValidationError; arrays of other shapes than
    (fock_dim, 2S) and (2S,), S = lattice_depth, raise DimensionMismatch.
    """

    kind: str
    q: float
    fock_dim: int
    lattice_depth: int
    values: np.ndarray
    tail_start: np.ndarray

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for name in ("fock_dim", "lattice_depth"):
            object.__setattr__(self, name, _index(
                getattr(self, name), name, lo=1, exc=ValidationError))
        want = (self.fock_dim, 2 * self.lattice_depth)
        if np.shape(self.values) != want or np.shape(self.tail_start) != want[1:]:
            raise DimensionMismatch(f"values and tail_start must have shapes "
                                    f"{want} and {want[1:]}")


def _modes(kind: str, n, ctx: DeformationContext) -> np.ndarray:
    """p_n (kind "position") or i^n p_n ("momentum") over the window, for a
    degree n or one per row: the half table's parity mirror, by
    p_n(-x) = (-1)^n p_n(x). Writing h + 0.0 and 0.0 - h stores cut
    tails as +0.0 at both signs, as the recurrence does."""
    h = _half_table(ctx)[0][n]
    n = np.arange(ctx.fock_dim)[n]
    odd = (n % 2 == 1)[..., None]
    out = np.empty(h.shape[:-1] + (2 * h.shape[-1],))
    out[..., 0::2] = h
    np.add(h, 0.0, out=out[..., 1::2], where=~odd)
    np.subtract(0.0, h, out=out[..., 1::2], where=odd)
    return _I_POWERS[n % 4][..., None] * out if kind == "momentum" else out


def build_mode_table(kind: str, ctx: DeformationContext) -> ModeTable:
    """Tabulate all modes n < fock_dim over the window."""
    return ModeTable(kind=kind, q=ctx.q, fock_dim=ctx.fock_dim,
                     lattice_depth=ctx.lattice_depth,
                     values=_modes(kind, slice(None), ctx),
                     tail_start=np.repeat(_half_table(ctx)[1], 2))


def orthogonality_residuals(n: int, ctx: DeformationContext) -> np.ndarray:
    """Scale-normalized defects of the windowed orthogonality sums.

    Entry [k, m], for degrees k, m <= n, compares
    LHS = sum_s q^s w_s [h_k h_m(q^s) + h_k h_m(-q^s)] over the window with
    RHS = 2 (q;q)_inf (-q;q)_inf^2 (q;q)_m q^{m(m-1)/2} delta_km, as
    |LHS - RHS| / (1 + sqrt(RHS_kk RHS_mm)). Normalizing by the diagonal
    scale keeps the figure meaningful at depths where the exact lattice
    tail already exceeds tiny absolute thresholds. Opposite signs are
    paired before accumulation, so odd k+m cancels exactly. The h_k come
    from one forward pass per sign.
    """
    q, weights = ctx.q, _weights(ctx)
    xs = window_values(ctx)[0::2]
    plus, minus = (forward_rows("hermite", n, x, ctx) for x in (xs, -xs))
    terms = xs * weights.w * (plus[:, None] * plus + minus[:, None] * minus)
    lhs = np.zeros((n + 1, n + 1))
    for term in np.moveaxis(terms, -1, 0):
        lhs += term  # in site order; np.sum's pairwise order moves the last bits
    diag = np.array([weights.prefactor * float(qpoch(q, j, ctx))
                     * q ** (j * (j - 1) // 2) for j in range(n + 1)])
    return np.abs(lhs - np.diag(diag)) / (1.0 + np.sqrt(diag[:, None] * diag))


def dual_orthogonality_residual(ctx: DeformationContext) -> float:
    """Max defect of sum_n c_{s'} p_n(x) p_n(x') = delta over the core.

    The weight sits on the second (summed-against) site, matching the
    evolution kernel convention. Core means both sites at levels
    s < lattice_depth - TAIL_MARGIN; the outermost levels never resolve.
    An empty core raises ValidationError.
    """
    core = 2 * _index(ctx.lattice_depth - TAIL_MARGIN, "lattice_depth - "
                      "TAIL_MARGIN", lo=1, exc=ValidationError)
    table = build_mode_table("position", ctx)
    cs = norm_c_window(ctx)
    G = table.values.T @ table.values * cs[None, :]
    G = G[:core, :core]
    return float(np.max(np.abs(G - np.eye(core))))

