"""Truncated number-basis operators and their spectra.

Q, P, H and F(H) are Hermitian tridiagonal operators in the orthonormal
basis e_n, n < fock_dim. With a_n = sqrt(q^n (1 - q^{n+1})):

    Q e_n = a_n e_{n+1} + a_{n-1} e_{n-1}
    P e_n = i a_n e_{n+1} - i a_{n-1} e_{n-1}
    H e_n = (n + 1/2) e_n
    F(H) e_n = 2 (1 - 1/q) (q^n - (1+q) q^{2n}) e_n

and [Q, P] = -i F(H) away from the truncation edge. The ladder
operators are not Hermitian; build_ladders returns them as dense
matrices. The spectrum of the truncated Q fills the geometric lattice
{+-q^s} from the outside in; spectrum_report performs the matching on
eigenvalues alone, which come from Q's bidiagonal half to high relative
accuracy (eigenvalues); eigendecompose also forms the eigenvectors.
One rule, _s_match, finds the depth of that matching, s_match, from
counts of the eigenvalues at or below the 4S shifts +-q^s +- match_tol.
spectrum_report counts its eigenvalues; _count_s_match, what the
evolution kernels report, takes Sturm counts without computing any
eigenvalue. _count_below runs those counts a block of rows at a time
and redoes in Python floats only the shifts whose pivots broke down in
a block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .context import DeformationContext
from .errors import DimensionMismatch, DomainError, NoConvergence, NotHermitian
from .qcore import coupling
from .qhermite import window_values

_RESIDUAL_FACTOR = 1e-12
# pivots per block of _count_below (512 KB of floats). Of 2^14 to 2^18 it
# is fastest at 1,024 shifts and within 7% of the fastest at 245 and 512;
# at 11,459 shifts 2^14 and 2^15 (1 and 2 rows a block) take 2.1x and
# 1.3x its time, 2^17 0.9x
_STURM_ENTRIES = 1 << 16


@dataclass(frozen=True)
class TridiagonalOperator:
    """Hermitian tridiagonal operator: dense[n, n] = diag[n],
    dense[n, n+1] = offdiag[n] and dense[n+1, n] = conj(offdiag[n])."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag))
        if self.offdiag.shape[0] != max(self.diag.shape[0] - 1, 0):
            raise DimensionMismatch(
                f"offdiag length {self.offdiag.shape[0]} does not fit "
                f"dimension {self.diag.shape[0]}")

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    def to_dense(self) -> np.ndarray:
        dtype = np.result_type(self.diag, self.offdiag)
        out = np.zeros((self.dim, self.dim), dtype=dtype)
        np.fill_diagonal(out, self.diag)
        idx = np.arange(self.dim - 1)
        out[idx, idx + 1] = self.offdiag
        out[idx + 1, idx] = np.conj(self.offdiag)
        return out


def build_Q(ctx: DeformationContext) -> TridiagonalOperator:
    """Position: real symmetric, zero diagonal, offdiag a_n."""
    n = np.arange(ctx.fock_dim - 1, dtype=float)
    return TridiagonalOperator(np.zeros(ctx.fock_dim), coupling(n, ctx))


def build_P(ctx: DeformationContext) -> TridiagonalOperator:
    """Momentum: Hermitian, zero diagonal, upper offdiag -i a_n."""
    n = np.arange(ctx.fock_dim - 1, dtype=float)
    return TridiagonalOperator(np.zeros(ctx.fock_dim),
                               -1j * coupling(n, ctx).astype(complex))


def build_H(ctx: DeformationContext) -> TridiagonalOperator:
    n = np.arange(ctx.fock_dim, dtype=float)
    return TridiagonalOperator(n + 0.5, np.zeros(max(ctx.fock_dim - 1, 0)))


def build_F_of_H(ctx: DeformationContext) -> TridiagonalOperator:
    """The commutation defect operator: [Q, P] = i F(H) in the interior."""
    q = ctx.q
    n = np.arange(ctx.fock_dim, dtype=float)
    diag = 2.0 * (1.0 - 1.0 / q) * (q**n - (1.0 + q) * q ** (2.0 * n))
    return TridiagonalOperator(diag, np.zeros(max(ctx.fock_dim - 1, 0)))


def build_ladders(ctx: DeformationContext) -> Tuple[np.ndarray, np.ndarray]:
    """Dense (lowering, raising) with lowering e_n = sqrt(q^n [n]_q) e_{n-1}.

    The raising operator is the transpose. On e_0 the commutator
    [lowering, raising] acts as multiplication by q, and its diagonal
    tends to 1 as q -> 1-.
    """
    q = ctx.q
    k = np.arange(1, ctx.fock_dim, dtype=float)
    vals = np.sqrt(q**k * (1.0 - q**k) / (1.0 - q))
    return np.diag(vals, 1), np.diag(vals, -1)


def commutator(A, B) -> np.ndarray:
    """[A, B] as a dense matrix; accepts operators or arrays."""
    a = A.to_dense() if isinstance(A, TridiagonalOperator) else np.asarray(A)
    b = B.to_dense() if isinstance(B, TridiagonalOperator) else np.asarray(B)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {a.shape} and {b.shape}")
    return a @ b - b @ a


def _real_form(T: TridiagonalOperator) -> Tuple[np.ndarray, np.ndarray]:
    """(d, |offdiag|): the real symmetric tridiagonal that a diagonal
    phase similarity, which keeps the spectrum, turns T into."""
    if np.any(np.abs(np.imag(T.diag)) > 0):
        raise NotHermitian("Hermitian operator must have a real diagonal")
    return np.real(T.diag).astype(float), np.abs(T.offdiag).astype(float)


def eigenvalues(T: TridiagonalOperator, ctx: DeformationContext) -> np.ndarray:
    """Eigenvalues (ascending) of a zero-diagonal Hermitian operator, such
    as Q or P, each to high relative accuracy however small.

    T splits into blocks at its zero couplings. In even/odd site order an
    m-site block is [[0, B^T], [B, 0]], with B the upper bidiagonal of its
    couplings e[0], e[2], ... (diagonal) and e[1], e[3], ... Its
    eigenvalues are +- the singular values of B (Golub and Kahan, 1965),
    from numpy's dense SVD, and an exact 0 for odd m. Against a 40-digit
    bisection of the same couplings, 20 sampled eigenvalues of Q were
    within a relative 1.9e-15 (9 ulps) at (q, N) = (0.95, 640) and 4.4e-15
    (22 ulps) at (0.99, 1600), the tiny ones included: more than the few
    ulps of a bidiagonal solver (Demmel and Kahan, 1990).
    A nonzero diagonal raises DomainError."""
    d, e = _real_form(T)
    if np.any(d != 0):
        raise DomainError("eigenvalues needs a zero diagonal; "
                          "use eigendecompose for this operator")
    ends = np.append(np.flatnonzero(e == 0) + 1, T.dim)
    sizes = np.diff(ends, prepend=0)
    sv = [np.empty(0)]
    for end, m in zip(ends[sizes > 1], sizes[sizes > 1]):
        B = np.zeros((m // 2, (m + 1) // 2))  # row k: e[2k], then e[2k+1]
        B.flat[0::B.shape[1] + 1] = e[end - m:end - 1:2]
        B.flat[1::B.shape[1] + 1] = e[end - m + 1:end - 1:2]
        try:
            sv.append(np.linalg.svd(B, compute_uv=False))
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"bidiagonal SVD failed: {exc}") from exc
    sv = np.concatenate(sv)
    if not np.all(np.isfinite(sv)):
        raise NoConvergence("bidiagonal SVD returned non-finite values")
    return np.sort(np.concatenate([-sv, np.zeros(np.sum(sizes % 2)), sv]))


def eigendecompose(T: TridiagonalOperator,
                   ctx: DeformationContext) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian operator,
    from numpy's dense solver. A diagonal or coupling that is not finite,
    a failed solve, or an eigenpair residual not within 1e-12 times the
    operator scale raises NoConvergence."""
    d, e = _real_form(T)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NoConvergence("Hermitian eigensolver needs finite entries")
    dense = T.to_dense()
    try:
        vals, vecs = np.linalg.eigh(dense)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigensolver failed: {exc}") from exc
    scale = np.max(np.abs(d)) + 2.0 * np.max(e, initial=0.0)
    resid = np.linalg.norm(dense @ vecs - vecs * vals[None, :], axis=0)
    if not np.all(resid <= _RESIDUAL_FACTOR * max(scale, 1e-300)):
        raise NoConvergence(
            f"eigenpair residual {float(np.max(resid)):.3e} exceeds "
            f"{_RESIDUAL_FACTOR:.0e} * scale")
    return vals, vecs


@dataclass(frozen=True)
class MatchedLevel:
    sign: int
    s: int
    value: float
    error: float


@dataclass(frozen=True)
class SpectrumReport:
    """Greedy matching of eigenvalues against the geometric lattice.

    matched pairs are assigned outside-in per sign (largest positive to
    +q^0, most negative to -q^0, and so on); s_match is the deepest level
    through which every pair meets match_tol. Eigenvalues left over once
    the window buckets run out are reported raw in unmatched.
    """

    q: float
    fock_dim: int
    lattice_depth: int
    match_tol: float
    matched: List[MatchedLevel] = field(default_factory=list)
    unmatched: List[float] = field(default_factory=list)
    s_match: int = -1
    max_error: float = 0.0


def spectrum_report(T: TridiagonalOperator,
                    ctx: DeformationContext) -> SpectrumReport:
    """Match the eigenvalues of T against +-q^s; no eigenvectors are formed.

    The matching itself certifies each matched value against its exact
    target, so the eigenpair residual check of eigendecompose is not
    needed here. s_match is _s_match on counts of the eigenvalues.
    """
    vals = eigenvalues(T, ctx)
    S, t = ctx.lattice_depth, window_values(ctx)[0::2]
    matched, unmatched = [], []
    for sign, pool in ((1, vals[vals > 0][::-1]), (-1, vals[vals <= 0])):
        head = pool[:S]
        errors = np.abs(head - sign * t[:len(head)])
        matched += [MatchedLevel(sign, s, v, err) for s, (v, err) in
                    enumerate(zip(head.tolist(), errors.tolist()))]
        unmatched += pool[S:].tolist()
    s_match = _s_match(lambda shifts: np.searchsorted(vals, shifts, "right"),
                       len(vals), ctx)
    return SpectrumReport(q=ctx.q, fock_dim=ctx.fock_dim, lattice_depth=S,
                          match_tol=ctx.match_tol, matched=matched,
                          unmatched=unmatched, s_match=s_match,
                          max_error=max((m.error for m in matched), default=0.0))


def _count_below(d: np.ndarray, e: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift, by Sturm inertia count.

    The pivots of the LDL^T factorization of T - sigma I,
    d_0 = d[0] - sigma, d_i = d[i] - sigma - e[i-1]^2 / d_{i-1}, have as
    many negative entries as T has eigenvalues below sigma (Barth, Martin
    and Wilkinson, Numer. Math. 9, 1967). A pivot smaller than pivmin is
    taken as -pivmin, as LAPACK's bisection does, so an eigenvalue equal
    to the shift counts as below it. Each distinct shift is counted once.

    The pivots run unguarded a block of rows at a time, two ufunc calls
    per row into a buffer of at most _STURM_ENTRIES entries, and their
    signs are counted once per block. Up to its first pivot under pivmin
    a column's unguarded pivots are the guarded ones, bit for bit, so
    only the columns of a block that held such a pivot are redone, in
    Python floats with the clamp, from the guarded pivot before the
    block (Marques, Riedy and Vömel, SIAM J. Sci. Comput. 28, 2006).
    """
    shifts, inverse = np.unique(shifts, return_inverse=True)
    e2 = np.concatenate([[0.0], e * e])  # e2[i] couples pivot i to i - 1
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(e2)))
    n_rows, m = d.shape[0], shifts.shape[0]
    # a column's count over one block must fit the uint8 sums below
    rows = max(1, min(n_rows, 255, _STURM_ENTRIES // max(m, 1)))
    block, quotient = np.empty((rows, m)), np.empty(m)
    piv = np.ones(m)  # the pivot before the block; e2[0] = 0 ignores it
    count = np.zeros(m, dtype=int)
    d_list, e2_list = d.tolist(), e2.tolist()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for r0 in range(0, n_rows, rows):
            r1 = min(r0 + rows, n_rows)
            B = block[:r1 - r0]
            np.subtract.outer(d[r0:r1], shifts, out=B)
            prev = piv
            for j, ek2 in enumerate(e2_list[r0:r1]):
                np.divide(ek2, prev, out=quotient)
                prev = np.subtract(B[j], quotient, out=B[j])
            # columns free of |pivot| < pivmin have as many pivots <= -pivmin
            # as < pivmin, and that number is their count of negatives
            neg = np.add.reduce((B <= -pivmin).view(np.uint8), axis=0,
                                dtype=np.uint8)
            low = np.add.reduce((B < pivmin).view(np.uint8), axis=0,
                                dtype=np.uint8)
            count += neg
            for col in np.flatnonzero(neg != low).tolist():
                sigma, p, k = float(shifts[col]), float(piv[col]), 0
                for di, ek2 in zip(d_list[r0:r1], e2_list[r0:r1]):
                    p = (di - sigma) - ek2 / p
                    if abs(p) < pivmin:
                        p = -pivmin
                    k += p < 0
                count[col] += k - int(neg[col])
                prev[col] = p
            piv[:] = prev
    return count[inverse]


def _s_match(count_below, n: int, ctx: DeformationContext) -> int:
    """s_match of an operator of dimension n, from count_below(shifts),
    its number of eigenvalues at or below each shift.

    Level k passes when spectrum_report's outside-in matching meets
    match_tol at both +q^k and -q^k. The k-th largest positive eigenvalue
    lies in (q^k - tol, q^k + tol) exactly when at most k eigenvalues lie
    above q^k + tol and at least k + 1 above max(q^k - tol, 0). The
    nonpositive pool (v <= 0) is counted the same way on its own shifts,
    not by symmetry. A pool with too few eigenvalues fails its level, and
    s_match is the level before the first failure.
    """
    t, tol = window_values(ctx)[0::2], ctx.match_tol
    shifts = np.concatenate([t + tol, np.maximum(t - tol, 0.0),
                             -t - tol, np.minimum(tol - t, 0.0)])
    pos_hi, pos_lo, neg_lo, neg_hi = np.split(count_below(shifts), 4)
    k = np.arange(t.shape[0])
    passed = ((n - pos_hi <= k) & (n - pos_lo > k)
              & (neg_lo <= k) & (neg_hi > k))
    return int(np.logical_and.accumulate(passed).sum()) - 1


def _count_s_match(T: TridiagonalOperator, ctx: DeformationContext) -> int:
    """spectrum_report(T, ctx).s_match from Sturm counts at 4 lattice_depth
    shifts, +-q^k +- match_tol (_s_match), without computing any
    eigenvalue."""
    d, e = _real_form(T)
    return _s_match(lambda shifts: _count_below(d, e, shifts), d.shape[0], ctx)
