import tracemalloc

import mpmath
import numpy as np
import pytest

from qosc import (DeformationContext, DimensionMismatch, DomainError,
                  NoConvergence, NotHermitian, TridiagonalOperator,
                  build_F_of_H, build_H, build_ladders, build_P, build_Q,
                  commutator, coupling, eigendecompose, eigenvalues,
                  fractional_ft, spectrum_report, window_values)
from qosc import fock
from qosc.fock import _count_below, _count_s_match


def test_tridiagonal_shape_guard():
    with pytest.raises(DimensionMismatch):
        TridiagonalOperator(np.zeros(4), np.zeros(4))
    op = TridiagonalOperator(np.arange(3.0), np.ones(2))
    dense = op.to_dense()
    assert dense.shape == (3, 3)
    assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
    assert dense[0, 2] == 0.0


def test_build_Q_couplings(ctx):
    Q = build_Q(ctx)
    a = coupling(np.arange(ctx.fock_dim - 1), ctx)
    assert np.allclose(np.asarray(Q.offdiag, dtype=float), a)
    assert np.all(Q.diag == 0)


def test_build_P_structure(ctx):
    P = build_P(ctx).to_dense()
    a0 = float(coupling(0, ctx))
    assert P[0, 1] == pytest.approx(-1j * a0)
    assert P[1, 0] == pytest.approx(1j * a0)
    assert np.allclose(P, P.conj().T)


def test_build_H_and_F(ctx):
    H = build_H(ctx)
    assert H.diag[0] == 0.5 and H.diag[3] == 3.5
    F = build_F_of_H(ctx)
    q = ctx.q
    f0 = 2 * (1 - 1 / q) * (1 - (1 + q))
    assert F.diag[0] == pytest.approx(f0)
    assert f0 == pytest.approx(2 * (1 - q))


def test_commutator_shapes(ctx):
    Q, P = build_Q(ctx), build_P(ctx)
    C = commutator(Q, P)
    assert C.shape == (ctx.fock_dim, ctx.fock_dim)
    with pytest.raises(DimensionMismatch):
        commutator(np.eye(3), np.eye(4))


def test_interior_commutators(ctx):
    Q = build_Q(ctx).to_dense().astype(complex)
    P = build_P(ctx).to_dense()
    H = build_H(ctx).to_dense().astype(complex)
    F = build_F_of_H(ctx).to_dense().astype(complex)
    d = ctx.fock_dim - 2
    assert np.max(np.abs((H @ Q - Q @ H + 1j * P)[:d, :d])) < 1e-13
    assert np.max(np.abs((H @ P - P @ H - 1j * Q)[:d, :d])) < 1e-13
    assert np.max(np.abs((Q @ P - P @ Q - 1j * F)[:d, :d])) < 1e-13


def test_eigendecompose_residuals():
    # at q = 0.3, N = 64 the eigenvalues run from 1 down to 1e-17; every
    # pair of the dense solver must still meet the residual and
    # orthogonality bounds
    ctx = DeformationContext(q=0.3, fock_dim=64)
    T = build_Q(ctx)
    vals, vecs = eigendecompose(T, ctx)
    dense = T.to_dense()
    res = dense @ vecs - vecs * vals[None, :]
    assert np.max(np.abs(res)) < 1e-12
    assert np.allclose(vecs.T @ vecs, np.eye(ctx.fock_dim), atol=1e-12)


def test_eigendecompose_complex_gauge(ctx):
    # P has purely imaginary couplings; its spectrum must equal Q's
    vq, _ = eigendecompose(build_Q(ctx), ctx)
    vp, vecs = eigendecompose(build_P(ctx), ctx)
    assert np.allclose(np.sort(vq), np.sort(vp), atol=1e-12)
    dense = build_P(ctx).to_dense()
    res = dense @ vecs - vecs * vp[None, :]
    assert np.max(np.abs(res)) < 1e-12


def test_eigendecompose_rejects_non_hermitian(ctx):
    bad = TridiagonalOperator(np.zeros(3) + 1j, np.ones(2))
    with pytest.raises(NotHermitian):
        eigendecompose(bad, ctx)


def test_eigendecompose_dim_one():
    ctx = DeformationContext(q=0.5, fock_dim=1)
    vals, vecs = eigendecompose(TridiagonalOperator(np.array([2.5]), np.zeros(0)), ctx)
    assert vals[0] == 2.5 and vecs[0, 0] == 1.0


def test_ladders_are_adjoint(ctx):
    low, rai = build_ladders(ctx)
    assert np.allclose(low, rai.conj().T)


def test_spectrum_report_shallow_prefix():
    ctx = DeformationContext(q=0.5, fock_dim=60)
    rep = spectrum_report(build_Q(ctx), ctx)
    assert rep.s_match == 28
    assert not rep.unmatched
    for m in rep.matched:
        if m.s <= 8:
            assert m.error < 1e-10
    for sign in (1, -1):
        ss = [m.s for m in rep.matched if m.sign == sign]
        assert ss == sorted(ss)


def test_spectrum_report_overflow_to_unmatched():
    # more eigenvalue pairs than lattice levels: the deep ones have
    # nowhere to go and must be reported rather than forced
    ctx = DeformationContext(q=0.5, fock_dim=64, lattice_depth=8)
    rep = spectrum_report(build_Q(ctx), ctx)
    assert len(rep.unmatched) == 64 - 2 * 8
    assert len(rep.matched) == 2 * 8
    assert rep.s_match == 7


def test_spectrum_negation_symmetry():
    ctx = DeformationContext(q=0.8, fock_dim=80)
    vals, _ = eigendecompose(build_Q(ctx), ctx)
    v = np.sort(vals)
    assert np.max(np.abs(v + v[::-1])) < 1e-13


@pytest.mark.parametrize("q", [0.3, 0.5, 0.95, 0.9999])
@pytest.mark.parametrize("n", [1, 2, 64, 65, 200])
@pytest.mark.parametrize("build", [build_Q, build_P])
def test_spectrum_report_eigenvalues_bit_identical(q, n, build):
    # spectrum_report forms no eigenvectors: its values are bitwise those
    # of eigenvalues, which are the same for Q and the complex P, exactly
    # antisymmetric (with one exact 0 for odd N) and within 1e-13 of the
    # residual-checked eigenpairs of the dense solver
    ctx = DeformationContext(q=q, fock_dim=n)
    T = build(ctx)
    vals = eigenvalues(T, ctx)
    rep = spectrum_report(T, ctx)
    reported = [m.value for m in rep.matched] + list(rep.unmatched)
    assert np.array_equal(np.sort(reported), vals)
    assert np.array_equal(vals, eigenvalues(build_Q(ctx), ctx))
    assert np.array_equal(vals, -vals[::-1])
    assert np.count_nonzero(vals == 0.0) == n % 2
    assert np.max(np.abs(vals - eigendecompose(T, ctx)[0])) < 1e-13


def test_zero_coupling_splits_the_spectrum():
    # a zero coupling leaves two blocks (17 and 24 sites here): the
    # spectrum is their union, as the dense solver also finds
    ctx = DeformationContext(q=0.5, fock_dim=41)
    e = build_Q(ctx).offdiag.copy()
    e[16] = 0.0
    T = TridiagonalOperator(np.zeros(41), e)
    blocks = [eigenvalues(TridiagonalOperator(np.zeros(17), e[:16]), ctx),
              eigenvalues(TridiagonalOperator(np.zeros(24), e[17:]), ctx)]
    vals = eigenvalues(T, ctx)
    assert np.array_equal(vals, np.sort(np.concatenate(blocks)))
    assert np.max(np.abs(vals - eigendecompose(T, ctx)[0])) < 1e-13


def _mp_count_below(e2, sigma) -> int:
    """Eigenvalues below sigma of the zero-diagonal tridiagonal with
    squared couplings e2, by a Sturm count in mpmath's precision."""
    piv = -sigma
    count = int(piv < 0)
    for ek2 in e2:
        piv = -sigma - ek2 / piv
        count += int(piv < 0)
    return count


@pytest.mark.parametrize("N", [120, 320])
def test_eigenvalues_have_relative_accuracy(N):
    # Q's positive eigenvalues accumulate at 0: the smallest is 1.1e-18
    # at N = 120 and 9.0e-49 at N = 320. Sturm counts in 80-digit
    # arithmetic on the squared couplings q^n (1 - q^{n+1}), formed in
    # mpmath, put the k-th of them within 1e-13 of the k-th value
    # returned, relative to that value. The negative half is its exact
    # mirror (test_spectrum_report_eigenvalues_bit_identical)
    ctx = DeformationContext(q=0.5, fock_dim=N)
    vals = eigenvalues(build_Q(ctx), ctx)
    with mpmath.workdps(80):
        q = mpmath.mpf(ctx.q)
        e2 = [q**n * (1 - q ** (n + 1)) for n in range(N - 1)]
        for k in range(N // 2, N):
            v = mpmath.mpf(vals[k])
            tol = mpmath.mpf(1e-13) * v
            assert _mp_count_below(e2, v - tol) == k, (k, vals[k])
            assert _mp_count_below(e2, v + tol) == k + 1, (k, vals[k])


def test_eigensolver_failures_are_typed(ctx):
    # a non-finite coupling defeats both solvers; callers see
    # NoConvergence. eigenvalues takes only a zero diagonal, so a NaN or
    # nonzero one is outside its domain
    for bad in (np.nan, np.inf):
        T = TridiagonalOperator(np.zeros(3), np.array([1.0, bad]))
        for solve in (eigendecompose, eigenvalues):
            with pytest.raises(NoConvergence):
                solve(T, ctx)
    for diag in ([0.0, np.nan, 0.0], [0.0, 1.0, 0.0]):
        T = TridiagonalOperator(np.array(diag), np.ones(2))
        with pytest.raises(DomainError, match="zero diagonal"):
            eigenvalues(T, ctx)
    with pytest.raises(NoConvergence):
        eigendecompose(TridiagonalOperator(np.array([0.0, np.nan, 0.0]),
                                           np.ones(2)), ctx)


# (S, N): the ROADMAP ladder, its q -> 1 rung at q = 0.95, and windows
# deeper than the Fock space resolves, with odd N among them
_COUNT_SIZES = [(32, 64), (128, 320), (256, 640), (674, 1348), (16, 12),
                (40, 41), (30, 60), (8, 24), (1, 1), (5, 1), (1, 3), (7, 13)]
# p_n leaves double range there (p_587 at q = 0.3, p_1034 at q = 0.5), so
# no kernel can carry them; the two s_match figures part at levels where
# q^s < 1e-150
_DEEP = {(0.3, 674, 1348), (0.5, 674, 1348)}


def _greedy_s_match(T, ctx):
    """The reference s_match: match the eigenvalues outside in per sign
    (largest positive to +q^0, most negative nonpositive to -q^0, ...),
    then take the deepest level s through which both signs have a value
    within match_tol of +-q^s."""
    vals = eigenvalues(T, ctx).tolist()
    targets = window_values(ctx).tolist()
    pos = sorted([v for v in vals if v > 0], reverse=True)
    neg = sorted([v for v in vals if v <= 0])
    per_level = {}
    for sign, pool in ((1, pos), (-1, neg)):
        for s, v in enumerate(pool[:ctx.lattice_depth]):
            err = abs(v - targets[2 * s + (sign < 0)])
            per_level.setdefault(s, []).append(err)
    s_match = -1
    for s in range(ctx.lattice_depth):
        errs = per_level.get(s)
        if errs is None or len(errs) < 2 or max(errs) >= ctx.match_tol:
            break
        s_match = s
    return s_match


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95, 0.99])
@pytest.mark.parametrize("S, N", _COUNT_SIZES)
def test_count_s_match_agrees_with_bisection(q, S, N):
    # spectrum_report and the Sturm count share fock._s_match, so both
    # are checked against the greedy per-level matching of LAPACK's
    # bidiagonal SVD eigenvalues, which shares no code with that rule
    for tol in (1e-10, 1e-6):
        ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S,
                                 match_tol=tol)
        for build in (build_Q, build_P):
            T = build(ctx)
            want = _greedy_s_match(T, ctx)
            assert spectrum_report(T, ctx).s_match == want
            if (q, S, N) not in _DEEP:
                assert _count_s_match(T, ctx) == want
    if (q, S, N) in _DEEP:
        with pytest.raises(DomainError, match="double range"):
            fractional_ft(0.0, ctx)


@pytest.mark.parametrize("q, N", [(0.5, 64), (0.95, 200), (0.9, 37)])
def test_count_s_match_reads_the_real_gauge(q, N):
    # P has Q's spectrum through a phase similarity; a diagonal shift of
    # Q by 2 match_tol moves every eigenvalue off its target, and takes Q
    # out of the zero-diagonal domain of spectrum_report
    ctx = DeformationContext(q=q, fock_dim=N)
    P = build_P(ctx)
    assert _count_s_match(P, ctx) == spectrum_report(P, ctx).s_match
    Q = build_Q(ctx)
    shifted = TridiagonalOperator(Q.diag + 2 * ctx.match_tol, Q.offdiag)
    assert _count_s_match(shifted, ctx) == -1
    with pytest.raises(DomainError):
        spectrum_report(shifted, ctx)


@pytest.mark.parametrize("q, N", [(0.3, 1), (0.5, 2), (0.5, 65), (0.95, 300)])
def test_sturm_count_is_the_inertia(q, N):
    ctx = DeformationContext(q=q, fock_dim=N)
    vals = eigenvalues(build_Q(ctx), ctx)
    rng = np.random.default_rng(N)
    shifts = np.concatenate([rng.uniform(-1.2, 1.2, 50),
                             vals + 1e-9, vals - 1e-9])
    d, e = build_Q(ctx).diag, build_Q(ctx).offdiag
    want = np.sum(vals[None, :] < shifts[:, None], axis=1)
    assert np.array_equal(_count_below(d, e, shifts), want)


def test_sturm_count_takes_a_zero_pivot_as_negative():
    # blocks {0}, {+-1}, {+-1}: a zero pivot meeting a zero coupling must
    # not turn the rest of the count into 0/0, and an eigenvalue at the
    # shift counts as below it, like spectrum_report's v <= 0 pool
    d, e = np.zeros(5), np.array([0.0, 1.0, 0.0, 1.0])
    shifts = np.array([0.0, -2.0, 2.0, -0.5, 0.5])
    assert _count_below(d, e, shifts).tolist() == [3, 0, 5, 2, 3]


def _count_below_one_shift(d, e, sigma, clamped=None):
    """_count_below's Sturm loop for a single shift, in Python floats;
    the rows whose pivot was clamped are appended to clamped."""
    e2 = [0.0] + (e * e).tolist()
    pivmin = np.finfo(float).tiny * max(1.0, max(e2))
    piv, count = 1.0, 0
    for i, (di, ek2) in enumerate(zip(d.tolist(), e2)):
        piv = (di - sigma) - ek2 / piv
        if abs(piv) < pivmin:
            piv = -pivmin
            if clamped is not None:
                clamped.append(i)
        count += piv < 0
    return count


@pytest.mark.parametrize("q, S, N", [(0.5, 128, 320), (0.95, 64, 160)])
def test_sturm_count_of_repeated_shifts_is_one_count_per_shift(q, S, N):
    # _count_s_match's shifts repeat wherever q^s < match_tol (they take
    # 245 distinct values of 512 here at q = 0.5); shuffled, with repeats
    # and signed zeros, on Q and on Q plus a seeded diagonal
    ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
    t, tol = window_values(ctx)[0::2], ctx.match_tol
    shifts = np.concatenate([t + tol, np.maximum(t - tol, 0.0),
                             -t - tol, np.minimum(tol - t, 0.0), [0.0, -0.0]])
    rng = np.random.default_rng(S)
    shifts = rng.permutation(np.concatenate([shifts, shifts[::7]]))
    e = build_Q(ctx).offdiag
    for d in (np.zeros(N), rng.uniform(-0.01, 0.01, N)):
        want = [_count_below_one_shift(d, e, float(s)) for s in shifts]
        assert _count_below(d, e, shifts).tolist() == want


# rows whose pivot breaks down at a split block's eigenvalue: for blocks
# of 3 rows the first of one (3, 9), the middle (16) or the last (14,
# 20); for blocks of 7 the first (14), the middle (3, 9, 16) or the last
# (20)
_CLAMP_ROWS = [3, 9, 14, 16, 20]


def _split_blocks(d, e):
    """Zero couplings so that each clamp row r ends a 2-site block
    {r - 1, r} with a dyadic coupling and (on a nonzero diagonal) one
    dyadic diagonal value; return the shifts at its eigenvalues, which
    are exact, so the Sturm sequence meets a zero pivot at row r."""
    shifts = []
    for k, r in enumerate(_CLAMP_ROWS):
        a, c = 2.0 ** -(k + 1), (0.25 * k if d.any() else 0.0)
        e[r - 2], e[r - 1], e[r] = 0.0, a, 0.0
        d[r - 1] = d[r] = c
        shifts += [c + a, c - a]
    return shifts


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_blocked_sturm_count_is_the_guarded_count(monkeypatch, rows):
    # the count runs unguarded a block at a time and redoes only the
    # columns whose pivot fell under pivmin; at 0, -0 and +-1e-320 on a
    # zero diagonal every other pivot does, in every block, and at the
    # split blocks' eigenvalues one pivot does, in one block and not the
    # next. On Q and on a seeded diagonal, the counts are the loop's
    ctx = DeformationContext(q=0.5, fock_dim=23)
    rng = np.random.default_rng(rows)
    for d in (np.zeros(23), rng.uniform(-1.0, 1.0, 23)):
        e = build_Q(ctx).offdiag.copy()
        shifts = np.array([0.0, -0.0, 1e-320, -1e-320, *_split_blocks(d, e),
                           *rng.uniform(-1.2, 1.2, 5)])
        monkeypatch.setattr(fock, "_STURM_ENTRIES",
                            rows * np.unique(shifts).size)
        clamped, want = [], []
        for s in shifts:
            rows_hit = []
            want.append(_count_below_one_shift(d, e, float(s), rows_hit))
            clamped.append(rows_hit)
        assert _count_below(d, e, shifts).tolist() == want
        for k, r in enumerate(_CLAMP_ROWS):
            assert r in clamped[4 + 2 * k] or r in clamped[5 + 2 * k]
        if not d.any():  # every other row of each split-off block
            assert {0, 2, 12, 13, 21} <= set(clamped[0])


def test_sturm_count_stays_within_one_block_of_memory():
    # N x M pivots would be 64 MB here; the count holds one block of at
    # most _STURM_ENTRIES of them (512 KB) at a time
    ctx = DeformationContext(q=0.95, fock_dim=2000)
    Q = build_Q(ctx)
    shifts = np.random.default_rng(0).uniform(-1.0, 1.0, 4000)
    tracemalloc.start()
    try:
        _count_below(Q.diag, Q.offdiag, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
