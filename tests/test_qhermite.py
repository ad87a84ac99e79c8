import math

import mpmath
import numpy as np
import pytest

from qosc import (DeformationContext, DomainError, IndexOutOfRange,
                  ValidationError, build_mode_table, completeness_defect,
                  dual_orthogonality_residual, forward_rows, lattice_point,
                  lattice_weight, lattice_weight_window, lattice_window,
                  norm_c, norm_c_window, orthogonality_residuals,
                  qpoch, suggested_depth, window_index, window_levels,
                  window_signs, window_values)
from qosc import qhermite
from qosc.qcore import coupling, qpoch_inf
from qosc.qhermite import _p_matrix, _weights, tail_width


def test_lattice_point_validation(ctx):
    pt = lattice_point(1, 3, ctx)
    assert pt.value == pytest.approx(0.125)
    assert lattice_point(-1, 0, ctx).value == -1.0
    with pytest.raises(ValidationError):
        lattice_point(2, 0, ctx)
    with pytest.raises(IndexOutOfRange):
        lattice_point(1, ctx.lattice_depth, ctx)


@pytest.mark.parametrize("q,S", [(0.5, 40), (0.95, 200), (0.99, 64), (0.3, 700)])
def test_lattice_point_is_the_window_abscissa_bitwise(q, S):
    # at q = 0.3 the deep levels underflow, so -0.0 is pinned as well
    ctx = DeformationContext(q=q, lattice_depth=S)
    got = np.array([lattice_point(sign, s, ctx).value
                    for s in range(S) for sign in (1, -1)])
    assert np.array_equal(got.view(np.uint64), window_values(ctx).view(np.uint64))


def test_window_interleaving(ctx):
    xs = window_values(ctx)
    assert xs[0] == 1.0 and xs[1] == -1.0
    assert xs[2] == ctx.q and xs[3] == -ctx.q
    assert len(xs) == 2 * ctx.lattice_depth
    assert np.all(window_levels(ctx)[0::2] == window_levels(ctx)[1::2])
    assert np.all(window_signs(ctx)[0::2] == 1)
    assert np.all(window_signs(ctx)[1::2] == -1)
    for i, pt in enumerate(lattice_window(ctx)):
        assert window_index(pt.sign, pt.s) == i


def test_hermite_eval_dyadic_exact(ctx):
    # at q = 1/2 and x = 1 every recurrence step stays dyadic
    assert forward_rows("hermite", 3, 1.0, ctx).tolist() == [1.0, 1.0, 0.5, 0.125]


def test_mode_poly_low_orders(ctx):
    q = ctx.q
    a0 = math.sqrt(1 - q)
    p = forward_rows("orthonormal", 1, [0.77, 0.5], ctx)
    assert p[0, 0] == 1.0
    assert p[1, 1] == pytest.approx(0.5 / a0)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_mode_poly_matches_rescaled_hermite(q):
    # generic abscissas; on-lattice forward evaluation is a different story
    ctx = DeformationContext(q=q)
    xs = (0.7, 0.2, 1.3, -0.41)
    p, h = (forward_rows(f, 25, xs, ctx) for f in ("orthonormal", "hermite"))
    for n in range(0, 26, 5):
        scale = 1.0 / math.sqrt(float(qpoch(q, n, ctx))) / q ** (n * (n - 1) / 4)
        assert p[n] == pytest.approx(scale * h[n], rel=1e-11)


def _one_degree(family, n, z, ctx):
    """The degree-n value by its own forward loop from degree 0, each
    coefficient formed at its step: the per-degree reference."""
    q = ctx.q
    prev = 1.0 if np.isscalar(z) else np.ones_like(z)
    if n == 0:
        return prev
    cur = z if family == "hermite" else z / coupling(0, ctx)
    for k in range(1, n):
        if family == "hermite":
            prev, cur = cur, z * cur - q ** (k - 1) * (1.0 - q**k) * prev
        else:
            prev, cur = cur, (z * cur - coupling(k - 1, ctx) * prev) / coupling(k, ctx)
    return cur


@pytest.mark.parametrize("family", ["hermite", "orthonormal"])
def test_forward_rows_equal_per_degree_recurrence_bitwise(family):
    # arrays: lattice and generic points at q = 0.8, where numpy's vectorized
    # power moves a_1 and a_2 by an ulp; at q = 0.01 the values leave double
    # range from n ~ 25 and from n = 162 on the couplings are 0
    for q, n, big in ((0.8, 60, 3.0), (0.01, 170, 1e200)):
        ctx = DeformationContext(q=q)
        xs = np.array([1.0, -q, q**7, 0.0, 0.7, -1.3, big])
        with np.errstate(all="ignore"):
            rows = forward_rows(family, n, xs, ctx)
            want = [_one_degree(family, k, xs, ctx) for k in range(n + 1)]
        assert rows.shape == (n + 1, len(xs))
        for k in range(n + 1):
            assert rows[k].tobytes() == want[k].tobytes(), (q, k)
        assert np.isfinite(rows).all() == (q == 0.8)
    # scalars: Python float arithmetic per degree, as verify once ran it
    ctx = DeformationContext(q=0.5)
    for x in (0.7, -0.43, 1.3, 0.5**5):
        rows = forward_rows(family, 30, x, ctx)
        assert rows.shape == (31,)
        for k in range(31):
            assert rows[k].hex() == float(_one_degree(family, k, x, ctx)).hex()


def test_mode_poly_accepts_arrays(ctx):
    xs = np.array([[0.1, 0.4, -0.3], [0.2, 0.5, 0.9]])
    vals = forward_rows("orthonormal", 2, xs, ctx)
    assert vals.shape == (3, 2, 3)
    assert vals[2, 0, 1] == forward_rows("orthonormal", 2, 0.4, ctx)[2]
    with pytest.raises(IndexOutOfRange):
        forward_rows("orthonormal", -1, xs, ctx)
    with pytest.raises(ValidationError):
        forward_rows("monic", 2, xs, ctx)


def test_table_parity_bitwise(ctx):
    # the -x columns are a mirror of +x, so run the recurrence at -x itself
    t = build_mode_table("position", ctx)
    minus, _ = _p_matrix(window_values(ctx)[1::2], ctx.fock_dim, ctx)
    signs = (-1.0) ** np.arange(ctx.fock_dim)
    assert np.array_equal(minus, signs[:, None] * t.values[:, 0::2])


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 0.95, 0.97, 0.99])
@pytest.mark.parametrize("S,N", [(8, 16), (32, 64), (256, 640)])
def test_mirrored_table_equals_full_window_bitwise(q, S, N):
    # uint64 views tell +0.0 from -0.0, so the cut tails are pinned too
    ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
    values, tail_start = _p_matrix(window_values(ctx), N, ctx)
    t = build_mode_table("position", ctx)
    assert np.array_equal(t.values.view(np.uint64), values.view(np.uint64))
    assert np.array_equal(t.tail_start, tail_start)


def test_mirrored_table_raises_like_full_window():
    ctx = DeformationContext(q=0.3, fock_dim=800, lattice_depth=300)
    with pytest.raises(DomainError) as full:
        _p_matrix(window_values(ctx), ctx.fock_dim, ctx)
    with pytest.raises(DomainError) as mirrored:
        build_mode_table("position", ctx)
    assert str(mirrored.value) == str(full.value)


# The hybrid table with Miller's pass run one column at a time, as it was
# before the pass became one sweep over all columns, and with the meet
# found inside the forward loop, degree by degree, where _p_matrix finds
# it by a search over the couplings. The meet is the first n past the
# peak of a_n where 2 a_n < |x|. It also reports each column's meet and,
# per column, the relative degrees i = n - meet at which the backward
# values passed 1e250 and were rescaled.

def _backfill_column(P, col, x, meet, a_all, w, rescaled):
    nmax = P.shape[0]
    keep_hi = min(meet + w, nmax - 1)
    n_start = meet + 2 * w + 8
    v = np.zeros(n_start - meet + 2)
    v[-2] = 1.0
    for n in range(n_start, meet, -1):
        i = n - meet
        v[i - 1] = (x * v[i] - a_all[n] * v[i + 1]) / a_all[n - 1]
        if abs(v[i - 1]) > 1e250:
            rescaled[col].append(i)
            v[i - 1:] /= abs(v[i - 1])
    if v[0] == 0.0:
        return nmax
    scale = P[meet, col] / v[0]
    P[meet + 1:keep_hi + 1, col] = v[1:keep_hi - meet + 1] * scale
    P[keep_hi + 1:, col] = 0.0
    return keep_hi + 1


def _p_matrix_per_column(x, nmax, ctx):
    m = x.shape[0]
    a = coupling(np.arange(max(nmax, 2), dtype=float), ctx)
    P = np.zeros((nmax, m))
    P[0] = 1.0
    tail_start = np.full(m, nmax, dtype=int)
    meet = np.full(m, -1, dtype=int)
    rescaled = {}
    if nmax == 1:
        return P, tail_start, meet, rescaled
    ax = np.abs(x)
    w = tail_width(ctx.q)
    peak = int(np.argmax(a[:nmax]))
    P[1] = x / a[0]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for n in range(1, nmax - 1):
            P[n + 1] = (x * P[n] - a[n - 1] * P[n - 1]) / a[n]
            meet[(meet < 0) & (n > peak) & (2.0 * a[n] < ax)] = n
    a_all = coupling(np.arange(nmax + 2 * w + 16, dtype=float), ctx)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for c in range(m):
            if 0 <= meet[c] < nmax - 1:
                rescaled[c] = []
                tail_start[c] = _backfill_column(P, c, float(x[c]), int(meet[c]),
                                                 a_all, w, rescaled)
    return P, tail_start, meet, rescaled


@pytest.mark.parametrize("q", [0.01, 0.3, 0.5, 0.9, 0.97, 0.99, 0.995, 0.999,
                               0.9999])
def test_couplings_never_rise_past_their_peak(q):
    # _p_matrix finds the meets by a binary search of 2 a_n past the peak
    # of a_n, which needs the computed couplings in order there. Next to
    # the peak a_{n+1} / a_n is 1 - O((1 - q)^2), far from 1 in ulps
    a = coupling(np.arange(40_000, dtype=float), DeformationContext(q=q))
    assert not (np.diff(a[np.argmax(a):]) > 0).any()


def _assert_sweep_matches_columns(x, ctx):
    """_p_matrix against the per-column oracle, bitwise (uint64 views tell
    +0.0 from -0.0); returns the oracle's (tail_start, meet, rescaled)."""
    want, want_tail, meet, rescaled = _p_matrix_per_column(x, ctx.fock_dim, ctx)
    assert np.isfinite(want).all()
    got, got_tail = _p_matrix(x, ctx.fock_dim, ctx)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got_tail, want_tail)
    return want_tail, meet, rescaled


_SWEEP_SIZES = [(1, 1), (4, 1), (1, 2), (4, 2), (2, 3), (6, 3), (16, 3),
                (8, 16), (32, 64), (64, 160), (128, 320)]


@pytest.mark.parametrize("q", [0.1, 0.5, 0.95, 0.99])
def test_miller_sweep_equals_per_column_pass_bitwise(q):
    at_last = 0
    for S, N in _SWEEP_SIZES:
        ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
        for x in (window_values(ctx)[0::2], window_values(ctx)[1::2]):
            _, meet, _ = _assert_sweep_matches_columns(x, ctx)
            at_last += int(np.sum(meet == N - 2))
    # some column meets at the last degree the forward pass can flag
    assert at_last > 0


def test_miller_sweep_rescales_like_per_column_pass():
    # At small q the backward values pass 1e250 (at q = 0.02, not at 0.05,
    # since the meet comes right after the turning point). On the lattice
    # every column does so at the same relative degree (a_{meet+i} / q^s
    # hardly depends on s), so the second case adds points at 0.7 of the
    # lattice's, whose columns rescale at other degrees: only a per-column
    # mask keeps the rest of the columns' bits.
    ctx = DeformationContext(q=0.02, fock_dim=60, lattice_depth=30)
    _, _, rescaled = _assert_sweep_matches_columns(window_values(ctx)[0::2], ctx)
    assert rescaled and all(rescaled.values())
    ctx = DeformationContext(q=0.02, fock_dim=20, lattice_depth=12)
    xs = window_values(ctx)[0::2]
    _, _, rescaled = _assert_sweep_matches_columns(np.concatenate([xs, 0.7 * xs]),
                                                   ctx)
    assert len({tuple(steps) for steps in rescaled.values()}) > 1


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 8])
def test_miller_start_scan_carries_across_blocks(rows, monkeypatch):
    # The meets need no scan; the tail cut and the finiteness check still
    # go by blocks of rows (n0 .. n0 + rows - 1, from n0 = 0). Blocks of a
    # few rows, so that cuts start on the first and on the last row of a
    # block and run over many block edges. On the lattice every tail_start
    # has one parity; the points at sqrt(q) of it have the other.
    ctx = DeformationContext(q=0.5, fock_dim=64, lattice_depth=32)
    monkeypatch.setattr(qhermite, "_SCAN_BLOCK", rows * 32)
    xs, edges = window_values(ctx), set()
    for x in (xs[0::2], xs[1::2], math.sqrt(ctx.q) * xs[0::2]):
        tail, _, _ = _assert_sweep_matches_columns(x, ctx)
        edges |= {n % rows for n in tail[tail < ctx.fock_dim]} & {0, rows - 1}
    assert edges == {0, rows - 1}


def test_miller_start_scan_spans_blocks_at_full_size():
    # 300 columns: the tail cut's blocks hold 436 rows, and cuts start in
    # the first block and in later ones
    ctx = DeformationContext(q=0.97, fock_dim=700, lattice_depth=300)
    tail, _, _ = _assert_sweep_matches_columns(window_values(ctx)[0::2], ctx)
    step, cut = qhermite._SCAN_BLOCK // 300, tail[tail < 700]
    assert (cut < step).any() and (cut >= step).any()


def _weights_per_level(ctx):
    """w_s by one qpoch_inf product per level, as they were formed
    before the levels were batched."""
    q2 = ctx.q * ctx.q
    return np.array([float(qpoch_inf(q2 ** (s + 1), ctx, base=q2))
                     for s in range(ctx.lattice_depth)])


@pytest.mark.parametrize("tol", [1e-12, 1e-15])
@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.8, 0.95, 0.99, 0.997])
def test_weights_equal_per_level_products_bitwise(q, tol, monkeypatch):
    # chunks of the default size, then of 1 level, a few levels and a
    # size no level count divides, so levels lie on both sides of chunk
    # boundaries
    for chunk in (qhermite._WEIGHT_CHUNK, 1, 20_000, 77_777):
        monkeypatch.setattr(qhermite, "_WEIGHT_CHUNK", chunk)
        for S in (1, 2, 24, 256):
            ctx = DeformationContext(q=q, lattice_depth=S, tail_tol=tol)
            got, want = _weights.__wrapped__(ctx), _weights_per_level(ctx)
            assert np.array_equal(got.w.view(np.uint64), want.view(np.uint64))
            want_c = window_values(ctx)[0::2] * want / got.prefactor
            assert np.array_equal(got.c, want_c)


@pytest.mark.parametrize("q,S,N", [(0.5, 640, 1280), (0.3, 300, 800)])
def test_miller_sweep_raises_like_per_column_pass(q, S, N):
    ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
    xs = window_values(ctx)[0::2]
    want = _p_matrix_per_column(xs, N, ctx)[0]
    n, c = np.argwhere(~np.isfinite(want))[0]
    with pytest.raises(DomainError, match=rf"^p_{n} is not finite at "
                       rf"x = {float(xs[c])!r} "):
        _p_matrix(xs, N, ctx)


@pytest.mark.parametrize("q,S,N", [(0.97, 300, 700), (0.98, 350, 700),
                                   (0.99, 400, 800)])
def test_core_completeness_as_q_nears_one(q, S, N):
    # |1 - c_s sum_n p_n(q^s)^2| over the core levels s < S/2. With Miller's
    # start allowed before the last turning point of a_n, 2, 3 and 66 core
    # levels missed by up to 4.2e-7, 0.71 and 0.99
    ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
    values = build_mode_table("position", ctx).values[:, :S]
    defect = np.abs(1.0 - norm_c_window(ctx)[:S] * np.sum(values ** 2, axis=0))
    assert np.max(defect) <= 1e-8


@pytest.mark.parametrize("s", [116, 146])
def test_q099_columns_match_a_120_digit_recurrence(s):
    # p_n(q^s) for n < 40, where the forward recurrence carried in 120
    # digits keeps them all; with the old start these columns were off by
    # 0.63 and 0.67 of their largest entry
    ctx = DeformationContext(q=0.99, fock_dim=800, lattice_depth=400)
    got = build_mode_table("position", ctx).values[:40, 2 * s]
    with mpmath.workdps(120):
        q = mpmath.mpf(ctx.q)
        x = q ** s
        a = [mpmath.sqrt(q ** n * (1 - q ** (n + 1))) for n in range(40)]
        p = [mpmath.mpf(1), x / a[0]]
        for n in range(1, 39):
            p.append((x * p[n] - a[n - 1] * p[n - 1]) / a[n])
        want = np.array([float(v) for v in p])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("q,S,N,levels,bound", [
    (0.1, 32, 80, (2, 8, 16), 1e-14), (0.5, 128, 320, (16, 64, 120), 1e-14),
    (0.95, 256, 640, (48, 160, 240), 1e-14),
    (0.99, 400, 800, (25, 100, 200), 5e-14)])
def test_miller_band_matches_a_250_digit_recurrence(q, S, N, levels, bound):
    # Whole columns of the half table, through the Miller band (every row
    # below tail_start), against the forward recurrence carried in 250
    # digits. The reference runs at the exact lattice point q^s: at the
    # rounded double the true p_n picks up the growing solution past the
    # turning point. With the meet held back until |p_n| dipped below
    # 1e-2 of its running maximum, these columns were off by 1.1e-13 to
    # 1.1e-12 of their largest entry.
    ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
    values, tail_start = qhermite._half_table(ctx)
    for s in levels:
        t = int(tail_start[s])
        assert t < N  # the column has a Miller band
        with mpmath.workdps(250):
            qm = mpmath.mpf(q)
            x = qm ** s
            a = [mpmath.sqrt(qm ** n * (1 - qm ** (n + 1))) for n in range(t)]
            p = [mpmath.mpf(1), x / a[0]]
            for n in range(1, t - 1):
                p.append((x * p[n] - a[n - 1] * p[n - 1]) / a[n])
            want = np.array([float(v) for v in p[:t]])
        err = np.max(np.abs(values[:t, s] - want))
        assert err <= bound * np.max(np.abs(want)), (s, err)


def _orthogonality_residual_per_site(k, m, ctx):
    """orthogonality_residuals[k, m] as a scalar loop over the sites."""
    q, weights = ctx.q, _weights(ctx)

    def diag(j):
        return weights.prefactor * float(qpoch(q, j, ctx)) * q ** (j * (j - 1) // 2)

    def h(n, x):
        return _one_degree("hermite", n, x, ctx)

    lhs = 0.0
    for xs, ws in zip(window_values(ctx)[0::2].tolist(), weights.w.tolist()):
        plus = h(k, xs) * h(m, xs)
        minus = h(k, -xs) * h(m, -xs)
        lhs += xs * ws * (plus + minus)
    rhs = diag(m) if k == m else 0.0
    return abs(lhs - rhs) / (1.0 + math.sqrt(diag(k) * diag(m)))


@pytest.mark.parametrize("q,depth", [(0.3, 40), (0.5, 40), (0.8, 80)])
def test_orthogonality_residual_equals_per_site_loop(q, depth):
    # verify's sum-orthogonality contexts; qosc verify prints these bits
    ctx = DeformationContext(q=q, lattice_depth=depth)
    got = orthogonality_residuals(10, ctx)
    for k in range(11):
        for m in range(11):
            want = _orthogonality_residual_per_site(k, m, ctx)
            assert float(got[k, m]).hex() == want.hex()


@pytest.mark.parametrize("q,S,N", [(0.3, 100, 240), (0.5, 128, 320),
                                   (0.95, 256, 640), (0.99, 400, 800)])
def test_half_table_is_positive_zero_from_tail_start(q, S, N):
    # evolution._parity_product skips these rows of every column
    half, tail_start = qhermite._half_table(
        DeformationContext(q=q, lattice_depth=S, fock_dim=N))
    assert (tail_start < N).any()
    cut = half[np.arange(N)[:, None] >= tail_start]
    assert cut.size and np.all(cut == 0.0) and not np.signbit(cut).any()


def test_table_tail_flags(ctx):
    t = build_mode_table("position", ctx)
    for c in range(t.values.shape[1]):
        ts = t.tail_start[c]
        assert np.all(t.values[ts:, c] == 0.0)
        if ts < ctx.fock_dim:
            assert t.values[ts - 1, c] != 0.0


def test_table_kind_validation(ctx):
    with pytest.raises(ValidationError):
        build_mode_table("sideways", ctx)


def test_momentum_table_is_phase_twist(ctx):
    # numpy's 1j ** n is exact only below n = 100, hence the deeper context
    for c in (ctx, DeformationContext(q=0.5, lattice_depth=128, fock_dim=320)):
        pos = build_mode_table("position", c).values
        mom = build_mode_table("momentum", c).values
        phases = np.array([1, 1j, -1, -1j])[np.arange(c.fock_dim) % 4]
        assert np.array_equal(mom, phases[:, None] * pos)
        assert np.all(mom[0::2].imag == 0) and np.all(mom[1::2].real == 0)


def test_table_rebuild_is_bitwise_stable(ctx):
    a = build_mode_table("position", ctx)
    b = build_mode_table("position", ctx)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.tail_start, b.tail_start)


def test_lattice_weight_profile(ctx):
    w = [lattice_weight(lattice_point(1, s, ctx), ctx) for s in range(10)]
    assert w[0] == pytest.approx(0.6885375371203405, rel=1e-13)
    assert all(0 < a < 1 for a in w)
    assert all(b > a for a, b in zip(w, w[1:]))  # w_s -> 1 monotonically
    assert lattice_weight(lattice_point(-1, 4, ctx), ctx) == pytest.approx(w[4])
    assert np.allclose(lattice_weight_window(ctx)[0::2][:10], w)


def test_norm_c_ratio_identity():
    ctx = DeformationContext(q=0.8)
    q = ctx.q
    for s in range(20):
        got = norm_c(s + 1, ctx) / norm_c(s, ctx)
        assert got == pytest.approx(q / (1 - q ** (2 * s + 2)), rel=1e-13)


def test_norm_c_window_sums_to_one():
    ctx = DeformationContext(q=0.5, lattice_depth=60)
    assert float(np.sum(norm_c_window(ctx))) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("q,depth,tol", [(0.3, 40, 1e-9), (0.5, 40, 1e-9),
                                         (0.8, 80, 1e-7)])
def test_orthogonality_residuals(q, depth, tol):
    ctx = DeformationContext(q=q, lattice_depth=depth)
    assert orthogonality_residuals(5, ctx).max() < tol


def test_orthogonality_frozen_corner():
    ctx = DeformationContext(q=0.5, lattice_depth=40)
    assert orthogonality_residuals(0, ctx)[0, 0] < 5e-12


def test_dual_orthogonality():
    ctx = DeformationContext(q=0.5, lattice_depth=40, fock_dim=128)
    assert dual_orthogonality_residual(ctx) < 1e-10


def test_completeness_defect_shrinks_with_fock_dim():
    shallow = DeformationContext(q=0.5, lattice_depth=12, fock_dim=24)
    deep = DeformationContext(q=0.5, lattice_depth=12, fock_dim=64)
    d_shallow = completeness_defect(build_mode_table("position", shallow), shallow)
    d_deep = completeness_defect(build_mode_table("position", deep), deep)
    assert d_deep < d_shallow
    assert d_deep < 1e-10


def test_suggested_depth():
    assert suggested_depth(0.5, 1e-15) == 50
    assert suggested_depth(0.8, 1e-15) > suggested_depth(0.5, 1e-15)


@pytest.mark.parametrize("q", [0.998, 0.999])
def test_weights_outside_double_range_raise(q):
    ctx = DeformationContext(q=q)
    for call in (lambda: norm_c_window(ctx), lambda: norm_c(0, ctx),
                 lambda: lattice_weight_window(ctx),
                 lambda: lattice_weight(lattice_point(1, 0, ctx), ctx)):
        with pytest.raises(DomainError, match="outside double range"):
            call()


def test_weights_read_one_level_of_the_window(ctx):
    assert norm_c(3, ctx) == norm_c_window(ctx)[7]
    with pytest.raises(IndexOutOfRange):
        norm_c(ctx.lattice_depth, ctx)
