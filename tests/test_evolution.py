import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qosc import (AlreadyRescaled, DeformationContext, DimensionMismatch,
                  DomainError, EvolutionKernel, KindMismatch, LatticeFunction,
                  NotRescaled, ValidationError, build_Q, evolve,
                  fractional_ft, group_law_residual,
                  heisenberg_rotation_check, identity_residual,
                  intertwine_residual, inverse_residual, kernel_K,
                  kernel_sign_flip_residual, mode_function, norm_drift_max,
                  periodicity_residual, phase_map_residual, rescale,
                  rescaled_mode, spectrum_report, standard_inner,
                  unitarity_residual, unrescale)
from qosc.evolution import _FOLD_BLOCK, _certificate, _parity_product
from qosc.qhermite import (_half_table, _weights, build_mode_table,
                           lattice_weight_window, norm_c_window)


@pytest.fixture
def ectx():
    return DeformationContext(q=0.5, lattice_depth=30, fock_dim=80)


def test_identity_kernel(ectx):
    assert identity_residual(ectx) < 1e-10


def test_periodicity(ectx):
    assert periodicity_residual(0.7, ectx) < 1e-12


def test_raw_kernel_sign_flip(ectx):
    # the half-integer ground energy makes a 2 pi rotation flip the sign
    assert kernel_sign_flip_residual(ectx) < 1e-12


def test_unitarity_within_tail_bound(ectx):
    k = fractional_ft(1.0, ectx)
    resid, bound = unitarity_residual(k, ectx)
    assert resid < bound


def test_group_law(ectx):
    assert group_law_residual(0.3, 1.0, ectx) < 1e-8


def test_inverse(ectx):
    assert inverse_residual(math.pi / 2, ectx) < 1e-8


def test_quarter_turn_phases(ectx):
    assert phase_map_residual(ectx) < 1e-8


def test_quarter_turn_reaches_momentum_realization(ectx):
    assert intertwine_residual(ectx, seed=0) < 1e-7


def test_norm_drift(ectx):
    assert norm_drift_max(ectx, n_draws=30, seed=0) < 1e-7


@pytest.mark.parametrize("tau", [math.pi / 6, math.pi / 2, math.pi])
def test_heisenberg_rotation(tau, ectx):
    assert heisenberg_rotation_check(tau, ectx) < 1e-12


def test_rescale_roundtrip(ectx):
    f = mode_function(2, ectx)
    r = rescale(f, ectx)
    assert r.rescaled
    with pytest.raises(AlreadyRescaled):
        rescale(r, ectx)
    back = unrescale(r, ectx)
    assert not back.rescaled
    assert np.allclose(back.values, f.values, rtol=1e-13)
    with pytest.raises(NotRescaled):
        unrescale(f, ectx)


def test_rescaled_modes_orthonormal(ectx):
    for n, m in ((0, 0), (3, 3), (1, 2)):
        val = standard_inner(rescaled_mode(n, ectx), rescaled_mode(m, ectx), ectx)
        assert val == pytest.approx(1.0 if n == m else 0.0, abs=5e-9)


def _phase_defect_norm(n, tau, ctx):
    f = rescaled_mode(n, ctx)
    out = evolve(f, tau, ctx)
    diff = LatticeFunction("position",
                           out.values - np.exp(1j * n * tau) * f.values,
                           rescaled=True)
    return abs(standard_inner(diff, diff, ctx)) ** 0.5


def test_evolve_mode_phase_in_physical_norm(ectx):
    # even modes leak into the deep even rows near the window edge; the
    # leak is nearly orthogonal to the state and small in the window norm,
    # though its sup over the deepest sites is O(1)
    for n in (0, 3, 6):
        assert _phase_defect_norm(n, 0.9, ectx) < 1e-4


def test_evolve_phase_defect_shrinks_with_depth(ectx):
    shallow = _phase_defect_norm(4, 0.9, ectx)
    deeper = DeformationContext(q=0.5, lattice_depth=44, fock_dim=112)
    assert _phase_defect_norm(4, 0.9, deeper) < shallow / 50
    assert _phase_defect_norm(4, 0.9, deeper) < 1e-6


def test_evolve_guards(ectx):
    f = rescaled_mode(1, ectx)
    bare = unrescale(f, ectx)
    with pytest.raises(NotRescaled):
        evolve(bare, 0.5, ectx)
    wrong_kind = LatticeFunction(kind="momentum", values=f.values, rescaled=True)
    with pytest.raises(KindMismatch):
        evolve(wrong_kind, 0.5, ectx)
    short = LatticeFunction(kind="position", values=f.values[:10], rescaled=True)
    with pytest.raises(DimensionMismatch):
        evolve(short, 0.5, ectx)
    raw = kernel_K(0.5, ectx)
    with pytest.raises(KindMismatch):
        evolve(f, 0.5, ectx, kernel=raw)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["kernel_K", "fractional_ft", "evolve"])
def test_non_finite_tau_is_a_validation_error(entry, tau, ectx):
    # a NaN or infinite angle would give all-NaN phases e^{i n tau}
    call = {"kernel_K": lambda: kernel_K(tau, ectx),
            "fractional_ft": lambda: fractional_ft(tau, ectx),
            "evolve": lambda: evolve(rescaled_mode(1, ectx), tau, ectx)}[entry]
    with pytest.raises(ValidationError, match="tau must be finite"):
        call()


def test_evolve_with_precomputed_kernel(ectx):
    f = rescaled_mode(2, ectx)
    k = fractional_ft(0.4, ectx)
    a = evolve(f, 0.4, ectx)
    b = evolve(f, 0.4, ectx, kernel=k)
    assert np.array_equal(a.values, b.values)


def test_kernel_variant_validation(ectx):
    k = fractional_ft(0.1, ectx)
    with pytest.raises(ValidationError):
        EvolutionKernel(tau=k.tau, variant="bogus", q=k.q, n_max=k.n_max,
                        lattice_depth=k.lattice_depth, matrix=k.matrix,
                        tail_estimate=k.tail_estimate, s_match=k.s_match)


def test_low_confidence_band(ectx):
    k = fractional_ft(0.3, ectx)
    assert k.low_confidence(k.s_match)
    assert not k.low_confidence(k.s_match - 4)


def test_standard_inner_requires_rescaled(ectx):
    f = mode_function(0, ectx)
    with pytest.raises(NotRescaled):
        standard_inner(f, f, ectx)


def test_plan_arrays_are_read_only(ectx):
    w = _weights(ectx)
    for a in (_half_table(ectx)[0], w.c, w.sqrt_w):
        with pytest.raises(ValueError):
            a[0] = 1.0
    k = fractional_ft(0.6, ectx)
    expected = k.matrix.copy()
    k.matrix[:] = 0.0
    assert np.array_equal(fractional_ft(0.6, ectx).matrix, expected)


def test_plan_cache_stays_bounded(ectx):
    maxsize = _certificate.cache_info().maxsize
    for depth in range(4, 4 + maxsize + 3):
        fractional_ft(0.2, replace(ectx, lattice_depth=depth,
                                   fock_dim=2 * depth))
        for cache in (_certificate, _half_table, _weights):
            assert cache.cache_info().currsize <= cache.cache_info().maxsize


@pytest.mark.parametrize("q", [0.5, 0.95])
def test_kernels_match_complex_gemm(q):
    # the kernels fold A^T diag(e^{i n tau}) A by parity into real products
    # on the half window; the plain complex product over the full, freshly
    # built table is the reference
    ctx = DeformationContext(q=q, lattice_depth=40, fock_dim=100)
    tau = 0.83
    A = build_mode_table("position", ctx).values
    G = A.T @ (np.exp(1j * tau * np.arange(ctx.fock_dim))[:, None] * A)
    cs = norm_c_window(ctx)
    sw = np.sqrt(lattice_weight_window(ctx))
    phi = (sw[:, None] / sw[None, :]) * G * cs[None, :]
    raw = np.exp(1j * tau / 2.0) * G * cs[None, :]
    for got, want in ((fractional_ft(tau, ctx).matrix, phi),
                      (kernel_K(tau, ctx).matrix, raw)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


# windows smaller than one block, a multiple of it and not, S = 1, N = 1
# and odd N
_FOLD_SIZES = [(0.5, 1, 1), (0.5, 5, 1), (0.5, 1, 7), (0.5, 30, 80),
               (0.5, 2 * _FOLD_BLOCK, 320), (0.95, 2 * _FOLD_BLOCK + 3, 321)]
_FOLD_TAUS = [0.0, math.pi / 2, 2 * math.pi, -1.3]


def _unblocked(ctx, tau):
    """The parity products A^T diag(e^{i n tau}) A, A = half[p::2], as one
    complex product each."""
    half = _half_table(ctx)[0]
    phases = np.exp(1j * tau * np.arange(ctx.fock_dim))
    return [half[p::2].T @ (phases[p::2, None] * half[p::2]) for p in (0, 1)]


@pytest.mark.parametrize("tau", _FOLD_TAUS)
@pytest.mark.parametrize("q, S, N", _FOLD_SIZES + [(0.99, 150, 301),
                                                   (0.99, 400, 800)])
def test_parity_products_are_symmetric_within_the_summation_bound(
        q, S, N, tau):
    # each entry of either product lies within 1e-13 of the sum of its
    # terms' magnitudes: a bound every summation order meets, also at
    # q = 0.99, where entries cancel terms 1e14 times their size
    ctx = DeformationContext(q=q, lattice_depth=S, fock_dim=N)
    half, tail_start = _half_table(ctx)
    phases = np.exp(1j * tau * np.arange(N))
    for p, want in enumerate(_unblocked(ctx, tau)):
        got = _parity_product(half[p::2], phases[p::2], tail_start, p)
        assert np.array_equal(_bits(got), _bits(got.T))
        size = np.abs(half[p::2]).T @ np.abs(half[p::2])
        assert np.all(np.abs(got - want) <= 1e-13 * size)


@pytest.mark.parametrize("tau", _FOLD_TAUS)
@pytest.mark.parametrize("q, S, N", _FOLD_SIZES)
def test_blocked_fold_matches_the_unblocked_product(q, S, N, tau):
    ctx = DeformationContext(q=q, lattice_depth=S, fock_dim=N)
    half, tail_start = _half_table(ctx)
    phases = np.exp(1j * tau * np.arange(N))
    E, O = _unblocked(ctx, tau)
    for p, want in enumerate((E, O)):
        got = _parity_product(half[p::2], phases[p::2], tail_start, p)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    w = _weights(ctx)
    for make, scale in (
            (kernel_K, np.exp(1j * tau / 2.0) * w.c[None, :]),
            (fractional_ft, (w.sqrt_w[:, None] / w.sqrt_w[None, :])
             * w.c[None, :])):
        want = np.empty((2 * S, 2 * S), dtype=complex)
        want[0::2, 0::2] = want[1::2, 1::2] = scale * (E + O)
        want[0::2, 1::2] = want[1::2, 0::2] = scale * (E - O)
        got = make(tau, ctx).matrix
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_blocked_fold_reads_every_tail_start_of_a_block():
    # a column whose backward pass failed keeps tail_start = N and its
    # full forward values, wherever it sits in its block
    ctx = DeformationContext(q=0.5, lattice_depth=2 * _FOLD_BLOCK,
                             fock_dim=320)
    half, tail_start = _half_table(ctx)
    A, ts = half.copy(), tail_start.copy()
    A[:, 3] = np.random.default_rng(0).standard_normal(320)
    ts[3] = 320
    assert ts[3] > ts[_FOLD_BLOCK - 1] < 320
    ph = np.exp(0.4j * np.arange(320))
    for p in (0, 1):
        got = _parity_product(A[p::2], ph[p::2], ts, p)
        want = A[p::2].T @ (ph[p::2, None] * A[p::2])
        size = np.abs(A[p::2]).T @ np.abs(A[p::2])
        assert np.all(np.abs(got - want) <= 1e-13 * size)


@pytest.mark.parametrize("change", ["tau", "q", "n_max", "lattice_depth"])
def test_evolve_rejects_a_kernel_built_for_another_call(change, ectx):
    # the kernel's matrix is not applied, so a mismatch would otherwise be
    # silently ignored
    other = {"tau": (0.3, ectx), "q": (0.7, replace(ectx, q=0.8)),
             "n_max": (0.7, replace(ectx, fock_dim=90)),
             "lattice_depth": (0.7, replace(ectx, lattice_depth=31))}
    tau, ctx = other[change]
    k = fractional_ft(tau, ctx)
    with pytest.raises(ValidationError):
        evolve(rescaled_mode(2, ectx), 0.7, ectx, kernel=k)


def test_evolve_computes_no_kernel_certificate(monkeypatch, ectx):
    # only the kernels report s_match; evolve reads the window arrays alone.
    # The context is used by no other test, so no certificate is cached.
    def boom(T, ctx):
        raise AssertionError("Sturm count ran")

    ctx = replace(ectx, fock_dim=81)
    F = rescaled_mode(3, ctx)
    monkeypatch.setattr("qosc.evolution._count_s_match", boom)
    got = evolve(F, 0.4, ctx).values
    with pytest.raises(AssertionError, match="Sturm count"):
        fractional_ft(0.4, ctx)
    monkeypatch.undo()
    want = fractional_ft(0.4, ctx).matrix @ F.values
    assert np.max(np.abs(got - want)) < 1e-13


def test_deep_window_raises_instead_of_non_finite_values():
    ctx = DeformationContext(q=0.3, fock_dim=800, lattice_depth=300)
    # the entry the per-column oracle of test_qhermite.py reports first
    with pytest.raises(DomainError, match=r"p_587 .*\(level 292\)"):
        build_mode_table("position", ctx)
    with pytest.raises(DomainError):
        fractional_ft(0.5, ctx)


@pytest.mark.parametrize("q", [0.998, 0.999])
def test_weights_outside_double_range_stop_the_kernels(q):
    ctx = DeformationContext(q=q)
    for make in (fractional_ft, kernel_K):
        with pytest.raises(DomainError, match="outside double range"):
            make(0.5, ctx)


def test_underflowing_deep_weights_keep_the_kernel_finite():
    # c_s underflows to exact 0 on the deepest 82 levels; those sites carry
    # no weight, which is not an error
    ctx = DeformationContext(q=0.3, fock_dim=64, lattice_depth=700)
    assert int(np.sum(norm_c_window(ctx) == 0.0)) == 164
    k = fractional_ft(1.0, ctx)
    assert np.isfinite(k.matrix).all()
    assert k.s_match == 31


@pytest.mark.parametrize("q", [0.3, 0.5, 0.95])
def test_plan_half_is_the_tables_plus_x_columns(q):
    ctx = DeformationContext(q=q, lattice_depth=40, fock_dim=100)
    table = build_mode_table("position", ctx).values
    assert np.array_equal(_half_table(ctx)[0], table[:, 0::2])
    sw = np.sqrt(lattice_weight_window(ctx))
    for n in (0, 1, 6, 37):
        assert np.array_equal(rescaled_mode(n, ctx).values, sw * table[n])


@pytest.mark.parametrize("make", [fractional_ft, kernel_K])
def test_kernel_parity_blocks_are_bitwise_equal(make, ectx):
    K = make(0.9, ectx).matrix
    assert np.array_equal(K[0::2, 0::2], K[1::2, 1::2])
    assert np.array_equal(K[0::2, 1::2], K[1::2, 0::2])


@pytest.mark.parametrize("q", [0.5, 0.95])
def test_matrix_free_evolve_matches_the_dense_kernel(q):
    ctx = DeformationContext(q=q, lattice_depth=40, fock_dim=100)
    rng = np.random.default_rng(5)
    F = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    for tau in (0.0, 0.83, -2.1):
        got = evolve(LatticeFunction("position", F, rescaled=True), tau, ctx)
        want = fractional_ft(tau, ctx).matrix @ F
        assert np.max(np.abs(got.values - want)) <= 1e-13 * np.max(np.abs(F))


_REFERENCES = sorted((Path(__file__).parents[1] / "perfbench" / "reference")
                     .glob("*.npz"))


@pytest.mark.parametrize("q, N, S", [(0.7, 5, 4), (0.7, 8, 4), (0.5, 44, 10),
                                     (0.5, 80, 30)])
def test_kernel_s_match_is_the_bisections(q, N, S):
    # the contexts of tests/golden/, test_cli and ectx
    ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
    want = spectrum_report(build_Q(ctx), ctx).s_match
    assert fractional_ft(0.4, ctx).s_match == want
    assert kernel_K(0.4, ctx).s_match == want


@pytest.mark.parametrize("path", _REFERENCES, ids=lambda p: p.stem)
def test_kernel_s_match_on_benchmark_references(path):
    # the benchmark's reference files store the bisection's s_match
    ref = np.load(path)
    ctx = DeformationContext(q=float(ref["q"]), fock_dim=int(ref["N"]),
                             lattice_depth=int(ref["S"]))
    want = spectrum_report(build_Q(ctx), ctx).s_match
    assert want == int(ref["s_match"])
    assert fractional_ft(1.1, ctx).s_match == want
