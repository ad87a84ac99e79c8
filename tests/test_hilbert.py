import math

import numpy as np
import pytest

from qosc import (CoefficientVector, DeformationContext, DimensionMismatch,
                  DomainError, IndexOutOfRange, KindMismatch, LatticeFunction,
                  TailTooLarge, ValidationError, WavefunctionQuery, apply_H,
                  apply_P, apply_Q, basis_coeff, coupling, decompose,
                  fock_inner, fock_to_lattice, lattice_inner, lattice_point,
                  mode_function, normalized_eigenfunction, phi_eval,
                  psi_eval, q_difference_P_oracle, rescaled_mode,
                  window_values)


def test_lattice_function_kind_guard():
    with pytest.raises(ValidationError):
        LatticeFunction(kind="diagonal", values=np.zeros(4))


def test_psi_series_equals_product(ctx):
    for s in (0, 1, 3):
        for sign in (1, -1):
            pt = lattice_point(sign, s, ctx)
            for y in (0.4, -0.62, 0.3 + 0.5j, 0.9j):
                a = psi_eval(WavefunctionQuery(pt, y, "series"), ctx)
                b = psi_eval(WavefunctionQuery(pt, y, "product"), ctx)
                assert a == pytest.approx(b, rel=1e-11)


def test_psi_pinned_value(ctx):
    pt = lattice_point(1, 0, ctx)
    val = psi_eval(WavefunctionQuery(pt, 0.5, "product"), ctx)
    assert val.real == pytest.approx(2.3842310, abs=1e-6)
    assert abs(val.imag) < 1e-15


def test_psi_rejects_bad_input(ctx):
    pt = lattice_point(1, 0, ctx)
    with pytest.raises(DomainError):
        psi_eval(WavefunctionQuery(pt, 1.0, "series"), ctx)
    with pytest.raises(ValidationError):
        psi_eval(WavefunctionQuery(pt, 0.5, "closed"), ctx)


def test_psi_series_survives_zero_terms(ctx):
    # h_1(x) vanishes at x = 0-adjacent arguments of the series; a single
    # zero term must not stop the summation early
    pt = lattice_point(1, 5, ctx)
    a = psi_eval(WavefunctionQuery(pt, 0.45, "series"), ctx)
    b = psi_eval(WavefunctionQuery(pt, 0.45, "product"), ctx)
    assert a == pytest.approx(b, rel=1e-11)


def test_phi_series_equals_product(ctx):
    # phi_p(y) = psi_p(iy), so the product is (-y^2; q^2)_inf / (ipy; q)_inf
    for s in (0, 1, 3):
        for sign in (1, -1):
            pt = lattice_point(sign, s, ctx)
            for y in (0.4, -0.62, 0.3 + 0.5j, 0.9j):
                a = phi_eval(WavefunctionQuery(pt, y, "series"), ctx)
                b = phi_eval(WavefunctionQuery(pt, y, "product"), ctx)
                assert a == pytest.approx(b, rel=1e-11)


def test_normalized_eigenfunction_rejects_an_unknown_kind(ctx):
    with pytest.raises(ValidationError, match="kind"):
        normalized_eigenfunction("bogus", lattice_point(1, 0, ctx), ctx)


def test_normalized_eigenfunction_unit_norm(ctx):
    b = normalized_eigenfunction("position", lattice_point(1, 0, ctx), ctx)
    assert float(np.sum(np.abs(b) ** 2)) == pytest.approx(1.0, abs=1e-12)
    # six eigenvectors at N = 60 are orthonormal, and fock_inner agrees
    ctx = DeformationContext(q=0.5, fock_dim=60)
    pts = [lattice_point(sg, s, ctx) for sg in (1, -1) for s in (0, 1, 3)]
    vecs = np.array([normalized_eigenfunction("position", p, ctx)
                     for p in pts])
    assert np.max(np.abs(np.conj(vecs) @ vecs.T - np.eye(len(pts)))) < 1e-8
    cn = np.array([basis_coeff(n, ctx) for n in range(ctx.fock_dim)])
    f0 = CoefficientVector(vecs[0] * cn)
    f1 = CoefficientVector(vecs[2] * cn)
    assert abs(fock_inner(f0, f0, ctx) - 1.0) < 1e-8
    assert abs(fock_inner(f0, f1, ctx)) < 1e-8


def test_roundtrip_fock_window_fock(rng):
    ctx = DeformationContext(q=0.5, lattice_depth=50)
    b = np.zeros(ctx.fock_dim, dtype=complex)
    b[:24] = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    f = fock_to_lattice(b, "position", ctx)
    exp = decompose(f, ctx)
    assert np.allclose(exp.coeffs, b, atol=1e-8)
    assert exp.tail < 1e-10
    g = fock_to_lattice(b, "momentum", ctx)
    exp = decompose(g, ctx)
    assert np.allclose(exp.coeffs, b, atol=1e-8)
    assert exp.tail < 1e-10


def test_parity_inner_products_exactly_zero(ctx):
    f_even = mode_function(2, ctx)
    f_odd = mode_function(3, ctx)
    assert lattice_inner(f_even, f_odd, ctx) == 0j


def test_position_inner_kind_guards(ctx):
    f = mode_function(1, ctx)
    g = LatticeFunction(kind="momentum", values=f.values)
    with pytest.raises(KindMismatch):
        lattice_inner(f, g, ctx)
    r = LatticeFunction(kind="position", values=f.values, rescaled=True)
    with pytest.raises(KindMismatch):
        lattice_inner(f, r, ctx)
    short = LatticeFunction(kind="position", values=f.values[:10])
    with pytest.raises(DimensionMismatch):
        lattice_inner(f, short, ctx)


def test_momentum_inner_orthonormal_modes(ctx):
    for n, m in ((0, 0), (2, 2), (1, 4)):
        f = mode_function(n, ctx, kind="momentum")
        g = mode_function(m, ctx, kind="momentum")
        want = 1.0 if n == m else 0.0
        assert lattice_inner(f, g, ctx) == pytest.approx(want, abs=1e-9)


def test_mode_degree_outside_the_fock_space_raises(ctx):
    # -1 used to index the table from its end and return mode fock_dim - 1
    for n in (-1, ctx.fock_dim, 2.0):
        for kind in ("position", "momentum"):
            with pytest.raises(IndexOutOfRange):
                mode_function(n, ctx, kind=kind)
        with pytest.raises(IndexOutOfRange):
            rescaled_mode(n, ctx)


def test_fock_to_position_length_guard(ctx):
    with pytest.raises(DimensionMismatch):
        fock_to_lattice(np.zeros(ctx.fock_dim + 1), "position", ctx)


def test_apply_Q_is_multiplication(ctx):
    f = mode_function(4, ctx)
    xf = apply_Q(f, ctx)
    assert np.allclose(xf.values, window_values(ctx) * f.values, atol=1e-12)


def test_apply_Q_recurrence_in_mode_space(ctx):
    n = 4
    got = apply_Q(mode_function(n, ctx), ctx)
    a_n = float(coupling(n, ctx))
    a_m = float(coupling(n - 1, ctx))
    want = a_n * mode_function(n + 1, ctx).values \
        + a_m * mode_function(n - 1, ctx).values
    assert np.allclose(got.values, want, atol=1e-11)


def test_apply_H_scales_modes(ctx):
    n = 3
    out = apply_H(mode_function(n, ctx), ctx)
    # reconstruction noise in the deep modes is amplified by n + 1/2
    assert np.allclose(out.values, (n + 0.5) * mode_function(n, ctx).values,
                       atol=1e-7)
    out_m = apply_H(mode_function(n, ctx, kind="momentum"), ctx)
    assert np.allclose(out_m.values,
                       (n + 0.5) * mode_function(n, ctx, kind="momentum").values,
                       atol=1e-7)


def test_apply_P_momentum_is_multiplication(ctx):
    f = mode_function(2, ctx, kind="momentum")
    pf = apply_P(f, ctx)
    assert np.allclose(pf.values, window_values(ctx) * f.values, atol=1e-12)


def test_position_momentum_twist(ctx):
    # multiplying coefficients by i^n turns Q-action into P-action
    n = 3
    qn = apply_Q(mode_function(n, ctx, kind="momentum"), ctx)
    pn = apply_P(mode_function(n, ctx), ctx)
    a_n = float(coupling(n, ctx))
    a_m = float(coupling(n - 1, ctx))
    want_q = a_n * mode_function(n + 1, ctx, kind="momentum").values \
        + a_m * mode_function(n - 1, ctx, kind="momentum").values
    assert np.allclose(qn.values, want_q, atol=1e-11)
    want_p = 1j * a_n * mode_function(n + 1, ctx).values \
        - 1j * a_m * mode_function(n - 1, ctx).values
    assert np.allclose(pn.values, want_p, atol=1e-11)


def test_tail_guard_fires():
    # almost no modes available: a generic window function cannot be
    # represented and the roundtrip must refuse, not truncate silently
    ctx = DeformationContext(q=0.5, fock_dim=6, lattice_depth=24)
    rng = np.random.default_rng(3)
    f = LatticeFunction(kind="position",
                        values=rng.standard_normal(48).astype(complex))
    with pytest.raises(TailTooLarge):
        apply_H(f, ctx)


def test_q_difference_oracle_matches_recurrence(ctx):
    core = slice(0, 42)
    for n in (1, 2, 3):
        oracle = q_difference_P_oracle(n, ctx)
        direct = apply_P(mode_function(n, ctx), ctx)
        assert np.max(np.abs(oracle.values[core] - direct.values[core])) < 5e-9

