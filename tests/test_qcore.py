import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosc import (CoefficientVector, DeformationContext, DomainError,
                  IndexOutOfRange, ValidationError, apply_lowering,
                  apply_raising, basis_coeff, coupling, fock_inner,
                  fock_monomial, q_diff, q_number, qpoch, qpoch_inf, scale_op)
from qosc.qcore import basis_coeff_direct


def test_q_number_values(ctx):
    assert q_number(0, ctx) == 0.0
    assert q_number(1, ctx) == 1.0
    assert q_number(2, ctx) == pytest.approx(1.5)
    assert q_number(3, ctx) == pytest.approx(1.75)


def test_qpoch_empty_and_first(ctx):
    assert qpoch(0.3, 0, ctx) == 1.0
    assert qpoch(0.3, 1, ctx) == pytest.approx(0.7)
    with pytest.raises(IndexOutOfRange):
        qpoch(0.3, -1, ctx)


@given(a=st.floats(-0.99, 0.99), n=st.integers(0, 20))
@settings(max_examples=60, deadline=None)
def test_qpoch_recurrence_exact(a, n):
    ctx = DeformationContext(q=0.5)
    assert qpoch(a, n + 1, ctx) == qpoch(a, n, ctx) * (1.0 - a * ctx.q**n)


def test_qpoch_inf_frozen_values():
    ctx = DeformationContext(q=0.25)
    assert qpoch_inf(0.25, ctx) == pytest.approx(
        0.6885375371203405, rel=1e-14)
    ctx = DeformationContext(q=0.5)
    assert qpoch_inf(0.5, ctx) == pytest.approx(
        0.2887880950866029, rel=1e-14)


def test_qpoch_inf_reports_terms(ctx):
    out = qpoch_inf(0.5, ctx)
    # tighter tail tolerance must not move the value materially
    tight = qpoch_inf(0.5, DeformationContext(q=0.5, tail_tol=1e-18))
    assert tight == pytest.approx(out, rel=1e-13)


def test_qpoch_inf_domain_guard(ctx):
    with pytest.raises(DomainError):
        qpoch_inf(1.2, ctx)


def test_qpoch_inf_base_override(ctx):
    q2 = ctx.q**2
    direct = qpoch_inf(q2, ctx, base=q2)
    via_split = qpoch_inf(ctx.q, ctx) * qpoch_inf(-ctx.q, ctx)
    assert direct == pytest.approx(via_split, rel=1e-13)


def test_coupling_vectorized(ctx):
    n = np.arange(6)
    a = coupling(n, ctx)
    q = ctx.q
    for k in range(6):
        assert a[k] == pytest.approx(math.sqrt(q**k * (1 - q ** (k + 1))))


def test_basis_coeff_frozen(ctx):
    assert basis_coeff(0, ctx) == 1.0
    assert basis_coeff(1, ctx) == pytest.approx(1.414213562373095)
    assert basis_coeff(2, ctx) == pytest.approx(1.1547005383792517)


def test_basis_coeff_recurrence_matches_direct():
    # compare only in the range where neither route has underflowed
    for q in (0.3, 0.5, 0.8):
        ctx = DeformationContext(q=q)
        for n in range(0, 201, 7):
            a = basis_coeff(n, ctx)
            b = basis_coeff_direct(n, ctx)
            if abs(a) > 1e-290 and abs(b) > 1e-290:
                assert a == pytest.approx(b, rel=1e-12)
            else:
                assert abs(a - b) < 1e-290


def test_coefficient_vector_shape():
    f = CoefficientVector(np.array([1.0, 2.0]))
    assert f.coeffs.dtype == complex
    assert len(f) == 2
    with pytest.raises(ValidationError):
        CoefficientVector(np.ones((2, 2)))


@given(a=st.floats(0.1, 1.5), b=st.floats(0.1, 1.5))
@settings(max_examples=40, deadline=None)
def test_scale_op_composes(a, b):
    f = CoefficientVector(np.array([1.0, -0.5, 0.25, 2.0]))
    lhs = scale_op(scale_op(f, a), b).coeffs
    rhs = scale_op(f, a * b).coeffs
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=0)


def test_q_diff_drops_constants(ctx):
    const = CoefficientVector(np.array([3.0]))
    d = q_diff(const, ctx)
    assert np.all(d.coeffs == 0)
    f = CoefficientVector(np.array([0.0, 1.0]))  # f(y) = y
    assert q_diff(f, ctx).coeffs[0] == pytest.approx(1.0)


def test_fock_monomial_bounds(ctx):
    with pytest.raises(IndexOutOfRange):
        fock_monomial(-1, ctx)
    with pytest.raises(IndexOutOfRange):
        fock_monomial(ctx.fock_dim, ctx)


def test_fock_monomial_underflow_is_loud():
    ctx = DeformationContext(q=0.3)
    with pytest.raises(DomainError):
        fock_monomial(60, ctx)


def test_fock_inner_orthonormal_basis(ctx):
    for n in (0, 1, 5, 12):
        e_n = fock_monomial(n, ctx)
        assert fock_inner(e_n, e_n, ctx) == pytest.approx(1.0, rel=1e-12)
    e2, e3 = fock_monomial(2, ctx), fock_monomial(3, ctx)
    assert abs(fock_inner(e2, e3, ctx)) < 1e-15


def test_fock_inner_frozen_monomial_value(ctx):
    y = CoefficientVector(np.array([0.0, 1.0]))
    assert fock_inner(y, y, ctx) == pytest.approx(0.5, rel=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fock_inner_hermitian_and_positive(seed):
    ctx = DeformationContext(q=0.5)
    r = np.random.default_rng(seed)
    f = CoefficientVector(r.standard_normal(8) + 1j * r.standard_normal(8))
    g = CoefficientVector(r.standard_normal(8) + 1j * r.standard_normal(8))
    assert fock_inner(f, g, ctx) == pytest.approx(
        np.conj(fock_inner(g, f, ctx)), rel=1e-12)
    norm = fock_inner(f, f, ctx)
    assert norm.real > 0
    assert abs(norm.imag) <= 1e-13 * norm.real


def test_fock_inner_length_guard(ctx):
    too_long = CoefficientVector(np.zeros(ctx.fock_dim + 1))
    with pytest.raises(IndexOutOfRange):
        fock_inner(too_long, too_long, ctx)


def test_ladder_matrix_elements(ctx):
    q = ctx.q
    for n in (0, 1, 4):
        e_n = fock_monomial(n, ctx)
        up = apply_raising(e_n, ctx)
        want = math.sqrt(q ** (n + 1) * (1 - q ** (n + 1)) / (1 - q))
        got = fock_inner(up, fock_monomial(n + 1, ctx), ctx)
        assert got == pytest.approx(want, rel=1e-13)
    assert np.all(apply_lowering(fock_monomial(0, ctx), ctx).coeffs == 0)


def test_ladder_commutator_on_vacuum(ctx):
    e0 = fock_monomial(0, ctx)
    down_up = apply_lowering(apply_raising(e0, ctx), ctx)
    # raising then lowering the vacuum scales it by exactly q
    got = fock_inner(down_up, e0, ctx)
    assert got == pytest.approx(ctx.q, rel=1e-13)
