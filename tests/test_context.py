"""The input rules of qosc.context, at every call site that applies them:
counts and indices (_index), floats strictly inside (0, 1) (_unit_float)."""

import numpy as np
import pytest

from qosc import (DeformationContext, IndexOutOfRange, LatticePoint,
                  ValidationError, basis_coeff, fock_monomial, forward_rows,
                  lattice_point, mode_function, norm_c, qpoch, rescaled_mode,
                  suggested_depth)


@pytest.mark.parametrize("field", ["fock_dim", "lattice_depth"])
def test_context_sizes_take_numpy_ints_and_store_ints(field):
    ctx = DeformationContext(q=0.5, **{field: np.int64(4)})
    assert getattr(ctx, field) == 4 and type(getattr(ctx, field)) is int
    assert ctx == DeformationContext(q=0.5, **{field: 4})


@pytest.mark.parametrize("value", [True, False, 0, -1, 4.0, np.float64(4.0),
                                   "4", None])
@pytest.mark.parametrize("field", ["fock_dim", "lattice_depth"])
def test_context_sizes_reject_what_is_no_positive_count(field, value):
    with pytest.raises(ValidationError):
        DeformationContext(q=0.5, **{field: value})


@pytest.mark.parametrize("value", ["x", None, 0.0, 1.0, -0.5, np.nan, 1,
                                   True, np.float32(0.5)])
@pytest.mark.parametrize("field", ["q", "tail_tol", "match_tol"])
def test_context_floats_reject_what_is_no_float_inside_0_1(field, value):
    kwargs = {"q": 0.5, field: value}
    with pytest.raises(ValidationError):
        DeformationContext(**kwargs)


def test_context_q_is_stored_as_a_float():
    ctx = DeformationContext(q=np.float64(0.5))
    assert type(ctx.q) is float and ctx == DeformationContext(q=0.5)


@pytest.mark.parametrize("q, eps", [("x", 1e-15), (0.5, "x"), (1.0, 1e-15),
                                    (0.5, 0.0), (True, 1e-15)])
def test_suggested_depth_rejects_what_the_context_rejects(q, eps):
    with pytest.raises(ValidationError):
        suggested_depth(q, eps)


def test_counts_take_numpy_ints_everywhere(ctx):
    i = np.int64(2)
    assert lattice_point(1, i, ctx) == lattice_point(1, 2, ctx)
    assert type(lattice_point(1, i, ctx).s) is int
    assert type(LatticePoint(1, i, 0.25).s) is int
    assert np.array_equal(mode_function(i, ctx).values,
                          mode_function(2, ctx).values)
    assert np.array_equal(rescaled_mode(i, ctx).values,
                          rescaled_mode(2, ctx).values)
    assert qpoch(0.3, i, ctx) == qpoch(0.3, 2, ctx)
    assert basis_coeff(i, ctx) == basis_coeff(2, ctx)
    assert np.array_equal(fock_monomial(i, ctx).coeffs,
                          fock_monomial(2, ctx).coeffs)
    assert np.array_equal(forward_rows("orthonormal", i, 0.5, ctx),
                          forward_rows("orthonormal", 2, 0.5, ctx))
    assert norm_c(i, ctx) == norm_c(2, ctx)


@pytest.mark.parametrize("call", [
    lambda ctx: lattice_point(1, True, ctx),
    lambda ctx: mode_function(True, ctx),
    lambda ctx: rescaled_mode(True, ctx),
    lambda ctx: qpoch(0.3, True, ctx),
    lambda ctx: basis_coeff(True, ctx),
    lambda ctx: fock_monomial(True, ctx),
    lambda ctx: forward_rows("hermite", True, 0.5, ctx),
    lambda ctx: norm_c(False, ctx),
], ids=["lattice_point", "mode_function", "rescaled_mode", "qpoch",
        "basis_coeff", "fock_monomial", "forward_rows", "norm_c"])
def test_counts_reject_bool_where_they_index(ctx, call):
    with pytest.raises(IndexOutOfRange):
        call(ctx)


@pytest.mark.parametrize("sign, s", [(1, True), (True, 1), (-1, False)])
def test_lattice_point_rejects_a_bool_sign_or_level(sign, s):
    with pytest.raises(ValidationError):
        LatticePoint(sign, s, 0.5)
