"""Every public builder, at any small context and any tau, returns finite
values or raises a QoscError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosc import (DeformationContext, QoscError, build_mode_table, build_Q,
                  decompose, dual_orthogonality_residual, evolve,
                  fractional_ft, intertwine_residual, kernel_K, mode_function,
                  norm_drift_max, rescaled_mode, spectrum_report)


def _numbers(out) -> list:
    """The float and complex figures a builder returned."""
    if hasattr(out, "matched"):  # a SpectrumReport
        return ([m.value for m in out.matched] + [m.error for m in out.matched]
                + out.unmatched + [out.max_error])
    if hasattr(out, "tail"):  # a ModeExpansion
        return [*out.coeffs, out.tail]
    for field in ("matrix", "values"):  # a kernel, table or lattice function
        if hasattr(out, field):
            return list(np.ravel(getattr(out, field)))
    return [out]


_BUILDERS = {
    "spectrum_report": lambda ctx, tau: spectrum_report(build_Q(ctx), ctx),
    "build_mode_table": lambda ctx, tau: build_mode_table("momentum", ctx),
    "fractional_ft": lambda ctx, tau: fractional_ft(tau, ctx),
    "kernel_K": lambda ctx, tau: kernel_K(tau, ctx),
    "evolve": lambda ctx, tau: evolve(rescaled_mode(0, ctx), tau, ctx),
    "decompose": lambda ctx, tau: decompose(mode_function(0, ctx), ctx),
    "dual_orthogonality_residual":
        lambda ctx, tau: dual_orthogonality_residual(ctx),
    "norm_drift_max": lambda ctx, tau: norm_drift_max(ctx),
    "intertwine_residual": lambda ctx, tau: intertwine_residual(ctx),
}


@pytest.mark.parametrize("name", sorted(_BUILDERS))
@given(q=st.floats(0.05, 0.99), fock_dim=st.integers(1, 40),
       lattice_depth=st.integers(1, 20), tau=st.floats())
@settings(max_examples=20, deadline=None)
def test_builders_return_finite_values_or_raise_a_qosc_error(
        name, q, fock_dim, lattice_depth, tau):
    ctx = DeformationContext(q=q, fock_dim=fock_dim,
                             lattice_depth=lattice_depth)
    try:
        out = _BUILDERS[name](ctx, tau)
    except QoscError:
        return
    assert all(map(math.isfinite, map(abs, _numbers(out))))
