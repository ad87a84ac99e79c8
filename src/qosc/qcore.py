"""Basic q-arithmetic and the truncated number-basis model.

Conventions used throughout the package, for 0 < q < 1:

* q-number        [a]_q = (1 - q^a) / (1 - q)
* finite product  (a; q)_n = prod_{k=0}^{n-1} (1 - a q^k)
* infinite product (a; q)_inf, truncated once |a q^k| < tail_tol
* number basis    e_n = c_n y^n with c_0 = 1 and
                  c_{n+1} = c_n q^{n/2} / sqrt(1 - q^{n+1}),
  so that e_n has unit norm in the inner product implemented by
  fock_inner. The closed form c_n = q^{n(n-1)/4} / (q; q)_n^{1/2}
  is available as basis_coeff_direct for cross-checking; the running
  recurrence is the numerically preferred route.

Polynomial-side operators act on CoefficientVector, whose slot n holds
the coefficient of y^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, islice
from typing import Sequence, Union

import numpy as np

from .context import DeformationContext
from .errors import (DomainError, IndexOutOfRange, NonConvergent,
                     ValidationError)

Scalar = Union[float, complex]

_MAX_PRODUCT_TERMS = 10**6


def q_number(a: float, ctx: DeformationContext) -> float:
    """[a]_q = (1 - q^a) / (1 - q); [0]_q = 0, [1]_q = 1, and
    [a]_q -> a as q -> 1."""
    return (1.0 - ctx.q**a) / (1.0 - ctx.q)


def qpoch(a: Scalar, n: int, ctx: DeformationContext) -> Scalar:
    """Finite q-shifted factorial (a; q)_n.

    The factors are multiplied in ascending k, so
    qpoch(a, n + 1) == qpoch(a, n) * (1 - a q^n) holds exactly in
    floating arithmetic, not merely approximately.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise IndexOutOfRange(f"qpoch order must be a non-negative int, got {n!r}")
    value: Scalar = 1.0
    qk = 1.0
    for _ in range(int(n)):
        value = value * (1.0 - a * qk)
        qk *= ctx.q
    return value


def qpoch_inf(a: Scalar, ctx: DeformationContext,
              base: float | None = None) -> Scalar:
    """Infinite q-shifted factorial (a; base)_inf.

    Factors (1 - a base^k) are multiplied until |a base^k| < tail_tol.
    base defaults to ctx.q (pass base=q*q for the even-spaced products
    that appear in lattice weights).

    Real a >= 1 makes a leading factor vanish or change sign, so it
    raises DomainError. Complex a of any magnitude is fine.
    """
    q = ctx.q if base is None else base
    if not 0.0 < q < 1.0:
        raise DomainError(f"product base must lie in (0, 1), got {q!r}")
    is_real = isinstance(a, (int, float, np.floating)) or (
        isinstance(a, complex) and a.imag == 0.0)
    if is_real and complex(a).real >= 1.0:
        raise DomainError(
            f"(a; q)_inf with real a = {a!r} >= 1 vanishes or alternates")
    value: Scalar = 1.0
    mag = abs(a)
    qk = 1.0
    k = 0
    while mag * qk >= ctx.tail_tol:
        value = value * (1.0 - a * qk)
        qk *= q
        k += 1
        if k > _MAX_PRODUCT_TERMS:
            raise NonConvergent(
                f"(a; q)_inf did not reach tail_tol={ctx.tail_tol} "
                f"within {_MAX_PRODUCT_TERMS} factors (a={a!r}, base={q!r})")
    return value


def coupling(n, ctx: DeformationContext):
    """Tridiagonal coupling a_n = sqrt(q^n (1 - q^{n+1})).

    Accepts a scalar degree or an ndarray of degrees. These numbers are
    simultaneously the off-diagonal entries of the position operator and
    the recurrence coefficients of the orthonormal lattice polynomials.
    """
    n = np.asarray(n, dtype=float)
    q = ctx.q
    out = np.sqrt(q**n * (1.0 - q ** (n + 1.0)))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class CoefficientVector:
    """Polynomial in y by coefficients; slot n holds the y^n coefficient."""

    coeffs: np.ndarray = field()

    def __init__(self, coeffs: Sequence[Scalar] | np.ndarray):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim > 1:
            raise ValidationError(
                f"coefficients must be one-dimensional, got shape {arr.shape}")
        object.__setattr__(self, "coeffs", arr.reshape(-1))

    def __len__(self) -> int:
        return self.coeffs.shape[0]


def scale_op(f: CoefficientVector, a: Scalar) -> CoefficientVector:
    """(T_a f)(y) = f(a y): multiplies slot n by a^n."""
    n = np.arange(len(f), dtype=float)
    return CoefficientVector(f.coeffs * np.asarray(a) ** n)


def q_diff(f: CoefficientVector, ctx: DeformationContext) -> CoefficientVector:
    """q-derivative D_q f(y) = (f(y) - f(qy)) / ((1 - q) y).

    On coefficients: slot n of the result is [n+1]_q times slot n+1 of f.
    The degree drops by one; constants map to the zero vector.
    """
    if len(f) <= 1:
        return CoefficientVector(np.zeros(0))
    n = np.arange(1, len(f), dtype=float)
    return CoefficientVector(f.coeffs[1:] * q_number(n, ctx))


def _basis_coeffs(q: float):
    """c_0, c_1, ... by the stable running recurrence from c_0 = 1."""
    c = 1.0
    for k in count():
        yield c
        c = c * q ** (k / 2.0) / math.sqrt(1.0 - q ** (k + 1))


def basis_coeff(n: int, ctx: DeformationContext) -> float:
    """c_n by the stable running recurrence from c_0 = 1."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise IndexOutOfRange(f"basis degree must be a non-negative int, got {n!r}")
    return next(islice(_basis_coeffs(ctx.q), int(n), None))


def basis_coeff_direct(n: int, ctx: DeformationContext) -> float:
    """c_n by the closed form q^{n(n-1)/4} / sqrt((q; q)_n).

    Agrees with basis_coeff to 1e-13 relative for n <= 200; kept for
    cross-checking only, the recurrence is what the package uses.
    """
    return ctx.q ** (n * (n - 1) / 4.0) / math.sqrt(float(qpoch(ctx.q, n, ctx)))


def fock_monomial(n: int, ctx: DeformationContext) -> CoefficientVector:
    """Unit basis vector e_n = c_n y^n, for 0 <= n < fock_dim."""
    if not isinstance(n, (int, np.integer)) or not 0 <= n < ctx.fock_dim:
        raise IndexOutOfRange(
            f"basis index {n!r} outside [0, {ctx.fock_dim})")
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = basis_coeff(int(n), ctx)
    if coeffs[n] == 0.0:
        raise DomainError(
            f"basis normalizer c_{n} underflows at q={ctx.q}; this basis "
            f"vector has no monomial representation in double precision")
    return CoefficientVector(coeffs)


def _b_space(f: CoefficientVector, ctx: DeformationContext) -> np.ndarray:
    """Coefficients of f over the orthonormal e_n, i.e. b_n = f_n / c_n.

    Dividing slotwise by a running c_n avoids forming 1 / c_n^2, which
    overflows long before b itself does.
    """
    out = np.empty(len(f), dtype=complex)
    for k, c in zip(range(len(f)), _basis_coeffs(ctx.q)):
        if c < 1e-290:
            # c_n has underflowed; any mass left this deep is unrecoverable
            if abs(f.coeffs[k]) != 0.0:
                raise DomainError(
                    f"basis normalizer underflows at index {k}; the "
                    f"coefficient there cannot be converted")
            out[k] = 0.0
        else:
            out[k] = f.coeffs[k] / c
    return out


def fock_inner(f1: CoefficientVector, f2: CoefficientVector,
               ctx: DeformationContext) -> complex:
    """Inner product in which the e_n are orthonormal.

    <f, g> = sum_n (f_n / c_n) conj(g_n / c_n). Linear in the first
    argument, conjugate-linear in the second. Vector lengths must stay
    within fock_dim.
    """
    if len(f1) > ctx.fock_dim or len(f2) > ctx.fock_dim:
        raise IndexOutOfRange(
            f"coefficient vectors must have length <= fock_dim="
            f"{ctx.fock_dim}, got {len(f1)} and {len(f2)}")
    m = min(len(f1), len(f2))
    if m == 0:
        return 0.0 + 0.0j
    b1 = _b_space(CoefficientVector(f1.coeffs[:m]), ctx)
    b2 = _b_space(CoefficientVector(f2.coeffs[:m]), ctx)
    return complex(np.sum(b1 * np.conj(b2)))


def apply_raising(f: CoefficientVector, ctx: DeformationContext) -> CoefficientVector:
    """Raising generator in the y-realization: sqrt(q/(1-q)) * y * f(qy).

    Sends e_n to sqrt(q^{n+1} [n+1]_q) e_{n+1}.
    """
    q = ctx.q
    scaled = scale_op(f, q)
    coeffs = np.concatenate([[0.0 + 0.0j], scaled.coeffs])
    return CoefficientVector(math.sqrt(q / (1.0 - q)) * coeffs)


def apply_lowering(f: CoefficientVector, ctx: DeformationContext) -> CoefficientVector:
    """Lowering generator in the y-realization: sqrt(q(1-q)) * D_q f.

    Sends e_n to sqrt(q^n [n]_q) e_{n-1}; constants go to zero.
    """
    q = ctx.q
    d = q_diff(f, ctx)
    return CoefficientVector(math.sqrt(q * (1.0 - q)) * d.coeffs)
