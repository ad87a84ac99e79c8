"""Lattice realizations: wavefunctions, inner products, operator actions.

A state with number-basis coefficients b_n becomes the lattice function
f(x) = sum_n b_n p_n(x) on the position window, or
F(p) = sum_n b_n i^n p_n(p) on the momentum window (same grid). Each
function here reads the representation from its input's kind. Both
kinds carry the inner product

    <f, g> = sum_s c_s [ f(+q^s) conj(g(+q^s)) + f(-q^s) conj(g(-q^s)) ]

with the normalized weights c_s. qhermite owns the window: every mode
table and weight read here comes from its per-context caches. Opposite-
sign terms are paired before accumulation, so parity-odd products
cancel exactly, not just approximately.

The generating-function wavefunctions are

    psi_x(y) = sum_n h_n(x) y^n / (q; q)_n = (y^2; q^2)_inf / (x y; q)_inf
    phi_p(y) = psi_p(i y) = (-y^2; q^2)_inf / (i p y; q)_inf

for |y| < 1: the momentum form twists h_n by i^n, which is the position
form at i y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .context import DeformationContext, _index
from .errors import (DimensionMismatch, DomainError, KindMismatch,
                     NonConvergent, TailTooLarge, ValidationError)
from .qcore import coupling, qpoch_inf
from .qhermite import (_KINDS, LatticePoint, _modes, _weights,
                       build_mode_table, forward_rows, norm_c, norm_c_window,
                       window_index, window_values)

_SERIES_CAP = 100000


@dataclass(frozen=True)
class LatticeFunction:
    """Values over the interleaved window, tagged by kind and rescaling."""

    kind: str
    values: np.ndarray
    rescaled: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=complex).reshape(-1))


@dataclass(frozen=True)
class WavefunctionQuery:
    """Evaluation request: lattice label, generating argument, route."""

    point: LatticePoint
    y: complex
    mode: str = "series"


def _check_window(f: LatticeFunction, ctx: DeformationContext, exc=DimensionMismatch):
    if f.values.shape[0] != 2 * ctx.lattice_depth:
        raise exc(
            f"function has {f.values.shape[0]} sites, window wants "
            f"{2 * ctx.lattice_depth}")


def _check_bare(f: LatticeFunction, ctx: DeformationContext):
    _check_window(f, ctx)
    if f.rescaled:
        raise KindMismatch("expected bare values, got rescaled ones")


def _series_sum(x: float, z: complex, ctx: DeformationContext) -> complex:
    """sum_n h_n(x) z^n / (q; q)_n, truncated at tail_tol.

    Stops only after three consecutive terms fall below the running
    threshold: individual h_n values pass through zero, so one small
    term proves nothing.
    """
    q = ctx.q
    h_prev, h_cur = 1.0, x
    poch = 1.0 - q
    total = 1.0 + 0.0j
    zn = z
    small_run = 0
    n = 1
    while True:
        term = h_cur * zn / poch
        if abs(term) < ctx.tail_tol * (1.0 + abs(total)):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
        total += term
        h_prev, h_cur = h_cur, x * h_cur - q ** (n - 1) * (1.0 - q**n) * h_prev
        poch *= 1.0 - q ** (n + 1)
        zn *= z
        n += 1
        if n > _SERIES_CAP:
            raise NonConvergent(f"wavefunction series did not settle by n={n}")
    return total


def _generating(x: float, z: complex, mode: str,
                ctx: DeformationContext) -> complex:
    """sum_n h_n(x) z^n / (q;q)_n by mode "series", or its closed form
    (z^2; q^2)_inf / (x z; q)_inf by mode "product"."""
    if abs(z) >= 1.0:
        raise DomainError(f"generating argument must satisfy |y| < 1, got |y|={abs(z)}")
    if mode == "series":
        return _series_sum(x, z, ctx)
    if mode == "product":
        num = qpoch_inf(z * z, ctx, base=ctx.q * ctx.q)
        return complex(num) / complex(qpoch_inf(x * z, ctx))
    raise ValidationError(f"mode must be 'series' or 'product', got {mode!r}")


def psi_eval(qry: WavefunctionQuery, ctx: DeformationContext) -> complex:
    """Position eigenfunction generating value psi_x(y), by qry.mode."""
    return _generating(qry.point.value, complex(qry.y), qry.mode, ctx)


def phi_eval(qry: WavefunctionQuery, ctx: DeformationContext) -> complex:
    """Momentum eigenfunction generating value phi_p(y) = psi_p(iy)."""
    return _generating(qry.point.value, 1j * complex(qry.y), qry.mode, ctx)


def normalized_eigenfunction(kind: str, pt: LatticePoint,
                             ctx: DeformationContext) -> np.ndarray:
    """Coefficients n < fock_dim of the unit eigenvector with eigenvalue
    sign*q^s: b_n = sqrt(c_s) p_n(x) for position, times i^n for momentum."""
    scale = math.sqrt(norm_c(pt.s, ctx))
    return scale * build_mode_table(kind, ctx).values[
        :, window_index(pt.sign, pt.s)].astype(complex)


def fock_to_lattice(b: np.ndarray, kind: str,
                    ctx: DeformationContext) -> LatticeFunction:
    """Realize coefficients as a window function of `kind`: sum_n b_n p_n(x)
    for position, sum_n b_n i^n p_n(p) for momentum."""
    b = np.asarray(b, dtype=complex).reshape(-1)
    if b.shape[0] > ctx.fock_dim:
        raise DimensionMismatch(
            f"{b.shape[0]} coefficients exceed fock_dim={ctx.fock_dim}")
    return LatticeFunction(kind, b @ _modes(kind, np.arange(b.shape[0]), ctx))


def _paired_inner(v1: np.ndarray, v2: np.ndarray,
                  ctx: DeformationContext) -> complex:
    prod = v1 * np.conj(v2)
    paired = prod[0::2] + prod[1::2]
    return complex(np.sum(_weights(ctx).c * paired))


def lattice_inner(f1: LatticeFunction, f2: LatticeFunction,
                  ctx: DeformationContext) -> complex:
    """Weighted window inner product of two bare functions of one kind."""
    _check_bare(f1, ctx)
    _check_bare(f2, ctx)
    if f1.kind != f2.kind:
        raise KindMismatch(f"kinds differ: {f1.kind} vs {f2.kind}")
    return _paired_inner(f1.values, f2.values, ctx)


@dataclass(frozen=True)
class ModeExpansion:
    coeffs: np.ndarray
    tail: float


def decompose(f: LatticeFunction, ctx: DeformationContext) -> ModeExpansion:
    """Project a bare window function onto the modes of its kind.

    coeffs[n] = <f, mode_n> with the window weights; tail is the mass
    |<f, f> - sum |coeffs|^2| the window could not attribute to modes
    n < fock_dim. Callers that resum after acting on coefficients should
    treat a large tail as a failure (the apply_* helpers do).
    """
    _check_bare(f, ctx)
    table = build_mode_table(f.kind, ctx)
    b = np.conj(table.values) @ (norm_c_window(ctx) * f.values)
    norm = _paired_inner(f.values, f.values, ctx).real
    tail = abs(norm - float(np.sum(np.abs(b) ** 2)))
    return ModeExpansion(coeffs=b, tail=tail)


def _roundtrip(f: LatticeFunction, ctx: DeformationContext, action) -> LatticeFunction:
    """decompose -> act on coefficients -> resum, guarding the tail.

    The tail guard fires at sqrt(match_tol): window-edge noise sits many
    orders below that, genuinely unresolvable content many above.
    """
    exp = decompose(f, ctx)
    if exp.tail >= math.sqrt(ctx.match_tol):
        raise TailTooLarge(
            f"mode expansion discards {exp.tail:.3e} of the norm "
            f"(limit {math.sqrt(ctx.match_tol):.1e}); deepen the window "
            "or raise fock_dim")
    return fock_to_lattice(action(exp.coeffs), f.kind, ctx)


def _tridiag_action(b: np.ndarray, ctx: DeformationContext,
                    upper_scale: complex, lower_scale: complex) -> np.ndarray:
    a = coupling(np.arange(b.shape[0] - 1, dtype=float), ctx)
    out = np.zeros_like(b)
    out[1:] += lower_scale * a * b[:-1]
    out[:-1] += upper_scale * a * b[1:]
    return out


def _act(f: LatticeFunction, ctx: DeformationContext, own_kind: Optional[str],
         action) -> LatticeFunction:
    """An operator on a bare function: multiplication by the site value on
    the operator's own window (own_kind), else action on the coefficients."""
    _check_bare(f, ctx)
    if f.kind == own_kind:
        return LatticeFunction(f.kind, window_values(ctx) * f.values)
    return _roundtrip(f, ctx, action)


def apply_Q(f: LatticeFunction, ctx: DeformationContext) -> LatticeFunction:
    """Position operator. On momentum functions it is the same real
    tridiagonal coefficient action as Q has on the number basis."""
    return _act(f, ctx, "position", lambda b: _tridiag_action(b, ctx, 1.0, 1.0))


def apply_P(f: LatticeFunction, ctx: DeformationContext) -> LatticeFunction:
    """Momentum operator. On position functions it maps coefficients by
    b_n -> i a_{n-1} b_{n-1} - i a_n b_{n+1}."""
    return _act(f, ctx, "momentum", lambda b: _tridiag_action(b, ctx, -1j, 1j))


def apply_H(f: LatticeFunction, ctx: DeformationContext) -> LatticeFunction:
    """Oscillator Hamiltonian: multiplies mode n by n + 1/2."""
    n = np.arange(ctx.fock_dim, dtype=float) + 0.5
    return _act(f, ctx, None, lambda b: n * b)


def mode_function(n: int, ctx: DeformationContext,
                  kind: str = "position") -> LatticeFunction:
    """The n-th mode as a window function (a table row), for
    0 <= n < fock_dim (IndexOutOfRange otherwise)."""
    n = _index(n, "degree", ctx.fock_dim)
    return LatticeFunction(kind, _modes(kind, n, ctx))


def q_difference_P_oracle(n: int, ctx: DeformationContext) -> LatticeFunction:
    """P applied to mode n via the q-difference form, not the recurrence:
    an independent check of apply_P on position functions.

    The bracket [D_q + q^{-2} W^{-1} D_{1/q} W] p_n, W(x) = (q^2 x^2; q^2)_inf,
    comes from one forward pass over x, q x and x / q on the window (honest
    for shallow n), through W(x/q) = (1 - x^2) W(x): no infinite product.
    Its least-squares split u p_{n+1} + v p_{n-1} (v = 0 at n = 0) gives
    P p_n = -i (1 - q) (q^{n+1} u p_{n+1} + q^{n-1} v p_{n-1}).
    """
    q = ctx.q
    x = window_values(ctx)
    p = forward_rows("orthonormal", n + 1, np.stack([x, q * x, x / q]), ctx)
    pn, pn_down, pn_up = p[n]
    dq = (pn - pn_down) / ((1.0 - q) * x)
    dqi = (pn - (1.0 - x * x) * pn_up) / ((1.0 - 1.0 / q) * x) / (q * q)
    A = np.stack([p[n + 1, 0]] + ([p[n - 1, 0]] if n >= 1 else []), axis=1)
    sol, *_ = np.linalg.lstsq(A, dq + dqi, rcond=None)
    vals = q ** (n + 1) * float(sol[0]) * A[:, 0]
    if n >= 1:
        vals = vals + q ** (n - 1) * float(sol[1]) * A[:, 1]
    return LatticeFunction("position", -1j * (1.0 - q) * vals)
