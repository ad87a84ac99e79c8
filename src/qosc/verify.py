"""Named end-to-end verification checks.

run_verification executes every analytic identity the library claims
and reports one named result per check: residual, tolerance, pass flag,
wall time. The table in default_checks is the battery's one declaration:
each family lists the contexts it runs on, and a check is named after
its own context's q, or plainly where one body runs at several. The
report's qs are the q's of every context, ascending (0.25 for a pinned
(q;q)_inf, 0.3 to 0.95, and ladder-limit's 0.999 and 0.9999 toward the
q -> 1 limit). The whole battery is sized to finish in well under a
minute. One family covers both closed-form wavefunctions:
psi-closed-form compares phi_eval's series and product too, since
phi_p(y) = psi_p(iy), and phi's series with i^n h_n(p) y^n / (q;q)_n
summed apart.

corrupt_coupling=True deliberately perturbs one off-diagonal coupling
inside the q=0.5 commutator check; it exists so callers can confirm the
battery actually fails when the algebra is broken.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Tuple

import numpy as np

from .context import DeformationContext, suggested_depth
from .errors import QoscError
from .evolution import (fractional_ft, group_law_residual,
                        heisenberg_rotation_check, identity_residual,
                        intertwine_residual, inverse_residual, kernel_K,
                        kernel_sign_flip_residual, norm_drift_max,
                        periodicity_residual, phase_map_residual,
                        unitarity_residual)
from .fock import (build_F_of_H, build_H, build_ladders, build_P, build_Q,
                   commutator, eigendecompose, eigenvalues,
                   spectrum_report)
from .hilbert import (WavefunctionQuery, apply_P, apply_Q, fock_to_lattice,
                      mode_function, normalized_eigenfunction, phi_eval,
                      psi_eval, q_difference_P_oracle)
from .qcore import (apply_lowering, apply_raising, coupling, fock_inner,
                    fock_monomial, qpoch, qpoch_inf, scale_op)
from .qhermite import (_I_POWERS, _p_matrix, build_mode_table,
                       dual_orthogonality_residual, forward_rows,
                       lattice_point, lattice_weight, norm_c, norm_c_window,
                       orthogonality_residuals, window_values)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    runtime_s: float
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    overall_pass: bool
    seed: int
    qs: Tuple[float, ...]
    runtime_s: float
    checks: List[CheckResult] = field(default_factory=list)


# -- individual check bodies (residual, tolerance, detail) --------------
# Each takes the context its table rung declares, then the rung's extras,
# or the contexts it runs at as the keyword ctxs.

def _spectrum_match(ctx: DeformationContext, s_cap: int, tol: float):
    rep = spectrum_report(build_Q(ctx), ctx)
    errs = [m.error for m in rep.matched if m.s <= s_cap]
    return max(errs), tol, f"N={ctx.fock_dim}, s<= {s_cap}, s_match={rep.s_match}"


def _spectrum_negation(ctx: DeformationContext):
    # eigenvalues() builds its result as +-(singular values), which no
    # roundoff can unbalance; the dense eigensolver computes each sign
    v = np.sort(eigendecompose(build_Q(ctx), ctx)[0])
    return float(np.max(np.abs(v + v[::-1]))), 1e-12, "spectrum symmetric under negation"


def _spectrum_bound(ctx: DeformationContext):
    vals = eigenvalues(build_Q(ctx), ctx)
    return max(0.0, float(np.max(np.abs(vals))) - 1.0), 1e-12, "|lambda| <= 1"


def _commutators(ctx: DeformationContext, corrupt: bool = False):
    Q = build_Q(ctx).to_dense().astype(complex)
    if corrupt:
        Q[3, 4] *= 1.0 + 1e-6
        Q[4, 3] *= 1.0 + 1e-6
    P = build_P(ctx).to_dense()
    H = build_H(ctx).to_dense().astype(complex)
    F = build_F_of_H(ctx).to_dense().astype(complex)
    d = ctx.fock_dim - 2
    r1 = np.max(np.abs((H @ Q - Q @ H + 1j * P)[:d, :d]))
    r2 = np.max(np.abs((H @ P - P @ H - 1j * Q)[:d, :d]))
    r3 = np.max(np.abs((Q @ P - P @ Q - 1j * F)[:d, :d]))
    detail = "interior block, [H,Q]+iP, [H,P]-iQ, [Q,P]-iF(H)"
    if corrupt:
        detail += " (coupling a_3 deliberately corrupted)"
    return float(max(r1, r2, r3)), 1e-12, detail


def _ladder_conjugation(ctx: DeformationContext):
    low, rai = build_ladders(ctx)
    Q = build_Q(ctx).to_dense().astype(complex)
    P = build_P(ctx).to_dense()
    target = 0.5 * math.sqrt(ctx.q / (1.0 - ctx.q)) * (Q - 1j * P)
    r1 = np.max(np.abs(rai - target))
    C = commutator(low, rai)
    r2 = abs(C[0, 0] - ctx.q)
    return float(max(r1, r2)), 1e-13, "raising = (1/2)sqrt(q/(1-q))(Q-iP); [low,rai] e_0 = q e_0"


def _ladder_limit(ctx: DeformationContext, tol: float):
    n_cap = ctx.fock_dim - 2  # the last degree carries the truncation defect
    low, rai = build_ladders(ctx)
    diag = np.diag(commutator(low, rai)).real
    dev = float(np.max(np.abs(diag[: n_cap + 1] - 1.0)))
    return dev, tol, f"diag of [lowering, raising] near 1 for n <= {n_cap}"


def _y_realization(ctx: DeformationContext):
    # n capped at 40: past that the basis normalizer c_n underflows at
    # small q and the monomial inner products degenerate
    q = ctx.q
    worst = 0.0
    for n in range(0, 41, 5):
        e_n = fock_monomial(n, ctx)
        up = apply_raising(e_n, ctx)
        expect_up = math.sqrt(q ** (n + 1) * (1.0 - q ** (n + 1)) / (1.0 - q))
        coef = fock_inner(up, fock_monomial(n + 1, ctx), ctx)
        worst = max(worst, abs(coef - expect_up))
        if n >= 1:
            down = apply_lowering(e_n, ctx)
            expect_dn = math.sqrt(q**n * (1.0 - q**n) / (1.0 - q))
            coef = fock_inner(down, fock_monomial(n - 1, ctx), ctx)
            worst = max(worst, abs(coef - expect_dn))
        tq = scale_op(e_n, q)
        worst = max(worst, abs(fock_inner(tq, e_n, ctx) - q**n))
    return worst, 1e-12, "raising/lowering/scale reproduce ladder coefficients on e_n"


def _qpoch_recurrence(ctx: DeformationContext):
    worst = 0.0
    for a in (-0.9, -0.3, 0.1, 0.5, 0.99):
        for n in (0, 1, 2, 5, 11):
            lhs = qpoch(a, n + 1, ctx)
            rhs = qpoch(a, n, ctx) * (1.0 - a * ctx.q**n)
            worst = max(worst, abs(lhs - rhs))
    return worst, 0.0, "(a;q)_{n+1} = (a;q)_n (1 - a q^n), exact float identity"


def _qpoch_pinned(*, ctxs):
    frozen = {0.25: 0.6885375371203405, 0.5: 0.2887880950866029}
    r = max(abs(qpoch_inf(ctx.q, ctx) - frozen[ctx.q]) for ctx in ctxs)
    return float(r), 1e-12, "(0.25;0.25)_inf and (0.5;0.5)_inf frozen values"


def _qpoch_stability(ctx: DeformationContext):
    loose = qpoch_inf(0.7, replace(ctx, tail_tol=1e-12))
    tight = qpoch_inf(0.7, replace(ctx, tail_tol=1e-14))
    return abs(loose - tight) / abs(tight), 1e-10, "tail_tol 1e-12 vs 1e-14"


def _mode_parity(ctx: DeformationContext):
    # the recurrence runs at -x itself: the table's -x columns are a mirror
    t = build_mode_table("position", ctx)
    minus, _ = _p_matrix(window_values(ctx)[1::2], ctx.fock_dim, ctx)
    signs = (-1.0) ** np.arange(ctx.fock_dim)
    diff = minus - signs[:, None] * t.values[:, 0::2]
    return float(np.max(np.abs(diff))), 0.0, "p_n(-x) = (-1)^n p_n(x), bitwise"


def _hermite_mode_consistency(ctx: DeformationContext):
    # generic abscissas only: at lattice points both forward recurrences
    # shed the minimal branch and stop agreeing past n ~ 2s
    q = ctx.q
    xs = (0.7, 0.2, -0.43, 1.3)
    ps, hs = (forward_rows(f, 30, xs, ctx).tolist() for f in ("orthonormal", "hermite"))
    worst = 0.0
    for n in range(0, 31, 3):
        scale = 1.0 / math.sqrt(float(qpoch(q, n, ctx))) / q ** (n * (n - 1) / 4.0)
        for p, h in zip(ps[n], hs[n]):
            worst = max(worst, abs(p - scale * h) / max(abs(p), 1e-30))
    return worst, 1e-9, "p_n vs rescaled h_n at generic points, n <= 30"


def _dual_orth(ctx: DeformationContext):
    return dual_orthogonality_residual(ctx), 1e-8, (
        f"S={ctx.lattice_depth}, N={ctx.fock_dim}, core margin 4")


def _sum_orth(ctx: DeformationContext, tol: float):
    worst = float(orthogonality_residuals(10, ctx).max())
    return worst, tol, f"S={ctx.lattice_depth}, degrees k,m <= 10, normalized residual"


def _euler_weights(ctx: DeformationContext):
    q = ctx.q
    q2 = q * q
    lhs = qpoch_inf(q, ctx) * qpoch_inf(-q, ctx)
    rhs = qpoch_inf(q2, ctx, base=q2)
    r1 = abs(lhs - rhs) / abs(rhs)
    m1 = qpoch_inf(-1.0, ctx)
    r2 = abs(m1 - 2.0 * qpoch_inf(-q, ctx)) / abs(m1)
    return float(max(r1, r2)), 1e-13, "(q;q)(-q;q) = (q^2;q^2); (-1;q) = 2(-q;q)"


def _row_completeness(ctx: DeformationContext):
    # |p_n(x)| grows like q^{-n/4} toward x = 0, so the lattice must reach
    # n/2 levels past the nominal tail depth before row sums settle
    depth = ctx.fock_dim // 2 + suggested_depth(ctx.q, 1e-15)
    ctx = replace(ctx, lattice_depth=depth)
    t = build_mode_table("position", ctx)
    cs = norm_c_window(ctx)
    sums = np.sum(cs[None, :] * t.values**2, axis=1)
    return float(np.max(np.abs(sums - 1.0))), 1e-8, f"sum_x c_x p_n(x)^2 = 1, S={depth}"


def _norm_c_ratio(ctx: DeformationContext):
    # a factor common to every weight cancels in the ratios; w_0 pins it
    q = ctx.q
    w0 = lattice_weight(lattice_point(1, 0, ctx), ctx)
    want = float(qpoch_inf(q * q, ctx, base=q * q))
    worst = abs(w0 - want) / want
    for s in range(0, 25):
        ratio = norm_c(s + 1, ctx) / norm_c(s, ctx)
        target = q / (1.0 - q ** (2 * s + 2))
        worst = max(worst, abs(ratio - target) / target)
    return worst, 1e-12, "c_{s+1}/c_s = q / (1 - q^{2s+2}), w_0 = (q^2; q^2)_inf"


def _psi_closed_form(*, ctxs):
    # phi_eval's series and product both see its factor i, so phi's series
    # is also held to sum_n i^n h_n(p) y^n / (q;q)_n, to n = 60
    worst = 0.0
    for ctx in ctxs:
        q = ctx.q
        for s in (0, 1, 3):
            for sign in (1, -1):
                pt = lattice_point(sign, s, ctx)
                cases = [(psi_eval, y) for y in (0.3, -0.55, 0.2 + 0.6j, 0.85j)]
                if (q, s) == (0.5, 1):
                    cases.append((phi_eval, 0.5))
                    h = forward_rows("hermite", 60, pt.value, ctx).tolist()
                    want = sum(_I_POWERS[n % 4] * hn * 0.5**n / qpoch(q, n, ctx)
                               for n, hn in enumerate(h))
                    got = phi_eval(WavefunctionQuery(pt, 0.5, "series"), ctx)
                    worst = max(worst, abs(got - want) / abs(want))
                for evaluate, y in cases:
                    a = evaluate(WavefunctionQuery(pt, y, "series"), ctx)
                    b = evaluate(WavefunctionQuery(pt, y, "product"), ctx)
                    worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    return worst, 1e-10, ("psi and phi = psi at iy, series vs product over "
                          "lattice points and |y| < 1, phi's series vs i^n "
                          "h_n(p) y^n / (q;q)_n")


def _psi_pinned(*, ctxs):
    ctx, = ctxs
    val = psi_eval(WavefunctionQuery(lattice_point(1, 0, ctx), 0.5, "product"), ctx)
    return abs(val - 2.3842310), 1e-6, "psi_{x=1}(0.5) at q=0.5"


def _eigenvector_mode_ratio(ctx: DeformationContext):
    # past n ~ 9 the q^{-n^2/4} dominant branch amplifies the eigenvalue's
    # truncation error and the comparison stops being meaningful
    q = ctx.q
    vals, vecs = eigendecompose(build_Q(ctx), ctx)
    levels = (0, 2, 5, 8)
    p = forward_rows("orthonormal", 9, [q**s for s in levels], ctx)
    worst = 0.0
    for c, s in enumerate(levels):
        idx = int(np.argmin(np.abs(vals - q**s)))
        v = vecs[:, idx]
        for n in range(1, 10):
            worst = max(worst, abs(v[n] / v[0] - float(p[n, c])))
    return worst, 1e-8, "eigenvector component ratios equal p_n(q^s), n <= 9"


def _position_eigenrelation(ctx: DeformationContext):
    worst = 0.0
    for s in (0, 3, 7):
        pt = lattice_point(1, s, ctx)
        b = normalized_eigenfunction("position", pt, ctx)
        f = fock_to_lattice(b, "position", ctx)
        xf = apply_Q(f, ctx)
        worst = max(worst, float(np.max(np.abs(xf.values - ctx.q**s * f.values))))
    return worst, 1e-8, "multiplication by x fixes the eigenfunction, up to truncation"


def _momentum_equivalence(ctx: DeformationContext):
    n = ctx.fock_dim
    D = np.diag(1j ** np.arange(n))
    Q = build_Q(ctx).to_dense().astype(complex)
    P = build_P(ctx).to_dense()
    r = np.max(np.abs(D @ Q @ np.conj(D.T) - P))
    return float(r), 1e-13, "diag(i^n) Q diag(i^n)^* = P"


def _q_difference_P(ctx: DeformationContext):
    # roundoff in the divided differences is amplified by 1/x, so compare
    # on levels s <= 20 where the amplification stays below the tolerance
    core = slice(0, 42)
    worst = 0.0
    for n in (1, 2, 3):
        oracle = q_difference_P_oracle(n, ctx)
        direct = apply_P(mode_function(n, ctx), ctx)
        diff = oracle.values[core] - direct.values[core]
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst, 5e-9, "q-difference route vs recurrence route for P, s <= 20"


def _parseval(ctx: DeformationContext):
    # sup |<b1, b2> - <f1, f2>| over unit b1, b2 on modes n < 32 is
    # max |eig(G - I)|; 1e-8 / 64 is a 1e-8 bound on states of norm 8
    depth = suggested_depth(ctx.q, 1e-15)
    ctx = replace(ctx, lattice_depth=depth)
    modes = build_mode_table("position", ctx).values[:32]
    G = (modes * norm_c_window(ctx)) @ modes.T
    r = float(np.max(np.abs(np.linalg.eigvalsh(G - np.eye(32)))))
    return r, 1e-8 / 64, (f"mode-space vs window inner product, S={depth}, "
                          "sup over unit states on 32 modes")


def _evolve_identity(ctx: DeformationContext, tol: float):
    return identity_residual(ctx), tol, f"S={ctx.lattice_depth}, N={ctx.fock_dim}"


def _evolve_group(ctx: DeformationContext):
    r = max(group_law_residual(0.3, 1.0, ctx),
            group_law_residual(math.pi / 2, math.pi / 2, ctx))
    return r, 1e-8, "pairs (0.3, 1.0) and (pi/2, pi/2), buffered window"


def _evolve_inverse(ctx: DeformationContext):
    return inverse_residual(math.pi / 2, ctx), 1e-8, "Phi(pi/2) Phi(-pi/2) = I, buffered"


def _evolve_phase_map(ctx: DeformationContext):
    return phase_map_residual(ctx), 1e-8, "Phi(pi/2) F_n = i^n F_n, n <= 20, buffered"


def _evolve_intertwine(ctx: DeformationContext):
    # a 1e-7 bound on states of norm sqrt(24), per unit norm
    return intertwine_residual(ctx), 2e-8, (
        "pi/2 evolution lands on the momentum realization, sup over unit "
        "states on modes n < 12, buffered")


def _evolve_unitarity(ctx: DeformationContext):
    k = fractional_ft(1.0, ctx)
    resid, bound = unitarity_residual(k, ctx)
    return resid, bound, f"Gram defect vs lattice tail bound {bound:.2e}"


def _evolve_drift(ctx: DeformationContext):
    return norm_drift_max(ctx), 1e-7, (
        f"relative norm drift, S={ctx.lattice_depth}, N={ctx.fock_dim}, "
        "sup over states on modes n < 10")


def _evolve_periodicity(ctx: DeformationContext):
    return periodicity_residual(0.7, ctx), 1e-10, "Phi(tau + 2 pi) = Phi(tau)"


def _kernel_sign_flip(ctx: DeformationContext):
    return kernel_sign_flip_residual(ctx), 1e-12, "K(2 pi) = -K(0)"


def _kernel_column_symmetry(ctx: DeformationContext):
    k = kernel_K(0.7, ctx)
    cs = norm_c_window(ctx)
    G = k.matrix / cs[None, :]
    r = float(np.max(np.abs(G - G.T)) / np.max(np.abs(G)))
    return r, 1e-12, "K / c_{col} is symmetric (relative)"


def _heisenberg(ctx: DeformationContext):
    r = max(heisenberg_rotation_check(t, ctx)
            for t in (math.pi / 6, math.pi / 2, math.pi))
    return r, 1e-12, "phase rotation turns Q into cos Q + sin P"


def _wavefunction_recurrence(ctx: DeformationContext):
    t = build_mode_table("position", ctx)
    xs = window_values(ctx)
    worst = 0.0
    for col in (0, 2, 5, 11):
        x = xs[col]
        for n in range(1, 40):
            lhs = coupling(n, ctx) * t.values[n + 1, col] + \
                coupling(n - 1, ctx) * t.values[n - 1, col]
            worst = max(worst, abs(lhs - x * t.values[n, col]))
    return worst, 1e-10, "three-term recurrence holds across tabulated columns"


def default_checks(seed: int, corrupt_coupling: bool = False):
    """The named battery; returns (name, thunk) pairs in run order. Each
    rung is a context, or a context and the body's extra arguments; its
    check is named family[q=...] after that context's q. A rung {"ctxs":
    contexts} passes them as a keyword, to a body that runs at each, and
    its check takes the family's plain name. No check is random: seed is
    only recorded."""
    C = DeformationContext  # C(q, fock_dim, lattice_depth)
    table = [
        ("qpoch-recurrence", _qpoch_recurrence, [C(0.5)]),
        ("qpoch-pinned-values", _qpoch_pinned, [{"ctxs": (C(0.25), C(0.5))}]),
        ("qpoch-tail-stability", _qpoch_stability, [C(0.8)]),
        ("y-realization", _y_realization, [C(0.3), C(0.5), C(0.8), C(0.95)]),
        ("mode-parity", _mode_parity, [C(0.5), C(0.95)]),
        ("hermite-mode-consistency", _hermite_mode_consistency, [C(0.5)]),
        ("euler-weight-identities", _euler_weights, [C(0.5), C(0.8)]),
        ("norm-c-ratio", _norm_c_ratio, [C(0.8)]),
        ("row-completeness", _row_completeness, [C(0.5)]),
        ("sum-orthogonality", _sum_orth, [(C(0.3, lattice_depth=40), 1e-9),
                                          (C(0.5, lattice_depth=40), 1e-9),
                                          (C(0.8, lattice_depth=80), 1e-7)]),
        ("dual-orthogonality", _dual_orth, [C(0.3, 128, 40), C(0.5, 128, 40),
                                            C(0.8, 224, 80), C(0.95, 120, 24)]),
        ("spectrum-match", _spectrum_match, [
            (C(0.3, 64), 8, 1e-10), (C(0.5, 60), 8, 1e-10),
            (C(0.8, 120), 12, 1e-8), (C(0.95, 64), 6, 1e-8)]),
        ("spectrum-negation", _spectrum_negation, [C(0.5, 60)]),
        ("spectrum-norm-bound", _spectrum_bound, [C(0.5, 60)]),
        ("commutators", _commutators,
         [C(0.3), (C(0.5), corrupt_coupling), C(0.8), C(0.95)]),
        ("ladder-conjugation", _ladder_conjugation, [C(0.5)]),
        ("ladder-limit", _ladder_limit, [(C(0.999, 12), 0.05),
                                         (C(0.9999, 7), 0.005)]),
        ("eigenvector-mode-ratio", _eigenvector_mode_ratio, [C(0.5, 60)]),
        ("position-eigenrelation", _position_eigenrelation, [C(0.5, 60)]),
        ("momentum-equivalence", _momentum_equivalence, [C(0.5)]),
        ("q-difference-P", _q_difference_P, [C(0.5)]),
        ("psi-closed-form", _psi_closed_form,
         [{"ctxs": (C(0.3), C(0.5), C(0.8))}]),
        ("psi-pinned-value", _psi_pinned, [{"ctxs": (C(0.5),)}]),
        ("wavefunction-recurrence", _wavefunction_recurrence, [C(0.5)]),
        ("parseval-isometry", _parseval, [C(0.5)]),
        ("evolve-identity", _evolve_identity, [(C(0.5, 80, 30), 1e-10),
                                               (C(0.8, 144, 60), 1e-8)]),
        ("evolve-group-law", _evolve_group, [C(0.5)]),
        ("evolve-inverse", _evolve_inverse, [C(0.5)]),
        ("evolve-phase-map", _evolve_phase_map, [C(0.5)]),
        ("evolve-intertwine", _evolve_intertwine, [C(0.5)]),
        ("evolve-unitarity", _evolve_unitarity, [C(0.5)]),
        ("evolve-norm-drift", _evolve_drift, [C(0.5, 80, 30)]),
        ("evolve-periodicity", _evolve_periodicity, [C(0.5)]),
        ("kernel-sign-flip", _kernel_sign_flip, [C(0.5, 80, 30)]),
        ("kernel-column-symmetry", _kernel_column_symmetry, [C(0.5)]),
        ("heisenberg-rotation", _heisenberg, [C(0.5), C(0.95)]),
    ]
    checks: List[Tuple[str, Callable]] = []
    for family, body, rungs in table:
        for rung in rungs:
            if isinstance(rung, dict):
                checks.append((family, partial(body, **rung)))
                continue
            args = rung if isinstance(rung, tuple) else (rung,)
            checks.append((f"{family}[q={args[0].q}]", partial(body, *args)))
    return checks


def run_verification(seed: int = 0, corrupt_coupling: bool = False) -> VerifyReport:
    t0 = time.perf_counter()
    checks = default_checks(seed, corrupt_coupling)
    results: List[CheckResult] = []
    for name, thunk in checks:
        c0 = time.perf_counter()
        try:
            residual, tol, detail = thunk()
            passed = residual <= tol
        except QoscError as exc:
            residual, tol, detail, passed = float("inf"), 0.0, f"raised {exc!r}", False
        results.append(CheckResult(name=name, passed=bool(passed),
                                   residual=float(residual),
                                   tolerance=float(tol),
                                   runtime_s=time.perf_counter() - c0,
                                   detail=detail))
    # the q of every context a check is bound to, as its first argument or
    # in its ctxs, ascending, each once (a stub thunk has neither)
    qs = sorted({ctx.q for _, thunk in checks
                 for ctx in (*getattr(thunk, "args", ())[:1],
                             *getattr(thunk, "keywords", {}).get("ctxs", ()))})
    return VerifyReport(overall_pass=all(c.passed for c in results),
                        seed=seed, qs=tuple(qs),
                        runtime_s=time.perf_counter() - t0,
                        checks=results)
