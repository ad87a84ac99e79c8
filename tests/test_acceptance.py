"""Acceptance battery: one criterion per test, one verdict line per criterion.

Each test prints "[PRIMARY] criterion-k PASS|FAIL ..." before asserting, so
the verdict line survives into the captured output on failure as well.
"""

import itertools
import math
import time

import mpmath
import numpy as np
from click.testing import CliRunner

from qosc import (
    DeformationContext,
    WavefunctionQuery,
    build_F_of_H,
    build_H,
    build_ladders,
    build_P,
    build_Q,
    commutator,
    dual_orthogonality_residual,
    fock_to_lattice,
    group_law_residual,
    heisenberg_rotation_check,
    identity_residual,
    lattice_inner,
    lattice_point,
    norm_drift_max,
    orthogonality_residuals,
    phase_map_residual,
    psi_eval,
    spectrum_report,
)
from qosc.cli import main


def _criterion(k: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[PRIMARY] criterion-{k} {verdict} {label}: {detail}")
    assert ok, f"criterion-{k} {label}: {detail}"


def test_criterion_1_spectrum_reproduction():
    worst = 0.0
    details = []
    ok = True
    for q, n, s_cap, tol in ((0.5, 60, 8, 1e-10), (0.8, 120, 12, 1e-8)):
        ctx = DeformationContext(q=q, fock_dim=n)
        t0 = time.perf_counter()
        rep = spectrum_report(build_Q(ctx), ctx)
        dt = time.perf_counter() - t0
        got = {(m.sign, m.s) for m in rep.matched}
        want = {(sg, s) for sg in (1, -1) for s in range(s_cap + 1)}
        err = max(m.error for m in rep.matched if m.s <= s_cap)
        ok = ok and want <= got and err < tol and dt < 1.0
        worst = max(worst, err)
        details.append(f"q={q} N={n} err={err:.3e} t={dt:.3f}s")
    _criterion(1, "spectrum matches +/- q^s", ok, "; ".join(details))


def test_criterion_2_commutator_suite():
    worst = 0.0
    t0 = time.perf_counter()
    for q in (0.3, 0.5, 0.8, 0.95):
        ctx = DeformationContext(q=q, fock_dim=64)
        Q = build_Q(ctx).to_dense().astype(complex)
        P = build_P(ctx).to_dense()
        H = build_H(ctx).to_dense().astype(complex)
        F = build_F_of_H(ctx).to_dense().astype(complex)
        d = ctx.fock_dim - 2
        r = max(
            np.max(np.abs((H @ Q - Q @ H + 1j * P)[:d, :d])),
            np.max(np.abs((H @ P - P @ H - 1j * Q)[:d, :d])),
            np.max(np.abs((Q @ P - P @ Q - 1j * F)[:d, :d])),
        )
        worst = max(worst, float(r))
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    _criterion(2, "three commutators vanish on the interior block", ok,
               f"worst={worst:.3e} t={dt:.3f}s")


def test_criterion_3_orthogonality():
    ok = True
    details = []
    for q, depth, tol in ((0.3, 40, 1e-9), (0.5, 40, 1e-9), (0.8, 80, 1e-7)):
        ctx = DeformationContext(q=q, lattice_depth=depth)
        worst = orthogonality_residuals(10, ctx).max()
        ok = ok and worst < tol
        details.append(f"sum q={q} {worst:.3e}")
    for q, depth, n in ((0.3, 40, 128), (0.5, 40, 128), (0.8, 80, 224)):
        ctx = DeformationContext(q=q, lattice_depth=depth, fock_dim=n)
        r = dual_orthogonality_residual(ctx)
        ok = ok and r < 1e-8
        details.append(f"dual q={q} {r:.3e}")
    _criterion(3, "orthogonality sum and dual forms", ok, "; ".join(details))


def test_criterion_4_wavefunction_closed_form():
    worst = 0.0
    for q in (0.3, 0.5, 0.8):
        ctx = DeformationContext(q=q)
        for sign in (1, -1):
            for s in range(9):
                pt = lattice_point(sign, s, ctx)
                for k in range(1, 10):
                    y = 0.1 * k
                    ser = psi_eval(WavefunctionQuery(pt, y, "series"), ctx)
                    pro = psi_eval(WavefunctionQuery(pt, y, "product"), ctx)
                    worst = max(worst, abs(ser - pro) / abs(pro))
    ctx = DeformationContext(q=0.5)
    pinned = psi_eval(WavefunctionQuery(lattice_point(1, 0, ctx), 0.5,
                                        "product"), ctx)
    mpmath.mp.dps = 30
    oracle = complex(mpmath.qp(mpmath.mpf("0.25"), mpmath.mpf("0.25"))
                     / mpmath.qp(mpmath.mpf("0.5"), mpmath.mpf("0.5")))
    dev_spec = abs(pinned - 2.384237)
    dev_oracle = abs(pinned - oracle)
    ok = worst < 1e-10 and dev_spec < 1e-5 and dev_oracle < 1e-6
    _criterion(4, "series vs product wavefunction", ok,
               f"grid={worst:.3e} pinned_dev={dev_spec:.3e} "
               f"oracle_dev={dev_oracle:.3e}")


def test_criterion_5_evolution():
    ctx = DeformationContext(q=0.5, lattice_depth=30, fock_dim=80)
    t0 = time.perf_counter()
    r_id = identity_residual(ctx)
    taus = (0.3, 1.0, math.pi / 2)
    r_grp = max(group_law_residual(t1, t2, ctx)
                for t1, t2 in itertools.product(taus, taus))
    r_drift = norm_drift_max(ctx)
    r_map = phase_map_residual(ctx)
    dt = time.perf_counter() - t0
    ok = (r_id < 1e-10 and r_grp < 1e-8 and r_drift < 1e-7
          and r_map < 1e-8 and dt < 5.0)
    _criterion(5, "fractional transform family", ok,
               f"identity={r_id:.3e} group={r_grp:.3e} drift={r_drift:.3e} "
               f"quarter_turn={r_map:.3e} t={dt:.2f}s")


def test_criterion_6_heisenberg_rotation():
    ctx = DeformationContext(q=0.5, fock_dim=64)
    worst = max(heisenberg_rotation_check(tau, ctx)
                for tau in (math.pi / 6, math.pi / 2, math.pi))
    ok = worst < 1e-12
    _criterion(6, "conjugated Q rotates into cos*Q + sin*P", ok,
               f"worst={worst:.3e}")


def test_criterion_7_ladder_commutator_limit():
    ok = True
    details = []
    for q, n_cap, tol in ((0.999, 10, 0.05), (0.9999, 5, 0.005)):
        ctx = DeformationContext(q=q, fock_dim=n_cap + 2)
        low, rai = build_ladders(ctx)
        diag = np.diag(commutator(low, rai)).real
        dev = float(np.max(np.abs(diag[: n_cap + 1] - 1.0)))
        ok = ok and dev < tol
        details.append(f"q={q} dev={dev:.4f}")
    _criterion(7, "ladder commutator diagonal approaches 1", ok,
               "; ".join(details))


def test_criterion_8_parseval():
    ctx = DeformationContext(q=0.5, lattice_depth=50)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        b = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        f = fock_to_lattice(b, "position", ctx)
        lhs = float(np.sum(np.abs(b) ** 2))
        rhs = lattice_inner(f, f, ctx)
        worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-8
    _criterion(8, "synthesis map is an isometry", ok, f"worst={worst:.3e}")


def test_criterion_9_cli_verify():
    runner = CliRunner()
    t0 = time.perf_counter()
    r = runner.invoke(main, ["verify"])
    dt = time.perf_counter() - t0
    ok = r.exit_code == 0 and "PASS overall" in r.output and dt < 60.0
    _criterion(9, "full verification battery via the CLI", ok,
               f"exit={r.exit_code} t={dt:.1f}s")
