import importlib.util
import inspect
import json
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qosc.evolution as evolution
import qosc.hilbert as hilbert
import qosc.qhermite as qhermite
import qosc.verify as verify
from qosc.context import DeformationContext
from qosc.errors import DomainError
from qosc.qcore import qpoch_inf


def _names(code: types.CodeType):
    """Global names a code object reads, nested functions included."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


def test_every_check_body_is_reachable():
    bodies = {name: fn for name, fn in vars(verify).items()
              if name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == verify.__name__}
    todo = [thunk.func for _, thunk in verify.default_checks(seed=0)]
    seen = set()
    while todo:
        fn = todo.pop()
        if fn.__name__ in bodies:
            seen.add(fn.__name__)
        for name in _names(fn.__code__):
            if name in bodies and name not in seen:
                seen.add(name)
                todo.append(bodies[name])
    assert sorted(set(bodies) - seen) == []


def _bracketed_q(name: str):
    """The q in a check name family[q=...], or None for a plain name."""
    return float(name[name.index("[q=") + 3:-1]) if "[" in name else None


def test_each_check_is_named_after_the_context_its_body_receives():
    for name, thunk in verify.default_checks(seed=0):
        ctx = thunk.args[0] if thunk.args else None
        assert isinstance(ctx, (DeformationContext, type(None))), name
        assert _bracketed_q(name) == (None if ctx is None else ctx.q), name


def _received(value):
    """The contexts in a thunk's argument, or in a tuple of arguments."""
    if isinstance(value, DeformationContext):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _received(v)


def test_report_qs_are_the_distinct_qs_of_the_named_checks(monkeypatch):
    # ladder-limit's rungs near q = 1 are listed with the rest, and so is
    # 0.25, where qpoch-pinned-values evaluates; each context a body
    # receives, or builds while it runs, has one of the listed q's
    built = set()
    post_init = DeformationContext.__post_init__

    def spy(ctx):
        built.add(ctx.q)
        post_init(ctx)
    monkeypatch.setattr(DeformationContext, "__post_init__", spy)
    received = {ctx.q for _, thunk in verify.default_checks(seed=0)
                for ctx in _received((*thunk.args, *thunk.keywords.values()))}
    qs = verify.run_verification().qs
    assert qs == (0.25, 0.3, 0.5, 0.8, 0.95, 0.999, 0.9999)
    assert qs == tuple(sorted(received)) == tuple(sorted(built))


def test_spectrum_negation_measures_computed_pairs():
    # the dense eigensolver computes each sign apart, so the residual is
    # a roundoff figure; eigenvalues() builds its pairs exactly (0.0)
    thunk = dict(verify.default_checks(seed=0))["spectrum-negation[q=0.5]"]
    residual, tol, _ = thunk()
    assert 0.0 < residual <= tol == 1e-12


def test_a_check_that_raises_is_reported_as_a_failure(monkeypatch):
    def raises():
        raise DomainError("out of range")
    monkeypatch.setattr(verify, "default_checks", lambda seed, corrupt: [
        ("raises", raises), ("passes", lambda: (0.0, 1e-9, ""))])
    report = verify.run_verification()
    assert not report.overall_pass
    bad, good = report.checks
    assert report.qs == ()  # neither check is bound to a context
    assert (bad.passed, bad.residual, bad.tolerance) == (False, float("inf"), 0.0)
    assert bad.detail == "raised DomainError('out of range')"
    assert good.passed


def test_battery_reads_no_seed():
    # no check draws random states: two seeds give the same report
    a, b = verify.run_verification(seed=3), verify.run_verification(seed=4)
    assert (a.seed, b.seed) == (3, 4)
    assert ([replace(c, runtime_s=0.0) for c in a.checks]
            == [replace(c, runtime_s=0.0) for c in b.checks])


def _scaled_apply(monkeypatch):
    real = evolution._apply
    monkeypatch.setattr(evolution, "_apply",
                        lambda tau, F, ctx: real(tau, F, ctx) * (1 + 1e-6))


def _scaled_c2(monkeypatch):
    real = qhermite._weights

    def bent(ctx):
        w = real(ctx)
        c = w.c.copy()
        c[2] *= 1 + 1e-6
        return w._replace(c=c)
    monkeypatch.setattr(qhermite, "_weights", bent)


@pytest.mark.parametrize("mutate, check", [
    (_scaled_apply, verify._evolve_intertwine),
    (_scaled_apply, verify._evolve_drift),
    (_scaled_c2, verify._parseval),
])
def test_band_sup_families_fail_under_a_1e6_mutation(monkeypatch, mutate, check):
    # each family at q = 0.5, on the context the battery gives it
    ctx, = (t.args[0] for _, t in verify.default_checks(0) if t.func is check)
    residual, tol, _ = check(ctx)
    assert residual <= tol
    mutate(monkeypatch)
    residual, tol, _ = check(ctx)
    assert residual > tol


@pytest.mark.parametrize("base", [lambda q: q * q, lambda q: q],
                         ids=["y2-base-q2", "y2-base-q"])
def test_psi_closed_form_fails_under_the_retired_numerators(monkeypatch, base):
    # with z = iy, the momentum numerators (y^2; q^2)_inf and (y^2; q)_inf
    # that phi's closed form rules out are (-z^2; q^2)_inf and (-z^2; q)_inf
    real = hilbert._generating

    def bent(x, z, mode, ctx):
        if mode == "series":
            return real(x, z, mode, ctx)
        num = qpoch_inf(-z * z, ctx, base=base(ctx.q))
        return complex(num) / complex(qpoch_inf(x * z, ctx))
    psi_closed_form = dict(verify.default_checks(seed=0))["psi-closed-form"]
    residual, tol, _ = psi_closed_form()
    assert residual <= tol == 1e-10
    monkeypatch.setattr(hilbert, "_generating", bent)
    residual, tol, _ = psi_closed_form()
    assert residual > tol


@pytest.mark.parametrize("factor", [1, -1j], ids=["y", "minus-iy"])
def test_psi_closed_form_fails_when_phi_loses_its_factor_i(monkeypatch, factor):
    # phi_p(y) evaluated as psi_p(y) or psi_p(-iy): series and product
    # still agree, the series with i^n put in by hand does not
    def bent(qry, ctx):
        return hilbert._generating(qry.point.value, factor * complex(qry.y),
                                   qry.mode, ctx)
    psi_closed_form = dict(verify.default_checks(seed=0))["psi-closed-form"]
    residual, tol, _ = psi_closed_form()
    assert residual <= tol
    monkeypatch.setattr(verify, "phi_eval", bent)
    residual, tol, _ = psi_closed_form()
    assert residual > tol


def test_norm_c_ratio_fails_when_every_weight_shares_a_factor(monkeypatch):
    # the deepest level's product scaled by 1 + 1e-10 scales every weight
    # alike, so every c_{s+1}/c_s holds and only w_0 shows it
    def bent(a, ctx, base=None):
        value = qpoch_inf(a, ctx, base)
        return value if base is None else value * (1 + 1e-10)
    ctx = DeformationContext(0.8)
    residual, tol, _ = verify._norm_c_ratio(ctx)
    assert residual <= tol
    monkeypatch.setattr(qhermite, "qpoch_inf", bent)
    qhermite._weights.cache_clear()
    try:
        residual, tol, _ = verify._norm_c_ratio(ctx)
        c = qhermite.norm_c_window(ctx)[0::2]
    finally:
        qhermite._weights.cache_clear()
    assert residual > tol
    target = [0.8 / (1 - 0.8 ** (2 * s + 2)) for s in range(25)]
    assert np.allclose(c[1:26] / c[:25], target, rtol=1e-12, atol=0)


def test_battery_builds_each_table_and_certificate_once(monkeypatch):
    # from empty caches, one pass tabulates each of its 13 half-table
    # contexts once, plus mode-parity's two -x passes, and computes one
    # kernel certificate: the residual helpers read matrices alone
    seen = []
    p_matrix = qhermite._p_matrix

    def counted(x, nmax, ctx):
        seen.append(ctx)
        return p_matrix(x, nmax, ctx)

    monkeypatch.setattr(qhermite, "_p_matrix", counted)
    monkeypatch.setattr(verify, "_p_matrix", counted)
    for cache in (qhermite._weights, qhermite._half_table,
                  evolution._certificate):
        cache.cache_clear()
    assert verify.run_verification(seed=3).overall_pass
    assert (len(seen), len(set(seen))) == (15, 13)
    assert evolution._certificate.cache_info().misses == 1


def test_benchmark_lists_every_family_and_traced_name():
    # perfbench's traced run refuses a verify.<family>.s metric that
    # BENCHMARK.json does not list, and traces the LAYERS names by lookup
    root = Path(__file__).resolve().parent.parent
    listed = {m["name"] for m in
              json.loads((root / "BENCHMARK.json").read_text())["per_layer"]}
    families = {name.split("[")[0] for name, _ in verify.default_checks(0)}
    assert sorted(f for f in families if f"verify.{f}.s" not in listed) == []
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, names in tracer.LAYERS.values()
               for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
