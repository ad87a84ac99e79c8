"""Outside-in span recorder for the qosc layers.

install() replaces each layer's public functions, in every loaded qosc
module namespace that holds them, by a wrapper that records one span per
call: [layer, start, end, parent, attrs]. parent is the index of the
enclosing span in the same process, or -1. Spans stay in memory until
the caller writes them out. Nothing in src/qosc changes; the wrappers
exist only in a process that called install().

layer_metrics() turns the spans of one pass into the per-layer figures.
A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
from collections import defaultdict
from time import perf_counter

# layer -> (defining module, public functions)
LAYERS = {
    "qhermite.weights": ("qosc.qhermite", ("norm_c", "norm_c_window",
                                           "lattice_weight",
                                           "lattice_weight_window")),
    "qhermite.mode_table": ("qosc.qhermite", ("build_mode_table",)),
    "fock.eigen": ("qosc.fock", ("eigendecompose",)),
    "fock.spectrum": ("qosc.fock", ("spectrum_report",)),
    "evolution.kernel": ("qosc.evolution", ("fractional_ft", "kernel_K")),
    "evolution.evolve": ("qosc.evolution", ("evolve",)),
    "serialize.write": ("qosc.serialize", ("write_mode_table",
                                           "write_lattice_function",
                                           "write_kernel",
                                           "write_spectrum_report",
                                           "write_verify_report")),
    "serialize.read": ("qosc.serialize", ("load_mode_table",
                                          "load_lattice_function",
                                          "load_kernel",
                                          "load_spectrum_report")),
}

ARTIFACTS = ("kernel_csv", "kernel_json", "mode_table", "spectrum",
             "lattice_function")


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# -- probes: attrs of one call, read from its arguments and result --------

def _probe_mode_table(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    ctx = a["ctx"]
    return {"key": [a["kind"], ctx.q, ctx.fock_dim, ctx.lattice_depth],
            "backfill": int((out.tail_start < out.fock_dim).sum())}


def _probe_eigen(fn, args, kwargs, out):
    T = _bound(fn, args, kwargs)["T"]
    digest = hashlib.blake2b(T.diag.tobytes() + T.offdiag.tobytes(),
                             digest_size=8).hexdigest()
    return {"key": [T.dim, digest],
            "dim": int(T.dim)}


def _probe_kernel(fn, args, kwargs, out):
    ctx = _bound(fn, args, kwargs)["ctx"]
    m = 2 * ctx.lattice_depth
    # One complex GEMM (m x N) @ (N x m): 8 real flops per multiply-add.
    return {"flop": 8 * m * m * ctx.fock_dim}


def _probe_write(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    if fn.__name__ == "write_kernel":
        fmt = a["fmt"] or os.path.splitext(a["path"])[1].lstrip(".")
        artifact = f"kernel_{fmt.lower()}"
    else:  # write_mode_table -> mode_table, write_spectrum_report -> spectrum
        artifact = fn.__name__.split("_", 1)[1].replace("_report", "")
    return {"bytes": os.path.getsize(a["path"]), "artifact": artifact}


def _probe_read(fn, args, kwargs, out):
    return {"bytes": os.path.getsize(_bound(fn, args, kwargs)["path"])}


PROBES = {
    "qhermite.mode_table": _probe_mode_table,
    "fock.eigen": _probe_eigen,
    "evolution.kernel": _probe_kernel,
    "serialize.write": _probe_write,
    "serialize.read": _probe_read,
}


class Recorder:
    """Spans of one process; install() routes the layer calls here."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        probe = PROBES.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[1] = t0
                stack.pop()
            if probe is not None:
                rec[4] = probe(fn, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        import qosc.cli  # noqa: F401  (cli is the one module qosc does not import)

        wrappers = {}
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules[modname]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = self._wrap(layer, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "qosc" and not modname.startswith("qosc."):
                continue
            for name, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(mod, name, w)


def self_times(spans: list[list]) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans: list[list], scale: float = 1.0) -> dict[str, float]:
    """Per-layer figures of one pass; layers with no calls read 0.

    Times are multiplied by scale (run.py: the pass's host-speed scale).
    """
    own = [scale * t for t in self_times(spans)]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    attrs = defaultdict(list)
    artifact_s = defaultdict(float)
    for s, t in zip(spans, own):
        calls[s[0]] += 1
        self_s[s[0]] += t
        if s[4] is not None:
            attrs[s[0]].append(s[4])
            if s[0] == "serialize.write":
                artifact_s[s[4]["artifact"]] += t
    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "fock.spectrum":
            out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]

    def distinct(layer):
        keys = {tuple(a["key"]) for a in attrs[layer]}
        return len(keys) / calls[layer] if calls[layer] else 0.0

    out["qhermite.mode_table.distinct_ratio"] = distinct("qhermite.mode_table")
    out["qhermite.mode_table.backfill_cols"] = sum(
        a["backfill"] for a in attrs["qhermite.mode_table"])
    out["fock.eigen.distinct_ratio"] = distinct("fock.eigen")
    out["fock.eigen.dim_sum"] = sum(a["dim"] for a in attrs["fock.eigen"])
    gflop = sum(a["flop"] for a in attrs["evolution.kernel"]) / 1e9
    out["evolution.kernel.gflop_computed"] = gflop
    k_s = self_s["evolution.kernel"]
    out["evolution.kernel.gflops"] = gflop / k_s if k_s > 0 else 0.0
    for layer in ("serialize.write", "serialize.read"):
        out[f"{layer}.bytes"] = sum(a["bytes"] for a in attrs[layer])
    for art in ARTIFACTS:
        out[f"serialize.write.{art}.self_s"] = artifact_s[art]
    return out


# Figures that must repeat exactly from pass to pass for a fixed seed.
EXACT = ("calls", "distinct_ratio", "backfill_cols", "dim_sum",
         "gflop_computed", "bytes")


def is_exact(name: str) -> bool:
    return name.rsplit(".", 1)[1] in EXACT
