"""CSV/JSON persistence for tables, functions, kernels and reports.

One private codec owns every format: JSON documents lead with
schema_version and object, CSV files with an optional '# key=value'
metadata line and a header. Writes are atomic (temp file, then rename)
and emit floats with repr, so values round-trip exactly and identical
inputs give identical bytes. On load, a missing or ill-typed field
raises ValidationError.

Every cell is placed exactly once: CSV rows and JSON kernel entries are
keyed by window site (sign, s), plus degree n in mode tables, and a key
that is missing, repeated, negative or out of range raises
ValidationError. JSON mode tables and lattice functions hold nested
arrays in window order, whose shape is checked.

Column layouts:

    mode table CSV        sign,s,x,n,value_re,value_im
    lattice function CSV  sign,s,x,re,im,rescaled_flag
    kernel CSV            row_sign,row_s,col_sign,col_s,re,im,low_confidence
                          (metadata on a leading '#' line)
    spectrum CSV          sign,s,lambda,error  (unmatched: sign, s empty)
    polynomial CSV        n,sign,s,x,value  (grid rows: sign, s empty)
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain
from operator import itemgetter
from typing import Optional

import numpy as np

from .context import DeformationContext
from .errors import ValidationError
from .evolution import EvolutionKernel
from .fock import MatchedLevel, SpectrumReport
from .hilbert import LatticeFunction
from .qhermite import ModeTable, window_index

SCHEMA_VERSION = 1

_MODE_COLUMNS = ["sign", "s", "x", "n", "value_re", "value_im"]
_LATTICE_COLUMNS = ["sign", "s", "x", "re", "im", "rescaled_flag"]
_KERNEL_COLUMNS = ["row_sign", "row_s", "col_sign", "col_s", "re", "im",
                   "low_confidence"]


# -- the codec ---------------------------------------------------------

@contextmanager
def _atomic_open(path: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".qosc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write text then rename into place; never exposes partial content."""
    with _atomic_open(path) as fh:
        fh.write(text)


def _infer_format(path: str, fmt: Optional[str]) -> str:
    if fmt is None:
        fmt = os.path.splitext(path)[1].lstrip(".").lower()
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {fmt!r}")
    return fmt


def _document(obj: Optional[str], **fields) -> dict:
    """A JSON payload: schema_version, the object tag unless None, fields."""
    head = {"schema_version": SCHEMA_VERSION}
    if obj is not None:
        head["object"] = obj
    return {**head, **fields}


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def _write_csv(path: str, header, rows, meta: Optional[dict] = None) -> None:
    """Optional '# key=value' line, the header, then rows streamed to disk."""
    with _atomic_open(path) as fh:
        if meta is not None:
            fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


@contextmanager
def _fields(path: str, what: str):
    """Open an artifact; what is malformed in it raises ValidationError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} file {path!r} is malformed: {exc!r}") from exc


@contextmanager
def _read_json(path: str, obj: str):
    with _fields(path, obj) as fh:
        payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValidationError("top-level JSON payload must be an object")
        for key, want in (("schema_version", SCHEMA_VERSION), ("object", obj)):
            if payload.get(key) != want:
                raise ValidationError(
                    f"expected {key} {want!r}, found {payload.get(key)!r}")
        yield payload


@contextmanager
def _read_csv(path: str, what: str, header, meta: bool = False):
    """Yield (metadata dict or None, rows as lists of strings)."""
    with _fields(path, what) as fh:
        info = None
        if meta:
            line = fh.readline()
            if not line.startswith("# "):
                raise ValidationError(f"{what} CSV is missing its metadata line")
            info = dict(tok.partition("=")[::2] for tok in line[2:].split())
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise ValidationError(
                f"{what} CSV header is wrong, expected {','.join(header)}")
        rows = list(reader)
        if set(map(len, rows)) != {len(header)}:
            raise ValidationError(
                f"{what} CSV needs one or more rows of {len(header)} fields")
        yield info, rows


def _columns(rows, keys) -> list:
    """Columns picked out of CSV rows by index or JSON entries by key."""
    return [list(map(itemgetter(k), rows)) for k in keys]


def _complexes(re, im) -> np.ndarray:
    out = np.empty(len(re), dtype=complex)
    out.real = np.fromiter(map(float, re), dtype=float, count=len(re))
    out.imag = np.fromiter(map(float, im), dtype=float, count=len(im))
    return out


def _site(sign, s) -> np.ndarray:
    """Window positions of (sign, s) key columns; signs must be +1 or -1."""
    sign = np.array(sign, dtype=np.int64)
    if not np.all((sign == 1) | (sign == -1)):
        raise ValidationError("site sign must be +1 or -1")
    return window_index(sign, np.array(s, dtype=np.int64))


def _place(values: np.ndarray, index, shape: tuple, what: str) -> np.ndarray:
    """Dense table of this shape with values[k] at cell (index[0][k], ...).

    Every cell must be keyed exactly once; a key that is negative, out of
    range, repeated or absent raises ValidationError.
    """
    size = math.prod(shape)
    if len(values) != size:
        raise ValidationError(
            f"{what} has {len(values)} cells, a {shape} table needs {size}")
    try:
        flat = np.ravel_multi_index(index, shape)
    except ValueError as exc:
        raise ValidationError(f"{what} has a key outside its {shape} table") from exc
    if not np.all(np.bincount(flat, minlength=size) == 1):
        raise ValidationError(f"{what} must hold every cell exactly once")
    out = np.empty(size, dtype=values.dtype)
    out[flat] = values
    return out.reshape(shape)


def _pairs(values: np.ndarray) -> list:
    """Nested [re, im] lists of Python floats: the JSON form of a complex
    array, and the cells of a CSV row."""
    return np.stack((values.real, values.imag), axis=-1).tolist()


def _from_pairs(pairs, shape: tuple) -> np.ndarray:
    a = np.array(pairs, dtype=float)
    if a.shape != (*shape, 2):
        raise ValidationError(f"values have shape {a.shape}, not {(*shape, 2)}")
    return a.view(complex)[..., 0]


def _sites(q: float, depth: int) -> list:
    """(sign, s, x) per window site; x is Python's q**s, not numpy's."""
    return [(sign, s, sign * q**s) for s in range(depth) for sign in (1, -1)]


# -- mode tables -------------------------------------------------------

def write_mode_table(table: ModeTable, path: str, fmt: Optional[str] = None) -> None:
    if _infer_format(path, fmt) == "json":
        _write_json(path, _document(
            "mode_table", kind=table.kind, q=table.q, fock_dim=table.fock_dim,
            lattice_depth=table.lattice_depth,
            tail_start=[int(t) for t in table.tail_start],
            values=_pairs(table.values)))
        return
    sites = _sites(table.q, table.lattice_depth)
    _write_csv(path, _MODE_COLUMNS, (
        (sign, s, x, n, re, im)
        for n, row in enumerate(table.values)
        for (sign, s, x), (re, im) in zip(sites, _pairs(row))))


def load_mode_table(path: str, fmt: Optional[str] = None,
                    kind: str = "position") -> ModeTable:
    if _infer_format(path, fmt) == "json":
        with _read_json(path, "mode_table") as doc:
            kind, q = doc["kind"], float(doc["q"])
            nmax, depth = int(doc["fock_dim"]), int(doc["lattice_depth"])
            values = _from_pairs(doc["values"], (nmax, 2 * depth))
            tail_start = np.asarray(doc["tail_start"], dtype=int)
    else:
        with _read_csv(path, "mode table", _MODE_COLUMNS) as (_, rows):
            sign, s, n, re, im = _columns(rows, (0, 1, 3, 4, 5))
            site, n = _site(sign, s), np.array(n, dtype=np.int64)
            nmax, depth = int(n.max()) + 1, int(site.max()) // 2 + 1
            values = _place(_complexes(re, im), (n, site), (nmax, 2 * depth),
                            "mode table CSV")
            at_q = np.flatnonzero(site == window_index(1, 1))
            if not at_q.size:
                raise ValidationError("mode table CSV needs level s=1 to give q")
            q = float(rows[at_q[0]][2])
        tail_start = np.full(2 * depth, nmax, dtype=int)
    if kind == "position":
        values = values.real
    return ModeTable(kind=kind, q=q, fock_dim=nmax, lattice_depth=depth,
                     values=values, tail_start=tail_start)


# -- lattice functions -------------------------------------------------

def write_lattice_function(f: LatticeFunction, ctx: DeformationContext,
                           path: str, fmt: Optional[str] = None) -> None:
    fmt = _infer_format(path, fmt)
    if f.values.shape[0] != 2 * ctx.lattice_depth:
        raise ValidationError(
            f"function has {f.values.shape[0]} sites, context wants "
            f"{2 * ctx.lattice_depth}")
    if fmt == "json":
        _write_json(path, _document(
            "lattice_function", kind=f.kind, q=ctx.q,
            lattice_depth=ctx.lattice_depth, rescaled=bool(f.rescaled),
            values=_pairs(f.values)))
        return
    _write_csv(path, _LATTICE_COLUMNS, (
        (sign, s, x, re, im, int(f.rescaled))
        for (sign, s, x), (re, im) in zip(_sites(ctx.q, ctx.lattice_depth),
                                          _pairs(f.values))))


def load_lattice_function(path: str, fmt: Optional[str] = None,
                          kind: str = "position") -> LatticeFunction:
    if _infer_format(path, fmt) == "json":
        with _read_json(path, "lattice_function") as doc:
            values = _from_pairs(doc["values"], (2 * int(doc["lattice_depth"]),))
            return LatticeFunction(doc["kind"], values,
                                   rescaled=bool(doc["rescaled"]))
    with _read_csv(path, "lattice function", _LATTICE_COLUMNS) as (_, rows):
        sign, s, re, im, flag = _columns(rows, (0, 1, 3, 4, 5))
        site = _site(sign, s)
        values = _place(_complexes(re, im), (site,),
                        (int(site.max()) // 2 * 2 + 2,), "lattice function CSV")
        flags = set(map(int, flag))
    if len(flags) != 1:
        raise ValidationError("rescaled_flag must be constant across rows")
    return LatticeFunction(kind, values, rescaled=bool(flags.pop()))


# -- evolution kernels -------------------------------------------------

def _kernel_cells(k: EvolutionKernel, flag):
    """Rows of the kernel file in window order; flag formats low_confidence."""
    sites = _sites(k.q, k.lattice_depth)
    for (rs, rl, _), row in zip(sites, k.matrix):
        low = flag(k.low_confidence(rl))
        for (cs, cl, _), (re, im) in zip(sites, _pairs(row)):
            yield rs, rl, cs, cl, re, im, low


def write_kernel(k: EvolutionKernel, path: str, fmt: Optional[str] = None) -> None:
    fmt = _infer_format(path, fmt)
    meta = _document("evolution_kernel", variant=k.variant, tau=k.tau, q=k.q,
                     n_max=k.n_max, lattice_depth=k.lattice_depth,
                     s_match=k.s_match, tail_estimate=k.tail_estimate)
    if fmt == "csv":
        _write_csv(path, _KERNEL_COLUMNS, _kernel_cells(k, int), meta)
        return
    meta["entries"] = [dict(zip(_KERNEL_COLUMNS, cell))
                       for cell in _kernel_cells(k, bool)]
    _write_json(path, meta)


def _kernel(meta: dict, rows, keys) -> EvolutionKernel:
    rs, rl, cs, cl, re, im = _columns(rows, keys)
    depth = int(meta["lattice_depth"])
    matrix = _place(_complexes(re, im), (_site(rs, rl), _site(cs, cl)),
                    (2 * depth, 2 * depth), "kernel")
    return EvolutionKernel(tau=float(meta["tau"]), variant=meta["variant"],
                           q=float(meta["q"]), n_max=int(meta["n_max"]),
                           lattice_depth=depth, matrix=matrix,
                           tail_estimate=float(meta["tail_estimate"]),
                           s_match=int(meta["s_match"]))


def load_kernel(path: str, fmt: Optional[str] = None) -> EvolutionKernel:
    if _infer_format(path, fmt) == "json":
        with _read_json(path, "evolution_kernel") as doc:
            return _kernel(doc, doc["entries"], _KERNEL_COLUMNS[:6])
    with _read_csv(path, "kernel", _KERNEL_COLUMNS, meta=True) as (meta, rows):
        return _kernel(meta, rows, range(6))


# -- reports -----------------------------------------------------------

def spectrum_report_payload(rep: SpectrumReport) -> dict:
    return _document(
        "spectrum_report", q=rep.q, fock_dim=rep.fock_dim,
        lattice_depth=rep.lattice_depth, match_tol=rep.match_tol,
        s_match=rep.s_match, max_error=rep.max_error,
        matched=[{"sign": m.sign, "s": m.s, "lambda": m.value,
                  "error": m.error} for m in rep.matched],
        unmatched=list(rep.unmatched))


def write_spectrum_report(rep: SpectrumReport, path: str,
                          fmt: Optional[str] = None) -> None:
    if _infer_format(path, fmt) == "json":
        _write_json(path, spectrum_report_payload(rep))
        return
    _write_csv(path, ["sign", "s", "lambda", "error"], chain(
        ((m.sign, m.s, m.value, m.error) for m in rep.matched),
        (("", "", v, "") for v in rep.unmatched)))


def load_spectrum_report(path: str) -> SpectrumReport:
    with _read_json(path, "spectrum_report") as doc:
        matched = [MatchedLevel(int(m["sign"]), int(m["s"]),
                                float(m["lambda"]), float(m["error"]))
                   for m in doc["matched"]]
        return SpectrumReport(q=float(doc["q"]), fock_dim=int(doc["fock_dim"]),
                              lattice_depth=int(doc["lattice_depth"]),
                              match_tol=float(doc["match_tol"]),
                              matched=matched,
                              unmatched=[float(v) for v in doc["unmatched"]],
                              s_match=int(doc["s_match"]),
                              max_error=float(doc["max_error"]))


def verify_report_payload(rep) -> dict:
    return _document("verify_report", overall_pass=bool(rep.overall_pass),
                     seed=rep.seed, qs=list(rep.qs), runtime_s=rep.runtime_s,
                     checks=[asdict(c) for c in rep.checks])


def write_verify_report(rep, path: str, fmt: Optional[str] = None) -> None:
    if _infer_format(path, fmt) == "json":
        _write_json(path, verify_report_payload(rep))
        return
    _write_csv(path, ["name", "status", "residual", "tolerance", "runtime_s"], (
        (c.name, "pass" if c.passed else "fail", c.residual, c.tolerance,
         c.runtime_s) for c in rep.checks))


def write_polynomial_table(rows: list, family: str, q: float, path: str,
                           fmt: Optional[str] = None) -> None:
    """Rows (n, sign, s, x, value) tabulated by `qosc hermite`.

    sign and s are "" for grid points. The JSON form keeps n, x and value
    and has no object tag.
    """
    if _infer_format(path, fmt) == "json":
        _write_json(path, _document(None, family=family, q=q, rows=[
            {"n": n, "x": x, "value": v} for n, _, _, x, v in rows]))
        return
    _write_csv(path, ["n", "sign", "s", "x", "value"], rows)
