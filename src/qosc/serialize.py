"""CSV/JSON persistence for tables, functions, kernels and reports.

One private codec owns every format: JSON documents lead with
schema_version and object, CSV files with an optional '# key=value'
metadata line and a header. Writes are atomic (temp file, then rename)
and emit floats with repr, so values round-trip exactly and identical
inputs give identical bytes; the file mode follows the umask. Mode
tables, lattice functions and kernels are streamed one window row (or
degree n) at a time, as the very text json.dumps(indent=1) or csv.writer
would give, without building the file in memory. On load, a missing or
ill-typed field raises ValidationError.

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
import secrets
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain, repeat
from operator import itemgetter
from typing import Optional

import numpy as np

from .context import DeformationContext
from .errors import ValidationError
from .evolution import EvolutionKernel
from .fock import MatchedLevel, SpectrumReport
from .hilbert import LatticeFunction
from .qhermite import ModeTable, lattice_window, window_index

SCHEMA_VERSION = 1

_MODE_COLUMNS = ["sign", "s", "x", "n", "value_re", "value_im"]
_LATTICE_COLUMNS = ["sign", "s", "x", "re", "im", "rescaled_flag"]
_KERNEL_COLUMNS = ["row_sign", "row_s", "col_sign", "col_s", "re", "im",
                   "low_confidence"]


# -- the codec ---------------------------------------------------------

@contextmanager
def _atomic_open(path: str):
    """A temp file beside path, renamed onto it once the block completes.

    The temp file is created with mode 0o666, so the process umask sets
    the artifact's final mode, as it would for a plain open().
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".qosc-{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL
                 | getattr(os, "O_BINARY", 0), 0o666)
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


def atomic_write_text(path: str, text: str, chunks=()) -> None:
    """Write text, then each of chunks, then rename into place; never
    exposes partial content."""
    with _atomic_open(path) as fh:
        fh.write(text)
        fh.writelines(chunks)


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


def _write_json(path: str, payload: dict, items=()) -> None:
    """json.dumps(payload, indent=1) and a newline, written to path.

    With items, payload's last field is an empty list and items are the
    texts of its elements, indented as json.dumps would indent them; they
    are streamed in one at a time instead of going through the encoder.
    """
    text = json.dumps(payload, indent=1)
    items = iter(items)
    first = next(items, None)
    if first is None:
        atomic_write_text(path, text + "\n")
    else:  # text ends in '[]\n}'
        atomic_write_text(path, f"{text[:-3]}\n{first}", chain(
            map(",\n".__add__, items), ["\n ]\n}\n"]))


def _write_csv(path: str, header, rows) -> None:
    """A small mixed-type table through csv.writer: header, then rows."""
    with _atomic_open(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values: np.ndarray, fmt: str) -> list:
    """Text of each float as csv and json write it: repr, except that
    JSON spells nan and +-inf as NaN and +-Infinity."""
    text = list(map(repr, values.tolist()))
    if fmt == "json" and not np.isfinite(values).all():
        text = [_JSON_NONFINITE.get(t, t) for t in text]
    return text


def _cells(heads, row: np.ndarray, mid: str, end: str, fmt: str) -> list:
    """head + re + mid + im + end for each value of a 1-D row."""
    return list(map("".join, zip(heads, _floats(row.real, fmt), repeat(mid),
                                 _floats(row.imag, fmt), repeat(end))))


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


def _from_pairs(pairs, shape: tuple) -> np.ndarray:
    a = np.array(pairs, dtype=float)
    if a.shape != (*shape, 2):
        raise ValidationError(f"values have shape {a.shape}, not {(*shape, 2)}")
    return a.view(complex)[..., 0]


def _csv_q(rows, site: np.ndarray) -> Optional[float]:
    """q read from the x cell of window site (+1, s=1); None if absent."""
    at = np.flatnonzero(site == window_index(1, 1))
    return float(rows[at[0]][2]) if at.size else None


def _check_window(path: str, ctx: Optional[DeformationContext],
                  q: Optional[float], sites: int,
                  fock_dim: Optional[int] = None) -> None:
    """With ctx, a loaded artifact must lie on ctx's window, or
    ValidationError: 2 * ctx.lattice_depth sites, written at ctx.q, and
    ctx.fock_dim degrees where the file records a degree count."""
    if ctx is None:
        return
    if sites != 2 * ctx.lattice_depth:
        raise ValidationError(
            f"{path!r} holds {sites} sites, a window of depth "
            f"{ctx.lattice_depth} needs {2 * ctx.lattice_depth}")
    # q is None only for a one-level window, which is {+-1} for every q.
    if q is not None and q != ctx.q:
        raise ValidationError(
            f"{path!r} was written at q={q!r}, the context has q={ctx.q!r}")
    if fock_dim is not None and fock_dim != ctx.fock_dim:
        raise ValidationError(
            f"{path!r} holds {fock_dim} degrees, the context has "
            f"fock_dim={ctx.fock_dim}")


def _sites(q: float, depth: int) -> list:
    """(sign, s, x) per window site, as qhermite.lattice_window gives them."""
    ctx = DeformationContext(q=q, lattice_depth=depth)
    return [(p.sign, p.s, p.value) for p in lattice_window(ctx)]


# -- mode tables -------------------------------------------------------

def write_mode_table(table: ModeTable, path: str, fmt: Optional[str] = None) -> None:
    fmt = _infer_format(path, fmt)
    if fmt == "json":
        _write_json(path, _document(
            "mode_table", kind=table.kind, q=table.q, fock_dim=table.fock_dim,
            lattice_depth=table.lattice_depth,
            tail_start=[int(t) for t in table.tail_start], values=[]), (
            "  [\n" + ",\n".join(_cells(repeat("   [\n    "), row, ",\n    ",
                                         "\n   ]", fmt)) + "\n  ]"
            for row in table.values))
        return
    sites = [f"{sign},{s},{x}," for sign, s, x in
             _sites(table.q, table.lattice_depth)]
    atomic_write_text(path, ",".join(_MODE_COLUMNS) + "\n", (
        "".join(_cells([f"{site}{n}," for site in sites], row, ",", "\n", fmt))
        for n, row in enumerate(table.values)))


def load_mode_table(path: str, fmt: Optional[str] = None,
                    kind: str = "position",
                    ctx: Optional[DeformationContext] = None) -> ModeTable:
    """Read a mode table. A JSON file records its kind; a CSV file is read
    as kind. A position table with an imaginary part raises
    ValidationError. With ctx, the table must lie on ctx's window, as in
    load_lattice_function, and hold ctx.fock_dim degrees.
    """
    is_json = _infer_format(path, fmt) == "json"
    if is_json:
        with _read_json(path, "mode_table") as doc:
            kind, q = doc["kind"], float(doc["q"])
            nmax, depth = int(doc["fock_dim"]), int(doc["lattice_depth"])
            values = _from_pairs(doc["values"], (nmax, 2 * depth))
            tail_start = np.asarray(doc["tail_start"], dtype=int)
        if tail_start.shape != (2 * depth,):
            raise ValidationError(
                f"tail_start has shape {tail_start.shape}, one entry per "
                f"window site needs {(2 * depth,)}")
    else:
        with _read_csv(path, "mode table", _MODE_COLUMNS) as (_, rows):
            sign, s, n, re, im = _columns(rows, (0, 1, 3, 4, 5))
            site, n = _site(sign, s), np.array(n, dtype=np.int64)
            nmax, depth = int(n.max()) + 1, int(site.max()) // 2 + 1
            values = _place(_complexes(re, im), (n, site), (nmax, 2 * depth),
                            "mode table CSV")
            q = _csv_q(rows, site)
        if q is None:
            raise ValidationError("mode table CSV needs level s=1 to give q")
        tail_start = np.full(2 * depth, nmax, dtype=int)
    if kind == "position":
        if values.imag.any():
            raise ValidationError(
                f"{path!r} holds complex values; " + (
                    "a position table must hold real values" if is_json else
                    "a momentum table must be read with kind='momentum'"))
        values = values.real
    _check_window(path, ctx, q, 2 * depth, nmax)
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
            values=[]),
            [",\n".join(_cells(repeat("  [\n   "), f.values, ",\n   ", "\n  ]",
                               fmt))])
        return
    atomic_write_text(path, ",".join(_LATTICE_COLUMNS) + "\n", _cells(
        [f"{sign},{s},{x}," for sign, s, x in _sites(ctx.q, ctx.lattice_depth)],
        f.values, ",", f",{int(f.rescaled)}\n", fmt))


def load_lattice_function(path: str, fmt: Optional[str] = None,
                          kind: str = "position",
                          ctx: Optional[DeformationContext] = None
                          ) -> LatticeFunction:
    """Read a lattice function; with ctx, the file must lie on ctx's window.

    That is, it must hold 2 * ctx.lattice_depth sites and have been
    written at ctx.q (the JSON q, or the CSV x at site (+1, s=1)), or
    ValidationError is raised.
    """
    if _infer_format(path, fmt) == "json":
        with _read_json(path, "lattice_function") as doc:
            q = float(doc["q"])
            values = _from_pairs(doc["values"], (2 * int(doc["lattice_depth"]),))
            f = LatticeFunction(doc["kind"], values,
                                rescaled=bool(doc["rescaled"]))
    else:
        with _read_csv(path, "lattice function", _LATTICE_COLUMNS) as (_, rows):
            sign, s, re, im, flag = _columns(rows, (0, 1, 3, 4, 5))
            site = _site(sign, s)
            values = _place(_complexes(re, im), (site,),
                            (int(site.max()) // 2 * 2 + 2,), "lattice function CSV")
            flags = set(map(int, flag))
            q = _csv_q(rows, site)
        if len(flags) != 1:
            raise ValidationError("rescaled_flag must be constant across rows")
        f = LatticeFunction(kind, values, rescaled=bool(flags.pop()))
    _check_window(path, ctx, q, len(f.values))
    return f


# -- evolution kernels -------------------------------------------------

def write_kernel(k: EvolutionKernel, path: str, fmt: Optional[str] = None) -> None:
    fmt = _infer_format(path, fmt)
    meta = _document("evolution_kernel", variant=k.variant, tau=k.tau, q=k.q,
                     n_max=k.n_max, lattice_depth=k.lattice_depth,
                     s_match=k.s_match, tail_estimate=k.tail_estimate)
    sites = [(sign, s) for sign, s, _ in _sites(k.q, k.lattice_depth)]
    rows = zip(sites, k.matrix)
    if fmt == "csv":
        head = " ".join(f"{key}={v}" for key, v in meta.items())
        cols = [f"{sign},{s}," for sign, s in sites]
        atomic_write_text(path, f"# {head}\n{','.join(_KERNEL_COLUMNS)}\n", (
            "".join(_cells([f"{rs},{rl},{col}" for col in cols], row, ",",
                           f",{int(k.low_confidence(rl))}\n", fmt))
            for (rs, rl), row in rows))
        return
    cols = [f'   "col_sign": {sign},\n   "col_s": {s},\n   "re": '
            for sign, s in sites]
    meta["entries"] = []
    _write_json(path, meta, (
        ",\n".join(_cells(
            [f'  {{\n   "row_sign": {rs},\n   "row_s": {rl},\n{col}'
             for col in cols], row, ',\n   "im": ',
            f',\n   "low_confidence": {json.dumps(bool(k.low_confidence(rl)))}'
            '\n  }', fmt))
        for (rs, rl), row in rows))


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


def load_kernel(path: str, fmt: Optional[str] = None,
                ctx: Optional[DeformationContext] = None) -> EvolutionKernel:
    """Read a kernel; with ctx, its q, lattice_depth and n_max must be
    ctx's (n_max is the fock_dim it was built at), or ValidationError."""
    if _infer_format(path, fmt) == "json":
        with _read_json(path, "evolution_kernel") as doc:
            k = _kernel(doc, doc["entries"], _KERNEL_COLUMNS[:6])
    else:
        with _read_csv(path, "kernel", _KERNEL_COLUMNS, meta=True) as (meta, rows):
            k = _kernel(meta, rows, range(6))
    _check_window(path, ctx, k.q, 2 * k.lattice_depth, k.n_max)
    return k


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
