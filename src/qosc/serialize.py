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

The three bulk CSV loaders (mode table, lattice function, kernel) read
this grammar, and raise ValidationError on anything else:

    file     = [meta] header {blank} row {row | blank}
    meta     = "# " key=value {" " key=value} newline   (kernel only)
    header   = the column names above, comma-separated, exactly, newline
    row      = cell {"," cell} newline, one cell per column (the file's
               last newline may be left out)
    cell     = in the sign, s, n and flag columns, an integer: ASCII
               digits with an optional sign, no '.' and no exponent; in
               the x, re, im, value_re and value_im columns, a float as
               Python's float() reads it, nan and inf included, but with
               no '_' and only ASCII digits; either with optional
               whitespace around it
    blank    = an empty line, skipped wherever it stands after the header

There is no quoting and no comment syntax after the metadata line: a
'"' or '#' in a row makes its cell unreadable. A line of spaces is not
blank; it is a row with too few cells. Every cell of every column is
parsed, the x column included, and at least one row must follow the
header. Lines may end in '\n' or '\r\n'.
"""

from __future__ import annotations

import csv
import json
import math
import os
import warnings
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

# the bulk CSV columns, in file order, with the type each is parsed as
_MODE_COLUMNS = np.dtype([("sign", "i8"), ("s", "i8"), ("x", "f8"), ("n", "i8"),
                          ("value_re", "f8"), ("value_im", "f8")])
_LATTICE_COLUMNS = np.dtype([("sign", "i8"), ("s", "i8"), ("x", "f8"),
                             ("re", "f8"), ("im", "f8"),
                             ("rescaled_flag", "i8")])
_KERNEL_COLUMNS = np.dtype([("row_sign", "i8"), ("row_s", "i8"),
                            ("col_sign", "i8"), ("col_s", "i8"), ("re", "f8"),
                            ("im", "f8"), ("low_confidence", "i8")])


# -- the codec ---------------------------------------------------------

@contextmanager
def _atomic_open(path: str):
    """A temp file beside path, renamed onto it once the block completes.

    The temp file is created with mode 0o666, so the process umask sets
    the artifact's final mode, as it would for a plain open().
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".qosc-{os.urandom(8).hex()}.tmp")
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
_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)  # a float64's bits but its sign
_INF_BITS = np.uint64(0x7FF0_0000_0000_0000)  # the magnitudes above it are NaN


def _floats(values: np.ndarray, fmt: str, mirrored: bool = False) -> list:
    """Text of each float of a 1-D float64 array as csv and json write it:
    repr, except that JSON spells nan and +-inf as NaN and +-Infinity.

    mirrored says that each magnitude recurs in the array: the window's
    parity puts each value of a mode table row or a kernel level at a
    mirror site too, up to sign. Each distinct magnitude is then
    formatted once, and a '-' is put before each value whose sign bit is
    set (not on NaN, as repr(-nan) is 'nan').
    """
    if not mirrored:
        text = list(map(repr, values.tolist()))
    else:
        bits = values.view(np.uint64)
        mag = bits & _MAGNITUDE
        srt = np.sort(mag)  # np.unique costs 10x more than this sort
        distinct = np.concatenate((srt[:1], srt[1:][srt[1:] != srt[:-1]]))
        text = np.array(list(map(repr, distinct.view(float).tolist())),
                        dtype=object)[np.searchsorted(distinct, mag)]
        neg = np.flatnonzero((bits > _MAGNITUDE) & (mag <= _INF_BITS))
        text[neg] = "-" + text[neg]
        text = text.tolist()
    if fmt == "json" and not np.isfinite(values).all():
        text = [_JSON_NONFINITE.get(t, t) for t in text]
    return text


def _cells(heads, row: np.ndarray, mid: str, end: str, fmt: str,
           mirrored: bool = False) -> list:
    """head + re + mid + im + end for each value of a 1-D row; mirrored as
    in _floats."""
    return list(map("".join, zip(heads, _floats(row.real, fmt, mirrored),
                                 repeat(mid), _floats(row.imag, fmt, mirrored),
                                 repeat(end))))


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
def _read_csv(path: str, what: str, columns: np.dtype, meta: bool = False):
    """Yield (metadata dict or None, the data rows as a 1-D array of the
    structured dtype columns), parsed by the grammar in the module
    docstring."""
    with _fields(path, what) as fh:
        info = None
        if meta:
            line = fh.readline()
            if not line.startswith("# "):
                raise ValidationError(f"{what} CSV is missing its metadata line")
            info = dict(tok.partition("=")[::2] for tok in line[2:].split())
        header = ",".join(columns.names)
        if fh.readline().rstrip("\r\n") != header:
            raise ValidationError(f"{what} CSV header is wrong, expected {header}")
        for first in fh:  # empty lines are skipped, as loadtxt skips them
            if first.rstrip("\r\n"):
                break
        else:
            raise ValidationError(f"{what} CSV has no rows after its header")
        with warnings.catch_warnings():
            # numpy releases that only deprecate float text in an int column
            # read '1.7' as 1 with this warning; as an error, loadtxt turns
            # it into its ValueError
            warnings.filterwarnings("error", ".*integer via a float",
                                    DeprecationWarning)
            rows = np.loadtxt(chain([first], fh), dtype=columns,
                              delimiter=",", comments=None, ndmin=1)
        yield info, rows


def _complexes(re, im) -> np.ndarray:
    """re + i im from two float columns, bit for bit."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _site(sign, s) -> np.ndarray:
    """Window positions of (sign, s) key columns; signs must be +1 or -1."""
    sign = np.asarray(sign, dtype=np.int64)
    if not np.all((sign == 1) | (sign == -1)):
        raise ValidationError("site sign must be +1 or -1")
    return window_index(sign, np.asarray(s, dtype=np.int64))


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


def _csv_q(x: np.ndarray, site: np.ndarray) -> Optional[float]:
    """q read from the x cell of window site (+1, s=1); None if absent."""
    at = np.flatnonzero(site == window_index(1, 1))
    return float(x[at[0]]) if at.size else None


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
    # p_n(-x) = (-1)^n p_n(x): each row is mirrored, as _floats means it
    if fmt == "json":
        _write_json(path, _document(
            "mode_table", kind=table.kind, q=table.q, fock_dim=table.fock_dim,
            lattice_depth=table.lattice_depth,
            tail_start=[int(t) for t in table.tail_start], values=[]), (
            "  [\n" + ",\n".join(_cells(repeat("   [\n    "), row, ",\n    ",
                                         "\n   ]", fmt, True)) + "\n  ]"
            for row in table.values))
        return
    sites = [f"{sign},{s},{x}," for sign, s, x in
             _sites(table.q, table.lattice_depth)]
    atomic_write_text(path, ",".join(_MODE_COLUMNS.names) + "\n", (
        "".join(_cells([f"{site}{n}," for site in sites], row, ",", "\n", fmt,
                       True))
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
            site, n = _site(rows["sign"], rows["s"]), rows["n"]
            nmax, depth = int(n.max()) + 1, int(site.max()) // 2 + 1
            values = _place(_complexes(rows["value_re"], rows["value_im"]),
                            (n, site), (nmax, 2 * depth), "mode table CSV")
            q = _csv_q(rows["x"], site)
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
    atomic_write_text(path, ",".join(_LATTICE_COLUMNS.names) + "\n", _cells(
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
            site = _site(rows["sign"], rows["s"])
            values = _place(_complexes(rows["re"], rows["im"]), (site,),
                            (int(site.max()) // 2 * 2 + 2,), "lattice function CSV")
            flags = np.unique(rows["rescaled_flag"])
            q = _csv_q(rows["x"], site)
        if flags.size != 1:
            raise ValidationError("rescaled_flag must be constant across rows")
        f = LatticeFunction(kind, values, rescaled=bool(flags[0]))
    _check_window(path, ctx, q, len(f.values))
    return f


# -- evolution kernels -------------------------------------------------

def write_kernel(k: EvolutionKernel, path: str, fmt: Optional[str] = None) -> None:
    fmt = _infer_format(path, fmt)
    meta = _document("evolution_kernel", variant=k.variant, tau=k.tau, q=k.q,
                     n_max=k.n_max, lattice_depth=k.lattice_depth,
                     s_match=k.s_match, tail_estimate=k.tail_estimate)
    sites = [(sign, s) for sign, s, _ in _sites(k.q, k.lattice_depth)]
    # one level at a time: rows (+1, s) and (-1, s) hold the same values,
    # in columns swapped pairwise, so _floats formats each of them once
    levels = ((sites[2 * s:2 * s + 2], k.matrix[2 * s:2 * s + 2].ravel(),
               k.low_confidence(s)) for s in range(k.lattice_depth))
    if fmt == "csv":
        head = " ".join(f"{key}={v}" for key, v in meta.items())
        cols = [f"{sign},{s}," for sign, s in sites]
        atomic_write_text(
            path, f"# {head}\n{','.join(_KERNEL_COLUMNS.names)}\n", (
                "".join(_cells([f"{rs},{rl},{col}" for rs, rl in pair
                                for col in cols], row, ",", f",{int(low)}\n",
                               fmt, True))
                for pair, row, low in levels))
        return
    cols = [f'   "col_sign": {sign},\n   "col_s": {s},\n   "re": '
            for sign, s in sites]
    meta["entries"] = []
    _write_json(path, meta, (
        ",\n".join(_cells(
            [f'  {{\n   "row_sign": {rs},\n   "row_s": {rl},\n{col}'
             for rs, rl in pair for col in cols], row, ',\n   "im": ',
            f',\n   "low_confidence": {json.dumps(bool(low))}\n  }}', fmt,
            True))
        for pair, row, low in levels))


def _json_columns(entries) -> dict:
    """The columns of JSON kernel entries by name, re and im as floats."""
    cols = {key: list(map(itemgetter(key), entries))
            for key in _KERNEL_COLUMNS.names[:6]}
    for key in ("re", "im"):
        cols[key] = np.fromiter(map(float, cols[key]), dtype=float,
                                count=len(cols[key]))
    return cols


def _kernel(meta: dict, cols) -> EvolutionKernel:
    """A kernel from its metadata and its entries' columns, by name."""
    depth = int(meta["lattice_depth"])
    matrix = _place(_complexes(cols["re"], cols["im"]),
                    (_site(cols["row_sign"], cols["row_s"]),
                     _site(cols["col_sign"], cols["col_s"])),
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
            k = _kernel(doc, _json_columns(doc["entries"]))
    else:
        with _read_csv(path, "kernel", _KERNEL_COLUMNS, meta=True) as (meta, rows):
            k = _kernel(meta, rows)
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
