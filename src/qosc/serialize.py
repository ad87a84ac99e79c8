"""CSV/JSON persistence for tables, functions, kernels and reports.

One private codec owns every format: JSON documents lead with
schema_version and object, CSV files with an optional '# key=value'
metadata line and a header. Writes are atomic (temp file, then rename)
and emit floats with repr, so values round-trip exactly and identical
inputs give identical bytes; the file mode follows the umask. Mode
tables, lattice functions and kernels are streamed one window row (or
degree n) at a time, without building the file in memory, and their CSV
loads read a bounded chunk of 2^13 lines at a time. Of each chunk a
load keeps compact columns only: the window site (int32), degree n
(int32), x, the value (real for a position table), and the flags (int8),
25 to 32 bytes a row, in buffers that double as they fill. So a load
holds those columns (at most twice their size), one parsed chunk, the
table it builds, and 9 bytes a row more while it places the cells,
never the whole parsed file. On load, a missing or ill-typed field
(4.9 or true for an integer) raises ValidationError; fields a loader
does not know are ignored.

Files are written in schema 2; the loaders read schema 1 as well, which
differs only in the JSON bulk fields (below). In schema 2 the JSON mode
table, lattice function and kernel end in two fields, "re" and "im",
the real and imaginary parts of their values as nested number arrays
in window order:

    mode table        N x 2S, one row per degree n
    lattice function  2S, on one line
    kernel            2S x 2S, one row per window row; its low_confidence
                      is one boolean per window row, before "re"

Each row is one line, as json.dumps writes a list, NaN and +-Infinity
included. The rest of the document is json.dumps(indent=1). On load,
every cell must be a JSON number and the arrays must have exactly this
shape. Schema 1 held the values as [re, im] pairs ("values"), and the
kernel as one {row_sign, row_s, col_sign, col_s, re, im, low_confidence}
object per entry ("entries"); there, as in CSV files, every cell is
placed exactly once by its key, and a key that is missing, repeated,
negative, out of range or not an integer raises ValidationError.

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
    meta     = "# " key=value {" " key=value} newline   (kernel only);
               no key may appear twice, and a numeric value is a cell of
               its type (below), with no whitespace around it
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
parsed, and at least one row must follow the header. Lines may end in
'\n' or '\r\n'. Cells are keyed by window site (sign, s), plus degree
n in mode tables, and placed as in schema-1 JSON. Each x must be its
site's window value at the q of site (+1, s=1), to a relative 1e-12.

Whatever the format, the q, sizes and tolerance a file records must make
a DeformationContext, as when the object was built. A kernel must pass
EvolutionKernel's own checks (a finite tau, tail_estimate in [0, 1],
s_match >= -1), and its low_confidence flags must be those of its
s_match. A spectrum report must match no (sign, s) twice, hold only
finite eigenvalues and matched errors that are finite and >= 0, give
the largest matched error (0.0 with none) as max_error, and an s_match
in [-1, the deepest level matched at both signs]. Otherwise the loader
raises ValidationError. The spectrum and verify CSV reports hold str()
cells, unquoted: none holds a comma, a quote or a line break.
"""

from __future__ import annotations

import json
import math
import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Optional

import numpy as np

from .context import DeformationContext
from .errors import ValidationError
from .evolution import EvolutionKernel
from .fock import MatchedLevel, SpectrumReport
from .hilbert import LatticeFunction, _check_window
from .qhermite import (ModeTable, window_index, window_levels, window_signs,
                       window_values)

SCHEMA_VERSION = 2

# the bulk CSV columns, in file order, with the type each is parsed as
_MODE_COLUMNS = np.dtype([("sign", "i8"), ("s", "i8"), ("x", "f8"), ("n", "i8"),
                          ("value_re", "f8"), ("value_im", "f8")])
_LATTICE_COLUMNS = np.dtype([("sign", "i8"), ("s", "i8"), ("x", "f8"),
                             ("re", "f8"), ("im", "f8"),
                             ("rescaled_flag", "i8")])
_KERNEL_COLUMNS = np.dtype([("row_sign", "i8"), ("row_s", "i8"),
                            ("col_sign", "i8"), ("col_s", "i8"), ("re", "f8"),
                            ("im", "f8"), ("low_confidence", "i8")])
_CHUNK = 1 << 13  # data lines per np.loadtxt call in _read_csv


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


def _write_json(path: str, payload: dict,
                values: Optional[np.ndarray] = None) -> None:
    """json.dumps(payload, indent=1) and a newline, written to path.

    With values, a 1-D or 2-D array, the document ends in two more
    fields, "re" and "im", laid out as the module docstring says. They
    are streamed, not encoded: _floats formats two rows of a part at a
    time (a kernel's level pair, whose rows hold the same values).
    """
    text = json.dumps(payload, indent=1)
    if values is None:
        atomic_write_text(path, text + "\n")
        return
    atomic_write_text(path, text[:-2], chain(  # text ends in '\n}'
        _json_rows("re", values.real), _json_rows("im", values.imag),
        ["\n}\n"]))


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_MAGNITUDE = np.uint64(0x7FFF_FFFF_FFFF_FFFF)  # a float64's bits but its sign
_INF_BITS = np.uint64(0x7FF0_0000_0000_0000)  # the magnitudes above it are NaN


def _floats(values: np.ndarray, fmt: str) -> list:
    """Text of each float of a 1-D float64 array as csv and json write it:
    repr, except that JSON spells nan and +-inf as NaN and +-Infinity.

    Each distinct magnitude is formatted once, and a '-' is put before
    each value whose sign bit is set (not on NaN, as repr(-nan) is 'nan'):
    the window's parity puts each value of a mode table row or a kernel
    level at a mirror site too, up to sign.
    """
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


def _json_rows(key: str, part: np.ndarray):
    """The texts of field key: part, a 1-D or 2-D float array, as
    _write_json lays it out."""
    if part.ndim == 1:
        yield f',\n "{key}": [{", ".join(_floats(part, "json"))}]'
        return
    head, width = f',\n "{key}": [\n  ', part.shape[1]
    for i in range(0, len(part), 2):
        cells = _floats(part[i:i + 2].ravel(), "json")
        for j in range(0, len(cells), width):
            yield f"{head}[{', '.join(cells[j:j + width])}]"
            head = ",\n  "
    yield "\n ]"


def _cells(heads, row: np.ndarray, mid: str, end: str) -> list:
    """CSV head + re + mid + im + end for each value of a 1-D row."""
    return list(map("".join, zip(heads, _floats(row.real, "csv"), repeat(mid),
                                 _floats(row.imag, "csv"), repeat(end))))


@contextmanager
def _fields(path: str, what: str):
    """Open an artifact; what is malformed in it raises ValidationError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} file {path!r} is malformed: {exc!r}") from exc


def _check_schema(version) -> None:
    """ValidationError unless version is a schema the loaders read."""
    if type(version) is not int or version not in (1, SCHEMA_VERSION):
        raise ValidationError(f"expected schema_version 1 or "
                              f"{SCHEMA_VERSION}, found {version!r}")


@contextmanager
def _read_json(path: str, obj: str):
    """The document of a JSON artifact of schema 1 or 2, tagged obj."""
    with _fields(path, obj) as fh:
        payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValidationError("top-level JSON payload must be an object")
        _check_schema(payload.get("schema_version"))
        if payload.get("object") != obj:
            raise ValidationError(
                f"expected object {obj!r}, found {payload.get('object')!r}")
        yield payload


def _put(buf, filled: int, part: np.ndarray, dtype) -> np.ndarray:
    """buf with part at [filled:] as dtype, or as part's own dtype where
    it holds an integer past dtype's range (a damaged key), so no value
    changes. Where part does not fit, or widens buf's dtype, it goes in a
    new buffer of twice the size."""
    if np.dtype(dtype).kind == "i" and len(part):
        lim = np.iinfo(dtype)
        if part.min() < lim.min or part.max() > lim.max:
            dtype = part.dtype
    end = filled + len(part)
    if buf is None:
        buf = np.empty(end, dtype)
    dtype = np.promote_types(buf.dtype, dtype)
    if end > len(buf) or dtype != buf.dtype:
        new = np.empty(max(end, 2 * len(buf)), dtype)
        new[:filled] = buf[:filled]
        buf = new
    buf[filled:end] = part
    return buf


class _Held(dict):
    """Columns by name. A column whose chunk function raised
    ValidationError holds that error, raised when the column is read, so
    a check fails where it stood when the whole file was parsed at once."""

    def __getitem__(self, name):
        col = super().__getitem__(name)
        if isinstance(col, ValidationError):
            raise col
        return col


@contextmanager
def _read_csv(path: str, what: str, columns: np.dtype, keep: dict,
              meta: bool = False):
    """Yield (metadata dict or None, the columns that keep makes of the
    data rows, as a _Held), parsed by the grammar in the module docstring.

    keep maps a name to (dtype, function of a chunk). The data lines are
    parsed _CHUNK at a time into a 1-D array of the structured dtype
    columns, each function's value on that chunk is kept as dtype in its
    column's buffer (_put), and the chunk is dropped before the next is
    parsed. The file is read once, so a pipe loads as a file does.
    """
    with _fields(path, what) as fh:
        info = None
        if meta:
            line = fh.readline()
            if not line.startswith("# "):
                raise ValidationError(f"{what} CSV is missing its metadata line")
            pairs = [tok.partition("=")[::2] for tok in line[2:].split()]
            info = dict(pairs)
            if len(info) != len(pairs):
                raise ValidationError(f"{what} CSV metadata repeats a key")
        header = ",".join(columns.names)
        if fh.readline().rstrip("\r\n") != header:
            raise ValidationError(f"{what} CSV header is wrong, expected {header}")
        for first in fh:  # empty lines are skipped, as loadtxt skips them
            if first.rstrip("\r\n"):
                break
        else:
            raise ValidationError(f"{what} CSV has no rows after its header")
        bufs, filled, held = {}, 0, {}
        lines = chain([first], fh)
        for line in lines:  # islice reads no line past its chunk
            with warnings.catch_warnings():
                # numpy releases that only deprecate float text in an int
                # column read '1.7' as 1 with this warning; as an error,
                # loadtxt turns it into its ValueError
                warnings.filterwarnings("error", ".*integer via a float",
                                        DeprecationWarning)
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)  # all blank
                rows = np.loadtxt(islice(chain([line], lines), _CHUNK),
                                  dtype=columns, delimiter=",", comments=None,
                                  ndmin=1)
            for name, (dtype, get) in keep.items():
                if name not in held:
                    try:
                        bufs[name] = _put(bufs.get(name), filled,
                                          get(rows), dtype)
                    except ValidationError as exc:
                        held[name] = exc
            filled += len(rows)
            del rows
        cols = _Held(held)
        for name, buf in bufs.items():
            if name not in held:
                cols[name] = buf[:filled]
        yield info, cols


def _complexes(re, im) -> np.ndarray:
    """re + i im from two float columns, bit for bit."""
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _typed(value, kind: str, what: str, shape: Optional[tuple] = None
           ) -> np.ndarray:
    """value as an array of numpy dtype kind ('i' integers, 'b' booleans),
    of this shape if one is given, or ValidationError. No cell is
    converted: a float cell makes the whole array float, and so fails."""
    a = np.asarray(value)
    if a.dtype.kind != kind:
        raise ValidationError(f"{what} must hold only "
                              f"{'integers' if kind == 'i' else 'booleans'}")
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{what} has shape {a.shape}, not {shape}")
    return a


def _scalar(doc: dict, key: str, typ: type):
    """doc[key] as typ, which must be its JSON type: float (an integer
    passes), int or bool (each passes only as itself), or ValidationError."""
    if typ is float:
        return float(_numbers(doc[key], (), key))
    return typ(_typed(doc[key], "b" if typ is bool else "i", key, ()))


def _meta(meta: dict, key: str, typ: type):
    """meta[key], text of the kernel CSV metadata line, as typ by the cell
    grammar: an int is ASCII digits with an optional sign; a float is what
    float() reads, with no '_' and only ASCII digits; or ValidationError."""
    text = meta[key]
    if not (re.fullmatch(r"[+-]?[0-9]+", text) if typ is int
            else text.isascii() and "_" not in text):
        raise ValidationError(f"kernel CSV metadata {key}={text!r} is not "
                              f"{'an integer' if typ is int else 'a float'}")
    return typ(text)


def _site(sign, s) -> np.ndarray:
    """Window positions of (sign, s) key columns; signs must be +1 or -1."""
    sign = _typed(sign, "i", "site sign")
    if not np.all((sign == 1) | (sign == -1)):
        raise ValidationError("site sign must be +1 or -1")
    return window_index(sign, _typed(s, "i", "site level"))


# what _read_csv keeps of each chunk of a bulk CSV's rows: window sites as
# int32 (an int64 key a damaged file holds widens them), values as complex
_SITE = {"site": (np.int32, lambda rows: _site(rows["sign"], rows["s"]))}
_VALUE = {"value": (complex, lambda rows: _complexes(rows["re"], rows["im"]))}
_KERNEL_CSV = {
    "row_site": (np.int32, lambda rows: _site(rows["row_sign"], rows["row_s"])),
    "col_site": (np.int32, lambda rows: _site(rows["col_sign"], rows["col_s"])),
    **_VALUE, "low_confidence": (np.int8, itemgetter("low_confidence"))}


def _place(values: np.ndarray, index, shape: tuple, what: str) -> np.ndarray:
    """Dense table of this shape, owning its data, with values[k] at cell
    (index[0][k], ...).

    Every cell must be keyed exactly once; a key that is negative, out of
    range, repeated or absent raises ValidationError. With one value per
    cell, that is every cell keyed.
    """
    size = math.prod(shape)
    if len(values) != size:
        raise ValidationError(
            f"{what} has {len(values)} cells, a {shape} table needs {size}")
    try:
        flat = np.ravel_multi_index(index, shape)
    except ValueError as exc:
        raise ValidationError(f"{what} has a key outside its {shape} table") from exc
    seen = np.zeros(size, dtype=bool)
    seen[flat] = True
    if not seen.all():
        raise ValidationError(f"{what} must hold every cell exactly once")
    out = np.empty(shape, dtype=values.dtype)
    out.reshape(-1)[flat] = values
    return out


def _from_pairs(pairs, shape: tuple) -> np.ndarray:
    """Complex values of this shape from schema-1 [re, im] pairs."""
    return _numbers(pairs, (*shape, 2), '"values"').view(complex)[..., 0]


def _numbers(value, shape: tuple, what: str) -> np.ndarray:
    """A JSON array of this shape, every cell a number, as floats."""
    cells = [value]
    for _ in shape:
        cells = chain.from_iterable(cells)
    if not set(map(type, cells)) <= {float, int}:
        raise ValidationError(f"{what} must hold only numbers")
    a = np.array(value, dtype=float)
    if a.shape != shape:
        raise ValidationError(f"{what} has shape {a.shape}, not {shape}")
    return a


def _from_arrays(doc: dict, shape: tuple) -> np.ndarray:
    """Complex values of this shape from the "re" and "im" fields of a
    schema-2 document, bit for bit."""
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = (_numbers(doc[key], shape, f'"{key}"')
                          for key in ("re", "im"))
    return out


def _bulk(doc: dict, shape: tuple) -> np.ndarray:
    """The values of a JSON mode table or lattice function, either schema."""
    if doc["schema_version"] == 1:
        return _from_pairs(doc["values"], shape)
    return _from_arrays(doc, shape)


def _csv_q(x: np.ndarray, site: np.ndarray, depth: int) -> Optional[float]:
    """q read from the x cell of window site (+1, s=1); None if the window
    has one level. Every x must be its site's window value at that q to a
    relative 1e-12, not bit for bit: the file may come from a machine whose
    power function rounds differently, or ValidationError."""
    at = np.flatnonzero(site == window_index(1, 1))
    q = float(x[at[0]]) if at.size else None
    # a one-level window is {+1, -1} at every q
    want = window_values(DeformationContext(
        q=0.5 if q is None else q, lattice_depth=depth))
    for i in range(0, len(x), _CHUNK):
        part = slice(i, i + _CHUNK)
        close = np.isclose(x[part], want[site[part]], rtol=1e-12,
                           atol=np.finfo(float).tiny)
        if not close.all():
            bad = i + np.argmin(close)
            raise ValidationError(
                f"x = {x[bad]!r} at window site {site[bad]} is not its "
                f"window value {want[site[bad]]!r} at q={q!r}")
    return q


def _check_loaded(path: str, ctx: Optional[DeformationContext],
                  q: Optional[float], depth: int,
                  fock_dim: Optional[int] = None) -> None:
    """A loaded artifact's q, depth and degree count (where the file
    records one) must make a DeformationContext; with ctx, they must be
    ctx's, so the artifact lies on ctx's window. Else ValidationError.
    q is None only for a one-level window, which is {+-1} for every q."""
    DeformationContext(q=0.5 if q is None else q, lattice_depth=depth,
                       **({} if fock_dim is None else {"fock_dim": fock_dim}))
    if ctx is None:
        return
    if depth != ctx.lattice_depth:
        raise ValidationError(
            f"{path!r} holds {2 * depth} sites, a window of depth "
            f"{ctx.lattice_depth} needs {2 * ctx.lattice_depth}")
    if q is not None and q != ctx.q:
        raise ValidationError(
            f"{path!r} was written at q={q!r}, the context has q={ctx.q!r}")
    if fock_dim is not None and fock_dim != ctx.fock_dim:
        raise ValidationError(
            f"{path!r} holds {fock_dim} degrees, the context has "
            f"fock_dim={ctx.fock_dim}")


def _sites(q: float, depth: int) -> list:
    """(sign, s, x) per window site, in window order."""
    ctx = DeformationContext(q=q, lattice_depth=depth)
    return list(zip(window_signs(ctx).tolist(), window_levels(ctx).tolist(),
                    window_values(ctx).tolist()))


# -- mode tables -------------------------------------------------------

def write_mode_table(table: ModeTable, path: str, fmt: Optional[str] = None) -> None:
    fmt = _infer_format(path, fmt)
    if fmt == "json":
        _write_json(path, _document(
            "mode_table", kind=table.kind, q=table.q, fock_dim=table.fock_dim,
            lattice_depth=table.lattice_depth,
            tail_start=[int(t) for t in table.tail_start]),
            table.values)
        return
    sites = [f"{sign},{s},{x}," for sign, s, x in
             _sites(table.q, table.lattice_depth)]
    atomic_write_text(path, ",".join(_MODE_COLUMNS.names) + "\n", (
        "".join(_cells([f"{site}{n}," for site in sites], row, ",", "\n"))
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
            kind, q = doc["kind"], _scalar(doc, "q", float)
            nmax = _scalar(doc, "fock_dim", int)
            depth = _scalar(doc, "lattice_depth", int)
            values = _bulk(doc, (nmax, 2 * depth))
            tail_start = _typed(doc["tail_start"], "i", "tail_start",
                                (2 * depth,))
        if not np.all((tail_start >= 0) & (tail_start <= nmax)):
            raise ValidationError(f"tail_start must lie in [0, {nmax}]")
    else:
        # a position table keeps its real parts and whether any imaginary
        # part is nonzero
        value = ({"value": (float, itemgetter("value_re")),
                  "complex": (bool, lambda rows: rows["value_im"] != 0)}
                 if kind == "position" else
                 {"value": (complex, lambda rows: _complexes(
                     rows["value_re"], rows["value_im"]))})
        with _read_csv(path, "mode table", _MODE_COLUMNS, {
                **_SITE, "n": (np.int32, itemgetter("n")),
                "x": (float, itemgetter("x")), **value}) as (_, cols):
            site, n = cols["site"], cols["n"]
            nmax, depth = int(n.max()) + 1, int(site.max()) // 2 + 1
            values = _place(cols["value"], (n, site), (nmax, 2 * depth),
                            "mode table CSV")
            q = _csv_q(cols["x"], site, depth)
        if q is None:
            raise ValidationError("mode table CSV needs level s=1 to give q")
        tail_start = np.full(2 * depth, nmax, dtype=int)
    if kind == "position":
        if values.imag.any() if is_json else cols["complex"].any():
            raise ValidationError(
                f"{path!r} holds complex values; " + (
                    "a position table must hold real values" if is_json else
                    "a momentum table must be read with kind='momentum'"))
        values = np.ascontiguousarray(values.real)
    _check_loaded(path, ctx, q, depth, nmax)
    return ModeTable(kind=kind, q=q, fock_dim=nmax, lattice_depth=depth,
                     values=values, tail_start=tail_start)


# -- lattice functions -------------------------------------------------

def write_lattice_function(f: LatticeFunction, ctx: DeformationContext,
                           path: str, fmt: Optional[str] = None) -> None:
    fmt = _infer_format(path, fmt)
    _check_window(f, ctx, ValidationError)
    if fmt == "json":
        _write_json(path, _document(
            "lattice_function", kind=f.kind, q=ctx.q,
            lattice_depth=ctx.lattice_depth, rescaled=bool(f.rescaled)),
            f.values)
        return
    atomic_write_text(path, ",".join(_LATTICE_COLUMNS.names) + "\n", _cells(
        [f"{sign},{s},{x}," for sign, s, x in _sites(ctx.q, ctx.lattice_depth)],
        f.values, ",", f",{int(f.rescaled)}\n"))


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
            q = _scalar(doc, "q", float)
            values = _bulk(doc, (2 * _scalar(doc, "lattice_depth", int),))
            f = LatticeFunction(doc["kind"], values,
                                rescaled=_scalar(doc, "rescaled", bool))
    else:
        with _read_csv(path, "lattice function", _LATTICE_COLUMNS, {
                **_SITE, "x": (float, itemgetter("x")), **_VALUE,
                "flag": (np.int8, itemgetter("rescaled_flag"))}) as (_, cols):
            site = cols["site"]
            depth = int(site.max()) // 2 + 1
            values = _place(cols["value"], (site,), (2 * depth,),
                            "lattice function CSV")
            flags = cols["flag"]  # np.unique would import numpy.ma
            q = _csv_q(cols["x"], site, depth)
        if (flags != flags[0]).any():
            raise ValidationError("rescaled_flag must be constant across rows")
        f = LatticeFunction(kind, values, rescaled=bool(flags[0]))
    _check_loaded(path, ctx, q, len(f.values) // 2)
    return f


# -- evolution kernels -------------------------------------------------

def write_kernel(k: EvolutionKernel, path: str, fmt: Optional[str] = None) -> None:
    fmt = _infer_format(path, fmt)
    meta = _document("evolution_kernel", variant=k.variant, tau=k.tau, q=k.q,
                     n_max=k.n_max, lattice_depth=k.lattice_depth,
                     s_match=k.s_match, tail_estimate=k.tail_estimate)
    if fmt == "json":  # window row i lies on level i // 2
        meta["low_confidence"] = k.low_confidence(
            np.arange(2 * k.lattice_depth) // 2).tolist()
        _write_json(path, meta, k.matrix)
        return
    # one level at a time: rows (+1, s) and (-1, s) hold the same values,
    # in columns swapped pairwise, so _floats formats each of them once
    sites = [(sign, s) for sign, s, _ in _sites(k.q, k.lattice_depth)]
    head = " ".join(f"{key}={v}" for key, v in meta.items())
    cols = [f"{sign},{s}," for sign, s in sites]
    atomic_write_text(path, f"# {head}\n{','.join(_KERNEL_COLUMNS.names)}\n", (
        "".join(_cells([f"{rs},{rl},{col}" for rs, rl in sites[2 * s:2 * s + 2]
                        for col in cols], k.matrix[2 * s:2 * s + 2].ravel(),
                       ",", f",{int(k.low_confidence(s))}\n"))
        for s in range(k.lattice_depth)))


def _json_columns(entries) -> dict:
    """The columns of schema-1 JSON kernel entries, as _KERNEL_CSV keeps
    them of a CSV kernel's rows."""
    cols = {key: list(map(itemgetter(key), entries))
            for key in _KERNEL_COLUMNS.names}
    value = _complexes(*(_numbers(cols[key], (len(entries),), key)
                         for key in ("re", "im")))
    return {"value": value, "row_site": _site(cols["row_sign"], cols["row_s"]),
            "col_site": _site(cols["col_sign"], cols["col_s"]),
            "low_confidence": cols["low_confidence"]}


def _placed(cols, size: int) -> np.ndarray:
    """The size x size matrix of kernel entries given as columns by name
    (a schema-1 JSON or a CSV kernel)."""
    return _place(cols["value"], (cols["row_site"], cols["col_site"]),
                  (size, size), "kernel")


def _kernel(meta: dict, matrix: np.ndarray, num=_scalar) -> EvolutionKernel:
    """A kernel from its metadata and its 2S x 2S matrix; num(meta, key,
    type) reads each number, by default as a JSON value of that type."""
    return EvolutionKernel(tau=num(meta, "tau", float), variant=meta["variant"],
                           q=num(meta, "q", float), n_max=num(meta, "n_max", int),
                           lattice_depth=len(matrix) // 2, matrix=matrix,
                           tail_estimate=num(meta, "tail_estimate", float),
                           s_match=num(meta, "s_match", int))


def load_kernel(path: str, fmt: Optional[str] = None,
                ctx: Optional[DeformationContext] = None) -> EvolutionKernel:
    """Read a kernel; with ctx, its q, lattice_depth and n_max must be
    ctx's (n_max is the fock_dim it was built at), or ValidationError."""
    if _infer_format(path, fmt) == "json":
        with _read_json(path, "evolution_kernel") as doc:
            size = 2 * _scalar(doc, "lattice_depth", int)
            if doc["schema_version"] == 1:
                cols = _json_columns(doc["entries"])
                k = _kernel(doc, _placed(cols, size))
                levels, flags = cols["row_site"] // 2, cols["low_confidence"]
            else:
                k = _kernel(doc, _from_arrays(doc, (size, size)))
                levels, flags = np.arange(size) // 2, doc["low_confidence"]
            flags = _typed(flags, "b", "low_confidence", (len(levels),))
    else:
        with _read_csv(path, "kernel", _KERNEL_COLUMNS, _KERNEL_CSV,
                       meta=True) as (meta, cols):
            _check_schema(_meta(meta, "schema_version", int))
            k = _kernel(meta, _placed(cols, 2 * _meta(meta, "lattice_depth",
                                                      int)), _meta)
        levels, flags = cols["row_site"] // 2, cols["low_confidence"]
    if not np.array_equal(flags, k.low_confidence(levels)):
        raise ValidationError(f"kernel low_confidence flags are not those of "
                              f"s_match {k.s_match}")
    _check_loaded(path, ctx, k.q, k.lattice_depth, k.n_max)
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
    atomic_write_text(path, "sign,s,lambda,error\n", chain(
        (f"{m.sign},{m.s},{m.value},{m.error}\n" for m in rep.matched),
        (f",,{v},\n" for v in rep.unmatched)))


def load_spectrum_report(path: str) -> SpectrumReport:
    """Read a JSON spectrum report, checked as the module docstring says."""
    with _read_json(path, "spectrum_report") as doc:
        ctx = DeformationContext(q=_scalar(doc, "q", float),
                                 fock_dim=_scalar(doc, "fock_dim", int),
                                 lattice_depth=_scalar(doc, "lattice_depth", int),
                                 match_tol=_scalar(doc, "match_tol", float))
        matched = [MatchedLevel(_scalar(m, "sign", int), _scalar(m, "s", int),
                                _scalar(m, "lambda", float), _scalar(m, "error", float))
                   for m in doc["matched"]]
        rest = doc["unmatched"]
        rep = SpectrumReport(q=ctx.q, fock_dim=ctx.fock_dim,
                             lattice_depth=ctx.lattice_depth,
                             match_tol=ctx.match_tol, matched=matched,
                             unmatched=_numbers(rest, (len(rest),),
                                                "unmatched").tolist(),
                             s_match=_scalar(doc, "s_match", int),
                             max_error=_scalar(doc, "max_error", float))
    sites = {(m.sign, m.s) for m in matched}
    both = [s for sign, s in sites if sign == 1 and (-1, s) in sites]
    for bad, what in (
            (any(m.sign not in (1, -1) or not 0 <= m.s < rep.lattice_depth
                 for m in matched), "a matched level off the window"),
            (len(sites) < len(matched), "a level matched twice"),
            (not all(map(math.isfinite, [m.value for m in matched]
                         + rep.unmatched)), "an eigenvalue that is not finite"),
            (not all(0.0 <= m.error < math.inf for m in matched),
             "a matched error that is not finite and >= 0"),
            (rep.max_error != max((m.error for m in matched), default=0.0),
             "a max_error that is not the largest matched error"),
            (not -1 <= rep.s_match <= max(both, default=-1), "an s_match "
             "outside [-1, the deepest level matched at both signs]")):
        if bad:
            raise ValidationError(f"spectrum report {path!r} holds {what}")
    return rep


def verify_report_payload(rep) -> dict:
    return _document("verify_report", overall_pass=bool(rep.overall_pass),
                     seed=rep.seed, qs=list(rep.qs), runtime_s=rep.runtime_s,
                     checks=[asdict(c) for c in rep.checks])


def write_verify_report(rep, path: str, fmt: Optional[str] = None) -> None:
    if _infer_format(path, fmt) == "json":
        _write_json(path, verify_report_payload(rep))
        return
    atomic_write_text(path, "name,status,residual,tolerance,runtime_s\n", (
        f"{c.name},{'pass' if c.passed else 'fail'},{c.residual},"
        f"{c.tolerance},{c.runtime_s}\n" for c in rep.checks))


def write_polynomial_table(sites: list, values: np.ndarray, family: str,
                           q: float, path: str,
                           fmt: Optional[str] = None) -> None:
    """The table `qosc hermite` writes: values[n, i] at the i-th of sites,
    (sign, s, x) triples, one row (n, sign, s, x, value) per entry.

    sign and s are "" for grid points. The JSON form keeps n, x and value
    and has no object tag. The CSV form formats each x once and each row
    of values with _floats.
    """
    if _infer_format(path, fmt) == "json":
        _write_json(path, _document(None, family=family, q=q, rows=[
            {"n": n, "x": x, "value": v}
            for n, row in enumerate(values.tolist())
            for (_, _, x), v in zip(sites, row)]))
        return
    xs = _floats(np.array([x for _, _, x in sites], dtype=float), "csv")
    heads = [f"{sign},{s},{x}," for (sign, s, _), x in zip(sites, xs)]
    atomic_write_text(path, "n,sign,s,x,value\n", (
        "".join(map("".join, zip(repeat(f"{n},"), heads,
                                 _floats(row, "csv"), repeat("\n"))))
        for n, row in enumerate(values)))
