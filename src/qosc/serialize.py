"""CSV/JSON persistence for tables, functions, kernels and reports.

One private codec owns every format: JSON documents lead with
schema_version and object, CSV files with an optional '# key=value'
metadata line and a header. Writes are atomic (temp file, then rename)
and emit floats with repr, so values round-trip exactly and identical
inputs give identical bytes; the file mode follows the umask. Mode
tables, lattice functions and kernels are streamed one window row (or
degree n) at a time, without building the file in memory. On load, a
missing or ill-typed field raises ValidationError; fields a loader does
not know are ignored.

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
parsed, and at least one row must follow the header. Lines may end in
'\n' or '\r\n'. Cells are keyed by window site (sign, s), plus degree
n in mode tables, and placed as in schema-1 JSON. Each x must be its
site's window value at the q of site (+1, s=1), to a relative 1e-12.
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
from .qhermite import ModeTable, lattice_window, window_index, window_values

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


def _write_csv(path: str, header, rows) -> None:
    """A small mixed-type table through csv.writer: header, then rows."""
    with _atomic_open(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


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
        raise ValidationError(
            f"{what} has shape {a.shape}, one entry per window site "
            f"needs {shape}")
    return a


def _site(sign, s) -> np.ndarray:
    """Window positions of (sign, s) key columns; signs must be +1 or -1."""
    sign = _typed(sign, "i", "site sign")
    if not np.all((sign == 1) | (sign == -1)):
        raise ValidationError("site sign must be +1 or -1")
    return window_index(sign, _typed(s, "i", "site level"))


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
    """Complex values of this shape from schema-1 [re, im] pairs."""
    return _numbers(pairs, (*shape, 2), '"values"').view(complex)[..., 0]


def _numbers(value, shape: tuple, what: str) -> np.ndarray:
    """A JSON array of this shape, every cell a number, as floats."""
    cells = value
    for _ in shape[1:]:
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
        q=0.5 if q is None else q, lattice_depth=depth))[site]
    close = np.isclose(x, want, rtol=1e-12, atol=np.finfo(float).tiny)
    if not close.all():
        bad = np.argmin(close)
        raise ValidationError(
            f"x = {x[bad]!r} at window site {site[bad]} is not its window "
            f"value {want[bad]!r} at q={q!r}")
    return q


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
            kind, q = doc["kind"], float(doc["q"])
            nmax, depth = int(doc["fock_dim"]), int(doc["lattice_depth"])
            values = _bulk(doc, (nmax, 2 * depth))
            tail_start = _typed(doc["tail_start"], "i", "tail_start",
                                (2 * depth,))
        if not np.all((tail_start >= 0) & (tail_start <= nmax)):
            raise ValidationError(f"tail_start must lie in [0, {nmax}]")
    else:
        with _read_csv(path, "mode table", _MODE_COLUMNS) as (_, rows):
            site, n = _site(rows["sign"], rows["s"]), rows["n"]
            nmax, depth = int(n.max()) + 1, int(site.max()) // 2 + 1
            values = _place(_complexes(rows["value_re"], rows["value_im"]),
                            (n, site), (nmax, 2 * depth), "mode table CSV")
            q = _csv_q(rows["x"], site, depth)
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
            q = float(doc["q"])
            values = _bulk(doc, (2 * int(doc["lattice_depth"]),))
            f = LatticeFunction(doc["kind"], values,
                                rescaled=bool(doc["rescaled"]))
    else:
        with _read_csv(path, "lattice function", _LATTICE_COLUMNS) as (_, rows):
            site = _site(rows["sign"], rows["s"])
            depth = int(site.max()) // 2 + 1
            values = _place(_complexes(rows["re"], rows["im"]), (site,),
                            (2 * depth,), "lattice function CSV")
            flags = rows["rescaled_flag"]  # np.unique would import numpy.ma
            q = _csv_q(rows["x"], site, depth)
        if (flags != flags[0]).any():
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
    if fmt == "json":  # window row i lies on level i // 2
        meta["low_confidence"] = [bool(k.low_confidence(i // 2))
                                  for i in range(2 * k.lattice_depth)]
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
    """The columns of JSON kernel entries by name, re and im as floats."""
    cols = {key: list(map(itemgetter(key), entries))
            for key in _KERNEL_COLUMNS.names[:6]}
    for key in ("re", "im"):
        cols[key] = _numbers(cols[key], (len(entries),), key)
    return cols


def _placed(cols, meta: dict) -> np.ndarray:
    """The 2S x 2S matrix of kernel entries given as columns by name (a
    schema-1 JSON or a CSV kernel); S is the metadata's lattice_depth."""
    size = 2 * int(meta["lattice_depth"])
    return _place(_complexes(cols["re"], cols["im"]),
                  (_site(cols["row_sign"], cols["row_s"]),
                   _site(cols["col_sign"], cols["col_s"])),
                  (size, size), "kernel")


def _kernel(meta: dict, matrix: np.ndarray) -> EvolutionKernel:
    """A kernel from its metadata and its 2S x 2S matrix."""
    return EvolutionKernel(tau=float(meta["tau"]), variant=meta["variant"],
                           q=float(meta["q"]), n_max=int(meta["n_max"]),
                           lattice_depth=len(matrix) // 2, matrix=matrix,
                           tail_estimate=float(meta["tail_estimate"]),
                           s_match=int(meta["s_match"]))


def load_kernel(path: str, fmt: Optional[str] = None,
                ctx: Optional[DeformationContext] = None) -> EvolutionKernel:
    """Read a kernel; with ctx, its q, lattice_depth and n_max must be
    ctx's (n_max is the fock_dim it was built at), or ValidationError."""
    if _infer_format(path, fmt) == "json":
        with _read_json(path, "evolution_kernel") as doc:
            if doc["schema_version"] == 1:
                k = _kernel(doc, _placed(_json_columns(doc["entries"]), doc))
            else:
                size = 2 * int(doc["lattice_depth"])
                _typed(doc["low_confidence"], "b", "low_confidence", (size,))
                k = _kernel(doc, _from_arrays(doc, (size, size)))
    else:
        with _read_csv(path, "kernel", _KERNEL_COLUMNS, meta=True) as (meta, rows):
            _check_schema(int(meta["schema_version"]))
            k = _kernel(meta, _placed(rows, meta))
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
