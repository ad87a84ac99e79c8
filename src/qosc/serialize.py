"""CSV/JSON persistence for tables, functions, kernels and reports.

One private codec owns every format: JSON documents lead with
schema_version and object, CSV files with an optional '# key=value'
metadata line and a header. Writes are atomic (temp file, then rename)
and emit floats with repr, so values round-trip exactly and identical
inputs give identical bytes; the file mode follows the umask. Mode
tables, lattice functions and kernels are streamed one window row (or
degree n) at a time, without building the file in memory, and their
loads read a bounded part of the file at a time too:

    CSV   a chunk of 2^13 lines at a time. Of each chunk a load keeps
          compact columns only: the window site (int32), degree n
          (int32), the value (real for a position table) and the flags
          (int8), 16 to 25 bytes a row, in buffers that double as they
          fill; and of x only the least and greatest at each site, and
          of a position table's imaginary parts only whether any is
          nonzero. So a load holds those columns (at most twice their
          size), one parsed chunk, the table it builds, and 9 bytes a
          row more while it places the cells.
    JSON  2^16 characters and the rest of the line they end in at a
          time, as the json module's own decoder walks the top-level
          object: scanstring reads each key and raw_decode each value
          whole, except the rows of a mode table's or kernel's "re" and
          "im", which are decoded one at a time straight into the real
          and imaginary parts of the loaded values. So a load holds
          those values, one run of lines and one decoded row.

Neither holds the whole parsed file. On load, a missing or ill-typed
field (4.9 or true for an integer) raises ValidationError, as does a
JSON object, at the top or nested, that gives a key twice; fields a
loader does not know are ignored.

Files are written in schema 2, and a file that records any other
schema_version raises ValidationError. The JSON mode table, lattice
function and kernel end in two fields, "re" and "im", the real and
imaginary parts of their values as nested number arrays in window
order:

    mode table        N x 2S, one row per degree n
    lattice function  2S, on one line
    kernel            2S x 2S, one row per window row; its low_confidence
                      is one boolean per window row, before "re"

Each row is one line, as json.dumps writes a list, NaN and +-Infinity
included. The rest of the document is json.dumps(indent=1). On load,
every cell must be a JSON number and the arrays must have exactly this
shape. The grammar is json's, and any layout loads: rows may share or
span lines, and fields may come in any order. Rows read before the
field that gives their count ("fock_dim", or a kernel's
"lattice_depth") fill a buffer that doubles as it fills.

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
'\n' or '\r\n'. Each chunk is checked as it is parsed, so a load raises
at the first chunk that holds a fault. Cells are keyed by window site
(sign, s), plus degree n in mode tables, and every cell is placed
exactly once by its key: a key that is missing, repeated, negative, out
of range or not an integer raises ValidationError. Each x must be its
site's window value, to a relative 1e-12, at q, the least x of site
(+1, s=1); this is checked once every cell is placed.

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
    """ValidationError unless version is the schema the loaders read."""
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValidationError(f"expected schema_version {SCHEMA_VERSION}, "
                              f"found {version!r}")


def _repeated(key: str) -> ValidationError:
    return ValidationError(f"a JSON object repeats the key {key!r}")


def _object(pairs: list) -> dict:
    """A decoded JSON object; a key given twice raises ValidationError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise _repeated(next(k for k in keys if keys.count(k) > 1))
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_object)
_SPACE = json.decoder.WHITESPACE.match  # JSON's whitespace, as json skips it
_READ = 1 << 16  # characters of whole lines a _Text reads at a time
_CELLS = 1 << 20  # the most cells a bulk field's first buffer is sized for
_UNEQUAL_ROWS = '"re" and "im" hold unequal numbers of rows'
_PART = {"re": "real", "im": "imag"}  # the part of a complex array each fills


class _Text:
    """A JSON file, held a run of whole lines at a time from pos on. No
    JSON token spans a line break, so a value that raw_decode reads from
    these lines is the whole value the file holds there."""

    def __init__(self, fh):
        self.fh, self.buf, self.pos = fh, "", 0

    def more(self, size: int = _READ) -> bool:
        """Drop the text before pos and read size more characters and the
        rest of the line they end in; False at the end of the file."""
        text = self.fh.read(size)
        text += self.fh.readline()
        self.buf, self.pos = self.buf[self.pos:] + text, 0
        return bool(text)

    def peek(self) -> str:
        """The character after the whitespace at pos; '' at the end."""
        while True:
            self.pos = _SPACE(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return self.buf[self.pos:self.pos + 1]

    def take(self, chars: str) -> str:
        """The next character, which must be one of chars."""
        c = self.peek()
        if not c or c not in chars:
            raise ValueError(f"expected one of {chars!r}, found {c!r} at "
                             f"{self.buf[self.pos:self.pos + 40]!r}")
        self.pos += 1
        return c

    def value(self):
        """The next JSON value, decoded whole. Where the lines held do not
        complete it, as many more characters are read as are held."""
        self.peek()
        while True:
            try:
                value, self.pos = _DECODER.raw_decode(self.buf, self.pos)
                return value
            except json.JSONDecodeError:
                if not self.more(max(_READ, len(self.buf) - self.pos)):
                    raise

    def rows(self, key: str, out: Optional[np.ndarray], hint) -> np.ndarray:
        """Decode the array of rows of field key ("re" or "im") a row at a
        time into that part of out, a 2-D complex array, and return out.

        With out None, the rows make a new out, first sized for hint rows
        (or None) of the first row's width, at most _CELLS cells, then
        doubled as it fills and cut to the rows read: a file that holds
        as many rows as it says is read without a copy. Otherwise the rows
        must fill out's part exactly.
        """
        part, grow, i = _PART[key], out is None, 0
        self.take("[")
        while True:
            row = self.value()
            if type(row) is not list or not set(map(type, row)) <= {float, int}:
                raise ValidationError(f'"{key}" must hold only rows of numbers')
            if out is None:
                cap = max(1, _CELLS // max(1, len(row)))
                if hint is not None and 0 < hint <= cap:
                    cap = hint
                out = np.empty((cap, len(row)), dtype=complex)
            if len(row) != out.shape[1]:
                raise ValidationError(f'"{key}" has a row of {len(row)} '
                                      f'cells, not {out.shape[1]}')
            if i == len(out):
                if not grow:
                    raise ValidationError(_UNEQUAL_ROWS)
                out = np.concatenate((out, np.empty_like(out)))
            getattr(out, part)[i] = row
            i += 1
            if self.take(",]") == "]":
                break
        if i < len(out):
            if not grow:
                raise ValidationError(_UNEQUAL_ROWS)
            out = out[:i].copy()
        return out


def _walk(fh, height: Optional[tuple]) -> dict:
    """The top-level JSON object in fh, read as the module docstring says.

    With height, (key, factor) such that "re" and "im" hold factor times
    the int field key rows (a mode table or a kernel), the fields "re"
    and "im" are read a row at a time (_Text.rows) into one complex
    array, whose real or imaginary part becomes each field's value.
    Every other value is decoded whole.
    """
    text, doc, out = _Text(fh), {}, None
    if text.peek() != "{":
        raise ValidationError("top-level JSON payload must be an object")
    text.pos += 1
    if text.peek() == "}":
        text.pos += 1
    else:
        while True:
            text.take('"')
            key, text.pos = json.decoder.scanstring(text.buf, text.pos)
            if key in doc:
                raise _repeated(key)
            text.take(":")
            if height is not None and key in _PART:
                n = doc.get(height[0])
                out = text.rows(key, out,
                                height[1] * n if type(n) is int else None)
                doc[key] = getattr(out, _PART[key])
            else:
                doc[key] = text.value()
            if text.take(",}") == "}":
                break
    if text.peek():
        raise ValueError("extra data after the top-level JSON object")
    return doc


@contextmanager
def _read_json(path: str, obj: str, height: Optional[tuple] = None):
    """The document of a schema-2 JSON artifact tagged obj, read by
    _walk."""
    with _fields(path, obj) as fh:
        payload = _walk(fh, height)
        _check_schema(payload.get("schema_version"))
        if payload.get("object") != obj:
            raise ValidationError(
                f"expected object {obj!r}, found {payload.get('object')!r}")
        yield payload


def _put(buf: Optional[np.ndarray], filled: int, part: np.ndarray,
         dtype) -> np.ndarray:
    """buf (None before the first part) with part at [filled:] as dtype,
    in a new buffer of twice the size where part does not fit. An integer
    of part past dtype's range (a damaged key or flag) raises
    ValidationError, so no value changes."""
    if np.dtype(dtype).kind == "i" and len(part):
        lim = np.iinfo(dtype)
        for bad in (part.min(), part.max()):
            if not lim.min <= bad <= lim.max:
                raise ValidationError(f"{bad} lies past the {lim.dtype} "
                                      f"range of a CSV key or flag column")
    end = filled + len(part)
    if buf is None:
        buf = np.empty(end, dtype)
    elif end > len(buf):
        new = np.empty(max(end, 2 * len(buf)), dtype)
        new[:filled] = buf[:filled]
        buf = new
    buf[filled:end] = part
    return buf


@contextmanager
def _read_csv(path: str, what: str, columns: np.dtype, meta: bool = False):
    """Yield (metadata dict or None, an iterator of the data rows), parsed
    by the grammar in the module docstring.

    The iterator parses the data lines _CHUNK at a time, each chunk into
    a 1-D array of the structured dtype columns, parses no line before
    the loader asks for its chunk, and holds no chunk while it parses the
    next. The file is read once, so a pipe loads as a file does.
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
        for line in fh:  # empty lines are skipped, as loadtxt skips them
            if line.rstrip("\r\n"):
                break
        else:
            raise ValidationError(f"{what} CSV has no rows after its header")
        lines = chain([line], fh)  # islice reads no line past its chunk
        yield info, (_parse(islice(chain([line], lines), _CHUNK), columns)
                     for line in lines)


def _parse(lines, columns: np.dtype) -> np.ndarray:
    """The lines of one chunk as a 1-D array of the structured dtype."""
    with warnings.catch_warnings():
        # numpy releases that only deprecate float text in an int column
        # read '1.7' as 1 with this warning; as an error, loadtxt turns it
        # into its ValueError
        warnings.filterwarnings("error", ".*integer via a float",
                                DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)  # all blank
        return np.loadtxt(lines, dtype=columns, delimiter=",", comments=None,
                          ndmin=1)


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


def _x_range(seen: Optional[tuple], site: np.ndarray, x: np.ndarray) -> tuple:
    """(window sites, least x, greatest x), one entry per distinct site in
    order, of a chunk's rows, at window sites site with abscissas x, and
    of those seen before it (None, or this function's value on them). No
    array is sized by a site's value."""
    if seen is not None and not len(site):
        return seen
    lo = hi = x
    if seen is not None:
        site, lo, hi = (np.concatenate(pair)
                        for pair in zip(seen, (site, lo, hi)))
    order = np.argsort(site)
    site = site[order]
    starts = np.flatnonzero(np.concatenate(([True], site[1:] != site[:-1])))
    return (site[starts], np.minimum.reduceat(lo[order], starts),
            np.maximum.reduceat(hi[order], starts))


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


def _numbers(value, shape: tuple, what: str) -> np.ndarray:
    """A JSON array of this shape, every cell a number, as floats; or
    rows that _Text.rows read, which it has checked are numbers."""
    if not isinstance(value, np.ndarray):
        cells = [value]
        for _ in shape:
            cells = chain.from_iterable(cells)
        if not set(map(type, cells)) <= {float, int}:
            raise ValidationError(f"{what} must hold only numbers")
        value = np.array(value, dtype=float)
    if value.shape != shape:
        raise ValidationError(f"{what} has shape {value.shape}, not {shape}")
    return value


def _from_arrays(doc: dict, shape: tuple) -> np.ndarray:
    """Complex values of this shape from the "re" and "im" fields of a
    document, bit for bit: the array both were read into, if _walk read
    them a row at a time."""
    real, imag = (_numbers(doc[key], shape, f'"{key}"') for key in _PART)
    if real.base is not None and real.base is imag.base:
        return real.base
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = real, imag
    return out


def _csv_q(x_range: tuple, depth: int) -> Optional[float]:
    """q read from the least x of window site (+1, s=1); None if the window
    has one level. x_range is _x_range's value over a file whose cells
    _place has checked, so it holds every site of the window. Every x must
    be its site's window value at that q to a relative 1e-12, not bit for
    bit: the file may come from a machine whose power function rounds
    differently, or ValidationError. The least and the greatest x of a
    site are within that of its value only if all its x are."""
    site, lo, hi = x_range
    at = window_index(1, 1)
    q = float(lo[at]) if at < len(lo) else None
    # a one-level window is {+1, -1} at every q
    want = window_values(DeformationContext(
        q=0.5 if q is None else q, lattice_depth=depth))[site]
    for x in (lo, hi):
        close = np.isclose(x, want, rtol=1e-12, atol=np.finfo(float).tiny)
        if not close.all():
            bad = np.argmin(close)
            raise ValidationError(
                f"x = {float(x[bad])!r} at window site {site[bad]} is not "
                f"its window value {float(want[bad])!r} at q={q!r}")
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
        with _read_json(path, "mode_table", ("fock_dim", 1)) as doc:
            kind, q = doc["kind"], _scalar(doc, "q", float)
            nmax = _scalar(doc, "fock_dim", int)
            depth = _scalar(doc, "lattice_depth", int)
            values = _from_arrays(doc, (nmax, 2 * depth))
            tail_start = _typed(doc["tail_start"], "i", "tail_start",
                                (2 * depth,))
        if not np.all((tail_start >= 0) & (tail_start <= nmax)):
            raise ValidationError(f"tail_start must lie in [0, {nmax}]")
    else:
        site = n = value = x = None
        filled, imag = 0, False
        with _read_csv(path, "mode table", _MODE_COLUMNS) as (_, chunks):
            for rows in chunks:
                site = _put(site, filled, _site(rows["sign"], rows["s"]),
                            np.int32)
                x = _x_range(x, site[filled:filled + len(rows)], rows["x"])
                n = _put(n, filled, rows["n"], np.int32)
                # a position table keeps its real parts, and whether any
                # imaginary part is nonzero
                if kind == "position":
                    value = _put(value, filled, rows["value_re"], float)
                    imag = imag or bool((rows["value_im"] != 0).any())
                else:
                    value = _put(value, filled, _complexes(
                        rows["value_re"], rows["value_im"]), complex)
                filled += len(rows)
                del rows  # before the next chunk is parsed
            site, n = site[:filled], n[:filled]
            nmax, depth = int(n.max()) + 1, int(site.max()) // 2 + 1
            values = _place(value[:filled], (n, site), (nmax, 2 * depth),
                            "mode table CSV")
            q = _csv_q(x, depth)
        if q is None:
            raise ValidationError("mode table CSV needs level s=1 to give q")
        tail_start = np.full(2 * depth, nmax, dtype=int)
    if kind == "position":
        if values.imag.any() if is_json else imag:
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
            values = _from_arrays(doc, (2 * _scalar(doc, "lattice_depth", int),))
            f = LatticeFunction(doc["kind"], values,
                                rescaled=_scalar(doc, "rescaled", bool))
    else:
        site = value = flags = x = None
        filled = 0
        with _read_csv(path, "lattice function", _LATTICE_COLUMNS) as (_, chunks):
            for rows in chunks:
                site = _put(site, filled, _site(rows["sign"], rows["s"]),
                            np.int32)
                x = _x_range(x, site[filled:filled + len(rows)], rows["x"])
                value = _put(value, filled, _complexes(rows["re"], rows["im"]),
                             complex)
                flags = _put(flags, filled, rows["rescaled_flag"], np.int8)
                filled += len(rows)
                del rows  # before the next chunk is parsed
            site, flags = site[:filled], flags[:filled]
            depth = int(site.max()) // 2 + 1
            values = _place(value[:filled], (site,), (2 * depth,),
                            "lattice function CSV")
            q = _csv_q(x, depth)
        if (flags != flags[0]).any():  # np.unique would import numpy.ma
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
        with _read_json(path, "evolution_kernel", ("lattice_depth", 2)) as doc:
            size = 2 * _scalar(doc, "lattice_depth", int)
            k = _kernel(doc, _from_arrays(doc, (size, size)))
            levels = np.arange(size) // 2
            flags = _typed(doc["low_confidence"], "b", "low_confidence",
                           (size,))
    else:
        row = col = value = flags = None
        filled = 0
        with _read_csv(path, "kernel", _KERNEL_COLUMNS, meta=True) as (
                meta, chunks):
            _check_schema(_meta(meta, "schema_version", int))
            size = 2 * _meta(meta, "lattice_depth", int)
            for rows in chunks:
                row = _put(row, filled, _site(rows["row_sign"], rows["row_s"]),
                           np.int32)
                col = _put(col, filled, _site(rows["col_sign"], rows["col_s"]),
                           np.int32)
                value = _put(value, filled, _complexes(rows["re"], rows["im"]),
                             complex)
                flags = _put(flags, filled, rows["low_confidence"], np.int8)
                filled += len(rows)
                del rows  # before the next chunk is parsed
            matrix = _place(value[:filled], (row[:filled], col[:filled]),
                            (size, size), "kernel")
            k = _kernel(meta, matrix, _meta)
        levels, flags = row[:filled] // 2, flags[:filled]
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
