import csv
import io
import json
import math
import os
import stat
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qosc import (DeformationContext, EvolutionKernel, LatticeFunction,
                  ModeTable, ValidationError, build_Q,
                  build_mode_table, fractional_ft, kernel_K, load_kernel,
                  load_lattice_function, load_mode_table,
                  load_spectrum_report, mode_function, rescale,
                  spectrum_report, spectrum_report_payload,
                  verify_report_payload, write_kernel, write_lattice_function,
                  write_mode_table, write_spectrum_report,
                  write_verify_report)
from qosc.serialize import _floats, atomic_write_text


@pytest.fixture
def sctx():
    return DeformationContext(q=0.5, fock_dim=20, lattice_depth=8)


def test_mode_table_roundtrip_csv(tmp_path, sctx):
    t = build_mode_table("position", sctx)
    p = str(tmp_path / "t.csv")
    write_mode_table(t, p)
    back = load_mode_table(p)
    assert back.q == t.q
    assert back.fock_dim == t.fock_dim
    assert np.array_equal(back.values, t.values)


def test_mode_table_roundtrip_json(tmp_path, sctx):
    t = build_mode_table("momentum", sctx)
    p = str(tmp_path / "t.json")
    write_mode_table(t, p)
    back = load_mode_table(p)
    assert back.kind == "momentum"
    assert np.array_equal(back.values, t.values)
    assert np.array_equal(back.tail_start, t.tail_start)


def test_lattice_function_roundtrip(tmp_path, sctx):
    f = mode_function(3, sctx)
    for name in ("f.csv", "f.json"):
        p = str(tmp_path / name)
        write_lattice_function(f, sctx, p)
        back = load_lattice_function(p)
        assert back.kind == "position"
        assert not back.rescaled
        assert np.array_equal(back.values, f.values)


def test_lattice_function_rescaled_flag_roundtrip(tmp_path, sctx):
    f = rescale(mode_function(1, sctx), sctx)
    p = str(tmp_path / "r.json")
    write_lattice_function(f, sctx, p)
    assert load_lattice_function(p).rescaled


def test_kernel_roundtrip(tmp_path, sctx):
    for variant, maker in (("rescaled", fractional_ft), ("raw", kernel_K)):
        k = maker(0.37, sctx)
        for name in (f"k_{variant}.csv", f"k_{variant}.json"):
            p = str(tmp_path / name)
            write_kernel(k, p)
            back = load_kernel(p)
            assert back.variant == k.variant
            assert back.tau == k.tau
            assert back.s_match == k.s_match
            assert np.array_equal(back.matrix, k.matrix)


def test_kernel_csv_flags_low_confidence_rows(tmp_path, sctx):
    k = fractional_ft(0.3, sctx)
    p = str(tmp_path / "k.csv")
    write_kernel(k, p)
    lines = open(p).read().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    flag_col = header.index("low_confidence")
    rows = [ln.split(",") for ln in lines[2:]]
    for r in rows:
        s = int(r[1])
        assert (r[flag_col] == "1") == k.low_confidence(s)


def test_spectrum_report_roundtrip(tmp_path, sctx):
    rep = spectrum_report(build_Q(sctx), sctx)
    p = str(tmp_path / "s.json")
    write_spectrum_report(rep, p)
    back = load_spectrum_report(p)
    assert back.s_match == rep.s_match
    assert len(back.matched) == len(rep.matched)
    assert back.matched[0].value == rep.matched[0].value
    payload = spectrum_report_payload(rep)
    assert payload["schema_version"] == 2


def test_spectrum_csv_has_unmatched_rows(tmp_path):
    ctx = DeformationContext(q=0.5, fock_dim=24, lattice_depth=4)
    rep = spectrum_report(build_Q(ctx), ctx)
    assert rep.unmatched
    p = str(tmp_path / "s.csv")
    write_spectrum_report(rep, p)
    rows = open(p).read().splitlines()[1:]
    empties = [r for r in rows if r.startswith(",")]
    assert len(empties) == len(rep.unmatched)


def test_write_is_deterministic(tmp_path, sctx):
    t = build_mode_table("position", sctx)
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_mode_table(t, p1)
    write_mode_table(t, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_format_inference_and_override(tmp_path, sctx):
    t = build_mode_table("position", sctx)
    with pytest.raises(ValidationError):
        write_mode_table(t, str(tmp_path / "t.xml"))
    p = str(tmp_path / "t.dat")
    write_mode_table(t, p, fmt="json")
    back = load_mode_table(p, fmt="json")
    assert np.array_equal(back.values, t.values)


def test_schema_version_is_enforced(tmp_path, sctx):
    f = mode_function(0, sctx)
    p = str(tmp_path / "f.json")
    write_lattice_function(f, sctx, p)
    doc = json.load(open(p))
    doc["schema_version"] = 99
    open(p, "w").write(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_lattice_function(p)


def test_csv_mixed_rescaled_flag_rejected(tmp_path, sctx):
    f = mode_function(0, sctx)
    p = str(tmp_path / "f.csv")
    write_lattice_function(f, sctx, p)
    lines = open(p).read().splitlines()
    parts = lines[1].split(",")
    parts[-1] = "1"
    lines[1] = ",".join(parts)
    open(p, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ValidationError):
        load_lattice_function(p)


def test_malformed_csv_rejected(tmp_path):
    p = str(tmp_path / "junk.csv")
    open(p, "w").write("sign,s,x,re,im,rescaled_flag\n1,0,1.0,not_a_number,0,0\n")
    with pytest.raises(ValidationError):
        load_lattice_function(p)


def test_atomic_write_leaves_no_droppings(tmp_path, monkeypatch):
    target = tmp_path / "out.txt"
    real_replace = os.replace

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_text(str(target), "payload")
    monkeypatch.setattr(os, "replace", real_replace)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_verify_report_payload_shape():
    # a tiny report built by hand instead of running the full battery
    from qosc import CheckResult, VerifyReport
    checks = [CheckResult(name="x", passed=True, residual=0.0,
                          tolerance=1.0, runtime_s=0.01)]
    vr = VerifyReport(overall_pass=True, seed=3, qs=(0.5,), runtime_s=0.01,
                      checks=checks)
    payload = verify_report_payload(vr)
    assert payload["overall_pass"] is True
    assert payload["checks"][0]["name"] == "x"


def test_verify_report_write(tmp_path):
    from qosc import CheckResult, VerifyReport
    checks = [CheckResult(name="a", passed=True, residual=1e-12,
                          tolerance=1e-9, runtime_s=0.0),
              CheckResult(name="b", passed=False, residual=2.0,
                          tolerance=1e-9, runtime_s=0.0)]
    vr = VerifyReport(overall_pass=False, seed=0, qs=(0.5,), runtime_s=0.1,
                      checks=checks)
    for name in ("v.csv", "v.json"):
        p = str(tmp_path / name)
        write_verify_report(vr, p)
        body = open(p).read()
        assert "a" in body and "b" in body


_WRITERS = {
    "kernel": lambda c, p: write_kernel(fractional_ft(0.37, c), p),
    "mode_table": lambda c, p: write_mode_table(
        build_mode_table("position", c), p),
    "momentum_table": lambda c, p: write_mode_table(
        build_mode_table("momentum", c), p),
    "lattice_function": lambda c, p: write_lattice_function(
        mode_function(3, c), c, p),
    "spectrum_report": lambda c, p: write_spectrum_report(
        spectrum_report(build_Q(c), c), p),
}
_LOADERS = {"kernel": load_kernel, "mode_table": load_mode_table,
            "momentum_table": load_mode_table,
            "lattice_function": load_lattice_function,
            "spectrum_report": load_spectrum_report}


def _rows(edit):
    """Edit the CSV data rows, keeping the header and any '#' line."""
    def apply(text):
        lines = text.splitlines()
        head = 2 if lines[0].startswith("#") else 1
        return "\n".join(lines[:head] + edit(lines[head:])) + "\n"
    return apply


def _doc(edit):
    """Edit the parsed JSON document in place."""
    def apply(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return apply


def _set(*path_and_value):
    """Set the cell at a path of keys and indices in the JSON document."""
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value
    return _doc(edit)


def _first_cell(col, value):
    def edit(rows):
        cells = rows[0].split(",")
        cells[col] = value
        return [",".join(cells)] + rows[1:]
    return edit


def _truncated(rows):
    return rows[:-10]


def _duplicated(rows):
    return rows[:-1] + rows[:1]


def _extra_field(rows):
    return [rows[0] + ",0"] + rows[1:]


def _commented(rows):
    return [rows[0] + " # a note"] + rows[1:]


def _edited_x(rows):
    """The x cell of the first row at site (-1, s=2) set to 0.9."""
    cells = [r.split(",") for r in rows]
    next(c for c in cells if c[:2] == ["-1", "2"])[2] = "0.9"
    return [",".join(c) for c in cells]


@pytest.mark.parametrize("artifact,fmt,damage", [
    pytest.param("kernel", "csv", _rows(_truncated), id="kernel-csv-truncated"),
    pytest.param("kernel", "csv", _rows(_duplicated), id="kernel-csv-duplicate"),
    pytest.param("kernel", "csv", _rows(_first_cell(1, "-1")),
                 id="kernel-csv-negative-site"),
    pytest.param("kernel", "csv", _rows(_first_cell(0, "0")),
                 id="kernel-csv-zero-sign"),
    # "json1": the same object as a schema-1 document
    pytest.param("kernel", "json1", _doc(lambda d: d["entries"].pop()),
                 id="kernel-json-truncated"),
    pytest.param("kernel", "json1",
                 _doc(lambda d: d["entries"].__setitem__(-1, d["entries"][0])),
                 id="kernel-json-duplicate"),
    pytest.param("kernel", "json1", _set("entries", 0, "row_s", -1),
                 id="kernel-json-negative-site"),
    pytest.param("kernel", "json1", _set("entries", 0, "col_s", 8),
                 id="kernel-json-out-of-range-site"),
    pytest.param("kernel", "json1", _doc(lambda d: d.pop("entries")),
                 id="kernel-json-missing-key"),
    pytest.param("kernel", "json1", _set("entries", 0, "row_s", 0.7),
                 id="kernel-json-float-key"),
    pytest.param("kernel", "json1", _set("entries", 0, "re", "1.5"),
                 id="kernel-json-string-cell"),
    pytest.param("kernel", "json1", _set("entries", 1, "im", True),
                 id="kernel-json-boolean-cell"),
    pytest.param("mode_table", "csv", _rows(_truncated),
                 id="mode-table-csv-truncated"),
    pytest.param("mode_table", "csv", _rows(_duplicated),
                 id="mode-table-csv-duplicate"),
    pytest.param("mode_table", "json1", lambda text: text[:-5],
                 id="mode-table-json-invalid"),
    pytest.param("mode_table", "json1", _doc(lambda d: d.pop("values")),
                 id="mode-table-json-missing-key"),
    pytest.param("mode_table", "json1", _set("kind", "bogus"),
                 id="mode-table-json-unknown-kind"),
    pytest.param("mode_table", "json1", _doc(lambda d: d["tail_start"].pop()),
                 id="mode-table-json-short-tail-start"),
    pytest.param("mode_table", "json1", _set("tail_start", 0, 0.5),
                 id="mode-table-json-float-tail-start"),
    # undamaged, but read with the default kind="position"
    pytest.param("momentum_table", "csv", lambda text: text,
                 id="mode-table-csv-momentum-read-as-position"),
    pytest.param("mode_table", "json1", _set("values", 1, 2, 1, 0.5),
                 id="mode-table-json-position-with-imaginary-part"),
    pytest.param("mode_table", "json1", _set("values", 0, 0, 0, None),
                 id="mode-table-json-null-cell"),
    pytest.param("lattice_function", "json1", _set("values", 2, 1, "0.5"),
                 id="lattice-function-json-string-cell"),
    pytest.param("lattice_function", "csv", _rows(_duplicated),
                 id="lattice-function-csv-duplicate"),
    pytest.param("lattice_function", "json1", _doc(lambda d: d.pop("rescaled")),
                 id="lattice-function-json-missing-key"),
    pytest.param("spectrum_report", "json", _doc(lambda d: d.pop("matched")),
                 id="spectrum-json-missing-key"),
    # the CSV grammar of the column parser (module docstring)
    pytest.param("kernel", "csv", _rows(_first_cell(1, "1.0")),
                 id="kernel-csv-float-key"),
    pytest.param("mode_table", "csv", _rows(_first_cell(3, "0.0")),
                 id="mode-table-csv-float-degree"),
    pytest.param("kernel", "csv", _rows(_first_cell(0, '"1"')),
                 id="kernel-csv-quoted-cell"),
    pytest.param("lattice_function", "csv", _rows(_first_cell(3, '"0.5"')),
                 id="lattice-function-csv-quoted-cell"),
    pytest.param("kernel", "csv", _rows(_extra_field),
                 id="kernel-csv-extra-field"),
    pytest.param("mode_table", "csv", _rows(_extra_field),
                 id="mode-table-csv-extra-field"),
    pytest.param("kernel", "csv", _rows(lambda rows: []),
                 id="kernel-csv-header-only"),
    pytest.param("kernel", "csv",
                 lambda text: text.replace("schema_version=2", "schema_version=3"),
                 id="kernel-csv-unknown-schema"),
    pytest.param("mode_table", "csv", _rows(lambda rows: []),
                 id="mode-table-csv-header-only"),
    pytest.param("lattice_function", "csv", _rows(lambda rows: ["", ""]),
                 id="lattice-function-csv-header-and-empty-lines"),
    pytest.param("kernel", "csv", _rows(_commented),
                 id="kernel-csv-comment-in-row"),
    pytest.param("lattice_function", "csv", _rows(_commented),
                 id="lattice-function-csv-comment-in-row"),
    pytest.param("mode_table", "csv", _rows(_first_cell(2, "x")),
                 id="mode-table-csv-non-numeric-x"),
    pytest.param("lattice_function", "csv", _rows(_first_cell(2, "x")),
                 id="lattice-function-csv-non-numeric-x"),
    pytest.param("mode_table", "csv", _rows(lambda rows: rows[:1] + ["  "]
                                            + rows[1:]),
                 id="mode-table-csv-line-of-spaces"),
    # an x that is not its site's window value
    pytest.param("mode_table", "csv", _rows(_edited_x),
                 id="mode-table-csv-edited-x"),
    pytest.param("lattice_function", "csv", _rows(_edited_x),
                 id="lattice-function-csv-edited-x"),
    # the schema-2 arrays
    pytest.param("kernel", "json", _doc(lambda d: d["re"][3].pop()),
                 id="kernel-json2-short-row"),
    pytest.param("kernel", "json", _doc(lambda d: d["im"][0].append(0.0)),
                 id="kernel-json2-ragged-row"),
    pytest.param("kernel", "json", _doc(lambda d: d["re"].pop()),
                 id="kernel-json2-missing-row"),
    pytest.param("kernel", "json",
                 _doc(lambda d: [row.pop() for part in ("re", "im")
                                 for row in d[part]]),
                 id="kernel-json2-short-rows"),
    pytest.param("kernel", "json", _doc(lambda d: d.pop("im")),
                 id="kernel-json2-missing-im"),
    pytest.param("kernel", "json", _set("re", 2, 5, "0.5"),
                 id="kernel-json2-string-cell"),
    pytest.param("kernel", "json", _set("im", 2, 5, None),
                 id="kernel-json2-null-cell"),
    pytest.param("kernel", "json", _set("im", 0, 0, True),
                 id="kernel-json2-boolean-cell"),
    pytest.param("kernel", "json", _set("re", 1, 1, [0.5]),
                 id="kernel-json2-nested-cell"),
    pytest.param("kernel", "json", _set("re", "not an array"),
                 id="kernel-json2-string-field"),
    pytest.param("kernel", "json", _doc(lambda d: d["low_confidence"].pop()),
                 id="kernel-json2-short-low-confidence"),
    pytest.param("kernel", "json", _set("low_confidence", 0, 0),
                 id="kernel-json2-integer-low-confidence"),
    pytest.param("kernel", "json", _doc(lambda d: d.pop("low_confidence")),
                 id="kernel-json2-missing-low-confidence"),
    pytest.param("mode_table", "json", _doc(lambda d: d["re"][1].pop()),
                 id="mode-table-json2-short-row"),
    pytest.param("mode_table", "json", _doc(lambda d: d["re"].pop()),
                 id="mode-table-json2-missing-row"),
    pytest.param("mode_table", "json",
                 _doc(lambda d: d.__setitem__("re", list(zip(*d["re"])))),
                 id="mode-table-json2-transposed"),
    pytest.param("mode_table", "json", _doc(lambda d: d.pop("im")),
                 id="mode-table-json2-missing-im"),
    pytest.param("mode_table", "json", _set("re", 0, 3, "1.0"),
                 id="mode-table-json2-string-cell"),
    pytest.param("mode_table", "json", _set("re", 4, 0, None),
                 id="mode-table-json2-null-cell"),
    pytest.param("mode_table", "json", _set("im", 1, 2, 0.5),
                 id="mode-table-json2-position-with-imaginary-part"),
    pytest.param("mode_table", "json", _set("tail_start", 0, 0.5),
                 id="mode-table-json2-float-tail-start"),
    pytest.param("mode_table", "json", _set("tail_start", 1, -1),
                 id="mode-table-json2-negative-tail-start"),
    pytest.param("mode_table", "json", _set("tail_start", 2, 21),
                 id="mode-table-json2-tail-start-past-fock-dim"),
    pytest.param("lattice_function", "json", _doc(lambda d: d["re"].pop()),
                 id="lattice-function-json2-short-row"),
    pytest.param("lattice_function", "json", _set("re", [[0.0] * 16]),
                 id="lattice-function-json2-nested"),
    pytest.param("lattice_function", "json", _doc(lambda d: d.pop("im")),
                 id="lattice-function-json2-missing-im"),
    pytest.param("lattice_function", "json", _set("im", 3, "0.5"),
                 id="lattice-function-json2-string-cell"),
    pytest.param("lattice_function", "json", _set("re", 0, None),
                 id="lattice-function-json2-null-cell"),
])
def test_loader_rejects_damaged_file(tmp_path, sctx, artifact, fmt, damage):
    p = tmp_path / f"a.{fmt[:4]}"
    _WRITERS[artifact](sctx, str(p))
    if fmt == "json1":
        p.write_text(_SCHEMA1[artifact](_LOADERS[artifact](str(p)), sctx))
    p.write_text(damage(p.read_text()))
    with pytest.raises(ValidationError):
        _LOADERS[artifact](str(p))


def test_csv_loader_fails_where_numpy_only_warns(tmp_path, sctx, monkeypatch):
    """numpy releases that only deprecate float text in an int column warn
    and read '1.7' as 1; under an error filter for that warning, loadtxt
    raises ValueError instead (numpy's test_implicit_cast_float_to_int_fails
    pins this). The stand-in below does as those releases do."""
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string '1.7' to int64") from exc
        return loadtxt(*args, **kwargs)

    p = tmp_path / "k.csv"
    _WRITERS["kernel"](sctx, str(p))
    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    with pytest.raises(ValidationError, match="to int64"):
        load_kernel(str(p))


_ARRAY = {"kernel": "matrix", "mode_table": "values",
          "lattice_function": "values"}


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("artifact", ["kernel", "mode_table",
                                      "lattice_function"])
def test_csv_loader_skips_empty_lines(tmp_path, sctx, artifact, newline):
    p = tmp_path / "a.csv"
    _WRITERS[artifact](sctx, str(p))
    want = getattr(_LOADERS[artifact](str(p)), _ARRAY[artifact])
    text = _rows(lambda rows: ["", *rows[:3], "", "", *rows[3:], ""])(
        p.read_text())
    p.write_bytes(text.replace("\n", newline).encode())
    got = getattr(_LOADERS[artifact](str(p)), _ARRAY[artifact])
    assert got.tobytes() == want.tobytes()


def test_momentum_mode_table_csv_roundtrip(tmp_path):
    ctx = DeformationContext(q=0.5, fock_dim=6, lattice_depth=4)
    t = build_mode_table("momentum", ctx)
    p = str(tmp_path / "m.csv")
    write_mode_table(t, p)
    back = load_mode_table(p, kind="momentum")
    assert back.kind == "momentum"
    assert back.values.tobytes() == t.values.tobytes()


_MISMATCH = {"q": {"q": 0.6}, "lattice_depth": {"lattice_depth": 9},
             "fock_dim": {"fock_dim": 21}}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("artifact,field,match", [
    ("mode_table", "q", "q=0.5"),
    ("mode_table", "lattice_depth", "16 sites"),
    ("mode_table", "fock_dim", "20 degrees"),
    ("kernel", "q", "q=0.5"),
    ("kernel", "lattice_depth", "16 sites"),
    ("kernel", "fock_dim", "20 degrees"),
    ("lattice_function", "q", "q=0.5"),
    ("lattice_function", "lattice_depth", "16 sites"),
])
def test_loader_checks_its_context(tmp_path, sctx, artifact, fmt, field, match):
    p = str(tmp_path / f"a.{fmt}")
    _WRITERS[artifact](sctx, p)
    _LOADERS[artifact](p)
    _LOADERS[artifact](p, ctx=sctx)
    with pytest.raises(ValidationError, match=match):
        _LOADERS[artifact](p, ctx=replace(sctx, **_MISMATCH[field]))


def test_lattice_function_context_ignores_fock_dim(tmp_path, sctx):
    p = str(tmp_path / "f.csv")
    _WRITERS["lattice_function"](sctx, p)
    load_lattice_function(p, ctx=replace(sctx, fock_dim=21))


def test_huge_site_key_is_rejected_before_allocating(tmp_path, sctx):
    # the window size is inferred from the largest level in a lattice CSV
    p = tmp_path / "f.csv"
    write_lattice_function(mode_function(0, sctx), sctx, str(p))
    p.write_text(_rows(_first_cell(1, str(10**12)))(p.read_text()))
    with pytest.raises(ValidationError):
        load_lattice_function(str(p))


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o002, 0o664)],
                         ids=["022", "002"])
def test_artifact_mode_follows_umask(tmp_path, sctx, umask, mode):
    p = tmp_path / "f.csv"
    old = os.umask(umask)
    try:
        write_lattice_function(mode_function(0, sctx), sctx, str(p))
    finally:
        os.umask(old)
    assert stat.S_IMODE(p.stat().st_mode) == mode


# The streamed writers against reference encoders: csv.writer on the row
# tuples; for schema 2, json.dumps(indent=1) on the metadata and
# json.dumps on each row of "re" and "im"; for schema 1, json.dumps on
# the whole dict/list payload. They run at a size and with values (nan,
# +-inf, -0.0, the smallest subnormal) the golden files do not have.

_SPECIAL = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]


def _awkward(rng, shape):
    v = np.empty(shape, dtype=complex)
    for part in (v.real, v.imag):
        part[...] = rng.standard_normal(shape)
        part.reshape(-1)[rng.permutation(part.size)[:len(_SPECIAL)]] = _SPECIAL
    return v


def _pairs(values):
    return np.stack((values.real, values.imag), axis=-1).tolist()


def _sites(q, depth):
    return [(sign, s, sign * q**s) for s in range(depth) for sign in (1, -1)]


def _csv_text(header, rows, meta=None):
    buf = io.StringIO()
    if meta is not None:
        buf.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json_text(meta, values, schema):
    """A JSON document: meta, then values as "values" pairs (schema 1) or
    as "re" and "im" arrays, one line per row (schema 2)."""
    meta = {"schema_version": schema, **meta}
    if schema == 1:
        return json.dumps({**meta, "values": _pairs(values)}, indent=1) + "\n"
    text = json.dumps(meta, indent=1)[:-2]
    for key, part in (("re", values.real), ("im", values.imag)):
        if part.ndim == 1:
            text += f',\n "{key}": {json.dumps(part.tolist())}'
        else:
            text += f',\n "{key}": [\n  ' + ",\n  ".join(
                map(json.dumps, part.tolist())) + "\n ]"
    return text + "\n}\n"


def _mode_table_text(t, fmt, schema=2):
    if fmt == "json":
        return _json_text({
            "object": "mode_table", "kind": t.kind,
            "q": t.q, "fock_dim": t.fock_dim, "lattice_depth": t.lattice_depth,
            "tail_start": [int(v) for v in t.tail_start]}, t.values, schema)
    return _csv_text(["sign", "s", "x", "n", "value_re", "value_im"], [
        (sign, s, x, n, re, im) for n, row in enumerate(t.values)
        for (sign, s, x), (re, im) in zip(_sites(t.q, t.lattice_depth),
                                          _pairs(row))])


def _lattice_function_text(f, ctx, fmt, schema=2):
    if fmt == "json":
        return _json_text({
            "object": "lattice_function", "kind": f.kind,
            "q": ctx.q, "lattice_depth": ctx.lattice_depth,
            "rescaled": f.rescaled}, f.values, schema)
    return _csv_text(["sign", "s", "x", "re", "im", "rescaled_flag"], [
        (sign, s, x, re, im, int(f.rescaled))
        for (sign, s, x), (re, im) in zip(_sites(ctx.q, ctx.lattice_depth),
                                          _pairs(f.values))])


def _kernel_text(k, fmt, schema=2):
    columns = ["row_sign", "row_s", "col_sign", "col_s", "re", "im",
               "low_confidence"]
    sites = _sites(k.q, k.lattice_depth)
    flag = bool if fmt == "json" else int
    cells = [(rs, rl, cs, cl, re, im, flag(k.low_confidence(rl)))
             for (rs, rl, _), row in zip(sites, k.matrix)
             for (cs, cl, _), (re, im) in zip(sites, _pairs(row))]
    meta = {"schema_version": schema, "object": "evolution_kernel",
            "variant": k.variant, "tau": k.tau, "q": k.q, "n_max": k.n_max,
            "lattice_depth": k.lattice_depth, "s_match": k.s_match,
            "tail_estimate": k.tail_estimate}
    if fmt == "csv":
        return _csv_text(columns, cells, meta)
    if schema == 1:
        meta["entries"] = [dict(zip(columns, c)) for c in cells]
        return json.dumps(meta, indent=1) + "\n"
    meta["low_confidence"] = [k.low_confidence(rl) for _, rl, _ in sites]
    return _json_text(meta, k.matrix, schema)


# the schema-1 JSON document of a loaded artifact, and the context it
# lies on
_SCHEMA1 = {
    "kernel": lambda k, ctx: _kernel_text(k, "json", 1),
    "mode_table": lambda t, ctx: _mode_table_text(t, "json", 1),
    "lattice_function": lambda f, ctx: _lattice_function_text(f, ctx, "json", 1),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("artifact", ["mode_table", "lattice_function",
                                      "kernel"])
def test_streamed_writer_matches_reference_encoder(tmp_path, artifact, fmt):
    q, N, S = 0.6, 9, 7
    rng = np.random.default_rng(409)
    ctx = DeformationContext(q=q, fock_dim=N, lattice_depth=S)
    p = tmp_path / f"a.{fmt}"
    if artifact == "mode_table":
        t = ModeTable("momentum", q, N, S, _awkward(rng, (N, 2 * S)),
                      rng.integers(0, N + 1, 2 * S))
        write_mode_table(t, str(p))
        want = _mode_table_text(t, fmt)
    elif artifact == "lattice_function":
        f = LatticeFunction("position", _awkward(rng, 2 * S), rescaled=True)
        write_lattice_function(f, ctx, str(p))
        want = _lattice_function_text(f, ctx, fmt)
    else:
        k = EvolutionKernel(0.3, "raw_K", q, N, S,
                            _awkward(rng, (2 * S, 2 * S)), float("inf"), 5)
        write_kernel(k, str(p))
        want = _kernel_text(k, fmt)
    assert p.read_bytes() == want.encode("utf-8")


def _special(shape):
    """Seeded complex values with nan, +-inf, -0.0 and 5e-324 in both parts."""
    return _awkward(np.random.default_rng(1401), shape)


_SPECIAL_ARTIFACTS = {
    "mode_table": lambda ctx: ModeTable(
        "momentum", ctx.q, ctx.fock_dim, ctx.lattice_depth,
        _special((ctx.fock_dim, 2 * ctx.lattice_depth)),
        np.arange(2 * ctx.lattice_depth) % (ctx.fock_dim + 1)),
    "lattice_function": lambda ctx: LatticeFunction(
        "momentum", _special(2 * ctx.lattice_depth), rescaled=True),
    "kernel": lambda ctx: EvolutionKernel(
        0.3, "raw_K", ctx.q, ctx.fock_dim, ctx.lattice_depth,
        _special((2 * ctx.lattice_depth,) * 2), 1e-3, 2),
}


def _write_any(obj, ctx, path):
    if isinstance(obj, LatticeFunction):
        write_lattice_function(obj, ctx, path)
    elif isinstance(obj, ModeTable):
        write_mode_table(obj, path)
    else:
        write_kernel(obj, path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("artifact", sorted(_SPECIAL_ARTIFACTS))
def test_roundtrip_keeps_special_values_bitwise(tmp_path, sctx, artifact, fmt):
    obj = _SPECIAL_ARTIFACTS[artifact](sctx)
    p = str(tmp_path / f"a.{fmt}")
    _write_any(obj, sctx, p)
    kind = {} if artifact == "kernel" else {"kind": "momentum"}
    back = _LOADERS[artifact](p, **kind)
    want = getattr(obj, _ARRAY[artifact])
    got = getattr(back, _ARRAY[artifact])
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    if artifact == "mode_table" and fmt == "json":  # CSV keeps no tail_start
        assert back.tail_start.tobytes() == obj.tail_start.tobytes()


@pytest.mark.parametrize("artifact", ["kernel", "mode_table",
                                      "lattice_function", "spectrum_report"])
def test_schema2_loader_ignores_unknown_fields(tmp_path, sctx, artifact):
    p = tmp_path / "a.json"
    _WRITERS[artifact](sctx, str(p))
    want = _LOADERS[artifact](str(p))
    p.write_text(_doc(lambda d: d.update(health={"s_match": 1}, extra=[1]))(
        p.read_text()))
    got = _LOADERS[artifact](str(p))
    assert repr(vars(got)) == repr(vars(want))


def test_kernel_json_flags_low_confidence_rows(tmp_path, sctx):
    k = fractional_ft(0.3, sctx)
    p = tmp_path / "k.json"
    write_kernel(k, str(p))
    flags = json.loads(p.read_text())["low_confidence"]
    assert flags == [k.low_confidence(s) for s in range(sctx.lattice_depth)
                     for _ in (1, -1)]
    assert any(flags) and not all(flags)


# The emitter and the loaders on values the writers' goldens lack: random
# bit patterns (NaN payloads, subnormals, infinities), signed zeros and
# magnitudes that repeat with either sign, or no magnitude that repeats.

_EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, 1.0, -1.0]


def _floats_like(draw, n):
    """n float64 values: random bits or normals, edge values, and a drawn
    share of them copied, with a random sign, from others."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        v = np.frombuffer(rng.bytes(8 * n), dtype=float).copy()
    else:
        v = rng.standard_normal(n)
    edges = draw(st.lists(st.sampled_from(_EDGE_FLOATS) | st.floats(),
                          max_size=min(n, 24)))
    v[rng.choice(n, len(edges), replace=False)] = edges
    k = int(draw(st.sampled_from([0.0, 0.25, 0.5])) * n)
    src, dst = rng.choice(n, (2, k), replace=False)
    v[dst] = np.where(rng.random(k) < 0.5, v[src], np.negative(v[src]))
    return v


@st.composite
def _float_rows(draw):
    return _floats_like(draw, draw(st.integers(0, 768)))


@given(_float_rows())
@settings(max_examples=150, deadline=None)
def test_float_text_is_repr(v):
    want = list(map(repr, v.tolist()))
    assert _floats(v, "csv") == want
    assert _floats(v, "json") == list(map(json.dumps, v.tolist()))
    z = np.zeros(v.size, dtype=complex)  # a strided view, as _cells passes
    z.imag = v
    assert _floats(z.imag, "csv") == want


def _mirrored(draw, shape):
    """Complex values whose window sites pair up as qosc's parity pairs
    them: column 2s+1 is column 2s times (-1)^n (mode tables), or row
    2s+1 is row 2s with its columns swapped pairwise (kernels)."""
    v = _floats_like(draw, 2 * math.prod(shape)).reshape(*shape, 2)
    if len(shape) == 2 and draw(st.booleans()):
        if shape[0] == shape[1]:
            v[1::2] = v[0::2].reshape(-1, shape[1] // 2, 2, 2)[:, :, ::-1] \
                .reshape(-1, shape[1], 2)
        else:
            odd = (np.arange(shape[0]) % 2 == 1)[:, None, None]
            v[:, 1::2] = np.where(odd, np.negative(v[:, 0::2]), v[:, 0::2])
    v[np.isnan(v)] = math.nan  # repr drops a NaN's sign and payload
    return v.view(complex)[..., 0]


@given(st.data(), st.sampled_from([2, 3, 40]),
       st.integers(1, 3), st.sampled_from(["csv", "json"]),
       st.sampled_from(["position", "momentum"]))
@settings(max_examples=40, deadline=None)
def test_mode_table_roundtrip_is_bit_exact(tmp_path_factory, data, depth, dim,
                                           fmt, kind):
    v = _mirrored(data.draw, (dim, 2 * depth))
    if kind == "position":
        v = v.real.copy()
    t = ModeTable(kind, 0.7, dim, depth, v, np.full(2 * depth, dim))
    p = str(tmp_path_factory.mktemp("t") / f"t.{fmt}")
    write_mode_table(t, p)
    back = load_mode_table(p, kind=kind)
    assert (back.q, back.kind, back.values.dtype) == (t.q, kind, v.dtype)
    assert back.values.tobytes() == v.tobytes()


@given(st.data(), st.sampled_from([2, 3, 17]),
       st.sampled_from(["csv", "json"]))
@settings(max_examples=25, deadline=None)
def test_kernel_roundtrip_is_bit_exact(tmp_path_factory, data, depth, fmt):
    m = _mirrored(data.draw, (2 * depth, 2 * depth))
    k = EvolutionKernel(0.3, "raw_K", 0.7, 9, depth, m, 1e-3, 1)
    p = str(tmp_path_factory.mktemp("k") / f"k.{fmt}")
    write_kernel(k, p)
    back = load_kernel(p)
    assert back.matrix.tobytes() == m.tobytes()


@given(st.data(), st.sampled_from([2, 3, 40]),
       st.sampled_from(["csv", "json"]), st.booleans())
@settings(max_examples=25, deadline=None)
def test_lattice_function_roundtrip_is_bit_exact(tmp_path_factory, data, depth,
                                                 fmt, rescaled):
    ctx = DeformationContext(q=0.7, lattice_depth=depth)
    f = LatticeFunction("position", _mirrored(data.draw, (2 * depth,)),
                        rescaled=rescaled)
    p = str(tmp_path_factory.mktemp("f") / f"f.{fmt}")
    write_lattice_function(f, ctx, p)
    back = load_lattice_function(p, ctx=ctx)
    assert back.rescaled == rescaled
    assert back.values.tobytes() == f.values.tobytes()
