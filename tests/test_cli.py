"""Command-line behaviors: outputs, formats, exit codes, determinism."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_P2_N24_SHOT, GOLDEN_P2_N24_SLOPES
import kspm
from kspm import analyzer, cli, dds, spectral
from kspm.errors import RecurrenceMismatch
from kspm.stabilizer import IncrementalStabilizer, trace_leftmost


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# --------------------------------------------------------------- stabilize


def test_stabilize_json_golden(capsys):
    rc, out, err = run_cli(
        capsys, "stabilize", "--p", "2", "--n", "24", "--strategy", "incremental"
    )
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["meta"]["command"] == "stabilize"
    res = doc["result"]
    assert tuple(res["slopes"]) == GOLDEN_P2_N24_SLOPES
    assert tuple(res["shot"]) == GOLDEN_P2_N24_SHOT
    assert res["N"] == 24 and res["p"] == 2
    assert res["w"] == 5
    assert res["n_strict"] == 5
    assert res["uniform_index"] == 5
    assert res["interior_zeros"] == 0
    assert res["ambiguous_count"] == 3
    assert res["strategy"] == "incremental"


def test_stabilize_default_strategy_is_batch(capsys):
    rc, out, _ = run_cli(capsys, "stabilize", "--p", "2", "--n", "24")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["strategy"] == doc["meta"]["config"]["strategy"] == "batch"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("p,n", [(1, 0), (1, 1), (2, 24), (3, 5000), (7, 40123)])
def test_stabilize_default_matches_leftmost_but_for_strategy(monkeypatch, capsys, p, n, fmt):
    args = ("stabilize", "--p", str(p), "--n", str(n), "--format", fmt)
    rc_b, out_b, err_b = run_cli(capsys, *args)
    # the same command on the reference walk's fixed point, named as the default
    walk = dataclasses.replace(trace_leftmost(p, n), strategy="batch")
    monkeypatch.setattr(cli, "stabilize", lambda *a, **k: walk)
    rc_l, out_l, err_l = run_cli(capsys, *args)
    assert (rc_b, err_b) == (rc_l, err_l) == (0, "")
    # JSON names the strategy in meta.config and in the result, CSV once
    if fmt == "json":
        quoted, fields = '"strategy": "batch"', 2
    else:
        quoted, fields = "strategy,batch", 1
    assert out_b.count(quoted) == fields
    assert out_b == out_l


def test_stabilize_output_is_byte_deterministic(capsys):
    a = run_cli(capsys, "stabilize", "--p", "4", "--n", "2000")
    b = run_cli(capsys, "stabilize", "--p", "4", "--n", "2000")
    assert a == b


def test_stabilize_strategies_agree(capsys):
    docs = []
    for strat in ("random", "incremental", "batch"):
        rc, out, _ = run_cli(capsys, "stabilize", "--p", "3", "--n", "200", "--strategy", strat)
        assert rc == 0
        docs.append(json.loads(out)["result"])
    assert docs[0]["slopes"] == docs[1]["slopes"] == docs[2]["slopes"]
    assert docs[0]["shot"] == docs[1]["shot"] == docs[2]["shot"]
    assert docs[0]["strategy"] == "random(mt19937:0)"


def test_stabilize_csv_layout(capsys):
    rc, out, _ = run_cli(capsys, "stabilize", "--p", "2", "--n", "24", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    fields = dict(line.split(",", 1) for line in lines[1:])
    assert fields["slopes"] == "2 1 2 1 2"
    assert fields["N"] == "24"


def test_stabilize_writes_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    rc, out, _ = run_cli(capsys, "stabilize", "--p", "2", "--n", "24", "--output", str(path))
    assert rc == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert tuple(doc["result"]["slopes"]) == GOLDEN_P2_N24_SLOPES


# -------------------------------------------------------------------- scan


def test_scan_csv_schema(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--p", "2", "--n-max", "300", "--stride", "50", "--format", "csv"
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "N,p,w,n_strict,n_loose,uniform_index,interior_zeros,"
        "density_column,ambiguous_count,elapsed_us"
    )
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == 6
    first = data[0].split(",")
    assert first[0] == "50" and first[1] == "2"
    assert all(row.split(",")[-1] == "0" for row in data)  # no --timing
    comments = [l for l in lines if l.startswith("#")]
    assert any("fit" in c for c in comments)


def test_scan_json_fits_over_two_decades(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--p", "2", "--n-max", "1024", "--stride", "1")
    assert rc == 0
    doc = json.loads(out)["result"]
    assert len(doc["rows"]) == 1024
    fits = doc["fits"]
    assert fits["n_strict"]["ok"] is True
    assert fits["n_strict"]["c"] > 0
    assert fits["density_column"]["ok"] is True  # incremental tracks densities


def test_scan_fit_unavailable_on_narrow_range(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--p", "2", "--n-max", "40", "--stride", "2")
    assert rc == 0
    doc = json.loads(out)["result"]
    assert all(not f["ok"] for f in doc["fits"].values())
    assert all("reason" in f for f in doc["fits"].values())


def test_scan_emit_plot_data(tmp_path, capsys):
    path = tmp_path / "plot.csv"
    rc, _, _ = run_cli(
        capsys,
        "scan", "--p", "2", "--n-max", "100", "--stride", "10",
        "--emit-plot-data", str(path),
    )
    assert rc == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "series,x,y"
    series = {line.split(",")[0] for line in lines[1:]}
    assert series == {"n_strict_vs_log2N", "w_vs_sqrtN"}


# Whole scan documents and the plot file, byte for byte: every row field and
# every fit the scan writes, with two decades of N (fits) and one sample (none).
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("fmt", ["json", "csv"])
# the golden files are named for the scan's replayed avalanches
@pytest.mark.parametrize("suffix", ["incremental"])
@pytest.mark.parametrize("n_max,stride", [(400, 3), (5, 5)], ids=["fits", "no-fits"])
def test_scan_documents_are_pinned(tmp_path, capsys, n_max, stride, suffix, fmt):
    plot = tmp_path / "plot.csv"
    rc, out, err = run_cli(
        capsys,
        "scan", "--p", "2", "--n-max", str(n_max), "--stride", str(stride),
        "--format", fmt, "--emit-plot-data", str(plot),
    )
    assert (rc, err) == (0, "")
    assert out.encode() == (GOLDEN / f"scan_p2_n{n_max}_s{stride}_{suffix}.{fmt}").read_bytes()
    if n_max == 400:
        assert plot.read_bytes() == (GOLDEN / "scan_p2_n400_s3.plot.csv").read_bytes()


# Whole stabilize, avalanche and verify documents, byte for byte.
PINNED_DOCUMENTS = {
    **{
        f"stabilize_p4_n2000_{s}.json": f"stabilize --p 4 --n 2000 --strategy {s}"
        for s in ("batch", "random", "incremental")
    },
    "stabilize_p4_n2000.csv": "stabilize --p 4 --n 2000 --format csv",
    "avalanche_p3_k5489.json": "avalanche --p 3 --k 5489",
    "avalanche_p3_k5489.csv": "avalanche --p 3 --k 5489 --format csv",
    "verify_p4_n2000.json": "verify --p 4 --n 2000",
    "verify_p4_n2000.csv": "verify --p 4 --n 2000 --format csv",
}


@pytest.mark.parametrize("golden", PINNED_DOCUMENTS)
def test_documents_are_pinned(capsys, golden):
    rc, out, err = run_cli(capsys, *PINNED_DOCUMENTS[golden].split())
    assert (rc, err) == (0, "")
    assert out.encode() == (GOLDEN / golden).read_bytes()


# ------------------------------------------------------------ JSON writer


# a meta with a nested dict, as every command's config is
META = {"tool": "kspm", "config": {"p": 2}}


def written(result) -> str:
    return "".join(cli._pieces(META, result))


def dumped(result) -> str:
    return json.dumps({"meta": META, "result": result}, indent=2)


def assert_writes_like_json_dumps(result):
    """``cli._pieces`` writes ``result`` as ``json.dumps`` does, or raises its
    error before the first piece."""
    try:
        want = dumped(result)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            cli._pieces(META, result)
    else:
        assert written(result) == want


def as_table(rows):
    """A list of dicts that share their keys in one order as a ``Table``, else None."""
    if not (isinstance(rows, (list, tuple)) and rows and all(isinstance(r, dict) for r in rows)):
        return None
    keys = list(rows[0])
    if not keys or any(list(r) != keys for r in rows):
        return None
    return cli.Table((k, [r[k] for r in rows]) for k in keys)


def row_lists_in(obj):
    """Every list of dicts in ``obj``, at any depth, that a ``Table`` can hold."""
    if as_table(obj) is not None:
        yield obj
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for v in obj:
            yield from row_lists_in(v)


def assert_table_writes_as_its_rows(table):
    """``table`` under ``result`` writes as the list of its rows, or raises what
    ``json.dumps`` raises on them, or refuses a nested cell."""
    result = {"t": table}
    try:
        want = dumped({"t": rows_of(table)})
    except (TypeError, ValueError) as exc:
        # cells are encoded a column at a time, so with two bad cells the error
        # may name another one than json.dumps meets first, row by row
        with pytest.raises(type(exc)):
            cli._pieces(META, result)
        return
    if any(isinstance(v, (dict, list, tuple)) for c in table.values() for v in c):
        with pytest.raises(TypeError, match="table column"):
            cli._pieces(META, result)
    else:
        assert written(result) == want


def assert_writes_each_part_like_json_dumps(obj):
    """``obj`` as a value of ``result``, and as the whole ``result`` if it is a
    dict; each flat row list in it, as a ``Table``, writes as its rows."""
    assert_writes_like_json_dumps({"x": obj})
    if isinstance(obj, dict):
        assert_writes_like_json_dumps(obj)
    for rows in row_lists_in(obj):
        assert_table_writes_as_its_rows(as_table(rows))


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_json_writer_matches_json_dumps_on_every_pinned_document(golden):
    text = (GOLDEN / golden).read_text(encoding="utf-8")
    doc = json.loads(text)
    # each row list back into the columns its command writes it from
    result = {k: as_table(v) or v for k, v in doc["result"].items()}
    if golden.startswith(("scan", "spectral", "verify")):
        assert any(isinstance(v, cli.Table) for v in result.values())
    assert "".join(cli._pieces(doc["meta"], result)) + "\n" == text


# non-ASCII, quote, backslash, control characters and % (the row template's own)
TEXT = st.text(max_size=5) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f", "%", "%s", "%(a)d", "é€😀"]
)
SCALARS = (
    st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.floats()
    | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16])
    | TEXT
)
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()


@st.composite
def row_lists(draw):
    """Flat dicts sharing their keys, with ints mixed with bools and None in a column."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    column = st.sampled_from([st.integers(), st.integers() | st.booleans() | st.none(), SCALARS])
    values = [draw(column) for _ in keys]
    return [{k: draw(v) for k, v in zip(keys, values)} for _ in range(draw(st.integers(1, 4)))]


DOCUMENTS = st.recursive(
    SCALARS | row_lists(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_json_writer_matches_json_dumps_on_generated_documents(doc):
    assert_writes_each_part_like_json_dumps(doc)


@pytest.mark.parametrize(
    "obj",
    [
        # the same keys in another order, and a subset in the same order
        [{"a": 1, "b": 2}, {"b": 3, "a": 4}],
        [{"a": 1, "b": 2}, {"a": 3}],
        # a bool and None in an otherwise int column
        [{"n": 1, "b": None}, {"n": True, "b": 2}],
        # a row holding a list or a dict, and an empty row
        [{"a": 1, "b": [1, 2]}, {"a": 2, "b": 3}],
        [{"a": 1, "b": 2}, {"a": 2, "b": {"c": None}}],
        [{}, {}],
        [{"a": 1}, 2, [3]],
        # % in keys and values, and a tuple for a list
        [{"%s": "%d", "a%%b": 1}, {"%s": "%", "a%%b": 2}],
        ({"x": (1, 2.5)},),
        # keys that are not strings, in a dict and as a row's
        {1: 2, 2.5: [], True: {}, None: "x", math.inf: 0},
        [{1: 2}, {1: 3}],
        [{1: 2}, {True: 3}],
        # int and float subclasses: %s would write np.float64(0.5) under numpy 2
        np.float64(0.5),
        [np.float64(0.5), np.float64(math.inf), 1],
        [{"x": np.float64(0.5), "n": 1}, {"x": 2.0, "n": 2}],
        [{"n": 1}, {"n": np.int64(2)}],
        [1, np.int64(2)],
        {"k": np.int64(2)},
        {np.float64(1.5): 1},
        {np.int64(1): 1},
        {(1, 2): 3},
        [{"s": {1, 2}}, {"s": 3}],
        # json.dumps meets the set first, a column-wise walk the np.int64
        [{"a": 1, "b": set()}, {"a": np.int64(1), "b": 2}],
    ],
)
def test_json_writer_matches_json_dumps_on_traps(obj):
    assert_writes_each_part_like_json_dumps(obj)


def emit_args(output=None):
    """Arguments for ``cli._emit`` whose document has an empty ``config``."""
    return argparse.Namespace(command="test", format="json", output=output)


def emitted(doc) -> str:
    meta = {"tool": "kspm", "version": kspm.__version__, "command": "test", "config": {}}
    return json.dumps({"meta": meta, "result": doc}, indent=2) + "\n"


def rows_of(table):
    """A table as the list of its rows, the document ``json.dumps`` is given."""
    return [dict(zip(table, row)) for row in zip(*table.values())]


def mixed_table(n):
    """A table whose columns hold None, floats, strings and Infinity among ints."""
    return cli.Table(
        N=list(range(n)),
        x=[[None, i / 7, math.inf][i % 3] for i in range(n)],
        s=[f"r%s{i}" for i in range(n)],
        n=[i * i for i in range(n)],
    )


@pytest.mark.parametrize(
    "n",
    [0, 1, cli.CHUNK - 1, cli.CHUNK, cli.CHUNK + 1, 2 * cli.CHUNK + 1],
    ids=["0", "1", "chunk-1", "chunk", "chunk+1", "2chunk+1"],
)
def test_emit_writes_flat_rows_in_chunks_as_json_dumps_does(tmp_path, capsys, n):
    table = mixed_table(n)
    rows = rows_of(table)
    # the same rows as plain dicts, nested in a list, take the recursive path
    doc = {"rows": table, "nested": [rows, 1], "fits": {"ok": False}}
    want = emitted({"rows": rows, "nested": [rows, 1], "fits": {"ok": False}})
    path = tmp_path / "doc.json"
    cli._emit(emit_args(str(path)), doc)
    assert path.read_text(encoding="utf-8") == want
    cli._emit(emit_args(), doc)
    assert capsys.readouterr().out == want
    # the table's rows take the template path, at most CHUNK of them to a piece;
    # the nested rows are one json.dumps text, so the table is counted alone
    largest = max(piece.count('"N": ') for piece in cli._pieces(META, {"rows": table}))
    assert largest == min(n, cli.CHUNK)


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_a_table_writes_as_the_list_of_its_rows(rows):
    table = cli.Table((k, [r[k] for r in rows]) for k in rows[0])
    assert written({"t": table, "x": 1}) == dumped({"t": rows, "x": 1})
    assert written({"t": cli.Table((k, []) for k in rows[0])}) == dumped({"t": []})


def test_a_table_refuses_a_nested_value_before_writing():
    with pytest.raises(TypeError, match="table column"):
        cli._pieces(META, {"t": cli.Table(a=[1, 2], b=[3, [4]])})


@pytest.mark.parametrize("where", ["file", "stdout"])
@pytest.mark.parametrize("trap", ["set-in-row-1500", "tuple-key"])
def test_a_refused_document_writes_nothing(tmp_path, capsys, where, trap):
    rows = [{"N": i, "w": i % 7} for i in range(2000)]
    if trap == "set-in-row-1500":
        rows[1499]["w"] = {1}
        doc = {"rows": rows}
    else:
        doc = {"rows": rows, "fits": {(1, 2): 3}}
    with pytest.raises(TypeError) as want:
        json.dumps(doc, indent=2)
    path = tmp_path / "doc.json"
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        cli._emit(emit_args(str(path) if where == "file" else None), doc)
    assert not path.exists()
    assert capsys.readouterr().out == ""


def test_emit_writes_a_scan_document_in_less_memory_than_its_text(tmp_path):
    rows = cli.Table(analyzer.scan_rows(3, range(10, 200_001, 10)))
    doc = {"rows": rows, "fits": {}}
    path = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        cli._emit(emit_args(str(path)), doc, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 5_000_000
    # one string for the whole text peaked at about 3.2 times its length
    assert peak < size, f"peak {peak} bytes against a {size}-byte document"


def closed_after_ten_bytes(*options):
    """Exit code and stderr of a scan whose reader closes the pipe after 10 bytes."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "kspm", "scan", "--p", "3", "--n-max", "20000",
         "--stride", "10", *options],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=Path(kspm.__file__).parents[1],
    )
    try:
        # the 0.5 MB document cannot fit in the pipe, so later writes meet EPIPE
        assert proc.stdout.read(10) == b'{\n  "meta"'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    return proc.returncode, err


def test_a_reader_that_closes_stdout_early_leaves_the_run_quiet():
    assert closed_after_ten_bytes() == (0, b"")


def test_a_reader_that_closes_the_output_path_early_leaves_the_run_quiet():
    # --output opens the pipe itself
    assert closed_after_ten_bytes("--output", "/dev/stdout") == (0, b"")


# ------------------------------------------------------------ meta.config

# output settings come first and the rest out of order on each command line,
# so the config order is the parser's, not the command line's
CONFIG_CASES = {
    "stabilize": (
        "stabilize --output OUT --seed 7 --strategy random --n 24 --p 2",
        [("p", 2), ("n", 24), ("strategy", "random"), ("seed", 7)],
    ),
    "scan": (
        "scan --output OUT --emit-plot-data PLOT --timing --stride 3 --n-max 30 --p 2",
        [("p", 2), ("n_max", 30), ("stride", 3), ("timing", True)],
    ),
    "spectral": (
        "spectral --output OUT --tol 1e-6 --p-max 4 --p-min 3",
        [("p_min", 3), ("p_max", 4), ("tol", 1e-6)],
    ),
    "avalanche": ("avalanche --output OUT --k 10 --p 3", [("p", 3), ("k", 10)]),
    "verify": ("verify --output OUT --seed 3 --n 24 --p 2", [("p", 2), ("n", 24), ("seed", 3)]),
}


@pytest.mark.parametrize("command", CONFIG_CASES)
def test_config_holds_every_parsed_argument_but_the_output_settings(
    tmp_path, capsys, command
):
    line, want = CONFIG_CASES[command]
    line = line.replace("OUT", str(tmp_path / "out")).replace("PLOT", str(tmp_path / "plot"))
    rc, out, err = run_cli(capsys, *line.split())
    assert (rc, out, err) == (0, "", "")
    meta = json.loads((tmp_path / "out").read_text())["meta"]
    assert list(meta) == ["tool", "version", "command", "config"]
    assert (meta["tool"], meta["version"], meta["command"]) == ("kspm", kspm.__version__, command)
    # the types too: ``timing`` must stay a bool, not read back as 1
    got = [(k, v, type(v)) for k, v in meta["config"].items()]
    assert got == [(k, v, type(v)) for k, v in want]


# ---------------------------------------------------------------- spectral


def same_document(got, want) -> bool:
    """Equal documents, with floats equal to about nine digits.

    Roots and eigenvalues come from LAPACK, whose last bits may differ
    between numpy builds; a wrong sort or matching moves
    ``eig_match_distance`` by far more than that.
    """
    if isinstance(want, float):
        return type(got) is float and math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(want, dict):
        return (
            type(got) is dict
            and list(got) == list(want)
            and all(same_document(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            type(got) is list
            and len(got) == len(want)
            and all(same_document(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


def test_spectral_document_is_pinned(capsys):
    rc, out, err = run_cli(capsys, "spectral", "--p-min", "1", "--p-max", "30")
    assert (rc, err) == (0, "")
    want = json.loads((GOLDEN / "spectral_p1_p30.json").read_text())
    assert same_document(json.loads(out), want)


@pytest.mark.parametrize(
    "key,change",
    [
        ("eig_match_distance", lambda v: v + 1e-9),
        ("spectral_radius", lambda v: v * (1 + 1e-8)),
        ("root_count", lambda v: v + 1),
        ("charpoly_window_ok", lambda v: None),
        ("ok", lambda v: 1),  # True == 1, but not the same document
    ],
    ids=["eig_match_distance", "spectral_radius", "root_count", "charpoly_window_ok", "ok"],
)
def test_pinned_spectral_document_check_is_not_vacuous(key, change):
    want = json.loads((GOLDEN / "spectral_p1_p30.json").read_text())
    assert same_document(want, want)
    got = json.loads(json.dumps(want))
    row = got["result"]["rows"][4]  # p = 5, where every column is printed
    row[key] = change(row[key])
    assert not same_document(got, want)


def test_spectral_small_range_passes(capsys):
    rc, out, err = run_cli(capsys, "spectral", "--p-max", "6")
    assert rc == 0 and err == ""
    doc = json.loads(out)["result"]
    assert [r["p"] for r in doc["rows"]] == [2, 3, 4, 5, 6]
    assert all(r["ok"] for r in doc["rows"])
    assert all(
        r["max_root_modulus"] <= (r["p"] - 1) / r["p"] + 1e-9 for r in doc["rows"]
    )


SPECTRAL_COLUMNS = [
    "p", "ok", "bezout_ok", "charpoly_averaging_ok", "charpoly_window_ok", "root_count",
    "max_root_modulus", "modulus_bound", "min_separation", "max_residual",
    "eig_match_distance", "spectral_radius", "perturbation_bound",
]


def test_spectral_csv(capsys):
    rc, out, err = run_cli(
        capsys, "spectral", "--p-min", "7", "--p-max", "13", "--format", "csv"
    )
    assert (rc, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out))
    assert header == SPECTRAL_COLUMNS
    # a charpoly column past its cap is None, written as an empty cell
    assert [r[:6] for r in rows] == [
        [str(p), "True", "True", "True" if p <= 12 else "", "True" if p <= 8 else "", str(p - 1)]
        for p in range(7, 14)
    ]


def test_spectral_builds_the_float_O_once_per_row(monkeypatch, capsys):
    # the eigenvalues and the perturbation bound share one dense float O
    calls = []
    centered_floats = spectral._centered_floats

    def counted(p):
        calls.append(p)
        return centered_floats(p)

    monkeypatch.setattr(spectral, "_centered_floats", counted)
    rc, _, _ = run_cli(capsys, "spectral", "--p-min", "2", "--p-max", "6")
    assert rc == 0
    assert calls == [2, 3, 4, 5, 6]


def test_spectral_charpoly_ranges_are_pinned(capsys):
    # the printed certificates stop at p = 12 (averaging) and p = 8 (window);
    # widening them changes the output and waits for a re-recorded reference
    rc, out, _ = run_cli(capsys, "spectral", "--p-min", "8", "--p-max", "13")
    assert rc == 0
    rows = {r["p"]: r for r in json.loads(out)["result"]["rows"]}
    assert rows[12]["charpoly_averaging_ok"] is True
    assert rows[13]["charpoly_averaging_ok"] is None
    assert rows[8]["charpoly_window_ok"] is True
    assert rows[9]["charpoly_window_ok"] is None


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_spectral_refuses_a_tolerance_that_is_not_finite(tol, capsys):
    # NaN fails every comparison and inf passes every residual, so neither gates
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectral", "--p-max", "4", "--tol", tol])
    assert exc.value.code == 2
    assert "--tol must be finite and positive" in capsys.readouterr().err


def test_spectral_impossible_tolerance_fails_gate(capsys):
    rc, out, err = run_cli(capsys, "spectral", "--p-max", "8", "--tol", "1e-30")
    assert rc == 4
    assert "residual" in err or "gate" in err


def change_one_coefficient_of_R(monkeypatch):
    poly_R = spectral.poly_R

    def changed(p):
        coeffs = list(poly_R(p))
        coeffs[p // 2] += 1
        return tuple(coeffs)

    monkeypatch.setattr(spectral, "poly_R", changed)


def change_one_entry_of_O(monkeypatch):
    # entry (1, 0) of p^2 O, changed in the one step both commands use
    scaled_step = dds._scaled_step

    def changed(p, zs, pb):
        step = scaled_step(p, zs, pb)
        step[1] += zs[0]
        return step

    monkeypatch.setattr(dds, "_scaled_step", changed)


# p = 20 is past both charpoly columns, so the float gates alone must fail
@pytest.mark.parametrize("p", [5, 20])
@pytest.mark.parametrize("tamper", [change_one_coefficient_of_R, change_one_entry_of_O])
def test_spectral_gate_fails_on_a_changed_R_or_O(monkeypatch, capsys, tamper, p):
    tamper(monkeypatch)
    rc, out, err = run_cli(capsys, "spectral", "--p-min", str(p), "--p-max", str(p))
    assert rc == 4
    assert err == f"spectral gate failed at p={p}\n"
    (row,) = json.loads(out)["result"]["rows"]
    assert row["ok"] is False and row["eig_match_distance"] > 1e-8


# --------------------------------------------------------------- avalanche


def test_avalanche_first_grain_is_quiet(capsys):
    rc, out, _ = run_cli(capsys, "avalanche", "--p", "2", "--k", "1")
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["fired"] == []
    assert res["max_fired"] is None
    assert res["density_column"] == 0


def test_avalanche_matches_library(capsys):
    rc, out, _ = run_cli(capsys, "avalanche", "--p", "3", "--k", "12")
    assert rc == 0
    res = json.loads(out)["result"]
    inc = IncrementalStabilizer(3, expect=12)
    want = [inc.advance() for _ in range(12)][-1]
    assert tuple(res["fired"]) == want.fired
    assert res["max_fired"] == want.max_fired
    assert res["k"] == 12


# ------------------------------------------------------------------ verify


@pytest.mark.parametrize("p,n", [(2, 24), (1, 7), (4, 500)])
def test_verify_clean_piles(p, n, capsys):
    rc, out, err = run_cli(capsys, "verify", "--p", str(p), "--n", str(n))
    assert rc == 0 and err == ""
    doc = json.loads(out)["result"]
    assert doc["ok"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "strategy_independence" in names
    assert "centered_recurrence" in names
    assert all(c["ok"] for c in doc["checks"])


def test_verify_reports_first_violation(monkeypatch, capsys):
    def fake_checks(p, n, seed):
        return cli.Table(name=["alpha", "middle", "gamma"], ok=[True, False, True])

    monkeypatch.setattr(cli, "_verification_checks", fake_checks)
    rc, out, err = run_cli(capsys, "verify", "--p", "2", "--n", "10")
    assert rc == 5
    assert "middle" in err


def test_verify_reports_a_failed_replay_as_a_violation(monkeypatch, capsys):
    def broken_replay(*args, **kwargs):
        raise RecurrenceMismatch("centered recurrence mismatch at column 3")

    monkeypatch.setattr(dds, "trajectory_report", broken_replay)
    rc, out, err = run_cli(capsys, "verify", "--p", "3", "--n", "200")
    assert rc == 5
    assert err == "verification violated: trajectory_invariants\n"
    checks = json.loads(out)["result"]["checks"]
    failed = [c for c in checks if not c["ok"]]
    # the one replay fills both rows, each in its place
    assert [c["name"] for c in failed] == ["trajectory_invariants", "centered_recurrence"]
    assert checks[-1] == failed[-1]
    assert {c["detail"] for c in failed} == {"centered recurrence mismatch at column 3"}


def test_verify_walks_the_window_twice(monkeypatch):
    # the reconstruction, and one replay for both the window audit and the
    # centered recurrence
    walk = dds._walk
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return walk(*args, **kwargs)

    monkeypatch.setattr(dds, "_walk", counted)
    checks = cli._verification_checks(30, 2000, 1)
    assert all(checks["ok"])
    assert len(calls) == 2


@pytest.mark.parametrize("p", [5, 20])
def test_verify_replay_fails_on_a_changed_O(monkeypatch, capsys, p):
    change_one_entry_of_O(monkeypatch)
    rc, out, err = run_cli(capsys, "verify", "--p", str(p), "--n", "2000")
    assert rc == 5
    assert err == "verification violated: centered_recurrence\n"
    bad = [c["name"] for c in json.loads(out)["result"]["checks"] if not c["ok"]]
    assert bad == ["centered_recurrence"]


def test_verify_never_computes_the_perturbation_bound(monkeypatch, capsys):
    def refuse(p):
        raise AssertionError("verify computed the perturbation bound")

    monkeypatch.setattr(spectral, "perturbation_bound", refuse)
    rc, out, err = run_cli(capsys, "verify", "--p", "4", "--n", "2000")
    assert (rc, err) == (0, "")
    assert out.encode() == (GOLDEN / "verify_p4_n2000.json").read_bytes()


def test_verify_wave_tail_needs_the_loose_start_at_the_uniform_window(
    monkeypatch, capsys
):
    real = analyzer.row_statistics

    def shifted(*args):
        stats = real(*args)
        return dataclasses.replace(stats, n_loose=stats.uniform_index + 1)

    monkeypatch.setattr(analyzer, "row_statistics", shifted)
    rc, out, err = run_cli(capsys, "verify", "--p", "4", "--n", "2000")
    assert rc == 5
    assert err == "verification violated: wave_tail\n"
    bad = [c["name"] for c in json.loads(out)["result"]["checks"] if not c["ok"]]
    assert bad == ["wave_tail"]


def test_verify_wave_tail_sees_a_fault_in_the_statistics_pass(monkeypatch, capsys):
    # row_statistics returns the loose start and the first uniform window as
    # the statistics pass reads them, so a fault that moves the loose start
    # fails the wave_tail check instead of raising first
    wave_tails = analyzer._wave_tails

    def shifted(p, s):
        w, strict, loose, last, flags = wave_tails(p, s)
        return w, strict, loose + 1, last, flags

    monkeypatch.setattr(analyzer, "_wave_tails", shifted)
    rc, out, err = run_cli(capsys, "verify", "--p", "4", "--n", "2000")
    assert rc == 5
    assert err == "verification violated: wave_tail\n"
    bad = [c["name"] for c in json.loads(out)["result"]["checks"] if not c["ok"]]
    assert bad == ["wave_tail"]


@pytest.mark.parametrize(
    "tamper",
    [
        lambda s: {"ambiguous_count": s.ambiguous_count + 1},
        # moving both keeps wave_tail's n_loose == uniform_index
        lambda s: {"uniform_index": s.uniform_index + 1, "n_loose": s.n_loose + 1},
    ],
    ids=["ambiguous_count", "uniform_index"],
)
def test_verify_checks_the_row_statistics_against_the_replay(
    monkeypatch, capsys, tamper
):
    real = analyzer.row_statistics

    def tampered(*args):
        stats = real(*args)
        return dataclasses.replace(stats, **tamper(stats))

    monkeypatch.setattr(analyzer, "row_statistics", tampered)
    rc, out, err = run_cli(capsys, "verify", "--p", "4", "--n", "2000")
    assert rc == 5
    assert err == "verification violated: trajectory_invariants\n"
    bad = [c for c in json.loads(out)["result"]["checks"] if not c["ok"]]
    assert [c["name"] for c in bad] == ["trajectory_invariants"]
    assert "row statistics" in bad[0]["detail"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_reports_a_broken_shot_balance(monkeypatch, capsys, fmt):
    real = cli.stabilize

    def tampered(p, n, strategy="batch", seed=0):
        fp = real(p, n, strategy, seed=seed)
        if strategy != "batch":
            return fp
        shot = list(fp.shot)
        shot[5] += 1
        return dataclasses.replace(fp, shot=tuple(shot))

    monkeypatch.setattr(cli, "stabilize", tampered)
    rc, out, err = run_cli(
        capsys, "verify", "--p", "3", "--n", "300", "--format", fmt
    )
    assert rc == 5
    assert err == "verification violated: strategy_independence\n"
    if fmt == "json":
        checks = {c["name"]: c for c in json.loads(out)["result"]["checks"]}
    else:
        checks = {c["name"]: c for c in csv.DictReader(io.StringIO(out))}
        for c in checks.values():
            c["ok"] = c["ok"] == "True"
    assert checks["shot_balance"]["ok"] is False
    assert "mass balance at column" in checks["shot_balance"]["detail"]
    assert checks["wave_tail"]["ok"] is False
    assert checks["grain_conservation"]["ok"] is True
    assert list(checks)[-1] == "centered_recurrence"


# --------------------------------------------------------- usage and limits


@pytest.mark.parametrize(
    "argv",
    [
        ["stabilize", "--p", "0", "--n", "5"],
        ["stabilize", "--p", "2", "--n", "-1"],
        ["scan", "--p", "2", "--n-max", "10", "--stride", "11"],
        ["scan", "--p", "2", "--n-max", "0"],
        ["scan", "--p", "2", "--n-max", "10", "--threads", "2"],
        ["spectral", "--p-max", "1", "--p-min", "2"],
        ["spectral", "--p-max", "4", "--tol", "0"],
        ["avalanche", "--p", "2", "--k", "0"],
        ["frobnicate"],
        [],
        # random.Random(-7) draws seed 7's numbers, so the label would name the wrong run
        ["stabilize", "--p", "2", "--n", "24", "--strategy", "random", "--seed", "-7"],
        ["verify", "--p", "2", "--n", "24", "--seed", "-1"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["scan", "--p", "3", "--n-max", "120", "--stride", "30", "--mode", "direct"],
            "error: unrecognized arguments: --mode direct",
        ),
        (
            ["stabilize", "--p", "2", "--n", "24", "--strategy", "leftmost"],
            "error: argument --strategy: invalid choice: 'leftmost'",
        ),
    ],
    ids=["scan-mode", "stabilize-leftmost"],
)
def test_removed_arguments_are_usage_errors(argv, message, capsys):
    # every scan replays its avalanches, and the leftmost walk is a test oracle
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: kspm ")
    assert message in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["stabilize", "--p", "2", "--n", "5"], "--output"),
        (["scan", "--p", "2", "--n-max", "50", "--stride", "5"], "--emit-plot-data"),
        (["scan", "--p", "2", "--n-max", "50", "--stride", "5"], "--output"),
    ],
)
@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_path_exits_2(
    tmp_path, capsys, monkeypatch, argv, flag, where
):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started before its output path was checked")

    monkeypatch.setattr(cli, "stabilize", no_work)
    monkeypatch.setattr(analyzer, "scan_rows", no_work)
    path = tmp_path / "missing" / "out" if where == "missing-directory" else tmp_path
    rc, out, err = run_cli(capsys, *argv, flag, str(path))
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "missing").exists()


def test_a_refused_plot_path_leaves_the_output_file_untouched(tmp_path, capsys):
    kept = tmp_path / "out.json"
    kept.write_text("kept\n")
    rc, _, err = run_cli(
        capsys,
        "scan", "--p", "2", "--n-max", "50", "--stride", "5",
        "--output", str(kept), "--emit-plot-data", str(tmp_path / "missing" / "p.csv"),
    )
    assert rc == 2 and err.startswith("error: cannot write ")
    assert kept.read_text() == "kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "2", "--n", "30", "--output", ""],
        ["scan", "--p", "2", "--n-max", "20", "--stride", "10", "--emit-plot-data", ""],
    ],
    ids=["output", "emit-plot-data"],
)
def test_an_empty_output_path_exits_2(capsys, monkeypatch, argv):
    # an empty path names no file; stdout, or no plot file at all, must not stand in
    def no_work(*args, **kwargs):
        raise AssertionError("the run started with an empty output path")

    monkeypatch.setattr(cli, "stabilize", no_work)
    monkeypatch.setattr(analyzer, "scan_rows", no_work)
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (2, "", "error: cannot write an empty path\n")


@pytest.mark.parametrize("plot", ["P", "./P", "absolute"])
def test_one_file_for_the_document_and_the_plot_data_exits_2(
    tmp_path, capsys, monkeypatch, plot
):
    # the document would overwrite the plot data, so the scan must not start
    def no_work(*args, **kwargs):
        raise AssertionError("the scan started with both outputs on one file")

    monkeypatch.setattr(analyzer, "scan_rows", no_work)
    monkeypatch.chdir(tmp_path)
    plot = str(tmp_path / "P") if plot == "absolute" else plot
    rc, out, err = run_cli(
        capsys,
        "scan", "--p", "2", "--n-max", "50", "--stride", "5",
        "--output", "P", "--emit-plot-data", plot,
    )
    assert (rc, out) == (2, "")
    assert err == f"error: --output and --emit-plot-data name one file: {plot}\n"
    assert not (tmp_path / "P").exists()


def test_output_to_dev_null_is_accepted(capsys):
    # /dev/null is tested as the file it is, not by its directory
    argv = ["stabilize", "--p", "2", "--n", "5", "--output", os.devnull]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out, err) == (0, "", "")


def test_capacity_limit_exit_3(capsys):
    rc, _, err = run_cli(capsys, "stabilize", "--p", "2", "--n", str(2**62 + 1))
    assert rc == 3
    assert "resource limit" in err


def test_huge_scan_is_refused_before_its_samples_are_built():
    # under a 1.5 GiB address-space limit, a list of the 10**12 samples would
    # end in MemoryError; the firing preflight must answer first
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
        "from kspm import cli\n"
        "argv = ['scan', '--p', '2', '--n-max', str(10**12), '--stride', '1']\n"
        "sys.exit(cli.main(argv))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=Path(kspm.__file__).parents[1],
        # one BLAS thread keeps numpy's own reservations well under the limit
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 3, proc.stderr
    assert "firing limit" in proc.stderr


def test_scan_over_the_sample_limit_exits_3_before_its_first_sample(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the pile was built")

    monkeypatch.setattr(analyzer, "IncrementalStabilizer", refuse)
    argv = ["scan", "--p", "2", "--n-max", str(10**8), "--stride", "1"]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (3, "")
    assert err == f"resource limit: 100000000 samples exceed the {2**21}-sample limit of one scan\n"


def test_huge_avalanche_index_is_refused_with_exit_3(capsys):
    # about 1e18 firings: refused before any allocation or settling
    rc, out, err = run_cli(capsys, "avalanche", "--p", "2", "--k", str(10**12))
    assert rc == 3 and out == ""
    assert "firing limit" in err


def test_huge_p_is_refused_with_exit_3(capsys):
    rc, out, err = run_cli(capsys, "stabilize", "--p", "1000000000", "--n", "5")
    assert rc == 3 and out == ""
    assert "columns exceed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--p", "100000", "--n", "5"),
        ("verify", "--p", "4097", "--n", "5"),
        ("spectral", "--p-min", "100000", "--p-max", "100000"),
        ("spectral", "--p-min", "2", "--p-max", "4097"),
    ],
)
def test_spectral_side_refuses_huge_p_with_exit_3(capsys, argv):
    # refused up front: no engine run, no spectral row, no p-by-p matrix
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 3 and out == ""
    assert "columns exceed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--p", "4000", "--n", "1"),
        ("verify", "--p", "1001", "--n", "1"),
        ("spectral", "--p-min", "4000", "--p-max", "4000"),
        ("spectral", "--p-min", "2", "--p-max", "1001"),
    ],
)
def test_spectral_side_refuses_cubic_matrix_work_with_exit_3(capsys, argv):
    # p * p fits the column limit here, but the p**3 work would run for minutes
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 3 and out == ""
    assert "matrix work" in err
    assert time.perf_counter() - start < 1


def test_spectral_refuses_a_range_too_long_to_finish_before_any_row(monkeypatch, capsys):
    # each row fits the limit, but 1..1000 together would run for about 40 minutes
    def refuse(*args):
        raise AssertionError("a spectral row was computed")

    monkeypatch.setattr(spectral, "certify", refuse)
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "spectral", "--p-min", "1", "--p-max", "1000")
    assert (rc, out) == (3, "")
    assert err == (
        "resource limit: p=1..1000 needs about 250500250000 steps of p-by-p "
        "matrix work, over the 1000000000 limit\n"
    )
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "p_min,p_max,rc",
    [(1, 30, 0), (2, 30, 0), (1000, 1000, 0), (1, 250, 0), (1, 251, 3)],
)
def test_spectral_range_limit_sums_p_cubed(monkeypatch, capsys, p_min, p_max, rc):
    # 1..250 sums 984,390,625 steps of p**3, 1..251 sums 1,000,203,876, and
    # 1000..1000 is the limit itself; certify stands in for the rows
    seen = []

    def certify(p, tol):
        seen.append(p)
        return {"p": p, "ok": True}

    monkeypatch.setattr(spectral, "certify", certify)
    argv = ["spectral", "--p-min", str(p_min), "--p-max", str(p_max), "--output", os.devnull]
    assert run_cli(capsys, *argv)[0] == rc
    assert seen == (list(range(p_min, p_max + 1)) if rc == 0 else [])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"kspm {kspm.__version__}"


def test_module_entrypoint_smoke():
    # run from the directory holding the imported package, so ``-m`` finds it
    proc = subprocess.run(
        [sys.executable, "-m", "kspm", "stabilize", "--p", "2", "--n", "24"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=Path(kspm.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert tuple(json.loads(proc.stdout)["result"]["slopes"]) == GOLDEN_P2_N24_SLOPES


def test_benchmark_tracer_finds_every_name_it_wraps():
    # the tracer rebinds library names by attribute; a rename fails here
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'benchmarks')!r}]\n"
        "import tracing\n"
        "tracing.install(tracing.Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_spans_every_certificate_of_each_spectral_row():
    # spectral.certify reaches each traced name through the module, so the
    # tracer's per-layer spectral metrics see every row
    root = Path(__file__).resolve().parents[1]
    code = (
        "import collections, json, os, sys\n"
        f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'benchmarks')!r}]\n"
        "import tracing\n"
        "from kspm import cli\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "argv = ['spectral', '--p-min', '2', '--p-max', '9', '--output', os.devnull]\n"
        "assert cli.main(argv) == 0\n"
        "print(json.dumps(collections.Counter(span[0] for span in tracer.spans)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    rows = 8  # p = 2..9
    for name in ("bezout", "roots", "eigvals", "perturbation_bound"):
        assert spans[f"spectral.{name}"] == rows, name
    # averaging at p = 2..9 and the window at p = 2..8
    assert spans["spectral.charpoly"] == 15
