import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from adadrug import cli
from adadrug import data as dat
from adadrug import evaluate as ev
from adadrug import losses as ls
from adadrug import synth as sy
from adadrug import train as tr

from conftest import eager_batches, make_domain, per_cell_read_table
from oracles import point_to_segment_distance


FIELD_LIMIT = csv.field_size_limit()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# loaders
# ---------------------------------------------------------------------------

def test_load_expression_well_formed(tmp_path):
    p = write(tmp_path, "e.csv", "sample,g1,g2,g3\na,1,2,1e3\nb,-0.5,0,4\n")
    m = dat.load_expression(p)
    assert m.sample_ids == ["a", "b"]
    assert m.gene_names == ["g1", "g2", "g3"]
    np.testing.assert_array_equal(m.values, [[1.0, 2.0, 1000.0], [-0.5, 0.0, 4.0]])


def test_load_expression_blank_first_header_cell_and_tsv(tmp_path):
    p = write(tmp_path, "e.tsv", ",g1\tg2\na\t1\t2\n".replace(",g1", "\tg1", 1))
    m = dat.load_expression(p, fmt="tsv")
    assert m.gene_names == ["g1", "g2"]


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("sample,g1,g2\na,1,2\na,3,4\n", "duplicate sample id"),
        ("sample,g1,g2\na,1\n", "expected 3 cells"),
        ("sample,g1,g2\na,1,x\n", "non-numeric"),
        ("sample,g1,g2\na,1,\n", "empty"),
        ("sample,g1,g2\na,1,nan\n", "non-finite"),
        ("id,g1,g2\na,1,2\n", "first header cell"),
        ("sample,g1,g1\na,1,2\n", "duplicate gene"),
        ("\nsample,g1\na,1\n", "line 1: blank header"),
    ],
)
def test_load_expression_errors_carry_line_numbers(tmp_path, body, fragment):
    p = write(tmp_path, "bad.csv", body)
    with pytest.raises(dat.ParseError, match=fragment):
        dat.load_expression(p)


def test_load_expression_error_line_number_is_exact(tmp_path):
    p = write(tmp_path, "bad.csv", "sample,g1\na,1\nb,oops\n")
    with pytest.raises(dat.ParseError, match="line 3"):
        dat.load_expression(p)


def test_load_labels_both_kinds(tmp_path):
    p = write(tmp_path, "l.csv", "sample_id,label\na,1\nb,0\n")
    ids, vals, kind = dat.load_labels(p)
    assert (ids, kind) == (["a", "b"], "label")
    p = write(tmp_path, "i.csv", "sample_id,ic50\na,0.5\nb,9.5\n")
    ids, vals, kind = dat.load_labels(p)
    assert kind == "ic50"
    labels = dat.labels_for(["b", "a"], ids, vals, kind)
    np.testing.assert_array_equal(labels, [0, 1])  # mean 5: b resistant


def test_load_labels_rejects_bad_label(tmp_path):
    p = write(tmp_path, "l.csv", "sample_id,label\na,2\n")
    with pytest.raises(dat.ParseError, match="label must be 0 or 1"):
        dat.load_labels(p)


def test_labels_for_missing_sample(tmp_path):
    with pytest.raises(ValueError, match="no label"):
        dat.labels_for(["a", "z"], ["a"], [1.0], "label")


def test_gene_list_and_sets(tmp_path):
    p = write(tmp_path, "genes.txt", "tp53\n\nbrca1\n")
    assert dat.load_gene_list(p) == ["tp53", "brca1"]
    p = write(tmp_path, "sets.tsv", "apoptosis\ttp53,bax\ncycle\tccnd1\n")
    sets = dat.load_gene_sets(p)
    assert sets == {"apoptosis": ["tp53", "bax"], "cycle": ["ccnd1"]}
    p = write(tmp_path, "bad.tsv", "apoptosis tp53,bax\n")
    with pytest.raises(dat.ParseError):
        dat.load_gene_sets(p)


def test_gene_list_refuses_a_repeated_gene_naming_its_line(tmp_path):
    p = write(tmp_path, "genes.txt", "g3\ng5\n\ng3\n")
    with pytest.raises(dat.ParseError,
                       match=rf"^{re.escape(str(p))}: line 4: duplicate gene 'g3'$"):
        dat.load_gene_list(p)


# each sample-table reader with its header, the name its value column takes
# in messages and the name of its rows
READERS = {
    "expression": (dat.load_expression, "sample,g1", "value", "sample"),
    "labels": (dat.load_labels, "sample_id,label", "label", "label"),
    "scores": (ev.read_scores_csv, "sample_id,score", "score", "score"),
}


@pytest.mark.parametrize("rows,message", [
    ("a,1\n,0\n", "line 3: missing or duplicate sample id ''"),
    ("a,1\n\n a ,0\n", "line 4: missing or duplicate sample id 'a'"),
    ("a,1\nb\n", "line 3: expected 2 cells, got 1"),
    ("a,1\nb,0,1\n", "line 3: expected 2 cells, got 3"),
    ("a,1\nb,x\n", "line 3: non-numeric {col} 'x'"),
    ("a,1\nb, \n", "line 3: empty {col} cell"),
    ("a,1\nb,inf\n", "line 3: non-finite {col} 'inf'"),
    ("\n\n", "line 2: no {rows} rows"),
], ids=["empty_id", "repeated_id", "short_row", "long_row", "non_numeric",
        "empty_cell", "non_finite", "blank_lines_only"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_one_table_rule_gives_one_message(tmp_path, reader, rows, message):
    load, header, col, what = READERS[reader]
    path = write(tmp_path, "table.csv", header + "\n" + rows)
    with pytest.raises(dat.ParseError) as err:
        load(path)
    assert str(err.value) == f"{path}: " + message.format(col=col, rows=what)


def test_a_gene_named_label_takes_any_number(tmp_path):
    # the 0/1 rule follows the column names the header check returns, and an
    # expression file's value columns are genes, whatever they are called
    m = dat.load_expression(write(tmp_path, "e.csv", "sample,label\na,0.5\n"))
    assert m.gene_names == ["label"] and m.values[0, 0] == 0.5


def _file(delim, header, row):
    """A header line and up to four rows of ``delim``-joined cells, each line a
    first cell and one or two more drawn from the given pools, so a share of
    the examples parse, with blank lines mixed in; or arbitrary text."""
    def line(first, rest):
        return st.tuples(st.sampled_from(first),
                         st.lists(st.sampled_from(rest), min_size=1, max_size=2)).map(
            lambda cells: delim.join([cells[0], *cells[1]]))

    table = st.tuples(st.sampled_from(["", "\n"]), line(*header),
                      st.lists(line(*row) | st.just(""), max_size=4)).map(
        lambda parts: parts[0] + "\n".join([parts[1], *parts[2]]))
    return table | st.text(max_size=60)


_ROW = (["s1", "s2", "s3", ""], ["0", "1", "-0.5", "1e3", "nan", "x", "", "\r", '"'])
_EXPRESSION = ((["sample", "", "id"], ["g1", "g2", "g3", "", "g1,g2"]), _ROW)
_GENE_SET = (["set1", "set2", ""], ["g1,g2", "g1", "", " ,"])
FILES = {
    "expression_csv": (lambda p: dat.load_expression(p, fmt="csv"),
                       _file(",", *_EXPRESSION)),
    "expression_tsv": (lambda p: dat.load_expression(p, fmt="tsv"),
                       _file("\t", *_EXPRESSION)),
    "labels": (dat.load_labels,
               _file(",", (["sample_id", "sample"], ["label", "ic50", "g1"]), _ROW)),
    "gene_list": (dat.load_gene_list, _file(" ", _ROW, _ROW)),
    "gene_sets": (dat.load_gene_sets, _file("\t", _GENE_SET, _GENE_SET)),
    "scores": (ev.read_scores_csv,
               _file(",", (["sample_id", "id"], ["score", "score,label", "label"]), _ROW)),
}


@pytest.mark.parametrize("kind", sorted(FILES))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_is_parse_error(tmp_path_factory, kind, data):
    load, texts = FILES[kind]
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_text(data.draw(texts, label="text"))
    try:
        load(path)
    except dat.ParseError:
        pass


# padding that float() and str.strip() both remove, or (\x1c-\x1f) that only
# str.strip() removes; cell forms float() reads or refuses in ways easy to miss
_PAD = st.text(st.sampled_from(" \x1c\x1d\x1e\x1f\xa0\u3000"), max_size=2)
_NUMBER = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
           | st.sampled_from(["1_0", "\uff11\uff12.\uff15", "-0.0", "1e-320", "7"]))
_LABEL = st.sampled_from(["0", "1", "-0.0", "1.0", "1e0", "\uff10", "\uff11", "0.5", "2"])
_REFUSED = st.sampled_from(["nan", "inf", "-inf", "", "x", "1__0", "0x1", '1"5'])


def _cell(accepted):
    # one cell in eight is a form _parse_cell refuses, so most rows parse
    core = st.integers(0, 7).flatmap(lambda k: _REFUSED if k == 0 else accepted)
    return st.tuples(_PAD, core, _PAD).map("".join)


# read_table's header check, a header and one cell strategy per value column
TABLES = {
    "expression": (dat._expression_header, ["sample", "g1", "g2", "g3"], [_NUMBER] * 3),
    "labels": (dat._labels_header, ["sample_id", "label"], [_LABEL]),
    "scores": (ev._scores_header, ["sample_id", "score", "label"], [_NUMBER, _LABEL]),
}


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


def _id(i, delim):
    """Row ``i``'s id: mostly a fresh one, now and then an empty or repeated
    one, one quoted around the delimiter, a quote, a CR or a LF (as
    ``csv.writer`` writes them), a quoted plain one (as R writes them) or one
    with a stray quote inside."""
    return st.integers(0, 19).map(lambda k: {
        0: "", 1: "s0", 2: _quoted(f"s{i}{delim}x"), 3: _quoted(f's{i}"x'),
        4: _quoted(f"s{i}\rx"), 5: _quoted(f"s{i}\nx"), 6: _quoted(f"s{i}"),
        7: f's{i}"x'}.get(k, f"s{i}"))


def _row(i, cells, delim):
    """Row ``i``: a drawn id, then the value cells, now and then one short or
    one long."""
    values = st.tuples(*map(_cell, cells))
    values = st.tuples(values, st.integers(0, 19)).map(
        lambda v: {0: v[0][:-1], 1: (*v[0], "0")}.get(v[1], v[0]))
    return st.tuples(_id(i, delim), values).map(lambda r: delim.join([r[0], *r[1]]))


@pytest.mark.parametrize("table", sorted(TABLES))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_read_table_matches_the_per_cell_reader(tmp_path_factory, table, data):
    # CSV or TSV, blank lines mixed in, each line ended by LF, CRLF or a lone CR
    check, header, cells = TABLES[table]
    delim = data.draw(st.sampled_from(",\t"), label="delimiter")
    n = data.draw(st.integers(0, 5), label="rows")
    lines = [delim.join(header)] + [
        data.draw(_row(i, cells, delim) | st.just(""), label=f"row {i}")
        for i in range(n)]
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)), label="ends")
    path = tmp_path_factory.mktemp("table") / "table.csv"
    path.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))

    def outcome(read):
        try:
            head, ids, values = read(path, delim, check, table)
        except dat.ParseError as err:
            return str(err)
        return head, ids, values.shape, values.tobytes()

    assert outcome(dat.read_table) == outcome(per_cell_read_table)


def _gene(j, delim):
    """Gene ``j``'s header cell: mostly a plain name, now and then a non-ASCII
    one or one quoted around the delimiter, a quote, a CR or a LF."""
    return st.integers(0, 9).map(lambda k: {
        0: _quoted(f"g{j}{delim}x"), 1: _quoted(f'g{j}"x'), 2: _quoted(f"g{j}\rx"),
        3: _quoted(f"g{j}\nx"), 4: f"g\u00e8ne{j}", 5: f"\u03b1{j}"}.get(k, f"g{j}"))


def _as_parsed(path, fmt):
    """What parsing the expression table at ``path`` gives, its copy unread:
    ids, genes and value bytes, or the ``ParseError`` message."""
    try:
        head, ids, values = dat.read_table(path, dat.DELIMS[fmt], dat._expression_header,
                                           "sample")
    except dat.ParseError as err:
        return str(err)
    return ids, [g.strip() for g in head[1:]], values.tobytes()


def _as_loaded(path, fmt):
    """``_as_parsed``, through ``load_expression``."""
    try:
        return _loaded(dat.load_expression(path, fmt))
    except dat.ParseError as err:
        return str(err)


@pytest.mark.parametrize("fmt", sorted(dat.DELIMS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_copy_prep_writes_reads_as_its_table_parses(tmp_path_factory, fmt, data):
    # the expression tables of test_read_table_matches_the_per_cell_reader, with
    # gene names as awkward as the ids, now and then a non-ASCII id, and no
    # refused cell form, so that most tables parse
    delim = dat.DELIMS[fmt]
    genes = [data.draw(_gene(j, delim), label=f"gene {j}") for j in range(3)]
    cell = st.tuples(_PAD, _NUMBER, _PAD).map("".join)

    def row(i):
        sid = _id(i, delim) | st.just(f"\u00e9{i}")
        return st.tuples(sid, cell, cell, cell).map(delim.join)

    lines = [delim.join(["sample", *genes])] + [
        data.draw(row(i) | st.just(""), label=f"row {i}")
        for i in range(data.draw(st.integers(0, 5), label="rows"))]
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                              min_size=len(lines), max_size=len(lines)), label="ends")
    work = tmp_path_factory.mktemp("copy")
    table = work / f"in.{fmt}"
    table.write_bytes("".join(map(str.__add__, lines, ends)).encode("utf-8"))
    out = work / "prep"
    code = cli.main(["prep", "--sources", str(table), "--target", str(table),
                     "--out", str(out), "--format", fmt])
    if isinstance(_as_parsed(table, fmt), str):
        assert code == 2 and not out.exists()
        return
    assert code == 0
    for name in ("source_0", "target"):
        written = out / f"{name}.{fmt}"
        copy = dat._read_copy(written, delim)
        assert copy is not None
        assert _loaded(copy) == _as_parsed(written, fmt) == _as_parsed(table, fmt)


def _prepped(tmp_path, fmt="csv"):
    """The target table ``prep`` writes for a small table, beside its copy."""
    raw = tmp_path / f"raw.{fmt}"
    cli.write_expression(raw, dat.ExpressionMatrix(
        ["a", "b", "c"], ["g1", "g2"], np.random.default_rng(3).normal(size=(3, 2))), fmt)
    assert cli.main(["prep", "--sources", str(raw), "--target", str(raw),
                     "--out", str(tmp_path / "prep"), "--format", fmt]) == 0
    table = tmp_path / "prep" / f"target.{fmt}"
    assert dat._read_copy(table, dat.DELIMS[fmt]) is not None
    return table


def test_a_table_edited_after_prep_loads_its_edited_values(tmp_path):
    table = _prepped(tmp_path)
    before = _as_loaded(table, "csv")
    text = table.read_text()  # each line ends in a digit of a repr
    digit = text[-2]
    table.write_text(text[:-2] + str((int(digit) + 1) % 10) + "\n")
    after = _as_loaded(table, "csv")
    assert after == _as_parsed(table, "csv") and after != before


def _truncated(blob):
    return blob[:-8]


def _bit_flipped(blob):
    return blob[:-3] + bytes([blob[-3] ^ 1]) + blob[-2:]


def _header_garbled(blob):
    return b"[" + blob[1:]


def _id_renamed(blob):
    return blob.replace(b'"a"', b'"z"', 1)


def _trailing_bytes(blob):
    return blob + bytes(8)


def _header_in_a_list(blob):
    head, body = blob.split(b"\n", 1)
    return b"[" + head + b"]\n" + body


@pytest.mark.parametrize("edit", [_truncated, _bit_flipped, _header_garbled,
                                  _id_renamed, _trailing_bytes, _header_in_a_list])
def test_a_damaged_copy_is_passed_over_for_its_table(tmp_path, edit):
    table = _prepped(tmp_path)
    copy = tmp_path / "prep" / "target.csv.f8"
    copy.write_bytes(edit(copy.read_bytes()))
    assert dat._read_copy(table, ",") is None
    assert _as_loaded(table, "csv") == _as_parsed(table, "csv")


@pytest.mark.parametrize("fmt,other", [("csv", "tsv"), ("tsv", "csv")])
def test_a_copy_read_with_the_other_format_is_passed_over(tmp_path, fmt, other):
    table = _prepped(tmp_path, fmt)
    assert dat._read_copy(table, dat.DELIMS[other]) is None
    assert _as_loaded(table, other) == _as_parsed(table, other)
    assert isinstance(_as_parsed(table, other), str)  # a one-column header


def test_write_expression_leaves_no_copy(tmp_path):
    path = tmp_path / "e.csv"
    cli.write_expression(path, dat.ExpressionMatrix(["a"], ["g"], [[1.0]]))
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("ids,values", [
    (["a", "b"], [[1.0], [np.nan]]),
    ([" a", "b"], [[1.0], [2.0]]),
    (["a", ""], [[1.0], [2.0]]),
], ids=["non_finite", "padded_id", "empty_id"])
def test_no_copy_is_written_for_a_matrix_its_table_does_not_read_back_as(
        tmp_path, ids, values):
    path = tmp_path / "e.csv"
    m = dat.ExpressionMatrix(ids, ["g"], values)
    cli.write_expression(path, m)
    dat.write_copy(path, m, "csv")
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("cell,message", [
    ('"' + "x" * FIELD_LIMIT + 'x"',
     f"line 3: field larger than field limit ({FIELD_LIMIT})"),
    ('"a\n' + "x" * FIELD_LIMIT + '"',
     f"line 4: field larger than field limit ({FIELD_LIMIT})"),
], ids=["one_line", "continued"])
def test_a_quoted_cell_over_the_csv_field_limit_is_a_parse_error(tmp_path, cell, message):
    path = write(tmp_path, "e.csv", f"sample,g1\na,1\n{cell},2\n")
    with pytest.raises(dat.ParseError) as err:
        dat.load_expression(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("cell,message", [
    ("x" * (FIELD_LIMIT + 1), "non-numeric value"),
    ("1" * (FIELD_LIMIT + 1), "non-finite value"),
])
def test_an_unquoted_value_over_the_csv_field_limit_gets_the_cell_message(
        tmp_path, cell, message):
    # a line without a quote is split, not tokenized by csv, so the long cell
    # reaches the value rules
    path = write(tmp_path, "e.csv", f"sample,g1\na,1\nb,{cell}\n")
    with pytest.raises(dat.ParseError) as err:
        dat.load_expression(path)
    assert str(err.value) == f"{path}: line 3: {message} {cell!r}"


def _loaded(obj):
    """A loader's result with arrays as bytes, so results compare with ==."""
    if isinstance(obj, dat.ExpressionMatrix):
        return obj.sample_ids, obj.gene_names, obj.values.tobytes()
    if isinstance(obj, tuple):
        return tuple(map(_loaded, obj))
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    return obj


TEXT_LOADERS = pytest.mark.parametrize("load,text", [
    (dat.load_expression, "sample,g\u00e8ne,g2\na,1,2\n"),
    (dat.load_labels, "sample_id,label\n\u00e9a,1\n"),
    (dat.load_gene_list, "g\u00e8ne\ng2\n"),
    (dat.load_gene_sets, "set\tg\u00e8ne,g2\n"),
    (ev.read_scores_csv, "sample_id,score\n\u00e9a,0.5\n"),
], ids=["expression", "labels", "gene_list", "gene_sets", "scores"])


@TEXT_LOADERS
def test_a_byte_order_mark_loads_as_the_same_file_without_one(tmp_path, load, text):
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert _loaded(load(marked)) == _loaded(load(plain))


@TEXT_LOADERS
def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path, load, text):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(dat.ParseError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        load(path)


def test_load_expression_of_a_wide_table_peaks_under_12_mb(tmp_path):
    # the files_wide shape: rows kept as float64 arrays peak near 7 MB, rows
    # kept as lists of Python floats near 18 MB
    values = np.random.default_rng(0).lognormal(size=(220, 2000))
    path = tmp_path / "wide.csv"
    cli.write_expression(path, dat.ExpressionMatrix(
        [f"s{i}" for i in range(220)], [f"g{j}" for j in range(2000)], values))
    tracemalloc.start()
    try:
        loaded = dat.load_expression(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.values.tobytes() == values.tobytes()
    assert peak < 12e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


# ids that need quoting but hold no carriage return
LF_IDS = ["a,b", 'q"t', "n\nl", "\u00e9t\u00e9", "plain"]
TABLE_WRITERS = {
    "expression": lambda p: cli.write_expression(
        p, dat.ExpressionMatrix(LF_IDS, ["g\n1", "h"], np.ones((5, 2)))),
    "scores": lambda p: ev.write_scores_csv(p, LF_IDS, np.linspace(0, 1, 5),
                                            [0, 1, 0, 1, 1]),
    "embeddings": lambda p: ev.write_embeddings_csv(p, LF_IDS, np.ones((5, 3))),
    "history": lambda p: tr.TrainHistory([ls.LossParts(0.1, 0.2, 0.3, 0.4, 1.0)]
                                         ).write_csv(p),
    "rows": lambda p: sy.write_rows_csv(p, [sy.BenchmarkRow("full", 0, 0.5, 0.25)]),
}


@pytest.mark.parametrize("writer", TABLE_WRITERS)
def test_every_table_writer_ends_each_line_with_lf(tmp_path, writer):
    path = tmp_path / "table.csv"
    TABLE_WRITERS[writer](path)
    text = path.read_bytes()
    assert b"\r" not in text and text.endswith(b"\n")


# ---------------------------------------------------------------------------
# alignment and labels
# ---------------------------------------------------------------------------

def _expr(ids, genes, values):
    return dat.ExpressionMatrix(ids, genes, values)


def test_align_identical_lists_unchanged():
    a = _expr(["s1"], ["A", "B"], [[1.0, 2.0]])
    b = _expr(["s2"], ["A", "B"], [[3.0, 4.0]])
    out = dat.align_genes([a, b])
    assert out[0].gene_names == ["A", "B"]
    np.testing.assert_array_equal(out[0].values, a.values)


def test_align_intersection_keeps_first_matrix_order():
    a = _expr(["s1"], ["A", "B", "C"], [[1.0, 2.0, 3.0]])
    b = _expr(["s2"], ["C", "A"], [[30.0, 10.0]])
    out = dat.align_genes([a, b])
    assert out[0].gene_names == ["A", "C"]
    assert out[1].gene_names == ["A", "C"]
    np.testing.assert_array_equal(out[0].values, [[1.0, 3.0]])
    np.testing.assert_array_equal(out[1].values, [[10.0, 30.0]])


def test_align_returns_an_aligned_matrix_itself_and_copies_the_others():
    a = _expr(["s1"], ["A", "B"], [[1.0, 2.0]])
    b = _expr(["s2"], ["B", "A"], [[3.0, 4.0]])
    c = _expr(["s3"], ["A", "B", "C"], [[5.0, 6.0, 7.0]])
    out = dat.align_genes([a, b, c])
    assert out[0] is a
    assert out[1] is not b and out[2] is not c
    assert not np.shares_memory(out[1].values, b.values)
    assert not np.shares_memory(out[2].values, c.values)
    np.testing.assert_array_equal(out[1].values, [[4.0, 3.0]])
    np.testing.assert_array_equal(out[2].values, [[5.0, 6.0]])
    listed = dat.align_genes([a, c], ["B", "A"])
    assert listed[0] is not a and listed[0].gene_names == ["B", "A"]


def test_align_disjoint_errors():
    a = _expr(["s1"], ["A"], [[1.0]])
    b = _expr(["s2"], ["B"], [[2.0]])
    with pytest.raises(ValueError, match="intersection"):
        dat.align_genes([a, b])


def test_align_to_a_gene_list_keeps_its_order_and_only_shared_genes():
    a = _expr(["s1"], ["A", "B", "C", "D"], [[1.0, 2.0, 3.0, 4.0]])
    b = _expr(["s2"], ["D", "C", "A"], [[40.0, 30.0, 10.0]])
    # B is in the first matrix only, X in neither, D in both but not listed
    out = dat.align_genes([a, b], ["C", "B", "X", "A"])
    assert [m.gene_names for m in out] == [["C", "A"], ["C", "A"]]
    np.testing.assert_array_equal(out[0].values, [[3.0, 1.0]])
    np.testing.assert_array_equal(out[1].values, [[30.0, 10.0]])


def test_align_to_a_gene_list_without_a_common_listed_gene_errors():
    # each matrix has a listed gene, but none is in both
    a = _expr(["s1"], ["A", "B"], [[1.0, 2.0]])
    b = _expr(["s2"], ["A", "C"], [[3.0, 4.0]])
    with pytest.raises(ValueError, match="^gene intersection holds none"):
        dat.align_genes([a, b], ["B", "C"])


def test_align_is_idempotent(rng):
    a = _expr(["s1", "s2"], ["A", "B", "C"], rng.normal(size=(2, 3)))
    b = _expr(["t1"], ["B", "C", "D"], rng.normal(size=(1, 3)))
    once = dat.align_genes([a, b])
    twice = dat.align_genes(once)
    for m1, m2 in zip(once, twice):
        assert m1.gene_names == m2.gene_names
        np.testing.assert_array_equal(m1.values, m2.values)


def test_binarize_ic50_examples():
    np.testing.assert_array_equal(dat.binarize_ic50([1.0, 2.0, 9.0]), [1, 1, 0])
    np.testing.assert_array_equal(dat.binarize_ic50([5.0, 5.0, 5.0]), [0, 0, 0])
    with pytest.raises(ValueError):
        dat.binarize_ic50([])


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
@settings(max_examples=200, deadline=None)
def test_binarize_matches_two_pass_oracle(values):
    got = dat.binarize_ic50(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / len(values)
    expect = [1 if v < mean else 0 for v in values]
    np.testing.assert_array_equal(got, expect)


# ---------------------------------------------------------------------------
# gene selection
# ---------------------------------------------------------------------------

def test_hvg_never_selects_constant_gene(rng):
    values = rng.normal(loc=10.0, scale=2.0, size=(30, 5))
    values[:, 2] = 7.0  # constant
    expr = _expr([f"s{i}" for i in range(30)], list("ABCDE"), values)
    sel = dat.select_hvg(expr, 5)
    assert "C" not in sel.genes


def test_hvg_n_larger_than_gene_count_returns_all_eligible(rng):
    values = np.abs(rng.normal(loc=5.0, size=(10, 4))) + 1.0
    expr = _expr([f"s{i}" for i in range(10)], list("ABCD"), values)
    sel = dat.select_hvg(expr, 99)
    assert sorted(sel.genes) == list("ABCD")


def test_hvg_hand_computed_dispersion_ranking():
    # three genes, equal means (single bin by mean would tie), different vars
    x = np.array([
        [1.0, 0.0, 2.0],
        [2.0, 4.0, 2.0],
        [3.0, 2.0, 2.1],
        [2.0, 2.0, 1.9],
    ])
    expr = _expr(["s1", "s2", "s3", "s4"], ["low", "high", "tiny"], x)
    # dispersions (ddof=1): low: var 0.6667/mean 2 = 0.3333
    # high: var 2.6667 / mean 2 = 1.3333 ; tiny: var 0.00667/2 = 0.00333
    sel = dat.select_hvg(expr, 2)
    assert sel.genes == ["high", "low"]
    assert dat.select_hvg(expr, 1).genes == ["high"]


def test_hvg_deterministic_function_of_values(rng):
    values = np.abs(rng.normal(loc=3.0, size=(20, 30))) + 0.5
    expr = _expr([f"s{i}" for i in range(20)], [f"g{j:02d}" for j in range(30)], values)
    a = dat.select_hvg(expr, 10).genes
    b = dat.select_hvg(expr, 10).genes
    assert a == b


def test_deg_identical_groups_empty():
    x = np.array([[1.0, 5.0], [2.0, 6.0], [3.0, 7.0]])
    g = _expr(["a", "b", "c"], ["g1", "g2"], x)
    g2 = _expr(["d", "e", "f"], ["g1", "g2"], x)
    sel = dat.select_deg(g, g2)
    assert sel.genes == []


def test_deg_clear_separation_selected():
    rng = np.random.default_rng(5)
    a = np.column_stack([rng.normal(8.0, 0.1, 10), rng.normal(3.0, 0.1, 10)])
    b = np.column_stack([rng.normal(1.0, 0.1, 10), rng.normal(3.0, 0.1, 10)])
    ga = _expr([f"a{i}" for i in range(10)], ["up", "flat"], a)
    gb = _expr([f"b{i}" for i in range(10)], ["up", "flat"], b)
    sel = dat.select_deg(ga, gb, lfc_min=2.0, p_max=0.05)
    assert sel.genes == ["up"]  # lfc = log2(8/1) = 3


def test_deg_pvalues_match_scipy_welch(rng):
    a = rng.normal(size=(12, 6)) + 0.3
    b = rng.normal(size=(9, 6))
    _, p = dat._welch(a, b)
    ref = stats.ttest_ind(a, b, equal_var=False).pvalue
    np.testing.assert_allclose(p, ref, rtol=1e-10)


def test_deg_threshold_is_strict():
    # construct means with lfc exactly 2: means 4 vs 1 (eps negligible)
    a = np.array([[4.0], [4.0], [4.0], [4.0]])
    b = np.array([[1.0], [1.0], [1.0], [1.0 + 3e-9]])
    ga = _expr(["a1", "a2", "a3", "a4"], ["g"], a)
    gb = _expr(["b1", "b2", "b3", "b4"], ["g"], b)
    lfc = np.log2((4.0 + 1e-9) / (b.mean() + 1e-9))
    sel = dat.select_deg(ga, gb, lfc_min=lfc, p_max=0.5)
    assert sel.genes == []  # |lfc| == lfc_min excluded


def test_deg_requires_two_samples_per_group():
    g1 = _expr(["a"], ["g"], [[1.0]])
    g2 = _expr(["b", "c"], ["g"], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        dat.select_deg(g1, g2)


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_weight_upsample_exact_balance_and_determinism(rng):
    dom = make_domain(rng, n=40, pos_rate=0.15)
    out = dat.weight_upsample(dom, 100, seed=3)
    counts = np.bincount(out.labels, minlength=2)
    assert counts[0] == counts[1] == 50
    again = dat.weight_upsample(dom, 100, seed=3)
    np.testing.assert_array_equal(out.expr.values, again.expr.values)
    assert out.expr.sample_ids == again.expr.sample_ids
    diff = dat.weight_upsample(dom, 100, seed=4)
    assert not np.array_equal(out.expr.values, diff.expr.values)


def test_weight_upsample_within_class_is_uniform(rng):
    # 90/10 split: each minority sample should receive ~1/10 of minority draws
    labels = np.array([1] * 10 + [0] * 90)
    expr = dat.ExpressionMatrix(
        [f"s{i}" for i in range(100)], ["g"], np.arange(100.0).reshape(-1, 1)
    )
    dom = dat.LabeledDomain(expr, labels)
    out = dat.weight_upsample(dom, 10000, seed=0)
    minority_rows = out.expr.values[out.labels == 1].ravel()
    freq = np.bincount(minority_rows.astype(int), minlength=10)[:10] / minority_rows.size
    assert np.abs(freq - 0.1).max() < 0.02


@pytest.mark.parametrize("bad", [0.5, np.nan])
def test_a_domain_label_that_is_not_exactly_0_or_1_is_refused_not_truncated(rng, bad):
    expr = make_domain(rng, n=2).expr
    with np.errstate(invalid="raise"), pytest.raises(ValueError,
                                                     match="labels must be 0 or 1"):
        dat.LabeledDomain(expr, [bad, 1.0])


def test_weight_upsample_single_class_errors(rng):
    dom = make_domain(rng, n=10)
    dom = dat.LabeledDomain(dom.expr, np.ones(10, dtype=np.int64))
    with pytest.raises(ValueError, match="both classes"):
        dat.weight_upsample(dom, 10, seed=0)


def test_smote_balanced_input_unchanged(rng):
    dom = make_domain(rng, n=10)
    dom = dat.LabeledDomain(dom.expr, np.array([0, 1] * 5))
    out = dat.smote_upsample(dom, seed=0)
    assert out is dom


def test_smote_hand_interpolation():
    expr = dat.ExpressionMatrix(
        ["m1", "m2", "j1", "j2", "j3"],
        ["x", "y"],
        [[0.0, 0.0], [2.0, 2.0], [9.0, 9.0], [9.1, 9.0], [9.2, 9.0]],
    )
    dom = dat.LabeledDomain(expr, np.array([1, 1, 0, 0, 0]))
    out, log = dat.smote_upsample_logged(dom, k=1, seed=0)
    assert len(log) == 1
    draw = log[0]
    expect = expr.values[draw.parent] + draw.lam * (
        expr.values[draw.neighbor] - expr.values[draw.parent]
    )
    np.testing.assert_array_equal(out.expr.values[-1], expect)
    # with k=1 the only neighbor of each minority point is the other one
    assert {draw.parent, draw.neighbor} == {0, 1}
    counts = np.bincount(out.labels, minlength=2)
    assert counts[0] == counts[1]


def test_smote_synthetics_lie_on_parent_segments(rng):
    dom = make_domain(rng, n=60, n_genes=5, pos_rate=0.2)
    out, log = dat.smote_upsample_logged(dom, k=3, seed=9)
    n_orig = dom.expr.n_samples
    for i, draw in enumerate(log):
        p = out.expr.values[n_orig + i]
        a = dom.expr.values[draw.parent]
        b = dom.expr.values[draw.neighbor]
        assert point_to_segment_distance(p, a, b) < 1e-9
        assert out.labels[n_orig + i] == dom.labels[draw.parent]
    counts = np.bincount(out.labels, minlength=2)
    assert counts[0] == counts[1]


def test_smote_names_rows_so_that_no_input_id_collides(rng):
    # the input holds smote0, smote1, ...: the names synthetic rows once had
    dom = make_domain(rng, n=30, n_genes=4, pos_rate=0.2, tag="smote")
    out, log = dat.smote_upsample_logged(dom, k=3, seed=1)
    assert log
    ids = dom.expr.sample_ids
    parents = ids + [ids[d.parent] for d in log]
    assert out.expr.sample_ids == [f"{sid}#r{i}" for i, sid in enumerate(parents)]
    assert out.expr.values[: len(ids)].tobytes() == dom.expr.values.tobytes()


def test_smote_minority_of_one_directs_to_weight_sampler(rng):
    expr = dat.ExpressionMatrix(
        ["a", "b", "c"], ["g"], [[1.0], [2.0], [3.0]]
    )
    dom = dat.LabeledDomain(expr, np.array([1, 0, 0]))
    with pytest.raises(ValueError, match="weight_upsample"):
        dat.smote_upsample(dom, seed=0)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _bundle_with_sizes(rng, sizes, target_size, n_genes=4):
    sources = [make_domain(rng, n=n, n_genes=n_genes, tag=f"d{i}_")
               for i, n in enumerate(sizes)]
    target = dat.ExpressionMatrix(
        [f"t{i}" for i in range(target_size)],
        sources[0].expr.gene_names,
        rng.normal(size=(target_size, n_genes)),
    )
    return dat.DomainBundle(sources, target)


def test_assemble_batches_epoch_shape(rng):
    bundle = _bundle_with_sizes(rng, [3, 5], 4)
    batches = list(dat.assemble_batches(bundle, 2, seed=0))
    assert len(batches) == 3  # ceil(5/2)
    for b in batches:
        assert len(b.x_sources) == 2 and len(b.y_sources) == 2
        assert all(x.shape == (2, 4) for x in b.x_sources)
        assert all(y.shape == (2,) for y in b.y_sources)
        assert b.x_target.shape == (2, 4)


def test_assemble_batches_deterministic(rng):
    bundle = _bundle_with_sizes(rng, [6, 4], 5)
    a = list(dat.assemble_batches(bundle, 3, seed=11, epoch=2))
    b = dat.assemble_batches(bundle, 3, seed=11, epoch=2)
    for ba, bb in zip(a, b):
        np.testing.assert_array_equal(ba.x_target, bb.x_target)
        for xa, xb in zip(ba.x_sources, bb.x_sources):
            np.testing.assert_array_equal(xa, xb)
    c = dat.assemble_batches(bundle, 3, seed=11, epoch=3)
    assert any(
        not np.array_equal(ba.x_target, bc.x_target) for ba, bc in zip(a, c)
    )


def test_assemble_batches_visits_largest_domain_fully(rng):
    # largest domain size divisible by B: every sample appears exactly once
    bundle = _bundle_with_sizes(rng, [3, 6], 4)
    batches = dat.assemble_batches(bundle, 2, seed=5)
    seen = np.vstack([b.x_sources[1] for b in batches])
    src = bundle.sources[1].expr.values
    matches = [(seen == row).all(axis=1).sum() for row in src]
    assert matches == [1] * 6

    # non-divisible largest domain: everything appears at least once
    bundle = _bundle_with_sizes(rng, [3, 5], 4)
    batches = dat.assemble_batches(bundle, 2, seed=5)
    seen = np.vstack([b.x_sources[1] for b in batches])
    src = bundle.sources[1].expr.values
    assert all((seen == row).all(axis=1).any() for row in src)


def test_assemble_batches_pairs_each_row_with_its_own_label(rng):
    # equal domain sizes, so a label drawn from another domain's stream
    # would index without error and only the pairing can show it
    bundle = _bundle_with_sizes(rng, [8, 8, 8], 8)
    for batch in dat.assemble_batches(bundle, 4, seed=3):
        for dom, x, y in zip(bundle.sources, batch.x_sources, batch.y_sources):
            rows = [np.flatnonzero((dom.expr.values == r).all(axis=1)) for r in x]
            assert all(len(r) == 1 for r in rows)
            np.testing.assert_array_equal(y, dom.labels[np.concatenate(rows)])


def test_assemble_batches_rejects_bad_batch_size(rng):
    # the call itself raises, before any batch is asked for
    bundle = _bundle_with_sizes(rng, [3], 3)
    with pytest.raises(ValueError, match="^batch_size must be >= 1$"):
        dat.assemble_batches(bundle, 0)
    empty = dat.DomainBundle(bundle.sources, dat.ExpressionMatrix(
        [], bundle.gene_names, np.empty((0, 4))))
    with pytest.raises(ValueError, match="^all domains must be non-empty$"):
        dat.assemble_batches(empty, 2)


@pytest.mark.parametrize("sizes,target,batch_size,seed,epoch", [
    ([3, 5], 4, 2, 0, 0),
    ([7], 20, 3, 11, 2),
    ([8, 8, 8], 8, 4, 3, 1),
    ([30, 5, 17], 12, 64, 7, 5),
    ([2, 3], 2, 1, 0, 9),
])
def test_streamed_batches_are_bitwise_the_eager_list(rng, sizes, target, batch_size,
                                                     seed, epoch):
    bundle = _bundle_with_sizes(rng, sizes, target)
    streamed = list(dat.assemble_batches(bundle, batch_size, seed, epoch))
    eager = eager_batches(bundle, batch_size, seed, epoch)
    assert len(streamed) == len(eager) == dat.epoch_length(bundle, batch_size)
    for got, want in zip(streamed, eager):
        for x, y in zip(got.x_sources + got.y_sources + [got.x_target],
                        want.x_sources + want.y_sources + [want.x_target]):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def test_an_epoch_holds_one_tuple_batch_at_a_time():
    # 2,000-row target, three 300-row sources, 500 genes, B = 64: a batch is
    # 4 x 64 x 500 float64 = 1 MB, the epoch's whole list 32 MB
    rng = np.random.default_rng(0)
    bundle = _bundle_with_sizes(rng, [300, 300, 300], 2000, n_genes=500)
    tracemalloc.start()
    try:
        rows = 0
        for batch in dat.assemble_batches(bundle, 64, seed=1):
            rows += batch.x_target.shape[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 32 * 64
    assert peak < 8e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


# ---------------------------------------------------------------------------
# pathway activity
# ---------------------------------------------------------------------------

def test_pathway_activity_cases(rng):
    values = np.array([
        [1.0, 5.0, 3.0],
        [1.0, 7.0, 5.0],
        [1.0, 9.0, 10.0],
    ])
    expr = _expr(["s1", "s2", "s3"], ["const", "a", "b"], values)
    sets = {"just_const": ["const"], "just_a": ["a"], "ab": ["a", "b"]}
    act = dat.pathway_activity(expr, sets)
    assert act.gene_names == ["just_const", "just_a", "ab"]
    np.testing.assert_array_equal(act.values[:, 0], np.zeros(3))  # constant -> 0
    za = (values[:, 1] - values[:, 1].mean()) / values[:, 1].std()
    np.testing.assert_allclose(act.values[:, 1], za, rtol=1e-12)
    zb = (values[:, 2] - values[:, 2].mean()) / values[:, 2].std()
    np.testing.assert_allclose(act.values[:, 2], (za + zb) / 2.0, rtol=1e-12)


def test_pathway_activity_drops_disjoint_set_silently():
    # warnings are errors in this suite, so a warning would fail the call;
    # the caller reads the dropped sets off the result's gene names
    expr = _expr(["s1", "s2"], ["a"], [[1.0], [2.0]])
    act = dat.pathway_activity(expr, {"ok": ["a"], "ghost": ["zzz"]})
    assert act.gene_names == ["ok"]
    with pytest.raises(ValueError, match="^no gene set overlaps"):
        dat.pathway_activity(expr, {"ghost": ["zzz"]})
