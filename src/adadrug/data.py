"""Expression ingestion, label construction, gene selection, resampling,
and the tuple batch stream that drives training.

File formats:
  expression  CSV/TSV, header ``,geneA,geneB,...`` (first cell blank or
              "sample"), one row per sample: ``sample_id,1.2,0.0,...``
  labels      CSV with header ``sample_id,label`` (binary) or
              ``sample_id,ic50`` (binarized against the mean)
  gene list   plain text, one gene per line
  gene sets   one set per line: ``name<TAB>geneA,geneB,...``

``read_table`` parses every sample table, expression, labels and (in
``evaluate``) scores: a header, then one row per sample with a unique id and
finite numbers (0/1 in a ``label`` column); blank lines are skipped and
errors name the line. Each loader checks only its header. Records follow the
csv grammar of ``csv.reader``: a line without a ``"`` is one record, split on
the delimiter; a line that holds one starts a record ``csv.reader`` reads, so
a quoted cell may hold the delimiter, a quote or a line break. A file with
quoted ids, as R writes them, parses the same but takes the slower csv path.
A row's value cells are parsed in one ``float`` pass; only a row that pass
refuses goes cell by cell through ``_parse_cell``, which gives the same values
and names the bad cell. Text inputs are read through ``open_text``: UTF-8,
with or without a byte-order mark; every ``ParseError`` starts with its file
(``path: line N``), and so does one for a path that cannot be opened.

``write_table`` writes every table adadrug outputs, UTF-8 with ``\n`` line
ends: the header cells and each row's key quoted as ``csv.writer`` quotes
them, each number as its ``repr``, which never needs quoting and reads back
bit for bit.

``prep`` leaves a binary copy ``<table>.f8`` beside each expression table it
writes (``write_copy``), so that ``train`` and ``predict`` need not parse the
table again. Copies and checkpoints are framed files, which only
``write_framed`` writes and only ``read_framed`` reads: one JSON header line
with a sha256 over header and body, then float64 values as raw little-endian
bytes. A copy's header adds the delimiter, the sha256 of the table's bytes as
written, the sample ids and the gene names.
``load_expression`` returns the copy's matrix only while it matches its
table byte for byte and is whole; in every other case it parses the table,
so a copy never changes a value, never hides a parse error and is always
safe to delete. No other writer leaves a copy.

``assemble_batches`` draws an epoch's index streams when it is called and
then yields its tuple batches one at a time, gathering each batch's rows only
when the training loop asks for it: a step holds one batch, O((K+1)·B·G)
values, never the epoch's O((K+1)·N_max·G).
"""

import csv
import hashlib
import io
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from . import kernels


class ParseError(ValueError):
    """Malformed input file; the message starts with the file's path, then
    the 1-based line number where one applies."""


@dataclass
class ExpressionMatrix:
    """Samples x genes value grid with row and column identifiers."""

    sample_ids: list
    gene_names: list
    values: np.ndarray

    def __post_init__(self):
        self.sample_ids = list(self.sample_ids)
        self.gene_names = list(self.gene_names)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.sample_ids), len(self.gene_names)):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.sample_ids)} samples x {len(self.gene_names)} genes"
            )
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ValueError("duplicate sample ids")
        if len(set(self.gene_names)) != len(self.gene_names):
            raise ValueError("duplicate gene names")

    @property
    def n_samples(self):
        return len(self.sample_ids)

    @property
    def n_genes(self):
        return len(self.gene_names)

    def subset_genes(self, genes):
        """Restrict to the named genes, in the given order."""
        col = {g: i for i, g in enumerate(self.gene_names)}
        missing = [g for g in genes if g not in col]
        if missing:
            raise ValueError(f"genes not present: {missing[:5]}")
        idx = [col[g] for g in genes]
        return ExpressionMatrix(self.sample_ids, list(genes), self.values[:, idx])


@dataclass
class LabeledDomain:
    """One source domain: expression plus 1=sensitive / 0=resistant labels."""

    expr: ExpressionMatrix
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels).ravel()
        if labels.shape[0] != self.expr.n_samples:
            raise ValueError("label count does not match sample count")
        self.labels = binary_labels(labels)


def binary_labels(labels):
    """``labels`` (a flat array) as int64; ValueError unless every value is
    exactly 0 or 1. The values are checked before the cast, so 0.5 or NaN is
    refused, not truncated."""
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return labels.astype(np.int64)


@dataclass
class DomainBundle:
    """K labeled source domains plus one unlabeled target, gene-aligned."""

    sources: list
    target: ExpressionMatrix

    def __post_init__(self):
        if len(self.sources) < 1:
            raise ValueError("need at least one source domain")
        genes = self.target.gene_names
        for k, dom in enumerate(self.sources):
            if dom.expr.gene_names != genes:
                raise ValueError(f"source {k} gene list differs from target")

    @property
    def n_sources(self):
        return len(self.sources)

    @property
    def gene_names(self):
        return self.target.gene_names


@dataclass
class GeneSelection:
    """A ranked/filtered gene subset. May be empty (e.g. DEG on identical
    groups); consumers that need model inputs must reject empty selections.
    """

    method: str
    genes: list
    params: dict = field(default_factory=dict)


@dataclass
class TupleBatch:
    """One mini-batch of aligned (source_1..K, labels_1..K, target) tuples."""

    x_sources: list  # K arrays (B, G)
    y_sources: list  # K arrays (B,)
    x_target: np.ndarray  # (B, G)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

DELIMS = {"csv": ",", "tsv": "\t"}  # every table file format, by name


@contextmanager
def open_text(path, newline=None):
    """Open a text input as UTF-8, skipping a byte-order mark. A ``ParseError``
    raised in the block gets the path in front, and so does the ``OSError``
    of a path that cannot be opened, a directory say. Undecodable bytes raise
    one naming only the file: the decoder's offset is into its read buffer."""
    try:
        fh = open(path, newline=newline, encoding="utf-8-sig")
    except OSError as e:
        raise ParseError(f"{path}: cannot open: {e.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text; save it as UTF-8") from None
        except ParseError as e:
            raise ParseError(f"{path}: {e}") from None


def _parse_cell(text, line_num, what):
    text = text.strip()
    if text == "":
        raise ParseError(f"line {line_num}: empty {what} cell")
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"line {line_num}: non-numeric {what} {text!r}") from None
    if not np.isfinite(v):
        raise ParseError(f"line {line_num}: non-finite {what} {text!r}")
    return v


def _records(fh, delim):
    """Yield each record of a CSV/TSV text file as (line number, cells).

    A physical line without a ``"`` is one record: its line end stripped, it
    splits on ``delim`` (a blank line is an empty record), which is how the
    csv grammar reads a line without a quote. A line that holds one starts a
    record ``csv.reader`` reads, so a quoted field can pull in continuation
    lines. The line number is csv's: the record's last physical line. A
    ``csv.Error`` becomes a ``ParseError`` naming the line.
    """
    line_num = 0
    for line in fh:
        if '"' in line:
            reader = csv.reader(chain([line], fh), delimiter=delim)
            try:
                cells = next(reader)
            except csv.Error as e:
                raise ParseError(f"line {line_num + reader.line_num}: {e}") from None
            line_num += reader.line_num
        else:
            line_num += 1
            line = line.rstrip("\r\n")
            cells = line.split(delim) if line else []
        yield line_num, cells


def read_table(path, delim, check_header, what):
    """Parse a sample table into (header cells, sample ids, float64 values).

    ``check_header`` gets the header cells (None for an empty file), raises
    ``ParseError`` or returns each value column's name for messages; a column
    named ``label`` must hold 0 or 1. ``what`` names the rows in the message
    for a table without any. See the module docstring for the row rules.

    Records come from ``_records``: only a record that holds a quote goes
    through ``csv.reader``, so a file with quoted ids, as R writes them,
    parses as before but no faster. Each row's value cells become one
    float64 array through ``float``; a row where ``float`` raises or that
    holds a non-finite value is parsed again by ``_parse_cell``, the error
    path, which raises the row's first ``ParseError``. Wherever
    ``float(cell)`` succeeds it equals ``float(cell.strip())``, so both paths
    give the same bits.
    """
    with open_text(path, newline="") as fh:
        records = _records(fh, delim)
        _, header = next(records, (1, None))
        columns = check_header(header)
        label_cols = [j for j, name in enumerate(columns, start=1) if name == "label"]
        n_cells = len(columns) + 1
        ids, rows, seen = [], [], set()
        for line, rec in records:
            if not rec:
                continue
            if len(rec) != n_cells:
                raise ParseError(f"line {line}: expected {n_cells} cells, got {len(rec)}")
            sid = rec[0].strip()
            if sid == "" or sid in seen:
                raise ParseError(f"line {line}: missing or duplicate sample id {sid!r}")
            seen.add(sid)
            ids.append(sid)
            cells = rec[1:]
            try:
                row = np.fromiter(map(float, cells), np.float64, len(cells))
                parsed = np.isfinite(row).all()
            except ValueError:
                parsed = False
            if not parsed:
                # raises the cell's ParseError, or keeps a value float()
                # refused only for padding that str.strip() removes
                row = np.array(list(map(_parse_cell, cells, repeat(line), columns)))
            for j in label_cols:
                if row[j - 1] not in (0.0, 1.0):
                    raise ParseError(f"line {line}: label must be 0 or 1, got {rec[j]!r}")
            rows.append(row)
        if not ids:
            raise ParseError(f"line 2: no {what} rows")
    return header, ids, np.array(rows, dtype=np.float64)


def _csv_cells(cells, delim):
    """``cells`` joined as ``csv.writer`` writes them, without the line end:
    a cell holding the delimiter, a quote, a carriage return or a newline is
    quoted (``csv.writer`` quotes the characters of its line terminator)."""
    buf = io.StringIO()
    csv.writer(buf, delimiter=delim, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2]


def write_table(path, header, keys, rows, delim=","):
    """The ``header`` line, then per key a line of the key and its row: Python
    ints and floats, as ``ndarray.tolist()`` gives them, written as their
    ``repr``. Rows are taken one at a time; see the module docstring."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_cells(header, delim) + "\n")
        for key, row in zip(keys, rows, strict=True):
            fh.write(_csv_cells([key], delim) + delim + delim.join(map(repr, row)) + "\n")


def _expression_header(header):
    if header is None:
        raise ParseError("line 1: empty file")
    if not header:
        raise ParseError("line 1: blank header line")
    if header[0].strip().lower() not in ("", "sample"):
        raise ParseError(
            f"line 1: first header cell must be blank or 'sample', got {header[0]!r}"
        )
    genes = [g.strip() for g in header[1:]]
    if not genes or any(g == "" for g in genes):
        raise ParseError("line 1: missing gene name in header")
    if len(set(genes)) != len(genes):
        raise ParseError("line 1: duplicate gene names in header")
    return ["value"] * len(genes)


def load_expression(path, fmt="csv"):
    """Parse an expression matrix file, or read its binary copy when that
    matches it; see the module docstring for both."""
    if fmt not in DELIMS:
        raise ValueError(f"format must be one of {sorted(DELIMS)}, got {fmt!r}")
    expr = _read_copy(path, DELIMS[fmt])
    if expr is None:
        header, ids, values = read_table(path, DELIMS[fmt], _expression_header, "sample")
        expr = ExpressionMatrix(ids, [g.strip() for g in header[1:]], values)
    return expr


def _labels_header(header):
    if header is None:
        raise ParseError("line 1: empty file")
    cells = [c.strip().lower() for c in header]
    if cells not in (["sample_id", "label"], ["sample_id", "ic50"]):
        raise ParseError("line 1: header must be 'sample_id,label' or 'sample_id,ic50'")
    return cells[1:]


def load_labels(path):
    """Parse a labels file; returns (sample_ids, values, kind in {label, ic50})."""
    header, ids, values = read_table(path, ",", _labels_header, "label")
    return ids, values[:, 0], header[1].strip().lower()


def labels_for(sample_ids, label_ids, label_values, kind):
    """The 0/1 labels of ``sample_ids``, in their order, matched by id to a
    labels file's ``load_labels`` triple. A sample without a label is an
    error; ic50 values are binarized over ``sample_ids`` only."""
    lookup = dict(zip(label_ids, np.asarray(label_values, dtype=np.float64)))
    missing = [s for s in sample_ids if s not in lookup]
    if missing:
        raise ValueError(f"no label for samples: {missing[:5]}")
    vals = np.array([lookup[s] for s in sample_ids])
    return binarize_ic50(vals) if kind == "ic50" else vals.astype(np.int64)


def load_gene_list(path):
    """One gene name per line; blank lines are skipped, a repeat is refused."""
    genes = {}  # insertion-ordered, with O(1) lookups
    with open_text(path) as fh:
        for i, line in enumerate(fh, start=1):
            gene = line.strip()
            if gene in genes:
                raise ParseError(f"line {i}: duplicate gene {gene!r}")
            if gene:
                genes[gene] = None
        if not genes:
            raise ParseError("gene list file is empty")
    return list(genes)


def load_gene_sets(path):
    """One set per line: name TAB comma-separated genes."""
    sets = {}
    with open_text(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or not parts[0].strip():
                raise ParseError(f"line {i}: expected 'name<TAB>gene,gene,...'")
            genes = [g.strip() for g in parts[1].split(",") if g.strip()]
            if not genes:
                raise ParseError(f"line {i}: gene set {parts[0]!r} is empty")
            if parts[0].strip() in sets:
                raise ParseError(f"line {i}: duplicate gene set name {parts[0]!r}")
            sets[parts[0].strip()] = genes
        if not sets:
            raise ParseError("gene set file is empty")
    return sets


# ---------------------------------------------------------------------------
# framed binary files: checkpoints and binary copies of expression tables
# ---------------------------------------------------------------------------

COPY_SUFFIX = ".f8"
COPY_KEYS = {"delimiter", "table_sha256", "sample_ids", "gene_names", "sha256"}


def _digest(header, body):
    """sha256 of the canonical header without its ``sha256`` entry, a newline,
    then the body: the bytes a file without the checksum would hold."""
    canonical = {k: v for k, v in header.items() if k != "sha256"}
    h = hashlib.sha256(json.dumps(canonical, sort_keys=True).encode("utf-8") + b"\n")
    h.update(body)
    return h.hexdigest()


def write_framed(path, header, values):
    """One JSON line, ``header`` with its ``sha256`` added, then the float64
    array ``values`` as raw little-endian float64, in C order."""
    # on a little-endian machine a view of values, hashed and written uncopied
    body = memoryview(np.ascontiguousarray(values, dtype="<f8").ravel())
    header = {**header, "sha256": _digest(header, body)}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(body)


def read_framed(path, count):
    """``(header, values)`` of the framed file at ``path``. ``count(header)``
    checks the header and returns how many values the body must hold. Each
    fault raises ``ValueError``: a first line that is not a JSON object, a
    header ``count`` refuses, a body of another length or a ``sha256`` that
    does not match. The ``OSError`` of a path that cannot be opened goes to
    the caller. The body is read straight into the returned array."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise ValueError("no header line found")
        try:
            header = json.loads(line[:-1].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValueError(f"unreadable header: {e}") from None
        if not isinstance(header, dict):
            raise ValueError(f"header is a JSON {type(header).__name__}, not an object")
        need = 8 * count(header)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != need:
            problem = "truncated body" if size < need else "trailing bytes after the body"
            raise ValueError(f"{problem}: it holds {size} bytes; the header implies {need}")
        values = np.empty(need // 8, dtype="<f8")
        fh.readinto(values)
    if _digest(header, values) != header.get("sha256"):
        raise ValueError("sha256 mismatch: the file was edited or corrupted")
    return header, values


def _file_sha256(path):
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def write_copy(table, expr, fmt):
    """Write ``<table>.f8``, the binary copy of ``expr``, which the table at
    ``table`` (format ``fmt``) was just written from. Nothing is written for
    a matrix the table would not read back as: one without rows or genes, with
    a non-finite value, or with a name that is empty or has padding
    ``str.strip`` removes."""
    names = [*expr.sample_ids, *expr.gene_names]
    if not (expr.n_samples and expr.n_genes and np.isfinite(expr.values).all()
            and all(n and n == n.strip() for n in names)):
        return
    header = {"delimiter": DELIMS[fmt], "table_sha256": _file_sha256(table),
              "sample_ids": expr.sample_ids, "gene_names": expr.gene_names}
    write_framed(os.fspath(table) + COPY_SUFFIX, header, expr.values)


def _read_copy(path, delim):
    """The matrix in ``path``'s binary copy, or None unless there is one, it
    is for ``delim``, it holds the sha256 of ``path``'s bytes, and
    ``read_framed`` takes its body."""

    def count(header):
        if set(header) != COPY_KEYS:
            raise ValueError("not a copy's header keys")
        if header["delimiter"] != delim:
            raise ValueError("a copy for another format")
        ids, genes = header["sample_ids"], header["gene_names"]
        if not (isinstance(ids, list) and isinstance(genes, list)):
            raise ValueError("sample ids or gene names not a list")
        if _file_sha256(path) != header["table_sha256"]:
            raise ValueError("a copy of other table bytes")
        return len(ids) * len(genes)

    try:
        header, values = read_framed(os.fspath(path) + COPY_SUFFIX, count)
    except (OSError, ValueError):
        return None
    ids, genes = header["sample_ids"], header["gene_names"]
    return ExpressionMatrix(ids, genes, values.reshape(len(ids), len(genes)))


# ---------------------------------------------------------------------------
# alignment, labels, gene selection
# ---------------------------------------------------------------------------

def align_genes(matrices, genes=None):
    """Restrict all matrices to the genes all of them have: only those in
    ``genes``, in its order, if given, else in the first matrix's order. A
    matrix that already holds just those genes in that order is returned as
    it is, not copied."""
    if len(matrices) < 2:
        raise ValueError("align_genes needs at least two matrices")
    common = set(matrices[0].gene_names)
    for m in matrices[1:]:
        common &= set(m.gene_names)
    ordered = [g for g in (matrices[0].gene_names if genes is None else genes)
               if g in common]
    if not ordered:
        raise ValueError("gene intersection is empty" if genes is None else
                         "gene intersection holds none of the selected genes")
    return [m if m.gene_names == ordered else m.subset_genes(ordered)
            for m in matrices]


def binarize_ic50(ic50):
    """1 = sensitive (strictly below the mean), 0 = resistant (at or above)."""
    v = np.asarray(ic50, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError("binarize_ic50 needs at least two samples")
    if not np.isfinite(v).all():
        raise ValueError("binarize_ic50: non-finite values")
    return (v < v.mean()).astype(np.int64)


HVG_BINS = 20  # equal-frequency mean bins of select_hvg


def select_hvg(expr, n):
    """Top-n highly variable genes by binned normalized dispersion.

    Genes with non-positive mean or zero variance are excluded. Remaining
    genes are ranked by dispersion (variance/mean) z-scored within
    equal-frequency mean bins; bins too small for a z-score (or with zero
    spread) fall back to the global dispersion z-score. Ties break by gene
    name, so the result is a function of (values, n) only.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = expr.values
    means = x.mean(axis=0)
    var = x.var(axis=0, ddof=1) if x.shape[0] >= 2 else np.zeros(x.shape[1])
    # constant genes are detected exactly (roundoff can make their var > 0)
    spread = x.max(axis=0) > x.min(axis=0)
    eligible = np.flatnonzero((means > 0) & (var > 0) & spread)
    if eligible.size == 0:
        raise ValueError("no genes with positive mean and nonzero variance")
    disp = var[eligible] / means[eligible]
    z = np.empty(eligible.size)
    g_std = disp.std(ddof=1) if disp.size >= 2 else 0.0
    g_mean = disp.mean()
    order_by_mean = np.argsort(means[eligible], kind="stable")
    for bin_idx in np.array_split(order_by_mean, min(HVG_BINS, eligible.size)):
        b_std = disp[bin_idx].std(ddof=1) if bin_idx.size >= 2 else 0.0
        if b_std > 0:
            z[bin_idx] = (disp[bin_idx] - disp[bin_idx].mean()) / b_std
        elif g_std > 0:
            z[bin_idx] = (disp[bin_idx] - g_mean) / g_std
        else:
            z[bin_idx] = 0.0
    ranked = sorted(
        range(eligible.size),
        key=lambda i: (-z[i], expr.gene_names[eligible[i]]),
    )
    top = ranked[: min(n, eligible.size)]
    return GeneSelection(
        method="hvg",
        genes=[expr.gene_names[eligible[i]] for i in top],
        params={"n": int(n), "n_bins": HVG_BINS},
    )


def _welch(a, b):
    """Welch two-sample t-test p-values per column; variance floored."""
    # imported here: DEG selection is the one path that needs scipy, and
    # scipy.special loads dozens of modules every other command would pay for
    from scipy import special
    na, nb = a.shape[0], b.shape[0]
    ma, mb = a.mean(axis=0), b.mean(axis=0)
    va, vb = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
    se2 = np.maximum(va / na + vb / nb, 1e-24)
    t = (ma - mb) / np.sqrt(se2)
    denom = (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    df = np.where(denom > 0, se2**2 / np.maximum(denom, 1e-300), na + nb - 2)
    p = 2.0 * special.stdtr(df, -np.abs(t))
    return t, p


def select_deg(group_a, group_b, lfc_min=2.0, p_max=0.05):
    """Differentially expressed genes between two sample groups.

    Selects genes with |log2 fold change| strictly above ``lfc_min`` and a
    Welch t-test p-value strictly below ``p_max``. Both groups must cover
    the same gene panel and have at least two samples each.
    """
    if group_a.gene_names != group_b.gene_names:
        raise ValueError("groups must share an identical gene panel")
    if group_a.n_samples < 2 or group_b.n_samples < 2:
        raise ValueError("each group needs at least two samples")
    eps = 1e-9
    ma, mb = group_a.values.mean(axis=0), group_b.values.mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lfc = np.log2((ma + eps) / (mb + eps))
    _, p = _welch(group_a.values, group_b.values)
    keep = np.isfinite(lfc) & (np.abs(lfc) > lfc_min) & (p < p_max)
    return GeneSelection(
        method="deg",
        genes=[group_a.gene_names[i] for i in np.flatnonzero(keep)],
        params={"lfc_min": float(lfc_min), "p_max": float(p_max)},
    )


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def _class_indices(labels):
    idx0 = np.flatnonzero(labels == 0)
    idx1 = np.flatnonzero(labels == 1)
    return idx0, idx1


def weight_upsample(domain, out_n, seed=0):
    """Class-balanced resample with replacement.

    Exactly half the draws (ceil half to class 0 when odd) come from each
    class, uniformly within the class, so each individual draw lands on
    class c with probability ~1/2 and on a given member of class c with
    probability 1/(2*count(c)).
    """
    if out_n < 1:
        raise ValueError("out_n must be >= 1")
    idx0, idx1 = _class_indices(domain.labels)
    if idx0.size == 0 or idx1.size == 0:
        raise ValueError("weight_upsample needs both classes present")
    rng = np.random.default_rng(seed)
    n0 = out_n - out_n // 2
    classes = rng.permutation(np.concatenate([np.zeros(n0, np.int64),
                                              np.ones(out_n - n0, np.int64)]))
    u = rng.random(out_n)
    pool = np.where(classes == 0, idx0.size, idx1.size)
    within = (u * pool).astype(np.int64)
    rows = np.where(classes == 0, idx0[within % idx0.size], idx1[within % idx1.size])
    expr = ExpressionMatrix(
        [f"{domain.expr.sample_ids[r]}#r{i}" for i, r in enumerate(rows)],
        domain.expr.gene_names,
        domain.expr.values[rows],
    )
    return LabeledDomain(expr, domain.labels[rows])


@dataclass
class SmoteDraw:
    """Provenance of one synthetic sample: indices into the input domain."""

    parent: int
    neighbor: int
    lam: float


def smote_upsample_logged(domain, k=5, seed=0):
    """SMOTE oversampling with a synthesis log; see ``smote_upsample``."""
    idx0, idx1 = _class_indices(domain.labels)
    if idx0.size == 0 or idx1.size == 0:
        raise ValueError("smote_upsample needs both classes present")
    if idx0.size == idx1.size:
        return domain, []
    minority, majority = (idx0, idx1) if idx0.size < idx1.size else (idx1, idx0)
    minority_label = int(domain.labels[minority[0]])
    if minority.size < 2:
        raise ValueError(
            "minority class has a single sample; SMOTE cannot interpolate "
            "(use weight_upsample instead)"
        )
    k_eff = min(int(k), minority.size - 1)
    if k_eff < 1:
        raise ValueError("k must be >= 1")
    x_min = np.ascontiguousarray(domain.expr.values[minority])
    dists = kernels.pairwise_sq_dists(x_min, x_min)
    # stable argsort: nearest first, index order on ties; col 0 is self
    neighbor_tbl = np.argsort(dists, axis=1, kind="stable")[:, 1 : k_eff + 1]
    rng = np.random.default_rng(seed)
    needed = majority.size - minority.size
    new_rows, log = [], []
    for _ in range(needed):
        j = int(rng.integers(minority.size))
        nb = int(neighbor_tbl[j, int(rng.integers(k_eff))])
        lam = float(rng.random())
        new_rows.append(x_min[j] + lam * (x_min[nb] - x_min[j]))
        log.append(SmoteDraw(int(minority[j]), int(minority[nb]), lam))
    ids = domain.expr.sample_ids
    parents = ids + [ids[d.parent] for d in log]
    expr = ExpressionMatrix(
        [f"{sid}#r{i}" for i, sid in enumerate(parents)],
        domain.expr.gene_names,
        np.vstack([domain.expr.values, np.array(new_rows)]),
    )
    labels = np.concatenate([domain.labels, np.full(needed, minority_label, np.int64)])
    return LabeledDomain(expr, labels), log


def smote_upsample(domain, k=5, seed=0):
    """Balance classes by interpolating minority samples toward their
    k nearest minority neighbors (Euclidean); synthetic = x + lam*(x' - x),
    lam ~ U(0,1). Already-balanced input is returned unchanged.

    The input rows come first, then the synthetic ones. As in
    ``weight_upsample``, output row i is named ``<parent id>#r<i>``, its
    parent being the input row it is or was interpolated from: the index
    after the last ``#r`` differs on every row, so no input id can collide
    with a synthetic one.
    """
    out, _ = smote_upsample_logged(domain, k=k, seed=seed)
    return out


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _index_stream(n, n_draws, rng):
    """n_draws indices: fresh shuffles of range(n), reshuffled when exhausted."""
    chunks = []
    drawn = 0
    while drawn < n_draws:
        chunks.append(rng.permutation(n))
        drawn += n
    return np.concatenate(chunks)[:n_draws]


def _domain_sizes(bundle):
    return [d.expr.n_samples for d in bundle.sources] + [bundle.target.n_samples]


def epoch_length(bundle, batch_size):
    """Tuple batches in one epoch: ceil(largest domain size / B)."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    sizes = _domain_sizes(bundle)
    if min(sizes) == 0:
        raise ValueError("all domains must be non-empty")
    return -(-max(sizes) // batch_size)


def assemble_batches(bundle, batch_size, seed=0, epoch=0):
    """One epoch of tuple batches, ``epoch_length`` of them, yielded one at a
    time.

    Every domain (sources and target) is shuffled independently and cycled
    through repeated shuffles when exhausted, and tuple i pairs the i-th draw
    of each stream. Fully deterministic given (seed, epoch). The call checks
    ``batch_size`` and draws every index stream; a batch's rows are gathered
    only when the loop asks for it, so an epoch holds one batch, not
    (K+1)·``epoch_length``·B rows.
    """
    n_batches = epoch_length(bundle, batch_size)
    n_draws = n_batches * batch_size
    streams = []
    for s, size in enumerate(_domain_sizes(bundle)):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(epoch), s)))
        streams.append(_index_stream(size, n_draws, rng))
    return _gather_batches(bundle, streams, n_batches, batch_size)


def _gather_batches(bundle, streams, n_batches, batch_size):
    """``assemble_batches``' batches, each gathered when it is asked for."""
    for b in range(n_batches):
        sl = slice(b * batch_size, (b + 1) * batch_size)
        xs = [d.expr.values[streams[k][sl]] for k, d in enumerate(bundle.sources)]
        ys = [d.labels[streams[k][sl]] for k, d in enumerate(bundle.sources)]
        xt = bundle.target.values[streams[-1][sl]]
        yield TupleBatch(xs, ys, xt)


# ---------------------------------------------------------------------------
# pathway activity
# ---------------------------------------------------------------------------

def pathway_activity(expr, gene_sets):
    """Per-sample pathway activities: mean z-score of member genes.

    Gene z-scores use the population std across samples (constant genes get
    z = 0). Sets with no genes in ``expr`` are dropped: the result's
    ``gene_names`` lists the sets kept.
    """
    mu = expr.values.mean(axis=0)
    sd = expr.values.std(axis=0)
    z = np.where(sd > 0, (expr.values - mu) / np.where(sd > 0, sd, 1.0), 0.0)
    col = {g: i for i, g in enumerate(expr.gene_names)}
    names, cols = [], []
    for name, genes in gene_sets.items():
        idx = [col[g] for g in genes if g in col]
        if idx:
            names.append(name)
            cols.append(z[:, idx].mean(axis=1))
    if not names:
        raise ValueError("no gene set overlaps the expression matrix")
    return ExpressionMatrix(expr.sample_ids, names, np.column_stack(cols))
