"""Target-domain inference, ranking metrics, and plot-ready exports."""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import data as dat
from . import model as mdl


@dataclass
class MetricsReport:
    auroc: float
    aupr: float
    n_pos: int
    n_neg: int
    scores: np.ndarray = field(repr=False, default=None)


def _check_scores_labels(scores, labels):
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel().astype(np.int64)
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    return s, y


def _average_ranks(s):
    """1-based ranks with ties assigned the group-average rank."""
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size)
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and s[order[j + 1]] == s[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auroc(scores, labels):
    """Mann-Whitney AUROC: P(score_pos > score_neg), ties counting 1/2."""
    s, y = _check_scores_labels(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs both classes present")
    ranks = _average_ranks(s)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def aupr(scores, labels):
    """Step-wise area under the precision-recall curve.

    Sweeps thresholds down the distinct scores, handling each tie group as
    one step: area = sum over steps of (delta recall) * precision.
    """
    s, y = _check_scores_labels(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("aupr needs at least one positive")
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    tp = np.cumsum(y_sorted)
    n_seen = np.arange(1, y.size + 1)
    # last index of each tie group along the descending sweep
    group_end = np.flatnonzero(np.r_[s_sorted[1:] != s_sorted[:-1], True])
    recall = tp[group_end] / n_pos
    precision = tp[group_end] / n_seen[group_end]
    prev_recall = np.r_[0.0, recall[:-1]]
    return float(((recall - prev_recall) * precision).sum())


def metrics_report(scores, labels):
    s, y = _check_scores_labels(scores, labels)
    return MetricsReport(
        auroc=auroc(s, y),
        aupr=aupr(s, y),
        n_pos=int(y.sum()),
        n_neg=int(y.size - y.sum()),
        scores=s,
    )


# ---------------------------------------------------------------------------
# target inference
# ---------------------------------------------------------------------------

# gap rows per generator call in mean_reference_weights: at d = 128 one such
# array is about 1 MB, small enough to stay in cache and to be reused by the
# allocator instead of being mapped (and page-faulted) afresh every block
GAP_ROW_BUDGET = 1024


def _reference_rows(n, ref_batch, rng):
    """ref_batch row indices; the whole domain (unsampled) when it is small."""
    if ref_batch >= n:
        return np.arange(n)
    return rng.choice(n, size=ref_batch, replace=False)


def mean_reference_weights(bundle, h_target, sources, ref_batch=128, seed=0,
                           chunk=None):
    """Average importance vector per target row against sampled source refs.

    For each target embedding, weights are generated against ``ref_batch``
    reference samples drawn per source domain (deterministic in ``seed``)
    and averaged over all of them, mirroring the mean weight the target
    side receives during training.

    Target rows are scored ``chunk`` at a time: the block's
    chunk · K · ref_batch gap rows |h_T - h_ref| are written into one
    reused buffer and run through the generator as one batch, so memory is
    O(block · d), not O(n · K · ref_batch · d). By default a block holds as
    many whole target rows as fit in ``GAP_ROW_BUDGET`` gap rows (at least
    one), which keeps every array of a block cache-sized. The result does
    not depend on ``chunk``.
    """
    if ref_batch < 1:
        raise ValueError("ref_batch must be >= 1")
    rng = np.random.default_rng(seed)
    h_refs = []
    for dom in sources:
        rows = _reference_rows(dom.expr.n_samples, ref_batch, rng)
        h_refs.append(mdl.encode(bundle, dom.expr.values[rows]))
    h_ref = np.vstack(h_refs)
    n, d = h_target.shape
    m = len(h_ref)
    if chunk is None:
        chunk = max(1, GAP_ROW_BUDGET // m)
    gap_buf = np.empty((min(chunk, n), m, d))
    w_mean = np.empty_like(h_target)
    for start in range(0, n, chunk):
        block = h_target[start : start + chunk]
        gap = gap_buf[: len(block)]
        np.subtract(block[:, None, :], h_ref[None, :, :], out=gap)
        np.abs(gap, out=gap)
        w = mdl.mlp_forward(bundle.specs["generator"], bundle.params["generator"],
                            gap.reshape(-1, d))
        w.reshape(len(block), m, d).mean(axis=1, out=w_mean[start : start + chunk])
    return w_mean


def predict_target(bundle, target, sources=None, ref_batch=128, seed=0,
                   weighted=True):
    """Score target samples for drug sensitivity; returns values in (0,1).

    When the model was trained with the weight generator active, each
    target embedding is modulated by its mean reference weight vector
    before the predictor; otherwise (``weighted=False`` or no sources) the
    raw embedding is scored and ``sources``/``ref_batch`` are ignored.
    """
    x = target.values if hasattr(target, "values") else np.asarray(target)
    h = mdl.encode(bundle, x)
    if weighted and sources:
        w = mean_reference_weights(bundle, h, sources, ref_batch=ref_batch, seed=seed)
        h = mdl.apply_weights(h, w)
    return mdl.predict(bundle, h).ravel()


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_scores_csv(path, sample_ids, scores, labels=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if labels is None:
            w.writerow(["sample_id", "score"])
            for sid, s in zip(sample_ids, scores):
                w.writerow([sid, repr(float(s))])
        else:
            w.writerow(["sample_id", "score", "label"])
            for sid, s, y in zip(sample_ids, scores, labels):
                w.writerow([sid, repr(float(s)), int(y)])


def read_scores_csv(path):
    """Returns (sample_ids, scores, labels-or-None), as write_scores_csv wrote.

    A row with another cell count, an empty or repeated sample id, a
    non-finite score or a label other than 0/1 raises ``ParseError`` naming
    its line; blank lines are skipped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in (["sample_id", "score"], ["sample_id", "score", "label"]):
            raise dat.ParseError(f"line 1: header must be 'sample_id,score' or "
                                 f"'sample_id,score,label', got {header!r}")
        rows = {}
        for rec in reader:
            line = reader.line_num
            if not rec:
                continue
            if len(rec) != len(header):
                raise dat.ParseError(f"line {line}: expected {len(header)} cells, "
                                     f"got {len(rec)}")
            sid = rec[0].strip()
            if sid == "" or sid in rows:
                raise dat.ParseError(f"line {line}: missing or duplicate sample id "
                                     f"{sid!r}")
            rows[sid] = [dat._parse_cell(c, line, what)
                         for c, what in zip(rec[1:], header[1:])]
            if rows[sid][1:] not in ([], [0.0], [1.0]):
                raise dat.ParseError(f"line {line}: label must be 0 or 1, got {rec[2]!r}")
    if not rows:
        raise dat.ParseError("line 2: no score rows")
    values = np.array(list(rows.values()))
    labels = values[:, 1].astype(np.int64) if len(header) == 3 else None
    return list(rows), values[:, 0], labels


def export_embeddings(bundle, expr, path, weighted=False, sources=None,
                      ref_batch=128, seed=0):
    """Write per-sample embeddings (h, or z when ``weighted``) as CSV."""
    h = mdl.encode(bundle, expr.values)
    if weighted:
        if not sources:
            raise ValueError("weighted export needs source domains for references")
        w = mean_reference_weights(bundle, h, sources, ref_batch=ref_batch, seed=seed)
        h = mdl.apply_weights(h, w)
    with open(path, "w", newline="") as fh:
        w_csv = csv.writer(fh)
        w_csv.writerow(["sample_id"] + [f"e{i}" for i in range(h.shape[1])])
        for sid, row in zip(expr.sample_ids, h):
            w_csv.writerow([sid] + [repr(float(v)) for v in row])
    return h
