"""Target-domain inference (``embed_target``, ``predict_target``), ranking
metrics, and the scores and embeddings CSV exports.

Scoring is weighted only when source domains are passed: each target
embedding is then modulated by its mean importance weights against source
references. ``cli`` (``train --target-labels``, ``predict``, ``ablate``) and
``synth.run_variant`` (``synth-bench``) take the sources to pass from
``scoring_sources``: them only for a run whose weight generator trained, that
is with ``awg`` and ``mda`` both on.
"""

from dataclasses import dataclass

import numpy as np

from . import data as dat
from . import model as mdl


@dataclass
class MetricsReport:
    auroc: float
    aupr: float
    n_pos: int
    n_neg: int


def _check_scores_labels(scores, labels):
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    if not np.isfinite(s).all():
        raise ValueError("scores must be finite")
    return s, dat.binary_labels(y)


def _average_ranks(s):
    """1-based ranks with ties assigned the group-average rank."""
    order = np.argsort(s, kind="stable")
    s_sorted = s[order]
    # each tie group spans sorted positions [start, end)
    start = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
    end = np.r_[start[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(0.5 * (start + end - 1) + 1.0, end - start)
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
    )


# ---------------------------------------------------------------------------
# target inference
# ---------------------------------------------------------------------------

# gap rows per generator call in mean_reference_weights. model.mlp_forward
# runs a call this size as two row lanes, so each lane's arrays are about
# 1,024 rows, 1 MB at d = 128: small enough to stay in cache and to be reused
# by the allocator instead of being mapped (and page-faulted) afresh each block
GAP_ROW_BUDGET = 2048


def _reference_rows(n, ref_batch, rng):
    """ref_batch row indices; the whole domain (unsampled) when it is small."""
    if ref_batch >= n:
        return np.arange(n)
    return rng.choice(n, size=ref_batch, replace=False)


def _source_matrices(sources):
    """Each source's ``ExpressionMatrix``; one with no rows is refused."""
    exprs = [dom.expr if isinstance(dom, dat.LabeledDomain) else dom for dom in sources]
    for i, expr in enumerate(exprs):
        if expr.n_samples == 0:
            raise ValueError(f"source {i} has no samples to draw references from")
    return exprs


def mean_reference_weights(bundle, h_target, sources, ref_batch=128, seed=0):
    """Average importance vector per target row against sampled source refs.

    For each target embedding, weights are generated against ``ref_batch``
    reference samples drawn per source domain (deterministic in ``seed``)
    and averaged over all of them, mirroring the mean weight the target
    side receives during training. A source is an ``ExpressionMatrix`` or
    a ``LabeledDomain``, whose labels are not read; one with no rows is
    refused with a ``ValueError`` that names its index.

    Target rows are scored in blocks: the fewest that keep each within
    ``GAP_ROW_BUDGET`` gap rows (or one target row), with sizes that differ
    by at most one row. A block's gap rows |h_T - h_ref| are written into one
    reused buffer and run through the generator as one batch, so memory is
    O(block · d), not O(n · K · ref_batch · d), and every array of a block
    stays cache-sized. Equal blocks leave no short tail block: BLAS computes
    a one-row product along another path, with other bits. So at generator
    widths that are multiples of 8 the result does not depend on the block
    size, except for a job of one gap row.
    """
    if ref_batch < 1:
        raise ValueError("ref_batch must be >= 1")
    exprs = _source_matrices(sources)
    rng = np.random.default_rng(seed)
    h_refs = []
    for expr in exprs:
        rows = _reference_rows(expr.n_samples, ref_batch, rng)
        h_refs.append(mdl.encode(bundle, expr.values[rows]))
    h_ref = np.vstack(h_refs)
    n, d = h_target.shape
    m = len(h_ref)
    chunk = max(1, GAP_ROW_BUDGET // m)  # target rows a block may hold
    blocks = max(1, -(-n // chunk))  # ceil(n / chunk); one empty block when n = 0
    cuts = [n * i // blocks for i in range(blocks + 1)]
    gap_buf = np.empty((-(-n // blocks), m, d))
    w_mean = np.empty_like(h_target)
    for start, stop in zip(cuts[:-1], cuts[1:]):
        gap = gap_buf[: stop - start]
        np.subtract(h_target[start:stop, None, :], h_ref[None, :, :], out=gap)
        np.abs(gap, out=gap)
        w = mdl.mlp_forward(bundle.specs["generator"], bundle.params["generator"],
                            gap.reshape(-1, d))
        w.reshape(stop - start, m, d).mean(axis=1, out=w_mean[start:stop])
        del w  # freed before the next block's generator result is allocated
    return w_mean


def scoring_sources(cfg, sources):
    """``sources`` for a run whose weight generator trained (``cfg.awg_active``),
    else None: what target scoring is weighted against."""
    return sources if cfg.awg_active else None


def embed_target(bundle, target, sources=None, ref_batch=128, seed=0):
    """The embeddings the predictor scores for an ``ExpressionMatrix`` target.

    With sources, each target embedding is modulated by its mean reference
    weight vector against them; with none (``None`` or empty), the raw
    embedding is returned and ``ref_batch``/``seed`` are ignored. A source
    with no rows is refused before anything is encoded.
    """
    sources = _source_matrices(sources or ())
    h = mdl.encode(bundle, target.values)
    if sources:
        w = mean_reference_weights(bundle, h, sources, ref_batch=ref_batch, seed=seed)
        h = mdl.apply_weights(h, w)
    return h


def predict_target(bundle, target, sources=None, ref_batch=128, seed=0):
    """Score ``embed_target``'s embeddings for drug sensitivity, in (0,1)."""
    h = embed_target(bundle, target, sources, ref_batch, seed)
    return mdl.predict(bundle, h).ravel()


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_scores_csv(path, sample_ids, scores, labels=None):
    """The table ``read_scores_csv`` reads back; ``labels`` add a column."""
    header, columns = ["sample_id", "score"], [np.asarray(scores, np.float64).tolist()]
    if labels is not None:
        header.append("label")
        columns.append(np.asarray(labels, np.int64).tolist())
    dat.write_table(path, header, sample_ids, zip(*columns))


def _scores_header(header):
    if header not in (["sample_id", "score"], ["sample_id", "score", "label"]):
        raise dat.ParseError(f"line 1: header must be 'sample_id,score' or "
                             f"'sample_id,score,label', got {header!r}")
    return header[1:]


def read_scores_csv(path):
    """Returns (sample_ids, scores, labels-or-None), as write_scores_csv wrote;
    a malformed sample table raises ``ParseError`` naming its line."""
    header, ids, values = dat.read_table(path, ",", _scores_header, "score")
    labels = values[:, 1].astype(np.int64) if len(header) == 3 else None
    return ids, values[:, 0], labels


def write_embeddings_csv(path, sample_ids, h):
    dat.write_table(path, ["sample_id"] + [f"e{i}" for i in range(h.shape[1])],
                    sample_ids, map(np.ndarray.tolist, h))
