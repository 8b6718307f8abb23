"""Quantitative harness: NMS thinning, tolerance-based boundary matching,
precision/recall/F curves with ODS and OIS summaries, the multi-granularity
protocol, and FLOPs/parameter counting.

Matching follows the boundary-benchmark lineage: predicted and ground-truth
edge pixels match one-to-one within a radius of 0.0075 of the image diagonal,
and the matching size is exact at every map size; the pairs within the radius
are found once per (image, annotator). With multiple annotators, a predicted
pixel counts as correct if it matches any map, while recall pools every
annotator's pixels. The matched pixels of each map come from one maximum
matching, not from a minimum-cost one as in BSDS's ``correspondPixels``, so
the precision count (their union) depends on which maximum matching is
found; each recall count is the maximum itself.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np
from scipy.ndimage import convolve1d
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree

from . import diffcore as dc
from .diffcore.tensor import bilinear_sampler


def worker_count():
    """Always 1: images are scored one after another. Kept because the
    benchmark harness (``perfbench/workload.py``) still imports it."""
    return 1


# -- non-maximum suppression --------------------------------------------------------


def _smooth5(a):
    """Separable 5x5 Gaussian smoothing (sigma 1), edges replicated."""
    x = np.arange(-2, 3, dtype=np.float64)
    k = np.exp(-(x**2) / 2.0)
    k = k / k.sum()
    return convolve1d(convolve1d(a, k, axis=1, mode="nearest"), k, axis=0, mode="nearest")


def nms_thin(prob):
    """Suppress pixels that are not local maxima across the edge.

    Orientation comes from central-difference gradients of a 5x5 Gaussian
    smoothing (sigma 1); each pixel is compared against bilinearly sampled
    neighbors one pixel away along +/- the gradient direction, with 1%
    tolerance. Survivors keep their original values.
    """
    E = np.asarray(prob, dtype=np.float64)
    if E.ndim != 2:
        raise ValueError(f"nms_thin expects a 2-D map, got shape {E.shape}")
    if not E.any():
        return E.copy()
    G = _smooth5(E)
    gy, gx = np.gradient(G)
    norm = np.hypot(gx, gy)
    # degenerate gradient (plateau/crest): compare along x by convention
    ux = np.where(norm > 1e-12, gx / np.maximum(norm, 1e-12), 1.0)
    uy = np.where(norm > 1e-12, gy / np.maximum(norm, 1e-12), 0.0)
    H, W = E.shape
    ii, jj = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    ahead = bilinear_sampler(E.shape, ii + uy, jj + ux)(E)
    behind = bilinear_sampler(E.shape, ii - uy, jj - ux)(E)
    keep = (E * 1.01 >= ahead) & (E * 1.01 >= behind)
    out = E.copy()
    out[~keep] = 0.0
    return out


# -- matching ---------------------------------------------------------------------


def _adjacency(pred_pts, gt_bin, max_dist_frac):
    """Pairs ``(i, j)``, sorted by i then j, where ``pred_pts[i]`` lies within
    ``max_dist_frac`` of the map diagonal of the j-th pixel of ``gt_bin``."""
    radius = max_dist_frac * math.hypot(*gt_bin.shape)
    pairs = cKDTree(pred_pts).sparse_distance_matrix(
        cKDTree(np.argwhere(gt_bin)), radius, output_type="ndarray"
    )
    order = np.lexsort((pairs["j"], pairs["i"]))
    return pairs["i"][order], pairs["j"][order]


def _matched_pred_pixels(alive, gt_bin, pairs):
    """Boolean over the candidates of ``pairs = _adjacency(cand, gt_bin, f)``:
    those paired by one maximum one-to-one matching of the ``alive`` ones
    with ``gt_bin``. It is a unit-capacity source -> pred -> gt -> sink flow
    (Dinic) over the nodes left with an edge, kept in their order."""
    keep = alive[pairs[0]]
    pred_ids, pi = np.unique(pairs[0][keep], return_inverse=True)
    gt_ids, pj = np.unique(pairs[1][keep], return_inverse=True)
    n_pred, n_gt = len(pred_ids), len(gt_ids)
    source, sink = n_pred + n_gt, n_pred + n_gt + 1
    rows = np.concatenate([np.full(n_pred, source), pi, n_pred + np.arange(n_gt)])
    cols = np.concatenate([np.arange(n_pred), n_pred + pj, np.full(n_gt, sink)])
    caps = csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, cols)),
                      shape=(sink + 1, sink + 1))
    # Dinic's algorithm is scipy's default (>= 1.8). csgraph's maximum
    # bipartite-matching routine gives the same size but took 134.6 s on one
    # 20.8k x 6.5k adjacency at 321x481, against 0.098 s for this flow.
    flow = maximum_flow(caps, source, sink).flow
    out = np.zeros(len(alive), dtype=bool)
    out[pred_ids[flow[source:source + 1, :n_pred].toarray().ravel() > 0]] = True
    return out


def match_edges(pred_binary, gt_binary, max_dist_frac=0.0075):
    """Maximum one-to-one matching of edge pixels within the tolerance radius.

    Returns (matched_pred, matched_gt) counts, equal by construction; the
    size is exact at every map size.
    """
    pred = np.asarray(pred_binary, dtype=bool)
    gt = np.asarray(gt_binary, dtype=bool)
    if pred.shape != gt.shape:
        raise ValueError(f"match_edges: shapes {pred.shape} vs {gt.shape} differ")
    pred_pts = np.argwhere(pred)
    pairs = _adjacency(pred_pts, gt, max_dist_frac)
    m = int(np.count_nonzero(_matched_pred_pixels(np.ones(len(pred_pts), bool), gt, pairs)))
    return m, m


# -- precision / recall / F curves -----------------------------------------------------


def prf(cnt_p, sum_p, cnt_r, sum_r):
    """Precision, recall and F of matching counts, elementwise. With no
    predicted pixels precision is 1; with no ground-truth pixels recall is 0;
    F is 0 where precision and recall both are."""
    p = np.divide(cnt_p, sum_p, out=np.ones(np.shape(sum_p)), where=sum_p > 0)
    r = np.divide(cnt_r, sum_r, out=np.zeros(np.shape(sum_r)), where=sum_r > 0)
    s = p + r
    return p, r, np.divide(2.0 * p * r, s, out=np.zeros(np.shape(s)), where=s > 0)


@dataclass
class ImageCounts:
    """Per-threshold matching counts for one image."""

    cnt_p: np.ndarray
    sum_p: np.ndarray
    cnt_r: np.ndarray
    sum_r: np.ndarray


@dataclass
class EvalReport:
    """``ods_*``/``ois_f`` use the mean per-image F. ``pooled_*`` pool counts as
    BSDS does: the best F of curve ``f``, and the F of the counts summed at
    each image's best threshold."""

    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f: np.ndarray
    ods_threshold: float
    ods_f: float
    ois_f: float
    pooled_ods_threshold: float
    pooled_ods_f: float
    pooled_ois_f: float
    per_image: list = field(default_factory=list)

    def summary_kv(self):
        return (
            f"ods={self.ods_f:.6f}\nois={self.ois_f:.6f}\n"
            f"ods_threshold={self.ods_threshold:.6f}\n"
            f"pooled_ods={self.pooled_ods_f:.6f}\npooled_ois={self.pooled_ois_f:.6f}\n"
            f"pooled_ods_threshold={self.pooled_ods_threshold:.6f}\n"
        )


def default_thresholds(count=33):
    """``count`` evenly spaced thresholds strictly inside (0,1)."""
    return np.arange(1, count + 1) / (count + 1.0)


def _normalize_gts(gts):
    out = []
    for g in gts:
        if isinstance(g, (list, tuple)):
            out.append([np.asarray(m, dtype=bool) for m in g])
        else:
            out.append([np.asarray(g, dtype=bool)])
    return out


def image_counts(pred_map, gt_maps, thresholds, max_dist_frac=0.0075):
    """Matching counts for one prediction against its annotator maps.

    Recall pools one-to-one matches against every annotator map; precision
    counts predicted pixels matched in at least one map. Pixels at the lowest
    threshold are paired with each map once, and filtered per threshold.
    """
    for g in gt_maps:
        if g.shape != pred_map.shape:
            raise ValueError(
                f"prediction shape {pred_map.shape} differs from label shape {g.shape}"
            )
    T = len(thresholds)
    cnt_p = np.zeros(T)
    sum_p = np.zeros(T)
    cnt_r = np.zeros(T)
    sum_r = np.zeros(T)
    total_gt = sum(int(g.sum()) for g in gt_maps)
    cand = np.argwhere(pred_map >= np.min(thresholds))
    vals = pred_map[cand[:, 0], cand[:, 1]]
    adjacency = [_adjacency(cand, g, max_dist_frac) for g in gt_maps]
    for k, t in enumerate(thresholds):
        alive = vals >= t
        n_pred = int(alive.sum())
        sum_p[k] = n_pred
        sum_r[k] = total_gt
        if n_pred == 0:
            continue
        union = np.zeros_like(alive)
        for g, pairs in zip(gt_maps, adjacency):
            mp = _matched_pred_pixels(alive, g, pairs)
            cnt_r[k] += int(mp.sum())  # one-to-one matching size
            union |= mp
        cnt_p[k] = int(union.sum())
    return ImageCounts(cnt_p, sum_p, cnt_r, sum_r)


def f_curve(preds, gts, thresholds=33, max_dist_frac=0.0075):
    """Dataset P/R/F across thresholds with ODS and OIS summaries.

    The reported curves pool matching counts over the dataset. The ODS
    summary picks the shared threshold maximizing the mean per-image F and
    OIS averages each image's best-threshold F, so the per-image optimum
    dominates the shared optimum by construction. The ``pooled_*`` fields
    hold the BSDS benchmark's pooled ODS/OIS. This is the one-sample case
    of ``eval_multigranularity``.
    """
    if len(preds) != len(gts):
        raise ValueError(f"{len(preds)} predictions vs {len(gts)} ground truths")
    return eval_multigranularity([[p] for p in preds], gts, thresholds, max_dist_frac)


def _aggregate(per_image, thresholds):
    stacked = np.array([astuple(c) for c in per_image])  # (I, 4, T)
    precision, recall, f = prf(*stacked.sum(axis=0))
    per_f = prf(*stacked.transpose(1, 0, 2))[2]  # (I, T)
    mean_f = per_f.mean(axis=0)
    k_best = int(np.argmax(mean_f))
    ois = float(per_f.max(axis=1).mean())
    k_pooled = int(np.argmax(f))
    at_best = stacked[np.arange(len(per_image)), :, per_f.argmax(axis=1)].sum(axis=0)
    pooled_ois = prf(*at_best)[2]
    return EvalReport(
        thresholds=thresholds,
        precision=precision,
        recall=recall,
        f=f,
        ods_threshold=float(thresholds[k_best]),
        ods_f=float(mean_f[k_best]),
        ois_f=ois,
        pooled_ods_threshold=float(thresholds[k_pooled]),
        pooled_ods_f=float(f[k_pooled]),
        pooled_ois_f=float(pooled_ois),
        per_image=per_image,
    )


def eval_multigranularity(sample_sets, gts, thresholds=33, max_dist_frac=0.0075):
    """Best-sample-per-image protocol over M candidate maps per image.

    At each dataset threshold every image contributes the counts of its
    best-F sample, and the chosen counts are aggregated into pooled P/R/F
    curves: ODS maximizes the mean per-image F over thresholds, OIS
    averages each image's best (sample, threshold) F.
    """
    if isinstance(thresholds, int):
        thresholds = default_thresholds(thresholds)
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.ndim != 1 or not thresholds.size or not np.isfinite(thresholds).all():
        raise ValueError(f"thresholds must be finite and non-empty, got {thresholds.tolist()}")
    if not (math.isfinite(max_dist_frac) and max_dist_frac >= 0):
        raise ValueError(f"max_dist_frac must be finite and >= 0, got {max_dist_frac}")
    gts = _normalize_gts(gts)
    if len(sample_sets) != len(gts):
        raise ValueError("sample sets and ground truths differ in length")
    if not sample_sets:
        raise ValueError("no images to score: the prediction and ground-truth lists are empty")
    M = len(sample_sets[0])
    for i, s in enumerate(sample_sets):
        if len(s) != M:
            raise ValueError(f"image {i} has {len(s)} samples, expected {M}")

    chosen_rows = []
    for samples, gt_maps in zip(sample_sets, gts):
        counts = [image_counts(np.asarray(p, dtype=np.float64), gt_maps, thresholds,
                               max_dist_frac) for p in samples]
        stacked = np.array([astuple(c) for c in counts])  # (M, 4, T)
        best = prf(*stacked.transpose(1, 0, 2))[2].argmax(axis=0)  # sample per threshold
        chosen_rows.append(ImageCounts(*stacked[best, :, np.arange(len(thresholds))].T))
    return _aggregate(chosen_rows, thresholds)


# -- model cost metrics ---------------------------------------------------------------


def count_flops_params(model, input_shape=(3, 64, 64)):
    """Learnable parameter count plus 2x multiply-accumulates of one
    ``predict_distribution`` forward (convolutions, linear projections,
    scans) on a zero image of ``input_shape``, padded as inference pads it."""
    # imported here so that scoring alone does not load the model modules
    from .inference import predict_distribution

    dc.profile_macs_start()
    try:
        predict_distribution(model, np.zeros(input_shape))
    finally:
        macs = dc.profile_macs_stop()
    return model.param_count(), 2 * macs
