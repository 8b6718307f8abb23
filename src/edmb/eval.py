"""Quantitative harness: NMS thinning, tolerance-based boundary matching,
precision/recall/F curves with ODS and OIS summaries, the multi-granularity
protocol, and FLOPs/parameter counting.

Matching follows the boundary-benchmark lineage: predicted and ground-truth
edge pixels match one-to-one within a radius of 0.0075 of the image diagonal,
and the matching size is exact at every map size. With multiple annotators,
a predicted pixel counts as correct if it matches any map, while recall
pools every annotator's pixels. The matched pixels of each map come from
one maximum matching, not from a minimum-cost one as in BSDS's
``correspondPixels``, so the precision count (their union) depends on which
maximum matching is found; each recall count is the maximum itself.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import convolve1d
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree

from . import diffcore as dc
from .diffcore.tensor import Tensor


def worker_count():
    env = os.environ.get("EDMB_THREADS", "")
    if env.strip():
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


def _map_images(work, items):
    """``[work(it) for it in items]``, on ``worker_count()`` threads."""
    items = list(items)
    workers = worker_count()
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, items))
    return [work(it) for it in items]


# -- non-maximum suppression --------------------------------------------------------


def _smooth5(a):
    """Separable 5x5 Gaussian smoothing (sigma 1), edges replicated."""
    x = np.arange(-2, 3, dtype=np.float64)
    k = np.exp(-(x**2) / 2.0)
    k = k / k.sum()
    return convolve1d(convolve1d(a, k, axis=1, mode="nearest"), k, axis=0, mode="nearest")


def _bilinear_at(a, yy, xx):
    H, W = a.shape
    y0 = np.clip(np.floor(yy).astype(int), 0, H - 1)
    x0 = np.clip(np.floor(xx).astype(int), 0, W - 1)
    y1 = np.clip(y0 + 1, 0, H - 1)
    x1 = np.clip(x0 + 1, 0, W - 1)
    wy = np.clip(yy, 0, H - 1) - y0
    wx = np.clip(xx, 0, W - 1) - x0
    return ((1 - wy) * (1 - wx) * a[y0, x0] + (1 - wy) * wx * a[y0, x1]
            + wy * (1 - wx) * a[y1, x0] + wy * wx * a[y1, x1])


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
    ahead = _bilinear_at(E, ii + uy, jj + ux)
    behind = _bilinear_at(E, ii - uy, jj - ux)
    keep = (E * 1.01 >= ahead) & (E * 1.01 >= behind)
    out = E.copy()
    out[~keep] = 0.0
    return out


# -- matching ---------------------------------------------------------------------


def _matched_pred_pixels(pred_bin, gt_bin, max_dist_frac):
    """Boolean map of the pred pixels paired by one maximum one-to-one
    matching with gt_bin; its count is the matching size.

    Pixels may pair when their distance is <= the radius. The matching is
    a unit-capacity source -> pred -> gt -> sink maximum flow (Dinic).
    """
    H, W = pred_bin.shape
    radius = max_dist_frac * math.hypot(H, W)
    pred_pts = np.argwhere(pred_bin)
    gt_pts = np.argwhere(gt_bin)
    out = np.zeros(pred_bin.shape, dtype=bool)
    n_pred, n_gt = len(pred_pts), len(gt_pts)
    if n_pred == 0 or n_gt == 0:
        return out
    pairs = cKDTree(pred_pts).sparse_distance_matrix(
        cKDTree(gt_pts), radius, output_type="ndarray"
    )
    source, sink = n_pred + n_gt, n_pred + n_gt + 1
    rows = np.concatenate([np.full(n_pred, source), pairs["i"], n_pred + np.arange(n_gt)])
    cols = np.concatenate([np.arange(n_pred), n_pred + pairs["j"], np.full(n_gt, sink)])
    caps = csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, cols)),
                      shape=(sink + 1, sink + 1))
    # Dinic's algorithm is scipy's default (>= 1.8). csgraph's maximum
    # bipartite-matching routine gives the same size but took 134.6 s on one
    # 20.8k x 6.5k adjacency at 321x481, against 0.098 s for this flow.
    flow = maximum_flow(caps, source, sink).flow
    matched = flow[source:source + 1, :n_pred].toarray().ravel() > 0
    out[pred_pts[matched, 0], pred_pts[matched, 1]] = True
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
    m = int(np.count_nonzero(_matched_pred_pixels(pred, gt, max_dist_frac)))
    return m, m


# -- precision / recall / F curves -----------------------------------------------------


def fmeasure(p, r):
    return 0.0 if p + r == 0 else 2.0 * p * r / (p + r)


@dataclass
class ImageCounts:
    """Per-threshold matching counts for one image."""

    cnt_p: np.ndarray
    sum_p: np.ndarray
    cnt_r: np.ndarray
    sum_r: np.ndarray

    def f_at(self, k):
        p = 1.0 if self.sum_p[k] == 0 else self.cnt_p[k] / self.sum_p[k]
        r = 0.0 if self.sum_r[k] == 0 else self.cnt_r[k] / self.sum_r[k]
        return fmeasure(p, r)


@dataclass
class EvalReport:
    thresholds: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f: np.ndarray
    ods_threshold: float
    ods_f: float
    ois_f: float
    per_image: list = field(default_factory=list)

    def summary_kv(self):
        return (
            f"ods={self.ods_f:.6f}\nois={self.ois_f:.6f}\n"
            f"ods_threshold={self.ods_threshold:.6f}\n"
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
    counts predicted pixels matched in at least one map.
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
    for k, t in enumerate(thresholds):
        pred_bin = pred_map >= t
        n_pred = int(pred_bin.sum())
        sum_p[k] = n_pred
        sum_r[k] = total_gt
        if n_pred == 0:
            continue
        union = np.zeros_like(pred_bin)
        for g in gt_maps:
            mp = _matched_pred_pixels(pred_bin, g, max_dist_frac)
            cnt_r[k] += int(mp.sum())  # one-to-one matching size
            union |= mp
        cnt_p[k] = int(union.sum())
    return ImageCounts(cnt_p, sum_p, cnt_r, sum_r)


def f_curve(preds, gts, thresholds=33, max_dist_frac=0.0075):
    """Dataset P/R/F across thresholds with ODS and OIS summaries.

    The reported curves pool matching counts over the dataset. The ODS
    summary picks the shared threshold maximizing the mean per-image F and
    OIS averages each image's best-threshold F, so the per-image optimum
    dominates the shared optimum by construction. This is the one-sample
    case of ``eval_multigranularity``.
    """
    if len(preds) != len(gts):
        raise ValueError(f"{len(preds)} predictions vs {len(gts)} ground truths")
    return eval_multigranularity([[p] for p in preds], gts, thresholds, max_dist_frac)


def _aggregate(per_image, thresholds):
    T = len(thresholds)
    cnt_p = np.sum([c.cnt_p for c in per_image], axis=0)
    sum_p = np.sum([c.sum_p for c in per_image], axis=0)
    cnt_r = np.sum([c.cnt_r for c in per_image], axis=0)
    sum_r = np.sum([c.sum_r for c in per_image], axis=0)
    precision = np.where(sum_p > 0, cnt_p / np.maximum(sum_p, 1), 1.0)
    recall = np.where(sum_r > 0, cnt_r / np.maximum(sum_r, 1), 0.0)
    f = np.array([fmeasure(p, r) for p, r in zip(precision, recall)])
    per_f = np.array([[c.f_at(k) for k in range(T)] for c in per_image])  # (I,T)
    mean_f = per_f.mean(axis=0)
    k_best = int(np.argmax(mean_f))
    ois = float(per_f.max(axis=1).mean())
    return EvalReport(
        thresholds=thresholds,
        precision=precision,
        recall=recall,
        f=f,
        ods_threshold=float(thresholds[k_best]),
        ods_f=float(mean_f[k_best]),
        ois_f=ois,
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
    gts = _normalize_gts(gts)
    if len(sample_sets) != len(gts):
        raise ValueError("sample sets and ground truths differ in length")
    M = len(sample_sets[0])
    for i, s in enumerate(sample_sets):
        if len(s) != M:
            raise ValueError(f"image {i} has {len(s)} samples, expected {M}")

    def work(args):
        samples, gt_maps = args
        return [
            image_counts(np.asarray(p, dtype=np.float64), gt_maps, thresholds,
                         max_dist_frac)
            for p in samples
        ]

    counts = _map_images(work, zip(sample_sets, gts))

    T = len(thresholds)
    chosen_rows = []
    for per_sample in counts:  # one image
        fs = np.array([[c.f_at(k) for k in range(T)] for c in per_sample])  # (M,T)
        pick = (fs.argmax(axis=0), np.arange(T))  # best sample per threshold
        chosen_rows.append(ImageCounts(
            *(np.array([getattr(c, name) for c in per_sample])[pick]
              for name in ("cnt_p", "sum_p", "cnt_r", "sum_r"))
        ))
    return _aggregate(chosen_rows, thresholds)


# -- model cost metrics ---------------------------------------------------------------


def count_flops_params(model, input_shape=(3, 64, 64)):
    """Learnable parameter count plus 2x multiply-accumulates of one
    inference forward (convolutions, linear projections, scans)."""
    params = model.param_count()
    x = Tensor(np.zeros((1,) + tuple(input_shape), dtype=dc.default_dtype()))
    was_training = model.training
    model.eval()
    dc.profile_macs_start()
    try:
        with dc.no_grad():
            model.forward_full(x, training=False, include_aux=False)
    finally:
        macs = dc.profile_macs_stop()
        model.train(was_training)
    return params, 2 * macs
