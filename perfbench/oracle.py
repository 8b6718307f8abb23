"""Exact edge-matching counts, the reference for the evaluation harness.

A predicted pixel and a ground-truth pixel may pair when they lie within
``max_dist_frac`` of the image diagonal (distance <= radius, as in
``cKDTree.query_ball_point``). The largest one-to-one pairing is a maximum
bipartite matching over that adjacency, built with
``cKDTree.sparse_distance_matrix``. Its size is computed as a unit-capacity
maximum flow (Dinic): ``scipy.sparse.csgraph.maximum_bipartite_matching``
gives the same sizes but took 17-19 s on one 5.7k x 2k adjacency of the
eval-bsds workload, against 10 ms for the flow.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree


def matching_size(pairs_i, pairs_j, n_pred, n_gt):
    """Maximum matching size of the bipartite graph with edges
    (pairs_i[e], pairs_j[e]), as a source -> pred -> gt -> sink flow."""
    if len(pairs_i) == 0:
        return 0
    source, sink = n_pred + n_gt, n_pred + n_gt + 1
    rows = np.concatenate([np.full(n_pred, source), pairs_i, n_pred + np.arange(n_gt)])
    cols = np.concatenate([np.arange(n_pred), n_pred + pairs_j, np.full(n_gt, sink)])
    caps = csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, cols)),
                      shape=(sink + 1, sink + 1))
    return int(maximum_flow(caps, source, sink, method="dinic").flow_value)


def exact_counts(pred_map, gt_map, thresholds, max_dist_frac=0.0075):
    """Maximum matching size between ``pred_map >= t`` and ``gt_map`` for
    each threshold ``t`` (ascending), as an int array."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if np.any(np.diff(thresholds) < 0):
        raise ValueError("thresholds must be ascending")
    pred_map = np.asarray(pred_map, dtype=np.float64)
    radius = max_dist_frac * math.hypot(*pred_map.shape)
    pred_pts = np.argwhere(pred_map >= thresholds[0])
    gt_pts = np.argwhere(np.asarray(gt_map, dtype=bool))
    counts = np.zeros(len(thresholds), dtype=np.int64)
    if len(pred_pts) == 0 or len(gt_pts) == 0:
        return counts
    pairs = cKDTree(pred_pts).sparse_distance_matrix(
        cKDTree(gt_pts), radius, output_type="ndarray"
    )
    values = pred_map[pred_pts[:, 0], pred_pts[:, 1]]
    pair_values = values[pairs["i"]]
    for k, t in enumerate(thresholds):
        keep = pair_values >= t
        # a pred pixel below t keeps its node but loses every edge
        counts[k] = matching_size(pairs["i"][keep], pairs["j"][keep], len(pred_pts), len(gt_pts))
    return counts
