"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed and index, so the same seed
gives the same arrays in every run; the program under test sees only the
arrays.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

BSDS_HW = (321, 481)
# Each annotator draws the same number of boundary pixels, so the matching
# cost varies little between seeds. 6500 is the ground-truth size of the
# 321x481 matcher measurement in ROADMAP.md (21.4k predicted against 6.5k
# ground-truth pixels); 112 Voronoi regions give about 8k boundary pixels to
# draw them from. BSDS has about five annotators per image; two are used
# because one thinned image costs about 6.4 s of matching per annotator on
# a 2-CPU machine, and five would not fit a run.
BSDS_REGIONS = 112
BSDS_ANNOTATORS = 2
BSDS_GT_PIXELS = 6500
# Texture amplitude of the soft maps: after NMS about 21k pixels survive the
# lowest threshold, so the harness's low thresholds exceed its greedy limit.
BSDS_TEXTURE = 0.35
MG_GAMMAS = (-1.0, 1.0)


def train_corpus(seed):
    """The README demo corpus: 10 shape images at 64x64."""
    from edmb.synth import make_shape_corpus

    return make_shape_corpus(10, 64, seed=seed)


def scene(seed, index, size):
    """A (3,size,size) float32 image of flat-coloured rectangles and disks
    over a smooth background, with mild pixel noise."""
    rng = np.random.default_rng([seed, index, size])
    ii, jj = np.mgrid[0:size, 0:size] / float(size)
    img = np.empty((3, size, size))
    for c in range(3):
        a, b, d = rng.uniform(-0.3, 0.3, 3)
        img[c] = 0.5 + a * ii + b * jj + d * ii * jj
    for _ in range(int(rng.integers(4, 9))):
        cy, cx, r = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.25)
        if rng.random() < 0.5:
            mask = (ii - cy) ** 2 + (jj - cx) ** 2 <= r * r
        else:
            mask = (np.abs(ii - cy) <= r) & (np.abs(jj - cx) <= rng.uniform(0.05, 0.25))
        img[:, mask] = rng.uniform(0.0, 1.0, (3, 1))
    img += rng.normal(0.0, 0.02, img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def _voronoi_labels(rng, hw, regions):
    sites = rng.uniform((0, 0), hw, size=(regions, 2))
    yy, xx = np.mgrid[0:hw[0], 0:hw[1]]
    return cKDTree(sites).query(np.column_stack([yy.ravel(), xx.ravel()]))[1].reshape(hw)


def bsds_image(seed, index):
    """One synthetic BSDS-sized image: a soft edge map, the annotator maps,
    and a Gaussian (mu, var) over edge logits for the granularity sweep.

    Regions are a Voronoi partition. Each annotator draws BSDS_GT_PIXELS
    boundary pixels, strong boundaries first on average, and is shifted by
    up to one pixel. The soft map is the blurred boundary strength plus a
    smooth texture whose standardized values do not depend on the seed, so
    every image costs the harness about the same.
    """
    rng = np.random.default_rng([seed, 7, index])
    H, W = BSDS_HW
    lab = _voronoi_labels(rng, BSDS_HW, BSDS_REGIONS)
    below = lab[:-1] != lab[1:]
    right = lab[:, :-1] != lab[:, 1:]
    edge = np.zeros(BSDS_HW, bool)
    edge[:-1] |= below
    edge[:, :-1] |= right
    other = lab.copy()
    other[:-1][below] = lab[1:][below]
    other[:, :-1][right] = lab[:, 1:][right]
    pair = np.minimum(lab, other) * BSDS_REGIONS + np.maximum(lab, other)
    strength = rng.uniform(0.3, 1.0, BSDS_REGIONS * BSDS_REGIONS)

    # each annotator draws boundaries in a random order that favours strong
    # ones, and stops after BSDS_GT_PIXELS pixels
    edge_idx = np.flatnonzero(edge)
    pairs, seg = np.unique(pair.ravel()[edge_idx], return_inverse=True)
    gts = []
    for _ in range(BSDS_ANNOTATORS):
        rank = np.argsort(np.argsort(rng.random(pairs.size) / strength[pairs]))
        drawn = edge_idx[np.lexsort((edge_idx, rank[seg]))[:BSDS_GT_PIXELS]]
        g = np.zeros(H * W, bool)
        g[drawn] = True
        dy, dx = rng.integers(-1, 2, 2)
        gts.append(np.roll(g.reshape(H, W), (int(dy), int(dx)), (0, 1)))

    soft = ndimage.gaussian_filter(np.where(edge, strength[pair], 0.0), 1.0)
    soft /= soft.max()
    texture = ndimage.gaussian_filter(rng.standard_normal(BSDS_HW), 1.0)
    texture = 0.5 + (texture - texture.mean()) / (6.0 * texture.std())
    prob = np.clip(0.8 * soft + BSDS_TEXTURE * texture, 0.0, 1.0)

    mu = np.log(np.clip(prob, 1e-3, 1 - 1e-3)) - np.log1p(-np.clip(prob, 1e-3, 1 - 1e-3))
    spread = ndimage.gaussian_filter(rng.standard_normal(BSDS_HW), 4.0)
    var = 0.25 + 0.5 / (1.0 + np.exp(-spread / spread.std()))
    return prob, gts, mu.reshape(1, 1, H, W), var.reshape(1, 1, H, W)
