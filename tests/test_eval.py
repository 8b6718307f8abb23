import hashlib
import math
import threading
from dataclasses import astuple, fields

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow
from scipy.spatial import cKDTree

from edmb import eval as evalkit
from edmb.eval import (
    count_flops_params,
    default_thresholds,
    eval_multigranularity,
    f_curve,
    match_edges,
    nms_thin,
    prf,
)
from edmb.model import EdgeDetector, ModelConfig


class TestNms:
    def test_all_zero(self):
        out = nms_thin(np.zeros((12, 12)))
        np.testing.assert_array_equal(out, 0.0)

    def test_thin_vertical_line_unchanged(self):
        m = np.zeros((10, 10))
        m[:, 5] = 1.0
        np.testing.assert_array_equal(nms_thin(m), m)

    def test_thin_horizontal_line_unchanged(self):
        m = np.zeros((10, 10))
        m[4, :] = 0.8
        np.testing.assert_array_equal(nms_thin(m), m)

    def test_triangular_band_keeps_crest(self):
        m = np.zeros((12, 12))
        m[:, 5] = 0.5
        m[:, 6] = 1.0
        m[:, 7] = 0.5
        out = nms_thin(m)
        np.testing.assert_array_equal(out != 0, m == 1.0)
        np.testing.assert_array_equal(out[:, 6], m[:, 6])  # survivors unchanged

    def test_idempotent_on_shapes(self):
        rng = np.random.default_rng(4)
        m = np.zeros((24, 24))
        m[6, 4:20] = 1.0
        m[12:18, 10] = 0.9
        blur = m + 0.3 * np.roll(m, 1, axis=0) + 0.3 * np.roll(m, -1, axis=0)
        once = nms_thin(np.clip(blur, 0, 1))
        twice = nms_thin(once)
        np.testing.assert_array_equal(once, twice)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            nms_thin(np.zeros((2, 3, 3)))


class TestMatchEdges:
    def test_identical_full_match(self):
        m = np.zeros((20, 20), bool)
        m[10, 4:16] = True
        a, b = match_edges(m, m)
        assert a == b == int(m.sum())

    def test_one_pixel_shift_within_radius(self):
        a = np.zeros((20, 20), bool)
        a[10, 5:15] = True
        b = np.roll(a, 1, axis=0)
        diag = np.hypot(20, 20)
        got, _ = match_edges(a, b, 1.6 / diag)
        assert got == 10

    def test_shift_beyond_radius_no_matches(self):
        a = np.zeros((20, 20), bool)
        a[10, 5:15] = True
        b = np.roll(a, 3, axis=0)
        diag = np.hypot(20, 20)
        got, _ = match_edges(a, b, 1.5 / diag)
        assert got == 0

    def test_radius_zero_is_pixel_equality(self, rng):
        a = rng.random((16, 16)) > 0.8
        b = rng.random((16, 16)) > 0.8
        got, _ = match_edges(a, b, 0.0)
        assert got == int((a & b).sum())

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            match_edges(np.zeros((4, 4), bool), np.zeros((5, 5), bool))

    def test_exact_beats_greedy_on_crossing_case(self):
        # two preds, two gts arranged so greedy's nearest-first choice blocks
        # the second pair unless augmenting reroutes it
        pred = np.zeros((9, 9), bool)
        gt = np.zeros((9, 9), bool)
        pred[4, 4] = True
        pred[4, 6] = True
        gt[4, 5] = True
        gt[4, 3] = True
        exact, _ = match_edges(pred, gt, 2.2 / np.hypot(9, 9))
        assert exact == 2

    def test_exact_on_dense_tiled_crossing_case(self):
        # 8000 copies of a crossing motif (gt at x0, x0+3; preds at x0+2,
        # x0+4): nearest-first pairing strands one pred per copy, while the
        # maximum matching pairs all 16000
        H, W = 120, 1400
        pred = np.zeros((H, W), bool)
        gt = np.zeros((H, W), bool)
        for x0 in range(0, W, 7):
            gt[::3, x0] = gt[::3, x0 + 3] = True
            pred[::3, x0 + 2] = pred[::3, x0 + 4] = True
        frac = 2.2 / np.hypot(H, W)
        n = int(pred.sum())
        assert n == 16000
        assert match_edges(pred, gt, frac) == (n, n)
        pairs = evalkit._adjacency(np.argwhere(pred), gt, frac)
        alive = np.ones(n, bool)
        np.testing.assert_array_equal(evalkit._matched_pred_pixels(alive, gt, pairs), alive)
        rep = f_curve([pred.astype(float)], [gt], thresholds=[0.5], max_dist_frac=frac)
        assert rep.recall[0] == 1.0 and rep.precision[0] == 1.0


def _full_graph_matched(pred_bin, gt_bin, max_dist_frac):
    """Per-threshold matcher: both KD-trees and the adjacency built from
    ``pred_bin`` itself, every pred and gt pixel a node of the flow."""
    radius = max_dist_frac * math.hypot(*pred_bin.shape)
    pred_pts, gt_pts = np.argwhere(pred_bin), np.argwhere(gt_bin)
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
    flow = maximum_flow(caps, source, sink).flow
    matched = flow[source:source + 1, :n_pred].toarray().ravel() > 0
    out[pred_pts[matched, 0], pred_pts[matched, 1]] = True
    return out


def _per_threshold_counts(pred_map, gt_maps, thresholds, max_dist_frac=0.0075):
    """``image_counts`` as one full match per (threshold, annotator)."""
    T = len(thresholds)
    cnt_p, sum_p, cnt_r, sum_r = (np.zeros(T) for _ in range(4))
    total_gt = sum(int(g.sum()) for g in gt_maps)
    for k, t in enumerate(thresholds):
        pred_bin = pred_map >= t
        sum_p[k] = int(pred_bin.sum())
        sum_r[k] = total_gt
        if sum_p[k] == 0:
            continue
        union = np.zeros_like(pred_bin)
        for g in gt_maps:
            mp = _full_graph_matched(pred_bin, g, max_dist_frac)
            cnt_r[k] += int(mp.sum())
            union |= mp
        cnt_p[k] = int(union.sum())
    return cnt_p, sum_p, cnt_r, sum_r


class TestImageCounts:
    def _cases(self, rng):
        for seed in range(4):
            r = np.random.default_rng([seed, 17])
            H, W = 48, 72
            pred = nms_thin(r.random((H, W)) ** 3)
            gts = [r.random((H, W)) > 0.9 for _ in range(3)]
            yield pred, gts, default_thresholds(9), 0.05
        pred = nms_thin(rng.random((40, 40)))
        gts = [rng.random((40, 40)) > 0.85, np.zeros((40, 40), bool), rng.random((40, 40)) > 0.9]
        # unsorted, and one threshold above every predicted value
        yield pred, gts, np.array([0.6, 0.1, 2.0, 0.35, 0.05, 0.8]), 0.04

    def test_equals_per_threshold_matching(self, rng):
        for pred, gts, thresholds, frac in self._cases(rng):
            got = evalkit.image_counts(pred, gts, thresholds, frac)
            want = _per_threshold_counts(pred, gts, thresholds, frac)
            for name, a, b in zip(("cnt_p", "sum_p", "cnt_r", "sum_r"),
                                  (got.cnt_p, got.sum_p, got.cnt_r, got.sum_r), want):
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_one_adjacency_per_annotator(self, rng, monkeypatch):
        builds = []
        real = evalkit._adjacency

        def counting(pred_pts, gt_bin, max_dist_frac):
            builds.append(id(gt_bin))
            return real(pred_pts, gt_bin, max_dist_frac)

        monkeypatch.setattr(evalkit, "_adjacency", counting)
        pred = rng.random((30, 30))
        gts = [rng.random((30, 30)) > 0.8 for _ in range(3)]
        evalkit.image_counts(pred, gts, default_thresholds(11), 0.05)
        assert sorted(builds) == sorted(id(g) for g in gts)


class TestFCurve:
    def test_f_formula(self):
        p, r, f = prf(np.array([2.0, 0.0, 3.0, 0.0]), np.array([2.0, 4.0, 0.0, 0.0]),
                      np.array([1.0, 0.0, 0.0, 0.0]), np.array([2.0, 5.0, 0.0, 3.0]))
        np.testing.assert_array_equal(p, [1.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(r, [0.5, 0.0, 0.0, 0.0])
        assert abs(f[0] - 2.0 / 3.0) < 1e-12
        np.testing.assert_array_equal(f[1:], 0.0)

    def test_empty_prediction_convention(self):
        gt = np.zeros((6, 6), bool)
        gt[3, 2:5] = True
        rep = f_curve([np.zeros((6, 6))], [gt], thresholds=[0.5])
        assert rep.precision[0] == 1.0 and rep.recall[0] == 0.0

    def test_recall_never_increases_with_threshold(self, rng):
        pred = rng.random((16, 16))
        gt = rng.random((16, 16)) > 0.8
        rep = f_curve([pred], [gt], thresholds=9)
        assert all(b <= a + 1e-12 for a, b in zip(rep.recall, rep.recall[1:]))

    def test_multi_annotator_recall_pools_maps(self):
        pred = np.zeros((8, 8))
        pred[4, 2:6] = 1.0
        g1 = np.zeros((8, 8), bool)
        g1[4, 2:6] = True
        g2 = np.zeros((8, 8), bool)  # annotator with a disjoint edge
        g2[1, 1] = True
        rep = f_curve([pred], [[g1, g2]], thresholds=[0.5], max_dist_frac=0.01)
        assert rep.precision[0] == 1.0  # every pred pixel matches map 1
        assert abs(rep.recall[0] - 4.0 / 5.0) < 1e-12

    def test_ois_at_least_ods_here(self, rng):
        preds, gts = [], []
        for _ in range(5):
            gt = rng.random((20, 20)) > 0.85
            noise = rng.random((20, 20)) * 0.3
            preds.append(np.clip(gt * (0.6 + noise), 0, 1))
            gts.append(gt)
        rep = f_curve(preds, gts)
        assert rep.ois_f >= rep.ods_f - 1e-12

    def test_ois_at_least_ods_adversarial_mixes(self, rng):
        # one perfect image among junk maximizes the gap between pooled and
        # per-image aggregation; the dominance must survive regardless
        for _ in range(15):
            preds, gts = [], []
            for i in range(6):
                gt = rng.random((20, 20)) > 0.9
                pred = gt.astype(float) if i == 0 else rng.random((20, 20)) * 0.3
                preds.append(pred)
                gts.append(gt)
            rep = f_curve(preds, gts, thresholds=9)
            assert rep.ois_f >= rep.ods_f - 1e-12

    def test_pooled_ods_ois_hand_two_images(self):
        # radius 0: a pred pixel matches only the gt pixel under it.
        # image 1: gt 1 px, hit at 0.9, 3 misses at 0.5 -> F 0.4 at t=0.25, 1 at 0.75
        # image 2: gt 10 px, hits 4 at 0.9 + 6 at 0.5, 1 miss at 0.5
        #          -> F 20/21 at t=0.25, 4/7 at 0.75
        p1, g1 = np.zeros((4, 8)), np.zeros((4, 8), bool)
        g1[0, 0] = True
        p1[0, 0] = 0.9
        p1[3, 5:8] = 0.5
        p2, g2 = np.zeros((4, 8)), np.zeros((4, 8), bool)
        g2[1, :8] = g2[2, :2] = True
        p2[1, :4] = 0.9
        p2[1, 4:8] = p2[2, :2] = 0.5
        p2[3, 0] = 0.5
        rep = f_curve([p1, p2], [g1, g2], thresholds=[0.25, 0.75], max_dist_frac=0.0)
        # mean F: (0.4 + 20/21)/2 at 0.25, (1 + 4/7)/2 = 11/14 at 0.75
        assert rep.ods_threshold == 0.75 and rep.ods_f == pytest.approx(11 / 14)
        assert rep.ois_f == pytest.approx((1 + 20 / 21) / 2)
        # pooled: P 11/15, R 1 -> 11/13 at 0.25; P 1, R 5/11 -> 5/8 at 0.75
        np.testing.assert_allclose(rep.f, [11 / 13, 5 / 8])
        assert rep.pooled_ods_threshold == 0.25 and rep.pooled_ods_f == pytest.approx(11 / 13)
        # best thresholds 0.75 and 0.25: (1 + 10)/(1 + 11) precision, full recall
        assert rep.pooled_ois_f == pytest.approx(22 / 23)

    @pytest.mark.parametrize("thresholds", [[0.5, np.nan], [0.2, np.inf], [], 0])
    def test_bad_thresholds_rejected(self, thresholds):
        gt = np.zeros((6, 6), bool)
        gt[3, 1:5] = True
        with pytest.raises(ValueError, match="thresholds"):
            f_curve([gt.astype(float)], [gt], thresholds=thresholds)
        with pytest.raises(ValueError, match="thresholds"):
            eval_multigranularity([[gt.astype(float)]], [gt], thresholds)

    @pytest.mark.parametrize("frac", [np.nan, np.inf, -0.01])
    def test_bad_radius_rejected(self, frac):
        gt = np.zeros((6, 6), bool)
        gt[3, 1:5] = True
        with pytest.raises(ValueError, match="max_dist_frac"):
            f_curve([gt.astype(float)], [gt], max_dist_frac=frac)

    def test_default_thresholds_open_interval(self):
        t = default_thresholds(33)
        assert len(t) == 33 and t[0] > 0.0 and t[-1] < 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="predictions"):
            f_curve([np.zeros((4, 4))], [])

    # both raised a bare IndexError before
    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="no images"):
            f_curve([], [])
        with pytest.raises(ValueError, match="no images"):
            eval_multigranularity([], [])

    def test_size_mismatch_rejected_naming_both_shapes(self):
        pred = np.zeros((64, 64))
        pred[10, 5:20] = 0.9
        gt = np.zeros((32, 48), bool)
        gt[10, 5:20] = True
        with pytest.raises(ValueError, match=r"\(64, 64\).*\(32, 48\)"):
            f_curve([pred], [gt])


class TestMultiGranularity:
    def _case(self, rng):
        gt = np.zeros((12, 12), bool)
        gt[6, 2:10] = True
        good = gt.astype(float) * 0.9
        bad = np.roll(good, 4, axis=0) * 0.5
        return gt, good, bad

    def test_m1_identical_to_f_curve(self, rng):
        gt, good, _ = self._case(rng)
        r1 = f_curve([good], [gt], thresholds=7)
        rm = eval_multigranularity([[good]], [gt], thresholds=7)
        assert r1.ods_f == rm.ods_f and r1.ois_f == rm.ois_f

    def test_duplicate_invariance(self, rng):
        gt, good, _ = self._case(rng)
        r1 = f_curve([good], [gt], thresholds=7)
        rm = eval_multigranularity([[good, good, good]], [gt], thresholds=7)
        assert rm.ods_f == r1.ods_f and rm.ois_f == r1.ois_f

    def test_dominating_sample_selected(self, rng):
        gt, good, bad = self._case(rng)
        rm = eval_multigranularity([[bad, good]], [gt], thresholds=7)
        r_good = f_curve([good], [gt], thresholds=7)
        assert rm.ods_f == r_good.ods_f
        assert rm.ois_f == r_good.ois_f

    def test_inconsistent_m_rejected(self, rng):
        gt, good, bad = self._case(rng)
        with pytest.raises(ValueError, match="samples"):
            eval_multigranularity([[good], [good, bad]], [gt, gt], thresholds=3)

    def test_ois_at_least_ods(self, rng):
        gt, good, bad = self._case(rng)
        rep = eval_multigranularity([[bad, good]], [gt], thresholds=7)
        assert rep.ois_f >= rep.ods_f - 1e-12


class TestFlopsParams:
    def test_conv_param_formula(self, rng):
        from edmb.diffcore import nn

        conv = nn.Conv2d(16, 32, 3, rng)
        assert conv.weight.size + conv.bias.size == 32 * 16 * 9 + 32

    @pytest.fixture(scope="class")
    def tiny(self):
        return EdgeDetector(ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                                        decoder_ch=8, head_blocks=1, highres_ch=4, seed=0))

    def test_model_counts(self, tiny):
        params, flops = count_flops_params(tiny, (3, 64, 64))
        assert params == tiny.param_count()
        assert flops == 81_674_240

    def test_unaligned_shape_counted_as_padded(self, tiny):
        # the forward that predict_distribution runs: 100x100 is padded to 128x128
        assert count_flops_params(tiny, (3, 100, 100)) == count_flops_params(tiny, (3, 128, 128))

    def test_highres_share_below_one_percent_default(self):
        model = EdgeDetector(ModelConfig())
        e_h = sum(p.size for n, p in model.named_parameters() if n.startswith("high_enc."))
        assert e_h / model.param_count() < 0.01


class TestReport:
    def test_summary_keys(self, rng):
        gt = np.zeros((8, 8), bool)
        gt[4, 2:6] = True
        rep = f_curve([gt.astype(float)], [gt], thresholds=3)
        keys = [line.split("=")[0] for line in rep.summary_kv().splitlines()]
        assert keys == ["ods", "ois", "ods_threshold",
                        "pooled_ods", "pooled_ois", "pooled_ods_threshold"]


class TestSerial:
    def test_scoring_starts_no_thread(self, rng, monkeypatch):
        # images are scored in one loop, whatever the environment says
        def refuse(thread):
            raise AssertionError(f"scoring started thread {thread.name}")

        monkeypatch.setenv("EDMB_THREADS", "3")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        preds = [rng.random((12, 12)) for _ in range(4)]
        gts = [rng.random((12, 12)) > 0.8 for _ in range(4)]
        f_curve(preds, gts, thresholds=5)


class TestReportsPinned:
    @pytest.mark.bits
    def test_counts_and_fields_pinned(self):
        # every count array and report field of a seeded 3-image, 2-annotator
        # set, scored with one sample per image and with three
        rng = np.random.default_rng(31)
        shape = (40, 56)
        gts = [[rng.random(shape) > 0.85 for _ in range(2)] for _ in range(3)]
        preds = [0.4 * g[0] + 0.6 * rng.random(shape) for g in gts]
        samples = [[0.4 * g[k % 2] + 0.6 * rng.random(shape) for k in range(3)] for g in gts]
        digest = hashlib.sha256()
        for rep in (f_curve(preds, gts, thresholds=9, max_dist_frac=0.03),
                    eval_multigranularity(samples, gts, thresholds=9, max_dist_frac=0.03)):
            for counts in rep.per_image:
                for a in astuple(counts):
                    digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
            for fld in fields(rep):
                if fld.name != "per_image":
                    digest.update(np.asarray(getattr(rep, fld.name), np.float64).tobytes())
        assert digest.hexdigest() == (
            "e0b91de69bc7a83b8bf8948a0c30d2936889a5a55897ec7c11aa1726a8f9c793")
