"""Self-tests of the benchmark: generators, the exact matcher, metric names.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

END_TO_END = {
    "all": ["setup_s", "peak_rss_mb", "failed_frac"],
    "train-demo": ["train.global_step_s.p50", "train.global_step_s.p90",
                   "train.fine_step_s.p50", "train.fine_step_s.p90"],
    "infer-default": ["infer.latency_s.320.p50", "infer.latency_s.160.p50"],
    "eval-bsds": ["eval.images_per_s", "eval.mg_images_per_s"],
}
PER_LAYER = [
    "diffcore.conv2d.dense.self_s", "diffcore.conv2d.pointwise.self_s",
    "diffcore.conv2d.depthwise.self_s", "diffcore.conv2d.calls", "diffcore.resize.self_s",
    "diffcore.gflops", "diffcore.backward.self_s", "diffcore.backward.calls",
    "ssm.scan.self_s", "ssm.scan.calls", "ssm.scan.tokens",
    "encoders.global.s", "encoders.fine.s", "encoders.highres.s",
    "encoders.fine.grad_windows_frac",
    "decoder.cff_global.s", "decoder.cff_mean.s", "decoder.cff_var.s", "decoder.sft.s",
    "decoder.heads.s", "decoder.aux_heads.s",
    "loss.stage_losses.s", "pipeline.adam.s", "pipeline.batch_prep.s",
    "inference.predict.s", "inference.sample_granularity.s",
    "eval.nms_thin.s", "eval.image_counts.s", "eval.aggregate.s", "eval.match.pred_pixels",
    "eval.match.over_limit_frac", "eval.match.exact_ratio", "eval.workers",
    "trace.overhead_frac",
]


# -- generators ---------------------------------------------------------------------


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    if hasattr(obj, "image"):  # DatasetSample
        return [obj.image, *obj.labels, obj.valid]
    return []


@pytest.mark.parametrize("make", [
    lambda seed: inputs.scene(seed, 3, 160),
    lambda seed: inputs.bsds_image(seed, 2),
    lambda seed: inputs.train_corpus(seed),
], ids=["scene", "bsds_image", "train_corpus"])
def test_generator_is_a_function_of_the_seed(make):
    a, b, c = _arrays(make(5)), _arrays(make(5)), _arrays(make(6))
    assert len(a) == len(b) == len(c) > 0
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, z) for x, z in zip(a, c))


def test_bsds_image_shape_and_annotators():
    prob, gts, mu, var = inputs.bsds_image(1, 0)
    assert prob.shape == inputs.BSDS_HW and len(gts) == inputs.BSDS_ANNOTATORS > 1
    assert all(g.dtype == bool and g.shape == inputs.BSDS_HW and g.any() for g in gts)
    assert mu.shape == var.shape == (1, 1) + inputs.BSDS_HW and np.all(var > 0)


# -- the exact matcher ----------------------------------------------------------------


def _greedy_trap(copies, hw=(100, 100)):
    """Each copy: greedy takes the closest pair (p1, g1) first and strands
    p2, whose only partner is g1; the maximum matching pairs p1-g2, p2-g1."""
    pred, gt = np.zeros(hw, bool), np.zeros(hw, bool)
    for c in range(copies):
        r = 10 + 20 * c
        gt[r, 50], pred[r, 51], gt[r, 54], pred[r, 47] = True, True, True, True
    return pred, gt


def test_oracle_beats_greedy_by_known_count():
    from edmb import eval as evalmod

    pred, gt = _greedy_trap(3)
    frac = 3.5 / np.hypot(100, 100)  # radius 3.5 px
    greedy, _ = evalmod.match_edges(pred, gt, max_dist_frac=frac, method="greedy")
    exact = oracle.exact_counts(pred.astype(float), gt, [0.5], max_dist_frac=frac)
    assert greedy == 3
    assert list(exact) == [6]


def test_oracle_counts_per_threshold_and_coincident_pixels():
    pred = np.zeros((20, 20))
    gt = np.zeros((20, 20), bool)
    pred[5, 5], gt[5, 5] = 0.9, True      # same pixel: distance 0 matches
    pred[10, 10], gt[10, 11] = 0.3, True
    counts = oracle.exact_counts(pred, gt, [0.1, 0.5, 0.95], max_dist_frac=0.05)
    assert list(counts) == [2, 1, 0]


def test_flow_size_equals_maximum_bipartite_matching():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rng = np.random.default_rng(0)
    for _ in range(20):
        n_p, n_g = rng.integers(1, 40, 2)
        dense = rng.random((n_p, n_g)) < 0.1
        i, j = np.nonzero(dense)
        ref = maximum_bipartite_matching(csr_matrix(dense.astype(np.int8)), perm_type="column")
        assert oracle.matching_size(i, j, n_p, n_g) == int(np.count_nonzero(ref >= 0))


# -- span accounting ----------------------------------------------------------------


MAIN = threading.main_thread().ident


def _span(sid, parent, name, t0, t1, tid=MAIN):
    return (sid, parent, name, t0, t1, tid, None)


def test_check_spans_accepts_a_sound_tree():
    spans = [_span(0, None, "a", 0.1, 0.5), _span(1, 0, "b", 0.2, 0.3),
             _span(2, 0, "c", 0.25, 0.45, tid=MAIN + 1), _span(3, None, "d", 0.6, 0.9)]
    assert tracing.check_spans(spans, [(0.0, 1.0, "x")], MAIN) == []


@pytest.mark.parametrize("bad, message", [
    (_span(1, 0, "b", 0.4, 0.6), "outside its parent"),
    (_span(1, None, "b", 0.4, 0.6), "overlap"),
    (_span(1, None, "b", 0.9, 1.2), "outside the traced operations"),
    (_span(1, None, "b", 0.6, 0.7, tid=MAIN + 1), "without a parent"),
])
def test_check_spans_finds_an_unsound_tree(bad, message):
    problems = tracing.check_spans([_span(0, None, "a", 0.1, 0.5), bad],
                                   [(0.0, 1.0, "x")], MAIN)
    assert len(problems) == 1 and message in problems[0]


def test_layer_times_do_not_depend_on_the_mix_of_kinds():
    """Kind a costs 1 s of dense conv per operation, kind b 3 s; tracing
    one a and three b gives the same figure as one of each."""

    def rec(kinds):
        spans, windows = [], []
        for i, kind in enumerate(kinds):
            cost = {"a": 1.0, "b": 3.0}[kind]
            windows.append((10.0 * i, 10.0 * i + cost + 1.0, kind))
            spans.append(_span(i, None, "diffcore.conv2d.dense", 10.0 * i, 10.0 * i + cost))
        return types.SimpleNamespace(
            tracer=types.SimpleNamespace(spans=spans), windows=windows, macs={},
            samples={"a": [1.0]}, traced_samples={"a": [1.0]}, problems=[])

    spec = types.SimpleNamespace(kinds=("a", "b"))
    for kinds in (("a", "b"), ("a", "b", "b", "b")):
        r = rec(kinds)
        out = workload.layer_metrics(r, spec)[0]
        assert r.problems == []
        assert out["diffcore.conv2d.dense.self_s"]["value"] == pytest.approx(2.0)
        assert out["trace.other_s"]["value"] == pytest.approx(1.0)


def test_module_paths_match_named_parameters():
    from edmb.model import ModelConfig, build_model

    model = build_model(ModelConfig(embed_dim=16, depths=(1, 1, 1), state_dim=4,
                                    decoder_ch=16, head_blocks=1))
    paths = {path for path, _ in tracing.module_paths(model)}
    owners = {name.rsplit(".", 1)[0] for name, _ in model.named_parameters() if "." in name}
    assert owners <= paths and "decoder.cff_mean" in paths


def test_runs_do_fixed_operations_spread_over_the_run():
    log = []
    workload.closed_loop({"ods": 1, "mg": 2}, False, ("ods", "mg"),
                         lambda kind, i, traced: log.append((kind, i, traced)))
    assert log == [("mg", 0, False), ("ods", 0, False), ("mg", 1, False)]
    log.clear()
    workload.closed_loop({"320": 2, "160": 2}, True, ("320", "160"),
                         lambda kind, i, traced: log.append((kind, i, traced)))
    # every other operation of the first kind is the untraced reference
    assert log == [("320", 0, False), ("160", 0, True), ("320", 1, True), ("160", 1, True)]
    assert workload.op_count(20, 5.0) == 4 and workload.op_count(1, 36.0) == 1


# -- metric names -------------------------------------------------------------------


def _run(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def _units(lines):
    """metric name -> unit, from the ``name value unit ...`` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("{", "=", " ")):
            out[parts[0]] = parts[2]
    return out


def test_train_demo_prints_every_metric_with_a_unit():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, wanted, section in ((0, END_TO_END["all"] + END_TO_END["train-demo"], "end_to_end"),
                                   (1, PER_LAYER, "per_layer")):
        lines = _run("train-demo", trace)
        units = _units(lines)
        assert all(units.get(name) for name in wanted), sorted(set(wanted) - set(units))
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
        assert set(result["metrics"]) == {m["name"] for m in spec[section]}
        assert all(m["unit"] for m in result["metrics"].values())


@pytest.mark.parametrize("cls", [workload.InferDefault, workload.EvalBsds])
def test_other_workloads_name_every_metric_with_a_unit(cls):
    rec = types.SimpleNamespace(samples={k: [1.0, 2.0] for k in cls.kinds})
    named, ops = cls(1, False).metrics(rec)
    wanted = END_TO_END[{workload.InferDefault: "infer-default",
                         workload.EvalBsds: "eval-bsds"}[cls]]
    assert all(named[name]["unit"] for name in wanted)
    assert all(op > 0 for op in ops)


def test_spec_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    assert set(PER_LAYER) <= set(names)
