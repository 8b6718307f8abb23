"""One benchmark workload in its own process: set up, measure, check.

``run.py`` starts this file with the BLAS thread count already capped in the
environment, so the cap holds before numpy is imported. Each workload is a
closed loop: one caller, and each operation waits for the previous one.
The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict

TAIL_MIN_BEYOND = 10


def _median(xs):
    return statistics.median(xs) if xs else None


def timing_metrics(name, samples):
    """Median plus p90 where at least ten samples lie beyond it."""
    out = {f"{name}.p50": {"value": _median(samples), "unit": "s", "n": len(samples)}}
    p90 = None
    if samples:
        cut = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
        if sum(1 for x in samples if x > cut) >= TAIL_MIN_BEYOND:
            p90 = cut
    out[f"{name}.p90"] = {"value": p90, "unit": "s", "n": len(samples),
                          **({} if p90 is not None else {"note": "needs 10 samples beyond p90"})}
    return out


class Recorder:
    """Timed operations, their checks and, in trace mode, their spans."""

    def __init__(self, trace, model=None):
        from tracing import Tracer

        self.model = model
        self.tracer = Tracer() if trace else None
        self.samples = defaultdict(list)
        self.traced_samples = defaultdict(list)
        self.windows = []
        self.macs = defaultdict(list)
        self.attempted = 0
        self.failures = []  # checked operations whose output was wrong
        self.problems = []  # anything else that makes the run incorrect

    def begin(self, traced):
        if traced:
            import edmb.diffcore as dc
            from tracing import install

            install(self.tracer, self.model)
            if self.model is not None:
                dc.profile_macs_start()
        return time.perf_counter()

    def end(self, kind, t0, traced):
        t1 = time.perf_counter()
        if traced:
            import edmb.diffcore as dc

            if self.model is not None:
                self.macs[kind].append(dc.profile_macs_stop())
            self.tracer.uninstall()
            self.windows.append((t0, t1, kind))
            self.traced_samples[kind].append(t1 - t0)
        else:
            self.samples[kind].append(t1 - t0)
        return t1 - t0

    @property
    def failed(self):
        return len(self.failures)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def op_count(seconds, nominal_s, least=1):
    """Operations of a kind that fill ``seconds`` at ``nominal_s`` each.

    Runs do a fixed number of operations, set by ``--seconds`` alone and not
    by the clock, so every run of a seed feeds the program the same inputs
    and gets the same checks, however fast the machine runs meanwhile. The
    nominal costs were measured on a 2-CPU x86_64 machine (Xeon, AVX-512),
    where a run measures about ``seconds``.
    """
    return max(least, round(seconds / nominal_s))


def closed_loop(counts, trace, kinds, run_op):
    """Run ``counts[kind]`` operations of each of ``kinds``, each kind's
    spread evenly over the run. Trace mode traces every operation except
    every other one of the first kind, which is the untraced reference for
    the tracing overhead."""
    order = sorted(((i + 0.5) / counts[kind], k, i)
                   for k, kind in enumerate(kinds) for i in range(counts[kind]))
    for _, k, i in order:
        kind = kinds[k]
        run_op(kind, i, trace and (k != 0 or i % 2 == 1))


# -- workloads ----------------------------------------------------------------------


class TrainDemo:
    """Two-stage training on the README demo config over a seeded corpus."""

    kinds = ("global", "fine")
    # seconds per step, global / fine stage, on the machine of op_count
    nominal_s = {"global": 0.26, "fine": 0.55}
    # train_stage calls per stage; see run()
    segments = 3

    def __init__(self, seed, trace):
        from edmb.loss import LossConfig
        from edmb.model import ModelConfig
        from edmb.pipeline import TrainConfig

        self.seed, self.trace = seed, trace
        self.model_cfg = ModelConfig(embed_dim=16, depths=(1, 1, 1), state_dim=4,
                                     decoder_ch=16, head_blocks=1)

        def cfg(stage, steps):
            return TrainConfig(stage=stage, max_steps=steps, seed=3, augment_recipe="none",
                               loss=LossConfig(varphi=0.05), model=self.model_cfg)

        self.cfg = cfg

    def prepare(self):
        from edmb import pipeline
        from edmb.model import build_model
        from inputs import train_corpus

        self.data = train_corpus(self.seed)
        self.model = build_model(self.model_cfg)
        pipeline.train_stage(build_model(self.model_cfg), self.data, self.cfg("global", 1))

    def run(self, seconds):
        import numpy as np
        from edmb import pipeline

        rec = Recorder(self.trace, self.model)

        def segment(kind, steps, **ckpt):
            """One train_stage call: a warm-up step, left out of the timings,
            then ``steps`` timed steps. Trace mode traces every fine step and
            every other global step, the untraced ones being the reference for
            the tracing overhead."""
            state = {"t0": time.perf_counter(), "traced": False, "done": -1}

            def on_step(model, step, history):
                if state["done"] >= 0:
                    rec.end(kind, state["t0"], state["traced"])
                state["done"] += 1
                rec.check(math.isfinite(history[-1]), f"{kind} step {step}: loss {history[-1]}")
                stop = state["done"] >= steps
                state["traced"] = (not stop and self.trace
                                   and (kind == "fine" or state["done"] % 2 == 1))
                state["t0"] = rec.begin(state["traced"])
                return stop

            if kind == "global":
                self.model.train()  # undo the fine stage's frozen eval mode
            try:
                return pipeline.train_stage(self.model, self.data, self.cfg(kind, 10**9),
                                            eval_every=1, eval_fn=on_step, **ckpt)
            except pipeline.TrainingDiverged as exc:
                rec.check(False, f"{kind}: {exc}")
                return None
            finally:
                if rec.tracer is not None:
                    rec.tracer.uninstall()

        # Half of the run for each stage, in `segments` calls per stage with
        # the stages alternating: the machine's speed drifts within a run,
        # and spreading each stage's steps over the whole run averages the
        # drift. Each call resumes its stage's previous checkpoint; the fine
        # stage starts from the first global one.
        def split(kind):
            total = op_count(seconds / 2.0, self.nominal_s[kind], least=2 * self.segments)
            return [total // self.segments + (i < total % self.segments)
                    for i in range(self.segments)]

        global_ckpt = fine_ckpt = frozen = None
        for global_steps, fine_steps in zip(split("global"), split("fine")):
            global_ckpt = segment("global", global_steps, resume_ckpt=global_ckpt)
            if global_ckpt is None:
                break
            if frozen is None:
                frozen = {n: np.array(global_ckpt.state["param." + n])
                          for n in self.model.global_param_names()}
                fine_ckpt = segment("fine", fine_steps, init_ckpt=global_ckpt)
            else:
                fine_ckpt = segment("fine", fine_steps, resume_ckpt=fine_ckpt)
            if fine_ckpt is None:
                break
            named = dict(self.model.named_parameters())
            moved = sorted(n for n, a in frozen.items() if named[n].data.tobytes() != a.tobytes())
            if moved:
                rec.problems.append(f"fine stage changed frozen parameters {moved[:5]}")
                break
        return rec

    def metrics(self, rec):
        out = {}
        out.update(timing_metrics("train.global_step_s", rec.samples["global"]))
        out.update(timing_metrics("train.fine_step_s", rec.samples["fine"]))
        return out, (out["train.global_step_s.p50"]["value"], out["train.fine_step_s.p50"]["value"])


class InferDefault:
    """Default-config distribution prediction plus the 11-point sweep."""

    kinds = ("320", "160")
    # seconds per round, one operation of each kind, on the machine of op_count
    round_s = 5.0

    def __init__(self, seed, trace):
        self.seed, self.trace = seed, trace

    def prepare(self):
        from edmb import inference
        from edmb.model import ModelConfig, build_model
        from inputs import scene

        self.model = build_model(ModelConfig())
        inference.predict_distribution(self.model, scene(self.seed, 10**6, 160))

    def run(self, seconds):
        import numpy as np
        from edmb import inference
        from inputs import scene

        rec = Recorder(self.trace, self.model)
        gammas = inference.default_gammas()
        if self.trace:
            from edmb.eval import count_flops_params

            self.flops_160 = count_flops_params(self.model, (3, 160, 160))[1]

        def op(kind, index, traced):
            size = int(kind)
            image = scene(self.seed, index, size)
            t0 = rec.begin(traced)
            dist = inference.predict_distribution(self.model, image)
            maps = [inference.sample_granularity(dist, g) for g in gammas]
            dur = rec.end(kind, t0, traced)
            mu, var = dist.mu.data, dist.var.data
            stack = np.stack(maps)
            shape_ok = (mu.shape == var.shape == (1, 1, size, size)
                        and stack.shape == (len(gammas), size, size))
            rec.check(shape_ok, f"{kind} image {index}: output shapes {mu.shape}, {stack.shape}")
            if not shape_ok:
                return dur
            steps = np.diff(stack, axis=0)
            rec.check(np.all(np.isfinite(mu)) and np.all(np.isfinite(var)) and np.all(var > 0),
                      f"{kind} image {index}: mu/var not finite or var <= 0")
            rec.check(np.all(steps >= 0),
                      f"{kind} image {index}: sweep decreases in gamma at "
                      f"{int(np.count_nonzero(steps < 0))} pixel steps, by up to {-steps.min():.3g}")
            return dur

        rounds = op_count(seconds, self.round_s)
        closed_loop({"320": max(rounds, 2 if self.trace else 1), "160": rounds},
                    self.trace, self.kinds, op)
        if self.trace:
            for m in rec.macs["160"]:
                if 2 * m != self.flops_160:
                    rec.problems.append(f"traced MACs {m} disagree with count_flops_params")
        return rec

    def metrics(self, rec):
        out = {
            "infer.latency_s.320.p50": {"value": _median(rec.samples["320"]), "unit": "s",
                                        "n": len(rec.samples["320"])},
            "infer.latency_s.160.p50": {"value": _median(rec.samples["160"]), "unit": "s",
                                        "n": len(rec.samples["160"])},
        }
        return out, (out["infer.latency_s.320.p50"]["value"], out["infer.latency_s.160.p50"]["value"])


class MatchTap:
    """Records each recall count the harness computes, keyed by the
    annotator map it matched against, in call order."""

    def __init__(self):
        import numpy as np
        from edmb import eval as evalmod
        from tracing import patch

        self.counts = defaultdict(list)
        self._saved = []

        def make(orig):
            def tap(pred_bin, gt_bin, *args, **kwargs):
                out = orig(pred_bin, gt_bin, *args, **kwargs)
                self.counts[id(gt_bin)].append(int(np.count_nonzero(out)))
                return out
            return tap

        patch(self._saved, evalmod, "_matched_pred_pixels", make)

    def close(self):
        from tracing import restore

        restore(self._saved)


class EvalBsds:
    """ODS/OIS scoring and the multi-granularity protocol at BSDS size."""

    kinds = ("ods", "mg")
    images_per_op = 1
    # seconds per round, one operation of each kind, on the machine of op_count
    round_s = 36.0

    def __init__(self, seed, trace):
        self.seed, self.trace = seed, trace
        self.exact_total = 0
        self.counted_total = 0

    def prepare(self):
        from edmb import eval as evalmod
        from inputs import bsds_image

        prob, gts, _, _ = bsds_image(self.seed, 10**6)
        crops = [evalmod.nms_thin(prob[:64, :96]), evalmod.nms_thin(prob[64:128, :96])]
        evalmod.f_curve(crops, [[g[:64, :96] for g in gts], [g[64:128, :96] for g in gts]])

    def _check_counts(self, rec, tap, thin_maps, gts, thresholds, label):
        """Compare every (map, threshold, annotator) recall count with the
        exact matcher; return the per-map summed counts."""
        import numpy as np
        from oracle import exact_counts

        summed = []
        for m, thin in enumerate(thin_maps):
            n_pred = np.array([np.count_nonzero(thin >= t) for t in thresholds])
            called = np.flatnonzero(n_pred > 0)
            total = np.zeros(len(thresholds), dtype=np.int64)
            for a, g in enumerate(gts):
                seq = tap.counts[id(g)]
                got, tap.counts[id(g)] = seq[:len(called)], seq[len(called):]
                if len(got) != len(called):
                    rec.problems.append(f"{label} map {m}: {len(got)} match calls, expected {len(called)}")
                    return None
                counted = np.zeros(len(thresholds), dtype=np.int64)
                counted[called] = got
                exact = exact_counts(thin, g, thresholds)
                if np.any(counted > exact):
                    rec.problems.append(f"{label} map {m} annotator {a}: count above the maximum matching")
                for k in range(len(thresholds)):
                    rec.check(counted[k] == exact[k],
                              f"{label} map {m} annotator {a} t={thresholds[k]:.4f}: "
                              f"{counted[k]} of {exact[k]} pairs")
                self.counted_total += int(counted.sum())
                self.exact_total += int(exact.sum())
                total += counted
            summed.append((total, n_pred))
        return summed

    def _check_report(self, rec, report, label):
        import numpy as np

        vals = np.concatenate([report.precision, report.recall, report.f])
        ok = (len(report.thresholds) == 33 and bool(np.all(np.isfinite(vals)))
              and bool(np.all((vals >= 0) & (vals <= 1)))
              and 0.0 <= report.ods_f <= report.ois_f + 1e-12 <= 1.0 + 1e-12)
        if not ok:
            rec.problems.append(f"{label}: report out of range")

    def run(self, seconds):
        from edmb import eval as evalmod
        from edmb import inference
        from edmb.decoder import EdgeDistribution
        from inputs import MG_GAMMAS, bsds_image

        rec = Recorder(self.trace)
        tap = MatchTap()

        def op(kind, index, traced):
            images = [bsds_image(self.seed, self.images_per_op * index + j
                                 + (0 if kind == "ods" else 10**5))
                      for j in range(self.images_per_op)]
            gts = [img[1] for img in images]
            label = f"{kind} op {index}"
            tap.counts.clear()
            t0 = rec.begin(traced)
            if kind == "ods":
                thin = [evalmod.nms_thin(img[0]) for img in images]
                report = evalmod.f_curve(thin, gts, thresholds=33)
            else:
                thin = []
                for _, _, mu, var in images:
                    dist = EdgeDistribution(mu, var)
                    thin.append([evalmod.nms_thin(inference.sample_granularity(dist, g))
                                 for g in MG_GAMMAS])
                report = evalmod.eval_multigranularity(thin, gts, thresholds=33)
            dur = rec.end(kind, t0, traced)
            thresholds = report.thresholds
            self._check_report(rec, report, label)
            for i, annotators in enumerate(gts):
                maps = [thin[i]] if kind == "ods" else thin[i]
                summed = self._check_counts(rec, tap, maps, annotators, thresholds,
                                            f"{label} image {i}")
                if summed is None or kind != "ods":
                    continue
                total, n_pred = summed[0]
                row = report.per_image[i]
                if list(row.cnt_r) != list(total) or list(row.sum_p) != list(n_pred):
                    rec.problems.append(f"{label} image {i}: per-image counts disagree with matches")
            if any(tap.counts.values()):
                rec.problems.append(f"{label}: match calls left unaccounted")
            return dur

        try:
            # two multi-granularity operations at least, one at each end
            # of the run: one takes 18-30 s, and the median of two far
            # apart is steadier than one sample
            rounds = op_count(seconds, self.round_s)
            closed_loop({"ods": max(rounds, 2 if self.trace else 1), "mg": max(rounds, 2)},
                        self.trace, self.kinds, op)
        finally:
            tap.close()
        return rec

    def metrics(self, rec):
        ods = [d / self.images_per_op for d in rec.samples["ods"]]
        mg = [d / self.images_per_op for d in rec.samples["mg"]]
        out = {
            "eval.images_per_s": {"value": 1.0 / _median(ods) if ods else None,
                                  "unit": "1/s", "n": len(ods) * self.images_per_op},
            "eval.mg_images_per_s": {"value": 1.0 / _median(mg) if mg else None,
                                     "unit": "1/s", "n": len(mg) * self.images_per_op},
            "eval.match.exact_ratio": {"value": self.exact_ratio(), "unit": "ratio",
                                       "n": self.exact_total},
        }
        return out, (_median(ods), _median(mg))

    def exact_ratio(self):
        return self.counted_total / self.exact_total if self.exact_total else 1.0


WORKLOADS = {"train-demo": TrainDemo, "infer-default": InferDefault, "eval-bsds": EvalBsds}


# -- per-layer metrics from the spans --------------------------------------------------


def layer_metrics(rec, workload):
    """Per-layer metrics from the recorded spans.

    Times and counts are per traced operation of each kind, averaged over
    the kinds with equal weight, so the mix of kinds a run happens to trace
    does not move them.
    """
    import bisect
    import threading

    from edmb import eval as evalmod
    from tracing import check_spans, summarize

    main = threading.main_thread().ident
    spans = rec.tracer.spans
    rec.problems.extend(check_spans(spans, rec.windows, main)[:5])
    starts = [t0 for t0, _, _ in rec.windows]
    by_kind = defaultdict(list)
    for span in spans:
        by_kind[rec.windows[max(0, bisect.bisect_right(starts, span[3]) - 1)][2]].append(span)
    n_ops = defaultdict(int)
    wall = defaultdict(float)
    for t0, t1, kind in rec.windows:
        n_ops[kind] += 1
        wall[kind] += t1 - t0
    summaries = {kind: summarize(by_kind[kind], main) for kind in n_ops}

    def per_op(total):
        """Mean over the traced kinds of ``total(kind, per, totals)`` per operation."""
        return statistics.fmean(total(kind, *summaries[kind]) / n
                                for kind, n in n_ops.items()) if n_ops else 0.0

    def spans_s(key, *names):
        return per_op(lambda kind, per, _: sum(per[n][key] for n in names if n in per))

    def incl(*names):
        return spans_s("incl_s", *names)

    def attrs(name):
        return [a for per, _ in summaries.values() for a in per.get(name, {}).get("attrs", [])]

    convs = ("diffcore.conv2d.dense", "diffcore.conv2d.pointwise", "diffcore.conv2d.depthwise")
    forward_s = sum(per["model.forward"]["incl_s"] for per, _ in summaries.values()
                    if "model.forward" in per)
    macs = sum(sum(v) for v in rec.macs.values())
    windows_grad = attrs("fine_enc.net")
    matches = attrs("eval.match")
    limit = getattr(evalmod, "GREEDY_PIXEL_LIMIT", None)
    first = workload.kinds[0]
    plain, traced = _median(rec.samples[first]), _median(rec.traced_samples[first])

    def m(value, unit):
        return {"value": float(value), "unit": unit}

    out = {}
    for name in convs:
        out[name + ".self_s"] = m(spans_s("self_s", name), "s/op")
    out["diffcore.conv2d.calls"] = m(spans_s("calls", *convs), "calls/op")
    out["diffcore.resize.self_s"] = m(spans_s("self_s", "diffcore.resize"), "s/op")
    out["diffcore.gflops"] = m(2.0 * macs / forward_s / 1e9 if forward_s else 0.0, "GFLOP/s")
    out["diffcore.backward.self_s"] = m(spans_s("self_s", "diffcore.backward"), "s/op")
    out["diffcore.backward.calls"] = m(spans_s("calls", "diffcore.backward"), "calls/op")
    out["ssm.scan.self_s"] = m(spans_s("self_s", "ssm.scan"), "s/op")
    out["ssm.scan.calls"] = m(spans_s("calls", "ssm.scan"), "calls/op")
    out["ssm.scan.tokens"] = m(per_op(
        lambda kind, per, _: sum(per.get("ssm.scan", {}).get("attrs", []))), "tokens/op")
    out["encoders.global.s"] = m(incl("global_enc"), "s/op")
    out["encoders.fine.s"] = m(incl("fine_enc"), "s/op")
    out["encoders.highres.s"] = m(incl("high_enc"), "s/op")
    out["encoders.fine.grad_windows_frac"] = m(
        sum(windows_grad) / len(windows_grad) if windows_grad else 0.0, "frac")
    out["decoder.cff_global.s"] = m(incl("decoder.cff_global"), "s/op")
    out["decoder.cff_mean.s"] = m(incl("decoder.cff_mean"), "s/op")
    out["decoder.cff_var.s"] = m(incl("decoder.cff_var"), "s/op")
    out["decoder.sft.s"] = m(incl("decoder.sft_mean", "decoder.sft_var"), "s/op")
    out["decoder.heads.s"] = m(incl("decoder.mean_head", "decoder.var_head"), "s/op")
    out["decoder.aux_heads.s"] = m(
        incl("decoder.edge_head", "decoder.aux_mean_head", "decoder.aux_var_head"), "s/op")
    out["loss.stage_losses.s"] = m(incl("loss.stage_losses"), "s/op")
    out["pipeline.adam.s"] = m(incl("pipeline.adam"), "s/op")
    out["pipeline.batch_prep.s"] = m(
        incl("pipeline.augment", "pipeline.select_label", "pipeline.pad_to_multiple"), "s/op")
    out["inference.predict.s"] = m(incl("inference.predict"), "s/op")
    out["inference.sample_granularity.s"] = m(incl("inference.sample_granularity"), "s/op")
    out["eval.nms_thin.s"] = m(incl("eval.nms_thin"), "s/op")
    out["eval.image_counts.s"] = m(incl("eval.image_counts"), "s/op")
    out["eval.aggregate.s"] = m(incl("eval.aggregate"), "s/op")
    out["eval.match.pred_pixels"] = m(
        sum(p for p, _ in matches) / len(matches) if matches else 0.0, "px/call")
    out["eval.match.over_limit_frac"] = m(
        sum(1 for p, g in matches if limit is not None and max(p, g) > limit) / len(matches)
        if matches else 0.0, "frac")
    out["eval.match.exact_ratio"] = m(
        workload.exact_ratio() if isinstance(workload, EvalBsds) else 1.0, "ratio")
    out["eval.workers"] = m(evalmod.worker_count(), "count")
    out["trace.overhead_frac"] = m(traced / plain - 1.0 if plain and traced else 0.0, "frac")
    out["trace.wall_s"] = m(per_op(lambda kind, *_: wall[kind]), "s/op")
    out["trace.other_s"] = m(per_op(
        lambda kind, _, totals: wall[kind] - totals["main_covered_s"]), "s/op")
    out["trace.pool_busy_s"] = m(per_op(
        lambda kind, _, totals: totals["pool_busy_s"]), "s/op")
    per_all, totals = summarize(spans, main)
    self_table = {name: {"calls": v["calls"], "self_s": v["self_s"], "incl_s": v["incl_s"]}
                  for name, v in sorted(per_all.items())}
    return out, self_table, {"traced_ops": dict(n_ops), "wall_s": dict(wall), **totals}


# -- entry point ------------------------------------------------------------------------


def environment():
    import numpy
    import scipy
    from edmb.eval import worker_count

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "EDMB_THREADS": os.environ.get("EDMB_THREADS"),
        "eval_worker_count": worker_count(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, write the set-up time and exit")
    args = ap.parse_args(argv)

    # imports are part of set-up time
    import edmb.eval  # noqa: F401
    import edmb.inference  # noqa: F401
    import edmb.pipeline  # noqa: F401
    import edmb.synth  # noqa: F401
    import scipy.sparse.csgraph  # noqa: F401

    import_s = time.monotonic() - args.spawned_at
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(edmb.eval.__file__).startswith(src + os.sep):
        sys.exit(f"edmb was imported from {edmb.eval.__file__}, not from {src}")
    workload = WORKLOADS[args.workload](args.seed, bool(args.trace))
    workload.prepare()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s, "import_s": import_s}, fh)
        return 0

    rec = workload.run(args.seconds)
    named, (op1, op2) = workload.metrics(rec)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named["setup_s"] = {"value": setup_s, "unit": "s", "n": 1}
    named["peak_rss_mb"] = {"value": peak, "unit": "MB", "n": 1}
    named["failed_frac"] = {"value": rec.failed / rec.attempted if rec.attempted else 0.0,
                            "unit": "frac", "n": rec.attempted, "failed": rec.failed}
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "setup": {"import_s": import_s, "setup_s": [setup_s]},
        "samples_s": dict(rec.samples), "traced_samples_s": dict(rec.traced_samples),
        "metrics": named,
        "bench": {"op1_s": op1, "op2_s": op2, "setup_s": setup_s, "peak_rss_mb": peak},
    }
    if args.trace:
        result["layers"], result["self_s"], result["trace_totals"] = layer_metrics(rec, workload)
        result["spans_file"] = os.path.splitext(args.out)[0] + ".spans.json"
        with open(result["spans_file"], "w", encoding="utf-8") as fh:
            json.dump(rec.tracer.to_json(), fh)
    result.update(correct=not rec.problems, attempted=rec.attempted, failed=rec.failed,
                  problems=rec.problems[:20], failures=rec.failures[:20])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
