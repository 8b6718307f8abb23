"""Span tracing of edmb from outside the program.

``install`` replaces the public entry points of each edmb module with thin
wrappers that record one span per call: (id, parent id, name, start, end,
thread, attributes). ``Tracer.uninstall`` puts the originals back. Spans stay
in memory until the run ends. Stacks are kept per thread because the
evaluation harness scores images on a thread pool; a span that opens on a
pool thread with an empty stack takes the main thread's open span as its
parent.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import threading
import time
from collections import defaultdict


def patch(saved, owner, attr, make):
    """Replace ``owner.attr`` by ``make(original)`` and remember the original
    in ``saved``, a list that ``restore`` undoes last-in first-out."""
    orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    saved.append((owner, attr, orig))
    setattr(owner, attr, functools.update_wrapper(make(orig), orig))


def restore(saved):
    while saved:
        owner, attr, orig = saved.pop()
        setattr(owner, attr, orig)


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_ident = threading.main_thread().ident
        self._main_stack = []
        self._saved = []

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attr=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), attr))

    def wrap_function(self, owner, attr, name, attr_fn=None):
        """Route ``owner.attr`` through a span named ``name`` (a string or a
        function of the call's args and kwargs)."""

        def make(orig):
            def wrapper(*args, **kwargs):
                span = name(args, kwargs) if callable(name) else name
                extra = attr_fn(args, kwargs) if attr_fn else None
                return self.call(span, orig, args, kwargs, extra)
            return wrapper

        patch(self._saved, owner, attr, make)

    def wrap_method(self, cls, attr, name_of, attr_fn=None):
        """Route ``cls.attr`` through a span named ``name_of(instance)``."""

        def make(orig):
            def wrapper(obj, *args, **kwargs):
                extra = attr_fn(obj, args, kwargs) if attr_fn else None
                return self.call(name_of(obj), orig, (obj,) + args, kwargs, extra)
            return wrapper

        patch(self._saved, cls, attr, make)

    def uninstall(self):
        restore(self._saved)

    def to_json(self):
        keys = ("id", "parent", "name", "start", "end", "thread", "attr")
        return [dict(zip(keys, s)) for s in sorted(self.spans)]


def _arg(args, kwargs, index, key, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def conv_kind(args, kwargs):
    """dense / pointwise / depthwise, as ``conv2d`` dispatches them."""
    weight = _arg(args, kwargs, 1, "weight", None)
    stride = _arg(args, kwargs, 3, "stride", 1)
    padding = _arg(args, kwargs, 4, "padding", 0)
    groups = _arg(args, kwargs, 5, "groups", 1)
    if groups != 1:
        return "diffcore.conv2d.depthwise"
    kh, kw = weight.shape[2], weight.shape[3]
    if kh == kw == 1 and stride == 1 and padding == 0:
        return "diffcore.conv2d.pointwise"
    return "diffcore.conv2d.dense"


def module_paths(root, prefix=""):
    """(path, module) for every sub-module, named as the prefixes that
    ``named_parameters`` gives their parameters."""
    for name, child in root._children():
        yield prefix + name, child
        yield from module_paths(child, prefix + name + ".")


def install(tracer, model=None):
    """Wrap every traced edmb entry point; ``model`` names module instances."""
    import edmb.diffcore as dc
    import edmb.diffcore.tensor as tensor
    from edmb import decoder, encoders, inference, pipeline, ssm
    from edmb import eval as evalmod
    from edmb.model import EdgeDetector

    for owner in (tensor, dc):
        tracer.wrap_function(owner, "conv2d", conv_kind)
        tracer.wrap_function(owner, "bilinear_resize", "diffcore.resize")
        tracer.wrap_function(owner, "backward", "diffcore.backward")
    tracer.wrap_function(ssm, "selective_scan_core", "ssm.scan",
                         lambda a, k: int(a[0].shape[0] * a[0].shape[1]))
    tracer.wrap_function(pipeline, "stage_losses", "loss.stage_losses")
    for fn in ("augment", "select_label", "pad_to_multiple"):
        tracer.wrap_function(pipeline, fn, "pipeline." + fn)
    tracer.wrap_method(pipeline.Adam, "step", lambda obj: "pipeline.adam")
    tracer.wrap_function(inference, "predict_distribution", "inference.predict")
    tracer.wrap_function(inference, "sample_granularity", "inference.sample_granularity")
    for fn, span in (("nms_thin", "eval.nms_thin"), ("f_curve", "eval.f_curve"),
                     ("eval_multigranularity", "eval.eval_multigranularity"),
                     ("image_counts", "eval.image_counts"), ("_aggregate", "eval.aggregate")):
        tracer.wrap_function(evalmod, fn, span)
    tracer.wrap_function(
        evalmod, "_matched_pred_pixels", "eval.match",
        lambda a, k: (int(a[0].sum()), int(a[1].sum())),
    )

    names = {id(m): path for path, m in module_paths(model)} if model is not None else {}

    def name_of(obj):
        return names.get(id(obj), type(obj).__name__)

    for cls in (encoders.MambaEncoder, encoders.FineEncoder, encoders.HighResEncoder,
                decoder.CFF, decoder.SFT, decoder.Head):
        attr_fn = None
        if cls is encoders.MambaEncoder:
            attr_fn = lambda obj, a, k: bool(tensor.grad_enabled())  # noqa: E731
        tracer.wrap_method(cls, "__call__", name_of, attr_fn)
    for meth in ("forward_global", "forward_full"):
        tracer.wrap_method(EdgeDetector, meth, lambda obj: "model.forward")


def summarize(spans, main_ident):
    """Per-name calls, self and inclusive seconds, plus thread totals.

    Self time is span time minus the time of its children on the same
    thread. Inclusive time counts only the outermost span of each name.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, parent, name, t0, t1, tid, attr in spans:
        if parent is not None and parent in by_id and by_id[parent][5] == tid:
            child_time[parent] += t1 - t0

    def has_same_name_ancestor(span):
        parent = span[1]
        while parent is not None and parent in by_id:
            if by_id[parent][2] == span[2]:
                return True
            parent = by_id[parent][1]
        return False

    per = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "attrs": []})
    main_roots = pool_roots = 0.0
    for span in spans:
        sid, parent, name, t0, t1, tid, attr = span
        dur = t1 - t0
        entry = per[name]
        entry["calls"] += 1
        entry["self_s"] += dur - child_time[sid]
        if not has_same_name_ancestor(span):
            entry["incl_s"] += dur
        if attr is not None:
            entry["attrs"].append(attr)
        if parent is None or parent not in by_id or by_id[parent][5] != tid:
            if tid == main_ident:
                main_roots += dur
            else:
                pool_roots += dur
    return dict(per), {"main_covered_s": main_roots, "pool_busy_s": pool_roots}


def check_spans(spans, windows, main_ident):
    """Problems with the span tree, as messages (empty when it is sound).

    Every span lies inside its parent's interval, including pool-thread
    spans under the main thread's open span. Every span lies inside one
    traced window ``(start, end, kind)``, and the main thread's top-level
    spans of a window do not overlap, so the time no span covers is never
    negative.
    """
    by_id = {s[0]: s for s in spans}
    starts = [w[0] for w in windows]
    roots = defaultdict(list)
    problems = []
    for sid, parent, name, t0, t1, tid, _ in spans:
        k = bisect.bisect_right(starts, t0) - 1
        if t1 < t0 or k < 0 or t1 > windows[k][1]:
            problems.append(f"span {name} lies outside the traced operations")
        elif parent is None and tid != main_ident:
            problems.append(f"span {name} opened on a pool thread without a parent")
        elif parent is None:
            roots[k].append((t0, t1, name))
        elif parent in by_id:
            p = by_id[parent]
            if t0 < p[3] or t1 > p[4]:
                problems.append(f"span {name} ends outside its parent {p[2]}")
        else:
            problems.append(f"span {name} has an unrecorded parent")
    for spans_k in roots.values():
        spans_k.sort()
        for (_, end, first), (start, _, second) in zip(spans_k, spans_k[1:]):
            if start < end:
                problems.append(f"top-level spans {first} and {second} overlap")
    return problems
