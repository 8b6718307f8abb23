"""Dense-array reverse-mode autodiff core.

A Tensor wraps a numpy array plus an optional gradient buffer. Operations
record their inputs and a vector-Jacobian closure; ``backward`` replays the
recorded graph once in reverse topological order and accumulates gradients
into every reachable tensor with ``requires_grad``. Arithmetic runs in 32-bit
by default; switch to 64-bit (``precision("float64")``) for verification.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
from scipy.special import expit


class _State:
    """Module-wide settings: diffcore runs on one thread."""

    dtype = np.float32
    grad_enabled = True
    macs = None  # MACs counted since profile_macs_start, None when not profiling


_state = _State()


def default_dtype():
    return _state.dtype


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the arithmetic dtype of new tensors, 'float32' or
    'float64' (e.g. 'float64' for fd checks)."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    prev, _state.dtype = _state.dtype, dt.type
    try:
        yield
    finally:
        _state.dtype = prev


def grad_enabled():
    return _state.grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; forward values are unchanged."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


class Tensor:
    """N-dimensional real array with an optional gradient slot.

    Invariants: ``data`` is contiguous row-major; ``grad`` (when present) has
    the same shape as ``data``; leaves created with ``requires_grad=True``
    receive accumulated (``+=``) gradients on backward and keep them until
    ``zero_grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_vjp", "_done")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(data, dtype=default_dtype())
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._vjp = None
        self._done = False

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=default_dtype()))


def make_op(data, parents, vjp, op):
    """Record one operation node. ``vjp(g)`` returns per-parent gradients,
    or None for a parent that does not require grad."""
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data)
    out.grad = None
    out.op = op
    out._done = False
    if grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._parents = ()
        out._vjp = None
    return out


def topo_order(root):
    """Recorded operations reachable from ``root``, in topological order."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(x) into every reachable requires_grad tensor.

    ``loss`` must be scalar. Each node's adjoint closure runs exactly once,
    in reverse topological order; the closures are then released, so a second
    backward on the same graph fails rather than silently recomputing.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to backpropagate")
    if loss._done:
        raise RuntimeError("backward already ran on this graph; run a new forward first")

    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        vjp = node._vjp
        if vjp is None:
            continue
        if node.grad is None:
            continue
        grads = vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                # one pass, with the bits of zeros += g: -0.0 lands as +0.0,
                # and g is cast to the parent's dtype
                parent.grad = np.add(g, 0.0, out=np.empty_like(parent.data))
            else:
                parent.grad += g
        node._vjp = None
        node._done = True


# -- broadcasting helper ------------------------------------------------------


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic -----------------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_op(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
        "add",
    )


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_op(
        a.data - b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g, a.shape),
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        ),
        "sub",
    )


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_op(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        ),
        "mul",
    )


def neg(a):
    a = as_tensor(a)
    return make_op(-a.data, (a,), lambda g: (-g,), "neg")


def pow_const(a, exponent):
    a = as_tensor(a)
    e = float(exponent)
    return make_op(
        a.data**e, (a,), lambda g: (g * e * a.data ** (e - 1.0),), "pow_const"
    )


def sqrt(a):
    a = as_tensor(a)
    r = np.sqrt(a.data)
    # adjoint clamps the denominator; exact zeros stay exact in the forward
    return make_op(r, (a,), lambda g: (g * 0.5 / np.maximum(r, 1e-30),), "sqrt")


def exp(a):
    a = as_tensor(a)
    e = np.exp(a.data)
    if not np.all(np.isfinite(e)):
        raise FloatingPointError("exp overflowed to non-finite values")
    return make_op(e, (a,), lambda g: (g * e,), "exp")


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0):
        bad = int(np.argmax(a.data.reshape(-1) <= 0))
        raise ValueError(f"log of non-positive input at flat index {bad}")
    return make_op(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


def relu(a):
    a = as_tensor(a)
    # fmax maps NaN and -inf to 0, and += 0 turns -0.0 into +0.0: the bits of
    # where(x > 0, x, 0) without a mask pass in the forward
    out = np.fmax(a.data, 0)
    out += 0
    return make_op(out, (a,), lambda g: (g * (a.data > 0),), "relu")


def sigmoid(a):
    a = as_tensor(a)
    # expit is overflow-safe and, unlike exp(x) / (1 + exp(x)), never
    # decreases between neighbouring float32 inputs, which the granularity
    # sweep relies on
    s = expit(a.data)
    return make_op(s, (a,), lambda g: (g * s * (1.0 - s),), "sigmoid")


def _softplus_raw(x):
    # log(1+exp(x)) = max(x,0) + log1p(exp(-|x|)); branch keeps exp bounded
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a):
    a = as_tensor(a)
    out = _softplus_raw(a.data)
    return make_op(out, (a,), lambda g: (g * expit(a.data),), "softplus")


def clamp_min(a, lo):
    a = as_tensor(a)
    mask = a.data > lo
    return make_op(np.maximum(a.data, lo), (a,), lambda g: (g * mask,), "clamp_min")


def clamp(a, lo, hi):
    a = as_tensor(a)
    mask = (a.data > lo) & (a.data < hi)
    return make_op(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,), "clamp")


# -- reductions -----------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return make_op(np.asarray(out), (a,), vjp, "sum")


def tmean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is None:
        n = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= a.shape[ax]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- shape manipulation -----------------------------------------------------------


def reshape(a, shape):
    a = as_tensor(a)
    return make_op(
        a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),), "reshape"
    )


def transpose(a, axes):
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return make_op(
        a.data.transpose(axes), (a,), lambda g: (g.transpose(inv),), "transpose"
    )


def flip(a, axis):
    a = as_tensor(a)
    return make_op(np.flip(a.data, axis), (a,), lambda g: (np.flip(g, axis),), "flip")


def concat(tensors, axis):
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return make_op(data, tuple(tensors), vjp, "concat")


def narrow(a, axis, start, length):
    """Differentiable slice of ``length`` elements from ``start`` along
    ``axis``; a view of ``a``'s data where the slice is contiguous, else a copy."""
    a = as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        out = np.zeros_like(a.data)
        out[idx] = g
        return (out,)

    return make_op(a.data[idx], (a,), vjp, "narrow")


def matmul(a, b):
    """Matrix product with numpy batching rules on the leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    # (..., m, k) @ (..., k, n): batch * m * k * n
    _count_macs(math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
                * a.shape[-2] * a.shape[-1] * b.shape[-1])

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return (ga, gb)

    return make_op(np.matmul(a.data, b.data), (a, b), vjp, "matmul")


# -- convolution ------------------------------------------------------------------

def profile_macs_start():
    _state.macs = 0


def profile_macs_stop():
    n, _state.macs = _state.macs, None
    return n or 0


def _count_macs(n):
    if _state.macs is not None:
        _state.macs += int(n)


def _im2col(x, kh, kw, out=None, rows=None):
    """(B, C*kh*kw, n*W) patch columns of the stride-1, same-padded conv's n
    output rows ``rows`` = (i0, i1), all H by default, ordered (C, kh, kw),
    into the flat buffer ``out`` if given. Each tap's plane is one copy of
    the unpadded NCHW input plus zeroed border strips where the tap reads
    padding: x is never padded."""
    B, C, H, W = x.shape
    i0, i1 = rows or (0, H)
    n = B * C * kh * kw * (i1 - i0) * W
    cols = (np.empty(n, dtype=x.dtype) if out is None else out[:n]).reshape(B, C, kh, kw, i1 - i0, W)

    def span(off, size, lo, hi):  # outputs [a, b) of [lo, hi) that read x, from index a+off
        a = min(hi, max(lo, -off))
        return a, max(a, min(hi, size - off)), a + off

    for u in range(kh):
        a, b, r = span(u - kh // 2, H, i0, i1)
        for v in range(kw):
            (c, d, s), plane = span(v - kw // 2, W, 0, W), cols[:, :, u, v]
            plane[:, :, : a - i0] = plane[:, :, b - i0 :] = plane[..., :c] = plane[..., d:] = 0
            plane[:, :, a - i0 : b - i0, c:d] = x[:, :, r : r + b - a, s : s + d - c]
    return cols.reshape(B, C * kh * kw, (i1 - i0) * W)


def _conv2d_dense_raw(x, w):
    """Stride-1, same-padded dense conv as ``w.reshape(Co, K) @ cols`` per
    batch item. The columns of blocks of output rows (~1M elements, 4 MB in
    float32) are filled from the unpadded input into one reused buffer and
    multiplied straight into the output; nothing is kept for backward.

    The bits match the row-major ``cols @ w.T`` form, except that OpenBLAS
    takes a small-matrix kernel for a GEMM with M*N*K below about 1e6, where
    the two operand orientations differ by ulps. No model shape falls there."""
    Co, C, kh, kw = w.shape
    B, _, H, W = x.shape
    K = C * kh * kw
    rows = max(1, min(H, (1 << 20) // (K * W)))
    cols = np.empty(K * rows * W, dtype=x.dtype)
    out = np.empty((B, Co, H * W), dtype=np.result_type(x, w))
    wm = w.reshape(Co, K)
    for b in range(B):
        for i0 in range(0, H, rows):
            i1 = min(H, i0 + rows)
            blk = _im2col(x[b : b + 1], kh, kw, cols, (i0, i1))
            np.matmul(wm, blk[0], out=out[b, :, i0 * W : i1 * W])
    return out.reshape(B, Co, H, W)


def conv2d(x, weight, bias=None, *, groups=1):
    """Stride-1 2-D cross-correlation with "same" zero padding, (kh // 2,
    kw // 2) per axis, so the output has the input's H and W.

    ``x``: (B,C,H,W); ``weight``: (Co, C/groups, kh, kw) with odd kh, kw;
    ``bias``: (Co,) or None. groups is 1 (dense) or C==Co (depthwise). A 1x1
    dense conv is one matmul. Each of the three kinds returns its output and
    the adjoint of x and weight; this one node adds the bias, counts the
    MACs and records the op.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None
    if x.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-D (B,C,H,W), got {x.shape}")
    Co, Cw, kh, kw = weight.shape
    B, C, H, W = x.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel must be odd, got {kh}x{kw}")
    if bias is not None and bias.shape != (Co,):
        raise ValueError(f"conv2d: bias shape {bias.shape} does not match Co={Co}")
    if groups == 1:
        if Cw != C:
            raise ValueError(f"conv2d: weight in-channels {Cw} != input channels {C}")
        kind = _conv2d_1x1 if kh == kw == 1 else _conv2d_dense
    elif groups == C and Co == C and Cw == 1:
        kind = _depthwise_conv2d
    else:
        raise ValueError(f"conv2d: unsupported groups={groups} for C={C}, Co={Co}")
    _count_macs(B * H * W * Co * Cw * kh * kw)
    out, kind_vjp = kind(x, weight)
    if bias is None:
        return make_op(out, (x, weight), kind_vjp, "conv2d")
    out += bias.data.reshape(1, Co, 1, 1)
    return make_op(out, (x, weight, bias), lambda g: (*kind_vjp(g), g.sum(axis=(0, 2, 3))), "conv2d")


def _conv2d_dense(x, weight):
    (B, C, H, W), (Co, _, kh, kw) = x.shape, weight.shape
    out = _conv2d_dense_raw(x.data, weight.data)

    def vjp(g):
        gx = gw = None
        if x.requires_grad:
            # the same conv of g with the kernel turned 180 degrees, channels swapped
            wfl = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            gx = _conv2d_dense_raw(g, np.ascontiguousarray(wfl))
        if weight.requires_grad:
            # each item's full columns are rebuilt into one buffer; the stacked
            # per-item products reduce as one batched matmul's would
            g2, cols = g.reshape(B, Co, H * W), np.empty(C * kh * kw * H * W, dtype=x.data.dtype)
            per_item = np.empty((B, Co, C * kh * kw), dtype=np.result_type(g, x.data))
            for b in range(B):
                np.matmul(g2[b], _im2col(x.data[b : b + 1], kh, kw, cols)[0].T, out=per_item[b])
            gw = per_item.sum(axis=0).reshape(weight.shape)
        return gx, gw

    return out, vjp


def _conv2d_1x1(x, weight):
    B, C, H, W = x.shape
    Co = weight.shape[0]
    wmat = weight.data.reshape(Co, C)
    out = np.matmul(wmat, x.data.reshape(B, C, H * W)).reshape(B, Co, H, W)

    def vjp(g):
        g2 = g.reshape(B, Co, H * W)
        gx = np.matmul(wmat.T, g2).reshape(B, C, H, W) if x.requires_grad else None
        gw = None
        if weight.requires_grad:
            xt = x.data.reshape(B, C, H * W).transpose(0, 2, 1)
            gw = np.matmul(g2, xt).sum(axis=0).reshape(weight.shape)
        return gx, gw

    return out, vjp


def _padded_blocks(src, kh, kw, n):
    """(c0, block) per n channels of every item of (B, C, H, W) ``src``: each
    plane zero-padded to (H + 2*ph, Wp) with Wp = W + 2*pw, flattened, with a
    2*pw zero tail, so tap (u, v) is the contiguous ``block[..., u*Wp + v :]``
    of H*Wp elements. One zeroed scratch is reused: every plane sits at a
    multiple of its length, so a block copies in only its interior and the
    borders stay zero."""
    B, C, H, W = src.shape
    ph, pw = kh // 2, kw // 2
    Hp, Wp = H + 2 * ph, W + 2 * pw
    P = Hp * Wp + 2 * pw
    scratch = np.zeros(B * n * P, dtype=src.dtype)
    for c0 in range(0, C, n):
        m = min(n, C - c0)
        block = scratch[: B * m * P].reshape(B, m, P)
        block[..., : Hp * Wp].reshape(B, m, Hp, Wp)[..., ph : ph + H, pw : pw + W] = src[:, c0 : c0 + m]
        yield c0, block


def _block_channels(shape, kh, kw):
    """Channels per block of a (B, C, H, W) map: the padded planes of all B
    items fill at most about 64K elements; at least 1, at most C."""
    B, C, H, W = shape
    return min(C, max(1, (1 << 16) // (B * ((H + kh - 1) * (W + kw - 1) + kw - 1))))


def _depthwise_taps(w, src, dst, turned=False):
    """dst = the sum over kernel taps (u, v), in row-major tap order, of
    w[:, u, v] times ``src`` shifted by the tap and zero-padded, for (C, kh,
    kw) ``w`` and (B, C, H, W) ``src`` and ``dst`` (any strides; ``dst`` may
    be ``src``: a block is copied to the scratch before it is written). With
    ``turned``, tap (u, v) shifts ``src`` by (kh-1-u, kw-1-v) instead: the
    input gradient, which is the taps over ``src`` turned 180 degrees written
    turned back, with neither array turned. Each block of padded planes
    (``_padded_blocks``) multiplies whole contiguous tap slices into a
    product buffer and adds them in padded width; the 2*pw junk columns of
    each row are cropped when the block is written out. The sum starts from
    the first tap's product rather than from +0.0, which differs only where
    every product is -0.0; the +0.0 added on the way out turns that -0.0
    into +0.0. So every element has the bits of one full-size product per
    tap added into a zeroed output."""
    B, C, H, W = src.shape
    kh, kw = w.shape[1:]
    Wp = W + kw - 1
    L = H * Wp
    n = _block_channels(src.shape, kh, kw)
    acc, prod = np.empty((2, B * n * L), dtype=np.result_type(w, src))
    for c0, block in _padded_blocks(src, kh, kw, n):
        m = block.shape[1]
        a, t = acc[: B * m * L].reshape(B, m, L), prod[: B * m * L].reshape(B, m, L)
        wb = w[c0 : c0 + m, :, :, None]
        for k in range(kh * kw):
            u, v = divmod(k, kw)
            off = (kh - 1 - u) * Wp + kw - 1 - v if turned else u * Wp + v
            np.multiply(wb[:, u, v], block[..., off : off + L], out=t if k else a)
            if k:
                a += t
        np.add(a.reshape(B, m, H, Wp)[..., :W], 0.0, out=dst[:, c0 : c0 + m])


def depthwise_conv2d_over(a, weight):
    """The bias-free depthwise ``conv2d`` of an array ``a`` that nothing else
    holds, written over ``a``, with MACs counted as ``conv2d`` counts them."""
    _count_macs(a.size * weight.shape[2] * weight.shape[3])
    _depthwise_taps(weight[:, 0], a, a)


def _depthwise_weight_grad(x, g, kh, kw):
    """(C, 1, kh, kw) gradient of the depthwise weight: gw[c, 0, u, v] is the
    (0, 2, 3) sum of x's tap (u, v) times g. Each tap of a block of
    ``_padded_blocks`` multiplies into one contiguous (B, m, H, W) product,
    which is summed over H*W; the per-item sums are then added from +0.0 in
    item order. That is what sum(axis=(0, 2, 3)) of one full-size product
    does, so the bits hold for any number of channels per block, one
    included, and any B. (Summing a one-channel block's (B, 1) per-item sums
    in one call would be pairwise from 8 items, and differ.)"""
    B, C, H, W = x.shape
    Wp, K = W + kw - 1, kh * kw
    n = _block_channels(x.shape, kh, kw)
    gw = np.empty((C, 1, kh, kw), dtype=g.dtype)
    prod = np.empty(B * n * H * W, dtype=np.result_type(x, g))
    sums = np.empty((B, n, K), dtype=prod.dtype)
    for c0, block in _padded_blocks(x, kh, kw, n):
        m = block.shape[1]
        p, gb = prod[: B * m * H * W].reshape(B, m, H, W), g[:, c0 : c0 + m]
        for k in range(K):
            u, v = divmod(k, kw)
            tap = block[..., u * Wp + v : u * Wp + v + H * Wp].reshape(B, m, H, Wp)
            np.multiply(tap[..., :W], gb, out=p)
            np.sum(p.reshape(B, m, H * W), axis=2, out=sums[:, :m, k])
        total = np.zeros((m, K), dtype=prod.dtype)
        for b in range(B):
            total += sums[b, :m]
        gw[c0 : c0 + m, 0] = total.reshape(m, kh, kw)
    return gw


def _depthwise_conv2d(x, weight):
    """The depthwise kind. The forward, the input gradient and the weight
    gradient each pass once over the flat padded blocks of
    ``_padded_blocks``; nothing of full size is padded or multiplied."""
    (B, C, H, W), (kh, kw) = x.shape, weight.shape[2:]
    wk = weight.data[:, 0]
    out = np.empty((B, C, H, W), dtype=x.data.dtype)
    _depthwise_taps(wk, x.data, out)

    def vjp(g):
        gx = gw = None
        if weight.requires_grad:
            gw = _depthwise_weight_grad(x.data, g, kh, kw)
        if x.requires_grad:
            # each sum adds the taps a scatter of g would add, in its order,
            # so the extra +-0 border terms change no bit
            gx = np.empty((B, C, H, W), dtype=x.data.dtype)
            _depthwise_taps(wk, g, gx, turned=True)
        return gx, gw

    return out, vjp


def max_pool2d(x, kernel=2):
    """Non-overlapping max pooling (stride = kernel); gradient routes to the
    argmax of each window."""
    x = as_tensor(x)
    B, C, H, W = x.shape
    if H % kernel or W % kernel:
        raise ValueError(f"max_pool2d: size {H}x{W} not divisible by {kernel}")
    win = np.lib.stride_tricks.sliding_window_view(x.data, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::kernel, ::kernel]
    B, C, Ho, Wo, _, _ = win.shape
    flat = win.reshape(B, C, Ho, Wo, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def vjp(g):
        gx = np.zeros_like(x.data)
        bi, ci, ii, ji = np.indices((B, C, Ho, Wo))
        rows = ii * kernel + arg // kernel
        cols = ji * kernel + arg % kernel
        np.add.at(gx, (bi, ci, rows, cols), g)
        return (gx,)

    return make_op(out, (x,), vjp, "max_pool2d")


# -- bilinear resampling ---------------------------------------------------------


def _resize_matrix(n_in, n_out, dtype):
    """Row-stochastic bilinear interpolation matrix (align_corners=False)."""
    A = np.zeros((n_out, n_in), dtype=dtype)
    if n_in == 1:
        A[:, 0] = 1.0
        return A
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    p0 = np.floor(src).astype(int)
    frac = src - p0
    p1 = np.clip(p0 + 1, 0, n_in - 1)
    p0 = np.clip(p0, 0, n_in - 1)
    rows = np.arange(n_out)
    np.add.at(A, (rows, p0), 1.0 - frac)
    np.add.at(A, (rows, p1), frac)  # after p0's terms, where p1 == p0 at the edge
    return A


def bilinear_resize_raw(x, out_h, out_w):
    """Plain-numpy bilinear resize of (...,H,W); shared by ops and data aug."""
    H, W = x.shape[-2], x.shape[-1]
    dt = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    Ay = _resize_matrix(H, out_h, dt)
    Ax = _resize_matrix(W, out_w, dt)
    return np.matmul(np.matmul(Ay, x.astype(dt, copy=False)), Ax.T)


def bilinear_sampler(shape, yy, xx):
    """A function that takes bilinear samples of an (H,W) array of ``shape``
    at the float coordinates (``yy``, ``xx``), which broadcast together;
    shared by NMS and data aug. Coordinates are clamped to the pixel-center
    range [0, H-1] x [0, W-1], so a point past the border takes the edge
    value. The clamped corners and fractions are computed once, and the
    function gathers and blends one array with them, adding each corner's
    term as soon as it is made."""
    H, W = shape
    y0 = np.clip(np.floor(yy).astype(int), 0, H - 1)
    x0 = np.clip(np.floor(xx).astype(int), 0, W - 1)
    y1 = np.clip(y0 + 1, 0, H - 1)
    x1 = np.clip(x0 + 1, 0, W - 1)
    wy = np.clip(yy, 0, H - 1) - y0
    wx = np.clip(xx, 0, W - 1) - x0

    def sample(a):
        out = (1 - wy) * (1 - wx) * a[y0, x0]
        out += (1 - wy) * wx * a[y0, x1]
        out += wy * (1 - wx) * a[y1, x0]
        out += wy * wx * a[y1, x1]
        return out

    return sample


def bilinear_resize(x, out_h, out_w):
    """Differentiable bilinear resize of (...,H,W) to (...,out_h,out_w)."""
    x = as_tensor(x)
    H, W = x.shape[-2], x.shape[-1]
    if (out_h, out_w) == (H, W):  # every output samples one input pixel center
        return x
    Ay = _resize_matrix(H, out_h, x.data.dtype)
    Ax = _resize_matrix(W, out_w, x.data.dtype)
    out = np.matmul(np.matmul(Ay, x.data), Ax.T)

    def vjp(g):
        return (np.matmul(np.matmul(Ay.T, g), Ax),)

    return make_op(out, (x,), vjp, "bilinear_resize")


# -- construction helpers ----------------------------------------------------------


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=default_dtype()), requires_grad=requires_grad)


def randn(rng, shape, requires_grad=False):
    data = rng.standard_normal(shape)
    return Tensor(data.astype(default_dtype()), requires_grad=requires_grad)


def parameter(data):
    return Tensor(np.asarray(data, dtype=default_dtype()), requires_grad=True)
