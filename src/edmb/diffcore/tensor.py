"""Dense-array reverse-mode autodiff core.

A Tensor wraps a numpy array plus an optional gradient buffer. Operations
record their inputs and a vector-Jacobian closure; ``backward`` replays the
recorded graph once in reverse topological order and accumulates gradients
into every reachable tensor with ``requires_grad``. Arithmetic runs in 32-bit
by default; switch to 64-bit (``precision("float64")``) for verification.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
from scipy.special import expit

_state = threading.local()


def _st():
    if not hasattr(_state, "dtype"):
        _state.dtype = np.float32
        _state.grad_enabled = True
    return _state


def default_dtype():
    return _st().dtype


def set_default_dtype(dtype):
    """Set the arithmetic dtype ('float32' or 'float64') for new tensors."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
    _st().dtype = dt.type


@contextlib.contextmanager
def precision(dtype):
    """Temporarily switch the default dtype (e.g. 'float64' for fd checks)."""
    st = _st()
    prev = st.dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        st.dtype = prev


def grad_enabled():
    return _st().grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; forward values are unchanged."""
    st = _st()
    prev = st.grad_enabled
    st.grad_enabled = False
    try:
        yield
    finally:
        st.grad_enabled = prev


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

    def numpy(self):
        return self.data

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op!r}, requires_grad={self.requires_grad})"

    # -- operators ------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        backward(self)


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
                parent.grad = np.zeros_like(parent.data)
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


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return make_op(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
            if b.requires_grad else None,
        ),
        "div",
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
    mask = a.data > 0
    return make_op(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,), "relu")


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
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
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
    """Differentiable slice of ``length`` elements from ``start`` along ``axis``."""
    a = as_tensor(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        out = np.zeros_like(a.data)
        out[idx] = g
        return (out,)

    return make_op(a.data[idx].copy(), (a,), vjp, "narrow")


def matmul(a, b):
    """Matrix product with numpy batching rules on the leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    count_matmul_macs(a.shape, b.shape)

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return (ga, gb)

    return make_op(np.matmul(a.data, b.data), (a, b), vjp, "matmul")


# -- convolution ------------------------------------------------------------------

_mac_counter = threading.local()


def profile_macs_start():
    _mac_counter.count = 0
    _mac_counter.active = True


def profile_macs_stop():
    _mac_counter.active = False
    return int(getattr(_mac_counter, "count", 0))


def _count_macs(n):
    if getattr(_mac_counter, "active", False):
        _mac_counter.count += int(n)


def count_matmul_macs(a_shape, b_shape):
    # (..., m, k) @ (..., k, n): batch * m * k * n
    m, k = a_shape[-2], a_shape[-1]
    n = b_shape[-1]
    batch = 1
    for d in np.broadcast_shapes(a_shape[:-2], b_shape[:-2]):
        batch *= d
    _count_macs(batch * m * k * n)


def _conv_out_size(H, k, stride, pad):
    num = H + 2 * pad - k
    if num % stride != 0:
        raise ValueError(
            f"conv2d: spatial size {H} with kernel {k}, stride {stride}, pad {pad} "
            f"does not tile evenly"
        )
    return num // stride + 1


def _im2col(x, kh, kw, stride, pad):
    """(B, Ho*Wo, C*kh*kw) patch rows, columns ordered (C, kh, kw)."""
    ph, pw = (pad, pad) if isinstance(pad, int) else pad
    B, C, H, W = x.shape
    Ho = (H + 2 * ph - kh) // stride + 1
    Wo = (W + 2 * pw - kw) // stride + 1
    # channels-last copy, then one strided slice per kernel tap, filled in
    # blocks of output rows (~512 KB) that stay in cache across the taps;
    # much faster than one copy out of the 6-D sliding-window view
    xt = np.zeros((B, H + 2 * ph, W + 2 * pw, C), dtype=x.dtype)
    xt[:, ph : ph + H, pw : pw + W] = x.transpose(0, 2, 3, 1)
    cols = np.empty((B, Ho, Wo, C, kh, kw), dtype=x.dtype)
    rows = max(1, (1 << 17) // (Wo * C * kh * kw))
    for b in range(B):
        for i0 in range(0, Ho, rows):
            i1 = min(Ho, i0 + rows)
            block = cols[b, i0:i1]
            for u in range(kh):
                r0, r1 = u + stride * i0, u + stride * i1
                for v in range(kw):
                    block[..., u, v] = xt[b, r0:r1:stride, v : v + stride * Wo : stride]
    return cols.reshape(B, Ho * Wo, C * kh * kw), Ho, Wo


def _conv2d_dense_raw(x, w, stride, pad):
    Co, C, kh, kw = w.shape
    cols, Ho, Wo = _im2col(x, kh, kw, stride, pad)
    out = cols @ w.reshape(Co, -1).T  # (B, L, Co)
    B = x.shape[0]
    return out.transpose(0, 2, 1).reshape(B, Co, Ho, Wo), cols


def _dilate(g, stride):
    if stride == 1:
        return g
    B, C, H, W = g.shape
    out = np.zeros((B, C, (H - 1) * stride + 1, (W - 1) * stride + 1), dtype=g.dtype)
    out[:, :, ::stride, ::stride] = g
    return out


def conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    """2-D cross-correlation.

    ``x``: (B,C,H,W); ``weight``: (Co, C/groups, kh, kw) with odd kh, kw;
    ``bias``: (Co,) or None. groups is 1 (dense) or C==Co (depthwise).
    """
    x, weight = as_tensor(x), as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None
    if x.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-D (B,C,H,W), got {x.shape}")
    Co, Cw, kh, kw = weight.shape
    B, C, H, W = x.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d: kernel must be odd, got {kh}x{kw}")
    if padding < 0:
        raise ValueError("conv2d: padding must be >= 0")
    Ho = _conv_out_size(H, kh, stride, padding)
    Wo = _conv_out_size(W, kw, stride, padding)

    if groups == 1:
        if Cw != C:
            raise ValueError(
                f"conv2d: weight in-channels {Cw} != input channels {C}"
            )
        _count_macs(B * Ho * Wo * Co * C * kh * kw)
        if kh == kw == 1 and stride == 1 and padding == 0:
            return _conv2d_1x1(x, weight, bias)
        out, cols = _conv2d_dense_raw(x.data, weight.data, stride, padding)
        if bias is not None:
            out = out + bias.data.reshape(1, Co, 1, 1)

        def vjp(g):
            gx = gw = None
            if x.requires_grad:
                # correlate the dilated grad with the channel-swapped flipped kernel
                gd = _dilate(g, stride)
                wfl = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
                gx, _ = _conv2d_dense_raw(
                    gd, np.ascontiguousarray(wfl), 1, (kh - 1 - padding, kw - 1 - padding)
                )
                gx = gx[:, :, :H, :W]
            if weight.requires_grad:
                g2 = g.reshape(B, Co, Ho * Wo)
                gw = np.matmul(g2, cols).sum(axis=0).reshape(weight.shape)
            gb = g.sum(axis=(0, 2, 3)) if bias is not None else None
            return (gx, gw, gb) if bias is not None else (gx, gw)

        parents = (x, weight, bias) if bias is not None else (x, weight)
        return make_op(out, parents, vjp, "conv2d")
    if groups == C and Co == C and Cw == 1:
        return _depthwise_conv2d(x, weight, bias, stride, padding, H, W, Ho, Wo)
    raise ValueError(f"conv2d: unsupported groups={groups} for C={C}, Co={Co}")


def _conv2d_1x1(x, weight, bias):
    B, C, H, W = x.shape
    Co = weight.shape[0]
    wmat = weight.data.reshape(Co, C)
    out = np.matmul(wmat, x.data.reshape(B, C, H * W)).reshape(B, Co, H, W)
    if bias is not None:
        out = out + bias.data.reshape(1, Co, 1, 1)

    def vjp(g):
        g2 = g.reshape(B, Co, H * W)
        gx = np.matmul(wmat.T, g2).reshape(B, C, H, W) if x.requires_grad else None
        gw = None
        if weight.requires_grad:
            xt = x.data.reshape(B, C, H * W).transpose(0, 2, 1)
            gw = np.matmul(g2, xt).sum(axis=0).reshape(weight.shape)
        gb = g.sum(axis=(0, 2, 3)) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return make_op(out, parents, vjp, "conv2d")


def _depthwise_conv2d(x, weight, bias, stride, pad, H, W, Ho, Wo):
    # shift-and-accumulate over the kernel taps; contiguous slices beat
    # einsum over 6-D strided views by a wide margin at these sizes
    B, C, _, _ = x.shape
    _, _, kh, kw = weight.shape
    if stride != 1:
        raise ValueError("depthwise conv2d supports stride 1 only")
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x.data
    wk = weight.data[:, 0]  # (C,kh,kw)
    out = np.zeros((B, C, Ho, Wo), dtype=x.data.dtype)
    for u in range(kh):
        for v in range(kw):
            out += wk[:, u, v].reshape(1, C, 1, 1) * xp[:, :, u : u + Ho, v : v + Wo]
    if bias is not None:
        out += bias.data.reshape(1, C, 1, 1)
    _count_macs(B * Ho * Wo * C * kh * kw)

    def vjp(g):
        gw = np.empty((C, 1, kh, kw), dtype=g.dtype)
        gxp = np.zeros_like(xp)
        for u in range(kh):
            for v in range(kw):
                patch = xp[:, :, u : u + Ho, v : v + Wo]
                gw[:, 0, u, v] = (patch * g).sum(axis=(0, 2, 3))
                gxp[:, :, u : u + Ho, v : v + Wo] += wk[:, u, v].reshape(1, C, 1, 1) * g
        gx = gxp[:, :, pad : pad + H, pad : pad + W] if pad else gxp
        gb = g.sum(axis=(0, 2, 3)) if bias is not None else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return make_op(out, parents, vjp, "conv2d")


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
    for i in range(n_out):
        A[i, p0[i]] += 1.0 - frac[i]
        A[i, p1[i]] += frac[i]
    return A


def bilinear_resize_raw(x, out_h, out_w):
    """Plain-numpy bilinear resize of (...,H,W); shared by ops and data aug."""
    H, W = x.shape[-2], x.shape[-1]
    dt = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
    Ay = _resize_matrix(H, out_h, dt)
    Ax = _resize_matrix(W, out_w, dt)
    return np.matmul(np.matmul(Ay, x.astype(dt, copy=False)), Ax.T)


def bilinear_resize(x, out_h, out_w):
    """Differentiable bilinear resize of (...,H,W) to (...,out_h,out_w)."""
    x = as_tensor(x)
    H, W = x.shape[-2], x.shape[-1]
    Ay = _resize_matrix(H, out_h, x.data.dtype)
    Ax = _resize_matrix(W, out_w, x.data.dtype)
    out = np.matmul(np.matmul(Ay, x.data), Ax.T)

    def vjp(g):
        return (np.matmul(np.matmul(Ay.T, g), Ax),)

    return make_op(out, (x,), vjp, "bilinear_resize")


def bilinear_upsample(x, factor):
    """Integer-factor bilinear upsampling of (B,C,H,W)."""
    if factor < 1:
        raise ValueError(f"bilinear_upsample: factor must be >= 1, got {factor}")
    x = as_tensor(x)
    if int(factor) == 1:
        return x
    H, W = x.shape[-2], x.shape[-1]
    return bilinear_resize(x, H * int(factor), W * int(factor))


# -- construction helpers ----------------------------------------------------------


def zeros(shape, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=default_dtype()), requires_grad=requires_grad)


def ones(shape, requires_grad=False):
    return Tensor(np.ones(shape, dtype=default_dtype()), requires_grad=requires_grad)


def randn(rng, shape, requires_grad=False):
    data = rng.standard_normal(shape)
    return Tensor(data.astype(default_dtype()), requires_grad=requires_grad)


def parameter(data):
    return Tensor(np.asarray(data, dtype=default_dtype()), requires_grad=True)
