"""Minimal layer library on top of the autodiff core.

Modules hold parameters (tensors with ``requires_grad=True``) and buffers
(plain state such as normalization running statistics). Parameter discovery
walks attributes in insertion order, so naming and checkpoint layout are
deterministic for a given architecture.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .io import FormatError
from .tensor import Tensor


class Module:
    """A node of the module tree. ``named_modules`` is the one walk of it:
    parameters, buffers, the mode and state loading share its names and order."""

    def __init__(self):
        self._training = True
        self._buffers = {}

    # -- parameter / buffer registry -------------------------------------------

    def buffer(self, name):
        return self._buffers[name]

    def set_buffer(self, name, value):
        self._buffers[name] = np.asarray(value, dtype=T.default_dtype())

    def _children(self):
        for name, value in self.__dict__.items():
            if name.startswith("_"):
                continue
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def named_modules(self, prefix=""):
        """(dotted prefix, module) for this module and every sub-module in
        pre-order; the prefix, "" for this module, is what the names of the
        module's parameters and buffers start with."""
        yield prefix, self
        for name, child in self._children():
            yield from child.named_modules(prefix + name + ".")

    def named_parameters(self):
        return [(prefix + name, value)
                for prefix, m in self.named_modules()
                for name, value in m.__dict__.items()
                if not name.startswith("_") and isinstance(value, Tensor) and value.requires_grad]

    def named_buffers(self):
        return [(prefix + k, v) for prefix, m in self.named_modules() for k, v in m._buffers.items()]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def param_count(self):
        return sum(p.size for p in self.parameters())

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval mode ---------------------------------------------------

    def train(self, mode=True):
        for _, m in self.named_modules():
            m._training = mode
        return self

    def eval(self):
        return self.train(False)

    @property
    def training(self):
        return self._training

    # -- state I/O -------------------------------------------------------------

    def state_arrays(self):
        """Flat name -> float32 array map of parameters and buffers."""
        out = {}
        for name, p in self.named_parameters():
            out["param." + name] = p.data.astype(np.float32)
        for name, b in self.named_buffers():
            out["buffer." + name] = b.astype(np.float32)
        return out

    def load_state_arrays(self, arrays):
        """Load every parameter and buffer; an unknown, missing or mis-shaped
        entry raises FormatError naming it, before any entry is loaded."""
        params = dict(self.named_parameters())
        owners = {prefix + k: (m, k) for prefix, m in self.named_modules() for k in m._buffers}
        shapes = {**{"param." + n: p.shape for n, p in params.items()},
                  **{"buffer." + n: m.buffer(k).shape for n, (m, k) in owners.items()}}
        dt = T.default_dtype()
        for key, arr in arrays.items():
            if key not in shapes:
                raise FormatError(f"unknown entry {key!r} in state")
            if tuple(arr.shape) != shapes[key]:
                raise FormatError(f"state entry {key!r}: shape {arr.shape} != model {shapes[key]}")
        missing = sorted(shapes.keys() - arrays.keys())
        if missing:
            raise FormatError(f"state is missing entry {missing[0]!r}"
                              + (f" and {len(missing) - 1} more" if len(missing) > 1 else ""))
        for key, arr in arrays.items():
            kind, _, name = key.partition(".")
            if kind == "param":
                params[name].data = np.ascontiguousarray(arr, dtype=dt)
            else:
                mod, local = owners[name]
                mod.set_buffer(local, arr)


class Linear(Module):
    def __init__(self, in_dim, out_dim, rng):
        super().__init__()
        w = rng.standard_normal((in_dim, out_dim)) * (1.0 / math.sqrt(in_dim))
        self.weight = T.parameter(w)
        self.bias = T.parameter(np.zeros(out_dim))

    def __call__(self, x):
        return T.add(T.matmul(x, self.weight), self.bias)


class Conv2d(Module):
    """Stride-1 convolution with "same" padding, ``conv2d``'s one geometry,
    and He-normal weights."""

    def __init__(self, in_ch, out_ch, kernel, rng, groups=1, bias=True):
        super().__init__()
        self.groups = groups
        fan_in = (in_ch // groups) * kernel * kernel
        s = math.sqrt(2.0 / fan_in)
        w = rng.standard_normal((out_ch, in_ch // groups, kernel, kernel)) * s
        self.weight = T.parameter(w)
        self.bias = T.parameter(np.zeros(out_ch)) if bias else None

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, groups=self.groups)


class LayerNorm(Module):
    """Normalization over the trailing feature dimension, with affine."""

    eps = 1e-5

    def __init__(self, dim):
        super().__init__()
        self.gamma = T.parameter(np.ones(dim))
        self.beta = T.parameter(np.zeros(dim))

    def __call__(self, x):
        mu = T.tmean(x, axis=-1, keepdims=True)
        xc = T.sub(x, mu)
        var = T.tmean(T.mul(xc, xc), axis=-1, keepdims=True)
        inv = T.pow_const(T.add(var, self.eps), -0.5)
        return T.add(T.mul(T.mul(xc, inv), self.gamma), self.beta)


class Norm2d(Module):
    """Per-channel batch normalization with running statistics, optionally
    followed by a ReLU in the same op.

    Training normalizes with the batch's statistics over (B, H, W) and moves
    the running statistics, except that a one-item batch leaves them as they
    are; evaluation always uses the running statistics, so inference is
    batch-size independent. One op in every mode, with the bits
    of ``((x - mu) * inv) * gamma + beta`` and, with ``relu``, of
    ``T.relu`` applied to that. One forward path whether or not a gradient
    follows: training writes the output over x - mu, evaluation subtracts
    the running mean per block, and the adjoint rebuilds x - mu from x.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels, relu=False):
        super().__init__()
        self.relu = relu
        self.gamma = T.parameter(np.ones(channels))
        self.beta = T.parameter(np.zeros(channels))
        self.set_buffer("running_mean", np.zeros(channels))
        self.set_buffer("running_var", np.ones(channels))

    def __call__(self, x):
        x, dt = T.as_tensor(x), T.default_dtype()
        c_shape = (1, x.shape[1], 1, 1)
        gamma, beta = self.gamma.data.reshape(c_shape), self.beta.data.reshape(c_shape)
        relu, batch = self.relu, self.training
        if batch:
            c = np.asarray(1.0 / (x.shape[0] * x.shape[2] * x.shape[3]), dtype=dt)
            mu = x.data.sum(axis=(0, 2, 3), keepdims=True) * c
            xc = x.data - mu
            var = (xc * xc).sum(axis=(0, 2, 3), keepdims=True) * c
            if x.shape[0] > 1:
                m = self.momentum
                self.set_buffer("running_mean", (1 - m) * self.buffer("running_mean") + m * mu.reshape(-1))
                self.set_buffer("running_var", (1 - m) * self.buffer("running_var") + m * var.reshape(-1))
            ve = var + np.asarray(self.eps, dtype=dt)
            inv = ve**-0.5
            out = _norm_epilogue(xc, None, inv, gamma, beta, relu, xc)  # the output overwrites xc
        else:
            out = np.empty_like(x.data)
            mu, inv = self.eval_into(x.data, out)

        def vjp(g):
            # one scratch buffer takes each full-size product in turn; every
            # element is computed as in the plain expressions in the comments
            buf, xc = np.empty_like(g), x.data - mu  # xc rebuilt from the input
            if relu:
                np.greater(out, 0, out=buf)
                g = g * buf  # g * (out > 0)
            np.multiply(g, gamma, out=buf)  # ggam = g * gamma
            gx = buf * inv if x.requires_grad else None
            if gx is not None and batch:
                # the two xc paths of the variance, then the mean's path:
                # s = ((sum(ggam * xc) * -0.5) * ve**-1.5 * c) * xc
                buf *= xc
                np.multiply((T._unbroadcast(buf, c_shape) * -0.5) * ve**-1.5 * c, xc, out=buf)
                gx += buf
                gx += buf
                gx += -T._unbroadcast(gx, c_shape) * c
            gg = None
            if self.gamma.requires_grad:
                np.multiply(xc, inv, out=buf)  # xhat
                buf *= g
                gg = T._unbroadcast(buf, c_shape).reshape(-1)
            gb = T._unbroadcast(g, c_shape).reshape(-1) if self.beta.requires_grad else None
            return gx, gg, gb

        return T.make_op(out, (x, self.gamma, self.beta), vjp, "norm2d")

    def eval_into(self, src, out):
        """Evaluation mode's output for the array ``src``, written into
        ``out``, which may be ``src``; returns the (mu, inv) the adjoint reads."""
        dt, c_shape = T.default_dtype(), (1, src.shape[1], 1, 1)
        mu = np.asarray(self.buffer("running_mean"), dtype=dt).reshape(c_shape)
        var = np.asarray(self.buffer("running_var"), dtype=dt).reshape(c_shape)
        inv = (var + np.asarray(self.eps, dtype=dt)) ** -0.5
        _norm_epilogue(src, mu, inv, self.gamma.data.reshape(c_shape),
                       self.beta.data.reshape(c_shape), self.relu, out)
        return mu, inv


def _norm_epilogue(src, mu, inv, gamma, beta, relu, out):
    """out = ((src - mu) * inv) * gamma + beta, then ``T.relu``'s max(., 0)
    and += 0 if ``relu``; ``mu`` None skips the subtraction. ``out`` may be
    ``src``. Runs per block of ~64K elements, so each block stays in cache
    through the whole chain; every element keeps the bits of the full-size
    passes."""
    B, C, H, W = src.shape
    cb = max(1, (1 << 16) // (H * W))
    for b in range(B):
        for c0 in range(0, C, cb):
            ch = slice(c0, c0 + cb)
            o = out[b : b + 1, ch]
            if mu is None:
                np.multiply(src[b : b + 1, ch], inv[:, ch], out=o)
            else:
                np.subtract(src[b : b + 1, ch], mu[:, ch], out=o)
                o *= inv[:, ch]
            o *= gamma[:, ch]
            o += beta[:, ch]
            if relu:
                np.fmax(o, 0, out=o)
                o += 0
    return out


class ConvNormRelu(Module):
    """3x3 conv + per-channel norm + ReLU, the workhorse head block.

    No conv bias: the following norm would cancel it exactly.
    """

    def __init__(self, in_ch, out_ch, rng):
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, 3, rng, bias=False)
        self.norm = Norm2d(out_ch, relu=True)

    def __call__(self, x):
        return self.norm(self.conv(x))
