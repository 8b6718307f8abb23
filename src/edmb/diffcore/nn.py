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
from .tensor import Tensor


class Module:
    def __init__(self):
        self._training = True
        self._buffers = {}

    # -- parameter / buffer registry -------------------------------------------

    def register_buffer(self, name, value):
        self._buffers[name] = np.asarray(value, dtype=T.default_dtype())

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

    def named_parameters(self, prefix=""):
        out = []
        for name, value in self.__dict__.items():
            if name.startswith("_"):
                continue
            if isinstance(value, Tensor) and value.requires_grad:
                out.append((prefix + name, value))
        for name, child in self._children():
            out.extend(child.named_parameters(prefix + name + "."))
        return out

    def named_buffers(self, prefix=""):
        out = [(prefix + k, v) for k, v in self._buffers.items()]
        for name, child in self._children():
            out.extend(child.named_buffers(prefix + name + "."))
        return out

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def param_count(self):
        return sum(p.size for p in self.parameters())

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval mode ---------------------------------------------------

    def train(self, mode=True):
        self._training = mode
        for _, child in self._children():
            child.train(mode)
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

    def _buffer_owners(self, prefix=""):
        """Flat dotted-name -> (owning module, local name) map."""
        out = {prefix + k: (self, k) for k in self._buffers}
        for name, child in self._children():
            out.update(child._buffer_owners(prefix + name + "."))
        return out

    def load_state_arrays(self, arrays):
        """Load every parameter and buffer; unknown, missing or mis-shaped
        entries raise."""
        params = dict(self.named_parameters())
        owners = self._buffer_owners()
        dt = T.default_dtype()
        seen = set()
        for key, arr in arrays.items():
            kind, _, name = key.partition(".")
            if kind == "param":
                if name not in params:
                    raise KeyError(f"unknown parameter {name!r} in state")
                p = params[name]
                if tuple(arr.shape) != p.shape:
                    raise ValueError(
                        f"parameter {name!r}: shape {arr.shape} != model {p.shape}"
                    )
                p.data = np.ascontiguousarray(arr, dtype=dt)
            elif kind == "buffer":
                if name not in owners:
                    raise KeyError(f"unknown buffer {name!r} in state")
                mod, local = owners[name]
                mod.set_buffer(local, arr)
            seen.add(key)
        expected = {"param." + n for n in params} | {"buffer." + n for n in owners}
        missing = expected - seen
        if missing:
            raise KeyError(f"state is missing entries: {sorted(missing)[:4]} ...")


class Linear(Module):
    def __init__(self, in_dim, out_dim, rng, zero_init=False):
        super().__init__()
        if zero_init:
            w = np.zeros((in_dim, out_dim))
        else:
            s = 1.0 / math.sqrt(in_dim)
            w = rng.standard_normal((in_dim, out_dim)) * s
        self.weight = T.parameter(w)
        self.bias = T.parameter(np.zeros(out_dim))

    def __call__(self, x):
        return T.add(T.matmul(x, self.weight), self.bias)


class Conv2d(Module):
    """Stride-1 convolution with "same" padding and He-normal weights."""

    def __init__(self, in_ch, out_ch, kernel, rng, groups=1, bias=True):
        super().__init__()
        self.padding = kernel // 2
        self.groups = groups
        fan_in = (in_ch // groups) * kernel * kernel
        s = math.sqrt(2.0 / fan_in)
        w = rng.standard_normal((out_ch, in_ch // groups, kernel, kernel)) * s
        self.weight = T.parameter(w)
        self.bias = T.parameter(np.zeros(out_ch)) if bias else None

    def __call__(self, x):
        return T.conv2d(x, self.weight, self.bias, 1, self.padding, self.groups)


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
    """Per-channel batch normalization with running statistics.

    Training batches of size 1 fall back to per-channel group normalization
    (statistics over H,W of the single item); evaluation always uses the
    running statistics, so inference is batch-size independent.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, channels):
        super().__init__()
        self.gamma = T.parameter(np.ones(channels))
        self.beta = T.parameter(np.zeros(channels))
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))

    def __call__(self, x):
        B = x.shape[0]
        c_shape = (1, x.shape[1], 1, 1)
        if self.training:
            axes = (0, 2, 3) if B > 1 else (2, 3)
            mu = T.tmean(x, axis=axes, keepdims=True)
            xc = T.sub(x, mu)
            var = T.tmean(T.mul(xc, xc), axis=axes, keepdims=True)
            if B > 1:
                m = self.momentum
                self.set_buffer(
                    "running_mean",
                    (1 - m) * self.buffer("running_mean") + m * mu.data.reshape(-1),
                )
                self.set_buffer(
                    "running_var",
                    (1 - m) * self.buffer("running_var") + m * var.data.reshape(-1),
                )
        else:
            mu = Tensor(self.buffer("running_mean").reshape(c_shape))
            xc = T.sub(x, mu)
            var = Tensor(self.buffer("running_var").reshape(c_shape))
        inv = T.pow_const(T.add(var, self.eps), -0.5)
        out = T.mul(T.mul(xc, inv), T.reshape(self.gamma, c_shape))
        return T.add(out, T.reshape(self.beta, c_shape))


class ConvNormRelu(Module):
    """3x3 conv + per-channel norm + ReLU, the workhorse head block.

    No conv bias: the following norm would cancel it exactly.
    """

    def __init__(self, in_ch, out_ch, rng):
        super().__init__()
        self.conv = Conv2d(in_ch, out_ch, 3, rng, bias=False)
        self.norm = Norm2d(out_ch)

    def __call__(self, x):
        return T.relu(self.norm(self.conv(x)))
