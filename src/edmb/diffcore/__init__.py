"""Numerical core: tensors, reverse-mode autodiff, layers, verification."""

from .tensor import (
    Tensor,
    add,
    as_tensor,
    backward,
    bilinear_resize,
    bilinear_resize_raw,
    clamp,
    clamp_min,
    concat,
    conv2d,
    default_dtype,
    exp,
    flip,
    grad_enabled,
    log,
    make_op,
    matmul,
    max_pool2d,
    mul,
    narrow,
    neg,
    no_grad,
    parameter,
    pow_const,
    precision,
    profile_macs_start,
    profile_macs_stop,
    randn,
    relu,
    reshape,
    sigmoid,
    softplus,
    sqrt,
    sub,
    tmean,
    topo_order,
    transpose,
    tsum,
    zeros,
)
from .fdcheck import finite_diff_check
from .io import FormatError, TENSOR_MAGIC, read_tensor, write_tensor
from . import nn

__all__ = [name for name in dir() if not name.startswith("_")]
