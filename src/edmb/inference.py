"""Edge-map generation: distribution prediction and granularity sampling.

A trained model yields a per-pixel Gaussian (mu, var) over edge logits.
A single scalar gamma shifts the logit by gamma * var before the sigmoid,
so larger gamma monotonically brightens every pixel; sweeping gamma yields
the multi-granularity edge family.
"""

from __future__ import annotations

import os

import numpy as np
from scipy.special import expit

from . import diffcore as dc
from . import netpbm
from .decoder import EdgeDistribution
from .diffcore.tensor import Tensor
from .pipeline import stage_outputs


def default_gammas():
    """The standard 11-point sweep: n/2 - 5 for n = 0..10."""
    return [n / 2.0 - 5.0 for n in range(11)]


def predict_distribution(model, image) -> EdgeDistribution:
    """Eval-mode (mu, var) at input resolution; auxiliary heads are skipped.

    Inputs whose sides are not multiples of 32 are reflection-padded on the
    bottom/right and the outputs cropped back.
    """
    if isinstance(image, Tensor):
        image = image.data
    arr = np.asarray(image, dtype=dc.default_dtype())
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4 or arr.shape[1] != 3:
        raise ValueError(f"predict_distribution: expected (3,H,W) image, got {arr.shape}")
    was_training = model.training
    model.eval()
    try:
        with dc.no_grad():
            return stage_outputs(model, arr, "fine", include_aux=False)
    finally:
        model.train(was_training)


def sample_granularity(dist: EdgeDistribution, gamma):
    """Edge probability map sigmoid(mu + gamma * var) as a numpy array."""
    mu = dist.mu.data if isinstance(dist.mu, Tensor) else np.asarray(dist.mu)
    var = dist.var.data if isinstance(dist.var, Tensor) else np.asarray(dist.var)
    logits = mu + gamma * var if gamma != 0.0 else mu
    out = expit(logits)
    return out.reshape(out.shape[-2], out.shape[-1])


def granularity_sweep(dist: EdgeDistribution, gammas, out_dir, image_id="edge"):
    """Write one quantized PGM per gamma; returns the paths in gamma order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for gamma in gammas:
        p = sample_granularity(dist, gamma)
        path = os.path.join(out_dir, f"{image_id}_g{gamma:g}.pgm")
        try:
            netpbm.write_pgm(path, p)
        except OSError as exc:
            raise OSError(f"failed writing sweep map {path}: {exc}") from exc
        paths.append(path)
    return paths


def parse_gamma_range(text):
    """Parse 'start:step:count' into a gamma list (e.g. -5:0.5:11)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"gamma range must be start:step:count, got {text!r}")
    start, step_, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("gamma range count must be >= 1")
    return [start + i * step_ for i in range(count)]
