"""Training objectives: closed-form KL against the standard normal,
class-balanced weighted cross-entropy, their ELBO composition, and the
two stage losses with reparameterized sampling.

Cross-entropy weights are computed per image over non-ignored pixels with
the class-balanced convention: positives weighted |Y-|/|Y|, negatives
lambda*|Y+|/|Y| (a ``literal_weights`` switch preserves the transposed
printed form). The KL term is averaged per pixel; the weighted cross-entropy
already carries a 1/|Y| inside its weights.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore.tensor import Tensor


@dataclass
class LossConfig:
    lam: float = 1.1          # positive/negative balance
    varphi: float = 1.0       # KL weight
    alpha2: float = 0.4       # auxiliary ELBO weight
    eps: float = 1e-6         # probability and variance clamp
    literal_weights: bool = False

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.varphi < 0 or self.alpha2 < 0:
            raise ValueError("varphi and alpha2 must be non-negative")
        if not 0 < self.eps <= 1e-3:
            raise ValueError("eps must lie in (0, 1e-3]")


def kl_loss(mu, var, eps=1e-6):
    """Per-pixel mean of KL(N(mu, var) || N(0, 1)) in closed form.

    0.5 * (mu^2 + var - log var - 1) per pixel; var is clamped below at eps.
    """
    mu, var = dc.as_tensor(mu), dc.as_tensor(var)
    vc = dc.clamp_min(var, eps)
    if np.any(vc.data <= 0):
        raise ValueError("kl_loss: variance must be positive after clamping")
    terms = dc.sub(dc.add(dc.mul(mu, mu), vc), dc.add(dc.log(vc), 1.0))
    return dc.mul(dc.tmean(terms), 0.5)


def _as_batched(arr, name):
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 2:
        a = a[None]
    elif a.ndim == 3:
        pass
    elif a.ndim == 4:
        a = a.reshape(a.shape[0], a.shape[2], a.shape[3])
    else:
        raise ValueError(f"{name}: expected (H,W), (B,H,W) or (B,1,H,W), got {a.shape}")
    return a


def wce_weight_maps(y, mask, cfg):
    """Per-image coefficient maps for the positive and negative log terms."""
    y_b = _as_batched(y, "labels")
    m_b = _as_batched(mask, "mask") if mask is not None else np.ones_like(y_b)
    if y_b.shape != m_b.shape:
        raise ValueError(f"labels {y_b.shape} and mask {m_b.shape} disagree")
    B = y_b.shape[0]
    cpos = np.zeros_like(y_b)
    cneg = np.zeros_like(y_b)
    empty = 0
    for b in range(B):
        yb, mb = y_b[b], m_b[b]
        n_pos = float((yb * mb).sum())
        n_neg = float(((1.0 - yb) * mb).sum())
        n = n_pos + n_neg
        if n == 0:
            empty += 1
            continue
        if cfg.literal_weights:
            w_pos, w_neg = n_pos / n, cfg.lam * n_neg / n
        else:
            w_pos, w_neg = n_neg / n, cfg.lam * n_pos / n
        cpos[b] = w_pos * yb * mb
        cneg[b] = w_neg * (1.0 - yb) * mb
    if empty == B:
        warnings.warn("wce_loss: no non-ignored pixels; loss is zero")
    return cpos, cneg, B


def wce_loss(p, y, mask, cfg):
    """Class-balanced weighted cross-entropy, averaged over batch images.

    ``p`` holds probabilities in (0,1) (clamped to [eps, 1-eps]); ``y`` holds
    binary labels; ``mask`` zeroes ignored pixels and excludes them from the
    |Y+| / |Y-| counts.
    """
    p = dc.as_tensor(p)
    cpos, cneg, B = wce_weight_maps(y, mask, cfg)
    n_pix = cpos.shape[1] * cpos.shape[2]
    if p.size != B * n_pix:
        raise ValueError(f"prediction shape {p.shape} does not match labels {cpos.shape}")
    pc = dc.clamp(dc.reshape(p, (B, n_pix)), cfg.eps, 1.0 - cfg.eps)
    pos_term = dc.tsum(dc.mul(Tensor(cpos.reshape(B, n_pix) / B), dc.log(pc)))
    neg_term = dc.tsum(dc.mul(Tensor(cneg.reshape(B, n_pix) / B), dc.log(dc.sub(1.0, pc))))
    return dc.neg(dc.add(pos_term, neg_term))


def sample_reparam(mu, var, rng):
    """Reparameterized draw pushed through a sigmoid: sigmoid(mu + e*sqrt(var)).

    Differentiable in mu and var; deterministic for a fixed generator state.
    """
    mu, var = dc.as_tensor(mu), dc.as_tensor(var)
    noise = Tensor(rng.standard_normal(mu.shape))
    pre = dc.add(mu, dc.mul(noise, dc.sqrt(var)))
    return dc.sigmoid(pre)


def elbo_loss(p, y, mask, mu, var, cfg):
    """Weighted cross-entropy plus varphi-weighted KL to the standard normal."""
    data = wce_loss(p, y, mask, cfg)
    if cfg.varphi == 0:
        return data
    return dc.add(data, dc.mul(kl_loss(mu, var, cfg.eps), cfg.varphi))


def stage_losses(outputs, y, mask, cfg, stage, rng=None):
    """Stage objectives: the global stage supervises the direct edge
    probability with WCE; the fine stage sums the main ELBO and the
    alpha2-weighted auxiliary ELBO, each drawing its own sample."""
    if stage == "global":
        if outputs.aux_p is None:
            raise ValueError("global stage needs the aux edge probability output")
        return wce_loss(outputs.aux_p, y, mask, cfg)
    if stage == "fine":
        if outputs.mu is None or outputs.var is None:
            raise ValueError("fine stage needs the mean/variance outputs")
        if rng is None:
            raise ValueError("fine stage sampling needs an rng")
        p = sample_reparam(outputs.mu, outputs.var, rng)
        total = elbo_loss(p, y, mask, outputs.mu, outputs.var, cfg)
        if cfg.alpha2 > 0:
            if outputs.aux_mu is None or outputs.aux_var is None:
                raise ValueError("fine stage with alpha2 > 0 needs auxiliary outputs")
            p_a = sample_reparam(outputs.aux_mu, outputs.aux_var, rng)
            aux = elbo_loss(p_a, y, mask, outputs.aux_mu, outputs.aux_var, cfg)
            total = dc.add(total, dc.mul(aux, cfg.alpha2))
        return total
    raise ValueError(f"unknown stage {stage!r}; expected 'global' or 'fine'")
