"""Learnable-Gaussian decoder: cascaded feature fusion to full resolution,
spatial feature transform conditioning, and the mean / variance / edge heads.

Three fusion cascades produce a high-resolution global map (the guide), a
fine-grained mean map, and a fine-grained variance map. The guide modulates
both fine branches through affine transforms predicted from it; softplus on
the variance heads keeps every variance non-negative. The direct edge head
reads the guide and supervises the global stage; the auxiliary mean and
variance heads read the fine maps directly and supervise the fine stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import diffcore as dc
from .diffcore import nn
from .diffcore.tensor import Tensor


@dataclass
class EdgeDistribution:
    """Per-pixel Gaussian over edge logits plus auxiliary training outputs."""

    mu: Tensor
    var: Tensor
    aux_p: Optional[Tensor] = None
    aux_mu: Optional[Tensor] = None
    aux_var: Optional[Tensor] = None


class MBConv(nn.Module):
    """Inverted-bottleneck fuse: 1x1 expand, 3x3 depthwise, 1x1 project.

    Hidden width is 4x the output width to keep the expansion bounded for
    wide concatenated inputs; residual applies when in/out shapes match.
    """

    def __init__(self, in_ch, out_ch, rng):
        super().__init__()
        hidden = 4 * out_ch
        self.residual = in_ch == out_ch
        self.expand = nn.Conv2d(in_ch, hidden, 1, rng, bias=False)
        self.norm1 = nn.Norm2d(hidden)
        self.depthwise = nn.Conv2d(hidden, hidden, 3, rng, groups=hidden, bias=False)
        self.norm2 = nn.Norm2d(hidden)
        self.project = nn.Conv2d(hidden, out_ch, 1, rng, bias=False)
        self.norm3 = nn.Norm2d(out_ch)

    def __call__(self, x):
        y = dc.relu(self.norm1(self.expand(x)))
        y = dc.relu(self.norm2(self.depthwise(y)))
        y = self.norm3(self.project(y))
        if self.residual:
            y = dc.add(y, x)
        return y


class CFF(nn.Module):
    """Cascaded feature fusion: repeatedly upsample the running map to the
    next finer level's size, join that level channelwise, and fuse; returns
    the result at the finest level's size. Levels arrive coarse to fine,
    each an integer factor larger than the one before."""

    def __init__(self, level_channels, out_ch, rng):
        super().__init__()
        self.fuses = []
        cur = level_channels[0]
        for ch in level_channels[1:]:
            self.fuses.append(MBConv(cur + ch, out_ch, rng))
            cur = out_ch

    def __call__(self, maps):
        if len(maps) != len(self.fuses) + 1:
            raise ValueError(f"expected {len(self.fuses) + 1} levels, got {len(maps)}")
        current = maps[0]
        for fuse, finer in zip(self.fuses, maps[1:]):
            up = dc.bilinear_upsample(current, finer.shape[2] // current.shape[2])
            current = fuse(dc.concat([up, finer], axis=1))
        return current


class SFT(nn.Module):
    """Spatial feature transform: scale and shift maps predicted from the
    guide modulate the content, out = s * content + t."""

    def __init__(self, content_ch, guide_ch, rng):
        super().__init__()
        self.scale1 = nn.Conv2d(guide_ch, content_ch, 3, rng)
        self.scale2 = nn.Conv2d(content_ch, content_ch, 3, rng)
        self.shift1 = nn.Conv2d(guide_ch, content_ch, 3, rng)
        self.shift2 = nn.Conv2d(content_ch, content_ch, 3, rng)
        self.scale2.bias.data[:] = 1.0  # start close to identity modulation

    def __call__(self, content, guide):
        if content.shape[2:] != guide.shape[2:]:
            raise ValueError(
                f"sft: content {content.shape[2:]} and guide {guide.shape[2:]} "
                f"spatial sizes differ"
            )
        s = self.scale2(dc.relu(self.scale1(guide)))
        t = self.shift2(dc.relu(self.shift1(guide)))
        return dc.add(dc.mul(s, content), t)


class Head(nn.Module):
    """Stack of Conv-Norm-ReLU blocks ending in a single-channel 1x1 conv."""

    def __init__(self, in_ch, rng, blocks=2):
        super().__init__()
        self.blocks = [nn.ConvNormRelu(in_ch, in_ch, rng) for _ in range(blocks)]
        self.final = nn.Conv2d(in_ch, 1, 1, rng)

    def __call__(self, x):
        for blk in self.blocks:
            x = blk(x)
        return self.final(x)


class LGDDecoder(nn.Module):
    """Fuses the three pyramids and emits the per-pixel edge distribution."""

    def __init__(self, global_channels, fine_channels, high_channels, rng,
                 out_ch=32, head_blocks=2):
        super().__init__()
        # levels arrive coarse to fine: scan pyramid reversed, then high-res
        g_levels = list(reversed(global_channels)) + list(reversed(high_channels))
        f_levels = list(reversed(fine_channels)) + list(reversed(high_channels))
        self.cff_global = CFF(g_levels, out_ch, rng)
        self.cff_mean = CFF(f_levels, out_ch, rng)
        self.cff_var = CFF(f_levels, out_ch, rng)
        self.sft_mean = SFT(out_ch, out_ch, rng)
        self.sft_var = SFT(out_ch, out_ch, rng)
        self.mean_head = Head(out_ch, rng, head_blocks)
        self.var_head = Head(out_ch, rng, head_blocks)
        self.edge_head = Head(out_ch, rng, head_blocks)
        self.aux_mean_head = Head(out_ch, rng, head_blocks)
        self.aux_var_head = Head(out_ch, rng, head_blocks)

    @staticmethod
    def _levels(pyramid, high):
        return pyramid[::-1] + high[::-1]

    def guide(self, f_g, f_h):
        """The stride-1 global map that conditions both fine branches."""
        return self.cff_global(self._levels(f_g, f_h))

    def decode(self, guide, f_f, f_h, include_aux=True):
        """Per-pixel (mu, var) from the fine pyramid, modulated by ``guide``;
        with ``include_aux`` also the auxiliary (mu, var) of the fine maps."""
        levels = self._levels(f_f, f_h)
        fm = self.cff_mean(levels)
        fv = self.cff_var(levels)
        mu = self.mean_head(self.sft_mean(fm, guide))
        var = dc.softplus(self.var_head(self.sft_var(fv, guide)))
        if not include_aux:
            return EdgeDistribution(mu, var)
        aux_mu = self.aux_mean_head(fm)
        aux_var = dc.softplus(self.aux_var_head(fv))
        return EdgeDistribution(mu, var, aux_mu=aux_mu, aux_var=aux_var)

    def decode_global(self, f_g, f_h):
        """Stage-1 path: the direct edge probability of the guide map."""
        return dc.sigmoid(self.edge_head(self.guide(f_g, f_h)))
