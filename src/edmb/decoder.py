"""Learnable-Gaussian decoder: cascaded feature fusion to full resolution,
spatial feature transform conditioning, and the mean / variance / edge heads.

Three fusion cascades produce a high-resolution global map (the guide), a
fine-grained mean map, and a fine-grained variance map. The guide modulates
both fine branches through affine transforms predicted from it; softplus on
the variance heads keeps every variance non-negative. The direct edge head
reads the guide and gives the global stage its edge probability map. The
fine stage gets a list of ``EdgeDistribution`` (mu, var) pairs: the main
one, then, in train mode, the auxiliary one whose heads read the fine maps
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import diffcore as dc
from .diffcore import nn
from .diffcore.tensor import Tensor, depthwise_conv2d_over


@dataclass
class EdgeDistribution:
    """Per-pixel Gaussian (mu, var) over edge logits."""

    mu: Tensor
    var: Tensor


class MBConv(nn.Module):
    """Inverted-bottleneck fuse: 1x1 expand, 3x3 depthwise, 1x1 project.

    Hidden width is 4x the output width to keep the expansion bounded for
    wide concatenated inputs; residual applies when in/out shapes match. With
    no graph in eval mode, norm1, the depthwise conv and norm2 write their
    ops' bits over expand's output, so one hidden map is alive, not two."""

    def __init__(self, in_ch, out_ch, rng):
        super().__init__()
        hidden = 4 * out_ch
        self.residual = in_ch == out_ch
        self.expand = nn.Conv2d(in_ch, hidden, 1, rng, bias=False)
        self.norm1 = nn.Norm2d(hidden, relu=True)
        self.depthwise = nn.Conv2d(hidden, hidden, 3, rng, groups=hidden, bias=False)
        self.norm2 = nn.Norm2d(hidden, relu=True)
        self.project = nn.Conv2d(hidden, out_ch, 1, rng, bias=False)
        self.norm3 = nn.Norm2d(out_ch)

    def __call__(self, x):
        if self.training or dc.grad_enabled() and any(t.requires_grad for t in [x, *self.parameters()]):
            y = self.norm2(self.depthwise(self.norm1(self.expand(x))))
        else:
            y = self.expand(x)
            self.norm1.eval_into(y.data, y.data)
            depthwise_conv2d_over(y.data, self.depthwise.weight.data)
            self.norm2.eval_into(y.data, y.data)
        y = self.project(y)  # frees the hidden map before norm3 allocates
        y = self.norm3(y)
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
            (h, w), (H, W) = current.shape[2:], finer.shape[2:]
            if H % h or W % w or H // h != W // w:
                raise ValueError(f"cff: level {H}x{W} is not one integer factor "
                                 f"larger than {h}x{w} on both axes")
            current = fuse(dc.concat([dc.bilinear_resize(current, H, W), finer], axis=1))
        return current


class SFT(nn.Module):
    """Spatial feature transform: scale and shift maps predicted from the
    guide modulate the content, out = s * content + t. The first conv of
    each branch reads the guide; ``guide_maps`` runs those convs, and the
    module consumes their outputs."""

    def __init__(self, content_ch, guide_ch, rng):
        super().__init__()
        self.scale1 = nn.Conv2d(guide_ch, content_ch, 3, rng)
        self.scale2 = nn.Conv2d(content_ch, content_ch, 3, rng)
        self.shift1 = nn.Conv2d(guide_ch, content_ch, 3, rng)
        self.shift2 = nn.Conv2d(content_ch, content_ch, 3, rng)
        self.scale2.bias.data[:] = 1.0  # start close to identity modulation

    def __call__(self, content, scale, shift):
        """``scale`` and ``shift``: this module's pair from ``guide_maps``."""
        if content.shape[2:] != scale.shape[2:]:
            raise ValueError(
                f"sft: content {content.shape[2:]} and guide {scale.shape[2:]} "
                f"spatial sizes differ"
            )
        s = self.scale2(dc.relu(scale))
        t = self.shift2(dc.relu(shift))
        return dc.add(dc.mul(s, content), t)


def guide_maps(sfts, guide):
    """``scale1(guide)`` and ``shift1(guide)`` of every SFT in ``sfts``, as
    one (scale, shift) pair per module. All of them run as one conv, whose
    weights and biases are the modules' own, concatenated at call time."""
    convs = [conv for sft in sfts for conv in (sft.scale1, sft.shift1)]
    pre = dc.conv2d(guide, dc.concat([c.weight for c in convs], axis=0),
                    dc.concat([c.bias for c in convs], axis=0))
    maps, start = [], 0
    for conv in convs:
        maps.append(dc.narrow(pre, 1, start, conv.weight.shape[0]))
        start += conv.weight.shape[0]
    return list(zip(maps[::2], maps[1::2]))


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

    def __init__(self, cfg, rng):
        super().__init__()
        d, h, ch, blocks = cfg.embed_dim, cfg.highres_ch, cfg.decoder_ch, cfg.head_blocks
        # levels arrive coarse to fine: scan pyramid reversed, then high-res;
        # the global and fine scan pyramids have the same widths
        levels = [4 * d, 2 * d, d, 2 * h, h]
        self.cff_global = CFF(levels, ch, rng)
        self.cff_mean = CFF(levels, ch, rng)
        self.cff_var = CFF(levels, ch, rng)
        self.sft_mean = SFT(ch, ch, rng)
        self.sft_var = SFT(ch, ch, rng)
        self.mean_head = Head(ch, rng, blocks)
        self.var_head = Head(ch, rng, blocks)
        self.edge_head = Head(ch, rng, blocks)
        self.aux_mean_head = Head(ch, rng, blocks)
        self.aux_var_head = Head(ch, rng, blocks)

    @staticmethod
    def _levels(pyramid, high):
        return pyramid[::-1] + high[::-1]

    def guide(self, f_g, f_h):
        """The stride-1 global map that conditions both fine branches."""
        return self.cff_global(self._levels(f_g, f_h))

    def decode(self, guide, f_f, f_h):
        """``[main]``: the distribution of the fine pyramid modulated by
        ``guide``; in train mode, ``[main, aux]``, where ``aux`` reads the
        unmodulated fine maps. Each map is popped into the op that consumes
        it, so with no graph it is freed after its last use (the guide if the
        caller does not hold it); train mode keeps the fused maps for aux."""
        levels = self._levels(f_f, f_h)
        fused = [self.cff_mean(levels), self.cff_var(levels)]
        pairs = guide_maps([self.sft_mean, self.sft_var], guide)
        del guide
        fm, fv = fused if self.training else (None, None)
        mu = self.mean_head(self.sft_mean(fused.pop(0), *pairs.pop(0)))
        var = dc.softplus(self.var_head(self.sft_var(fused.pop(0), *pairs.pop(0))))
        out = [EdgeDistribution(mu, var)]
        if self.training:
            out.append(EdgeDistribution(self.aux_mean_head(fm),
                                        dc.softplus(self.aux_var_head(fv))))
        return out

    def decode_global(self, f_g, f_h):
        """Stage-1 path: the direct edge probability of the guide map."""
        return dc.sigmoid(self.edge_head(self.guide(f_g, f_h)))
