"""Feature extractors: global scan encoder, windowed fine-grained encoder
with gradient dropping, and the lightweight high-resolution CNN.

The two scan encoders share an architecture (not weights): a P x P patch
embed (P = ``patch_size``) followed by three stages of bidirectional scan
blocks at strides P/2P/4P, channels doubling at each 2x2 token merge. The
fine-grained encoder runs the same network over the four image quadrants; in
train mode only a random subset of windows records gradients.
Every encoder reads its architecture from the model's ``ModelConfig``.
Every encoder returns its feature maps as a list, finest first; a map's
stride is the input size over its own.
"""

from __future__ import annotations

from . import diffcore as dc
from .diffcore import nn
from .ssm import PatchEmbed, PatchMerge, VimBlock, tokens_to_map


class MambaEncoder(nn.Module):
    """Three-stage token-mixing pyramid over P x P patches (strides P/2P/4P)."""

    def __init__(self, cfg, rng, base_hw=None):
        super().__init__()
        self.multiple = cfg.size_multiple // 2
        base_hw = base_hw or cfg.base_hw
        base_grid = (base_hw[0] // cfg.patch_size, base_hw[1] // cfg.patch_size)
        self.patch = PatchEmbed(cfg.patch_size, cfg.embed_dim, base_grid, rng)
        dims = [cfg.embed_dim, cfg.embed_dim * 2, cfg.embed_dim * 4]
        self.stage0 = [VimBlock(dims[0], cfg.state_dim, rng) for _ in range(cfg.depths[0])]
        self.merge01 = PatchMerge(dims[0], rng)
        self.stage1 = [VimBlock(dims[1], cfg.state_dim, rng) for _ in range(cfg.depths[1])]
        self.merge12 = PatchMerge(dims[1], rng)
        self.stage2 = [VimBlock(dims[2], cfg.state_dim, rng) for _ in range(cfg.depths[2])]

    def __call__(self, image):
        H, W = image.shape[2], image.shape[3]
        if H % self.multiple or W % self.multiple:
            raise ValueError(f"encoder input {H}x{W} must be divisible by {self.multiple}")
        P = self.patch.patch_size
        grid = (H // P, W // P)
        x = self.patch(image)
        maps = []
        for merge, blocks in ((None, self.stage0), (self.merge01, self.stage1),
                              (self.merge12, self.stage2)):
            if merge is not None:
                x = merge(x, grid)
                grid = (grid[0] // 2, grid[1] // 2)
            for blk in blocks:
                x = blk(x)
            maps.append(tokens_to_map(x, grid))
        return maps


def window_split(x):
    """Four half-size quadrants in row-major order (TL, TR, BL, BR)."""
    H, W = x.shape[2], x.shape[3]
    if H % 2 or W % 2:
        raise ValueError(f"window_split: size {H}x{W} must be even")
    h2, w2 = H // 2, W // 2
    top = dc.narrow(x, 2, 0, h2)
    bot = dc.narrow(x, 2, h2, h2)
    return [
        dc.narrow(top, 3, 0, w2),
        dc.narrow(top, 3, w2, w2),
        dc.narrow(bot, 3, 0, w2),
        dc.narrow(bot, 3, w2, w2),
    ]


def window_reassemble(tiles):
    """Inverse of window_split: paste four quadrants back together."""
    tl, tr, bl, br = tiles
    top = dc.concat([tl, tr], axis=3)
    bot = dc.concat([bl, br], axis=3)
    return dc.concat([top, bot], axis=2)


class FineEncoder(nn.Module):
    """Shared-weight window encoder with random gradient dropping.

    All four windows are always encoded (activations are complete); in train
    mode exactly ``window_keep`` windows, drawn from ``rng``, run with
    gradient recording, the rest run gradient-free, stacked on the batch axis
    in one pass of the network. Dropping never changes forward values, only
    which windows backpropagate.
    """

    def __init__(self, cfg, rng):
        super().__init__()
        self.keep = cfg.window_keep
        self.multiple = cfg.size_multiple
        win_hw = (cfg.base_hw[0] // 2, cfg.base_hw[1] // 2)
        self.net = MambaEncoder(cfg, rng, base_hw=win_hw)

    def __call__(self, image, rng=None):
        H, W = image.shape[2], image.shape[3]
        if H % self.multiple or W % self.multiple:
            raise ValueError(f"fine encoder input {H}x{W} must be divisible by {self.multiple}")
        windows = window_split(image)
        if self.training and self.keep < 4:
            if rng is None:
                raise ValueError("training-mode fine encoding needs an rng")
            kept = set(rng.choice(4, size=self.keep, replace=False).tolist())
        else:
            kept = {0, 1, 2, 3}

        # the windows that record no gradient run as one batch; each other
        # window runs alone, so its gradients accumulate as they always have
        if not dc.grad_enabled():
            kept = set()
        per_window = [self.net(win) if i in kept else None for i, win in enumerate(windows)]
        dropped = [i for i in range(4) if i not in kept]
        if dropped:
            B = image.shape[0]
            with dc.no_grad():
                stacked = self.net(dc.concat([windows[i] for i in dropped], axis=0))
                for k, i in enumerate(dropped):
                    per_window[i] = [dc.narrow(m, 0, k * B, B) for m in stacked]

        return [window_reassemble([maps[lvl] for maps in per_window]) for lvl in range(3)]


class HighResEncoder(nn.Module):
    """Two plain conv+ReLU blocks, ``highres_ch`` then twice as many
    channels, with a 2x2 max-pool between them."""

    def __init__(self, cfg, rng):
        super().__init__()
        width = cfg.highres_ch
        self.conv1 = nn.Conv2d(3, width, 3, rng)
        self.conv2 = nn.Conv2d(width, width * 2, 3, rng)

    def __call__(self, image):
        H, W = image.shape[2], image.shape[3]
        if H % 2 or W % 2:
            raise ValueError(f"high-res encoder input {H}x{W} must be even")
        f1 = dc.relu(self.conv1(image))
        f2 = dc.relu(self.conv2(dc.max_pool2d(f1, 2)))
        return [f1, f2]
