"""Full detector: the three encoders plus the Gaussian decoder."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import nn
from .decoder import LGDDecoder
from .encoders import FineEncoder, HighResEncoder, MambaEncoder


@dataclass
class ModelConfig:
    embed_dim: int = 80
    depths: tuple = (2, 2, 2)
    state_dim: int = 8
    patch_size: int = 4
    base_hw: tuple = (64, 64)
    window_keep: int = 1
    decoder_ch: int = 32
    head_blocks: int = 2
    highres_ch: int = 16
    seed: int = 0

    def __post_init__(self):
        if len(self.depths) != 3:
            raise ValueError("depths must list three stages")
        if not 1 <= self.window_keep <= 4:
            raise ValueError("window_keep must lie in [1, 4]")


class EdgeDetector(nn.Module):
    """Global + fine-grained scan encoders, high-res CNN, Gaussian decoder."""

    def __init__(self, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.global_enc = MambaEncoder(cfg, rng)
        self.fine_enc = FineEncoder(cfg, rng)
        self.high_enc = HighResEncoder(rng, width=cfg.highres_ch)
        d = cfg.embed_dim
        self.decoder = LGDDecoder(
            global_channels=[d, 2 * d, 4 * d],
            fine_channels=[d, 2 * d, 4 * d],
            high_channels=[cfg.highres_ch, 2 * cfg.highres_ch],
            rng=rng,
            out_ch=cfg.decoder_ch,
            head_blocks=cfg.head_blocks,
        )

    # -- forward paths ---------------------------------------------------------

    def forward_global(self, image):
        """Stage-1 path: encode global + high-res, emit the direct edge probability."""
        return self.decoder.decode_global(self.global_enc(image), self.high_enc(image))

    def forward_full(self, image, training=False, rng=None, include_aux=True):
        """Stage-2 path: the frozen global branch (both encoders and the guide
        fusion, run without gradients) conditions the fine distribution."""
        with dc.no_grad():
            f_g = self.global_enc(image)
            f_h = self.high_enc(image)
            guide = self.decoder.guide(f_g, f_h)
        f_f = self.fine_enc(image, training=training, rng=rng)
        return self.decoder.decode(guide, f_f, f_h, include_aux=include_aux)

    # -- parameter grouping (freezing, optimizer membership) ---------------------

    # the modules the fine stage freezes: both global-branch encoders, the
    # global fusion cascade and the direct edge head
    GLOBAL_BRANCH = ("global_enc", "high_enc", "decoder.cff_global", "decoder.edge_head")

    def global_param_names(self):
        """Parameters of ``GLOBAL_BRANCH``, untouched by fine-stage training."""
        prefixes = tuple(path + "." for path in self.GLOBAL_BRANCH)
        return {n for n, _ in self.named_parameters() if n.startswith(prefixes)}

    def fine_param_names(self):
        return {n for n, _ in self.named_parameters()} - self.global_param_names()

    def set_frozen_eval(self):
        """Put the ``GLOBAL_BRANCH`` modules in eval mode (fixed norm statistics)."""
        for path in self.GLOBAL_BRANCH:
            functools.reduce(getattr, path.split("."), self).eval()


def build_model(cfg: ModelConfig) -> EdgeDetector:
    return EdgeDetector(cfg)


def model_config_to_array(cfg: ModelConfig):
    """Encode the architecture as a small integer vector for checkpoints."""
    return np.array(
        [1, cfg.embed_dim, *cfg.depths, cfg.state_dim, cfg.patch_size,
         *cfg.base_hw, cfg.window_keep, cfg.decoder_ch, cfg.head_blocks,
         cfg.highres_ch],
        dtype=np.float32,
    )


def model_config_from_array(arr) -> ModelConfig:
    vals = [int(round(float(v))) for v in np.asarray(arr).reshape(-1)]
    if not vals or vals[0] != 1:
        raise ValueError(f"unsupported model-config encoding version {vals[:1]}")
    (_, embed, d0, d1, d2, state, patch, bh, bw, keep, dec, headb, hrch) = vals
    return ModelConfig(
        embed_dim=embed, depths=(d0, d1, d2), state_dim=state, patch_size=patch,
        base_hw=(bh, bw), window_keep=keep, decoder_ch=dec, head_blocks=headb,
        highres_ch=hrch,
    )
