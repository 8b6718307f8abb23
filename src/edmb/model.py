"""Full detector: the three encoders plus the Gaussian decoder."""

from __future__ import annotations

from dataclasses import dataclass, fields

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
        if len(self.depths) != 3 or not all(d >= 0 for d in self.depths):
            raise ValueError(f"depths must list three stages, each >= 0, got {self.depths}")
        if not 1 <= self.window_keep <= 4:
            raise ValueError("window_keep must lie in [1, 4]")
        for name in ("embed_dim", "state_dim", "patch_size", "decoder_ch", "highres_ch"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("head_blocks", "seed"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.patch_size % 2:  # the decoder fuses the scan maps with a stride-2 map
            raise ValueError(f"patch_size must be even, got {self.patch_size}")
        # the fine encoder's half-size windows need at least one patch each
        hw = self.base_hw
        if not (isinstance(hw, (tuple, list)) and len(hw) == 2
                and all(isinstance(v, int) and v >= 2 * self.patch_size for v in hw)):
            raise ValueError(f"base_hw must be two ints, each >= 2 * patch_size, got {hw!r}")

    @property
    def size_multiple(self):
        """Input sides must be multiples of this: a fine window is half a side."""
        return 8 * self.patch_size


class EdgeDetector(nn.Module):
    """Global + fine-grained scan encoders, high-res CNN, Gaussian decoder."""

    def __init__(self, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.global_enc = MambaEncoder(cfg, rng)
        self.fine_enc = FineEncoder(cfg, rng)
        self.high_enc = HighResEncoder(cfg, rng)
        self.decoder = LGDDecoder(cfg, rng)

    # -- forward paths ---------------------------------------------------------

    def forward_global(self, image):
        """Stage-1 path: encode global + high-res, emit the direct edge probability."""
        return self.decoder.decode_global(self.global_enc(image), self.high_enc(image))

    def forward_full(self, image, rng=None):
        """Stage-2 path: the frozen global branch (both encoders and the guide
        fusion, run without gradients) conditions the fine distributions,
        returned as ``LGDDecoder.decode`` returns them. Train mode drops
        windows (drawn from ``rng``) and adds the auxiliary distribution."""
        with dc.no_grad():
            f_g = self.global_enc(image)
            f_h = self.high_enc(image)
            guide = [self.decoder.guide(f_g, f_h)]
        del f_g
        # popped, the guide is held by decode alone, which drops it once used
        return self.decoder.decode(guide.pop(), self.fine_enc(image, rng), f_h)

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
        prefixes = tuple(path + "." for path in self.GLOBAL_BRANCH)
        for prefix, m in self.named_modules():
            if prefix in prefixes:
                m.eval()


def build_model(cfg: ModelConfig) -> EdgeDetector:
    return EdgeDetector(cfg)


# the fields a checkpoint's model vector encodes, in field order: every
# ModelConfig field but ``seed``, a tuple field as its default's length of ints
_ENCODED_FIELDS = [(f.name, f.default) for f in fields(ModelConfig) if f.name != "seed"]
_ENCODED_LEN = 1 + sum(len(d) if isinstance(d, tuple) else 1 for _, d in _ENCODED_FIELDS)


def model_config_to_array(cfg: ModelConfig):
    """Encode the architecture as a small integer vector for checkpoints: the
    version 1, then each ``_ENCODED_FIELDS`` value, tuples flattened."""
    vals = [1]
    for name, _ in _ENCODED_FIELDS:
        v = getattr(cfg, name)
        vals += list(v) if isinstance(v, (tuple, list)) else [v]
    return np.array(vals, dtype=np.float32)


def model_config_from_array(arr) -> ModelConfig:
    """Decode ``model_config_to_array``: 13 integers of version 1, or ValueError."""
    arr = np.asarray(arr).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError(f"model-config encoding has non-finite values {arr}")
    if (arr != np.round(arr)).any():
        raise ValueError(f"model-config encoding has non-integer values {arr}")
    vals = [int(v) for v in arr]
    if not vals or vals[0] != 1:
        raise ValueError(f"unsupported model-config encoding version {vals[:1]}")
    if len(vals) != _ENCODED_LEN:
        raise ValueError(f"model-config encoding has {len(vals)} values, expected {_ENCODED_LEN}")
    rest = iter(vals[1:])
    return ModelConfig(**{
        name: tuple(next(rest) for _ in default) if isinstance(default, tuple) else next(rest)
        for name, default in _ENCODED_FIELDS})
