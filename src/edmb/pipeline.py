"""Dataset ingestion, augmentation, label handling, optimization, and the
two-stage training loop with binary checkpoints.

Augmentation draws one variant online from the benchmark's offline product
(flip x rotation x scale x gamma, then a fixed resize); the identical
geometric transform is applied to the image and every annotator map, with
rotation fill marked ignore. The fine stage loads a global-stage checkpoint
and freezes the global encoders, the global fusion cascade, and the direct
edge head; frozen modules run in eval mode and never enter the optimizer.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import struct
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffcore as dc
from . import netpbm
from .decoder import EdgeDistribution
from .diffcore.io import FormatError, read_tensor, write_tensor
from .diffcore.tensor import Tensor, bilinear_resize_raw
from .loss import LossConfig, stage_losses
from .model import EdgeDetector, ModelConfig

log = logging.getLogger("edmb.train")


class TrainingDiverged(RuntimeError):
    pass


# -- samples and transforms ----------------------------------------------------------


@dataclass
class DatasetSample:
    """One image with one or more annotator edge maps sharing its geometry."""

    image: np.ndarray              # (3,H,W) float32 in [0,1]
    labels: list                   # list of (H,W) float arrays in {0,1}
    valid: np.ndarray              # (H,W) bool; False where rotation filled
    id: str = ""
    transform: "TransformRecord" = None

    def __post_init__(self):
        h, w = self.image.shape[1:]
        for k, lab in enumerate(self.labels):
            if lab.shape != (h, w):
                raise ValueError(
                    f"sample {self.id!r}: label {k} shape {lab.shape} != image {(h, w)}"
                )
        if self.valid.shape != (h, w):
            raise ValueError(f"sample {self.id!r}: valid mask shape mismatch")


@dataclass
class TransformRecord:
    flip: str = "none"       # none | h | v | hv
    angle: float = 0.0       # degrees, counter-clockwise
    scale: float = 1.0
    gamma: float = 1.0
    out_size: tuple = None   # (H, W) final resize or None

    def is_identity(self):
        return (self.flip == "none" and self.angle == 0.0 and self.scale == 1.0
                and self.gamma == 1.0 and self.out_size is None)


@dataclass
class Recipe:
    flips: tuple = ("none",)
    angles: tuple = (0.0,)
    scales: tuple = (1.0,)
    gammas: tuple = (1.0,)
    out_size: tuple = None


def _evenly_spaced_angles(count):
    return tuple(round(k * 360.0 / count, 6) for k in range(count))


RECIPES = {
    # flip(4x) = identity/h/v/both; rotation 25 evenly spaced angles
    "bsds": Recipe(("none", "h", "v", "hv"), _evenly_spaced_angles(25), (1.0,), (1.0,), (321, 481)),
    "nyud": Recipe(("none", "h"), (0.0, 90.0, 180.0, 270.0), (0.5, 1.0, 1.5), (1.0,), (400, 400)),
    "biped": Recipe(("none", "h"), _evenly_spaced_angles(16), (0.5, 1.0, 1.5), (0.7, 1.0, 1.3), (400, 400)),
    "flips": Recipe(("none", "h", "v", "hv")),
    "none": Recipe(),
}


def _flip2d(a, code):
    if code == "none":
        return a
    if code == "h":
        return a[:, ::-1]
    if code == "v":
        return a[::-1, :]
    if code == "hv":
        return a[::-1, ::-1]
    raise ValueError(f"unknown flip code {code!r}")


def _rotate2d(a, angle, fill):
    """Rotate (H,W) counter-clockwise about the image center, same canvas.

    Multiples of 90 degrees on a square canvas are exact permutations;
    everything else is bilinear with out-of-canvas pixels set to ``fill``.
    """
    angle = angle % 360.0
    if angle == 0.0:
        return a.copy()
    H, W = a.shape
    if angle in (90.0, 180.0, 270.0) and (H == W or angle == 180.0):
        return np.rot90(a, k=int(angle // 90)).copy()
    th = math.radians(angle)
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    # inverse map: rotate output coords by -angle (rows grow downward)
    dy, dx = ii - cy, jj - cx
    src_y = cy + math.cos(th) * dy - math.sin(th) * dx
    src_x = cx + math.sin(th) * dy + math.cos(th) * dx
    y0 = np.floor(src_y).astype(int)
    x0 = np.floor(src_x).astype(int)
    wy = src_y - y0
    wx = src_x - x0
    out = np.full((H, W), float(fill))
    inside = (src_y >= -0.5) & (src_y <= H - 0.5) & (src_x >= -0.5) & (src_x <= W - 0.5)
    y0c, x0c = np.clip(y0, 0, H - 1), np.clip(x0, 0, W - 1)
    y1c, x1c = np.clip(y0 + 1, 0, H - 1), np.clip(x0 + 1, 0, W - 1)
    val = ((1 - wy) * (1 - wx) * a[y0c, x0c] + (1 - wy) * wx * a[y0c, x1c]
           + wy * (1 - wx) * a[y1c, x0c] + wy * wx * a[y1c, x1c])
    out[inside] = val[inside]
    return out


def apply_geometry(a, rec: TransformRecord, fill=0.0):
    """Apply the geometric part (scale, rotate, flip, resize) to one plane."""
    out = a.astype(np.float64, copy=True)
    if rec.scale != 1.0:
        H, W = out.shape
        out = bilinear_resize_raw(out, max(1, round(H * rec.scale)), max(1, round(W * rec.scale)))
    if rec.angle % 360.0 != 0.0:
        out = _rotate2d(out, rec.angle, fill)
    out = _flip2d(out, rec.flip)
    if rec.out_size is not None and out.shape != tuple(rec.out_size):
        out = bilinear_resize_raw(out, rec.out_size[0], rec.out_size[1])
    return np.ascontiguousarray(out)


def draw_transform(recipe: Recipe, rng) -> TransformRecord:
    return TransformRecord(
        flip=recipe.flips[rng.integers(len(recipe.flips))],
        angle=float(recipe.angles[rng.integers(len(recipe.angles))]),
        scale=float(recipe.scales[rng.integers(len(recipe.scales))]),
        gamma=float(recipe.gammas[rng.integers(len(recipe.gammas))]),
        out_size=recipe.out_size,
    )


def apply_transform(sample: DatasetSample, rec: TransformRecord) -> DatasetSample:
    if rec.is_identity():
        out = replace(sample)
        out.transform = rec
        return out
    img = np.stack([apply_geometry(c, rec, fill=0.0) for c in sample.image])
    if rec.gamma != 1.0:
        img = np.clip(img, 0.0, 1.0) ** rec.gamma
    labels = []
    for lab in sample.labels:
        moved = apply_geometry(lab, rec, fill=0.0)
        labels.append((moved >= 0.5).astype(np.float64))
    valid = apply_geometry(sample.valid.astype(np.float64), rec, fill=0.0) >= 0.999
    return DatasetSample(
        image=img.astype(np.float32),
        labels=labels,
        valid=valid,
        id=sample.id,
        transform=rec,
    )


def augment(sample: DatasetSample, recipe, rng) -> DatasetSample:
    """Draw one variant from the recipe's product and apply it consistently."""
    if isinstance(recipe, str):
        if recipe not in RECIPES:
            raise ValueError(f"unknown recipe {recipe!r}; options: {sorted(RECIPES)}")
        recipe = RECIPES[recipe]
    return apply_transform(sample, draw_transform(recipe, rng))


def select_label(labels, mode, rng, valid=None, rho=0.5):
    """Collapse annotator maps to one target plus an ignore-aware weight mask.

    random: uniformly pick one annotator map. mixed: average the maps; mean
    >= rho is positive, exactly 0 negative, anything between is ignored.
    """
    if not labels:
        raise ValueError("select_label: need at least one label map")
    if mode == "random":
        y = labels[rng.integers(len(labels))].astype(np.float64)
        mask = np.ones_like(y)
    elif mode == "mixed":
        mean = np.mean([lab.astype(np.float64) for lab in labels], axis=0)
        y = (mean >= rho).astype(np.float64)
        ignore = (mean > 0.0) & (mean < rho)
        mask = (~ignore).astype(np.float64)
    else:
        raise ValueError(f"unknown label mode {mode!r}; expected random or mixed")
    if valid is not None:
        mask = mask * valid.astype(np.float64)
    return y, mask


# -- dataset loading -------------------------------------------------------------


def read_image_chw(path):
    """A .ppm/.pgm/.png image as a (3,H,W) float32 array in [0,1]; grey
    images are repeated over the three channels."""
    raw = netpbm.read_image(path)
    if raw.ndim == 2:
        raw = np.stack([raw] * 3, axis=-1)
    return (raw.astype(np.float32) / 255.0).transpose(2, 0, 1)


def load_label_maps(label_root, sid):
    """Annotator maps of sample ``sid`` as (H,W) bool arrays, binarized at
    128/255: every .pgm in the directory <label_root>/<sid>/, or the single
    file <label_root>/<sid>.pgm."""
    label_dir = os.path.join(label_root, sid)
    label_file = os.path.join(label_root, sid + ".pgm")
    label_paths = []
    if os.path.isdir(label_dir):
        label_paths = [
            os.path.join(label_dir, f)
            for f in sorted(os.listdir(label_dir))
            if f.lower().endswith(".pgm")
        ]
    elif os.path.exists(label_file):
        label_paths = [label_file]
    if not label_paths:
        raise FileNotFoundError(f"sample {sid!r}: no labels under {label_root}")
    maps = []
    for lp in label_paths:
        try:
            lab = netpbm.read_netpbm(lp)
        except netpbm.ImageFormatError as exc:
            raise netpbm.ImageFormatError(f"sample {sid!r}: {exc}") from exc
        if lab.ndim != 2:
            raise ValueError(f"sample {sid!r}: label {lp} is not single-channel")
        maps.append(lab >= 128)
    return maps


def read_id_list(path):
    """Sample ids, one per non-blank line of a UTF-8 file."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def load_dataset(root, list_file):
    """Load samples listed one id per line under root/images and root/labels.

    Images are <id>.ppm, <id>.png or <id>.pnm; labels are as
    ``load_label_maps`` reads them.
    """
    root = str(root)
    samples = []
    for sid in read_id_list(list_file):
        img_path = None
        for ext in (".ppm", ".png", ".pnm"):
            cand = os.path.join(root, "images", sid + ext)
            if os.path.exists(cand):
                img_path = cand
                break
        if img_path is None:
            raise FileNotFoundError(f"sample {sid!r}: no image under {root}/images")
        try:
            image = read_image_chw(img_path)
        except netpbm.ImageFormatError as exc:
            raise netpbm.ImageFormatError(f"sample {sid!r}: {exc}") from exc
        labels = [m.astype(np.float64) for m in load_label_maps(os.path.join(root, "labels"), sid)]
        samples.append(
            DatasetSample(image, labels, np.ones(image.shape[1:], bool), sid)
        )
    return samples


# -- optimizer -------------------------------------------------------------------


class Adam:
    """Adam with decoupled parameter groups (name, tensor, learning rate)."""

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.groups = list(groups)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data, dtype=np.float64) for name, p, _ in self.groups}
        self.v = {name: np.zeros_like(p.data, dtype=np.float64) for name, p, _ in self.groups}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p, lr in self.groups:
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            if self.weight_decay:
                g = g + self.weight_decay * p.data.astype(np.float64)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data = (p.data.astype(np.float64) - update).astype(p.data.dtype)

    def zero_grad(self):
        for _, p, _ in self.groups:
            p.zero_grad()

    def state_arrays(self):
        out = {"t": np.array([self.t], dtype=np.float32)}
        for name in self.m:
            out["m." + name] = self.m[name].astype(np.float32)
            out["v." + name] = self.v[name].astype(np.float32)
        return out

    def load_state_arrays(self, arrays):
        self.t = int(arrays["t"][0])
        for name in self.m:
            if "m." + name in arrays:
                self.m[name] = arrays["m." + name].astype(np.float64)
                self.v[name] = arrays["v." + name].astype(np.float64)


# -- training configuration ----------------------------------------------------------


@dataclass
class TrainConfig:
    stage: str = "global"          # global | fine
    batch_size: int = 0            # 0 = stage default (4 global, 3 fine)
    lr: float = 1e-4               # freshly initialized parameters
    weight_decay: float = 5e-4
    max_steps: int = 1000
    seed: int = 0
    label_mode: str = "random"     # random | mixed
    mixed_threshold: float = 0.5
    augment_recipe: str = "none"
    save_every: int = 0            # 0 = final checkpoint only
    loss: LossConfig = field(default_factory=LossConfig)
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.stage not in ("global", "fine"):
            raise ValueError(f"stage must be global or fine, got {self.stage!r}")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.label_mode not in ("random", "mixed"):
            raise ValueError(f"unknown label mode {self.label_mode!r}")

    @property
    def effective_batch(self):
        if self.batch_size > 0:
            return self.batch_size
        return 4 if self.stage == "global" else 3

    def fingerprint(self):
        text = repr(self)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# flat key=value schema: every TrainConfig field but ``stage`` (set by
# ``edmb train --stage``) has a documented key
CONFIG_KEYS = {
    "batch_size": ("batch_size", int),
    "lr": ("lr", float),
    "weight_decay": ("weight_decay", float),
    "max_steps": ("max_steps", int),
    "seed": ("seed", int),
    "label_mode": ("label_mode", str),
    "mixed_threshold": ("mixed_threshold", float),
    "augment": ("augment_recipe", str),
    "save_every": ("save_every", int),
    "loss.lambda": ("loss.lam", float),
    "loss.varphi": ("loss.varphi", float),
    "loss.alpha2": ("loss.alpha2", float),
    "loss.eps": ("loss.eps", float),
    "loss.literal_eq9_weights": ("loss.literal_weights", lambda s: s.lower() in ("1", "true", "yes")),
    "model.embed_dim": ("model.embed_dim", int),
    "model.depths": ("model.depths", lambda s: tuple(int(x) for x in s.split(","))),
    "model.state_dim": ("model.state_dim", int),
    "model.patch_size": ("model.patch_size", int),
    "model.base_hw": ("model.base_hw", lambda s: tuple(int(x) for x in s.split(","))),
    "model.window_keep": ("model.window_keep", int),
    "model.decoder_ch": ("model.decoder_ch", int),
    "model.head_blocks": ("model.head_blocks", int),
    "model.highres_ch": ("model.highres_ch", int),
    "model.seed": ("model.seed", int),
}


def parse_config(path):
    """Parse a flat UTF-8 key=value file into a TrainConfig; unknown keys fail."""
    cfg = TrainConfig()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            dest, conv = CONFIG_KEYS[key]
            try:
                value = conv(raw)
            except Exception as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
            obj = cfg
            parts = dest.split(".")
            for part in parts[:-1]:
                obj = getattr(obj, part)
            setattr(obj, parts[-1], value)
    cfg.__post_init__()
    cfg.loss.__post_init__()
    cfg.model.__post_init__()
    return cfg


# -- checkpoints ------------------------------------------------------------------

CKPT_MAGIC = b"EDMBCKPT"
CKPT_VERSION = 1


@dataclass
class Checkpoint:
    state: dict
    opt_state: dict
    step: int
    config_fingerprint: str
    model_config: ModelConfig = None
    loss_history: list = field(default_factory=list, repr=False)


def save_checkpoint(ckpt: Checkpoint, path):
    """Atomic binary save: magic, version, count, then named tensor entries."""
    from .model import model_config_to_array

    entries = []
    for name, arr in ckpt.state.items():
        entries.append((name, arr))
    for name, arr in ckpt.opt_state.items():
        entries.append(("adam." + name, arr))
    entries.append(("meta.step", np.array([ckpt.step], dtype=np.float32)))
    fp = np.frombuffer(ckpt.config_fingerprint.encode("ascii"), dtype=np.uint8)
    entries.append(("meta.fingerprint", fp.astype(np.float32)))
    if ckpt.model_config is not None:
        entries.append(("meta.model", model_config_to_array(ckpt.model_config)))
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            write_tensor(fh, arr)
    os.replace(tmp, path)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(CKPT_MAGIC))
        if magic != CKPT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        raw = fh.read(8)
        if len(raw) != 8:
            raise FormatError(f"{path}: truncated checkpoint header")
        version, count = struct.unpack("<II", raw)
        if version != CKPT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        state, opt_state = {}, {}
        step, fingerprint, model_cfg = 0, "", None
        for _ in range(count):
            raw = fh.read(2)
            if len(raw) != 2:
                raise FormatError(f"{path}: truncated entry header")
            (nlen,) = struct.unpack("<H", raw)
            name_bytes = fh.read(nlen)
            if len(name_bytes) != nlen:
                raise FormatError(f"{path}: truncated entry name")
            try:
                name = name_bytes.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: entry name {name_bytes!r} is not UTF-8") from exc
            arr = read_tensor(fh)
            if name == "meta.step":
                step = int(arr[0])
            elif name == "meta.fingerprint":
                try:
                    fingerprint = bytes(arr.astype(np.uint8)).decode("ascii")
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{path}: meta.fingerprint is not ASCII") from exc
            elif name == "meta.model":
                from .model import model_config_from_array

                model_cfg = model_config_from_array(arr)
            elif name.startswith("adam."):
                opt_state[name[len("adam."):]] = arr
            else:
                state[name] = arr
    return Checkpoint(state, opt_state, step, fingerprint, model_config=model_cfg)


# -- padding and the stage forward -----------------------------------------------------


def pad_to_multiple(batch, mult=32):
    """Reflect-pad (B,3,H,W) on the bottom/right to a size multiple."""
    H, W = batch.shape[2], batch.shape[3]
    ph = (mult - H % mult) % mult
    pw = (mult - W % mult) % mult
    if ph == 0 and pw == 0:
        return batch, H, W
    padded = np.pad(batch, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
    return padded, H, W


def stage_outputs(model, batch, stage, training=False, rng=None, include_aux=True):
    """One stage's outputs for a (B,3,H,W) array, at input resolution.

    The batch is reflect-padded to a multiple of 32 for the encoders, run
    through ``forward_global`` (global stage: ``aux_p`` only) or
    ``forward_full`` (fine stage), and every output map is cropped back to
    H x W.
    """
    padded, H, W = pad_to_multiple(batch)
    x = Tensor(padded)
    if stage == "global":
        out = EdgeDistribution(None, None, aux_p=model.forward_global(x))
    else:
        out = model.forward_full(x, training=training, rng=rng, include_aux=include_aux)

    def crop(t):
        if t is None or t.shape[2:] == (H, W):
            return t
        return dc.narrow(dc.narrow(t, 2, 0, H), 3, 0, W)

    return EdgeDistribution(*(crop(t) for t in (out.mu, out.var, out.aux_p,
                                                 out.aux_mu, out.aux_var)))


# -- the training loop -----------------------------------------------------------------


def train_stage(model: EdgeDetector, data, cfg: TrainConfig, init_ckpt=None,
                resume_ckpt=None, out_dir=None, eval_every=0, eval_fn=None) -> Checkpoint:
    """Run one training stage and return the final checkpoint.

    ``data`` is a list of DatasetSample. For the fine stage, ``init_ckpt``
    (a Checkpoint or path) restores the global-stage weights, which are then
    frozen: excluded from the optimizer and run in eval mode under no_grad.
    ``resume_ckpt`` restores parameters, optimizer moments, and the step
    counter of an interrupted run of the same stage.
    """
    if not data:
        raise ValueError("train_stage: empty dataset")
    if cfg.stage == "fine":
        if init_ckpt is None and resume_ckpt is None:
            raise ValueError("fine stage requires a global-stage checkpoint")
        if init_ckpt is not None:
            model.load_state_arrays(_as_checkpoint(init_ckpt).state)
        model.set_frozen_eval()
        trainable = model.fine_param_names()
    else:
        trainable = model.global_param_names()

    named = dict(model.named_parameters())
    groups = [(n, named[n], cfg.lr) for n in sorted(trainable)]
    opt = Adam(groups, weight_decay=cfg.weight_decay)

    step = 0
    if resume_ckpt is not None:
        resume_ckpt = _as_checkpoint(resume_ckpt)
        if resume_ckpt.config_fingerprint != cfg.fingerprint():
            warnings.warn("resume checkpoint was written by a different config")
        model.load_state_arrays(resume_ckpt.state)
        opt.load_state_arrays(resume_ckpt.opt_state)
        step = resume_ckpt.step

    master = np.random.default_rng(cfg.seed)
    order_rng, aug_rng, label_rng, window_rng, sample_rng = master.spawn(5)

    batch_size = cfg.effective_batch
    history = []
    order = []
    last_max_grad = 0.0
    recipe = cfg.augment_recipe

    while step < cfg.max_steps:
        if len(order) < batch_size:
            order = list(order_rng.permutation(len(data))) + order
        picks = [order.pop() for _ in range(batch_size)]
        images, ys, masks = [], [], []
        for idx in picks:
            s = augment(data[idx], recipe, aug_rng)
            y, mask = select_label(
                s.labels, cfg.label_mode, label_rng, valid=s.valid,
                rho=cfg.mixed_threshold,
            )
            images.append(s.image)
            ys.append(y)
            masks.append(mask)
        shapes = {im.shape for im in images}
        if len(shapes) > 1:
            raise ValueError(
                f"batch mixes image sizes {sorted(shapes)}; set a resize in the recipe"
            )
        batch = np.stack(images).astype(dc.default_dtype())
        y_batch = np.stack(ys)
        m_batch = np.stack(masks)
        outputs = stage_outputs(model, batch, cfg.stage, training=True, rng=window_rng)
        loss = stage_losses(outputs, y_batch, m_batch, cfg.loss, cfg.stage, rng=sample_rng)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss at step {step}: {value}; "
                f"max |grad| at previous step {last_max_grad:.3e}"
            )
        dc.backward(loss)
        last_max_grad = max(
            (float(np.abs(p.grad).max()) for _, p, _ in opt.groups if p.grad is not None),
            default=0.0,
        )
        opt.step()
        opt.zero_grad()
        history.append(value)
        step += 1
        log.info("stage=%s step=%d loss=%.6f", cfg.stage, step, value)
        if out_dir and cfg.save_every and step % cfg.save_every == 0:
            os.makedirs(out_dir, exist_ok=True)
            save_checkpoint(_checkpoint(model, opt, step, cfg, history),
                            os.path.join(out_dir, f"step{step:06d}.ckpt"))
        if eval_every and eval_fn and step % eval_every == 0:
            if eval_fn(model, step, history):
                break

    ckpt = _checkpoint(model, opt, step, cfg, history)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(ckpt, os.path.join(out_dir, f"{cfg.stage}.ckpt"))
    return ckpt


def _as_checkpoint(ckpt):
    """A Checkpoint, loading it first when given a path."""
    return load_checkpoint(ckpt) if isinstance(ckpt, (str, os.PathLike)) else ckpt


def _checkpoint(model, opt, step, cfg, history):
    return Checkpoint(model.state_arrays(), opt.state_arrays(), step,
                      cfg.fingerprint(), model_config=cfg.model,
                      loss_history=list(history))
