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
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import diffcore as dc
from . import netpbm
from .decoder import EdgeDistribution
from .diffcore.io import FormatError, read_tensor, write_tensor
from .diffcore.tensor import Tensor, bilinear_resize_raw, bilinear_sampler
from .loss import LossConfig, stage_losses
from .model import EdgeDetector, ModelConfig, model_config_from_array, model_config_to_array

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
class Recipe:
    """An augmentation product. One draw picks a flip (none | h | v | hv), an
    angle (degrees, counter-clockwise), a scale and a gamma; ``out_size`` is
    a fixed final (H, W) resize or None. A recipe with one value per axis is
    a fixed transform."""

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


def _rotation(shape, angle):
    """The function that rotates an (H,W) array of ``shape`` counter-clockwise
    about the image center, on the same canvas; its sample map is built once.

    Multiples of 90 degrees on a square canvas are exact permutations;
    everything else is bilinear with out-of-canvas pixels set to 0.
    """
    angle = angle % 360.0
    H, W = shape
    if angle in (90.0, 180.0, 270.0) and (H == W or angle == 180.0):
        return lambda a: np.rot90(a, k=int(angle // 90)).copy()
    th = math.radians(angle)
    cy, cx = (H - 1) / 2.0, (W - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    # inverse map: rotate output coords by -angle (rows grow downward)
    dy, dx = ii - cy, jj - cx
    src_y = cy + math.cos(th) * dy - math.sin(th) * dx
    src_x = cx + math.sin(th) * dy + math.cos(th) * dx
    inside = (src_y >= -0.5) & (src_y <= H - 0.5) & (src_x >= -0.5) & (src_x <= W - 0.5)
    sample = bilinear_sampler(shape, src_y, src_x)
    return lambda a: np.where(inside, sample(a), 0.0)


def _recipe_named(name):
    if name not in RECIPES:
        raise ValueError(f"unknown recipe {name!r}; options: {sorted(RECIPES)}")
    return RECIPES[name]


def augment(sample: DatasetSample, recipe, rng) -> DatasetSample:
    """Draw one variant from the recipe (a ``Recipe`` or a ``RECIPES`` name)
    and apply its geometry (scale, rotate, flip, then resize) to the image
    and every annotator map. Rotation fill is marked invalid."""
    if isinstance(recipe, str):
        recipe = _recipe_named(recipe)
    flip = recipe.flips[rng.integers(len(recipe.flips))]
    angle = float(recipe.angles[rng.integers(len(recipe.angles))])
    scale = float(recipe.scales[rng.integers(len(recipe.scales))])
    gamma = float(recipe.gammas[rng.integers(len(recipe.gammas))])
    size = recipe.out_size
    if (flip, angle, scale, gamma, size) == ("none", 0.0, 1.0, 1.0, None):
        return replace(sample)

    rotations = {}  # one sample map per plane shape of this draw

    def geometry(a):
        out = a.astype(np.float64, copy=True)
        if scale != 1.0:
            H, W = out.shape
            out = bilinear_resize_raw(out, max(1, round(H * scale)), max(1, round(W * scale)))
        if angle % 360.0 != 0.0:
            if out.shape not in rotations:
                rotations[out.shape] = _rotation(out.shape, angle)
            out = rotations[out.shape](out)
        out = _flip2d(out, flip)
        if size is not None and out.shape != tuple(size):
            out = bilinear_resize_raw(out, size[0], size[1])
        return np.ascontiguousarray(out)

    img = np.stack([geometry(c) for c in sample.image])
    if gamma != 1.0:
        img = np.clip(img, 0.0, 1.0) ** gamma
    return DatasetSample(
        image=img.astype(np.float32),
        labels=[(geometry(lab) >= 0.5).astype(np.float64) for lab in sample.labels],
        valid=geometry(sample.valid.astype(np.float64)) >= 0.999,
        id=sample.id,
    )


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


def read_text_lines(path):
    """The lines of a UTF-8 text file; other bytes raise ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def read_id_list(path):
    """Sample ids, one per non-blank line of a UTF-8 file."""
    return [line.strip() for line in read_text_lines(path) if line.strip()]


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
    """Adam over named parameters, (name, tensor) pairs, at one learning rate."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(p.data, dtype=np.float64) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data, dtype=np.float64) for name, p in self.params}

    def step(self):
        self.t += 1
        b1, b2, lr = self.beta1, self.beta2, self.lr
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params:
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
        for _, p in self.params:
            p.zero_grad()

    def state_arrays(self):
        out = {"t": np.array([self.t], dtype=np.float32)}
        for name in self.m:
            out["m." + name] = self.m[name].astype(np.float32)
            out["v." + name] = self.v[name].astype(np.float32)
        return out

    def load_state_arrays(self, arrays):
        """Load ``state_arrays`` output. A step count that is not one
        non-negative integer, a moment that is missing or not of its
        parameter's shape, or a moment of a parameter this optimizer does not
        hold (a checkpoint of the other stage) raises FormatError naming the
        entry."""
        t = _count(arrays.get("t"), "optimizer state entry 't'")
        shapes = {k + name: p.shape for name, p in self.params for k in ("m.", "v.")}
        foreign = sorted(arrays.keys() - shapes.keys() - {"t"})
        if foreign:
            raise FormatError(f"optimizer state entry {foreign[0]!r} is not a moment of a "
                              "parameter this optimizer holds")
        for key, shape in shapes.items():
            got = arrays[key].shape if key in arrays else None
            if got != shape:
                raise FormatError(f"optimizer state entry {key!r} must have its "
                                  f"parameter's shape {shape}, got {got}")
        self.t = t
        for name, _ in self.params:
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
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr (the learning rate) must be positive and finite, got {self.lr}")
        for name in ("batch_size", "max_steps", "save_every", "weight_decay", "seed"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {getattr(self, name)}")
        if not 0 < self.mixed_threshold <= 1:
            raise ValueError(f"mixed_threshold must lie in (0, 1], got {self.mixed_threshold}")
        if self.label_mode not in ("random", "mixed"):
            raise ValueError(f"unknown label mode {self.label_mode!r}")
        _recipe_named(self.augment_recipe)

    @property
    def effective_batch(self):
        if self.batch_size > 0:
            return self.batch_size
        return 4 if self.stage == "global" else 3

    def fingerprint(self):
        """A hash of every field that changes a step: ``max_steps`` and
        ``save_every`` are left out, so a resume to more steps matches."""
        text = repr(replace(self, max_steps=0, save_every=0))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# the config-file keys that differ from their field path
CONFIG_ALIASES = {"augment": "augment_recipe", "loss.lambda": "loss.lam"}
_CONVERTERS = {int: int, float: float, str: str,
               tuple: lambda s: tuple(int(x) for x in s.split(","))}


def config_keys(cls=TrainConfig, prefix=""):
    """Config-file key -> (field path, converter) for every field of ``cls``
    but ``stage`` (set by ``edmb train --stage``), walking into the nested
    ``loss.`` and ``model.`` configs. A key is its field path, or its
    ``CONFIG_ALIASES`` name; the converter follows the default's type, and a
    tuple is comma-separated ints."""
    key_of = {path: key for key, path in CONFIG_ALIASES.items()}
    out = {}
    for f in fields(cls):
        path = prefix + f.name
        if f.default is MISSING:  # a nested config, built by its default_factory
            out.update(config_keys(f.default_factory, path + "."))
        elif path != "stage":
            out[key_of.get(path, path)] = (path, _CONVERTERS[type(f.default)])
    return out


def parse_config(path):
    """Parse a flat UTF-8 key=value file into a TrainConfig; unknown or
    repeated keys fail."""
    keys = config_keys()
    values, lines = {}, {}
    for lineno, line in enumerate(read_text_lines(path), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        dest, conv = keys[key]
        try:
            values[dest] = conv(raw)
        except Exception as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc

    def nested(prefix):
        return {k[len(prefix):]: v for k, v in values.items() if k.startswith(prefix)}

    return TrainConfig(**{k: v for k, v in values.items() if "." not in k},
                       loss=LossConfig(**nested("loss.")), model=ModelConfig(**nested("model.")))


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
    """Atomic binary save: magic, version, count, then named tensor entries.
    The temporary file is synced to disk before it replaces ``path``."""
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
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _count(arr, entry):
    """The value of a counter entry, which must be one non-negative integer."""
    v = arr.reshape(-1)[0] if arr is not None and arr.size == 1 else np.nan
    if not (np.isfinite(v) and v >= 0 and v == int(v)):
        raise FormatError(f"{entry} must be one non-negative integer, got {arr!r}")
    return int(v)


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
        state, opt_state, names = {}, {}, set()
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
            if name in names:
                raise FormatError(f"{path}: entry {name!r} appears twice")
            names.add(name)
            arr = read_tensor(fh)
            if name == "meta.step":
                step = _count(arr, f"{path}: meta.step")
            elif name == "meta.fingerprint":
                if not np.isin(arr, np.arange(128)).all():
                    raise FormatError(f"{path}: meta.fingerprint is not ASCII")
                fingerprint = bytes(arr.astype(np.uint8)).decode("ascii")
            elif name == "meta.model":
                try:
                    model_cfg = model_config_from_array(arr)
                except ValueError as exc:
                    raise FormatError(f"{path}: meta.model: {exc}") from exc
            elif name.startswith("adam."):
                opt_state[name[len("adam."):]] = arr
            else:
                state[name] = arr
    return Checkpoint(state, opt_state, step, fingerprint, model_config=model_cfg)


# -- padding and the stage forward -----------------------------------------------------


def pad_to_multiple(batch, mult):
    """Reflect-pad (B,3,H,W) on the bottom/right to a size multiple."""
    H, W = batch.shape[2], batch.shape[3]
    ph = (mult - H % mult) % mult
    pw = (mult - W % mult) % mult
    if ph == 0 and pw == 0:
        return batch, H, W
    padded = np.pad(batch, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
    return padded, H, W


def stage_outputs(model, batch, stage, rng=None):
    """One stage's outputs for a (B,3,H,W) array, at input resolution.

    The batch is reflect-padded to a multiple of ``ModelConfig.size_multiple``
    (32 by default) for the encoders, and every output map is cropped back to
    H x W. The global stage returns the edge probability map of
    ``forward_global``; the fine stage returns the list of distributions of
    ``forward_full``, main first, which the model's mode decides.
    """
    padded, H, W = pad_to_multiple(batch, model.cfg.size_multiple)
    x = Tensor(padded)

    def crop(t):
        if t.shape[2:] == (H, W):
            return t
        return dc.narrow(dc.narrow(t, 2, 0, H), 3, 0, W)

    if stage == "global":
        return crop(model.forward_global(x))
    dists = model.forward_full(x, rng)
    return [EdgeDistribution(crop(d.mu), crop(d.var)) for d in dists]


# -- the training loop -----------------------------------------------------------------


def train_stage(model: EdgeDetector, data, cfg: TrainConfig, init_ckpt=None,
                resume_ckpt=None, out_dir=None, eval_every=0, eval_fn=None) -> Checkpoint:
    """Run one training stage and return the final checkpoint.

    ``data`` is a list of DatasetSample. For the fine stage, ``init_ckpt``
    (a Checkpoint or path) restores the global-stage weights, which are then
    frozen: excluded from the optimizer and run in eval mode under no_grad.
    Each step first sets train mode (frozen modules: eval), so ``eval_fn``
    may change modes.
    ``resume_ckpt`` restores parameters, optimizer moments, and the step
    counter of an interrupted run of the same stage.
    """
    if not data:
        raise ValueError("train_stage: empty dataset")
    if cfg.stage == "fine":
        if init_ckpt is None and resume_ckpt is None:
            raise ValueError("fine stage requires a global-stage checkpoint")
        trainable = model.fine_param_names()
    else:
        trainable = model.global_param_names()

    named = dict(model.named_parameters())
    opt = Adam([(n, named[n]) for n in sorted(trainable)], cfg.lr, cfg.weight_decay)

    step = 0
    if resume_ckpt is not None:
        resume_ckpt = _as_checkpoint(resume_ckpt)
        if resume_ckpt.config_fingerprint != cfg.fingerprint():
            warnings.warn("resume checkpoint was written by a different config")
        # a moment set of the other stage raises here, before the model is touched
        opt.load_state_arrays(resume_ckpt.opt_state)
        step = resume_ckpt.step
    if cfg.stage == "fine" and init_ckpt is not None:
        model.load_state_arrays(_as_checkpoint(init_ckpt).state)
    if resume_ckpt is not None:
        model.load_state_arrays(resume_ckpt.state)

    master = np.random.default_rng(cfg.seed)
    order_rng, aug_rng, label_rng, window_rng, sample_rng = master.spawn(5)

    batch_size = cfg.effective_batch
    history = []
    order = []
    last_max_grad = 0.0
    recipe = cfg.augment_recipe

    while step < cfg.max_steps:
        model.train()
        if cfg.stage == "fine":
            model.set_frozen_eval()
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
        outputs = stage_outputs(model, batch, cfg.stage, window_rng)
        loss = stage_losses(outputs, y_batch, m_batch, cfg.loss, cfg.stage, rng=sample_rng)
        value = loss.item()
        if not np.isfinite(value):
            raise TrainingDiverged(
                f"non-finite loss at step {step}: {value}; "
                f"max |grad| at previous step {last_max_grad:.3e}"
            )
        dc.backward(loss)
        last_max_grad = max(
            (float(np.abs(p.grad).max()) for _, p in opt.params if p.grad is not None),
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
