import hashlib
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from edmb import diffcore as dc
from edmb import netpbm
from edmb.diffcore import nn
from edmb.diffcore.io import FormatError, read_tensor, write_tensor
from edmb.diffcore.tensor import Tensor
from edmb.inference import predict_distribution
from edmb.loss import LossConfig
from edmb.model import EdgeDetector, ModelConfig, model_config_from_array, model_config_to_array
from edmb.pipeline import (
    Adam,
    Checkpoint,
    DatasetSample,
    RECIPES,
    Recipe,
    TrainConfig,
    TrainingDiverged,
    augment,
    config_keys,
    load_checkpoint,
    load_dataset,
    parse_config,
    pad_to_multiple,
    read_id_list,
    save_checkpoint,
    select_label,
    train_stage,
)
from edmb.synth import make_shape_corpus, write_corpus


def tiny_train_cfg(stage="global", steps=4, seed=0, **kw):
    mcfg = ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                       decoder_ch=8, head_blocks=1, highres_ch=4, seed=3)
    kw.setdefault("batch_size", 2)
    return TrainConfig(stage=stage, max_steps=steps, seed=seed,
                       loss=LossConfig(), model=mcfg, **kw)


@pytest.fixture(scope="module")
def corpus():
    return make_shape_corpus(4, 64, seed=2)


class TestLoadDataset:
    def test_single_label_layout(self, tmp_path, corpus):
        write_corpus(corpus, tmp_path)
        samples = load_dataset(tmp_path, tmp_path / "list.txt")
        assert len(samples) == 4
        assert all(len(s.labels) == 1 for s in samples)
        assert samples[0].image.shape == (3, 64, 64)
        assert set(np.unique(samples[0].labels[0])) <= {0.0, 1.0}

    def test_multi_label_directory(self, tmp_path, corpus):
        write_corpus(corpus[:1], tmp_path)
        sid = corpus[0].id
        os.remove(tmp_path / "labels" / f"{sid}.pgm")
        d = tmp_path / "labels" / sid
        d.mkdir()
        for k in range(5):
            netpbm.write_pgm(d / f"{k}.pgm", corpus[0].labels[0])
        samples = load_dataset(tmp_path, tmp_path / "list.txt")
        assert len(samples[0].labels) == 5

    def test_missing_image_names_id(self, tmp_path, corpus):
        write_corpus(corpus[:1], tmp_path)
        (tmp_path / "list.txt").write_text("ghost\n")
        with pytest.raises(FileNotFoundError, match="ghost"):
            load_dataset(tmp_path, tmp_path / "list.txt")

    def test_corrupt_header_reports_path(self, tmp_path, corpus):
        write_corpus(corpus[:1], tmp_path)
        sid = corpus[0].id
        bad = tmp_path / "labels" / f"{sid}.pgm"
        bad.write_bytes(b"P5\n not numbers \n")
        with pytest.raises(netpbm.ImageFormatError, match=sid):
            load_dataset(tmp_path, tmp_path / "list.txt")

    def test_size_mismatch_names_id(self, tmp_path, corpus):
        write_corpus(corpus[:1], tmp_path)
        sid = corpus[0].id
        netpbm.write_pgm(tmp_path / "labels" / f"{sid}.pgm", np.zeros((32, 32)))
        with pytest.raises(ValueError, match=sid):
            load_dataset(tmp_path, tmp_path / "list.txt")

    def test_binarized_at_128(self, tmp_path):
        os.makedirs(tmp_path / "images")
        os.makedirs(tmp_path / "labels")
        img = np.zeros((8, 8, 3), dtype=np.uint8)
        netpbm.write_ppm(tmp_path / "images" / "a.ppm", img)
        lab = np.zeros((8, 8), dtype=np.uint8)
        lab[0, 0] = 127
        lab[0, 1] = 128
        netpbm.write_pgm(tmp_path / "labels" / "a.pgm", lab)
        (tmp_path / "list.txt").write_text("a\n")
        s = load_dataset(tmp_path, tmp_path / "list.txt")[0]
        assert s.labels[0][0, 0] == 0.0 and s.labels[0][0, 1] == 1.0


class TestAugment:
    # a Recipe with one value per axis is a fixed transform

    def test_identity_draw_unchanged(self, corpus, rng):
        out = augment(corpus[0], Recipe(), rng)
        np.testing.assert_array_equal(out.image, corpus[0].image)
        np.testing.assert_array_equal(out.labels[0], corpus[0].labels[0])

    def test_flip_involution(self, corpus, rng):
        flip = Recipe(flips=("h",))
        once = augment(corpus[0], flip, rng)
        twice = augment(once, flip, rng)
        assert not np.array_equal(once.image, corpus[0].image)
        np.testing.assert_array_equal(twice.image, corpus[0].image)
        np.testing.assert_array_equal(twice.labels[0], corpus[0].labels[0])

    def test_rot90_hand_permutation(self, rng):
        img = np.arange(16, dtype=np.float32).reshape(1, 4, 4) / 16.0
        img = np.concatenate([img] * 3)
        lab = np.zeros((4, 4))
        lab[0, 1] = 1.0
        s = DatasetSample(img, [lab], np.ones((4, 4), bool), "m")
        out = augment(s, Recipe(angles=(90.0,)), rng)
        # counter-clockwise: column j becomes row (W-1-j), exactly
        np.testing.assert_array_equal(out.image[0], np.rot90(img[0]))
        assert out.labels[0][2, 0] == 1.0  # (0,1) -> (4-1-1, 0)
        assert out.labels[0].sum() == 1.0 and out.valid.all()

    def test_rotation_fills_ignore(self, corpus, rng):
        out = augment(corpus[0], Recipe(angles=(30.0,)), rng)
        assert not out.valid.all()
        assert out.valid[32, 32]  # center survives
        assert not out.valid[0, 0]  # a corner comes from outside the canvas

    def test_label_consistency_invariant(self, corpus, rng):
        # one geometry moves every annotator map: identical maps stay identical
        s = corpus[0]
        two = DatasetSample(s.image, [s.labels[0], s.labels[0].copy()], s.valid, "two")
        for name in ("bsds", "biped"):
            for _ in range(5):
                out = augment(two, name, rng)
                np.testing.assert_array_equal(out.labels[0], out.labels[1])

    def test_same_seed_same_samples(self, corpus):
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(5):
            sa, sb = augment(corpus[1], "biped", a), augment(corpus[1], "biped", b)
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.labels[0], sb.labels[0])
            np.testing.assert_array_equal(sa.valid, sb.valid)

    @pytest.mark.bits
    def test_named_recipe_outputs_pinned(self, corpus):
        # image, labels and valid mask of six draws per recipe on a square
        # one-annotator and a 48x64 two-annotator sample, plus the generator's
        # end state: a change here changes every augmented training run
        s = corpus[0]
        wide = DatasetSample(s.image[:, :48], [s.labels[0][:48], corpus[1].labels[0][:48]],
                             np.ones((48, 64), bool), "wide")
        digest = hashlib.sha256()
        for name in ("none", "flips", "bsds", "nyud", "biped"):
            rng = np.random.default_rng(11)
            for sample in (s, wide) * 3:
                out = augment(sample, name, rng)
                for a in (out.image, *out.labels, out.valid):
                    digest.update(a.tobytes())
            digest.update(repr(rng.bit_generator.state).encode())
        assert digest.hexdigest() == (
            "72ecf17d488e61056551a1c14a232f641e5d434f82e6f99d3a20bc0e4267d5df")

    def test_resize_recipe_output_size(self, corpus, rng):
        s = augment(corpus[0], "nyud", rng)
        assert s.image.shape == (3, 400, 400)
        assert s.labels[0].shape == (400, 400)

    def test_labels_stay_binary(self, corpus, rng):
        for _ in range(5):
            s = augment(corpus[0], "bsds", rng)
            assert set(np.unique(s.labels[0])) <= {0.0, 1.0}

    def test_gamma_changes_image_not_labels(self, corpus, rng):
        out = augment(corpus[0], Recipe(gammas=(0.7,)), rng)
        assert not np.array_equal(out.image, corpus[0].image)
        np.testing.assert_array_equal(out.labels[0], corpus[0].labels[0])
        assert out.valid.all()

    def test_unknown_recipe_rejected(self, corpus, rng):
        with pytest.raises(ValueError, match="unknown recipe"):
            augment(corpus[0], "cityscapes", rng)

    def test_recipe_shapes(self):
        assert len(RECIPES["bsds"].flips) == 4
        assert len(RECIPES["bsds"].angles) == 25
        assert len(RECIPES["nyud"].angles) == 4
        assert len(RECIPES["biped"].angles) == 16
        assert RECIPES["biped"].gammas == (0.7, 1.0, 1.3)
        assert RECIPES["nyud"].scales == (0.5, 1.0, 1.5)


class TestSelectLabel:
    def test_single_label_both_modes(self, rng):
        lab = (np.arange(16).reshape(4, 4) % 5 == 0).astype(float)
        for mode in ("random", "mixed"):
            y, mask = select_label([lab], mode, rng)
            np.testing.assert_array_equal(y, lab)
            np.testing.assert_array_equal(mask, np.ones((4, 4)))

    def test_two_identical_mixed(self, rng):
        lab = (np.arange(16).reshape(4, 4) % 3 == 0).astype(float)
        y, mask = select_label([lab, lab.copy()], "mixed", rng)
        np.testing.assert_array_equal(y, lab)
        np.testing.assert_array_equal(mask, np.ones((4, 4)))

    def test_quarter_consensus_ignored(self, rng):
        labs = [np.zeros((2, 2)) for _ in range(4)]
        labs[0][0, 0] = 1.0  # mean 0.25 at (0,0): between 0 and rho
        y, mask = select_label(labs, "mixed", rng)
        assert y[0, 0] == 0.0 and mask[0, 0] == 0.0
        assert mask[1, 1] == 1.0

    def test_partition_invariant(self, rng):
        labs = [(rng.random((6, 6)) > 0.5).astype(float) for _ in range(3)]
        y, mask = select_label(labs, "mixed", rng)
        pos = (y == 1) & (mask == 1)
        neg = (y == 0) & (mask == 1)
        ign = mask == 0
        total = pos.sum() + neg.sum() + ign.sum()
        assert total == 36

    def test_random_mode_picks_an_annotator(self, rng):
        labs = [np.full((2, 2), float(k % 2)) for k in range(3)]
        y, _ = select_label(labs, "random", rng)
        assert any(np.array_equal(y, lab) for lab in labs)

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError, match="at least one"):
            select_label([], "random", rng)

    def test_valid_mask_folds_in(self, rng):
        lab = np.ones((2, 2))
        valid = np.array([[True, False], [True, True]])
        _, mask = select_label([lab], "random", rng, valid=valid)
        np.testing.assert_array_equal(mask, valid.astype(float))


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        state = {"param.a": rng.standard_normal((3, 4)).astype(np.float32),
                 "buffer.b": rng.standard_normal(5).astype(np.float32)}
        opt = {"t": np.array([7.0], dtype=np.float32),
               "m.a": rng.standard_normal((3, 4)).astype(np.float32)}
        ck = Checkpoint(state, opt, 7, "fingerprint1234", model_config=ModelConfig())
        path = tmp_path / "x.ckpt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        assert back.step == 7 and back.config_fingerprint == "fingerprint1234"
        for k in state:
            assert np.array_equal(back.state[k], state[k])
        for k in opt:
            assert np.array_equal(back.opt_state[k], opt[k])
        assert back.model_config == ModelConfig()

    def test_truncated_fails_cleanly(self, tmp_path, rng):
        ck = Checkpoint({"param.a": np.zeros((4, 4), dtype=np.float32)}, {}, 1, "f" * 16)
        path = tmp_path / "x.ckpt"
        save_checkpoint(ck, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_non_utf8_entry_name_is_format_error(self, tmp_path):
        ck = Checkpoint({"param.a": np.zeros(2, dtype=np.float32)}, {}, 1, "f" * 16)
        path = tmp_path / "x.ckpt"
        save_checkpoint(ck, path)
        path.write_bytes(path.read_bytes().replace(b"param.a", b"param.\xff"))
        with pytest.raises(FormatError, match="UTF-8"):
            load_checkpoint(path)

    def test_non_ascii_fingerprint_is_format_error(self, tmp_path):
        ck = Checkpoint({"param.a": np.zeros(2, dtype=np.float32)}, {}, 1, "f" * 16)
        path = tmp_path / "x.ckpt"
        save_checkpoint(ck, path)
        ascii_f = np.full(16, ord("f"), dtype="<f4").tobytes()
        data = path.read_bytes()
        assert data.count(ascii_f) == 1
        path.write_bytes(data.replace(ascii_f, np.full(16, 200, dtype="<f4").tobytes()))
        with pytest.raises(FormatError, match="fingerprint"):
            load_checkpoint(path)

    def test_non_finite_model_config_is_value_error(self):
        # a flipped exponent byte turns 1.0 into inf, which int() cannot take
        arr = model_config_to_array(ModelConfig())
        arr[2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            model_config_from_array(arr)

    def test_default_model_config_vector_pinned(self):
        # version 1, then every field but seed in field order, tuples flattened
        np.testing.assert_array_equal(model_config_to_array(ModelConfig()),
                                      [1, 80, 2, 2, 2, 8, 4, 64, 64, 1, 32, 2, 16])
        assert model_config_to_array(ModelConfig()).dtype == np.float32

    def test_model_config_vector_roundtrips_every_field(self):
        # every field but seed differs from its default; seed is not encoded
        cfg = ModelConfig(embed_dim=24, depths=(3, 0, 1), state_dim=5, patch_size=6,
                          base_hw=(48, 72), window_keep=3, decoder_ch=20, head_blocks=0,
                          highres_ch=10, seed=7)
        default = ModelConfig()
        assert all(getattr(cfg, f) != getattr(default, f) for f in vars(default))
        assert model_config_from_array(model_config_to_array(cfg)) == replace(cfg, seed=0)

    @pytest.mark.parametrize("arr,named", [
        pytest.param(np.array([1, 16, 2, 2, 2]), "5 values", id="short"),
        pytest.param(np.append(model_config_to_array(ModelConfig()), 4), "14 values, expected 13",
                     id="long"),
        pytest.param(np.where(np.arange(13) == 1, 16.4, model_config_to_array(ModelConfig())),
                     "non-integer", id="non-integer"),
    ])
    def test_corrupt_model_config_is_format_error(self, tmp_path, arr, named):
        # a bare "not enough values to unpack" before, and 16.4 was rounded;
        # the state entry is the checkpoint's one meta.model
        ck = Checkpoint({"meta.model": arr.astype(np.float32)}, {}, 1, "f" * 16)
        path = tmp_path / "x.ckpt"
        save_checkpoint(ck, path)
        with pytest.raises(FormatError, match=f"x.ckpt: meta.model: .*{named}"):
            load_checkpoint(path)

    # a negative step loaded and ran max_steps + 4 steps; 2.5 loaded as 2
    @pytest.mark.parametrize("step", [np.zeros(0), np.array([3.0, 4.0]), np.array([np.nan]),
                                      np.array([-4.0]), np.array([2.5])])
    def test_bad_step_entry_is_format_error(self, tmp_path, step):
        # a state entry named meta.step is written before the real one, and
        # the loader reads it first
        ck = Checkpoint({"meta.step": step.astype(np.float32)}, {}, 1, "f" * 16)
        path = tmp_path / "x.ckpt"
        save_checkpoint(ck, path)
        with pytest.raises(FormatError, match="meta.step"):
            load_checkpoint(path)

    @pytest.mark.parametrize("first", [
        pytest.param(("meta.step", np.array([5.0], dtype=np.float32)), id="meta.step"),
        pytest.param(("param.a", np.ones(2, dtype=np.float32)), id="param"),
    ])
    def test_repeated_entry_is_format_error(self, tmp_path, first):
        # the last of two entries with one name was kept, and the first
        # dropped silently; the file holds the named entry twice
        name, arr = first
        ck = Checkpoint({name: arr, "param.b": np.zeros(2, dtype=np.float32)}, {}, 1, "f" * 16)
        path = tmp_path / "x.ckpt"
        save_checkpoint(ck, path)
        if name == "param.a":  # rename param.b to a second param.a
            path.write_bytes(path.read_bytes().replace(b"param.b", b"param.a"))
        with pytest.raises(FormatError, match=f"x.ckpt: entry '{name}' appears twice"):
            load_checkpoint(path)

    def test_adam_state_without_step_count_is_format_error(self):
        # a bare KeyError: 't' before
        p = Tensor(np.zeros((4, 3)), requires_grad=True)
        opt = Adam([("w", p)], 1e-3)
        state = opt.state_arrays()
        del state["t"]
        with pytest.raises(FormatError, match="'t'"):
            opt.load_state_arrays(state)

    # t = -1 loaded, and the next step divided by 1 - 0.9**0 = 0; 2.5 loaded as 2
    @pytest.mark.parametrize("t", [-1.0, 2.5])
    def test_adam_step_count_not_a_count_is_format_error(self, t):
        p = Tensor(np.zeros((4, 3)), requires_grad=True)
        opt = Adam([("w", p)], 1e-3)
        state = opt.state_arrays()
        state["t"] = np.array([t], dtype=np.float32)
        with pytest.raises(FormatError, match="'t' must be one non-negative integer"):
            opt.load_state_arrays(state)
        assert opt.t == 0

    @pytest.mark.parametrize("key", ["m.w", "v.w"])
    def test_adam_moment_of_wrong_shape_is_format_error(self, key):
        # a (2,4,3) moment was taken as it was, and the next step turned the
        # (4,3) parameter into shape (2,4,3)
        p = Tensor(np.zeros((4, 3)), requires_grad=True)
        opt = Adam([("w", p)], 1e-3)
        state = opt.state_arrays()
        state[key] = np.zeros((2, 4, 3), dtype=np.float32)
        with pytest.raises(FormatError, match=f"'{key}'.*\\(2, 4, 3\\)"):
            opt.load_state_arrays(state)
        assert opt.m["w"].shape == opt.v["w"].shape == (4, 3)

    @pytest.mark.parametrize("held, saved", [
        pytest.param(("w", "u"), ("w",), id="missing"),
        pytest.param(("w",), ("w", "u"), id="foreign"),
    ])
    def test_adam_moments_of_other_parameters_are_format_error(self, held, saved):
        # a parameter with no moments was skipped, keeping zero moments, and
        # the moments of a parameter the optimizer does not hold were dropped;
        # t was taken either way
        shapes = {"w": (4, 3), "u": (2,)}
        state = Adam([(n, Tensor(np.ones(shapes[n]), requires_grad=True)) for n in saved],
                     1e-3).state_arrays()
        state["t"] = np.array([5.0], dtype=np.float32)
        opt = Adam([(n, Tensor(np.zeros(shapes[n]), requires_grad=True)) for n in held], 1e-3)
        with pytest.raises(FormatError, match="'m.u'"):
            opt.load_state_arrays(state)
        assert opt.t == 0

    @pytest.mark.bits
    def test_demo_model_state_pinned(self):
        # names, shapes and initial values of the README demo model, in name
        # order: checkpoints written by earlier versions load only while this
        # digest holds
        model = EdgeDetector(ModelConfig(embed_dim=16, depths=(1, 1, 1), state_dim=4,
                                         decoder_ch=16, head_blocks=1))
        digest = hashlib.sha256()
        for name, arr in sorted(model.state_arrays().items()):
            digest.update(name.encode() + str(arr.shape).encode() + arr.tobytes())
        assert digest.hexdigest() == (
            "4a3dc413146fd595f084f43bb0f1e3fcc21f0470058c1e5f43b9b58ea0e1d59d")

    def test_model_state_roundtrip_through_file(self, tmp_path, corpus):
        cfg = tiny_train_cfg(steps=2)
        model = EdgeDetector(cfg.model)
        ck = train_stage(model, corpus, cfg)
        path = tmp_path / "g.ckpt"
        save_checkpoint(ck, path)
        back = load_checkpoint(path)
        model2 = EdgeDetector(cfg.model)
        model2.load_state_arrays(back.state)
        for (n1, p1), (n2, p2) in zip(model.named_parameters(), model2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)


    def test_mis_shaped_buffer_raises_naming_it(self, rng):
        # a (1,) running mean loaded, and the first eval forward failed in a
        # reshape that named no entry
        block = nn.ConvNormRelu(3, 4, rng)
        state = block.state_arrays()
        state["buffer.norm.running_mean"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(FormatError, match=r"'buffer.norm.running_mean'.*\(1,\) != model \(4,\)"):
            block.load_state_arrays(state)

    def test_unknown_checkpoint_entry_raises_naming_it(self, tmp_path, rng):
        # an entry outside param./buffer. was dropped silently
        block = nn.ConvNormRelu(3, 4, rng)
        state = {**block.state_arrays(), "junk.x": np.zeros(2, dtype=np.float32)}
        save_checkpoint(Checkpoint(state, {}, 0, "f" * 16), tmp_path / "x.ckpt")
        with pytest.raises(FormatError, match="'junk.x'"):
            block.load_state_arrays(load_checkpoint(tmp_path / "x.ckpt").state)

    def test_missing_entries_are_format_error_naming_the_first(self, rng):
        # a KeyError listed up to four names, and the CLI printed it in quotes
        block = nn.ConvNormRelu(3, 4, rng)
        state = block.state_arrays()
        del state["buffer.norm.running_var"]
        with pytest.raises(FormatError, match="^state is missing entry 'buffer.norm.running_var'$"):
            block.load_state_arrays(state)
        del state["buffer.norm.running_mean"]
        with pytest.raises(FormatError, match="'buffer.norm.running_mean' and 1 more$"):
            block.load_state_arrays(state)

    @pytest.mark.parametrize("bad", ["missing", "unknown", "mis-shaped"])
    def test_bad_entry_leaves_every_entry_unchanged(self, rng, bad):
        # entries were assigned as they were checked, so the ones before the
        # bad entry (or all of them, for a missing one) were already loaded
        block = nn.ConvNormRelu(3, 4, rng)
        before = block.state_arrays()
        state = {k: v + 1.0 for k, v in before.items()}
        if bad == "missing":
            del state["buffer.norm.running_var"]
        elif bad == "unknown":
            state["buffer.norm.extra"] = np.zeros(4, dtype=np.float32)
        else:
            state["buffer.norm.running_var"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(FormatError, match="running_var|extra"):
            block.load_state_arrays(state)
        after = block.state_arrays()
        assert [k for k in before if not np.array_equal(after[k], before[k])] == []


def _read_tensor_file(path):
    with open(path, "rb") as fh:
        return read_tensor(fh)


class TestCorruptFiles:
    """Truncated or byte-flipped files fail with a named error
    (FormatError, ImageFormatError or a plain ValueError), never with another
    exception or a warning."""

    @staticmethod
    def _write(kind, path):
        rng = np.random.default_rng(0)
        if kind == "checkpoint":
            ck = Checkpoint({"param.w": rng.random((4, 5), dtype=np.float32)},
                            {"m.param.w": np.zeros((4, 5), np.float32)}, 7, "f" * 16,
                            model_config=ModelConfig(embed_dim=16, depths=(1, 1, 1)))
            save_checkpoint(ck, path)
            return load_checkpoint
        if kind == "tensor":
            with open(path, "wb") as fh:
                write_tensor(fh, rng.random((10, 10), dtype=np.float32))
            return _read_tensor_file
        if kind == "ppm":
            netpbm.write_ppm(path, rng.random((12, 12, 3)))
        else:
            netpbm.write_pgm(path, rng.random((20, 20)))
        return netpbm.read_netpbm

    @pytest.mark.parametrize("kind", ["checkpoint", "tensor", "ppm", "pgm"])
    def test_truncations_and_byte_flips_fail_with_named_errors(self, tmp_path, kind):
        load = self._write(kind, tmp_path / "good")
        data = (tmp_path / "good").read_bytes()
        assert len(data) > 400
        rng = np.random.default_rng(1)
        cases = [("truncated", n) for n in np.linspace(0, len(data) - 1, 400).astype(int)]
        cases += [("flipped", i) for i in rng.integers(len(data), size=800)]
        bad, unnamed = tmp_path / "bad", []
        for what, n in cases:
            if what == "truncated":
                bad.write_bytes(data[:n])
            else:
                bad.write_bytes(data[:n] + bytes([data[n] ^ rng.integers(1, 256)]) + data[n + 1 :])
            try:
                load(bad)
            except Exception as exc:
                if not isinstance(exc, (FormatError, netpbm.ImageFormatError)) \
                        and type(exc) is not ValueError:
                    unnamed.append((what, n, repr(exc)))
            else:
                if what == "truncated":
                    unnamed.append((what, n, "loaded"))
        assert not unnamed, unnamed[:5]

    # "-2 -3" raised numpy's reshape error, a zero side loaded an empty image
    @pytest.mark.parametrize("size", [b"-2 -3", b"0 0", b"0 4", b"4 -1"])
    def test_netpbm_non_positive_size_is_image_format_error(self, tmp_path, size):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n" + size + b" 255\n")
        with pytest.raises(netpbm.ImageFormatError, match="bad size"):
            netpbm.read_netpbm(path)


class TestConfigFile:
    def test_full_parse(self, tmp_path):
        text = """
# comment
batch_size=2
lr=0.0002
weight_decay=0.001
max_steps=7
seed=9
label_mode=mixed
mixed_threshold=0.4
augment=bsds
save_every=5
loss.lambda=1.3
loss.varphi=0.5
loss.alpha2=0.2
loss.eps=0.0001
model.embed_dim=16
model.depths=1,2,1
model.state_dim=4
model.patch_size=4
model.base_hw=64,64
model.window_keep=2
model.decoder_ch=12
model.head_blocks=1
model.highres_ch=8
model.seed=3
"""
        path = tmp_path / "c.cfg"
        path.write_text(text)
        cfg = parse_config(path)
        assert cfg.batch_size == 2
        assert cfg.loss.lam == 1.3
        assert cfg.model.depths == (1, 2, 1) and cfg.model.window_keep == 2
        assert cfg.augment_recipe == "bsds" and cfg.mixed_threshold == 0.4

    # key = value line, the field path it sets, and the value it lands as
    KEYS = {
        "batch_size": ("2", "batch_size", 2),
        "lr": ("0.0002", "lr", 0.0002),
        "weight_decay": ("0.001", "weight_decay", 0.001),
        "max_steps": ("7", "max_steps", 7),
        "seed": ("9", "seed", 9),
        "label_mode": ("mixed", "label_mode", "mixed"),
        "mixed_threshold": ("0.4", "mixed_threshold", 0.4),
        "augment": ("bsds", "augment_recipe", "bsds"),
        "save_every": ("5", "save_every", 5),
        "loss.lambda": ("1.3", "loss.lam", 1.3),
        "loss.varphi": ("0.5", "loss.varphi", 0.5),
        "loss.alpha2": ("0.2", "loss.alpha2", 0.2),
        "loss.eps": ("0.0001", "loss.eps", 0.0001),
        "model.embed_dim": ("16", "model.embed_dim", 16),
        "model.depths": ("1,2,1", "model.depths", (1, 2, 1)),
        "model.state_dim": ("4", "model.state_dim", 4),
        "model.patch_size": ("2", "model.patch_size", 2),
        "model.base_hw": ("96,64", "model.base_hw", (96, 64)),
        "model.window_keep": ("2", "model.window_keep", 2),
        "model.decoder_ch": ("12", "model.decoder_ch", 12),
        "model.head_blocks": ("1", "model.head_blocks", 1),
        "model.highres_ch": ("8", "model.highres_ch", 8),
        "model.seed": ("3", "model.seed", 3),
    }

    def test_key_set_pinned(self):
        # every TrainConfig field but stage, two of them under an alias
        assert len(self.KEYS) == 23
        assert set(config_keys()) == set(self.KEYS)
        assert {k: path for k, (path, _) in config_keys().items()} == {
            k: path for k, (_, path, _) in self.KEYS.items()}

    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_each_key_sets_its_field(self, tmp_path, key):
        raw, dest, want = self.KEYS[key]
        path = tmp_path / "c.cfg"
        path.write_text(f"{key}={raw}\n")
        cfg, default = parse_config(path), TrainConfig()
        for part in dest.split("."):
            cfg, default = getattr(cfg, part), getattr(default, part)
        assert cfg == want and type(cfg) is type(want) and default != want

    def test_repeated_key_names_both_lines(self, tmp_path):
        # the last of the two values was taken: this file trained 10 steps
        path = tmp_path / "c.cfg"
        path.write_text("max_steps=800\nseed=3\n\nmax_steps=10\n")
        with pytest.raises(ValueError, match="c.cfg:4: config key 'max_steps' repeats line 1"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        for line in ("learning_rate=3", "lr_pretrained=0.00005", "loss.alpha1=0.0",
                     "stage=fine", "loss.literal_eq9_weights=1"):
            path.write_text(line + "\n")
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config(path)

    def test_unknown_augment_recipe_rejected(self, tmp_path):
        # this parsed, and `edmb train` failed only at its first step
        path = tmp_path / "c.cfg"
        path.write_text("augment=cityscapes\n")
        with pytest.raises(ValueError, match="unknown recipe 'cityscapes'"):
            parse_config(path)

    @pytest.mark.parametrize("line, match", [("model.depths=1,1", "three stages"),
                                             ("model.window_keep=5", "window_keep")])
    def test_invalid_model_rejected(self, tmp_path, line, match):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=match):
            parse_config(path)

    @pytest.mark.parametrize("line", ["max_steps=soon"])
    def test_bad_value_rejected(self, tmp_path, line):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_config(path)

    # each was accepted before: save_every=-1 saved at every step, a negative
    # seed failed in numpy naming no field, an infinite lr or weight decay
    # was taken as it was, a negative
    # batch size fell back to the stage default, mixed_threshold=0 made
    # every pixel of an all-zero label positive, loss.alpha2=nan silently
    # dropped the auxiliary ELBO, a zero width ended in ZeroDivisionError, a
    # base_hw without one patch per fine window failed at the first forward
    # with IndexError, a negative depth built a stage with no blocks, and an
    # odd patch size failed in the first fusion cascade
    @pytest.mark.parametrize("line, match", [
        ("save_every=-1", "save_every"),
        ("batch_size=-2", "batch_size"),
        ("max_steps=-5", "max_steps"),
        ("weight_decay=-0.001", "weight_decay"),
        ("weight_decay=nan", "weight_decay"),
        ("mixed_threshold=0", "mixed_threshold"),
        ("mixed_threshold=1.5", "mixed_threshold"),
        ("lr=nan", "learning rate"),
        ("lr=inf", "lr"),
        ("weight_decay=inf", "weight_decay"),
        ("seed=-1", "seed"),
        ("model.seed=-1", "seed"),
        ("loss.lambda=nan", "lam"),
        ("loss.varphi=nan", "varphi"),
        ("loss.alpha2=nan", "alpha2"),
        ("loss.lambda=inf", "lam"),
        ("loss.varphi=inf", "varphi"),
        ("loss.alpha2=inf", "alpha2"),
        ("model.embed_dim=0", "embed_dim"),
        ("model.state_dim=0", "state_dim"),
        ("model.patch_size=0", "patch_size"),
        ("model.patch_size=1", "patch_size"),
        ("model.patch_size=3", "patch_size"),
        ("model.decoder_ch=0", "decoder_ch"),
        ("model.highres_ch=0", "highres_ch"),
        ("model.head_blocks=-1", "head_blocks"),
        ("model.base_hw=64", "base_hw"),
        ("model.base_hw=4,4", "base_hw"),
        ("model.depths=-1,1,1", "depths"),
    ])
    def test_out_of_range_number_rejected(self, tmp_path, line, match):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=match):
            parse_config(path)


    @pytest.mark.parametrize("read", [parse_config, read_id_list])
    def test_non_utf8_text_is_value_error(self, tmp_path, read):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed=1\n\xff\xfe=2\n")
        with pytest.raises(ValueError, match="not UTF-8") as info:
            read(path)
        assert type(info.value) is ValueError and str(path) in str(info.value)


class TestTrainStage:
    def test_global_stage_decreases_loss(self, corpus):
        cfg = tiny_train_cfg(steps=30, seed=1)
        model = EdgeDetector(cfg.model)
        ck = train_stage(model, corpus, cfg)
        h = ck.loss_history
        assert np.mean(h[-5:]) < np.mean(h[:5])

    @pytest.mark.bits
    @pytest.mark.parametrize("keep", [1, 2])
    def test_two_stage_training_state_pinned(self, corpus, keep):
        # every parameter, buffer and Adam moment plus the loss history after
        # 2 global and then 2 fine steps; with keep < 4 the fine encoder also
        # runs gradient-free windows
        mcfg = replace(tiny_train_cfg().model, window_keep=keep)
        gcfg = replace(tiny_train_cfg(steps=2, seed=6), model=mcfg)
        fcfg = replace(tiny_train_cfg(stage="fine", steps=2, seed=7), model=mcfg)
        ck1 = train_stage(EdgeDetector(mcfg), corpus, gcfg)
        ck2 = train_stage(EdgeDetector(mcfg), corpus, fcfg, init_ckpt=ck1)
        digest = hashlib.sha256()
        for ck in (ck1, ck2):
            for arrays in (ck.state, ck.opt_state):
                for name, arr in sorted(arrays.items()):
                    digest.update(name.encode() + arr.tobytes())
            digest.update(np.asarray(ck.loss_history, np.float64).tobytes())
        assert digest.hexdigest() == {
            1: "667a3585a2970b2a33a028a243326037e2ceb2d9626d637ee07d5ea6492a48da",
            2: "17ac7e0344d48590d450b8bb907fce5765a52ee6498c92c36f1e10d154d5e0be",
        }[keep]

    def test_fine_requires_checkpoint(self, corpus):
        cfg = tiny_train_cfg(stage="fine", steps=1)
        with pytest.raises(ValueError, match="checkpoint"):
            train_stage(EdgeDetector(cfg.model), corpus, cfg)

    def test_freeze_bit_exact_and_aux_p_preserved(self, corpus):
        cfg1 = tiny_train_cfg(steps=6, seed=1)
        model = EdgeDetector(cfg1.model)
        ck1 = train_stage(model, corpus, cfg1)

        model2 = EdgeDetector(cfg1.model)
        cfg2 = tiny_train_cfg(stage="fine", steps=8, seed=2)
        # reference aux_p of the restored stage-1 model, eval mode
        ref = EdgeDetector(cfg1.model)
        ref.load_state_arrays(ck1.state)
        ref.eval()
        x = Tensor(np.stack([s.image for s in corpus[:1]]).astype(np.float32))
        with dc.no_grad():
            aux_before = ref.forward_global(x).data.copy()

        ck2 = train_stage(model2, corpus, cfg2, init_ckpt=ck1)
        frozen = model2.global_param_names()
        named1 = dict(ck1.state)
        for name, p in model2.named_parameters():
            if name in frozen:
                np.testing.assert_array_equal(
                    p.data.astype(np.float32), named1["param." + name], err_msg=name
                )
        model2.eval()
        with dc.no_grad():
            aux_after = model2.forward_global(x).data
        np.testing.assert_array_equal(aux_before, aux_after)

    def test_predicting_probe_leaves_frozen_buffers_unchanged(self, corpus):
        # the probe's prediction leaves the model in eval mode; each fine step
        # must then put the model in train mode with the frozen branch in eval
        cfg1 = tiny_train_cfg(steps=2, seed=1)
        ck1 = train_stage(EdgeDetector(cfg1.model), corpus, cfg1)
        model = EdgeDetector(cfg1.model)

        def probe(model_, step, history):
            predict_distribution(model_, corpus[0].image)

        train_stage(model, corpus, tiny_train_cfg(stage="fine", steps=3, seed=2),
                    init_ckpt=ck1, eval_every=1, eval_fn=probe)
        prefixes = tuple(f"buffer.{path}." for path in EdgeDetector.GLOBAL_BRANCH)
        state = model.state_arrays()
        frozen = [k for k in state if k.startswith(prefixes)]
        assert frozen
        for k in frozen:
            assert state[k].tobytes() == ck1.state[k].tobytes(), k

    def test_global_stage_after_fine_updates_guide_statistics(self, corpus):
        cfg1 = tiny_train_cfg(steps=2, seed=1)
        model = EdgeDetector(cfg1.model)
        ck1 = train_stage(model, corpus, cfg1)
        train_stage(model, corpus, tiny_train_cfg(stage="fine", steps=1, seed=2), init_ckpt=ck1)
        before = model.state_arrays()
        train_stage(model, corpus, tiny_train_cfg(steps=1, seed=3))
        after = model.state_arrays()
        stats = [k for k in before if k.startswith("buffer.decoder.cff_global.")]
        assert stats
        for k in stats:
            assert before[k].tobytes() != after[k].tobytes(), k

    def test_determinism_byte_identical(self, tmp_path, corpus, f64):
        blobs = []
        for run in range(2):
            cfg = tiny_train_cfg(steps=6, seed=11)
            model = EdgeDetector(cfg.model)
            ck = train_stage(model, corpus, cfg)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(ck, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_divergence_aborts_with_diagnostics(self, corpus):
        cfg = tiny_train_cfg(steps=3)
        model = EdgeDetector(cfg.model)
        model.decoder.edge_head.final.weight.data[:] = np.nan
        with pytest.raises(TrainingDiverged, match="step 0"):
            train_stage(model, corpus, cfg)

    def test_batch_defaults_by_stage(self):
        assert tiny_train_cfg("global", batch_size=0).effective_batch == 4
        assert tiny_train_cfg("fine", batch_size=0).effective_batch == 3

    def test_resume_restores_step(self, tmp_path, corpus):
        cfg = tiny_train_cfg(steps=3, seed=5)
        model = EdgeDetector(cfg.model)
        ck = train_stage(model, corpus, cfg)
        # only max_steps differs, which changes no step: the resume does not warn
        cfg2 = tiny_train_cfg(steps=5, seed=5)
        model2 = EdgeDetector(cfg2.model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ck2 = train_stage(model2, corpus, cfg2, resume_ckpt=ck)
        assert ck2.step == 5 and len(ck2.loss_history) == 2

    def test_resume_with_other_lr_warns(self, corpus):
        ck = train_stage(EdgeDetector(tiny_train_cfg().model), corpus,
                         tiny_train_cfg(steps=1, seed=5))
        cfg2 = tiny_train_cfg(steps=2, seed=5, lr=3e-4)
        with pytest.warns(UserWarning, match="different config"):
            ck2 = train_stage(EdgeDetector(cfg2.model), corpus, cfg2, resume_ckpt=ck)
        assert ck2.step == 2

    def test_fingerprint_leaves_out_run_length_and_save_cadence(self):
        # resuming to more steps always warned "different config"
        base = TrainConfig(max_steps=3).fingerprint()
        assert TrainConfig(max_steps=5).fingerprint() == base
        assert TrainConfig(max_steps=3, save_every=2).fingerprint() == base
        for changed in (TrainConfig(max_steps=3, lr=2e-4), TrainConfig(max_steps=3, seed=1),
                        TrainConfig(stage="fine"), TrainConfig(model=ModelConfig(embed_dim=16)),
                        TrainConfig(loss=LossConfig(varphi=0.5))):
            assert changed.fingerprint() != base

    def test_resume_from_other_stage_is_format_error(self, corpus):
        # a fine run resumed from a global checkpoint ran on from the global
        # step with zero fine moments, and only warned of a different config
        cfg = tiny_train_cfg(steps=3, seed=5)
        ck = train_stage(EdgeDetector(cfg.model), corpus, cfg)
        fcfg = tiny_train_cfg(stage="fine", steps=5, seed=5)
        model = EdgeDetector(fcfg.model)
        before = model.state_arrays()
        with pytest.warns(UserWarning, match="different config"):
            with pytest.raises(FormatError, match="entry 'm\\..*' is not a moment"):
                train_stage(model, corpus, fcfg, resume_ckpt=ck)
        # the model state was loaded before the moments were checked
        after = model.state_arrays()
        assert [k for k in before if not np.array_equal(after[k], before[k])] == []


class TestPadding:
    def test_pad_to_multiple(self):
        x = np.zeros((1, 3, 70, 70), dtype=np.float32)
        padded, H, W = pad_to_multiple(x, 32)
        assert padded.shape == (1, 3, 96, 96) and (H, W) == (70, 70)
        y = np.zeros((1, 3, 64, 64), dtype=np.float32)
        same, _, _ = pad_to_multiple(y, 32)
        assert same.shape == y.shape
