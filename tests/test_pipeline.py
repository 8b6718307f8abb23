import os

import numpy as np
import pytest

from edmb import diffcore as dc
from edmb import netpbm
from edmb.diffcore.io import FormatError
from edmb.diffcore.tensor import Tensor
from edmb.loss import LossConfig
from edmb.model import EdgeDetector, ModelConfig
from edmb.pipeline import (
    Checkpoint,
    DatasetSample,
    RECIPES,
    TrainConfig,
    TrainingDiverged,
    TransformRecord,
    apply_transform,
    augment,
    load_checkpoint,
    load_dataset,
    parse_config,
    pad_to_multiple,
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
    def test_identity_draw_unchanged(self, corpus):
        rec = TransformRecord()
        out = apply_transform(corpus[0], rec)
        np.testing.assert_array_equal(out.image, corpus[0].image)
        np.testing.assert_array_equal(out.labels[0], corpus[0].labels[0])

    def test_flip_involution(self, corpus):
        rec = TransformRecord(flip="h")
        once = apply_transform(corpus[0], rec)
        twice = apply_transform(once, rec)
        np.testing.assert_array_equal(twice.image, corpus[0].image)
        np.testing.assert_array_equal(twice.labels[0], corpus[0].labels[0])

    def test_rot90_hand_permutation(self):
        img = np.arange(16, dtype=np.float32).reshape(1, 4, 4) / 16.0
        img = np.concatenate([img] * 3)
        lab = np.zeros((4, 4))
        lab[0, 1] = 1.0
        s = DatasetSample(img, [lab], np.ones((4, 4), bool), "m")
        out = apply_transform(s, TransformRecord(angle=90.0))
        # counter-clockwise: column j becomes row (W-1-j)
        want = np.rot90(img[0])
        np.testing.assert_allclose(out.image[0], want, atol=1e-7)
        assert out.labels[0][2, 0] == 1.0  # (0,1) -> (4-1-1, 0)

    def test_rotation_fills_ignore(self, corpus):
        out = apply_transform(corpus[0], TransformRecord(angle=30.0))
        assert not out.valid.all()
        assert out.valid[32, 32]  # center survives

    def test_label_consistency_invariant(self, corpus, rng):
        for _ in range(5):
            s = augment(corpus[0], "biped", rng)
            rec = s.transform
            replayed = apply_transform(corpus[0], rec)
            np.testing.assert_array_equal(replayed.labels[0], s.labels[0])
            np.testing.assert_array_equal(replayed.valid, s.valid)

    def test_resize_recipe_output_size(self, corpus, rng):
        s = augment(corpus[0], "nyud", rng)
        assert s.image.shape == (3, 400, 400)
        assert s.labels[0].shape == (400, 400)

    def test_labels_stay_binary(self, corpus, rng):
        for _ in range(5):
            s = augment(corpus[0], "bsds", rng)
            assert set(np.unique(s.labels[0])) <= {0.0, 1.0}

    def test_gamma_changes_image_not_labels(self, corpus):
        out = apply_transform(corpus[0], TransformRecord(gamma=0.7))
        assert not np.array_equal(out.image, corpus[0].image)
        np.testing.assert_array_equal(out.labels[0], corpus[0].labels[0])

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
loss.literal_eq9_weights=true
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
        assert cfg.loss.lam == 1.3 and cfg.loss.literal_weights
        assert cfg.model.depths == (1, 2, 1) and cfg.model.window_keep == 2
        assert cfg.augment_recipe == "bsds" and cfg.mixed_threshold == 0.4

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        for line in ("learning_rate=3", "lr_pretrained=0.00005", "loss.alpha1=0.0",
                     "stage=fine"):
            path.write_text(line + "\n")
            with pytest.raises(ValueError, match="unknown config key"):
                parse_config(path)

    @pytest.mark.parametrize("line, match", [("model.depths=1,1", "three stages"),
                                             ("model.window_keep=5", "window_keep")])
    def test_invalid_model_rejected(self, tmp_path, line, match):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=match):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("max_steps=soon\n")
        with pytest.raises(ValueError, match="bad value"):
            parse_config(path)


class TestTrainStage:
    def test_global_stage_decreases_loss(self, corpus):
        cfg = tiny_train_cfg(steps=30, seed=1)
        model = EdgeDetector(cfg.model)
        ck = train_stage(model, corpus, cfg)
        h = ck.loss_history
        assert np.mean(h[-5:]) < np.mean(h[:5])

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
        cfg2 = tiny_train_cfg(steps=5, seed=5)  # max_steps differs: new fingerprint
        model2 = EdgeDetector(cfg2.model)
        with pytest.warns(UserWarning, match="different config"):
            ck2 = train_stage(model2, corpus, cfg2, resume_ckpt=ck)
        assert ck2.step == 5 and len(ck2.loss_history) == 2


class TestPadding:
    def test_pad_to_multiple(self):
        x = np.zeros((1, 3, 70, 70), dtype=np.float32)
        padded, H, W = pad_to_multiple(x, 32)
        assert padded.shape == (1, 3, 96, 96) and (H, W) == (70, 70)
        y = np.zeros((1, 3, 64, 64), dtype=np.float32)
        same, _, _ = pad_to_multiple(y, 32)
        assert same.shape == y.shape
