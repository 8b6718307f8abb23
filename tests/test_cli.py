import io
import json
import os
import re
import shutil
from contextlib import redirect_stdout

import numpy as np
import pytest

from edmb import netpbm, verify
from edmb.cli import build_parser, main
from edmb.pipeline import load_checkpoint, save_checkpoint
from edmb.synth import make_shape_corpus, write_corpus

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_flags.json")

TINY_CFG = """
max_steps=3
seed=1
batch_size=2
model.embed_dim=8
model.depths=1,1,1
model.state_dim=2
model.decoder_ch=8
model.head_blocks=1
model.highres_ch=4
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    data = tmp / "data"
    write_corpus(make_shape_corpus(3, 64, seed=9), data)
    cfg = tmp / "train.cfg"
    cfg.write_text(TINY_CFG)
    out = tmp / "run"
    rc = main(["train", "--stage", "global", "--config", str(cfg), "--data", str(data),
               "--list", str(data / "list.txt"), "--out", str(out)])
    assert rc == 0
    return {"tmp": tmp, "data": data, "cfg": cfg, "ckpt": out / "global.ckpt"}


class TestHelpGolden:
    def test_every_flag_documented(self):
        golden = json.load(open(GOLDEN))
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        for name, expected in golden.items():
            p = sub.choices[name]
            help_text = p.format_help()
            flags = set(re.findall(r"--[a-z-]+", help_text)) - {"--help"}
            assert flags == set(expected), f"{name}: {flags} != {set(expected)}"


class TestExitCodes:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["launch"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--speed", "fast"])
        assert exc.value.code == 2

    def test_runtime_failure_exits_1(self, capsys):
        rc = main(["infer", "--ckpt", "/nonexistent.ckpt", "--image", "x.ppm",
                   "--out", "y.pgm"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    # --seed is applied after the config checks, so -1 reached numpy's
    # "expected non-negative integer", which names no field
    def test_negative_seed_override_exits_1_naming_seed(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        rc = main(["train", "--stage", "global", "--config", str(workspace["cfg"]),
                   "--data", str(data), "--list", str(data / "list.txt"),
                   "--out", str(tmp_path / "run"), "--seed", "-1"])
        assert rc == 1
        assert "seed must be non-negative" in capsys.readouterr().err


class TestInferSweep:
    def test_infer_default_gamma_matches_sweep_zero(self, workspace, tmp_path):
        img = workspace["data"] / "images" / "shape00.ppm"
        out = tmp_path / "edge.pgm"
        assert main(["infer", "--ckpt", str(workspace["ckpt"]), "--image", str(img),
                     "--out", str(out)]) == 0
        sweep_dir = tmp_path / "sweep"
        assert main(["sweep", "--ckpt", str(workspace["ckpt"]), "--image", str(img),
                     "--out-dir", str(sweep_dir), "--gammas", "0:1:1"]) == 0
        a = netpbm.read_netpbm(out)
        b = netpbm.read_netpbm(sweep_dir / "shape00_g0.pgm")
        np.testing.assert_array_equal(a, b)

    def test_sweep_default_grid_eleven_files(self, workspace, tmp_path):
        img = workspace["data"] / "images" / "shape01.ppm"
        sweep_dir = tmp_path / "sweep11"
        assert main(["sweep", "--ckpt", str(workspace["ckpt"]), "--image", str(img),
                     "--out-dir", str(sweep_dir)]) == 0
        assert len(list(sweep_dir.glob("*.pgm"))) == 11

    def test_non_finite_gamma_exits_1_without_writing(self, workspace, tmp_path, capsys):
        img = workspace["data"] / "images" / "shape00.ppm"
        out = tmp_path / "nan.pgm"
        assert main(["infer", "--ckpt", str(workspace["ckpt"]), "--image", str(img),
                     "--out", str(out), "--gamma", "nan"]) == 1
        assert "gamma must be finite" in capsys.readouterr().err
        assert not out.exists()
        sweep_dir = tmp_path / "nan_sweep"
        assert main(["sweep", "--ckpt", str(workspace["ckpt"]), "--image", str(img),
                     "--out-dir", str(sweep_dir), "--gammas", "nan:1:3"]) == 1
        assert "finite" in capsys.readouterr().err
        assert not sweep_dir.exists()


    def test_checkpoint_missing_an_entry_exits_1_naming_it(self, workspace, tmp_path, capsys):
        # the KeyError printed its message in quotes: error: "state is missing ..."
        ckpt = load_checkpoint(workspace["ckpt"])
        del ckpt.state["param.decoder.edge_head.final.bias"]
        save_checkpoint(ckpt, tmp_path / "cut.ckpt")
        img = workspace["data"] / "images" / "shape00.ppm"
        assert main(["infer", "--ckpt", str(tmp_path / "cut.ckpt"), "--image", str(img),
                     "--out", str(tmp_path / "edge.pgm")]) == 1
        assert capsys.readouterr().err == (
            "error: state is missing entry 'param.decoder.edge_head.final.bias'\n")


class TestEvalCommand:
    def test_ground_truth_scores_one(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        pred = tmp_path / "pred"
        pred.mkdir()
        ids = (data / "list.txt").read_text().split()
        for sid in ids:
            shutil.copy(data / "labels" / f"{sid}.pgm", pred / f"{sid}.pgm")
        rc = main(["eval", "--pred", str(pred), "--gt", str(data / "labels"),
                   "--list", str(data / "list.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ods=1.000000" in out
        assert "ois=1.000000" in out
        assert "pooled_ods=1.000000" in out and "pooled_ois=1.000000" in out
        assert [line.split("=")[0] for line in out.splitlines()] == [
            "ods", "ois", "ods_threshold", "pooled_ods", "pooled_ois", "pooled_ods_threshold"]

    @pytest.mark.parametrize("flag, named", [(["--thresholds", "0"], "thresholds"),
                                             (["--max-dist", "nan"], "max_dist_frac")])
    def test_bad_thresholds_or_radius_exit_1(self, workspace, tmp_path, capsys, flag, named):
        data = workspace["data"]
        pred = tmp_path / "pred"
        pred.mkdir()
        for sid in (data / "list.txt").read_text().split():
            shutil.copy(data / "labels" / f"{sid}.pgm", pred / f"{sid}.pgm")
        rc = main(["eval", "--pred", str(pred), "--gt", str(data / "labels"),
                   "--list", str(data / "list.txt")] + flag)
        assert rc == 1
        assert named in capsys.readouterr().err

    def test_multigranularity_mode(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        pred = tmp_path / "predmg"
        pred.mkdir()
        ids = (data / "list.txt").read_text().split()
        for sid in ids:
            for g in ("-1", "0"):
                shutil.copy(data / "labels" / f"{sid}.pgm", pred / f"{sid}_g{g}.pgm")
        rc = main(["eval", "--pred", str(pred), "--gt", str(data / "labels"),
                   "--list", str(data / "list.txt"), "--multigranularity"])
        assert rc == 0
        assert "ods=1.000000" in capsys.readouterr().out

    def test_multigranularity_maps_belong_to_one_id(self, tmp_path, capsys):
        # "a_g1_g0.pgm" starts with "a_g" but is a map of "a_g1", whose
        # label has another shape; sample "a" took it as its own
        gt, pred = tmp_path / "gt", tmp_path / "pred"
        gt.mkdir()
        pred.mkdir()
        for sid, shape in (("a", (8, 8)), ("a_g1", (8, 12))):
            label = np.zeros(shape, dtype=np.uint8)
            label[4, 2:6] = 255
            netpbm.write_pgm(gt / f"{sid}.pgm", label)
            netpbm.write_pgm(pred / f"{sid}_g0.pgm", label)
        (tmp_path / "list.txt").write_text("a\na_g1\n")
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt),
                   "--list", str(tmp_path / "list.txt"), "--multigranularity"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "ods=1.000000" in captured.out

    def test_empty_label_directory_exits_1_naming_the_sample(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        sid = (data / "list.txt").read_text().split()[0]
        pred, gt = tmp_path / "pred", tmp_path / "gt"
        pred.mkdir()
        (gt / sid).mkdir(parents=True)
        shutil.copy(data / "labels" / f"{sid}.pgm", pred / f"{sid}.pgm")
        ids = tmp_path / "list.txt"
        ids.write_text(sid + "\n")
        rc = main(["eval", "--pred", str(pred), "--gt", str(gt), "--list", str(ids)])
        assert rc == 1
        assert repr(sid) in capsys.readouterr().err

    def test_prediction_size_mismatch_exits_1(self, workspace, tmp_path, capsys):
        data = workspace["data"]
        sid = (data / "list.txt").read_text().split()[0]
        pred = tmp_path / "pred"
        pred.mkdir()
        netpbm.write_pgm(pred / f"{sid}.pgm", np.zeros((32, 48), np.uint8))
        ids = tmp_path / "list.txt"
        ids.write_text(sid + "\n")
        rc = main(["eval", "--pred", str(pred), "--gt", str(data / "labels"),
                   "--list", str(ids)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "(32, 48)" in err and "(64, 64)" in err and repr(sid) in err

    def test_empty_list_exits_1(self, workspace, tmp_path, capsys):
        ids = tmp_path / "list.txt"
        ids.write_text("")
        rc = main(["eval", "--pred", str(tmp_path), "--gt", str(workspace["data"] / "labels"),
                   "--list", str(ids)])
        assert rc == 1
        assert "no images" in capsys.readouterr().err

    def test_missing_prediction_exits_1(self, workspace, tmp_path, capsys):
        rc = main(["eval", "--pred", str(tmp_path), "--gt",
                   str(workspace["data"] / "labels"),
                   "--list", str(workspace["data"] / "list.txt")])
        assert rc == 1


class TestBench:
    # 3x100x100 failed: the count ran the encoders on the unpadded input
    @pytest.mark.parametrize("shape", ["3x64x64", "3x100x100"])
    def test_reports_params_and_gflops(self, workspace, capsys, shape):
        rc = main(["bench", "--config", str(workspace["cfg"]), "--shape", shape])
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"params=\d+", out)
        assert re.search(r"gflops=\d+\.\d+", out)

    def test_bad_shape_exits_2(self, capsys):
        assert main(["bench", "--shape", "64x64"]) == 2

    # 3x0x64 printed "error: division by zero" from the depthwise conv
    @pytest.mark.parametrize("shape", ["3x0x64", "3x64x-8", "0x64x64"])
    def test_non_positive_side_exits_2(self, capsys, shape):
        assert main(["bench", "--shape", shape]) == 2
        assert "bad --shape" in capsys.readouterr().err


class TestCheckCommand:
    def test_oracle_suite_passes(self, capsys):
        rc = main(["check", "--suite", "oracle"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "FAIL" not in out

    def test_grad_suite_passes_on_fresh_build(self, capsys):
        rc = main(["check", "--suite", "grad", "--quick"])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_removing_a_grad_check_leaves_the_others_bitwise(self, monkeypatch):
        # the checks drew their inputs from one generator in order, so
        # dropping one moved the inputs, and the errors, of the checks after it
        full = {r.name: float(r.value).hex() for r in verify.grad_suite(max_coords=3)}
        monkeypatch.delitem(verify.GRAD_CHECKS, "conv2d.1x1")
        rest = {r.name: float(r.value).hex() for r in verify.grad_suite(max_coords=3)}
        assert len(full) == 28 and rest.keys() == full.keys() - {"conv2d.1x1"}
        assert rest == {name: full[name] for name in rest}


class TestSeededDeterminism:
    def test_train_twice_same_seed_identical(self, workspace, tmp_path):
        data, cfg = workspace["data"], workspace["cfg"]
        blobs = []
        for run in range(2):
            out = tmp_path / f"det{run}"
            rc = main(["train", "--stage", "global", "--config", str(cfg),
                       "--data", str(data), "--list", str(data / "list.txt"),
                       "--out", str(out), "--seed", "42"])
            assert rc == 0
            blobs.append((out / "global.ckpt").read_bytes())
        assert blobs[0] == blobs[1]
