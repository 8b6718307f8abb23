"""Command-line entry point: train / infer / sweep / eval / bench / check.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import replace

import numpy as np


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edmb",
        description="Multi-granularity edge detector: training, inference, "
                    "granularity sweeps, ODS/OIS evaluation, model benchmarks, "
                    "and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training stage")
    p.add_argument("--stage", choices=["global", "fine"], required=True,
                   help="training stage: global context or fine refinement")
    p.add_argument("--config", required=True, help="key=value training config file")
    p.add_argument("--data", required=True, help="dataset root (images/, labels/)")
    p.add_argument("--list", dest="list_file", required=True, help="sample id list file")
    p.add_argument("--out", required=True, help="output directory for checkpoints")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.add_argument("--init-from", default=None,
                   help="global-stage checkpoint initializing the fine stage")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("infer", help="write one edge map from a trained model")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--image", required=True, help="input image (ppm/png)")
    p.add_argument("--out", required=True, help="output edge map (pgm)")
    p.add_argument("--gamma", type=float, default=0.0,
                   help="granularity shift gamma (default 0 = mean edge)")

    p = sub.add_parser("sweep", help="write the multi-granularity edge family")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--image", required=True, help="input image (ppm/png)")
    p.add_argument("--out-dir", required=True, help="output directory for pgm maps")
    p.add_argument("--gammas", default="-5:0.5:11",
                   help="gamma grid start:step:count (default -5:0.5:11)")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted pgm maps")
    p.add_argument("--gt", required=True, help="ground-truth labels directory")
    p.add_argument("--list", dest="list_file", required=True, help="sample id list file")
    p.add_argument("--max-dist", type=float, default=0.0075,
                   help="matching radius as a fraction of the image diagonal")
    p.add_argument("--thresholds", type=int, default=33,
                   help="number of evenly spaced thresholds in (0,1)")
    p.add_argument("--multigranularity", action="store_true",
                   help="score <id>_g*.pgm sample families per image")
    p.add_argument("--nms", action="store_true",
                   help="apply non-maximum suppression to predictions first")

    p = sub.add_parser("bench", help="report parameter count and GFLOPs")
    p.add_argument("--config", default=None, help="training config file (optional)")
    p.add_argument("--shape", default="3x320x320", help="input shape CxHxW")

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("--suite", choices=["grad", "oracle", "all"], default="all",
                   help="which suite to run")
    p.add_argument("--quick", action="store_true", help="sample fewer coordinates")
    return parser


def _load_model_from_ckpt(path):
    from .model import EdgeDetector
    from .pipeline import load_checkpoint

    ckpt = load_checkpoint(path)
    if ckpt.model_config is None:
        raise ValueError(f"{path}: checkpoint lacks architecture metadata")
    model = EdgeDetector(ckpt.model_config)
    model.load_state_arrays(ckpt.state)
    return model


def cmd_train(args):
    from .model import EdgeDetector
    from .pipeline import load_dataset, parse_config, train_stage

    cfg = replace(parse_config(args.config), stage=args.stage)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    data = load_dataset(args.data, args.list_file)
    model = EdgeDetector(cfg.model)
    os.makedirs(args.out, exist_ok=True)
    ckpt = train_stage(
        model, data, cfg,
        init_ckpt=args.init_from,
        resume_ckpt=args.resume,
        out_dir=args.out,
    )
    print(f"stage={cfg.stage} steps={ckpt.step} final_loss={ckpt.loss_history[-1]:.6f}"
          if ckpt.loss_history else f"stage={cfg.stage} steps={ckpt.step}")
    print(f"checkpoint={os.path.join(args.out, cfg.stage + '.ckpt')}")
    return 0


def cmd_infer(args):
    from . import netpbm
    from .inference import predict_distribution, sample_granularity
    from .pipeline import read_image_chw

    model = _load_model_from_ckpt(args.ckpt)
    image = read_image_chw(args.image)
    dist = predict_distribution(model, image)
    p = sample_granularity(dist, args.gamma)
    netpbm.write_pgm(args.out, p)
    print(f"wrote {args.out} (gamma={args.gamma:g})")
    return 0


def cmd_sweep(args):
    from .inference import granularity_sweep, parse_gamma_range, predict_distribution
    from .pipeline import read_image_chw

    model = _load_model_from_ckpt(args.ckpt)
    image = read_image_chw(args.image)
    dist = predict_distribution(model, image)
    gammas = parse_gamma_range(args.gammas)
    stem = os.path.splitext(os.path.basename(args.image))[0]
    paths = granularity_sweep(dist, gammas, args.out_dir, stem)
    print(f"wrote {len(paths)} maps to {args.out_dir}")
    return 0


def _is_sweep_map(name, sid):
    """``<sid>_g<gamma>.pgm`` with a finite gamma: one map of ``sid``'s sweep."""
    head, tail = sid + "_g", ".pgm"
    if not (name.startswith(head) and name.endswith(tail)):
        return False
    try:
        return math.isfinite(float(name[len(head) : -len(tail)]))
    except ValueError:
        return False


def cmd_eval(args):
    from . import netpbm
    from .eval import eval_multigranularity, f_curve, nms_thin
    from .pipeline import load_label_maps, read_id_list

    ids = read_id_list(args.list_file)
    gts = [load_label_maps(args.gt, sid) for sid in ids]

    def prep(sid, gt, path):
        m = netpbm.read_netpbm(path).astype(np.float64) / 255.0
        for g in gt:
            if g.shape != m.shape:
                raise ValueError(f"sample {sid!r}: prediction shape {m.shape} "
                                 f"differs from label shape {g.shape}")
        return nms_thin(m) if args.nms else m

    if args.multigranularity:
        sets = []
        for sid, gt in zip(ids, gts):
            files = sorted(f for f in os.listdir(args.pred) if _is_sweep_map(f, sid))
            if not files:
                raise FileNotFoundError(f"no sweep maps for {sid!r} under {args.pred}")
            sets.append([prep(sid, gt, os.path.join(args.pred, f)) for f in files])
        report = eval_multigranularity(sets, gts, args.thresholds, args.max_dist)
    else:
        preds = []
        for sid, gt in zip(ids, gts):
            path = os.path.join(args.pred, sid + ".pgm")
            if not os.path.exists(path):
                raise FileNotFoundError(f"no prediction for {sid!r} under {args.pred}")
            preds.append(prep(sid, gt, path))
        report = f_curve(preds, gts, args.thresholds, args.max_dist)
    sys.stdout.write(report.summary_kv())
    return 0


def cmd_bench(args):
    from .eval import count_flops_params
    from .model import EdgeDetector, ModelConfig
    from .pipeline import parse_config

    cfg = parse_config(args.config).model if args.config else ModelConfig()
    try:
        shape = tuple(int(x) for x in args.shape.lower().split("x"))
        if len(shape) != 3 or min(shape) < 1:
            raise ValueError
    except ValueError:
        print(f"bad --shape {args.shape!r}; expected CxHxW like 3x320x320", file=sys.stderr)
        return 2
    model = EdgeDetector(cfg)
    params, flops = count_flops_params(model, shape)
    print(f"params={params}")
    print(f"flops={flops}")
    print(f"gflops={flops / 1e9:.3f}")
    return 0


def cmd_check(args):
    from .verify import grad_suite, oracle_suite

    results = []
    if args.suite in ("grad", "all"):
        results.extend(grad_suite(max_coords=3 if args.quick else 6))
    if args.suite in ("oracle", "all"):
        results.extend(oracle_suite())
    for r in results:
        print(r.line())
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "infer": cmd_infer,
        "sweep": cmd_sweep,
        "eval": cmd_eval,
        "bench": cmd_bench,
        "check": cmd_check,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # surface runtime failures as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
