"""Acceptance gate: each criterion runs at its stated tolerance and prints
one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from edmb import diffcore as dc
from edmb import eval as evalkit
from edmb.decoder import EdgeDistribution
from edmb.diffcore.tensor import Tensor
from edmb.inference import default_gammas, predict_distribution, sample_granularity
from edmb.loss import LossConfig
from edmb.model import EdgeDetector, ModelConfig
from edmb.pipeline import TrainConfig, save_checkpoint, train_stage
from edmb.synth import make_shape_corpus
from edmb.verify import grad_suite, oracle_suite

_reports = []  # every EvalReport produced while the suite runs (criterion 8)


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    return ok


@pytest.fixture(scope="module")
def oracle():
    """Every value oracle, by name: criteria 2-4, 8 and 9 read their entries."""
    return {r.name: r for r in oracle_suite()}


def _entries(oracle, prefix):
    return [r for name, r in oracle.items() if name.startswith(prefix)]


def overfit_model_cfg():
    return ModelConfig(embed_dim=16, depths=(1, 1, 1), state_dim=4,
                       decoder_ch=16, head_blocks=1, highres_ch=16, seed=11)


def test_criterion_01_gradient_suite():
    t0 = time.time()
    results = grad_suite(eps=1e-4, tol=1e-4)
    elapsed = time.time() - t0
    worst = max(r.value for r in results)
    ok = all(r.ok for r in results) and elapsed < 300.0
    assert _line(1, ok, f"{len(results)} layer/loss checks, worst {worst:.2e} "
                        f"(< 1e-4), runtime {elapsed:.1f}s (< 300s)")


def test_criterion_02_ssm_oracle(oracle):
    zoh = _entries(oracle, "zoh.")
    scan = oracle["scan.kernel_equivalence_50"]
    zoh_err = max(oracle["zoh.scalar_abar"].value, oracle["zoh.scalar_bbar"].value)
    ok = scan.ok and all(r.ok for r in zoh)
    assert _line(2, ok, f"50 LTI instances worst {scan.value:.2e} (< 1e-6), "
                        f"ZOH scalar error {zoh_err:.2e} (< 1e-9), ZOH delta->0 "
                        f"{oracle['zoh.delta_to_zero'].value:.1e} (< 1e-6), "
                        f"a->0 {oracle['zoh.taylor_limit'].value:.1e} (< 1e-9)")


def test_criterion_03_kl_oracle(oracle):
    grid, zero = oracle["kl.quadrature_grid"], oracle["kl.standard_normal_zero"]
    ok = grid.ok and zero.ok
    assert _line(3, ok, f"21x21 grid worst |closed-quad| {grid.value:.2e} (< 1e-6), "
                        f"KL(N(0,1)||N(0,1)) = {zero.value}")


def test_criterion_04_wce_hand_cases(oracle):
    perfect, all_neg, hand = (oracle[f"wce.{n}"] for n in
                              ("perfect_prediction", "all_negative_zero", "2x2_half"))
    ok = all(r.ok for r in _entries(oracle, "wce."))
    assert _line(4, ok, f"perfect {perfect.value:.2e} (< 1e-3), all-negative "
                        f"{all_neg.value}, 2x2 case error {hand.value:.2e} (< 1e-3)")


def _train_ods(model, corpus):
    preds, gts = [], []
    for s in corpus:
        dist = predict_distribution(model, s.image)
        p = sample_granularity(dist, 0.0)
        preds.append(evalkit.nms_thin(p))
        gts.append([lab.astype(bool) for lab in s.labels])
    rep = evalkit.f_curve(preds, gts)
    _reports.append(rep)
    return rep


@pytest.mark.slow
def test_criterion_05_overfit():
    t_start = time.time()
    corpus = make_shape_corpus(10, 64, seed=7)
    mcfg = overfit_model_cfg()
    model = EdgeDetector(mcfg)
    lcfg = LossConfig(varphi=0.05)

    # stage 1: loss must drop 10x within 2000 steps (early-stop once reached)
    def s1_probe(model_, step, hist):
        return float(np.mean(hist[:20])) / max(float(np.mean(hist[-20:])), 1e-12) >= 10.0

    cfg1 = TrainConfig(stage="global", max_steps=2000, seed=3, lr=2e-4,
                       loss=lcfg, model=mcfg)
    ck1 = train_stage(model, corpus, cfg1, eval_every=100, eval_fn=s1_probe)
    h = ck1.loss_history
    achieved_drop = float(np.mean(h[:20])) / max(float(np.mean(h[-20:])), 1e-12)
    s1_ok = achieved_drop >= 10.0 and ck1.step <= 2000

    # stage 2: train-set ODS >= 0.95 at gamma 0 through the full NMS pipeline
    cfg2 = TrainConfig(stage="fine", max_steps=2000, seed=4, lr=2e-4,
                       loss=lcfg, model=mcfg)
    best = {"ods": 0.0}

    def s2_probe(model_, step, hist):
        rep = _train_ods(model_, corpus)
        best["ods"] = max(best["ods"], rep.ods_f)
        return rep.ods_f >= 0.95

    ck2 = train_stage(model, corpus, cfg2, init_ckpt=ck1, eval_every=150, eval_fn=s2_probe)
    rep = _train_ods(model, corpus)
    best["ods"] = max(best["ods"], rep.ods_f)
    elapsed = time.time() - t_start
    ok = s1_ok and best["ods"] >= 0.95 and elapsed < 1800.0
    assert _line(5, ok, f"stage-1 drop {achieved_drop:.1f}x in {ck1.step} steps "
                        f"(>= 10x within 2000), stage-2 train ODS {best['ods']:.4f} "
                        f"(>= 0.95) after {ck2.step} steps, total {elapsed:.0f}s (< 1800s)")


def test_criterion_06_granularity_invariants():
    rng = np.random.default_rng(13)
    gammas = default_gammas()
    assert gammas == [n / 2.0 - 5.0 for n in range(11)]
    monotone = True
    counts_monotone = True
    exact_zero = True
    from scipy.special import expit

    for _ in range(20):
        mu = rng.standard_normal((1, 1, 12, 12))
        var = rng.random((1, 1, 12, 12)) * 3.0
        dist = EdgeDistribution(Tensor(mu), Tensor(var))
        prev = None
        prev_counts = None
        for g in gammas:
            p = sample_granularity(dist, g)
            if prev is not None:
                monotone &= bool((p >= prev - 1e-12).all())
                counts = np.array([(p >= t).sum() for t in (0.25, 0.5, 0.75)])
                counts_monotone &= bool((counts >= prev_counts).all())
            prev = p
            prev_counts = np.array([(p >= t).sum() for t in (0.25, 0.5, 0.75)])
        p0 = sample_granularity(dist, 0.0)
        exact_zero &= np.array_equal(p0, expit(dist.mu.data[0, 0]))
    ok = monotone and counts_monotone and exact_zero
    assert _line(6, ok, f"p_gamma pixelwise monotone: {monotone}, thresholded "
                        f"counts monotone: {counts_monotone}, gamma=0 bit-exact: {exact_zero}")


def test_criterion_07_two_stage_freeze():
    corpus = make_shape_corpus(6, 64, seed=5)
    mcfg = ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2, decoder_ch=8,
                       head_blocks=1, highres_ch=4, seed=6)
    cfg1 = TrainConfig(stage="global", max_steps=8, seed=1, batch_size=2, model=mcfg)
    model = EdgeDetector(mcfg)
    ck1 = train_stage(model, corpus, cfg1)

    ref = EdgeDetector(mcfg)
    ref.load_state_arrays(ck1.state)
    ref.eval()
    x = Tensor(corpus[0].image[None].astype(np.float32))
    with dc.no_grad():
        aux_before = ref.forward_global(x).data.copy()

    model2 = EdgeDetector(mcfg)
    cfg2 = TrainConfig(stage="fine", max_steps=12, seed=2, batch_size=2, model=mcfg)
    train_stage(model2, corpus, cfg2, init_ckpt=ck1)

    frozen = model2.global_param_names()
    frozen_ok = True
    for name, p in model2.named_parameters():
        if name in frozen:
            frozen_ok &= np.array_equal(p.data.astype(np.float32), ck1.state["param." + name])
    model2.eval()
    with dc.no_grad():
        aux_after = model2.forward_global(x).data
    aux_ok = np.array_equal(aux_before, aux_after)
    ok = frozen_ok and aux_ok
    assert _line(7, ok, f"frozen global/high-res parameters bit-identical after "
                        f"stage-2 training: {frozen_ok}; stage-2 edge probability equals "
                        f"stage-1 output exactly: {aux_ok}")


def test_criterion_08_eval_harness_oracle(oracle, assignment_oracle):
    ident_ok = oracle["eval.identical_ods"].ok and oracle["eval.identical_ois"].ok
    hand_ok = all(oracle[f"eval.hand_5x5_{k}"].ok for k in "prf")

    rng = np.random.default_rng(31)
    oracle_ok = True
    for _ in range(50):
        a = rng.random((14, 14)) > 0.8
        b = rng.random((14, 14)) > 0.8
        got, _ = evalkit.match_edges(a, b, 0.12)
        oracle_ok &= got == assignment_oracle(a, b, 0.12)

    # a report of its own, so OIS >= ODS is checked also under -m "not slow"
    _reports.append(evalkit.f_curve([rng.random((14, 14)) for _ in range(4)],
                                    [rng.random((14, 14)) > 0.8 for _ in range(4)]))
    ois_ok = all(r.ois_f >= r.ods_f - 1e-12 for r in _reports)
    ok = ident_ok and hand_ok and oracle_ok and ois_ok
    assert _line(8, ok, f"identical pred/gt ODS=OIS=1: {ident_ok}; 5x5 hand case "
                        f"P=R=F=0.5: {hand_ok}; OIS>=ODS on all {len(_reports)} "
                        f"runs: {ois_ok}; match_edges == linear-assignment oracle "
                        f"over 50: {oracle_ok}")


def test_criterion_09_flops_params(oracle):
    macs = oracle["flops.conv_hand_count"]

    model = EdgeDetector(ModelConfig())
    e_h = sum(p.size for n, p in model.named_parameters() if n.startswith("high_enc."))
    share = e_h / model.param_count()
    share_ok = share < 0.01
    ok = macs.ok and share_ok
    assert _line(9, ok, f"3x3 conv 16->32 on 8x8: |MACs - 294912| = {macs.value:.0f}; "
                        f"high-res encoder share {share:.4%} (< 1%)")


def test_criterion_10_determinism(tmp_path):
    corpus = make_shape_corpus(4, 64, seed=3)
    blobs = []
    with dc.precision("float64"):
        for run in range(2):
            mcfg = ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                               decoder_ch=8, head_blocks=1, highres_ch=4, seed=21)
            cfg = TrainConfig(stage="global", max_steps=200, seed=77, batch_size=2,
                              model=mcfg)
            model = EdgeDetector(mcfg)
            ck = train_stage(model, corpus, cfg)
            path = tmp_path / f"det{run}.ckpt"
            save_checkpoint(ck, path)
            blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    assert _line(10, ok, f"two seeded 200-step runs in 64-bit mode: checkpoints "
                         f"byte-identical: {ok} ({len(blobs[0])} bytes)")
