"""Verification suites behind ``check``: gradient checks for every layer and
both stage losses, plus value-level oracles (ZOH closed form, scan-vs-kernel
equivalence, KL quadrature, cross-entropy hand cases, eval hand cases).

Gradient checks run in 64-bit with central differences; each entry reports
the worst relative error over sampled coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import eval as evalkit
from . import ssm
from .decoder import CFF, Head, MBConv, SFT
from .diffcore import nn
from .diffcore.fdcheck import finite_diff_check
from .diffcore.tensor import Tensor
from .loss import LossConfig, kl_loss, sample_reparam, stage_losses, wce_loss
from .model import EdgeDetector, ModelConfig
from .pipeline import stage_outputs


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float

    @property
    def ok(self):
        return self.value < self.threshold

    def line(self):
        status = "pass" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.value:.3e} < {self.threshold:.0e}"


class ReplayRng:
    """Replays one fixed stream of normal draws per reset; keeps sampled
    losses deterministic across repeated finite-difference evaluations."""

    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self._stash = []
        self._idx = 0

    def reset(self):
        self._idx = 0

    def standard_normal(self, shape):
        if self._idx < len(self._stash):
            arr = self._stash[self._idx]
            if arr.shape != tuple(shape):
                raise RuntimeError("replay shape mismatch")
        else:
            arr = self._rng.standard_normal(shape)
            self._stash.append(arr)
        self._idx += 1
        return arr


def _rand(rng, shape, requires_grad=True):
    return dc.randn(rng, shape, requires_grad=requires_grad)


def grad_suite(eps=1e-4, tol=1e-4, max_coords=6):
    """Finite-difference checks across every layer family and both stage
    losses. Returns a list of CheckResult."""
    results = []
    with dc.precision("float64"):
        rng = np.random.default_rng(42)

        def add(name, f, params, threshold=tol, coords=max_coords):
            err = finite_diff_check(f, params, eps=eps, max_coords=coords,
                                    rng=np.random.default_rng(7))
            results.append(CheckResult(name, err, threshold))

        # pointwise family
        x = _rand(rng, (3, 5))
        r = _rand(rng, (3, 5), requires_grad=False)
        add("pointwise.sigmoid", lambda: dc.tsum(dc.mul(r, dc.sigmoid(x))), [x])
        add("pointwise.softplus", lambda: dc.tsum(dc.mul(r, dc.softplus(x))), [x])
        add("pointwise.exp", lambda: dc.tsum(dc.mul(r, dc.exp(dc.mul(x, 0.3)))), [x])
        xp = dc.Tensor(np.abs(x.data) + 0.5)
        xp.requires_grad = True
        add("pointwise.log", lambda: dc.tsum(dc.mul(r, dc.log(xp))), [xp])
        xr = _rand(rng, (3, 5))
        xr.data += np.where(np.abs(xr.data) < 0.1, 0.3, 0.0)  # keep off the kink
        add("pointwise.relu", lambda: dc.tsum(dc.mul(r, dc.relu(xr))), [xr])

        # conv family
        xc = _rand(rng, (2, 3, 6, 6))
        wc = _rand(rng, (4, 3, 3, 3))
        bc = _rand(rng, (4,))
        rc = _rand(rng, (2, 4, 6, 6), requires_grad=False)
        add("conv2d.3x3", lambda: dc.tsum(dc.mul(rc, dc.conv2d(xc, wc, bc, 1, 1))), [xc, wc, bc])
        w1 = _rand(rng, (4, 3, 1, 1))
        add("conv2d.1x1", lambda: dc.tsum(dc.mul(rc, dc.conv2d(xc, w1, bc, 1, 0))), [xc, w1, bc])
        wd = _rand(rng, (3, 1, 3, 3))
        rd = _rand(rng, (2, 3, 6, 6), requires_grad=False)
        add("conv2d.depthwise", lambda: dc.tsum(dc.mul(rd, dc.conv2d(xc, wd, None, 1, 1, groups=3))), [xc, wd])
        xst = _rand(rng, (2, 3, 7, 7))
        ws = _rand(rng, (2, 3, 3, 3))
        rs = _rand(rng, (2, 2, 4, 4), requires_grad=False)
        add("conv2d.stride2", lambda: dc.tsum(dc.mul(rs, dc.conv2d(xst, ws, None, 2, 1))), [xst, ws])

        # resampling and pooling
        xu = _rand(rng, (1, 2, 4, 4))
        ru = _rand(rng, (1, 2, 8, 8), requires_grad=False)
        add("bilinear_upsample", lambda: dc.tsum(dc.mul(ru, dc.bilinear_upsample(xu, 2))), [xu])
        rz = _rand(rng, (1, 2, 5, 7), requires_grad=False)
        add("bilinear_resize", lambda: dc.tsum(dc.mul(rz, dc.bilinear_resize(xu, 5, 7))), [xu])
        rp = _rand(rng, (1, 2, 2, 2), requires_grad=False)
        add("max_pool2d", lambda: dc.tsum(dc.mul(rp, dc.max_pool2d(xu, 2))), [xu])

        # linear / norms
        lin = nn.Linear(5, 4, rng)
        xl = _rand(rng, (3, 5))
        rl = _rand(rng, (3, 4), requires_grad=False)
        add("linear", lambda: dc.tsum(dc.mul(rl, lin(xl))), [xl, lin.weight, lin.bias])
        ln = nn.LayerNorm(6)
        xn = _rand(rng, (2, 4, 6))
        rn = _rand(rng, (2, 4, 6), requires_grad=False)
        add("layernorm", lambda: dc.tsum(dc.mul(rn, ln(xn))), [xn, ln.gamma, ln.beta])
        bn = nn.Norm2d(3)
        xb = _rand(rng, (2, 3, 4, 4))
        rb = _rand(rng, (2, 3, 4, 4), requires_grad=False)
        add("norm2d.batch", lambda: dc.tsum(dc.mul(rb, dc.sigmoid(bn(xb)))), [xb, bn.gamma, bn.beta])
        x1 = _rand(rng, (1, 3, 4, 4))
        r1 = _rand(rng, (1, 3, 4, 4), requires_grad=False)
        add("norm2d.group_fallback", lambda: dc.tsum(dc.mul(r1, dc.sigmoid(bn(x1)))), [x1, bn.gamma, bn.beta])

        # scan family
        p = ssm.SSMParams(4, 3, rng)
        xs = _rand(rng, (1, 6, 4))
        rsq = _rand(rng, (1, 6, 4), requires_grad=False)

        def scan_loss():
            out = ssm.selective_scan(ssm.TokenSequence(xs, (2, 3)), p, "forward")
            return dc.tsum(dc.mul(rsq, out.tokens))

        add("selective_scan", scan_loss,
            [xs, p.a_raw, p.b_proj.weight, p.c_proj.weight, p.delta_proj.weight, p.delta_proj.bias])
        blk = ssm.VimBlock(4, 3, rng)
        xv = _rand(rng, (1, 4, 4))
        rv = _rand(rng, (1, 4, 4), requires_grad=False)
        add("vim_block", lambda: dc.tsum(dc.mul(rv, blk(ssm.TokenSequence(xv, (2, 2))).tokens)),
            [xv] + blk.parameters()[:6], coords=4)
        pe = ssm.PatchEmbed(2, 5, (2, 2), rng)
        xi = _rand(rng, (1, 3, 4, 4))
        rpe = _rand(rng, (1, 4, 5), requires_grad=False)
        add("patch_embed", lambda: dc.tsum(dc.mul(rpe, pe(xi).tokens)),
            [xi, pe.proj.weight, pe.pos])
        pm = ssm.PatchMerge(5, rng)
        rpm = _rand(rng, (1, 1, 10), requires_grad=False)
        add("patch_merge", lambda: dc.tsum(dc.mul(rpm, pm(pe(xi)).tokens)),
            [xi, pm.reduce.weight])

        # decoder family
        mb = MBConv(3, 3, rng)
        rmb = _rand(rng, (2, 3, 4, 4), requires_grad=False)
        add("mbconv", lambda: dc.tsum(dc.mul(rmb, mb(xb))),
            [xb, mb.expand.weight, mb.depthwise.weight, mb.project.weight], coords=4)
        sft = SFT(3, 3, rng)
        guide = _rand(rng, (2, 3, 4, 4))
        add("sft", lambda: dc.tsum(dc.mul(rmb, sft(xb, guide))),
            [xb, guide, sft.scale1.weight, sft.scale2.weight, sft.shift2.weight], coords=4)
        cff = CFF([4, 3], 3, rng)
        coarse = _rand(rng, (1, 4, 2, 2))
        fine = _rand(rng, (1, 3, 4, 4))
        rcf = _rand(rng, (1, 3, 4, 4), requires_grad=False)
        add("cff", lambda: dc.tsum(dc.mul(rcf, cff([coarse, fine]))),
            [coarse, fine] + cff.parameters()[:3], coords=4)
        head = Head(3, rng, blocks=1)
        rh = _rand(rng, (2, 1, 4, 4), requires_grad=False)
        add("head", lambda: dc.tsum(dc.mul(rh, head(xb))),
            [xb] + head.parameters()[:3], coords=4)

        # losses on raw tensors
        mu = _rand(rng, (1, 1, 3, 3))
        raw_var = _rand(rng, (1, 1, 3, 3))
        add("kl_loss", lambda: kl_loss(mu, dc.softplus(raw_var)), [mu, raw_var])
        cfg = LossConfig()
        yv = (np.random.default_rng(3).random((3, 3)) > 0.6).astype(float)
        mask = np.ones((3, 3))
        logits = _rand(rng, (1, 1, 3, 3))
        add("wce_loss", lambda: wce_loss(dc.sigmoid(logits), yv, mask, cfg), [logits])
        replay = ReplayRng(11)

        def reparam_loss():
            replay.reset()
            pr = sample_reparam(mu, dc.softplus(raw_var), replay)
            return wce_loss(pr, yv, mask, cfg)

        add("sample_reparam", reparam_loss, [mu, raw_var])

        # both stage losses end to end on a 16x16 image (padded to 32)
        mcfg = ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                           base_hw=(32, 32), window_keep=4, decoder_ch=8,
                           head_blocks=1, highres_ch=4, seed=9)
        model = EdgeDetector(mcfg)
        img = np.random.default_rng(5).random((1, 3, 16, 16))
        y16 = (np.random.default_rng(6).random((16, 16)) > 0.8).astype(float)
        m16 = np.ones((16, 16))
        replay2 = ReplayRng(12)

        def stage1_loss():
            return stage_losses(stage_outputs(model, img, "global"), y16, m16, cfg, "global")

        def stage2_loss():
            replay2.reset()
            return stage_losses(stage_outputs(model, img, "fine"), y16, m16, cfg, "fine",
                                rng=replay2)

        s1_params = [dict(model.named_parameters())[n] for n in [
            "global_enc.patch.proj.weight",
            "global_enc.stage0.0.fwd.b_proj.weight",
            "global_enc.stage2.0.proj.weight",
            "high_enc.conv1.weight",
            "decoder.cff_global.fuses.0.expand.weight",
            "decoder.edge_head.final.weight",
        ]]
        add("stage1_loss", stage1_loss, s1_params, coords=4)
        s2_params = [dict(model.named_parameters())[n] for n in [
            "fine_enc.net.patch.proj.weight",
            "fine_enc.net.stage1.0.fwd.delta_proj.weight",
            "decoder.cff_mean.fuses.2.depthwise.weight",
            "decoder.cff_var.fuses.3.project.weight",
            "decoder.sft_mean.scale2.weight",
            "decoder.mean_head.final.weight",
            "decoder.var_head.final.weight",
            "decoder.aux_var_head.final.weight",
        ]]
        add("stage2_loss", stage2_loss, s2_params, coords=4)
    return results


def oracle_suite():
    """Value-level oracles; each entry's value is an absolute error."""
    results = []

    def add(name, value, threshold):
        results.append(CheckResult(name, float(value), threshold))

    # ZOH scalar closed form
    a_bar, b_bar = ssm.discretize_zoh([-1.0], [0.5], 1.0)
    add("zoh.scalar_abar", abs(a_bar[0] - math.exp(-1.0)), 1e-9)
    add("zoh.scalar_bbar", abs(b_bar[0] - (1.0 - math.exp(-1.0)) * 0.5), 1e-9)
    a_bar, b_bar = ssm.discretize_zoh([-1.0], [0.5], 1e-7)
    add("zoh.delta_to_zero", max(abs(a_bar[0] - 1.0), abs(b_bar[0])), 1e-5)
    _, b_bar = ssm.discretize_zoh([1e-9], [2.0], 0.5)
    add("zoh.taylor_limit", abs(b_bar[0] - 1.0), 1e-9)

    # scan vs kernel oracle on 50 random LTI instances
    with dc.precision("float64"):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            N = int(rng.integers(1, 9))
            D = int(rng.integers(1, 5))
            M = int(rng.integers(2, 65))
            grid = (1, M)
            p = ssm.SSMParams(D, N, rng)
            p.b_proj.weight.data[:] = 0
            p.c_proj.weight.data[:] = 0
            p.delta_proj.weight.data[:] = 0
            p.b_proj.bias.data[:] = rng.standard_normal(N)
            p.c_proj.bias.data[:] = rng.standard_normal(N)
            p.delta_proj.bias.data[:] = rng.uniform(-1.0, 1.0)
            x = dc.randn(rng, (1, M, D))
            seq = ssm.TokenSequence(x, grid)
            y_scan = ssm.selective_scan(seq, p, "forward").tokens.data
            y_kern = ssm.scan_kernel_oracle(seq, p).tokens.data
            worst = max(worst, float(np.abs(y_scan - y_kern).max()))
        add("scan.kernel_equivalence_50", worst, 1e-6)

    # KL closed form vs adaptive quadrature on the 21x21 grid
    from scipy.integrate import quad

    with dc.precision("float64"):
        worst = 0.0
        for mu in np.linspace(-3, 3, 21):
            for var in np.linspace(0.1, 4.0, 21):
                closed = kl_loss(Tensor([[mu]]), Tensor([[var]])).item()
                sd = math.sqrt(var)

                def integrand(t, mu=mu, var=var, sd=sd):
                    pdf = math.exp(-((t - mu) ** 2) / (2 * var)) / (sd * math.sqrt(2 * math.pi))
                    return pdf * (math.log(pdf) + t * t / 2 + 0.5 * math.log(2 * math.pi))

                ref, _ = quad(integrand, mu - 14 * sd, mu + 14 * sd, limit=300)
                worst = max(worst, abs(closed - ref))
        add("kl.quadrature_grid", worst, 1e-6)
        add("kl.standard_normal_zero",
            abs(kl_loss(Tensor([[0.0]]), Tensor([[1.0]])).item()), 1e-12)

    # WCE hand cases
    cfg = LossConfig()
    y = np.zeros((2, 2))
    y[0, 0] = 1.0
    ones = np.ones((2, 2))
    val = wce_loss(Tensor(np.full((2, 2), 0.5)), y, ones, cfg).item()
    add("wce.2x2_half", abs(val - math.log(2.0) * (3 / 4 + 3 * 1.1 / 4)), 1e-3)
    val = wce_loss(Tensor(np.zeros((2, 2)) + 1e-9), np.zeros((2, 2)), ones, cfg).item()
    add("wce.all_negative_zero", abs(val), 1e-12)
    val = wce_loss(Tensor(y.copy()), y, ones, cfg).item()
    add("wce.perfect_prediction", abs(val), 1e-3)

    # eval harness hand cases
    gt = np.zeros((9, 9), bool)
    gt[4, 2:7] = True
    rep = evalkit.f_curve([gt.astype(float)], [gt])
    add("eval.identical_ods", abs(rep.ods_f - 1.0), 1e-12)
    add("eval.identical_ois", abs(rep.ois_f - 1.0), 1e-12)
    pred = np.zeros((5, 5))
    pred[1, 1] = 1.0
    pred[3, 3] = 1.0
    gt2 = np.zeros((5, 5), bool)
    gt2[1, 1] = True
    gt2[0, 4] = True
    rep = evalkit.f_curve([pred], [gt2], thresholds=[0.5], max_dist_frac=0.01)
    add("eval.hand_5x5_f", abs(rep.f[0] - 0.5), 1e-12)

    # conv MAC hand count: 3x3, 16->32 channels, 8x8 output
    rng = np.random.default_rng(0)
    xw = Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32))
    ww = Tensor(np.zeros((32, 16, 3, 3), dtype=np.float32))
    dc.profile_macs_start()
    dc.conv2d(xw, ww, None, 1, 1)
    macs = dc.profile_macs_stop()
    add("flops.conv_hand_count", abs(macs - 8 * 8 * 32 * 16 * 9), 0.5)
    return results


def run_suites(which="all", quick=False):
    results = []
    if which in ("grad", "all"):
        results.extend(grad_suite(max_coords=3 if quick else 6))
    if which in ("oracle", "all"):
        results.extend(oracle_suite())
    return results
