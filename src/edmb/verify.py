"""Verification suites behind ``check``: ``grad_suite`` checks the gradients
of every layer and both stage losses by central differences in 64-bit, each
entry the worst relative error over sampled coordinates. ``oracle_suite`` is
the one copy of each value oracle (ZOH closed form, scan-vs-kernel
equivalence, KL quadrature, cross-entropy, eval and MAC hand cases), which
acceptance criteria 2-4, 8 and 9 read by name; an ``EXACT`` bound passes
only an error of exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import eval as evalkit
from . import ssm
from .decoder import CFF, Head, MBConv, SFT, guide_maps
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


def _rand(rng, shape, requires_grad=True):
    return dc.randn(rng, shape, requires_grad=requires_grad)


def grad_suite(eps=1e-4, tol=1e-4, max_coords=6):
    """Finite-difference checks across every layer family and both stage
    losses, one per ``GRAD_CHECKS`` entry. Returns a list of CheckResult."""
    results = []
    with dc.precision("float64"):
        for name, build in GRAD_CHECKS.items():
            f, params = build(np.random.default_rng(list(name.encode())))
            coords = 4 if name in _FOUR_COORDS else max_coords
            err = finite_diff_check(f, params, eps=eps, max_coords=coords,
                                    rng=np.random.default_rng(7))
            results.append(CheckResult(name, err, tol))
    return results


def _weighted(rng, f, x, r_shape, params=()):
    """sum(r * f(x)) for an r drawn from ``rng``, and the parameters [x, *params]."""
    r = _rand(rng, r_shape, requires_grad=False)
    return lambda: dc.tsum(dc.mul(r, f(x))), [x, *params]


def _pointwise(op, prep=lambda a: a):
    return lambda rng: _weighted(rng, op, dc.parameter(prep(rng.standard_normal((3, 5)))), (3, 5))


def _conv(w_shape, groups=1, bias=True):
    def build(rng):
        x, w = _rand(rng, (2, 3, 6, 6)), _rand(rng, w_shape)
        b = _rand(rng, w_shape[:1]) if bias else None
        return _weighted(rng, lambda t: dc.conv2d(t, w, b, groups=groups), x, (2, w_shape[0], 6, 6),
                         [w] + ([b] if bias else []))
    return build


def _resample(op, out_hw):
    return lambda rng: _weighted(rng, op, _rand(rng, (1, 2, 4, 4)), (1, 2, *out_hw))


def _module(make, x_shape, r_shape, params, out=lambda m, x: m(x)):
    """``out(m, x)`` of the module ``m = make(rng)``; ``params(m)`` picks the
    parameters checked besides the input."""
    def build(rng):
        m = make(rng)
        return _weighted(rng, lambda x: out(m, x), _rand(rng, x_shape), r_shape, params(m))
    return build


def _norm2d(B):
    return _module(lambda rng: nn.Norm2d(3), (B, 3, 4, 4), (B, 3, 4, 4),
                   lambda m: [m.gamma, m.beta], lambda m, x: dc.sigmoid(m(x)))


def _patch_merge(rng):
    pe, pm = ssm.PatchEmbed(2, 5, (2, 2), rng), ssm.PatchMerge(5, rng)
    return _weighted(rng, lambda x: pm(pe(x), (2, 2)), _rand(rng, (1, 3, 4, 4)), (1, 1, 10),
                     [pm.reduce.weight])


def _sft(rng):
    sft, guide = SFT(3, 3, rng), _rand(rng, (2, 3, 4, 4))
    return _weighted(rng, lambda x: sft(x, *guide_maps([sft], guide)[0]), _rand(rng, (2, 3, 4, 4)),
                     (2, 3, 4, 4), [guide, sft.scale1.weight, sft.scale2.weight, sft.shift2.weight])


def _cff(rng):
    cff, coarse = CFF([4, 3], 3, rng), _rand(rng, (1, 4, 2, 2))
    return _weighted(rng, lambda fine: cff([coarse, fine]), _rand(rng, (1, 3, 4, 4)), (1, 3, 4, 4),
                     [coarse] + cff.parameters()[:3])


def _dist(loss, uses_var=True):
    """``loss(mu, var, y, mask, cfg)`` on a 3x3 map: var = softplus(raw)."""
    def build(rng):
        mu, raw_var = _rand(rng, (1, 1, 3, 3)), _rand(rng, (1, 1, 3, 3))
        y = (np.random.default_rng(3).random((3, 3)) > 0.6).astype(float)
        return (lambda: loss(mu, dc.softplus(raw_var), y, np.ones((3, 3)), LossConfig()),
                [mu, raw_var] if uses_var else [mu])
    return build


def _stage_loss(stage, names):
    """A stage loss end to end on a 16x16 image (padded to 32)."""
    def build(rng):
        model = EdgeDetector(ModelConfig(embed_dim=8, depths=(1, 1, 1), state_dim=2,
                                         base_hw=(32, 32), window_keep=4, decoder_ch=8,
                                         head_blocks=1, highres_ch=4, seed=9))
        img = np.random.default_rng(5).random((1, 3, 16, 16))
        y = (np.random.default_rng(6).random((16, 16)) > 0.8).astype(float)
        params = dict(model.named_parameters())
        return (lambda: stage_losses(stage_outputs(model, img, stage), y, np.ones((16, 16)),
                                     LossConfig(), stage, rng=np.random.default_rng(12)),
                [params[n] for n in names])
    return build


# name -> build: ``build(rng)`` draws the check's inputs from a generator
# seeded by its name and returns (loss function, parameters), so adding or
# removing a check leaves every other check's inputs as they were
GRAD_CHECKS = {
    "pointwise.sigmoid": _pointwise(dc.sigmoid),
    "pointwise.softplus": _pointwise(dc.softplus),
    "pointwise.exp": _pointwise(lambda x: dc.exp(dc.mul(x, 0.3))),
    "pointwise.log": _pointwise(dc.log, lambda a: np.abs(a) + 0.5),
    "pointwise.relu": _pointwise(dc.relu, lambda a: np.where(np.abs(a) < 0.1, a + 0.3, a)),
    "conv2d.3x3": _conv((4, 3, 3, 3)),
    "conv2d.1x1": _conv((4, 3, 1, 1)),
    "conv2d.depthwise": _conv((3, 1, 3, 3), groups=3, bias=False),
    "bilinear_resize.2x": _resample(lambda x: dc.bilinear_resize(x, 8, 8), (8, 8)),
    "bilinear_resize": _resample(lambda x: dc.bilinear_resize(x, 5, 7), (5, 7)),
    "max_pool2d": _resample(lambda x: dc.max_pool2d(x, 2), (2, 2)),
    "linear": _module(lambda rng: nn.Linear(5, 4, rng), (3, 5), (3, 4),
                      lambda m: [m.weight, m.bias]),
    "layernorm": _module(lambda rng: nn.LayerNorm(6), (2, 4, 6), (2, 4, 6),
                         lambda m: [m.gamma, m.beta]),
    "norm2d.batch": _norm2d(2),
    "norm2d.one_item": _norm2d(1),
    "selective_scan": _module(
        lambda rng: ssm.SSMParams(4, 3, rng), (1, 6, 4), (1, 6, 4),
        lambda p: [p.a_raw, p.b_proj.weight, p.c_proj.weight, p.delta_proj.weight, p.delta_proj.bias],
        lambda p, x: ssm.selective_scans(x, [(p, "forward")])[0]),
    "vim_block": _module(lambda rng: ssm.VimBlock(4, 3, rng), (1, 4, 4), (1, 4, 4),
                         lambda m: m.parameters()[:6]),
    "patch_embed": _module(lambda rng: ssm.PatchEmbed(2, 5, (2, 2), rng), (1, 3, 4, 4), (1, 4, 5),
                           lambda m: [m.proj.weight, m.pos]),
    "patch_merge": _patch_merge,
    "mbconv": _module(lambda rng: MBConv(3, 3, rng), (2, 3, 4, 4), (2, 3, 4, 4),
                      lambda m: [m.expand.weight, m.depthwise.weight, m.project.weight]),
    "sft": _sft,
    "cff": _cff,
    "head": _module(lambda rng: Head(3, rng, blocks=1), (2, 3, 4, 4), (2, 1, 4, 4),
                    lambda m: m.parameters()[:3]),
    "kl_loss": _dist(lambda mu, var, y, mask, cfg: kl_loss(mu, var)),
    "wce_loss": _dist(lambda mu, var, y, mask, cfg: wce_loss(dc.sigmoid(mu), y, mask, cfg),
                      uses_var=False),
    # a fresh generator per evaluation draws the same noise every time
    "sample_reparam": _dist(lambda mu, var, y, mask, cfg: wce_loss(
        sample_reparam(mu, var, np.random.default_rng(11)), y, mask, cfg)),
    "stage1_loss": _stage_loss("global", [
        "global_enc.patch.proj.weight",
        "global_enc.stage0.0.fwd.b_proj.weight",
        "global_enc.stage2.0.proj.weight",
        "high_enc.conv1.weight",
        "decoder.cff_global.fuses.0.expand.weight",
        "decoder.edge_head.final.weight",
    ]),
    "stage2_loss": _stage_loss("fine", [
        "fine_enc.net.patch.proj.weight",
        "fine_enc.net.stage1.0.fwd.delta_proj.weight",
        "decoder.cff_mean.fuses.2.depthwise.weight",
        "decoder.cff_var.fuses.3.project.weight",
        "decoder.sft_mean.scale2.weight",
        "decoder.mean_head.final.weight",
        "decoder.var_head.final.weight",
        "decoder.aux_var_head.final.weight",
    ]),
}
# the larger checks sample 4 coordinates per parameter, also in quick mode
_FOUR_COORDS = {"vim_block", "mbconv", "sft", "cff", "head", "stage1_loss", "stage2_loss"}


EXACT = math.ulp(0.0)  # under CheckResult.ok's ``<``, only 0 passes


def oracle_suite():
    """Value-level oracles; each entry's value is an absolute error."""
    results = []

    def add(name, value, threshold):
        results.append(CheckResult(name, float(value), threshold))

    # ZOH scalar closed form
    a_bar, b_bar = ssm.discretize_zoh([-1.0], [0.5], 1.0)
    add("zoh.scalar_abar", abs(a_bar[0] - math.exp(-1.0)), 1e-9)
    add("zoh.scalar_bbar", abs(b_bar[0] - (1.0 - math.exp(-1.0)) * 0.5), 1e-9)
    a_bar, b_bar = ssm.discretize_zoh([-2.0], [1.0], 1e-8)
    add("zoh.delta_to_zero", max(abs(a_bar[0] - 1.0), abs(b_bar[0])), 1e-6)
    _, b_bar = ssm.discretize_zoh([1e-9], [2.0], 0.5)
    add("zoh.taylor_limit", abs(b_bar[0] - 1.0), 1e-9)

    # scan vs kernel oracle on 50 random LTI instances
    with dc.precision("float64"):
        rng = np.random.default_rng(29)
        worst = 0.0
        for _ in range(50):
            N = int(rng.integers(1, 9))
            D = int(rng.integers(1, 5))
            M = int(rng.integers(2, 65))
            p = ssm.SSMParams(D, N, rng)
            p.b_proj.weight.data[:] = 0
            p.c_proj.weight.data[:] = 0
            p.delta_proj.weight.data[:] = 0
            p.b_proj.bias.data[:] = rng.standard_normal(N)
            p.c_proj.bias.data[:] = rng.standard_normal(N)
            p.delta_proj.bias.data[:] = rng.uniform(-1.0, 1.0)
            x = dc.randn(rng, (1, M, D))
            y_scan = ssm.selective_scans(x, [(p, "forward")])[0].data
            y_kern = ssm.scan_kernel_oracle(x, p).data
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
            abs(kl_loss(Tensor([[0.0]]), Tensor([[1.0]])).item()), EXACT)

    # WCE hand cases
    with dc.precision("float64"):
        cfg = LossConfig()
        y = np.zeros((2, 2))
        y[0, 0] = 1.0
        ones = np.ones((2, 2))
        val = wce_loss(Tensor(np.full((2, 2), 0.5)), y, ones, cfg).item()
        add("wce.2x2_half", abs(val - math.log(2.0) * (3 / 4 + 3 * 1.1 / 4)), 1e-3)
        val = wce_loss(Tensor(np.full((2, 2), 0.3)), np.zeros((2, 2)), ones, cfg).item()
        add("wce.all_negative_zero", abs(val), EXACT)
        val = wce_loss(Tensor(np.eye(2)), np.eye(2), ones, cfg).item()
        add("wce.perfect_prediction", abs(val), 1e-3)

    # eval harness hand cases
    gt = np.zeros((9, 9), bool)
    gt[4, 2:7] = True
    rep = evalkit.f_curve([gt.astype(float)], [gt])
    add("eval.identical_ods", abs(rep.ods_f - 1.0), EXACT)
    add("eval.identical_ois", abs(rep.ois_f - 1.0), EXACT)
    pred = np.zeros((5, 5))
    pred[1, 1] = 1.0
    pred[3, 3] = 1.0
    gt2 = np.zeros((5, 5), bool)
    gt2[1, 1] = True
    gt2[0, 4] = True
    rep = evalkit.f_curve([pred], [gt2], thresholds=[0.5], max_dist_frac=0.01)
    add("eval.hand_5x5_p", abs(rep.precision[0] - 0.5), EXACT)
    add("eval.hand_5x5_r", abs(rep.recall[0] - 0.5), EXACT)
    add("eval.hand_5x5_f", abs(rep.f[0] - 0.5), EXACT)

    # conv MAC hand count: 3x3, 16->32 channels, 8x8 output
    xw = Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32))
    ww = Tensor(np.zeros((32, 16, 3, 3), dtype=np.float32))
    dc.profile_macs_start()
    dc.conv2d(xw, ww)
    macs = dc.profile_macs_stop()
    add("flops.conv_hand_count", abs(macs - 8 * 8 * 32 * 16 * 9), EXACT)
    return results
