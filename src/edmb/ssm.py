"""Selective state-space scan and the bidirectional token-mixing block.

A continuous linear system h' = A h + B x, y = C h is discretized per token
with a zero-order hold and unrolled as a recurrence. B, C and the step size
are per-token functions of the input ("selective"); A is a shared learnable
negative diagonal, so the discrete transition exp(delta*A) is elementwise and
strictly contractive. The scan is a single primitive with a hand-derived
adjoint; an O(M^2) kernel-form oracle cross-checks it in the LTI case.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import nn
from .diffcore.tensor import Tensor, _count_macs, make_op

_TAYLOR_CUTOFF = 1e-4


def _phi(z):
    """(e^z - 1)/z with a 3-term Taylor branch near zero."""
    z = np.asarray(z)
    small = np.abs(z) < _TAYLOR_CUTOFF
    zsafe = np.where(small, 1.0, z)
    return np.where(small, 1.0 + z / 2.0 + z * z / 6.0, (np.exp(zsafe) - 1.0) / zsafe)


def _phi_prime(z):
    """d/dz of (e^z - 1)/z, Taylor branch near zero."""
    z = np.asarray(z)
    small = np.abs(z) < _TAYLOR_CUTOFF
    zsafe = np.where(small, 1.0, z)
    exact = (np.exp(zsafe) * (zsafe - 1.0) + 1.0) / (zsafe * zsafe)
    return np.where(small, 0.5 + z / 3.0 + z * z / 8.0, exact)


def discretize_zoh(a_diag, b, delta):
    """Zero-order-hold discretization of a diagonal continuous system.

    Returns (a_bar, b_bar) with a_bar = exp(delta*a) and
    b_bar = (delta*a)^{-1} (exp(delta*a) - 1) * delta * b, which reduces to
    delta * b through the Taylor branch as a -> 0.
    """
    a = np.asarray(a_diag, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = np.asarray(delta, dtype=np.float64)
    if np.any(d <= 0):
        raise ValueError("discretize_zoh: delta must be positive")
    z = d * a
    a_bar = np.exp(z)
    if not np.all(np.isfinite(a_bar)):
        raise FloatingPointError("discretize_zoh: exp(delta*A) overflowed")
    b_bar = d * _phi(z) * b
    return a_bar, b_bar


# -- the scan primitive ---------------------------------------------------------


def selective_scan_core(*args):
    """Recurrence h_t = Abar_t h_{t-1} + Bbar_t x_t, y_t = C_t . h_t.

    ``args`` is one or more groups ``u, delta, a_diag, b_tok, c_tok`` in a
    row, each with the shapes u (B,M,D), delta (B,M), a_diag (N,), b_tok/c_tok
    (B,M,N), the same for every group. The groups' recurrences run stacked
    in one per-token loop, and each group's y is its own node, as if it had
    been scanned alone; returns the list of them. Differentiable in every
    argument; the adjoint runs the reverse recurrence.
    """
    if not args or len(args) % 5:
        raise ValueError("selective_scan: arguments come in groups of "
                         "(u, delta, a_diag, b_tok, c_tok)")
    groups = [[dc.as_tensor(v) for v in args[i : i + 5]] for i in range(0, len(args), 5)]
    B, M, D = groups[0][0].shape
    (N,) = groups[0][2].shape
    for u, delta, a_diag, b_tok, c_tok in groups:
        if u.shape != (B, M, D) or a_diag.shape != (N,):
            raise ValueError("selective_scan: every group needs the same u and a_diag shapes")
        if delta.shape != (B, M):
            raise ValueError(f"selective_scan: delta shape {delta.shape} != {(B, M)}")
        if b_tok.shape != (B, M, N) or c_tok.shape != (B, M, N):
            raise ValueError("selective_scan: B/C token shapes must be (B,M,N)")
        if np.any(delta.data <= 0):
            raise ValueError("selective_scan: delta must be positive for every token")

    # each group fills its slice of one stacked Abar and one stacked state
    # array; every state starts as Bbar_t x_t and gains Abar_t h_{t-1} in
    # place, and the += 0.0 at t = 0 keeps the +0.0 that Abar_0 * 0 + ... gave
    zs = [delta.data[..., None] * a_diag.data for _, delta, a_diag, _, _ in groups]  # (B,M,N)
    abar = np.empty((len(groups),) + zs[0].shape, dtype=zs[0].dtype)
    hs = np.empty((len(groups), B, M, N, D), dtype=groups[0][0].data.dtype)
    nodes = []
    for (u, delta, a_diag, b_tok, c_tok), z, ab, h in zip(groups, zs, abar, hs):
        np.exp(z, out=ab)
        if not np.all(np.isfinite(ab)):
            raise FloatingPointError("selective_scan: exp(delta*A) overflowed")
        phi = _phi(z)
        bbar = delta.data[..., None] * phi * b_tok.data  # (B,M,N)
        np.multiply(bbar[..., None], u.data[:, :, None, :], out=h)
        nodes.append((u, delta, a_diag, b_tok, c_tok, z, phi, bbar, ab, h))
    hs[:, :, 0] += 0.0
    tmp = np.empty((len(groups), B, N, D), dtype=hs.dtype)
    for t in range(1, M):
        np.multiply(abar[:, :, t, :, None], hs[:, :, t - 1], out=tmp)
        hs[:, :, t] += tmp
    return [_scan_node(*node) for node in nodes]


def _scan_node(u, delta, a_diag, b_tok, c_tok, z, phi, bbar, abar, hs):
    """The y node of one scan group, given its recurrence states ``hs``."""
    B, M, N, D = hs.shape
    y = np.einsum("bmn,bmnd->bmd", c_tok.data, hs)
    _count_macs(3 * B * M * N * D)

    def vjp(gy):
        # adjoint recurrence lam_t = C_t gy_t + Abar_{t+1} lam_{t+1}; store all
        # lam_t, then reduce against the saved states in batched contractions
        lam_all = np.empty((B, M, N, D), dtype=gy.dtype)
        carry = np.zeros((B, N, D), dtype=gy.dtype)
        cd, ad = c_tok.data, abar
        for t in range(M - 1, -1, -1):
            lam = cd[:, t, :, None] * gy[:, t, None, :]
            lam += carry
            lam_all[:, t] = lam
            if t:
                carry = ad[:, t, :, None] * lam
        h_prev = np.concatenate(
            [np.zeros((B, 1, N, D), dtype=hs.dtype), hs[:, :-1]], axis=1
        )
        gc = np.einsum("bmd,bmnd->bmn", gy, hs)
        g_abar = np.einsum("bmnd,bmnd->bmn", lam_all, h_prev)
        g_bbar = np.einsum("bmnd,bmd->bmn", lam_all, u.data)
        gu = np.einsum("bmnd,bmn->bmd", lam_all, bbar)
        phi_p = _phi_prime(z)
        d_col = delta.data[..., None]
        gz = g_abar * abar + g_bbar * d_col * b_tok.data * phi_p
        g_delta = (gz * a_diag.data + g_bbar * phi * b_tok.data).sum(axis=-1)
        g_a = (gz * d_col).sum(axis=(0, 1))
        g_btok = g_bbar * d_col * phi
        return gu, g_delta, g_a, g_btok, gc

    return make_op(y, (u, delta, a_diag, b_tok, c_tok), vjp, "selective_scan")


class SSMParams(nn.Module):
    """Per-layer scan parameters: shared negative diagonal A plus the
    per-token projections producing B, C and the positive step delta."""

    def __init__(self, dim, state_dim, rng):
        super().__init__()
        # A = -exp(raw); init spreads decay rates over -(1..N)
        self.a_raw = dc.parameter(np.log(np.arange(1, state_dim + 1, dtype=np.float64)))
        self.b_proj = nn.Linear(dim, state_dim, rng)
        self.c_proj = nn.Linear(dim, state_dim, rng)
        self.delta_proj = nn.Linear(dim, 1, rng)
        self.delta_proj.bias.data[:] = -0.5  # softplus(-0.5) ~ 0.47

    def a_diag(self):
        return dc.neg(dc.exp(self.a_raw))

    def per_token(self, x):
        """delta (B,M), B (B,M,N), C (B,M,N) as functions of tokens x."""
        B, M, _ = x.shape
        delta = dc.softplus(dc.reshape(self.delta_proj(x), (B, M)))
        return delta, self.b_proj(x), self.c_proj(x)


def selective_scans(x, scans):
    """One selective scan of the (B, M, D) tokens ``x`` per ``(params,
    direction)`` pair, with all their recurrences in one token loop; returns
    one (B, M, D) tensor per pair. The backward direction reverses the token
    order, scans, and reverses the output, so it equals reverse .
    forward-scan . reverse by construction."""
    args = []
    for params, direction in scans:
        if direction not in ("forward", "backward"):
            raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
        u = x
        delta, b_tok, c_tok = params.per_token(u)
        if direction == "backward":
            u = dc.flip(u, 1)
            delta = dc.flip(delta, 1)
            b_tok = dc.flip(b_tok, 1)
            c_tok = dc.flip(c_tok, 1)
        args += [u, delta, params.a_diag(), b_tok, c_tok]
    ys = selective_scan_core(*args)
    return [dc.flip(y, 1) if direction == "backward" else y
            for y, (_, direction) in zip(ys, scans)]


def scan_kernel_oracle(tokens, params):
    """O(M^2) kernel-form reference: y = x * (CB, CAB, ..., CA^{M-1}B) for
    (B, M, D) tokens x.

    Only valid when the per-token parameters are token-independent (LTI);
    token-varying parameters are rejected. Test-only, no gradients.
    """
    with dc.no_grad():
        x = tokens.data
        delta, b_tok, c_tok = params.per_token(tokens)
        delta, b_tok, c_tok = delta.data, b_tok.data, c_tok.data
        a = params.a_diag().data
    B, M, D = x.shape
    for name, arr in (("delta", delta), ("B", b_tok), ("C", c_tok)):
        spread = np.abs(arr - arr[:, :1]).max() if M > 1 else 0.0
        if spread > 1e-9:
            raise ValueError(
                f"scan_kernel_oracle: token-varying {name} (spread {spread:.3g}); "
                "the kernel form assumes an LTI system"
            )
    y = np.zeros_like(x)
    for bi in range(B):
        a_bar, b_bar = discretize_zoh(a, b_tok[bi, 0], delta[bi, 0])
        c0 = c_tok[bi, 0]
        # kernel[j] = C . (Abar^j) Bbar, a scalar shared by all channels
        powers = a_bar[None, :] ** np.arange(M)[:, None]  # (M, N)
        kernel = (powers * b_bar[None, :]) @ c0  # (M,)
        for t in range(M):
            y[bi, t] = kernel[: t + 1][::-1] @ x[bi, : t + 1]
    return Tensor(y.astype(x.dtype))


class VimBlock(nn.Module):
    """Bidirectional scan block: Lin(scan_f(x) + scan_b(x)) + x, pre-normed."""

    def __init__(self, dim, state_dim, rng):
        super().__init__()
        self.norm = nn.LayerNorm(dim)
        self.fwd = SSMParams(dim, state_dim, rng)
        self.bwd = SSMParams(dim, state_dim, rng)
        self.proj = nn.Linear(dim, dim, rng)

    def __call__(self, x):
        yf, yb = selective_scans(self.norm(x), [(self.fwd, "forward"), (self.bwd, "backward")])
        return dc.add(self.proj(dc.add(yf, yb)), x)


class PatchEmbed(nn.Module):
    """Non-overlapping P x P patches, linearly projected, plus position terms.

    Position embeddings are learned at a base grid and bilinearly resampled
    when the input grid differs, so any divisible input size is accepted.
    """

    def __init__(self, patch_size, embed_dim, base_grid, rng):
        super().__init__()
        self.patch_size = patch_size
        self.embed_dim = embed_dim
        self.base_grid = tuple(base_grid)
        self.proj = nn.Linear(3 * patch_size * patch_size, embed_dim, rng)
        h0, w0 = self.base_grid
        self.pos = dc.parameter(rng.standard_normal((h0 * w0, embed_dim)) * 0.02)

    def _pos_for_grid(self, h, w):
        h0, w0 = self.base_grid
        if (h, w) == (h0, w0):
            return self.pos
        grid = dc.reshape(self.pos, (1, h0, w0, self.embed_dim))
        grid = dc.transpose(grid, (0, 3, 1, 2))
        grid = dc.bilinear_resize(grid, h, w)
        grid = dc.transpose(grid, (0, 2, 3, 1))
        return dc.reshape(grid, (h * w, self.embed_dim))

    def __call__(self, image):
        """(B, 3, H, W) image -> (B, (H/P)*(W/P), D) tokens, row-major over the patch grid."""
        B, C, H, W = image.shape
        P = self.patch_size
        if H % P or W % P:
            raise ValueError(
                f"patch_embed: image {H}x{W} not divisible by patch size {P}"
            )
        h, w = H // P, W // P
        x = dc.reshape(image, (B, C, h, P, w, P))
        x = dc.transpose(x, (0, 2, 4, 1, 3, 5))  # (B,h,w,C,P,P)
        x = dc.reshape(x, (B, h * w, C * P * P))
        return dc.add(self.proj(x), self._pos_for_grid(h, w))


class PatchMerge(nn.Module):
    """2x2 token merging with channel doubling between pyramid stages."""

    def __init__(self, dim, rng):
        super().__init__()
        self.reduce = nn.Linear(4 * dim, 2 * dim, rng)

    def __call__(self, tokens, grid):
        """(B, h*w, D) tokens of the (h, w) grid -> (B, h/2*w/2, 2D) tokens."""
        B, M, D = tokens.shape
        h, w = grid
        if h % 2 or w % 2:
            raise ValueError(f"patch merge needs an even grid, got {h}x{w}")
        x = dc.reshape(tokens, (B, h // 2, 2, w // 2, 2, D))
        x = dc.transpose(x, (0, 1, 3, 2, 4, 5))  # (B,h/2,w/2,2,2,D)
        x = dc.reshape(x, (B, (h // 2) * (w // 2), 4 * D))
        return self.reduce(x)


def tokens_to_map(tokens, grid):
    """Reshape (B, h*w, D) tokens of the (h, w) grid to a (B, D, h, w) feature map."""
    B, M, D = tokens.shape
    h, w = grid
    t = dc.reshape(tokens, (B, h, w, D))
    return dc.transpose(t, (0, 3, 1, 2))
