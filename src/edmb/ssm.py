"""Selective state-space scan and the bidirectional token-mixing block.

A continuous linear system h' = A h + B x, y = C h is discretized per token
with a zero-order hold and unrolled as a recurrence. B, C and the step size
are per-token functions of the input ("selective"); A is a shared learnable
negative diagonal, so the discrete transition exp(delta*A) is elementwise and
strictly contractive. The scan is a single primitive with a hand-derived
adjoint; an O(M^2) kernel-form oracle cross-checks it in the LTI case.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# -- token sequences ---------------------------------------------------------------


@dataclass
class TokenSequence:
    """Tokens (B, M, D) plus the spatial patch grid they came from."""

    tokens: Tensor
    grid: tuple  # (h, w) with h*w == M

    def __post_init__(self):
        h, w = self.grid
        if h * w != self.tokens.shape[1]:
            raise ValueError(
                f"token count {self.tokens.shape[1]} != grid {h}x{w}"
            )

    @property
    def length(self):
        return self.tokens.shape[1]

    def to_map(self):
        """Reshape (B, M, D) tokens to a (B, D, h, w) feature map."""
        B, M, D = self.tokens.shape
        h, w = self.grid
        t = dc.reshape(self.tokens, (B, h, w, D))
        return dc.transpose(t, (0, 3, 1, 2))


def map_to_tokens(fmap):
    """Inverse of TokenSequence.to_map: (B, D, h, w) -> row-major tokens."""
    B, D, h, w = fmap.shape
    t = dc.transpose(fmap, (0, 2, 3, 1))
    return TokenSequence(dc.reshape(t, (B, h * w, D)), (h, w))


# -- the scan primitive ---------------------------------------------------------


def selective_scan_core(u, delta, a_diag, b_tok, c_tok):
    """Recurrence h_t = Abar_t h_{t-1} + Bbar_t x_t, y_t = C_t . h_t.

    Shapes: u (B,M,D), delta (B,M), a_diag (N,), b_tok/c_tok (B,M,N).
    Differentiable in every argument; the adjoint runs the reverse recurrence.
    """
    u, delta = dc.as_tensor(u), dc.as_tensor(delta)
    a_diag, b_tok, c_tok = dc.as_tensor(a_diag), dc.as_tensor(b_tok), dc.as_tensor(c_tok)
    B, M, D = u.shape
    (N,) = a_diag.shape
    if delta.shape != (B, M):
        raise ValueError(f"selective_scan: delta shape {delta.shape} != {(B, M)}")
    if b_tok.shape != (B, M, N) or c_tok.shape != (B, M, N):
        raise ValueError("selective_scan: B/C token shapes must be (B,M,N)")
    if np.any(delta.data <= 0):
        raise ValueError("selective_scan: delta must be positive for every token")

    z = delta.data[..., None] * a_diag.data  # (B,M,N)
    abar = np.exp(z)
    if not np.all(np.isfinite(abar)):
        raise FloatingPointError("selective_scan: exp(delta*A) overflowed")
    phi = _phi(z)
    bbar = delta.data[..., None] * phi * b_tok.data  # (B,M,N)

    hs = np.empty((B, M, N, D), dtype=u.data.dtype)
    h = np.zeros((B, N, D), dtype=u.data.dtype)
    for t in range(M):
        h = abar[:, t, :, None] * h + bbar[:, t, :, None] * u.data[:, t, None, :]
        hs[:, t] = h
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
        self.state_dim = state_dim
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


def selective_scan(seq, params, direction="forward"):
    """Run the selective scan over a token sequence in one direction.

    The backward direction reverses the token order, scans, and reverses the
    output, so it equals reverse . forward-scan . reverse by construction.
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    x = seq.tokens
    delta, b_tok, c_tok = params.per_token(x)
    if direction == "backward":
        x = dc.flip(x, 1)
        delta = dc.flip(delta, 1)
        b_tok = dc.flip(b_tok, 1)
        c_tok = dc.flip(c_tok, 1)
    y = selective_scan_core(x, delta, params.a_diag(), b_tok, c_tok)
    if direction == "backward":
        y = dc.flip(y, 1)
    return TokenSequence(y, seq.grid)


def scan_kernel_oracle(seq, params):
    """O(M^2) kernel-form reference: y = x * (CB, CAB, ..., CA^{M-1}B).

    Only valid when the per-token parameters are token-independent (LTI);
    token-varying parameters are rejected. Test-only, no gradients.
    """
    with dc.no_grad():
        x = seq.tokens.data
        delta, b_tok, c_tok = params.per_token(seq.tokens)
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
    return TokenSequence(Tensor(y.astype(x.dtype)), seq.grid)


class VimBlock(nn.Module):
    """Bidirectional scan block: Lin(scan_f(x) + scan_b(x)) + x, pre-normed."""

    def __init__(self, dim, state_dim, rng, zero_init_proj=False):
        super().__init__()
        self.norm = nn.LayerNorm(dim)
        self.fwd = SSMParams(dim, state_dim, rng)
        self.bwd = SSMParams(dim, state_dim, rng)
        self.proj = nn.Linear(dim, dim, rng, zero_init=zero_init_proj)

    def __call__(self, seq):
        normed = TokenSequence(self.norm(seq.tokens), seq.grid)
        yf = selective_scan(normed, self.fwd, "forward")
        yb = selective_scan(normed, self.bwd, "backward")
        mixed = self.proj(dc.add(yf.tokens, yb.tokens))
        return TokenSequence(dc.add(mixed, seq.tokens), seq.grid)


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
        tokens = dc.add(self.proj(x), self._pos_for_grid(h, w))
        return TokenSequence(tokens, (h, w))


class PatchMerge(nn.Module):
    """2x2 token merging with channel doubling between pyramid stages."""

    def __init__(self, dim, rng):
        super().__init__()
        self.reduce = nn.Linear(4 * dim, 2 * dim, rng)

    def __call__(self, seq):
        B, M, D = seq.tokens.shape
        h, w = seq.grid
        if h % 2 or w % 2:
            raise ValueError(f"patch merge needs an even grid, got {h}x{w}")
        x = dc.reshape(seq.tokens, (B, h // 2, 2, w // 2, 2, D))
        x = dc.transpose(x, (0, 1, 3, 2, 4, 5))  # (B,h/2,w/2,2,2,D)
        x = dc.reshape(x, (B, (h // 2) * (w // 2), 4 * D))
        return TokenSequence(self.reduce(x), (h // 2, w // 2))
