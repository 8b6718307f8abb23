"""Central-difference gradient verification.

Runs the analytic backward once, then perturbs sampled coordinates of the
checked tensors and compares. Meant to run under ``precision("float64")``;
in 32-bit the difference quotient has too little headroom.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


def finite_diff_check(f, params, eps=1e-4, max_coords=24, rng=None):
    """Max relative error between analytic and numeric gradients.

    ``f()`` evaluates a scalar Tensor from ``params`` (a Tensor or a sequence
    of Tensors); it must be deterministic across calls. ``eps`` scales the
    starting central-difference step per coordinate. Returns
    max |analytic - numeric| / (|analytic| + |numeric| + 1e-12) over the
    sampled coordinates.

    Each difference quotient is validated against a 4x smaller step, and the
    step shrinks (never below the 1e-6 floor of the eps domain) while the
    quotient itself is unstable; a step whose interval straddles a ReLU kink
    measures the kink, not the gradient.
    """
    if not 1e-6 <= eps <= 1e-2:
        raise ValueError(f"eps must lie in [1e-6, 1e-2], got {eps}")
    if isinstance(params, T.Tensor):
        params = [params]
    params = list(params)
    rng = rng or np.random.default_rng(0)

    for p in params:
        p.zero_grad()
    loss = f()
    if loss.size != 1:
        raise ValueError("finite_diff_check needs a scalar function")
    if not np.isfinite(loss.item()):
        raise FloatingPointError(f"non-finite loss value {loss.item()}")
    T.backward(loss)
    analytic = []
    for i, p in enumerate(params):
        if p.grad is None:
            raise ValueError(f"parameter {i} received no gradient")
        if not np.all(np.isfinite(p.grad)):
            bad = int(np.argmax(~np.isfinite(p.grad.reshape(-1))))
            raise FloatingPointError(
                f"non-finite analytic gradient in tensor {i}, coordinate {bad}"
            )
        analytic.append(p.grad.copy())

    worst = 0.0
    for i, p in enumerate(params):
        n = p.size
        if n <= max_coords:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords, replace=False)
        flat = p.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            scale = 1.0 + abs(orig)

            def quotient(h):
                flat[c] = orig + h
                with T.no_grad():
                    up = f().item()
                flat[c] = orig - h
                with T.no_grad():
                    dn = f().item()
                flat[c] = orig
                if not (np.isfinite(up) and np.isfinite(dn)):
                    raise FloatingPointError(
                        f"non-finite value while perturbing tensor {i}, coordinate {c}"
                    )
                return (up - dn) / (2.0 * h)

            h = eps * scale
            numeric = quotient(h)
            floor = 1e-6 * scale
            while h > floor * 1.01:
                h_next = max(h / 4.0, floor)
                nxt = quotient(h_next)
                stable = abs(numeric - nxt) <= 1e-5 * (abs(nxt) + abs(numeric) + 1e-9)
                numeric = nxt
                h = h_next
                if stable:
                    break
            a = analytic[i].reshape(-1)[c]
            err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            worst = max(worst, err)
    return worst
