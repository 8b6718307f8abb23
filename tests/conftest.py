import logging
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

logging.getLogger("edmb.train").setLevel(logging.WARNING)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def f64():
    from edmb import diffcore as dc

    with dc.precision("float64"):
        yield


def _assignment_matching_size(pred, gt, max_dist_frac):
    """Maximum one-to-one matching size within the radius, by brute-force
    distances and a 0/1 linear assignment (independent of edmb.eval)."""
    p, g = np.argwhere(pred), np.argwhere(gt)
    if len(p) == 0 or len(g) == 0:
        return 0
    radius = max_dist_frac * np.hypot(*pred.shape)
    d = p[:, None, :] - g[None, :, :]
    feasible = (np.hypot(d[..., 0], d[..., 1]) <= radius).astype(np.int64)
    rows, cols = linear_sum_assignment(feasible, maximize=True)
    return int(feasible[rows, cols].sum())


@pytest.fixture
def assignment_oracle():
    return _assignment_matching_size


def _held_bytes(fn):
    """(fn(), the tracemalloc bytes the call leaves allocated): what its
    result and anything it keeps hold, net of what it freed."""
    tracemalloc.start()
    try:
        result = fn()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, held


@pytest.fixture
def held_bytes():
    return _held_bytes
