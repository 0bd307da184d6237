import numpy as np
import pytest

from bmoblo.geometry import make_context


@pytest.fixture(scope="session")
def ctx_half():
    return make_context(0.5)


@pytest.fixture(scope="session")
def ctx_quarter():
    return make_context(0.25)


@pytest.fixture(scope="session")
def ctx_tenth():
    return make_context(0.1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def sample_strip(rng, n, window, ctx):
    """Area-uniform points of the strip with |x1| <= window."""
    x1 = rng.uniform(-window, window, n)
    gap = rng.uniform(0.0, 1.0, n)
    return x1, x1 * x1 + gap


def boundary_points(ctx, pairs=8):
    """Points on and within 1e-13 .. 1e-9 of the knots, the tangency points,
    the segment x2 = 1 and the chord and tangent lines of every pair."""
    offsets = np.array([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-9, -1e-9])
    t = ctx.tau
    bases = np.array([[ctx.p(k), -k * t, -k * t - 1.0, -k * t - t] for k in range(pairs)])
    x1 = (bases.ravel()[:, None] + offsets).ravel()
    gap = (np.array([0.0, 0.5, 1.0])[:, None] + offsets).ravel()
    x1, gap = np.meshgrid(x1, np.clip(gap, 0.0, 1.0))
    x1, x2 = [x1.ravel()], [(x1 * x1 + gap).ravel()]
    seg = np.linspace(-1.0, 0.0, 401)
    for o in offsets:
        x1.append(seg)
        x2.append(np.ones_like(seg) + o)
    y = np.linspace(-t - 1.0, 0.0, 401)
    for g in range(pairs):
        for line in (ctx.chord_line(y), ctx.tangent_line(y)):
            for o in offsets:
                x1.append(y - g * t)
                x2.append(line + o - 2.0 * g * t * y + g * g * t * t)
    x1, x2 = np.concatenate(x1), np.concatenate(x2)
    gap = x2 - x1 * x1
    keep = (gap >= -ctx.tol) & (gap <= 1.0 + ctx.tol)
    return x1[keep], x2[keep]
