import math
import random

import numpy as np
import pytest

from gsb.groups import random_algebra, random_k, su2, torus
from gsb.polar import (
    MAX_ABS_Y,
    abs_y,
    log_phi,
    polar_compose,
)


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
def test_abs_y_reads_back_the_composed_norm(spec):
    # |Y| from the element alone, absolute below 1 and relative above; the
    # shortcut arccosh(||g||_F^2 / 2) on SU(2) loses half the digits near 0
    # (3e-8 off at |Y| = 1e-6, 0 at 1e-9) and fails here
    rng = random.Random(8)
    sizes = (0.0, 1e-9, 1e-6, 0.5, 2.0, 10.0, MAX_ABS_Y)
    ys = []
    for size in sizes:
        for _ in range(5):
            y = random_algebra(spec, rng)
            ys.append(y * (size / np.linalg.norm(y)))
    xs = np.stack([random_k(spec, rng) for _ in ys])
    got = abs_y(spec, polar_compose(spec, xs, np.stack(ys)))
    assert got.shape == (len(ys),)
    want = np.linalg.norm(ys, axis=1)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(want, 1.0)), np.max(np.abs(got - want))
    one = polar_compose(spec, xs[-1], ys[-1])
    assert abs_y(spec, one) == pytest.approx(MAX_ABS_Y, rel=1e-12)


def test_phi_values():
    assert np.array_equal(np.exp(log_phi(torus(3), np.ones((2, 3)))), np.ones(2))
    # the origin, |Y| = 2, and |Y| = 40, where the log form stays finite far
    # beyond double overflow of sinh
    values = log_phi(su2(), np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0], [40.0, 0.0, 0.0]]))
    assert values.shape == (3,)
    assert np.exp(values[0]) == pytest.approx(1.0)
    assert np.exp(values[1]) == pytest.approx(2.0 / math.sinh(2.0))
    assert values[2] == pytest.approx(math.log(40.0) + math.log(2.0) - 40.0, rel=1e-12)


def test_polar_compose_matches_expm():
    # the closed form of exp(iY) against scipy's expm, whose own error near
    # |Y| = MAX_ABS_Y is about 3e-14 of the matrix size (the closed form is
    # within 3e-15 of a 40-digit evaluation there)
    from scipy.linalg import expm

    from gsb.groups import SU2_BASIS

    spec = su2()
    rng = np.random.default_rng(11)
    draw = random.Random(11)
    for k in range(200):
        direction = rng.standard_normal(3)
        y = direction / np.linalg.norm(direction) * MAX_ABS_Y * rng.uniform() if k else np.zeros(3)
        x = random_k(spec, draw)
        exact = x @ expm(1j * np.tensordot(y, SU2_BASIS, axes=(0, 0)))
        got = polar_compose(spec, x, y)
        assert np.max(np.abs(got - exact)) <= 5e-14 * np.max(np.abs(exact)), y
    assert np.array_equal(polar_compose(spec, np.eye(2), np.zeros(3)), np.eye(2))
