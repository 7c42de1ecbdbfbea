import math

import numpy as np
import pytest

from gsb.groups import random_algebra, random_k, su2, torus
from gsb.polar import (
    MAX_ABS_Y,
    PointKC,
    identity_point,
    log_phi,
    phi,
    polar_compose,
    polar_decompose,
    star,
)


@pytest.mark.parametrize("spec", [torus(1), torus(2), su2()])
def test_polar_roundtrip(spec):
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = PointKC(spec, random_k(spec, rng), random_algebra(spec, rng, 1.5))
        q = polar_decompose(spec, polar_compose(spec, p))
        assert np.allclose(q.y, p.y, atol=1e-10)
        assert np.allclose(
            np.asarray(polar_compose(spec, q)), np.asarray(polar_compose(spec, p)), atol=1e-10
        )


def test_star_is_involution():
    rng = np.random.default_rng(2)
    for spec in (torus(2), su2()):
        p = PointKC(spec, random_k(spec, rng), random_algebra(spec, rng))
        pss = star(spec, star(spec, p))
        assert np.allclose(pss.y, p.y, atol=1e-10)
        assert np.allclose(
            np.asarray(polar_compose(spec, pss)), np.asarray(polar_compose(spec, p)), atol=1e-10
        )


def test_star_matrix_identity():
    # (x e^{iY})^* equals the conjugate transpose for SU(2) matrices
    rng = np.random.default_rng(3)
    spec = su2()
    p = PointKC(spec, random_k(spec, rng), random_algebra(spec, rng))
    lhs = polar_compose(spec, star(spec, p))
    rhs = np.asarray(polar_compose(spec, p)).conj().T
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_phi_values():
    assert phi(torus(3), np.ones(3)) == 1.0
    y = np.array([0.0, 0.0, 2.0])
    assert phi(su2(), y) == pytest.approx(2.0 / math.sinh(2.0))
    assert phi(su2(), np.zeros(3)) == pytest.approx(1.0)
    # log form stays finite far beyond double overflow of sinh
    assert log_phi(su2(), np.array([40.0, 0.0, 0.0])) == pytest.approx(
        math.log(40.0) + math.log(2.0) - 40.0, rel=1e-12
    )


def test_identity_point():
    p = identity_point(su2())
    assert np.allclose(polar_compose(su2(), p), np.eye(2))


def test_polar_compose_matches_expm():
    # the closed form of exp(iY) against scipy's expm, whose own error near
    # |Y| = MAX_ABS_Y is about 3e-14 of the matrix size (the closed form is
    # within 3e-15 of a 40-digit evaluation there)
    from scipy.linalg import expm

    from gsb.groups import SU2_BASIS

    spec = su2()
    rng = np.random.default_rng(11)
    for k in range(200):
        direction = rng.standard_normal(3)
        y = direction / np.linalg.norm(direction) * MAX_ABS_Y * rng.uniform() if k else np.zeros(3)
        x = random_k(spec, rng)
        exact = x @ expm(1j * np.tensordot(y, SU2_BASIS, axes=(0, 0)))
        got = polar_compose(spec, PointKC(spec, x, y))
        assert np.max(np.abs(got - exact)) <= 5e-14 * np.max(np.abs(exact)), y
    assert np.array_equal(polar_compose(spec, PointKC(spec, np.eye(2), np.zeros(3))), np.eye(2))
