import math

import numpy as np
import pytest

from gsb.groups import random_algebra, random_k, su2, torus
from gsb.polar import (
    MAX_ABS_Y,
    PointKC,
    frame_coefficients,
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


def test_frame_identity_at_origin():
    a, b, c, d = frame_coefficients(su2(), np.zeros(3))
    assert np.allclose(a, np.eye(3))
    assert np.allclose(b, np.zeros((3, 3)), atol=1e-12)
    assert np.allclose(c, np.zeros((3, 3)), atol=1e-12)
    assert np.allclose(d, np.eye(3))


def test_frame_block_relation():
    # columns satisfy S*[[a,c],[b,d]] = [[S, (cos-1)/ad],[sin, cos]]
    from gsb.polar import _ad_functions

    y = np.array([0.4, -1.3, 0.8])
    sinc, cosm1, sin, cos = _ad_functions(y)
    a, b, c, d = frame_coefficients(su2(), y)
    assert np.allclose(sinc @ a.T, sinc, atol=1e-10)
    assert np.allclose(sinc @ b.T, sin, atol=1e-10)
    assert np.allclose(sinc @ c.T, cosm1, atol=1e-10)
    assert np.allclose(sinc @ d.T, cos, atol=1e-10)


def test_frame_normal_block_fixes_y():
    # d(Y) = transpose of S^{-1} cos(ad Y) fixes Y, which spans the kernel of
    # ad(Y); phi_x_weight relies on it to reduce the X_k symbol to y_k
    rng = np.random.default_rng(11)
    for scale in (1e-5, 0.3, 1.0, 3.0):
        y = random_algebra(su2(), rng, scale)
        d = frame_coefficients(su2(), y)[3]
        assert np.allclose(d @ y, y, rtol=0, atol=1e-12 * np.linalg.norm(y))


def test_frame_small_y_series_matches_exact():
    from gsb.polar import _ad_functions

    direction = np.array([0.6, 0.8, 0.0])
    exact = _ad_functions(2e-4 * direction)
    series = _ad_functions(0.99999e-4 * direction * 2.00002)  # same point, series branch
    for e, s in zip(exact, series):
        assert np.allclose(e, s, atol=1e-9)


@pytest.mark.parametrize("which", ["X", "JX"])
def test_frame_apply_on_matrix_entry(which):
    # assemble X_k (or JX_k) of a matrix entry from the frame coefficients and
    # central differences along the polar fields Xtilde_l (x -> x e^{h E_l})
    # and d/dy_l, and compare with the exact derivative along the curve
    # g exp(s E_k) (X) or g exp(i s E_k) (JX)
    from scipy.linalg import expm

    from gsb.groups import SU2_BASIS, rep_matrix

    spec = su2()
    rng = np.random.default_rng(7)
    p = PointKC(spec, random_k(spec, rng), random_algebra(spec, rng, 0.8))
    m = 3
    h = 1e-5 * (1.0 + np.linalg.norm(p.y))

    def entry(x, y):
        return rep_matrix(spec, m, polar_compose(spec, PointKC(spec, x, y)))[0, 1]

    dx = [
        (entry(p.x @ expm(h * SU2_BASIS[l]), p.y) - entry(p.x @ expm(-h * SU2_BASIS[l]), p.y)) / (2 * h)
        for l in range(3)
    ]
    dy = [(entry(p.x, p.y + h * np.eye(3)[l]) - entry(p.x, p.y - h * np.eye(3)[l])) / (2 * h) for l in range(3)]
    a, b, c, d = frame_coefficients(spec, p.y)
    ka, kb = (a, b) if which == "X" else (c, d)

    g = np.asarray(polar_compose(spec, p))
    for k in range(3):
        Xk = SU2_BASIS[k] if which == "X" else 1j * SU2_BASIS[k]
        eps = 1e-6
        exact = (
            rep_matrix(spec, m, g @ expm(eps * Xk))[0, 1]
            - rep_matrix(spec, m, g @ expm(-eps * Xk))[0, 1]
        ) / (2 * eps)
        approx = ka[k] @ dx + kb[k] @ dy
        assert approx == pytest.approx(exact, rel=2e-4, abs=1e-7)


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
