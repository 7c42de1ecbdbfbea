"""Shared deterministic quadrature rules.

* The 1-D Gauss rules (roots_hermite, roots_legendre, roots_genlaguerre),
  built the way scipy.special builds them, so they carry the same bits up
  to order MAX_ORDER without importing scipy.  roots_genlaguerre also takes
  a half-integer alpha: on torus:r, |Y_perp|^2 follows a Gamma law of shape
  alpha + 1 = (r - 1)/2, and the torus K_C integrals of transform build
  their per-label rules from a Hermite rule times one rule for it.
* The radial rule of the normalized measure c_t exp(-|Y|^2/t) / Phi(Y) dY
  on su(2) (su2_radial_rule).  The measure is Ad-invariant, so an integrand
  enters only through its sphere means and one shifted-Hermite radial rule
  does the work (exp(-r^2/t) sinh(r) r dr is a Gaussian centred at t/2
  after folding); the rule can be re-centred to absorb an exponential
  factor e^{k r} of the sphere means.
* Log-spaced Gauss-Legendre plus a Laguerre tail for the weight
  s^{2n-1} e^{-cs} (integrate_laguerre).

kspace_rule builds the tensor rules on the whole Lie algebra (Gauss-Hermite
on every torus axis, the radial rule times a product sphere rule on SU(2)).
No command integrates on them: they are the tests' independent oracle for
the structured rules above, and a layer of the benchmark's tracer.

integrate_levels is the one two-level primitive: every integral reports
the relative gap between its two finest levels, and callers decide whether
a flagged gap is fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import GroupSpec

__all__ = [
    "QuadSpec",
    "QuadResult",
    "KSpaceRule",
    "kspace_rule",
    "su2_radial_rule",
    "integrate_levels",
    "rel_gap",
    "integrate_laguerre",
    "roots_hermite",
    "roots_legendre",
    "roots_genlaguerre",
    "MAX_ORDER",
]

# Above this order the Hermite recurrence loses its weights (non-finite from
# about order 206), and scipy switches to asymptotic expansions.
MAX_ORDER = 150

# a tensor rule holds level^rank nodes of some tens of bytes each
MAX_TENSOR_NODES = 2_000_000

# integrate_laguerre's tail starts where e^{-cs} = TAIL_BOUND, on TAIL_NODES nodes
TAIL_BOUND, TAIL_NODES = 1e-17, 32


def _golub_welsch(n: int, mu0: float, diag, offdiag, f, df, symmetric: bool):
    """Nodes and weights of an n-point Gauss rule, as scipy.special builds them.

    The eigenvalues of the Jacobi matrix are refined by one Newton step on the
    orthogonal polynomial f(n, x) (derivative df); the weights 1/(f(n-1, x)
    df(n, x)) are formed from log-normalised factors, symmetrised for an even
    weight function and scaled to total mass mu0.  Returns read-only arrays.
    """
    if n != int(n) or not 1 <= n <= MAX_ORDER:
        raise ValueError(f"Gauss rule order must be an integer in 1..{MAX_ORDER}, got {n}")
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1))
    dy = df(n, x)
    x = x - f(n, x) / dy
    fm = f(n - 1, x)
    log_fm = np.log(np.abs(fm))
    log_dy = np.log(np.abs(dy))
    fm = fm / np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy = dy / np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    if symmetric:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    w = w * (mu0 / w.sum())
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


# Three-term recurrences of cephes (scipy.special.eval_*), evaluated on arrays.


def _hermite(n: int, x):
    """Physicists' H_n(x) = He_n(sqrt(2) x) 2^{n/2}, He_n by backward recurrence."""
    if n == 0:
        return np.ones_like(x)
    z = math.sqrt(2) * x
    he = z
    if n > 1:
        y2, y3 = np.ones_like(z), np.zeros_like(z)
        for k in range(n, 1, -1):
            y2, y3 = z * y2 - k * y3, y2
        he = z * y2 - y3
    return he * math.pow(2, n / 2.0)


def _legendre(n: int, x):
    if n == 0:
        return np.ones_like(x)
    d, p = x - 1, x
    for k in range(1, n):
        d = ((2 * k + 1) / (k + 1)) * (x - 1) * p + (k / (k + 1)) * d
        p = p + d
    return p


def _binom(n: float, k: int) -> float:
    """C(n, k) by cephes' multiplication formula (exact below 2^53); as in
    cephes, k is reduced to min(k, n - k) only for an integer n."""
    k = min(k, int(n) - k) if n == int(n) else k
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + n - k
        den *= i
        if abs(num) > 1e50:
            num /= den
            den = 1.0
    return num / den


def _genlaguerre(n: int, alpha: float, x):
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return -x + alpha + 1
    d = -x / (alpha + 1)
    p = d + 1
    for k in range(1, n):
        d = -x / (k + alpha + 1) * p + (k / (k + alpha + 1)) * d
        p = p + d
    return _binom(n + alpha, n) * p


@lru_cache(maxsize=None)
def roots_hermite(n: int):
    """n-point Gauss-Hermite rule for the weight e^{-x^2} on the line."""
    k = np.arange(1, n, dtype=float)
    return _golub_welsch(
        n,
        math.sqrt(math.pi),
        np.zeros(n),
        np.sqrt(k / 2.0),
        _hermite,
        lambda m, x: 2.0 * m * _hermite(m - 1, x),
        True,
    )


@lru_cache(maxsize=None)
def roots_legendre(n: int):
    """n-point Gauss-Legendre rule on [-1, 1].

    On odd n, cephes evaluates P_n near 0 by a power series, so the middle
    weight (and through the normalisation a few others) may differ from
    scipy's in the last bits; the nodes and every even-order rule agree.
    """
    k = np.arange(1, n, dtype=float)
    return _golub_welsch(
        n,
        2.0,
        np.zeros(n),
        k * np.sqrt(1.0 / (4 * k * k - 1)),
        _legendre,
        lambda m, x: (-m * x * _legendre(m, x) + m * _legendre(m - 1, x)) / (1 - x**2),
        True,
    )


@lru_cache(maxsize=None)
def roots_genlaguerre(n: int, alpha: float):
    """n-point generalized Gauss-Laguerre rule for x^alpha e^{-x} on [0, inf),
    of mass Gamma(alpha + 1).

    alpha is a nonnegative integer or half-integer.  An integer alpha below 20
    gives scipy's rule bit for bit; a half-integer one forms C(n + alpha, n)
    by the same multiplication formula, where scipy takes a beta function.
    """
    if 2 * alpha != int(2 * alpha) or alpha < 0:
        raise ValueError("alpha must be a nonnegative integer or half-integer")
    k = np.arange(n, dtype=float)
    return _golub_welsch(
        n,
        math.gamma(alpha + 1),
        2 * k + alpha + 1,
        -np.sqrt(k[1:] * (k[1:] + alpha)),
        lambda m, x: _genlaguerre(m, alpha, x),
        lambda m, x: (m * _genlaguerre(m, alpha, x) - (m + alpha) * _genlaguerre(m - 1, alpha, x)) / x,
        False,
    )


@dataclass(frozen=True)
class QuadSpec:
    """The refinement levels of a rule; the gap is measured between the last two."""

    levels: tuple = (64, 96)

    def __post_init__(self):
        if len(self.levels) < 2:
            raise ValueError("need at least two refinement levels")


@dataclass(frozen=True)
class QuadResult:
    value: np.ndarray  # complex, one per integral of the batch
    gap: np.ndarray  # float, of the same shape
    by_level: tuple


@dataclass(frozen=True)
class KSpaceRule:
    """Nodes Y_i and weights w_i with sum_i w_i f(Y_i) ~ integral f dmu_t.

    On SU(2) the rule is su2_radial_rule times a sphere rule.
    """

    spec: GroupSpec
    t: float
    level: int
    nodes: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)


@lru_cache(maxsize=1024)
def su2_radial_rule(t: float, level: int, tilt: int = 0):
    """Radial Gauss-Hermite rule for mu_t on su(2), tilted by e^{tilt r}.

    Write M(r) for the mean of f over the sphere |Y| = |r|, an even function
    on the whole line.  In radial form integral f dmu_t is proportional to
    int_R r M(r) exp(-(r - t/2)^2/t) dr.  If M(r) = e^{tilt r} psi(r) (tilt
    any integer), completing the square moves the Gaussian to (tilt + 1) t/2
    and leaves the factor e^{lam t} with lam = ((tilt + 1)^2 - 1)/4, so that

        e^{-lam t} integral f dmu_t ~ sum_i w_i psi(r_i),

    exactly when r psi(r) is a polynomial of degree < 2 * level.  Tilt 0 is
    the plain radial rule (the weights carry the 4 pi sphere mass).  Radii
    are folded onto the whole line and may be negative.  Returns read-only
    (radii, weights).
    """
    u, h = roots_hermite(level)
    r = (tilt + 1) * t / 2.0 + math.sqrt(t) * u
    w = 2.0 * h * r / (math.sqrt(math.pi) * t)
    r.setflags(write=False)
    w.setflags(write=False)
    return r, w


def _sphere_rule(level: int):
    """Unit directions and weights (summing to 1) of the product sphere rule."""
    ntheta = min(level, 20)
    nphi = 2 * ntheta
    x, v = roots_legendre(ntheta)  # x = cos(theta)
    phi_ang = 2.0 * math.pi * np.arange(nphi) / nphi
    st = np.sqrt(1.0 - x**2)
    dirs = np.stack(
        [
            np.outer(st, np.cos(phi_ang)).ravel(),
            np.outer(st, np.sin(phi_ang)).ravel(),
            np.outer(x, np.ones(nphi)).ravel(),
        ],
        axis=-1,
    )
    ang_w = np.outer(v, np.full(nphi, 1.0 / (2.0 * nphi))).ravel()
    return dirs, ang_w


def _tensor_rule(x: np.ndarray, w: np.ndarray, rank: int):
    """Nodes (N, rank) and weights (N,) of the rank-fold product of the 1-D rule (x, w).

    A product of more than MAX_TENSOR_NODES nodes is refused before anything
    is allocated.
    """
    if x.size**rank > MAX_TENSOR_NODES:
        allowed = max(k for k in range(1, MAX_ORDER + 1) if k**rank <= MAX_TENSOR_NODES)
        raise ValueError(
            f"a rank-{rank} tensor rule of level {x.size} has {x.size}^{rank} nodes, above {MAX_TENSOR_NODES}; "
            f"the largest allowed level is {allowed}"
        )
    nodes = np.stack([g.ravel() for g in np.meshgrid(*([x] * rank), indexing="ij")], axis=-1)
    weights = np.ones(nodes.shape[0])
    for g in np.meshgrid(*([w] * rank), indexing="ij"):
        weights = weights * g.ravel()
    return nodes, weights


@lru_cache(maxsize=64)
def _kspace_rule_cached(kind: str, rank: int, t: float, level: int) -> KSpaceRule:
    spec = GroupSpec(kind, rank)
    if kind == "torus":
        u, w = roots_hermite(level)
        nodes, weights = _tensor_rule(math.sqrt(t) * u, w, rank)
        weights /= math.pi ** (rank / 2.0)
        return KSpaceRule(spec, t, level, nodes, weights)

    r, radial_w = su2_radial_rule(t, level)
    dirs, ang_w = _sphere_rule(level)
    nodes = (r[:, None, None] * dirs[None, :, :]).reshape(-1, 3)
    weights = (radial_w[:, None] * ang_w[None, :]).ravel()
    return KSpaceRule(spec, t, level, nodes, weights)


def kspace_rule(spec: GroupSpec, t: float, level: int) -> KSpaceRule:
    return _kspace_rule_cached(spec.kind, spec.rank, float(t), int(level))


def rel_gap(a, b, floor: float = 0.0) -> float:
    """|a - b| / max(|a|, |b|, floor): the relative difference of two numbers,
    floor the natural size of a value that may vanish (0 if none); 0 when a,
    b and floor are all 0."""
    return abs(a - b) / max(abs(a), abs(b), floor, 1e-300)


def integrate_levels(q: QuadSpec, value_at, floor: float = 0.0) -> QuadResult:
    """Evaluate value_at(level) on every level of q and measure the gap.

    value_at returns an array of values (0-d for one value); value, gap and
    each level are arrays of its shape.  The gap is rel_gap of the two
    finest levels, element by element, with the floor broadcast against
    them.  It is formed on Python numbers, so an element's gap has the bits
    of its batch of one.
    """
    values = tuple(np.asarray(value_at(level), dtype=complex) for level in q.levels)
    a, b = values[-1], values[-2]
    floors = np.broadcast_to(floor, a.shape).ravel().tolist()
    gaps = [rel_gap(x, y, f) for x, y, f in zip(a.ravel().tolist(), b.ravel().tolist(), floors)]
    return QuadResult(a, np.reshape(gaps, a.shape), values)


def integrate_laguerre(c: float, n: int, f, t: float | None = None, q: QuadSpec | None = None) -> QuadResult:
    """int_0^inf s^{2n-1} e^{-cs} f(s) ds for an f that may be singular at s = -t.

    The head [0, S] takes Gauss-Legendre in v = log(1 + s/t), spacing the
    nodes like the distance to -t (t defaults to the weight's scale 1/c),
    and the tail s = S + u/c, with e^{-cS} = TAIL_BOUND, a fixed Gauss-Laguerre
    rule in u.  Each level calls f once on all its nodes: f maps an (L,) array
    of s to (L, ...) values, a batch of integrands, and value and gap have
    the batch shape (...).
    """
    if c <= 0 or n < 1:
        raise ValueError("need c > 0 and n >= 1")
    t = 1.0 / c if t is None else t
    split = -math.log(TAIL_BOUND) / c
    half = 0.5 * math.log1p(split / t)
    u, wu = roots_genlaguerre(TAIL_NODES, 0)

    def value_at(level):
        x, wx = roots_legendre(level)
        v = half * (x + 1.0)
        head = t * np.expm1(v)
        s = np.concatenate([head, split + u / c])
        w = np.concatenate([half * t * wx * np.exp(v - c * head), wu * (TAIL_BOUND / c)])
        return np.dot(w * s ** (2 * n - 1), np.asarray(f(s)))

    return integrate_levels(q or QuadSpec(levels=(48, 64)), value_at)
