"""Reference values for the benchmark, computed apart from the gsb package.

Nothing here imports gsb.  Each function restates a closed form or runs an
exact or high-precision computation of its own, so a check against these
values can catch a fault in the program's numerics:

* Plancherel and Sobolev norms of matrix entries: ||pi_ij||^2 = vol/m,
  and (c - Delta)^n scales the entry by (c + lambda_m)^n;
* the Toeplitz symbol phi_n as exact rational polynomials in (u, c, 1/t),
  and the positivity-threshold choice of c, in fractions.Fraction;
* weighted norms on SU(2) as a 1-D mpmath radial integral of the sphere
  average sinh(m r)/(m sinh r), and on tori as exact Gaussian moments;
* chamber lattice sums as Jacobi theta values and their Gaussian limits;
* growth functionals of finitely supported class functions;
* pointwise values f(x) of a coefficient file, with the SU(2) irreps built
  by polynomial substitution.

Group conventions (fixed by the paper's setup, not by the code): torus
T^r = R^r / 2 pi Z^r with vol (2 pi)^r and lambda_n = |n|^2; SU(2) with
|Y|^2 = 2 tr(Y*Y), vol 16 pi^2, |delta|^2 = 1/4, lambda_m = (m^2 - 1)/4.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

DOUBLE_DIGITS = -math.log10(2.0**-52)  # what a double can carry


class Group:
    """Constants of torus:r or su2."""

    def __init__(self, name: str):
        if name == "su2":
            self.kind, self.rank, self.dim = "su2", 1, 3
            self.delta_sq = Fraction(1, 4)
            self.volume = 16.0 * math.pi**2
            self.lattice_step = 4.0 * math.pi
        elif name.startswith("torus:"):
            self.kind, self.rank = "torus", int(name.split(":", 1)[1])
            self.dim = self.rank
            self.delta_sq = Fraction(0)
            self.volume = (2.0 * math.pi) ** self.rank
            self.lattice_step = 2.0 * math.pi
        else:
            raise ValueError(f"unknown group {name!r}")

    def eigenvalue(self, label) -> Fraction:
        if self.kind == "su2":
            return Fraction(label * label - 1, 4)
        return Fraction(sum(k * k for k in label))

    def irrep_dim(self, label) -> int:
        return label if self.kind == "su2" else 1


def digits(err: float, scale: float) -> float:
    """Correct significant digits of a value with error err at size scale."""
    if scale <= 0 or err <= 0:
        return DOUBLE_DIGITS
    return max(0.0, min(DOUBLE_DIGITS, -math.log10(err / scale)))


# --- Plancherel and Sobolev norms -------------------------------------------


def entry_norm(group: Group, label) -> float:
    """||pi_ij||_{L^2(K)} = sqrt(vol / dim pi)."""
    return math.sqrt(group.volume / group.irrep_dim(label))


def sobolev_entry_norm(group: Group, label, n: int, c: Fraction) -> float:
    """||(c - Delta)^n pi_ij|| = (c + lambda)^n sqrt(vol / dim pi)."""
    return float((c + group.eigenvalue(label)) ** n) * entry_norm(group, label)


# --- Toeplitz symbol, exact --------------------------------------------------


@lru_cache(maxsize=None)
def symbol_terms(dim: int, delta_sq: Fraction, n: int):
    """phi_n as {(power of u, power of c, power of 1/t): Fraction}.

    q_0 = 1, q_{k+1} = c q_k + dq_k/dt + q_k (-dim/(2t) - |delta|^2 + u/t^2).
    """
    q = {(0, 0, 0): Fraction(1)}
    for _ in range(n):
        nxt = {}

        def add(key, value):
            if value:
                nxt[key] = nxt.get(key, Fraction(0)) + value

        for (a, b, p), coef in q.items():
            add((a, b + 1, p), coef)  # c q
            add((a, b, p + 1), -p * coef)  # d/dt t^{-p}
            add((a, b, p + 1), -Fraction(dim, 2) * coef)
            add((a, b, p), -delta_sq * coef)
            add((a + 1, b, p + 2), coef)  # u / t^2
        q = {k: v for k, v in nxt.items() if v}
    return q


def symbol_coefficients(group: Group, n: int, t: Fraction, c: Fraction) -> list:
    """Coefficients of phi_n in u, ascending, as exact Fractions."""
    out = [Fraction(0)] * (n + 1)
    for (a, b, p), coef in symbol_terms(group.dim, group.delta_sq, n).items():
        out[a] += coef * c**b / t**p
    return out


def positivity_threshold(group: Group, t: Fraction, n: int) -> Fraction:
    """Smallest c on the grid |delta|^2 + 1 + k/2 (k < 40) with all phi_n
    coefficients > 0; the last grid point if none qualifies."""
    grid = [group.delta_sq + 1 + Fraction(k, 2) for k in range(40)]
    for c in grid:
        if all(x > 0 for x in symbol_coefficients(group, max(n, 1), t, c)):
            return c
    return grid[-1]


# --- radial and Gaussian integrals --------------------------------------------

DPS = 30  # mpmath working precision, in decimal digits


@lru_cache(maxsize=None)
def su2_radial_mean(t: float, m: int, power: int) -> float:
    """E[(1 + r^2)^power sinh(m r) / (m sinh r)] under the K_C density.

    The density of |Y| = r on su(2) is proportional to r sinh(r) e^{-r^2/t}.
    """
    with mpmath.workdps(DPS):
        tt = mpmath.mpf(t)

        def dens(r):
            return r * mpmath.sinh(r) * mpmath.exp(-r * r / tt)

        def num(r):
            if r == 0:
                return mpmath.mpf(0)
            return (1 + r * r) ** power * r * mpmath.sinh(m * r) / m * mpmath.exp(-r * r / tt)

        top = mpmath.quad(num, [0, 2 * m * tt, mpmath.inf])
        bottom = mpmath.quad(dens, [0, 2 * tt, mpmath.inf])
        return float(top / bottom)


def su2_weighted_norm(t: float, m: int, n: int) -> float:
    """sqrt of int |C_t pi_ij|^2 (1 + |Y|^2)^{2n} d nu_t."""
    lam = (m * m - 1) / 4.0
    return math.sqrt(16.0 * math.pi**2 / m * math.exp(-lam * t) * su2_radial_mean(t, m, 2 * n))


def _gauss_even_moments(mu: Fraction, var: Fraction, top: int) -> list:
    """E[Z^{2a}] for Z ~ N(mu, var), a = 0..top, exact."""
    out = []
    for a in range(top + 1):
        total = Fraction(0)
        for j in range(a + 1):
            dfact = math.prod(range(2 * j - 1, 0, -2))
            total += math.comb(2 * a, 2 * j) * mu ** (2 * a - 2 * j) * var**j * dfact
        out.append(total)
    return out


def torus_weighted_norm(group: Group, t: Fraction, label, n: int) -> float:
    """sqrt of int |C_t e^{i k.x}|^2 (1 + |Y|^2)^{2n} d nu_t on T^r.

    Completing the square turns |F|^2 nu_t into vol times the N(-t k, t/2)
    law of Y, so the result is a polynomial moment of a Gaussian.
    """
    p = 2 * n
    sums = [Fraction(1)] + [Fraction(0)] * p  # E[S^j], S = sum of Z_i^2
    for k in label:
        axis = _gauss_even_moments(-t * k, t / 2, p)
        sums = [sum(math.comb(j, a) * axis[a] * sums[j - a] for a in range(j + 1)) for j in range(p + 1)]
    mean = sum(math.comb(p, j) * sums[j] for j in range(p + 1))
    return math.sqrt(group.volume * float(mean))


# --- lattice sums --------------------------------------------------------------


def chamber_lattice_sum(group: Group, tau: float) -> float:
    """sum over chamber lattice points of e^{-|gamma|^2/tau} (walls count half)."""
    with mpmath.workdps(DPS):
        q = mpmath.exp(-(group.lattice_step**2) / mpmath.mpf(tau))
        theta = mpmath.jtheta(3, 0, q)
        if group.kind == "su2":
            return float(theta / 2)
        return float(theta**group.rank)


def chamber_gaussian_limit(group: Group) -> float:
    """(1/covolume) int over the chamber of e^{-|x|^2} dx."""
    if group.kind == "su2":
        return math.sqrt(math.pi) / 2.0 / group.lattice_step
    return math.pi ** (group.rank / 2.0) / group.lattice_step**group.rank


def alpha_t(group: Group, t: float) -> float:
    """max over tau = t 2^k (k <= 8) of lattice_sum(tau) / tau^{r/2}."""
    return max(
        chamber_lattice_sum(group, t * 2.0**k) / (t * 2.0**k) ** (group.rank / 2.0) for k in range(9)
    )


# --- growth functional of the character sum --------------------------------------


def _unit_directions(dim: int, n_angular: int) -> list:
    if dim == 1:
        return [(1.0,), (-1.0,)]
    if dim == 2:
        return [
            (math.cos(2 * math.pi * j / n_angular), math.sin(2 * math.pi * j / n_angular))
            for j in range(n_angular)
        ]
    raise ValueError("directions only matter on tori of rank 1 and 2")


def character_sum_growth(group: Group, t: float, cutoff: int, n: int, radius: float, n_radial: int = 40, n_angular: int = 16) -> float:
    """sup over the polar grid of |F(e^{iY})|^2 (1+|Y|^2)^{2n} / (Phi e^{|Y|^2/t}),
    F = C_t of the sum of all characters up to the cutoff."""
    radii = [0.0] + [radius * j / n_radial for j in range(1, n_radial + 1)]
    best = -math.inf
    if group.kind == "su2":
        for r in radii:
            value = 0.0
            for m in range(1, cutoff + 1):
                chi = m if r == 0 else math.sinh(m * r / 2.0) / math.sinh(r / 2.0)
                value += math.exp(-(m * m - 1) * t / 8.0) * chi
            log_phi = 0.0 if r == 0 else math.log(r / math.sinh(r))
            best = max(best, 2 * math.log(abs(value)) + 2 * n * math.log1p(r * r) - log_phi - r * r / t)
        return math.exp(best)
    for r in radii:
        for d in _unit_directions(group.dim, n_angular) if r > 0 else [(0.0,) * group.dim]:
            value = 1.0
            for yk in d:
                value *= sum(math.exp(-k * k * t / 2.0 - k * r * yk) for k in range(-cutoff, cutoff + 1))
            best = max(best, 2 * math.log(abs(value)) + 2 * n * math.log1p(r * r) - r * r / t)
    return math.exp(best)


# --- pointwise evaluation of a coefficient file -----------------------------------


def _poly_mul(p: list, q: list) -> list:
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def su2_irrep(m: int, g) -> list:
    """pi_m(g) on degree-(m-1) polynomials in (z1, z2), orthonormal basis
    z1^{n-k} z2^k / sqrt((n-k)! k!), acting by (pi(g)p)(z) = p(z g)."""
    n = m - 1
    (a, b), (c, d) = g
    norms = [math.sqrt(math.factorial(n - k) * math.factorial(k)) for k in range(m)]
    mat = [[0j] * m for _ in range(m)]
    for k in range(m):
        poly = [1 + 0j]  # coefficients over powers of z2
        for _ in range(n - k):
            poly = _poly_mul(poly, [a, c])
        for _ in range(k):
            poly = _poly_mul(poly, [b, d])
        for l in range(m):
            mat[l][k] = poly[l] * norms[l] / norms[k]
    return mat


def euler_su2(phi: float, theta: float, psi: float):
    """e^{phi E3} e^{theta E2} e^{psi E3} as a 2x2 nested list."""
    ez = lambda s: ((cmath.exp(0.5j * s), 0), (0, cmath.exp(-0.5j * s)))
    ey = ((math.cos(theta / 2), math.sin(theta / 2)), (-math.sin(theta / 2), math.cos(theta / 2)))

    def mul(x, y):
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2))

    return mul(mul(ez(phi), ey), ez(psi))


def evaluate_coefficients(group: Group, entries: list, point) -> complex:
    """f(x) = sum_pi trace(pi(x) B_pi) straight from a coefficient file."""
    total = 0j
    for entry in entries:
        block = [[complex(re, im) for re, im in row] for row in entry["matrix"]]
        if group.kind == "torus":
            total += block[0][0] * cmath.exp(1j * sum(k * x for k, x in zip(entry["label"], point)))
        else:
            m = int(entry["label"])
            rep = su2_irrep(m, euler_su2(*point))
            total += sum(rep[i][j] * block[j][i] for i in range(m) for j in range(m))
    return total


def coefficient_scale(group: Group, entries: list) -> float:
    """sum over blocks of sqrt(dim) ||B||_F, an upper bound for sup |f| on K."""
    total = 0.0
    for entry in entries:
        fro = math.sqrt(sum(re * re + im * im for row in entry["matrix"] for re, im in row))
        total += math.sqrt(len(entry["matrix"])) * fro
    return total
