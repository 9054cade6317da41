"""Completed-series machinery: zeta and xi with reflection, the paired
gamma factors, a positive-cone matrix integral cross-check, and the
assembly of completion-factor products with their reflection maps.

Numeric policy: values are returned as machine complex numbers.  The
environment variable ORTHOKLEIS_PRECISION (decimal digits, default 16)
sets the working precision; above 16 digits the zeta core switches to
mpmath arithmetic internally while keeping the same summation scheme.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.special import gamma as _gamma_c
from scipy.special import loggamma as _loggamma

from .eisenstein import (
    check_convergence,
    class_value,
    enumerate_isotropic_classes,
)
from .errors import PoleAt, QuadratureBudget
from .majorant import majorant_at
from .orthogroup import Space

_POLE_TOL = 1e-12


def working_precision() -> int:
    """Decimal digits requested through the environment, default 16."""
    raw = os.environ.get("ORTHOKLEIS_PRECISION", "16")
    try:
        digits = int(raw)
    except ValueError:
        raise ValueError(
            f"ORTHOKLEIS_PRECISION must be an integer, got {raw!r}")
    if digits < 6:
        raise ValueError("working precision below 6 digits is not supported")
    return digits


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number by the defining recurrence."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n):
        total += Fraction(math.comb(n + 1, k)) * bernoulli_number(k)
    return -total / (n + 1)


def _em_parameters(s: complex, digits: int) -> tuple[int, int]:
    t = abs(s.imag)
    N = max(24, int(1.4 * digits) + int(0.7 * t) + 8)
    M = max(10, digits // 2 + 6)
    return N, M


def _zeta_sum_float(s: complex, digits: int) -> complex:
    N, M = _em_parameters(s, digits)
    total = sum((j ** -s for j in range(1, N)), 0j)
    total += N ** (1 - s) / (s - 1) + 0.5 * N ** -s
    rise = s
    npow = N ** (-s - 1)
    for m in range(1, M + 1):
        total += float(
            bernoulli_number(2 * m) / math.factorial(2 * m)) * rise * npow
        rise *= (s + 2 * m - 1) * (s + 2 * m)
        npow /= N * N
    return total

def _zeta_sum_mp(s: complex, digits: int) -> complex:
    # identical scheme, arbitrary-precision arithmetic
    N, M = _em_parameters(s, digits)
    with mpmath.workdps(digits + 8):
        sm = mpmath.mpc(s)
        total = mpmath.fsum(mpmath.power(j, -sm) for j in range(1, N))
        total += mpmath.power(N, 1 - sm) / (sm - 1)
        total += mpmath.power(N, -sm) / 2
        rise = sm
        npow = mpmath.power(N, -sm - 1)
        for m in range(1, M + 1):
            b = bernoulli_number(2 * m) / math.factorial(2 * m)
            total += mpmath.mpf(b.numerator) / b.denominator * rise * npow
            rise *= (sm + 2 * m - 1) * (sm + 2 * m)
            npow /= N * N
        return complex(total)


def zeta(s, digits: int | None = None) -> complex:
    """Riemann zeta by Euler-Maclaurin summation, reflected into the left
    half-plane; accurate to well below 1e-10 for |Im s| <= 50."""
    s = complex(s)
    if abs(s - 1) < _POLE_TOL:
        raise PoleAt(1, residue=1, label="zeta")
    if digits is None:
        digits = working_precision()
    core = _zeta_sum_mp if digits > 16 else _zeta_sum_float
    # the summation scheme converges on |s| <= 1/2 as well, which keeps
    # the reflection factor sin(pi s/2) * zeta(1-s) away from its 0 * inf
    # collision at the origin
    if s.real >= 0.5 or abs(s) <= 0.5:
        return core(s, digits)
    w = 1 - s
    return (2 ** s * math.pi ** (s - 1) * cmath.sin(cmath.pi * s / 2)
            * _gamma(w, digits) * core(w, digits))


def _gamma(s: complex, digits: int = 16) -> complex:
    if digits > 16:
        with mpmath.workdps(digits + 8):
            return complex(mpmath.gamma(mpmath.mpc(s)))
    return complex(_gamma_c(s))


def xi(s, digits: int | None = None) -> complex:
    """The completed zeta pi^{-s/2} Gamma(s/2) zeta(s), self-dual under
    s -> 1-s, with simple poles at 0 and 1."""
    s = complex(s)
    if abs(s) < _POLE_TOL:
        raise PoleAt(0, residue=-1, label="xi")
    if abs(s - 1) < _POLE_TOL:
        raise PoleAt(1, residue=1, label="xi")
    if digits is None:
        digits = working_precision()
    half = s / 2
    # the gamma factor has poles at nonpositive even s that cancel the
    # trivial zeros; route through the reflection in a small window so
    # the cancellation never happens in floating point
    if s.real < 0.5:
        near = round(s.real / 2) * 2
        if near <= 0 and abs(s - near) < 1e-8:
            return xi(1 - s, digits)
    return math.pi ** (-s / 2) * _gamma(half, digits) * zeta(s, digits)


# ------------------------------------------------------- gamma companions

def gamma2(s, digits: int | None = None) -> complex:
    """Gamma(s) Gamma(s - 1/2)."""
    s = complex(s)
    digits = working_precision() if digits is None else digits
    return _gamma(s, digits) * _gamma(s - 0.5, digits)


def phi2_value(t):
    """t(t - 1/2): exact for rational input, complex otherwise."""
    if isinstance(t, (int, Fraction)):
        t = Fraction(t)
        return t * (t - Fraction(1, 2))
    t = complex(t)
    return t * (t - 0.5)


def gamma_s_offsets(n: int) -> list[Fraction]:
    """Arguments of the quadratic factors, as offsets c in phi2(s/2 + c)."""
    if n % 4 != 0:
        raise ValueError("the factor product needs 4 | n")
    r = n // 4
    offs = [Fraction(-2 * r), Fraction(0)]
    offs += [Fraction(3, 2) - 2 * j for j in range(1, r + 1)]
    return offs


def gamma_s(s, n: int):
    """(-4)^r prod phi2(s/2 + c) over the offset list; exact at rational s."""
    offs = gamma_s_offsets(n)
    r = n // 4
    if isinstance(s, (int, Fraction)):
        out = Fraction(-4) ** r
        for c in offs:
            out *= phi2_value(Fraction(s) / 2 + c)
        return out
    s = complex(s)
    out = complex((-4) ** r)
    for c in offs:
        out *= phi2_value(s / 2 + float(c))
    return out


def gamma_s_roots(n: int) -> list[Fraction]:
    """Zeros of the factor product in s, with multiplicity, sorted."""
    roots = []
    for c in gamma_s_offsets(n):
        roots += [-2 * c, 1 - 2 * c]
    return sorted(roots)


def gamma_factors(s, n: int):
    """(Gamma_2(s), phi2(s), product factor) as one bundle."""
    return gamma2(s), phi2_value(s), gamma_s(s, n)


# ---------------------------------------------- positive-cone integral

# Nested (Gauss-Jacobi nodes, trapezoid step) rules, coarsest first.
_P2_LADDER = ((20, 0.2), (40, 0.1), (80, 0.05), (160, 0.025))
_UNIT_ROUNDOFF = 2.0 ** -53


def _jacobi_mass(a: float) -> float:
    """int_{-1}^{1} (1 - u^2)^a du = B(1/2, a + 1), for a > -1."""
    return math.exp(math.lgamma(0.5) + math.lgamma(a + 1) - math.lgamma(a + 1.5))


def _gauss_jacobi(n: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for the weight (1 - u^2)^a on [-1, 1], a > -1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix, and each weight is 1 / sum_k p_k(u)^2 over the orthonormal
    polynomials of degree < n.  (scipy.special.roots_jacobi computes the
    same rule, but its first call imports scipy.linalg, which costs more
    than the whole cone integral.)
    """
    k = np.arange(2, n, dtype=float)
    off = np.sqrt(np.concatenate(
        ([1 / (3 + 2 * a)], k * (k + 2 * a) / ((2 * k + 2 * a) ** 2 - 1))))
    u = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_prev, p = np.zeros(n), np.full(n, 1 / math.sqrt(_jacobi_mass(a)))
    norm2 = p * p
    for j in range(n - 1):
        p, p_prev = (u * p - (off[j - 1] if j else 0.0) * p_prev) / off[j], p
        norm2 += p * p
    return u, 1 / norm2


def p2_integral_check(s, T, rel_tol: float = 1e-4) -> tuple[complex, complex]:
    """Certified quadrature of the determinant-power Gaussian
    int_{Y>0} exp(-tr TY) (det Y)^{s-3/2} dY against its closed form
    sqrt(pi) Gamma_2(s) det(T)^{-s}; returns (numeric, closed).

    The cone is charted as y1 = r a, y2 = r/a, y3 = u r (Jacobian 2r/a),
    so the r-integral is Gamma(2s) c^{-2s} with c = t1 a + t2/a + 2 t3 u.
    With a = sqrt(t2/t1) e^y and rho = t3/sqrt(t1 t2) what is left is
        2 Gamma(2s) (2 sqrt(t1 t2))^{-2s}
            int_{-1}^{1} (1-u^2)^{s-3/2} int_R (cosh y + rho u)^{-2s} dy du.
    The u-integral uses Gauss-Jacobi nodes for the weight
    (1-u^2)^{Re s - 3/2}, the y-integral the trapezoid rule on [-L, L],
    with L taken from the e^{-2 Re s |y|} decay; each rung of _P2_LADDER
    is one array expression over the whole grid.  The certificate of a
    rung is the gap to the previous rung, plus the analytic bound on the
    y-tail beyond +-L, plus the summation rounding bound
    gamma_n sum |w_i f_i| (Higham, Accuracy and Stability of Numerical
    Algorithms, 4.2).  QuadratureBudget is raised when the certificate is
    still above rel_tol |closed| at the last rung.
    """
    s = complex(s)
    if s.real <= 0.5:
        raise ValueError("the integral requires Re(s) > 1/2")
    T = np.asarray(T, dtype=float)
    if T.shape != (2, 2) or abs(T[0, 1] - T[1, 0]) > 1e-12:
        raise ValueError("T must be a symmetric 2x2 matrix")
    ev = np.linalg.eigvalsh(T)
    if ev[0] <= 0:
        raise ValueError("T must be positive definite")
    t1, t2, t3 = T[0, 0], T[1, 1], T[0, 1]
    det_t = t1 * t2 - t3 * t3
    closed = math.sqrt(math.pi) * gamma2(s) * det_t ** (-s)
    if not (cmath.isfinite(closed) and closed):
        raise QuadratureBudget(
            f"the closed form {closed} at s = {s} is outside double range")

    sigma = s.real
    rho = t3 / math.sqrt(t1 * t2)
    prefactor = 2 * complex(np.exp(
        _loggamma(2 * s) - 2 * s * math.log(2 * math.sqrt(t1 * t2))))
    target = rel_tol * abs(closed) / abs(prefactor)

    # |integrand| has u-mass B(1/2, sigma - 1/2), and for |y| >= L
    # cosh y + rho u >= (e^|y| / 2)(1 - 2|rho| e^-L), so the integral and
    # the rule beyond +-L are both at most tail(L).  L starts from the
    # rho = 0 solution of tail(L) = u |closed / prefactor| and is a
    # multiple of the coarsest step, so every rung's grid ends on +-L.
    u_mass = _jacobi_mass(sigma - 1.5)
    tail_tol = _UNIT_ROUNDOFF * abs(closed / prefactor)

    def tail(L):
        q = 1 - 2 * abs(rho) * math.exp(-L)
        if q <= 0:
            return math.inf
        return u_mass * (2 / q) ** (2 * sigma) * math.exp(-2 * sigma * L) / sigma

    step = _P2_LADDER[0][1]
    L0 = math.log(u_mass * 4 ** sigma / (sigma * tail_tol)) / (2 * sigma)
    L = step * max(1, math.ceil(L0 / step))
    while tail(L) > tail_tol:
        L += step
    tail_bound = tail(L)

    exponent = -2 * s if s.imag else -2 * sigma
    previous = None
    for nodes, h in _P2_LADDER:
        u, w = _gauss_jacobi(nodes, sigma - 1.5)
        if s.imag:
            w = w * (1 - u * u) ** (1j * s.imag)
        half = round(L / h)
        c = np.cosh(h * np.arange(-half, half + 1)) + rho * u[:, None]
        terms = (h * w)[:, None] * c ** exponent
        value = terms.sum()
        n = terms.size
        rounding = (n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)
                    * np.abs(terms).sum())
        if previous is not None:
            certificate = abs(value - previous) + tail_bound + rounding
            if certificate <= target:
                return complex(prefactor * value), closed
        previous = value
    raise QuadratureBudget(
        f"relative quadrature certificate "
        f"{certificate * abs(prefactor / closed):.2e} after {nodes} "
        f"Gauss-Jacobi nodes and step {h} exceeds the requested relative "
        f"tolerance {rel_tol:g} of |closed| = {abs(closed):.3e}")


# --------------------------------------------------- completed assemblies

@dataclass(frozen=True)
class CompletedSeriesFactors:
    """A completed value split into its labeled completion factors."""

    s: complex
    n: int
    r: int
    factors: tuple
    series_value: complex
    completed_value: complex
    k: int | None = None
    integral_prefactor: complex | None = None

    def __post_init__(self):
        if self.n % 4 != 0 or self.r != self.n // 4:
            raise ValueError("rank must be divisible by 4 with r = n/4")
        for _, value in self.factors:
            if value is None or not np.isfinite(complex(value)):
                raise ValueError("completion factors must be finite")

    def factor_product(self) -> complex:
        out = 1 + 0j
        for _, value in self.factors:
            out *= complex(value)
        return out

    def as_dict(self) -> dict:
        return {
            "s": [self.s.real, self.s.imag],
            "n": self.n,
            "r": self.r,
            "k": self.k,
            "factors": [
                {"label": lab, "value": [complex(v).real, complex(v).imag]}
                for lab, v in self.factors
            ],
            "series_value": [self.series_value.real, self.series_value.imag],
            "completed_value": [
                self.completed_value.real, self.completed_value.imag],
            "integral_prefactor": (
                None if self.integral_prefactor is None else
                [self.integral_prefactor.real, self.integral_prefactor.imag]),
        }


def eisenstein_reflection(s):
    """The functional-equation substitution for the rank-8 series."""
    return 9 - s


def dirichlet_reflection(s, k):
    return 2 * k - 9 - s


def completed_e8_grid(space: Space, W, s_grid, B: float,
                      cap: int | None = None) -> list[CompletedSeriesFactors]:
    """completed_e8_eisenstein at every s of a grid.  Every s is checked
    before the classes at W are enumerated, once for the whole grid."""
    if space.n != 8:
        raise ValueError("this assembly is specific to rank 8")
    s_grid = [complex(s) for s in s_grid]
    factors = []
    for s in s_grid:
        factors.append((
            ("xi(s-3)", xi(s - 3)),
            ("xi(2s-8)", xi(2 * s - 8)),
            ("xi(s)", xi(s)),
            ("xi(s-1)", xi(s - 1)),
            ("gamma_S(s)", gamma_s(s, 8)),
        ))
        check_convergence(s, space.n + 1)
    kwargs = {} if cap is None else {"cap": cap}
    classes = enumerate_isotropic_classes(space, majorant_at(space, W), B,
                                          **kwargs)
    out = []
    for s, fac in zip(s_grid, factors):
        series = class_value(classes, s)
        out.append(CompletedSeriesFactors(
            s=s, n=8, r=2, factors=fac, series_value=series,
            completed_value=series * math.prod(
                (complex(v) for _, v in fac), start=1 + 0j)))
    return out


def completed_e8_eisenstein(space: Space, W, s, B: float,
                            cap: int | None = None) -> CompletedSeriesFactors:
    """Truncated rank-8 series multiplied by its completion factors
    xi(s-3) xi(2s-8) xi(s) xi(s-1) and the quadratic factor product."""
    return completed_e8_grid(space, W, [s], B, cap)[0]


def completed_dirichlet(coeffs, s, k: int, n: int,
                        so_order: int) -> CompletedSeriesFactors:
    """Finite coefficient sum m^{-s} with the completion factor product
    (4 pi)^{-s} Gamma(s) xi(s-k+6) xi(2s-2k+10) xi(s-k+9) xi(s-k+8) and
    the quadratic factor at s-k+9; also exposes the normalization
    prefactor (4 pi)^{-(s+k-n-1)} Gamma(s+k-n-1) / so_order."""
    if n % 4 != 0:
        raise ValueError("rank must be divisible by 4")
    if not isinstance(so_order, int) or so_order <= 0:
        raise ValueError("the finite group order must be a positive integer")
    s = complex(s)
    check_convergence(s, k + 1)
    series = sum(
        (complex(c) * (m + 1) ** -s for m, c in enumerate(coeffs)), 0j)
    factors = (
        ("(4pi)^(-s)Gamma(s)", (4 * math.pi) ** -s * _gamma(s)),
        ("xi(s-k+6)", xi(s - k + 6)),
        ("xi(2s-2k+10)", xi(2 * s - 2 * k + 10)),
        ("xi(s-k+9)", xi(s - k + 9)),
        ("xi(s-k+8)", xi(s - k + 8)),
        ("gamma_S(s-k+9)", gamma_s(s - k + 9, n)),
    )
    w = s + k - n - 1
    prefactor = (4 * math.pi) ** -w * _gamma(w) / so_order
    product = math.prod((complex(v) for _, v in factors), start=1 + 0j)
    return CompletedSeriesFactors(
        s=s, n=n, r=n // 4, k=k, factors=factors, series_value=series,
        completed_value=product * series, integral_prefactor=prefactor)


def reflection_consistency(k) -> dict:
    """Exact affine algebra tying the two reflections together: shifting
    by s -> s - k + 9 conjugates s -> 2k-9-s into s -> 9-s."""
    k = Fraction(k)

    def compose(outer, inner):
        # affine maps as (slope, intercept)
        return (outer[0] * inner[0], outer[0] * inner[1] + outer[1])

    shift = (Fraction(1), 9 - k)
    dirichlet = (Fraction(-1), 2 * k - 9)
    eisenstein = (Fraction(-1), Fraction(9))
    lhs = compose(shift, dirichlet)
    rhs = compose(eisenstein, shift)
    return {"lhs": lhs, "rhs": rhs, "consistent": lhs == rhs}


def modified_siegel_factors(s) -> dict:
    """The factor pair {xi(2s), xi(4s-2)} for the degenerate rank-2
    series, with pole bookkeeping and the reflected arguments under
    s -> 3/2 - s."""
    s = complex(s)
    out = {
        "args": [2 * s, 4 * s - 2],
        "reflected_args": [3 - 2 * s, 4 - 4 * s],
        "series_pole": abs(s - 1.5) < 1e-9,
        "factors": [],
        "poles": [],
    }
    for lab, u in (("xi(2s)", 2 * s), ("xi(4s-2)", 4 * s - 2)):
        try:
            out["factors"].append((lab, xi(u)))
        except PoleAt as exc:
            out["factors"].append((lab, None))
            out["poles"].append((lab, exc.location))
    return out


# ------------------------------------------------------- coefficient I/O

def read_coefficient_file(path) -> list[complex]:
    """Coefficient sequences from JSON (array of numbers or [re, im]
    pairs) or CSV rows index,value-re,value-im with 1-based indices."""
    text = open(path, "r", encoding="utf-8").read()
    name = str(path).lower()
    if name.endswith(".json"):
        data = json.loads(text)
        out = []
        for item in data:
            if isinstance(item, (list, tuple)):
                out.append(complex(float(item[0]), float(item[1])))
            else:
                out.append(complex(item))
        return out
    rows = list(csv.reader(text.strip().splitlines()))
    if rows and not rows[0][0].strip().lstrip("-").isdigit():
        rows = rows[1:]  # header
    entries = {}
    for row in rows:
        if not row or not row[0].strip():
            continue
        idx = int(row[0])
        if idx < 1:
            raise ValueError("coefficient indices are 1-based")
        re = float(row[1])
        im = float(row[2]) if len(row) > 2 and row[2].strip() else 0.0
        entries[idx] = complex(re, im)
    if not entries:
        return []
    out = [0j] * max(entries)
    for idx, val in entries.items():
        out[idx - 1] = val
    return out
