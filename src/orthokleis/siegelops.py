"""Rank-2 Siegel upper half space: symplectic action, weight-raising and
determinant-derivative operators on the exact term algebra, the
one-dimensional reduction suite, and a truncated degenerate Eisenstein
series over coprime symmetric pairs.

Operators act on ExpPoly and are exact; every identity they satisfy can
be checked structurally (difference canonicalizes to the empty sum).
The composed operators follow the conjugation displays

    delta_k    = (det Y)^{-k+1/2} det(d_Z) (det Y)^{k-1/2},
    D_{l}      = (det Y)^l det(d_Y) (det Y)^{1-l},
    R0*        = (det Y)^{2-r} det(d_Y) (det Y)^{1+2r} det(d_Y),

with det(d_Z) = dz1 dz2 - (1/4) dz3^2 in the entry coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceGuard,
    NotPositiveDefinite,
    SingularDenominator,
    XDependentInput,
)
from .exppoly import ExpPoly
from .intmat import PAIR_SLICE, minors_gcd, rank2_column_hnf, row_hnf_transform
from .majorant import base_majorant
from .orthogroup import Space

SP_TOL = 1e-10


def phi2(t):
    """The quadratic t(t - 1/2) appearing in all rank-2 eigenvalues."""
    t = Fraction(t)
    return t * (t - Fraction(1, 2))


# ----------------------------------------------------------- Siegel point

@dataclass(frozen=True)
class SiegelPoint:
    """Point of the rank-2 upper half space, stored by its entry triple
    (z1, z2, z3) with z3 the off-diagonal entry."""

    z1: complex
    z2: complex
    z3: complex

    def __post_init__(self):
        y1, y2, y3 = self.z1.imag, self.z2.imag, self.z3.imag
        if not (y1 > 0 and y1 * y2 - y3 * y3 > 0):
            raise NotPositiveDefinite("imaginary part is not in the cone")

    @staticmethod
    def from_matrix(Z) -> "SiegelPoint":
        Z = np.asarray(Z, dtype=complex)
        if np.abs(Z - Z.T).max() > 1e-9:
            raise ValueError("Siegel point requires a symmetric matrix")
        return SiegelPoint(complex(Z[0, 0]), complex(Z[1, 1]),
                           complex((Z[0, 1] + Z[1, 0]) / 2))

    def matrix(self) -> np.ndarray:
        return np.array([[self.z1, self.z3], [self.z3, self.z2]])

    @property
    def triple(self):
        return (self.z1, self.z2, self.z3)

    @property
    def Y(self) -> np.ndarray:
        return self.matrix().imag

    @property
    def X(self) -> np.ndarray:
        return self.matrix().real

    def det_y(self) -> float:
        y = self.Y
        return float(y[0, 0] * y[1, 1] - y[0, 1] ** 2)


# ------------------------------------------------------ symplectic group

_J4 = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])


class SpElement:
    """4x4 symplectic matrix in (A B; C D) block form."""

    __slots__ = ("mat", "exact")

    def __init__(self, mat):
        arr = np.asarray(mat)
        self.exact = arr.dtype.kind in "iu" or (
            arr.dtype == object and all(isinstance(v, int) for v in arr.flat)
        )
        self.mat = arr.astype(object) if self.exact else arr.astype(float)
        if self.mat.shape != (4, 4):
            raise ValueError("symplectic elements are 4x4")
        rel = self.mat.T @ _J4 @ self.mat
        if self.exact:
            if not (rel == _J4).all():
                raise ValueError("matrix fails the symplectic relation")
        elif np.abs(rel.astype(float) - _J4).max() > SP_TOL:
            raise ValueError("matrix fails the symplectic relation")

    @property
    def A(self):
        return self.mat[:2, :2]

    @property
    def B(self):
        return self.mat[:2, 2:]

    @property
    def C(self):
        return self.mat[2:, :2]

    @property
    def D(self):
        return self.mat[2:, 2:]

    def __matmul__(self, other: "SpElement") -> "SpElement":
        return SpElement(self.mat @ other.mat)

    def inverse(self) -> "SpElement":
        return SpElement(-_J4.astype(self.mat.dtype) @ self.mat.T @ _J4)


def sp_identity() -> SpElement:
    return SpElement(np.eye(4, dtype=np.int64))


def sp_inversion() -> SpElement:
    return SpElement(_J4)


def sp_translation(T) -> SpElement:
    T = np.asarray(T)
    if (T != T.T).any():
        raise ValueError("translation block must be symmetric")
    g = np.eye(4, dtype=T.dtype)
    g[:2, 2:] = T
    return SpElement(g)


def sp_gl(U) -> SpElement:
    """Block-diagonal embedding of GL2: Z maps to U Z U^t."""
    U = np.asarray(U, dtype=float)
    Ui = np.linalg.inv(U).T
    g = np.zeros((4, 4))
    g[:2, :2] = U
    g[2:, 2:] = Ui
    if np.abs(np.round(g) - g).max() < 1e-12:
        return SpElement(np.round(g).astype(np.int64))
    return SpElement(g)


def random_sp_near_identity(rng: np.random.Generator, eps: float = 0.05
                            ) -> SpElement:
    """exp of a small Hamiltonian matrix, by plain series."""
    P = rng.uniform(-1, 1, (2, 2))
    Q = rng.uniform(-1, 1, (2, 2))
    R = rng.uniform(-1, 1, (2, 2))
    Q = (Q + Q.T) / 2
    R = (R + R.T) / 2
    H = np.block([[P, Q], [R, -P.T]]) * eps
    out = np.eye(4)
    term = np.eye(4)
    for k in range(1, 24):
        term = term @ H / k
        out = out + term
    return SpElement(out)


def sp2_act(g: SpElement, Z: SiegelPoint):
    """(g<Z>, det(CZ+D)); the action is (AZ+B)(CZ+D)^{-1}."""
    Zm = Z.matrix()
    C = np.asarray(g.C, dtype=float)
    D = np.asarray(g.D, dtype=float)
    A = np.asarray(g.A, dtype=float)
    B = np.asarray(g.B, dtype=float)
    den = C @ Zm + D
    j = complex(den[0, 0] * den[1, 1] - den[0, 1] * den[1, 0])
    if abs(j) < 1e-12:
        raise SingularDenominator("denominator determinant vanishes")
    W = (A @ Zm + B) @ np.linalg.inv(den)
    W = (W + W.T) / 2
    return SiegelPoint.from_matrix(W), j


# ------------------------------------------------- differential operators

def det_dz(f: ExpPoly) -> ExpPoly:
    return f.det_dz()


def det_dy(f: ExpPoly) -> ExpPoly:
    return f.det_dy()


def maass_delta(f: ExpPoly, k, m: int = 2) -> ExpPoly:
    if m != 2:
        raise ValueError("only the rank-2 operator is implemented")
    shift = Fraction(k) - Fraction(1, 2)
    return f.mul_det_power(shift).det_dz().mul_det_power(-shift)


def shimura_power(f: ExpPoly, k, r: int) -> ExpPoly:
    if r < 0:
        raise ValueError("the power index must be nonnegative")
    k = Fraction(k)
    for j in range(r):
        f = maass_delta(f, k + 2 * j)
    return f


def sigma_op(f: ExpPoly) -> ExpPoly:
    out = ExpPoly.zero()
    for j in (1, 2, 3):
        out = out + f.dz(j).mul_y(j)
    return out.scale(0, 1)


def d_lm(f: ExpPoly, l, m: int = 2) -> ExpPoly:
    if m != 2:
        raise ValueError("only the rank-2 operator is implemented")
    l = Fraction(l)
    return f.mul_det_power(1 - l).det_dy().mul_det_power(l)


def _require_x_free(f: ExpPoly):
    zero = (Fraction(0),) * 3
    for key in f.terms:
        if key[2] != zero:
            raise XDependentInput(
                "operator restricted to X-independent input; found a term "
                "with nonzero X-frequency"
            )


def r0_star(f: ExpPoly, r: int) -> ExpPoly:
    _require_x_free(f)
    g = f.det_dy().mul_det_power(1 + 2 * r).det_dy().mul_det_power(2 - r)
    return g


def maass_on_det_power(alpha, u) -> Fraction:
    """Exact scalar c with delta_alpha (det Y)^u = c (det Y)^{u-1}.

    Computed through the term algebra, not from a closed form, so it can
    be compared against -phi2(alpha+u)/4 as an identity check; verifying
    it on more rational points than the degree of either side proves the
    formal-variable statement.
    """
    alpha, u = Fraction(alpha), Fraction(u)
    out = maass_delta(ExpPoly.det_power(u), alpha)
    if out.is_zero:
        return Fraction(0)
    if len(out) != 1:
        raise RuntimeError("determinant power did not map to a single term")
    (p, mono, A, B), coeff = next(iter(out.terms.items()))
    if p != u - 1 or mono != (0, 0, 0) or any(A) or any(B):
        raise RuntimeError("unexpected term shape for a determinant power")
    if len(coeff.coeffs) != 1 or coeff.coeffs[0][1] != 0:
        raise RuntimeError("coefficient is not a plain rational")
    return coeff.coeffs[0][0]


def theta_term_symbol(space: Space, ell, R=None) -> ExpPoly:
    """Single theta term as a symbol: X-frequency from the even bilinear
    form, Y-frequency from the majorant restricted to the two columns."""
    if R is None:
        R = base_majorant(space)
    ell = np.asarray(ell, dtype=np.int64)
    S1 = np.array(space.S1_int, dtype=np.int64)
    a = ell.T @ S1 @ ell
    Rf = np.asarray(R, dtype=float)
    b = ell.astype(float).T @ Rf @ ell.astype(float)
    return ExpPoly.exp_term(
        (int(a[0, 0]), int(a[1, 1]), int(a[0, 1])),
        (Fraction(float(b[0, 0])), Fraction(float(b[1, 1])),
         Fraction(float(b[0, 1]))),
    )


# --------------------------------------------- one-dimensional reduction

def one_dim_delta_power(k, t):
    """delta_k = k/(2iy) + d/dz applied to y^t: returns the Gaussian-
    rational factor (re, im) of the resulting y^{t-1}."""
    k, t = Fraction(k), Fraction(t)
    return (Fraction(0), -(k + t) / 2)


def one_dim_shimura_constant(k, t0, r: int):
    """Composition factor of the r-fold one-variable raising chain on
    y^{t0}; exponent drops by r."""
    cr, ci = Fraction(1), Fraction(0)
    t = Fraction(t0)
    k = Fraction(k)
    for j in range(r):
        _, fim = one_dim_delta_power(k + 2 * j, t)
        cr, ci = -ci * fim, cr * fim
        t -= 1
    return (cr, ci), t


def one_dim_casimir_residual(n: int, t) -> Fraction:
    """Eigenvalue of 4y^2 dz dzbar - (n/4)(n/4+1) on y^t."""
    t = Fraction(t)
    q = Fraction(n, 4)
    return t * (t - 1) - q * (q + 1)


def one_dim_annihilation(n: int) -> dict:
    """Exact rank-one check that the r-fold raising chain lands in the
    kernel of the quadratic invariant operator, for n divisible by 4."""
    if n % 4 != 0:
        raise ValueError("rank parameter must be a multiple of 4")
    r = n // 4
    k = Fraction(-n, 2)
    (cr, ci), t = one_dim_shimura_constant(k, Fraction(n + 2, 2), r)
    residual = one_dim_casimir_residual(n, t)
    return {
        "constant": (cr, ci),
        "exponent": t,
        "residual": residual,
        "annihilated": residual == 0 and (cr, ci) != (Fraction(0), Fraction(0)),
    }


# ------------------------------------- degenerate series over (C, D) pairs

def _coprime_symmetric(C, D) -> bool:
    """Single-pair reference form of the test siegel_coset_reps runs in
    batches."""
    CDt = [
        [sum(C[i][k] * D[j][k] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    if CDt[0][1] != CDt[1][0]:
        return False
    stacked = [list(C[0]) + list(D[0]), list(C[1]) + list(D[1])]
    return minors_gcd(stacked, 2) == 1


def _canonical_pair(C, D):
    """Single-pair reference form of the canonical key siegel_coset_reps
    and translate_coset_classes compute in batches."""
    stacked = [list(C[0]) + list(D[0]), list(C[1]) + list(D[1])]
    H, _ = row_hnf_transform(stacked)
    return tuple(tuple(row) for row in H)


def _canonical_pairs(X):
    """Batched _canonical_pair.  Each row of the (k, 8) array X is a pair
    laid out as [C0 | D0 | C1 | D1], the two rows of the stacked matrix
    [C | D].  Returns (g, Y): the gcd of the 2 x 2 minors of each [C | D]
    (1 for a coprime pair) and its row Hermite form in the same layout."""
    g, H = rank2_column_hnf(X[:, :4], X[:, 4:])
    return g, H.transpose(0, 2, 1).reshape(-1, 8)


def _as_pair(y):
    """((C0, C1), (D0, D1)) from a row laid out as [C0 | D0 | C1 | D1]."""
    return ((y[0], y[1]), (y[4], y[5])), ((y[2], y[3]), (y[6], y[7]))


def siegel_coset_reps(B: int):
    """Canonical left-unimodular class representatives of coprime
    symmetric pairs (C, D) with all entries of both blocks in [-B, B].

    Classes are deduplicated by the row Hermite form of the stacked 2x4
    matrix [C | D]; the pivot convention is the one of the integer
    matrix utilities (positive pivots, entries above reduced)."""
    if B < 0:
        raise ValueError("entry bound must be nonnegative")
    # every 2 x 2 block, entries in row order (x00, x01, x10, x11)
    blocks = np.array(list(itertools.product(range(-B, B + 1), repeat=4)),
                      dtype=np.int64)
    step = max(1, PAIR_SLICE // len(blocks))
    seen = set()
    for lo in range(0, len(blocks), step):
        C = blocks[lo:lo + step]
        # symmetric: (C D^t)_01 = C0 . D1 equals (C D^t)_10 = C1 . D0
        i, j = np.nonzero(C[:, :2] @ blocks[:, 2:].T
                          == C[:, 2:] @ blocks[:, :2].T)
        g, Y = _canonical_pairs(np.column_stack(
            [C[i, :2], blocks[j, :2], C[i, 2:], blocks[j, 2:]]))
        seen.update(map(tuple, Y[g == 1].tolist()))
    return sorted(_as_pair(y) for y in seen)


def translate_coset_classes(classes, T):
    """Image of the class list under Z -> Z + T reindexing: (C, D) maps
    to (C, D + CT), recanonicalized."""
    T = [[int(T[0][0]), int(T[0][1])], [int(T[1][0]), int(T[1][1])]]
    if T[0][1] != T[1][0]:
        raise ValueError("translation block must be symmetric")
    X = np.array([[*C[0], *D[0], *C[1], *D[1]] for C, D in classes],
                 dtype=object).reshape(-1, 8)
    T = np.array(T, dtype=object)
    X[:, 2:4] += X[:, 0:2] @ T  # row i of D gains row i of C T
    X[:, 6:8] += X[:, 4:6] @ T
    g, Y = _canonical_pairs(X)
    if (g == 0).any():
        raise ValueError("a pair (C, D) has rank below 2")
    return sorted(_as_pair(y) for y in Y.tolist())


def siegel_value_over(classes, Z: SiegelPoint, s: complex) -> complex:
    Zm = Z.matrix()
    dety = Z.det_y()
    total = 0j
    for C, D in classes:
        den = np.array(C, dtype=complex) @ Zm + np.array(D, dtype=complex)
        det = den[0, 0] * den[1, 1] - den[0, 1] * den[1, 0]
        if abs(det) < 1e-14:
            raise SingularDenominator("class denominator vanishes at Z")
        total += abs(det) ** (-2 * s)
    return dety ** complex(s) * total


def siegel_convergence_guard(s: complex) -> None:
    """Refuse Re(s) at or below 3/2, where the series diverges."""
    if complex(s).real <= 1.5:
        raise ConvergenceGuard(
            "series truncations are only meaningful for Re(s) > 3/2"
        )


def siegel_eisenstein_truncated(Z: SiegelPoint, s: complex, B: int) -> complex:
    """Entry-bounded truncation of the degenerate series
    sum over classes of det(Im gZ)^s = (det Y)^s sum |det(CZ+D)|^{-2s}."""
    siegel_convergence_guard(s)
    return siegel_value_over(siegel_coset_reps(B), Z, s)
