"""Truncated Siegel-point theta sums against the majorant family, and the
transformation-law checks that come with them.

A term is indexed by an (n+4) x 2 integer matrix ell and reads

    exp(pi i tr(S1[ell] X) - pi tr(R_W[ell] Y)),

where Z = X + iY is a 2x2 symmetric Siegel variable and R_W the majorant
at the tube-domain point W.  The truncation keeps tr(R_W[ell] Y) <= B,
which is the decay exponent itself: intrinsic, and equivariant under the
integral orthogonal group, so invariance tests hold exactly at matched
truncation.  Enumeration runs over the Kronecker form Y x R on stacked
column pairs, once per report: `theta_report` takes the value and the term
count from the same enumerated terms.  The terms at ell and -ell are
equal, so the enumeration lists one row per pair and the sum is doubled.
The rows are evaluated in the LLL basis the enumeration reduced to, never
mapped back: the phase forms are carried into that basis exactly.  The
evaluation is one pass over the rows, a block of `lattice.ROW_BLOCK` at a
time: one float64 copy of the block and one matmul against the three
phase forms and the decay form stacked side by side.  The phase sums are
integers, exact in float64 under `intmat.quad_rows`' headroom bound,
checked once over all rows; past the bound each block's phases come from
`quad_rows` itself.  The factored diagonal path counts
lattice shells by a bincount over one cached ball of the lattice
(`lattice.half_ball`).

Tail bounds are certified: the reported bound is the better of a
smallest-eigenvalue Gaussian comparison and a Poisson-dual volume bound,
each optimized over an exponent split.  The plain eigenvalue route alone
is numerically vacuous for the rank-8 catalog lattice (its Gram matrix
has smallest eigenvalue about 0.011), which is why the dual form is kept
alongside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .intmat import FLOAT64_EXACT, congruent_form, max_abs, quad_rows
from .lattice import (
    DEFAULT_CAP,
    ROW_BLOCK,
    half_ball,
    reduced_ellipsoid_points,
)
from .majorant import base_majorant, majorant_at
from .orthogroup import Space, TubePoint

IM_FLOOR = 1e-8


@dataclass
class ThetaQuery:
    """A theta evaluation request: Siegel point, tube point, truncation."""

    space: Space
    Z: np.ndarray
    W: TubePoint
    B: float
    cap: int = DEFAULT_CAP

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=complex)
        if self.Z.shape != (2, 2):
            raise ValueError("Siegel variable must be 2x2")
        if np.abs(self.Z - self.Z.T).max() > 1e-12:
            raise ValueError("Siegel variable must be symmetric")
        Y = self.Z.imag
        if np.linalg.eigvalsh(Y).min() < IM_FLOOR:
            raise ValueError("imaginary part must be positive definite")
        if not self.B > 0:
            raise ValueError("truncation bound must be positive")

    @property
    def X(self) -> np.ndarray:
        return self.Z.real

    @property
    def Y(self) -> np.ndarray:
        return self.Z.imag


def _term_blocks(q: ThetaQuery):
    """The enumerated rows' exponents, one block of at most ROW_BLOCK rows
    at a time: (s11, s12x2, s22, decay) as float64 arrays, one entry per
    pair {ell, -ell} with tr(R_W[ell] Y) <= B.

    The rows stay in the LLL basis U of the enumeration, ell = U y: the
    decay is Qred[y] with Qred = U^t Q U, and the phase pairs X with the
    three integer forms U^t (E_ij x S1) U, carried exactly.  Each block is
    copied to float64 once and multiplied once by the stacked k x 4k
    matrix [A11 | A12 | A22 | Qred]; a row's four values are then its
    products with its own four k-slices.  The phase sums are integers,
    exact in float64 while quad_rows' bound k^2 max|A| max|y|^2 stays
    below 2^53, checked once over the three forms and all rows; past it
    every block takes its phases from `quad_rows`, whose int64 and
    python-int routes are exact."""
    Q = np.kron(q.Y, majorant_at(q.space, q.W))
    U, rows = reduced_ellipsoid_points(Q, q.B, q.cap, half=True)
    S1 = np.array(q.space.S1_int, dtype=object)
    forms = [congruent_form(np.kron(E, S1), U)
             for E in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 1]])]
    Qred = U.T @ Q @ U
    k = rows.shape[1]
    bound = k * k * max(map(max_abs, forms)) * max_abs(rows) ** 2
    exact = bound < FLOAT64_EXACT
    F = np.hstack([A.astype(float) for A in forms] + [Qred]) if exact else Qred
    for start in range(0, rows.shape[0], ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        Yf = block.astype(float)
        s = np.einsum("rfk,rk->rf", (Yf @ F).reshape(len(Yf), -1, k), Yf)
        if exact:
            yield s[:, 0], s[:, 1], s[:, 2], s[:, 3]
        else:
            yield (*(quad_rows(A, block).astype(float) for A in forms),
                   s[:, 0])


def _term_data(q: ThetaQuery):
    """(truncated sum, number of nonzero terms) from one enumeration,
    evaluated a block of rows at a time (`_term_blocks`); the terms at ell
    and -ell are equal, so each row counts twice."""
    X = q.X
    total, rows = 0j, 0
    for s11, s12x2, s22, decay in _term_blocks(q):
        phase = s11 * X[0, 0] + s12x2 * X[0, 1] + s22 * X[1, 1]
        total += np.exp(1j * math.pi * phase - math.pi * decay).sum()
        rows += decay.size
    return 1.0 + 2.0 * complex(total), 2 * rows


def theta_truncated(q: ThetaQuery) -> complex:
    """Sum of all terms with tr(R_W[ell] Y) <= B, the zero matrix included."""
    return _term_data(q)[0]


def theta_term_count(q: ThetaQuery) -> int:
    """Number of nonzero enumerated terms."""
    return _term_data(q)[1]


def big_theta(q: ThetaQuery) -> complex:
    """det(Y)^{(n+2)/2} times the truncated theta sum."""
    power = (q.space.n + 2) / 2.0
    return float(np.linalg.det(q.Y)) ** power * theta_truncated(q)


def theta_report(q: ThetaQuery) -> dict:
    """Value, term count (the zero matrix included) and certified tail of
    one enumeration."""
    value, terms = _term_data(q)
    return {
        "classes": terms + 1,
        "B": float(q.B),
        "value": [value.real, value.imag],
        "exhaustive": True,
        "tail_bound": tail_bound(q.B, q.Y, majorant_at(q.space, q.W)),
    }


# ------------------------------------------------------- certified tails

def _theta1(c: float) -> float:
    """Sum over the integers of exp(-pi c k^2), c > 0."""
    total = 1.0
    k = 1
    while k < 100000:
        term = 2.0 * math.exp(-math.pi * c * k * k)
        total += term
        if term < 1e-18 * total:
            break
        k += 1
    return total


def _gauss_mass_upper(Q_det: float, lam_min: float, lam_max: float,
                      dim: int, alpha: float) -> float:
    """Upper bound for the full lattice sum of exp(-pi alpha Q[v]): the
    smaller of the eigenvalue-comparison and Poisson-dual volume forms."""
    by_min = _theta1(alpha * lam_min) ** dim
    log_dual = (-0.5 * (dim * math.log(alpha) + math.log(Q_det))
                + dim * math.log(_theta1(1.0 / (alpha * lam_max))))
    by_dual = math.exp(log_dual) if log_dual < 700 else float("inf")
    return min(by_min, by_dual) * (1.0 + 1e-12)


def tail_bound(B: float, Y: np.ndarray, R: np.ndarray) -> float:
    """Certified upper bound on the mass omitted beyond tr(R[ell] Y) > B."""
    return tail_bound_details(B, Y, R)["bound"]


def tail_bound_details(B: float, Y: np.ndarray, R: np.ndarray) -> dict:
    Y = np.asarray(Y, dtype=float)
    R = np.asarray(R, dtype=float)
    Q = np.kron(Y, R)
    dim = Q.shape[0]
    ev = np.linalg.eigvalsh(Q)
    lam_min, lam_max = float(ev[0]), float(ev[-1])
    det = float(np.prod(ev))
    best = float("inf")
    best_alpha = None
    for alpha in np.linspace(0.02, 0.9, 45):
        mass = _gauss_mass_upper(det, lam_min, lam_max, dim, float(alpha))
        cand = math.exp(-math.pi * (1.0 - alpha) * B) * mass
        if cand < best:
            best = cand
            best_alpha = float(alpha)
    return {
        "bound": best,
        "alpha": best_alpha,
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "det": det,
        "dimension": dim,
    }


# -------------------------------------- factored diagonal evaluation path

def majorant_shell_counts(space: Space, T: int):
    """Exact counts of integer vectors with base-majorant norm t <= T.

    The base majorant is diag(1, 1, S, 1, 1), so the counts are the
    convolution of four square shells with the lattice norm shells.
    """
    # object arrays: the counts are python ints, exact at any T
    r1 = np.zeros(T + 1, dtype=object)
    r1[0] = 1
    r1[np.arange(1, math.isqrt(T) + 1) ** 2] = 2
    r2 = np.convolve(r1, r1)[:T + 1]
    r4 = np.convolve(r2, r2)[:T + 1]
    _, norms = half_ball(space.L, T)
    rS = 2 * np.bincount(norms.astype(np.int64),
                         minlength=T + 1).astype(object)
    rS[0] = 1
    return np.convolve(rS, r4)[:T + 1].tolist()


def gauss_single_sum(space: Space, y: float, T: int):
    """(value, certified tail) for the one-column Gaussian sum
    sum over v of exp(-pi y R_base[v]), truncated at R_base[v] <= T."""
    shells = majorant_shell_counts(space, T)
    value = sum(c * math.exp(-math.pi * y * t) for t, c in enumerate(shells) if c)
    # kron([[y]], R) = yR, and R[v] <= T exactly when (yR)[v] <= yT
    return value, tail_bound(y * T, np.array([[y]]), base_majorant(space))


def theta_diag_factored(space: Space, y1: float, y2: float, T: int):
    """(value, certified tail) of the theta sum at X = 0 and diagonal
    Y = diag(y1, y2) over the base tube point: the double sum factors
    into two one-column sums, letting the truncation reach far enough
    for the dual tail bound to be meaningful."""
    s1, t1 = gauss_single_sum(space, y1, T)
    s2, t2 = gauss_single_sum(space, y2, T)
    value = s1 * s2
    tail = t1 * (s2 + t2) + t2 * s1
    return value, tail
