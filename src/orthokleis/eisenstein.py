"""Primitive isotropic rank-2 classes and the truncated series in Epstein
form, with the divisor-sum bookkeeping for imprimitive classes.

Coordinates of the big space are v = (a, c, x, d, b) with x a lattice
vector; the bordered form is S1[v] = 2ab + 2cd - S[x] and the base
majorant is R[v] = a^2 + c^2 + S[x] + d^2 + b^2.  On S1-isotropic vectors
the projection psi(v) = (a+b, c+d) satisfies R[v] = |psi(v)|^2, and the
same holds for pairings inside an isotropic plane, so a rank-2 isotropic
column lattice P has det(R[ell]) = [Z^2 : psi(P)]^2 for any basis ell.
Base-point enumeration therefore walks image sublattices of Z^2 by index
D <= sqrt(B) and lifts a Lagrange-reduced basis through the psi fibers.

For a general majorant the enumeration is Fincke-Pohst: every admissible
class has a reduced basis (l, m) with R[l] <= sqrt(4B/3) and
R[m] <= (4/3) B / R[l] (the completeness-critical constants: reduced
bases satisfy R[l] R[m] <= (4/3) det(R[ell])), so short isotropic vectors
are listed first and partners are enumerated inside the S1-orthogonal
sublattice of each.  All final acceptance tests are exact or carry a
1e-9 relative boundary guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, ConvergenceGuard, RankDeficient
from .intmat import (
    PAIR_SLICE,
    bareiss_det,
    int64_fits,
    integer_kernel,
    mat_mul,
    mat_transpose,
    max_abs,
    rank2_column_hnf,
)
from .lattice import (
    DEFAULT_CAP,
    GramLattice,
    ellipsoid_points,
    half_ball,
    norm_shell,
)
from .majorant import base_majorant, majorant_at
from .orthogroup import OrthElement, Space, TubePoint

REL_EPS = 1e-9


@dataclass(frozen=True)
class IsotropicClass:
    """A right-GL2(Z) class of primitive isotropic rank-2 integer matrices,
    held by its canonical (column Hermite) representative."""

    ell: tuple
    detR: float

    def matrix(self) -> np.ndarray:
        return np.array([list(r) for r in self.ell], dtype=np.int64)


def _divisors(m: int):
    return [d for d in range(1, m + 1) if m % d == 0]


def sigma1(m: int) -> int:
    """Sum of divisors."""
    return sum(_divisors(m))


# ------------------------------------------------------- base-point path

def _ball_estimate(L: GramLattice, t: float) -> float:
    """Volume estimate of #{x : S[x] <= t}; used only to guard budgets."""
    n = L.n
    vol = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return vol * max(t, 0.0) ** (n / 2.0) / math.sqrt(float(L.det)) + 1.0


def _lagrange_reduce(v1, v2):
    """Gauss-reduced basis of the plane lattice spanned by v1, v2."""

    def n2(v):
        return v[0] * v[0] + v[1] * v[1]

    if n2(v1) > n2(v2):
        v1, v2 = v2, v1
    while True:
        num = v2[0] * v1[0] + v2[1] * v1[1]
        den = n2(v1)
        mu = (2 * num + den) // (2 * den)  # round(num/den) without floats
        v2 = (v2[0] - mu * v1[0], v2[1] - mu * v1[1])
        if n2(v2) >= n2(v1):
            return v1, v2
        v1, v2 = v2, v1


def _index_sublattices(D: int):
    """Reduced bases of the index-D sublattices of Z^2 (sigma1(D) of them),
    one per column Hermite form."""
    return [_lagrange_reduce(*zip(*rep)) for rep in hnf_class_reps(D)]


def _fiber_plan(space: Space, pq):
    """The (u, w, t) shells of the psi fiber over pq, with a volume-based
    estimate of its size."""
    p, q = pq
    bound = p * p + q * q
    plan = []
    est = 0.0
    ulim = math.isqrt(bound)
    for u in range(-ulim, ulim + 1):
        if (u - p) % 2:
            continue
        wlim = math.isqrt(bound - u * u)
        for w in range(-wlim, wlim + 1):
            if (w - q) % 2:
                continue
            t = (bound - u * u - w * w) // 2
            plan.append((u, w, t))
            est += _ball_estimate(space.L, t)
    return plan, est


def _fiber(space: Space, pq, plan, cap: int) -> np.ndarray:
    """All S1-isotropic integer vectors v with psi(v) = pq, as int64 rows,
    built along the (u, w, t) shells of _fiber_plan(space, pq).

    Parameterized by u = a - b, w = c - d (parity fixed by pq) and lattice
    vectors of norm t = (|pq|^2 - u^2 - w^2) / 2; the construction makes
    S1[v] = 0 automatic.
    """
    L = space.L
    p, q = pq
    blocks, size = [], 0
    for u, w, t in plan:
        if t:
            half = norm_shell(L, t)
            xs = np.concatenate([half, -half])
        else:
            xs = np.zeros((1, L.n), dtype=np.int64)
        k = xs.shape[0]
        size += k
        if size > cap:
            raise BudgetExceeded(
                f"fiber for psi-image {pq} exceeds the enumeration cap",
                size, cap)
        a, b = (p + u) // 2, (p - u) // 2
        c, d = (q + w) // 2, (q - w) // 2
        blocks.append(np.hstack([np.full((k, 2), (a, c)), xs,
                                 np.full((k, 2), (d, b))]))
    return np.concatenate(blocks)


def _add_classes(found: dict, V, W, det, primitive_only: bool):
    """Canonicalise the candidate pairs (V[i], W[i]) in slices and record
    each new class with its determinant det[i], first occurrence first.
    Pairs of rank below 2 are dropped, and imprimitive ones when asked."""
    for lo in range(0, V.shape[0], PAIR_SLICE):
        g, H = rank2_column_hnf(V[lo:lo + PAIR_SLICE], W[lo:lo + PAIR_SLICE])
        keep = g == 1 if primitive_only else g != 0
        H = H[keep]
        for col0, col1, d in zip(H[:, :, 0].tolist(), H[:, :, 1].tolist(),
                                 det[lo:lo + PAIR_SLICE][keep].tolist()):
            key = tuple(zip(col0, col1))
            if key not in found:
                found[key] = d


def _s1_dtype(space: Space, A, B):
    """int64 when no S1 pairing of a row of A with a row of B, nor any
    partial sum of one, can overflow it; python ints otherwise."""
    m = space.dim + 2
    bound = m * m * max_abs(space.S1_int) * max_abs(A) * max_abs(B)
    return np.int64 if int64_fits(bound) else object


def _base_classes(space: Space, B: float, cap: int, primitive_only: bool):
    """Class dict {canonical rows: detR} at the base-point majorant."""
    limit = B * (1.0 + REL_EPS) + REL_EPS
    Dmax = math.isqrt(int(limit))
    # cheap whole-run feasibility scan before any fiber is built; each
    # fiber is at most est_total <= 3 cap, so none needs its own estimate
    est_total, t_max = 0.0, 0
    pairs = []
    for D in range(1, Dmax + 1):
        for pvec, rvec in _index_sublattices(D):
            (plan1, est1), (plan2, est2) = (_fiber_plan(space, pq)
                                            for pq in (pvec, rvec))
            est_total += est1 * est2
            t_max = max(t_max, *(t for _, _, t in plan1 + plan2))
            pairs.append((D, pvec, plan1, rvec, plan2))
    if est_total > 3.0 * cap:
        raise BudgetExceeded(
            f"estimated candidate pair count {est_total:.2e} over image "
            f"indices up to {Dmax} exceeds the enumeration cap",
            int(est_total), cap)
    # the largest fiber norm first: every fiber shell is then a slice of
    # one enumeration
    half_ball(space.L, t_max)
    found: dict = {}
    pair_budget = 0
    for D, pvec, plan1, rvec, plan2 in pairs:
        A1 = _fiber(space, pvec, plan1, cap)
        A2 = _fiber(space, rvec, plan2, cap)
        pair_budget += A1.shape[0] * A2.shape[0]
        if pair_budget > cap:
            raise BudgetExceeded(
                f"candidate pair count for image index {D} exceeds cap",
                pair_budget, cap)
        dt = _s1_dtype(space, A1, A2)
        right = (np.array(space.S1_int, dtype=dt)
                 @ A2.T.astype(dt, copy=False))
        chunk = max(1, 4_000_000 // max(1, A2.shape[0]))
        for lo in range(0, A1.shape[0], chunk):
            block = A1[lo:lo + chunk].astype(dt, copy=False) @ right
            i, j = np.nonzero(block == 0)
            for s in range(0, i.size, PAIR_SLICE):
                ii, jj = lo + i[s:s + PAIR_SLICE], j[s:s + PAIR_SLICE]
                _add_classes(found, A1[ii], A2[jj],
                             np.full(ii.size, float(D * D)),
                             primitive_only)
    return found


# ---------------------------------------------------- general majorants

def _isotropy_mask(space: Space, V: np.ndarray) -> np.ndarray:
    """S1[v] == 0 for each row v of V, exactly (python ints when the int64
    sums could overflow).  Rows go in slices, so the products need no more
    memory than one slice however many candidates there are."""
    dt = _s1_dtype(space, V, V)
    S1 = np.array(space.S1_int, dtype=dt)
    out = np.empty(V.shape[0], dtype=bool)
    for lo in range(0, V.shape[0], PAIR_SLICE):
        Vs = V[lo:lo + PAIR_SLICE].astype(dt, copy=False)
        out[lo:lo + PAIR_SLICE] = ((Vs @ S1) * Vs).sum(axis=1) == 0
    return out


def _general_classes(space: Space, R: np.ndarray, B: float, cap: int,
                     primitive_only: bool):
    m = space.dim + 2
    limit = B * (1.0 + REL_EPS) + REL_EPS
    B1 = math.sqrt(4.0 * B / 3.0) * (1.0 + REL_EPS)
    stage1 = ellipsoid_points(R, B1, cap)
    if stage1.shape[0] == 0:
        return {}
    iso = stage1[_isotropy_mask(space, stage1)]
    # one sign per line: first nonzero coordinate positive
    lead = iso[np.arange(iso.shape[0]), (iso != 0).argmax(axis=1)]
    reps = sorted(map(tuple, iso[lead > 0].tolist()))
    S1_rows = space.S1_int
    found: dict = {}
    spent = 0
    # (l, partner, det2) rows waiting for the canonicaliser, in order
    pending, waiting = [], 0
    for l in reps:
        lv = np.array(l, dtype=np.int64)
        Rl = float(lv @ R @ lv)
        B2 = (4.0 / 3.0) * B / max(Rl, 1e-300) * (1.0 + REL_EPS)
        row = [[sum(S1_rows[i][j] * l[i] for i in range(m)) for j in range(m)]]
        kern = integer_kernel(row)
        W = np.array(kern, dtype=np.int64).T  # columns span the kernel
        Qk = W.T @ R @ W
        ys = ellipsoid_points(Qk, B2, cap, spent)
        spent += ys.shape[0]
        if spent > cap:
            raise BudgetExceeded("partner enumeration exceeded cap", spent, cap)
        if ys.shape[0] == 0:
            continue
        cands = ys @ W.T
        cands = cands[_isotropy_mask(space, cands)]
        # stacked (1, m) products round exactly as one vector at a time
        # does, so classes of equal determinant keep their sorted order
        Cf = cands.astype(float)[:, None, :]
        Rlm = (Cf @ (R @ lv)[:, None])[:, 0, 0]
        det2 = Rl * (Cf @ R @ Cf.transpose(0, 2, 1))[:, 0, 0] - Rlm * Rlm
        ok = det2 <= limit
        partners = cands[ok]
        pending.append((np.broadcast_to(lv, partners.shape), partners,
                        det2[ok]))
        waiting += partners.shape[0]
        if waiting >= PAIR_SLICE:
            _add_classes(found, *map(np.concatenate, zip(*pending)),
                         primitive_only)
            pending, waiting = [], 0
    if pending:
        _add_classes(found, *map(np.concatenate, zip(*pending)),
                     primitive_only)
    return found


# ------------------------------------------------------------ public API

def enumerate_isotropic_classes(space: Space, R: np.ndarray, B: float,
                                cap: int = DEFAULT_CAP,
                                primitive_only: bool = True,
                                _force_general: bool = False):
    """All classes [ell] with det(R[ell]) <= B (1e-9 relative slack at the
    boundary), S1[ell] = 0, rank 2, primitive unless told otherwise."""
    if not B > 0:
        raise ValueError("B must be positive")
    if not _force_general and np.allclose(R, base_majorant(space),
                                          rtol=0.0, atol=1e-12):
        found = _base_classes(space, B, cap, primitive_only)
    else:
        found = _general_classes(space, R, B, cap, primitive_only)
    out = [IsotropicClass(ell=k, detR=v) for k, v in found.items()]
    out.sort(key=lambda c: (c.detR, c.ell))
    return out


def canonical_class(ell) -> list:
    """Canonical representative (column Hermite form) of the right-GL2(Z)
    class of an m x 2 integer matrix of rank 2."""
    A = np.array([[int(x) for x in row] for row in ell], dtype=object)
    if A.ndim != 2 or A.shape[1] != 2:
        raise ValueError("expected an m x 2 integer matrix")
    g, H = rank2_column_hnf(A[None, :, 0], A[None, :, 1])
    if g[0] == 0:
        raise RankDeficient("matrix has rank below 2")
    return H[0].tolist()


def class_value(classes, s: complex) -> complex:
    """Sum of det(R[ell])^(-s/2) over the given classes."""
    s = complex(s)
    total = 0j
    for c in classes:
        total += c.detR ** (-s / 2)
    return total


def transport_classes(space: Space, classes, g: OrthElement,
                      R_new: np.ndarray):
    """Map a class list through an exact group element: ell -> g ell,
    recomputing each determinant in the majorant R_new.  Classes at a
    point Z biject this way with classes at g<Z>."""
    if not g.exact:
        raise ValueError("transport requires an exact integral element")
    m = space.dim + 2
    ells = np.array([c.ell for c in classes], dtype=object).reshape(-1, m, 2)
    dt = np.int64 if int64_fits(m * max_abs(g.mat) * max_abs(ells)) else object
    moved = g.mat.astype(dt) @ ells.astype(dt)
    out = []
    for lo in range(0, moved.shape[0], PAIR_SLICE):
        block = moved[lo:lo + PAIR_SLICE]
        rank2, H = rank2_column_hnf(block[:, :, 0], block[:, :, 1])
        if (rank2 == 0).any():
            raise RankDeficient("a transported class has rank below 2")
        Hf = H.astype(float)
        gram = Hf.transpose(0, 2, 1) @ R_new @ Hf
        det2 = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
        out += [IsotropicClass(ell=tuple(map(tuple, rows)), detR=d)
                for rows, d in zip(H.tolist(), det2.tolist())]
    out.sort(key=lambda c: (c.detR, c.ell))
    return out


def check_convergence(s: complex, line: float,
                      allow_formal: bool = False) -> bool:
    """Refuse Re(s) at or below the convergence line unless a formal
    truncation is allowed; returns whether the truncation is formal."""
    s = complex(s)
    formal = s.real <= line
    if formal and not allow_formal:
        raise ConvergenceGuard(
            f"Re(s) = {s.real} is not above the convergence line {line}")
    return formal


def series_report(classes, s: complex, B: float, formal: bool = False) -> dict:
    """The truncated series over an enumerated class list, in the shape
    the CLI serializes."""
    s = complex(s)
    value = class_value(classes, s)
    rep = {
        "classes": len(classes),
        "B": float(B),
        "s": [s.real, s.imag],
        "value": [value.real, value.imag],
        "exhaustive": True,
    }
    if formal:
        rep["label"] = "formal truncation"
    return rep


def eisenstein_report(space: Space, Z: TubePoint, s: complex, B: float,
                      allow_formal: bool = False,
                      cap: int = DEFAULT_CAP) -> dict:
    """Evaluation plus bookkeeping, in the shape the CLI serializes."""
    formal = check_convergence(s, space.n + 1, allow_formal)
    R = majorant_at(space, Z)
    classes = enumerate_isotropic_classes(space, R, B, cap=cap)
    return series_report(classes, s, B, formal)


def eisenstein_truncated(space: Space, Z: TubePoint, s: complex, B: float,
                         allow_formal: bool = False,
                         cap: int = DEFAULT_CAP) -> complex:
    """Truncated series value at Z: the sum of det(R_Z[ell])^(-s/2) over
    all classes with det(R_Z[ell]) <= B."""
    rep = eisenstein_report(space, Z, s, B, allow_formal, cap)
    return complex(*rep["value"])


def hnf_det_class_count(m: int) -> int:
    """Number of right-GL2(Z) classes of integer 2x2 matrices with
    |det| = m, counted by enumerating Hermite forms; equals sigma1(m)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return len(hnf_class_reps(m))


def hnf_class_reps(m: int):
    """The column-Hermite representatives: matrices [[a, 0], [c, d]] with
    a d = m and 0 <= c < d, one per column lattice of index m."""
    reps = []
    for a in _divisors(m):
        d = m // a
        for c in range(d):
            reps.append(((a, 0), (c, d)))
    return reps


def imprimitive_factorization_check(ell):
    """Split ell = N * M with N the canonical primitive saturation basis
    and M an integer 2x2 matrix of nonzero determinant."""
    rows = [[int(x) for x in row] for row in ell]
    m = len(rows)
    canonical_class(rows)  # raises RankDeficient below rank 2
    ortho = integer_kernel(mat_transpose(rows))  # vectors x with ell^t x = 0
    if ortho:
        # each orthogonal vector is one linear constraint on the saturation
        sat_cols = integer_kernel([list(x) for x in ortho])
    else:
        sat_cols = [[int(i == j) for i in range(m)] for j in range(2)]
    N0 = mat_transpose(sat_cols)  # m x 2
    N = canonical_class(N0)
    piv = None
    for i in range(m):
        for j in range(i + 1, m):
            det2 = N[i][0] * N[j][1] - N[i][1] * N[j][0]
            if det2 != 0:
                piv = (i, j, det2)
                break
        if piv:
            break
    i, j, det2 = piv
    inv = [[Fraction(N[j][1], det2), Fraction(-N[i][1], det2)],
           [Fraction(-N[j][0], det2), Fraction(N[i][0], det2)]]
    target = [rows[i], rows[j]]
    Mfrac = mat_mul(inv, target)
    M = []
    for row in Mfrac:
        out_row = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise RankDeficient(f"saturation solve produced {f}")
            out_row.append(f.numerator)
        M.append(out_row)
    if mat_mul(N, M) != rows:
        raise RankDeficient("recomposition failed")
    if bareiss_det(M) == 0:
        raise RankDeficient("cofactor determinant vanished")
    return N, M
