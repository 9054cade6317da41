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

For a general majorant the enumeration is Fincke-Pohst over reduced
bases.  Every admissible class has a Lagrange-Gauss reduced basis (l, m),
R[l] <= R[m] and |R(l, m)| <= R[l] / 2, so R[l] <= sqrt(4B/3) (the
completeness-critical constant: reduced bases satisfy
(3/4) R[l]^2 <= det(R[ell])).  The short isotropic l are listed first.
The partners of each are searched in the quotient K / <l'> of its
S1-orthogonal kernel K by l' = l / gcd(l), of rank m - 2: S1 is constant
on the cosets m + Z l', and det(R[(l, m)]) = R[l] R_perp[m] with
R_perp = R - (R l)(R l)^t / R[l], so the quotient ball is
R_perp <= B / R[l].  Half of it is listed, m and -m giving one class, and
each coset is lifted to the m with |R(l, m)| <= R[l] / 2; the pairs with
R[m] >= R[l] are kept, which are the reduced ones.  A primitive plane's
reduced l is primitive, so only primitive l are searched when only
primitive classes are asked for.  Both searches ask `ellipsoid_points`
for isotropic points only, and the enumerator solves the last coordinate
of that integer quadratic exactly instead of listing it, so no
anisotropic point is held; the cap counts every enumeration layer and
every point kept, the short vectors included.  All final acceptance tests
are exact or carry a 1e-9 relative boundary guard.

Class lists are columnar.  Both enumerators and `transport_classes`
give the canonical representatives rank2_column_hnf returns as one
(k, m, 2) integer stack (int64, or python ints as dtype object past the
kernel's int64 headroom), and the classes are ordered by (detR,
representative read row by row).  Each path finishes its stack its own
way:
- the base-point stack names each class once, and detR is D^2, with D
  read exactly off each representative's psi image; one sort on
  (D, representative) orders it, with no deduplication and no reduction;
- the general stack can name a class more than once, so it is
  deduplicated, and detR is computed once per class from a
  Lagrange-Gauss reduced basis, which makes it a function of the class;
- the transported stack names each class once (g is a bijection on
  classes), and its detR is computed from a reduced basis, as above.
Every row order is `intmat.lex_order`, which packs small-integer rows
into a few int64 keys.  The result is a `ClassList`, a sequence of
`IsotropicClass` items built only when indexed or iterated.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetExceeded, ConvergenceGuard, RankDeficient
from .intmat import (
    PAIR_SLICE,
    bareiss_det,
    congruent_form,
    int64_fits,
    int_dtype,
    integer_kernel,
    lex_order,
    mat_mul,
    mat_transpose,
    max_abs,
    rank2_column_hnf,
    row_hnf_transform,
)
from .lattice import (
    DEFAULT_CAP,
    GramLattice,
    _lll_gram,
    ellipsoid_points,
    half_ball,
    shell,
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


def _item(rows, detR) -> IsotropicClass:
    return IsotropicClass(ell=tuple(map(tuple, rows)), detR=detR)


class ClassList(Sequence):
    """A class list in columns: `ells`, a (k, m, 2) stack of canonical
    representatives (int64, or python ints as dtype object), and `detR`,
    the float64 det(R[ell]) of each class, a function of the class alone,
    in (detR, representative) order.  At the base point detR is the exact
    D^2 of `_image_index`; elsewhere it comes from `_reduced_det`.

    Indexing and iteration build IsotropicClass items on demand; a slice
    is a ClassList sharing the arrays.  Both arrays are read-only.
    """

    __slots__ = ("ells", "detR")

    def __init__(self, ells: np.ndarray, detR: np.ndarray):
        ells.flags.writeable = detR.flags.writeable = False
        self.ells, self.detR = ells, detR

    def __len__(self) -> int:
        return self.detR.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ClassList(self.ells[i], self.detR[i])
        i = operator.index(i)
        return _item(self.ells[i].tolist(), float(self.detR[i]))

    def __iter__(self):
        # python ints for one slice at a time, so iterating a long list
        # never holds it all; the flat entries are paired into rows and
        # the rows grouped m at a time by zip, with no per-class tuple calls
        m = self.ells.shape[1]
        for lo in range(0, len(self), PAIR_SLICE):
            flat = iter(self.ells[lo:lo + PAIR_SLICE].ravel().tolist())
            rows = zip(flat, flat)
            yield from map(IsotropicClass, zip(*[rows] * m),
                           self.detR[lo:lo + PAIR_SLICE].tolist())

    def __eq__(self, other):
        if isinstance(other, (ClassList, list)):
            return list(self) == list(other)
        return NotImplemented


def _canonical(V, W, primitive_only: bool):
    """The canonical representatives of the candidate pairs (V[i], W[i]),
    one (k, m, 2) block per PAIR_SLICE pairs.  Pairs of rank below 2 are
    dropped, and imprimitive ones when asked."""
    for lo in range(0, V.shape[0], PAIR_SLICE):
        g, H = rank2_column_hnf(V[lo:lo + PAIR_SLICE], W[lo:lo + PAIR_SLICE])
        yield H[g == 1 if primitive_only else g != 0]


def _flat(H: np.ndarray) -> np.ndarray:
    """The (k, 2m) view of the stack H: each representative read row by
    row."""
    k, m, _ = H.shape
    return H.reshape(k, 2 * m)


def _distinct(H: np.ndarray) -> np.ndarray:
    """The index of one row per distinct representative in the stack H, in
    row-major order of the representatives."""
    flat = _flat(H)
    order = lex_order(flat.T)
    new = np.zeros(H.shape[0], dtype=bool)
    new[:1] = True
    for col in flat.T:
        ranked = col[order]
        new[1:] |= ranked[1:] != ranked[:-1]
    return order[new]


def _reduce(H: np.ndarray, R: np.ndarray):
    """(a, b, aa, ab, bb): a Lagrange-Gauss R-reduced basis (a, b) of the
    two columns of each matrix in the (k, m, 2) integer stack H, and its
    Gram entries aa = R[a], ab = R(a, b), bb = R[b], with |ab| <= aa / 2
    and aa <= bb.  Each swap strictly lowers aa, so the reduction ends."""
    m, top = R.shape[0], math.ceil(np.abs(R).max())

    def gram(x, y):
        # R = hi + lo, hi on the grid 2^-s: x^t hi y is then a sum of
        # integer multiples of 2^-s below 2^53, exact in float64 in any
        # order, and only the small lo share is rounded
        s = 52 - (m * m * max_abs(x) * max_abs(y) * top).bit_length()
        hi = np.ldexp(np.rint(np.ldexp(R, s)), -s)
        xf, yf = x.astype(float), y.astype(float)
        return (((xf @ hi) * yf).sum(axis=1)
                + ((xf @ (R - hi)) * yf).sum(axis=1))

    a, b = H[:, :, 0].copy(), H[:, :, 1].copy()
    aa, ab, bb = gram(a, a), gram(a, b), np.zeros(H.shape[0])
    live = np.arange(H.shape[0])
    while live.size:
        # size-reduce b against a; the rows whose b is then the shorter
        # swap the two and go round again
        al, bl = a[live], b[live]
        mu = np.rint(ab[live] / aa[live])
        if a.dtype != object and not int64_fits(
                int(np.abs(mu).max()) * max_abs(al) + max_abs(bl)):
            a, b, al, bl = (x.astype(object) for x in (a, b, al, bl))
        mu = (np.frompyfunc(int, 1, 1)(mu) if a.dtype == object
              else mu.astype(np.int64))
        b[live] = bl = bl - mu[:, None] * al
        ab[live], bb[live] = gram(al, bl), gram(bl, bl)
        live = live[bb[live] < aa[live]]
        a[live], b[live] = b[live], a[live]
        aa[live], bb[live] = bb[live], aa[live]
    return a, b, aa, ab, bb


def _reduced_det(H: np.ndarray, R: np.ndarray) -> np.ndarray:
    """det(R[ell]) for each representative ell of the stack H, from the
    reduced basis of its columns, which depends on the class alone.  With
    |ab| <= aa / 2 <= bb / 2, aa bb and ab^2 cannot cancel as those of the
    Hermite form's nearly parallel columns do: the value is within a few
    units in the last place of the exact det over the float R."""
    _, _, aa, ab, bb = _reduce(H, R)
    return aa * bb - ab * ab


def _reduced_list(H: np.ndarray, R: np.ndarray,
                  keep: np.ndarray) -> ClassList:
    """The classes H[keep], keep in representative order and naming each
    class once, with detR in the majorant R from `_reduced_det`, ordered
    by (detR, representative)."""
    det = np.concatenate([np.zeros(0), *(
        _reduced_det(H[keep[lo:lo + PAIR_SLICE]], R)
        for lo in range(0, keep.shape[0], PAIR_SLICE))])
    # a stable sort on detR alone keeps the representative order of ties
    order = np.argsort(det, kind="stable")
    return ClassList(H[keep[order]], det[order])


def _class_list(H: np.ndarray, R: np.ndarray) -> ClassList:
    """The distinct classes of the canonical representatives H, with detR
    in the majorant R, ordered by (detR, representative)."""
    return _reduced_list(H, R, _distinct(H))


def _image_index(H: np.ndarray) -> np.ndarray:
    """D = [Z^2 : psi(P)] for the column lattice P of each representative
    in the stack H, exactly: |det| of the images psi(v) = (a + b, c + d)
    of its two columns, v = (a, c, x, d, b)."""
    H = H.astype(int_dtype(8 * max_abs(H) ** 2), copy=False)
    p = H[:, 0] + H[:, -1]
    q = H[:, 1] + H[:, -2]
    return np.abs(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])


def _base_class_list(H: np.ndarray) -> ClassList:
    """The base-point class list of the stack H, which names each class
    once: det(R0[ell]) = D^2 for the image index D (see the module
    docstring), so one sort on (D, representative) orders it and detR is
    D^2, with no deduplication and no reduction."""
    D = _image_index(H)
    order = lex_order([D, *_flat(H).T])
    D = D[order]
    return ClassList(H[order], (D * D).astype(np.float64))


def _divisors(m: int):
    return [d for d in range(1, m + 1) if m % d == 0]


def sigma1(m: int) -> int:
    """Sum of divisors."""
    return sum(_divisors(m))


# ------------------------------------------------------- base-point path

def _ball_estimate(L: GramLattice):
    """t -> a volume estimate of #{x : S[x] <= t}; used only to guard
    budgets.  The constant factors are computed once, here."""
    half = L.n / 2.0
    vol = math.pi ** half / math.gamma(half + 1.0)
    root = math.sqrt(float(L.det))
    return lambda t: vol * max(t, 0.0) ** half / root + 1.0


def _index_sublattices(D: int):
    """Reduced bases of the index-D sublattices of Z^2 (sigma1(D) of them),
    one per column Hermite form."""
    a, b, *_ = _reduce(np.array(hnf_class_reps(D)), np.eye(2))
    return list(zip(map(tuple, a.tolist()), map(tuple, b.tolist())))


def _fiber_plan(space: Space, pq):
    """The (u, w, t) shells of the psi fiber over pq, with a volume-based
    estimate of its size."""
    p, q = pq
    bound = p * p + q * q
    estimate = _ball_estimate(space.L)
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
            est += estimate(t)
    return plan, est


def _fiber(space: Space, pq, plan, ball, cap: int) -> np.ndarray:
    """All S1-isotropic integer vectors v with psi(v) = pq, as int64 rows,
    built along the (u, w, t) shells of _fiber_plan(space, pq), each a
    `shell` of the lattice ball `ball` reaching the plan's largest t.

    Parameterized by u = a - b, w = c - d (parity fixed by pq) and lattice
    vectors of norm t = (|pq|^2 - u^2 - w^2) / 2; the construction makes
    S1[v] = 0 automatic.
    """
    L = space.L
    p, q = pq
    blocks, size = [], 0
    for u, w, t in plan:
        if t:
            half = shell(ball, t)
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


def _s1_dtype(space: Space, A, B):
    """int64 when no S1 pairing of a row of A with a row of B, nor any
    partial sum of one, can overflow it; python ints otherwise."""
    m = space.dim + 2
    bound = m * m * max_abs(space.S1_int) * max_abs(A) * max_abs(B)
    return int_dtype(bound)


def _base_classes(space: Space, B: float, cap: int, primitive_only: bool):
    """The canonical representatives of the classes at the base-point
    majorant, as one (k, m, 2) stack with no class repeated.

    psi is injective on an isotropic plane P, since R[v] = |psi(v)|^2 > 0
    for v != 0 in P.  So P is lifted from exactly one image sublattice,
    and from exactly one pair of fiber points over the one reduced basis
    _index_sublattices gives that image: each class arrives once, and no
    deduplication is needed, on the way or after it.  `_base_class_list`
    orders the stack and reads detR = D^2 off each row."""
    limit = B * (1.0 + REL_EPS) + REL_EPS
    Dmax = math.isqrt(int(limit))
    # cheap whole-run feasibility scan before any fiber is built; each
    # fiber is at most est_total <= 3 cap, so none needs its own estimate.
    # Past 3 cap the scan stops at once while more indices are left than
    # were scanned, as the work per index grows with D; past half way it
    # finishes, and the refusal carries the estimate over every index
    est_total, t_max = 0.0, 0
    pairs = []
    for D in range(1, Dmax + 1):
        for pvec, rvec in _index_sublattices(D):
            (plan1, est1), (plan2, est2) = (_fiber_plan(space, pq)
                                            for pq in (pvec, rvec))
            est_total += est1 * est2
            t_max = max(t_max, *(t for _, _, t in plan1 + plan2))
            pairs.append((D, pvec, plan1, rvec, plan2))
        if est_total > 3.0 * cap and (2 * D <= Dmax or D == Dmax):
            raise BudgetExceeded(
                f"estimated candidate pair count {est_total:.2e} over image "
                f"indices up to {D} exceeds the enumeration cap",
                int(est_total), cap)
    # every fiber shell is a slice of one enumeration
    ball = half_ball(space.L, t_max)
    blocks = [np.zeros((0, space.dim + 2, 2), dtype=np.int64)]
    pair_budget = 0
    for D, pvec, plan1, rvec, plan2 in pairs:
        A1 = _fiber(space, pvec, plan1, ball, cap)
        A2 = _fiber(space, rvec, plan2, ball, cap)
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
                blocks.extend(_canonical(A1[ii], A2[jj], primitive_only))
    return np.concatenate(blocks)


# ---------------------------------------------------- general majorants

def _quotient_basis(space: Space, R: np.ndarray, lp):
    """C, the m x (m - 2) integer columns of a basis (l', C) of the
    S1-orthogonal kernel K = {x : S1(l', x) = 0} of a primitive isotropic
    integer vector l' (an object array of python ints).

    W, the integer kernel of the one row S1 l', is first LLL-reduced in R,
    so that C is made of short vectors and the quotient form built from it
    in floats is accurate.  Its columns extend to a unimodular matrix, so
    its row Hermite form is [I; 0] and the transform V gives l' = W z with
    z = (V l')[:-1]; the last entry of V l' is 0 exactly when l' lies in
    K.  z is primitive, so the transform T of its column has T z = e_1,
    T^-1 has first column z, and W T^-1 is a basis of K that starts with
    l'.  Only the LLL step reads floats; the basis is exact either way."""
    W = np.array(integer_kernel([(space.S1_exact @ lp).tolist()]),
                 dtype=object).T
    Wf = W.astype(float)
    W = W @ _lll_gram(Wf.T @ R @ Wf).astype(object)
    _, V = row_hnf_transform(W.tolist())
    z = (np.array(V, dtype=object) @ lp).tolist()
    if z.pop() != 0:
        raise ValueError("l' does not lie in its S1-orthogonal kernel")
    _, T = row_hnf_transform([[x] for x in z])
    _, Tinv = row_hnf_transform(T)
    return W @ np.array(Tinv, dtype=object)[:, 1:]


def _general_classes(space: Space, R: np.ndarray, B: float, cap: int,
                     primitive_only: bool):
    """The canonical representatives of the classes at a general
    majorant R, as one (k, m, 2) stack, each class reached through its
    reduced bases (l, m): a class appears more than once only at ties
    between those.  `_class_list` keeps one row per class and computes
    its detR from a reduced basis of it.

    For each short isotropic l (one of each pair +-l, and only primitive
    ones with primitive_only) the cosets m_bar + Z l' of the quotient
    K / <l'>, l' = l / gcd(l), are listed with R_perp[m_bar] <= B / R[l],
    one of each pair +-m_bar, in the basis C of _quotient_basis.  Each
    coset is lifted to m = m_bar + j l', where R(l, m) = R(l, m_bar)
    + j R[l] / gcd(l): for a primitive l the one j with
    |R(l, m)| <= R[l] / 2; otherwise the gcd(l) + 1 consecutive j from the
    low end of that window of length gcd(l), which covers every residue
    mod gcd(l), that is every plane <l, m> over the coset.  The pairs with
    R[m] >= R[l] (1 - 1e-9), the reduced ones, and det(R[(l, m)]) within
    the bound are canonicalised."""
    m = space.dim + 2
    limit = B * (1.0 + REL_EPS) + REL_EPS
    B1 = math.sqrt(4.0 * B / 3.0) * (1.0 + REL_EPS)
    iso = ellipsoid_points(R, B1, cap, iso=space.S1_int)
    # what is held counts against the cap: the short isotropic vectors,
    # then every partner list
    spent = iso.shape[0]
    blocks = [np.zeros((0, m, 2), dtype=np.int64)]
    if spent == 0:
        return blocks[0]
    # one sign per line: first nonzero coordinate positive
    lead = iso[np.arange(iso.shape[0]), (iso != 0).argmax(axis=1)]
    reps = sorted(map(tuple, iso[lead > 0].tolist()))
    # (l, partner) rows waiting for the canonicaliser
    pending, waiting = [], 0
    for l in reps:
        g = math.gcd(*l)
        if primitive_only and g > 1:
            continue
        lp = np.array([x // g for x in l], dtype=object)
        lv = np.array(l, dtype=np.int64)
        Rlv = R @ lv
        Rl = float(lv @ R @ lv)
        C = _quotient_basis(space, R, lp)
        # size-reduced against l', exactly: then |R(l, c)| <= R[l] / (2 g)
        # and the projection takes little off each column's R[c]
        k = np.rint(g * (C.astype(float).T @ Rlv) / Rl).astype(np.int64)
        C = C - np.outer(lp, k.astype(object))
        Cf = C.astype(float)
        w = Cf.T @ Rlv  # R(l, C y) = w . y
        Q = Cf.T @ R @ Cf - np.outer(w, w) / Rl
        ys = ellipsoid_points(Q, limit / Rl * (1.0 + REL_EPS), cap, spent,
                              iso=congruent_form(space.S1_int, C), half=True)
        spent += ys.shape[0]
        if ys.shape[0] == 0:
            continue
        # R(l, m_bar + j l') = R(l, m_bar) + j R[l] / g
        t = (ys @ w) / Rl
        if g == 1:
            j = np.rint(-t)[:, None]
        else:
            j = np.rint(-g * (t + 0.5))[:, None] + np.arange(g + 1)
        j = j.astype(np.int64)
        dt = int_dtype((m - 2) * max_abs(ys) * max_abs(C)
                       + max_abs(j) * max_abs(lp))
        mbar = ys.astype(dt) @ C.T.astype(dt)
        cands = (mbar[:, None, :]
                 + j.astype(dt)[:, :, None] * lp.astype(dt)).reshape(-1, m)
        Mf = cands.astype(float)
        Rmm = ((Mf @ R) * Mf).sum(axis=1)
        Rlm = Mf @ Rlv
        det2 = Rl * Rmm - Rlm * Rlm
        partners = cands[(Rmm >= Rl * (1.0 - REL_EPS)) & (det2 <= limit)]
        pending.append((np.broadcast_to(lv.astype(dt), partners.shape),
                        partners))
        waiting += partners.shape[0]
        if waiting >= PAIR_SLICE:
            blocks.extend(_canonical(*map(np.concatenate, zip(*pending)),
                                     primitive_only))
            pending, waiting = [], 0
    if pending:
        blocks.extend(_canonical(*map(np.concatenate, zip(*pending)),
                                 primitive_only))
    return np.concatenate(blocks)


# ------------------------------------------------------------ public API

def enumerate_isotropic_classes(space: Space, R: np.ndarray, B: float,
                                cap: int = DEFAULT_CAP,
                                primitive_only: bool = True,
                                _force_general: bool = False) -> ClassList:
    """All classes [ell] with det(R[ell]) <= B (1e-9 relative slack at the
    boundary), S1[ell] = 0, rank 2, primitive unless told otherwise."""
    if not 0 < B < math.inf:
        raise ValueError("B must be positive and finite")
    R0 = base_majorant(space)
    if not _force_general and np.allclose(R, R0, rtol=0.0, atol=1e-12):
        # detR in the integral R0 is exactly the square of the image index
        return _base_class_list(_base_classes(space, B, cap, primitive_only))
    return _class_list(_general_classes(space, R, B, cap, primitive_only), R)


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


def class_value(classes: ClassList, s: complex) -> complex:
    """Sum of det(R[ell])^(-s/2) over the given classes, left to right."""
    s = complex(s)
    total = 0j
    for d in classes.detR.tolist():
        total += d ** (-s / 2)
    return total


def transport_classes(space: Space, classes: ClassList, g: OrthElement,
                      R_new: np.ndarray) -> ClassList:
    """Map a class list through an exact group element: ell -> g ell,
    recomputing each determinant in the majorant R_new.  Classes at a
    point Z biject this way with classes at g<Z>."""
    if not g.exact:
        raise ValueError("transport requires an exact integral element")
    m = space.dim + 2
    ells = classes.ells
    dt = int_dtype(m * max_abs(g.mat) * max_abs(ells))
    moved = g.mat.astype(dt) @ ells.astype(dt)
    H = np.concatenate([np.zeros((0, m, 2), dtype=np.int64),
                        *_canonical(moved[:, :, 0], moved[:, :, 1], False)])
    if H.shape[0] < moved.shape[0]:
        raise RankDeficient("a transported class has rank below 2")
    # g is a bijection on classes, so none repeats: order, no deduplication
    return _reduced_list(H, R_new, lex_order(_flat(H).T))


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
