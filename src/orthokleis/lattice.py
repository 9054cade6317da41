"""Even positive definite lattices and their bordered quadratic forms.

A lattice is carried by its Gram matrix S (all arithmetic on S is exact).
The two bordered forms attach hyperbolic planes around -S and then around
the first bordered form:

    S0 = [[0, 0, 1], [0, -S, 0], [1, 0, 0]]        (signature (1, n+1))
    S1 = [[0, 0, 1], [0, S0, 0], [1, 0, 0]]        (signature (2, n+2))

so that S0[y] = 2 y_first y_last - S[y_mid] and, writing a vector of the
big space as v = (a, c, x, d, b) with x of length n,

    S1[v] = 2ab + 2cd - S[x].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import (
    BudgetExceeded,
    NotEven,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
)
from .intmat import (
    bareiss_det,
    column_hnf,
    congruent_form,
    fraction_inverse,
    int_dtype,
    lex_order,
    max_abs,
    minors_gcd,
    quad_rows,
)

# Root lattice Gram matrices.  Only the last one is tied to the E8 example
# worked out downstream; the others are the standard textbook matrices.
CATALOG = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A4": (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    ),
    "D4": (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    ),
    "E8": (
        (2, -1, 0, 0, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0, 0, 0),
        (0, -1, 2, -1, 0, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, -1),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, 0),
        (0, 0, 0, 0, -1, 0, 0, 2),
    ),
}


@dataclass(frozen=True)
class GramLattice:
    """An even positive definite Gram matrix with its level and its
    determinant, both functions of S."""

    n: int
    S: tuple  # tuple of tuples of ints
    q: int    # level: least q with q * S^{-1} even integral
    det: int  # det S, the last leading minor validate_gram checks

    def gram(self):
        return [list(r) for r in self.S]

    def gram_np(self) -> np.ndarray:
        return np.array(self.S, dtype=np.int64)

    def quad(self, x) -> int:
        """S[x] for an integer vector, exactly."""
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = self.S[i]
                total += xi * sum(r * xj for r, xj in zip(row, x))
        return total

    def inverse(self):
        """S^{-1} as a Fraction matrix."""
        return fraction_inverse(self.gram())


@dataclass(frozen=True)
class BorderedForms:
    """The two hyperbolic borderings of a Gram matrix."""

    S0: tuple
    S1: tuple
    Q0: tuple  # S0 / 2 as Fractions

    def S0_np(self) -> np.ndarray:
        return np.array(self.S0, dtype=np.int64)

    def S1_np(self) -> np.ndarray:
        return np.array(self.S1, dtype=np.int64)


def validate_gram(S) -> GramLattice:
    """Check symmetry, evenness, positive definiteness; compute the level.

    Raises NotSymmetric / NotEven / NotPositiveDefinite with the offending
    location.  Accepts any nested sequence of ints (numpy arrays included).
    """
    rows = [[int(x) for x in row] for row in S]
    n = len(rows)
    if n < 1:
        raise ValueError("a Gram matrix needs at least one row")
    if any(len(r) != n for r in rows):
        raise NotSymmetric("matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    for i in range(n):
        if rows[i][i] % 2 != 0:
            raise NotEven(i, rows[i][i])
    for k in range(1, n + 1):
        minor = bareiss_det([r[:k] for r in rows[:k]])
        if minor <= 0:
            raise NotPositiveDefinite(k)
    Stup = tuple(tuple(r) for r in rows)
    q = _level_from_inverse(fraction_inverse(rows))
    return GramLattice(n=n, S=Stup, q=q, det=minor)


def _level_from_inverse(inv) -> int:
    """Least q making q * S^{-1} integral with even diagonal."""
    q = 1
    for i, row in enumerate(inv):
        for j, e in enumerate(row):
            f = Fraction(e)
            if i == j:
                f = f / 2  # need q * e to be even
            if f == 0:
                continue
            need = f.denominator
            q = q * need // gcd(q, need)
    return q


def level(L: GramLattice) -> int:
    return L.q


def bordered_forms(L: GramLattice) -> BorderedForms:
    n = L.n
    m0 = n + 2
    S0 = [[0] * m0 for _ in range(m0)]
    S0[0][m0 - 1] = S0[m0 - 1][0] = 1
    for i in range(n):
        for j in range(n):
            S0[1 + i][1 + j] = -L.S[i][j]
    m1 = n + 4
    S1 = [[0] * m1 for _ in range(m1)]
    S1[0][m1 - 1] = S1[m1 - 1][0] = 1
    for i in range(m0):
        for j in range(m0):
            S1[1 + i][1 + j] = S0[i][j]
    Q0 = tuple(tuple(Fraction(x, 2) for x in row) for row in S0)
    return BorderedForms(
        S0=tuple(tuple(r) for r in S0),
        S1=tuple(tuple(r) for r in S1),
        Q0=Q0,
    )


# ------------------------------------------- Fincke-Pohst enumeration

DEFAULT_CAP = 8_000_000
_LLL_DELTA = 0.75  # the Lovasz condition's constant
# rows per block wherever rows are processed a block at a time: the rebuild
# from links here and the theta evaluation
ROW_BLOCK = 4096


def _cholesky_upper(Q: np.ndarray) -> np.ndarray:
    """Upper U with Q = U^t U, of Q as given: any perturbation would move
    the ellipsoid's boundary and lose vectors.  A form numpy cannot factor
    is refused, naming its first leading minor numpy cannot factor."""
    try:
        return np.linalg.cholesky(Q).T
    except np.linalg.LinAlgError:
        for k in range(1, Q.shape[0]):
            try:
                np.linalg.cholesky(Q[:k, :k])
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(k) from None
        raise NotPositiveDefinite(Q.shape[0]) from None


def _gram_schmidt(G: np.ndarray):
    """Unit-lower mu and squared lengths d with G = mu diag(d) mu^t, from
    numpy's Cholesky factor; None when numpy cannot factor G."""
    try:
        C = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    c = np.diag(C)
    return C / c, c * c


def _lll_gram(Q: np.ndarray) -> np.ndarray:
    """Unimodular integer U with Q[U] LLL-reduced (refactored from
    scratch each step; the dimensions here are tiny).

    Reduction only improves enumeration geometry; correctness of the
    callers never depends on its quality, so numerical trouble simply
    returns the progress made so far.
    """
    m = Q.shape[0]
    U = np.eye(m, dtype=np.int64)
    for _ in range(10000):
        gs = _gram_schmidt(U.T @ Q @ U)
        if gs is None:
            return U
        mu, d = gs
        # size-reduce in one sweep
        changed = False
        for k in range(1, m):
            for j in range(k - 1, -1, -1):
                q = round(mu[k, j])
                if q:
                    U[:, k] -= q * U[:, j]
                    mu[k, : j + 1] -= q * mu[j, : j + 1]
                    changed = True
        if changed:
            gs = _gram_schmidt(U.T @ Q @ U)
            if gs is None:
                return U
            mu, d = gs
        swapped = False
        for k in range(1, m):
            if d[k] < (_LLL_DELTA - mu[k, k - 1] ** 2) * d[k - 1]:
                U[:, [k - 1, k]] = U[:, [k, k - 1]]
                swapped = True
                break
        if not swapped:
            return U
    return U


def reduced_ellipsoid_points(Q: np.ndarray, T: float, cap: int,
                             spent: int = 0, iso=None, half: bool = False):
    """(U, Y): an LLL basis U of Q (unimodular int64, its columns the
    basis vectors) and, as int64 rows, the points y in that basis of the
    v = U y that `ellipsoid_points` returns with the same arguments.
    Callers that only need forms of v evaluate them on y with U^t A U."""
    U = _lll_gram(Q)
    Sred = None if iso is None else congruent_form(iso, U)
    return U, _fp_points(U.T @ Q @ U, T, cap, spent, Sred, half)


def ellipsoid_points(Q: np.ndarray, T: float, cap: int, spent: int = 0,
                     iso=None, half: bool = False) -> np.ndarray:
    """All nonzero integer v with Q[v] <= T (tiny boundary slack), as an
    int64 array; LLL-preconditioned layered Fincke-Pohst, budget-guarded
    per level against the cap - spent candidates left of the cap.

    With half=True only one v of each pair {v, -v} is returned (the one
    whose last nonzero coordinate in the LLL basis is positive), and each
    layer counts only the candidates of that half against the cap.

    With an integer form `iso` (m x m, python ints or an integer array),
    only the v with iso[v] = 0 exactly are returned, in the order the
    plain enumeration would list them.  The form is carried exactly into
    the reduced basis, and the last coordinate is solved, not enumerated:
    once the others are fixed, iso[v] = a y0^2 + 2 b y0 + c has integer
    coefficients, so at most two integer roots (or, when a = b = c = 0,
    the whole interval) go on to the ellipsoid test.  The solved roots
    count against the cap in place of the last layer."""
    U, Y = reduced_ellipsoid_points(Q, T, cap, spent, iso, half)
    return Y @ U.T


def _check_layer(i: int, total, cap: int, spent: int):
    """Refuse a layer of `total` candidates, an int or a float count, past
    the cap - spent left of the cap; a count that is not finite too.  A
    float count is exact below 2^53 and is shown rounded past it."""
    if not total <= cap - spent:
        shown = int(total) if total < 2 ** 53 else f"{float(total):.3e}"
        raise BudgetExceeded(
            f"enumeration layer {i} holds {shown} candidates, more than "
            f"the {cap - spent} left of the cap {cap}",
            int(total) if math.isfinite(total) else total, cap)


def _interval_points(lo, hi, mask=None):
    """(parent index, value) rows listing [lo[r], hi[r]] for each parent
    r, ascending within a parent; only the parents in mask when given."""
    counts = np.maximum(hi - lo + 1, 0)
    if mask is not None:
        counts = np.where(mask, counts, 0)
    idx = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return idx, lo[idx] + np.arange(idx.size) - starts[idx]


def _isotropic_last(S: np.ndarray, tails: np.ndarray, lo, hi, cap: int,
                    spent: int):
    """(parent index, y0) rows with lo <= y0 <= hi and S[(y0, tail)] = 0,
    exactly, for the tails (y1, ..., y_{m-1}) of the layer above."""
    m = S.shape[0]
    big = max(max_abs(S), 1) * max(max_abs(tails), 1)
    # bounds b^2, a c, b^2 - a c, (isqrt + 1)^2 and every partial sum
    dt = int_dtype(4 * m * m * big * big)
    Sd, Y = S.astype(dt), tails.astype(dt)
    a = Sd[0, 0]
    b = Y @ Sd[0, 1:]
    c = ((Y @ Sd[1:, 1:]) * Y).sum(axis=1)
    if a:
        disc = b * b - a * c
        real = disc >= 0
        disc = np.where(real, disc, 0)
        if dt is object:
            r = np.array([math.isqrt(d) for d in disc], dtype=object)
        else:
            r = np.sqrt(disc.astype(float)).astype(np.int64)
            r -= r * r > disc
            r += (r + 1) * (r + 1) <= disc
        num = np.stack([-b - r, -b + r], axis=1)
        if a < 0:
            num = num[:, ::-1]
        ok = (real & (r * r == disc))[:, None] & (num % a == 0)
        ok[:, 1] &= r != 0  # a double root once
        roots = num // a
        degenerate = None
    else:
        den = np.where(b != 0, 2 * b, 1)
        ok = ((b != 0) & (c % den == 0))[:, None]
        roots = (-c // den)[:, None]
        degenerate = (b == 0) & (c == 0)
    ok &= (roots >= lo.astype(dt)[:, None]) & (roots <= hi.astype(dt)[:, None])
    roots = np.where(ok, roots, 0).astype(np.int64)
    total = int(ok.sum())
    if degenerate is not None:
        # in float, like every other layer count: hi - lo may pass int64
        span = hi[degenerate].astype(float) - lo[degenerate] + 1
        total += np.maximum(span, 0).sum()
    _check_layer(0, total, cap, spent)
    # solved roots, then the whole interval of each degenerate row, put
    # back in parent order (a stable sort keeps each interval ascending)
    ridx = np.nonzero(ok)[0]
    idx, vals = ridx, roots[ok]
    if degenerate is not None and degenerate.any():
        didx, dvals = _interval_points(lo, hi, degenerate)
        idx = np.concatenate([ridx, didx])
        vals = np.concatenate([vals, dvals])
        order = np.argsort(idx, kind="stable")
        idx, vals = idx[order], vals[order]
    return idx, vals


def _rebuild(links) -> np.ndarray:
    """The rows of the last level in `links`, its own value first, then
    the value of each ancestor, found by following the parent links up;
    no links give the one empty row above the top level.  The rows are
    filled a block at a time, so the column writes stay in cache."""
    if not links:
        return np.zeros((1, 0), dtype=np.int64)
    idx, vi = links[-1]
    rows = np.empty((vi.size, len(links)), dtype=np.int64)
    for start in range(0, vi.size, ROW_BLOCK):
        out = rows[start:start + ROW_BLOCK]
        out[:, 0] = vi[start:start + ROW_BLOCK]
        at = idx[start:start + ROW_BLOCK]
        for j in range(1, len(links)):
            up, val = links[-1 - j]
            out[:, j] = val[at]
            at = up[at]
    return rows


def _zero_child(links):
    """Index in the last level of `links` of the row whose chain is all
    zero, or None.  Parents are nondecreasing and each parent's values
    ascend, so two binary searches per level follow the zero child."""
    at = 0
    for idx, vi in links:
        first = int(np.searchsorted(idx, at, side="left"))
        end = int(np.searchsorted(idx, at, side="right"))
        at = first + int(np.searchsorted(vi[first:end], 0))
        if at == end or vi[at] != 0:
            return None
    return at


def _fp_points(Q: np.ndarray, T: float, cap: int, spent: int = 0,
               iso: np.ndarray | None = None,
               half: bool = False) -> np.ndarray:
    """The nonzero y with Q[y] <= T, level m-1 first; rows are listed by
    parent, each parent's values ascending.  With half=True a level whose
    tail (the coordinates above it) is all zero starts at 0, not below:
    that keeps the y whose last nonzero coordinate is positive, one of
    each pair {y, -y}.

    A level i keeps only what the levels below it read: for each
    surviving row its (parent index, value) link to the level above, its
    partial sum sq of squares, and the accumulator columns acc[:, :i]
    still to be centred on.  The rows are rebuilt once, at the end, by
    following the links upward; with `iso` the tails the last layer
    solves on come from that same walk one level early.  The all-zero
    chain is dropped from the last level's links before the rebuild."""
    m = Q.shape[0]
    U = _cholesky_upper(Q)
    tol = 1e-9 * max(T, 1.0)
    acc = np.zeros((1, m))
    sq = np.zeros(1)
    links = []  # (parent index, value) of each level's survivors
    for i in range(m - 1, -1, -1):
        rem = T + tol - sq
        uii = U[i, i]
        cen = -acc[:, i] / uii
        rad = np.sqrt(np.maximum(rem, 0.0)) / uii
        lo = np.ceil(cen - rad - 1e-12)
        hi = np.floor(cen + rad + 1e-12)
        if half:
            # row 0 carries the all-zero tail: rows list their parents in
            # order, and the clipped interval of the row 0 above starts
            # at the child 0, which lies inside whatever ball is nonempty
            lo[0] = max(lo[0], 0.0)
        solve = i == 0 and iso is not None
        if not solve:
            # counted in float before the int64 cast, which would wrap:
            # the count is exact while it is below 2^53, far above any cap
            _check_layer(i, np.maximum(hi - lo + 1, 0).sum(), cap, spent)
        # int64 holds [-2^63, 2^63)
        if not ((lo >= -2.0 ** 63).all() and (hi < 2.0 ** 63).all()):
            raise BudgetExceeded(
                f"enumeration layer {i} reaches coordinates outside int64",
                None, cap)
        lo, hi = lo.astype(np.int64), hi.astype(np.int64)
        if solve:
            tails = _rebuild(links)
            idx, vi = _isotropic_last(iso, tails, lo, hi, cap, spent)
        else:
            idx, vi = _interval_points(lo, hi)
        if idx.size == 0:
            return np.zeros((0, m), dtype=np.int64)
        sq = sq[idx] + (acc[idx, i] + vi * uii) ** 2
        keep = sq <= T + tol
        idx, vi = idx[keep], vi[keep]
        if i:
            acc = acc[idx, :i] + vi[:, None] * U[:i, i]
            sq = sq[keep]
        links.append((idx, vi))
    zero = _zero_child(links)
    if zero is not None:
        idx, vi = np.delete(idx, zero), np.delete(vi, zero)
    if iso is not None:
        return np.column_stack((vi, tails[idx]))
    links[-1] = (idx, vi)
    return _rebuild(links)


# ------------------------------------------------ shells of the lattice

@lru_cache(maxsize=8)
def half_ball(L: GramLattice, bound: int):
    """(X, norms): the x with 0 < S[x] <= bound, one per {x, -x} with the
    first nonzero coordinate positive, as rows of an int64 array sorted by
    (S[x], coordinates), and their exact norms.  Both arrays are read-only
    and shared by every caller that asks for the same (L, bound)."""
    # the float factor comes from the exact rows: gram_np() refuses
    # entries of 2^63 and more
    pts = ellipsoid_points(np.array(L.S, dtype=float), float(bound),
                           DEFAULT_CAP, half=True)
    lead = pts[np.arange(pts.shape[0]), (pts != 0).argmax(axis=1)]
    X = np.where((lead < 0)[:, None], -pts, pts)
    norms = quad_rows(L.S, X)
    X, norms = X[norms <= bound], norms[norms <= bound]
    order = lex_order([norms, *X.T])
    X, norms = X[order], norms[order]
    X.flags.writeable = norms.flags.writeable = False
    return X, norms


def shell(ball, t: int) -> np.ndarray:
    """The rows of norm exactly t of a `half_ball` (X, norms)."""
    X, norms = ball
    return X[int(np.searchsorted(norms, t, side="left")):
             int(np.searchsorted(norms, t, side="right"))]


def norm_shell(L: GramLattice, t: int) -> np.ndarray:
    """The x with S[x] = t > 0, one per {x, -x}, as rows of a read-only
    int64 array in the order of `half_ball`."""
    return shell(half_ball(L, t), t)


def short_vectors(L: GramLattice, bound: int):
    """All x != 0 with S[x] <= bound, one representative per {x, -x}.

    One layered Fincke-Pohst enumeration of the ball (`ellipsoid_points`,
    float Cholesky bounds with a boundary slack) followed by an exact
    integer norm test, so the output is exhaustive and exact.  Returns
    (vectors, paired) with paired=True meaning each vector stands for the
    pair {x, -x}; each has its first nonzero coordinate positive, and they
    are sorted by (S[x], coordinates).  Raises BudgetExceeded when an
    enumeration layer holds more than DEFAULT_CAP candidates.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if bound == 0:
        return [], True
    return list(half_ball(L, bound)[0].copy()), True


def vectors_of_norm(L: GramLattice, t: int):
    """All x with S[x] exactly t, up to sign (t > 0), as int tuples in the
    order of `short_vectors`."""
    if t < 0:
        return []
    if t == 0:
        return [tuple([0] * L.n)]
    return [tuple(v) for v in norm_shell(L, t).tolist()]


def is_primitive(M) -> bool:
    """True iff all elementary divisors of the integer matrix are 1: the
    product of the first k of them is the gcd of the k x k minors, 0 below
    rank k, so with k = min(rows, columns) that gcd is 1."""
    rows = [[int(x) for x in row] for row in M]
    return minors_gcd(rows, min(len(rows), len(rows[0]))) == 1


def find_norm2_vector(L: GramLattice):
    """Some x with S[x] = 2; None if absent."""
    for i in range(L.n):
        if L.S[i][i] == 2:
            e = [0] * L.n
            e[i] = 1
            return np.array(e, dtype=np.int64)
    roots = norm_shell(L, 2)
    return roots[0].copy() if len(roots) else None


def canonical_columns(M):
    """Canonical representative of an integer matrix modulo right GL_k(Z).

    Column Hermite form; raises RankDeficient when columns are dependent.
    """
    rows = [[int(x) for x in row] for row in M]
    k = len(rows[0])
    if minors_gcd(rows, k) == 0:
        raise RankDeficient(f"matrix has rank below {k}")
    return column_hnf(rows)


def load_gram(path_or_name: str) -> GramLattice:
    """Catalog name or a file: first line n, then n rows of n integers."""
    key = path_or_name.strip()
    if key in CATALOG:
        return validate_gram(CATALOG[key])
    with open(path_or_name) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"empty Gram file: {path_or_name}")
    n = int(tokens[0])
    if n < 1:
        raise ValueError(f"Gram dimension must be at least 1, got {n}")
    vals = [int(t) for t in tokens[1:]]
    if len(vals) != n * n:
        raise ValueError(f"expected {n * n} entries, found {len(vals)}")
    return validate_gram([vals[i * n:(i + 1) * n] for i in range(n)])


def so_order_bruteforce(L: GramLattice, cap: int = 10 ** 7) -> int:
    """#{g in SL_n(Z) : g^t S g = S} by column-wise backtracking.

    Columns of g are constrained: column j must have S[col] = S_jj and the
    right pairwise products; candidates come from the norm shells of S.
    Practical for the small catalog lattices only.
    """
    n = L.n
    Smat = L.gram()
    ball = half_ball(L, max(Smat[j][j] for j in range(n)))
    shells = {}
    for j in range(n):
        t = Smat[j][j]
        if t not in shells:
            shells[t] = [w for v in map(tuple, shell(ball, t).tolist())
                         for w in (v, tuple(-c for c in v))]
    count = 0
    nodes = 0
    cols: list = []

    def sigma(u, v) -> int:
        return sum(ui * sum(srow[k] * v[k] for k in range(n))
                   for ui, srow in zip(u, Smat))

    def place(j: int):
        nonlocal count, nodes
        if j == n:
            g = [[cols[c][r] for c in range(n)] for r in range(n)]
            if bareiss_det(g) == 1:
                count += 1
            return
        for v in shells[Smat[j][j]]:
            nodes += 1
            if nodes > cap:
                raise RankDeficient("automorphism search exceeded node cap")
            if all(sigma(cols[i], v) == Smat[i][j] for i in range(j)):
                cols.append(v)
                place(j + 1)
                cols.pop()

    place(0)
    return count
