"""Exact integer and rational matrix utilities.

The single-matrix functions work on plain nested tuples/lists of python
ints (or Fractions where stated), so results are exact regardless of size.

`rank2_column_hnf` is the batched exception: it canonicalises a whole
stack of integer m x 2 matrices with int64 numpy arithmetic (all 2 x 2
minors folded into one gcd, then a two-row Hermite form by extended
Euclid).  int64 is used only under a headroom rule: every intermediate
value is bounded in advance from the largest |entry| of the input (see
`int_dtype`), and a batch that could overflow runs the same code on
python ints (numpy object arrays) instead.  Nothing wraps silently.
`quad_rows`, an integer quadratic form on a stack of integer rows,
follows the same rule with float64 as a cheaper first tier, and so do
`congruent_form` and the exact group arithmetic of `orthogroup`
(products, inverses and the form relation of `OrthElement`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

INT64_MAX = 2**63 - 1
FLOAT64_EXACT = 2**53  # every integer of smaller absolute value is a float64
# candidate pairs per rank2_column_hnf call in the enumerators: keeps the
# kernel's int64 working set at a few MB however many pairs there are
PAIR_SLICE = 8192


def mat_copy(M):
    return [list(row) for row in M]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """Exact product of two matrices of ints or Fractions."""
    rows, inner, cols = len(A), len(B), len(B[0])
    assert len(A[0]) == inner
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a == 0:
                continue
            Bk = B[k]
            row = out[i]
            for j in range(cols):
                row[j] += a * Bk[j]
    return out


def mat_transpose(M):
    return [list(col) for col in zip(*M)]


def bareiss_det(M) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    A = mat_copy(M)
    n = len(A)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def fraction_inverse(M):
    """Inverse of a square integer (or Fraction) matrix as Fractions."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def row_hnf(M):
    """Row-style Hermite normal form of an integer matrix.

    Unique representative of the left-GL_m(Z) orbit: row echelon with
    positive pivots and the entries above each pivot reduced into
    [0, pivot).  Zero rows sink to the bottom.
    """
    A = mat_copy(M)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        # kill everything below the pivot with extended-gcd row ops
        for i in range(r + 1, rows):
            while A[i][c] != 0:
                q = A[r][c] // A[i][c]
                A[r] = [x - q * y for x, y in zip(A[r], A[i])]
                A[r], A[i] = A[i], A[r]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
        if r == rows:
            break
    return A


def column_hnf(M):
    """Column-style Hermite form: canonical representative mod right GL_k(Z)."""
    return mat_transpose(row_hnf(mat_transpose(M)))


def row_hnf_transform(M):
    """(H, V) with V @ M = H, V unimodular, H the row Hermite form.

    Same conventions as row_hnf; implemented independently with an
    explicit transform so the two can cross-check each other in tests.
    """
    A = mat_copy(M)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    V = identity(rows)
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        V[r], V[piv] = V[piv], V[r]
        for i in range(r + 1, rows):
            while A[i][c] != 0:
                q = A[r][c] // A[i][c]
                A[r] = [x - q * y for x, y in zip(A[r], A[i])]
                V[r] = [x - q * y for x, y in zip(V[r], V[i])]
                A[r], A[i] = A[i], A[r]
                V[r], V[i] = V[i], V[r]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
            V[r] = [-x for x in V[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                V[i] = [x - q * y for x, y in zip(V[i], V[r])]
        r += 1
        if r == rows:
            break
    return A, V


def column_hnf_transform(M):
    """(H, U) with M @ U = H, U unimodular, H the column Hermite form."""
    Ht, Vt = row_hnf_transform(mat_transpose(M))
    return mat_transpose(Ht), mat_transpose(Vt)


def integer_kernel(M):
    """Basis of {x integer vector : M x = 0}, as a list of columns.

    Zero columns of the column Hermite form correspond to kernel columns
    of the transform.
    """
    H, U = column_hnf_transform(M)
    rows = len(H)
    cols = len(H[0]) if rows else 0
    out = []
    for j in range(cols):
        if all(H[i][j] == 0 for i in range(rows)):
            out.append([U[i][j] for i in range(len(U))])
    return out


def minors_gcd(M, k: int) -> int:
    """gcd of all k x k minors of an integer matrix (0 when all vanish)."""
    from itertools import combinations

    rows = len(M)
    cols = len(M[0]) if rows else 0
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[M[i][j] for j in ci] for i in ri]
            g = gcd(g, bareiss_det(sub))
            if g == 1:
                return 1
    return g


# ------------------------------------------------- batched rank-2 kernel

def max_abs(A) -> int:
    """Largest |entry| of an integer array (int64 or python ints); 0 when
    the array is empty."""
    A = np.asarray(A)
    if A.size == 0:
        return 0
    return max(int(A.max()), -int(A.min()))


def int64_fits(bound: int) -> bool:
    """True when a value bounded by `bound` in absolute value is an int64."""
    return bound <= INT64_MAX


def int_dtype(bound: int):
    """The dtype of exact integer arithmetic whose every partial sum is at
    most `bound` in absolute value: int64 when that fits, python ints
    (dtype object) otherwise."""
    return np.int64 if int64_fits(bound) else object


def lex_order(keys) -> np.ndarray:
    """The stable permutation sorting by keys[0], then keys[1], and so on,
    for equal-length 1-D integer arrays: np.lexsort(keys[::-1]).

    When every key is int64 and spans at most INT64_MAX, the keys are
    packed into as few int64 words as their spans allow.  Each key is an
    offset-binary field x - min(x) of bit_length(max - min) bits, and a
    word holds at most 63 bits of fields, so a word orders as its fields
    read left to right; one stable sort of the words then gives the same
    permutation.  Otherwise (python ints, or a wider span) the plain
    lexsort runs on the keys as given."""
    keys = [np.asarray(k) for k in keys]
    if keys[0].size == 0:
        return np.arange(0)
    if any(k.dtype != np.int64 for k in keys):
        return np.lexsort(keys[::-1])
    lows = [int(k.min()) for k in keys]
    spans = [int(k.max()) - lo for k, lo in zip(keys, lows)]
    if not int64_fits(max(spans)):
        return np.lexsort(keys[::-1])
    words, used = [], 63
    for k, lo, span in zip(keys, lows, spans):
        bits = span.bit_length()
        if bits == 0:
            continue  # a constant key orders nothing
        field = k - np.int64(lo)  # exact: the true difference fits int64
        if used + bits > 63:
            words.append(field)
            used = bits
        else:
            words[-1] <<= bits
            words[-1] |= field
            used += bits
    if not words:
        return np.arange(keys[0].size)
    if len(words) == 1:
        return np.argsort(words[0], kind="stable")
    return np.lexsort(words[::-1])


def quad_rows(A, Y) -> np.ndarray:
    """A[y] = y^t A y for an integer form A (k x k) and each row y of the
    integer array Y, exactly.  Every partial sum is bounded in absolute
    value by k^2 max|A| max|y|^2: below 2^53 float64 matmuls are exact
    (each partial sum is an integer float64 holds), below 2^63 int64 ones
    are, and past that the sums run on python ints.  Returns an int64
    array, or dtype object on the python-int route."""
    A, Y = np.asarray(A, dtype=object), np.asarray(Y)
    bound = A.shape[0] ** 2 * max_abs(A) * max_abs(Y) ** 2
    if bound < FLOAT64_EXACT:
        Yf = Y.astype(float)
        return ((Yf @ A.astype(float)) * Yf).sum(axis=1).astype(np.int64)
    dt = int_dtype(bound)
    Yd = Y.astype(dt)
    return ((Yd @ A.astype(dt)) * Yd).sum(axis=1)


def congruent_form(S, U) -> np.ndarray:
    """U^t S U for an integer form S (m x m) and integer U (m x k), exactly:
    an int64 array when no partial sum can overflow it, python ints
    (dtype object) otherwise."""
    S, U = np.asarray(S, dtype=object), np.asarray(U, dtype=object)
    m = S.shape[0]
    bound = m * m * max_abs(S) * max_abs(U) ** 2
    dt = int_dtype(bound)
    U = U.astype(dt)
    return U.T @ S.astype(dt) @ U


def _xgcd(x, y):
    """(g, s, t) with s x + t y = g = gcd(x, y) > 0, elementwise over
    integer arrays with (x, y) never both zero.  Euclid runs masked over
    the batch; |s|, |t| <= max(|x|, |y|) throughout."""
    r0, r1 = x.copy(), y.copy()
    s0, s1 = np.ones_like(x), np.zeros_like(x)
    t0, t1 = np.zeros_like(x), np.ones_like(x)
    act = np.flatnonzero(r1)
    while act.size:
        a0, a1 = r0[act], r1[act]
        q = a0 // a1
        r0[act], r1[act] = a1, a0 - q * a1
        b0, b1 = s0[act], s1[act]
        s0[act], s1[act] = b1, b0 - q * b1
        c0, c1 = t0[act], t1[act]
        t0[act], t1[act] = c1, c0 - q * c1
        act = act[r1[act] != 0]
    sign = np.where(r0 < 0, -1, 1)
    return r0 * sign, s0 * sign, t0 * sign


def rank2_column_hnf(V, W):
    """Batched minors gcd and column Hermite form of k integer m x 2
    matrices whose columns are the rows of V and W (both (k, m)).

    Returns (g, H): g[i] is the gcd of all 2 x 2 minors of candidate i
    (0 when its rank is below 2, 1 when it is primitive), and H[i] is its
    column Hermite form, equal to column_hnf, for every rank-2 candidate
    (zeros otherwise).  Read as rows, H[i].T is the row Hermite form of
    the 2 x m matrix [V[i]; W[i]].

    Minors and the Bezout combinations are bounded by 2 M^2 and the final
    reduction product by 4 M^4, M the largest |entry|: the batch runs on
    int64 when that fits, and on python ints otherwise, where g and H
    come back as object arrays.
    """
    V = np.asarray(V)
    W = np.asarray(W)
    k, m = V.shape
    M = max(max_abs(V), max_abs(W))
    dt = int_dtype(4 * M**4 + 2 * M**2)
    V = V.astype(dt)
    W = W.astype(dt)
    # gcd of the minors, accumulated one column against all later ones
    g = np.zeros(k, dtype=dt)
    for i in range(m - 1):
        minors = V[:, i, None] * W[:, i + 1:] - W[:, i, None] * V[:, i + 1:]
        g = np.gcd(g, np.gcd.reduce(minors, axis=1))
    H = np.zeros((k, m, 2), dtype=dt)
    full = np.flatnonzero(g)
    if full.size == 0:
        return g, H
    a, b = V[full], W[full]
    r = np.arange(full.size)
    # first pivot: gcd of the first nonzero column, by extended Euclid
    c1 = ((a != 0) | (b != 0)).argmax(axis=1)
    x, y = a[r, c1], b[r, c1]
    g1, s, t = _xgcd(x, y)
    row0 = s[:, None] * a + t[:, None] * b
    row1 = (x // g1)[:, None] * b - (y // g1)[:, None] * a
    # second pivot made positive, then row0 reduced into [0, pivot) there
    c2 = (row1 != 0).argmax(axis=1)
    row1 *= np.where(row1[r, c2] < 0, -1, 1)[:, None]
    row0 -= (row0[r, c2] // row1[r, c2])[:, None] * row1
    H[full, :, 0] = row0
    H[full, :, 1] = row1
    return g, H
