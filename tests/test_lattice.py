import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orthokleis.errors import (
    BudgetExceeded,
    NotEven,
    NotPositiveDefinite,
    NotSymmetric,
    RankDeficient,
)
from orthokleis.intmat import (
    bareiss_det,
    column_hnf,
    fraction_inverse,
    mat_mul,
    minors_gcd,
    row_hnf,
)
from orthokleis.lattice import (
    CATALOG,
    DEFAULT_CAP,
    _check_layer,
    _cholesky_upper,
    _fp_points,
    _interval_points,
    _isotropic_last,
    _lll_gram,
    bordered_forms,
    canonical_columns,
    ellipsoid_points,
    find_norm2_vector,
    half_ball,
    is_primitive,
    level,
    load_gram,
    norm_shell,
    reduced_ellipsoid_points,
    short_vectors,
    so_order_bruteforce,
    validate_gram,
    vectors_of_norm,
)

E8 = validate_gram(CATALOG["E8"])
A1 = validate_gram(CATALOG["A1"])
A2 = validate_gram(CATALOG["A2"])
D4 = validate_gram(CATALOG["D4"])


def test_e8_accepted_det_one():
    assert E8.n == 8
    assert E8.det == 1


def test_det_is_stored_and_lattices_stay_hashable():
    # det is a field set once by validate_gram, a function of S like the
    # level: equal Gram matrices give equal, equally hashed lattices
    for L in (A1, A2, D4, E8):
        again = validate_gram(np.array(L.S))
        assert again == L and hash(again) == hash(L)
        assert L.det == bareiss_det(L.gram())
    assert A2.det == 3 and D4.det == 4
    assert len({A2, validate_gram(CATALOG["A2"]), D4}) == 2


def test_rank_one_even_accepted():
    L = validate_gram([[2]])
    assert L.n == 1 and L.det == 2


def test_odd_diagonal_rejected():
    with pytest.raises(NotEven) as ei:
        validate_gram([[1]])
    assert ei.value.index == 0


def test_asymmetric_rejected():
    with pytest.raises(NotSymmetric):
        validate_gram([[2, 1], [0, 2]])


def test_indefinite_rejected():
    with pytest.raises(NotPositiveDefinite) as ei:
        validate_gram([[2, 4], [4, 2]])
    assert ei.value.minor_index == 2


def test_bordered_rank_one():
    L = validate_gram([[2]])
    B = bordered_forms(L)
    assert B.S0 == ((0, 0, 1), (0, -2, 0), (1, 0, 0))
    # Q0[(1,0,1)] = y1*y3 - S[y2]/2 = 1
    y = [1, 0, 1]
    q0 = sum(B.Q0[i][j] * y[i] * y[j] for i in range(3) for j in range(3))
    assert q0 == 1


def test_bordered_isotropic_corner_plane():
    for L in (A1, A2, E8):
        S1 = bordered_forms(L).S1
        m = len(S1)
        e1 = [1] + [0] * (m - 1)
        e2 = [0, 1] + [0] * (m - 2)

        def form(u, v):
            return sum(S1[i][j] * u[i] * v[j] for i in range(m) for j in range(m))

        assert form(e1, e1) == 0
        assert form(e2, e2) == 0
        assert form(e1, e2) == 0


def test_bordered_quadratic_closed_form():
    # S1[(a, c, x, d, b)] = 2ab + 2cd - S[x], spot checked on A2
    S1 = bordered_forms(A2).S1
    v = [3, -1, 2, 5, 7, 4]  # a=3, c=-1, x=(2,5), d=7, b=4
    val = sum(S1[i][j] * v[i] * v[j] for i in range(6) for j in range(6))
    a, c, d, b = 3, -1, 7, 4
    assert val == 2 * a * b + 2 * c * d - A2.quad([2, 5])


def test_levels():
    assert level(E8) == 1
    assert level(A1) == 4  # dual vector 1/2 has norm 1/2, so q = 4
    assert level(A2) == 3
    assert level(D4) == 2


def test_level_minimality():
    # q * S^{-1} even integral, and q/p * S^{-1} not, for every prime p | q
    for L in (A1, A2, D4, E8):
        inv = L.inverse()
        q = L.q

        def even_integral(mult):
            for i, row in enumerate(inv):
                for j, e in enumerate(row):
                    v = mult * e
                    if v.denominator != 1:
                        return False
                    if i == j and v.numerator % 2 != 0:
                        return False
            return True

        assert even_integral(q)
        for p in (2, 3, 5, 7):
            if q % p == 0:
                assert not even_integral(q // p)


def test_short_vectors_rank_one():
    vecs, paired = short_vectors(A1, 2)
    assert paired
    assert [tuple(v) for v in vecs] == [(1,)]


def test_short_vectors_e8_roots():
    vecs, _ = short_vectors(E8, 2)
    assert len(vecs) == 120  # 240 roots in +/- pairs
    assert all(E8.quad([int(c) for c in v]) == 2 for v in vecs)


def test_short_vectors_zero_bound():
    vecs, _ = short_vectors(E8, 0)
    assert vecs == []


@pytest.mark.parametrize("lat,bound", [(A2, 8), (D4, 6)])
def test_short_vectors_vs_box_bruteforce(lat, bound):
    vecs, _ = short_vectors(lat, bound)
    got = {tuple(int(c) for c in v) for v in vecs}
    # box enumeration: |x_i| <= bound works because S has diagonal >= 2
    # and is positive definite, so any coordinate larger than bound in
    # absolute value forces S[x] > bound (via the dual bound below)
    brute = set()
    rng = range(-bound, bound + 1)
    for x in itertools.product(rng, repeat=lat.n):
        if any(x) and lat.quad(list(x)) <= bound:
            canon = x
            for c in x:
                if c != 0:
                    if c < 0:
                        canon = tuple(-y for y in x)
                    break
            brute.add(canon)
    assert got == brute


def test_is_primitive_examples():
    tall = lambda cols: [list(r) for r in zip(*cols)]
    e1 = [1, 0, 0, 0, 0]
    e2 = [0, 1, 0, 0, 0]
    assert is_primitive(tall([e1, e2]))
    assert not is_primitive(tall([[2 * c for c in e1], [2 * c for c in e2]]))
    assert is_primitive(tall([[a + b for a, b in zip(e1, e2)], e2]))
    # wide and tall alike need every min(rows, columns) minor gcd to be 1
    assert is_primitive([[1, 0, 3, 4, 5], [0, 1, 6, 7, 8]])
    assert not is_primitive([[2, 0, 4, 6, 8], [0, 2, 6, 8, 10]])
    assert is_primitive([[2, 3], [5, 7], [4, 6]])
    assert not is_primitive([[2, 4], [6, 8], [4, 6]])  # minors gcd 4
    # rank 1 in two columns: every 2 x 2 minor vanishes
    assert not is_primitive(tall([e1, [3 * c for c in e1]]))
    assert not is_primitive([[1, 2, 3, 4, 5], [2, 4, 6, 8, 10]])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2), min_size=2, max_size=5))
def test_is_primitive_matches_minor_gcd_oracle(rows):
    k = 2
    full_rank = minors_gcd(rows, k) != 0
    if not full_rank:
        assert not is_primitive(rows)
    else:
        assert is_primitive(rows) == (minors_gcd(rows, k) == 1)


def test_find_norm2():
    v = find_norm2_vector(E8)
    assert v is not None and E8.quad([int(c) for c in v]) == 2
    assert find_norm2_vector(validate_gram([[4]])) is None
    v2 = find_norm2_vector(A2)
    assert A2.quad([int(c) for c in v2]) == 2


def test_vectors_of_norm_counts_e8():
    # r(2) = 240, r(4) = 2160 for the unimodular rank-8 lattice
    assert 2 * len(vectors_of_norm(E8, 2)) == 240
    assert 2 * len(vectors_of_norm(E8, 4)) == 2160


def test_canonical_columns_examples():
    def tall(cols):
        return [list(r) for r in zip(*cols)]

    e1 = [1, 0, 0, 0, 0]
    e2 = [0, 1, 0, 0, 0]
    base = canonical_columns(tall([e1, e2]))
    assert canonical_columns(tall([e2, e1])) == base
    assert canonical_columns(tall([[a + b for a, b in zip(e1, e2)], e2])) == base
    with pytest.raises(RankDeficient):
        canonical_columns(tall([e1, [2 * c for c in e1]]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-7, 7), min_size=2, max_size=2), min_size=2, max_size=6),
       st.sampled_from([((1, 0), (1, 1)), ((0, 1), (-1, 0)), ((1, 2), (0, 1)), ((-1, 0), (0, 1))]))
def test_canonical_columns_class_invariant(rows, U):
    if minors_gcd(rows, 2) == 0:
        return
    transformed = mat_mul(rows, [list(u) for u in U])
    assert canonical_columns(rows) == canonical_columns(transformed)
    # idempotence
    c = canonical_columns(rows)
    assert canonical_columns(c) == c


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=4))
def test_row_hnf_idempotent_and_integral(rows):
    h = row_hnf(rows)
    assert row_hnf(h) == h
    # same row span over Z: HNF of the stack equals HNF of either
    assert row_hnf(rows + h) == row_hnf(rows + rows)


def test_bareiss_det_vs_numpy():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.integers(-4, 5, size=(5, 5))
        exact = bareiss_det(M.tolist())
        approx = round(float(np.linalg.det(M)))
        assert exact == approx


def test_fraction_inverse_roundtrip():
    M = [list(r) for r in CATALOG["A4"]]
    inv = fraction_inverse(M)
    prod = mat_mul(M, inv)
    for i in range(4):
        for j in range(4):
            assert prod[i][j] == (1 if i == j else 0)


def test_gram_file_roundtrip(tmp_path):
    p = tmp_path / "gram.txt"
    p.write_text("2\n2 -1\n-1 2\n")
    L = load_gram(str(p))
    assert L.S == CATALOG["A2"]
    with pytest.raises(NotEven):
        q = tmp_path / "bad.txt"
        q.write_text("1\n1\n")
        load_gram(str(q))


def test_so_orders_small_lattices():
    # frozen from the brute-force oracle; A2/A4/D4 agree with the standard
    # rotation-subgroup orders of the root systems (6, 120, 1152/2)
    assert so_order_bruteforce(A1) == 1
    assert so_order_bruteforce(A2) == 6
    assert so_order_bruteforce(D4) == 576


def test_catalog_all_valid():
    for name in CATALOG:
        L = load_gram(name)
        assert L.det > 0


@st.composite
def even_gram(draw, ranks=(1, 4), entry=2):
    """A^t A + diag(c) with c >= 1 of the parity that makes the diagonal
    even: positive definite (indeed >= I), off-diagonal entries of either
    parity.  A's entries and the extra diagonal lie in [-entry, entry]
    and [0, entry]."""
    n = draw(st.integers(*ranks))
    A = draw(st.lists(st.lists(st.integers(-entry, entry), min_size=n,
                               max_size=n),
                      min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, entry), min_size=n, max_size=n))
    S = [[sum(A[k][i] * A[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        S[i][i] += 2 * extra[i] + (1 if S[i][i] % 2 else 2)
    return validate_gram(S)


@settings(max_examples=60, deadline=None)
@given(even_gram(), st.integers(0, 12))
def test_short_vectors_against_box_scan(lat, bound):
    # |x_i| <= sqrt(bound * (S^-1)_ii) on the ellipsoid S[x] <= bound
    inv = lat.inverse()
    box = [math.isqrt(math.floor(bound * inv[i][i])) for i in range(lat.n)]
    brute = set()
    for x in itertools.product(*(range(-b, b + 1) for b in box)):
        if any(x) and lat.quad(list(x)) <= bound:
            lead = next(c for c in x if c)
            brute.add(x if lead > 0 else tuple(-c for c in x))
    expect = sorted(brute, key=lambda x: (lat.quad(list(x)), x))
    vecs, paired = short_vectors(lat, bound)
    assert paired
    assert [tuple(int(c) for c in v) for v in vecs] == expect
    for t in range(1, bound + 1):
        assert vectors_of_norm(lat, t) == [
            x for x in expect if lat.quad(list(x)) == t]


def test_short_vectors_empty_ball():
    # a lattice seen for the first time, with no vector below the bound
    assert short_vectors(validate_gram([[6, 1], [1, 6]]), 5) == ([], True)


def test_vectors_of_norm_e8_theta_is_e4():
    # the theta series of E8 is the weight-4 Eisenstein series:
    # r(2k) = 240 sigma_3(k)
    for k in range(1, 8):
        sigma3 = sum(d ** 3 for d in range(1, k + 1) if k % d == 0)
        assert 2 * len(vectors_of_norm(E8, 2 * k)) == 240 * sigma3


def test_norms_stay_exact_beyond_int64():
    # int64 sums of 2^62 x_i^2 wrap at 2^63
    L = validate_gram([[2 ** 62, 0], [0, 2 ** 62]])
    assert vectors_of_norm(L, 2 ** 63) == [(1, -1), (1, 1)]
    # an entry int64 cannot hold at all
    vecs, _ = short_vectors(validate_gram([[2 ** 64]]), 2 ** 64)
    assert [tuple(int(c) for c in v) for v in vecs] == [(1,)]


def _box(n, r):
    """Every integer vector of [-r, r]^n, one per row."""
    return np.indices((2 * r + 1,) * n).reshape(n, -1).T - r


@settings(max_examples=25, deadline=None)
@given(even_gram(ranks=(5, 8), entry=1), st.integers(0, 6))
def test_half_ball_against_box_scan_high_rank(lat, bound):
    # S >= I, so each coordinate of the ball is at most isqrt(bound)
    S = lat.gram_np()
    X = _box(lat.n, math.isqrt(bound))
    norms = ((X @ S) * X).sum(axis=1)
    inside = (norms > 0) & (norms <= bound)
    X, norms = X[inside], norms[inside]
    lead = X[np.arange(X.shape[0]), (X != 0).argmax(axis=1)]
    X, norms = X[lead > 0], norms[lead > 0]
    order = np.lexsort((*X.T[::-1], norms))
    got, got_norms = half_ball(lat, bound)
    assert np.array_equal(got, X[order])
    assert np.array_equal(got_norms, norms[order])


@st.composite
def isotropic_problem(draw):
    """(Q, S, T): a positive integer form Q >= I, a symmetric integer form
    S of the same size, and a bound T.  A nondecreasing diagonal Q is
    already LLL-reduced, so S's first row is the solved coordinate's:
    S[0][0] = 0 gives the linear case, a zero first row the rows with
    a = b = c = 0."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        Q = np.diag(sorted(draw(st.lists(st.integers(1, 4), min_size=n,
                                         max_size=n))))
    else:
        A = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                            max_size=n),
                                   min_size=n, max_size=n)))
        Q = A.T @ A + np.eye(n, dtype=np.int64)
    entries = draw(st.lists(st.integers(-3, 3), min_size=n * n,
                            max_size=n * n))
    S = np.array(entries).reshape(n, n)
    S = S + S.T
    first = draw(st.sampled_from(["any", "a=0", "row=0"]))
    if first != "any":
        S[0, 0] = 0
    if first == "row=0":
        S[0, :] = S[:, 0] = 0
    return Q, S, draw(st.integers(0, 12))


@settings(max_examples=150, deadline=None)
@given(isotropic_problem())
def test_isotropic_points_against_box_scan(problem):
    Q, S, T = problem
    Y = _box(Q.shape[0], math.isqrt(T))
    keep = ((((Y @ Q) * Y).sum(axis=1) <= T) & (((Y @ S) * Y).sum(axis=1) == 0)
            & Y.any(axis=1))
    got = ellipsoid_points(Q.astype(float), float(T), 10 ** 6, iso=S.tolist())
    assert (sorted(map(tuple, got.tolist()))
            == sorted(map(tuple, Y[keep].tolist())))
    # the plain enumeration, filtered, in its own order
    plain = ellipsoid_points(Q.astype(float), float(T), 10 ** 6)
    assert np.array_equal(got, plain[((plain @ S) * plain).sum(axis=1) == 0])


def test_isotropic_roots_exact_beyond_int64():
    # S[y] = y0 (y0 + 2^33 y1): at y1 = +-1 the discriminant b^2 - a c is
    # 2^64, past int64, and the root -2^33 y1 sits on the ellipsoid's
    # boundary.  The last coordinate spans about 7e10 integers at y1 = 0,
    # so the answer within a cap of 10 shows it is solved, not enumerated.
    K = 2 ** 32
    Q = np.diag([1.0, 2.0 ** 70])
    got = ellipsoid_points(Q, 2.0 ** 66 + 2.0 ** 70, 10, iso=[[1, K], [K, 0]])
    assert sorted(map(tuple, got.tolist())) == [
        (-2 * K, 1), (0, -1), (0, 1), (2 * K, -1)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(even_gram(), even_gram(ranks=(5, 8), entry=1)),
       st.integers(0, 8))
def test_half_enumeration_one_of_each_pair(lat, bound):
    Q = lat.gram_np().astype(float)
    U, Y = reduced_ellipsoid_points(Q, float(bound), 10 ** 6, half=True)
    half = ellipsoid_points(Q, float(bound), 10 ** 6, half=True)
    assert np.array_equal(half, Y @ U.T)
    # the last nonzero coordinate in the LLL basis is the positive one
    assert all([c for c in y if c][-1] > 0 for y in Y.tolist())
    rows = set(map(tuple, half.tolist()))
    negs = {tuple(-c for c in r) for r in rows}
    assert len(rows) == half.shape[0] and not rows & negs
    plain = ellipsoid_points(Q, float(bound), 10 ** 6)
    assert rows | negs == set(map(tuple, plain.tolist()))
    assert 2 * half.shape[0] == plain.shape[0]


def test_half_enumeration_budget_message():
    # the half ball of x^2 + y^2 <= 4 starts its top layer at 0: three
    # candidates (the plain enumeration has five)
    msg = ("enumeration layer 1 holds 3 candidates, more than the 2 left "
           "of the cap 2")
    with pytest.raises(BudgetExceeded, match=f"^{msg}$") as ei:
        ellipsoid_points(np.eye(2), 4.0, 2, half=True)
    assert (ei.value.count, ei.value.cap) == (3, 2)


@settings(max_examples=40, deadline=None)
@given(st.one_of(even_gram(), even_gram(ranks=(5, 8), entry=1)),
       st.integers(2, 8))
def test_half_enumeration_cap_too_small(lat, bound):
    # the last layer holds every returned row and the zero vector, so a
    # cap of the row count is too small
    Q = lat.gram_np().astype(float)
    k = ellipsoid_points(Q, float(bound), 10 ** 6, half=True).shape[0]
    if k:
        msg = (r"^enumeration layer \d+ holds \d+ candidates, more than "
               rf"the {k} left of the cap {k}$")
        with pytest.raises(BudgetExceeded, match=msg):
            ellipsoid_points(Q, float(bound), k, half=True)


# ------------------------------------------ one enumeration per ball asked

def _count_ball_enumerations(monkeypatch):
    """Empty the ball cache and record the bound of each enumeration that
    refills it."""
    import orthokleis.lattice as lattice

    half_ball.cache_clear()
    original = lattice.ellipsoid_points
    bounds = []

    def counted(Q, T, *args, **kwargs):
        bounds.append(T)
        return original(Q, T, *args, **kwargs)

    monkeypatch.setattr(lattice, "ellipsoid_points", counted)
    return bounds


def test_base_classes_enumerate_one_ball(monkeypatch):
    from orthokleis import enumerate_isotropic_classes, majorant_at, space_for

    space = space_for(E8)
    bounds = _count_ball_enumerations(monkeypatch)
    R = majorant_at(space, space.base_point())
    assert len(enumerate_isotropic_classes(space, R, 16.0)) == 245288
    assert len(bounds) == 1


def test_so_order_enumerates_one_ball(monkeypatch):
    bounds = _count_ball_enumerations(monkeypatch)
    assert so_order_bruteforce(A2) == 6
    assert bounds == [2.0]


def test_half_ball_arrays_read_only():
    X, norms = half_ball(D4, 6)
    for arr in (X, norms, norm_shell(D4, 4)):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert half_ball(D4, 6)[0] is X


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_lll_gram_reduces(rows):
    A = np.array(rows, dtype=np.int64)
    assume(round(abs(np.linalg.det(A))) > 0)
    Q = (A.T @ A).astype(float)
    U = _lll_gram(Q)
    assert round(abs(np.linalg.det(U))) == 1
    C = np.linalg.cholesky(U.T @ Q @ U)
    mu, d = C / np.diag(C), np.diag(C) ** 2
    m = Q.shape[0]
    assert np.all(np.abs(np.tril(mu, -1)) <= 0.5 + 1e-9)
    for k in range(1, m):
        assert d[k] >= (0.75 - mu[k, k - 1] ** 2) * d[k - 1] * (1 - 1e-9)


# ------------------------------- the layered enumeration against its oracle

def _reference_fp_points(Q: np.ndarray, T: float, cap: int, spent: int = 0,
                         iso: np.ndarray | None = None,
                         half: bool = False) -> np.ndarray:
    """The whole-row enumeration `_fp_points` replaced, kept verbatim: each
    level updates every accumulator column and re-stacks every earlier
    coordinate."""
    m = Q.shape[0]
    U = _cholesky_upper(Q)
    tol = 1e-9 * max(T, 1.0)
    acc = np.zeros((1, m))
    sq = np.zeros(1)
    tails = np.zeros((1, 0), dtype=np.int64)
    for i in range(m - 1, -1, -1):
        rem = T + tol - sq
        uii = U[i, i]
        cen = -acc[:, i] / uii
        rad = np.sqrt(np.maximum(rem, 0.0)) / uii
        lo = np.ceil(cen - rad - 1e-12).astype(np.int64)
        hi = np.floor(cen + rad + 1e-12).astype(np.int64)
        if half:
            # row 0 carries the all-zero tail: rows list their parents in
            # order, and the clipped interval of the row 0 above starts
            # at the child 0, which lies inside whatever ball is nonempty
            lo[0] = max(lo[0], 0)
        if i == 0 and iso is not None:
            idx, vi = _isotropic_last(iso, tails, lo, hi, cap, spent)
        else:
            _check_layer(i, int(np.maximum(hi - lo + 1, 0).sum()), cap, spent)
            idx, vi = _interval_points(lo, hi)
        if idx.size == 0:
            return np.zeros((0, m), dtype=np.int64)
        if i:
            acc = acc[idx] + vi[:, None] * U[:, i][None, :]
            sq = sq[idx] + acc[:, i] ** 2
            keep = sq <= T + tol
            acc, sq = acc[keep], sq[keep]
        else:  # the last layer needs only its first coordinate
            keep = sq[idx] + (acc[idx, 0] + vi * U[0, 0]) ** 2 <= T + tol
        tails = np.hstack([vi[keep][:, None], tails[idx][keep]])
    nz = np.any(tails != 0, axis=1)
    return tails[nz]


def _widest_layer(Q, T, iso, half):
    """The largest candidate count of any layer of the reference: each
    refusal names the first layer wider than the cap, so raising the cap
    to that count moves on to the next wider layer."""
    cap = 0
    while True:
        try:
            _reference_fp_points(Q, T, cap, 0, iso, half)
            return cap
        except BudgetExceeded as e:
            cap = e.count


@st.composite
def layered_problem(draw):
    """(Q, T, iso, half): a random even form of rank 1-8 as floats, a
    bound, and either no isotropy form or a symmetric integer one, whose
    first row may vanish (the rows with a = b = c = 0) or start with 0
    (the linear case)."""
    lat = draw(st.one_of(even_gram(), even_gram(ranks=(5, 8), entry=1)))
    n = lat.n
    iso = None
    if draw(st.booleans()):
        entries = draw(st.lists(st.integers(-3, 3), min_size=n * n,
                                max_size=n * n))
        iso = np.array(entries).reshape(n, n)
        iso = iso + iso.T
        first = draw(st.sampled_from(["any", "a=0", "row=0"]))
        if first != "any":
            iso[0, 0] = 0
        if first == "row=0":
            iso[0, :] = iso[:, 0] = 0
    return (lat.gram_np().astype(float), float(draw(st.integers(0, 10))),
            iso, draw(st.booleans()))


@settings(max_examples=120, deadline=None)
@given(layered_problem())
def test_fp_points_match_reference_rows_and_refusals(problem):
    Q, T, iso, half = problem
    expect = _reference_fp_points(Q, T, 10 ** 6, 0, iso, half)
    got = _fp_points(Q, T, 10 ** 6, 0, iso, half)
    assert got.dtype == np.int64 and np.array_equal(got, expect)
    cap = _widest_layer(Q, T, iso, half) - 1
    with pytest.raises(BudgetExceeded) as ref:
        _reference_fp_points(Q, T, cap, 0, iso, half)
    with pytest.raises(BudgetExceeded) as new:
        _fp_points(Q, T, cap, 0, iso, half)
    assert str(new.value) == str(ref.value)
    assert (new.value.count, new.value.cap) == (ref.value.count, cap)


def test_fp_points_refuse_layers_past_int64():
    # a layer of 1.6e20 candidates used to wrap in the int64 cast and come
    # out empty, so the ball looked to hold one point
    A2f = A2.gram_np().astype(float)
    for T in (1e36, 1e40, 1e300, math.inf):
        with pytest.raises(BudgetExceeded, match="enumeration layer 1 holds"):
            ellipsoid_points(A2f, T, DEFAULT_CAP)
    # an interval end past int64 is refused even when it holds few points
    with pytest.raises(BudgetExceeded, match="outside int64"):
        _fp_points(np.array([[1.0]]), 1e40, DEFAULT_CAP,
                   iso=np.array([[0]]))


@pytest.fixture(scope="module")
def e8_theta_form():
    """The 24-dimensional form kron(Im Z, R) of an E8 theta sum at the
    base point, at the generic Siegel point of the CLI."""
    from orthokleis import majorant_at, space_for
    from orthokleis.cli import GENERIC_Z

    space = space_for(E8)
    return np.kron(GENERIC_Z.imag, majorant_at(space, space.base_point()))


def test_fp_points_match_reference_on_e8_theta_form(e8_theta_form):
    U = _lll_gram(e8_theta_form)
    Qred = U.T @ e8_theta_form @ U
    got = _fp_points(Qred, 5.0, DEFAULT_CAP, half=True)
    assert got.shape == (386672, 24)
    assert np.array_equal(got, _reference_fp_points(Qred, 5.0, DEFAULT_CAP,
                                                    half=True))


def test_e8_theta_enumeration_memory(e8_theta_form):
    # the whole-row enumeration peaked at 287 MiB on this query; the
    # parent links keep one (parent, value) pair per surviving row
    tracemalloc.start()
    try:
        reduced_ellipsoid_points(e8_theta_form, 5.0, DEFAULT_CAP, half=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 240 * 2 ** 20
