"""The batched rank-2 canonicaliser against the single-matrix oracles."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokleis.intmat import (
    FLOAT64_EXACT,
    INT64_MAX,
    column_hnf,
    minors_gcd,
    quad_rows,
    rank2_column_hnf,
    row_hnf_transform,
)


@st.composite
def rank2_stacks(draw):
    """(k, m, 2) stacks mixing free, parallel, zero-column and imprimitive
    candidates, with some coordinates zeroed in both columns."""
    m = draw(st.integers(2, 12))
    k = draw(st.integers(1, 8))
    vec = st.lists(st.integers(-9, 9), min_size=m, max_size=m)
    out = []
    for _ in range(k):
        v = draw(vec)
        kind = draw(st.sampled_from(["free", "parallel", "zero", "scaled"]))
        if kind == "parallel":
            c = draw(st.integers(-3, 3))
            w = [c * x for x in v]
        elif kind == "zero":
            w = [0] * m
        else:
            w = draw(vec)
        if kind == "scaled":
            c = draw(st.integers(2, 4))
            v, w = [c * x for x in v], [c * x for x in w]
        for r in draw(st.sets(st.integers(0, m - 1), max_size=m)):
            v[r] = w[r] = 0
        if draw(st.booleans()):
            v, w = w, v
        out.append([[a, b] for a, b in zip(v, w)])
    return np.array(out, dtype=np.int64)


def _check_against_oracle(stack):
    g, H = rank2_column_hnf(stack[:, :, 0], stack[:, :, 1])
    for i, rows in enumerate(stack.tolist()):
        assert g[i] == minors_gcd(rows, 2)
        if g[i]:
            assert H[i].tolist() == column_hnf(rows)
    return g, H


@settings(max_examples=200, deadline=None)
@given(rank2_stacks())
def test_kernel_matches_minors_gcd_and_column_hnf(stack):
    _check_against_oracle(stack)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=8, max_size=8),
                min_size=1, max_size=8))
def test_kernel_transposed_matches_row_hnf_transform(pairs):
    """A stacked 2 x 4 matrix [C | D] is the transposed case: its rows are
    the two columns handed to the kernel."""
    X = np.array(pairs, dtype=np.int64)
    g, H = rank2_column_hnf(X[:, :4], X[:, 4:])
    for i, row in enumerate(pairs):
        stacked = [row[:4], row[4:]]
        assert g[i] == minors_gcd(stacked, 2)
        if g[i]:
            assert H[i].T.tolist() == row_hnf_transform(stacked)[0]


def test_kernel_headroom_boundary():
    """The largest entry for which int64 is provably exact stays on the
    int64 path and matches the oracle; one more takes the exact path."""
    M = 1
    while 4 * (M + 1) ** 4 + 2 * (M + 1) ** 2 <= INT64_MAX:
        M += 1
    rng = np.random.default_rng(5)
    stack = rng.integers(-M, M + 1, size=(40, 6, 2))
    stack[0, 0] = (M, -M)
    stack[1] = [[M, M - 1], [M - 1, M - 2]] * 3
    g, H = _check_against_oracle(stack)
    assert H.dtype == np.int64
    stack[0, 0, 0] = M + 1
    g, H = _check_against_oracle(stack)
    assert H.dtype == object


def test_kernel_large_entries_take_exact_path():
    """Entries near 2^40 overflow int64 minors products; the result comes
    from python ints and matches the oracle exactly."""
    big = 2**40 + 3
    stack = np.array([[[big, 1], [5, big - 7], [2, 3]],
                      [[big, 2 * big], [3, 6], [0, 0]],
                      [[2 * big, 4], [6, 2 * big - 2], [0, 8]]], dtype=np.int64)
    g, H = _check_against_oracle(stack)
    assert H.dtype == object
    assert g[1] == 0


def test_kernel_empty_batch():
    g, H = rank2_column_hnf(np.zeros((0, 4), dtype=np.int64),
                            np.zeros((0, 4), dtype=np.int64))
    assert g.shape == (0,) and H.shape == (0, 4, 2)


def _quad_oracle(A, Y):
    return [sum(y[i] * A[i][j] * y[j] for i in range(len(y))
                for j in range(len(y))) for y in Y]


def test_quad_rows_headroom_boundaries():
    """Rows placed just inside and just past the float64 (2^53) and int64
    (2^63) bounds on k^2 max|A| max|y|^2: every route is exact, and the
    result is int64 up to 2^63 and python ints past it."""
    rng = np.random.default_rng(11)
    for limit, dtype_past in ((FLOAT64_EXACT, np.int64),
                              (INT64_MAX + 1, object)):
        for k in (1, 3, 6):
            a = 7
            A = rng.integers(-a, a + 1, size=(k, k))
            A = A + A.T
            A[0, 0] = 2 * a  # max|A| = 2a
            c = k * k * 2 * a
            inside = math.isqrt((limit - 1) // c)
            assert c * inside ** 2 < limit <= c * (inside + 1) ** 2
            for ymax, dtype in ((inside, np.int64), (inside + 1, dtype_past)):
                Y = rng.integers(-ymax, ymax + 1, size=(50, k)).tolist()
                Y += [[ymax] * k, [-ymax] + [ymax] * (k - 1),
                      [ymax] + [0] * (k - 1)]
                Y = np.array(Y, dtype=np.int64)
                got = quad_rows(A, Y)
                assert got.dtype == dtype
                assert got.tolist() == _quad_oracle(A.tolist(), Y.tolist())


def test_quad_rows_values_past_float64_and_int64():
    # (2^27 + 1)^2 = 2^54 + 2^28 + 1 rounds in float64
    y = 2 ** 27 + 1
    got = quad_rows([[1, 0], [0, 1]], np.array([[y, 0], [y, 1]]))
    assert got.dtype == np.int64 and got.tolist() == [y * y, y * y + 1]
    # 3037000500^2 is past INT64_MAX; an entry of 2^64 is no int64 at all
    got = quad_rows([[1]], np.array([[3037000499], [3037000500]]))
    assert got.dtype == object
    assert got.tolist() == [3037000499 ** 2, 3037000500 ** 2]
    assert quad_rows([[2 ** 64]], np.array([[1], [-2]])).tolist() == [
        2 ** 64, 2 ** 66]


def test_quad_rows_empty():
    got = quad_rows([[2, 1], [1, 2]], np.zeros((0, 2), dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (0,)
