"""Tests for isotropic class enumeration and the truncated series.

Class counts were frozen from two independent enumeration algorithms
(the projection-fiber walk at the base point and LLL-preconditioned
Fincke-Pohst), which agree exactly on every case below.
"""

import importlib.util
import math
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthokleis.eisenstein import (
    PAIR_SLICE,
    REL_EPS,
    _canonical,
    _class_list,
    _general_classes,
    _quotient_basis,
    class_value,
    canonical_class,
    eisenstein_report,
    eisenstein_truncated,
    ellipsoid_points,
    enumerate_isotropic_classes,
    hnf_class_reps,
    hnf_det_class_count,
    imprimitive_factorization_check,
    sigma1,
    transport_classes,
)
from orthokleis.errors import (
    BudgetExceeded,
    ConvergenceGuard,
    NotPositiveDefinite,
    RankDeficient,
)
from orthokleis.intmat import (
    congruent_form,
    integer_kernel,
    minors_gcd,
    rank2_column_hnf,
)
from orthokleis.lattice import is_primitive, load_gram, short_vectors
from orthokleis.majorant import base_majorant, majorant_at
from orthokleis.orthogroup import (
    act,
    builders,
    identity_element,
    random_word,
    space_for,
)


@pytest.fixture(scope="module")
def sp_a1():
    return space_for(load_gram("A1"))


@pytest.fixture(scope="module")
def sp_a2():
    return space_for(load_gram("A2"))


@pytest.fixture(scope="module")
def sp_e8():
    return space_for(load_gram("E8"))


# frozen from the two-algorithm cross-check
BASE_COUNTS = {
    ("A1", 1): (4, {1: 4}),
    ("A1", 5): (16, {1: 4, 4: 12}),
    ("A1", 100): (264, None),
    ("A2", 1): (4, {1: 4}),
    ("A2", 5): (32, {1: 4, 4: 28}),
    ("A2", 20): (200, {1: 4, 4: 28, 9: 48, 16: 120}),
    ("A2", 100): (2472, None),
    ("E8", 1): (4, {1: 4}),
    ("E8", 5): (968, {1: 4, 4: 964}),
}


def test_base_class_counts(sp_a1, sp_a2, sp_e8):
    spaces = {"A1": sp_a1, "A2": sp_a2, "E8": sp_e8}
    for (name, B), (count, dets) in BASE_COUNTS.items():
        sp = spaces[name]
        cls = enumerate_isotropic_classes(sp, base_majorant(sp), B)
        assert len(cls) == count, (name, B)
        if dets is not None:
            got = Counter(int(round(c.detR)) for c in cls)
            assert dict(got) == dets, (name, B)


def test_four_unit_classes_at_bound_one(sp_e8):
    # the determinant-1 classes are exactly the four corner-unit planes,
    # for any lattice: both isotropic fibers over the unit square are
    # corner units
    cls = enumerate_isotropic_classes(sp_e8, base_majorant(sp_e8), 1)
    m = sp_e8.dim + 2
    mats = {c.ell for c in cls}
    e = lambda i: tuple(int(j == i) for j in range(m))
    expected = set()
    for first in (0, m - 1):
        for second in (1, m - 2):
            cols = (e(first), e(second))
            canon = canonical_class([list(r) for r in zip(*cols)])
            expected.add(tuple(tuple(r) for r in canon))
    assert mats == expected


def test_below_one_is_empty(sp_a2):
    assert enumerate_isotropic_classes(sp_a2, base_majorant(sp_a2), 0.5) == []


def test_enumeration_agrees_across_algorithms(sp_a1, sp_a2):
    for sp in (sp_a1, sp_a2):
        for B in (5, 20):
            R = base_majorant(sp)
            via_fibers = enumerate_isotropic_classes(sp, R, B)
            via_fp = enumerate_isotropic_classes(sp, R, B, _force_general=True)
            assert {c.ell for c in via_fibers} == {c.ell for c in via_fp}
            d1 = sorted(c.detR for c in via_fibers)
            d2 = sorted(c.detR for c in via_fp)
            assert np.allclose(d1, d2, rtol=1e-9)


def test_class_invariants(sp_a2):
    S1 = np.array(sp_a2.S1_int, dtype=np.int64)
    cls = enumerate_isotropic_classes(sp_a2, base_majorant(sp_a2), 20)
    for c in cls:
        ell = c.matrix()
        assert np.array_equal(ell.T @ S1 @ ell, np.zeros((2, 2), dtype=np.int64))
        assert is_primitive([list(r) for r in c.ell])
        canon = canonical_class([list(r) for r in c.ell])
        assert tuple(tuple(r) for r in canon) == c.ell


def test_enumeration_deterministic(sp_a2):
    R = base_majorant(sp_a2)
    a = enumerate_isotropic_classes(sp_a2, R, 20)
    b = enumerate_isotropic_classes(sp_a2, R, 20)
    assert [c.ell for c in a] == [c.ell for c in b]


def test_canonical_class_examples():
    e1 = [[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]]
    assert canonical_class(e1) == e1
    swapped = [[0, 1], [1, 0], [0, 0], [0, 0], [0, 0]]
    assert canonical_class(swapped) == e1
    sheared = [[1, 0], [1, 1], [0, 0], [0, 0], [0, 0]]
    assert canonical_class(sheared) == e1
    with pytest.raises(RankDeficient):
        canonical_class([[1, 2], [2, 4], [0, 0]])


def test_truncation_invariance_a2(sp_a2):
    # full independent enumeration on both sides of the group action
    rng = np.random.default_rng(41)
    base = sp_a2.base_point()
    s = 4.5
    for B in (5, 20):
        ref_classes = enumerate_isotropic_classes(sp_a2, majorant_at(sp_a2, base), B)
        ref = class_value(ref_classes, s)
        for _ in range(4):
            g = random_word(sp_a2, rng, length=3, coeff=1)
            W = act(g, base)
            cls = enumerate_isotropic_classes(sp_a2, majorant_at(sp_a2, W), B)
            assert len(cls) == len(ref_classes)
            val = class_value(cls, s)
            assert abs(val - ref) <= 1e-10 * abs(ref)


def test_truncation_invariance_e8(sp_e8):
    rng = np.random.default_rng(42)
    base = sp_e8.base_point()
    s = 11.0
    ref_classes = enumerate_isotropic_classes(sp_e8, majorant_at(sp_e8, base), 5)
    ref = class_value(ref_classes, s)
    g = random_word(sp_e8, rng, length=2, coeff=1)
    W = act(g, base)
    cls = enumerate_isotropic_classes(sp_e8, majorant_at(sp_e8, W), 5)
    assert len(cls) == len(ref_classes) == 968
    assert abs(class_value(cls, s) - ref) <= 1e-10 * abs(ref)


def test_transport_matches_honest_enumeration(sp_a2):
    # mapping the base class list through g must reproduce the
    # independently enumerated list at the moved point
    rng = np.random.default_rng(43)
    base = sp_a2.base_point()
    g = random_word(sp_a2, rng, length=3, coeff=1)
    W = act(g, base)
    R_W = majorant_at(sp_a2, W)
    honest = enumerate_isotropic_classes(sp_a2, R_W, 20)
    moved = transport_classes(sp_a2, enumerate_isotropic_classes(
        sp_a2, majorant_at(sp_a2, base), 20), g, R_W)
    assert [c.ell for c in honest] == [c.ell for c in moved]
    assert np.allclose([c.detR for c in honest], [c.detR for c in moved],
                       rtol=1e-9)


def test_budget_exceeded_is_fast_for_large_e8(sp_e8):
    import time
    t0 = time.time()
    with pytest.raises(BudgetExceeded):
        enumerate_isotropic_classes(sp_e8, base_majorant(sp_e8), 100)
    assert time.time() - t0 < 10.0


def test_base_path_refuses_inside_its_feasibility_scan(sp_e8, monkeypatch):
    # the scan stops at the first image index whose running estimate
    # passes 3 cap, instead of finishing all D <= sqrt(B) first; the plan
    # count stops a scan that would not, long before it runs out of time
    # or memory (the 41 index sublattices of D <= 7 take 82 plans)
    import time
    import orthokleis.eisenstein as eis

    real, plans = eis._fiber_plan, []

    def counted(space, pq):
        plans.append(pq)
        assert len(plans) <= 82, "the scan went on past D = 7"
        return real(space, pq)

    monkeypatch.setattr(eis, "_fiber_plan", counted)
    R = base_majorant(sp_e8)
    for B in (1e6, 1e300):
        plans.clear()
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="up to 7 exceeds"):
            enumerate_isotropic_classes(sp_e8, R, B)
        assert time.perf_counter() - t0 < 1.0


def test_feasibility_scan_runs_no_determinant(sp_a2, monkeypatch):
    # det S is the last leading minor validate_gram already computed; the
    # A2 B = 1e4 scan makes 40806 volume estimates and runs no Bareiss
    # elimination, and refuses as it did when it ran one per estimate
    import orthokleis.eisenstein as eis
    import orthokleis.intmat as intmat
    import orthokleis.lattice as lattice

    calls = []
    for module in (intmat, lattice, eis):
        real = module.bareiss_det
        monkeypatch.setattr(module, "bareiss_det",
                            lambda M, real=real: calls.append(M) or real(M))
    with pytest.raises(BudgetExceeded) as refusal:
        enumerate_isotropic_classes(sp_a2, base_majorant(sp_a2), 1e4)
    assert str(refusal.value) == (
        "estimated candidate pair count 2.44e+07 over image indices up to "
        "27 exceeds the enumeration cap")
    assert (refusal.value.count, refusal.value.cap) == (24449181, 8_000_000)
    assert calls == []


def test_non_finite_bound_refused(sp_a2):
    R = base_majorant(sp_a2)
    for B in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="B must be positive and finite"):
            enumerate_isotropic_classes(sp_a2, R, B)


def test_budget_refusal_does_not_depend_on_earlier_calls(sp_a2):
    # a successful enumeration under a large cap must not let a later call
    # with a small cap skip its own budget check
    R = base_majorant(sp_a2)
    with pytest.raises(BudgetExceeded):
        enumerate_isotropic_classes(sp_a2, R, 100.0, cap=1000)
    assert len(enumerate_isotropic_classes(sp_a2, R, 100.0, cap=10**7)) == 2472
    with pytest.raises(BudgetExceeded):
        enumerate_isotropic_classes(sp_a2, R, 100.0, cap=1000)


def test_eisenstein_value_and_guards(sp_a2):
    base = sp_a2.base_point()
    val = eisenstein_truncated(sp_a2, base, 5.0, 1.0)
    assert val == pytest.approx(4.0)
    with pytest.raises(ConvergenceGuard):
        eisenstein_truncated(sp_a2, base, 2.0, 5.0)
    formal = eisenstein_truncated(sp_a2, base, 2.0, 5.0, allow_formal=True)
    assert formal == pytest.approx(4.0 + 28.0 * 4.0 ** -1.0)
    with pytest.raises(ValueError):
        eisenstein_truncated(sp_a2, base, 5.0, -1.0)


def test_eisenstein_monotone_in_bound(sp_a2):
    base = sp_a2.base_point()
    s = 5.0
    vals = [eisenstein_truncated(sp_a2, base, s, B).real for B in (1, 5, 20)]
    assert vals[0] <= vals[1] <= vals[2]


def test_eisenstein_report_schema(sp_a2):
    rep = eisenstein_report(sp_a2, sp_a2.base_point(), 4.0 + 1.0j, 5.0)
    assert rep["classes"] == 32
    assert rep["B"] == 5.0
    assert rep["s"] == [4.0, 1.0]
    assert rep["exhaustive"] is True
    assert "label" not in rep
    rep2 = eisenstein_report(sp_a2, sp_a2.base_point(), 2.0, 5.0,
                             allow_formal=True)
    assert rep2["label"] == "formal truncation"


def test_hnf_class_counts_match_divisor_sum():
    assert hnf_det_class_count(1) == 1
    assert hnf_det_class_count(4) == 7
    assert hnf_det_class_count(6) == 12
    for m in range(1, 101):
        assert hnf_det_class_count(m) == sigma1(m)


def test_hnf_reps_are_distinct_canonical_classes():
    rng = np.random.default_rng(44)
    for m in (4, 6, 12):
        reps = hnf_class_reps(m)
        canon = {tuple(tuple(r) for r in canonical_class([list(row) for row in rep]))
                 for rep in reps}
        assert len(canon) == len(reps) == sigma1(m)
        # a random matrix of determinant m lands on one of the reps
        for _ in range(10):
            U = [[1, int(rng.integers(-3, 4))], [0, 1]]
            V = [[1, 0], [int(rng.integers(-3, 4)), 1]]
            a = int(rng.integers(1, 4))
            while m % a:
                a = int(rng.integers(1, 4))
            M = np.array(U) @ np.array([[a, 0], [0, m // a]]) @ np.array(V)
            c = canonical_class([list(r) for r in M])
            assert tuple(tuple(r) for r in c) in canon


def test_imprimitive_decomposition_convolves(sp_a2):
    # the all-classes determinant multiset is the primitive multiset
    # convolved with the Hermite class counts
    R = base_majorant(sp_a2)
    for B in (5, 20):
        allc = enumerate_isotropic_classes(sp_a2, R, B, primitive_only=False)
        prim = enumerate_isotropic_classes(sp_a2, R, B)
        left = Counter(int(round(c.detR)) for c in allc)
        right = Counter()
        for c in prim:
            d0 = int(round(c.detR))
            m = 1
            while d0 * m * m <= B:
                right[d0 * m * m] += hnf_det_class_count(m)
                m += 1
        assert left == right


def test_imprimitive_factorization_roundtrip(sp_a2):
    cls = enumerate_isotropic_classes(sp_a2, base_majorant(sp_a2), 5)
    prim = [list(r) for r in cls[7].ell]
    N, M = imprimitive_factorization_check(prim)
    assert N == prim
    assert M == [[1, 0], [0, 1]]
    tripled = [[3 * x for x in row] for row in prim]
    N3, M3 = imprimitive_factorization_check(tripled)
    assert N3 == prim
    assert M3 == [[3, 0], [0, 3]]
    cofactor = [[2, 1], [1, 1]]
    mixed = [list(r) for r in (np.array(prim) @ np.array(cofactor))]
    Nm, Mm = imprimitive_factorization_check(mixed)
    assert Nm == prim
    assert (np.array(Nm) @ np.array(Mm) == np.array(mixed)).all()
    with pytest.raises(RankDeficient):
        imprimitive_factorization_check([[1, 2], [2, 4], [3, 6]])


def test_ellipsoid_points_against_lattice_enumeration(sp_a2):
    # independent check of the Fincke-Pohst layer against the exact
    # lattice short-vector walk
    L = load_gram("A2")
    Q = L.gram_np().astype(float)
    pts = ellipsoid_points(Q, 8.0, 100000)
    got = {tuple(int(x) for x in v) for v in pts}
    half, paired = short_vectors(L, 8)
    assert paired
    expect = set()
    for v in half:
        t = tuple(int(x) for x in v)
        expect.add(t)
        expect.add(tuple(-x for x in t))
    assert got == expect


def test_ellipsoid_keeps_short_axes_of_a_skewed_form():
    # a 2^40 diagonal entry must not shrink the ellipsoid along e1
    pts = ellipsoid_points(np.array([[2.0, 0.0], [0.0, 2.0 ** 40]]), 8.0, 1000)
    assert sorted(map(tuple, pts.tolist())) == [(-2, 0), (-1, 0), (1, 0), (2, 0)]


def test_ellipsoid_refuses_a_form_it_cannot_factor():
    with pytest.raises(NotPositiveDefinite) as ei:
        ellipsoid_points(np.array([[2.0, 3.0], [3.0, 2.0]]), 4.0, 1000)
    assert ei.value.minor_index == 2


def test_general_path_exhaustive_for_large_gram(tmp_path):
    # the general path factors diag(1, 1, 2^60, 1, 1) and must keep the
    # unit axes: both enumerators find the same 8 classes
    path = tmp_path / "big60.gram"
    path.write_text(f"1\n{2 ** 60}\n")
    sp = space_for(load_gram(str(path)))
    R = base_majorant(sp)
    base = enumerate_isotropic_classes(sp, R, 9.0)
    general = enumerate_isotropic_classes(sp, R, 9.0, _force_general=True)
    assert len(base) == 8
    assert [c.ell for c in general] == [c.ell for c in base]


def test_ellipsoid_budget_guard():
    with pytest.raises(BudgetExceeded):
        ellipsoid_points(np.eye(2), 1e9, 1000)


def test_partner_budget_refusal_names_remaining_and_cap(sp_a2):
    # the partner stage runs after earlier partners have spent part of the
    # cap; the refusal says how much was left and what the cap was
    import re

    from orthokleis.orthogroup import translation

    R = majorant_at(sp_a2, act(translation(sp_a2, [1, 0, 1, 0]),
                               sp_a2.base_point()))
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_isotropic_classes(sp_a2, R, 100, cap=5000)
    msg = str(ei.value)
    found = re.search(r"holds (\d+) candidates, more than the (\d+) left "
                      r"of the cap (\d+)", msg)
    assert found, msg
    count, left, cap = map(int, found.groups())
    assert (count, cap) == (ei.value.count, ei.value.cap)
    assert cap == 5000 and 0 < left < cap and count > left


def test_int64_guard_takes_exact_path_for_large_gram(tmp_path):
    # with a Gram entry of 2^60 an int64 S1 product has no headroom: 2^60 x^2
    # wraps to 0 at x = 4.  The isotropic solve and the base-point pairing
    # must run on python ints and agree with exact arithmetic.
    from orthokleis.eisenstein import _s1_dtype

    spaces = {}
    for e in (40, 60):
        path = tmp_path / f"big{e}.gram"
        path.write_text(f"1\n{2 ** e}\n")
        spaces[e] = space_for(load_gram(str(path)))
    sp = spaces[60]
    ones = np.ones((1, 5), dtype=np.int64)
    assert _s1_dtype(sp, ones, ones) is object
    assert _s1_dtype(spaces[40], ones, ones) is np.int64
    V = np.array([[0, 0, 4, 0, 0], [1, 0, 0, 0, 0], [1, 1, 0, -1, 1],
                  [1, 1, 0, 0, 1], [0, 3, 0, 0, 5]], dtype=np.int64)
    S1 = sp.S1_int
    exact = [sum(S1[i][j] * v[i] * v[j] for i in range(5) for j in range(5)) == 0
             for v in V.tolist()]
    assert exact == [False, True, True, False, True]
    iso = ellipsoid_points(np.eye(5), 34.0, 10 ** 6, iso=S1)
    got = set(map(tuple, iso.tolist()))
    assert [tuple(v) in got for v in V.tolist()] == exact
    # below B = 2^40 no class involves the lattice coordinate, so the exact
    # path at 2^60 must reproduce the int64 path at 2^40 class for class
    got = enumerate_isotropic_classes(sp, base_majorant(sp), 9.0)
    ref = enumerate_isotropic_classes(spaces[40], base_majorant(spaces[40]), 9.0)
    assert [(c.ell, c.detR) for c in got] == [(c.ell, c.detR) for c in ref]
    assert len(got) > 0


def _moved_point(space, word):
    """The majorant at g<base> for g the product of the (kind, params)
    letters of word, and g."""
    g = identity_element(space)
    for kind, params in word:
        g = g @ builders(space, kind, **params)
    return majorant_at(space, act(g, space.base_point())), g


def test_general_path_e8_b9_matches_base_path(sp_e8):
    # the whole R-ball at this point holds more candidates than the
    # default cap; with the last coordinate solved the general path fits
    # and finds the base path's classes, moved by g
    R_W, g = _moved_point(sp_e8, [
        ("translation", {"lam": [-1, 1, -1, 0, -1, 0, 0, 0, 1, 0]}),
        ("heisenberg", {"x": [-1, -1, 0, -1, 0, 0, 1, -1],
                        "y": [1, 0, 0, 1, -1, 1, -1, 0]})])
    moved = enumerate_isotropic_classes(sp_e8, R_W, 9.0)
    base = enumerate_isotropic_classes(sp_e8, base_majorant(sp_e8), 9.0)
    assert len(moved) == len(base) == 20168
    transported = {c.ell: c.detR
                   for c in transport_classes(sp_e8, base, g, R_W)}
    assert {c.ell for c in moved} == set(transported)
    assert all(abs(c.detR - transported[c.ell]) <= 1e-9 * c.detR
               for c in moved)


@st.composite
def even_gram_text(draw):
    """A Gram file: A^t A + diag(c) of rank 1-3 with an even diagonal."""
    n = draw(st.integers(1, 3))
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    S = [[sum(A[k][i] * A[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        S[i][i] += 2 * extra[i] + (1 if S[i][i] % 2 else 2)
    return f"{n}\n" + "\n".join(" ".join(map(str, r)) for r in S) + "\n"


@settings(max_examples=30, deadline=None)
@given(even_gram_text(), st.sampled_from([1.0, 2.0, 4.0, 9.0, 12.0]))
def test_general_path_matches_base_path_off_catalog(text, B):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lattice.gram"
        path.write_text(text)
        sp = space_for(load_gram(str(path)))
    R = base_majorant(sp)
    base = enumerate_isotropic_classes(sp, R, B)
    general = enumerate_isotropic_classes(sp, R, B, _force_general=True)
    assert {c.ell for c in general} == {c.ell for c in base}
    assert np.allclose(sorted(c.detR for c in general),
                       sorted(c.detR for c in base), rtol=1e-9)


def test_general_path_enumerates_only_isotropic_points(sp_a2, monkeypatch):
    # at A2 B=100 the 221 calls (the short vectors, then the quotient
    # partners of each primitive l) have whole balls of 167334 points, of
    # which 6232 are isotropic; only those come back
    import orthokleis.eisenstein as eis

    calls = []

    def counted(Q, T, cap, spent=0, iso=None, half=False):
        assert iso is not None
        pts = ellipsoid_points(Q, T, cap, spent, iso=iso, half=half)
        S = np.array(iso, dtype=object)
        Y = pts.astype(object)
        isotropic = bool((((Y @ S) * Y).sum(axis=1) == 0).all())
        calls.append((pts.shape[0], isotropic))
        return pts

    R_W, _ = _moved_point(sp_a2, [
        ("translation", {"lam": [0, 0, 1, -1]}),
        ("heisenberg", {"x": [1, 1], "y": [1, 0]})])
    monkeypatch.setattr(eis, "ellipsoid_points", counted)
    assert len(enumerate_isotropic_classes(sp_a2, R_W, 100.0)) == 2472
    assert len(calls) == 221
    assert sum(n for n, _ in calls) == 6232
    assert all(ok for _, ok in calls)


# ------------------------------------- the quotient search against its oracle

def reference_general_classes(space, R, B, cap, primitive_only):
    """The general path as it was before the quotient search: the partners
    of each short isotropic l are searched in the whole kernel of l^t S1,
    of rank m - 1.  Verbatim, but for the class stack that deduplicated
    along the way: the blocks are concatenated, and _class_list keeps one
    row per class either way."""
    m = space.dim + 2
    limit = B * (1.0 + REL_EPS) + REL_EPS
    B1 = math.sqrt(4.0 * B / 3.0) * (1.0 + REL_EPS)
    S1_rows = space.S1_int
    iso = ellipsoid_points(R, B1, cap, iso=S1_rows)
    # what is held counts against the cap: the short isotropic vectors,
    # then every partner list
    spent = iso.shape[0]
    blocks = [np.zeros((0, m, 2), dtype=np.int64)]
    if spent == 0:
        return np.concatenate(blocks)
    # one sign per line: first nonzero coordinate positive
    lead = iso[np.arange(iso.shape[0]), (iso != 0).argmax(axis=1)]
    reps = sorted(map(tuple, iso[lead > 0].tolist()))
    # (l, partner) rows waiting for the canonicaliser
    pending, waiting = [], 0
    for l in reps:
        lv = np.array(l, dtype=np.int64)
        Rl = float(lv @ R @ lv)
        B2 = (4.0 / 3.0) * B / max(Rl, 1e-300) * (1.0 + REL_EPS)
        row = [[sum(S1_rows[i][j] * l[i] for i in range(m)) for j in range(m)]]
        kern = integer_kernel(row)
        W = np.array(kern, dtype=np.int64).T  # columns span the kernel
        # partners: S1-isotropic vectors of the kernel, S1[W y] = 0
        ys = ellipsoid_points(W.T @ R @ W, B2, cap, spent,
                              iso=congruent_form(S1_rows, W))
        spent += ys.shape[0]
        if ys.shape[0] == 0:
            continue
        cands = ys @ W.T
        Cf = cands.astype(float)
        Rlm = Cf @ (R @ lv)
        det2 = Rl * ((Cf @ R) * Cf).sum(axis=1) - Rlm * Rlm
        partners = cands[det2 <= limit]
        pending.append((np.broadcast_to(lv, partners.shape), partners))
        waiting += partners.shape[0]
        if waiting >= PAIR_SLICE:
            blocks.extend(_canonical(*map(np.concatenate, zip(*pending)),
                                     primitive_only))
            pending, waiting = [], 0
    if pending:
        blocks.extend(_canonical(*map(np.concatenate, zip(*pending)),
                                 primitive_only))
    return np.concatenate(blocks)


def _assert_same_as_reference(space, R, B, primitive_only=True):
    """The quotient search and the oracle give the same classes, in the
    same order, with the same detR bit for bit."""
    cap = 10 ** 7
    got = _class_list(_general_classes(space, R, B, cap, primitive_only), R)
    ref = _class_list(reference_general_classes(space, R, B, cap,
                                                primitive_only), R)
    assert np.array_equal(got.ells, ref.ells)
    assert got.detR.tobytes() == ref.detR.tobytes()
    return got


def _workload_words(seed):
    """The words of the benchmark's eisenstein workload for one seed, from
    perfbench/inputs.py (standard library only)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.eisenstein_inputs(seed)


def test_quotient_search_matches_reference_at_workload_points(sp_a2, sp_e8):
    # the eight moved points of the benchmark's seed 1: six E8 at B=5 and
    # two A2 at B=100
    words = _workload_words(1)
    for space, key, B, count in ((sp_e8, "e8_words", 5.0, 968),
                                 (sp_a2, "a2_words", 100.0, 2472)):
        for word in words[key]:
            R, _ = _moved_point(space, word)
            assert len(_assert_same_as_reference(space, R, B)) == count


@st.composite
def moved_word(draw, n):
    """A translation and a Heisenberg unipotent, entries in [-1, 1], with
    x nonzero so that g<base> is not the base point."""
    small = st.integers(-1, 1)
    x = draw(st.lists(small, min_size=n, max_size=n).filter(any))
    return [("translation", {"lam": draw(st.lists(small, min_size=n + 2,
                                                  max_size=n + 2))}),
            ("heisenberg", {"x": x, "y": draw(st.lists(small, min_size=n,
                                                       max_size=n))})]


@settings(max_examples=25, deadline=None)
@given(st.data(), even_gram_text(), st.sampled_from([1.0, 2.0, 4.0, 9.0, 12.0]))
def test_quotient_search_matches_reference_off_catalog(data, text, B):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lattice.gram"
        path.write_text(text)
        sp = space_for(load_gram(str(path)))
    R, _ = _moved_point(sp, data.draw(moved_word(sp.n)))
    for primitive_only in (True, False):
        _assert_same_as_reference(sp, R, B, primitive_only)


def test_quotient_search_matches_reference_imprimitive_a2(sp_a2):
    R, _ = _moved_point(sp_a2, _workload_words(1)["a2_words"][0])
    got = _assert_same_as_reference(sp_a2, R, 20.0, primitive_only=False)
    assert len(got) == 340


def test_quotient_basis_is_exact_and_well_conditioned(sp_e8):
    # at this point the one-row kernel of S1 l is skewed in R: a quotient
    # form built from it has condition 7e9, and at B=16 the search then
    # misses the 911 classes of det(R[ell]) = 16 by 5.5e-8 relative.  The
    # kernel is LLL-reduced in R first; (l, C) stays an exact basis of K
    R, _ = _moved_point(sp_e8, _workload_words(1)["e8_words"][5])
    l = np.array([16, -7, -1, -1, 0, -1, -4, 1, 1, -1, 0, 1], dtype=object)
    C = _quotient_basis(sp_e8, R, l)
    M = np.column_stack([l, C])
    assert not (l @ sp_e8.S1_exact @ M).any()
    # a primitive system of rank m - 1 in the saturated K is a basis of K
    assert minors_gcd(M.tolist(), M.shape[1]) == 1
    Cf = C.astype(float)
    assert np.linalg.cond(Cf.T @ R @ Cf) < 1e4


def test_imprimitive_l_skipped_or_lifted_over_its_residues(sp_a2,
                                                           monkeypatch):
    # at the A2 base point 2 e is a short isotropic vector for each of the
    # unit corner vectors e; it opens no partner search when only
    # primitive classes are asked for.  Otherwise each partner coset
    # m_bar + Z e is lifted to both residues j mod 2, since <2e, m_bar>
    # and <2e, m_bar + e> are different planes
    import orthokleis.eisenstein as eis

    R = base_majorant(sp_a2)
    seen = []
    canonical = eis._canonical

    def recording(V, W, primitive_only):
        seen.append((V.copy(), W.copy()))
        return canonical(V, W, primitive_only)

    monkeypatch.setattr(eis, "_canonical", recording)
    for primitive_only, count in ((True, 200), (False, 340)):
        seen.clear()
        got = enumerate_isotropic_classes(
            sp_a2, R, 20.0, primitive_only=primitive_only,
            _force_general=True)
        V = np.concatenate([v for v, _ in seen]).astype(np.int64)
        W = np.concatenate([w for _, w in seen]).astype(np.int64)
        base = enumerate_isotropic_classes(sp_a2, R, 20.0,
                                           primitive_only=primitive_only)
        assert len(got) == len(base) == count
        assert np.array_equal(got.ells, base.ells)
        g = np.gcd.reduce(V, axis=1)
        if primitive_only:
            assert (g == 1).all()
            continue
        assert set(g.tolist()) == {1, 2}
        # one coset of W mod l' = V / g per <l', W>; within it, the
        # lifts name one plane <V, W> per residue j mod g
        two = np.flatnonzero(g == 2)
        _, coset = rank2_column_hnf(V[two] // 2, W[two])
        _, plane = rank2_column_hnf(V[two], W[two])
        lifts = {}
        for l, c, p in zip(V[two].tolist(), coset.tolist(), plane.tolist()):
            lifts.setdefault((tuple(l), str(c)), set()).add(str(p))
        assert max(map(len, lifts.values())) == 2
