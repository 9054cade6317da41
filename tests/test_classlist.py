"""The columnar class list: its sequence contract, and its classes, detR
and order checked against the canonicalised candidate rows, exact
rational determinants and a plain sort; the base-point finish against
the deduplicate-and-reduce route, and the packed row order against a
plain lexsort."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import orthokleis.eisenstein as eis
from orthokleis.eisenstein import (
    ClassList,
    IsotropicClass,
    class_value,
    enumerate_isotropic_classes,
    transport_classes,
)
from orthokleis.intmat import lex_order
from orthokleis.lattice import load_gram
from orthokleis.majorant import base_majorant, majorant_at
from orthokleis.orthogroup import (
    act,
    builders,
    identity_element,
    random_word,
    space_for,
)


@pytest.fixture(scope="module")
def sp_a2():
    return space_for(load_gram("A2"))


@pytest.fixture(scope="module")
def sp_e8():
    return space_for(load_gram("E8"))


def _record_candidates(monkeypatch):
    """Record every block of canonicalised candidate rows, on every path;
    returns the list the blocks are appended to."""
    blocks = []
    canonical = eis._canonical

    def recording(*args):
        for H in canonical(*args):
            blocks.append(H.copy())
            yield H

    monkeypatch.setattr(eis, "_canonical", recording)
    return blocks


def _exact_det(ells, R):
    """det(R[ell]) for each ell of a (k, m, 2) stack, as Fractions, in
    exact rational arithmetic over the float entries of R."""
    ratios = [x.as_integer_ratio() for x in R.ravel().tolist()]
    den = max(d for _, d in ratios)  # powers of two: each divides den
    Rint = np.array([n * (den // d) for n, d in ratios],
                    dtype=object).reshape(R.shape)
    E = np.asarray(ells).astype(object)
    G = E.transpose(0, 2, 1) @ Rint @ E
    det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
    return [Fraction(int(d), den * den) for d in det]


def _det_error(classes, R):
    """The largest relative error of the reported detR."""
    return max((abs(Fraction(d) - e) / e for d, e in zip(
        classes.detR.tolist(), _exact_det(classes.ells, R))), default=0)


def _dict_oracle(blocks):
    """The classes the candidate rows name, each with the number of
    candidates that reached it: a dict keyed by each representative's
    rows as tuples."""
    return Counter(tuple(map(tuple, h)) for H in blocks for h in H.tolist())


def _assert_matches_oracle(classes, blocks, R, rel=2e-13):
    """One class per distinct candidate row, each detR within rel of
    exact, ordered by (detR, representative)."""
    assert isinstance(classes, ClassList)
    got = [c.ell for c in classes]
    assert len(set(got)) == len(got)
    assert set(got) == set(_dict_oracle(blocks))
    assert all(type(d) is float for d in classes.detR.tolist())
    assert _det_error(classes, R) <= rel
    keys = [(c.detR, c.ell) for c in classes]
    assert keys == sorted(keys)


def _moved_majorant(space, seed):
    """g and the majorant at g<base> for a seeded random word g."""
    g = random_word(space, np.random.default_rng(seed), length=3, coeff=1)
    return g, majorant_at(space, act(g, space.base_point()))


@pytest.mark.parametrize("case", [
    "A2 B=100 base", "A2 B=100 general", "E8 B=5 base",
    "A2 B=20 imprimitive", "A2 B=20 transport", "A2 B=100 moved"])
def test_order_matches_dict_oracle(case, sp_a2, sp_e8, monkeypatch):
    R = R2 = base_majorant(sp_a2)
    source = None
    if case == "A2 B=20 transport":
        # the list to move is enumerated before recording starts
        source = enumerate_isotropic_classes(sp_a2, R2, 20.0)
    blocks = _record_candidates(monkeypatch)
    if case == "A2 B=100 base":
        got = enumerate_isotropic_classes(sp_a2, R2, 100.0)
    elif case == "A2 B=100 general":
        got = enumerate_isotropic_classes(sp_a2, R2, 100.0,
                                          _force_general=True)
    elif case == "E8 B=5 base":
        R = base_majorant(sp_e8)
        got = enumerate_isotropic_classes(sp_e8, R, 5.0)
    elif case == "A2 B=20 imprimitive":
        got = enumerate_isotropic_classes(sp_a2, R2, 20.0,
                                          primitive_only=False)
    elif case == "A2 B=20 transport":
        g, R = _moved_majorant(sp_a2, 808)
        got = transport_classes(sp_a2, source, g, R)
    else:
        # at this point the candidates of most classes round to different
        # detR
        R = _moved_majorant(sp_a2, 1)[1]
        got = enumerate_isotropic_classes(sp_a2, R, 100.0)
    _assert_matches_oracle(got, blocks, R)
    if "base" in case or "imprimitive" in case:
        # psi is injective on an isotropic plane, so the base path reaches
        # each class from exactly one candidate; detR is exact there
        assert set(_dict_oracle(blocks).values()) == {1}
        assert _det_error(got, R) == 0
    if case in ("A2 B=100 general", "A2 B=100 moved"):
        # reduced pairs only: 48 classes are reached twice, at ties of
        # their reduced bases, and hundreds of detR are tied
        assert len(got) == 2472
        assert sum(H.shape[0] for H in blocks) == 2520


def test_object_stack_past_int64_headroom():
    # representatives scaled by 2^62 only fit python ints; duplicates,
    # tied detR, and one int64 block among the object ones all go
    # through the one dedup-and-order path
    rng = np.random.default_rng(62)
    m = 6

    def rank2(rows):
        return rows[[np.linalg.matrix_rank(r) == 2 for r in rows]]

    distinct = rank2(rng.integers(-3, 4, size=(600, m, 2))).astype(object)
    distinct *= 2**62
    A = rng.integers(-1, 2, size=(m, m))
    R = (A.T @ A + np.eye(m, dtype=np.int64)).astype(float)
    stream = [distinct[rng.integers(0, distinct.shape[0], size=700)]
              for _ in range(40)]
    stream.append(rank2(rng.integers(-3, 4, size=(50, m, 2))))
    got = eis._class_list(np.concatenate(stream), R)
    assert got.ells.dtype == object
    _assert_matches_oracle(got, stream, R)


def test_reduction_leaves_int64_before_it_could_overflow():
    # reducing (1, 0), (2^62, 1) subtracts 2^62 times the first column,
    # past the int64 headroom the step checks: it runs on python ints
    H = np.array([[[1, 2**62], [0, 1]], [[1, 5], [2, 11]]], dtype=np.int64)
    a, b, aa, ab, bb = eis._reduce(H, np.eye(2))
    assert a.dtype == object
    assert a.tolist() == [[1, 0], [0, 1]] and b.tolist() == [[0, 1], [1, 0]]
    assert eis._reduced_det(H, np.eye(2)).tolist() == [1.0, 1.0]


def test_held_rows_follow_classes_not_candidates(sp_a2, monkeypatch):
    # the general path reaches each A2 B=100 class from about one reduced
    # pair, so it holds the canonical rows as they come and leaves the
    # deduplication to _class_list; a small slice changes neither the
    # rows nor the list
    R = base_majorant(sp_a2)
    ref = enumerate_isotropic_classes(sp_a2, R, 100.0, _force_general=True)
    blocks = _record_candidates(monkeypatch)
    slice_rows = 256
    monkeypatch.setattr(eis, "PAIR_SLICE", slice_rows)
    got = enumerate_isotropic_classes(sp_a2, R, 100.0, _force_general=True)
    assert got == ref
    assert np.array_equal(got.ells, ref.ells)
    assert got.detR.tobytes() == ref.detR.tobytes()
    candidates = sum(H.shape[0] for H in blocks)
    assert candidates == 2520
    assert candidates < 1.1 * len(got)
    assert max(H.shape[0] for H in blocks) <= slice_rows


def test_sequence_contract(sp_a2):
    R = base_majorant(sp_a2)
    cls = enumerate_isotropic_classes(sp_a2, R, 20.0)
    items = list(cls)
    assert len(cls) == len(items) == 200 and cls
    assert all(isinstance(c, IsotropicClass) for c in items)
    assert cls[0] == items[0] and cls[-1] == items[-1]
    assert cls[np.int64(3)] == items[3]
    with pytest.raises(IndexError):
        cls[200]
    with pytest.raises(TypeError):
        cls[1.0]
    head = cls[:6]
    assert isinstance(head, ClassList) and head == items[:6]
    assert cls[::-7] == items[::-7]
    assert cls == items and cls == cls[:] and cls != items[1:]
    assert cls != "not a class list"
    empty = enumerate_isotropic_classes(sp_a2, R, 0.5)
    assert empty == [] and not empty and len(empty) == 0
    assert list(empty) == [] and empty.ells.shape == (0, 6, 2)
    ell = items[5].ell
    assert all(type(x) is int for row in ell for x in row)
    assert np.array_equal(cls[5].matrix(), np.array(ell))
    assert cls.ells.flags.writeable is False
    # the series is the same left-to-right python complex sum as before
    s = 4.5 + 1j
    total = 0j
    for c in items:
        total += c.detR ** (-s / 2)
    assert class_value(cls, s) == total


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_iteration_matches_per_class_items(dtype, monkeypatch):
    # iteration groups one flat list of entries into items, a slice at a
    # time; each item equals the one built class by class from nested
    # lists, for int64 and python-int stacks and across slice boundaries
    rng = np.random.default_rng(5)
    ells = rng.integers(-9, 10, size=(50, 7, 2)).astype(dtype)
    if dtype is object:
        ells *= 2**70
    cls = ClassList(ells, rng.random(50))
    want = [IsotropicClass(tuple(map(tuple, e.tolist())), float(d))
            for e, d in zip(ells, cls.detR)]
    monkeypatch.setattr(eis, "PAIR_SLICE", 16)
    got = list(cls)
    assert got == want and [cls[i] for i in range(50)] == want
    assert [hash(c) for c in got] == [hash(c) for c in want]
    assert all(type(x) is int for c in got for row in c.ell for x in row)
    assert all(type(row) is tuple and len(row) == 2
               for c in got for row in c.ell)


def test_arrival_order_does_not_matter(sp_a2, monkeypatch):
    # at this point the candidate rows name every class, some twice; the
    # list, its detR and its order are the same whichever order the rows
    # come in, and however often each repeats
    R = _moved_majorant(sp_a2, 1)[1]
    blocks = _record_candidates(monkeypatch)
    ref = enumerate_isotropic_classes(sp_a2, R, 100.0)
    rows = np.concatenate(blocks)
    assert len(ref) == 2472 and rows.shape[0] == 2520
    rows = np.concatenate([rows, rows[::3]])
    rng = np.random.default_rng(5)
    for order in (np.arange(rows.shape[0]), np.arange(rows.shape[0])[::-1],
                  rng.permutation(rows.shape[0])):
        got = eis._class_list(rows[order], R)
        assert np.array_equal(got.ells, ref.ells)
        assert got.detR.tobytes() == ref.detR.tobytes()


def test_transported_det_is_exact_to_rounding(sp_e8):
    # the word perfbench/inputs.py builds as E8 word 4 of seed 2; a float
    # det over the transported Hermite forms errs by 8.1e-10 here
    g = identity_element(sp_e8)
    for kind, params in [
            ("translation", {"lam": [1, -1, 0, 1, 0, 1, 1, -1, 0, 1]}),
            ("heisenberg", {"x": [-1, -1, 1, -1, -1, 1, 1, -1],
                            "y": [0, 1, -1, 1, -1, 1, -1, 0]})]:
        g = g @ builders(sp_e8, kind, **params)
    R = majorant_at(sp_e8, act(g, sp_e8.base_point()))
    base = enumerate_isotropic_classes(sp_e8, base_majorant(sp_e8), 5.0)
    moved = transport_classes(sp_e8, base, g, R)
    assert len(moved) == 968
    assert _det_error(moved, R) <= 2e-13
    # the value is one of the class: enumerating at g<base> gives the
    # same list, bit for bit
    honest = enumerate_isotropic_classes(sp_e8, R, 5.0)
    assert np.array_equal(moved.ells, honest.ells)
    assert moved.detR.tobytes() == honest.detR.tobytes()


# ------------------------------------------------ the base-point finish

def _record_base_stack(monkeypatch):
    """Record the stack _base_classes returns; returns the list it is
    appended to."""
    stacks = []
    base_classes = eis._base_classes

    def recording(*args):
        H = base_classes(*args)
        stacks.append(H)
        return H

    monkeypatch.setattr(eis, "_base_classes", recording)
    return stacks


@pytest.mark.parametrize("primitive_only", [True, False])
@pytest.mark.parametrize("name, B, cap", [
    ("E8", 16.0, None), ("E8", 20.0, None), ("A2", 100.0, None),
    ("A2", 900.0, 3 * 10**7), ("D4", 100.0, None)])
def test_base_list_matches_dedup_and_reduce_route(name, B, cap,
                                                  primitive_only,
                                                  monkeypatch):
    # the oracle is the route the base path took before: deduplicate the
    # stack, reduce every class to get its detR, sort on (detR, rows)
    space = space_for(load_gram(name))
    R0 = base_majorant(space)
    stacks = _record_base_stack(monkeypatch)
    kwargs = {} if cap is None else {"cap": cap}
    got = enumerate_isotropic_classes(space, R0, B,
                                      primitive_only=primitive_only, **kwargs)
    ref = eis._class_list(stacks[0], R0)
    assert len(got) == stacks[0].shape[0]
    assert np.array_equal(got.ells, ref.ells)
    assert got.detR.dtype == ref.detR.dtype == np.float64
    assert got.detR.tobytes() == ref.detR.tobytes()
    if name == "E8" and primitive_only:
        assert len(got) == 245288


def test_image_index_is_the_walked_index(sp_a2, sp_e8, monkeypatch):
    # each candidate block comes from one pair of fibers over the reduced
    # basis (p, r) of one index-D image; _image_index reads that D back
    # from the canonical rows, and D^2 is the reduced-basis det in R0
    walked, seen = [], []
    fiber, canonical = eis._fiber, eis._canonical

    def recording_fiber(space, pq, *args):
        walked.append(pq)
        return fiber(space, pq, *args)

    def recording_canonical(*args):
        (p0, p1), (r0, r1) = walked[-2:]
        for H in canonical(*args):
            seen.append((abs(p0 * r1 - p1 * r0), H.copy()))
            yield H

    monkeypatch.setattr(eis, "_fiber", recording_fiber)
    monkeypatch.setattr(eis, "_canonical", recording_canonical)
    for space, B, primitive_only in [(sp_a2, 100.0, True),
                                     (sp_a2, 100.0, False),
                                     (sp_e8, 9.0, True)]:
        seen.clear()
        enumerate_isotropic_classes(space, base_majorant(space), B,
                                    primitive_only=primitive_only)
        assert {D for D, _ in seen} == set(range(1, int(B**0.5) + 1))
        for D, H in seen:
            index = eis._image_index(H)
            assert (index == D).all()
            assert np.array_equal(
                (index * index).astype(float),
                eis._reduced_det(H, base_majorant(space)))


def test_base_path_neither_deduplicates_nor_reduces(sp_a2, sp_e8,
                                                    monkeypatch):
    def refuse(*args):
        raise AssertionError("called on the base path")

    monkeypatch.setattr(eis, "_distinct", refuse)
    monkeypatch.setattr(eis, "_reduced_det", refuse)
    for space, B in [(sp_a2, 100.0), (sp_e8, 5.0)]:
        for primitive_only in (True, False):
            got = enumerate_isotropic_classes(space, base_majorant(space),
                                              B, primitive_only=primitive_only)
            assert len(got) > 0


def test_transport_does_not_deduplicate(sp_a2, monkeypatch):
    # g is a bijection on classes: the moved list is ordered, and each
    # class's detR is reduced once
    base = enumerate_isotropic_classes(sp_a2, base_majorant(sp_a2), 20.0)
    g, R = _moved_majorant(sp_a2, 808)
    ref = transport_classes(sp_a2, base, g, R)

    def refuse(*args):
        raise AssertionError("transport deduplicated")

    monkeypatch.setattr(eis, "_distinct", refuse)
    got = transport_classes(sp_a2, base, g, R)
    assert np.array_equal(got.ells, ref.ells)
    assert got.detR.tobytes() == ref.detR.tobytes()


def test_empty_lists_keep_their_shape(sp_a2):
    R0 = base_majorant(sp_a2)
    empty = enumerate_isotropic_classes(sp_a2, R0, 0.5)
    assert empty.ells.shape == (0, 6, 2) and empty.detR.shape == (0,)
    g, R = _moved_majorant(sp_a2, 808)
    moved = transport_classes(sp_a2, empty, g, R)
    assert moved.ells.shape == (0, 6, 2) and moved.detR.shape == (0,)
    finished = eis._base_class_list(np.zeros((0, 6, 2), dtype=np.int64))
    assert finished.ells.shape == (0, 6, 2) and len(finished) == 0
    assert lex_order([np.zeros(0, dtype=np.int64)] * 3).shape == (0,)


# ----------------------------------------------------- the packed order

def _lex_cases():
    rng = np.random.default_rng(21)
    small = rng.integers(-15, 16, size=(3000, 25))
    ties = rng.integers(-1, 2, size=(3000, 9))  # many equal rows
    # spans of exactly 2^21 - 1, three to a 63-bit word, then one of 2^21,
    # which needs a 22nd bit; and one key spanning exactly INT64_MAX
    edge = np.column_stack([rng.integers(0, 2**21, size=3000)
                            for _ in range(6)])
    edge[:2, :] = [[0] * 6, [2**21 - 1] * 6]
    wide = rng.integers(-2**20, 2**20 + 1, size=(3000, 1))
    wide[:2, 0] = [-2**20, 2**20]
    full = rng.integers(-2**63, 0, size=(3000, 1))
    full[:2, 0] = [-2**63, -1]
    edge = np.hstack([edge, wide, full, edge[:, :2]])
    near = rng.integers(-3, 4, size=(3000, 5)) + 2**62  # a span of 6
    past = rng.integers(-1, 2, size=(3000, 5)) * (2**62 + 7)  # 2^63 + 14
    pyints = rng.integers(-5, 6, size=(3000, 4)).astype(object) * 2**70
    return {"negative": (small, True), "ties": (ties, True),
            "bit boundary": (edge, True), "near 2^62": (near, True),
            "past the span bound": (past, False),
            "python ints": (pyints, False)}


@pytest.mark.parametrize("case", list(_lex_cases()))
def test_lex_order_matches_lexsort(case, monkeypatch):
    X, packs = _lex_cases()[case]
    # a leading key, as the base order and half_ball use it
    lead = np.abs(X[:, 0] % 7 - 3)
    want = np.lexsort(X.T[::-1])
    want_lead = np.lexsort((*X.T[::-1], lead))
    # the keys each lexsort call gets: fewer than given when packed
    real, calls = np.lexsort, []
    monkeypatch.setattr(np, "lexsort",
                        lambda keys: calls.append(len(keys)) or real(keys))
    assert np.array_equal(lex_order(X.T), want)
    assert np.array_equal(lex_order(list(X.T)), want)
    assert np.array_equal(lex_order([lead, *X.T]), want_lead)
    if packs:
        assert all(n < X.shape[1] for n in calls)
    else:
        assert calls == [X.shape[1]] * 2 + [X.shape[1] + 1]
