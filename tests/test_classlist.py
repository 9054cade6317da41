"""The columnar class list: its sequence contract, and its deduplication
and order checked against the per-class dict-and-sort bookkeeping it
replaced, on the same candidate streams."""

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
from orthokleis.lattice import load_gram
from orthokleis.majorant import base_majorant, majorant_at
from orthokleis.orthogroup import act, random_word, space_for


@pytest.fixture(scope="module")
def sp_a2():
    return space_for(load_gram("A2"))


@pytest.fixture(scope="module")
def sp_e8():
    return space_for(load_gram("E8"))


def _record_stacks(monkeypatch):
    """Make every _ClassStack record the (H, det) blocks it is given, in
    arrival order; returns the list the stacks are appended to."""
    stacks = []

    class Recording(eis._ClassStack):
        def __init__(self, m):
            super().__init__(m)
            self.stream = []
            self.peak = 0  # the most rows held at once
            stacks.append(self)

        def add(self, H, det):
            self.stream.append((H.copy(), det.copy()))
            self.peak = max(self.peak, self.held + det.shape[0])
            super().add(H, det)

    monkeypatch.setattr(eis, "_ClassStack", Recording)
    return stacks


def _dict_oracle(stream):
    """The old bookkeeping: a dict keyed by the representative's rows as
    tuples, first occurrence first, sorted by (detR, ell)."""
    found = {}
    for H, det in stream:
        for col0, col1, d in zip(H[:, :, 0].tolist(), H[:, :, 1].tolist(),
                                 det.tolist()):
            key = tuple(zip(col0, col1))
            if key not in found:
                found[key] = d
    return sorted(found.items(), key=lambda kv: (kv[1], kv[0]))


def _assert_matches_oracle(classes, stream):
    ref = _dict_oracle(stream)
    assert isinstance(classes, ClassList)
    assert [c.ell for c in classes] == [ell for ell, _ in ref]
    got_det = classes.detR.tolist()
    assert all(type(d) is float for d in got_det)
    assert got_det == [d for _, d in ref]


def _moved_majorant(space, seed):
    """g and the majorant at g<base> for a seeded random word g."""
    g = random_word(space, np.random.default_rng(seed), length=3, coeff=1)
    return g, majorant_at(space, act(g, space.base_point()))


@pytest.mark.parametrize("case", [
    "A2 B=100 base", "A2 B=100 general", "E8 B=5 base",
    "A2 B=20 imprimitive", "A2 B=20 transport", "A2 B=100 moved"])
def test_order_matches_dict_oracle(case, sp_a2, sp_e8, monkeypatch):
    R2 = base_majorant(sp_a2)
    source = None
    if case == "A2 B=20 transport":
        # the list to move is enumerated before recording starts
        source = enumerate_isotropic_classes(sp_a2, R2, 20.0)
    stacks = _record_stacks(monkeypatch)
    if case == "A2 B=100 base":
        got = enumerate_isotropic_classes(sp_a2, R2, 100.0)
    elif case == "A2 B=100 general":
        got = enumerate_isotropic_classes(sp_a2, R2, 100.0,
                                          _force_general=True)
    elif case == "E8 B=5 base":
        got = enumerate_isotropic_classes(sp_e8, base_majorant(sp_e8), 5.0)
    elif case == "A2 B=20 imprimitive":
        got = enumerate_isotropic_classes(sp_a2, R2, 20.0,
                                          primitive_only=False)
    elif case == "A2 B=20 transport":
        got = transport_classes(sp_a2, source, *_moved_majorant(sp_a2, 808))
    else:
        # at this point the candidates of most classes round to different
        # detR, so the first occurrence decides each value
        got = enumerate_isotropic_classes(
            sp_a2, _moved_majorant(sp_a2, 1)[1], 100.0)
    assert len(stacks) == 1
    stream = stacks[0].stream
    _assert_matches_oracle(got, stream)
    if case in ("A2 B=100 general", "A2 B=100 moved"):
        # many candidates per class, and hundreds of tied detR
        assert len(got) == 2472
        assert sum(d.shape[0] for _, d in stream) > 10 * len(got)


def test_object_stack_past_int64_headroom(monkeypatch):
    # representatives scaled by 2^62 only fit python ints; duplicates with
    # differing detR, tied detR, and one int64 block among the object ones
    # all go through the one dedup-and-order path
    rng = np.random.default_rng(62)
    m = 6
    distinct = rng.integers(-3, 4, size=(600, m, 2)).astype(object) * 2**62
    _record_stacks(monkeypatch)
    stack = eis._ClassStack(m)
    stream = stack.stream
    for _ in range(40):
        pick = rng.integers(0, distinct.shape[0], size=700)
        H = distinct[pick]
        det = rng.choice([1.0, 4.0, 9.0, 16.0], size=700)
        stack.add(H, det)
    small = rng.integers(-3, 4, size=(50, m, 2))
    small_det = rng.choice([1.0, 4.0], size=50)
    stack.add(small, small_det)
    got = stack.classes()
    assert got.ells.dtype == object
    # the held rows were deduplicated along the way
    assert stack.peak < sum(d.shape[0] for _, d in stream)
    ref = _dict_oracle(stream)
    assert sorted({ell for ell, _ in ref}) == sorted(
        {tuple(map(tuple, H_i)) for H, _ in stream for H_i in H.tolist()})
    _assert_matches_oracle(got, stream)


def test_held_rows_follow_classes_not_candidates(sp_a2, monkeypatch):
    # the general path reaches each A2 B=100 class from 15 candidates on
    # average; with a small slice the held rows stay near twice the class
    # count and far below the candidate count
    R = base_majorant(sp_a2)
    ref = enumerate_isotropic_classes(sp_a2, R, 100.0, _force_general=True)
    stacks = _record_stacks(monkeypatch)
    slice_rows = 256
    monkeypatch.setattr(eis, "PAIR_SLICE", slice_rows)
    got = enumerate_isotropic_classes(sp_a2, R, 100.0, _force_general=True)
    assert got == ref
    candidates = sum(d.shape[0] for _, d in stacks[0].stream)
    assert candidates == 38112
    assert stacks[0].peak < 2 * len(got) + slice_rows
    assert 4 * stacks[0].peak < candidates


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
