"""Tests for truncated theta sums, transformation laws, and tail bounds.

Frozen counts and values were first computed by an independent box-scan
enumerator (reproduced below for the small cases) and cross-checked
against the Kronecker-form Fincke-Pohst path before being recorded.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from orthokleis import intmat, theta
from orthokleis.errors import BudgetExceeded
from orthokleis.intmat import congruent_form, quad_rows
from orthokleis.lattice import (
    ellipsoid_points,
    load_gram,
    reduced_ellipsoid_points,
    vectors_of_norm,
)
from orthokleis.majorant import base_majorant, majorant_at
from orthokleis.orthogroup import (
    TubePoint,
    act,
    heisenberg,
    random_point,
    random_word,
    space_for,
    translation,
)
from orthokleis.theta import (
    ThetaQuery,
    big_theta,
    gauss_single_sum,
    majorant_shell_counts,
    tail_bound,
    tail_bound_details,
    theta_diag_factored,
    theta_report,
    theta_term_count,
    theta_truncated,
)

GENERIC_Z = np.array(
    [[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]]
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


def base_tube(space):
    v = np.zeros(space.dim, dtype=complex)
    v[0] = v[-1] = 1j
    return TubePoint(space, v)


def box_scan_value(space, R, Z, B):
    """Independent oracle: direct box enumeration of column pairs."""
    m = space.dim + 2
    X, Y = Z.real, Z.imag
    lam = np.linalg.eigvalsh(R)[0]
    lam_y = np.linalg.eigvalsh(Y)[0]
    T1 = B / lam_y
    rad = math.isqrt(int(T1 / lam)) + 1
    singles = []
    for v in itertools.product(range(-rad, rad + 1), repeat=m):
        va = np.array(v)
        q = float(va @ R @ va)
        if q <= T1 + 1e-9:
            singles.append((va, q))
    S1 = np.array(space.S1_int, dtype=np.int64)
    total = 0.0 + 0.0j
    count = 0
    for l, ql in singles:
        for mm, qm in singles:
            tr = Y[0, 0] * ql + 2 * Y[0, 1] * float(l @ R @ mm) + Y[1, 1] * qm
            if tr > B + 1e-9:
                continue
            count += 1
            s11 = int(l @ S1 @ l)
            s12 = int(l @ S1 @ mm)
            s22 = int(mm @ S1 @ mm)
            ph = s11 * X[0, 0] + 2 * s12 * X[0, 1] + s22 * X[1, 1]
            total += np.exp(1j * math.pi * ph - math.pi * tr)
    return total, count


def test_zero_matrix_term_alone(sp_a1, sp_a2):
    for sp in (sp_a1, sp_a2):
        q = ThetaQuery(sp, GENERIC_Z, base_tube(sp), 0.5)
        assert theta_term_count(q) == 0
        assert theta_truncated(q) == 1.0


def test_box_scan_agreement(sp_a1, sp_a2):
    for sp, want in ((sp_a1, 98), (sp_a2, 102)):
        R = base_majorant(sp)
        bv, bc = box_scan_value(sp, R, GENERIC_Z, 2.0)
        q = ThetaQuery(sp, GENERIC_Z, base_tube(sp), 2.0)
        assert theta_term_count(q) == want
        assert bc == want + 1
        assert abs(theta_truncated(q) - bv) < 1e-12


def test_frozen_counts_and_values(sp_a1, sp_a2, sp_e8):
    q = ThetaQuery(sp_a1, GENERIC_Z, base_tube(sp_a1), 6.0)
    assert theta_term_count(q) == 11648
    v = theta_truncated(q)
    assert abs(v - (1.980857485742 + 0.009518599021j)) < 1e-10

    q = ThetaQuery(sp_a2, GENERIC_Z, base_tube(sp_a2), 6.0)
    assert theta_term_count(q) == 24814
    v = theta_truncated(q)
    assert abs(v - (1.987544436315 + 0.028535502039j)) < 1e-10

    q = ThetaQuery(sp_e8, 1j * np.eye(2), base_tube(sp_e8), 2.0)
    assert theta_term_count(q) == 608
    v = theta_truncated(q)
    assert abs(v.real - 2.7969487894) < 1e-9
    assert abs(v.imag) < 1e-12


def test_shell_counts_frozen(sp_a1, sp_e8):
    assert majorant_shell_counts(sp_a1, 6) == [1, 8, 26, 48, 72, 112, 144]
    assert majorant_shell_counts(sp_e8, 8) == [
        1, 8, 264, 1952, 7944, 25008, 64416, 134464, 253704,
    ]


@pytest.mark.parametrize("name,T", [("E8", 14), ("A2", 60), ("D4", 20)])
def test_shell_counts_against_direct_convolution(name, T):
    def convolve(a, b):
        out = [0] * (T + 1)
        for i, ai in enumerate(a):
            for j in range(T + 1 - i):
                out[i + j] += ai * b[j]
        return out

    sp = space_for(load_gram(name))
    r1 = [2 if t and math.isqrt(t) ** 2 == t else int(t == 0)
          for t in range(T + 1)]
    rS = [1] + [2 * len(vectors_of_norm(sp.L, t)) for t in range(1, T + 1)]
    r2 = convolve(r1, r1)
    assert majorant_shell_counts(sp, T) == convolve(rS, convolve(r2, r2))


def test_translation_periodicity(sp_a2, sp_e8):
    for sp, B in ((sp_a2, 6.0), (sp_e8, 3.0)):
        W = random_point(sp, np.random.default_rng(3))
        base = theta_truncated(ThetaQuery(sp, GENERIC_Z, W, B))
        for T in ([[1, 0], [0, 1]], [[2, 1], [1, 0]], [[0, 1], [1, 3]]):
            shifted = theta_truncated(
                ThetaQuery(sp, GENERIC_Z + np.array(T), W, B)
            )
            assert abs(base - shifted) < 1e-13


def test_unimodular_conjugation(sp_a2, sp_e8):
    for sp, B in ((sp_a2, 6.0), (sp_e8, 3.0)):
        W = random_point(sp, np.random.default_rng(3))
        base = theta_truncated(ThetaQuery(sp, GENERIC_Z, W, B))
        for U in ([[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 1]]):
            Ua = np.array(U)
            conj = theta_truncated(
                ThetaQuery(sp, Ua @ GENERIC_Z @ Ua.T, W, B)
            )
            assert abs(base - conj) < 1e-12


def test_orthogonal_group_invariance(sp_a2, sp_e8):
    """Moving the tube point by a group word leaves the sum unchanged at
    matched intrinsic truncation, term for term."""
    rng = np.random.default_rng(7)
    for sp, B in ((sp_a2, 6.0), (sp_e8, 3.4)):
        for _ in range(2):
            W = random_point(sp, rng)
            g = random_word(sp, rng, length=4)
            q1 = ThetaQuery(sp, GENERIC_Z, W, B)
            q2 = ThetaQuery(sp, GENERIC_Z, act(g, W), B)
            assert theta_term_count(q1) == theta_term_count(q2)
            assert abs(theta_truncated(q1) - theta_truncated(q2)) < 1e-10


def test_hermiticity_at_zero_real_part(sp_a1, sp_a2, sp_e8):
    Y = np.array([[1.2, 0.3], [0.3, 0.8]])
    for sp, B in ((sp_a1, 8.0), (sp_a2, 6.0), (sp_e8, 3.0)):
        W = random_point(sp, np.random.default_rng(11))
        v = theta_truncated(ThetaQuery(sp, 1j * Y, W, B))
        assert abs(v.imag) < 1e-12


def test_big_theta_prefactor(sp_a2):
    q = ThetaQuery(sp_a2, GENERIC_Z, base_tube(sp_a2), 4.0)
    det = float(np.linalg.det(GENERIC_Z.imag))
    assert abs(big_theta(q) - det ** 2 * theta_truncated(q)) < 1e-12


def test_tail_bound_monotone(sp_a1):
    R = base_majorant(sp_a1)
    Y = np.eye(2)
    vals = [tail_bound(B, Y, R) for B in (4.0, 6.0, 9.0, 14.0, 25.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert tail_bound(60.0, Y, R) < 1e-40


def test_tail_bound_eigenvalue_doubling(sp_a1):
    R = base_majorant(sp_a1)
    slow = tail_bound(8.0, np.diag([0.5, 2.0]), R)
    fast = tail_bound(8.0, np.diag([1.0, 2.0]), R)
    assert fast < slow


def test_tail_bound_dominates_refinement(sp_a1, sp_a2):
    """Doubling the truncation changes the value by no more than the
    certified tail of the coarser run."""
    rng = np.random.default_rng(23)
    for _ in range(10):
        sp = sp_a1 if rng.random() < 0.5 else sp_a2
        W = random_point(sp, rng)
        a = rng.uniform(0.9, 1.5)
        b = rng.uniform(0.9, 1.5)
        c = rng.uniform(-0.3, 0.3)
        Y = np.array([[a, c], [c, b]])
        X = rng.uniform(-0.5, 0.5, size=(2, 2))
        X = X + X.T
        Z = X + 1j * Y
        B = rng.uniform(3.0, 4.5)
        v1 = theta_truncated(ThetaQuery(sp, Z, W, B))
        v2 = theta_truncated(ThetaQuery(sp, Z, W, 2 * B))
        assert abs(v1 - v2) <= tail_bound(B, Y, majorant_at(sp, W))


def test_tail_details_constants(sp_a1):
    d = tail_bound_details(10.0, np.eye(2), base_majorant(sp_a1))
    assert d["dimension"] == 10
    assert 0 < d["lambda_min"] <= d["lambda_max"]
    assert d["bound"] < 1e-7


def test_factored_diagonal_matches_direct(sp_a1):
    y1, y2 = 1.3, 0.9
    fv, ft = theta_diag_factored(sp_a1, y1, y2, 30)
    Z = np.diag([y1 * 1j, y2 * 1j])
    q = ThetaQuery(sp_a1, Z, base_tube(sp_a1), 14.0)
    direct = theta_truncated(q)
    R = base_majorant(sp_a1)
    budget = ft + tail_bound(14.0, Z.imag, R)
    assert abs(fv - direct) <= budget
    assert abs(fv - direct) < 1e-10


def test_single_sum_positive_decreasing(sp_a1):
    v1, t1 = gauss_single_sum(sp_a1, 0.8, 25)
    v2, t2 = gauss_single_sum(sp_a1, 1.6, 25)
    assert v1 > v2 > 1.0
    assert t1 < 1e-12 and t2 < 1e-12


def test_siegel_inversion_rank8(sp_e8):
    """Inverting the Siegel variable multiplies the normalized sum by the
    inverse fourth power of its determinant.  Checked on the diagonal
    through the factored path, with both certified tails below 1e-7."""
    alpha = 1.2
    T = 14
    v_in, t_in = theta_diag_factored(sp_e8, 1 / alpha, 1 / alpha, T)
    v_out, t_out = theta_diag_factored(sp_e8, alpha, alpha, T)
    assert t_in < 1e-7 and t_out < 1e-7
    lhs = ((1 / alpha) ** 2) ** 5 * v_in
    det_z = (alpha * 1j) ** 2
    rhs = det_z ** -4.0 * (alpha ** 2) ** 5 * v_out
    assert abs(lhs - rhs) < 1e-5
    assert abs(lhs - rhs) <= 10 * (t_in + abs(det_z) ** -4 * t_out) + 1e-9


def test_report_schema(sp_a2):
    rep = theta_report(ThetaQuery(sp_a2, GENERIC_Z, base_tube(sp_a2), 2.0))
    assert set(rep) == {"classes", "B", "value", "exhaustive", "tail_bound"}
    assert rep["classes"] == 103
    assert rep["exhaustive"] is True
    assert rep["tail_bound"] > 0


def test_query_validation(sp_a1):
    W = base_tube(sp_a1)
    bad = GENERIC_Z.copy()
    bad[0, 1] += 0.1
    with pytest.raises(ValueError):
        ThetaQuery(sp_a1, bad, W, 2.0)
    with pytest.raises(ValueError):
        ThetaQuery(sp_a1, np.array([[1.0, 0], [0, 1.0]]) + 0j, W, 2.0)
    with pytest.raises(ValueError):
        ThetaQuery(sp_a1, GENERIC_Z, W, -1.0)


def test_budget_guard(sp_e8):
    with pytest.raises(BudgetExceeded):
        theta_truncated(
            ThetaQuery(sp_e8, 1j * np.eye(2), base_tube(sp_e8), 4.0, cap=1000)
        )


def test_report_refuses_a_ball_past_int64(sp_a2):
    # the top layer's 5.8e19 candidates used to wrap in the int64 cast,
    # and the report came back as one class, value 1, "exhaustive"
    q = ThetaQuery(sp_a2, 2j * np.eye(2), base_tube(sp_a2), 1e40)
    with pytest.raises(BudgetExceeded,
                       match=r"layer 11 holds 5\.774e\+19 candidates"):
        theta_report(q)


def test_cli_theta_row_flags_a_vacuous_tail():
    from orthokleis.cli import cmd_eval_theta

    def row(name):
        return cmd_eval_theta(space_for(load_gram(name)), 3.0)[0]

    a2, e8 = row("A2"), row("E8")
    # A2: bound 0.021 against |v1| + |v2| = 2.06, so within_tail tests something
    assert a2["tail_vacuous"] is False and a2["tail_bound"] < 0.1
    # E8: bound 1.18e4, which no pair of values near 1 can exceed
    assert e8["tail_vacuous"] is True and e8["tail_bound"] > 1e4
    for r in (a2, e8):
        total = abs(complex(*r["value"])) + abs(complex(*r["refined_value"]))
        assert r["tail_vacuous"] == (r["tail_bound"] >= total)


def plain_enumeration_sum(space, Z, W, B):
    """(value, nonzero terms) over every ell of the plain enumeration,
    both of each pair {ell, -ell}, with the phase forms in python ints."""
    Q = np.kron(Z.imag, majorant_at(space, W))
    pts = ellipsoid_points(Q, B, 10 ** 7)
    m = space.dim + 2
    S1 = np.array(space.S1_int, dtype=object)
    A1, A2 = pts[:, :m].astype(object), pts[:, m:].astype(object)
    s11, s12, s22 = (((P @ S1) * R).sum(axis=1)
                     for P, R in ((A1, A1), (A1, A2), (A2, A2)))
    X = Z.real
    phase = np.array([float(a) * X[0, 0] + 2.0 * float(b) * X[0, 1]
                      + float(c) * X[1, 1] for a, b, c in zip(s11, s12, s22)])
    F = pts.astype(float)
    decay = ((F @ Q) * F).sum(axis=1)
    vals = np.exp(1j * math.pi * phase - math.pi * decay)
    return 1.0 + complex(vals.sum()), pts.shape[0]


@pytest.mark.parametrize("name,B", [("A2", 6.0), ("D4", 4.0)])
def test_half_sum_matches_plain_enumeration(name, B):
    """One row per pair {ell, -ell}, evaluated in the LLL basis, against
    the plain enumeration at moved points with nonzero X."""
    sp = space_for(load_gram(name))
    rng = np.random.default_rng(29)
    for _ in range(2):
        W = act(random_word(sp, rng, length=4), random_point(sp, rng))
        q = ThetaQuery(sp, GENERIC_Z, W, B)
        want, terms = plain_enumeration_sum(sp, GENERIC_Z, W, B)
        assert terms > 1000
        assert theta_term_count(q) == terms
        assert abs(theta_truncated(q) - want) < 1e-12


def test_e8_orbit_point_term_count(sp_e8):
    """E8 at B=5 and W = h<base>: 773344 nonzero terms, as at the base
    point, so 773345 classes with the zero matrix."""
    h = (translation(sp_e8, [1, 0, -1, -1, -1, -1, 1, 1, 1, 1])
         @ heisenberg(sp_e8, [0, -1, 0, 0, 1, -1, 0, 1],
                      [0, -1, -1, -1, 1, 1, 0, 0]))
    rep = theta_report(ThetaQuery(sp_e8, GENERIC_Z,
                                  act(h, base_tube(sp_e8)), 5.0))
    assert rep["classes"] == 773345


def reference_term_data(q):
    """The whole-array evaluation the blocked one replaced: (value,
    nonzero terms, s11, s12x2, s22), each phase form by its own
    `quad_rows` call and the decay by one more pass over the rows."""
    Q = np.kron(q.Y, majorant_at(q.space, q.W))
    U, rows = reduced_ellipsoid_points(Q, q.B, q.cap, half=True)
    S1 = np.array(q.space.S1_int, dtype=object)
    s11, s12x2, s22 = (
        quad_rows(congruent_form(np.kron(E, S1), U), rows).astype(float)
        for E in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 1]]))
    Yf = rows.astype(float)
    decay = ((Yf @ (U.T @ Q @ U)) * Yf).sum(axis=1)
    X = q.X
    phase = s11 * X[0, 0] + s12x2 * X[0, 1] + s22 * X[1, 1]
    vals = np.exp(1j * math.pi * phase - math.pi * decay)
    value = 1.0 + 2.0 * complex(vals.sum())
    return value, 2 * rows.shape[0], s11, s12x2, s22


def blocked_phases(q):
    """The three phase vectors of `_term_blocks`, blocks joined."""
    blocks = list(theta._term_blocks(q))
    return [np.concatenate([b[j] for b in blocks]) for j in range(3)]


def assert_matches_reference(q, want):
    value, terms, *phases = want
    got_value, got_terms = theta._term_data(q)
    assert got_terms == terms
    assert abs(got_value - value) <= 1e-13 * abs(value)
    for got, ref in zip(blocked_phases(q), phases):
        assert np.array_equal(got, ref)


def queries(name, B):
    """Queries at the base point and at one moved point."""
    sp = space_for(load_gram(name))
    rng = np.random.default_rng(31)
    moved = act(random_word(sp, rng, length=4), random_point(sp, rng))
    return [ThetaQuery(sp, GENERIC_Z, W, B) for W in (base_tube(sp), moved)]


# row counts (base, moved): A2 B=4 1131/993, D4 B=3 392/462 and E8 B=3
# 2336/3427 fit in one block; A2 B=6 12407/11978, D4 B=5 13496/13862 and
# E8 B=4 44052/34665 span several, the last one partial
@pytest.mark.parametrize("name,B", [("A2", 4.0), ("A2", 6.0), ("D4", 3.0),
                                    ("D4", 5.0), ("E8", 3.0), ("E8", 4.0)])
def test_blocked_evaluation_matches_whole_array(name, B, monkeypatch):
    for q in queries(name, B):
        want = reference_term_data(q)
        rows = want[1] // 2
        assert_matches_reference(q, want)
        # a block size dividing the row count: the last block is full
        divisor = next(d for d in range(2, rows + 1) if rows % d == 0)
        monkeypatch.setattr(theta, "ROW_BLOCK", rows // divisor)
        assert_matches_reference(q, want)
        monkeypatch.setattr(theta, "ROW_BLOCK", rows)
        assert_matches_reference(q, want)
        monkeypatch.undo()


@pytest.mark.parametrize("name,B", [("A2", 6.0), ("D4", 4.0), ("E8", 3.0)])
def test_blocked_evaluation_past_the_float_bound(name, B, monkeypatch):
    """With the exactness limit lowered past every bound, each block takes
    its phases from quad_rows' int64 route: the same integers."""
    for q in queries(name, B):
        want = reference_term_data(q)
        monkeypatch.setattr(theta, "FLOAT64_EXACT", 1)
        monkeypatch.setattr(intmat, "FLOAT64_EXACT", 1)
        assert_matches_reference(q, want)
        monkeypatch.undo()


def test_e8_theta_report_memory(sp_e8):
    """One E8 B=5 report at W = h<base> (the benchmark's theta seed 3)
    peaks below 150 MiB: whole-array evaluation peaked at 224 MiB, and the
    enumeration alone peaks near 136 MiB."""
    h = (translation(sp_e8, [-1, -1, 0, -1, 0, 0, 0, 0, 0, 0])
         @ heisenberg(sp_e8, [-1, 0, 1, -1, -1, 1, -1, 0],
                      [0, -1, 0, 1, 1, 0, 0, 1]))
    q = ThetaQuery(sp_e8, GENERIC_Z, act(h, base_tube(sp_e8)), 5.0)
    majorant_at(sp_e8, q.W)  # fill the memo first: the peak is the report's
    tracemalloc.start()
    try:
        rep = theta_report(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["classes"] == 773345
    assert peak < 150 * 2 ** 20
