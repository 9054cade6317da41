"""Tests for the bordered orthogonal group and its tube-domain action."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from orthokleis import orthogroup
from orthokleis.errors import DomainExit, IsotropicReflectionVector, NonIntegralEmbed
from orthokleis.intmat import fraction_inverse, mat_mul, mat_transpose
from orthokleis.lattice import load_gram
from orthokleis.orthogroup import (
    OrthElement,
    act,
    automorphy,
    builders,
    heisenberg,
    identity_element,
    in_identity_component,
    inverse_closed_form,
    levi,
    projective_column,
    random_point,
    random_word,
    reflection_matrix,
    reflection_pair,
    rotation,
    scale,
    space_for,
    translation,
)


@pytest.fixture(scope="module")
def sp_a2():
    return space_for(load_gram("A2"))


@pytest.fixture(scope="module")
def sp_e8():
    return space_for(load_gram("E8"))


@pytest.fixture(scope="module")
def sp_a1():
    return space_for(load_gram("A1"))


def test_base_point_bracket(sp_a2):
    # the bilinear bracket at the base point: 2*(i*i) - 0 = -2
    Zb = sp_a2.base_point()
    assert sp_a2.s0_bracket(Zb.Z) == pytest.approx(-2.0)


def test_base_point_cone(sp_e8):
    Zb = sp_e8.base_point()
    assert Zb.q0_im() == pytest.approx(1.0)


def test_tube_point_rejects_bad_imaginary(sp_a2):
    Z = np.zeros(4, dtype=complex)
    Z[0] = -1j
    Z[-1] = 1j
    with pytest.raises(DomainExit):
        from orthokleis.orthogroup import TubePoint
        TubePoint(sp_a2, Z)


def test_translation_acts_by_addition(sp_a2):
    rng = np.random.default_rng(11)
    lam = [2, -1, 3, 1]
    g = translation(sp_a2, lam)
    assert g.exact
    Z = random_point(sp_a2, rng)
    W = act(g, Z)
    assert np.allclose(W.Z, Z.Z + np.array(lam))
    assert automorphy(g, Z) == pytest.approx(1.0)


def test_scale_acts_by_dilation(sp_a2):
    rng = np.random.default_rng(12)
    Z = random_point(sp_a2, rng)
    g = scale(sp_a2, 2.0)
    W = act(g, Z)
    assert np.allclose(W.Z, 2.0 * Z.Z)


def test_rotation_automorphy_is_mobius_denominator(sp_a2):
    rng = np.random.default_rng(13)
    Z = random_point(sp_a2, rng)
    D = ((2, 1), (1, 1))
    g = rotation(sp_a2, D)
    j = automorphy(g, Z)
    assert j == pytest.approx(1 * Z.tau + 1)


def test_rotation_moves_last_coordinate_by_mobius(sp_a2):
    # the last coordinate transforms by the fractional-linear rule in tau
    rng = np.random.default_rng(14)
    Z = random_point(sp_a2, rng)
    (a, b), (c, d) = ((1, 2), (0, 1))
    g = rotation(sp_a2, ((a, b), (c, d)))
    W = act(g, Z)
    assert W.tau == pytest.approx((a * Z.tau + b) / (c * Z.tau + d))


def test_builder_matrices_preserve_bordered_form(sp_a2, sp_e8):
    rng = np.random.default_rng(15)
    for space in (sp_a2, sp_e8):
        n = space.n
        checks = [
            translation(space, list(range(1, space.dim + 1))),
            heisenberg(space, [1] * n, [0] * n),
            heisenberg(space, [0] * n, [2] + [-1] * (n - 1)),
            rotation(space, ((0, -1), (1, 0))),
            scale(space, 1.7),
        ]
        for g in checks:
            gf = g.asfloat()
            assert np.abs(gf.T @ space.S1 @ gf - space.S1).max() < 1e-9
            assert np.linalg.det(gf) == pytest.approx(1.0)


def test_unipotent_pair_exact_entries(sp_a2):
    g = heisenberg(sp_a2, [1, 0], [0, 1])
    m = g.mat
    # second row carries x^t S, S[x]/2 and x^t S y
    assert list(m[1][2:4]) == [2, -1]
    assert m[1][4] == 1
    assert m[1][5] == -1
    # first row carries y^t S and S[y]/2
    assert list(m[0][2:4]) == [-1, 2]
    assert m[0][5] == 1


def test_cocycle_over_random_words(sp_a2):
    rng = np.random.default_rng(16)
    for _ in range(60):
        g = random_word(sp_a2, rng, length=3)
        h = random_word(sp_a2, rng, length=3)
        Z = random_point(sp_a2, rng)
        hZ = act(h, Z)
        lhs = automorphy(g @ h, Z)
        rhs = automorphy(g, hZ) * automorphy(h, Z)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_action_is_compatible_with_multiplication(sp_a2):
    rng = np.random.default_rng(17)
    for _ in range(40):
        g = random_word(sp_a2, rng, length=3)
        h = random_word(sp_a2, rng, length=3)
        Z = random_point(sp_a2, rng)
        left = act(g @ h, Z)
        right = act(g, act(h, Z))
        assert np.allclose(left.Z, right.Z, atol=1e-8)


def test_cone_norm_scales_by_automorphy(sp_a2, sp_e8):
    # Q0[Im g<Z>] = Q0[Im Z] / |j(g, Z)|^2
    rng = np.random.default_rng(18)
    for space in (sp_a2, sp_e8):
        for _ in range(25):
            g = random_word(space, rng, length=4)
            Z = random_point(space, rng)
            W = act(g, Z)
            j = automorphy(g, Z)
            assert W.q0_im() == pytest.approx(Z.q0_im() / abs(j) ** 2, rel=1e-8)


def test_projective_column_transforms_linearly(sp_a2):
    # g applied to the projective column equals j times the image column
    rng = np.random.default_rng(19)
    g = random_word(sp_a2, rng, length=4)
    Z = random_point(sp_a2, rng)
    W = act(g, Z)
    j = automorphy(g, Z)
    assert np.allclose(g.asfloat() @ projective_column(sp_a2, Z.Z),
                       j * projective_column(sp_a2, W.Z), atol=1e-8)


def test_inverse_closed_form_exact(sp_a2, sp_e8):
    rng = np.random.default_rng(20)
    for space in (sp_a2, sp_e8):
        for _ in range(10):
            g = random_word(space, rng, length=4)
            ginv = inverse_closed_form(g)
            assert ginv.exact
            prod = (g @ ginv).mat
            m = space.dim + 2
            assert all(prod[i][j] == int(i == j) for i in range(m) for j in range(m))


def test_inverse_block_display(sp_a2):
    # the inverse rearranges blocks: corners swap, edge vectors pick up S0
    rng = np.random.default_rng(21)
    space = sp_a2
    g = random_word(space, rng, length=5)
    ginv = inverse_closed_form(g).asfloat()
    gf = g.asfloat()
    S0 = space.S0
    S0inv = space.S0_inv_np
    alpha, beta = gf[0, 0], gf[0, -1]
    avec, bvec = gf[0, 1:-1], gf[1:-1, 0]
    A = gf[1:-1, 1:-1]
    cvec, dvec = gf[1:-1, -1], gf[-1, 1:-1]
    gam, delta = gf[-1, 0], gf[-1, -1]
    expect = np.zeros_like(gf)
    expect[0, 0] = delta
    expect[0, 1:-1] = cvec @ S0
    expect[0, -1] = beta
    expect[1:-1, 0] = S0inv @ dvec
    expect[1:-1, 1:-1] = S0inv @ A.T @ S0
    expect[1:-1, -1] = S0inv @ avec
    expect[-1, 0] = gam
    expect[-1, 1:-1] = bvec @ S0
    expect[-1, -1] = alpha
    assert np.allclose(ginv, expect, atol=1e-9)


def test_inverse_float_path(sp_a2):
    g = scale(sp_a2, 3.0) @ reflection_pair(sp_a2, [1.0, 0.5, 0.25, 1.0],
                                            [2.0, 0.0, 0.0, 0.5])
    ginv = inverse_closed_form(g)
    assert not ginv.exact
    assert np.allclose(g.asfloat() @ ginv.asfloat(), np.eye(sp_a2.dim + 2),
                       atol=1e-9)


def test_reflection_matrix_properties(sp_a2):
    w = np.array([1.0, 0.3, -0.2, 0.5])
    R = reflection_matrix(sp_a2, w)
    # involution fixing the orthogonal complement, negating w
    assert np.allclose(R @ R, np.eye(4), atol=1e-12)
    assert np.allclose(R @ w, -w, atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(-1.0)


def test_reflection_isotropic_guard(sp_a2):
    # (1, 0, 0, 0) is isotropic for the bordered form
    with pytest.raises(IsotropicReflectionVector):
        reflection_matrix(sp_a2, [1.0, 0.0, 0.0, 0.0])


def test_reflection_pair_in_group(sp_e8):
    rng = np.random.default_rng(22)
    u = rng.uniform(-1, 1, size=sp_e8.dim)
    v = rng.uniform(-1, 1, size=sp_e8.dim)
    g = reflection_pair(sp_e8, u, v)
    gf = g.asfloat()
    assert np.abs(gf.T @ sp_e8.S1 @ gf - sp_e8.S1).max() < 1e-8
    assert np.linalg.det(gf) == pytest.approx(1.0)


def test_levi_requires_middle_form_preservation(sp_a1):
    bad = np.eye(3, dtype=int)
    bad[0, 0] = 2
    with pytest.raises(ValueError):
        levi(sp_a1, bad)


def test_identity_component_detection(sp_a2):
    m = sp_a2.dim + 2
    # diag(-1, 1, ..., 1, -1) preserves the form but swaps the cone sheets
    swap = np.eye(m, dtype=int)
    swap[0, 0] = -1
    swap[-1, -1] = -1
    g = OrthElement(sp_a2, swap, exact=True)
    assert not in_identity_component(g)
    assert in_identity_component(identity_element(sp_a2))
    assert in_identity_component(rotation(sp_a2, ((0, -1), (1, 0))))


def test_center_acts_trivially(sp_a2):
    # diag(D*, 1, D) at D = -1 lands back in the domain with Z -> (w, -z, t)
    rng = np.random.default_rng(23)
    g = rotation(sp_a2, ((-1, 0), (0, -1)))
    Z = random_point(sp_a2, rng)
    W = act(g, Z)
    assert W.omega == pytest.approx(Z.omega)
    assert W.tau == pytest.approx(Z.tau)
    assert np.allclose(W.zvec, -Z.zvec)
    assert in_identity_component(g)


def test_builders_dispatcher(sp_a2):
    g1 = builders(sp_a2, "translation", lam=[1, 0, 0, 2])
    g2 = builders(sp_a2, "rotation", D=((1, 1), (0, 1)))
    g3 = builders(sp_a2, "scale", t=2.5)
    assert g1.exact and g2.exact and not g3.exact
    with pytest.raises(ValueError):
        builders(sp_a2, "nonsense")


def test_exactness_propagates_through_products(sp_e8):
    rng = np.random.default_rng(24)
    g = random_word(sp_e8, rng, length=6)
    assert g.exact
    assert g.mat.dtype == object
    h = g @ scale(sp_e8, 1.5)
    assert not h.exact


def test_json_roundtrip(sp_a2):
    rng = np.random.default_rng(25)
    g = random_word(sp_a2, rng, length=4)
    data = g.to_json()
    h = OrthElement.from_json(sp_a2, data)
    assert (h.mat == g.mat).all()


def test_automorphy_nonvanishing_guard(sp_a1):
    # inverting through the cusp at a point with tau = i and omega = i:
    # rotation by the standard inversion has automorphy tau, nonzero here
    g = rotation(sp_a1, ((0, -1), (1, 0)))
    Zb = sp_a1.base_point()
    assert abs(automorphy(g, Zb)) == pytest.approx(1.0)
    W = act(g, Zb)
    assert W.tau == pytest.approx(1j)


# ------------------------------------------- exact arithmetic vs. reference
#
# The list and Fraction arithmetic the group layer used before its exact
# routes moved to int64 under a headroom bound, kept verbatim as the oracle.

@lru_cache(maxsize=None)
def _s1_inv_fractions(space):
    return fraction_inverse(space.S1_int)


def reference_matmul(g, h):
    return mat_mul([[int(x) for x in r] for r in g.mat],
                   [[int(x) for x in r] for r in h.mat])


def reference_inverse(g):
    space = g.space
    gt = mat_transpose([[int(x) for x in row] for row in g.mat])
    prod = mat_mul(mat_mul(_s1_inv_fractions(space), gt), space.S1_int)
    out = []
    for row in prod:
        out_row = []
        for x in row:
            f = Fraction(x)
            if f.denominator != 1:
                raise NonIntegralEmbed(f"inverse entry {f} is not integral")
            out_row.append(f.numerator)
        out.append(out_row)
    return out


def reference_check(space, mat):
    g = [[int(x) for x in row] for row in mat]
    gt_s1_g = mat_mul(mat_mul(mat_transpose(g), space.S1_int), g)
    return gt_s1_g == space.S1_int


def _exact_json(rows):
    return {"exact": True, "mat": rows}


def _accepts(space, mat):
    try:
        OrthElement(space, mat, exact=True)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", ["A2", "D4", "E8"])
def test_exact_arithmetic_matches_reference(name):
    space = space_for(load_gram(name))
    for seed in range(100):
        g = random_word(space, np.random.default_rng(seed), length=3)
        # the same draws one letter at a time, multiplied by the reference
        rng = np.random.default_rng(seed)
        ref = identity_element(space)
        for _ in range(3):
            letter = random_word(space, rng, length=1)
            ref = OrthElement(space, reference_matmul(ref, letter), exact=True,
                              check=False)
        assert g.to_json() == ref.to_json()
        h = random_word(space, rng, length=3)
        assert (g @ h).to_json() == _exact_json(reference_matmul(g, h))
        assert inverse_closed_form(g).to_json() == _exact_json(reference_inverse(g))


def test_relation_check_matches_reference(sp_a2, sp_e8):
    rng = np.random.default_rng(26)
    for space in (sp_a2, sp_e8):
        m = space.dim + 2
        swap = np.eye(m, dtype=int)
        swap[0, 0] = swap[-1, -1] = -1
        mats = [swap, 2 * np.eye(m, dtype=int)]
        for _ in range(3):
            g = random_word(space, rng, length=4)
            mats.append(g.mat)
            for i, j in rng.integers(0, m, size=(6, 2)):
                for delta in (1, -1):
                    bad = g.mat.copy()
                    bad[i, j] += delta
                    mats.append(bad)
        verdicts = [_accepts(space, M) for M in mats]
        assert verdicts == [reference_check(space, M) for M in mats]
        assert verdicts[0] and not verdicts[1] and verdicts[2]


def test_large_entries_take_the_python_int_route(sp_a2, monkeypatch):
    # entries near 2^40: every product and inverse bound passes 2^63
    big = 2 ** 20 + 7
    g = translation(sp_a2, [big, -big, 3, big]) @ rotation(sp_a2, ((0, -1), (1, 0)))
    g = g @ translation(sp_a2, [-big, 1, big, big])
    assert max(abs(int(x)) for x in g.mat.ravel()) > 2 ** 31
    chosen = []
    real = orthogroup.int_dtype

    def spy(bound):
        chosen.append(real(bound))
        return chosen[-1]

    monkeypatch.setattr(orthogroup, "int_dtype", spy)
    gg = g @ g
    ginv = inverse_closed_form(g)
    assert chosen == [object, object]
    assert gg.to_json() == _exact_json(reference_matmul(g, g))
    assert ginv.to_json() == _exact_json(reference_inverse(g))
    one = (g @ ginv).mat
    assert all(type(x) is int for x in one.ravel())
    assert np.array_equal(one, np.eye(sp_a2.dim + 2, dtype=int))


def test_non_integral_inverse_refused_as_before():
    for name, integral in (("A2", False), ("D4", True), ("E8", True)):
        space = space_for(load_gram(name))
        m = space.dim + 2
        M = np.eye(m, dtype=int)
        M[2, 3] += 1
        g = OrthElement(space, M, exact=True, check=False)
        if integral:
            assert inverse_closed_form(g).to_json() == _exact_json(reference_inverse(g))
            continue
        with pytest.raises(NonIntegralEmbed) as new:
            inverse_closed_form(g)
        with pytest.raises(NonIntegralEmbed) as old:
            reference_inverse(g)
        assert str(new.value) == str(old.value) == "inverse entry 5/3 is not integral"


def test_levi_accepts_numpy_integer_entries(sp_a2):
    A = -np.eye(sp_a2.dim, dtype=np.int64)
    boxed = np.array([[np.int64(x) for x in row] for row in A], dtype=object)
    assert all(type(x) is np.int64 for x in boxed.ravel())
    g = levi(sp_a2, boxed)
    assert g.exact
    assert all(type(x) is int for x in g.mat.ravel())
    assert g.to_json() == levi(sp_a2, A).to_json()
