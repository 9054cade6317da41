"""Tests for majorant transport and the quotient-determinant identity."""

import numpy as np
import pytest

from orthokleis.lattice import load_gram
from orthokleis.majorant import (
    base_majorant,
    base_majorant_rows,
    clear_majorant_cache,
    klingen_quotient,
    lower_rows_matrix,
    majorant_at,
    transport_to,
)
from orthokleis.orthogroup import (
    TubePoint,
    act,
    inverse_closed_form,
    levi,
    random_point,
    random_word,
    reflection_matrix,
    space_for,
)


@pytest.fixture(scope="module")
def sp_a2():
    return space_for(load_gram("A2"))


@pytest.fixture(scope="module")
def sp_e8():
    return space_for(load_gram("E8"))


def test_base_majorant_is_a_majorant(sp_a2, sp_e8):
    for space in (sp_a2, sp_e8):
        R = base_majorant(space)
        assert np.abs(R @ space.S1_inv_np @ R - space.S1).max() < 1e-12
        np.linalg.cholesky(R)  # positive definite


def test_base_majorant_rows_match(sp_e8):
    R = base_majorant(sp_e8)
    rows = np.array(base_majorant_rows(sp_e8), dtype=float)
    assert np.array_equal(R, rows)


def test_transport_reaches_the_point(sp_a2, sp_e8):
    rng = np.random.default_rng(31)
    for space in (sp_a2, sp_e8):
        for _ in range(10):
            Z = random_point(space, rng)
            delta = transport_to(space, Z)
            W = act(delta, space.base_point())
            assert np.abs(W.Z - Z.Z).max() < 1e-8


def test_majorant_at_base_point(sp_a2):
    clear_majorant_cache()
    R = majorant_at(sp_a2, sp_a2.base_point())
    assert np.abs(R - base_majorant(sp_a2)).max() < 1e-10


def test_majorant_positive_definite_and_fixed_determinant(sp_e8):
    # transport multiplies det R by det(delta)^{-2} = 1, so det is constant
    rng = np.random.default_rng(32)
    target = float(np.linalg.det(base_majorant(sp_e8)))
    for _ in range(5):
        Z = random_point(sp_e8, rng)
        R = majorant_at(sp_e8, Z)
        assert np.linalg.eigvalsh(R).min() > 0
        assert np.linalg.det(R) == pytest.approx(target, rel=1e-6)


def test_majorant_condition_away_from_base(sp_a2):
    rng = np.random.default_rng(33)
    for _ in range(10):
        Z = random_point(sp_a2, rng)
        R = majorant_at(sp_a2, Z)
        assert np.abs(R @ sp_a2.S1_inv_np @ R - sp_a2.S1).max() < 1e-8


def test_near_base_direction_uses_stable_fallback(sp_a2):
    # imaginary direction within 1e-8 of the base ray: the direct
    # reflection difference is numerically isotropic, the hop route is not
    y = np.array([1.0, 1e-8, -1e-8, 1.0])
    q = y[0] * y[-1] - 0.5 * float(y[1:-1] @ sp_a2.L.gram_np() @ y[1:-1])
    Z = TubePoint(sp_a2, np.zeros(4) + 1j * y)
    delta = transport_to(sp_a2, Z)
    W = act(delta, sp_a2.base_point())
    assert np.abs(W.Z - Z.Z).max() < 1e-8
    R = majorant_at(sp_a2, Z)
    assert np.abs(R - base_majorant(sp_a2)).max() < 1e-6
    assert q > 0


def test_exact_base_direction(sp_e8):
    y = np.zeros(10)
    y[0] = 2.0
    y[-1] = 2.0
    Z = TubePoint(sp_e8, np.zeros(10) + 1j * y)
    R = majorant_at(sp_e8, Z)
    # pure dilation: R = R_I[diag(t,1,1/t)^{-1}] rescales only the two
    # outermost corner entries, by 1/t^2 and t^2
    expect = base_majorant(sp_e8).copy()
    expect[0, 0] = 1.0 / 4.0
    expect[-1, -1] = 4.0
    assert np.abs(R - expect).max() < 1e-9


def test_well_defined_under_base_stabilizer(sp_a2):
    # composing the transport with a middle-space element fixing the base
    # ray leaves the transported majorant unchanged
    rng = np.random.default_rng(34)
    space = sp_a2
    v0 = np.array([1.0, 0.0, 0.0, 1.0])
    w1 = np.array([0.0, 1.0, 0.0, 0.0])
    w2 = np.array([0.0, 0.3, 1.0, 0.0])
    k0 = reflection_matrix(space, w1) @ reflection_matrix(space, w2)
    assert np.allclose(k0 @ v0, v0)
    Z = random_point(space, rng)
    delta = transport_to(space, Z) @ levi(space, k0, exact=False)
    assert np.abs(act(delta, space.base_point()).Z - Z.Z).max() < 1e-8
    dinv = inverse_closed_form(delta).asfloat()
    R_alt = dinv.T @ base_majorant(space) @ dinv
    assert np.abs(R_alt - majorant_at(space, Z)).max() < 1e-7


def test_equivariance_under_group(sp_a2, sp_e8):
    # R at g<Z> equals R_Z[g^{-1}]
    rng = np.random.default_rng(35)
    for space in (sp_a2, sp_e8):
        for _ in range(8):
            g = random_word(space, rng, length=3)
            Z = random_point(space, rng)
            W = act(g, Z)
            ginv = inverse_closed_form(g).asfloat()
            lhs = majorant_at(space, W)
            rhs = ginv.T @ majorant_at(space, Z) @ ginv
            scale_ref = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() / scale_ref < 1e-6


def test_klingen_quotient_base(sp_a2, sp_e8):
    for space in (sp_a2, sp_e8):
        assert klingen_quotient(space, space.base_point()) == pytest.approx(1.0)


def test_quotient_determinant_identity(sp_a2, sp_e8):
    # det(R_Z[L]) * klingen_quotient(g<Z>)^2 = 1 for L the first two
    # columns of g^{-1}
    rng = np.random.default_rng(36)
    for space in (sp_a2, sp_e8):
        for _ in range(12):
            g = random_word(space, rng, length=4)
            Z = random_point(space, rng)
            L = lower_rows_matrix(g)
            R = majorant_at(space, Z)
            det_val = float(np.linalg.det(L.T @ R @ L))
            kq = klingen_quotient(space, act(g, Z))
            assert det_val == pytest.approx(kq ** -2, rel=1e-6)


def test_quotient_determinant_identity_identity_element(sp_a2):
    # g = 1: L = first two columns of the identity; R_Z[L] is the upper
    # left 2x2 block of R_Z, and the identity specializes cleanly
    rng = np.random.default_rng(37)
    Z = random_point(sp_a2, rng)
    R = majorant_at(sp_a2, Z)
    kq = klingen_quotient(sp_a2, Z)
    assert float(np.linalg.det(R[:2, :2])) == pytest.approx(kq ** -2, rel=1e-8)


def test_cache_returns_same_array(sp_a2):
    rng = np.random.default_rng(38)
    Z = random_point(sp_a2, rng)
    R1 = majorant_at(sp_a2, Z)
    R2 = majorant_at(sp_a2, TubePoint(sp_a2, Z.Z.copy()))
    assert R1 is R2


def test_cached_majorant_is_read_only(sp_a2):
    rng = np.random.default_rng(39)
    R = majorant_at(sp_a2, random_point(sp_a2, rng))
    with pytest.raises(ValueError):
        R[0, 0] = 0.0
