"""Rank-2 symplectic action, raising operators, degenerate series classes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orthokleis.errors import (
    ConvergenceGuard,
    NotPositiveDefinite,
    SingularDenominator,
    XDependentInput,
)
from orthokleis.eisenstein import enumerate_isotropic_classes
from orthokleis.exppoly import ExpPoly, PiPoly
from orthokleis.intmat import minors_gcd, row_hnf_transform
from orthokleis.lattice import load_gram
from orthokleis.majorant import base_majorant
from orthokleis.orthogroup import space_for
from orthokleis.siegelops import (
    SiegelPoint,
    SpElement,
    d_lm,
    maass_delta,
    maass_on_det_power,
    one_dim_annihilation,
    one_dim_casimir_residual,
    one_dim_shimura_constant,
    phi2,
    r0_star,
    random_sp_near_identity,
    shimura_power,
    siegel_coset_reps,
    siegel_eisenstein_truncated,
    siegel_value_over,
    sigma_op,
    sp2_act,
    sp_gl,
    sp_identity,
    sp_inversion,
    sp_translation,
    theta_term_symbol,
    translate_coset_classes,
)

BASE_POINT = SiegelPoint(0.2 + 1.3j, -0.1 + 1.1j, 0.05 + 0.25j)


def _d4_setup():
    space = space_for(load_gram("D4"))
    return space, base_majorant(space)


# ---------------------------------------------------------------- points

class TestSiegelPoint:
    def test_cone_membership(self):
        with pytest.raises(NotPositiveDefinite):
            SiegelPoint(1j, 1j, 1.5j)
        with pytest.raises(NotPositiveDefinite):
            SiegelPoint(-1j, 1j, 0)

    def test_matrix_roundtrip(self):
        P = BASE_POINT
        Q = SiegelPoint.from_matrix(P.matrix())
        assert max(abs(a - b) for a, b in zip(P.triple, Q.triple)) == 0

    def test_from_matrix_rejects_asymmetric(self):
        M = np.array([[1j, 0.5], [0.2, 1j]])
        with pytest.raises(ValueError):
            SiegelPoint.from_matrix(M)

    def test_det_y(self):
        P = SiegelPoint(2j, 3j, 1j)
        assert abs(P.det_y() - 5.0) < 1e-15


class TestSymplecticGroup:
    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            SpElement(np.diag([2, 1, 1, 1]))

    def test_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_sp_near_identity(rng, 0.1)
            gi = g.inverse()
            assert np.abs(g.mat @ gi.mat - np.eye(4)).max() < 1e-12

    def test_generators_integral(self):
        T = np.array([[1, 2], [2, -1]])
        for g in (sp_identity(), sp_inversion(), sp_translation(T),
                  sp_gl(np.array([[1, 1], [0, 1]]))):
            m = np.asarray(g.mat, dtype=float)
            assert np.all(m == np.round(m))

    def test_near_identity_is_symplectic(self):
        rng = np.random.default_rng(8)
        J = np.block([[np.zeros((2, 2)), np.eye(2)],
                      [-np.eye(2), np.zeros((2, 2))]])
        for _ in range(10):
            g = random_sp_near_identity(rng).mat
            assert np.abs(g.T @ J @ g - J).max() < 1e-10


class TestAction:
    def test_identity(self):
        W, j = sp2_act(sp_identity(), BASE_POINT)
        assert j == 1
        assert max(abs(a - b) for a, b in zip(W.triple, BASE_POINT.triple)) == 0

    def test_inversion_fixes_ii(self):
        P = SiegelPoint(1j, 1j, 0)
        W, j = sp2_act(sp_inversion(), P)
        assert abs(j - (-1)) < 1e-15
        assert max(abs(a - b) for a, b in zip(W.triple, P.triple)) < 1e-15

    def test_translation(self):
        T = np.array([[3, -1], [-1, 2]])
        W, j = sp2_act(sp_translation(T), BASE_POINT)
        assert j == 1
        assert np.abs(W.matrix() - (BASE_POINT.matrix() + T)).max() < 1e-14

    def test_gl_conjugation(self):
        U = np.array([[2, 1], [1, 1]])
        W, j = sp2_act(sp_gl(U), BASE_POINT)
        want = U @ BASE_POINT.matrix() @ U.T
        assert np.abs(W.matrix() - want).max() < 1e-13
        assert abs(abs(j) - 1) < 1e-13

    def test_imaginary_part_transformation(self):
        """det Im(g<Z>) = det Im(Z) / |det(CZ+D)|^2."""
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_sp_near_identity(rng, 0.2)
            W, j = sp2_act(g, BASE_POINT)
            assert abs(W.det_y() - BASE_POINT.det_y() / abs(j) ** 2) < 1e-12

    def test_cocycle(self):
        rng = np.random.default_rng(33)
        g1 = random_sp_near_identity(rng, 0.1)
        g2 = random_sp_near_identity(rng, 0.1)
        W1, j1 = sp2_act(g2, BASE_POINT)
        W2, j2 = sp2_act(g1, W1)
        W12, j12 = sp2_act(g1 @ g2, BASE_POINT)
        assert abs(j12 - j1 * j2) < 1e-12
        assert max(abs(a - b) for a, b in zip(W2.triple, W12.triple)) < 1e-12

    def test_singular_denominator(self):
        # the inversion denominator is det(Z); pick Z with det 0
        P = object.__new__(SiegelPoint)
        object.__setattr__(P, "z1", 1j)
        object.__setattr__(P, "z2", 1j)
        object.__setattr__(P, "z3", 1j)
        with pytest.raises(SingularDenominator):
            sp2_act(sp_inversion(), P)


# ------------------------------------------------------------- operators

class TestRaisingOperators:
    def test_det_power_eigenvalue_grid(self):
        """delta_alpha (det Y)^u = -phi2(alpha+u)/4 (det Y)^{u-1}; checking
        on a 5x6 rational grid exceeds the polynomial degree of both sides,
        so the formal identity follows."""
        alphas = [Fraction(0), Fraction(1), Fraction(1, 2),
                  Fraction(-2), Fraction(7, 3)]
        us = [Fraction(0), Fraction(1), Fraction(2), Fraction(5, 2),
              Fraction(-1), Fraction(13, 6)]
        for alpha in alphas:
            for u in us:
                assert maass_on_det_power(alpha, u) == -phi2(alpha + u) / 4

    def test_phi2_reflection(self):
        for t in (Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(-7)):
            assert phi2(Fraction(1, 2) - t) == phi2(t)
        assert phi2(Fraction(1, 2)) == 0
        assert phi2(1) == Fraction(1, 2)

    def test_covariance_numeric(self):
        """delta_k(f|_k g) = (delta_k f)|_{k+2} g for real symplectic g,
        checked with Richardson-extrapolated central differences."""
        def ev(poly):
            return lambda P: poly.evaluate(P.triple)

        def slash(fun, k, g, P):
            W, j = sp2_act(g, P)
            return j ** (-k) * fun(W)

        def dz_num(fun, j, h):
            def out(P):
                t = list(P.triple)
                tp, tm = t[:], t[:]
                tp[j - 1] += h
                tm[j - 1] -= h
                dx = (fun(SiegelPoint(*tp)) - fun(SiegelPoint(*tm))) / (2 * h)
                tp, tm = t[:], t[:]
                tp[j - 1] += 1j * h
                tm[j - 1] -= 1j * h
                dy = (fun(SiegelPoint(*tp)) - fun(SiegelPoint(*tm))) / (2 * h)
                return 0.5 * (dx - 1j * dy)
            return out

        def maass_h(fun, k, h):
            def inner(P):
                return P.det_y() ** (k - 0.5) * fun(P)

            def out(P):
                d = (dz_num(dz_num(inner, 2, h), 1, h)(P)
                     - 0.25 * dz_num(dz_num(inner, 3, h), 3, h)(P))
                return P.det_y() ** (-k + 0.5) * d
            return out

        def maass_num(fun, k, h=2e-3):
            f1, f2 = maass_h(fun, k, h), maass_h(fun, k, h / 2)
            return lambda P: (4 * f2(P) - f1(P)) / 3

        f = (ExpPoly.single(PiPoly.const(1), p=Fraction(1, 2), mono=(1, 0, 0),
                            A=(1, 0, 0), B=(2, 1, 0))
             + ExpPoly.single(PiPoly.pi_times(2), p=0, mono=(0, 1, 1),
                              A=(0, 1, 1), B=(1, 1, 0))
             + ExpPoly.single(PiPoly.const(0, 1), p=1, B=(1, 2, 0)))
        k = Fraction(5, 2)
        df = maass_delta(f, k)
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_sp_near_identity(rng, 0.04)
            lhs = maass_num(
                lambda Q: slash(ev(f), float(k), g, Q), float(k))(BASE_POINT)
            rhs = slash(ev(df), float(k) + 2, g, BASE_POINT)
            assert abs(lhs - rhs) <= 1e-6 * max(abs(rhs), 1e-9)

    def test_composition_pull_out(self):
        """The det-power twist commutes through the raising chain:
        delta^{(r)}_k (det^a f) = det^a delta^{(r)}_{k+a} f."""
        space, R = _d4_setup()
        ell = enumerate_isotropic_classes(space, R, 8.0)[0].matrix()
        th = theta_term_symbol(space, ell, R)
        a = Fraction(3)
        k = Fraction(-2)
        lhs = shimura_power(th.mul_det_power(a), k, 1)
        rhs = shimura_power(th, k + a, 1).mul_det_power(a)
        assert (lhs - rhs).is_zero

    def test_sigma_multiplies_by_trace(self):
        """i sum y_j d/dz_j on a pure Y-exponential equals -(pi/2) tr(BY)
        times the input."""
        space, R = _d4_setup()
        ell = enumerate_isotropic_classes(space, R, 8.0)[0].matrix()
        th = theta_term_symbol(space, ell, R)
        ((_, _, _, B),) = list(th.terms)
        trace = (ExpPoly.single(PiPoly.const(B[0]), mono=(1, 0, 0))
                 + ExpPoly.single(PiPoly.const(B[1]), mono=(0, 1, 0))
                 + ExpPoly.single(PiPoly.const(2 * B[2]), mono=(0, 0, 1)))
        want = (trace * th).scale_poly(PiPoly.pi_times(Fraction(-1, 2)))
        assert (sigma_op(th) - want).is_zero

    def test_d_lm_on_det_power(self):
        """det^{1-l} det(d/dY) det^{l} (det Y)^u carries the Cayley factor
        at shifted exponent."""
        for l in (Fraction(0), Fraction(2), Fraction(1, 2)):
            for u in (Fraction(1), Fraction(5, 2)):
                got = d_lm(ExpPoly.det_power(u), l)
                b = u + 1 - l
                want = ExpPoly.det_power(u).scale(b * (b + Fraction(1, 2)))
                assert (got - want).is_zero

    def test_r0_star_det_power(self):
        def cayley(b):
            return b * (b + Fraction(1, 2))
        for r in (1, 2):
            for u in (Fraction(2), Fraction(7, 2)):
                got = r0_star(ExpPoly.det_power(u), r)
                c = cayley(u) * cayley(u + 2 * r)
                want = ExpPoly.det_power(u + r + 1).scale(c)
                assert (got - want).is_zero

    def test_r0_rejects_x_dependence(self):
        f = ExpPoly.exp_term((1, 0, 0), (1, 1, 0))
        with pytest.raises(XDependentInput):
            r0_star(f, 1)


class TestOneDimensional:
    def test_annihilation_rank4(self):
        out = one_dim_annihilation(4)
        assert out["constant"] == (Fraction(0), Fraction(-1, 2))
        assert out["exponent"] == 2
        assert out["residual"] == 0
        assert out["annihilated"]

    def test_annihilation_rank8(self):
        out = one_dim_annihilation(8)
        assert out["constant"] == (Fraction(-1, 2), Fraction(0))
        assert out["exponent"] == 3
        assert out["residual"] == 0
        assert out["annihilated"]

    def test_chain_constant_closed_form(self):
        """r-fold chain onto y^{(n+2)/2} gives (-i/2)^r r! and exponent
        n/4 + 1."""
        for n in (4, 8, 12):
            r = n // 4
            (cr, ci), t = one_dim_shimura_constant(
                Fraction(-n, 2), Fraction(n + 2, 2), r)
            want = complex(0, -0.5) ** r * math.factorial(r)
            assert abs(complex(cr, ci) - want) < 1e-15
            assert t == Fraction(n, 4) + 1

    def test_negative_control(self):
        """One step past the annihilated exponent the invariant operator
        does not vanish."""
        assert one_dim_casimir_residual(8, Fraction(8, 4) + 2) == 6
        assert one_dim_casimir_residual(4, Fraction(4, 4) + 2) == 4

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            one_dim_annihilation(6)


# ------------------------------------------------- theta term as a symbol

class TestThetaTermSymbol:
    def test_zero_column_pair(self):
        space, R = _d4_setup()
        z = theta_term_symbol(space, np.zeros((8, 2), dtype=int), R)
        assert z == ExpPoly.constant(1)

    def test_isotropic_has_no_x_frequency(self):
        space, R = _d4_setup()
        for cls in enumerate_isotropic_classes(space, R, 8.0)[:5]:
            th = theta_term_symbol(space, cls.matrix(), R)
            ((_, _, A, _),) = list(th.terms)
            assert A == (0, 0, 0)

    def test_generic_pair_matches_direct_formula(self):
        space, R = _d4_setup()
        rng = np.random.default_rng(71)
        S1 = np.array(space.S1_int, dtype=np.int64)
        Rf = np.asarray(R, dtype=float)
        for _ in range(5):
            ell = rng.integers(-2, 3, (8, 2))
            th = theta_term_symbol(space, ell, R)
            z = (0.3 + 1.2j, -0.2 + 1.0j, 0.1 + 0.2j)
            X = np.array([[z[0].real, z[2].real], [z[2].real, z[1].real]])
            Y = np.array([[z[0].imag, z[2].imag], [z[2].imag, z[1].imag]])
            a = ell.T @ S1 @ ell
            b = ell.T @ Rf @ ell
            want = np.exp(1j * math.pi * np.trace(a @ X)
                          - math.pi * np.trace(b @ Y))
            assert abs(th.evaluate(z) - want) < 1e-12


# --------------------------------------- shared structure polynomial, r=1

def _gauss_solve(rows, nun):
    """Exact least-structure solve over Gaussian rationals; returns None
    when the system is inconsistent."""
    def gmul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def gsub(a, b):
        return (a[0] - b[0], a[1] - b[1])

    def ginv(a):
        nrm = a[0] * a[0] + a[1] * a[1]
        return (a[0] / nrm, -a[1] / nrm)

    zero = (Fraction(0), Fraction(0))
    A = [list(r[0]) for r in rows]
    b = [r[1] for r in rows]
    piv = []
    r = 0
    for c in range(nun):
        pr = next((i for i in range(r, len(A)) if A[i][c] != zero), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        b[r], b[pr] = b[pr], b[r]
        inv = ginv(A[r][c])
        A[r] = [gmul(x, inv) for x in A[r]]
        b[r] = gmul(b[r], inv)
        for i in range(len(A)):
            if i != r and A[i][c] != zero:
                f_ = A[i][c]
                A[i] = [gsub(x, gmul(f_, y)) for x, y in zip(A[i], A[r])]
                b[i] = gsub(b[i], gmul(f_, b[r]))
        piv.append(c)
        r += 1
    x = [zero] * nun
    for i, c in enumerate(piv):
        x[c] = b[i]
    if any(b[i] != zero for i in range(r, len(A))):
        return None
    return x


def _pi_power(d):
    out = PiPoly.const(1)
    for _ in range(d):
        out = out * PiPoly.pi_times(1)
    return out


def _structure_basis(B0):
    """Candidate span det^{2+i} (det B det Y)^i (pi tr(B Y))^j pi^{2i}
    e^{-pi tr(BY)} for i <= 1, j <= 2."""
    b1, b2, b3 = B0
    dB = b1 * b2 - b3 * b3
    trace = (ExpPoly.single(PiPoly.const(b1), mono=(1, 0, 0))
             + ExpPoly.single(PiPoly.const(b2), mono=(0, 1, 0))
             + ExpPoly.single(PiPoly.const(2 * b3), mono=(0, 0, 1)))
    out = []
    for i in range(2):
        for j in range(3):
            el = ExpPoly.single(PiPoly.const(1), p=2 + i, B=B0)
            for _ in range(j):
                el = el * trace
            out.append(el.scale(dB ** i).scale_poly(_pi_power(2 * i + j)))
    return out


def _structure_equations(g, basis):
    zero = (Fraction(0), Fraction(0))
    keys = set(g.terms)
    for bel in basis:
        keys |= set(bel.terms)
    maxdeg = 0
    for K in keys:
        for c in [g.terms.get(K)] + [bel.terms.get(K) for bel in basis]:
            if c is not None:
                maxdeg = max(maxdeg, len(c.coeffs))
    rows = []
    for K in sorted(keys, key=str):
        cg = g.terms.get(K)
        cbs = [bel.terms.get(K) for bel in basis]

        def coefficient(c, d):
            if c is None or d >= len(c.coeffs):
                return zero
            return c.coeffs[d]

        for d in range(maxdeg):
            rhs = coefficient(cg, d)
            row = [coefficient(c, d) for c in cbs]
            if rhs != zero or any(x != zero for x in row):
                rows.append((row, rhs))
    return rows


class TestStructurePolynomial:
    """The once-raised isotropic theta term is det^2 P(v, w) e^{-pi tr(BY)}
    with v = pi^2 det B det Y, w = pi tr(BY), and a SINGLE polynomial P
    independent of the column pair."""

    def test_shared_across_classes(self):
        space, R = _d4_setup()
        classes = enumerate_isotropic_classes(space, R, 12.0)
        assert len(classes) == 488
        # group by the restricted majorant so the sample spans distinct
        # decay profiles, including an off-diagonal one
        by_restriction = {}
        for cls in classes:
            th = theta_term_symbol(space, cls.matrix(), R)
            ((_, _, _, B0),) = list(th.terms)
            by_restriction.setdefault(B0, cls.matrix())
        assert len(by_restriction) >= 5
        assert any(B0[2] != 0 for B0 in by_restriction)
        picks = sorted(by_restriction.items(),
                       key=lambda t: (t[0][2] == 0, t[0]))[:6]

        k, a = Fraction(-2), Fraction(3)

        def transformed(ell):
            th = theta_term_symbol(space, ell, R)
            ((_, _, _, B0),) = list(th.terms)
            return shimura_power(th.mul_det_power(a), k, 1), B0

        g0, B0 = transformed(picks[0][1])
        basis = _structure_basis(B0)
        sol = _gauss_solve(_structure_equations(g0, basis), len(basis))
        assert sol is not None
        # frozen from the exact solve: P(v, w) = -1/8 + w/8 - v/4
        want = [(Fraction(-1, 8), Fraction(0)), (Fraction(1, 8), Fraction(0)),
                (Fraction(0), Fraction(0)), (Fraction(-1, 4), Fraction(0)),
                (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))]
        assert sol == want
        for _, ell in picks[1:]:
            g, B1 = transformed(ell)
            model = ExpPoly.zero()
            for coeff, bel in zip(sol, _structure_basis(B1)):
                model = model + bel.scale(coeff[0], coeff[1])
            assert (g - model).is_zero

    def test_rejects_wrong_polynomial(self):
        """Perturbing one coefficient breaks the match, so the equality
        above is not vacuous."""
        space, R = _d4_setup()
        ell = enumerate_isotropic_classes(space, R, 8.0)[0].matrix()
        th = theta_term_symbol(space, ell, R)
        ((_, _, _, B0),) = list(th.terms)
        g = shimura_power(th.mul_det_power(Fraction(3)), Fraction(-2), 1)
        basis = _structure_basis(B0)
        coeffs = [(Fraction(-1, 8), Fraction(0)), (Fraction(1, 4), Fraction(0)),
                  (Fraction(0), Fraction(0)), (Fraction(-1, 4), Fraction(0)),
                  (Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))]
        model = ExpPoly.zero()
        for coeff, bel in zip(coeffs, basis):
            model = model + bel.scale(coeff[0], coeff[1])
        assert not (g - model).is_zero


# -------------------------------------------------- degenerate series

def _coprime_symmetric(C, D) -> bool:
    """Single-pair reference form of the test siegel_coset_reps runs in
    batches."""
    CDt = [
        [sum(C[i][k] * D[j][k] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    if CDt[0][1] != CDt[1][0]:
        return False
    stacked = [list(C[0]) + list(D[0]), list(C[1]) + list(D[1])]
    return minors_gcd(stacked, 2) == 1


def _canonical_pair(C, D):
    """Single-pair reference form of the canonical key siegel_coset_reps
    and translate_coset_classes compute in batches."""
    stacked = [list(C[0]) + list(D[0]), list(C[1]) + list(D[1])]
    H, _ = row_hnf_transform(stacked)
    return tuple(tuple(row) for row in H)


class TestCosetClasses:
    def test_frozen_count_b1(self):
        reps = siegel_coset_reps(1)
        assert len(reps) == 68
        zero = ((0, 0), (0, 0))
        eye = ((1, 0), (0, 1))
        assert (zero, eye) in reps

    def test_frozen_count_b2(self):
        assert len(siegel_coset_reps(2)) == 1108

    def test_reps_are_valid_and_canonical(self):
        reps = siegel_coset_reps(1)
        for C, D in reps:
            assert _coprime_symmetric(C, D)
            key = _canonical_pair(C, D)
            assert (key[0][:2], key[1][:2]) == C
            assert (key[0][2:], key[1][2:]) == D

    def test_canonical_is_unimodular_invariant(self):
        """Left multiplication by random GL2(Z) elements never changes the
        canonical form, so distinct canonicals are distinct classes."""
        reps = siegel_coset_reps(1)
        rng = np.random.default_rng(13)
        gens = [np.array([[1, 1], [0, 1]]), np.array([[1, 0], [1, 1]]),
                np.array([[0, 1], [-1, 0]]), np.array([[-1, 0], [0, 1]])]
        for _ in range(40):
            C, D = reps[rng.integers(0, len(reps))]
            U = np.eye(2, dtype=np.int64)
            for _ in range(rng.integers(1, 6)):
                U = U @ gens[rng.integers(0, len(gens))]
            UC = (U @ np.array(C)).tolist()
            UD = (U @ np.array(D)).tolist()
            assert _canonical_pair(
                tuple(map(tuple, UC)), tuple(map(tuple, UD))
            ) == _canonical_pair(C, D)

    def test_denominator_is_class_invariant(self):
        reps = siegel_coset_reps(1)
        rng = np.random.default_rng(29)
        Zm = BASE_POINT.matrix()
        for C, D in [reps[4], reps[20], reps[60]]:
            base = None
            for _ in range(5):
                U = np.eye(2, dtype=np.int64)
                gens = [np.array([[1, 1], [0, 1]]), np.array([[0, 1], [-1, 0]])]
                for _ in range(rng.integers(1, 7)):
                    U = U @ gens[rng.integers(0, 2)]
                den = (U @ np.array(C)) @ Zm + (U @ np.array(D))
                val = abs(den[0, 0] * den[1, 1] - den[0, 1] * den[1, 0])
                if base is None:
                    base = val
                assert abs(val - base) < 1e-12 * max(base, 1.0)

    def test_translation_bijection(self):
        """Translating the argument equals reindexing the class list."""
        T = np.array([[1, 2], [2, -1]])
        reps = siegel_coset_reps(1)
        moved = translate_coset_classes(reps, T)
        assert len(moved) == len(set(moved)) == len(reps)
        P = BASE_POINT
        PT = SiegelPoint.from_matrix(P.matrix() + T)
        s = 2.4
        lhs = siegel_value_over(reps, PT, s)
        # det Y is translation invariant, so the two sums match exactly
        rhs = siegel_value_over(moved, P, s)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_translation_requires_symmetric_block(self):
        with pytest.raises(ValueError):
            translate_coset_classes(siegel_coset_reps(0), [[0, 1], [0, 0]])

    def test_series_positive_and_monotone(self):
        P = SiegelPoint(1j, 1j, 0)
        v1 = siegel_eisenstein_truncated(P, 3.0, 1)
        v2 = siegel_eisenstein_truncated(P, 3.0, 2)
        assert v1.imag == 0 and v2.imag == 0
        assert v2.real > v1.real > 1

    def test_convergence_guard(self):
        with pytest.raises(ConvergenceGuard):
            siegel_eisenstein_truncated(BASE_POINT, 1.2, 1)

    def test_gl_slice_matches_direct_sum(self):
        """Classes with C = 0 contribute |det D|^{-2s} = 1 exactly once."""
        reps = siegel_coset_reps(1)
        c_zero = [rep for rep in reps if rep[0] == ((0, 0), (0, 0))]
        assert len(c_zero) == 1
