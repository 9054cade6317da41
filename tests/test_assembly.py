"""Completed-series factors: zeta/xi, gamma companions, cone integral,
assembly products, reflection algebra, coefficient ingestion."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_jacobi

from orthokleis.assembly import (
    CompletedSeriesFactors,
    _gauss_jacobi,
    bernoulli_number,
    completed_dirichlet,
    completed_e8_eisenstein,
    dirichlet_reflection,
    eisenstein_reflection,
    gamma2,
    gamma_factors,
    gamma_s,
    gamma_s_roots,
    modified_siegel_factors,
    p2_integral_check,
    phi2_value,
    read_coefficient_file,
    reflection_consistency,
    working_precision,
    xi,
    zeta,
)
from orthokleis.errors import ConvergenceGuard, PoleAt, QuadratureBudget
from orthokleis.lattice import load_gram
from orthokleis.orthogroup import random_point, space_for

mpmath.mp.dps = 25


class TestBernoulli:
    def test_exact_values(self):
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(10) == Fraction(5, 66)
        assert bernoulli_number(12) == Fraction(-691, 2730)
        assert bernoulli_number(7) == 0


class TestZeta:
    def test_closed_forms(self):
        assert abs(zeta(2) - math.pi ** 2 / 6) < 1e-14
        assert abs(zeta(0) - (-0.5)) < 1e-14
        assert abs(zeta(-1) - (-1 / 12)) < 1e-14
        assert abs(zeta(4) - math.pi ** 4 / 90) < 1e-14

    def test_oracle_grid(self):
        pts = [2, 0.5 + 14.13j, 3 - 2j, -1.7 + 0.3j, 0.25 + 49j, 4 + 50j,
               -3.3 - 6j, 0.9, 0.1 + 0.1j, -0.5 + 33j, 1.5 - 40j, 6.2]
        for p in pts:
            ref = complex(mpmath.zeta(p))
            assert abs(zeta(p) - ref) <= 1e-10 * max(abs(ref), 1e-12)

    def test_pole(self):
        with pytest.raises(PoleAt) as info:
            zeta(1)
        assert info.value.location == 1
        assert info.value.residue == 1

    def test_high_precision_path(self):
        for p in (0.5 + 40j, -2.2 + 7j, 3.3):
            ref = complex(mpmath.zeta(p))
            assert abs(zeta(p, digits=30) - ref) <= 1e-13 * max(abs(ref), 1e-12)


class TestXi:
    def test_self_duality_grid(self):
        grid = [0.3 + 2j, 0.8 - 1.3j, 2.5 + 7j, -1.2 + 0.9j, 3.7 + 21j,
                0.5 + 0.5j, -2.4 - 3j, 1.8 + 40j, 0.2 - 15j, 2.2,
                0.4 + 0.1j, -0.9 + 11j, 3.1 - 8j, 1.5 + 1.5j, 0.7 - 29j,
                2.9 + 0.01j, -1.5 - 0.5j, 0.35 + 5j, 1.05 + 3j, -0.2 + 2j]
        for p in grid:
            a, b = xi(p), xi(1 - p)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)

    def test_oracle(self):
        for p in (2.4, 3 + 1j, 0.6 - 4j):
            ref = complex(mpmath.pi ** (-mpmath.mpf(1) * p / 2)
                          * mpmath.gamma(mpmath.mpc(p) / 2) * mpmath.zeta(p))
            assert abs(xi(p) - ref) <= 1e-12 * abs(ref)

    def test_poles_with_residues(self):
        with pytest.raises(PoleAt) as info:
            xi(0)
        assert info.value.residue == -1
        with pytest.raises(PoleAt) as info:
            xi(1)
        assert info.value.residue == 1

    def test_trivial_zero_window(self):
        # the gamma pole against the trivial zero is routed through the
        # reflection, so these evaluate instead of returning nan
        assert abs(xi(-2) - xi(3)) == 0
        assert abs(xi(-4) - xi(5)) == 0


class TestGammaCompanions:
    def test_gamma2_oracle(self):
        for p in (2.0, 3.5 + 1j, 1.2 - 0.7j):
            ref = complex(mpmath.gamma(p) * mpmath.gamma(mpmath.mpc(p) - 0.5))
            assert abs(gamma2(p) - ref) <= 1e-12 * abs(ref)

    def test_phi2(self):
        assert phi2_value(Fraction(1, 2)) == 0
        assert phi2_value(1) == Fraction(1, 2)
        assert phi2_value(0) == 0
        for t in (Fraction(1, 3), Fraction(5, 2), Fraction(-7)):
            assert phi2_value(Fraction(1, 2) - t) == phi2_value(t)

    def test_rank8_instance(self):
        """At r = 2 the product is 16 phi2(s/2-4) phi2(s/2) phi2(s/2-1/2)
        phi2(s/2-5/2)."""
        for s in (Fraction(3), Fraction(7), Fraction(-1, 2), Fraction(22, 7)):
            direct = (16 * phi2_value(s / 2 - 4) * phi2_value(s / 2)
                      * phi2_value(s / 2 - Fraction(1, 2))
                      * phi2_value(s / 2 - Fraction(5, 2)))
            assert gamma_s(s, 8) == direct
        assert gamma_s(Fraction(3), 8) == 135

    def test_rank8_root_pattern(self):
        roots = gamma_s_roots(8)
        assert roots == [0, 1, 1, 2, 5, 6, 8, 9]
        for root in set(roots):
            assert gamma_s(Fraction(root), 8) == 0
        for mid in (Fraction(3), Fraction(7), Fraction(13, 2), Fraction(-1),
                    Fraction(3, 2), Fraction(17, 2)):
            assert gamma_s(mid, 8) != 0

    def test_rank4_roots(self):
        assert gamma_s_roots(4) == [0, 1, 1, 2, 4, 5]

    def test_exact_vs_complex_agree(self):
        s = Fraction(7, 3)
        assert abs(complex(gamma_s(s, 8)) - gamma_s(complex(s), 8)) < 1e-10

    def test_bundle(self):
        g2, p2, gs = gamma_factors(3.0, 8)
        assert abs(g2 - gamma2(3.0)) == 0
        assert abs(p2 - 7.5) < 1e-14
        assert abs(gs - 135) < 1e-9

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            gamma_s(2.0, 6)


class TestConeIntegral:
    def test_identity_closed_form(self):
        num, closed = p2_integral_check(2.0, [[1, 0], [0, 1]])
        assert abs(closed - math.pi / 2) < 1e-12
        assert abs(num - closed) <= 1e-4 * abs(closed)

    def test_configurations(self):
        configs = [
            (2.0, [[1, 0], [0, 1]]),
            (3.0, [[1, 0], [0, 2]]),
            (2.5, [[2, 1], [1, 3]]),
            (4.0, [[3, -1], [-1, 2]]),
            (3.5, [[1, 0.5], [0.5, 2]]),
        ]
        for s, T in configs:
            num, closed = p2_integral_check(s, T)
            assert abs(num - closed) <= 1e-4 * abs(closed)

    def test_scaling_homogeneity(self):
        s = 2.0
        _, c1 = p2_integral_check(s, [[1, 0], [0, 1]])
        _, c2 = p2_integral_check(s, [[2, 0], [0, 2]])
        assert abs(c2 - c1 * 2 ** (-2 * s)) < 1e-12 * abs(c1)

    def test_complex_exponent(self):
        s = 2.5 + 0.4j
        num, closed = p2_integral_check(s, [[1, 0], [0, 1]])
        assert abs(num - closed) <= 2e-4 * abs(closed)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            p2_integral_check(0.4, [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            p2_integral_check(2.0, [[1, 2], [2, 1]])

    def test_budget_guard(self):
        with pytest.raises(QuadratureBudget):
            p2_integral_check(2.0, [[1, 0], [0, 1]], rel_tol=1e-13)


class TestConeIntegralCertificate:
    """The nested-rule certificate: refusals, an oracle over positive
    definite T, and the certificate against the true error."""

    CONFIGS = [
        (2.0, [[1, 0], [0, 1]]),
        (3.0, [[1, 0], [0, 2]]),
        (2.5, [[2, 1], [1, 3]]),
        (4.0, [[3, -1], [-1, 2]]),
        (3.5, [[1, 0.5], [0.5, 2]]),
    ]

    def test_oscillating_exponent_refused(self):
        with pytest.raises(QuadratureBudget):
            p2_integral_check(2 + 30j, [[1, 0], [0, 1]])

    def test_near_singular_form_refused(self):
        with pytest.raises(QuadratureBudget):
            p2_integral_check(2.0, [[1, 0.999], [0.999, 1]])

    def test_rounding_floor_refused(self):
        for s, T in self.CONFIGS:
            with pytest.raises(QuadratureBudget):
                p2_integral_check(s, T, rel_tol=1e-14)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_closed_form_overflow_refused(self):
        with pytest.raises(QuadratureBudget):
            p2_integral_check(100.0, [[1, 0], [0, 1]])

    def test_acceptance_configurations_to_full_precision(self):
        for s, T in self.CONFIGS:
            num, closed = p2_integral_check(s, T)
            assert abs(num - closed) <= 1e-12 * abs(closed)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.01, 3), st.floats(0.01, 3),
           st.floats(-1, 1, exclude_min=True, exclude_max=True),
           st.floats(0.6, 8))
    def test_oracle_positive_definite(self, t1, t2, r, s):
        t3 = r * math.sqrt(0.9 * t1 * t2)
        num, closed = p2_integral_check(s, [[t1, t3], [t3, t2]], rel_tol=1e-8)
        assert abs(num - closed) <= 1e-8 * abs(closed)

    def test_certificate_bounds_error_complex_exponent(self):
        # (1-u^2)^{0.4i} is not smooth at u = +-1, so the rungs converge
        # slowly and the gap is far from zero: each accepted answer must
        # still lie within the tolerance it was accepted for.
        s, T = 2.5 + 0.4j, [[1, 0], [0, 1]]
        accepted = []
        for rel_tol in (1e-3, 2e-5, 1e-5, 1e-6, 1e-7, 1e-9, 1e-12):
            try:
                num, closed = p2_integral_check(s, T, rel_tol=rel_tol)
            except QuadratureBudget:
                continue
            accepted.append(rel_tol)
            assert abs(num - closed) <= rel_tol * abs(closed)
        assert accepted == [1e-3, 2e-5, 1e-5, 1e-6, 1e-7]

    @pytest.mark.parametrize("a", [-0.99, -0.9, -0.5, 0.0, 0.5, 6.5])
    def test_gauss_jacobi_rule(self, a):
        for n in (20, 40, 80, 160):
            u, w = _gauss_jacobi(n, a)
            u_ref, w_ref = roots_jacobi(n, a, a)
            assert np.abs(u - u_ref).max() < 1e-14
            assert abs(w.sum() / w_ref.sum() - 1) < 1e-11
            # exact on (1-u^2)^a u^{2k}, k < n
            for k in range(0, n, 7):
                exact = math.exp(math.lgamma(k + 0.5) + math.lgamma(a + 1)
                                 - math.lgamma(k + a + 1.5))
                assert abs((w * u ** (2 * k)).sum() / exact - 1) < 1e-10


class TestCompletedRank8:
    def test_factors_finite_nonzero(self):
        space = space_for(load_gram("E8"))
        rng = np.random.default_rng(4)
        W = random_point(space, rng)
        out = completed_e8_eisenstein(space, W, 12.0, 5.0)
        assert len(out.factors) == 5
        for _, v in out.factors:
            assert np.isfinite(complex(v)) and complex(v) != 0
        assert abs(out.completed_value
                   - out.factor_product() * out.series_value) < 1e-12 * abs(
                       out.completed_value)

    def test_reflection_involution(self):
        for s in (12.0, 3 + 2j, Fraction(7, 2)):
            assert eisenstein_reflection(eisenstein_reflection(s)) == s

    def test_convergence_guard(self):
        space = space_for(load_gram("E8"))
        rng = np.random.default_rng(4)
        W = random_point(space, rng)
        with pytest.raises(ConvergenceGuard):
            completed_e8_eisenstein(space, W, 8.5, 5.0)

    def test_requires_rank8(self):
        space = space_for(load_gram("D4"))
        rng = np.random.default_rng(4)
        W = random_point(space, rng)
        with pytest.raises(ValueError):
            completed_e8_eisenstein(space, W, 12.0, 5.0)

    def test_pole_propagates(self):
        space = space_for(load_gram("E8"))
        rng = np.random.default_rng(4)
        W = random_point(space, rng)
        # s = 4 makes the first factor xi(1)
        with pytest.raises(PoleAt):
            completed_e8_eisenstein(space, W, 11.0 - 7j + (4 - 11 + 7j), 5.0)


class TestCompletedDirichlet:
    SO8 = 696729600  # any positive integer works; the order is an input

    def test_unit_sequence(self):
        out = completed_dirichlet([1, 0, 0], 14.0, 12, 8, self.SO8)
        assert out.series_value == 1
        assert abs(out.completed_value - out.factor_product()) == 0

    def test_zero_sequence(self):
        out = completed_dirichlet([0, 0], 14.0, 12, 8, self.SO8)
        assert out.series_value == 0
        assert out.completed_value == 0

    def test_superposition(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        s, k = 14.5 - 2j, 12
        va = completed_dirichlet(list(a), s, k, 8, self.SO8).completed_value
        vb = completed_dirichlet(list(b), s, k, 8, self.SO8).completed_value
        vab = completed_dirichlet(list(a + b), s, k, 8, self.SO8).completed_value
        assert abs(vab - va - vb) <= 1e-12 * max(abs(va) + abs(vb), 1e-12)

    def test_series_value(self):
        out = completed_dirichlet([2, 0, 1j], 14.0, 12, 8, self.SO8)
        want = 2 + 1j * 3 ** -14.0
        assert abs(out.series_value - want) < 1e-15

    def test_prefactor(self):
        import scipy.special as ss
        s, k, n = 14.0, 12, 8
        out = completed_dirichlet([1], s, k, n, self.SO8)
        w = s + k - n - 1
        want = (4 * math.pi) ** -w * complex(ss.gamma(w)) / self.SO8
        assert abs(out.integral_prefactor - want) <= 1e-14 * abs(want)

    def test_guard_and_validation(self):
        with pytest.raises(ConvergenceGuard):
            completed_dirichlet([1], 12.5, 12, 8, self.SO8)
        with pytest.raises(ValueError):
            completed_dirichlet([1], 14.0, 12, 8, 0)
        with pytest.raises(ValueError):
            completed_dirichlet([1], 14.0, 12, 6, self.SO8)


class TestReflectionAlgebra:
    def test_consistency_exact(self):
        for k in (10, 12, Fraction(25, 2)):
            out = reflection_consistency(k)
            assert out["consistent"]
            assert out["lhs"] == out["rhs"] == (Fraction(-1), Fraction(k))

    def test_dirichlet_involution(self):
        for s in (14.0, 3 - 5j):
            assert dirichlet_reflection(dirichlet_reflection(s, 12), 12) == s


class TestModifiedSiegelFactors:
    def test_pole_flag(self):
        out = modified_siegel_factors(1.5)
        assert out["series_pole"]
        assert out["poles"] == []
        for _, v in out["factors"]:
            assert v is not None and np.isfinite(complex(v))

    def test_finite_at_one(self):
        out = modified_siegel_factors(1.0)
        assert not out["series_pole"]
        assert out["poles"] == []

    def test_factor_poles_recorded(self):
        out = modified_siegel_factors(0.5)
        labels = [lab for lab, _ in out["poles"]]
        assert labels == ["xi(2s)", "xi(4s-2)"]

    def test_reflected_pair_functional_equation(self):
        """Each reflected argument pairs with its dual under u -> 1-u."""
        for s in (1.1 + 0.3j, 2.4, 0.8 - 1j):
            out = modified_siegel_factors(s)
            for u in out["reflected_args"]:
                a, b = xi(u), xi(1 - u)
                assert abs(a - b) <= 1e-10 * max(abs(a), 1e-30)


class TestCoefficientIO:
    def test_json_array(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, [0, 1], 2.5]")
        assert read_coefficient_file(p) == [1 + 0j, 1j, 2.5 + 0j]

    def test_csv_with_header(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("index,value-re,value-im\n1,2.0,0\n3,0,1.5\n")
        assert read_coefficient_file(p) == [2 + 0j, 0j, 1.5j]

    def test_csv_rejects_zero_index(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("0,1.0,0\n")
        with pytest.raises(ValueError):
            read_coefficient_file(p)

    def test_empty_csv(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("index,value-re,value-im\n")
        assert read_coefficient_file(p) == []


class TestPrecisionControl:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("ORTHOKLEIS_PRECISION", raising=False)
        assert working_precision() == 16

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ORTHOKLEIS_PRECISION", "30")
        assert working_precision() == 30

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("ORTHOKLEIS_PRECISION", "lots")
        with pytest.raises(ValueError):
            working_precision()
        monkeypatch.setenv("ORTHOKLEIS_PRECISION", "3")
        with pytest.raises(ValueError):
            working_precision()


class TestFactorContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompletedSeriesFactors(
                s=2.0, n=8, r=3, factors=(), series_value=0j,
                completed_value=0j)
        with pytest.raises(ValueError):
            CompletedSeriesFactors(
                s=2.0, n=8, r=2, factors=(("bad", float("nan")),),
                series_value=0j, completed_value=0j)

    def test_as_dict_schema(self):
        out = completed_dirichlet([1], 14.0, 12, 8, 5)
        d = out.as_dict()
        assert set(d) == {"s", "n", "r", "k", "factors", "series_value",
                          "completed_value", "integral_prefactor"}
        assert d["k"] == 12
        assert len(d["factors"]) == 6
