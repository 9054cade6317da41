"""Batch command line driver.

Three families of work hang off one entry point: lattice reports,
truncated series tables over an s-grid, and a seeded property-verification
ledger.  Output goes to stdout as a single JSON document (schema "1") or,
with --format=csv, as a flat table; progress and ledger lines go to
stderr so stdout stays machine readable.

Exit codes: 0 everything passed, 1 a checked property failed, 2 the
input was rejected (bad Gram data, unparseable grid, an evaluation
requested outside its honest-convergence region, bad precision env).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from .assembly import (
    completed_dirichlet,
    completed_e8_grid,
    dirichlet_reflection,
    eisenstein_reflection,
    gamma_s,
    gamma_s_roots,
    p2_integral_check,
    read_coefficient_file,
    reflection_consistency,
    working_precision,
    xi,
)
from .eisenstein import (
    check_convergence,
    class_value,
    enumerate_isotropic_classes,
    hnf_det_class_count,
    imprimitive_factorization_check,
    series_report,
    sigma1,
)
from .errors import (
    NotEven,
    NotPositiveDefinite,
    NotSymmetric,
    OrthokleisError,
)
from .jacobi import (
    HeisenbergElement,
    JacobiElement,
    jacobi_action,
    jacobi_embed,
    jacobi_mul,
    slash,
)
from .lattice import load_gram, validate_gram, vectors_of_norm
from .majorant import (
    base_majorant,
    klingen_quotient,
    lower_rows_matrix,
    majorant_at,
    transport_to,
)
from .orthogroup import (
    SL2_GENS,
    act,
    automorphy,
    inverse_closed_form,
    levi,
    random_point,
    random_word,
    reflection_matrix,
    space_for,
)
from .siegelops import (
    SiegelPoint,
    maass_on_det_power,
    one_dim_annihilation,
    one_dim_casimir_residual,
    phi2,
    shimura_power,
    siegel_convergence_guard,
    siegel_coset_reps,
    siegel_value_over,
    theta_term_symbol,
)
from .theta import ThetaQuery, tail_bound, theta_report, theta_truncated

COMMANDS = ("report", "eisenstein", "theta", "siegel", "completed", "verify")

# A fixed generic modular argument for theta checks: complex symmetric,
# positive-definite imaginary part, no accidental symmetry.
GENERIC_Z = np.array([[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 0.9j]])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orthokleis",
        description="lattice reports, truncated series tables, and the "
                    "property-verification ledger",
    )
    p.add_argument("--lattice", default="E8",
                   help="catalog name (A1, A2, D4, E8) or a Gram file: "
                        "first line n, then n rows of n integers")
    p.add_argument("--command", default="report", choices=COMMANDS)
    p.add_argument("--B", type=float, default=None,
                   help="truncation bound (command-specific default)")
    p.add_argument("--s", default=None, metavar="GRID",
                   help='evaluation grid "re,im[:re,im...]" '
                        "(a bare re is read as im=0)")
    p.add_argument("--tol", type=float, default=None,
                   help="override the numeric thresholds of the verify "
                        "ledger (exact checks keep threshold 0)")
    p.add_argument("--so-order", dest="so_order", type=int, default=None,
                   help="order of the finite integral special orthogonal "
                        "group; required with --coeffs")
    p.add_argument("--coeffs", default=None,
                   help="coefficient file (JSON array or index,value-re,"
                        "value-im CSV); switches 'completed' to the "
                        "coefficient-weighted series")
    p.add_argument("--weight", type=int, default=12,
                   help="weight parameter for the coefficient-weighted "
                        "series (default 12)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled group words and points")
    p.add_argument("--format", dest="fmt", default="json",
                   choices=("json", "csv"))
    return p


def parse_s_grid(text: str) -> list[complex]:
    points = []
    for chunk in text.split(":"):
        bits = chunk.strip().split(",")
        try:
            if len(bits) == 1:
                points.append(complex(float(bits[0]), 0.0))
            elif len(bits) == 2:
                points.append(complex(float(bits[0]), float(bits[1])))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"cannot parse s-grid chunk {chunk!r}; expected re,im"
            ) from None
    if not points:
        raise ValueError("empty s-grid")
    return points


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


# ------------------------------------------------------------- commands


def cmd_report(space) -> dict:
    L = space.L

    def signature(mat):
        vals = np.linalg.eigvalsh(np.asarray(mat, dtype=float))
        return [int((vals > 0).sum()), int((vals < 0).sum())]

    return {
        "n": L.n,
        "det": int(L.det),
        "level": int(L.q),
        "roots": 2 * len(vectors_of_norm(L, 2)),
        "s0_signature": signature(space.S0),
        "s1_signature": signature(space.S1),
    }


def cmd_eval_eisenstein(space, s_grid, B: float) -> list[dict]:
    for s in s_grid:
        check_convergence(s, space.n + 1)
    R = majorant_at(space, space.base_point())
    # each rung is its own enumeration, so the monotonicity flags compare
    # independent results
    steps = sorted({min(B, max(1.0, B / 4)), min(B, max(1.0, B / 2)), B})
    ladder = [(b, enumerate_isotropic_classes(space, R, b)) for b in steps]
    rows = []
    for idx, s in enumerate(s_grid, start=1):
        diagnostics = [series_report(classes, s, b) for b, classes in ladder]
        row = dict(diagnostics[-1], index=idx, diagnostics=[
            {k: d[k] for k in ("B", "classes", "value")} for d in diagnostics])
        counts = [d["classes"] for d in diagnostics]
        row["monotone_classes"] = counts == sorted(counts)
        if s.imag == 0.0:
            vals = [d["value"][0] for d in diagnostics]
            row["monotone_value"] = all(
                b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        rows.append(row)
    return rows


def cmd_eval_theta(space, B: float) -> list[dict]:
    Z = 2j * np.eye(2)
    W = space.base_point()
    rep = theta_report(ThetaQuery(space, Z, W, B))
    v1 = complex(*rep["value"])
    v2 = theta_truncated(ThetaQuery(space, Z, W, 2 * B))
    bound = rep["tail_bound"]
    return [{
        "index": 1,
        "B": float(B),
        "value": _pair(v1),
        "terms": rep["classes"] - 1,
        "tail_bound": bound,
        "refined_B": float(2 * B),
        "refined_value": _pair(v2),
        "refinement_delta": abs(v1 - v2),
        "within_tail": bool(abs(v1 - v2) <= bound),
        # by the triangle inequality no pair of values can exceed it
        "tail_vacuous": bool(bound >= abs(v1) + abs(v2)),
    }]


def cmd_eval_siegel(s_grid, B: float) -> list[dict]:
    for s in s_grid:
        siegel_convergence_guard(s)
    P = SiegelPoint(1j, 1j, 0.0)
    fine = siegel_coset_reps(int(B))
    coarse = siegel_coset_reps(max(1, int(B) // 2))
    rows = []
    for idx, s in enumerate(s_grid, start=1):
        val = siegel_value_over(fine, P, s)
        half = siegel_value_over(coarse, P, s)
        rows.append({
            "index": idx,
            "s": _pair(s),
            "B": int(B),
            "value": _pair(val),
            "coarser_value": _pair(half),
            "monotone_value": bool(
                s.imag == 0.0 and val.real >= half.real - 1e-12),
        })
    return rows


def cmd_eval_completed(space, s_grid, B: float, args) -> list[dict]:
    if args.coeffs is None:
        results = completed_e8_grid(space, space.base_point(), s_grid, B)
    else:
        coeffs = read_coefficient_file(args.coeffs)
        if args.so_order is None:
            raise ValueError("--coeffs requires --so-order")
        results = [completed_dirichlet(coeffs, s, args.weight, space.n,
                                       args.so_order) for s in s_grid]
    return [dict(out.as_dict(), index=idx)
            for idx, out in enumerate(results, start=1)]


# --------------------------------------------------------------- verify

# Each property: (name, exact, threshold, runner).  A runner returns the
# worst residual it saw; exact checks count mismatches so any nonzero
# residual fails them.


def _rel(delta: float, scale: float) -> float:
    return float(delta) / max(1.0, float(scale))


def p_gram_validation(ctx):
    validate_gram(ctx["space"].L.gram())
    return 0.0 if ctx["space"].L.det > 0 else 1.0


def p_cocycle(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    worst = 0.0
    for _ in range(100):
        g = random_word(space, rng, length=3)
        h = random_word(space, rng, length=3)
        Z = random_point(space, rng)
        lhs = automorphy(g @ h, Z)
        rhs = automorphy(g, act(h, Z)) * automorphy(h, Z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def p_cone_norm(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    worst = 0.0
    for _ in range(100):
        g = random_word(space, rng, length=3)
        Z = random_point(space, rng)
        lhs = act(g, Z).q0_im()
        rhs = abs(automorphy(g, Z)) ** -2 * Z.q0_im()
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    return worst


def p_majorant_axioms(ctx):
    space = ctx["space"]
    R = base_majorant(space)
    resid = _rel(np.abs(R @ space.S1_inv_np @ R - space.S1).max(),
                 np.abs(space.S1).max())
    resid = max(resid, np.abs(R - R.T).max())
    np.linalg.cholesky(R)  # raises if not positive definite
    return resid


def p_majorant_equivariance(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    worst = 0.0
    for _ in range(12):
        g = random_word(space, rng, length=3)
        Z = random_point(space, rng)
        ginv = inverse_closed_form(g).asfloat()
        lhs = majorant_at(space, act(g, Z))
        rhs = ginv.T @ majorant_at(space, Z) @ ginv
        worst = max(worst, _rel(np.abs(lhs - rhs).max(), np.abs(rhs).max()))
    return worst


def p_klingen_quotient(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    worst = 0.0
    for _ in range(50):
        g = random_word(space, rng, length=4)
        Z = random_point(space, rng)
        Lm = lower_rows_matrix(g)
        det_val = float(np.linalg.det(Lm.T @ majorant_at(space, Z) @ Lm))
        kq = klingen_quotient(space, act(g, Z))
        worst = max(worst, abs(det_val - kq ** -2) / max(kq ** -2, 1e-12))
    return worst


def p_transport_well_defined(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    # alternative transport path: compose with a rotation that fixes the
    # base ray, built from two reflections of the middle space
    n = space.n
    w1 = np.zeros(space.dim)
    w1[1] = 1.0
    w2 = np.zeros(space.dim)
    if n >= 2:
        w2[1], w2[2] = 0.3, 1.0
    else:
        w2[1] = 1.0
    k0 = reflection_matrix(space, w1) @ reflection_matrix(space, w2)
    R0 = base_majorant(space)
    worst = 0.0
    for _ in range(6):
        Z = random_point(space, rng)
        delta = transport_to(space, Z) @ levi(space, k0, exact=False)
        worst = max(worst, np.abs(act(delta, space.base_point()).Z - Z.Z).max())
        dinv = inverse_closed_form(delta).asfloat()
        alt = dinv.T @ R0 @ dinv
        ref = majorant_at(space, Z)
        worst = max(worst, _rel(np.abs(alt - ref).max(), np.abs(ref).max()))
    return worst


def p_eisenstein_invariance(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    B = 20 if space.n <= 2 else 5
    s = space.n + 2.5
    base = space.base_point()
    ref_classes = enumerate_isotropic_classes(space, majorant_at(space, base), B)
    ref = class_value(ref_classes, s)
    worst = 0.0
    for _ in range(2):
        g = random_word(space, rng, length=2, coeff=1)
        W = act(g, base)
        cls = enumerate_isotropic_classes(space, majorant_at(space, W), B)
        if len(cls) != len(ref_classes):
            return 1.0
        worst = max(worst, abs(class_value(cls, s) - ref) / abs(ref))
    return worst


def p_hnf_sigma1(ctx):
    return float(sum(
        1 for m in range(1, 101) if hnf_det_class_count(m) != sigma1(m)))


def p_imprimitive(ctx):
    space = ctx["space"]
    cls = enumerate_isotropic_classes(space, base_majorant(space), 3)
    bad = 0
    for c in cls[:6]:
        prim = [list(r) for r in c.ell]
        tripled = [[3 * x for x in row] for row in prim]
        N, M = imprimitive_factorization_check(tripled)
        recomposed = (np.array(N) @ np.array(M) == np.array(tripled)).all()
        if not (N == prim and M == [[3, 0], [0, 3]] and recomposed):
            bad += 1
    return float(bad)


def p_theta_invariance(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    B = 6.0 if space.n <= 2 else 3.4
    worst = 0.0
    for _ in range(2):
        W = random_point(space, rng)
        g = random_word(space, rng, length=4)
        r1 = theta_report(ThetaQuery(space, GENERIC_Z, W, B))
        r2 = theta_report(ThetaQuery(space, GENERIC_Z, act(g, W), B))
        if r1["classes"] != r2["classes"]:
            return 1.0
        worst = max(worst, abs(complex(*r1["value"]) - complex(*r2["value"])))
    return worst


def p_theta_tail(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    W = random_point(space, rng)
    Z = 2j * np.eye(2)
    B = 3.5
    v1 = theta_truncated(ThetaQuery(space, Z, W, B))
    v2 = theta_truncated(ThetaQuery(space, Z, W, 2 * B))
    bound = tail_bound(B, Z.imag, majorant_at(space, W))
    return abs(v1 - v2) / bound


def p_cayley_eigen(ctx):
    bad = 0
    alphas = [Fraction(0), Fraction(1), Fraction(2), Fraction(5, 2)]
    us = [Fraction(0), Fraction(1), Fraction(5, 2), Fraction(-1),
          Fraction(13, 6)]
    for alpha in alphas:
        for u in us:
            if maass_on_det_power(alpha, u) != -phi2(alpha + u) / 4:
                bad += 1
    for t in (Fraction(0), Fraction(1, 3), Fraction(5, 2)):
        if phi2(Fraction(1, 2) - t) != phi2(t):
            bad += 1
    return float(bad)


def p_annihilation(n):
    def run(ctx):
        out = one_dim_annihilation(n)
        if out["residual"] != 0 or not out["annihilated"]:
            return 1.0
        # negative control: one step past the annihilated exponent the
        # operator must NOT vanish
        if one_dim_casimir_residual(n, Fraction(n, 4) + 2) == 0:
            return 1.0
        return 0.0
    return run


def p_satoh_pullout(ctx):
    space = space_for(load_gram("D4"))
    R = base_majorant(space)
    ell = enumerate_isotropic_classes(space, R, 8.0)[0].matrix()
    th = theta_term_symbol(space, ell, R)
    a, k = Fraction(3), Fraction(-2)
    lhs = shimura_power(th.mul_det_power(a), k, 1)
    rhs = shimura_power(th, k + a, 1).mul_det_power(a)
    return 0.0 if (lhs - rhs).is_zero else 1.0


def p_xi_self_dual(ctx):
    worst = 0.0
    for j in range(20):
        s = complex(-3.3 + 0.4 * j, 0.3 * ((j % 5) - 2))
        a, b = xi(s), xi(1 - s)
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    return worst


def p_gamma_s_roots(ctx):
    roots = gamma_s_roots(8)
    if sorted(roots) != [0, 1, 1, 2, 5, 6, 8, 9]:
        return 1.0
    bad = sum(1 for r in set(roots) if gamma_s(Fraction(r), 8) != 0)
    bad += sum(1 for m in (Fraction(7), Fraction(13, 2), Fraction(-1))
               if gamma_s(m, 8) == 0)
    return float(bad)


# (s, T) pairs of the cone-integral check: the five acceptance
# configurations and one complex exponent
P2_CONFIGS = (
    (2.0, ((1.0, 0.0), (0.0, 1.0))),
    (3.0, ((1.0, 0.0), (0.0, 2.0))),
    (2.5, ((2.0, 1.0), (1.0, 3.0))),
    (4.0, ((3.0, -1.0), (-1.0, 2.0))),
    (3.5, ((1.0, 0.5), (0.5, 2.0))),
    (2.5 + 0.4j, ((1.0, 0.0), (0.0, 1.0))),
)


def p_p2_cubature(ctx):
    """Largest relative residual of the cone integral over P2_CONFIGS."""
    results = [p2_integral_check(s, T, rel_tol=1e-4) for s, T in P2_CONFIGS]
    # the first configuration is (2, I), whose closed form is pi/2
    if abs(results[0][1] - math.pi / 2) > 1e-10:
        return 1.0
    return max(abs(numeric - closed) / abs(closed)
               for numeric, closed in results)


def p_reflection_algebra(ctx):
    bad = 0
    for k in (Fraction(10), Fraction(12), Fraction(25, 2)):
        out = reflection_consistency(k)
        if out["lhs"] != out["rhs"]:
            bad += 1
    s, k = Fraction(31, 7), Fraction(12)
    if dirichlet_reflection(s, k) - k + 9 != 9 - (s - k + 9):
        bad += 1
    if eisenstein_reflection(s) != 9 - s:
        bad += 1
    return float(bad)


def p_siegel_cosets(ctx):
    reps = siegel_coset_reps(1)
    if len(reps) != 68:
        return 1.0
    P = SiegelPoint(1.1j, 0.9j, 0.05)
    v = siegel_value_over(reps, P, 2.0)
    if not (v.real > 0 and abs(v.imag) < 1e-12):
        return 1.0
    return 0.0


def _random_jacobi(space, rng) -> JacobiElement:
    n = space.n
    mat = np.eye(2, dtype=object)
    for idx in rng.integers(0, len(SL2_GENS), size=3):
        gen = np.array(SL2_GENS[idx], dtype=object)
        mat = mat @ gen
    x = tuple(Fraction(int(v)) for v in rng.integers(-2, 3, size=n))
    y = tuple(Fraction(int(v)) for v in rng.integers(-2, 3, size=n))
    t = Fraction(int(rng.integers(-2, 3)))
    h = HeisenbergElement(x=x, y=y, phase=t)
    A = tuple(tuple(Fraction(int(v)) for v in row) for row in mat)
    return JacobiElement(mat=A, h=h)


def p_jacobi_embed(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    bad = 0
    for _ in range(20):
        g1 = _random_jacobi(space, rng)
        g2 = _random_jacobi(space, rng)
        lhs = jacobi_embed(space, jacobi_mul(space.L.gram(), g1, g2))
        rhs = jacobi_embed(space, g1) @ jacobi_embed(space, g2)
        if not np.array_equal(lhs.mat, rhs.mat):
            bad += 1
    return float(bad)


def p_jacobi_action(ctx):
    space, rng = ctx["space"], ctx["rng"]()
    worst = 0.0
    for _ in range(6):
        g = _random_jacobi(space, rng)
        Z = random_point(space, rng)
        W = act(jacobi_embed(space, g), Z)
        tau2, z2 = jacobi_action(g, Z.tau, Z.zvec)
        worst = max(worst, abs(W.tau - tau2))
        worst = max(worst, np.abs(W.zvec - z2).max())
    return worst


def _small_jacobi(rng) -> JacobiElement:
    # word length and coordinate sizes are kept small enough that every
    # slash prefactor exponent stays far from the float overflow line,
    # whatever the seed
    mat = np.eye(2, dtype=object)
    for idx in rng.integers(0, len(SL2_GENS), size=2):
        mat = mat @ np.array(SL2_GENS[idx], dtype=object)
    x = tuple(Fraction(int(v), 2) for v in rng.integers(-1, 2, size=2))
    y = tuple(Fraction(int(v), 2) for v in rng.integers(-1, 2, size=2))
    A = tuple(tuple(Fraction(int(v)) for v in row) for row in mat)
    return JacobiElement(mat=A, h=HeisenbergElement(
        x=x, y=y, phase=Fraction(int(rng.integers(-1, 2)), 3)))


def p_slash_composition(ctx):
    rng = ctx["rng"]()
    gram = load_gram("A2").gram()
    Smat = np.array(gram, dtype=float)
    v0 = np.array([0.3, -0.7])

    def f(tau, z):
        z = np.asarray(z, dtype=complex)
        return np.exp(2j * np.pi * tau) * np.exp(
            -(z @ Smat @ z) / 2 + v0 @ Smat @ z)

    worst = 0.0
    for _ in range(20):
        g1 = _small_jacobi(rng)
        g2 = _small_jacobi(rng)
        tau = complex(rng.uniform(-0.1, 0.1), rng.uniform(0.95, 1.05))
        z = 0.05 * rng.uniform(-1, 1, size=2)
        lhs = slash(gram, slash(gram, f, g1, 4), g2, 4)(tau, z)
        rhs = slash(gram, f, jacobi_mul(gram, g1, g2), 4)(tau, z)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


VERIFY_PROPERTIES = (
    ("gram-validation", True, 0.0, p_gram_validation),
    ("cocycle-automorphy", False, 1e-9, p_cocycle),
    ("cone-norm-automorphy", False, 1e-9, p_cone_norm),
    ("majorant-axioms", False, 1e-8, p_majorant_axioms),
    ("majorant-equivariance", False, 1e-8, p_majorant_equivariance),
    ("klingen-quotient-identity", False, 1e-8, p_klingen_quotient),
    ("transport-well-defined", False, 1e-8, p_transport_well_defined),
    ("eisenstein-invariance", False, 1e-10, p_eisenstein_invariance),
    ("hnf-sigma1", True, 0.0, p_hnf_sigma1),
    ("imprimitive-recomposition", True, 0.0, p_imprimitive),
    ("theta-invariance", False, 1e-10, p_theta_invariance),
    ("theta-tail-certificate", False, 1.0, p_theta_tail),
    ("cayley-eigen", True, 0.0, p_cayley_eigen),
    ("onedim-annihilation-n4", True, 0.0, p_annihilation(4)),
    ("onedim-annihilation-n8", True, 0.0, p_annihilation(8)),
    ("satoh-pullout", True, 0.0, p_satoh_pullout),
    ("xi-self-dual", False, 1e-10, p_xi_self_dual),
    ("gammaS-roots", True, 0.0, p_gamma_s_roots),
    ("p2-cubature", False, 1e-4, p_p2_cubature),
    ("reflection-algebra", True, 0.0, p_reflection_algebra),
    ("siegel-coset-canonical", True, 0.0, p_siegel_cosets),
    ("jacobi-embed-homomorphism", True, 0.0, p_jacobi_embed),
    ("jacobi-action-match", False, 1e-10, p_jacobi_action),
    ("slash-composition", False, 1e-9, p_slash_composition),
)


def cmd_verify(space, seed: int, tol: float | None) -> list[dict]:
    ledger = []
    for offset, (name, exact, threshold, runner) in enumerate(
            VERIFY_PROPERTIES):
        if not exact and tol is not None:
            threshold = tol
        ctx = {
            "space": space,
            "rng": lambda o=offset: np.random.default_rng(1000 * seed + o),
        }
        t0 = time.perf_counter()
        note = None
        try:
            residual = float(runner(ctx))
            ok = residual <= threshold
        except OrthokleisError as exc:
            residual, ok, note = float("nan"), False, f"{type(exc).__name__}: {exc}"
        entry = {
            "property": name,
            "residual": residual,
            "threshold": threshold,
            "pass": bool(ok),
            "seconds": round(time.perf_counter() - t0, 3),
        }
        if note:
            entry["note"] = note
        ledger.append(entry)
        status = "pass" if ok else "FAIL"
        print(f"[{status}] {name:28s} residual {residual:.3e}  "
              f"threshold {threshold:.1e}", file=sys.stderr)
    return ledger


# ------------------------------------------------------------- emission


def emit(doc: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(doc, stream, indent=2)
        stream.write("\n")
        return
    writer = csv.writer(stream)
    if "rows" in doc:
        writer.writerow(["index", "value-re", "value-im"])
        for row in doc["rows"]:
            value = row.get("completed_value", row.get("value"))
            writer.writerow([row["index"], repr(value[0]), repr(value[1])])
    elif "properties" in doc:
        writer.writerow(["property", "residual", "threshold", "pass"])
        for entry in doc["properties"]:
            writer.writerow([entry["property"], repr(entry["residual"]),
                             repr(entry["threshold"]), entry["pass"]])
    else:
        writer.writerow(["key", "value"])
        for key, value in doc["report"].items():
            writer.writerow([key, value])


DEFAULT_B = {"eisenstein": 5.0, "theta": 2.0, "siegel": 2.0,
             "completed": 5.0}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        digits = working_precision()
    except ValueError as exc:
        print(f"error[precision]: {exc}", file=sys.stderr)
        return 2

    try:
        L = load_gram(args.lattice)
    except (NotEven, NotSymmetric, NotPositiveDefinite) as exc:
        print(f"gram validation failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        if args.command == "verify":
            print("verification suite skipped", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error[lattice]: {exc}", file=sys.stderr)
        return 2

    space = space_for(L)
    B = args.B if args.B is not None else DEFAULT_B.get(args.command)
    doc = {
        "schema": "1",
        "command": args.command,
        "lattice": args.lattice,
        "n": L.n,
        "seed": args.seed,
        "precision": digits,
    }

    try:
        if args.command == "report":
            doc["report"] = cmd_report(space)
            code = 0
        elif args.command == "verify":
            doc["properties"] = cmd_verify(space, args.seed, args.tol)
            doc["pass"] = all(e["pass"] for e in doc["properties"])
            code = 0 if doc["pass"] else 1
        else:
            if args.s is not None:
                s_grid = parse_s_grid(args.s)
            else:
                s_grid = [complex(space.n + 4)
                          if args.command in ("eisenstein", "completed")
                          else 2.0 + 0j]
            doc["B"] = B
            doc["s_grid"] = [_pair(s) for s in s_grid]
            if args.command == "eisenstein":
                doc["rows"] = cmd_eval_eisenstein(space, s_grid, B)
                code = 0 if all(
                    r["monotone_classes"] and r.get("monotone_value", True)
                    for r in doc["rows"]) else 1
            elif args.command == "theta":
                doc["rows"] = cmd_eval_theta(space, B)
                code = 0 if all(r["within_tail"] for r in doc["rows"]) else 1
            elif args.command == "siegel":
                doc["rows"] = cmd_eval_siegel(s_grid, B)
                code = 0
            else:
                doc["rows"] = cmd_eval_completed(space, s_grid, B, args)
                code = 0
    except OrthokleisError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error[input]: {exc}", file=sys.stderr)
        return 2

    doc["pass"] = doc.get("pass", code == 0)
    emit(doc, args.fmt)
    return code


if __name__ == "__main__":
    sys.exit(main())
