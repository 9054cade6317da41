"""The special orthogonal group of the twice-bordered form and its action
on the tube domain.

Points of the domain are complex vectors Z of length n+2 whose imaginary
part lies in the cone {y_1 > 0, Q0[y] > 0}.  A group element g acts through
the projective column (-S0[Z]/2, Z, 1):

    g<Z> = (-S0[Z]/2 * b + A Z + c) / (-S0[Z]/2 * gamma + d^t Z + delta)

with the denominator the factor of automorphy j(g, Z).  The quadratic form
S0[Z] on complex vectors is the bilinear extension Z^t S0 Z without
conjugation; this is forced by holomorphy of the action and gives
S0[(i,0,...,0,i)] = -2 at the base point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

import numpy as np

from .errors import DomainExit, IsotropicReflectionVector, NonIntegralEmbed
from .intmat import congruent_form, fraction_inverse, int_dtype, max_abs
from .lattice import BorderedForms, GramLattice, bordered_forms

GROUP_TOL = 1e-9
DENOM_TOL = 1e-12


@lru_cache(maxsize=None)
def space_for(L: GramLattice) -> "Space":
    """The one Space of a lattice.  Unbounded on purpose: OrthElement
    compares spaces by identity, so evicting a Space would make g @ h
    refuse two elements of the same lattice."""
    return Space(L)


class Space:
    """Bundle of a lattice with its bordered forms and base point."""

    def __init__(self, L: GramLattice):
        self.L = L
        self.n = L.n
        self.forms: BorderedForms = bordered_forms(L)
        self.S0 = self.forms.S0_np().astype(float)
        self.S1 = self.forms.S1_np().astype(float)
        self.S0_int = [list(r) for r in self.forms.S0]
        self.S1_int = [list(r) for r in self.forms.S1]
        S0_inv = fraction_inverse(self.S0_int)
        S1_inv = fraction_inverse(self.S1_int)
        self.S0_inv_np = np.array([[float(x) for x in row] for row in S0_inv])
        self.S1_inv_np = np.array([[float(x) for x in row] for row in S1_inv])
        # S1^{-1} = S1_inv_scaled / S1_inv_den with an integer numerator:
        # the denominator is 1 for E8, 2 for D4 and 3 for A2
        self.S1_inv_den = lcm(*(x.denominator for row in S1_inv for x in row))
        self.S1_inv_scaled = np.array(
            [[x.numerator * (self.S1_inv_den // x.denominator) for x in row]
             for row in S1_inv], dtype=object)
        self.S0_exact = np.array(self.S0_int, dtype=object)
        self.S1_exact = np.array(self.S1_int, dtype=object)
        self.dim = L.n + 2

    def q0(self, y):
        """Q0[y] = y_first y_last - S[y_mid]/2, bilinearly extended."""
        y = np.asarray(y)
        mid = y[1:-1]
        Smat = self.L.gram_np().astype(mid.dtype if mid.dtype.kind == "c" else float)
        return y[0] * y[-1] - 0.5 * (mid @ Smat @ mid)

    def s0_bracket(self, Z):
        """Bilinear S0[Z] = 2 Z_first Z_last - S[Z_mid], no conjugation."""
        return 2.0 * self.q0(Z)

    def base_point(self) -> "TubePoint":
        Z = np.zeros(self.dim, dtype=complex)
        Z[0] = 1j
        Z[-1] = 1j
        return TubePoint(self, Z)

    def contains_im(self, y, tol=DENOM_TOL) -> bool:
        return y[0] > tol and float(np.real(self.q0(y))) > tol


@dataclass
class TubePoint:
    """A point of the tube domain over a fixed lattice."""

    space: Space
    Z: np.ndarray

    def __post_init__(self):
        self.Z = np.asarray(self.Z, dtype=complex)
        if self.Z.shape != (self.space.dim,):
            raise ValueError(f"expected length {self.space.dim} vector")
        y = self.Z.imag
        if not self.space.contains_im(y):
            raise DomainExit(
                f"imaginary part outside the cone: y1={y[0]:.3e}, "
                f"Q0[y]={float(np.real(self.space.q0(y))):.3e}")

    @property
    def omega(self) -> complex:
        return complex(self.Z[0])

    @property
    def zvec(self) -> np.ndarray:
        return self.Z[1:-1]

    @property
    def tau(self) -> complex:
        return complex(self.Z[-1])

    @property
    def y(self) -> np.ndarray:
        return self.Z.imag

    def q0_im(self) -> float:
        return float(np.real(self.space.q0(self.Z.imag)))

    def __repr__(self):
        return f"TubePoint({np.round(self.Z, 6)})"


class OrthElement:
    """A matrix of the big orthogonal group, optionally exact-integral.

    Exact elements store python-int entries (numpy object array), so words
    of any size are held without rounding.  Their arithmetic runs on int64
    when a headroom bound shows that no partial sum can overflow it, and on
    python ints otherwise.  Float elements are checked against the defining
    relation at tolerance.
    """

    def __init__(self, space: Space, mat, exact: bool = False, check: bool = True):
        self.space = space
        if exact and isinstance(mat, np.ndarray) and mat.dtype.kind in "iu":
            self.mat = mat.astype(object)  # python ints, whatever the width
        elif exact:
            self.mat = np.array([[int(x) for x in row] for row in mat], dtype=object)
        else:
            self.mat = np.asarray(mat, dtype=float)
        self.exact = exact
        if check:
            self._check_relation()

    def _check_relation(self):
        m = self.space.dim + 2
        if self.mat.shape != (m, m):
            raise ValueError(f"expected {m}x{m} matrix")
        if self.exact:
            S1 = self.space.S1_exact
            if not np.array_equal(congruent_form(S1, self.mat), S1):
                raise ValueError("exact element does not preserve the bordered form")
        else:
            g = self.mat
            resid = np.abs(g.T @ self.space.S1 @ g - self.space.S1).max()
            if resid > GROUP_TOL:
                raise ValueError(f"form relation residual {resid:.2e} exceeds {GROUP_TOL}")
            det = np.linalg.det(g)
            if abs(det - 1.0) > 1e-7:
                raise ValueError(f"determinant {det} is not 1")

    def asfloat(self) -> np.ndarray:
        return self.mat.astype(float)

    def __matmul__(self, other: "OrthElement") -> "OrthElement":
        if self.space is not other.space:
            raise ValueError("elements live over different lattices")
        exact = self.exact and other.exact
        if exact:
            A, B = self.mat, other.mat
            dt = int_dtype(A.shape[0] * max_abs(A) * max_abs(B))
            return OrthElement(self.space, A.astype(dt) @ B.astype(dt),
                               exact=True, check=False)
        return OrthElement(self.space, self.asfloat() @ other.asfloat(),
                           exact=False, check=False)

    # block accessors in the (1, n+2, 1) partition
    @property
    def alpha(self): return self.mat[0, 0]
    @property
    def avec(self): return self.mat[0, 1:-1]
    @property
    def beta(self): return self.mat[0, -1]
    @property
    def bvec(self): return self.mat[1:-1, 0]
    @property
    def Ablock(self): return self.mat[1:-1, 1:-1]
    @property
    def cvec(self): return self.mat[1:-1, -1]
    @property
    def gamma_entry(self): return self.mat[-1, 0]
    @property
    def dvec(self): return self.mat[-1, 1:-1]
    @property
    def delta(self): return self.mat[-1, -1]

    def to_json(self):
        if self.exact:
            entries = [[int(x) for x in row] for row in self.mat]
        else:
            entries = [[float(x) for x in row] for row in self.mat]
        return {"exact": self.exact, "mat": entries}

    @classmethod
    def from_json(cls, space: Space, data):
        return cls(space, data["mat"], exact=bool(data["exact"]))

    def __repr__(self):
        tag = "exact" if self.exact else "float"
        return f"OrthElement({tag}, {self.mat.shape[0]}x{self.mat.shape[1]})"


def identity_element(space: Space) -> OrthElement:
    m = space.dim + 2
    return OrthElement(space, np.eye(m, dtype=int), exact=True, check=False)


def projective_column(space: Space, Z: np.ndarray) -> np.ndarray:
    return np.concatenate(([-0.5 * space.s0_bracket(Z)], Z, [1.0 + 0j]))


def automorphy(g: OrthElement, Z: TubePoint) -> complex:
    """j(g, Z): the last entry of g applied to the projective column."""
    col = projective_column(g.space, Z.Z)
    return complex(g.asfloat()[-1] @ col)


def act(g: OrthElement, Z: TubePoint) -> TubePoint:
    """g<Z>; raises DomainExit when the image leaves the cone or the
    denominator degenerates."""
    space = g.space
    col = projective_column(space, Z.Z)
    w = g.asfloat() @ col
    j = w[-1]
    if abs(j) < DENOM_TOL:
        raise DomainExit(f"vanishing automorphy factor |j| = {abs(j):.2e}")
    return TubePoint(space, w[1:-1] / j)


def inverse_closed_form(g: OrthElement) -> OrthElement:
    """g^{-1} = S1^{-1} g^t S1, exact for exact elements.

    The exact route forms (d S1^{-1}) g^t S1 with the integer matrix
    d S1^{-1} and divides it exactly by d; every partial sum is bounded
    by m^2 max|d S1^{-1}| max|g| max|S1|."""
    space = g.space
    if g.exact:
        N, S1, d = space.S1_inv_scaled, space.S1_exact, space.S1_inv_den
        m = g.mat.shape[0]
        dt = int_dtype(m * m * max_abs(N) * max_abs(g.mat) * max_abs(S1))
        prod = N.astype(dt) @ g.mat.T.astype(dt) @ S1.astype(dt)
        if d != 1:
            bad = np.flatnonzero(prod % d)
            if bad.size:
                x = int(prod.flat[bad[0]])
                c = gcd(x, d)
                raise NonIntegralEmbed(
                    f"inverse entry {x // c}/{d // c} is not integral")
            prod = prod // d
        return OrthElement(space, prod, exact=True, check=False)
    inv = space.S1_inv_np @ g.asfloat().T @ space.S1
    return OrthElement(space, inv, exact=False, check=False)


def in_identity_component(g: OrthElement) -> bool:
    """Whether g preserves the chosen component of the cone.

    Tested by acting on the base point; this detects the index-2
    domain-preserving subgroup, which is the operative condition for every
    downstream use.
    """
    try:
        act(g, g.space.base_point())
    except DomainExit:
        return False
    return True


# ---------------------------------------------------------------- builders

def translation(space: Space, lam) -> OrthElement:
    """T_lam with T_lam<Z> = Z + lam; exact if lam is integral."""
    lam = list(lam)
    m = space.dim
    exact = all(isinstance(x, (int, np.integer)) for x in lam)
    if exact:
        lam = np.array([int(x) for x in lam], dtype=object)
        S0 = space.S0_exact
        dt = int_dtype(m * m * max_abs(S0) * max_abs(lam) ** 2)
        lam = lam.astype(dt)
        lamS0 = lam @ S0.astype(dt)
        # S0[lam] = 2 lam_first lam_last - S[lam_mid], even as S is
        s0 = lamS0 @ lam
        assert s0 % 2 == 0
        g = np.eye(m + 2, dtype=dt)
        g[0, 1:-1] = -lamS0
        g[0, -1] = -(s0 // 2)
        g[1:-1, -1] = lam
        return OrthElement(space, g, exact=True)
    lamf = np.asarray(lam, dtype=float)
    g = np.eye(m + 2)
    g[0, 1:-1] = -(space.S0 @ lamf)
    g[0, -1] = -float(np.real(space.q0(lamf)))
    g[1:-1, -1] = lamf
    return OrthElement(space, g, exact=False)


def heisenberg(space: Space, x, y) -> OrthElement:
    """The unipotent element attached to a pair of integer lattice vectors."""
    n = space.n
    x = [int(v) for v in x]
    y = [int(v) for v in y]
    if len(x) != n or len(y) != n:
        raise ValueError(f"expected length-{n} vectors")
    xy = np.array([x, y], dtype=object)
    S = -space.S0_exact[1:-1, 1:-1]  # the lattice Gram
    dt = int_dtype(n * n * max_abs(S) * max_abs(xy) ** 2)
    xy = xy.astype(dt)
    xyS = xy @ S.astype(dt)  # x^t S and y^t S
    (sx, xSy), (_, sy) = xyS @ xy.T
    m = n + 4
    g = np.eye(m, dtype=dt)
    g[0, 2:2 + n] = xyS[1]
    g[0, m - 1] = sy // 2
    g[1, 2:2 + n] = xyS[0]
    g[1, m - 2] = sx // 2
    g[1, m - 1] = xSy
    g[2:2 + n, m - 2:] = xy.T
    return OrthElement(space, g, exact=True)


def rotation(space: Space, D) -> OrthElement:
    """diag(D^*, 1_n, D) for D in SL_2(Z), with D^* the off-sign flip."""
    (a, b), (c, d) = D
    a, b, c, d = int(a), int(b), int(c), int(d)
    if a * d - b * c != 1:
        raise ValueError("rotation parameter must have determinant 1")
    n = space.n
    m = n + 4
    g = [[0] * m for _ in range(m)]
    g[0][0], g[0][1] = a, -b
    g[1][0], g[1][1] = -c, d
    for i in range(n):
        g[2 + i][2 + i] = 1
    g[m - 2][m - 2], g[m - 2][m - 1] = a, b
    g[m - 1][m - 2], g[m - 1][m - 1] = c, d
    return OrthElement(space, g, exact=True)


def levi(space: Space, A, exact: bool | None = None) -> OrthElement:
    """diag(1, A, 1) for A preserving the middle bordered form."""
    m = space.dim
    arr = np.asarray(A)
    if exact is None:
        exact = arr.dtype.kind in "iu" or (
            arr.dtype == object
            and all(isinstance(x, (int, np.integer)) for x in arr.ravel()))
    big = np.zeros((m + 2, m + 2), dtype=object if exact else float)
    big[0, 0] = 1
    big[-1, -1] = 1
    for i in range(m):
        for j in range(m):
            big[1 + i, 1 + j] = arr[i, j] if not exact else int(arr[i, j])
    return OrthElement(space, big, exact=exact)


def scale(space: Space, t: float) -> OrthElement:
    """diag(t, 1, 1/t): acts on the domain by Z -> t Z."""
    if not t > 0:
        raise ValueError("scale factor must be positive")
    m = space.dim
    g = np.eye(m + 2)
    g[0, 0] = t
    g[-1, -1] = 1.0 / t
    return OrthElement(space, g, exact=False)


def reflection_matrix(space: Space, w) -> np.ndarray:
    """sigma_w = 1 - 2 w w^t S0 / (w^t S0 w) on the middle space."""
    w = np.asarray(w, dtype=float)
    norm = float(w @ space.S0 @ w)
    if abs(norm) < 1e-12:
        raise IsotropicReflectionVector(f"w^t S0 w = {norm:.2e}")
    return np.eye(space.dim) - 2.0 * np.outer(w, space.S0 @ w) / norm


def reflection_pair(space: Space, u, v) -> OrthElement:
    """Embedded product sigma_u sigma_v, an element of the middle SO."""
    A = reflection_matrix(space, u) @ reflection_matrix(space, v)
    return levi(space, A, exact=False)


def builders(space: Space, kind: str, **params) -> OrthElement:
    """Dispatcher over the element builders by kind name."""
    table = {
        "translation": lambda: translation(space, params["lam"]),
        "heisenberg": lambda: heisenberg(space, params["x"], params["y"]),
        "rotation": lambda: rotation(space, params["D"]),
        "levi": lambda: levi(space, params["A"]),
        "scale": lambda: scale(space, params["t"]),
        "reflection_pair": lambda: reflection_pair(space, params["u"], params["v"]),
    }
    if kind not in table:
        raise ValueError(f"unknown builder kind: {kind}")
    return table[kind]()


SL2_GENS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)))


def random_word(space: Space, rng: np.random.Generator, length: int = 4,
                coeff: int = 2) -> OrthElement:
    """A random exact word in translations, unipotents and rotations.

    These generate a subgroup of the integral stabilizer big enough for
    every invariance test in the suite.
    """
    g = identity_element(space)
    n = space.n
    for _ in range(length):
        kind = rng.integers(0, 3)
        if kind == 0:
            lam = rng.integers(-coeff, coeff + 1, size=space.dim)
            piece = translation(space, [int(v) for v in lam])
        elif kind == 1:
            x = rng.integers(-coeff, coeff + 1, size=n)
            y = rng.integers(-coeff, coeff + 1, size=n)
            piece = heisenberg(space, x, y)
        else:
            piece = rotation(space, SL2_GENS[rng.integers(0, len(SL2_GENS))])
        g = g @ piece
    return g


def random_point(space: Space, rng: np.random.Generator) -> TubePoint:
    """A random tube-domain point with imaginary part safely in the cone."""
    m = space.dim
    X = rng.uniform(-1, 1, size=m)
    zmid = rng.uniform(-0.3, 0.3, size=m - 2)
    y1 = rng.uniform(0.8, 2.0)
    smid = float(zmid @ space.L.gram_np() @ zmid)
    ylast = (0.5 * smid + rng.uniform(0.5, 1.5)) / y1
    Y = np.concatenate(([y1], zmid, [ylast]))
    assert float(np.real(space.q0(Y))) > 0
    return TubePoint(space, X + 1j * Y)
