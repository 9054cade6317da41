"""Positive majorants of the twice-bordered form along the tube domain.

At the base point the majorant is the diagonal form diag(1, 1, S, 1, 1),
which satisfies R S1^{-1} R = S1.  At any other point Z it is obtained by
transporting the base majorant with a group element delta taking the base
point to Z:

    R_Z = R_I[delta^{-1}] = (delta^{-1})^t R_I delta^{-1}.

The transport is assembled as translation * dilation * rotation, the
rotation part being a product of reflection pairs moving the normalized
imaginary direction; any two such transports differ by a stabilizer
element of the base point, which fixes R_I, so R_Z is well defined.

The scalar klingen_quotient(Z) = Q0[Im Z] / Im(last coordinate) ties the
majorant to the series machinery: for a group element g with lower rows
l (second to last) and m (last), the matrix L whose columns are the first
two columns of g^{-1} satisfies

    det(R_Z[L]) = klingen_quotient(g<Z>)^{-2}.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import TransportFailure
from .orthogroup import (
    OrthElement,
    Space,
    TubePoint,
    act,
    inverse_closed_form,
    levi,
    reflection_matrix,
    scale,
    translation,
)

TRANSPORT_TOL = 1e-8
DEGENERATE_TOL = 1e-10


def base_majorant(space: Space) -> np.ndarray:
    """diag(1, 1, S, 1, 1): the positive form paired to the base point."""
    n = space.n
    R = np.zeros((n + 4, n + 4))
    R[0, 0] = 1.0
    R[1, 1] = 1.0
    R[2:2 + n, 2:2 + n] = space.L.gram_np().astype(float)
    R[n + 2, n + 2] = 1.0
    R[n + 3, n + 3] = 1.0
    return R


def base_majorant_rows(space: Space) -> list:
    """Integer rows of the base majorant, for exact quadratic evaluation."""
    n = space.n
    rows = [[0] * (n + 4) for _ in range(n + 4)]
    rows[0][0] = 1
    rows[1][1] = 1
    S = space.L.gram()
    for i in range(n):
        for j in range(n):
            rows[2 + i][2 + j] = S[i][j]
    rows[n + 2][n + 2] = 1
    rows[n + 3][n + 3] = 1
    return rows


def _phi0(space: Space, a, b) -> float:
    """Half the bordered bilinear pairing of two middle-space vectors."""
    return 0.5 * float(np.asarray(a) @ space.S0 @ np.asarray(b))


def _rotation_to(space: Space, yhat: np.ndarray) -> np.ndarray:
    """An SO(middle form) matrix sending the base direction to yhat."""
    v0 = np.zeros(space.dim)
    v0[0] = 1.0
    v0[-1] = 1.0
    fixer = np.zeros(space.dim)
    fixer[1] = 1.0
    ref_fix = reflection_matrix(space, fixer)

    def one_hop(src, dst):
        u = src - dst
        if float(np.abs(u).max()) <= 1e-13:
            return np.eye(space.dim)
        norm_u = 2.0 * _phi0(space, u, u)
        if abs(norm_u) < DEGENERATE_TOL:
            return None
        return reflection_matrix(space, u) @ ref_fix

    direct = one_hop(v0, yhat)
    if direct is not None:
        return direct
    # the difference vector degenerated: route through an intermediate
    # direction of the same cone norm, two hops of two reflections each
    for mid_first in (2.0, 0.5, 3.0):
        mid = np.zeros(space.dim)
        mid[0] = mid_first
        mid[-1] = 1.0 / mid_first
        hop1 = one_hop(v0, mid)
        hop2 = one_hop(mid, yhat)
        if hop1 is not None and hop2 is not None:
            return hop2 @ hop1
    raise TransportFailure(float(_phi0(space, v0 - yhat, v0 - yhat)))


def transport_to(space: Space, Z: TubePoint) -> OrthElement:
    """A real group element delta with delta<base point> = Z."""
    X = Z.Z.real
    Y = Z.Z.imag
    q = float(np.real(space.q0(Y)))
    t = math.sqrt(q)
    yhat = Y / t
    k = _rotation_to(space, yhat)
    delta = translation(space, list(X)) @ scale(space, t) @ levi(space, k, exact=False)
    image = act(delta, space.base_point())
    residual = float(np.abs(image.Z - Z.Z).max())
    if residual > TRANSPORT_TOL:
        raise TransportFailure(residual)
    return delta


def majorant_at(space: Space, Z: TubePoint) -> np.ndarray:
    """R_Z, the transported majorant.  The last 1024 points are cached, so
    equal points share one array; it is read-only, and a caller that needs
    to change it works on a copy."""
    return _majorant(space, Z.Z.tobytes())


@lru_cache(maxsize=1024)
def _majorant(space: Space, zbytes: bytes) -> np.ndarray:
    Z = TubePoint(space, np.frombuffer(zbytes, dtype=complex))
    delta = transport_to(space, Z)
    dinv = inverse_closed_form(delta).asfloat()
    R = dinv.T @ base_majorant(space) @ dinv
    R = 0.5 * (R + R.T)
    resid = np.abs(R @ space.S1_inv_np @ R - space.S1).max()
    if resid > 1e-6:
        raise TransportFailure(float(resid))
    R.setflags(write=False)
    return R


clear_majorant_cache = _majorant.cache_clear


def klingen_quotient(space: Space, Z: TubePoint) -> float:
    """Q0[Im Z] divided by the imaginary part of the last coordinate."""
    y = Z.Z.imag
    return float(np.real(space.q0(y))) / float(y[-1])


def lower_rows_matrix(g: OrthElement) -> np.ndarray:
    """The two-column matrix of the first two columns of g^{-1}, whose
    majorant determinant matches the inverse square of the quotient at
    the image point."""
    ginv = inverse_closed_form(g)
    return ginv.asfloat()[:, :2]
