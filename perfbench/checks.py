"""Output checks for the benchmark workloads.

Every check rests on a computation made apart from the program (exact
integer arithmetic, closed-form shell counts, mpmath) or on a property the
method must have.  None compares against a stored copy of earlier output.
Each function returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

REL_BOUNDARY = 1e-9  # the enumerators' relative slack at det(R[ell]) = B


# ------------------------------------------------------------ classes

def bordered(S) -> tuple[np.ndarray, np.ndarray]:
    """(S1, R0) for a Gram matrix S: the twice-bordered form
    S1[(a, c, x, d, b)] = 2ab + 2cd - S[x] and its base majorant
    diag(1, 1, S, 1, 1), both as integer arrays."""
    S = np.array(S, dtype=np.int64)
    n = len(S)
    m = n + 4
    s1 = np.zeros((m, m), dtype=np.int64)
    s1[0, m - 1] = s1[m - 1, 0] = s1[1, m - 2] = s1[m - 2, 1] = 1
    s1[2:2 + n, 2:2 + n] = -S
    r0 = np.eye(m, dtype=np.int64)
    r0[2:2 + n, 2:2 + n] = S
    return s1, r0


def class_arrays(classes) -> tuple[np.ndarray, np.ndarray]:
    """The (k, m, 2) integer stack of representatives and the reported
    determinants of a class list."""
    k = len(classes)
    m = len(classes[0].ell) if k else 0
    flat = (x for c in classes for row in c.ell for x in row)
    ells = np.fromiter(flat, dtype=np.int64, count=k * m * 2)
    det = np.fromiter((c.detR for c in classes), dtype=float, count=k)
    return ells.reshape(k, m, 2), det


def exact_inverse(g: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """g^-1 = S1^-1 g^t S1 for g preserving S1, verified in integers."""
    ginv = np.rint(np.linalg.inv(s1) @ g.T @ s1).astype(np.int64)
    if not (ginv @ g == np.eye(len(g), dtype=np.int64)).all():
        raise ValueError("word is not an integral element preserving S1")
    return ginv


def _gram2(ells: np.ndarray, M: np.ndarray):
    """Entries (g00, g01, g11) of ell^t M ell for a (k, m, 2) stack."""
    a, b = ells[:, :, 0], ells[:, :, 1]
    aM, bM = a @ M, b @ M
    return (aM * a).sum(1), (aM * b).sum(1), (bM * b).sum(1)


def _hnf_violations(ells: np.ndarray) -> int:
    """Classes whose 2 x m transpose is not in row Hermite form: row 0
    leads at p0 with a positive pivot, row 1 leads at p1 > p0 with a
    positive pivot, and row 0 at p1 lies in [0, pivot)."""
    rows0 = ells[:, :, 0]
    rows1 = ells[:, :, 1]
    nz0 = rows0 != 0
    nz1 = rows1 != 0
    p0 = nz0.argmax(axis=1)
    p1 = nz1.argmax(axis=1)
    k = np.arange(len(ells))
    piv0 = rows0[k, p0]
    piv1 = rows1[k, p1]
    above = rows0[k, p1]
    ok = (nz1.any(axis=1) & (p1 > p0) & (piv0 > 0) & (piv1 > 0)
          & (above >= 0) & (above < piv1))
    return int((~ok).sum())


def class_problems(label: str, ells: np.ndarray, det_r: np.ndarray,
                   s1: np.ndarray, r0: np.ndarray, bound: float,
                   to_base: np.ndarray | None = None) -> list[str]:
    """Properties every enumerated class must have.

    ells is a (k, m, 2) integer stack of canonical representatives and
    det_r the reported det(R[ell]).  r0 is the integral base majorant; for
    classes at a moved point g<base>, to_base is the exact integer inverse
    of g, so det(R[ell]) = det(r0[g^-1 ell]) is recomputed in integers.
    """
    out = []
    k = len(ells)
    if k == 0:
        return [f"{label}: no classes"]
    if np.abs(ells).max() >= 2 ** 20:
        return [f"{label}: entries too large for the int64 checks"]
    g00, g01, g11 = _gram2(ells, s1)
    bad = int(((g00 != 0) | (g01 != 0) | (g11 != 0)).sum())
    if bad:
        out.append(f"{label}: {bad} classes are not S1-isotropic")
    i, j = np.triu_indices(ells.shape[1], 1)
    minors = ells[:, i, 0] * ells[:, j, 1] - ells[:, j, 0] * ells[:, i, 1]
    g = np.gcd.reduce(np.abs(minors), axis=1)
    if (g == 0).any():
        out.append(f"{label}: {int((g == 0).sum())} classes have rank below 2")
    if (g > 1).any():
        out.append(f"{label}: {int((g > 1).sum())} classes are imprimitive")
    bad = _hnf_violations(ells)
    if bad:
        out.append(f"{label}: {bad} representatives are not in column "
                   "Hermite form")
    distinct = len({row.tobytes() for row in ells.reshape(k, -1)})
    if distinct != k:
        out.append(f"{label}: {k - distinct} duplicated classes")
    frame = ells if to_base is None else np.einsum("ij,kja->kia", to_base, ells)
    g00, g01, g11 = _gram2(frame, r0)
    det = g00 * g11 - g01 * g01
    root = np.array([math.isqrt(int(d)) if d >= 0 else -1 for d in det])
    dmax = math.isqrt(int(bound * (1 + REL_BOUNDARY) + REL_BOUNDARY))
    bad = int(((root * root != det) | (root < 1) | (root > dmax)).sum())
    if bad:
        out.append(f"{label}: {bad} determinants are not D^2 with "
                   f"1 <= D <= {dmax}")
    det_r = np.asarray(det_r, dtype=float)
    if to_base is None:
        bad = int((det_r != det.astype(float)).sum())
    else:
        bad = int((np.abs(det_r - det) > REL_BOUNDARY * det).sum())
    if bad:
        out.append(f"{label}: {bad} reported det(R[ell]) differ from the "
                   "recomputed determinant")
    return out


def series_value(det_r, s: complex) -> complex:
    """Sum of det^(-s/2), summed apart from the program."""
    d = np.asarray(det_r, dtype=float)
    terms = np.exp(-complex(s) / 2 * np.log(d))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def value_problems(label: str, value: complex, det_r, s: complex,
                   rel: float = 1e-10) -> list[str]:
    """The program's series value against the benchmark's own sum."""
    ref = series_value(det_r, s)
    err = abs(complex(value) - ref) / abs(ref)
    if not err <= rel:
        return [f"{label}: series value off by {err:.2e} relative"]
    return []


def agreement_problems(label: str, base_det, moved_det, bound: float,
                       s: complex, rel: float = 1e-10) -> list[str]:
    """The general path at a moved point against the base-point path:
    same class count at the same bound, series values within rel."""
    base_det = np.asarray(base_det, dtype=float)
    limit = bound * (1 + REL_BOUNDARY) + REL_BOUNDARY
    ref = base_det[base_det <= limit]
    if len(moved_det) != len(ref):
        return [f"{label}: {len(moved_det)} classes, the base point has "
                f"{len(ref)} at B={bound:g}"]
    a, b = series_value(moved_det, s), series_value(ref, s)
    err = abs(a - b) / abs(b)
    if not err <= rel:
        return [f"{label}: value differs from the base point by {err:.2e}"]
    return []


def transport_problems(label: str, ells: np.ndarray, det_r, g: np.ndarray,
                       r_moved: np.ndarray, rel: float = 1e-10) -> list[str]:
    """Map the base classes through the exact word g: det(R_{g<base>}[g ell])
    must reproduce the multiset of base determinants."""
    moved = np.einsum("ij,kja->kia", g, ells).astype(float)
    g00, g01, g11 = _gram2(moved, r_moved)
    det = g00 * g11 - g01 * g01
    ref = np.sort(np.asarray(det_r, dtype=float))
    err = np.abs(np.sort(det) - ref) / ref
    if not err.max() <= rel:
        return [f"{label}: transported determinants off by "
                f"{err.max():.2e} relative"]
    return []


# -------------------------------------------------------------- theta

def _sigma(n: int, k: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def _convolve(a, b):
    out = [0] * len(a)
    for i, ai in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += ai * b[j]
    return out


def e8_majorant_shells(T: int) -> list[int]:
    """#{v : R_base[v] = t} for t <= T with R_base = diag(1, 1, E8, 1, 1):
    Jacobi's four-square counts convolved with r_E8(2k) = 240 sigma_3(k)."""
    r4 = [1] + [8 * _sigma(n, 1) - (32 * _sigma(n // 4, 1) if n % 4 == 0
                                     else 0) for n in range(1, T + 1)]
    e8 = [1] + [240 * _sigma(t // 2, 3) if t % 2 == 0 else 0
                for t in range(1, T + 1)]
    return _convolve(r4, e8)


def shell_problems(counts, T: int) -> list[str]:
    ref = e8_majorant_shells(T)
    if list(counts) != ref:
        bad = [t for t in range(T + 1)
               if t >= len(counts) or counts[t] != ref[t]]
        return [f"majorant shell counts differ at norms {bad}"]
    return []


def theta_pair_problems(rep_w: dict, rep_gw: dict,
                        tol: float = 1e-10) -> list[str]:
    """theta_report at W and at g<W> for an exact word g: the term counts
    are equal and the values agree."""
    out = []
    if rep_w["classes"] != rep_gw["classes"]:
        out.append(f"theta term counts differ: {rep_w['classes']} at W, "
                   f"{rep_gw['classes']} at g<W>")
    d = abs(complex(*rep_w["value"]) - complex(*rep_gw["value"]))
    if not d <= tol:
        out.append(f"theta values at W and g<W> differ by {d:.2e}")
    return out


def inversion_problems(alpha: float, dim: int, at_inv: tuple,
                       at_alpha: tuple, tail_cap: float = 1e-7) -> list[str]:
    """Poisson inversion for the unimodular base majorant of rank dim:
    the two-column sum at y = 1/alpha equals alpha^dim times the sum at
    y = alpha, within ten times the certified tails."""
    (v_inv, t_inv), (v_a, t_a) = at_inv, at_alpha
    out = []
    if not (0 <= t_inv < tail_cap and 0 <= t_a < tail_cap):
        out.append(f"certified tails {t_inv:.2e}, {t_a:.2e} are not below "
                   f"{tail_cap:g}")
    scale = alpha ** dim
    gap = abs(v_inv - scale * v_a)
    if not gap <= 10 * (t_inv + scale * t_a):
        out.append(f"inversion law misses by {gap:.2e}, tails allow "
                   f"{10 * (t_inv + scale * t_a):.2e}")
    return out


# ---------------------------------------------------------------- cli

def _xi_reference(x: float) -> float:
    import mpmath

    with mpmath.workdps(30):
        x = mpmath.mpf(x)
        return float(mpmath.pi ** (-x / 2) * mpmath.gamma(x / 2)
                     * mpmath.zeta(x))


XI_ARGUMENTS = {
    "xi(s-3)": lambda s: s - 3,
    "xi(2s-8)": lambda s: 2 * s - 8,
    "xi(s)": lambda s: s,
    "xi(s-1)": lambda s: s - 1,
}


def _theta_command_reference(B: float) -> tuple[int, float]:
    """Terms and value of the theta command at Z = 2i I over the base
    point: a term is a pair (v1, v2) with 2 (R[v1] + R[v2]) <= B and adds
    exp(-2 pi (R[v1] + R[v2]))."""
    T = int(B // 2)
    shells = e8_majorant_shells(T)
    pairs = _convolve(shells, shells)
    value = math.fsum(c * math.exp(-2 * math.pi * t)
                      for t, c in enumerate(pairs))
    return sum(pairs) - 1, value


def cli_problems(command: str, returncode: int, doc: dict | None,
                 rel: float = 1e-10) -> list[str]:
    """Checks on one README command's exit code and JSON document."""
    if returncode != 0:
        return [f"{command}: exit code {returncode}"]
    if not isinstance(doc, dict) or doc.get("schema") != "1":
        return [f"{command}: output is not a schema 1 document"]
    out = []
    if command == "report":
        rep = doc["report"]
        if (rep["det"], rep["level"], rep["roots"]) != (1, 1, 240):
            out.append(f"report: det {rep['det']}, level {rep['level']}, "
                       f"roots {rep['roots']}; E8 has 1, 1, 240")
    elif command == "eisenstein":
        for row in doc["rows"]:
            if not (row["monotone_classes"] and row.get("monotone_value", True)):
                out.append(f"eisenstein: row {row['index']} is not monotone")
    elif command == "theta":
        for row in doc["rows"]:
            for key_b, key_v, key_t in (("B", "value", "terms"),
                                        ("refined_B", "refined_value", None)):
                terms, value = _theta_command_reference(row[key_b])
                if key_t and row[key_t] != terms:
                    out.append(f"theta: {row[key_t]} terms, expected {terms}")
                err = abs(complex(*row[key_v]) - value) / value
                if not err <= rel:
                    out.append(f"theta: {key_v} off by {err:.2e} relative")
    elif command == "siegel":
        for row in doc["rows"]:
            v, c = row["value"][0], row["coarser_value"][0]
            if not (v > 0 and v >= c - 1e-12):
                out.append(f"siegel: value {v} is not positive and at least "
                           f"the coarser {c}")
    elif command == "completed":
        for row in doc["rows"]:
            s = row["s"][0]
            seen = {f["label"]: f["value"] for f in row["factors"]
                    if f["label"].startswith("xi(")}
            if set(seen) != set(XI_ARGUMENTS):
                out.append(f"completed: xi factors {sorted(seen)}")
                continue
            for label, arg in XI_ARGUMENTS.items():
                ref = _xi_reference(arg(s))
                err = abs(complex(*seen[label]) - ref) / abs(ref)
                if not err <= rel:
                    out.append(f"completed: {label} off by {err:.2e}")
    elif command == "verify":
        props = doc["properties"]
        failed = [p["property"] for p in props if not p["pass"]]
        if len(props) != 24 or failed or doc.get("pass") is not True:
            out.append(f"verify: {len(props)} properties, failed {failed}")
    else:
        out.append(f"{command}: no checks for this command")
    return out
