"""Seeded inputs of the workloads, made with the standard library only.

A word is a list of (builder kind, parameters): a nonzero integral
translation followed by a Heisenberg unipotent (x, y) with x nonzero, all
entries in [-1, 1].  The Heisenberg letter gives the middle coordinates of
the base point the imaginary part x, and the translation moves real parts
only, so g<base> is never the base point: the moved majorant never
selects the base-point enumerator, and the general path always runs.
"""

from __future__ import annotations

import random

# E8 and A2 points of the eisenstein workload
E8_MOVED_POINTS = 6
A2_MOVED_POINTS = 2


def _vector(rng: random.Random, k: int) -> list[int]:
    """A nonzero vector with entries in [-1, 1]."""
    while True:
        v = [rng.randint(-1, 1) for _ in range(k)]
        if any(v):
            return v


def word(rng: random.Random, n: int):
    return [("translation", {"lam": _vector(rng, n + 2)}),
            ("heisenberg", {"x": _vector(rng, n),
                            "y": [rng.randint(-1, 1) for _ in range(n)]})]


def eisenstein_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "e8_words": [word(rng, 8) for _ in range(E8_MOVED_POINTS)],
        "a2_words": [word(rng, 2) for _ in range(A2_MOVED_POINTS)],
    }


def theta_inputs(seed: int) -> dict:
    """W = h<base> and g<W>: both are orbit points of the base point, so
    the term count at each is the base-point count whatever the seed."""
    rng = random.Random(10_000 + seed)
    return {"h": word(rng, 8), "g": word(rng, 8)}
