"""Shared fixture curves, one per Galois case and prime.

Each entry was located by the same scan cmd_search performs (ascending p,
then lexicographic (a, b)) and validated against the rational-torsion-rank
classifier; tests re-derive the case from scratch, so a regression in either
side shows up as a mismatch here.
"""

import itertools
from functools import lru_cache

from ellmassey import ec, ff, galois

# (ell, case) -> (p, a, b)
CURVES = {
    (3, "full_torsion"): (7, 0, 2),
    (3, "full_torsion_2"): (13, 0, 3),
    (3, "full_torsion_3"): (19, 0, 5),
    (3, "split_line"): (5, 0, 1),
    (3, "split_line_a0"): (5, 1, 1),  # trivial action on the cyclic Z/9 part
    (5, "split_line"): (7, 1, 1),
    (7, "split_line"): (23, 1, 1),  # p = 2 mod 7 with a rational 7-torsion point
    (3, "unipotent_line"): (7, 0, 1),
    (5, "unipotent_line"): (11, 1, 7),
    (7, "unipotent_line"): (29, 1, 7),
    (3, "no_fixed_points"): (5, 1, 0),
    (5, "no_fixed_points"): (7, 0, 1),
    (7, "no_fixed_points"): (5, 0, 1),
    (5, "full_torsion"): (31, 0, 11),  # E[5] rational: the abelian quotient
}


@lru_cache(maxsize=None)
def curve(ell: int, case: str) -> ec.Curve:
    p, a, b = CURVES[(ell, case)]
    return ec.curve_new(ff.make_field(p, 1), a, b)


@lru_cache(maxsize=None)
def group(ell: int, case: str) -> galois.GbarGroup:
    return galois.build_gbar(curve(ell, case), ell)


def full_torsion_groups():
    return [group(3, c) for c in ("full_torsion", "full_torsion_2", "full_torsion_3")]


def isomorphism_orbit(a: int, b: int, p: int) -> frozenset:
    """The GF(p)-isomorphism class of (a, b) as the orbit {(u^4 a, u^6 b): u != 0},
    marked pair by pair (the reference for ec.class_key)."""
    return frozenset(((u**4 * a) % p, (u**6 * b) % p) for u in range(1, p))


def isomorphism_classes(p: int):
    """The first (a, b) of each GF(p)-isomorphism class of nonsingular curves:
    (a, b) ~ (u^4 a, u^6 b) for u != 0."""
    seen = set()
    for a, b in itertools.product(range(p), repeat=2):
        if (4 * a**3 + 27 * b**2) % p and (a, b) not in seen:
            seen.update(isomorphism_orbit(a, b, p))
            yield a, b
