"""Independent lifting oracle: homomorphisms into U3 and U4 by linear algebra.

A triple Massey product is nonempty iff the three characters lift to a
homomorphism into U4(Z/l) modulo its center, and contains zero iff they lift
to U4(Z/l) itself; cup products correspond to U3(Z/l) lifts (Dwyer's lifting
criterion). The oracle decides these with the superdiagonal pinned to the
character values, evaluating every defining relation of the group with
generic matrix arithmetic.

With the superdiagonal pinned, the U4 product and inverse never multiply
two free entries (u, v, w) together, so every entry of a
relation residual is an affine function of the free entries of all generator
images. The oracle reads each such function off by probing: it evaluates the
residual at zero and at every unit vector of the unknowns, then solves the
resulting linear system over Z/l exactly. A lift exists iff the
superdiagonal residuals vanish and the system is solvable:

  nonempty       unknowns u, w; the u and w slots must vanish
  contains zero  unknowns u, v, w; all three slots must vanish
  cup            U4 with a3 = 0, whose u entry multiplies exactly like the
                 U3 corner (u + u' + a1*a2', inverse a1*a2 - u); unknown u,
                 and the u slot must vanish

A witness is the reduced row-echelon solution with every free unknown set
to 0, so witnesses are reproducible; each is re-verified against every
relation before it is returned. The literal brute forces that cross-check
these solves live with the tests.
"""

from __future__ import annotations

from .errors import UnsoundLift
from .galois import Character, GbarGroup, Presentation, check_group
from .unitri import U4_ID, u4_inv_raw, u4_mul_raw, u4_pow_raw

# free-entry slots of a raw U4 tuple (a1, a2, a3, u, v, w)
_U4_CUP_SLOTS = (3,)
_U4_QUOTIENT_SLOTS = (3, 5)
_U4_FULL_SLOTS = (3, 4, 5)


# ---------------------------------------------------------------------------
# words and relations

def _eval_word_u4(l, images, word):
    acc = U4_ID
    for g, e in word:
        acc = u4_mul_raw(l, acc, u4_pow_raw(l, images[g], e))
    return acc


def _residual_u4(l, images, rel):
    lhs = _eval_word_u4(l, images, rel.lhs)
    rhs = _eval_word_u4(l, images, rel.rhs)
    return u4_mul_raw(l, lhs, u4_inv_raw(l, rhs))


# ---------------------------------------------------------------------------
# the linear solve

def _solve_linear_mod(eqs, n_unknowns: int, l: int):
    """A solution of a small linear system over Z/l, or None if inconsistent.

    The system is brought to reduced row-echelon form; the returned solution
    sets every free (non-pivot) unknown to 0.
    """
    rows = [list(coeffs) + [rhs % l] for coeffs, rhs in eqs]
    piv_of_col = {}
    r = 0
    for col in range(n_unknowns):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] % l), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, l)
        rows[r] = [v * inv % l for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] % l:
                f = rows[i][col]
                rows[i] = [(v - f * w) % l for v, w in zip(rows[i], rows[r])]
        piv_of_col[col] = r
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] % l:
            return None
    solution = [0] * n_unknowns
    for col, row in piv_of_col.items():
        solution[col] = rows[row][-1] % l
    return solution


def _solve_lift(pres: Presentation, base, slots, residual):
    """Generator images making every relation residual vanish, or None.

    ``base[i]`` is generator i's image with the superdiagonal pinned and
    every free entry 0; the unknowns are the entries at ``slots`` of every
    image, and the residual entries before the first slot are the
    superdiagonal ones, which no unknown can change. Each residual slot is
    affine in the unknowns, so its coefficients are read off by probing the
    residual at ``base`` and at ``base`` plus each unit vector.
    """
    l = pres.ell
    k = len(slots)
    n_unknowns = k * len(base)
    eqs = []
    for rel in pres.relations:
        r0 = residual(l, base, rel)
        if any(r0[: slots[0]]):
            return None
        rows = [[0] * n_unknowns for _ in slots]
        for g in sorted({g for g, _ in rel.lhs + rel.rhs}):
            images = list(base)
            for j, s in enumerate(slots):
                images[g] = base[g][:s] + (1,) + base[g][s + 1 :]
                r1 = residual(l, images, rel)
                for row, t in zip(rows, slots):
                    row[g * k + j] = (r1[t] - r0[t]) % l
        eqs.extend((row, -r0[t]) for row, t in zip(rows, slots))
    sol = _solve_linear_mod(eqs, n_unknowns, l)
    if sol is None:
        return None
    images = []
    for g, img in enumerate(base):
        img = list(img)
        for j, s in enumerate(slots):
            img[s] = sol[g * k + j]
        images.append(tuple(img))
    return images


def _solve_u4(pres: Presentation, superdiags, slots):
    base = [(s[0] % pres.ell, s[1] % pres.ell, s[2] % pres.ell, 0, 0, 0) for s in superdiags]
    return _solve_lift(pres, base, slots, _residual_u4)


# ---------------------------------------------------------------------------
# U4 lifts

def find_full_lift(pres: Presentation, superdiags):
    """A homomorphism into U4(Z/l) with the given superdiagonals, or None.

    ``superdiags[i]`` is the pinned (a1, a2, a3) triple for generator i. The
    returned witness maps generator names to complete (a1,a2,a3,u,v,w) tuples
    and is re-verified against every relation with generic multiplication;
    a witness that fails raises ``UnsoundLift``.
    """
    images = _solve_u4(pres, superdiags, _U4_FULL_SLOTS)
    if images is None:
        return None
    witness = dict(zip(pres.gen_names, images))
    if not lift_is_sound(pres, superdiags, witness):
        raise UnsoundLift(f"oracle witness fails a relation: {witness}")
    return witness


def center_lift_exists(pres: Presentation, superdiags) -> bool:
    """True iff a homomorphism into U4/Z(U4) with these superdiagonals exists."""
    return _solve_u4(pres, superdiags, _U4_QUOTIENT_SLOTS) is not None


def lift_is_sound(pres: Presentation, superdiags, witness) -> bool:
    """Generic verification: superdiagonals match and all relations hold exactly."""
    l = pres.ell
    images = [witness[name] for name in pres.gen_names]
    for img, pinned in zip(images, superdiags):
        if img[:3] != tuple(v % l for v in pinned):
            return False
    return all(_residual_u4(l, images, rel) == U4_ID for rel in pres.relations)


# ---------------------------------------------------------------------------
# U3 lifts

def cup_lift_exists(pres: Presentation, diag1, diag2) -> bool:
    """True iff some corner assignment makes the U3-valued map a homomorphism.

    The U3 image (a, b, c) is solved as the U4 image (a, b, 0, c, 0, 0): with
    a3 = 0 the u entry of U4 products and inverses is exactly the U3 corner.
    """
    superdiags = [(a, b, 0) for a, b in zip(diag1, diag2)]
    return _solve_u4(pres, superdiags, _U4_CUP_SLOTS) is not None


# ---------------------------------------------------------------------------
# character-level API

def _superdiag3(g: GbarGroup, chi1, chi2, chi3):
    n = len(g.gen_names)
    return [(chi1.values[i], chi2.values[i], chi3.values[i]) for i in range(n)]


def oracle_cup(chi1: Character, chi2: Character, g: GbarGroup) -> bool:
    """Ground truth for cup-product vanishing: a U3 lift exists."""
    check_group(g, chi1, chi2)
    return cup_lift_exists(g.presentation(), chi1.values, chi2.values)


def oracle_nonempty(chi1: Character, chi2: Character, chi3: Character, g: GbarGroup) -> bool:
    """Ground truth for nonemptiness: a lift into U4 modulo its center exists."""
    check_group(g, chi1, chi2, chi3)
    return center_lift_exists(g.presentation(), _superdiag3(g, chi1, chi2, chi3))


def oracle_contains_zero(chi1: Character, chi2: Character, chi3: Character, g: GbarGroup) -> bool:
    """Ground truth for contains-zero: a full U4 lift exists."""
    return oracle_lift_witness(chi1, chi2, chi3, g) is not None


def oracle_lift_witness(chi1: Character, chi2: Character, chi3: Character, g: GbarGroup):
    """A full U4 lift (the row-echelon solution of the lifting system), or None."""
    check_group(g, chi1, chi2, chi3)
    return find_full_lift(g.presentation(), _superdiag3(g, chi1, chi2, chi3))
