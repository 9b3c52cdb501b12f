"""Engine vs oracle: the independent lifting oracle arbitrates.

Every closed-form verdict is matched against the oracle's lifting questions
into U4(Z/l) and its central quotient, each decided by one exact linear
solve over Z/l. A found lift is a concrete matrix assignment; this script
prints one and re-verifies it by multiplication.
"""

import itertools

from ellmassey import ec, ff, galois, massey, oracle
from ellmassey.unitri import U4Matrix, u4_identity

curve = ec.curve_new(ff.make_field(7, 1), 0, 1)  # unipotent at l = 3
g = galois.build_gbar(curve, 3)
chars = g.characters()
print(f"group: {g.case.value}, order {g.order}, generators {g.gen_names}")

agree = 0
for c1, c2, c3 in itertools.product(chars, repeat=3):
    engine = massey.triple_verdict(c1, c2, c3, g).status.value
    if not oracle.oracle_nonempty(c1, c2, c3, g):
        truth = "Empty"
    elif oracle.oracle_contains_zero(c1, c2, c3, g):
        truth = "ContainsZero"
    else:
        truth = "NonVanishing"
    assert engine == truth, (c1.values, c2.values, c3.values, engine, truth)
    agree += 1
print(f"engine and oracle agree on all {agree} triples")

# Inspect one witness: a full lift with the characters pinned on the
# superdiagonal, checked by multiplying the relations out.
chi = next(
    c for c in chars
    if not c.is_zero() and oracle.oracle_lift_witness(c, c, c, g) is not None
)
witness = oracle.oracle_lift_witness(chi, chi, chi, g)
print("\nwitness images for <chi, chi, chi>, chi =", chi.values)
for name, raw in witness.items():
    print(f"  {name} ->", raw)
imgs = {name: U4Matrix.from_raw(3, raw) for name, raw in witness.items()}
pres = g.presentation()
for rel in pres.relations:
    lhs = u4_identity(3)
    for gen_idx, e in rel.lhs:
        lhs = lhs * imgs[g.gen_names[gen_idx]] ** e
    rhs = u4_identity(3)
    for gen_idx, e in rel.rhs:
        rhs = rhs * imgs[g.gen_names[gen_idx]] ** e
    assert lhs == rhs
print("all group relations hold for the witness under generic multiplication")
