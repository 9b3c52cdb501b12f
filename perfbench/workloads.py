"""Seeded command lists for the three benchmark workloads.

Every workload is a list of ``Command``s, each one `ellmassey` CLI invocation
that the benchmark runs in a fresh interpreter. The program sees only the
generated argv. The same seed always gives the same list.

A generator returns one pass. A run repeats the pass round-robin and times
each command by the median of its runs, so the command mix of a run never
depends on how fast the program is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``argv`` follows ``python3 -m ellmassey.cli``.

    ``label`` names the curve or fixture; ``requested`` is the triple count a
    verify command asks for, or the row limit of a search (None otherwise).
    """

    kind: str
    argv: tuple
    label: str
    requested: int | None = None

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _seed_arg(rng: random.Random) -> str:
    return str(rng.randrange(1 << 32))


# ---------------------------------------------------------------------------
# analyze_generic: a fixed uniform draw of curves

# One prime range per l. At l=3 every prime keeps the E[9] fields above the
# exhaustive-root bound (p^3 > 10^4), so roots come from Cantor-Zassenhaus.
# At l=5 the range stays small because a quarter of random curves put E[5]
# over GF(p^24), which costs 7-9 s at p=7 and 18 s at p=17.
GENERIC_PRIMES = {3: range(23, 62), 5: range(7, 14)}
GENERIC_CATALOGUE_SEED = 0xC0FFEE
GENERIC_CURVES = 9


def draw_curves(seed: int, count: int) -> list[tuple[int, int, int, int]]:
    """``count`` curves (ell, p, a, b): ell, p and (a, b) uniform, nonsingular.

    No curve is filtered by case or cost; only singular (a, b) are redrawn.
    """
    rng = random.Random(seed)
    primes = {ell: [p for p in span if is_prime(p) and p != ell] for ell, span in GENERIC_PRIMES.items()}
    out = []
    for _ in range(count):
        ell = rng.choice(sorted(primes))
        p = rng.choice(primes[ell])
        while True:
            a, b = rng.randrange(p), rng.randrange(p)
            if (4 * a**3 + 27 * b**2) % p:
                break
        out.append((ell, p, a, b))
    return out


# The catalogue is drawn once, from a constant seed, so every run and every
# commit analyses the same curves: with per-curve costs from 0.2 s to 20 s, a
# fresh draw per run would make the spread between runs larger than any
# regression bound. The program keeps its default --seed, because the random
# polynomial splits it drives move a curve's cost by up to 20%. The run's
# seed sets the order of the commands. The draw's size keeps a pass near
# 12 s, so a run repeats every curve. It holds an l=3 curve of rank >= 1
# (E[9] over an extension field, about 1.5 s) and l=5 p=7 a=6 b=6, whose
# rank-0 report path runs over GF(7^24) for about 8 s.
CATALOGUE = draw_curves(GENERIC_CATALOGUE_SEED, GENERIC_CURVES)


def analyze_generic(seed: int) -> list[Command]:
    order = list(CATALOGUE)
    random.Random(seed).shuffle(order)
    out = []
    for ell, p, a, b in order:
        argv = ("analyze", "--p", str(p), "--a", str(a), "--b", str(b), "--ell", str(ell), "--triples", "all")
        out.append(Command("analyze", argv, f"l{ell}_p{p}_a{a}_b{b}"))
    return out


# ---------------------------------------------------------------------------
# fixtures: verify on every test fixture curve, and two full l=7 verdict tables

# (name, ell, p, a, b, sample size or None for exhaustive). The curves are
# those of tests/fixtures.py, copied so that editing the tests cannot change
# the benchmark. Exhaustive runs only where the CLI allows it and a pass stays
# short: l=5 exhaustive takes minutes and l=3 full torsion has 27^3 triples.
# Building a curve's group (ff root finding over extension fields) costs
# 0.1-2.9 s per command before its first triple; the sample sizes give each
# command roughly 1-3 s of oracle work on top, so the oracle, not ff, does
# most of the work.
FIXTURES = (
    ("l3_full_torsion", 3, 7, 0, 2, 600),
    ("l3_full_torsion_2", 3, 13, 0, 3, 300),
    ("l3_full_torsion_3", 3, 19, 0, 5, 60),
    ("l3_split_line", 3, 5, 0, 1, None),
    ("l3_split_line_a0", 3, 5, 1, 1, None),
    ("l3_unipotent_line", 3, 7, 0, 1, None),
    ("l3_no_fixed_points", 3, 5, 1, 0, None),
    ("l5_split_line", 5, 7, 1, 1, 300),
    ("l5_unipotent_line", 5, 11, 1, 7, 80),
    ("l5_full_torsion", 5, 31, 0, 11, 150),
    ("l5_no_fixed_points", 5, 7, 0, 1, 200),
    ("l7_split_line", 7, 23, 1, 1, 120),
    ("l7_unipotent_line", 7, 29, 1, 7, 16),
    ("l7_no_fixed_points", 7, 5, 0, 1, 200),
)


# (name, ell, p, a, b, format): 7^6 = 117,649 verdict rows each, where the
# engine and the JSON/CSV writers do the work. One format per table keeps
# them near 7 s together: the split table as JSON (13 MB), the unipotent one
# as CSV (7 MB).
TABLES = (
    ("l7_split_line", 7, 23, 1, 1, "json"),
    ("l7_unipotent_line", 7, 29, 1, 7, "csv"),
)


def fixtures(seed: int) -> list[Command]:
    """The verify commands and the tables, in seeded order.

    The program keeps its default --seed, so every run samples the same
    triples: the oracle's cost per triple varies so much that, over five
    seeds, the 16-triple l7_unipotent_line sample took 2.0-3.7 s.
    """
    out = []
    for name, ell, p, a, b, sample in FIXTURES:
        mode = ("exhaustive",) if sample is None else ("sample", str(sample))
        argv = ("verify", "--p", str(p), "--a", str(a), "--b", str(b), "--ell", str(ell), "--mode", *mode)
        out.append(Command("verify", argv, name, sample))
    for name, ell, p, a, b, fmt in TABLES:
        argv = ("analyze", "--p", str(p), "--a", str(a), "--b", str(b), "--ell", str(ell),
                "--triples", "all", "--format", fmt)
        out.append(Command("analyze", argv, f"{name}_{fmt}"))
    random.Random(seed).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# search_scan: curve searches on the small-field path

# (ell, case, limit). Every search stops at its limit below p = 40; together
# they take about 7 s.
SEARCHES = (
    (3, "full3", 80),
    (3, "unipotent", 30),
    (5, "split", 20),
)
SEARCH_MAX_P = 2000


def search_scan(seed: int) -> list[Command]:
    rng = random.Random(seed)
    out = []
    for ell, case, limit in SEARCHES:
        argv = ("search", "--ell", str(ell), "--case", case, "--max-p", str(SEARCH_MAX_P),
                "--limit", str(limit), "--seed", _seed_arg(rng))
        out.append(Command("search", argv, f"l{ell}_{case}", limit))
    return out


WORKLOADS = {
    "analyze_generic": analyze_generic,
    "fixtures": fixtures,
    "search_scan": search_scan,
}
