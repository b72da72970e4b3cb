"""Seeded inputs for the akblocks benchmark, and the benchmark's own arithmetic.

Nothing here imports akblocks: the program under test only ever sees the
multipartitions, charges and residues generated below.  The residue
counting and the block-size count are independent of the program, so the
benchmark can check its outputs.
"""

import random
from collections import Counter

# The README's certify instance: e=5, charge (0,-2,1), residue 1, n=23.
README_E = 5
README_CHARGE = (0, -2, 1)
README_LAMBDA = ((4, 3, 1), (4, 2, 2, 2), (3, 2))
README_I = 1

# One certify pass: one command per (n, delta_i) slot.  Fixing n and delta
# per slot keeps the enumeration cost of a pass the same for every seed;
# the seed only picks which block of that size is certified.  All slots
# share one n, so a run's median and slowest command come from the same
# population of similar commands, not from one or two outliers.
CERTIFY_SLOTS = ((16, 2), (16, 3), (16, 2), (16, 3))
# About 1 in 170 candidates qualifies at n=16.
CANDIDATES = 1000

# Invariant queries come in strata of this many inputs: each stratum has one
# size from each of STRATUM log-spaced bands in [MIN_NODES, MAX_NODES] and
# every (r, e) pair the same number of times, so any run of whole strata
# has the same mix whatever the seed.
MIN_NODES, MAX_NODES = 100, 10_000
LEVELS = (1, 2, 3)
CHARACTERISTICS = (2, 3, 4, 5)
STRATUM = 60
CHARGE_RANGE = (-3, 3)


def random_partition(rng: random.Random, m: int) -> tuple:
    """A partition of m: a random composition into at most 2*sqrt(m) rows, sorted."""
    if m == 0:
        return ()
    rows = rng.randint(1, min(m, max(1, round(2 * m**0.5))))
    cuts = sorted(rng.sample(range(1, m), rows - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, m])]
    return tuple(sorted(parts, reverse=True))


def random_multipartition(rng: random.Random, n: int, r: int) -> tuple:
    """An r-multipartition of n; component sizes from r-1 uniform cut points."""
    cuts = sorted(rng.randint(0, n) for _ in range(r - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return tuple(random_partition(rng, s) for s in sizes)


def certify_sample(seed: int, scopes_condition, multicharge) -> list:
    """One (lambda, i, n, delta) per CERTIFY_SLOTS entry, at the README charge.

    CANDIDATES random 3-multipartitions are drawn per slot (more only if
    none qualifies), so generation costs about the same for every seed.
    A candidate qualifies at residue i when its hub entry there is the
    slot's delta_i (the benchmark's own hub filters first) and the
    runner-swap weight condition holds; the seed picks one qualifier.
    ``scopes_condition`` and ``multicharge`` are the program's own, passed
    in so this module stays free of it.
    """
    rng = random.Random(f"certify:{seed}")
    mc = multicharge(README_E, README_CHARGE)
    out = []
    for n, delta in CERTIFY_SLOTS:
        hits, drawn = [], 0
        while drawn < CANDIDATES or not hits:
            drawn += 1
            mp = random_multipartition(rng, n, len(README_CHARGE))
            hub = row_hub(mp, README_E, README_CHARGE)
            hits += [(mp, i) for i in range(README_E) if hub[i] == delta and scopes_condition(mp, mc, i).holds]
        mp, i = rng.choice(hits)
        out.append([mp, i, n, delta])
    return out


def invariant_strata(seed: int):
    """Endless stream of strata; each input is (lambda, e, charge, i)."""
    rng = random.Random(f"invariants:{seed}")
    pairs = [(r, e) for r in LEVELS for e in CHARACTERISTICS]
    span = MAX_NODES / MIN_NODES
    while True:
        sizes = [round(MIN_NODES * span ** ((k + rng.random()) / STRATUM)) for k in range(STRATUM)]
        shapes = pairs * (STRATUM // len(pairs))
        rng.shuffle(shapes)
        stratum = []
        for m, (r, e) in zip(sizes, shapes):
            charge = tuple(rng.randint(*CHARGE_RANGE) for _ in range(r))
            stratum.append((random_multipartition(rng, m, r), e, charge, rng.randrange(e)))
        rng.shuffle(stratum)
        yield stratum


# ---------------------------------------------------------------------------
# the benchmark's own residue arithmetic


def row_residue_counts(mp, e: int, charge) -> list:
    """Nodes of each residue, counted row by row in O(e) per row.

    Row b of width w in a component of charge a holds the w consecutive
    residues starting at a - b + 1 (mod e).
    """
    counts = [0] * e
    for a, comp in zip(charge, mp):
        for b, w in enumerate(comp, start=1):
            full, rest = divmod(w, e)
            start = a - b + 1
            for k in range(e):
                counts[k] += full
            for t in range(rest):
                counts[(start + t) % e] += 1
    return counts


def row_hub(mp, e: int, charge) -> list:
    """Removable minus addable nodes of each residue, read off the row ends.

    Row b of width w ends in a removable node of residue a + w - b when the
    next row is shorter, and has an addable node of residue a + w + 1 - b
    when the row above is longer (or b is the first row, or one past the last).
    """
    out = [0] * e
    for a, comp in zip(charge, mp):
        rows = (*comp, 0)
        for b, w in enumerate(rows, start=1):
            if w > (rows[b] if b < len(rows) else 0):
                out[(a + w - b) % e] += 1
            if b == 1 or rows[b - 2] > w:
                out[(a + w + 1 - b) % e] -= 1
    return out


def weight_from_counts(counts, e: int, charge) -> int:
    """sum_j c_(a_j mod e) - (1/2) sum_i (c_i - c_(i+1))^2."""
    lin = sum(counts[a % e] for a in charge)
    quad = sum((counts[i] - counts[(i + 1) % e]) ** 2 for i in range(e))
    return (2 * lin - quad) // 2


def _partitions(m: int, largest: int):
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first, *rest)


def block_size(mp, e: int, charge) -> int:
    """Number of multipartitions with mp's residue counts (hence size and level).

    Per component, every partition whose residue counts fit under the
    target is tallied by its count vector; the components are then joined
    by convolution.  Independent of the program's block enumeration.
    """
    target = tuple(row_residue_counts(mp, e, charge))
    n = sum(target)

    def fits(v):
        return all(x <= t for x, t in zip(v, target))

    joined = Counter({(0,) * e: 1})
    for a in charge:
        tally = Counter()
        for m in range(n + 1):
            for p in _partitions(m, m):
                v = tuple(row_residue_counts((p,), e, (a,)))
                if fits(v):
                    tally[v] += 1
        nxt = Counter()
        for v1, c1 in joined.items():
            for v2, c2 in tally.items():
                s = tuple(x + y for x, y in zip(v1, v2))
                if fits(s):
                    nxt[s] += c1 * c2
        joined = nxt
    return joined[target]
