"""Seeded input generators for the benchmark, standard library only.

Every generator takes a random.Random and returns plain JSON-ready data, so
the same seed gives byte-identical inputs and nqsym only ever receives the
generated values.  Matroids are built here as explicit base lists; the
program's own sampler is not used because it is far slower than the work
being measured.
"""

import json
import random
from itertools import combinations


def session_rng(workload, seed, session):
    # String seeds hash with SHA-512 inside random, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}/{session}")


def composition(rng, n):
    """A uniformly random composition of n >= 1."""
    cuts = [i for i in range(1, n) if rng.random() < 0.5]
    edges = [0] + cuts + [n]
    return [b - a for a, b in zip(edges, edges[1:])]


def distinct_compositions(rng, n, count):
    seen, out = set(), []
    while len(out) < min(count, 2 ** (n - 1)):
        comp = composition(rng, n)
        if tuple(comp) not in seen:
            seen.add(tuple(comp))
            out.append(comp)
    return out


def coefficient(rng):
    """A nonzero exact rational as (num, den), a quarter of them proper fractions."""
    num = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    den = rng.choice([2, 3]) if rng.random() < 0.25 else 1
    if den == 2 and num % 2 == 0:
        num += 1
    if den == 3 and num % 3 == 0:
        num += 1
    return num, den


def sparse_element(rng, basis, degree, terms):
    """Element JSON with `terms` distinct compositions of one degree."""
    out = []
    for comp in distinct_compositions(rng, degree, terms):
        num, den = coefficient(rng)
        out.append({"comp": comp, "num": num, "den": den})
    return {"basis": basis, "terms": out}


def partitions(m, min_parts=1):
    """All partitions of m with at least min_parts parts, in a fixed order."""
    out = []

    def rec(remaining, bound, prefix):
        if remaining == 0:
            if len(prefix) >= min_parts:
                out.append(list(prefix))
            return
        for part in range(min(remaining, bound), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(m, m, [])
    return out


def partition(rng, m, min_parts=2):
    return rng.choice(partitions(m, min_parts))


# ---------------------------------------------------------------------------
# matroids as base lists on [n]


def _spanning_trees(vertices, edges):
    """Bases of the cycle matroid: edge subsets (1-based) forming spanning trees."""
    bases = []
    for subset in combinations(range(len(edges)), vertices - 1):
        parent = list(range(vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in subset:
            a, b = find(edges[i][0]), find(edges[i][1])
            if a == b:
                break
            parent[a] = b
        else:
            bases.append([i + 1 for i in subset])
    return bases


def graphic_matroid(rng, vertices, n):
    """Spanning trees of a random connected multigraph on `vertices` vertices
    with n edges and no self-loops; parallel edges and bridges (coloops) may
    occur."""
    edges = [(rng.randrange(i), i) for i in range(1, vertices)]
    while len(edges) < n:
        edges.append(tuple(rng.sample(range(vertices), 2)))
    rng.shuffle(edges)
    return {"n": n, "bases": _spanning_trees(vertices, edges), "rank": vertices - 1}


def uniform_matroid(r, n):
    return {
        "n": n,
        "bases": [list(c) for c in combinations(range(1, n + 1), r)],
        "rank": r,
    }


def rank2_family(lam, loops=0, coloops=0):
    """Rank-two block family of partition lam on [m], then `coloops` elements
    in every basis and `loops` elements in none."""
    blocks, start = [], 1
    for size in lam:
        blocks.append(list(range(start, start + size)))
        start += size
    m = start - 1
    extra = list(range(m + 1, m + coloops + 1))
    bases = [
        [x, y] + extra
        for i, bi in enumerate(blocks)
        for bj in blocks[i + 1 :]
        for x in bi
        for y in bj
    ]
    return {
        "n": m + coloops + loops,
        "bases": bases,
        "rank": 2 + coloops,
        "lambda": list(lam),
        "loops": loops,
        "coloops": coloops,
    }


def dumps(payload):
    return json.dumps(payload, sort_keys=True)
