"""Seeded inputs for the benchmark, generated here rather than by the
program's own samplers, so that a change to ``random_term_order`` or
``random_overlap_dual`` cannot change what is measured.

Inputs are plain data (weight matrices and facet lists); the workloads turn
them into program objects.  The measures at the end (lcm-lattice size,
variables used) predict a case's cost, so that a stratum can be drawn within
a band of it and the seed does not decide how heavy a run is.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from checks import initial_term

MAX_WEIGHT = 10_000


def generic_weights(n: int, m: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """An n x m integer weight matrix whose weights alone pick the initial
    term of every maximal minor: in each n-subset of columns, exactly one
    permutation term has the largest weight, so the lexicographic tiebreak
    never decides."""
    perms = list(permutations(range(n)))
    while True:
        w = tuple(tuple(rng.randint(0, MAX_WEIGHT) for _ in range(m)) for _ in range(n))
        if all(_unique_max(w, cols, perms) for cols in combinations(range(m), n)):
            return w


def _unique_max(w, cols, perms) -> bool:
    sums = sorted(sum(w[i][cols[p[i]]] for i in range(len(p))) for p in perms)
    return len(sums) == 1 or sums[-1] != sums[-2]


def overlap_dual(n: int, m: int, r: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """r facets (n-subsets of [m]) that pairwise share fewer than n-1
    columns, picked greedily from a shuffled pool; reshuffles until r are
    found.  The caller passes an r that is reachable for n x m."""
    pool = list(combinations(range(1, m + 1), n))
    for _ in range(1000):
        rng.shuffle(pool)
        chosen: list[tuple[int, ...]] = []
        for f in pool:
            if len(chosen) == r:
                break
            if all(len(set(f) & set(g)) < n - 1 for g in chosen):
                chosen.append(f)
        if len(chosen) == r:
            return tuple(sorted(chosen))
    raise ValueError(f"no {r} facets of {n}x{m} with pairwise overlap < {n - 1}")


def rainbow_terms(n: int, m: int, weights, dual_facets) -> set[frozenset]:
    """The rainbow DFI's generators: the initial terms, as sets of variables,
    of the minors on the n-subsets of columns that are not dual facets."""
    dual = set(dual_facets)
    return {initial_term(weights, f) for f in combinations(range(1, m + 1), n) if f not in dual}


def lcm_lattice_size(n: int, m: int, weights, dual_facets) -> int:
    """Size of the lcm lattice of the rainbow DFI's generators: every lcm of
    a nonempty subset.  The Koszul oracle's time grows about linearly with
    it, at about 3 ms an element for 3x6."""
    gens = rainbow_terms(n, m, weights, dual_facets)
    lattice, frontier = set(gens), set(gens)
    while frontier:
        frontier = {a | g for a in frontier for g in gens} - lattice
        lattice |= frontier
    return len(lattice)


def support_size(n: int, m: int, weights, dual_facets) -> int:
    """Number of variables the rainbow DFI's generators use.  The Hilbert
    profiles of the polarization certificate run over these variables, and
    one more of them costs 1.5 to 2 times the time at 2x6 and 2x7."""
    return len(set().union(*rainbow_terms(n, m, weights, dual_facets)))
