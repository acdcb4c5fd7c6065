"""The generic variable matrix, initial terms of its maximal minors, pure
simplicial complexes, and rainbow determinantal facet ideals.

The maximal minors form a universal Groebner basis, so for every term order
the initial ideal of the ideal of maximal minors is generated by the initial
terms of the minors themselves; a rainbow DFI takes only the initial terms
indexed by the facets of a pure simplicial complex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from operator import getitem
from typing import Iterable, Sequence

from .errors import DegenerateOrder, ParseError
from .ideals import MonomialIdeal
from .monomials import Monomial
from .termorders import TermOrder, _is_int, random_weights


@dataclass(frozen=True)
class SignedTerm:
    sign: int
    monomial: Monomial


@cache
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of range(n) in lexicographic order, with its sign."""
    out = []
    for perm in permutations(range(n)):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        out.append((perm, -1 if inversions % 2 else 1))
    return tuple(out)


def _sorted_cols(n: int, cols: Sequence[int]) -> tuple[int, ...]:
    cols = tuple(sorted(cols))
    if len(cols) != n:
        raise ValueError(f"need {n} columns, got {cols}")
    return cols


def _term(cols: tuple[int, ...], perm: tuple[int, ...]) -> Monomial:
    """The monomial x[1, cols[perm[0]]] * ... * x[n, cols[perm[n - 1]]]."""
    return Monomial({(i + 1, cols[p]): 1 for i, p in enumerate(perm)})


def _top_weight_terms(
    order: TermOrder, cols: tuple[int, ...]
) -> list[tuple[tuple[int, ...], int]]:
    """The (permutation, sign) pairs whose term has the largest weight in the
    minor on the sorted columns ``cols``, in lexicographic order."""
    w = [[row[c - 1] for c in cols] for row in order.weights]
    top, tied = None, []
    for perm, sign in _signed_permutations(order.n):
        score = sum(map(getitem, w, perm))
        if top is None or score > top:
            top, tied = score, [(perm, sign)]
        elif score == top:
            tied.append((perm, sign))
    return tied


def initial_term(order: TermOrder, cols: Sequence[int]) -> SignedTerm:
    """The order-maximal term of the minor on ``cols``, with its sign in the
    determinant expansion.

    The term of a permutation weighs the sum of ``order.weights[i][c - 1]``
    over its variables x[i + 1, c]; the heaviest term wins.  When several
    terms share the top weight (under the diagonal order all n! do), the
    winner among them is the maximum under ``order.compare``, that is the
    order's lexicographic tiebreak.  Only the terms at the top weight are
    built."""
    cols = _sorted_cols(order.n, cols)
    tied = _top_weight_terms(order, cols)
    if len(tied) == 1:
        perm, sign = tied[0]
        return SignedTerm(sign, _term(cols, perm))
    terms = {_term(cols, perm): sign for perm, sign in tied}
    best = order.max(terms)
    return SignedTerm(terms[best], best)


def initial_minor(order: TermOrder, cols: Sequence[int]) -> Monomial:
    """The order-maximal monomial of the minor on ``cols``."""
    return initial_term(order, cols).monomial


def initial_ideal_maximal_minors(order: TermOrder) -> MonomialIdeal:
    """Initial ideal of the ideal of maximal minors: one initial term per
    column subset, C(m, n) distinct rainbow generators."""
    n, m = order.n, order.m
    gens = [initial_minor(order, cols) for cols in combinations(range(1, m + 1), n)]
    if len(set(gens)) != len(gens):
        raise DegenerateOrder("distinct column subsets produced equal initial terms")
    return MonomialIdeal(gens)


@dataclass(frozen=True)
class PureComplex:
    """A pure (n-1)-dimensional simplicial complex on [m], stored by facets."""

    n: int
    m: int
    facets: frozenset[tuple[int, ...]]

    def __init__(self, n: int, m: int, facets: Iterable[Sequence[int]]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        cleaned = set()
        for f in facets:
            t = tuple(sorted(f))
            if len(t) != n or len(set(t)) != n:
                raise ValueError(f"facet {f} is not an {n}-subset")
            if not all(1 <= v <= m for v in t):
                raise ValueError(f"facet {f} is not inside [{m}]")
            cleaned.add(t)
        object.__setattr__(self, "facets", frozenset(cleaned))

    def __len__(self) -> int:
        return len(self.facets)

    def sorted_facets(self) -> list[tuple[int, ...]]:
        return sorted(self.facets)

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.m, "facets": [list(f) for f in self.sorted_facets()]}

    @staticmethod
    def from_json(data) -> "PureComplex":
        """Inverse of :meth:`to_json`: an object with integer ``n`` and ``m``
        and ``facets`` a list of lists of integers.  Anything else (a bool,
        float or string where an integer belongs, say) raises ParseError
        instead of being coerced, as :meth:`TermOrder.from_json` does."""
        if not isinstance(data, dict):
            raise ParseError(f"bad pure-complex JSON: expected an object, got {type(data).__name__}")
        n, m, facets = data.get("n"), data.get("m"), data.get("facets")
        if not (_is_int(n) and _is_int(m)):
            raise ParseError("bad pure-complex JSON: n and m must be integers")
        if not isinstance(facets, list) or not all(
            isinstance(f, list) and all(_is_int(v) for v in f) for f in facets
        ):
            raise ParseError("bad pure-complex JSON: facets must be a list of lists of integers")
        try:
            return PureComplex(n, m, facets)
        except ValueError as exc:
            raise ParseError(f"bad pure-complex JSON: {exc}") from exc


def alexander_dual_complex(delta: PureComplex) -> PureComplex:
    """The complementary pure complex: all n-subsets of [m] not in delta."""
    missing = [f for f in combinations(range(1, delta.m + 1), delta.n) if f not in delta.facets]
    return PureComplex(delta.n, delta.m, missing)


def rainbow_dfi(delta: PureComplex, order: TermOrder) -> MonomialIdeal:
    """Rainbow determinantal facet ideal: initial terms of the minors indexed
    by the facets of delta."""
    if (order.n, order.m) != (delta.n, delta.m):
        raise ValueError("term order and complex have different matrix sizes")
    return MonomialIdeal(initial_minor(order, f) for f in delta.facets)


def overlap_condition(dual: PureComplex) -> bool:
    """True iff every pair of distinct facets meets in fewer than n-1 vertices."""
    facets = dual.sorted_facets()
    for a, b in combinations(facets, 2):
        if len(set(a) & set(b)) >= dual.n - 1:
            return False
    return True


def random_term_order(
    n: int, m: int, rng: random.Random, max_weight: int = 10_000
) -> TermOrder:
    """Random integer-weight order, resampled until the weights alone select a
    unique maximal term inside every maximal minor (so the lexicographic
    tiebreak never decides an initial term)."""
    while True:
        order = random_weights(n, m, rng, max_weight)
        if all(
            len(_top_weight_terms(order, cols)) == 1
            for cols in combinations(range(1, m + 1), n)
        ):
            return order


def random_pure_complex(n: int, m: int, rng: random.Random, n_facets: int) -> PureComplex:
    facets = rng.sample(list(combinations(range(1, m + 1), n)), n_facets)
    return PureComplex(n, m, facets)

