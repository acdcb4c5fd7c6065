"""Monomial ideals with exact minimal generating sets.

Construction always minimalizes: generators are deduplicated and any
generator divisible by another is dropped, so two ideals are equal iff their
generator tuples are equal.  The zero ideal has no generators; the unit ideal
is generated by 1.  An ideal whose exponent code (``monomials.exponent_steps``)
would be wider than ``monomials.MAX_CODE_BITS`` raises ``SizeCap``.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Iterable

from .errors import NotEquigenerated, NotSquarefree, UnitIdeal
from .monomials import Monomial, check_one_ring, code, exponent_steps, minimal


class MonomialIdeal:
    __slots__ = ("gens",)

    def __init__(self, gens: Iterable[Monomial] = ()):
        self.gens: tuple[Monomial, ...] = _minimalize(gens)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return any(g.is_one() for g in self.gens)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MonomialIdeal) and self.gens == other.gens

    def __hash__(self) -> int:
        return hash(self.gens)

    @property
    def support(self) -> frozenset:
        out: set = set()
        for g in self.gens:
            out |= g.support
        return frozenset(out)

    def is_squarefree(self) -> bool:
        return all(g.is_squarefree() for g in self.gens)

    def is_equigenerated(self) -> bool:
        degs = {g.degree for g in self.gens}
        return len(degs) <= 1

    def __repr__(self) -> str:
        if self.is_zero():
            return "MonomialIdeal(0)"
        return "MonomialIdeal(" + ", ".join(str(g) for g in self.gens) + ")"


def _minimalize(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The generators that no other divides, by degree and then sort_key."""
    pool = set(gens)
    check_one_ring(pool)
    steps = exponent_steps(pool)
    ordered = sorted(pool, key=lambda g: (g.degree, g.sort_key()))
    by_code = {code(g, steps): g for g in ordered}  # the code is one-to-one
    return tuple(by_code[c] for c in minimal(by_code))


def colon(ideal: MonomialIdeal, g: Monomial) -> MonomialIdeal:
    """The quotient ideal (I : g), generated by m / gcd(m, g) over m in G(I)."""
    return MonomialIdeal(m / m.gcd(g) for m in ideal.gens)


def codimension(ideal: MonomialIdeal) -> int:
    """Height of a monomial ideal: the minimum number of variables meeting the
    support of every generator, found by exhaustive branch and bound."""
    if ideal.is_unit():
        raise UnitIdeal("codimension of the unit ideal is undefined")
    best = len(ideal.support)

    def search(remaining: list[frozenset], used: int) -> None:
        nonlocal best
        if used >= best:
            return
        if not remaining:
            best = used
            return
        branch = min(remaining, key=len)
        for v in sorted(branch):
            rest = [s for s in remaining if v not in s]
            search(rest, used + 1)

    search(sorted({g.support for g in ideal.gens}, key=len), 0)
    return best


def _all_monomials(n_vars: int, degree: int, squarefree: bool) -> list[Monomial]:
    chooser = combinations if squarefree else combinations_with_replacement
    out = []
    for combo in chooser(range(1, n_vars + 1), degree):
        exps: dict = {}
        for v in combo:
            exps[v] = exps.get(v, 0) + 1
        out.append(Monomial(exps))
    return out


def complementary_ideal(
    ideal: MonomialIdeal, d: int, n_vars: int, squarefree: bool = True
) -> MonomialIdeal:
    """All degree-d monomials (squarefree or not) in n_vars variables that are
    not generators of ``ideal``."""
    if not ideal.is_equigenerated() or any(g.degree != d for g in ideal.gens):
        raise NotEquigenerated(f"ideal is not equigenerated in degree {d}")
    gens = set(ideal.gens)
    return MonomialIdeal(m for m in _all_monomials(n_vars, d, squarefree) if m not in gens)


def alexander_dual(ideal: MonomialIdeal) -> MonomialIdeal:
    """Minimal monomials sharing a variable with every generator of a squarefree
    ideal: the minimal transversals of the support hypergraph."""
    if not ideal.is_squarefree():
        raise NotSquarefree("Alexander dual requires a squarefree ideal")
    # Incremental Berge procedure over the generator supports, on bit masks
    # over the sorted variables.  The transversals meeting a generator stay;
    # each missing one t grows by one variable v of the generator, and t + v
    # is kept unless it contains a transversal that stayed.  Two grown sets
    # never contain each other: t = (t + v) minus the generator, and the old
    # transversals form an antichain.  So the new family is an antichain too.
    variables = sorted(ideal.support)
    bit = {v: 1 << k for k, v in enumerate(variables)}
    transversals = [0]
    for g in ideal.gens:
        supp = 0
        for v, _ in g.exps:
            supp |= bit[v]
        stayed = [t for t in transversals if t & supp]
        grown = []
        for t in transversals:
            if t & supp:
                continue
            rest = supp
            while rest:
                low = rest & -rest
                rest ^= low
                c = t | low
                if not any(s & c == s for s in stayed):
                    grown.append(c)
        transversals = stayed + grown
    return MonomialIdeal(
        Monomial({v: 1 for k, v in enumerate(variables) if t >> k & 1}) for t in transversals
    )
