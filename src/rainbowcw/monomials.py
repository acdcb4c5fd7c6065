"""Monomials over the grid ring k[x_ij] and over plain rings k[x_i].

A variable is either a pair ``(i, j)`` (row i, column j of the variable
matrix, both 1-based) or a bare integer ``i`` for specialized rings.  A
monomial stores its exponent vector sparsely as a sorted tuple of
``(variable, exponent)`` pairs with all exponents positive, so equality and
hashing are exact and order-independent.

A squarefree monomial over grid variables ``(i, j)`` with 1 <= i, j <= STRIDE
also carries its support as a bit mask: variable (i, j) is bit
(i - 1) * STRIDE + (j - 1).  Bits follow the row-major variable order, so the
bit order is the sorted order of ``exps``.  Divisibility, lcm and degree of
two such monomials, the divisors of one among many and the lcm closure of
many are int operations; every other monomial has mask -1 and takes the
exponent-tuple path.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Iterable, Mapping, Sequence, Union

from .errors import ParseError

Variable = Union[tuple[int, int], int]

STRIDE = 16
_VAR_BIT = {
    (i, j): 1 << ((i - 1) * STRIDE + j - 1)
    for i in range(1, STRIDE + 1)
    for j in range(1, STRIDE + 1)
}
# The exps entry of each bit, in bit order.
_BIT_TERM = tuple((v, 1) for v in sorted(_VAR_BIT))


class Monomial:
    """An exact monomial: an immutable sparse exponent vector.

    ``mask`` is the support bit mask of a squarefree grid monomial (see the
    module docstring) and -1 for every other monomial.
    """

    __slots__ = ("exps", "_hash", "mask")

    def __init__(self, exps: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()):
        items = dict(exps)
        cleaned = tuple(sorted((v, e) for v, e in items.items() if e != 0))
        for _, e in cleaned:
            if e < 0:
                raise ValueError("negative exponent")
        self.exps: tuple[tuple[Variable, int], ...] = cleaned
        self._hash = hash(cleaned)

    def __getattr__(self, name: str):
        # Called only for an unset slot: ``mask`` is computed on first read
        # and stored, so monomials whose mask is never read never pay for it.
        if name != "mask":
            raise AttributeError(name)
        mask = 0
        for v, e in self.exps:
            bit = _VAR_BIT.get(v) if e == 1 else None
            if bit is None:
                mask = -1
                break
            mask |= bit
        self.mask = mask
        return mask

    @staticmethod
    def one() -> "Monomial":
        return _ONE

    @staticmethod
    def variable(v: Variable, e: int = 1) -> "Monomial":
        return Monomial({v: e})

    @staticmethod
    def grid(*pairs: tuple[int, int]) -> "Monomial":
        """Squarefree-ish grid constructor: grid((1,1),(2,2)) -> x11*x22."""
        m: dict[Variable, int] = {}
        for p in pairs:
            m[p] = m.get(p, 0) + 1
        return Monomial(m)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __bool__(self) -> bool:
        return True

    def exponent(self, v: Variable) -> int:
        for w, e in self.exps:
            if w == v:
                return e
        return 0

    @property
    def degree(self) -> int:
        if self.mask >= 0:
            return self.mask.bit_count()
        return sum(e for _, e in self.exps)

    @property
    def support(self) -> frozenset:
        return frozenset(v for v, _ in self.exps)

    def is_one(self) -> bool:
        return not self.exps

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.mask, other.mask
        if a >= 0 and b >= 0 and not a & b:
            # Coprime squarefree grid monomials: the product is squarefree
            # too, with the union of the masks.
            return from_mask(a | b)
        m = dict(self.exps)
        for v, e in other.exps:
            m[v] = m.get(v, 0) + e
        return Monomial(m)

    def divides(self, other: "Monomial") -> bool:
        b = other.mask
        if b >= 0:
            # A monomial without a mask has a variable or an exponent that
            # no masked monomial has; its mask -1 meets ~b, so this is False.
            return not self.mask & ~b
        it = dict(other.exps)
        return all(it.get(v, 0) >= e for v, e in self.exps)

    def divisor_positions(
        self, monomials: Sequence["Monomial"], modulo: "Monomial | None" = None
    ) -> list[int]:
        """The positions in ``monomials`` of those that divide this one and,
        if ``modulo`` is given, do not divide ``modulo``; on masks, one int
        test each and no call."""
        b = self.mask
        if modulo is None:
            if b < 0:
                return [k for k, m in enumerate(monomials) if m.divides(self)]
            outside = ~b
            return [k for k, m in enumerate(monomials) if not m.mask & outside]
        g = modulo.mask
        if b < 0 or g < 0:
            return [
                k for k, m in enumerate(monomials) if m.divides(self) and not m.divides(modulo)
            ]
        outside, above = ~b, ~g
        return [
            k for k, m in enumerate(monomials) if not (c := m.mask) & outside and c & above
        ]

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises if ``other`` does not divide ``self``."""
        m = dict(self.exps)
        for v, e in other.exps:
            r = m.get(v, 0) - e
            if r < 0:
                raise ValueError(f"{other} does not divide {self}")
            m[v] = r
        return Monomial(m)

    def lcm(self, other: "Monomial") -> "Monomial":
        a, b = self.mask, other.mask
        if a >= 0 and b >= 0:
            union = a | b
            if union == a:
                return self
            if union == b:
                return other
            return from_mask(union)
        m = dict(self.exps)
        for v, e in other.exps:
            if e > m.get(v, 0):
                m[v] = e
        return Monomial(m)

    def gcd(self, other: "Monomial") -> "Monomial":
        it = dict(other.exps)
        return Monomial({v: min(e, it.get(v, 0)) for v, e in self.exps})

    def sort_key(self):
        return self.exps

    def __repr__(self) -> str:
        return f"Monomial({self})"

    def __str__(self) -> str:
        return format_monomial(self)


_ONE = Monomial()


def from_mask(mask: int) -> Monomial:
    """The squarefree grid monomial with support mask ``mask`` >= 0, built
    from its bits without sorting and without ``Monomial.__init__``."""
    terms = []
    rest = mask
    while rest:
        low = rest & -rest
        terms.append(_BIT_TERM[low.bit_length() - 1])
        rest ^= low
    mono = object.__new__(Monomial)
    mono.exps = exps = tuple(terms)
    mono._hash = hash(exps)
    mono.mask = mask
    return mono


def lcm_of(monomials: Iterable[Monomial]) -> Monomial:
    return reduce(Monomial.lcm, monomials, Monomial.one())


def squarefree_lcm_closure(
    gens: list[Monomial], degree_cap: int | None = None
) -> list[Monomial] | None:
    """The closure of ``gens`` under pairwise lcm, without the lcms above
    total degree ``degree_cap``, in no particular order; None unless every
    generator has a mask.  An lcm is the union of the masks, so each
    candidate is decided on ints and only new elements are built."""
    if any(g.mask < 0 for g in gens):
        return None
    seen = {g.mask: g for g in gens}
    frontier = list(gens)
    while frontier:
        new: list[Monomial] = []
        for a in frontier:
            amask = a.mask
            for g in gens:
                union = amask | g.mask
                if union not in seen and (degree_cap is None or union.bit_count() <= degree_cap):
                    seen[union] = c = a.lcm(g)
                    new.append(c)
        frontier = new
    return list(seen.values())


def format_monomial(m: Monomial) -> str:
    """Render as ``x[i,j]^e * ...`` (grid) or ``x[i]^e * ...`` (plain)."""
    if m.is_one():
        return "1"
    parts = []
    for v, e in m.exps:
        name = f"x[{v[0]},{v[1]}]" if isinstance(v, tuple) else f"x[{v}]"
        parts.append(name if e == 1 else f"{name}^{e}")
    return " * ".join(parts)


_FACTOR = re.compile(r"^x\[(\d+)(?:,(\d+))?\](?:\^(\d+))?$")


def parse_monomial(text: str) -> Monomial:
    """Inverse of :func:`format_monomial`; accepts ``1`` for the unit.
    Raises ParseError for a monomial that mixes grid variables ``x[i,j]``
    with plain ones ``x[i]``, which lie in different rings."""
    text = text.strip()
    if text == "1":
        return Monomial.one()
    exps: dict[Variable, int] = {}
    for raw in text.split("*"):
        tok = raw.strip()
        match = _FACTOR.match(tok)
        if not match:
            raise ParseError(f"bad monomial factor: {tok!r}")
        i, j, e = match.group(1), match.group(2), match.group(3)
        var: Variable = (int(i), int(j)) if j is not None else int(i)
        exps[var] = exps.get(var, 0) + (int(e) if e else 1)
    if len({type(v) for v in exps}) > 1:
        raise ParseError(f"monomial mixes grid and plain variables: {text!r}")
    return Monomial(exps)
