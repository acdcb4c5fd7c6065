"""Monomials over the grid ring k[x_ij] and over plain rings k[x_i].

A variable is either a pair ``(i, j)`` (row i, column j of the variable
matrix, both 1-based) or a bare integer ``i`` for specialized rings.  A
monomial stores its exponent vector sparsely as a sorted tuple of
``(variable, exponent)`` pairs with all exponents positive, so equality and
hashing are exact and order-independent.

A squarefree monomial over grid variables ``(i, j)`` with 1 <= i, j <= STRIDE
also carries its support as a bit mask: variable (i, j) is bit
(i - 1) * STRIDE + (j - 1).  Bits follow the row-major variable order, so the
bit order is the sorted order of ``exps``.  Divisibility, lcm, degree and
exact division of two such monomials are int operations; every other
monomial has mask -1 and takes the exponent-tuple path.

Divisibility over a set of monomials is decided on one exponent code, the
staircase polarization of the set (Miller and Sturmfels, Combinatorial
Commutative Algebra): ``exponent_steps`` gives each step (v, k), for k up to
the largest exponent of v in the set, one bit, and ``code`` ORs the steps
that a monomial reaches.  Over the set, a divides b iff code(a) & ~code(b)
is 0, the code of an lcm is the OR of the codes, and the degree is the bit
count.  Step (v, 1) of a grid variable is its mask bit, and every other step
lies above the mask bits, so a masked monomial's code is its mask.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Iterable, Mapping, Union

from .errors import ParseError, SizeCap

Variable = Union[tuple[int, int], int]

STRIDE = 16
_VAR_BIT = {
    (i, j): 1 << ((i - 1) * STRIDE + j - 1)
    for i in range(1, STRIDE + 1)
    for j in range(1, STRIDE + 1)
}
# The exps entry of each bit, in bit order.
_BIT_TERM = tuple((v, 1) for v in sorted(_VAR_BIT))
# The printed name of each grid variable with a mask bit.
_VAR_NAME = {(i, j): f"x[{i},{j}]" for i, j in _VAR_BIT}


class Monomial:
    """An exact monomial: an immutable sparse exponent vector.

    ``mask`` is the support bit mask of a squarefree grid monomial (see the
    module docstring) and -1 for every other monomial.
    """

    __slots__ = ("exps", "_hash", "mask")

    def __init__(self, exps: Mapping[Variable, int] | Iterable[tuple[Variable, int]] = ()):
        items = dict(exps)
        cleaned = tuple(sorted((v, e) for v, e in items.items() if e != 0))
        mask = 0
        for v, e in cleaned:
            if e < 0:
                raise ValueError("negative exponent")
            mask |= _VAR_BIT.get(v, -1) if e == 1 else -1  # -1 absorbs every bit
        self.exps: tuple[tuple[Variable, int], ...] = cleaned
        self._hash = hash(cleaned)
        self.mask = mask

    @staticmethod
    def one() -> "Monomial":
        return _ONE

    @staticmethod
    def variable(v: Variable) -> "Monomial":
        return Monomial({v: 1})

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

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

    def divides(self, other: "Monomial") -> bool:
        b = other.mask
        if b >= 0:
            # A monomial without a mask has a variable or an exponent that
            # no masked monomial has; its mask -1 meets ~b, so this is False.
            return not self.mask & ~b
        it = dict(other.exps)
        return all(it.get(v, 0) >= e for v, e in self.exps)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises if ``other`` does not divide ``self``."""
        a, b = self.mask, other.mask
        if a >= 0 and b >= 0:
            if b & ~a:
                raise ValueError(f"{other} does not divide {self}")
            return from_mask(a ^ b)
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


# The longest int that ``members`` walks by lowest set bits; a longer one
# (a 2^s-bit set of subsets) is scanned as a binary string, since each step
# x & -x costs time in proportion to the length of x.
WALK_BITS = 1024


def members(bits: int) -> list[int]:
    """The positions of the set bits, lowest first."""
    found = []
    if bits.bit_length() <= WALK_BITS:
        while bits:
            low = bits & -bits
            found.append(low.bit_length() - 1)
            bits ^= low
        return found
    digits = bin(bits)[:1:-1]
    at = digits.find("1")
    while at >= 0:
        found.append(at)
        at = digits.find("1", at + 1)
    return found


def from_mask(mask: int) -> Monomial:
    """The squarefree grid monomial with support mask ``mask`` >= 0, built
    from its bits without sorting and without ``Monomial.__init__``.  It
    keeps its own walk over the bits: on ``members`` the sparse EN build
    made strand-polarize about 4 % slower."""
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


def check_one_ring(monomials: Iterable[Monomial]) -> None:
    """Raise ValueError if the monomials mix grid variables ``x[i,j]`` and
    plain ones ``x[i]``, which lie in different rings.  One monomial never
    mixes them (its exponents could not be sorted), so its first variable
    names its ring."""
    if len({type(m.exps[0][0]) for m in monomials if m.exps}) > 1:
        raise ValueError("monomials from two rings: grid variables x[i,j] and plain ones x[i]")


def lcm_of(monomials: Iterable[Monomial]) -> Monomial:
    return reduce(Monomial.lcm, monomials, Monomial.one())


# Per variable: its mask bit (0 if it has none), and where its run of
# further step bits starts and how long it is.
Steps = dict[Variable, tuple[int, int, int]]

# The most step bits an exponent code may have.  A code is an int as wide
# as its steps, one bit per exponent step, and an lcm closure or a cell
# index keeps one per element, so a huge exponent would exhaust memory
# (x[1]^99999999999 asks for a 12.5 GB int) before any work is done.  At
# this bound a code takes 128 KiB; x[1]^200000 fits well inside it.
MAX_CODE_BITS = 1 << 20


def check_code_width(width: int) -> None:
    """Raise ``SizeCap`` if a code of ``width`` step bits, the largest
    exponents added up, would be wider than ``MAX_CODE_BITS``."""
    if width > MAX_CODE_BITS:
        raise SizeCap(
            f"the largest exponents add up to {width}; an exponent code has "
            f"a bit per exponent step and is capped at {MAX_CODE_BITS} bits"
        )


def exponent_steps(monomials: Iterable[Monomial]) -> Steps:
    """The exponent code of a set of monomials, whose steps (v, k) run up to
    the largest exponent of v in the set.  Step (v, 1) of a grid variable
    with a mask bit is that bit; every other step takes the next bit from
    STRIDE**2 up, in increasing (v, k) order, so the further steps of each
    variable are one run of bits.  Only the variables of unmasked members
    get an entry, and an entry's size does not grow with the exponent.
    Raises ``SizeCap`` (``check_code_width``) before any step is laid out."""
    top: dict[Variable, int] = {}
    for m in monomials:
        if m.mask < 0:
            for v, e in m.exps:
                top[v] = max(e, top.get(v, 0))
    check_code_width(sum(top.values()))
    steps: Steps = {}
    low = STRIDE * STRIDE
    for v in sorted(top):
        bit = _VAR_BIT.get(v, 0)
        run = top[v] - 1 if bit else top[v]
        steps[v] = (bit, low, run)
        low += run
    return steps


def code(m: Monomial, steps: Steps) -> int:
    """The code of ``m`` under ``steps``: its mask if it has one, else the
    OR of the codes of its powers, with exponents above the steps capped and
    variables outside them left out (but for a mask bit, as step 1).  So for
    a in the set of ``steps``, a divides m iff code(a) & ~code(m) is 0.
    The code of v^e is the mask bit of v OR the first steps of its run."""
    c = m.mask
    if c >= 0:
        return c
    c = 0
    for v, e in m.exps:
        bit, low, run = steps.get(v) or (_VAR_BIT.get(v, 0), 0, 0)
        c |= bit | ((1 << min(e - 1 if bit else e, run)) - 1) << low
    return c


def top_steps(m: Monomial, steps: Steps) -> list[int]:
    """The top step of each variable of ``m`` in ``code(m, steps)``, as a
    one-bit int, in the order of ``m.exps``: the mask bit at exponent 1,
    else the last step that the code holds of the variable's run (capped
    like the code), and 0 for a variable that the code leaves out.  So if
    the exponents of m lie within the steps, a divisor of m reaches the
    exponent of v in m iff its code holds the top step of v."""
    c = m.mask
    tops = []
    if c >= 0:
        while c:
            x = c & -c
            tops.append(x)
            c ^= x
        return tops
    for v, e in m.exps:
        bit, low, run = steps.get(v) or (_VAR_BIT.get(v, 0), 0, 0)
        k = min(e - 1 if bit else e, run)
        tops.append(1 << low + k - 1 if k else bit)
    return tops


def minimal(codes: Iterable[int]) -> list[int]:
    """The codes that no earlier kept code divides (h divides c iff h & ~c
    is 0): the minimal ones, if each code comes after its divisors, as in
    order of degree or of value.  A repeated code is kept once."""
    kept: list[int] = []
    for c in codes:
        if not any(h & ~c == 0 for h in kept):
            kept.append(c)
    return kept


def format_monomial(m: Monomial) -> str:
    """Render as ``x[i,j]^e * ...`` (grid) or ``x[i]^e * ...`` (plain).
    A grid variable with a mask bit takes its name from a table."""
    if m.is_one():
        return "1"
    parts = []
    for v, e in m.exps:
        name = _VAR_NAME.get(v) or (
            f"x[{v[0]},{v[1]}]" if isinstance(v, tuple) else f"x[{v}]"
        )
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
        try:  # int() refuses more digits than sys.get_int_max_str_digits()
            var: Variable = (int(i), int(j)) if j is not None else int(i)
            exps[var] = exps.get(var, 0) + (int(e) if e else 1)
        except ValueError as exc:
            raise ParseError(f"bad monomial factor: {exc}") from None
    if len({type(v) for v in exps}) > 1:
        raise ParseError(f"monomial mixes grid and plain variables: {text!r}")
    return Monomial(exps)
