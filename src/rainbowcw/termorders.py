"""Term orders on the grid ring induced by integer weight vectors.

A comparison first looks at the weight of the exponent vector and falls back
to a fixed lexicographic tiebreak with ``x[1,1] > x[1,2] > ... > x[2,1] > ...``
(row-major).  Both components are additive in the exponent vector, so the
order is total and multiplicative.  Weights all zero gives the pure row-major
lexicographic order, under which every maximal minor of the variable matrix
has its main-diagonal term as initial term (the standard diagonal order).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ParseError
from .monomials import Monomial

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class TermOrder:
    n: int
    m: int
    weights: tuple[tuple[int, ...], ...]  # n rows of m integers

    def __post_init__(self):
        if len(self.weights) != self.n or any(len(r) != self.m for r in self.weights):
            raise ValueError(f"weights must be {self.n}x{self.m}")

    def weight(self, mono: Monomial) -> int:
        total = 0
        for v, e in mono.exps:
            i, j = v
            total += self.weights[i - 1][j - 1] * e
        return total

    def _lex_key(self, mono: Monomial) -> tuple[int, ...]:
        # Row-major dense exponent vector; lex with larger-on-earlier-variable
        # winning realizes x[1,1] > x[1,2] > ... as monomial variables.
        key = [0] * (self.n * self.m)
        for v, e in mono.exps:
            i, j = v
            key[(i - 1) * self.m + (j - 1)] = e
        return tuple(key)

    def compare(self, a: Monomial, b: Monomial) -> int:
        """Return GT/EQ/LT as ``a`` is greater than / equal to / less than ``b``."""
        if a == b:
            return EQ
        wa, wb = self.weight(a), self.weight(b)
        if wa != wb:
            return GT if wa > wb else LT
        ka, kb = self._lex_key(a), self._lex_key(b)
        return GT if ka > kb else LT

    def max(self, monomials) -> Monomial:
        best = None
        for m in monomials:
            if best is None or self.compare(m, best) == GT:
                best = m
        if best is None:
            raise ValueError("max of empty collection")
        return best

    def sort_key(self, mono: Monomial):
        """Key sorting monomials ascending in this order."""
        return (self.weight(mono), self._lex_key(mono))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "weights": [list(r) for r in self.weights],
            "tiebreak": "row-major",
        }

    @staticmethod
    def from_json(data) -> "TermOrder":
        """Inverse of :meth:`to_json`: an object whose ``weights`` are n
        lists of m integers, with optional integer ``n`` and ``m``.  Anything
        else (a bool, float or string where an integer belongs, say) raises
        ParseError instead of being coerced."""
        if not isinstance(data, dict):
            raise ParseError(
                f"bad term-order file: a term order is a JSON object, got {type(data).__name__}"
            )
        if data.get("tiebreak", "row-major") != "row-major":
            raise ParseError("bad term-order file: only the row-major tiebreak is supported")
        rows = data.get("weights")
        if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(_is_int(x) for x in row) for row in rows
        ):
            raise ParseError("bad term-order file: weights must be a list of lists of integers")
        weights = tuple(tuple(row) for row in rows)
        n = data.get("n", len(weights))
        m = data.get("m", len(weights[0]) if weights else 0)
        if not (_is_int(n) and _is_int(m)):
            raise ParseError("bad term-order file: n and m must be integers")
        try:
            return TermOrder(n, m, weights)
        except ValueError as exc:
            raise ParseError(f"bad term-order file: {exc}") from exc


def _is_int(x) -> bool:
    """An integer that is not a bool."""
    return type(x) is int


def diagonal_order(n: int, m: int) -> TermOrder:
    """Weights all zero: pure row-major lex, the standard diagonal order."""
    return TermOrder(n, m, tuple((0,) * m for _ in range(n)))


def weight_order(n: int, m: int, rows) -> TermOrder:
    return TermOrder(n, m, tuple(tuple(int(x) for x in r) for r in rows))


def random_weights(n: int, m: int, rng: random.Random, max_weight: int = 10_000) -> TermOrder:
    return TermOrder(
        n, m, tuple(tuple(rng.randint(0, max_weight) for _ in range(m)) for _ in range(n))
    )
