"""Exact linear algebra over a prime field GF(p).

Homology of the vector-space strands is computed from matrix ranks, and
every rank goes through one elimination: ``sparse_rank_mod_p`` reduces each
row in turn against a table of pivot rows keyed by their lowest column, over
plain Python ints.  Strand matrices have entries in {+1, -1}, very low fill
and many empty or tiny instances, so the cost follows the nonzero entries
rather than the matrix shape.

The default prime 32003 is large enough that ranks almost surely agree with
characteristic-0 ranks at desk scale; certificates are rerun at p = 2 to
surface characteristic dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import isqrt
from typing import Iterable

DEFAULT_PRIME = 32003
# Every modulus must be a prime below this bound.  The arithmetic is on
# Python ints and would take any prime; the bound keeps the trial division in
# ``is_valid_modulus`` cheap and is the modulus range the CLI documents.
MAX_PRIME = 1 << 31


@lru_cache(maxsize=64, typed=True)
def is_valid_modulus(p: int) -> bool:
    """Whether ``p`` is a Python int that is a prime below MAX_PRIME, by
    trial division; cached, so a repeated check costs one lookup."""
    return (
        isinstance(p, int)
        and 2 <= p < MAX_PRIME
        and all(p % d for d in range(2, isqrt(p) + 1))
    )


def check_prime(p: int) -> None:
    """Raise ValueError unless ``p`` is a prime below MAX_PRIME."""
    if not is_valid_modulus(p):
        raise ValueError(f"the modulus must be a prime below 2^31, got {p!r}")


def sparse_rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of the matrix whose rows are {column: value} dicts.

    Each row is reduced in turn: while the pivot table holds a row for the
    row's lowest column, that pivot row is subtracted; when the lowest
    column is new, the row is stored there, scaled to a leading 1.  The
    pivot rows are linearly independent and span the rows seen so far, so
    the rank is the number of pivots.
    """
    # A pivot is kept as the (column, value) pairs after its leading 1.
    pivots: dict[int, list[tuple[int, int]]] = {}
    for given in rows:
        row = {c: r for c, v in given.items() if (r := v % p)}
        while row:
            low = min(row)
            factor = row.pop(low)
            pivot = pivots.get(low)
            if pivot is None:
                inv = pow(factor, -1, p)
                pivots[low] = [(c, v * inv % p) for c, v in row.items()]
                break
            for c, v in pivot:
                new = (row.get(c, 0) - factor * v) % p
                if new:
                    row[c] = new
                else:
                    del row[c]  # a zero needs a nonzero entry to cancel
    return len(pivots)


def matrix_rank(entries: dict[tuple[int, int], int], nrows: int, ncols: int, p: int) -> int:
    """Rank of a sparse integer matrix given as {(row, col): value}."""
    check_prime(p)
    if not entries or nrows == 0 or ncols == 0:
        return 0
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in entries.items():
        row = rows.get(i)
        if row is None:
            rows[i] = {j: v}
        else:
            row[j] = v
    return sparse_rank_mod_p(list(rows.values()), p)


@dataclass
class VectorComplex:
    """A finite complex of GF(p)-vector spaces with fixed bases.

    ``dims[i]`` is the dimension in homological degree i and ``diffs[i]`` the
    sparse matrix of d_i : C_i -> C_{i-1} as {(target_index, source_index): value};
    ``diffs[0]`` is unused and kept empty.
    """

    dims: list[int]
    diffs: list[dict[tuple[int, int], int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.diffs:
            self.diffs = [dict() for _ in self.dims]
        if len(self.diffs) != len(self.dims):
            raise ValueError("diffs must align with dims")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def rank(self, i: int, p: int) -> int:
        # Most strands leave most differentials empty; skip the call for them.
        if i <= 0 or i > self.top or not self.diffs[i]:
            return 0
        return matrix_rank(self.diffs[i], self.dims[i - 1], self.dims[i], p)

    def homology_ranks(self, p: int) -> list[int]:
        """dim H_i for i = 0..top.  Raises ValueError unless p is a prime
        below MAX_PRIME, also when every differential is empty."""
        check_prime(p)
        ranks = [self.rank(i, p) for i in range(self.top + 2)]
        return [self.dims[i] - ranks[i] - ranks[i + 1] for i in range(self.top + 1)]


def cell_homology(cells: Iterable[int], top: int, p: int) -> list[int]:
    """Homology ranks, in degrees 0..top, of the complex spanned by subset
    cells with the simplicial signs.

    A cell is a subset of at most ``top`` elements, given as an int mask,
    and sits in degree equal to its size.  Its boundary drops one element at
    a time, with sign (-1)^k for the k-th lowest set bit, and a face that is
    not a cell counts as zero; the cells must span a complex under that
    rule.  The cone cells of a Koszul strand and the chains of an order
    complex, with the empty chain as the (-1)-cell, both do.
    """
    by_size: list[dict[int, int]] = [dict() for _ in range(top + 1)]
    for mask in cells:
        layer = by_size[mask.bit_count()]
        layer[mask] = len(layer)
    diffs: list[dict[tuple[int, int], int]] = [dict() for _ in range(top + 1)]
    for size in range(1, top + 1):
        entries = diffs[size]
        lower = by_size[size - 1]
        for mask, col in by_size[size].items():
            sign = 1
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                row = lower.get(mask ^ low)
                if row is not None:
                    entries[(row, col)] = sign
                sign = -sign
    return VectorComplex([len(layer) for layer in by_size], diffs).homology_ranks(p)
