"""Exact linear algebra over a prime field GF(p).

Homology of the vector-space strands is computed from matrix ranks, and
every sparse matrix has one form, from where its entries are made to where
they are eliminated: the list of its columns, each the boundary of one basis
element as a {row: value} dict, with no column for a basis element whose
boundary is empty.  Every rank goes through one elimination:
``sparse_rank_mod_p`` reduces each column in turn against a table of pivot
columns keyed by their largest row, over plain Python ints.  Strand matrices
have entries in {+1, -1}, very low fill and many empty or tiny instances, so
the cost follows the nonzero entries rather than the matrix shape.

The default prime 32003 is large enough that ranks almost surely agree with
characteristic-0 ranks at desk scale; certificates are rerun at p = 2 to
surface characteristic dependence.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def sparse_rank_mod_p(columns: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of the matrix whose columns are {row: value} dicts.

    Each column is reduced in turn: while the pivot table holds a column for
    the column's largest row, that pivot column is subtracted; when the
    largest row is new, the column is stored there, scaled to a leading 1.
    This is the column reduction of a boundary matrix with low(j) the
    largest row of column j (Zomorodian and Carlsson, Computing persistent
    homology, 2005).  The pivot columns are linearly independent and span
    the columns seen so far, so the rank is the number of pivots.  Rank is
    invariant under transposition, so a list of rows gives the same answer.
    """
    # A pivot is kept as the (row, value) pairs after its leading 1.
    pivots: dict[int, list[tuple[int, int]]] = {}
    for given in columns:
        column = {r: x for r, v in given.items() if (x := v % p)}
        while column:
            low = max(column)
            factor = column.pop(low)
            pivot = pivots.get(low)
            if pivot is None:
                inv = pow(factor, -1, p)
                pivots[low] = [(r, v * inv % p) for r, v in column.items()]
                break
            for r, v in pivot:
                new = (column.get(r, 0) - factor * v) % p
                if new:
                    column[r] = new
                else:
                    del column[r]  # a zero needs a nonzero entry to cancel
    return len(pivots)


def matrix_rank(columns: list[dict[int, int]], nrows: int, ncols: int, p: int) -> int:
    """Rank of the ``nrows`` x ``ncols`` integer matrix given by its columns,
    each a {row: value} dict; a zero column may be left out."""
    check_prime(p)
    return sparse_rank_mod_p(columns, p)


@dataclass
class VectorComplex:
    """A finite complex of GF(p)-vector spaces with fixed bases.

    ``dims[i]`` is the dimension in homological degree i and ``diffs[i]`` the
    columns of d_i : C_i -> C_{i-1}: the boundary of each basis element of
    C_i that has a nonzero one, as {index in C_{i-1}: value}.  ``diffs[0]``
    is unused and kept empty.
    """

    dims: list[int]
    diffs: list[list[dict[int, int]]]

    def __post_init__(self):
        if len(self.diffs) != len(self.dims):
            raise ValueError("diffs must align with dims")

    def homology_ranks(self, p: int) -> list[int]:
        """dim H_i in every degree i of ``dims``.  Raises ValueError unless p
        is a prime below MAX_PRIME, also when every differential is empty."""
        check_prime(p)
        dims = self.dims
        # Most strands leave most differentials empty; no rank is taken for them.
        ranks = [
            matrix_rank(columns, dims[i - 1], dims[i], p) if i and columns else 0
            for i, columns in enumerate(self.diffs)
        ]
        ranks.append(0)
        return [dim - ranks[i] - ranks[i + 1] for i, dim in enumerate(dims)]


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
    diffs: list[list[dict[int, int]]] = [[] for _ in range(top + 1)]
    for size in range(1, top + 1):
        columns = diffs[size]
        lower = by_size[size - 1]
        for mask in by_size[size]:
            column = {}
            sign = 1
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                row = lower.get(mask ^ low)
                if row is not None:
                    column[row] = sign
                sign = -sign
            if column:
                columns.append(column)
    return VectorComplex([len(layer) for layer in by_size], diffs).homology_ranks(p)
