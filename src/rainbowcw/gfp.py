"""Exact linear algebra over a prime field GF(p).

Homology of the vector-space strands is computed from matrix ranks.  Small
matrices go through dense vectorized elimination; larger ones through a
sparse row-dict elimination with Markowitz-style pivoting (strand matrices
have entries in {+1, -1} and very low fill).

The default prime 32003 is large enough that ranks almost surely agree with
characteristic-0 ranks at desk scale; certificates are rerun at p = 2 to
surface characteristic dependence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

DEFAULT_PRIME = 32003
# Moduli stay below 2^31 so that the int64 products in dense_rank_mod_p,
# at most (p - 1)^2, stay below 2^63.
MAX_PRIME = 1 << 31
_DENSE_LIMIT = 160_000  # nrows * ncols above which the sparse path is used


def is_prime(p: int) -> bool:
    """Trial division; meant for moduli below MAX_PRIME."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def dense_rank_mod_p(matrix: np.ndarray, p: int) -> int:
    a = np.asarray(matrix, dtype=np.int64) % p
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivots = np.nonzero(a[r:, c])[0]
        if pivots.size == 0:
            continue
        pr = r + int(pivots[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - np.outer(a[idx, c], a[r])) % p
        r += 1
    return r


def sparse_rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank of the matrix whose rows are {column: value} dicts."""
    alive: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        rd = {c: v % p for c, v in row.items() if v % p}
        if rd:
            alive[i] = rd
            for c in rd:
                col_rows.setdefault(c, set()).add(i)

    rank = 0
    while alive:
        # Markowitz pivot: minimize (row_nnz - 1) * (col_nnz - 1).
        best = None
        for c, rs in col_rows.items():
            if not rs:
                continue
            cn = len(rs) - 1
            for i in rs:
                score = (len(alive[i]) - 1) * cn
                if best is None or score < best[0]:
                    best = (score, i, c)
                if score == 0:
                    break
            if best[0] == 0:
                break
        if best is None:
            break
        _, pi, pc = best
        prow = alive.pop(pi)
        for c in prow:
            col_rows[c].discard(pi)
        inv = pow(prow[pc], p - 2, p)
        prow = {c: (v * inv) % p for c, v in prow.items()}
        rank += 1
        for i in list(col_rows.get(pc, ())):
            row = alive[i]
            factor = row[pc]
            for c, v in prow.items():
                new = (row.get(c, 0) - factor * v) % p
                if new:
                    if c not in row:
                        col_rows.setdefault(c, set()).add(i)
                    row[c] = new
                elif c in row:
                    del row[c]
                    col_rows[c].discard(i)
            if not row:
                del alive[i]
        col_rows.pop(pc, None)
    return rank


def matrix_rank(entries: dict[tuple[int, int], int], nrows: int, ncols: int, p: int) -> int:
    """Rank of a sparse integer matrix given as {(row, col): value}."""
    if not entries or nrows == 0 or ncols == 0:
        return 0
    if nrows * ncols <= _DENSE_LIMIT:
        a = np.zeros((nrows, ncols), dtype=np.int64)
        for (i, j), v in entries.items():
            a[i, j] = v % p
        return dense_rank_mod_p(a, p)
    rows: list[dict[int, int]] = [dict() for _ in range(nrows)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return sparse_rank_mod_p(rows, p)


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
        if i <= 0 or i > self.top:
            return 0
        return matrix_rank(self.diffs[i], self.dims[i - 1], self.dims[i], p)

    def homology_ranks(self, p: int) -> list[int]:
        """dim H_i for i = 0..top."""
        ranks = [self.rank(i, p) for i in range(self.top + 2)]
        return [self.dims[i] - ranks[i] - ranks[i + 1] for i in range(self.top + 1)]
