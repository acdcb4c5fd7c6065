"""Differential tests of the one GF(p) elimination, and of the prime check.

``gfp.sparse_rank_mod_p`` (reached through ``gfp.matrix_rank``) replaced two
eliminations: a dense numpy elimination for small matrices and a sparse one
with Markowitz pivoting for large ones.  Both live on here as references, and
all three must agree at p = 2, 3 and 32003 on random small matrices and on
every matrix that the resolution check and the CW certificate build for
seeded sparse Eagon-Northcott complexes from 2x4 to 3x6.  The library's
matrices are lists of columns; the references read them through
``_entries`` as {(row, col): value} dicts, and the elimination is also given
the rows, since the rank of a matrix is the rank of its transpose.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rainbowcw import gfp
from rainbowcw.complexes import BasedComplex, is_linear_strand_of_module, koszul_betti
from rainbowcw.cwposet import face_poset, is_cw_poset
from rainbowcw.determinantal import random_term_order
from rainbowcw.eagon_northcott import sparse_eagon_northcott
from rainbowcw.gfp import MAX_PRIME, VectorComplex, matrix_rank, sparse_rank_mod_p
from rainbowcw.ideals import MonomialIdeal
from rainbowcw.monomials import Monomial

PRIMES = [2, 3, 32003]


def _entries(columns):
    """The {(row, col): value} dict of a list of {row: value} columns."""
    return {(i, j): v for j, column in enumerate(columns) for i, v in column.items()}


def dense_rank_reference(columns, nrows, ncols, p):
    """Gaussian elimination on a dense int64 array, one pass per column."""
    a = np.zeros((nrows, ncols), dtype=np.int64)
    for (i, j), v in _entries(columns).items():
        a[i, j] = v % p
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


def markowitz_rank_reference(columns, nrows, ncols, p):
    """Row-dict elimination choosing each pivot to minimize
    (row nonzeros - 1) * (column nonzeros - 1)."""
    alive: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for (i, j), v in _entries(columns).items():
        if v % p:
            alive.setdefault(i, {})[j] = v % p
            col_rows.setdefault(j, set()).add(i)
    rank = 0
    while alive:
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


def assert_ranks_agree(columns, nrows, ncols):
    rows: dict[int, dict[int, int]] = {}
    for (i, j), v in _entries(columns).items():
        rows.setdefault(i, {})[j] = v
    for p in PRIMES:
        want = dense_rank_reference(columns, nrows, ncols, p)
        assert markowitz_rank_reference(columns, nrows, ncols, p) == want
        assert matrix_rank(columns, nrows, ncols, p) == want, (p, columns)
        assert sparse_rank_mod_p(columns, p) == want
        assert sparse_rank_mod_p(list(rows.values()), p) == want


@st.composite
def small_matrices(draw):
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    if nrows == 0 or ncols == 0:
        return [], nrows, ncols
    # Few entries per column, so empty rows and columns are common; zero
    # entries and all-zero columns are kept.
    column = st.dictionaries(st.integers(0, nrows - 1), st.integers(-3, 3), max_size=nrows // 2 + 1)
    return draw(st.lists(column, max_size=ncols)), nrows, ncols


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_rank_matches_both_references_on_small_matrices(matrix):
    assert_ranks_agree(*matrix)


def test_rank_of_known_matrices():
    # [[1, 1], [1, -1]] is singular only in characteristic 2.
    columns = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert [matrix_rank(columns, 2, 2, p) for p in PRIMES] == [1, 2, 2]
    # The edge boundaries of a triangle have rank 2: the third column reduces
    # to zero through both others.  With every sign +1 that happens only at
    # p = 2.
    triangle = [{0: -1, 1: 1}, {1: -1, 2: 1}, {0: -1, 2: 1}]
    assert [matrix_rank(triangle, 3, 3, p) for p in PRIMES] == [2, 2, 2]
    assert [matrix_rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 3, 3, p)
            for p in PRIMES] == [2, 3, 3]
    # Zero entries, zero columns and a multiple of p are all nothing.
    assert matrix_rank([{0: 0}, {3: 6}], 5, 5, 3) == 0
    assert matrix_rank([], 4, 4, 2) == 0
    assert sparse_rank_mod_p([{}, {5: 3}, {5: -3}], 32003) == 1


def test_a_strand_with_empty_layers_keeps_one_differential_per_degree():
    cx = _koszul_on_two_variables()
    strand = cx.strand_at(Monomial.one())
    assert strand.dims == [1, 0, 0] and strand.diffs == [[], [], []]
    assert strand.homology_ranks(2) == [1, 0, 0]
    strand = cx.strand_at(Monomial({1: 1}))
    assert strand.dims == [1, 1, 0] and strand.diffs == [[], [{0: 1}], []]
    assert strand.homology_ranks(32003) == [0, 0, 0]


def recorded_matrices(monkeypatch, run):
    """Every (columns, nrows, ncols) that ``run`` hands to gfp.matrix_rank,
    each distinct matrix once."""
    seen: dict = {}

    def recorder(columns, nrows, ncols, p):
        key = (tuple(frozenset(c.items()) for c in columns), nrows, ncols)
        seen[key] = ([dict(c) for c in columns], nrows, ncols)
        return original(columns, nrows, ncols, p)

    original = gfp.matrix_rank
    monkeypatch.setattr(gfp, "matrix_rank", recorder)
    try:
        run()
    finally:
        monkeypatch.setattr(gfp, "matrix_rank", original)
    return list(seen.values())


@pytest.mark.parametrize("n,m", [(2, 4), (2, 5), (3, 4), (3, 5), (2, 6), (3, 6)])
def test_rank_matches_both_references_on_strand_and_interval_matrices(monkeypatch, n, m):
    order = random_term_order(n, m, random.Random(1000 * n + m))
    cx = sparse_eagon_northcott(order)
    poset = face_poset(cx)

    def run():
        assert cx.is_resolution(32003)
        assert is_cw_poset(poset, p=32003).verdict

    matrices = recorded_matrices(monkeypatch, run)
    assert matrices
    for matrix in matrices:
        assert_ranks_agree(*matrix)


# -- the prime ---------------------------------------------------------------


def test_prime_check_is_cached_and_bounded():
    assert gfp.is_valid_modulus(2) and gfp.is_valid_modulus(32003)
    assert gfp.is_valid_modulus((1 << 31) - 1)
    assert not gfp.is_valid_modulus(MAX_PRIME + 11)  # 2^31 + 11 is prime
    assert not gfp.is_valid_modulus(3.0) and not gfp.is_valid_modulus(-3)
    assert gfp.is_valid_modulus.cache_info().currsize > 0


def _koszul_on_two_variables():
    return BasedComplex(
        [[("1", Monomial.one())], [("a", Monomial({1: 1})), ("b", Monomial({2: 1}))],
         [("ab", Monomial({1: 1, 2: 1}))]],
        {("a", "1"): 1, ("b", "1"): 1, ("ab", "a"): -1, ("ab", "b"): 1},
    )


@pytest.mark.parametrize("p", [1, 4, 6])
def test_bad_prime_raises_in_the_library(p):
    with pytest.raises(ValueError, match="prime"):
        matrix_rank([{0: 1}], 1, 1, p)
    with pytest.raises(ValueError, match="prime"):
        VectorComplex([1, 1], [[], [{0: 1}]]).homology_ranks(p)
    with pytest.raises(ValueError, match="prime"):
        VectorComplex([1, 1], [[], []]).homology_ranks(p)
    with pytest.raises(ValueError, match="prime"):
        _koszul_on_two_variables().is_resolution(p)
    with pytest.raises(ValueError, match="prime"):
        is_linear_strand_of_module(_koszul_on_two_variables(), p)
    with pytest.raises(ValueError, match="prime"):
        next(_koszul_on_two_variables().strand_homologies(p))
    with pytest.raises(ValueError, match="prime"):
        koszul_betti(MonomialIdeal([Monomial({1: 1, 2: 1})]), p=p)


def test_good_primes_give_the_expected_answers():
    for p in PRIMES:
        assert _koszul_on_two_variables().is_resolution(p)
        table = koszul_betti(MonomialIdeal([Monomial({1: 1}), Monomial({2: 1})]), p=p)
        assert table.total_vector() == (1, 2, 1)
