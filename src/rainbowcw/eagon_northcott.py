"""The sparse Eagon-Northcott complex of the generic matrix.

The classical complex lives over divided powers of the row space tensored
with exterior powers of the column space; its basis elements are pairs
(alpha, I) of a divided-power exponent and a column subset, and its
differential contracts one row/column pair at a time with the usual exterior
sign.  Homogenizing with respect to a term order assigns every basis element
the order-maximum of the coefficient-times-target multidegrees below it, and
setting the homogenizing variable to zero keeps exactly the terms attaining
that maximum.  The result is a based multigraded complex that minimally
resolves the quotient by the initial ideal of maximal minors.

The build finds that maximum on the integer weights of the order: a
product's weight is the sum of its factors', so the contraction terms are
scored as ints, and only the terms of the top weight are built as
monomials for the lexicographic tiebreak.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from .complexes import BasedComplex
from .determinantal import initial_ideal_maximal_minors, initial_term
from .errors import SizeCap
from .monomials import STRIDE, Monomial, format_monomial, from_mask
from .termorders import TermOrder


def _weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def sparse_eagon_northcott(order: TermOrder) -> BasedComplex:
    """Homogenize the Eagon-Northcott complex with respect to the term order
    and set the homogenizing variable to zero.

    Multidegrees are assigned bottom-up: a column subset I gets the initial
    term of its minor, and a higher basis element gets the order-maximum of
    x_ij * mdeg(target) over its contraction terms; exactly the terms
    attaining the maximum survive.  Labels are the multidegrees themselves,
    which are pairwise distinct (a collision aborts construction).

    The elements and contraction terms are those of the classical complex
    (``eagon_northcott_complex`` in ``tests/test_eagon_northcott.py``, the
    reference this build is checked against), in the same order.  Each
    layer keeps the support mask, label and order weight of its
    multidegrees by alpha, then by the int mask of the columns (bit j for
    column j), so a contraction term's target is the entry of the lowered
    alpha at the column mask without bit j.  The maximum is an argmax over
    ints, as in ``determinantal.initial_term``: weights add, so a term scores
    weight(target) + w_ij, the weight of its product.  Only the terms of the
    top score get a product monomial, the union of two masks (column j is
    not among the target's columns, so the two are coprime), and
    ``order.max`` over those products picks the multidegree: it applies the
    lexicographic tiebreak to distinct products and returns the common one
    when they are equal.  The surviving entries are the top terms whose
    product is the multidegree.  A grid with more than ``STRIDE`` columns
    has no masks and raises ``SizeCap``."""
    n, m = order.n, order.m
    if n > m:
        raise ValueError(f"need n <= m, got {n} > {m}")
    if m > STRIDE:
        raise SizeCap(
            f"the sparse Eagon-Northcott build covers at most {STRIDE} columns, got {m}"
        )
    bits = [
        [0] + [Monomial.variable((i, j)).mask for j in range(1, m + 1)]
        for i in range(1, n + 1)
    ]
    weights = [(0,) + row for row in order.weights]
    colbit = [1 << j for j in range(m + 1)]
    basis: list[list[tuple[str, Monomial]]] = [[("1", Monomial.one())]]
    diff: dict[tuple[str, str], int] = {}

    # below[alpha][column mask] = (support mask, label, weight) of the
    # multidegree of (alpha, cols) in the layer below
    first: dict[int, tuple[int, str, int]] = {}
    below = {(0,) * n: first}
    layer = []
    for cols in combinations(range(1, m + 1), n):
        term = initial_term(order, cols)
        label = format_monomial(term.monomial)
        first[sum(colbit[j] for j in cols)] = (
            term.monomial.mask, label, order.weight(term.monomial)
        )
        layer.append((label, term.monomial))
        # The augmentation keeps the sign of the initial term inside the
        # minor; the lead terms of the standard minor relations only cancel
        # with these signs in place.
        diff[(label, "1")] = term.sign
    basis.append(layer)

    for ell in range(2, m - n + 2):
        current = {}
        layer = []
        for alpha in _weak_compositions(ell - 1, n):
            # (row bits, row weights, the layer below at alpha with that row
            # lowered) for the rows in the support of alpha
            rows = [
                (bits[i], weights[i], below[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]])
                for i in range(n)
                if alpha[i]
            ]
            here = current[alpha] = {}
            for cols in combinations(range(1, m + 1), n + ell - 1):
                colmask = sum(colbit[j] for j in cols)
                # the weight of x_ij * mdeg(target) is the sum of theirs;
                # keep the terms of the top score as (position, target
                # label, product mask)
                top, tied = None, []
                for row, wrow, prev in rows:
                    for pos, j in enumerate(cols):
                        tmask, tlabel, tweight = prev[colmask ^ colbit[j]]
                        score = tweight + wrow[j]
                        if top is None or score > top:
                            top, tied = score, [(pos, tlabel, tmask | row[j])]
                        elif score == top:
                            tied.append((pos, tlabel, tmask | row[j]))
                # order.max sees every top term; equal masks share a product
                products = {mask: from_mask(mask) for mask in {t[2] for t in tied}}
                mdeg = order.max([products[mask] for _, _, mask in tied])
                label = format_monomial(mdeg)
                here[colmask] = (mdeg.mask, label, top)
                layer.append((label, mdeg))
                for pos, tlabel, mask in tied:
                    if mask == mdeg.mask:
                        diff[(label, tlabel)] = -1 if pos & 1 else 1
        basis.append(layer)
        below = current
    return BasedComplex(basis, diff)


def decode_blocks(mdeg: Monomial, n: int) -> tuple[tuple[int, ...], ...]:
    """Read the per-row column blocks b_i off a multidegree
    x_{1 b_1} ... x_{n b_n}; requires a squarefree grid monomial in rows
    1..n with at least one variable in every row, and raises ValueError
    for any other."""
    blocks: list[list[int]] = [[] for _ in range(n)]
    for v, e in mdeg.exps:
        if not isinstance(v, tuple):
            raise ValueError(f"{mdeg} has a variable outside the grid")
        if e != 1:
            raise ValueError(f"{mdeg} is not squarefree")
        i, j = v
        if not 1 <= i <= n:
            raise ValueError(f"{mdeg} has a variable in row {i}, outside 1..{n}")
        blocks[i - 1].append(j)
    if any(not b for b in blocks):
        raise ValueError(f"{mdeg} misses a row among 1..{n}")
    return tuple(tuple(sorted(b)) for b in blocks)


def valid_multidegrees(order: TermOrder, ell: int) -> set[Monomial]:
    """All degree n+ell-1 block monomials x_{1 b_1} ... x_{n b_n} such that
    every rainbow selection of one column per block is a generator of the
    initial ideal of maximal minors."""
    if ell < 1:
        raise ValueError("homological degree must be >= 1")
    n, m = order.n, order.m
    gens = set(initial_ideal_maximal_minors(order).gens)
    out: set[Monomial] = set()
    for alpha in _weak_compositions(ell - 1, n):
        sizes = [a + 1 for a in alpha]
        for blocks in product(*(combinations(range(1, m + 1), s) for s in sizes)):
            if all(
                Monomial({(i + 1, sel[i]): 1 for i in range(n)}) in gens
                for sel in product(*blocks)
            ):
                out.add(
                    Monomial({(i + 1, j): 1 for i in range(n) for j in blocks[i]})
                )
    return out


def verify_differential_formula(cx: BasedComplex) -> bool:
    """Check every differential entry of a sparse Eagon-Northcott complex
    against the closed form: an element with blocks b_i and columns I maps to
    sgn(j in I) * x_ij times the element with block entry j removed, for
    every i in the support of alpha and j in b_i."""
    verts = cx.labels(1)
    if not verts:
        return True
    n = len(cx.mdeg(verts[0]).exps)
    for i in range(2, cx.top_degree + 1):
        for label in cx.labels(i):
            mdeg = cx.mdeg(label)
            try:
                blocks = decode_blocks(mdeg, n)
            except ValueError:
                return False
            cols = sorted(j for b in blocks for j in b)
            if len(set(cols)) != len(cols):  # overlapping row blocks
                return False
            expected: dict[str, int] = {}
            for row, block in enumerate(blocks, start=1):
                if len(block) < 2:  # alpha_row = 0: row not in the support
                    continue
                for j in block:
                    sign = (-1) ** cols.index(j)
                    expected[format_monomial(mdeg / Monomial.variable((row, j)))] = sign
            actual = {tgt: sign for tgt, sign in cx.out_entries(label)}
            if actual != expected:
                return False
    return True


def verify_multidegree_bijection(
    order: TermOrder, ell: int, cx: BasedComplex | None = None
) -> bool:
    """The degree-ell multidegrees of the sparse complex, as a multiset, are
    exactly the valid block monomials (each once)."""
    if cx is None:
        cx = sparse_eagon_northcott(order)
    labels = cx.labels(ell)
    mdegs = [cx.mdeg(l) for l in labels]
    return len(set(mdegs)) == len(mdegs) and set(mdegs) == valid_multidegrees(order, ell)

