import random
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings

from rainbowcw import (
    BasedComplex,
    Monomial,
    diagonal_order,
    format_monomial,
    initial_ideal_maximal_minors,
    koszul_betti,
    parse_monomial,
    random_term_order,
    sparse_eagon_northcott,
    taylor_complex,
    valid_multidegrees,
    verify_differential_formula,
    verify_multidegree_bijection,
)
from rainbowcw.eagon_northcott import _weak_compositions, decode_blocks
from rainbowcw.errors import SizeCap
from rainbowcw.termorders import LT, TermOrder
from tests.conftest import LEFT_VERTEX_LABELS, RIGHT_VERTEX_LABELS
from tests.test_determinantal import ref_initial_term, seeded_order, term_orders


# -- the classical complex and the shellability witnesses ----------------------


@dataclass(frozen=True)
class ENBasisElement:
    """Divided-power exponent ``alpha`` (length n) plus a sorted column subset
    ``cols`` of size n + |alpha|; homological degree is |alpha| + 1."""

    alpha: tuple[int, ...]
    cols: tuple[int, ...]


def decode_element(mdeg: Monomial, n: int) -> ENBasisElement:
    """Inverse of the multidegree assignment: blocks give alpha_i = |b_i| - 1
    and I = the disjoint union of the blocks."""
    blocks = decode_blocks(mdeg, n)
    cols: list[int] = []
    for b in blocks:
        cols.extend(b)
    if len(set(cols)) != len(cols):
        raise ValueError(f"{mdeg} has overlapping row blocks")
    return ENBasisElement(tuple(len(b) - 1 for b in blocks), tuple(sorted(cols)))


@dataclass
class ENComplex:
    """The classical Eagon-Northcott complex: ranks and contraction terms.

    The degree-1 map sends f_I to the full maximal minor on I, which is not a
    monomial; it is kept formal here and replaced by the initial term when
    the complex is homogenized.
    """

    n: int
    m: int
    layers: list

    def ranks(self):
        return (1,) + tuple(len(layer) for layer in self.layers[1:])

    def differential(self, e):
        """Contraction terms of a basis element in homological degree >= 2:
        (sign, variable (i, j), target)."""
        out = []
        for i in range(1, self.n + 1):
            if e.alpha[i - 1] == 0:
                continue
            alpha = tuple(a - 1 if k == i - 1 else a for k, a in enumerate(e.alpha))
            for pos, j in enumerate(e.cols):
                cols = e.cols[:pos] + e.cols[pos + 1 :]
                out.append(((-1) ** pos, (i, j), ENBasisElement(alpha, cols)))
        return out


def eagon_northcott_complex(n, m):
    """The classical complex: in degree ell >= 1, one element (alpha, I) per
    weak composition alpha of ell - 1 into n parts and (n + ell - 1)-subset I
    of the columns."""
    layers = [[]]
    for ell in range(1, m - n + 2):
        layers.append([
            ENBasisElement(alpha, cols)
            for alpha in _weak_compositions(ell - 1, n)
            for cols in combinations(range(1, m + 1), n + ell - 1)
        ])
    return ENComplex(n, m, layers)


def semimodularity_witness(order):
    """Exhaustive check of the semimodularity used by the shellability
    argument: the valid multidegrees are closed under block-shaped divisors,
    and inside any interval bounded by a valid multidegree, two covers of a
    common element are both covered by their lcm.

    (The unconditional two-swap statement fails: two single swaps of a
    generator can land in the generator set while the double swap does not.
    Only intervals with a valid upper bound are semimodular, which is what
    the recursive atom orderings need.)"""
    n = order.n
    top = order.m - order.n + 1
    valid = {ell: valid_multidegrees(order, ell) for ell in range(1, top + 1)}

    # (a) removing one column from a block of size >= 2 stays valid
    for ell in range(2, top + 1):
        for w in valid[ell]:
            for row, b in enumerate(decode_blocks(w, n), start=1):
                if len(b) < 2:
                    continue
                for j in b:
                    if w / Monomial.variable((row, j)) not in valid[ell - 1]:
                        return False

    # (b) two valid covers of a valid element, below a common valid bound,
    #     are covered by their (valid) lcm
    for ell in range(1, top - 1):
        for mu in valid[ell]:
            covers = [u for u in valid[ell + 1] if mu.divides(u)]
            for u, v in product(covers, repeat=2):
                if u == v:
                    continue
                z = u.lcm(v)
                bounded = any(z.divides(w) for e2 in range(ell + 2, top + 1) for w in valid[e2])
                if bounded and z not in valid[ell + 2]:
                    return False
    return True


def atom_order_witness(order):
    """For generators mu < nu whose lcm is a valid multidegree, some single
    swap of nu toward mu is a generator strictly smaller than nu.  No valid
    multidegree lies above degree m: its blocks are disjoint."""
    n = order.n
    valid = {ell: valid_multidegrees(order, ell) for ell in range(1, order.m - n + 2)}
    gens = valid[1]
    for mu, nu in product(gens, repeat=2):
        if order.compare(mu, nu) != LT:
            continue
        lcm = mu.lcm(nu)
        if lcm not in valid.get(lcm.degree - n + 1, ()):
            continue
        mu_cols = {i: j for (i, j), _ in mu.exps}
        nu_cols = {i: j for (i, j), _ in nu.exps}
        swaps = [
            Monomial({(r, mu_cols[r] if r == i else c): 1 for r, c in nu_cols.items()})
            for i in range(1, n + 1)
            if mu_cols[i] != nu_cols[i]
        ]
        if not any(s in gens and order.compare(s, nu) == LT for s in swaps):
            return False
    return True


def en_ranks(n, m):
    return (1,) + tuple(
        comb(n + ell - 2, ell - 1) * comb(m, n + ell - 1) for ell in range(1, m - n + 2)
    )


def test_en_complex_ranks():
    assert eagon_northcott_complex(2, 3).ranks() == (1, 3, 2) == en_ranks(2, 3)
    assert eagon_northcott_complex(2, 4).ranks() == (1, 6, 8, 3) == en_ranks(2, 4)
    # n = 1 degenerates to the Koszul complex on m variables
    assert eagon_northcott_complex(1, 4).ranks() == (1, 4, 6, 4, 1)


def test_sparse_en_2x3_hand_differentials():
    cx = sparse_eagon_northcott(diagonal_order(2, 3))
    assert cx.ranks() == (1, 3, 2)
    a = "x[1,1] * x[1,2] * x[2,3]"
    b = "x[1,1] * x[2,2] * x[2,3]"
    assert set(cx.labels(2)) == {a, b}
    assert dict(cx.out_entries(a)) == {"x[1,1] * x[2,3]": -1, "x[1,2] * x[2,3]": 1}
    assert dict(cx.out_entries(b)) == {"x[1,1] * x[2,2]": 1, "x[1,1] * x[2,3]": -1}
    assert cx.coefficient(a, "x[1,2] * x[2,3]") == Monomial.variable((1, 1))
    assert cx.check_complex() and cx.is_resolution()


def test_sparse_en_reference_2x4_orders(order24_left, order24_right):
    for order, labels in [(order24_left, LEFT_VERTEX_LABELS), (order24_right, RIGHT_VERTEX_LABELS)]:
        cx = sparse_eagon_northcott(order)
        assert cx.ranks() == (1, 6, 8, 3)
        assert set(cx.labels(1)) == labels
        assert cx.check_complex() and cx.is_resolution()


def test_sparse_en_n1_is_koszul():
    cx = sparse_eagon_northcott(diagonal_order(1, 3))
    assert cx.ranks() == (1, 3, 3, 1)
    # every contraction term survives: full binomial differential supports
    for i in range(2, cx.top_degree + 1):
        for label in cx.labels(i):
            assert len(cx.out_entries(label)) == i


def test_augmentation_presents_the_initial_ideal(order24_left):
    cx = sparse_eagon_northcott(order24_left)
    gens = {cx.mdeg(l) for l in cx.labels(1)}
    assert gens == set(initial_ideal_maximal_minors(order24_left).gens)


def test_valid_multidegrees():
    o = diagonal_order(2, 3)
    assert valid_multidegrees(o, 2) == {
        parse_monomial("x[1,1] * x[1,2] * x[2,3]"),
        parse_monomial("x[1,1] * x[2,2] * x[2,3]"),
    }
    assert valid_multidegrees(o, 1) == set(initial_ideal_maximal_minors(o).gens)
    o35 = diagonal_order(3, 5)
    assert len(valid_multidegrees(o35, 3)) == comb(4, 2)


def test_verify_differential_formula():
    assert verify_differential_formula(sparse_eagon_northcott(diagonal_order(2, 3)))
    assert verify_differential_formula(sparse_eagon_northcott(diagonal_order(3, 5)))
    cx = sparse_eagon_northcott(diagonal_order(2, 3))
    src = "x[1,1] * x[1,2] * x[2,3]"
    pruned = {
        (s, t): sign
        for s in cx.all_labels()
        for t, sign in cx.out_entries(s)
        if not (s == src and t == "x[1,2] * x[2,3]")
    }
    basis = [[(l, cx.mdeg(l)) for l in cx.labels(i)] for i in cx.degrees()]
    corrupted = BasedComplex(basis, pruned)
    assert not verify_differential_formula(corrupted)
    # Row blocks {1, 2} and {2} overlap in column 2; the entries are those of
    # the closed form, so only the overlap makes the check fail.
    top, a, b = (parse_monomial(s) for s in
                 ("x[1,1] * x[1,2] * x[2,2]", "x[1,2] * x[2,2]", "x[1,1] * x[2,2]"))
    la, lb, lt = format_monomial(a), format_monomial(b), format_monomial(top)
    overlapping = BasedComplex(
        [[("1", Monomial.one())], [(la, a), (lb, b)], [(lt, top)]],
        {(la, "1"): 1, (lb, "1"): 1, (lt, la): 1, (lt, lb): -1},
    )
    assert not verify_differential_formula(overlapping)


@pytest.mark.parametrize("gens", [
    ("x[1] * x[2]", "x[2] * x[3]"),  # plain variables: no grid pairs
    ("x[1,1] * x[2,2]", "x[1,2] * x[3,3]"),  # row 3 in a 2-row reading
])
def test_verify_differential_formula_refuses_off_shape_complexes(gens):
    cx = taylor_complex([parse_monomial(g) for g in gens])
    assert not verify_differential_formula(cx)


@pytest.mark.parametrize("text", ["x[0,1] * x[1,2]", "x[1,1] * x[3,2]", "x[1] * x[2]"])
def test_decode_blocks_refuses_variables_outside_the_rows(text):
    with pytest.raises(ValueError):
        decode_blocks(parse_monomial(text), 2)


def test_verify_multidegree_bijection(order24_left):
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    assert verify_multidegree_bijection(o, 2, cx)
    cx = sparse_eagon_northcott(order24_left)
    assert all(verify_multidegree_bijection(order24_left, ell, cx) for ell in (1, 2, 3))
    assert tuple(len(cx.labels(i)) for i in (1, 2, 3)) == (6, 8, 3)


def test_decode_roundtrip(order35):
    cx = sparse_eagon_northcott(order35)
    for i in range(1, cx.top_degree + 1):
        for label in cx.labels(i):
            e = decode_element(cx.mdeg(label), 3)
            assert sum(e.alpha) + 1 == i
            assert len(e.cols) == 3 + i - 1


def test_multidegree_uniqueness_and_rank_conservation():
    rng = random.Random(17)
    for n, m in [(2, 4), (3, 5)]:
        order = random_term_order(n, m, rng)
        cx = sparse_eagon_northcott(order)
        mdegs = [cx.mdeg(l) for i in cx.degrees() for l in cx.labels(i)]
        assert len(set(mdegs)) == len(mdegs)
        assert cx.ranks() == en_ranks(n, m)


def test_oracle_agreement_multigraded(order35):
    cx = sparse_eagon_northcott(order35)
    table = koszul_betti(initial_ideal_maximal_minors(order35))
    support = {(i, alpha) for (i, alpha) in table.entries if i >= 1}
    basis = {
        (i, cx.mdeg(l)) for i in range(1, cx.top_degree + 1) for l in cx.labels(i)
    }
    assert support == basis
    assert all(rank == 1 for rank in table.entries.values())


def test_random_order_soundness():
    rng = random.Random(23)
    for n, m in [(2, 4), (2, 5), (3, 4)]:
        for _ in range(4):
            order = random_term_order(n, m, rng)
            cx = sparse_eagon_northcott(order)
            assert cx.check_complex()
            assert cx.is_resolution()
            assert verify_differential_formula(cx)


def test_combinatorial_witnesses():
    rng = random.Random(29)
    for n, m in [(2, 3), (2, 4), (3, 4), (3, 5)]:
        order = diagonal_order(n, m)
        assert semimodularity_witness(order)
        assert atom_order_witness(order)
    order = random_term_order(3, 5, rng)
    assert semimodularity_witness(order)
    assert atom_order_witness(order)


def test_oracle_table_matches_en_shape():
    # the initial ideal of maximal minors has the pure one-row table with the
    # divided-power/exterior ranks and nothing else
    from rainbowcw import betti_table_formula

    for n, m in [(2, 4), (2, 5), (3, 5)]:
        table = koszul_betti(initial_ideal_maximal_minors(diagonal_order(n, m)))
        assert table.coarse() == betti_table_formula(n, m, 0)


def test_diagonal_blocks_are_consecutive_chunks(order35):
    # for the diagonal order the blocks read off a multidegree agree with the
    # consecutive-chunk slicing of the sorted column set by the alpha prefix
    # sums; general orders make no such promise
    for o in (diagonal_order(2, 4), order35):
        cx = sparse_eagon_northcott(o)
        n = o.n
        for i in range(1, cx.top_degree + 1):
            for label in cx.labels(i):
                e = decode_element(cx.mdeg(label), n)
                blocks = decode_blocks(cx.mdeg(label), n)
                cols = sorted(e.cols)
                pos = 0
                for row in range(n):
                    size = e.alpha[row] + 1
                    assert tuple(cols[pos:pos + size]) == blocks[row]
                    pos += size


# -- the build against a plain reference -------------------------------------------


def _exponent_product(a, b):
    exps = dict(a.exps)
    for v, e in b.exps:
        exps[v] = exps.get(v, 0) + e
    return Monomial(exps)


def ref_sparse_eagon_northcott(order):
    """The sparse EN build written plainly: initial terms from the n!-term
    compare loop, every product built through ``Monomial.__init__`` and every
    target label formatted again."""
    en = eagon_northcott_complex(order.n, order.m)
    mdeg_of = {}
    basis = [[("1", Monomial.one())]]
    diff = {}
    layer1 = []
    for e in en.layers[1]:
        sign, mono = ref_initial_term(order, e.cols)
        mdeg_of[e] = mono
        layer1.append((format_monomial(mono), mono))
        diff[(format_monomial(mono), "1")] = sign
    basis.append(layer1)
    for ell in range(2, len(en.layers)):
        layer = []
        for e in en.layers[ell]:
            terms = [
                (sign, tgt, _exponent_product(Monomial.variable(var), mdeg_of[tgt]))
                for sign, var, tgt in en.differential(e)
            ]
            mdeg = order.max(prod for _, _, prod in terms)
            mdeg_of[e] = mdeg
            label = format_monomial(mdeg)
            layer.append((label, mdeg))
            for sign, tgt, prod in terms:
                if prod == mdeg:
                    diff[(label, format_monomial(mdeg_of[tgt]))] = sign
        basis.append(layer)
    return BasedComplex(basis, diff)


@settings(max_examples=60, deadline=None)
@given(term_orders())
@example(seeded_order(4, 7, 0))
@example(seeded_order(4, 7, 1))
@example(seeded_order(4, 7, 2))
@example(seeded_order(4, 7, 10_000))
@example(seeded_order(2, 8, 2))
@example(seeded_order(2, 8, 10_000))
@example(seeded_order(7, 8, 1))
@example(seeded_order(7, 8, 10_000))
def test_sparse_en_matches_the_reference_build(order):
    cx, ref = sparse_eagon_northcott(order), ref_sparse_eagon_northcott(order)
    assert cx.to_json() == ref.to_json()
    for i in range(ref.top_degree + 1):
        for label in ref.labels(i):
            assert cx.mdeg(label).exps == ref.mdeg(label).exps


def test_grids_wider_than_the_masks_are_refused():
    # 1 x 17 would be a Koszul complex with 2^17 elements; its variables
    # have no support masks, which the build runs on.
    with pytest.raises(SizeCap):
        sparse_eagon_northcott(diagonal_order(1, 17))
    with pytest.raises(ValueError):
        sparse_eagon_northcott(TermOrder(3, 2, ((0, 0),) * 3))
