import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcw import (
    Monomial,
    MonomialIdeal,
    alexander_dual,
    alexander_dual_complex,
    codimension,
    colon,
    complementary_ideal,
    initial_minor,
    parse_monomial,
    rainbow_dfi,
    random_term_order,
)
from rainbowcw.errors import NotEquigenerated, NotSquarefree, SizeCap, UnitIdeal
from rainbowcw.ideals import _all_monomials, _minimalize
from rainbowcw.monomials import MAX_CODE_BITS, check_one_ring
from rainbowcw.polarization import specialize
from tests.conftest import in_ideal, random_overlap_dual
from tests.test_hilbert_engine import small_monomials


def plain(*specs):
    return MonomialIdeal(parse_monomial(s) for s in specs)


def test_minimalization():
    ideal = plain("x[1] * x[2]", "x[1] * x[2] * x[3]", "x[1] * x[2]")
    assert len(ideal.gens) == 1
    assert in_ideal(ideal, parse_monomial("x[1] * x[2] * x[3]"))


def test_colon_worked_example(order35, delta35):
    rain = rainbow_dfi(delta35, order35)
    c1 = colon(rain, parse_monomial("x[1,1] * x[2,2] * x[3,3]"))
    assert c1 == MonomialIdeal([Monomial.variable((3, 4)), Monomial.variable((3, 5))])
    c2 = colon(rain, parse_monomial("x[1,3] * x[2,4] * x[3,5]"))
    assert c2 == MonomialIdeal([Monomial.variable((1, 1)), Monomial.variable((1, 2))])
    assert colon(rain, Monomial.one()) == rain


def test_colon_containment():
    ideal = plain("x[1]^2 * x[2]", "x[2] * x[3]", "x[3]^3")
    g = parse_monomial("x[1] * x[3]")
    for q in colon(ideal, g).gens:
        product = dict(q.exps)
        for v, e in g.exps:
            product[v] = product.get(v, 0) + e
        assert in_ideal(ideal, Monomial(product))


def test_codimension():
    assert codimension(plain("x[3] * x[4]")) == 1
    assert codimension(MonomialIdeal([Monomial.variable((3, 4)), Monomial.variable((3, 5))])) == 2
    assert codimension(MonomialIdeal()) == 0
    everything = MonomialIdeal(Monomial.variable((i, j)) for i in (1, 2) for j in (1, 2, 3))
    assert codimension(everything) == 6
    with pytest.raises(UnitIdeal):
        codimension(MonomialIdeal([Monomial.one()]))


def test_codimension_regular_sequence_of_variables():
    ideal = MonomialIdeal(Monomial.variable(i) for i in (1, 3, 5))
    assert codimension(ideal) == 3


def test_complementary_ideal():
    all2 = _all_monomials(3, 2, squarefree=True)
    ideal = MonomialIdeal(m for m in all2 if m != parse_monomial("x[1] * x[2]"))
    assert complementary_ideal(ideal, 2, 3) == plain("x[1] * x[2]")
    full = MonomialIdeal(_all_monomials(4, 3, squarefree=True))
    assert complementary_ideal(full, 3, 4).is_zero()
    nonsq = plain("x[1]^2", "x[1] * x[2]", "x[1] * x[3]", "x[2] * x[3]")
    assert complementary_ideal(nonsq, 2, 3, squarefree=False) == plain("x[2]^2", "x[3]^2")
    with pytest.raises(NotEquigenerated):
        complementary_ideal(plain("x[1]", "x[2] * x[3]"), 2, 3)


def test_complementary_involution():
    ideal = plain("x[1] * x[2]", "x[3] * x[4]", "x[1] * x[4]")
    assert complementary_ideal(complementary_ideal(ideal, 2, 4), 2, 4) == ideal


def test_alexander_dual_worked_example():
    ideal = plain(
        "x[1] * x[2]", "x[1] * x[3]", "x[2] * x[3]",
        "x[1] * x[4]", "x[2] * x[4]", "x[3] * x[4]",
    )
    assert alexander_dual(ideal) == plain(
        "x[1] * x[2] * x[3]", "x[1] * x[2] * x[4]",
        "x[1] * x[3] * x[4]", "x[2] * x[3] * x[4]",
    )
    principal = plain("x[1]")
    assert alexander_dual(principal) == principal
    with pytest.raises(NotSquarefree):
        alexander_dual(plain("x[1]^2"))


def test_alexander_dual_involution_small():
    ideal = plain("x[1] * x[2]", "x[2] * x[3]")
    assert alexander_dual(alexander_dual(ideal)) == ideal
    # exhaustive over squarefree equigenerated ideals in <= 5 variables
    for n_vars, d in [(4, 2), (5, 2), (5, 3)]:
        pool = _all_monomials(n_vars, d, squarefree=True)
        for r in (1, 2, 3):
            for gens in combinations(pool, r):
                ideal = MonomialIdeal(gens)
                if len(ideal.gens) != r:
                    continue  # not a minimal system, skip
                assert alexander_dual(alexander_dual(ideal)) == ideal


def ref_alexander_dual(ideal):
    """The Berge procedure on frozensets, with an all-pairs minimality pass
    after every generator."""
    transversals = {frozenset()}
    for g in ideal.gens:
        supp = g.support
        nxt = set()
        for t in transversals:
            if t & supp:
                nxt.add(t)
            else:
                for v in supp:
                    nxt.add(t | {v})
        transversals = {t for t in nxt if not any(s < t for s in nxt)}
    return MonomialIdeal(Monomial({v: 1 for v in t}) for t in transversals)


def _random_hypergraph(rng, variables):
    edges = []
    for _ in range(rng.randint(0, 9)):
        edges.append(Monomial({v: 1 for v in rng.sample(variables, rng.randint(1, 4))}))
    return MonomialIdeal(edges)


@pytest.mark.parametrize("ring", ["grid", "plain"])
def test_bitmask_alexander_dual_matches_the_frozenset_berge(ring):
    rng = random.Random(f"alexander dual {ring}")
    if ring == "grid":
        variables = [(i, j) for i in range(1, 4) for j in range(1, 6)]
    else:
        variables = list(range(1, 11))
    ideals = [MonomialIdeal(), MonomialIdeal([Monomial.one()])]
    ideals += [_random_hypergraph(rng, variables) for _ in range(400)]
    for ideal in ideals:
        assert alexander_dual(ideal) == ref_alexander_dual(ideal)


# -- minimal generators on the exponent code ------------------------------------


def ref_minimalize(gens):
    """The pairwise minimalization that the exponent code replaced: the
    distinct generators by degree and sort_key, each kept unless a kept one
    divides it (``Monomial.divides``)."""
    pool = set(gens)
    check_one_ring(pool)
    out = []
    for g in sorted(pool, key=lambda g: (g.degree, g.sort_key())):
        if not any(h.divides(g) for h in out):
            out.append(g)
    return tuple(out)


def _random_monomial(rng, variables, top):
    support = rng.sample(variables, rng.randint(0, min(4, len(variables))))
    return Monomial({v: rng.randint(1, top) for v in support})


@pytest.mark.parametrize(
    "ring,top",
    [("grid", 1), ("grid", 3), ("wide grid", 1), ("wide grid", 3), ("plain", 1), ("plain", 4)],
)
def test_minimalize_matches_the_pairwise_reference(ring, top):
    # "wide grid" reaches past the 16 x 16 stride of the masks, so some of
    # its squarefree monomials take the unmasked path of the code.
    rng = random.Random(f"minimalize {ring} {top}")
    if ring == "plain":
        variables = list(range(1, 9))
    else:
        span = range(1, 4) if ring == "grid" else (1, 2, 16, 17)
        variables = [(i, j) for i in span for j in span]
    for _ in range(300):
        gens = [_random_monomial(rng, variables, top) for _ in range(rng.randint(0, 12))]
        gens += rng.sample(gens, min(len(gens), 2))  # duplicates
        want = ref_minimalize(gens)
        assert _minimalize(gens) == want
        assert MonomialIdeal(g for g in gens).gens == want  # a generator expression


@settings(max_examples=300, deadline=None)
@given(st.lists(small_monomials, max_size=10))
def test_minimalize_matches_the_reference_on_small_ideals(gens):
    assert _minimalize(gens) == ref_minimalize(gens)
    assert _minimalize(iter(gens + gens)) == ref_minimalize(gens)


def test_minimalize_keeps_the_unit_alone_and_the_zero_ideal_empty():
    x, y = Monomial.variable(1), Monomial.variable(2)
    assert _minimalize([x, Monomial.one(), Monomial({2: 2}), Monomial.one()]) == (Monomial.one(),)
    assert _minimalize([]) == ()
    assert _minimalize(m for m in [y, x, y]) == (x, y)


def test_minimalize_matches_the_reference_on_certificate_ideals():
    """The ideals that the polarization certificate builds, before they are
    minimalized: rainbow DFIs, their colon ideals, duals and specializations."""
    rng = random.Random("certificate ideals")
    for n, m in [(2, 4), (2, 5), (3, 5), (3, 6), (4, 7)]:
        for _ in range(4):
            order = random_term_order(n, m, rng)
            delta = alexander_dual_complex(random_overlap_dual(n, m, rng, max_facets=3))
            raw = [initial_minor(order, f) for f in delta.facets]
            assert _minimalize(raw) == ref_minimalize(raw)
            rain = MonomialIdeal(raw)
            for g in raw[:3]:
                quotients = [h / h.gcd(g) for h in rain.gens]
                assert _minimalize(quotients) == ref_minimalize(quotients)
            if rain.is_squarefree() and not rain.is_zero():
                dual = alexander_dual(rain)
                rows = [Monomial({i: 1 for (i, _), _ in g.exps}) for g in dual.gens]
                rows += list(specialize(dual).gens)
                assert _minimalize(rows) == ref_minimalize(rows)


def test_an_ideal_past_the_code_width_cap_is_refused():
    for v in (1, (1, 1)):
        at_cap = Monomial({v: MAX_CODE_BITS})
        assert MonomialIdeal([at_cap, at_cap]).gens == (at_cap,)
        with pytest.raises(SizeCap, match=f"add up to {MAX_CODE_BITS + 1}; .* capped at"):
            MonomialIdeal([Monomial({v: MAX_CODE_BITS + 1})])
    half = MAX_CODE_BITS // 2
    with pytest.raises(SizeCap):
        MonomialIdeal([Monomial({1: half, 2: half}), Monomial({3: 1})])


def brute_codimension(ideal):
    """The fewest variables that meet every generator's support, by trying
    every set of variables in order of size."""
    variables = sorted(ideal.support)
    for k in range(len(variables) + 1):
        for cover in combinations(variables, k):
            if all(g.support & set(cover) for g in ideal.gens):
                return k
    raise AssertionError("the support covers every generator")


def test_codimension_matches_the_minimum_cover_when_supports_nest():
    # A minimal non-squarefree generating set can hold x^2 beside x*y, whose
    # support contains that of x^2: the search must stay exact on it.
    rng = random.Random("codimension with nested supports")
    nested = 0
    for _ in range(400):
        gens = [_random_monomial(rng, list(range(1, 8)), 3) for _ in range(rng.randint(1, 7))]
        for g in list(gens):
            if g.exps and rng.random() < 0.5:  # a multiple of a variable of g, times more
                (v, e), other = rng.choice(g.exps), rng.randint(1, 7)
                gens.append(Monomial({v: max(1, e - 1), other: 1}))
        ideal = MonomialIdeal(g for g in gens if not g.is_one())
        supports = [g.support for g in ideal.gens]
        nested += any(s < t for s in supports for t in supports)
        assert codimension(ideal) == brute_codimension(ideal)
    assert nested >= 100
