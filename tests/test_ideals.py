import random
from itertools import combinations

import pytest

from rainbowcw import (
    Monomial,
    MonomialIdeal,
    alexander_dual,
    codimension,
    colon,
    complementary_ideal,
    parse_monomial,
    rainbow_dfi,
)
from rainbowcw.errors import NotEquigenerated, NotSquarefree, UnitIdeal
from rainbowcw.ideals import _all_monomials


def plain(*specs):
    return MonomialIdeal(parse_monomial(s) for s in specs)


def test_minimalization():
    ideal = plain("x[1] * x[2]", "x[1] * x[2] * x[3]", "x[1] * x[2]")
    assert len(ideal) == 1
    assert parse_monomial("x[1] * x[2] * x[3]") in ideal


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
    for q in colon(ideal, g):
        assert q * g in ideal


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
                if len(ideal) != r:
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
