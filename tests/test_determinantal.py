import random
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from rainbowcw import (
    Monomial,
    PureComplex,
    alexander_dual_complex,
    diagonal_order,
    initial_ideal_maximal_minors,
    initial_minor,
    overlap_condition,
    parse_monomial,
    rainbow_dfi,
    random_term_order,
)
from rainbowcw.determinantal import initial_term
from rainbowcw.termorders import TermOrder, random_weights
from tests.conftest import LEFT_VERTEX_LABELS, RIGHT_VERTEX_LABELS


def test_minor_terms():
    # the reference expansion that initial terms are checked against
    terms = _ref_minor_terms(2, (1, 2))
    assert set(terms) == {
        (1, parse_monomial("x[1,1] * x[2,2]")),
        (-1, parse_monomial("x[1,2] * x[2,1]")),
    }
    assert _ref_minor_terms(1, (3,))[0][1] == Monomial.variable((1, 3))
    terms = _ref_minor_terms(3, (1, 2, 3))
    assert len(terms) == 6
    assert sum(sign for sign, _ in terms) == 0


def test_initial_minor():
    o = diagonal_order(2, 3)
    assert initial_minor(o, (1, 3)) == parse_monomial("x[1,1] * x[2,3]")
    o3 = diagonal_order(3, 5)
    assert initial_minor(o3, (1, 2, 3)) == parse_monomial("x[1,1] * x[2,2] * x[3,3]")
    assert initial_minor(diagonal_order(1, 4), (2,)) == Monomial.variable((1, 2))


def test_initial_term_signs():
    # the antidiagonal of a 2x2 minor carries a minus sign
    from rainbowcw import weight_order

    anti = weight_order(2, 2, [(0, 1), (0, 0)])
    term = initial_term(anti, (1, 2))
    assert term.monomial == parse_monomial("x[1,2] * x[2,1]")
    assert term.sign == -1


def test_initial_ideal_generators(order24_left, order24_right):
    from rainbowcw import MonomialIdeal

    assert initial_ideal_maximal_minors(diagonal_order(2, 3)) == MonomialIdeal(
        parse_monomial(s)
        for s in ("x[1,1] * x[2,2]", "x[1,1] * x[2,3]", "x[1,2] * x[2,3]")
    )

    diag24 = initial_ideal_maximal_minors(diagonal_order(2, 4))
    expected = {
        Monomial({(1, a): 1, (2, b): 1}) for a, b in combinations(range(1, 5), 2)
    }
    assert set(diag24.gens) == expected

    left = initial_ideal_maximal_minors(order24_left)
    right = initial_ideal_maximal_minors(order24_right)
    assert {str(g) for g in left.gens} == LEFT_VERTEX_LABELS
    assert {str(g) for g in right.gens} == RIGHT_VERTEX_LABELS


def test_generator_count_and_rainbow_shape():
    rng = random.Random(9)
    for n, m in [(2, 4), (2, 5), (3, 5)]:
        for _ in range(5):
            order = random_term_order(n, m, rng)
            ideal = initial_ideal_maximal_minors(order)
            assert len(ideal.gens) == len(list(combinations(range(m), n)))
            for g in ideal.gens:
                rows = sorted(i for (i, _), _ in g.exps)
                assert rows == list(range(1, n + 1))


def test_alexander_dual_complex(dual35):
    delta = alexander_dual_complex(dual35)
    assert len(delta) == 8
    full = alexander_dual_complex(PureComplex(3, 5, []))
    assert len(full) == 10
    assert alexander_dual_complex(full) == PureComplex(3, 5, [])
    assert alexander_dual_complex(alexander_dual_complex(delta)) == delta


def test_rainbow_dfi(order35, delta35):
    rain = rainbow_dfi(delta35, order35)
    assert len(rain.gens) == 8
    full = rainbow_dfi(alexander_dual_complex(PureComplex(3, 5, [])), order35)
    assert full == initial_ideal_maximal_minors(order35)
    assert rainbow_dfi(PureComplex(3, 5, []), order35).is_zero()


@pytest.mark.parametrize("m", [3, 4, 5])
def test_partition_identity_exhaustive_2xm(m):
    order = diagonal_order(2, m)
    everything = set(initial_ideal_maximal_minors(order).gens)
    subsets = list(combinations(range(1, m + 1), 2))
    for r in range(len(subsets) + 1):
        for chosen in combinations(subsets, r):
            delta = PureComplex(2, m, chosen)
            dual = alexander_dual_complex(delta)
            a = set(rainbow_dfi(delta, order).gens)
            b = set(rainbow_dfi(dual, order).gens)
            assert a | b == everything and not (a & b)


def test_partition_identity_randomized():
    rng = random.Random(21)
    for n, m in [(3, 5), (3, 6)]:
        for _ in range(10):
            order = random_term_order(n, m, rng)
            everything = set(initial_ideal_maximal_minors(order).gens)
            pool = list(combinations(range(1, m + 1), n))
            facets = rng.sample(pool, rng.randint(0, len(pool)))
            delta = PureComplex(n, m, facets)
            dual = alexander_dual_complex(delta)
            a = set(rainbow_dfi(delta, order).gens)
            b = set(rainbow_dfi(dual, order).gens)
            assert a | b == everything and not (a & b)


def test_overlap_condition():
    assert overlap_condition(PureComplex(3, 5, [(1, 2, 3), (3, 4, 5)]))
    assert not overlap_condition(PureComplex(3, 5, [(1, 2, 3), (1, 2, 4)]))
    assert overlap_condition(PureComplex(3, 5, [(1, 2, 3)]))


def test_pure_complex_validation():
    with pytest.raises(ValueError):
        PureComplex(3, 5, [(1, 2)])
    with pytest.raises(ValueError):
        PureComplex(3, 5, [(1, 2, 6)])


# -- the weight scorer against the n!-term compare loop it replaced -------------


def _ref_parity(perm):
    inversions = sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm)) if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def _ref_minor_terms(n, cols):
    cols = tuple(sorted(cols))
    return [
        (_ref_parity(perm), Monomial({(i + 1, cols[perm[i]]): 1 for i in range(n)}))
        for perm in permutations(range(n))
    ]


def ref_initial_term(order, cols):
    """Every term of the minor, compared pairwise with ``order.compare``."""
    terms = _ref_minor_terms(order.n, cols)
    best = terms[0]
    for t in terms[1:]:
        if order.compare(t[1], best[1]) > 0:
            best = t
    return best


def _ref_random_term_order(n, m, rng, max_weight=10_000):
    while True:
        order = random_weights(n, m, rng, max_weight)
        ok = True
        for cols in combinations(range(1, m + 1), n):
            weights = [order.weight(mono) for _, mono in _ref_minor_terms(n, cols)]
            if weights.count(max(weights)) > 1:
                ok = False
                break
        if ok:
            return order


@st.composite
def term_orders(draw, max_n=4, max_m=7):
    """Orders up to max_n x max_m; weights all zero, tie-heavy (0..1, 0..2,
    -2..2), generic (0..10^4), or as large as TermOrder.from_json accepts
    (up to 10^12 in absolute value, all negative or of both signs), so that
    an argmax over weights has no floor or bound to lean on."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(n, max_m))
    low, top = draw(st.sampled_from(
        [(0, 0), (0, 1), (0, 2), (-2, 2), (0, 10_000), (-10**12, 0), (-10**12, 10**12)]))
    return TermOrder(n, m, tuple(
        tuple(draw(st.integers(low, top)) for _ in range(m)) for _ in range(n)))


def seeded_order(n, m, top):
    rng = random.Random(f"{n}x{m} {top}")
    return TermOrder(n, m, tuple(tuple(rng.randint(0, top) for _ in range(m)) for _ in range(n)))


@settings(max_examples=150, deadline=None)
@given(term_orders())
@example(seeded_order(4, 7, 0))
@example(seeded_order(4, 7, 1))
@example(seeded_order(4, 7, 2))
@example(seeded_order(4, 7, 10_000))
def test_initial_term_matches_the_compare_loop(order):
    for cols in combinations(range(1, order.m + 1), order.n):
        want = ref_initial_term(order, cols)
        got = initial_term(order, cols)
        assert (got.sign, got.monomial.exps) == (want[0], want[1].exps)


@pytest.mark.parametrize("max_weight", [2, 20, 10_000])
def test_random_term_order_draws_match_the_compare_loop(max_weight):
    # With weights 0..2, 6 of 2000 draws at 3x5 and none of 2000 at 4x7 are
    # free of ties, so the rejection loop runs only on two-row sizes there.
    sizes = [(1, 3), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (4, 7)]
    for seed in range(3):
        rng, ref = random.Random(seed), random.Random(seed)
        for n, m in sizes if max_weight > 2 else sizes[:3]:
            assert random_term_order(n, m, rng, max_weight) == _ref_random_term_order(
                n, m, ref, max_weight)


def test_initial_term_rejects_a_wrong_column_count():
    with pytest.raises(ValueError):
        initial_term(diagonal_order(3, 5), (1, 2))
