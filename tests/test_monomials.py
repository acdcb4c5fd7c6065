import tracemalloc
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, strategies as st

from rainbowcw import (
    Monomial, MonomialIdeal, diagonal_order, format_monomial, koszul_betti, parse_monomial,
)
from rainbowcw.errors import ParseError, SizeCap
from rainbowcw.complexes import lcm_closure, taylor_complex
from rainbowcw.monomials import MAX_CODE_BITS, STRIDE, code, exponent_steps, lcm_of
from rainbowcw.termorders import EQ, GT, LT, TermOrder


def grid_monomials(n=2, m=3, max_exp=3):
    exps = st.dictionaries(
        st.tuples(st.integers(1, n), st.integers(1, m)),
        st.integers(0, max_exp),
        max_size=n * m,
    )
    return exps.map(Monomial)


def test_roundtrip_text():
    m = parse_monomial("x[1,2]^2 * x[2,3]")
    assert dict(m.exps)[(1, 2)] == 2 and dict(m.exps)[(2, 3)] == 1
    assert parse_monomial(format_monomial(m)) == m
    assert parse_monomial("1").is_one()
    assert parse_monomial("x[3]^2") == Monomial({3: 2})


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_monomial("y[1,2]")
    with pytest.raises(ParseError):
        parse_monomial("x[1,2] +")


def test_division_and_lcm():
    a = parse_monomial("x[1,1] * x[2,2]")
    b = parse_monomial("x[1,1] * x[2,3]")
    assert a.lcm(b) == parse_monomial("x[1,1] * x[2,2] * x[2,3]")
    assert a.lcm(a) == a
    assert parse_monomial("x[1,2] * x[2,3]").lcm(b) == parse_monomial("x[1,1] * x[1,2] * x[2,3]")
    assert _mul(a, b) / a == b
    with pytest.raises(ValueError):
        a / b
    assert a.gcd(b) == Monomial.variable((1, 1))


def test_compare_examples():
    o = diagonal_order(2, 3)
    # the two terms of the minor on columns {1, 2}
    assert o.compare(parse_monomial("x[1,1] * x[2,2]"), parse_monomial("x[1,2] * x[2,1]")) == GT
    a = parse_monomial("x[1,1] * x[2,3]")
    assert o.compare(a, a) == EQ
    assert o.compare(parse_monomial("x[1,1] * x[2,3]"), parse_monomial("x[1,2] * x[2,3]")) == GT


@given(grid_monomials(), grid_monomials())
def test_compare_total(a, b):
    o = diagonal_order(2, 3)
    c = o.compare(a, b)
    assert c in (LT, EQ, GT)
    assert (c == EQ) == (a == b)
    assert o.compare(b, a) == -c


@given(grid_monomials(), grid_monomials(), grid_monomials())
def test_compare_multiplicative(a, b, w):
    o = diagonal_order(2, 3)
    assert o.compare(a, b) == o.compare(_mul(a, w), _mul(b, w))


@given(grid_monomials(), grid_monomials())
def test_lcm_gcd_are_bounds(a, b):
    l, g = a.lcm(b), a.gcd(b)
    assert a.divides(l) and b.divides(l)
    assert g.divides(a) and g.divides(b)
    assert l.degree + g.degree == a.degree + b.degree


# -- the squarefree bit masks against an exponent-tuple reference ---------------

# Rows and columns on both sides of the mask stride, so monomials with and
# without a mask meet in every operation.
_ROWS = [1, 2, 3, STRIDE, STRIDE + 1]
_COLS = [1, 2, 5, STRIDE, STRIDE + 1]


def _monomials(variables, exponents):
    return st.dictionaries(variables, exponents, max_size=6).map(Monomial)


_grid_vars = st.tuples(st.sampled_from(_ROWS), st.sampled_from(_COLS))
plain_monomials = _monomials(st.integers(1, 6), st.integers(0, 2))  # plain-int variables
any_monomials = st.one_of(
    _monomials(_grid_vars, st.just(1)),  # squarefree grid: masked unless past the stride
    _monomials(_grid_vars, st.integers(0, 3)),
    plain_monomials,
)
grid_monomials_both = st.one_of(
    _monomials(_grid_vars, st.just(1)), _monomials(_grid_vars, st.integers(0, 3))
)


@st.composite
def _coprime_squarefree(draw):
    """Two squarefree grid monomials with disjoint supports, split from one."""
    whole = draw(_monomials(_grid_vars, st.just(1)))
    left = draw(st.lists(st.booleans(), min_size=len(whole.exps), max_size=len(whole.exps)))
    return (Monomial([t for t, l in zip(whole.exps, left) if l]),
            Monomial([t for t, l in zip(whole.exps, left) if not l]))


# Squarefree grid monomials on six variables: two of them mostly overlap.
_crowded_squarefree = _monomials(st.tuples(st.integers(1, 2), st.integers(1, 3)), st.just(1))


def _ref_mul(a, b):
    out = dict(a.exps)
    for v, e in b.exps:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


def _mul(a, b):
    """The product of two monomials."""
    return Monomial(_ref_mul(a, b))


def _ref_divides(a, b):
    other = dict(b.exps)
    return all(other.get(v, 0) >= e for v, e in a.exps)


def _ref_lcm(a, b):
    out = dict(a.exps)
    for v, e in b.exps:
        out[v] = max(out.get(v, 0), e)
    return tuple(sorted(out.items()))


def _ref_mask(exps):
    if any(e != 1 or not isinstance(v, tuple) for v, e in exps):
        return -1
    if any(not (1 <= i <= STRIDE and 1 <= j <= STRIDE) for (i, j), _ in exps):
        return -1
    return sum(1 << (i - 1) * STRIDE + j - 1 for (i, j), _ in exps)


@given(any_monomials)
def test_mask_degree_and_squarefree_match_the_exponents(a):
    assert a.mask == _ref_mask(a.exps)
    assert a.degree == sum(e for _, e in a.exps)
    assert a.is_squarefree() == all(e == 1 for _, e in a.exps)


def ref_format_monomial(m):
    """The formatter before its name table: one f-string per variable."""
    if m.is_one():
        return "1"
    parts = []
    for v, e in m.exps:
        name = f"x[{v[0]},{v[1]}]" if isinstance(v, tuple) else f"x[{v}]"
        parts.append(name if e == 1 else f"{name}^{e}")
    return " * ".join(parts)


@given(st.one_of(any_monomials, st.just(Monomial.one())))
def test_format_monomial_matches_the_reference(a):
    assert format_monomial(a) == ref_format_monomial(a)


def test_every_grid_variable_formats_as_the_reference():
    for i in range(1, STRIDE + 2):
        for j in range(1, STRIDE + 2):
            for e in (1, 2):
                a = Monomial({(i, j): e})
                assert format_monomial(a) == ref_format_monomial(a)


@given(st.one_of(st.tuples(grid_monomials_both, grid_monomials_both),
                 _coprime_squarefree(),
                 st.tuples(_crowded_squarefree, _crowded_squarefree),
                 st.tuples(plain_monomials, plain_monomials),
                 st.tuples(any_monomials, st.just(Monomial.one())),
                 st.tuples(st.just(Monomial.one()), any_monomials)))
def test_divides_lcm_eq_hash_match_the_exponent_reference(pair):
    a, b = pair
    for x, y in ((a, b), (b, a)):
        product = _mul(x, y)
        rebuilt = Monomial(dict(reversed(_ref_mul(x, y))))
        assert product.exps == rebuilt.exps and hash(product) == hash(rebuilt)
        assert product == rebuilt and product.mask == _ref_mask(rebuilt.exps)
    assert a.divides(b) == _ref_divides(a, b)
    assert b.divides(a) == _ref_divides(b, a)
    lcm = a.lcm(b)
    _assert_codes_decide_divisibility([a, b, Monomial.one(), a.gcd(b), lcm])
    assert lcm.exps == _ref_lcm(a, b)
    rebuilt = Monomial(dict(reversed(lcm.exps)))
    assert lcm == rebuilt and hash(lcm) == hash(rebuilt) and lcm.mask == rebuilt.mask
    assert lcm.degree == sum(e for _, e in lcm.exps)
    assert (a == b) == (a.exps == b.exps)
    if a.exps == b.exps:
        assert hash(a) == hash(b)


def _assert_codes_decide_divisibility(members):
    """Over the exponent code of ``members``: divides iff the codes nest,
    the code of an lcm is the OR, the degree is the bit count, a masked
    monomial's code is its mask, and exponents above the steps are capped."""
    steps = exponent_steps(members)
    codes = [code(m, steps) for m in members]
    for x, cx in zip(members, codes):
        assert cx.bit_count() == x.degree
        if x.mask >= 0:
            assert cx == x.mask
        for y, cy in zip(members, codes):
            assert (not cx & ~cy) == _ref_divides(x, y)
            assert code(x.lcm(y), steps) == cx | cy
    top = lcm_of(members)
    assert code(_mul(top, top), steps) == code(top, steps) == reduce(or_, codes, 0)


def test_codes_cap_exponents_and_leave_out_other_variables():
    steps = exponent_steps([parse_monomial("x[1]^2 * x[2]"), parse_monomial("x[3]")])
    top = code(parse_monomial("x[1]^2 * x[2] * x[3]"), steps)
    assert top == (1 << STRIDE * STRIDE + 4) - (1 << STRIDE * STRIDE)
    assert code(parse_monomial("x[1]^7 * x[2]^3 * x[3] * x[4]^2"), steps) == top
    assert code(parse_monomial("x[4] * x[5]^3"), steps) == 0
    # a grid variable's first step is its mask bit; further steps lie above
    # every mask bit
    steps = exponent_steps([parse_monomial("x[1,2]^3"), parse_monomial("x[2,1]")])
    x12, x21 = parse_monomial("x[1,2]"), parse_monomial("x[2,1]")
    assert code(x12, steps) == x12.mask and code(x21, steps) == x21.mask
    # a variable of masked members only has one step, its mask bit
    assert code(parse_monomial("x[2,1]^2"), steps) == x21.mask
    squared = code(parse_monomial("x[1,2]^2"), steps)
    assert squared & x12.mask and (squared ^ x12.mask) >> STRIDE * STRIDE == 1


def test_exponent_steps_take_memory_linear_in_the_exponents():
    # One code per power of x[1] would be 40,000 ints of up to 40,000 bits
    # each, about 100 MB; a run of step bits per variable is a few ints.
    big, cube = parse_monomial("x[1]^40000"), parse_monomial("x[2]^3")
    tracemalloc.start()
    try:
        steps = exponent_steps([big])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert code(big, steps).bit_count() == 40000
    # the Koszul table of a complete intersection
    assert koszul_betti(MonomialIdeal([big, cube])).entries == {
        (0, Monomial.one()): 1, (1, big): 1, (1, cube): 1, (2, _mul(big, cube)): 1,
    }


# x[1]^99999999999 once ended in a MemoryError from building its code,
# a 12.5 GB int, inside lcm_closure.
@pytest.mark.parametrize(
    "gens",
    [["x[1]^99999999999"], ["x[1]^99999999999", "x[2]"],
     [f"x[{i}]^60000" for i in range(1, 19)]],
)
def test_a_code_past_the_width_cap_is_refused_before_it_is_built(gens):
    gens = [parse_monomial(g) for g in gens]
    message = f"capped at {MAX_CODE_BITS} bits"
    with pytest.raises(SizeCap, match=message):
        exponent_steps(gens)
    with pytest.raises(SizeCap, match=message):
        lcm_closure(gens)
    with pytest.raises(SizeCap, match=message):
        koszul_betti(MonomialIdeal(gens))
    if len(gens) <= 2:
        with pytest.raises(SizeCap, match=message):
            taylor_complex(gens).is_resolution(2)


def test_the_width_cap_counts_the_largest_exponent_of_each_variable():
    half = MAX_CODE_BITS // 2
    at_cap = [parse_monomial(f"x[1]^{half}"), parse_monomial(f"x[1]^{half - 1} * x[2]^{half}")]
    exponent_steps(at_cap)
    with pytest.raises(SizeCap):
        exponent_steps(at_cap + [parse_monomial("x[3]")])
    # a masked grid monomial takes no further steps
    exponent_steps(at_cap + [parse_monomial("x[1,1] * x[2,2]")])


def _ref_key(order, mono):
    """The order's key from its definition: weight, then the dense row-major
    exponent vector, larger on an earlier variable winning."""
    dense = [0] * (order.n * order.m)
    weight = 0
    for (i, j), e in mono.exps:
        dense[(i - 1) * order.m + j - 1] = e
        weight += order.weights[i - 1][j - 1] * e
    return (weight, tuple(dense))


@st.composite
def orders_and_monomials(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([2, 4, STRIDE, STRIDE + 2]))
    top = draw(st.sampled_from([0, 2, 50]))  # small weights force lex tiebreaks
    weights = tuple(tuple(draw(st.integers(0, top)) for _ in range(m)) for _ in range(n))
    variables = st.tuples(st.integers(1, n), st.integers(1, m))
    monos = st.one_of(_monomials(variables, st.just(1)), _monomials(variables, st.integers(0, 3)))
    return TermOrder(n, m, weights), draw(st.lists(monos, min_size=2, max_size=8))


@given(orders_and_monomials())
def test_term_order_matches_the_dense_reference(case):
    order, monos = case
    for a in monos:
        assert order.weight(a) == _ref_key(order, a)[0]
        for b in monos:
            ka, kb = _ref_key(order, a), _ref_key(order, b)
            want = GT if ka > kb else LT if ka < kb else EQ
            assert order.compare(a, b) == want
            assert (order.sort_key(a) < order.sort_key(b)) == (ka < kb)
    assert [m.exps for m in sorted(monos, key=order.sort_key)] == [
        m.exps for m in sorted(monos, key=lambda m: _ref_key(order, m))
    ]


_masked_monomials = _monomials(
    st.tuples(st.sampled_from(_ROWS[:-1]), st.sampled_from(_COLS[:-1])), st.just(1)
)
# Generators of one ring: masked, past the stride, non-squarefree, or plain.
_one_ring_generators = st.one_of(
    st.lists(_masked_monomials, min_size=2, max_size=6),
    st.lists(grid_monomials_both, min_size=2, max_size=6),
    st.lists(plain_monomials, min_size=2, max_size=6),
)


@given(_one_ring_generators, st.one_of(st.none(), st.integers(1, 8)))
def test_lcm_closure_is_the_set_of_subset_lcms(gens, cap):
    gens = [g for g in set(gens) if not g.is_one() and (cap is None or g.degree <= cap)]
    closed = lcm_closure(gens, cap)
    want = set()
    for k in range(1, len(gens) + 1):
        for subset in combinations(gens, k):
            lcm = lcm_of(subset)
            if cap is None or lcm.degree <= cap:
                want.add(lcm.exps)
    assert sorted(m.exps for m in closed) == sorted(want)
    assert [m.exps for m in closed] == [
        m.exps for m in sorted(closed, key=lambda m: (m.degree, m.exps))
    ]
    assert all(m.mask == _ref_mask(m.exps) for m in closed)
