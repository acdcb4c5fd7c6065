"""Differential and property tests for the Hilbert engine.

``hilbert_profile`` identifies variables and runs a truncated Hilbert-series
recursion on monomial ideals.  The reference below is the engine it replaced:
in each degree, the span of {u * f : f generator, u monomial} is reduced
against the whole monomial basis as a union-find, where a monomial row kills
its class and a difference row merges two classes.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcw import (
    alexander_dual,
    alexander_dual_complex,
    hilbert_profile,
    rainbow_dfi,
    random_term_order,
)
from rainbowcw.errors import NotHomogeneous, SizeCap
from rainbowcw.monomials import MAX_CODE_BITS, Monomial, minimal, parse_monomial
from rainbowcw.polarization import (
    MAX_HILBERT_DEPTH,
    _colon,
    linearity_criterion,
    regular_profile_ok,
    row_differences,
)
from tests.conftest import boocher_sequence, random_overlap_dual


def exponent_vectors(n_vars, degree):
    if n_vars == 0:
        return [()] if degree == 0 else []
    out = []
    for bars in combinations(range(degree + n_vars - 1), n_vars - 1):
        prev, exps = -1, []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(degree + n_vars - 2 - prev)
        out.append(tuple(exps))
    return out


def reference_profile(gens, sigma, max_degree, variables):
    var_index = {v: k for k, v in enumerate(variables)}
    nv = len(variables)

    def as_tuple(m):
        exps = [0] * nv
        for v, e in m.exps:
            exps[var_index[v]] = e
        return tuple(exps)

    profiles = [[0] * (max_degree + 1) for _ in range(len(sigma) + 1)]
    for d in range(max_degree + 1):
        basis = exponent_vectors(nv, d)
        index = {t: k for k, t in enumerate(basis)}
        parent = list(range(len(basis)))
        killed = [False] * len(basis)

        def find(a):
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            return a

        def apply(g):
            if isinstance(g, Monomial):
                t = as_tuple(g)
                if g.degree <= d:
                    for u in exponent_vectors(nv, d - g.degree):
                        killed[find(index[tuple(x + y for x, y in zip(u, t))])] = True
            else:
                a, b = g
                ta, tb = as_tuple(a), as_tuple(b)
                if a.degree <= d:
                    for u in exponent_vectors(nv, d - a.degree):
                        ra = find(index[tuple(x + y for x, y in zip(u, ta))])
                        rb = find(index[tuple(x + y for x, y in zip(u, tb))])
                        if ra != rb:
                            parent[ra] = rb
                            killed[rb] = killed[rb] or killed[ra]

        def live():
            return sum(1 for r in {find(k) for k in range(len(basis))} if not killed[r])

        for g in gens:
            apply(g)
        profiles[0][d] = live()
        for k, step in enumerate(sigma, start=1):
            apply(step)
            profiles[k][d] = live()
    return profiles


def assert_every_truncation_agrees(gens, sigma, top, variables):
    """The engine at each max_degree 0..top against the reference at top."""
    want = reference_profile(gens, sigma, top, variables)
    for d in range(top + 1):
        assert hilbert_profile(gens, sigma, d, variables) == [row[: d + 1] for row in want]


# -- seeded rainbow DFIs -----------------------------------------------------------

SIZES = [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6), (4, 6), (4, 7)]


def seeded_cases(n, m, seed):
    """Two linear and two nonlinear rainbow DFIs of size n x m, when the seed
    finds them within the tries."""
    rng = random.Random(seed)
    found = {True: [], False: []}
    for _ in range(60):
        order = random_term_order(n, m, rng)
        dual = random_overlap_dual(n, m, rng, max_facets=3)
        delta = alexander_dual_complex(dual)
        rain = rainbow_dfi(delta, order)
        if rain.is_zero():
            continue
        kind = found[linearity_criterion(delta, order)]
        if len(kind) < 2:
            kind.append(rain)
        if all(len(v) == 2 for v in found.values()):
            break
    return found[True] + found[False]


@pytest.mark.parametrize("n,m", SIZES)
def test_polarization_profiles_match_reference(n, m):
    """The dual ideal and the row differences that certify_polarization
    checks, on linear and nonlinear rainbow DFIs."""
    cases = seeded_cases(n, m, seed=100 * n + m)
    assert len(cases) == 4
    for rain in cases:
        dual = alexander_dual(rain)
        if dual.is_zero() or dual.is_unit():
            continue
        variables, sigma = row_differences(dual)
        assert_every_truncation_agrees(list(dual.gens), sigma, m - n + 3, variables)


@pytest.mark.parametrize("n,m", [(2, 4), (2, 5), (3, 4), (3, 5)])
def test_boocher_profiles_match_reference(n, m):
    """The column differences of the Boocher sequence on the rainbow DFI
    itself, over every variable of the grid."""
    variables = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    cases = seeded_cases(n, m, seed=7 * n + m)
    assert len(cases) == 4
    for rain in cases:
        assert_every_truncation_agrees(
            list(rain.gens), boocher_sequence(n, m), m - n + 3, variables
        )


def test_worked_example_profile(delta35, order35):
    """The worked 3x5 dual: each row difference drops the Hilbert function
    by (1 - t), down to the specialized Artinian quotient."""
    dual = alexander_dual(rainbow_dfi(delta35, order35))
    variables, sigma = row_differences(dual)
    profiles = hilbert_profile(list(dual.gens), sigma, 4, variables)
    assert profiles == reference_profile(list(dual.gens), sigma, 4, variables)
    assert regular_profile_ok(profiles)
    assert profiles[-1] == [1, 3, 4, 0, 0]


# -- small random ideals ------------------------------------------------------------

N_VARS = 5
VARIABLES = list(range(1, N_VARS + 1))

small_monomials = st.lists(
    st.integers(min_value=0, max_value=3), min_size=N_VARS, max_size=N_VARS
).map(lambda exps: Monomial({v: e for v, e in zip(VARIABLES, exps)}))
small_variables = st.sampled_from(VARIABLES).map(Monomial.variable)
small_pairs = st.tuples(small_variables, small_variables)


@st.composite
def sigmas(draw):
    """Variable pairs, self-pairs (x, x), repeats of earlier steps, and
    monomial steps, in any order."""
    steps = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["pair", "self", "repeat", "monomial"]))
        if kind == "pair":
            steps.append(draw(small_pairs))
        elif kind == "self":
            x = draw(small_variables)
            steps.append((x, x))
        elif kind == "repeat" and steps:
            steps.append(draw(st.sampled_from(steps)))
        else:
            steps.append(draw(small_monomials))
    return steps


@settings(max_examples=300, deadline=None)
@given(
    gens=st.lists(st.one_of(small_monomials, small_pairs), max_size=6),
    sigma=sigmas(),
    top=st.integers(min_value=0, max_value=6),
)
def test_small_ideals_match_reference(gens, sigma, top):
    assert hilbert_profile(gens, sigma, top, VARIABLES) == reference_profile(
        gens, sigma, top, VARIABLES
    )


@st.composite
def colon_cases(draw):
    """Minimal sorted staircase codes of at most ``budget`` bits on up to
    four variables with runs of 1..3 bits, a variable and the budget."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    starts = [sum(widths[:k]) for k in range(len(widths))]
    exps = st.tuples(*(st.integers(0, w) for w in widths))
    budget = draw(st.integers(1, sum(widths)))
    codes = [
        sum(((1 << e) - 1) << s for e, s in zip(vector, starts))
        for vector in draw(st.lists(exps, max_size=8))
    ]
    gens = minimal(sorted(c for c in codes if c.bit_count() <= budget))
    v = draw(st.integers(0, len(widths) - 1))
    return gens, 1 << starts[v], ((1 << widths[v]) - 1) << starts[v], budget


@settings(max_examples=300, deadline=None)
@given(colon_cases())
def test_the_colon_step_matches_minimal_on_the_quotient(case):
    gens, pivot, run, budget = case
    quotient = [g ^ (1 << (g & run).bit_length() - 1) if g & pivot else g for g in gens]
    assert _colon(gens, pivot, run, budget) == minimal(
        sorted(g for g in quotient if g.bit_count() < budget)
    )


# -- rejected input -----------------------------------------------------------------------


def test_rejects_bad_input():
    x, y = Monomial.variable(1), Monomial.variable(2)
    with pytest.raises(ValueError, match="max_degree"):
        hilbert_profile([x], [], -1, [1, 2])
    with pytest.raises(NotHomogeneous):
        hilbert_profile([], [(x, parse_monomial("x[2]^2"))], 3, [1, 2])
    square = (parse_monomial("x[1]^2"), parse_monomial("x[1] * x[2]"))
    with pytest.raises(ValueError, match=r"x\[1\]\^2 - x\[1\] \* x\[2\]"):
        hilbert_profile([square], [], 3, [1, 2])
    outside = Monomial.variable(3)
    for gens, sigma in [([outside], []), ([], [outside]), ([(x, outside)], []), ([], [(outside, y)])]:
        with pytest.raises(ValueError, match="outside the ring"):
            hilbert_profile(gens, sigma, 3, [1, 2])


# x[1]^99999999999 once ended in a MemoryError: its run of step bits would
# be a 12.5 GB int.  Each prefix is checked, since a monomial step of sigma
# widens the layout only from its own prefix on.
def test_a_layout_past_the_code_width_cap_is_refused():
    x = Monomial.variable(1)
    huge = Monomial({1: 99999999999})
    message = "the largest exponents add up to 99999999999; .* capped at 1048576 bits"
    with pytest.raises(SizeCap, match=message):
        hilbert_profile([huge], [], 2, [1])
    with pytest.raises(SizeCap, match=message):
        hilbert_profile([x], [huge], 2, [1])
    at_cap = Monomial({1: MAX_CODE_BITS})
    assert hilbert_profile([at_cap], [], 2, [1]) == [[1, 1, 1]]
    half = Monomial({1: MAX_CODE_BITS // 2})
    assert hilbert_profile([half, half], [Monomial({2: MAX_CODE_BITS // 2})], 1, [1, 2]) == [
        [1, 2], [1, 2]
    ]
    with pytest.raises(SizeCap):
        hilbert_profile([at_cap, Monomial.variable(2)], [], 1, [1, 2])


# The recursion goes as deep as #variables + max_degree: this colon chain,
# one level per power of x[1], once ended in a RecursionError at exponent
# 5000.  At the cap it still runs, checked against the count of the
# monomials of each degree d outside (x[1]^a) * (x[2], x[3]).
def test_a_recursion_past_the_depth_cap_is_refused():
    deep = [Monomial({1: 5000, 2: 1}), Monomial({1: 5000, 3: 1})]
    with pytest.raises(SizeCap, match="3 variables and max_degree 5010 add up to more than 512"):
        hilbert_profile(deep, [], 5010, [1, 2, 3])
    top = MAX_HILBERT_DEPTH - 3
    a = top - 4
    chain = [Monomial({1: a, 2: 1}), Monomial({1: a, 3: 1})]
    with pytest.raises(SizeCap):
        hilbert_profile(chain, [], top + 1, [1, 2, 3])
    want = [
        (d + 2) * (d + 1) // 2 - ((d - a + 2) * (d - a + 1) // 2 - 1 if d >= a else 0)
        for d in range(top + 1)
    ]
    assert hilbert_profile(chain, [], top, [1, 2, 3]) == [want]
