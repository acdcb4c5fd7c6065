"""Differential and property tests for the Koszul Betti oracle.

The oracle computes each multidegree strand on the cone-reduced subcomplex
C_v.  The reference below builds the unreduced strand straight from the
definition: every subset S of supp(alpha) with x^alpha / x^S not in I, over
all 2^s masks, with ranks from ``gfp.matrix_rank``.

The oracle keeps its sets of subsets as ints of 2^s bits.  The numpy kernel
it replaced (a boolean array over the 2^s masks, the cone read off a
reshape, the pivot by ``count_nonzero`` and the cells by ``flatnonzero``) is
kept here as a second reference for the standard subsets, the pivot and the
ordered cell list.

The standard subsets are read off the generators' exponent codes.  The
kernel that walked every generator's exponent tuple for each alpha is kept
here as ``ref_standard_subsets``, and every alpha of the sweep is checked
against it: on the criteria 5 and 6 corpora, on the ideals of the
resolution sweep's test corpus, on hypothesis ideals, on plain ideals with
tied exponents and on grid ideals that mix masked and powered variables.
"""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcw import (
    MonomialIdeal,
    PureComplex,
    alexander_dual_complex,
    parse_monomial,
    rainbow_dfi,
    random_term_order,
)
from rainbowcw import complexes
from rainbowcw.complexes import (
    MAX_SUPPORT,
    _cones,
    _lacking,
    _standard_subsets,
    koszul_betti,
    koszul_strand_homology,
    lcm_closure,
)
from rainbowcw.errors import SizeCap, UnitIdeal
from rainbowcw.gfp import cell_homology, matrix_rank
from rainbowcw.monomials import WALK_BITS, Monomial, code, exponent_steps, members
from tests.conftest import in_ideal
from tests.test_acceptance import equivalence_runs, strand_runs
from tests.test_complexes import _SWEEP_CORPUS
from tests.test_sweep_memos import PLAIN_IDEALS

PRIMES = (2, 32003)


def reference_strand_homology(ideal, alpha, p):
    supp = sorted(alpha.support)
    s = len(supp)
    layers = [[] for _ in range(s + 1)]
    for mask in range(1 << s):
        subset = Monomial({supp[k]: 1 for k in range(s) if mask >> k & 1})
        if not in_ideal(ideal, alpha / subset):
            layers[bin(mask).count("1")].append(mask)
    index = [{mask: k for k, mask in enumerate(layer)} for layer in layers]
    ranks = [0] * (s + 2)
    for i in range(1, s + 1):
        columns = []
        for mask in layers[i]:
            column = {}
            sign = 1
            for k in range(s):
                if mask >> k & 1:
                    row = index[i - 1].get(mask ^ (1 << k))
                    if row is not None:
                        column[row] = sign
                    sign = -sign
            columns.append(column)
        ranks[i] = matrix_rank(columns, len(layers[i - 1]), len(layers[i]), p)
    return [len(layers[i]) - ranks[i] - ranks[i + 1] for i in range(s + 1)]


def ref_standard_subsets(ideal, alpha):
    """The standard subsets of supp(alpha) as a 2^s-bit set, s = |supp(alpha)|,
    by the kernel that walked every generator's exponents for each alpha.

    A generator g dividing x^alpha divides x^alpha / x^S exactly when S
    avoids the tight variables, where g reaches the exponent of alpha; so S
    is standard iff it meets the tight set of every such g.
    """
    exps = dict(alpha.exps)
    support = sorted(exps)
    lacking = dict(zip(support, _lacking(len(support))))
    full = (1 << (1 << len(support))) - 1
    avoiding = set()
    for g in ideal.gens:
        # One pass decides whether g divides x^alpha and collects the subsets
        # that avoid its tight set.
        avoid = full
        for v, e in g.exps:
            a = exps.get(v, 0)
            if e > a:
                break
            if e == a:
                avoid &= lacking[v]
        else:
            avoiding.add(avoid)
    standard = full
    for avoid in avoiding:
        standard &= ~avoid
    return standard


def standalone_standard_subsets(ideal, alpha):
    """``_standard_subsets`` on the layout of a call without codes: steps
    over the generators and alpha."""
    steps = exponent_steps([*ideal.gens, alpha])
    return _standard_subsets(steps, [code(g, steps) for g in ideal.gens], alpha)


def reference_betti(ideal, p, degree_cap=None):
    entries = {}
    for alpha in lcm_closure(ideal.gens, degree_cap=degree_cap):
        for i, rank in enumerate(reference_strand_homology(ideal, alpha, p)):
            if i >= 1 and rank:
                entries[(i, alpha)] = rank
    entries[(0, Monomial.one())] = 1
    return entries


def _rainbow_corpus(sizes, runs, seed):
    rng = random.Random(seed)
    corpus = []
    for n, m in sizes:
        pool = list(combinations(range(1, m + 1), n))
        while sum(1 for c in corpus if c[:2] == (n, m)) < runs:
            order = random_term_order(n, m, rng)
            dual = PureComplex(n, m, rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            rain = rainbow_dfi(alexander_dual_complex(dual), order)
            if not rain.is_zero():
                corpus.append((n, m, rain))
    return corpus


def test_oracle_matches_reference_on_full_sweeps():
    # Full lcm-lattice sweeps; supports reach 2m variables.
    for n, m, rain in _rainbow_corpus([(2, 4), (2, 5), (2, 6)], runs=3, seed=41):
        for p in PRIMES:
            assert koszul_betti(rain, p=p).entries == reference_betti(rain, p), (n, m, p)


def test_oracle_matches_reference_under_degree_cap():
    # The linear-strand comparisons cap total degree at m.
    sizes = [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6)]
    for n, m, rain in _rainbow_corpus(sizes, runs=3, seed=42):
        for p in PRIMES:
            got = koszul_betti(rain, p=p, degree_cap=m).entries
            assert got == reference_betti(rain, p, degree_cap=m), (n, m, p)


_exponents = st.lists(st.integers(0, 3), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    gens=st.lists(_exponents, min_size=1, max_size=5),
    alpha=_exponents,
    p=st.sampled_from(PRIMES),
)
def test_every_pivot_gives_the_reference_homology(gens, alpha, p):
    def mono(exps):
        return Monomial({v: e for v, e in enumerate(exps, start=1)})

    ideal, alpha = MonomialIdeal(map(mono, gens)), mono(alpha)
    expected = reference_strand_homology(ideal, alpha, p)
    assert koszul_strand_homology(ideal, alpha, p) == expected
    s = len(alpha.support)
    for cone in _cones(standalone_standard_subsets(ideal, alpha), s):
        assert cell_homology(members(cone), s, p) == expected


def numpy_standard_subsets(ideal, alpha):
    """The replaced kernel: a boolean array over the masks of supp(alpha)."""
    exps = dict(alpha.exps)
    bit = {v: 1 << k for k, v in enumerate(sorted(exps))}
    tight_sets = set()
    for g in ideal.gens:
        tight = 0
        for v, e in g.exps:
            a = exps.get(v, 0)
            if e > a:
                break
            if e == a:
                tight |= bit[v]
        else:
            tight_sets.add(tight)
    masks = np.arange(1 << len(bit), dtype=np.int64)
    standard = np.ones(masks.size, dtype=bool)
    for tight in tight_sets:
        standard &= (masks & tight) != 0
    return standard


def numpy_cone_indicator(standard, k):
    halves = standard.reshape(-1, 2, 1 << k)
    return halves[:, 1, :] > halves[:, 0, :]


def numpy_cone_cells(standard, k):
    idx = np.flatnonzero(numpy_cone_indicator(standard, k))
    low = (1 << k) - 1
    return ((idx & ~low) << 1 | 1 << k | idx & low).tolist()


def numpy_pivot(standard, s):
    return min(range(s), key=lambda k: np.count_nonzero(numpy_cone_indicator(standard, k)))


def _grid(k):
    return (k // 4 + 1, k % 4 + 1)


@st.composite
def _ideal_and_alpha(draw):
    """An ideal and a multidegree on up to 12 variables, exponents 0..3: the
    generators mostly stay below alpha, so many of them divide it."""
    nvars = draw(st.integers(1, 12))
    top = draw(st.sampled_from([1, 3]))
    var = draw(st.sampled_from([lambda k: k + 1, _grid]))
    alpha = draw(st.lists(st.integers(0, top), min_size=nvars, max_size=nvars))
    gens = draw(st.lists(
        st.lists(st.integers(0, top), min_size=nvars, max_size=nvars).map(
            lambda g: [min(e, a + (e > 2)) for e, a in zip(g, alpha)]),
        min_size=1, max_size=8))

    def mono(exps):
        return Monomial({var(k): e for k, e in enumerate(exps) if e})

    return MonomialIdeal(map(mono, gens)), mono(alpha)


@settings(max_examples=300, deadline=None)
@given(case=_ideal_and_alpha())
def test_bitset_kernel_matches_the_numpy_kernel(case):
    ideal, alpha = case
    s = len(alpha.support)
    reference = numpy_standard_subsets(ideal, alpha)
    standard = standalone_standard_subsets(ideal, alpha)
    assert members(standard) == np.flatnonzero(reference).tolist()
    if s == 0:
        return
    cones = _cones(standard, s)
    assert [members(c) for c in cones] == [numpy_cone_cells(reference, k) for k in range(s)]
    assert min(range(s), key=lambda k: cones[k].bit_count()) == numpy_pivot(reference, s)


# -- the standard subsets on the exponent code ------------------------------------


def assert_sweep_matches_the_reference(ideal, degree_cap=None):
    """Every alpha of the oracle's sweep gets the reference standard set on
    the layout that ``koszul_betti`` lists once: the generators' steps."""
    steps = exponent_steps(ideal.gens)
    gens = [code(g, steps) for g in ideal.gens]
    for alpha in lcm_closure(ideal.gens, degree_cap=degree_cap):
        assert _standard_subsets(steps, gens, alpha) == ref_standard_subsets(ideal, alpha), alpha


def test_standard_sets_on_the_criterion_5_corpus():
    for n, m, order, delta in strand_runs():
        assert_sweep_matches_the_reference(rainbow_dfi(delta, order), degree_cap=m)


def test_standard_sets_on_the_criterion_6_corpus():
    for n, m, order, dual, delta, rain in equivalence_runs():
        assert_sweep_matches_the_reference(rain)


@pytest.mark.parametrize("cx", [cx for _, cx in _SWEEP_CORPUS], ids=[i for i, _ in _SWEEP_CORPUS])
def test_standard_sets_on_the_resolution_sweep_corpus(cx):
    # the ideal of each complex's degree-1 multidegrees
    ideal = MonomialIdeal(cx.mdeg(label) for label in cx.labels(1))
    assert_sweep_matches_the_reference(ideal)


def _ideal(strings):
    return MonomialIdeal(parse_monomial(s) for s in strings)


# Plain non-squarefree ideals where several generators reach the same
# exponent of a variable, and grid ideals that mix masked generators,
# powers of variables with a mask bit, and variables without one (rows and
# columns past 16).
CODED_IDEALS = {
    **PLAIN_IDEALS,
    "tied-squares": _ideal(["x[1]^2 * x[2]^2", "x[1]^2 * x[3]^2", "x[2]^2 * x[3]^2", "x[4]^2"]),
    "tied-mixed": _ideal(["x[1]^2 * x[2]", "x[1]^2 * x[3]^3", "x[2]^2 * x[3]", "x[1] * x[2] * x[3]^3"]),
    "tied-chain": _ideal(["x[1]^3 * x[2]", "x[2]^3 * x[3]", "x[3]^3 * x[1]", "x[1] * x[2] * x[3]"]),
    "grid-mixed": _ideal([
        "x[1,1]^2 * x[1,2]", "x[1,2] * x[2,1]", "x[2,1]^3", "x[1,1] * x[2,2]",
        "x[2,2]^2 * x[1,2]^2",
    ]),
    "grid-past-the-mask": _ideal([
        "x[17,1] * x[1,1]", "x[1,1]^2 * x[2,17]", "x[1,2] * x[2,1]", "x[17,1]^2 * x[2,1]",
        "x[1,2]^3",
    ]),
}


@pytest.mark.parametrize("ideal", CODED_IDEALS.values(), ids=CODED_IDEALS.keys())
def test_the_sweep_passes_codes_that_give_the_reference(ideal, monkeypatch):
    # the standard set of every alpha, as koszul_betti computes it
    seen = []
    original = complexes._standard_subsets

    def recording(steps, gens, alpha):
        standard = original(steps, gens, alpha)
        seen.append((alpha, standard))
        return standard

    monkeypatch.setattr(complexes, "_standard_subsets", recording)
    koszul_betti(ideal)
    assert [alpha for alpha, _ in seen] == lcm_closure(ideal.gens)
    for alpha, standard in seen:
        assert standard == ref_standard_subsets(ideal, alpha), alpha


def _plain_ideal(exponents):
    return MonomialIdeal(Monomial({v: e for v, e in enumerate(g, start=1) if e}) for g in exponents)


@settings(max_examples=100, deadline=None)
@given(gens=st.lists(st.lists(st.integers(0, 3), min_size=5, max_size=5), min_size=1, max_size=6))
def test_standard_sets_on_the_memo_tests_hypothesis_ideals(gens):
    assert_sweep_matches_the_reference(_plain_ideal(gens))


@settings(max_examples=100, deadline=None)
@given(gens=st.lists(st.lists(st.sampled_from([0, 2, 2, 3]), min_size=4, max_size=4),
                     min_size=2, max_size=7))
def test_standard_sets_on_plain_ideals_with_tied_exponents(gens):
    assert_sweep_matches_the_reference(_plain_ideal(gens))


_GRID_VARIABLES = [(1, 1), (1, 2), (2, 1), (2, 2), (17, 1), (1, 17)]


@settings(max_examples=100, deadline=None)
@given(gens=st.lists(
    st.lists(st.integers(0, 2), min_size=len(_GRID_VARIABLES), max_size=len(_GRID_VARIABLES)),
    min_size=1, max_size=6))
def test_standard_sets_on_grid_ideals_mixing_masks_and_powers(gens):
    ideal = MonomialIdeal(
        Monomial({v: e for v, e in zip(_GRID_VARIABLES, g) if e}) for g in gens)
    assert_sweep_matches_the_reference(ideal)


# A call without codes lays its steps out over the generators and alpha: on
# the generators' alone, an exponent of alpha above every generator's would
# be capped, and a generator at the cap would read as tight.
STANDALONE = {
    "plain-above-every-generator": (["x[1]^2", "x[1] * x[3]"], "x[1]^3 * x[3]"),
    "plain-above-a-tie": (["x[1]^2 * x[2]", "x[1]^2 * x[3]", "x[2] * x[3]"],
                          "x[1]^4 * x[2] * x[3]"),
    "grid-above-a-mask": (["x[1,1]", "x[1,2] * x[2,1]"], "x[1,1]^2 * x[1,2] * x[2,1]"),
    "grid-above-every-power": (["x[1,1]^2 * x[1,2]", "x[17,1]^2", "x[1,2] * x[17,1]"],
                               "x[1,1]^3 * x[1,2] * x[17,1]^3"),
    "plain-unused-variable": (["x[1]^2", "x[1] * x[2]"], "x[1]^2 * x[2] * x[4]^2"),
    "grid-unused-variables": (["x[1,1]^2", "x[1,1] * x[2,2]"],
                              "x[1,1]^2 * x[2,2] * x[3,3] * x[4,4]^2 * x[17,2]"),
    "grid-unused-masked": (["x[1,1] * x[1,2]", "x[2,2]"], "x[1,1] * x[1,2] * x[3,3]"),
    "unit-alpha": (["x[1]^2", "x[1] * x[2]"], "1"),
    "unit-alpha-of-the-unit-ideal": (["1"], "1"),
    "unit-alpha-of-the-zero-ideal": ([], "1"),
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("gens, alpha", STANDALONE.values(), ids=STANDALONE.keys())
def test_a_call_without_codes_matches_the_reference(gens, alpha, p, monkeypatch):
    ideal, alpha = _ideal(gens), parse_monomial(alpha)
    seen = []
    original = complexes._standard_subsets

    def recording(*args):
        seen.append(original(*args))
        return seen[-1]

    monkeypatch.setattr(complexes, "_standard_subsets", recording)
    assert koszul_strand_homology(ideal, alpha, p) == reference_strand_homology(ideal, alpha, p)
    assert seen == [ref_standard_subsets(ideal, alpha)]


@pytest.mark.parametrize("s", range(13))
def test_lacking_is_the_subsets_without_each_element(s):
    assert _lacking(s) == tuple(
        sum(1 << mask for mask in range(1 << s) if not mask >> k & 1) for k in range(s)
    )


def _set_bits(x):
    """Each position tested in turn, in 4096-bit windows so that the shifts
    of a 2^20-bit int stay short."""
    out = []
    for base in range(0, x.bit_length(), 4096):
        window = x >> base & (1 << 4096) - 1
        out += [base + k for k in range(window.bit_length()) if window >> k & 1]
    return out


def test_members_lists_set_bits_lowest_first():
    assert members(0) == []
    assert members(1) == [0]
    assert members(0b1011000) == [3, 4, 6]
    assert members(1 << 5000 | 1 << 17) == [17, 5000]
    rng = random.Random(15)
    cases = [0] + [1 << k for k in (0, 1, 63, 64, 299, 5000)]
    # one bit below, at and above the switch from bit steps to the string scan
    for length in (WALK_BITS - 1, WALK_BITS, WALK_BITS + 1):
        cases += [1 << length - 1, (1 << length) - 1, rng.getrandbits(length) | 1 << length - 1]
    for _ in range(300):
        cases.append(sum(1 << rng.randrange(300) for _ in range(rng.randint(1, 12))))
    cases += [(1 << (1 << 16)) - 1, rng.getrandbits(1 << 16), rng.getrandbits(1 << 20)]
    for x in cases:
        assert members(x) == _set_bits(x)


def test_oracle_refuses_the_unit_ideal_and_a_support_past_the_cap():
    # One generator on MAX_SUPPORT variables is the largest sweep it takes:
    # the 2^22 masks of its one multidegree.
    top = Monomial({v: 1 for v in range(1, MAX_SUPPORT + 1)})
    assert koszul_betti(MonomialIdeal([top])).total_vector() == (1, 1)
    with pytest.raises(SizeCap):
        koszul_betti(MonomialIdeal([Monomial({v: 1 for v in range(1, MAX_SUPPORT + 2)})]))
    with pytest.raises(UnitIdeal):
        koszul_betti(MonomialIdeal([Monomial.one()]))
