"""The two memos that rank each distinct strand once per call: the Koszul
oracle's, keyed by (|supp(alpha)|, the cells of the cone), and the resolution
sweep's, keyed by the cell bitset of the relative strand.

The oracle is checked against the direct ``koszul_strand_homology`` of every
multidegree, each with a memo of its own, on samples of the criteria 5 and 6 corpora, on
hypothesis ideals and on plain non-squarefree ideals.  The 6-vertex RP^2,
whose homology depends on the characteristic, is run at p = 2 and at
p = 32003 in both orders in one process: a memo that outlived its call
would carry ranks from one prime to the other.
"""

import json
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcw import BasedComplex, Monomial, MonomialIdeal, parse_monomial, rainbow_dfi
from rainbowcw import complexes
from rainbowcw.complexes import BettiTable, koszul_betti, koszul_strand_homology, lcm_closure
from tests.test_acceptance import equivalence_runs, strand_runs

PRIMES = (2, 32003)
DATA = Path(__file__).parent / "data"
# One run in SAMPLE of each acceptance corpus; the full corpora take about
# a minute at both primes.
SAMPLE = 10


def recorded_oracle(ideal, p, degree_cap, monkeypatch):
    """``koszul_betti`` with the ``(alpha, ranks)`` of every strand it took."""
    calls = []
    original = complexes.koszul_strand_homology

    def recording(ideal, alpha, *args, **kwargs):
        hom = original(ideal, alpha, *args, **kwargs)
        calls.append((alpha, hom))
        return hom

    with monkeypatch.context() as patch:
        patch.setattr(complexes, "koszul_strand_homology", recording)
        table = koszul_betti(ideal, p=p, degree_cap=degree_cap)
    return table, calls


def assert_oracle_matches_direct(ideal, p, monkeypatch, degree_cap=None):
    """The table equals the one built from the direct strand of every alpha,
    and each strand's ranks, of length |supp(alpha)| + 1, equal the direct
    ones."""
    table, calls = recorded_oracle(ideal, p, degree_cap, monkeypatch)
    alphas = lcm_closure(ideal.gens, degree_cap=degree_cap)
    assert [alpha for alpha, _ in calls] == alphas
    direct = BettiTable()
    direct.add(0, Monomial.one(), 1)
    for alpha, hom in calls:
        expected = koszul_strand_homology(ideal, alpha, p)
        assert hom == expected and len(hom) == len(alpha.support) + 1, alpha
        for i, rank in enumerate(expected):
            if i:
                direct.add(i, alpha, rank)
    assert table.entries == direct.entries


@pytest.mark.parametrize("p", PRIMES)
def test_oracle_memo_on_the_criterion_5_corpus(p, monkeypatch):
    for k, (n, m, order, delta) in enumerate(strand_runs()):
        if k % SAMPLE == 0:
            assert_oracle_matches_direct(rainbow_dfi(delta, order), p, monkeypatch, degree_cap=m)


@pytest.mark.parametrize("p", PRIMES)
def test_oracle_memo_on_the_criterion_6_corpus(p, monkeypatch):
    for n, m, order, dual, delta, rain in equivalence_runs()[::SAMPLE]:
        assert_oracle_matches_direct(rain, p, monkeypatch)


def _plain(strings):
    return MonomialIdeal([parse_monomial(s) for s in strings])


PLAIN_IDEALS = {
    "ideal-plain": _plain(json.loads((DATA / "ideal_plain.json").read_text())),
    "taylor-plain": _plain(["x[1] * x[2]", "x[2] * x[3]", "x[1] * x[3]", "x[3]^2"]),
    "powers": _plain(["x[1]^3", "x[2]^2", "x[1] * x[2] * x[3]^2", "x[3]^3 * x[4]", "x[4]^2"]),
    "rp2": _plain(json.loads((DATA / "ideal_rp2.json").read_text())),
}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("ideal", PLAIN_IDEALS.values(), ids=PLAIN_IDEALS.keys())
def test_oracle_memo_on_plain_ideals(ideal, p, monkeypatch):
    assert_oracle_matches_direct(ideal, p, monkeypatch)


_exponents = st.lists(st.integers(0, 3), min_size=5, max_size=5)


@settings(max_examples=100, deadline=None)
@given(gens=st.lists(_exponents, min_size=1, max_size=6), p=st.sampled_from(PRIMES))
def test_oracle_memo_on_hypothesis_ideals(gens, p):
    ideal = MonomialIdeal(Monomial({v: e for v, e in enumerate(g, start=1)}) for g in gens)
    if ideal.is_unit():
        return
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_oracle_matches_direct(ideal, p, monkeypatch)


@pytest.mark.parametrize("p", PRIMES)
def test_a_caller_may_change_what_the_oracle_returns(p):
    # a memo shared across calls hands each call a list of its own
    ideal = PLAIN_IDEALS["ideal-plain"]
    memo = {}
    for alpha in lcm_closure(ideal.gens):
        expected = koszul_strand_homology(ideal, alpha, p)
        for _ in range(2):
            hom = koszul_strand_homology(ideal, alpha, p, memo)
            assert hom == expected, alpha
            hom[:] = [-1] * len(hom)


def test_the_oracle_memo_keys_grow_with_the_cells():
    # g_i = x_i^2 * x[1]...x[16]: every lcm of two or more generators has
    # support 16, and its cone holds a few cells, so a key as wide as the
    # 2^16-bit cone would hold kilobytes where its cells take bytes
    n = 16
    ideal = MonomialIdeal(
        Monomial({j: 2 if j == i else 1 for j in range(1, n + 1)}) for i in range(1, 4))
    memo = {}
    for alpha in lcm_closure(ideal.gens):
        koszul_strand_homology(ideal, alpha, 32003, memo)
    assert {s for s, _ in memo} == {n}
    for s, cells in memo:
        assert type(cells) is tuple and all(type(c) is int for c in cells)
        assert sys.getsizeof(cells) + sum(map(sys.getsizeof, cells)) < (1 << s) // 8


# -- the 6-vertex RP^2: homology that depends on the prime ----------------------

RP2_FACETS = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
              (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
BOTH_ORDERS = pytest.mark.parametrize(
    "primes", [(2, 32003), (32003, 2)], ids=["2-first", "32003-first"])


def test_the_rp2_ideal_is_the_non_faces():
    ideal = PLAIN_IDEALS["rp2"]
    non_faces = [t for t in combinations(range(1, 7), 3) if t not in RP2_FACETS]
    assert sorted(ideal.gens, key=Monomial.sort_key) == sorted(
        (Monomial({v: 1 for v in t}) for t in non_faces), key=Monomial.sort_key)


@BOTH_ORDERS
def test_the_rp2_betti_table_depends_on_the_prime(primes):
    for p in primes:
        table = koszul_betti(PLAIN_IDEALS["rp2"], p=p)
        coarse = table.coarse()
        if p == 2:
            assert coarse[(3, 6)] == coarse[(4, 6)] == 1
            assert table.total_vector() == (1, 10, 15, 7, 1)
        else:
            assert (3, 6) not in coarse and (4, 6) not in coarse
            assert table.total_vector() == (1, 10, 15, 6)


def rp2_complex():
    """The augmented chain complex of RP^2 on 6 vertices, every cell of
    multidegree x[1]...x[6]: its one strand has homology over GF(2) only."""
    top = Monomial({v: 1 for v in range(1, 7)})
    faces = [[()], *([f for f in combinations(range(1, 7), k)
                      if any(set(f) <= set(t) for t in RP2_FACETS)] for k in (1, 2, 3))]
    label = lambda f: "e" + "".join(map(str, f))
    basis = [[(label(f), top) for f in layer] for layer in faces]
    diff = {(label(f), label(f[:k] + f[k + 1:])): (-1) ** k
            for layer in faces[1:] for f in layer for k in range(len(f))}
    return BasedComplex(basis, diff)


@BOTH_ORDERS
def test_the_rp2_sweep_depends_on_the_prime(primes):
    cx = rp2_complex()
    assert cx.ranks() == (1, 6, 15, 10)
    top = Monomial({v: 1 for v in range(1, 7)})
    for p in primes:
        expected = [0, 0, 1, 1] if p == 2 else [0, 0, 0, 0]
        assert cx.is_resolution(p) is (p != 2)
        assert list(cx.strand_homologies(p)) == [(top, expected)]
        assert rp2_complex().is_resolution(p) is (p != 2)
