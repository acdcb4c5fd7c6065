"""``BasedComplex.strand_at`` and the sweep of ``strand_homologies``, which
read cells and closure generators from per-step bitsets over exponent codes,
against the scanning strand and a search for an acyclic strand below on
sets of (variable, step) pairs."""

import random

import pytest

from rainbowcw import BasedComplex, Monomial, diagonal_order, sparse_eagon_northcott
from rainbowcw.gfp import VectorComplex
from rainbowcw.monomials import STRIDE
from tests.test_complexes import _SWEEP_CORPUS
from tests.test_determinantal import seeded_order
from tests.test_restrict_reference import keep_sets

PRIMES = (2, 32003)
CASES = [cx for _, cx in _SWEEP_CORPUS]
IDS = [name for name, _ in _SWEEP_CORPUS]


def ref_strand_at(cx, alpha, modulo=None):
    """Scan every basis element: keep those whose multidegree divides alpha
    (and not ``modulo``), layer by layer; a kept element's column holds the
    signs of its kept targets, as (dims, columns)."""
    retained = []
    for i in cx.degrees():
        layer = cx.labels(i)
        kept = [
            l for l in layer
            if cx.mdeg(l).divides(alpha) and (modulo is None or not cx.mdeg(l).divides(modulo))
        ]
        retained.append({l: n for n, l in enumerate(kept)})
    diffs = [[] for _ in retained]
    for i in range(1, len(retained)):
        below = retained[i - 1]
        for src in retained[i]:
            column = {below[t]: sign for t, sign in cx.out_entries(src) if t in below}
            if column:
                diffs[i].append(column)
    return [len(kept) for kept in retained], diffs


def ref_steps(m):
    """The (variable, step) pairs of a monomial: (v, 1) .. (v, e) for x_v^e."""
    return frozenset((v, k) for v, e in m.exps for k in range(1, e + 1))


def ref_bit_order(pairs):
    """The position of each pair in the documented bit order: step 1 of a
    grid variable (i, j) inside the stride is bit (i - 1) * STRIDE + j - 1;
    the other pairs follow from bit STRIDE**2 up, in sorted order."""
    def masked(pair):
        v, k = pair
        return k == 1 and isinstance(v, tuple) and all(1 <= c <= STRIDE for c in v)

    position = {x: (x[0][0] - 1) * STRIDE + x[0][1] - 1 for x in pairs if masked(x)}
    above = sorted(x for x in pairs if not masked(x))
    position.update((x, STRIDE * STRIDE + k) for k, x in enumerate(above))
    return position


def ref_sweep(cx, p):
    """The set-based sweep: ``(alpha, modulo, homology ranks)`` over the
    closure, gamma the lcm of the generators below alpha that avoid the
    step x of alpha, x tried by fewest such generators, then in the bit
    order; every strand from the scan."""
    gens = [ref_steps(g) for g in cx._closure_generators()]
    position = ref_bit_order(frozenset().union(*gens))
    acyclic = {}
    out = []
    for alpha in cx.relevant_multidegrees():
        a, modulo = ref_steps(alpha), None
        below = [g for g in gens if g <= a]
        for x in sorted(a, key=lambda x: (len([g for g in below if x in g]), position[x])):
            modulo = acyclic.get(frozenset().union(*(g for g in below if x not in g)))
            if modulo is not None:
                break
        hom = VectorComplex(*ref_strand_at(cx, alpha, modulo)).homology_ranks(p)
        if not any(hom):
            acyclic[a] = alpha
        out.append((alpha, modulo, hom))
    return out


def recorded_sweep(cx, p, monkeypatch):
    """``strand_homologies(p)`` with the ``(alpha, modulo)`` of every
    ``strand_at`` call it made, as ``(alpha, modulo, homology ranks)``."""
    calls = []
    original = BasedComplex.strand_at

    def recording(self, alpha, modulo=None):
        calls.append((alpha, modulo))
        return original(self, alpha, modulo)

    with monkeypatch.context() as patch:
        patch.setattr(BasedComplex, "strand_at", recording)
        swept = list(cx.strand_homologies(p))
    assert [alpha for alpha, _ in calls] == [alpha for alpha, _ in swept]
    return [(alpha, modulo, hom) for (alpha, modulo), (_, hom) in zip(calls, swept)]


def assert_strands_match(cx, alphas):
    """The full strand at every alpha, and the strand relative to every
    alpha of the list that divides it and to the unit, as the scan builds
    them."""
    for alpha in alphas:
        got = cx.strand_at(alpha)
        assert (got.dims, got.diffs) == ref_strand_at(cx, alpha), alpha
        for gamma in [Monomial.one(), *alphas]:
            if gamma.divides(alpha):
                got = cx.strand_at(alpha, gamma)
                assert (got.dims, got.diffs) == ref_strand_at(cx, alpha, gamma), (alpha, gamma)


@pytest.mark.parametrize("cx", CASES, ids=IDS)
def test_strands_match_the_scan(cx):
    assert_strands_match(cx, cx.relevant_multidegrees())


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("cx", CASES, ids=IDS)
def test_the_sweep_takes_the_same_modulo(cx, p, monkeypatch):
    assert recorded_sweep(cx, p, monkeypatch) == ref_sweep(cx, p)


@pytest.mark.parametrize("order", [diagonal_order(3, 5), seeded_order(3, 5, 2)], ids=["diag", "seeded"])
def test_a_restriction_does_not_inherit_the_cell_index(order, monkeypatch):
    cx = sparse_eagon_northcott(order)
    alphas = cx.relevant_multidegrees()
    cx.strand_at(alphas[-1])  # builds the parent's index before any restriction
    swept = 0
    for keep in keep_sets(cx, random.Random(f"cell index {order.weights}")):
        sub = cx.restrict(keep)
        assert_strands_match(sub, sub.relevant_multidegrees()[:40] + alphas[-3:])
        if sub.check_complex():  # the sweep refuses a non-complex
            swept += 1
            for p in PRIMES:
                assert recorded_sweep(sub, p, monkeypatch) == ref_sweep(sub, p)
    assert swept >= 4
