"""``BasedComplex.strand_at`` and the sweep of ``strand_homologies``, which
read cells and closure generators from per-variable bitsets, against the
scanning strand and the list-based search for an acyclic strand below that
they replaced."""

import random

import pytest

from rainbowcw import BasedComplex, Monomial, diagonal_order, sparse_eagon_northcott
from rainbowcw.gfp import VectorComplex
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
        positions = alpha.divisor_positions([cx.mdeg(l) for l in layer], modulo)
        retained.append({layer[k]: n for n, k in enumerate(positions)})
    diffs = [[] for _ in retained]
    for i in range(1, len(retained)):
        below = retained[i - 1]
        for src in retained[i]:
            column = {below[t]: sign for t, sign in cx.out_entries(src) if t in below}
            if column:
                diffs[i].append(column)
    return [len(kept) for kept in retained], diffs


def ref_sweep(cx, p):
    """The list-based sweep: ``(alpha, modulo, homology ranks)`` over the
    closure, gamma the OR of the generators below alpha that avoid the
    variable x, x tried by fewest such generators, then lowest bit; every
    strand from the scan."""
    gens = [g.mask for g in cx._closure_generators()]
    acyclic = {}
    out = []
    for alpha in cx.relevant_multidegrees():
        a, modulo = alpha.mask, None
        if a >= 0:
            below = [g for g in gens if not g & ~a]
            variables = []
            rest = a
            while rest:
                x = rest & -rest
                rest ^= x
                variables.append((len([g for g in below if g & x]), x))
            for _, x in sorted(variables):
                gamma = 0
                for g in below:
                    if not g & x:
                        gamma |= g
                modulo = acyclic.get(gamma)
                if modulo is not None:
                    break
        hom = VectorComplex(*ref_strand_at(cx, alpha, modulo)).homology_ranks(p)
        if a >= 0 and not any(hom):
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
