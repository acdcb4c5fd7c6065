"""``BasedComplex.strand_at`` and the sweep of ``strand_homologies``, which
read cells and closure generators from per-step bitsets over exponent codes,
against the scanning strand, the pairwise closure generators, and a search
for an acyclic strand below on sets of (variable, step) pairs.  The sweep
ranks each distinct cell set once, so it builds a strand only at the first
alpha of each cell set of the reference."""

import random

import pytest

from rainbowcw import BasedComplex, Monomial, diagonal_order, sparse_eagon_northcott
from rainbowcw.complexes import lcm_closure
from rainbowcw.gfp import VectorComplex
from rainbowcw.monomials import STRIDE, lcm_of
from tests.test_complexes import _SWEEP_CORPUS
from tests.test_determinantal import seeded_order
from tests.test_restrict_reference import keep_sets

PRIMES = (2, 32003)
CASES = [cx for _, cx in _SWEEP_CORPUS]
IDS = [name for name, _ in _SWEEP_CORPUS]


def ref_cells(cx, alpha, modulo=None):
    """The labels of C(alpha)/C(modulo) by a scan: those whose multidegree
    divides alpha and not ``modulo``, layer by layer."""
    return [
        [l for l in cx.labels(i)
         if cx.mdeg(l).divides(alpha) and (modulo is None or not cx.mdeg(l).divides(modulo))]
        for i in cx.degrees()
    ]


def ref_strand_at(cx, alpha, modulo=None):
    """Scan every basis element: keep those whose multidegree divides alpha
    (and not ``modulo``), layer by layer; a kept element's column holds the
    signs of its kept targets, as (dims, columns)."""
    retained = [{l: n for n, l in enumerate(kept)} for kept in ref_cells(cx, alpha, modulo)]
    diffs = [[] for _ in retained]
    for i in range(1, len(retained)):
        below = retained[i - 1]
        for src in retained[i]:
            column = {below[t]: sign for t, sign in cx.out_entries(src) if t in below}
            if column:
                diffs[i].append(column)
    return [len(kept) for kept in retained], diffs


def ref_closure_generators(cx):
    """The closure generators decided pairwise on monomials: the basis
    multidegrees in degrees >= 1 by degree, without those equal to the lcm
    of their proper divisors among the ones kept."""
    gens = {cx.mdeg(l) for i in cx.degrees() if i for l in cx.labels(i)}
    core = []
    for m in sorted(gens, key=lambda m: (m.degree, m.sort_key())):
        below = [d for d in core if d.divides(m)]
        if not below or lcm_of(below) != m:
            core.append(m)
    return core


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
    """The set-based sweep: ``(alpha, modulo, cells, homology ranks)`` over
    the closure, gamma the lcm of the generators below alpha that avoid the
    step x of alpha, x tried by fewest such generators, then in the bit
    order; ``cells`` the labels of C(alpha)/C(modulo), and every strand from
    the scan."""
    core = ref_closure_generators(cx)
    gens = [ref_steps(g) for g in core]
    position = ref_bit_order(frozenset().union(*gens))
    acyclic = {}
    out = []
    for alpha in lcm_closure(core):
        a, modulo = ref_steps(alpha), None
        below = [g for g in gens if g <= a]
        for x in sorted(a, key=lambda x: (len([g for g in below if x in g]), position[x])):
            modulo = acyclic.get(frozenset().union(*(g for g in below if x not in g)))
            if modulo is not None:
                break
        hom = VectorComplex(*ref_strand_at(cx, alpha, modulo)).homology_ranks(p)
        if not any(hom):
            acyclic[a] = alpha
        cells = frozenset(l for layer in ref_cells(cx, alpha, modulo) for l in layer)
        out.append((alpha, modulo, cells, hom))
    return out


def recorded_sweep(cx, p, monkeypatch):
    """``strand_homologies(p)`` as its list of ``(alpha, homology ranks)``,
    with the ``(alpha, modulo)`` of every ``strand_at`` call it made.  Each
    yielded list is overwritten once copied: every alpha gets a list of its
    own, so no later alpha may see the change."""
    calls = []
    original = BasedComplex.strand_at

    def recording(self, alpha, modulo=None):
        calls.append((alpha, modulo))
        return original(self, alpha, modulo)

    swept = []
    with monkeypatch.context() as patch:
        patch.setattr(BasedComplex, "strand_at", recording)
        for alpha, hom in cx.strand_homologies(p):
            swept.append((alpha, list(hom)))
            hom[:] = [-1] * len(hom)
    return calls, swept


def assert_sweep_matches(cx, p, monkeypatch):
    """The sweep yields the reference's ranks at every alpha, and builds a
    strand, with the reference's modulo, only at the first alpha of each
    cell set of the reference, in order."""
    calls, swept = recorded_sweep(cx, p, monkeypatch)
    reference = ref_sweep(cx, p)
    assert swept == [(alpha, hom) for alpha, _, _, hom in reference]
    seen = set()
    first = []
    for alpha, modulo, cells, _ in reference:
        if cells not in seen:
            seen.add(cells)
            first.append((alpha, modulo))
    assert calls == first


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
    assert_sweep_matches(cx, p, monkeypatch)


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
                assert_sweep_matches(sub, p, monkeypatch)
    assert swept >= 4


@pytest.mark.parametrize("cx", CASES, ids=IDS)
def test_closure_generators_match_the_pairwise_decision(cx):
    assert cx._closure_generators() == ref_closure_generators(cx)
