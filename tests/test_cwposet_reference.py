"""The face poset and CW certificate against the label-based reference.

The reference below is the implementation the int-mask view replaced: it
copies ranks, multidegrees, covers and signs out of the complex into dicts,
tests order with cached frozenset down sets, and builds its order-complex
boundary from tuple chains.  Both must agree on every relation, interval,
atom ordering and certificate, on posets that pass and posets that fail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations
from typing import Sequence

import pytest

from rainbowcw import (
    Monomial,
    diagonal_order,
    face_poset,
    is_cw_poset,
    open_interval_homology,
    random_term_order,
    recursive_atom_ordering_check,
    sparse_eagon_northcott,
)
from rainbowcw.complexes import BasedComplex
from rainbowcw.cwposet import CWCertificate, is_thin
from rainbowcw.errors import SizeCap
from rainbowcw.gfp import DEFAULT_PRIME, VectorComplex
from rainbowcw.monomials import members
from tests.test_cwposet import atoms_of, chain_poset, hand_made_poset, permutation_key

# -- the reference -------------------------------------------------------------


@dataclass
class RefPoset:
    bottom: str
    ranks: dict[str, int]
    mdegs: dict[str, Monomial]
    covers_down: dict[str, tuple[str, ...]]
    covers_up: dict[str, tuple[str, ...]]
    signs: dict[tuple[str, str], int]  # (lower, upper) -> incidence sign
    _down: dict[str, frozenset] = field(default_factory=dict, repr=False)

    @property
    def elements(self) -> list[str]:
        return sorted(self.ranks, key=lambda x: (self.ranks[x], x))

    def down_set(self, x: str) -> frozenset:
        cached = self._down.get(x)
        if cached is not None:
            return cached
        acc: set[str] = {x}
        for y in self.covers_down[x]:
            acc |= self.down_set(y)
        out = frozenset(acc)
        self._down[x] = out
        return out

    def le(self, x: str, y: str) -> bool:
        return x in self.down_set(y)

    def open_interval(self, x: str, y: str) -> list[str]:
        below_y = self.down_set(y)
        return sorted(
            (z for z in below_y if z != y and z != x and x in self.down_set(z)),
            key=lambda z: (self.ranks[z], z),
        )

    def closed_interval(self, x: str, y: str) -> list[str]:
        if not self.le(x, y):
            return []
        return sorted(
            set(self.open_interval(x, y)) | {x, y}, key=lambda z: (self.ranks[z], z)
        )

    def atoms(self, x: str, y: str) -> list[str]:
        return [z for z in self.covers_up[x] if self.le(z, y)]


def ref_face_poset(cx: BasedComplex) -> RefPoset:
    zero = cx.labels(0)
    if len(zero) != 1:
        raise ValueError("face poset needs a unique degree-0 element")
    bottom = zero[0]
    ranks = {bottom: 0}
    mdegs = {bottom: Monomial.one()}
    covers_down: dict[str, list[str]] = {bottom: []}
    signs: dict[tuple[str, str], int] = {}
    for i in cx.degrees():
        if i == 0:
            continue
        for label in cx.labels(i):
            ranks[label] = i
            mdegs[label] = cx.mdeg(label)
            covers_down[label] = []
            for tgt, sign in cx.out_entries(label):
                covers_down[label].append(tgt)
                signs[(tgt, label)] = sign
    covers_up: dict[str, list[str]] = {x: [] for x in ranks}
    for upper, lowers in covers_down.items():
        for lower in lowers:
            covers_up[lower].append(upper)
    return RefPoset(
        bottom, ranks, mdegs,
        {k: tuple(v) for k, v in covers_down.items()},
        {k: tuple(sorted(v)) for k, v in covers_up.items()},
        signs,
    )


def ref_is_thin(poset: RefPoset) -> bool:
    for y in poset.ranks:
        mids = poset.covers_down[y]
        grands = {x for z in mids for x in poset.covers_down[z]}
        for x in grands:
            if sum(1 for z in mids if x in poset.covers_down[z]) != 2:
                return False
    return True


def ref_chains(elements: Sequence[str], le) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = []

    def extend(chain: tuple[str, ...], rest: Sequence[str]) -> None:
        for k, z in enumerate(rest):
            new = chain + (z,)
            out.append(new)
            extend(new, [w for w in rest[k + 1 :] if le(z, w)])

    extend((), list(elements))
    return out


def ref_order_complex_reduced_homology(elements, le, p=DEFAULT_PRIME) -> dict[int, int]:
    by_dim: dict[int, dict[tuple[str, ...], int]] = {-1: {(): 0}}
    for c in ref_chains(elements, le):
        layer = by_dim.setdefault(len(c) - 1, {})
        layer[c] = len(layer)
    top = max(by_dim)
    dims = [len(by_dim.get(d, {})) for d in range(-1, top + 1)]
    diffs: list[list[dict[int, int]]] = [[] for _ in dims]
    for d in range(0, top + 1):
        lower = by_dim.get(d - 1, {})
        for c in by_dim.get(d, {}):
            column = {}
            for k in range(len(c)):
                row = lower.get(c[:k] + c[k + 1 :])
                if row is not None:
                    column[row] = (-1) ** k
            if column:
                diffs[d + 1].append(column)
    hom = VectorComplex(dims, diffs).homology_ranks(p)
    return {d - 1: hom[d] for d in range(len(hom)) if hom[d]}


def ref_open_interval_homology(poset: RefPoset, x, y, p=DEFAULT_PRIME) -> dict[int, int]:
    return ref_order_complex_reduced_homology(poset.open_interval(x, y), poset.le, p)


def ref_recursive_atom_ordering_check(
    poset: RefPoset, x, atom_order=None, atom_key=None, scramble=None,
    max_atoms=12, max_depth=8,
) -> bool:
    if atom_key is None:
        atom_key = lambda label: poset.mdegs[label].sort_key()

    def check(bottom, top, ordering, depth) -> bool:
        if poset.ranks[top] - poset.ranks[bottom] <= 1:
            return True
        if depth > max_depth:
            raise SizeCap(f"recursive atom ordering deeper than {max_depth}")
        if len(ordering) > max_atoms:
            raise SizeCap(f"interval with more than {max_atoms} atoms")
        interval = poset.closed_interval(bottom, top)
        for j, aj in enumerate(ordering):
            earlier = ordering[:j]
            covers_aj = [z for z in poset.covers_up[aj] if poset.le(z, top)]
            for ai in earlier:
                for y in interval:
                    if not (poset.le(ai, y) and poset.le(aj, y)):
                        continue
                    if not any(
                        poset.le(z, y) and any(poset.le(ak, z) for ak in earlier)
                        for z in covers_aj
                    ):
                        return False
        for j, aj in enumerate(ordering):
            if poset.ranks[top] - poset.ranks[aj] <= 1:
                continue
            earlier = ordering[:j]
            sub_atoms = poset.atoms(aj, top)
            first = [z for z in sub_atoms if any(poset.le(ai, z) for ai in earlier)]
            rest = [z for z in sub_atoms if z not in first]
            induced = sorted(first, key=atom_key) + sorted(rest, key=atom_key)
            if scramble is not None:
                induced = scramble(aj, list(induced))
            first_set = set(first)
            flags = [z in first_set for z in induced]
            if any(flags[k] and not all(flags[: k + 1]) for k in range(len(flags))):
                return False
            if not check(aj, top, induced, depth + 1):
                return False
        return True

    top_atoms = poset.atoms(poset.bottom, x)
    if atom_order is None:
        ordering = sorted(top_atoms, key=atom_key)
    else:
        ordering = list(atom_order)
        if sorted(ordering) != sorted(top_atoms):
            raise ValueError("atom_order must enumerate the atoms of the interval")
    return check(poset.bottom, x, ordering, 1)


def ref_is_cw_poset(poset: RefPoset, p=DEFAULT_PRIME, atom_key=None) -> CWCertificate:
    for x in poset.ranks:
        atoms = len(poset.atoms(poset.bottom, x))
        if atoms > 12:
            raise SizeCap(f"interval with more than 12 atoms: [bottom, {x}] has {atoms}")
    failures: list[str] = []
    has_least = all(poset.le(poset.bottom, x) for x in poset.ranks)
    if not has_least:
        failures.append("least element")
    nontrivial = len(poset.ranks) > 1
    if not nontrivial:
        failures.append("more than one element")
    thin = ref_is_thin(poset)
    if not thin:
        failures.append("thinness")
    spheres = orderings = True
    for x in poset.ranks:
        if x == poset.bottom:
            continue
        hom = ref_open_interval_homology(poset, poset.bottom, x, p)
        if hom != {poset.ranks[x] - 2: 1}:
            spheres = False
            failures.append(f"sphere homology of (bottom, {x})")
            break
    for x in poset.ranks:
        if x == poset.bottom:
            continue
        if not ref_recursive_atom_ordering_check(poset, x, atom_key=atom_key):
            orderings = False
            failures.append(f"recursive atom ordering of [bottom, {x}]")
            break
    return CWCertificate(has_least, nontrivial, thin, spheres, orderings, failures)


# -- the comparisons -------------------------------------------------------------

SIZES = [(2, 4), (2, 5), (3, 4), (3, 5), (2, 6), (3, 6)]


def _orders():
    for n, m in SIZES:
        yield f"{n}x{m} diagonal", diagonal_order(n, m)
        yield f"{n}x{m} random", random_term_order(n, m, random.Random(7 * n + m))


ORDERS = dict(_orders())


def _both(cx):
    return face_poset(cx), ref_face_poset(cx)


@pytest.fixture(scope="module")
def complexes():
    return {name: sparse_eagon_northcott(order) for name, order in ORDERS.items()}


@pytest.mark.parametrize("name", list(ORDERS))
def test_relations_atoms_and_interval_homology_match(name, complexes):
    P, R = _both(complexes[name])
    assert P.bottom == R.bottom and len(P) == len(R.ranks)
    labels = lambda mask: sorted(P.elements[k] for k in members(mask))
    for x in R.ranks:
        k = P.index[x]
        assert P.rank(x) == R.ranks[x] and P.cx.mdeg(x) == R.mdegs[x]
        assert labels(P.lower[k]) == sorted(R.covers_down[x])
        assert labels(P.upper[k]) == list(R.covers_up[x])
        assert atoms_of(P, x) == R.atoms(R.bottom, x)
        assert [y for y in R.ranks if P.interval(x, y)] == [y for y in R.ranks if R.le(x, y)]
    signs = {(lo, hi): s for hi in P.elements for lo, s in P.cx.out_entries(hi)}
    assert signs == R.signs
    for x in R.ranks:
        if x != R.bottom:
            assert open_interval_homology(P, P.bottom, x) == ref_open_interval_homology(
                R, R.bottom, x
            )
    assert is_thin(P) == ref_is_thin(R)


@pytest.mark.parametrize("name", list(ORDERS))
def test_atom_orderings_match_with_the_order_key_and_with_all_ties(name, complexes):
    cx = complexes[name]
    order = ORDERS[name]
    P, R = _both(cx)
    for key in (lambda label: order.sort_key(cx.mdeg(label)), lambda label: 0):
        assert recursive_atom_ordering_check(P, atom_key=key) == []
        for x in R.ranks:
            assert ref_recursive_atom_ordering_check(R, x, atom_key=key)


@pytest.mark.parametrize("name", ["2x4 diagonal", "2x5 diagonal", "3x5 diagonal"])
def test_random_atom_keys_match_and_some_fail(name, complexes):
    # A random key orders the atoms of every level at random; the induced
    # rule still puts the first block first, so a rejection is condition
    # (ii) failing, at the top or deeper in the recursion.
    cx = complexes[name]
    P, R = _both(cx)
    rng = random.Random(11)
    verdicts = []
    for _ in range(30):
        values = {x: rng.random() for x in R.ranks}
        key = values.__getitem__
        failing = recursive_atom_ordering_check(P, atom_key=key)
        for x in R.ranks:
            got = x not in failing
            assert got == ref_recursive_atom_ordering_check(R, x, atom_key=key), x
            if R.ranks[x] >= 3:
                verdicts.append(got)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("p", [2, 32003])
@pytest.mark.parametrize("name", list(ORDERS))
def test_certificates_match(name, p, complexes):
    cx = complexes[name]
    order = ORDERS[name]
    key = lambda label: order.sort_key(cx.mdeg(label))
    P, R = _both(cx)
    assert is_cw_poset(P, p, key).to_json() == ref_is_cw_poset(R, p, key).to_json()
    assert is_cw_poset(P, p).to_json() == ref_is_cw_poset(R, p).to_json()


@pytest.mark.parametrize("p", [2, 32003])
def test_failing_posets_give_the_same_verdicts_and_failures(p, complexes):
    chain = chain_poset(3)
    ref_chain = ref_face_poset(chain.cx)
    assert is_cw_poset(chain, p).to_json() == ref_is_cw_poset(ref_chain, p).to_json()
    assert "thinness" in is_cw_poset(chain, p).failures

    for name in ("2x4 diagonal", "3x5 random"):
        cx = complexes[name]
        for v in cx.labels(1)[:3]:
            holed = cx.restrict(l for l in cx.all_labels() if l != v)
            P, R = _both(holed)
            cert = is_cw_poset(P, p)
            assert cert.to_json() == ref_is_cw_poset(R, p).to_json()
            assert not cert.thin and not cert.interval_spheres
            for x in R.ranks:
                if x != R.bottom:
                    assert open_interval_homology(P, P.bottom, x, p) == (
                        ref_open_interval_homology(R, R.bottom, x, p)
                    )


# [0, t] has the one atom a, so condition (ii) holds at the top level; above
# a, the two chains a < b1 < c1 < t and a < b2 < c2 < t meet only at t, so
# (ii) fails in [a, t] whatever the order of b1 and b2.  Random keys on the
# sparse Eagon-Northcott posets up to 3x6 were seen to fail only at the top
# level, so only a poset like this one needs the recursion.
BELOW_THE_TOP = (
    [["0"], ["a"], ["b1", "b2"], ["c1", "c2"], ["t"]],
    [("0", "a"), ("a", "b1"), ("a", "b2"), ("b1", "c1"), ("b2", "c2"), ("c1", "t"),
     ("c2", "t")],
)


def test_a_failure_below_the_top_level_is_found():
    P = hand_made_poset(*BELOW_THE_TOP)
    R = ref_face_poset(P.cx)
    for key in (None, lambda label: 0, lambda label: label[::-1]):
        assert recursive_atom_ordering_check(P, atom_key=key) == ["t"]
        assert ref_recursive_atom_ordering_check(R, "t", atom_key=key) is False
        assert ref_recursive_atom_ordering_check(R, "c1", atom_key=key)


def test_every_atom_order_of_an_interval_matches():
    cx = sparse_eagon_northcott(diagonal_order(2, 4))
    P, R = _both(cx)
    verdicts = set()
    for x in cx.labels(3):
        for perm in permutations(atoms_of(P, x)):
            got = x not in recursive_atom_ordering_check(P, atom_key=permutation_key(P, perm))
            assert got == ref_recursive_atom_ordering_check(R, x, atom_order=list(perm))
            verdicts.add(got)
    assert verdicts == {True, False}


def test_a_complex_without_one_degree_zero_element_has_no_face_poset():
    one = Monomial.one()
    with pytest.raises(ValueError, match="unique degree-0 element"):
        face_poset(BasedComplex([[], [("a", one)]], {}))
    with pytest.raises(ValueError, match="unique degree-0 element"):
        face_poset(BasedComplex([[("0", one), ("1", one)]], {}))
