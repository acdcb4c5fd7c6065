"""Interval homology by element matchings against the elimination.

``order_complex_reduced_homology`` reads the ranks off the chains that its
element matchings leave unpaired, and eliminates only when two of those
critical chains differ in size by one.  Here it must agree with the
elimination of the same chains (``gfp.cell_homology``) and with the
tuple-chain reference, at p = 2 and p = 32003, on every open lower interval
of the face posets that the CLI certifies and of posets that fail the
certificate.  Two small posets leave critical chains in adjacent sizes and
must take the elimination.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from rainbowcw import (
    diagonal_order,
    face_poset,
    is_cw_poset,
    open_interval_homology,
    random_term_order,
    sparse_eagon_northcott,
)
from rainbowcw import cwposet
from rainbowcw.cwposet import order_complex_reduced_homology
from rainbowcw.gfp import cell_homology
from rainbowcw.monomials import members
from tests.test_cwposet import chain_poset, hand_made_poset
from tests.test_cwposet_reference import ref_face_poset, ref_open_interval_homology

PRIMES = (2, 32003)


def chains_of(elements: int, up) -> list[int]:
    """Every chain of the order complex as an index mask, the empty chain
    first, in depth-first preorder."""
    chains = [0]

    def extend(chain: int, above: int) -> None:
        for z in members(above):
            longer = chain | 1 << z
            chains.append(longer)
            extend(longer, up[z] & above & ~(1 << z))

    extend(0, elements)
    return chains


def eliminated(chains: list[int], p: int) -> dict[int, int]:
    """The reduced homology by elimination of the boundary matrices of every
    chain, with the empty chain as the (-1)-cell."""
    hom = cell_homology(chains, max(c.bit_count() for c in chains), p)
    return {d - 1: h for d, h in enumerate(hom) if h}


def lower_intervals(P):
    """(top label, open lower interval as an index mask) for every element
    above the bottom."""
    for k, x in enumerate(P.elements[1:], start=1):
        yield x, P.down[k] & ~1 & ~(1 << k)


def assert_gate(P) -> None:
    R = ref_face_poset(P.cx)
    for x, elements in lower_intervals(P):
        chains = chains_of(elements, P.up)
        for p in PRIMES:
            got = order_complex_reduced_homology(chains, p)
            assert got == eliminated(chains, p), (x, p)
            assert got == ref_open_interval_homology(R, R.bottom, x, p), (x, p)
            assert got == open_interval_homology(P, P.bottom, x, p), (x, p)


# The cw-certify sizes, each under a seeded random generic order.
CERTIFY_SIZES = [(2, 4), (3, 4), (2, 5), (3, 5), (4, 5), (2, 6), (3, 6), (4, 6)]


@pytest.mark.parametrize("n,m", CERTIFY_SIZES)
def test_counts_match_the_elimination_on_random_orders(n, m):
    order = random_term_order(n, m, random.Random(1000 * n + m))
    assert_gate(face_poset(sparse_eagon_northcott(order)))


def test_counts_match_the_elimination_on_the_golden_2x7():
    # cw-check -n 2 -m 7: the largest order complexes of the suite
    assert_gate(face_poset(sparse_eagon_northcott(diagonal_order(2, 7))))


def _failing_posets():
    yield "chain", chain_poset(3)
    for name, order in (
        ("2x4 diagonal", diagonal_order(2, 4)),
        ("3x5 random", random_term_order(3, 5, random.Random(7 * 3 + 5))),
    ):
        cx = sparse_eagon_northcott(order)
        for v in cx.labels(1)[:3]:
            yield f"{name} without {v}", face_poset(
                cx.restrict(l for l in cx.all_labels() if l != v)
            )


def test_counts_match_the_elimination_on_posets_that_fail_the_certificate():
    for name, P in _failing_posets():
        cert = is_cw_poset(P)
        assert not cert.thin, name
        assert_gate(P)


# Two posets whose element matchings leave critical chains in adjacent sizes.
# A path a - ac - c - bc - b, between a bottom and a top: a contractible open
# interval, which leaves one critical vertex and one critical edge.
PATH = (
    [["o"], ["a", "b", "c"], ["bc", "ac"], ["t"]],
    [("o", "a"), ("o", "b"), ("o", "c"), ("b", "bc"), ("c", "bc"), ("a", "ac"),
     ("c", "ac"), ("bc", "t"), ("ac", "t")],
)
# A square disk whose first two vertices are opposite corners: its boundary
# circle a - ac - c - bc - b - bd - d - ad - a leaves one critical vertex and
# two critical edges.
SQUARE = (
    [["o"], ["a", "b", "c", "d"], ["bc", "ad", "ac", "bd"], ["t"]],
    [("o", "a"), ("o", "b"), ("o", "c"), ("o", "d"), ("b", "bc"), ("c", "bc"),
     ("a", "ad"), ("d", "ad"), ("a", "ac"), ("c", "ac"), ("b", "bd"), ("d", "bd"),
     ("bc", "t"), ("ad", "t"), ("ac", "t"), ("bd", "t")],
)


def _critical_sizes(elements, up):
    """The critical chains of the element matchings, counted per size, by a
    plain pairing on a list of unpaired chains."""
    unpaired = chains_of(elements, up)
    for v in members(elements):
        bit = 1 << v
        paired = {c for c in unpaired if c & bit and c ^ bit in unpaired}
        unpaired = [c for c in unpaired if c not in paired and c | bit not in paired]
    return Counter(c.bit_count() for c in unpaired)


@pytest.mark.parametrize(
    "poset,critical,homology",
    [(PATH, {1: 1, 2: 1}, {}), (SQUARE, {1: 1, 2: 2}, {1: 1})],
    ids=["contractible path", "square"],
)
@pytest.mark.parametrize("p", PRIMES)
def test_adjacent_critical_sizes_take_the_elimination(poset, critical, homology, p, monkeypatch):
    P = hand_made_poset(*poset)
    elements = P.interval("o", "t") & ~1 & ~(1 << P.index["t"])
    assert _critical_sizes(elements, P.up) == critical
    calls = []

    def recorded(cells, top, q):
        calls.append(q)
        return cell_homology(cells, top, q)

    monkeypatch.setattr(cwposet, "cell_homology", recorded)
    assert open_interval_homology(P, "o", "t", p) == homology
    assert calls == [p]
    R = ref_face_poset(P.cx)
    assert ref_open_interval_homology(R, "o", "t", p) == homology


def test_the_square_is_thin_and_its_intervals_are_spheres():
    cert = is_cw_poset(hand_made_poset(*SQUARE))
    assert cert.thin and cert.interval_spheres
    cert = is_cw_poset(hand_made_poset(*PATH))
    assert not cert.interval_spheres


def test_sparse_en_intervals_are_decided_by_counts(order35, monkeypatch):
    # every open lower interval of a CW poset of the sparse EN complex leaves
    # one critical chain, so no boundary matrix is built
    monkeypatch.setattr(cwposet, "cell_homology", lambda *args: pytest.fail("eliminated"))
    for order in (order35, diagonal_order(2, 6)):
        P = face_poset(sparse_eagon_northcott(order))
        assert is_cw_poset(P, 2).interval_spheres


def test_open_interval_needs_x_below_y():
    P = face_poset(sparse_eagon_northcott(diagonal_order(2, 3)))
    a, b = P.cx.labels(1)[:2]
    top = P.cx.labels(P.cx.top_degree)[0]
    for x, y in ((a, b), (top, P.bottom), (top, top), (P.bottom, P.bottom)):
        with pytest.raises(ValueError, match="open interval"):
            open_interval_homology(P, x, y)
    assert open_interval_homology(P, P.bottom, a) == {-1: 1}


@pytest.mark.parametrize("p", [1, 4])
def test_a_bad_prime_raises_when_counts_decide(p):
    P = face_poset(sparse_eagon_northcott(diagonal_order(2, 3)))
    with pytest.raises(ValueError, match="prime"):
        open_interval_homology(P, P.bottom, P.cx.labels(2)[0], p)
