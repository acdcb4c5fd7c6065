"""The CW certificate's once-per-poset interval work against the references.

``recursive_atom_ordering_check`` checks every closed lower interval in one
pass and returns the elements whose interval fails.  It must agree, element
by element, with the per-interval reference recursion: on seeded random
generic orders at the cw-certify sizes, on the diagonal order at 2x7, under
random atom keys, and on posets that fail the certificate.

``open_interval_homology`` concatenates the chain lists that the poset
builds once.  The list it passes on must hold exactly the chains of the
interval, each once, every face before its cofaces.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from rainbowcw import (
    cli,
    diagonal_order,
    face_poset,
    is_cw_poset,
    open_interval_homology,
    random_term_order,
    recursive_atom_ordering_check,
    sparse_eagon_northcott,
)
from rainbowcw import cwposet
from rainbowcw.monomials import members
from tests.test_cwposet import hand_made_poset
from tests.test_cwposet_matching import CERTIFY_SIZES, _failing_posets, chains_of
from tests.test_cwposet_reference import (
    BELOW_THE_TOP,
    ref_face_poset,
    ref_recursive_atom_ordering_check,
)


def _random_order(n, m):
    return random_term_order(n, m, random.Random(1000 * n + m))


def _order_key(P, order):
    return lambda label: order.sort_key(P.cx.mdeg(label))


def _random_keys(P, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        values = {x: rng.random() for x in P.elements}
        yield values.__getitem__


def assert_same_failures(P, key) -> list[str]:
    """The one pass and the reference name the same failing elements, in
    element order, so the first failing element agrees too."""
    R = ref_face_poset(P.cx)
    want = [x for x in P.elements if not ref_recursive_atom_ordering_check(R, x, atom_key=key)]
    got = recursive_atom_ordering_check(P, atom_key=key)
    assert got == want
    if want:
        line = f"recursive atom ordering of [bottom, {want[0]}]"
        assert line in is_cw_poset(P, 2, key).failures
    return got


@pytest.mark.parametrize("n,m", CERTIFY_SIZES)
def test_one_pass_matches_the_reference_on_random_orders(n, m):
    order = _random_order(n, m)
    P = face_poset(sparse_eagon_northcott(order))
    assert assert_same_failures(P, _order_key(P, order)) == []
    for key in _random_keys(P, 5, 1000 * n + m):
        assert_same_failures(P, key)


def test_one_pass_matches_the_reference_on_the_2x7_diagonal():
    order = diagonal_order(2, 7)
    P = face_poset(sparse_eagon_northcott(order))
    assert assert_same_failures(P, _order_key(P, order)) == []
    assert assert_same_failures(P, None) == []
    failing = [assert_same_failures(P, key) for key in _random_keys(P, 3, 27)]
    # some element after the first failing one passes, so a pass that
    # failed every element from there on would not agree
    assert any(f and len(f) < len(P) - P.index[f[0]] for f in failing)


def test_one_pass_matches_the_reference_on_failing_posets():
    posets = list(_failing_posets()) + [("below the top", hand_made_poset(*BELOW_THE_TOP))]
    for name, P in posets:
        for key in (None, lambda label: 0, *_random_keys(P, 3, 5)):
            assert_same_failures(P, key)
    below = posets[-1][1]
    assert recursive_atom_ordering_check(below) == ["t"]


# [b, x] is the face lattice of a square, and a second atom a lies below its
# adjacent corners p and r.  The corners in cyclic order are p, r, q, s, and
# sorted by label they are p, q, r, s, which puts the opposite corners p and
# q first.  In [b, x], the corners above the earlier atom a, p and r, come
# first, and the induced order p, r, q, s is a recursive atom ordering; the
# label order alone would fail (ii) at x.
FIRST_BLOCK = (
    [["0"], ["a", "b"], ["p", "q", "r", "s"], ["pr", "qr", "qs", "ps"], ["x"]],
    [("0", "a"), ("0", "b"), ("a", "p"), ("a", "r"),
     *(("b", v) for v in "pqrs"),
     ("p", "pr"), ("r", "pr"), ("r", "qr"), ("q", "qr"), ("q", "qs"), ("s", "qs"),
     ("s", "ps"), ("p", "ps"), *((e, "x") for e in ("pr", "qr", "qs", "ps"))],
)


def test_the_first_block_decides_an_upper_interval():
    P = hand_made_poset(*FIRST_BLOCK)
    assert assert_same_failures(P, None) == []
    # a key that puts b first leaves no earlier atom, and the square fails
    assert assert_same_failures(P, lambda label: label != "b") == ["x"]


# -- the shared chain lists -------------------------------------------------------


def recorded_chains(P, x, y, monkeypatch) -> list[int]:
    """The chain list open_interval_homology passes on for (x, y)."""
    seen = []

    def record(chains, p):
        seen.append(chains)
        return {}

    monkeypatch.setattr(cwposet, "order_complex_reduced_homology", record)
    open_interval_homology(P, x, y)
    monkeypatch.undo()
    return seen[0]


def assert_chains_of_the_interval(P, x, y, monkeypatch) -> None:
    chains = recorded_chains(P, x, y, monkeypatch)
    inside = P.interval(x, y) & ~(1 << P.index[x]) & ~(1 << P.index[y])
    assert len(set(chains)) == len(chains), (x, y)
    assert set(chains) == set(chains_of(inside, P.up)), (x, y)
    place = {c: k for k, c in enumerate(chains)}
    for c, k in place.items():
        assert all(place[c ^ 1 << v] < k for v in members(c)), (x, y, c)


def _intervals(P):
    for x in P.elements:
        for y in P.elements:
            if x != y and P.interval(x, y):
                yield x, y


@pytest.mark.parametrize("n,m", [(2, 4), (3, 5), (2, 6)])
def test_every_interval_gets_its_chains_once_faces_first(n, m, monkeypatch):
    P = face_poset(sparse_eagon_northcott(_random_order(n, m)))
    for x, y in _intervals(P):
        assert_chains_of_the_interval(P, x, y, monkeypatch)


def test_lower_intervals_of_the_2x7_diagonal_get_their_chains(monkeypatch):
    P = face_poset(sparse_eagon_northcott(diagonal_order(2, 7)))
    for y in P.elements[1:]:
        assert_chains_of_the_interval(P, P.bottom, y, monkeypatch)


def test_failing_posets_get_the_chains_of_every_interval(monkeypatch):
    # the holed posets have elements below y that are not above the bottom
    for name, P in _failing_posets():
        for x, y in _intervals(P):
            assert_chains_of_the_interval(P, x, y, monkeypatch)


def test_a_face_poset_builds_no_chains_until_asked():
    P = face_poset(sparse_eagon_northcott(diagonal_order(2, 4)))
    assert P._chains is None
    lists = P.chains_ending()
    assert P.chains_ending() is lists and len(lists) == len(P)


# The chain lists live as long as the poset.  The parent commit, which listed
# each interval's chains afresh, peaked at 5.3-5.6 MB here (Python 3.11); the
# shared lists peak at 6.8-7.2 MB.  The bound leaves 50 % over the parent's
# peak: one list of chains kept per interval instead would pass it.
PEAK_BOUND_MB = 8.5


def test_cw_check_at_2x7_stays_under_its_memory_bound(tmp_path):
    argv = ["cw-check", "-n", "2", "-m", "7", "--prime", "2", "-o", str(tmp_path / "cw.json")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < PEAK_BOUND_MB
