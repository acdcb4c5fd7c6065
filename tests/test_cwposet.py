import random
from itertools import permutations

import pytest

from rainbowcw import (
    Monomial,
    diagonal_order,
    export_poset,
    face_poset,
    is_cw_poset,
    is_thin,
    open_interval_homology,
    random_term_order,
    recursive_atom_ordering_check,
    sparse_eagon_northcott,
    taylor_complex,
)
from rainbowcw.complexes import BasedComplex
from rainbowcw.errors import SizeCap
from rainbowcw.monomials import members


def boolean_poset(v):
    """The face poset of the Koszul complex on v variables."""
    return face_poset(taylor_complex([Monomial.variable((1, j)) for j in range(1, v + 1)]))


def hand_made_poset(layers, covers):
    """The face poset of a based complex with the given labels per degree,
    multidegree 1 everywhere, and a +1 differential entry per (lower, upper)
    cover.  The complex need not square to zero."""
    one = Monomial.one()
    basis = [[(label, one) for label in layer] for layer in layers]
    return face_poset(BasedComplex(basis, {(hi, lo): 1 for lo, hi in covers}))


def chain_poset(length):
    """A chain c0 < c1 < ... < c_length."""
    labels = [f"c{k}" for k in range(length + 1)]
    return hand_made_poset([[l] for l in labels], zip(labels, labels[1:]))


def ranked(P):
    """(element, rank) pairs in basis order."""
    return [(x, P.rank(x)) for x in P.elements]


def atoms_of(P, x):
    """The atoms of [bottom, x], sorted by label."""
    return sorted(P.elements[k] for k in members(P.upper[0] & P.down[P.index[x]]))


def permutation_key(P, atoms):
    """An atom key that orders the rank-1 elements as listed in ``atoms`` and
    every other element by the default key, the multidegree."""
    position = {a: k for k, a in enumerate(atoms)}
    return lambda label: (position.get(label, -1), P.cx.mdeg(label).sort_key())


def test_face_poset_boolean():
    P = boolean_poset(3)
    for r, count in enumerate([1, 3, 3, 1]):
        assert sum(1 for _, rank in ranked(P) if rank == r) == count
    # covers realize subset inclusion: rank-k elements cover k elements
    for k, (_, r) in enumerate(ranked(P)):
        assert P.lower[k].bit_count() == r


def test_face_poset_sparse_en_sizes(order24_left):
    P = face_poset(sparse_eagon_northcott(order24_left))
    sizes = [sum(1 for _, r in ranked(P) if r == k) for k in range(4)]
    assert sizes == [1, 6, 8, 3]


def test_face_poset_single_generator():
    cx = taylor_complex([Monomial({(1, 1): 1, (2, 2): 1})])
    P = face_poset(cx)
    assert len(P) == 2 and is_thin(P)


def test_is_thin():
    assert is_thin(boolean_poset(4))
    assert is_thin(face_poset(sparse_eagon_northcott(diagonal_order(3, 5))))
    assert not is_thin(chain_poset(2))


def test_open_interval_homology():
    P = face_poset(sparse_eagon_northcott(diagonal_order(2, 3)))
    # below an edge: two points, a 0-sphere
    edge = "x[1,1] * x[1,2] * x[2,3]"
    assert open_interval_homology(P, P.bottom, edge) == {0: 1}
    B = boolean_poset(3)
    top = next(x for x, r in ranked(B) if r == 3)
    assert open_interval_homology(B, B.bottom, top) == {1: 1}
    vertex = next(x for x, r in ranked(P) if r == 1)
    assert open_interval_homology(P, P.bottom, vertex) == {-1: 1}


def test_open_interval_spheres_sparse_en(order35):
    P = face_poset(sparse_eagon_northcott(order35))
    for x, r in ranked(P)[1:]:
        assert open_interval_homology(P, P.bottom, x) == {r - 2: 1}


def test_recursive_atom_ordering():
    o = diagonal_order(3, 5)
    P = face_poset(sparse_eagon_northcott(o))
    key = lambda l: o.sort_key(P.cx.mdeg(l))
    assert recursive_atom_ordering_check(P, atom_key=key) == []

    B = boolean_poset(3)
    top = next(x for x, r in ranked(B) if r == 3)
    for perm in permutations(atoms_of(B, top)):
        assert recursive_atom_ordering_check(B, atom_key=permutation_key(B, perm)) == []


def test_atom_ordering_size_cap(monkeypatch):
    # [bottom, top] of a rank-4 Boolean lattice has 4 atoms, and every
    # [atom, top] has 3
    B = boolean_poset(4)
    monkeypatch.setattr("rainbowcw.cwposet.MAX_ATOMS", 4)
    assert recursive_atom_ordering_check(B) == []
    monkeypatch.setattr("rainbowcw.cwposet.MAX_ATOMS", 3)
    with pytest.raises(SizeCap, match="more than 3 atoms"):
        recursive_atom_ordering_check(B)


def test_atom_ordering_depth_cap(monkeypatch):
    # [bottom, top] of a rank-3 Boolean lattice is checked at depth 1 and its
    # upper intervals [atom, top], of length 2, at depth 2
    B = boolean_poset(3)
    monkeypatch.setattr("rainbowcw.cwposet.MAX_DEPTH", 2)
    assert recursive_atom_ordering_check(B) == []
    monkeypatch.setattr("rainbowcw.cwposet.MAX_DEPTH", 1)
    with pytest.raises(SizeCap, match="deeper than 1"):
        recursive_atom_ordering_check(B)


def test_a_failing_interval_does_not_hide_a_later_one_over_the_cap(monkeypatch):
    # [0, t] fails condition (ii) at the top level: its atoms a1 and a2 lie
    # below t, and the one cover b2 of a2 below t is not above a1.  The
    # later element w has one atom, but [a, w] has 13.  The pass visits
    # every state whether or not an interval fails, so the answer is
    # SizeCap, from is_cw_poset too, which runs the pass first: its root
    # state sees one atom below w, and the state at a sees 13.
    mids = [f"b{k}" for k in range(13)]
    P = hand_made_poset(
        [["0"], ["a1", "a2", "a"], ["c1", "c2", *mids], ["t", "w"]],
        [("0", "a1"), ("0", "a2"), ("a1", "c1"), ("a2", "c2"), ("c1", "t"), ("c2", "t"),
         ("0", "a"), *(("a", b) for b in mids), *((b, "w") for b in mids)],
    )
    assert P.index["t"] < P.index["w"]
    with pytest.raises(SizeCap, match="more than 12 atoms: \\[a, w\\] has 13"):
        recursive_atom_ordering_check(P)
    with pytest.raises(SizeCap, match="more than 12 atoms: \\[a, w\\] has 13"):
        is_cw_poset(P)
    monkeypatch.setattr("rainbowcw.cwposet.MAX_ATOMS", 13)
    assert recursive_atom_ordering_check(P) == ["t"]


def test_is_cw_poset_refuses_too_many_atoms_up_front(monkeypatch):
    # bottom < 13 atoms < one top: not thin, so not a CW poset, but the atom
    # count is checked first and the answer is SizeCap, not verdict false.
    atoms = [f"a{k}" for k in range(13)]
    P = hand_made_poset(
        [["0"], atoms, ["t"]], [("0", a) for a in atoms] + [(a, "t") for a in atoms]
    )
    monkeypatch.setattr("rainbowcw.cwposet.is_thin", lambda _: pytest.fail("ran thinness"))
    with pytest.raises(SizeCap, match="more than 12 atoms: \\[bottom, t\\] has 13"):
        is_cw_poset(P)


def test_is_cw_poset(order35):
    o = order35
    P = face_poset(sparse_eagon_northcott(o))
    key = lambda l: o.sort_key(P.cx.mdeg(l))
    cert = is_cw_poset(P, atom_key=key)
    assert cert.verdict and not cert.failures
    assert is_cw_poset(boolean_poset(3)).verdict

    bad = is_cw_poset(chain_poset(2))
    assert not bad.verdict
    assert any("thin" in f for f in bad.failures)


def test_incidence_sign_axiom(order24_left):
    cx = sparse_eagon_northcott(order24_left)
    sign = {(lo, hi): s for hi in cx.all_labels() for lo, s in cx.out_entries(hi)}
    for y in cx.all_labels():
        mids = [z for z, _ in cx.out_entries(y)]
        grands = {x for z in mids for x, _ in cx.out_entries(z)}
        for x in grands:
            middles = [z for z in mids if (x, z) in sign]
            assert len(middles) == 2
            a, b = middles
            assert sign[(a, y)] * sign[(x, a)] + sign[(b, y)] * sign[(x, b)] == 0


def upper_semimodularity_check(poset, mu, nu):
    """Every pair of interval elements covering a common interval element is
    covered by a common interval element."""
    upper = poset.upper
    interval = poset.interval(mu, nu)
    for x in members(interval):
        ups = members(upper[x] & interval)
        for a, u in enumerate(ups):
            for v in ups[a + 1 :]:
                if not upper[u] & upper[v] & interval:
                    return False
    return True


def test_upper_semimodularity(order24_left):
    B = boolean_poset(3)
    bottoms = [x for x, r in ranked(B) if r == 1]
    top = next(x for x, r in ranked(B) if r == 3)
    assert upper_semimodularity_check(B, bottoms[0], top)

    P = face_poset(sparse_eagon_northcott(diagonal_order(2, 4)))
    els = [x for x, r in ranked(P) if r >= 1]
    for mu in els:
        for nu in els:
            if P.interval(mu, nu):  # mu <= nu
                assert upper_semimodularity_check(P, mu, nu)

    # intervals from the bottom are not claimed, but at 2x3 both rank-2 tops
    # are upper semimodular from the bottom
    P23 = face_poset(sparse_eagon_northcott(diagonal_order(2, 3)))
    tops = [x for x, r in ranked(P23) if r == 2]
    assert sorted(tops) == ["x[1,1] * x[1,2] * x[2,3]", "x[1,1] * x[2,2] * x[2,3]"]
    assert all(upper_semimodularity_check(P23, P23.bottom, nu) for nu in tops)


def test_certificates_stable_across_primes():
    rng = random.Random(4)
    for n, m in [(2, 4), (3, 5)]:
        order = random_term_order(n, m, rng)
        P = face_poset(sparse_eagon_northcott(order))
        key = lambda l: order.sort_key(P.cx.mdeg(l))
        assert is_cw_poset(P, p=32003, atom_key=key).verdict
        assert is_cw_poset(P, p=2, atom_key=key).verdict


def _dot_counts(dot):
    """(node lines, edge lines, dashed edges, all lines) of a DOT export."""
    lines = dot.split("\n")
    nodes = [l for l in lines if "[label=" in l]
    edges = [l for l in lines if " -> " in l]
    return len(nodes), len(edges), sum("dashed" in l for l in edges), len(lines)


def test_export_poset():
    B2 = boolean_poset(2)
    dot = export_poset(B2.cx)
    assert dot.startswith("digraph face_poset {\n  rankdir=BT;\n") and dot.endswith("\n}")
    assert _dot_counts(dot)[:2] == (4, 4)

    # one node per element, 1 + 6 + 8 + 3, and one edge per differential entry
    cx = sparse_eagon_northcott(diagonal_order(2, 4))
    nodes, edges, dashed, lines = _dot_counts(export_poset(cx))
    entries = [s for hi in cx.all_labels() for _, s in cx.out_entries(hi)]
    assert (nodes, edges, lines) == (18, 32, 53)
    assert edges == len(entries) and dashed == entries.count(-1) > 0

    assert _dot_counts(export_poset(taylor_complex([]))) == (1, 0, 0, 4)
