"""The trusted ``BasedComplex.restrict`` against the validating restriction
it replaced, which rebuilt every subcomplex through ``BasedComplex.__init__``."""

import random

import pytest

from rainbowcw import BasedComplex, diagonal_order, sparse_eagon_northcott
from rainbowcw.monomials import lcm_of
from tests.test_determinantal import seeded_order

SIZES = [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)]
PRIMES = (2, 32003)


def ref_restrict(cx, keep):
    """Keep the listed labels, drop empty top layers, and validate the result
    (signs, labels, degrees, divisibility, sorted adjacency) from scratch."""
    keep_set = set(keep)
    basis = [[(l, cx.mdeg(l)) for l in cx.labels(i) if l in keep_set] for i in cx.degrees()]
    while basis and not basis[-1]:
        basis.pop()
    diff = {
        (src, tgt): sign
        for src in cx.all_labels()
        if src in keep_set
        for tgt, sign in cx.out_entries(src)
        if tgt in keep_set
    }
    return BasedComplex(basis, diff)


def keep_sets(cx, rng):
    """Random keep sets, each middle layer dropped whole, faces kept without
    one or two of their vertices, induced vertex sets, the empty set and a
    set with labels the complex does not have."""
    labels = cx.all_labels()
    verts = list(cx.labels(1))
    out = [[l for l in labels if rng.random() < 0.6] for _ in range(4)]
    for i in range(1, cx.top_degree):
        out.append([l for l in labels if cx.degree_of(l) != i])
    for k in range(3):
        lost = set(rng.sample(verts, min(len(verts), 1 + k % 2)))
        out.append([l for l in labels if l not in lost])
    for _ in range(3):
        wanted = set(rng.sample(verts, rng.randint(0, len(verts))))
        out.append([l for l in labels if cx.vertex_support(l) <= wanted])
    out.append([])
    out.append(labels[: len(labels) // 2] + ["x[9,9]", "nowhere"])
    return out


def assert_same_complex(got, want, parent, rng):
    assert got.to_json() == want.to_json()
    assert got.ranks() == want.ranks() and got.top_degree == want.top_degree
    assert [got.labels(i) for i in got.degrees()] == [want.labels(i) for i in want.degrees()]
    for label in want.all_labels():
        assert got.out_entries(label) == want.out_entries(label)
        assert got.vertex_support(label) == want.vertex_support(label)
        assert got.mdeg(label) is parent.mdeg(label)
        assert got.degree_of(label) == want.degree_of(label)
    assert got.check_complex() == want.check_complex()
    mdegs = [parent.mdeg(l) for l in parent.all_labels() if l != "1"]
    alphas = [lcm_of(mdegs)] + [lcm_of(rng.sample(mdegs, 3)) for _ in range(4)]
    for alpha in alphas:
        a, b = got.strand_at(alpha), want.strand_at(alpha)
        assert a.dims == b.dims
        for p in PRIMES:
            assert a.homology_ranks(p) == b.homology_ranks(p)


@pytest.mark.parametrize("n,m", SIZES)
def test_trusted_restrict_matches_the_validating_one(n, m):
    rng = random.Random(f"restrict {n}x{m}")
    for order in (diagonal_order(n, m), seeded_order(n, m, 2), seeded_order(n, m, 10_000)):
        cx = sparse_eagon_northcott(order)
        for label in cx.all_labels():
            cx.vertex_support(label)  # a filled cache must not leak into a restriction
        for keep in keep_sets(cx, rng):
            got, want = cx.restrict(keep), ref_restrict(cx, keep)
            assert_same_complex(got, want, cx, rng)
            # a restriction of a restriction, from the trusted copy
            inner = [l for l in want.all_labels() if rng.random() < 0.7]
            assert_same_complex(got.restrict(inner), ref_restrict(want, inner), cx, rng)


def test_a_face_that_loses_a_vertex_loses_it_from_its_support():
    cx = sparse_eagon_northcott(diagonal_order(2, 4))
    top = cx.labels(cx.top_degree)[0]
    lost = sorted(cx.vertex_support(top))[0]
    sub = cx.restrict(l for l in cx.all_labels() if l != lost)
    assert lost in cx.vertex_support(top)
    assert sub.vertex_support(top) == cx.vertex_support(top) - {lost}
