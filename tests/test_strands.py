import random
from itertools import combinations

import pytest

from rainbowcw import (
    BasedComplex,
    Monomial,
    PureComplex,
    alexander_dual_complex,
    chain_sign,
    diagonal_order,
    induced_subcomplex,
    is_linear_strand_of_module,
    koszul_betti,
    neighbors,
    parse_monomial,
    q_morphism,
    rainbow_dfi,
    rainbow_linear_strand,
    random_term_order,
    sparse_eagon_northcott,
    strand_via_kernel,
    support_chain,
    taylor_complex,
)
from rainbowcw.errors import AmbiguousEdges, NotChainMap, NotLinear, NotSupported, RainbowError
from rainbowcw.gfp import matrix_rank


def complexes_equal(a: BasedComplex, b: BasedComplex) -> bool:
    if a.ranks() != b.ranks():
        return False
    for i in a.degrees():
        if set(a.labels(i)) != set(b.labels(i)):
            return False
    return all(a.out_entries(l) == b.out_entries(l) for l in a.all_labels())


def test_neighbors_2x3():
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    ctx = neighbors(cx, "x[1,1] * x[2,2]", o)
    assert ctx.neighbors == ("x[1,1] * x[2,3]",)
    assert ctx.labels["x[1,1] * x[2,3]"] == Monomial.variable((2, 3))


def test_neighbors_isolated_vertex(order35):
    single = PureComplex(3, 5, [(1, 2, 3)])
    strand = rainbow_linear_strand(single, order35)
    assert strand.ranks() == (1, 1)
    v = strand.labels(1)[0]
    assert neighbors(strand, v, order35).neighbors == ()


def test_neighbor_counts_match_reference_cells(order24_left):
    # the heavy interior vertex of the first reference 2x4 picture meets four
    # edges; the three outer corners meet two each
    cx = sparse_eagon_northcott(order24_left)
    degrees = {
        v: len(neighbors(cx, v, order24_left).neighbors) for v in cx.labels(1)
    }
    assert degrees["x[1,2] * x[2,1]"] == 4
    assert sorted(degrees.values()) == [2, 2, 2, 3, 3, 4]


def test_support_chain_edge_and_errors():
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    edge = "x[1,1] * x[1,2] * x[2,3]"
    v = "x[1,1] * x[2,3]"
    chain = support_chain(cx, edge, v, o)
    assert chain.faces == (edge, v)
    with pytest.raises(NotSupported):
        support_chain(cx, edge, "x[1,1] * x[2,2]", o)


def _descending_chains(cx, face, v):
    """All descending cover chains from face to v."""
    if face == v:
        return [(v,)]
    out = []
    for q in cx.support(face):
        if v in cx.vertex_support(q):
            out.extend((face,) + c for c in _descending_chains(cx, q, v))
    return out


def test_support_chain_unique_2x4():
    o = diagonal_order(2, 4)
    cx = sparse_eagon_northcott(o)
    for v in cx.labels(1):
        ctx = neighbors(cx, v, o)
        for cell in cx.labels(3):
            if v not in cx.vertex_support(cell):
                continue
            chain = support_chain(cx, cell, v, o)
            assert len(chain.faces) - 1 == 2 and chain.faces[-1] == v
            met = [w for w in ctx.neighbors if w in cx.vertex_support(cell)]
            # exactly one descending chain satisfies the suffix condition
            good = 0
            for cand in _descending_chains(cx, cell, v):
                ok = True
                for k, face in enumerate(cand):
                    expect = set(met[k:])
                    have = {w for w in ctx.neighbors if w in cx.vertex_support(face)}
                    if have != expect:
                        ok = False
                        break
                if ok:
                    good += 1
                    assert cand == chain.faces
            assert good == 1


def test_chain_sign_edge_and_koszul():
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    edge = "x[1,1] * x[2,2] * x[2,3]"
    v = "x[1,1] * x[2,2]"
    assert chain_sign(cx, support_chain(cx, edge, v, o)) == cx.sign(edge, v)

    # Koszul complex: the chain sign agrees with the exterior-algebra sign of
    # extracting the vertex variable last
    K = taylor_complex([Monomial.variable((1, j)) for j in (1, 2, 3)])
    v = "e(0)"
    top = "e(0,1,2)"
    chain = support_chain(K, top, v)
    sign = chain_sign(K, chain)
    assert sign in (1, -1)
    # independent exterior computation: d drops e(1), then e(2)
    s1 = K.sign(top, "e(0,2)")
    s2 = K.sign("e(0,2)", "e(0)")
    assert sign == s1 * s2


def test_sign_lemma_exhaustive():
    for n, m in [(2, 3), (2, 4), (3, 4)]:
        o = diagonal_order(n, m)
        cx = sparse_eagon_northcott(o)
        for v in cx.labels(1):
            ctx = neighbors(cx, v, o)
            for i in range(2, cx.top_degree + 1):
                for face in cx.labels(i):
                    if v not in cx.vertex_support(face):
                        continue
                    met = [w for w in ctx.neighbors if w in cx.vertex_support(face)]
                    c_p = chain_sign(cx, support_chain(cx, face, v, o))
                    for idx, vi in enumerate(met, start=1):
                        want = set(met) - {vi}
                        qs = [
                            q
                            for q in cx.support(face)
                            if v in cx.vertex_support(q)
                            and {w for w in ctx.neighbors if w in cx.vertex_support(q)}
                            == want
                        ]
                        if len(qs) != 1:
                            continue
                        c_q = chain_sign(cx, support_chain(cx, qs[0], v, o))
                        assert cx.sign(face, qs[0]) * c_q == (-1) ** (idx + 1) * c_p


def test_q_morphism(order24_left):
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    v = "x[1,1] * x[2,2]"
    q = q_morphism(cx, v, o)  # NotChainMap would signal a sign bug
    edge = "x[1,1] * x[2,2] * x[2,3]"
    sign, subset = q.images[edge]
    assert subset == ("x[1,1] * x[2,3]",) and sign in (1, -1)
    assert "x[1,1] * x[1,2] * x[2,3]" not in q.images

    cx = sparse_eagon_northcott(order24_left)
    q = q_morphism(cx, "x[1,2] * x[2,1]", order24_left)
    assert len(q.context.neighbors) == 4

    # an isolated vertex gives the zero morphism above degree 1
    single = rainbow_linear_strand(PureComplex(3, 5, [(1, 2, 3)]), diagonal_order(3, 5))
    v = single.labels(1)[0]
    q = q_morphism(single, v, diagonal_order(3, 5))
    assert set(q.images) == {v}


def test_strand_via_kernel_examples():
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    ker = strand_via_kernel(cx, "x[1,2] * x[2,3]", o)
    assert ker.ranks() == (1, 2, 1)
    assert complexes_equal(
        ker, induced_subcomplex(cx, {"x[1,1] * x[2,2]", "x[1,1] * x[2,3]"})
    )

    o4 = diagonal_order(2, 4)
    cx4 = sparse_eagon_northcott(o4)
    corner = "x[1,3] * x[2,4]"
    ker = strand_via_kernel(cx4, corner, o4)
    assert ker.ranks() == (1, 5, 6, 2)
    linear_row = koszul_betti(
        rainbow_dfi(PureComplex(2, 4, [c for c in combinations(range(1, 5), 2) if c != (3, 4)]), o4)
    )
    assert linear_row.total_vector() == (1, 5, 6, 2)


def test_kernel_equals_restriction_sweep():
    rng = random.Random(31)
    for n, m in [(2, 4), (2, 5), (3, 4)]:
        order = random_term_order(n, m, rng)
        cx = sparse_eagon_northcott(order)
        for v in cx.labels(1):
            ker = strand_via_kernel(cx, v, order)
            ind = induced_subcomplex(cx, set(cx.labels(1)) - {v})
            assert complexes_equal(ker, ind)


def kernel_is_coordinate_by_rank(cx, v, order, p):
    """The rank formulation ``strand_via_kernel`` replaced: in each degree the
    images of the faces containing v, as columns over the Koszul generators
    they hit, are linearly independent over GF(p)."""
    q = q_morphism(cx, v, order)
    for i in range(2, cx.top_degree + 1):
        containing = [f for f in cx.labels(i) if f in q.images]
        rows: dict[tuple[str, ...], int] = {}
        columns = []
        for face in containing:
            c_p, subset = q.images[face]
            columns.append({rows.setdefault(subset, len(rows)): c_p})
        if matrix_rank(columns, len(rows), len(containing), p) != len(containing):
            return False
    return True


def kernel_is_coordinate(cx, v, order=None):
    try:
        strand_via_kernel(cx, v, order)
    except RainbowError as exc:
        if "not coordinate" not in str(exc):
            raise
        return False
    return True


def _bigon():
    """Two vertices joined by two edges of one multidegree, with opposite
    signs: both edges map to the one Koszul generator on {w}."""
    x1, x2, x12 = (parse_monomial(t) for t in ("x[1]", "x[2]", "x[1] * x[2]"))
    return BasedComplex(
        [[("1", Monomial.one())], [("v", x1), ("w", x2)], [("e1", x12), ("e2", x12)]],
        {("v", "1"): 1, ("w", "1"): 1,
         ("e1", "v"): 1, ("e1", "w"): -1, ("e2", "v"): -1, ("e2", "w"): 1},
    )


def test_a_bigon_has_no_coordinate_kernel():
    cx = _bigon()
    assert cx.check_complex()
    with pytest.raises(RainbowError, match="not coordinate in degree 2"):
        strand_via_kernel(cx, "v")
    for p in (2, 32003):
        assert not kernel_is_coordinate_by_rank(cx, "v", None, p)


@pytest.mark.parametrize("n,m", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6)])
def test_distinct_subsets_decide_the_kernel_as_the_rank_did(n, m):
    rng = random.Random(100 * n + m)
    for order in (diagonal_order(n, m), random_term_order(n, m, rng),
                  random_term_order(n, m, rng)):
        cx = sparse_eagon_northcott(order)
        for v in cx.labels(1):
            verdict = kernel_is_coordinate(cx, v, order)
            for p in (2, 32003):
                assert kernel_is_coordinate_by_rank(cx, v, order, p) == verdict, (v, p)


def test_induced_subcomplex(order35, delta35):
    cx = sparse_eagon_northcott(order35)
    assert complexes_equal(induced_subcomplex(cx, set(cx.labels(1))), cx)
    strand = rainbow_linear_strand(delta35, order35, cx)
    assert strand.ranks() == (1, 8, 11, 4)
    assert strand.check_complex()
    empty = induced_subcomplex(cx, set())
    assert empty.ranks() == (1,)


def test_induced_subcomplex_ambiguous_edges():
    top = parse_monomial("x[1] * x[2] * x[3]")
    basis = [
        [("1", Monomial.one())],
        [("u", parse_monomial("x[1] * x[2]")), ("v", parse_monomial("x[1] * x[3]")),
         ("w", parse_monomial("x[2] * x[3]"))],
        [("uv", top), ("vw", top)],
    ]
    diff = {
        ("u", "1"): 1, ("v", "1"): 1, ("w", "1"): 1,
        ("uv", "u"): 1, ("uv", "v"): -1,
        ("vw", "v"): 1, ("vw", "w"): -1,
    }
    cx = BasedComplex(basis, diff)
    with pytest.raises(AmbiguousEdges):
        induced_subcomplex(cx, {"u", "v"})


def is_linearly_connected(cx, v, order=None):
    """Every pair of neighbors of v whose monomials have a linear syzygy must
    span an edge of the complex."""
    try:
        ctx = neighbors(cx, v, order)
    except NotLinear:
        return False
    edge_supports = {frozenset(cx.support(e)) for e in cx.labels(2)}
    for w1, w2 in combinations(ctx.neighbors, 2):
        m1, m2 = cx.mdeg(w1), cx.mdeg(w2)
        if m1.degree == m2.degree and m1.lcm(m2).degree == m1.degree + 1:
            if frozenset({w1, w2}) not in edge_supports:
                return False
    return True


def test_is_linearly_connected():
    o = diagonal_order(2, 4)
    cx = sparse_eagon_northcott(o)
    assert all(is_linearly_connected(cx, v, o) for v in cx.labels(1))

    # a path u - v - w whose endpoints have a linear syzygy but no edge
    basis = [
        [("1", Monomial.one())],
        [("u", parse_monomial("x[1] * x[2]")), ("v", parse_monomial("x[2] * x[3]")),
         ("w", parse_monomial("x[1] * x[3]"))],
        [("uv", parse_monomial("x[1] * x[2] * x[3]")),
         ("vw", parse_monomial("x[1] * x[2] * x[3]"))],
    ]
    diff = {
        ("u", "1"): 1, ("v", "1"): 1, ("w", "1"): 1,
        ("uv", "u"): 1, ("uv", "v"): -1,
        ("vw", "v"): 1, ("vw", "w"): -1,
    }
    path = BasedComplex(basis, diff)
    assert not is_linearly_connected(path, "v")

    lonely = rainbow_linear_strand(PureComplex(3, 5, [(1, 2, 3)]), diagonal_order(3, 5))
    assert is_linearly_connected(lonely, lonely.labels(1)[0])


def test_rainbow_linear_strand(order35, delta35):
    strand = rainbow_linear_strand(delta35, order35)
    assert strand.ranks() == (1, 8, 11, 4)
    assert is_linear_strand_of_module(strand)
    oracle = koszul_betti(rainbow_dfi(delta35, order35))
    assert oracle.total_vector() == (1, 8, 11, 4)

    full = rainbow_linear_strand(alexander_dual_complex(PureComplex(3, 5, [])), order35)
    assert complexes_equal(full, sparse_eagon_northcott(order35))

    single = rainbow_linear_strand(PureComplex(3, 5, [(1, 2, 3)]), order35)
    assert single.ranks() == (1, 1)


def test_face_support_injectivity_and_maximal_support():
    rng = random.Random(37)
    for n, m in [(2, 4), (3, 5)]:
        order = random_term_order(n, m, rng)
        cx = sparse_eagon_northcott(order)
        supports = [cx.vertex_support(l) for i in range(1, cx.top_degree + 1) for l in cx.labels(i)]
        assert len(set(supports)) == len(supports)
        for v in cx.labels(1):
            ctx = neighbors(cx, v, order)
            for i in range(2, cx.top_degree + 1):
                for face in cx.labels(i):
                    if v in cx.vertex_support(face):
                        met = [w for w in ctx.neighbors if w in cx.vertex_support(face)]
                        assert len(met) == i - 1


def test_distinct_neighbor_labels():
    rng = random.Random(41)
    for n, m in [(2, 4), (3, 5)]:
        order = random_term_order(n, m, rng)
        cx = sparse_eagon_northcott(order)
        for v in cx.labels(1):
            ctx = neighbors(cx, v, order)
            labels = list(ctx.labels.values())
            assert len(set(labels)) == len(labels)


def test_strand_ranks_match_oracle_linear_row():
    rng = random.Random(43)
    for n, m in [(2, 4), (2, 5), (3, 5)]:
        for _ in range(5):
            order = random_term_order(n, m, rng)
            pool = list(combinations(range(1, m + 1), n))
            facets = rng.sample(pool, rng.randint(1, len(pool)))
            delta = PureComplex(n, m, facets)
            strand = rainbow_linear_strand(delta, order)
            assert is_linear_strand_of_module(strand)
            rain = rainbow_dfi(delta, order)
            table = koszul_betti(rain, degree_cap=m)
            linear_row = table.row(n - 1)
            ranks = strand.ranks()
            expected = {
                i: ranks[i] for i in range(1, len(ranks)) if ranks[i]
            }
            assert linear_row == expected


def test_colon_by_vertex_gives_neighbor_koszul_strand():
    # the quotient of the remaining generators by a vertex monomial resolves
    # like the Koszul complex on the neighbor labels (checked via the oracle)
    from math import comb

    from rainbowcw import MonomialIdeal, colon, initial_ideal_maximal_minors

    for n, m in [(2, 4), (3, 4)]:
        o = diagonal_order(n, m)
        cx = sparse_eagon_northcott(o)
        ideal = initial_ideal_maximal_minors(o)
        for v in cx.labels(1):
            m_v = cx.mdeg(v)
            rest = MonomialIdeal(g for g in ideal.gens if g != m_v)
            quotient = colon(rest, m_v)
            k = len(neighbors(cx, v, o).neighbors)
            row0 = koszul_betti(quotient).row(0)
            assert row0 == {0: 1, **{i: comb(k, i) for i in range(1, k + 1)}}


@pytest.mark.parametrize("n,m", [(2, 4), (3, 5), (3, 6)])
def test_support_chain_with_a_context_matches_the_one_it_builds(n, m):
    rng = random.Random(f"support chain {n}x{m}")
    for order in (diagonal_order(n, m), random_term_order(n, m, rng), None):
        cx = sparse_eagon_northcott(order or diagonal_order(n, m))
        for v in cx.labels(1):
            ctx = neighbors(cx, v, order)
            for face in cx.all_labels():
                if cx.degree_of(face) < 2 or v not in cx.vertex_support(face):
                    continue
                assert support_chain(cx, face, v, order, context=ctx) == support_chain(
                    cx, face, v, order
                )


def test_support_chain_rejects_a_context_for_another_vertex():
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    edge = "x[1,1] * x[1,2] * x[2,3]"
    other = neighbors(cx, "x[1,2] * x[2,3]", o)
    with pytest.raises(ValueError):
        support_chain(cx, edge, "x[1,1] * x[2,3]", o, context=other)


def _with_one_sign_flipped(cx: BasedComplex, src: str, tgt: str) -> BasedComplex:
    basis = [[(l, cx.mdeg(l)) for l in cx.labels(i)] for i in cx.degrees()]
    diff = {(s, t): sign for s in cx.all_labels() for t, sign in cx.out_entries(s)}
    diff[(src, tgt)] = -diff[(src, tgt)]
    return BasedComplex(basis, diff)


@pytest.mark.parametrize("n,m,flips,detections", [(2, 4, 26, 36), (3, 5, 51, 72)])
def test_every_single_sign_flip_breaks_the_comparison_square(n, m, flips, detections):
    # a flipped entry of degree >= 2 changes Q o d or d^K o Q at a face that
    # contains some vertex, so the morphism there is no chain map
    order = diagonal_order(n, m)
    cx = sparse_eagon_northcott(order)
    entries = [
        (src, tgt)
        for src in cx.all_labels()
        if cx.degree_of(src) >= 2
        for tgt, _ in cx.out_entries(src)
    ]
    assert len(entries) == flips
    caught = 0
    for src, tgt in entries:
        broken = _with_one_sign_flipped(cx, src, tgt)
        hits = 0
        for v in broken.labels(1):
            try:
                q_morphism(broken, v, order)
            except NotChainMap:
                hits += 1
        assert hits >= 1, (src, tgt)
        caught += hits
    assert caught == detections


def test_a_nonlinear_edge_has_no_neighbors():
    x12, x34 = parse_monomial("x[1] * x[2]"), parse_monomial("x[3] * x[4]")
    cx = taylor_complex([x12, x34])
    with pytest.raises(NotLinear):
        neighbors(cx, "e(0)")
    assert not is_linearly_connected(cx, "e(0)")


def test_neighbors_of_an_edge_are_refused():
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    with pytest.raises(ValueError, match="not a degree-1 basis element"):
        neighbors(cx, cx.labels(2)[0], o)
