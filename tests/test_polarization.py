import random
from itertools import permutations
from math import comb

import pytest

from rainbowcw import (
    MonomialIdeal,
    PureComplex,
    alexander_dual,
    alexander_dual_complex,
    betti_table_formula,
    certify_polarization,
    diagonal_order,
    face_poset,
    find_free_sequence,
    free_vertices,
    initial_ideal_maximal_minors,
    initial_minor,
    koszul_betti,
    linearity_criterion,
    parse_monomial,
    rainbow_dfi,
    random_term_order,
    sparse_eagon_northcott,
    specialize,
)
from rainbowcw import polarization
from rainbowcw.determinantal import random_pure_complex
from rainbowcw.errors import SetupViolated
from rainbowcw.monomials import format_monomial
from rainbowcw.polarization import (
    FreeSequenceReport,
    _is_power_of_maximal,
    hilbert_profile,
    regular_profile_ok,
)
from rainbowcw.strands import induced_subcomplex
from tests.conftest import boocher_sequence, random_overlap_dual, replay_free_sequence


def test_free_vertices_worked_example(order35, dual35):
    cx = sparse_eagon_northcott(order35)
    poset = face_poset(cx)
    free = free_vertices(poset)
    for facet in dual35.sorted_facets():
        assert format_monomial(initial_minor(order35, facet)) in free


def test_free_vertices_simplex():
    # a single facet supports a simplex: every vertex is free
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    poset = face_poset(cx)
    free = free_vertices(poset)
    # the 2x3 complex is a path of two edges: ends free, middle not
    assert len(free) == 2 and "x[1,1] * x[2,3]" not in free


def test_free_vertices_reference_cells(order24_left):
    cx = sparse_eagon_northcott(order24_left)
    free = free_vertices(face_poset(cx))
    # the three outer corners of the subdivided triangle are free, the three
    # interior/mid vertices are not
    assert free == {"x[1,2] * x[2,4]", "x[1,4] * x[2,3]", "x[1,3] * x[2,1]"}


def test_find_free_sequence(order35, dual35):
    cx = sparse_eagon_northcott(order35)
    targets = [format_monomial(initial_minor(order35, f)) for f in dual35.sorted_facets()]
    report = find_free_sequence(cx, targets)
    assert report.found and set(report.ordering) == set(targets)
    assert replay_free_sequence(cx, report.ordering)

    assert find_free_sequence(cx, []).found

    o = diagonal_order(2, 3)
    cx23 = sparse_eagon_northcott(o)
    ends = ["x[1,1] * x[2,2]", "x[1,2] * x[2,3]"]
    assert find_free_sequence(cx23, ends).found


def test_find_free_sequence_failure():
    # the middle vertex of the 2x3 path is never free while both ends remain
    o = diagonal_order(2, 3)
    cx = sparse_eagon_northcott(o)
    report = find_free_sequence(cx, ["x[1,1] * x[2,3]"])
    assert not report.found


def test_linearity_criterion(order35, delta35):
    assert linearity_criterion(delta35, order35)
    full = alexander_dual_complex(PureComplex(3, 5, []))
    assert linearity_criterion(full, order35)  # empty dual
    with pytest.raises(SetupViolated):
        linearity_criterion(
            alexander_dual_complex(PureComplex(3, 5, [(1, 2, 3), (1, 2, 4)])), order35
        )


def find_nonlinear_instance(n, m, rng, tries=200):
    for _ in range(tries):
        order = random_term_order(n, m, rng)
        dual = random_overlap_dual(n, m, rng, max_facets=3)
        if len(dual) == 0:
            continue
        delta = alexander_dual_complex(dual)
        if not linearity_criterion(delta, order):
            return order, dual, delta
    raise AssertionError("no falsifying instance found")


def test_linearity_criterion_falsified_and_oracle_concurs():
    rng = random.Random(13)
    order, dual, delta = find_nonlinear_instance(3, 6, rng)
    table = koszul_betti(rainbow_dfi(delta, order))
    assert not table.rows_present() <= {0, 3 - 1}  # a nonlinear Betti entry exists


def test_betti_table_formula():
    assert betti_table_formula(3, 5, 2) == {(0, 0): 1, (1, 3): 8, (2, 4): 11, (3, 5): 4}
    assert betti_table_formula(2, 4, 0) == {(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3}
    from math import comb

    for n, m in [(2, 4), (2, 6), (3, 5), (3, 6)]:
        for r in range(3):
            table = betti_table_formula(n, m, r)
            ell = m - n + 1
            assert table[(ell, ell + n - 1)] == comb(m - 1, m - n) - r


def variable_differences_regular(delta, order, max_degree=None):
    """Two routes to regularity of the column variable differences on the
    rainbow DFI quotient, as (criterion, hilbert): the colon-grade criterion,
    and the Hilbert-function drop verified degree by degree."""
    criterion = linearity_criterion(delta, order)
    n, m = order.n, order.m
    variables = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
    profiles = hilbert_profile(
        list(rainbow_dfi(delta, order).gens), boocher_sequence(n, m),
        n + 3 if max_degree is None else max_degree, variables,
    )
    return criterion, regular_profile_ok(profiles)


def test_variable_differences_regular(order35, delta35):
    assert variable_differences_regular(delta35, order35, max_degree=6) == (True, True)

    o = diagonal_order(2, 3)
    full = alexander_dual_complex(PureComplex(2, 3, []))
    assert variable_differences_regular(full, o) == (True, True)


def test_variable_differences_regular_falsified():
    rng = random.Random(13)
    order, dual, delta = find_nonlinear_instance(3, 6, rng)
    assert variable_differences_regular(delta, order, max_degree=6) == (False, False)


def test_specialize(order35, delta35):
    rain = rainbow_dfi(delta35, order35)
    expected = MonomialIdeal(
        parse_monomial(s)
        for s in ("x[1]^2", "x[1] * x[2]^2", "x[2]^3", "x[1] * x[2] * x[3]",
                  "x[2]^2 * x[3]", "x[3]^2")
    )
    assert specialize(alexander_dual(rain)) == expected

    one_row = MonomialIdeal([parse_monomial("x[1,2] * x[1,3]")])
    assert specialize(one_row) == MonomialIdeal([parse_monomial("x[1]^2")])

    o23 = diagonal_order(2, 3)
    dual23 = alexander_dual(initial_ideal_maximal_minors(o23))
    m2 = MonomialIdeal(parse_monomial(s) for s in ("x[1]^2", "x[1] * x[2]", "x[2]^2"))
    assert specialize(dual23) == m2


def test_certify_polarization(order35, delta35):
    report = certify_polarization(delta35, order35)
    assert report.certified and report.linear and report.artinian
    assert report.regular_sequence_verified
    assert not report.is_power_of_maximal and report.r == 2
    expected = {
        "x[1]^2", "x[1] * x[2]^2", "x[2]^3", "x[1] * x[2] * x[3]",
        "x[2]^2 * x[3]", "x[3]^2",
    }
    assert {str(parse_monomial(s)) for s in report.specialized_gens} == {
        str(parse_monomial(s)) for s in expected
    }

    o23 = diagonal_order(2, 3)
    report = certify_polarization(alexander_dual_complex(PureComplex(2, 3, [])), o23)
    assert report.certified and report.is_power_of_maximal and report.r == 0

    rng = random.Random(13)
    order, dual, delta = find_nonlinear_instance(3, 6, rng)
    report = certify_polarization(delta, order)
    assert not report.linear and not report.certified


def test_certify_polarization_builds_one_rainbow_dfi(order35, delta35, monkeypatch):
    # the criterion still runs, on the ideal the certificate has built
    calls = []
    for name in ("rainbow_dfi", "linearity_criterion"):
        real = getattr(polarization, name)
        monkeypatch.setattr(polarization, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert certify_polarization(delta35, order35).linear
    assert sorted(calls) == ["linearity_criterion", "rainbow_dfi"]


def test_is_power_of_maximal_counts_the_generators():
    ideal = lambda *gens: MonomialIdeal(parse_monomial(g) for g in gens)
    square = ["x[1]^2", "x[1] * x[2]", "x[1] * x[3]", "x[2]^2", "x[2] * x[3]", "x[3]^2"]
    assert not _is_power_of_maximal(MonomialIdeal())
    assert _is_power_of_maximal(ideal("1"))
    assert _is_power_of_maximal(ideal(*square))
    assert not _is_power_of_maximal(ideal(*square[:-1]))
    assert not _is_power_of_maximal(ideal("x[1]^2", "x[1] * x[2]", "x[2]^3"))


def test_free_vertex_deletion_preserves_acyclicity(order35):
    # deleting a free vertex leaves the supported complex a resolution with
    # unchanged strand homology in positive degrees, and the top strand stays
    # contractible
    cx = sparse_eagon_northcott(order35)
    poset = face_poset(cx)
    total = None
    for label in cx.labels(1):
        total = cx.mdeg(label) if total is None else total.lcm(cx.mdeg(label))
    before = cx.strand_at(total).homology_ranks(32003)
    for v in sorted(free_vertices(poset)):
        smaller = induced_subcomplex(cx, set(cx.labels(1)) - {v})
        assert smaller.is_resolution()
        after = smaller.strand_at(total).homology_ranks(32003)
        assert after[0] == before[0] and not any(after[1:])


def test_equivalence_triangle_small_sample():
    rng = random.Random(47)
    for n, m in [(2, 5), (3, 5)]:
        for _ in range(10):
            order = random_term_order(n, m, rng)
            dual = random_overlap_dual(n, m, rng, max_facets=3)
            delta = alexander_dual_complex(dual)
            rain = rainbow_dfi(delta, order)
            if rain.is_zero():
                continue
            linear = linearity_criterion(delta, order)
            table = koszul_betti(rain)
            oracle_linear = table.rows_present() <= {0, n - 1}
            cx = sparse_eagon_northcott(order)
            targets = [format_monomial(initial_minor(order, f)) for f in dual.sorted_facets()]
            found = find_free_sequence(cx, targets).found
            assert linear == oracle_linear == found
            if linear:
                assert table.coarse() == betti_table_formula(n, m, len(dual))


def test_free_vertex_deletion_2x4(order24_left):
    cx = sparse_eagon_northcott(order24_left)
    total = None
    for label in cx.labels(1):
        total = cx.mdeg(label) if total is None else total.lcm(cx.mdeg(label))
    before = cx.strand_at(total).homology_ranks(32003)
    for v in sorted(free_vertices(face_poset(cx))):
        smaller = induced_subcomplex(cx, set(cx.labels(1)) - {v})
        assert smaller.is_resolution()
        after = smaller.strand_at(total).homology_ranks(32003)
        assert after[0] == before[0] and not any(after[1:])


def test_every_order_free_sequence_when_linear(order35, dual35, delta35):
    cx = sparse_eagon_northcott(order35)
    targets = [format_monomial(initial_minor(order35, f)) for f in dual35.sorted_facets()]
    assert linearity_criterion(delta35, order35)
    for perm in permutations(targets):
        assert replay_free_sequence(cx, perm)
    # a vertex already deleted lies in no facet, so replaying it again fails
    assert not replay_free_sequence(cx, targets + targets[:1])


# -- the memoized free-sequence search against the plain one ------------------


class _OverBudget(Exception):
    pass


def ref_facet_counts(cx, vertices):
    """How many facets contain each vertex, counted from the complex itself
    rather than its face poset: a facet is a label that is no entry's target,
    and it contains v when its vertex support does."""
    targets = {t for x in cx.all_labels() for t, _ in cx.out_entries(x)}
    facets = [x for x in cx.all_labels() if x not in targets]
    return {v: sum(v in cx.vertex_support(f) for f in facets) for v in vertices}


def ref_find_free_sequence(cx, targets, budget):
    """The backtracking search without a memo, giving up (``_OverBudget``)
    after ``budget`` search nodes: it is exponential in the targets.  Also
    returns the search states (remaining targets) it counted facets at, in
    visiting order."""
    targets = tuple(sorted(targets))
    visited = []

    def search(complex_, remaining):
        if not remaining:
            return []
        visited.append(remaining)
        if len(visited) > budget:
            raise _OverBudget
        counts = ref_facet_counts(complex_, remaining)
        candidates = sorted(
            (v for v in remaining if counts[v] == 1), key=lambda v: (counts[v], v)
        )
        for v in candidates:
            rest = tuple(w for w in remaining if w != v)
            smaller = induced_subcomplex(complex_, set(complex_.labels(1)) - {v})
            tail = search(smaller, rest)
            if tail is not None:
                return [(v, counts[v])] + tail
        return None

    result = search(cx, targets)
    if result is None:
        return FreeSequenceReport(targets, None), visited
    return FreeSequenceReport(targets, tuple(v for v, _ in result)), visited


def _free_seq_cases():
    """(order, dual) pairs at 2x4..3x6: per size, six duals of any size and
    six with at least 13 facets (or all of them, below 13), under the
    diagonal order and random ones; plus two 3x6 duals with 13 and 15
    facets and no free sequence that the plain search settles in under
    2000 nodes (most such duals take it far more)."""
    for n, m in [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6)]:
        for seed in range(12):
            rng = random.Random(f"{n}x{m} {seed}")
            order = diagonal_order(n, m) if seed % 2 == 0 else random_term_order(n, m, rng)
            top = comb(m, n)
            k = rng.randint(0, top) if seed < 6 else rng.randint(min(13, top), top)
            yield order, random_pure_complex(n, m, rng, k)
    for seed in (0, 14):
        rng = random.Random(f"free-seq {seed}")
        yield diagonal_order(3, 6), random_pure_complex(3, 6, rng, rng.randint(13, 20))


def test_memoized_free_sequence_matches_the_plain_search(monkeypatch):
    # The memoized search visits the states of the plain one, each once: it
    # builds one face poset per distinct state (and the plain search repeats
    # some of them on the failing cases).
    import rainbowcw.polarization as polarization

    posets = []

    def counted_face_poset(cx):
        posets.append(cx)
        return face_poset(cx)

    compared, repeated = [], 0
    for order, dual in _free_seq_cases():
        cx = sparse_eagon_northcott(order)
        targets = [format_monomial(initial_minor(order, f)) for f in dual.sorted_facets()]
        try:
            want, visited = ref_find_free_sequence(cx, targets, budget=2000)
        except _OverBudget:
            continue
        posets.clear()
        with monkeypatch.context() as patch:
            patch.setattr(polarization, "face_poset", counted_face_poset)
            got = find_free_sequence(cx, targets)
        assert got.to_json() == want.to_json()
        assert len(posets) == len(set(visited))
        compared.append((len(targets), want.found))
        repeated += len(visited) > len(set(visited))
    assert len(compared) >= 50
    assert sum(1 for r, found in compared if r >= 13 and found) >= 5
    assert sum(1 for r, found in compared if r >= 13 and not found) >= 3
    assert repeated >= 3


@pytest.mark.parametrize("n,m", [(2, 4), (2, 5), (3, 5), (2, 6), (3, 6)])
def test_free_vertices_match_the_facet_counts_of_the_complex(n, m):
    # The one free-vertex test, on EN complexes and induced subcomplexes
    # (the states of the free-sequence search), against facets counted from
    # the complex's own entries.
    rng = random.Random(f"free vertices {n}x{m}")
    for order in [diagonal_order(n, m)] + [random_term_order(n, m, rng) for _ in range(2)]:
        cx = sparse_eagon_northcott(order)
        verts = list(cx.labels(1))
        for k in [0] + [rng.randint(1, len(verts) - 1) for _ in range(4)]:
            sub = induced_subcomplex(cx, set(verts) - set(rng.sample(verts, k)))
            counts = ref_facet_counts(sub, sub.labels(1))
            assert free_vertices(face_poset(sub)) == {v for v, c in counts.items() if c == 1}


@pytest.mark.parametrize("n,m", [(2, 5), (3, 5), (3, 6)])
def test_deleted_vertices_fix_the_complex_whatever_their_order(n, m):
    # The memo keys a search node by its remaining targets alone: deleting a
    # vertex set one vertex at a time gives the same complex in every order.
    rng = random.Random(f"deletion order {n}x{m}")
    cx = sparse_eagon_northcott(random_term_order(n, m, rng))
    verts = list(cx.labels(1))
    for _ in range(6):
        gone = rng.sample(verts, rng.randint(1, len(verts) - 1))
        want = induced_subcomplex(cx, set(verts) - set(gone)).to_json()
        for _ in range(3):
            rng.shuffle(gone)
            current = cx
            for v in gone:
                current = induced_subcomplex(current, set(current.labels(1)) - {v})
            assert current.to_json() == want
