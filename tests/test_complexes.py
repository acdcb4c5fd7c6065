import pytest

from rainbowcw import (
    BasedComplex,
    Monomial,
    MonomialIdeal,
    is_linear_strand_of_module,
    koszul_betti,
    parse_monomial,
    rainbow_dfi,
    sparse_eagon_northcott,
    taylor_complex,
)
from rainbowcw import alexander_dual, diagonal_order
from rainbowcw.complexes import lcm_closure
from rainbowcw.polarization import hilbert_profile, regular_profile_ok
from rainbowcw.errors import GradingViolation, NotHomogeneous
from rainbowcw.ideals import _all_monomials
from tests.conftest import boocher_sequence, in_ideal


def test_check_complex_koszul_and_sign_flip():
    cx = taylor_complex([Monomial.variable((1, j)) for j in (1, 2)])  # Koszul
    assert cx.check_complex()
    flipped = {
        (src, tgt): (-sign if (src, tgt) == ("e(0,1)", "e(0)") else sign)
        for src in cx.all_labels()
        for tgt, sign in cx.out_entries(src)
    }
    basis = [[(l, cx.mdeg(l)) for l in cx.labels(i)] for i in cx.degrees()]
    assert not BasedComplex(basis, flipped).check_complex()


def test_grading_violation():
    basis = [[("1", Monomial.one())], [("g", parse_monomial("x[1,1]"))],
             [("e", parse_monomial("x[1,2]"))]]
    with pytest.raises(GradingViolation):
        BasedComplex(basis, {("g", "1"): 1, ("e", "g"): 1})


def test_strand_dimensions():
    cx = sparse_eagon_northcott(diagonal_order(2, 3))
    assert cx.strand_at(parse_monomial("x[1,1] * x[1,2] * x[2,3]")).dims == [1, 2, 1]
    assert cx.strand_at(Monomial.one()).dims == [1, 0, 0]
    total = Monomial.one()
    for label in cx.labels(1):
        total = total.lcm(cx.mdeg(label))
    assert cx.strand_at(total).dims == [1, 3, 2]


def _truncated(cx, top):
    """The subcomplex of the cells in degrees <= top."""
    return cx.restrict(l for l in cx.all_labels() if cx.degree_of(l) <= top)


def test_is_resolution():
    assert sparse_eagon_northcott(diagonal_order(2, 3)).is_resolution()
    assert taylor_complex([Monomial.variable((1, j)) for j in range(1, 5)]).is_resolution()
    gens = [parse_monomial(s) for s in ("x[1] * x[2]", "x[2] * x[3]", "x[1] * x[3]")]
    truncated = _truncated(taylor_complex(gens), 2)  # drop the top cell: a syzygy survives
    assert truncated.check_complex()
    assert not truncated.is_resolution()


def test_koszul_betti_principal_and_hand_minimalized():
    principal = MonomialIdeal([parse_monomial("x[1,1] * x[2,2]")])
    table = koszul_betti(principal)
    assert table.entries == {
        (0, Monomial.one()): 1,
        (1, parse_monomial("x[1,1] * x[2,2]")): 1,
    }

    # three generators whose Taylor complex minimalizes by hand to (1, 3, 2)
    ideal = MonomialIdeal(
        parse_monomial(s)
        for s in ("x[1,1] * x[2,2]", "x[1,1] * x[2,3]", "x[1,2] * x[2,3]")
    )
    table = koszul_betti(ideal)
    assert table.total_vector() == (1, 3, 2)
    assert table.coarse() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_betti_oracle_consistency_coarse_vs_multigraded(order35, delta35):
    rain = rainbow_dfi(delta35, order35)
    table = koszul_betti(rain)
    assert table.totals()[0] == 1
    coarse = table.coarse()
    for i, total in table.totals().items():
        assert total == sum(v for (k, _), v in coarse.items() if k == i)


def _hand_resolution_two_var():
    """Minimal resolution of the quotient by (x1^2, x1*x2, x2^3) in two
    variables; expected values frozen from the Koszul oracle below."""
    g1, g2, g3 = (parse_monomial(s) for s in ("x[1]^2", "x[1] * x[2]", "x[2]^3"))
    s1 = parse_monomial("x[1]^2 * x[2]")
    s2 = parse_monomial("x[1] * x[2]^3")
    basis = [
        [("1", Monomial.one())],
        [("g1", g1), ("g2", g2), ("g3", g3)],
        [("s1", s1), ("s2", s2)],
    ]
    diff = {
        ("g1", "1"): 1, ("g2", "1"): 1, ("g3", "1"): 1,
        ("s1", "g1"): 1, ("s1", "g2"): -1,
        ("s2", "g2"): 1, ("s2", "g3"): -1,
    }
    return BasedComplex(basis, diff)


def linear_strand(cx):
    """Restrict a minimal graded complex (augmented at degree 0) to the basis
    elements of total degree d + (i - 1) in homological degree i >= 1, where d
    is the least total degree of a degree-1 element.  A complex with an
    entry between equal multidegrees (a unit coefficient) is not minimal and
    raises ValueError."""
    if any(cx.mdeg(s) == cx.mdeg(t) for s in cx.all_labels() for t, _ in cx.out_entries(s)):
        raise ValueError("linear strand of a nonminimal complex is not defined")
    firsts = cx.labels(1)
    if not firsts:
        return cx
    d = min(cx.mdeg(l).degree for l in firsts)
    return cx.restrict(
        l for l in cx.all_labels()
        if cx.degree_of(l) == 0 or cx.mdeg(l).degree == d + cx.degree_of(l) - 1
    )


def test_linear_strand():
    cx = _hand_resolution_two_var()
    ideal = MonomialIdeal(cx.mdeg(l) for l in cx.labels(1))
    oracle = koszul_betti(ideal)
    # the hand complex matches the oracle, so it is the minimal resolution
    assert oracle.total_vector() == (1, 3, 2)
    assert {alpha for (i, alpha) in oracle.entries if i == 2} == {
        cx.mdeg("s1"), cx.mdeg("s2")
    }
    assert cx.check_complex() and cx.is_resolution()

    strand = linear_strand(cx)
    assert strand.ranks() == (1, 2, 1)
    assert strand.labels(2) == ("s1",)  # only the linear syzygy survives
    assert strand.check_complex()

    lin = sparse_eagon_northcott(diagonal_order(2, 4))
    again = linear_strand(lin)
    assert again.ranks() == lin.ranks()  # an already linear complex is fixed

    nonmin_basis = [
        [("1", Monomial.one())],
        [("a", parse_monomial("x[1]"))],
        [("b", parse_monomial("x[1]"))],
    ]
    nonmin = BasedComplex(nonmin_basis, {("a", "1"): 1, ("b", "a"): 1})
    with pytest.raises(ValueError, match="nonminimal"):
        linear_strand(nonmin)


def _two_cycle_complex():
    """Three vertices xy, xz, yz joined pairwise by edges of multidegree xyz,
    with no 2-cell: the alternating sum of the edges is a non-bounding cycle."""
    u, v, w = (parse_monomial(s) for s in ("x[1] * x[2]", "x[1] * x[3]", "x[2] * x[3]"))
    top = parse_monomial("x[1] * x[2] * x[3]")
    basis = [
        [("1", Monomial.one())],
        [("u", u), ("v", v), ("w", w)],
        [("uv", top), ("uw", top), ("vw", top)],
    ]
    diff = {
        ("u", "1"): 1, ("v", "1"): 1, ("w", "1"): 1,
        ("uv", "u"): 1, ("uv", "v"): -1,
        ("uw", "u"): 1, ("uw", "w"): -1,
        ("vw", "v"): 1, ("vw", "w"): -1,
    }
    return BasedComplex(basis, diff)


def test_is_linear_strand_of_module(order35, delta35):
    from rainbowcw import rainbow_linear_strand

    strand = rainbow_linear_strand(delta35, order35)
    assert is_linear_strand_of_module(strand)

    cyc = _two_cycle_complex()
    assert cyc.check_complex()
    assert not is_linear_strand_of_module(cyc)

    trivial = BasedComplex([[("1", Monomial.one())]], {})
    assert is_linear_strand_of_module(trivial)


def test_regularity():
    # the regularity of a quotient is its last Betti row
    table = koszul_betti(MonomialIdeal([Monomial.variable(i) for i in (1, 2, 3)]))
    assert max(table.rows_present()) == 0

    # dual of the complement of a single 2-subset of [4]: the ideal's
    # table has regularity m - n + 1 (n=2, m=4), the quotient's one less
    pool = _all_monomials(4, 2, squarefree=True)
    K = MonomialIdeal(m for m in pool if m != parse_monomial("x[1] * x[2]"))
    dual = alexander_dual(K)
    table = koszul_betti(dual)
    assert max(table.rows_present()) == 2


def test_regularity_worked_example(order35, delta35):
    # quotient table sits in row n - 1 = 2; the ideal's regularity is n
    table = koszul_betti(rainbow_dfi(delta35, order35))
    assert sorted(table.rows_present()) == [0, 2]


def _standard_count(gens, d, n_vars):
    ideal = MonomialIdeal(gens)
    return sum(1 for m in _all_monomials(n_vars, d, squarefree=False) if not in_ideal(ideal, m))


def test_hilbert_function():
    variables = [1, 2]
    assert hilbert_profile([], [], 3, variables) == [[1, 2, 3, 4]]
    diff = (Monomial.variable(1), Monomial.variable(2))
    assert hilbert_profile([diff], [], 3, variables) == [[1, 1, 1, 1]]
    xy = parse_monomial("x[1] * x[2]")
    assert hilbert_profile([xy, diff], [], 3, variables) == [[1, 1, 0, 0]]
    with pytest.raises(NotHomogeneous):
        hilbert_profile([(Monomial.variable(1), parse_monomial("x[2]^2"))], [], 2, variables)


def test_hilbert_matches_enumeration():
    gens = [parse_monomial(s) for s in ("x[1]^2 * x[2]", "x[2] * x[3]^2", "x[1] * x[3]")]
    [hf] = hilbert_profile(gens, [], 6, [1, 2, 3])
    for d in range(7):
        assert hf[d] == _standard_count(gens, d, 3)


def test_verify_regular_sequence():
    from rainbowcw import initial_ideal_maximal_minors

    order = diagonal_order(2, 3)
    ideal = initial_ideal_maximal_minors(order)
    variables = [(i, j) for i in (1, 2) for j in (1, 2, 3)]
    profiles = hilbert_profile(list(ideal.gens), boocher_sequence(2, 3), 4, variables)
    assert regular_profile_ok(profiles)

    xy = parse_monomial("x[1] * x[2]")
    diff = (Monomial.variable(1), Monomial.variable(2))
    assert regular_profile_ok(hilbert_profile([xy], [diff], 3, [1, 2]))
    # x1 is a zerodivisor mod (x1 x2): the Hilbert drop fails in degree 2
    assert not regular_profile_ok(hilbert_profile([xy], [Monomial.variable(1)], 3, [1, 2]))


def test_lcm_closure_contains_subset_lcms():
    gens = [parse_monomial(s) for s in ("x[1] * x[2]", "x[2] * x[3]", "x[3] * x[4]")]
    closure = set(lcm_closure(gens))
    total = Monomial.one()
    for g in gens:
        total = total.lcm(g)
    assert total in closure


def test_resolution_verdict_stable_under_extra_multidegrees():
    # sweeping extra non-lcm multidegrees never changes the verdict
    import random

    rng = random.Random(51)
    for n, m in [(2, 3), (2, 4)]:
        cx = sparse_eagon_northcott(diagonal_order(n, m))
        assert cx.is_resolution()
        variables = [(i, j) for i in range(1, n + 1) for j in range(1, m + 1)]
        for _ in range(25):
            alpha = Monomial({rng.choice(variables): rng.randint(1, 2) for _ in range(4)})
            hom = cx.strand_at(alpha).homology_ranks(32003)
            assert not any(hom[1:])


def _with_one_sign_flipped(cx: BasedComplex, src: str, tgt: str) -> BasedComplex:
    basis = [[(l, cx.mdeg(l)) for l in cx.labels(i)] for i in cx.degrees()]
    diff = {(s, t): sign for s in cx.all_labels() for t, sign in cx.out_entries(s)}
    diff[(src, tgt)] = -diff[(src, tgt)]
    return BasedComplex(basis, diff)


@pytest.mark.parametrize(
    "n,m,seed,flips",
    [(2, 4, None, 26), (3, 5, None, 51), (2, 5, 7, 108)],
    ids=["2x4-diagonal", "3x5-diagonal", "2x5-seed7"],
)
def test_a_non_complex_is_not_a_resolution(n, m, seed, flips):
    # one flipped sign of degree >= 2 breaks d o d = 0 over Z; without that
    # no strand homology means anything, at any prime
    import random

    from rainbowcw.determinantal import random_term_order

    order = diagonal_order(n, m) if seed is None else random_term_order(n, m, random.Random(seed))
    cx = sparse_eagon_northcott(order)
    entries = [
        (src, tgt)
        for src in cx.all_labels()
        if cx.degree_of(src) >= 2
        for tgt, _ in cx.out_entries(src)
    ]
    assert len(entries) == flips
    for src, tgt in entries:
        broken = _with_one_sign_flipped(cx, src, tgt)
        assert not broken.check_complex()
        for p in (2, 32003):
            assert not broken.is_resolution(p), (src, tgt, p)
            assert not is_linear_strand_of_module(broken, p), (src, tgt, p)


def test_strand_homologies_refuse_a_non_complex():
    cx = sparse_eagon_northcott(diagonal_order(2, 4))
    src = cx.labels(2)[0]
    broken = _with_one_sign_flipped(cx, src, cx.support(src)[0])
    with pytest.raises(ValueError, match="d o d"):
        next(broken.strand_homologies(2))


def test_relative_strand_dimensions():
    # C(alpha)/C(gamma) keeps the cells dividing alpha = x11 x12 x22 x23 but
    # not gamma = x11 x22: vertices x12 x23 and x11 x23 (not x11 x22 itself),
    # and the two edges, both of multidegree dividing alpha; no 1 in degree 0
    cx = sparse_eagon_northcott(diagonal_order(2, 3))
    alpha = parse_monomial("x[1,1] * x[1,2] * x[2,2] * x[2,3]")
    gamma = parse_monomial("x[1,1] * x[2,2]")
    full = cx.strand_at(alpha)
    relative = cx.strand_at(alpha, gamma)
    assert full.dims == [1, 3, 2]
    assert relative.dims == [0, 2, 2]
    # C(gamma) is one vertex over the unit, acyclic, so the homology agrees
    assert not any(cx.strand_at(gamma).homology_ranks(2))
    for p in (2, 32003):
        assert relative.homology_ranks(p) == full.homology_ranks(p) == [0, 0, 0]
    assert cx.strand_at(alpha, Monomial.one()).dims == [0, 3, 2]
    assert cx.strand_at(alpha, alpha).dims == [0, 0, 0]


def test_relative_strand_needs_a_divisor():
    cx = sparse_eagon_northcott(diagonal_order(2, 3))
    alpha = parse_monomial("x[1,1] * x[1,2] * x[2,2] * x[2,3]")
    with pytest.raises(ValueError, match="does not divide"):
        cx.strand_at(alpha, parse_monomial("x[1,1] * x[1,3]"))
    with pytest.raises(ValueError, match="does not divide"):
        cx.strand_at(parse_monomial("x[1,1] * x[2,2]"), alpha)


def _plain_sweep(cx, p):
    """The per-multidegree loop the sweep replaces: the full strand at every
    alpha of the closure."""
    return [(alpha, cx.strand_at(alpha).homology_ranks(p)) for alpha in cx.relevant_multidegrees()]


def _top_truncated(cx):
    return _truncated(cx, cx.top_degree - 1)


def _unit_survives_below():
    """A complex whose strand at x12 x13 has homology in degree 0 only (the
    edge w kills the cycle v, and nothing hits the unit), under the
    multidegree x11 x12 x13 whose strand is exact: a sweep that took the
    smaller strand out of the larger one would find a false cycle."""
    u, v, w = (parse_monomial(s) for s in ("x[1,1]", "x[1,2]", "x[1,2] * x[1,3]"))
    basis = [[("1", Monomial.one())], [("u", u), ("v", v)], [("w", w)]]
    return BasedComplex(basis, {("u", "1"): 1, ("w", "v"): 1})


def _sweep_corpus():
    import random
    from itertools import combinations

    from rainbowcw import PureComplex, rainbow_linear_strand
    from rainbowcw.determinantal import random_term_order

    rng = random.Random(61)
    cases = []
    for n, m in [(2, 4), (2, 5), (3, 4), (3, 5), (2, 6), (3, 6)]:
        for k in range(2):
            order = random_term_order(n, m, rng)
            cx = sparse_eagon_northcott(order)
            cases.append((f"en-{n}x{m}-{k}", cx))
            cases.append((f"truncated-{n}x{m}-{k}", _top_truncated(cx)))
            pool = list(combinations(range(1, m + 1), n))
            delta = PureComplex(n, m, rng.sample(pool, rng.randint(1, len(pool))))
            cases.append((f"linear-strand-{n}x{m}-{k}", rainbow_linear_strand(delta, order)))
    cases.append(("unit-survives-below", _unit_survives_below()))
    cases.append(("koszul-plain-4", taylor_complex([Monomial.variable(v) for v in range(1, 5)])))
    gens = [parse_monomial(s) for s in ("x[1] * x[2]", "x[2] * x[3]", "x[1] * x[3]", "x[3]^2")]
    cases.append(("taylor-plain", taylor_complex(gens)))
    cases.append(("taylor-plain-truncated", _truncated(taylor_complex(gens), 2)))
    return cases


_SWEEP_CORPUS = _sweep_corpus()


@pytest.mark.parametrize("p", [2, 32003])
@pytest.mark.parametrize("cx", [cx for _, cx in _SWEEP_CORPUS], ids=[i for i, _ in _SWEEP_CORPUS])
def test_strand_homologies_match_the_plain_sweep(cx, p):
    assert list(cx.strand_homologies(p)) == _plain_sweep(cx, p)


def _relative_strands(cx, monkeypatch):
    """How many of the strands that ``strand_homologies`` ranks are relative
    to an acyclic one, how many it ranks, and how many alphas it yields."""
    moduli = []
    original = BasedComplex.strand_at

    def recording(self, alpha, modulo=None):
        moduli.append(modulo)
        return original(self, alpha, modulo)

    with monkeypatch.context() as patch:
        patch.setattr(BasedComplex, "strand_at", recording)
        swept = list(cx.strand_homologies(32003))
    return sum(m is not None for m in moduli), len(moduli), len(swept)


def test_the_sweep_ranks_relative_strands(monkeypatch):
    # on a resolution nearly every strand ranked is relative to an acyclic
    # one; a sweep that always took the full strand would fail here.  The
    # 612 alphas hold 206 distinct cell sets, and only those are ranked.
    relative, ranked, swept = _relative_strands(
        sparse_eagon_northcott(diagonal_order(3, 6)), monkeypatch)
    assert relative > 0.8 * ranked and (ranked, swept) == (206, 612)
    # so is half the sweep of a Taylor complex on plain, non-squarefree
    # generators: their exponent steps find the acyclic strands below.
    # Its 8 strands have 8 distinct cell sets (each generator's strand holds
    # the unit and its own vertex, each relative strand its own faces), so
    # all are ranked.
    gens = [parse_monomial(s) for s in ("x[1] * x[2]", "x[2] * x[3]", "x[1] * x[3]", "x[3]^2")]
    assert _relative_strands(taylor_complex(gens), monkeypatch) == (4, 8, 8)


def test_cells_from_two_rings_are_refused():
    basis = [[("1", Monomial.one())],
             [("a", parse_monomial("x[1]")), ("b", parse_monomial("x[1,1]"))]]
    with pytest.raises(ValueError, match="two rings"):
        BasedComplex(basis, {("a", "1"): 1, ("b", "1"): 1})


# Each once ended in a TypeError from sorting an int variable against a
# tuple one.
@pytest.mark.parametrize(
    "build",
    [MonomialIdeal, lcm_closure, lambda gens: koszul_betti(MonomialIdeal(gens))],
    ids=["ideal", "lcm-closure", "koszul-betti"],
)
def test_monomials_from_two_rings_are_refused(build):
    with pytest.raises(ValueError, match="two rings"):
        build([parse_monomial("x[1]"), parse_monomial("x[1,1]")])
