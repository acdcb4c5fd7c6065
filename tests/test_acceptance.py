"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The randomized sweeps are
seeded, so every run exercises the same corpus.
"""

import random
import time
from itertools import combinations
from math import comb

import pytest

from rainbowcw import (
    MonomialIdeal,
    PureComplex,
    alexander_dual,
    alexander_dual_complex,
    betti_table_formula,
    certify_polarization,
    chain_sign,
    colon,
    diagonal_order,
    face_poset,
    find_free_sequence,
    induced_subcomplex,
    initial_minor,
    is_cw_poset,
    is_linear_strand_of_module,
    koszul_betti,
    linearity_criterion,
    neighbors,
    parse_monomial,
    q_morphism,
    rainbow_dfi,
    rainbow_linear_strand,
    random_term_order,
    sparse_eagon_northcott,
    specialize,
    strand_via_kernel,
    support_chain,
    verify_differential_formula,
    verify_multidegree_bijection,
)
from rainbowcw.monomials import format_monomial
from tests.conftest import (
    LEFT_VERTEX_LABELS,
    RIGHT_VERTEX_LABELS,
    random_overlap_dual,
    replay_free_sequence,
)

SOUNDNESS_SIZES = [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)]
ORDERS_PER_SIZE = 25
STRAND_SIZES = SOUNDNESS_SIZES
STRAND_RUNS_PER_SIZE = 100
EQUIV_SIZES = [(3, 5), (3, 6), (2, 5), (2, 6)]
EQUIV_RUNS_PER_SIZE = 200


def en_ranks(n, m):
    return (1,) + tuple(
        comb(n + ell - 2, ell - 1) * comb(m, n + ell - 1) for ell in range(1, m - n + 2)
    )


def complexes_equal(a, b):
    if a.ranks() != b.ranks():
        return False
    for i in a.degrees():
        if set(a.labels(i)) != set(b.labels(i)):
            return False
    return all(a.out_entries(l) == b.out_entries(l) for l in a.all_labels())


# ----------------------------------------------------------------------------


def test_criterion_1_worked_example_end_to_end():
    start = time.monotonic()
    order = diagonal_order(3, 5)
    dual = PureComplex(3, 5, [(1, 2, 3), (3, 4, 5)])
    delta = alexander_dual_complex(dual)
    rain = rainbow_dfi(delta, order)

    # (a) colon ideals, exactly
    c1 = colon(rain, parse_monomial("x[1,1] * x[2,2] * x[3,3]"))
    c2 = colon(rain, parse_monomial("x[1,3] * x[2,4] * x[3,5]"))
    assert c1 == MonomialIdeal([parse_monomial("x[3,4]"), parse_monomial("x[3,5]")])
    assert c2 == MonomialIdeal([parse_monomial("x[1,1]"), parse_monomial("x[1,2]")])

    # (b) strand and oracle Betti tables: total (1, 8, 11, 4) in row 2
    strand = rainbow_linear_strand(delta, order)
    assert strand.ranks() == (1, 8, 11, 4)
    table = koszul_betti(rain)
    assert table.total_vector() == (1, 8, 11, 4)
    assert sorted(table.rows_present()) == [0, 2]

    # (c) specialization of the Alexander dual, exactly
    expected = MonomialIdeal(
        parse_monomial(s)
        for s in ("x[1]^2", "x[1] * x[2]^2", "x[2]^3", "x[1] * x[2] * x[3]",
                  "x[2]^2 * x[3]", "x[3]^2")
    )
    assert specialize(alexander_dual(rain)) == expected

    elapsed = time.monotonic() - start
    assert elapsed < 10
    print(f"\nACCEPTANCE 1: PASS - worked 3x5 example end-to-end ({elapsed:.2f}s)")


def test_criterion_2_reference_2x4_orders(order24_left, order24_right):
    start = time.monotonic()
    for order, labels in [
        (order24_left, LEFT_VERTEX_LABELS),
        (order24_right, RIGHT_VERTEX_LABELS),
    ]:
        cx = sparse_eagon_northcott(order)
        assert cx.ranks() == (1, 6, 8, 3)
        assert set(cx.labels(1)) == labels
        poset = face_poset(cx)
        key = lambda l: order.sort_key(cx.mdeg(l))
        assert is_cw_poset(poset, atom_key=key).verdict
    elapsed = time.monotonic() - start
    assert elapsed < 5
    print(f"ACCEPTANCE 2: PASS - both reference 2x4 orders reproduced ({elapsed:.2f}s)")


@pytest.fixture(scope="session")
def soundness_corpus():
    rng = random.Random(2026)
    t0 = time.monotonic()
    corpus = []
    for n, m in SOUNDNESS_SIZES:
        for _ in range(ORDERS_PER_SIZE):
            order = random_term_order(n, m, rng)
            corpus.append((n, m, order, sparse_eagon_northcott(order)))
    return corpus, time.monotonic() - t0


def test_criterion_3_sparse_en_soundness(soundness_corpus):
    corpus, build_time = soundness_corpus
    t0 = time.monotonic()
    assert len(corpus) == len(SOUNDNESS_SIZES) * ORDERS_PER_SIZE
    for n, m, order, cx in corpus:
        assert cx.check_complex()
        assert cx.is_resolution()
        assert cx.ranks() == en_ranks(n, m)
        mdegs = [cx.mdeg(l) for i in cx.degrees() for l in cx.labels(i)]
        assert len(set(mdegs)) == len(mdegs)
        assert verify_differential_formula(cx)
        for ell in range(1, cx.top_degree + 1):
            assert verify_multidegree_bijection(order, ell, cx)
    elapsed = build_time + time.monotonic() - t0
    assert elapsed < 600
    print(
        f"ACCEPTANCE 3: PASS - {len(corpus)} sparse complexes sound "
        f"({elapsed:.1f}s, sizes {SOUNDNESS_SIZES}, {ORDERS_PER_SIZE} orders each)"
    )


def test_criterion_4_cw_certification(soundness_corpus):
    corpus, _ = soundness_corpus
    t0 = time.monotonic()
    for _, _, order, cx in corpus:
        poset = face_poset(cx)
        key = lambda l: order.sort_key(cx.mdeg(l))
        for p in (32003, 2):
            cert = is_cw_poset(poset, p=p, atom_key=key)
            assert cert.verdict, cert.failures
    print(
        f"ACCEPTANCE 4: PASS - CW certificates at p=32003 and p=2 for all "
        f"{len(corpus)} complexes ({time.monotonic() - t0:.1f}s)"
    )


def strand_runs():
    """The seeded (n, m, order, delta) runs of criterion 5."""
    rng = random.Random(31337)
    for n, m in STRAND_SIZES:
        pool = list(combinations(range(1, m + 1), n))
        for _ in range(STRAND_RUNS_PER_SIZE):
            order = random_term_order(n, m, rng)
            facets = rng.sample(pool, rng.randint(1, len(pool)))
            yield n, m, order, PureComplex(n, m, facets)


def test_criterion_5_strand_theorems():
    t0 = time.monotonic()
    runs = 0
    for n, m, order, delta in strand_runs():
        cx = sparse_eagon_northcott(order)
        keep = {format_monomial(initial_minor(order, f)) for f in delta.facets}
        # delete the complementary vertices one at a time: the kernel of
        # the comparison morphism must equal the induced subcomplex
        current = cx
        for v in sorted(set(cx.labels(1)) - keep):
            ker = strand_via_kernel(current, v, order)
            ind = induced_subcomplex(current, set(current.labels(1)) - {v})
            assert complexes_equal(ker, ind)
            current = ind
        strand = rainbow_linear_strand(delta, order, cx)
        assert complexes_equal(current, strand)
        assert is_linear_strand_of_module(strand)
        rain = rainbow_dfi(delta, order)
        linear_row = koszul_betti(rain, degree_cap=m).row(n - 1)
        ranks = strand.ranks()
        assert linear_row == {i: ranks[i] for i in range(1, len(ranks)) if ranks[i]}
        runs += 1
    print(
        f"ACCEPTANCE 5: PASS - kernel=restriction, linear-strand criterion and "
        f"oracle ranks over {runs} runs ({time.monotonic() - t0:.1f}s)"
    )


def equivalence_runs():
    """The seeded (n, m, order, dual, delta, rain) runs of criteria 6 and 8,
    those with a nonzero rainbow DFI."""
    rng = random.Random(5150)
    corpus = []
    for n, m in EQUIV_SIZES:
        for _ in range(EQUIV_RUNS_PER_SIZE):
            order = random_term_order(n, m, rng)
            dual = random_overlap_dual(n, m, rng, max_facets=4)
            delta = alexander_dual_complex(dual)
            rain = rainbow_dfi(delta, order)
            if rain.is_zero():
                continue
            corpus.append((n, m, order, dual, delta, rain))
    return corpus


@pytest.fixture(scope="session")
def equivalence_corpus():
    return equivalence_runs()


def test_criterion_6_linearity_equivalence(equivalence_corpus):
    from itertools import permutations

    t0 = time.monotonic()
    linear_count = 0
    for n, m, order, dual, delta, rain in equivalence_corpus:
        linear = linearity_criterion(delta, order)
        table = koszul_betti(rain)
        oracle_linear = table.rows_present() <= {0, n - 1}
        cx = sparse_eagon_northcott(order)
        targets = [format_monomial(initial_minor(order, f)) for f in dual.sorted_facets()]
        found = find_free_sequence(cx, targets).found
        assert linear == oracle_linear == found, (n, m, dual.sorted_facets())
        if linear:
            linear_count += 1
            assert table.coarse() == betti_table_formula(n, m, len(dual))
            if 1 <= len(targets) <= 3:  # every deletion order succeeds
                assert all(replay_free_sequence(cx, p) for p in permutations(targets))
    print(
        f"ACCEPTANCE 6: PASS - linearity <=> one-row oracle <=> free sequence over "
        f"{len(equivalence_corpus)} runs ({linear_count} linear) "
        f"({time.monotonic() - t0:.1f}s)"
    )


def test_criterion_7_sign_and_support_lemmas():
    t0 = time.monotonic()
    rng = random.Random(777)
    checked = 0
    cases = [(n, m, diagonal_order(n, m)) for n, m in [(2, 3), (2, 4), (2, 5), (3, 4), (3, 5)]]
    cases += [(n, m, random_term_order(n, m, rng)) for n, m in [(2, 4), (3, 4), (3, 5)]]
    for n, m, order in cases:
        cx = sparse_eagon_northcott(order)
        # face-support injectivity
        supports = [
            cx.vertex_support(l) for i in range(1, cx.top_degree + 1) for l in cx.labels(i)
        ]
        assert len(set(supports)) == len(supports)
        for v in cx.labels(1):
            ctx = neighbors(cx, v, order)
            q_morphism(cx, v, order)  # raises NotChainMap if the square fails
            for i in range(2, cx.top_degree + 1):
                for face in cx.labels(i):
                    if v not in cx.vertex_support(face):
                        continue
                    met = [w for w in ctx.neighbors if w in cx.vertex_support(face)]
                    assert len(met) == i - 1  # maximal support
                    chain = support_chain(cx, face, v, order)
                    assert _chain_is_unique(cx, ctx, face, v, met, chain)
                    c_p = chain_sign(cx, chain)
                    for idx, vi in enumerate(met, start=1):
                        want = set(met) - {vi}
                        qs = [
                            q for q in cx.support(face)
                            if v in cx.vertex_support(q)
                            and {w for w in ctx.neighbors if w in cx.vertex_support(q)} == want
                        ]
                        if len(qs) != 1:
                            continue
                        c_q = chain_sign(cx, support_chain(cx, qs[0], v, order))
                        assert cx.sign(face, qs[0]) * c_q == (-1) ** (idx + 1) * c_p
                        checked += 1
    print(
        f"ACCEPTANCE 7: PASS - support-chain uniqueness, sign lemma, maximal "
        f"support, injectivity, commuting squares ({checked} sign checks, "
        f"{time.monotonic() - t0:.1f}s)"
    )


def _descending_chains(cx, face, v):
    if face == v:
        return [(v,)]
    out = []
    for q in cx.support(face):
        if v in cx.vertex_support(q):
            out.extend((face,) + c for c in _descending_chains(cx, q, v))
    return out


def _chain_is_unique(cx, ctx, face, v, met, chain):
    good = []
    for cand in _descending_chains(cx, face, v):
        ok = True
        for k, f in enumerate(cand):
            expect = set(met[k:])
            have = {w for w in ctx.neighbors if w in cx.vertex_support(f)}
            if have != expect:
                ok = False
                break
        if ok:
            good.append(cand)
    return good == [chain.faces]


def test_criterion_8_polarization_soundness(equivalence_corpus):
    t0 = time.monotonic()
    certified = 0
    for n, m, order, dual, delta, rain in equivalence_corpus:
        report = certify_polarization(delta, order)
        assert report.linear == linearity_criterion(delta, order)
        if report.r == 0:
            assert report.linear  # the full initial ideal is always linear
        if report.linear:
            certified += 1
            assert report.certified
            assert report.artinian
            assert report.regular_sequence_verified
            assert report.is_power_of_maximal == (report.r == 0)
    print(
        f"ACCEPTANCE 8: PASS - {certified} certified polarizations verified over "
        f"{len(equivalence_corpus)} runs ({time.monotonic() - t0:.1f}s)"
    )
