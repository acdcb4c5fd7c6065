"""The checks accept real outputs and reject deliberately corrupted ones.

Run with ``python3 -m pytest benchmark``.
"""

import copy
import json
import random

import pytest

import checks
from corpus import generic_weights, overlap_dual
from workloads import WORKLOADS

from rainbowcw import (
    PureComplex, alexander_dual_complex, koszul_betti, linearity_criterion, rainbow_dfi,
    sparse_eagon_northcott, weight_order,
)


def _make_case(name, stratum, seed=4):
    workload = WORKLOADS[name]
    case = workload.make_case(0, stratum, random.Random(seed))
    return workload, case


@pytest.fixture(scope="module")
def cw_outputs(tmp_path_factory):
    workload, case = _make_case("cw-certify", (3, 5))
    workload.prepare(case, str(tmp_path_factory.mktemp("cw")))
    workload.run(case)
    with open(case.files["en"]) as handle:
        en = json.load(handle)
    with open(case.files["cw"]) as handle:
        cw = json.load(handle)
    return case, en, cw


def test_emitted_complex_passes(cw_outputs):
    case, en, cw = cw_outputs
    assert checks.check_emitted_complex(en, case.n, case.m, 32003) == []
    assert checks.check_cw_certificate(cw, case.n, case.m, 2) == []


def test_flipped_differential_sign_is_rejected(cw_outputs):
    case, en, _ = cw_outputs
    bad = copy.deepcopy(en)
    entry = next(e for e in bad["complex"]["diff"] if e["to"] != "1")
    entry["sign"] = -entry["sign"]
    assert any("d o d" in p for p in checks.check_emitted_complex(bad, case.n, case.m, 32003))


def test_wrong_coefficient_is_rejected(cw_outputs):
    case, en, _ = cw_outputs
    bad = copy.deepcopy(en)
    bad["complex"]["diff"][-1]["coeff"] = "x[1,1]^2"
    assert checks.check_emitted_complex(bad, case.n, case.m, 32003)


def test_rank_off_by_one_is_rejected(cw_outputs):
    case, en, cw = cw_outputs
    bad_en, bad_cw = copy.deepcopy(en), copy.deepcopy(cw)
    bad_en["ranks"][2] += 1
    bad_cw["ranks"][1] -= 1
    assert checks.check_emitted_complex(bad_en, case.n, case.m, 32003)
    assert checks.check_cw_certificate(bad_cw, case.n, case.m, 2)


def test_false_verdict_is_rejected(cw_outputs):
    case, en, cw = cw_outputs
    bad_en, bad_cw = copy.deepcopy(en), copy.deepcopy(cw)
    bad_en["cw_certificate"]["verdict"] = False
    bad_cw["certificate"]["verdict"] = False
    assert checks.check_emitted_complex(bad_en, case.n, case.m, 32003)
    assert checks.check_cw_certificate(bad_cw, case.n, case.m, 2)
    bad_en = copy.deepcopy(en)
    bad_en["is_resolution"] = False
    assert checks.check_emitted_complex(bad_en, case.n, case.m, 32003)


def test_wrong_prime_in_manifest_is_rejected(cw_outputs):
    case, _, cw = cw_outputs
    assert checks.check_cw_certificate(cw, case.n, case.m, 32003)


def test_linearity_case_checks():
    workload, case = _make_case("linearity-sweep", (3, 5, 1, True))
    linear, table, found, cx = workload.run(case)
    args = dict(n=case.n, m=case.m, r=1, own_linear=case.own_linear, criterion=linear,
                coarse=table.coarse(), free_sequence=found, en=list(cx.ranks()))
    assert checks.check_linearity_case(**args) == []
    off = dict(args["coarse"])
    key = max(off)
    off[key] += 1
    assert checks.check_linearity_case(**{**args, "coarse": off})
    assert checks.check_linearity_case(**{**args, "free_sequence": not found})
    assert checks.check_linearity_case(**{**args, "en": args["en"][:-1] + [args["en"][-1] + 1]})


def _strand_args(case, out, oracle_row=None):
    steps, current, strand, report = out
    shape = checks.complex_shape
    return dict(
        n=case.n, m=case.m, r=len(case.dual), own_linear=case.own_linear,
        deletions=[(shape(k), shape(r)) for k, r in steps], final=shape(current),
        strand=shape(strand), linear=report.linear, certified=report.certified,
        strand_ranks=list(strand.ranks()), oracle_row=oracle_row,
    )


def test_strand_case_checks():
    workload, case = _make_case("strand-polarize", (3, 6, 1, True))
    out = workload.run(case)
    args = _strand_args(case, out)
    assert checks.check_strand_case(**args) == []
    ranks = list(args["strand_ranks"])
    ranks[1] += 1
    assert checks.check_strand_case(**{**args, "strand_ranks": ranks})
    assert checks.check_strand_case(**{**args, "certified": False})


def test_kernel_with_an_extra_cell_is_rejected():
    workload, case = _make_case("strand-polarize", (3, 6, 2, False))
    out = workload.run(case)
    kernel, restricted = out[0][0]
    full = sparse_eagon_northcott(case.order)  # the complex of the first deletion
    deleted = next(v for v in full.labels(1) if v not in restricted.labels(1))
    padded = full.restrict(list(kernel.all_labels()) + [deleted])
    rain = rainbow_dfi(alexander_dual_complex(case.dual_complex), case.order)
    args = _strand_args(case, out, koszul_betti(rain, degree_cap=case.m).row(case.n - 1))
    assert checks.check_strand_case(**args) == []
    bad = [(checks.complex_shape(padded), args["deletions"][0][1])] + args["deletions"][1:]
    problems = checks.check_strand_case(**{**args, "deletions": bad})
    assert any("kernel differs" in p for p in problems)
    ranks = list(args["strand_ranks"])
    ranks[-1] -= 1
    assert any("oracle" in p for p in checks.check_strand_case(**{**args, "strand_ranks": ranks}))


def test_recomputed_linearity_criterion_agrees_with_the_program():
    rng = random.Random(8)
    for n, m, r_max in [(2, 5, 2), (3, 5, 2), (2, 6, 3), (3, 6, 4), (4, 6, 2)]:
        for _ in range(6):
            weights = generic_weights(n, m, rng)
            dual = overlap_dual(n, m, rng.randint(0, r_max), rng)
            delta = alexander_dual_complex(PureComplex(n, m, dual))
            assert checks.is_linear(n, m, weights, dual) == linearity_criterion(
                delta, weight_order(n, m, weights))


def test_closed_forms():
    assert checks.en_ranks(2, 4) == [1, 6, 8, 3]
    assert checks.linear_ranks(3, 5, 2) == [1, 8, 11, 4]  # the worked 3x5 example
    assert checks.linear_coarse_table(3, 5, 2) == {(0, 0): 1, (1, 3): 8, (2, 4): 11, (3, 5): 4}
