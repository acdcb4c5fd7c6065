"""The three workloads.

A workload is a round of strata, one case per stratum.  A case is one input
carried through the workload's whole pipeline; ``run`` is the timed part and
``check`` compares its output with computations made in ``checks``.  Every
round has the same strata, so the mix of sizes is the same in every run
however many rounds it completes.

The program is reached through module attributes at call time (never names
bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

import checks
from corpus import generic_weights, lcm_lattice_size, overlap_dual, support_size

from rainbowcw import cli, complexes, determinantal, eagon_northcott, monomials
from rainbowcw import polarization, strands, termorders

EN_PRIME = 32003
CW_PRIME = 2


@dataclass
class Case:
    key: int
    n: int
    m: int
    weights: tuple
    dual: tuple  # facets of the dual complex
    own_linear: bool | None  # the criterion recomputed by checks.is_linear
    order: object = None
    dual_complex: object = None
    files: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.n}x{self.m}"


def _case(key, n, m, weights, dual, own_linear) -> Case:
    return Case(
        key, n, m, weights, dual, own_linear,
        termorders.weight_order(n, m, weights),
        determinantal.PureComplex(n, m, dual),
    )


def _in_band(band: list, n: int, m: int, weights, dual) -> bool:
    """Whether the case meets the stratum's optional (measure, lo, hi):
    lo <= measure(case) < hi, for a measure from ``corpus``."""
    if not band:
        return True
    measure, lo, hi = band[0]
    return lo <= measure(n, m, weights, dual) < hi


def _dual_case(key, stratum, rng: random.Random) -> Case:
    """A random order and overlap dual for the stratum (n, m, r, linear) or
    (n, m, r, linear, (measure, lo, hi)).  ``linear`` None takes whatever
    comes, True or False redraws until the recomputed criterion agrees; a
    measure from ``corpus`` redraws until lo <= measure(case) < hi."""
    n, m, r, linear, *band = stratum
    for _ in range(500):
        weights = generic_weights(n, m, rng)
        dual = overlap_dual(n, m, r, rng)
        own = checks.is_linear(n, m, weights, dual)
        if (linear is None or own == linear) and _in_band(band, n, m, weights, dual):
            return _case(key, n, m, weights, dual, own)
    raise RuntimeError(f"no case for stratum {stratum}")


# -- linearity-sweep ------------------------------------------------------------


class LinearitySweep:
    """Acceptance criterion 6 as a pipeline: linearity criterion, the full
    Koszul Betti oracle, the sparse EN complex and the free-sequence search."""

    name = "linearity-sweep"
    # Strata are (n, m, r, linear[, (measure, lo, hi)]).  The 3x6 case carries
    # half of a round's time (the Koszul oracle); the small cases give a run
    # over a hundred cases.  The median lies in the middle of the 3x5 cases
    # and the 90th percentile among the 2x6 ones.  The 3x6 dual facet count
    # (at most 4, as in criterion 6) cycles with the round.  The oracle's
    # time follows the size of the lcm lattice, which ranges from 320 to 740
    # over random 3x6 cases (0.5 to 2.6 s), so the 3x6 case is drawn with a
    # lattice of 480 to 639 elements: a run holds nine of them, and their
    # mean should not depend on the seed.
    TINY = [(2, 5, 1, True), (3, 5, 1, False)]

    def round_strata(self, j: int) -> list:
        return (
            [(3, 6, j % 5, None, (lcm_lattice_size, 480, 640))] + [(2, 6, k, None) for k in range(4)]
            + [(3, 5, k % 3, None) for k in range(10)] + [(2, 5, k % 3, None) for k in range(6)]
        )

    def make_case(self, key, stratum, rng: random.Random) -> Case:
        return _dual_case(key, stratum, rng)

    def prepare(self, case: Case, workdir: str) -> None:
        pass

    def run(self, case: Case):
        order, dual = case.order, case.dual_complex
        delta = determinantal.alexander_dual_complex(dual)
        rain = determinantal.rainbow_dfi(delta, order)
        linear = polarization.linearity_criterion(delta, order)
        table = complexes.koszul_betti(rain)
        cx = eagon_northcott.sparse_eagon_northcott(order)
        targets = [
            monomials.format_monomial(determinantal.initial_minor(order, f))
            for f in dual.sorted_facets()
        ]
        found = polarization.find_free_sequence(cx, targets).found
        return linear, table, found, cx

    def check(self, case: Case, out, cache: dict) -> list[str]:
        linear, table, found, cx = out
        return checks.check_linearity_case(
            case.n, case.m, len(case.dual), case.own_linear, linear,
            table.coarse(), found, list(cx.ranks()),
        )


# -- cw-certify -------------------------------------------------------------------


class CWCertify:
    """The CLI in-process: ``sparse-en --certify-cw`` at p = 32003, then
    ``cw-check`` at p = 2, on one random order, outputs written to files."""

    name = "cw-certify"
    # Strata are (n, m[, (measure, lo, hi)]).  The median of a round lies in
    # the middle of its nine 3x5 cases and its 90th percentile in the middle
    # of the three 3x6 ones.  A case's time still varies by about a fifth
    # from one run of it to the next (the machine's speed within a second),
    # so the median needs many cases near it: with five 3x5 cases a round it
    # spread by 0.06 to 0.10 over five seeds.  A 3x6 case's time follows the
    # lcm lattice of the initial terms (0.34 s at 528 elements to 0.46 s at
    # 747 in one sample), so the 3x6 orders are drawn with 570 to 669.
    ROUND = (
        [(3, 4)] * 2 + [(4, 5)] * 3 + [(2, 4)] * 2 + [(3, 5)] * 9
        + [(2, 5)] * 2 + [(4, 6)] * 2 + [(3, 6, (lcm_lattice_size, 570, 670))] * 3 + [(2, 6)] * 1
    )
    # 4x7 (4 to 7 s a case) and 3x7 (11 to 17 s) stay out of the timed
    # corpus: their cost varies so much with the order that one such case
    # would move a 30 s run's throughput by a tenth.  3x7 is the size whose
    # CW certificates reach the sparse rank path, so the tiny corpus of the
    # coverage test has one.
    TINY = [(2, 4), (3, 5), (3, 7)]

    def round_strata(self, j: int) -> list:
        return self.ROUND

    def make_case(self, key, stratum, rng: random.Random) -> Case:
        n, m, *band = stratum
        for _ in range(500):
            weights = generic_weights(n, m, rng)
            if _in_band(band, n, m, weights, ()):
                return _case(key, n, m, weights, (), None)
        raise RuntimeError(f"no case for stratum {stratum}")

    def prepare(self, case: Case, workdir: str) -> None:
        path = os.path.join(workdir, f"order-{case.key}.json")
        with open(path, "w") as handle:
            json.dump({"n": case.n, "m": case.m, "weights": [list(r) for r in case.weights],
                       "tiebreak": "row-major"}, handle)
        case.files = {
            "order": path,
            "en": os.path.join(workdir, "sparse-en.json"),
            "cw": os.path.join(workdir, "cw-check.json"),
        }

    def run(self, case: Case):
        size = ["-n", str(case.n), "-m", str(case.m), "--order-file", case.files["order"]]
        code = cli.main(["sparse-en", *size, "--certify-cw", "--prime", str(EN_PRIME),
                         "-o", case.files["en"]])
        if code != 0:
            raise RuntimeError(f"sparse-en exited {code}")
        code = cli.main(["cw-check", *size, "--prime", str(CW_PRIME), "-o", case.files["cw"]])
        if code != 0:
            raise RuntimeError(f"cw-check exited {code}")

    def check(self, case: Case, out, cache: dict) -> list[str]:
        with open(case.files["en"]) as handle:
            en = json.load(handle)
        with open(case.files["cw"]) as handle:
            cw = json.load(handle)
        return (checks.check_emitted_complex(en, case.n, case.m, EN_PRIME)
                + checks.check_cw_certificate(cw, case.n, case.m, CW_PRIME))


# -- strand-polarize ----------------------------------------------------------------


class StrandPolarize:
    """Acceptance criteria 5 and 8 as a pipeline: the sparse EN complex, one
    kernel and one restriction per dual facet on the shrinking complex, the
    rainbow linear strand, and the polarization certificate.  Strata fix
    the dual facet count and whether the DFI is linear (by the criterion
    recomputed in ``checks``), since a linear case runs the Hilbert profile
    and a nonlinear one does not."""

    name = "strand-polarize"
    # The linear 2x7 and 4x7 cases carry most of a round's time (Hilbert
    # profiles); the 90th percentile lies among the three 4x7 ones and the
    # median in the middle of the eight ~35 ms m = 6 cases.  Linear 3x7
    # (about 1.6 s a case) is left out so that a run holds over a hundred
    # cases; nonlinear cases stay at m <= 6, since their check runs the
    # Koszul oracle, which takes about a second a case at m = 7.  The
    # Hilbert profiles' time follows the number of variables the rainbow DFI
    # uses: linear 2x7 takes 0.7 to 1.1 s with 11 of them and 1.3 to 1.8 s
    # with 12, and linear 2x6 0.11 s with 9 and 0.18 s with 10.  So those two
    # strata fix it, at the commoner count, and the seed does not decide how
    # many of the heavy kind a run gets.
    ROUND = [
        (2, 7, 1, True, (support_size, 12, 13)),
        (4, 7, 0, True), (4, 7, 0, True), (4, 7, 0, True),
        (2, 5, 0, True), (3, 5, 0, True), (2, 5, 1, True), (3, 5, 1, True),
        (2, 5, 2, False), (3, 5, 2, False),
        (2, 6, 2, False), (2, 6, 3, False), (3, 6, 2, False), (3, 6, 3, False),
        (4, 6, 1, False), (4, 6, 2, False), (4, 6, 1, True), (4, 6, 0, True),
        (2, 6, 1, True, (support_size, 10, 11)), (3, 6, 1, True),
    ]
    TINY = [(2, 5, 0, True), (3, 5, 1, True), (3, 5, 2, False)]

    def round_strata(self, j: int) -> list:
        return self.ROUND

    def make_case(self, key, stratum, rng: random.Random) -> Case:
        return _dual_case(key, stratum, rng)

    def prepare(self, case: Case, workdir: str) -> None:
        pass

    def run(self, case: Case):
        order, dual = case.order, case.dual_complex
        delta = determinantal.alexander_dual_complex(dual)
        cx = eagon_northcott.sparse_eagon_northcott(order)
        deleted = sorted(
            monomials.format_monomial(determinantal.initial_minor(order, f)) for f in dual.facets
        )
        current, steps = cx, []
        for v in deleted:
            kernel = strands.strand_via_kernel(current, v, order)
            restricted = strands.induced_subcomplex(current, set(current.labels(1)) - {v})
            steps.append((kernel, restricted))
            current = restricted
        strand = strands.rainbow_linear_strand(delta, order, cx)
        report = polarization.certify_polarization(delta, order)
        return steps, current, strand, report

    def check(self, case: Case, out, cache: dict) -> list[str]:
        steps, current, strand, report = out
        oracle_row = None
        if not case.own_linear:
            oracle_row = cache.get(case.key)
            if oracle_row is None:
                rain = determinantal.rainbow_dfi(
                    determinantal.alexander_dual_complex(case.dual_complex), case.order)
                oracle_row = complexes.koszul_betti(rain, degree_cap=case.m).row(case.n - 1)
                cache[case.key] = oracle_row
        shape = checks.complex_shape
        return checks.check_strand_case(
            case.n, case.m, len(case.dual), case.own_linear,
            [(shape(k), shape(r)) for k, r in steps], shape(current), shape(strand),
            report.linear, report.certified, list(strand.ranks()), oracle_row,
        )


WORKLOADS = {w.name: w for w in (LinearitySweep(), CWCertify(), StrandPolarize())}
