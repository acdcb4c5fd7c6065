"""Free vertices and free sequences, the grade criterion for linear
resolutions of rainbow DFIs, the closed-form Betti table, and certification
of Alexander duals as polarizations of Artinian monomial ideals.

A rainbow DFI whose dual complex has small pairwise overlaps has a linear
resolution exactly when every dual generator colons down to height m - n;
in that case its Alexander dual polarizes an Artinian monomial ideal, and
collapsing each row of the grid to a single variable recovers that ideal
along a regular sequence of variable differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb
from typing import Sequence

from .complexes import BasedComplex
from .cwposet import FacePoset, face_poset
from .determinantal import (
    PureComplex,
    alexander_dual_complex,
    initial_minor,
    overlap_condition,
    rainbow_dfi,
)
from .errors import NotHomogeneous, SetupViolated, SizeCap
from .ideals import MonomialIdeal, alexander_dual, codimension, colon
from .monomials import Monomial, check_code_width, format_monomial, minimal
from .strands import induced_subcomplex
from .termorders import TermOrder


# -- free vertices and free sequences --------------------------------------


def free_vertices(poset: FacePoset) -> set[str]:
    """Vertices contained in exactly one maximal face."""
    facets = sum(1 << k for k, above in enumerate(poset.upper) if not above)
    up, index = poset.up, poset.index
    return {v for v in poset.cx.labels(1) if (up[index[v]] & facets).bit_count() == 1}


@dataclass
class FreeSequenceReport:
    targets: tuple[str, ...]
    ordering: tuple[str, ...] | None

    @property
    def found(self) -> bool:
        return self.ordering is not None

    def to_json(self) -> dict:
        return {
            "targets": list(self.targets),
            "ordering": None if self.ordering is None else list(self.ordering),
            "steps": [{"vertex": v, "facets": 1} for v in self.ordering or ()],
            "found": self.found,
        }


def find_free_sequence(cx: BasedComplex, targets) -> FreeSequenceReport:
    """Backtracking search for an ordering of ``targets`` in which each vertex
    is free after deleting its predecessors (deletion = induced subcomplex on
    the remaining vertices).  Exhaustive failure is a definitive NONE.

    A kept face keeps its vertex support, so the complex at a node depends
    only on which targets are deleted, and ``remaining`` is a sound key for a
    memo of the nodes whose subtree failed: a child in the memo is skipped
    before its subcomplex is built.  Only failures are recorded, so the
    search tries candidates in the same order and finds the same first
    ordering as without the memo."""
    targets = tuple(sorted(targets))
    failed: set[tuple[str, ...]] = set()

    def search(complex_: BasedComplex, remaining: tuple[str, ...]):
        if not remaining:
            return ()
        free = free_vertices(face_poset(complex_))
        for v in remaining:
            if v not in free:
                continue
            rest = tuple(w for w in remaining if w != v)
            if rest in failed:
                continue
            smaller = induced_subcomplex(
                complex_, set(complex_.labels(1)) - {v}
            )
            tail = search(smaller, rest)
            if tail is not None:
                return (v,) + tail
        failed.add(remaining)
        return None

    return FreeSequenceReport(targets, search(cx, targets))


# -- the linearity criterion ------------------------------------------------


def linearity_criterion(
    delta: PureComplex, order: TermOrder, rain: MonomialIdeal | None = None
) -> bool:
    """Under the overlap hypothesis on the dual complex: the rainbow DFI of
    ``delta`` has linear minimal free resolution iff every dual generator
    colons it down to height m - n.  ``rain`` is that rainbow DFI, if the
    caller has built it already."""
    dual = alexander_dual_complex(delta)
    if not overlap_condition(dual):
        raise SetupViolated("dual facets overlap in n-1 or more vertices")
    if rain is None:
        rain = rainbow_dfi(delta, order)
    want = order.m - order.n
    for facet in dual.sorted_facets():
        g = initial_minor(order, facet)
        if codimension(colon(rain, g)) != want:
            return False
    return True


def betti_table_formula(n: int, m: int, r: int) -> dict[tuple[int, int], int]:
    """Closed-form coarse Betti table of a linear rainbow DFI quotient whose
    dual has r facets: a single row at height n-1 ending in homological
    degree m-n+1, plus the unit in degree 0."""
    table = {(0, 0): 1}
    for ell in range(1, m - n + 2):
        rank = comb(n + ell - 2, ell - 1) * comb(m, n + ell - 1) - r * comb(m - n, ell - 1)
        if rank:
            table[(ell, ell + n - 1)] = rank
    return table


# -- variable differences and Hilbert-function cross-checks -------------------

# The largest #variables + max_degree that hilbert_profile accepts.  That sum
# bounds the depth of the engine's recursion, whose every level keeps a list
# of max_degree + 1 ints, so a larger one would overflow the stack or exhaust
# memory; below Python's default limit of 1000 frames, 512 leaves room for
# the callers' frames.
MAX_HILBERT_DEPTH = 512


def hilbert_profile(
    gens: Sequence[Monomial | tuple[Monomial, Monomial]],
    sigma: Sequence[Monomial | tuple[Monomial, Monomial]],
    max_degree: int,
    variables: Sequence,
) -> list[list[int]]:
    """Hilbert functions, in degrees 0..max_degree, of the quotients of
    k[variables] by gens + sigma[:k] for every prefix k = 0..len(sigma).

    A generator is a monomial or a pair (a, b) of variables standing for
    a - b.  Two exact identities turn every prefix into a monomial ideal and
    count its quotient:

    * Variable differences: k[x]/(J + (x_a - x_b)) is k[x - x_b]/J' with J'
      the image of J under x_b -> x_a.  The list ``rep`` names the class of
      each variable (a few dozen at most, so no union-find): identifying a
      with b renames a's class to b's, and monomials are rewritten on them.
    * For a monomial ideal I of S and a variable x, the exact sequence
      0 -> S/(I : x)(-1) -> S/I -> S/(I + x) -> 0 gives
      HS(S/I) = HS(S/(I + x)) + t HS(S/(I : x)).  The recursion pivots on
      the variable in the most generators and stops at pairwise coprime
      generators, where HS = prod (1 - t^deg g) / (1 - t)^#variables.

    Only degrees up to max_degree are kept: a generator above the degree
    budget is dropped, and the budget falls by one in each colon branch.
    Each branch loses a variable or a degree, so the depth is at most
    #variables + max_degree, which may not exceed MAX_HILBERT_DEPTH: a larger
    sum raises SizeCap before any work.  All arithmetic is on integers.

    A pair of unequal degrees raises NotHomogeneous; any other pair that is
    not two variables (such as a binomial of degree 2), a variable outside
    the ring or a negative max_degree raises ValueError.
    """
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    if len(variables) + max_degree > MAX_HILBERT_DEPTH:
        raise SizeCap(
            f"{len(variables)} variables and max_degree {max_degree} add up to more "
            f"than {MAX_HILBERT_DEPTH}, the deepest Hilbert recursion allowed"
        )
    index = {v: k for k, v in enumerate(variables)}
    rep = list(range(len(index)))
    monomials: list[tuple[tuple[int, int], ...]] = []

    def apply(g) -> None:
        if isinstance(g, Monomial):
            monomials.append(_indexed(g, index))
        else:
            old, new = (rep[k] for k in _variable_pair(g, index))
            rep[:] = [new if r == old else r for r in rep]

    def profile() -> list[int]:
        classes = {r: c for c, r in enumerate(dict.fromkeys(rep))}
        rewritten = []
        for mono in monomials:
            exps: dict[int, int] = {}
            for k, e in mono:
                c = classes[rep[k]]
                exps[c] = exps.get(c, 0) + e
            rewritten.append(exps)
        return _monomial_quotient_hf(rewritten, len(classes), max_degree)

    for g in gens:
        apply(g)
    profiles = [profile()]
    for step in sigma:
        apply(step)
        profiles.append(profile())
    return profiles


def _indexed(m: Monomial, index: dict) -> tuple[tuple[int, int], ...]:
    """The (variable index, exponent) pairs of a monomial."""
    try:
        return tuple((index[v], e) for v, e in m.exps)
    except KeyError:
        raise ValueError(f"generator {m} uses a variable outside the ring") from None


def _variable_pair(g: tuple[Monomial, Monomial], index: dict) -> tuple[int, int]:
    """The variable indices of a difference a - b of two variables."""
    a, b = g
    if a.degree != b.degree:
        raise NotHomogeneous(f"binomial {a} - {b} is not homogeneous")
    if a.degree != 1:
        raise ValueError(
            f"binomial {a} - {b} has degree {a.degree}; only differences of two variables are supported"
        )
    (ka, _), (kb, _) = _indexed(a, index) + _indexed(b, index)
    return ka, kb


def _monomial_quotient_hf(monomials: list[dict[int, int]], nvars: int, top: int) -> list[int]:
    """Hilbert function in degrees 0..top of k[x_0, ..., x_{nvars-1}] modulo
    the monomials, each a dict variable -> exponent.

    A generator is one int in the staircase code (Miller and Sturmfels,
    Combinatorial Commutative Algebra): variable v owns a run of bits as
    wide as its largest exponent, and v^e sets the first e bits of the run.
    So a divides b iff a & ~b is 0, the degree is the bit count, coprime
    means a & b is 0, v occurs iff the first bit of its run is set, and
    (I : v) clears the top set bit of each run of v.  A divisor's code is a
    subset of its multiple's, so ``minimal`` keeps the sorted ints minimal
    and ``_colon`` keeps them so in each colon step (Bigatti, "Computation
    of Hilbert-Poincare series", JPAA 1997).  The layout is the engine's
    own, not ``monomials.code``: its variables are classes of identified
    variables (whose exponents add, so the width cap is checked per call),
    and a Monomial per rewritten generator measured slower."""
    widths = [0] * nvars
    for exps in monomials:
        for v, e in exps.items():
            widths[v] = max(widths[v], e)
    check_code_width(sum(widths))
    starts = list(accumulate(widths, initial=0))
    # the first bit of each variable's run -> the run
    run = {1 << s: ((1 << w) - 1) << s for s, w in zip(starts, widths) if w}
    firsts = sum(run)

    def series(gens: list[int], nfree: int, budget: int) -> list[int]:
        # gens: minimal, none above budget; nfree: variables not yet set to 0
        if gens and gens[0] == 0:
            return [0] * (budget + 1)
        seen = 0
        for g in gens:
            if seen & g:
                break
            seen |= g
        else:
            hf = [1] + [comb(d + nfree - 1, d) if nfree else 0 for d in range(1, budget + 1)]
            for g in gens:
                deg = g.bit_count()
                for d in range(budget, deg - 1, -1):
                    hf[d] -= hf[d - deg]
            return hf
        counts: dict[int, int] = {}
        for g in gens:
            supp = g & firsts
            while supp:
                bit = supp & -supp
                counts[bit] = counts.get(bit, 0) + 1
                supp ^= bit
        pivot = max(counts, key=counts.get)
        hf = series([g for g in gens if not g & pivot], nfree - 1, budget)
        if budget:
            low = series(_colon(gens, pivot, run[pivot], budget), nfree, budget - 1)
            for d in range(1, budget + 1):
                hf[d] += low[d - 1]
        return hf

    gens = [
        sum(((1 << e) - 1) << starts[v] for v, e in exps.items()) for exps in monomials
    ]
    return series(minimal(sorted(g for g in gens if g.bit_count() <= top)), nvars, top)


def _colon(gens: list[int], pivot: int, run: int, budget: int) -> list[int]:
    """The minimal codes of (I : v) of degree below ``budget``, sorted, for
    the minimal codes ``gens`` of I, none above ``budget``, where ``pivot``
    is the first bit of the run ``run`` of v.  A lowered generator g / v is
    below budget, and no other quotient generator divides it (it would
    divide g), so only the unlowered ones are checked, against the lowered
    ones."""
    lowered, unlowered = [], []
    for g in gens:
        if g & pivot:
            lowered.append(g ^ (1 << (g & run).bit_length() - 1))
        elif g.bit_count() < budget:
            unlowered.append(g)
    return sorted(lowered + [g for g in unlowered if all(h & ~g for h in lowered)])


def regular_profile_ok(profiles: list[list[int]]) -> bool:
    """Each prefix Hilbert function must be the previous one convolved with
    (1 - t)."""
    for prev, cur in zip(profiles, profiles[1:]):
        for d, value in enumerate(cur):
            expected = prev[d] - (prev[d - 1] if d >= 1 else 0)
            if value != expected:
                return False
    return True


# -- specialization and polarization certificates ------------------------------


def specialize(ideal: MonomialIdeal) -> MonomialIdeal:
    """Collapse each grid row to a single variable: x_ij -> x_i."""
    collapsed = []
    for g in ideal.gens:
        exps: dict[int, int] = {}
        for (i, _), e in g.exps:
            exps[i] = exps.get(i, 0) + e
        collapsed.append(Monomial(exps))
    return MonomialIdeal(collapsed)


def _is_power_of_maximal(ideal: MonomialIdeal) -> bool:
    """Whether the ideal is a power of the ideal of the r variables of its
    support: its minimal generators, distinct and of one degree d, number
    C(r + d - 1, d).  The unit ideal is the 0th power."""
    if ideal.is_zero() or not ideal.is_equigenerated():
        return False
    d = ideal.gens[0].degree
    return d == 0 or len(ideal.gens) == comb(len(ideal.support) + d - 1, d)


@dataclass
class PolarizationReport:
    n: int
    m: int
    r: int
    linear: bool
    rain_gens: tuple[str, ...]
    dual_gens: tuple[str, ...]
    specialized_gens: tuple[str, ...]
    artinian: bool
    regular_sequence_verified: bool | None
    is_power_of_maximal: bool
    used_columns: dict[int, tuple[int, ...]]
    max_degree: int | None

    @property
    def certified(self) -> bool:
        return bool(self.linear and self.artinian and self.regular_sequence_verified)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "dual_facets": self.r,
            "linear": self.linear,
            "rain": list(self.rain_gens),
            "alexander_dual": list(self.dual_gens),
            "specialized": list(self.specialized_gens),
            "artinian": self.artinian,
            "regular_sequence_verified": self.regular_sequence_verified,
            "power_of_maximal": self.is_power_of_maximal,
            "used_columns": {str(i): list(c) for i, c in sorted(self.used_columns.items())},
            "max_degree": self.max_degree,
            "certified": self.certified,
        }


def row_differences(ideal: MonomialIdeal) -> tuple[list, list[tuple[Monomial, Monomial]]]:
    """The sorted support of a grid ideal, and the differences x_{ij} - x_{ij'}
    from the first used column j of each row i to every later used one j'."""
    variables = sorted(ideal.support)
    by_row: dict[int, list] = {}
    for (i, j) in variables:
        by_row.setdefault(i, []).append((i, j))
    sigma = [
        (Monomial.variable(cols[0]), Monomial.variable(c))
        for _, cols in sorted(by_row.items())
        for c in cols[1:]
    ]
    return variables, sigma


def certify_polarization(
    delta: PureComplex, order: TermOrder, max_degree: int | None = None
) -> PolarizationReport:
    """Dualize the rainbow DFI, specialize rows to single variables, and
    check the polarization contract: the specialized ideal is Artinian and
    the row-wise variable differences form a regular sequence on the dual
    quotient (verified through the Hilbert profile up to the degree bound).

    The grid is restricted to the variables the rainbow DFI actually uses
    before dualizing; the restriction is recorded in the report."""
    rain = rainbow_dfi(delta, order)
    linear = linearity_criterion(delta, order, rain)
    n = order.n

    used_columns: dict[int, list[int]] = {}
    for (i, j) in sorted(rain.support):
        used_columns.setdefault(i, []).append(j)

    dual = alexander_dual(rain)
    specialized = specialize(dual)
    rows_present = sorted(specialized.support)
    artinian = not specialized.is_zero() and all(
        any(g.support == frozenset({row}) for g in specialized.gens)
        for row in rows_present
    )

    regular_ok: bool | None = None
    used_degree: int | None = None
    # No polarization is claimed for a nonlinear rainbow DFI, so the Hilbert
    # verification runs only on the certified side.
    if linear and not dual.is_zero() and not dual.is_unit():
        dual_vars, sigma = row_differences(dual)
        used_degree = max_degree
        if used_degree is None:
            # In the certified (linear) case the dual quotient has regularity
            # m - n; two degrees past that exposes any convolution failure.
            used_degree = (order.m - order.n) + 2
        profiles = hilbert_profile(list(dual.gens), sigma, used_degree, dual_vars)
        regular_ok = regular_profile_ok(profiles)

    return PolarizationReport(
        n=order.n,
        m=order.m,
        r=comb(delta.m, delta.n) - len(delta),  # the facets of the dual complex
        linear=linear,
        rain_gens=tuple(format_monomial(g) for g in rain.gens),
        dual_gens=tuple(format_monomial(g) for g in dual.gens),
        specialized_gens=tuple(format_monomial(g) for g in specialized.gens),
        artinian=artinian,
        regular_sequence_verified=regular_ok,
        is_power_of_maximal=_is_power_of_maximal(specialized),
        used_columns={i: tuple(c) for i, c in used_columns.items()},
        max_degree=used_degree,
    )
