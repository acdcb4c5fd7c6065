"""Based multigraded chain complexes and the homological toolkit.

A :class:`BasedComplex` keeps, per homological degree, an ordered list of
labeled basis elements with monomial multidegrees, and a sparse differential
whose entries carry only a sign: the monomial coefficient of an entry is
forced by the grading to be mdeg(source)/mdeg(target), and divisibility is
validated at construction (a restriction inherits it from its parent).

Homology is always computed multidegree by multidegree: the strand of the
complex at a monomial alpha retains the basis elements whose multidegree
divides alpha, and the differential becomes a matrix of signs over GF(p).
Exactness and Betti numbers are therefore questions about finitely many
strands, indexed by the lcm closure of the multidegrees involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import GradingViolation, SizeCap, UnitIdeal
from .gfp import DEFAULT_PRIME, VectorComplex, cell_homology, check_prime
from .ideals import MonomialIdeal
from .monomials import (
    Monomial, Steps, check_one_ring, code, exponent_steps, format_monomial, lcm_of, members,
    top_steps,
)


class BasedComplex:
    """A complex of free modules with labeled monomial-multidegree bases."""

    def __init__(
        self,
        basis: Sequence[Sequence[tuple[str, Monomial]]],
        diff: Mapping[tuple[str, str], int],
    ):
        self._basis: tuple[tuple[str, ...], ...] = tuple(
            tuple(label for label, _ in layer) for layer in basis
        )
        self._mdeg: dict[str, Monomial] = {}
        self._degree_of: dict[str, int] = {}
        for i, layer in enumerate(basis):
            for label, mdeg in layer:
                if label in self._mdeg:
                    raise ValueError(f"duplicate basis label {label!r}")
                self._mdeg[label] = mdeg
                self._degree_of[label] = i
        check_one_ring(self._mdeg.values())

        out: dict[str, list[tuple[str, int]]] = {l: [] for l in self._mdeg}
        for (src, tgt), sign in diff.items():
            if sign not in (1, -1):
                raise ValueError(f"sign must be +-1, got {sign}")
            if src not in self._mdeg or tgt not in self._mdeg:
                raise ValueError(f"unknown label in entry {src!r} -> {tgt!r}")
            if self._degree_of[src] != self._degree_of[tgt] + 1:
                raise ValueError(f"entry {src!r} -> {tgt!r} not between consecutive degrees")
            if not self._mdeg[tgt].divides(self._mdeg[src]):
                raise GradingViolation(
                    f"mdeg({tgt}) = {self._mdeg[tgt]} does not divide mdeg({src}) = {self._mdeg[src]}"
                )
            out[src].append((tgt, sign))
        pos = {l: k for layer in self._basis for k, l in enumerate(layer)}
        self._out = {l: tuple(sorted(v, key=lambda e: pos[e[0]])) for l, v in out.items()}
        self._vsupp: dict[str, frozenset] = {}
        self._cells: _CellIndex | None = None

    # -- basic access ------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return len(self._basis) - 1

    def degrees(self) -> range:
        return range(len(self._basis))

    def labels(self, i: int) -> tuple[str, ...]:
        if 0 <= i <= self.top_degree:
            return self._basis[i]
        return ()

    def all_labels(self) -> list[str]:
        return [l for layer in self._basis for l in layer]

    def mdeg(self, label: str) -> Monomial:
        return self._mdeg[label]

    def degree_of(self, label: str) -> int:
        return self._degree_of[label]

    def ranks(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self._basis)

    def out_entries(self, label: str) -> tuple[tuple[str, int], ...]:
        return self._out[label]

    def support(self, label: str) -> tuple[str, ...]:
        return tuple(t for t, _ in self._out[label])

    def coefficient(self, src: str, tgt: str) -> Monomial:
        return self._mdeg[src] / self._mdeg[tgt]

    def sign(self, src: str, tgt: str) -> int:
        for t, s in self._out[src]:
            if t == tgt:
                return s
        return 0

    def vertex_support(self, label: str) -> frozenset:
        """Degree-1 labels reachable from ``label`` through the differential."""
        cached = self._vsupp.get(label)
        if cached is not None:
            return cached
        deg = self._degree_of[label]
        if deg == 0:
            result: frozenset = frozenset()
        elif deg == 1:
            result = frozenset({label})
        else:
            acc: set[str] = set()
            for tgt, _ in self._out[label]:
                acc |= self.vertex_support(tgt)
            result = frozenset(acc)
        self._vsupp[label] = result
        return result

    # -- structural checks -------------------------------------------------

    def check_complex(self) -> bool:
        """d o d = 0: for each pair (source, target two degrees down) the
        signed coefficients cancel.  The grading makes all composite
        coefficient monomials equal, so the sign sum must vanish over Z."""
        for i in range(2, self.top_degree + 1):
            for src in self._basis[i]:
                acc: dict[str, int] = {}
                for mid, s1 in self._out[src]:
                    for tgt, s2 in self._out[mid]:
                        acc[tgt] = acc.get(tgt, 0) + s1 * s2
                if any(acc.values()):
                    return False
        return True

    # -- strands and exactness ----------------------------------------------

    def _cell_index(self) -> _CellIndex:
        """The cells numbered in basis order, with per-step bitsets; built
        on the first call and kept."""
        if self._cells is None:
            number = {l: k for k, l in enumerate(self.all_labels())}
            mdegs = [self._mdeg[l] for l in number]
            steps = exponent_steps(mdegs)
            codes = tuple(code(m, steps) for m in mdegs)
            self._cells = _CellIndex(
                tuple(self._degree_of[l] for l in number),
                tuple(tuple((number[t], s) for t, s in self._out[l]) for l in number),
                steps,
                codes,
                *_variable_bitsets(codes),
            )
        return self._cells

    def strand_at(self, alpha: Monomial, modulo: Monomial | None = None) -> VectorComplex:
        """Vector-space strand in multidegree alpha: retain basis elements
        whose multidegree divides alpha; a retained element's column holds
        the signs of its retained targets.

        With ``modulo``, a divisor of alpha, this is the relative strand
        C(alpha)/C(modulo): the elements whose multidegree divides
        ``modulo`` are dropped as well, together with their entries.  Raises
        ValueError if ``modulo`` does not divide alpha.

        The retained cells are read from the cell index as one bitset (see
        ``_strand_cells``); only its set bits are visited."""
        if modulo is not None and not modulo.divides(alpha):
            raise ValueError(f"{modulo} does not divide {alpha}")
        cells = self._cell_index()
        degrees, out = cells.degrees, cells.out
        dims = [0] * len(self._basis)
        diffs: list[list[dict[int, int]]] = [[] for _ in dims]
        row: dict[int, int] = {}
        for k in members(self._strand_cells(alpha, modulo)):
            i = degrees[k]
            row[k] = dims[i]
            dims[i] += 1
            if i:
                column = {row[t]: sign for t, sign in out[k] if t in row}
                if column:
                    diffs[i].append(column)
        return VectorComplex(dims, diffs)

    def _strand_cells(self, alpha: Monomial, modulo: Monomial | None) -> int:
        """The cells of C(alpha)/C(modulo) as a bitset over the cell index,
        div(alpha) & ~div(modulo), where div(a) drops the cells whose
        exponent code (see ``monomials.exponent_steps``) holds a step
        outside the code of a; ``modulo`` must divide alpha."""
        cells = self._cell_index()
        a = code(alpha, cells.steps)
        kept = _inside(a, cells.used, cells.has, cells.every)
        if modulo is not None:
            # a cell of div(alpha) lies in div(modulo) unless it holds a
            # step of alpha outside modulo
            kept &= ~_inside(code(modulo, cells.steps), a & cells.used, cells.has, kept)
        return kept

    def _closure_generators(self) -> list[Monomial]:
        """The basis multidegrees in degrees >= 1, without those equal to
        the lcm of their proper divisors in the set (for a homogenized
        complex, this leaves the degree-1 layer), by degree.  Divisibility
        and lcm are decided on the exponent codes of the cell index: d
        divides c when d & ~c == 0, and the lcm is the OR."""
        cells = self._cell_index()
        labels = self.all_labels()
        gens = {c: self._mdeg[labels[k]] for k, c in enumerate(cells.codes) if cells.degrees[k]}
        core: list[Monomial] = []
        codes: list[int] = []
        for c, m in sorted(gens.items(), key=lambda g: (g[1].degree, g[1].sort_key())):
            below = [d for d in codes if not d & ~c]
            if not below or reduce(or_, below) != c:
                core.append(m)
                codes.append(c)
        return core

    def relevant_multidegrees(self) -> list[Monomial]:
        """Pairwise-lcm closure of all basis multidegrees in degrees >= 1,
        generated by ``_closure_generators``."""
        return lcm_closure(self._closure_generators())

    def strand_homologies(self, p: int = DEFAULT_PRIME) -> Iterator[tuple[Monomial, list[int]]]:
        """``(alpha, self.strand_at(alpha).homology_ranks(p))`` for each alpha
        of ``relevant_multidegrees()``, in that order.

        If gamma divides alpha, C(gamma) is a subcomplex of C(alpha), and if
        C(gamma) is acyclic in every degree, the long exact sequence of the
        pair gives H(C(alpha)) = H(C(alpha)/C(gamma)) over any field.  So
        each step x of the exponent code of alpha (``monomials.code``; a
        variable, if alpha is squarefree) is tried in turn, those in the
        fewest closure generators below alpha first (the lowest bit on a
        tie), with gamma the lcm of the generators below alpha that avoid
        x; the first gamma whose strand had no homology is taken out, and
        only the cells above it are ranked (all cells if there is none).
        The generators are numbered once per sweep, and the ones below
        alpha, or with a given step, are int bitsets over those numbers.

        The ranks of a strand depend only on its cells, so the sweep keeps
        one memo, for this call only, from the cell bitset of C(alpha)/C(gamma)
        (``_strand_cells``) to its ranks: ``strand_at`` is called and ranked
        only at the first alpha of each cell set, and every alpha gets a
        list of its own.  Raises ValueError unless p is a prime below 2^31
        and d o d = 0 over Z, which the long exact sequence needs."""
        check_prime(p)
        if not self.check_complex():
            raise ValueError("d o d is not zero: the strands are not complexes")
        core = self._closure_generators()
        steps = exponent_steps(core)
        gens = [code(g, steps) for g in core]
        every, used, gwith = _variable_bitsets(gens)
        acyclic: dict[int, Monomial] = {}
        ranked: dict[int, list[int]] = {}
        for alpha in lcm_closure(core):
            a, modulo = code(alpha, steps), None
            below = _inside(a, used, gwith, every)
            variables = []
            rest = a
            while rest:
                x = rest & -rest
                rest ^= x
                variables.append(((below & gwith[x]).bit_count(), x))
            for _, x in sorted(variables):
                gamma = 0
                for j in members(below & ~gwith[x]):
                    gamma |= gens[j]
                modulo = acyclic.get(gamma)
                if modulo is not None:
                    break
            kept = self._strand_cells(alpha, modulo)
            hom = ranked.get(kept)
            if hom is None:
                hom = ranked[kept] = self.strand_at(alpha, modulo).homology_ranks(p)
            if not any(hom):
                acyclic[a] = alpha
            yield alpha, list(hom)

    def is_resolution(self, p: int = DEFAULT_PRIME) -> bool:
        """Acyclicity: d o d = 0 over Z, and every strand over the lcm
        closure has vanishing homology in homological degrees >= 1."""
        if not self.check_complex():
            return False
        return not any(any(hom[1:]) for _, hom in self.strand_homologies(p))

    # -- restriction ----------------------------------------------------------

    def restrict(self, keep: Iterable[str]) -> "BasedComplex":
        """The subcomplex on the kept labels (labels not in this complex are
        ignored), with empty top layers dropped.

        Every entry between kept labels is an entry of this valid complex,
        so the subcomplex is built directly: layers and adjacency lists are
        filtered in their existing order, without ``__init__``'s checks.
        Vertex supports are not copied, since a kept face can lose a vertex,
        nor is the cell index, whose numbering the dropped cells would break."""
        keep_set = set(keep)
        basis = [tuple(l for l in layer if l in keep_set) for layer in self._basis]
        while basis and not basis[-1]:
            basis.pop()
        mdeg, degree_of, out = self._mdeg, self._degree_of, self._out
        sub = object.__new__(BasedComplex)
        sub._basis = tuple(basis)
        sub._mdeg = {l: mdeg[l] for layer in basis for l in layer}
        sub._degree_of = {l: degree_of[l] for layer in basis for l in layer}
        sub._out = {
            l: tuple(e for e in out[l] if e[0] in keep_set) for layer in basis for l in layer
        }
        sub._vsupp = {}
        sub._cells = None
        return sub

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "degrees": [
                [{"label": l, "mdeg": format_monomial(self._mdeg[l])} for l in layer]
                for layer in self._basis
            ],
            "diff": [
                {
                    "from": src,
                    "to": tgt,
                    "sign": sign,
                    "coeff": format_monomial(self.coefficient(src, tgt)),
                }
                for src, ents in sorted(self._out.items())
                for tgt, sign in ents
            ],
        }


class _CellIndex(NamedTuple):
    """The cells of a complex numbered 0..N-1 in basis order: each cell's
    homological degree and differential entries as (target number, sign),
    the exponent steps of their multidegrees, their exponent codes, and
    ``_variable_bitsets`` of those codes."""

    degrees: tuple[int, ...]
    out: tuple[tuple[tuple[int, int], ...], ...]
    steps: Steps
    codes: tuple[int, ...]
    every: int
    used: int
    has: dict[int, int]


def _variable_bitsets(codes: Sequence[int]) -> tuple[int, int, dict[int, int]]:
    """For codes numbered 0..N-1: the bitset of all N numbers, the OR of the
    codes, and for each step bit x (a one-bit int) the bitset of the numbers
    whose code holds x."""
    used = 0
    has: dict[int, int] = {}
    for k, c in enumerate(codes):
        used |= c
        while c:
            x = c & -c
            c ^= x
            has[x] = has.get(x, 0) | 1 << k
    return (1 << len(codes)) - 1, used, has


def _inside(a: int, used: int, has: Mapping[int, int], items: int) -> int:
    """The numbers in the bitset ``items`` whose codes lie inside the code
    ``a``: those holding no step of ``used`` outside ``a``, with ``used``
    covering every step of the items' codes and ``has`` as returned by
    ``_variable_bitsets``."""
    outside = 0
    rest = used & ~a
    while rest:
        x = rest & -rest
        rest ^= x
        outside |= has[x]
    return items & ~outside


# -- standard builders ---------------------------------------------------------


def taylor_complex(gens: Sequence[Monomial]) -> BasedComplex:
    """Taylor complex on the given monomials; subsets are labeled by their
    sorted index sets."""
    k = len(gens)
    basis: list[list[tuple[str, Monomial]]] = [[("1", Monomial.one())]]
    diff: dict[tuple[str, str], int] = {}

    def label(subset: tuple[int, ...]) -> str:
        return "e(" + ",".join(str(s) for s in subset) + ")"

    for size in range(1, k + 1):
        layer = []
        for subset in combinations(range(k), size):
            mdeg = lcm_of(gens[s] for s in subset)
            layer.append((label(subset), mdeg))
            for pos, s in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1 :]
                tgt = label(rest) if rest else "1"
                diff[(label(subset), tgt)] = (-1) ** pos
        basis.append(layer)
    return BasedComplex(basis, diff)


# -- lcm closures ----------------------------------------------------------------


def lcm_closure(monomials: Iterable[Monomial], degree_cap: int | None = None) -> list[Monomial]:
    """Closure of the given monomials under pairwise lcm (hence under subset
    lcms), optionally discarding lcms above a total-degree cap."""
    gens = [m for m in set(monomials) if not m.is_one()]
    check_one_ring(gens)
    if degree_cap is not None:
        gens = [m for m in gens if m.degree <= degree_cap]
    # an lcm is the OR of the exponent codes, and its degree their bit
    # count: each candidate is decided on ints, and only new ones are built
    steps = exponent_steps(gens)
    coded = [(code(g, steps), g) for g in gens]
    closed = dict(coded)
    frontier = coded
    while frontier:
        new: list[tuple[int, Monomial]] = []
        for a, am in frontier:
            for g, gm in coded:
                c = a | g
                if c not in closed and (degree_cap is None or c.bit_count() <= degree_cap):
                    closed[c] = cm = am.lcm(gm)
                    new.append((c, cm))
        frontier = new
    return sorted(closed.values(), key=lambda m: (m.degree, m.sort_key()))


# -- Betti tables -------------------------------------------------------------------


@dataclass
class BettiTable:
    """Multigraded Betti numbers with their coarse (total-degree) image."""

    entries: dict[tuple[int, Monomial], int] = field(default_factory=dict)

    def add(self, i: int, alpha: Monomial, rank: int) -> None:
        if rank:
            key = (i, alpha)
            self.entries[key] = self.entries.get(key, 0) + rank

    def coarse(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (i, alpha), rank in self.entries.items():
            key = (i, alpha.degree)
            out[key] = out.get(key, 0) + rank
        return out

    def totals(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (i, _), rank in self.entries.items():
            out[i] = out.get(i, 0) + rank
        return out

    def total_vector(self) -> tuple[int, ...]:
        totals = self.totals()
        top = max(totals) if totals else 0
        return tuple(totals.get(i, 0) for i in range(top + 1))

    def row(self, r: int) -> dict[int, int]:
        """Entries in display row r: homological degree i -> rank at total degree i + r."""
        return {i: v for (i, j), v in self.coarse().items() if j - i == r}

    def rows_present(self) -> set[int]:
        return {j - i for (i, j) in self.coarse()}

    def to_csv_rows(self) -> list[tuple[int, int, str, int]]:
        rows = [
            (i, alpha.degree, format_monomial(alpha), rank)
            for (i, alpha), rank in self.entries.items()
        ]
        return sorted(rows, key=lambda r: (r[0], r[1], r[2]))

    def __str__(self) -> str:
        coarse = self.coarse()
        if not coarse:
            return "(empty Betti table)"
        imax = max(i for i, _ in coarse)
        rmax = max(j - i for (i, j) in coarse)
        lines = ["       " + " ".join(f"{i:>5}" for i in range(imax + 1))]
        totals = self.totals()
        lines.append("total: " + " ".join(f"{totals.get(i, 0) or '.':>5}" for i in range(imax + 1)))
        for r in range(rmax + 1):
            row = self.row(r)
            lines.append(f"{r:>4}:  " + " ".join(f"{row.get(i, 0) or '.':>5}" for i in range(imax + 1)))
        return "\n".join(lines)


# -- the Koszul homology oracle --------------------------------------------------


def koszul_strand_homology(
    ideal: MonomialIdeal,
    alpha: Monomial,
    p: int = DEFAULT_PRIME,
    memo: dict[tuple[int, tuple[int, ...]], list[int]] | None = None,
    codes: tuple[Steps, Sequence[int]] | None = None,
) -> list[int]:
    """Homology ranks of the multidegree-alpha strand of the Koszul complex on
    all variables tensored with R/I, in homological degrees 0..|supp(alpha)|.

    The strand U has a basis of the squarefree subsets S of supp(alpha) that
    are standard, meaning x^alpha / x^S is not in I, with S in degree |S|.
    Standard subsets form an up-set: for T containing S, x^alpha / x^T
    divides x^alpha / x^S, so it is not in I either.  So U is the relative
    chain complex of the full simplex on supp(alpha) modulo the upper Koszul
    simplicial complex K^alpha of nonstandard subsets, and H_i(U) is the
    reduced homology of K^alpha in dimension i - 2 (Miller and Sturmfels,
    Combinatorial Commutative Algebra, Thm. 1.34).

    For a variable v, the cells C_v = {standard S containing v with S - {v}
    nonstandard} span a subcomplex of U: removing another variable keeps v,
    and keeps S - {v} nonstandard.  The remaining cells pair off as
    S <-> S + {v} through a differential entry of +-1, so U / C_v is the cone
    of an identity map and is acyclic.  Hence H_i(U) = H_i(C_v) for every i
    and every p, and the ranks are taken on C_v for the v that leaves the
    fewest cells (the lowest such v on a tie).

    Sets of subsets are Python ints of 2^s bits, s = |supp(alpha)|, with bit
    S standing for the subset with bit mask S over the sorted support; the
    cells reach ``cell_homology`` in increasing mask order.

    The standard subsets are read off exponent codes (``monomials.code``):
    ``codes`` is a step layout and the codes of ``ideal.gens`` under it, in
    that order, which ``koszul_betti`` lists once for all its multidegrees;
    the layout must reach every exponent of alpha, as that of the
    generators reaches each lcm of them.  Without ``codes``, the steps are
    laid out over the generators and alpha, so that an exponent of alpha
    above every generator's is not capped.  The oracle shares only ``code``
    and ``exponent_steps`` with the resolution sweep, never its cell index
    (``_inside``, ``_variable_bitsets``), so that one bug cannot make the
    two agree.

    The ranks of C_v depend only on s and its cells, at a fixed p, so they
    are looked up in ``memo``, from (s, the tuple of cell masks) to ranks:
    a cone already in it is not ranked again, and a new one is added.  A
    caller that ranks many multidegrees at one prime passes one dict for
    all of them; without one, the memo is a fresh dict for this call.  The
    key grows with the number of cells, not with 2^s.  The list returned is
    always the caller's own.
    """
    if memo is None:
        memo = {}
    if codes is None:
        steps = exponent_steps([*ideal.gens, alpha])
        codes = steps, [code(g, steps) for g in ideal.gens]
    s = len(alpha.exps)
    standard = _standard_subsets(*codes, alpha)
    if s == 0:
        return [standard]
    cells = tuple(members(min(_cones(standard, s), key=int.bit_count)))
    ranks = memo.get((s, cells))
    if ranks is None:
        ranks = memo[s, cells] = cell_homology(cells, s, p)
    return list(ranks)


@cache
def _lacking(s: int) -> tuple[int, ...]:
    """For each k < s, the 2^s-bit set of the subsets of an s-set that lack
    element k: bits 0..2^k - 1 of every block of 2^(k+1), built by doubling
    (a big-int division or product would cost far more at s = 22)."""
    lacking = []
    for k in range(s):
        bits, width = (1 << (1 << k)) - 1, 2 << k
        while width < 1 << s:
            bits |= bits << width
            width <<= 1
        lacking.append(bits)
    return tuple(lacking)


def _standard_subsets(steps: Steps, gens: Sequence[int], alpha: Monomial) -> int:
    """The standard subsets of supp(alpha) as a 2^s-bit set, s = |supp(alpha)|,
    from the codes ``gens`` of the generators under ``steps``, a layout that
    reaches every exponent of alpha.

    A generator g dividing x^alpha divides x^alpha / x^S exactly when S
    avoids the tight variables, where g reaches the exponent of alpha; so S
    is standard iff it meets the tight set of every such g.  On the codes,
    g divides x^alpha iff g & ~a is 0, with a the code of alpha, and its
    tight set is g & tops, with tops the top step of each variable of alpha
    (``monomials.top_steps``): for a squarefree g, its support.  Each
    distinct tight set is taken once, as the AND of the ``_lacking`` sets of
    its variables, numbered by their places in the sorted support.
    """
    outside = ~code(alpha, steps)
    top = top_steps(alpha, steps)
    tops = sum(top)  # the top steps are distinct bits, or 0
    tight = {g & tops for g in gens if not g & outside}
    place = dict(zip(top, _lacking(len(top))))
    full = (1 << (1 << len(top))) - 1
    nonstandard = 0
    for t in tight:
        avoid = full
        while t:
            x = t & -t
            t ^= x
            avoid &= place[x]
        nonstandard |= avoid
    return full ^ nonstandard


def _cones(standard: int, s: int) -> list[int]:
    """C_v for v = bit k, for each k < s: the standard S that contain v with
    S - {v} (bit S - 2^k) not standard."""
    return [standard & ~lack & ~(standard << (1 << k)) for k, lack in enumerate(_lacking(s))]


# Each multidegree alpha of the sweep holds its standard subsets and cones as
# ints of 2^|supp(alpha)| bits, and without a degree cap the lcm of all
# generators is one of them: 22 variables take 512 KiB per set, 30 would take
# 128 MiB.  Every rainbow DFI inside the CLI's size caps uses at most
# n(m - n + 1) = 20 variables.
MAX_SUPPORT = 22


def koszul_betti(
    ideal: MonomialIdeal,
    p: int = DEFAULT_PRIME,
    degree_cap: int | None = None,
) -> BettiTable:
    """Full multigraded Betti table of R/I by rank computations over GF(p).

    Tor of a monomial quotient is supported on the lcm lattice of the
    generators, so the sweep runs over the pairwise-lcm closure; a degree cap
    restricts the table to total degrees <= cap (used for linear-strand
    comparisons, where only row entries up to the resolution length matter).
    Raises ``UnitIdeal`` for the unit ideal and ``SizeCap``, before any
    work, for an ideal on more than ``MAX_SUPPORT`` variables.

    Every alpha goes through ``koszul_strand_homology`` with one memo kept
    for this call only, from (|supp(alpha)|, cone cells) to ranks, so a
    cone that recurs among the multidegrees is ranked once.  The exponent
    steps of the generators and their codes (``monomials.exponent_steps``
    and ``code``, the only parts of the program that the oracle shares with
    the resolution sweep) are listed once, for this call only, and passed
    to every alpha: each alpha is an lcm of generators, so the layout
    reaches its exponents.
    """
    check_prime(p)
    if ideal.is_unit():
        raise UnitIdeal("the Betti table of the unit ideal is not defined")
    if len(ideal.support) > MAX_SUPPORT:
        raise SizeCap(
            f"the ideal uses {len(ideal.support)} variables; the Koszul oracle "
            f"allocates 2^k masks for a multidegree on k variables and is capped "
            f"at {MAX_SUPPORT}"
        )
    table = BettiTable()
    table.add(0, Monomial.one(), 1)
    ranked: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    steps = exponent_steps(ideal.gens)
    codes = steps, [code(g, steps) for g in ideal.gens]
    for alpha in lcm_closure(ideal.gens, degree_cap=degree_cap):
        hom = koszul_strand_homology(ideal, alpha, p, ranked, codes)
        for i, rank in enumerate(hom):
            if i >= 1 and rank:
                table.add(i, alpha, rank)
    return table


# -- the linear-strand criterion -----------------------------------------------------


def is_linear_strand_of_module(cx: BasedComplex, p: int = DEFAULT_PRIME) -> bool:
    """Homological criterion for a linear complex to be the linear strand of a
    finitely generated module: homology must vanish in the two total degrees
    immediately above the linear line, in every homological degree >= 2
    (degree 1 of the resolved ideal).  A non-complex is never one."""
    if not cx.check_complex():
        return False
    firsts = cx.labels(1)
    if not firsts:
        return True
    n = min(cx.mdeg(l).degree for l in firsts)
    for alpha, hom in cx.strand_homologies(p):
        for h in range(2, len(hom)):
            if hom[h] and alpha.degree - n - (h - 1) in (0, 1):
                return False
    return True
