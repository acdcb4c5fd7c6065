"""Face posets of based complexes and CW-poset certification.

The face poset of a based complex has one element per basis label, ordered by
membership in differential supports and extended transitively, with the
augmentation element (multidegree 1) as least element.  A poset is certified
to be the face poset of a regular CW complex by checking: a least element,
more than one element, thinness (length-two intervals have exactly four
elements), sphere homology of every open lower interval, and a verified
recursive atom ordering of every closed lower interval.  Homeomorphism
itself is undecidable; sphere homology together with the shelling
certificate is the operative criterion.

The interval work is done once per poset rather than once per element.  The
chains of every open lower interval are concatenations of per-element lists
that the poset builds once (``FacePoset.chains_ending``), and one
depth-first pass over the atom-ordering recursion checks every closed lower
interval (``recursive_atom_ordering_check``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .complexes import BasedComplex
from .errors import SizeCap
from .gfp import DEFAULT_PRIME, cell_homology, check_prime
from .monomials import members

# The most atoms an interval [b, x] may have for its atom orderings to be
# checked.  The atom-ordering pass, which is_cw_poset runs first, is the one
# place that counts them: it refuses a larger [b, x] with SizeCap.
MAX_ATOMS = 12
# The deepest recursion into upper intervals that the atom-ordering pass
# makes before it gives up with SizeCap.
MAX_DEPTH = 8


class FacePoset:
    """The face poset of a based complex, as a view of the complex.

    Element k is the k-th label of the complex's basis order, so every
    cover goes from a lower to a higher index, and the least element (the
    one degree-0 label) is element 0.  The order is kept as four lists of
    int masks over the indices: the covers below and above each element,
    and its closed down and up sets.  Ranks, multidegrees and incidence
    signs are read from the complex itself.  The chains that interval
    homology reads are built by ``chains_ending`` on the first query and
    kept as long as the poset.
    """

    def __init__(self, cx: BasedComplex):
        zero = cx.labels(0)
        if len(zero) != 1:
            raise ValueError("face poset needs a unique degree-0 element")
        self.cx = cx
        self.bottom = zero[0]
        self.elements = cx.all_labels()
        self.index = {x: k for k, x in enumerate(self.elements)}
        size = len(self.elements)
        self.lower = [0] * size
        self.upper = [0] * size
        for k, x in enumerate(self.elements):
            for tgt, _ in cx.out_entries(x):
                t = self.index[tgt]
                self.lower[k] |= 1 << t
                self.upper[t] |= 1 << k
        self.down = [0] * size
        for k in range(size):
            acc = 1 << k
            for t in members(self.lower[k]):
                acc |= self.down[t]
            self.down[k] = acc
        self.up = [0] * size
        for k in reversed(range(size)):
            acc = 1 << k
            for t in members(self.upper[k]):
                acc |= self.up[t]
            self.up[k] = acc
        self._chains: list[list[int]] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def rank(self, x: str) -> int:
        return self.cx.degree_of(x)

    def interval(self, x: str, y: str) -> int:
        """The closed interval [x, y] as an index mask (0 unless x <= y)."""
        return self.up[self.index[x]] & self.down[self.index[y]]

    def chains_ending(self) -> list[list[int]]:
        """For each element k, the chains that top out at k and avoid
        element 0 (none for element 0), as index masks: k alone, then k
        added to each chain of the list of each element below k, in index
        order.  Each chain is built once, and every face comes before its
        cofaces in a list and in any concatenation of lists in index order.
        The lists are built on the first call and kept."""
        if self._chains is None:
            self._chains = [[]]
            for k in range(1, len(self)):
                bit = 1 << k
                lists = [self._chains[j] for j in members(self.down[k] & ~1 & ~bit)]
                self._chains.append([bit] + [c | bit for chains in lists for c in chains])
        return self._chains


def face_poset(cx: BasedComplex) -> FacePoset:
    """The face poset of a based complex: one element per basis label, ordered
    by membership in differential supports and extended transitively, with
    the unique degree-0 element as least element.  Raises ValueError unless
    the complex has exactly one degree-0 element."""
    return FacePoset(cx)


def is_thin(poset: FacePoset) -> bool:
    """Every closed interval of length two has exactly four elements."""
    lower, upper = poset.lower, poset.upper
    for mids in lower:
        grands = 0
        for z in members(mids):
            grands |= lower[z]
        for x in members(grands):
            if (mids & upper[x]).bit_count() != 2:
                return False
    return True


def order_complex_reduced_homology(chains: list[int], p: int = DEFAULT_PRIME) -> dict[int, int]:
    """Reduced simplicial homology ranks of an order complex over GF(p), from
    the list of its chains.  Each chain is the index mask of its elements in
    a poset numbered along a linear extension, so its bits run in chain
    order; it sits in cell degree equal to its size, and the list holds the
    empty chain, the (-1)-cell.  The empty complex reports the (-1)-sphere
    convention: rank 1 in degree -1.

    The chains are first matched by element matchings (Jonsson, Simplicial
    Complexes of Graphs, 2008, ch. 4): for each element v in index order,
    each unpaired chain c that holds v is paired with c - v, always a chain,
    when c - v is unpaired too.  The pairs have incidence +-1, and a sequence
    of element matchings is acyclic, so the homology is that of a Morse
    complex on the chains left unpaired (Forman, Morse theory for cell
    complexes, 1998).  When no two of those critical chains differ in size
    by one, that complex has zero differential: the counts per size are the
    ranks at every p, and no matrix is built.  Otherwise the boundary matrices
    of all the chains are eliminated by ``gfp.cell_homology``, rows and
    columns in list order; its fill-in follows that order, and the lists of
    ``FacePoset.chains_ending`` put every face before its cofaces.
    """
    check_prime(p)
    elements = 0
    for c in chains:
        elements |= c
    # Within one step the candidate pairs {c - v, c} are disjoint, so the
    # order in which the chains holding v are visited does not matter.
    critical = set(chains)
    for v in members(elements):
        bit = 1 << v
        for c in [c for c in critical if c & bit]:
            if c ^ bit in critical:
                critical.remove(c)
                critical.remove(c ^ bit)
    sizes = Counter(c.bit_count() for c in critical)
    if not any(size + 1 in sizes for size in sizes):
        return {size - 1: count for size, count in sorted(sizes.items())}
    top = max(c.bit_count() for c in chains)
    hom = cell_homology(chains, top, p)
    return {d - 1: h for d, h in enumerate(hom) if h}


def open_interval_homology(
    poset: FacePoset, x: str, y: str, p: int = DEFAULT_PRIME
) -> dict[int, int]:
    """Reduced homology of the order complex of the open interval (x, y).
    Raises ValueError unless x < y.

    The chains are the shared lists of ``FacePoset.chains_ending`` for the
    elements strictly between, concatenated.  The list of an element j holds
    chains through any element below j but element 0, so unless the
    interval holds every such element below y, which it does when x is the
    bottom of a poset with a least element, the concatenation is filtered to
    the chains inside the interval."""
    k = poset.index[y]
    ends = 1 << poset.index[x] | 1 << k
    interval = poset.interval(x, y)
    if x == y or not interval:
        raise ValueError(f"open interval needs {x} < {y}")
    inside = interval & ~ends
    lists = poset.chains_ending()
    chains = [0]
    for j in members(inside):
        chains += lists[j]
    if inside != poset.down[k] & ~(1 << k) & ~1:
        chains = [c for c in chains if not c & ~inside]
    return order_complex_reduced_homology(chains, p)


def recursive_atom_ordering_check(
    poset: FacePoset, atom_key: Callable[[str], object] | None = None
) -> list[str]:
    """The elements x, in element order, for which one ordering of the atoms
    of [bottom, x], and the orderings it induces, fail to form a recursive
    atom ordering (Björner, Posets, regular CW complexes and Bruhat order,
    1984).  Every closed lower interval is checked in one depth-first pass.

    The atoms of [bottom, x] are sorted by ``atom_key`` (default: the
    multidegree), ties broken by label; the key is evaluated once per
    element.  The atoms of each upper interval [a_j, x] are ordered by the
    induced rule: those above an earlier atom a_i (i < j) first, then the
    rest, each block sorted the same way.  So the first block is always a
    prefix, and the check is of condition (ii) at every level of the
    recursion.

    The induced ordering of the atoms of [a_j, x] is the restriction to the
    elements below x of one ordering of all covers of a_j, which does not
    depend on x: if a_i <= z <= x, then a_i <= x.  Likewise condition (ii)
    on [b, x] is the restriction to y <= x of the same condition over every
    y above b.  So the pass visits each recursion state, an element b with
    the first block of its covers, once for all x, and collects the set F of
    the elements y at which (ii) fails; [bottom, x] fails exactly when some
    y in F lies below x.

    Raises SizeCap when any state the recursion of some closed lower
    interval would reach lies deeper than MAX_DEPTH, or stands for an
    interval [b, x] with more than MAX_ATOMS atoms, named with its count
    (b is ``bottom`` at the root state, which is checked first).  Every
    state is visited whether or not an interval fails, so a poset with a
    failing interval and an interval over a cap raises SizeCap.
    """
    cx, labels = poset.cx, poset.elements
    upper, down, up = poset.upper, poset.down, poset.up
    if atom_key is None:
        atom_key = lambda label: cx.mdeg(label).sort_key()
    rank = [cx.degree_of(x) for x in labels]
    # Atoms of one interval share a rank, so one sort of every element by
    # (rank, key, label) orders each of them; keys of different ranks are
    # never compared.
    keys = [(r, atom_key(x), x) for r, x in zip(rank, labels)]
    position = [0] * len(labels)
    for place, k in enumerate(sorted(range(len(labels)), key=keys.__getitem__)):
        position[k] = place
    # height[k]: the largest rank of an element above k.  The recursion of
    # [b, x] stops where x is at most one rank above b, so a state at b
    # stands for the intervals [b, x] with x two or more ranks above it.
    height = rank[:]
    for k in reversed(range(len(labels))):
        for u in members(upper[k]):
            height[k] = max(height[k], height[u])
    failed = 0
    seen: set[tuple[int, int]] = set()

    def visit(b: int, first: int, depth: int) -> None:
        nonlocal failed
        if depth > MAX_DEPTH:
            raise SizeCap(f"recursive atom ordering deeper than {MAX_DEPTH}")
        atoms = upper[b]
        for x in members(up[b]):
            count = (atoms & down[x]).bit_count()
            if count > MAX_ATOMS and rank[x] - rank[b] > 1:
                raise SizeCap(f"interval with more than {MAX_ATOMS} atoms: "
                              f"[{labels[b] if b else 'bottom'}, {labels[x]}] has {count}")
        ordering = sorted(members(first), key=position.__getitem__)
        ordering += sorted(members(atoms & ~first), key=position.__getitem__)
        # above: the elements above one of the atoms before a.
        above = 0
        for a in ordering:
            # (ii) for an earlier atom a_i and y >= a_i, a there must be a
            #      cover z of a with z <= y above an earlier atom.  These
            #      covers are also the first block of a's own state.
            witnesses = upper[a] & above
            for y in members(up[a] & above & ~failed):
                if not down[y] & witnesses:
                    failed |= 1 << y
            # (i) recurse into [a, x] with the induced ordering.
            if height[a] - rank[a] > 1 and (a, witnesses) not in seen:
                seen.add((a, witnesses))
                visit(a, witnesses, depth + 1)
            above |= up[a]

    if height[0] - rank[0] > 1:
        visit(0, 0, 1)
    failing = 0
    for y in members(failed):
        failing |= up[y]
    return [labels[k] for k in members(failing)]


@dataclass
class CWCertificate:
    has_least: bool
    nontrivial: bool
    thin: bool
    interval_spheres: bool
    atom_orderings: bool
    failures: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return (
            self.has_least
            and self.nontrivial
            and self.thin
            and self.interval_spheres
            and self.atom_orderings
        )

    def to_json(self) -> dict:
        return {
            "has_least": self.has_least,
            "nontrivial": self.nontrivial,
            "thin": self.thin,
            "interval_spheres": self.interval_spheres,
            "atom_orderings": self.atom_orderings,
            "failures": list(self.failures),
            "verdict": self.verdict,
        }


def is_cw_poset(
    poset: FacePoset,
    p: int = DEFAULT_PRIME,
    atom_key: Callable[[str], object] | None = None,
) -> CWCertificate:
    """Certify the CW-poset axioms: least element, nontriviality, thinness,
    sphere homology of every open lower interval, and a recursive atom
    ordering of every closed lower interval.  A given ``atom_key`` is
    evaluated once per element.

    The atom-ordering pass runs first, so its caps raise SizeCap before any
    other work, even when another interval fails.
    """
    failing = recursive_atom_ordering_check(poset, atom_key=atom_key)
    failures: list[str] = []
    has_least = poset.up[0] == (1 << len(poset)) - 1
    if not has_least:
        failures.append("least element")
    nontrivial = len(poset) > 1
    if not nontrivial:
        failures.append("more than one element")
    thin = is_thin(poset)
    if not thin:
        failures.append("thinness")

    spheres = True
    for x in poset.elements[1:]:
        hom = open_interval_homology(poset, poset.bottom, x, p)
        if hom != {poset.rank(x) - 2: 1}:
            spheres = False
            failures.append(f"sphere homology of (bottom, {x})")
            break
    if failing:
        failures.append(f"recursive atom ordering of [bottom, {failing[0]}]")
    return CWCertificate(has_least, nontrivial, thin, spheres, not failing, failures)


def export_poset(cx: BasedComplex) -> str:
    """The face poset of a based complex in Graphviz DOT: covers as edges
    from the lower element, dashed where the incidence sign is -1, drawn
    bottom to top.  Nodes come in (rank, label) order and covers sorted by
    their ends."""
    labels = cx.all_labels()
    nodes = sorted(labels, key=lambda x: (cx.degree_of(x), x))
    covers = sorted((lo, hi, sign) for hi in labels for lo, sign in cx.out_entries(hi))
    lines = ["digraph face_poset {", "  rankdir=BT;"]
    for x in nodes:
        lines.append(f'  "{x}" [label="{x}\\nrank {cx.degree_of(x)}"];')
    for lo, hi, sign in covers:
        style = "" if sign > 0 else " [style=dashed]"
        lines.append(f'  "{lo}" -> "{hi}"{style};')
    lines.append("}")
    return "\n".join(lines)
