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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .complexes import BasedComplex
from .errors import SizeCap
from .gfp import DEFAULT_PRIME, cell_homology, check_prime
from .monomials import members

# The most atoms a closed lower interval may have for its atom orderings to
# be checked; a larger interval is refused with SizeCap before any work.
MAX_ATOMS = 12
# The deepest recursion into upper intervals that an atom-ordering check
# makes before it gives up with SizeCap.
MAX_DEPTH = 8


class FacePoset:
    """The face poset of a based complex, as a view of the complex.

    Element k is the k-th label of the complex's basis order, so every
    cover goes from a lower to a higher index, and the least element (the
    one degree-0 label) is element 0.  The order is kept as four lists of
    int masks over the indices: the covers below and above each element,
    and its closed down and up sets.  Ranks, multidegrees and incidence
    signs are read from the complex itself.
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

    def __len__(self) -> int:
        return len(self.elements)

    def rank(self, x: str) -> int:
        return self.cx.degree_of(x)

    def interval(self, x: str, y: str) -> int:
        """The closed interval [x, y] as an index mask (0 unless x <= y)."""
        return self.up[self.index[x]] & self.down[self.index[y]]


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


def order_complex_reduced_homology(
    elements: int, up: Sequence[int], p: int = DEFAULT_PRIME
) -> dict[int, int]:
    """Reduced simplicial homology ranks of the order complex of a finite
    poset, over GF(p).  The poset is the index mask ``elements`` of a larger
    one whose order is given by the closed up sets ``up``, with indices
    numbered along a linear extension.  The empty complex reports the
    (-1)-sphere convention: rank 1 in degree -1.

    Each chain is stored as the mask of its elements, so its bits run in
    chain order, and sits in cell degree equal to its size: the empty chain
    is the (-1)-cell.

    The chains are first matched by element matchings (Jonsson, Simplicial
    Complexes of Graphs, 2008, ch. 4): for each element v in index order,
    each unpaired chain c that holds v is paired with c - v, always a chain,
    when c - v is unpaired too.  The pairs have incidence +-1, and a sequence
    of element matchings is acyclic, so the homology is that of a Morse
    complex on the chains left unpaired (Forman, Morse theory for cell
    complexes, 1998).  When no two of those critical chains differ in size
    by one, that complex has zero differential: the counts per size are the
    ranks at every p, and no matrix is built.  Otherwise the boundary matrices
    of all the chains are eliminated by ``gfp.cell_homology``.
    """
    check_prime(p)
    chains = [0]

    # Chains are listed in depth-first preorder, so each chain's faces come
    # before it and near it.  The elimination reduces each boundary column
    # against pivots keyed by its largest row, and its fill-in follows the
    # order of rows and columns: listed in stack order instead, the same
    # chains made the CW certificate of cw-check at 2x7 take 1.25-1.59 s
    # instead of 0.76-0.85 s.
    def extend(chain: int, above: int) -> None:
        for z in members(above):
            longer = chain | 1 << z
            chains.append(longer)
            extend(longer, up[z] & above & ~(1 << z))

    extend(0, elements)
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
    Raises ValueError unless x < y."""
    ends = 1 << poset.index[x] | 1 << poset.index[y]
    interval = poset.interval(x, y)
    if x == y or not interval:
        raise ValueError(f"open interval needs {x} < {y}")
    return order_complex_reduced_homology(interval & ~ends, poset.up, p)


def recursive_atom_ordering_check(
    poset: FacePoset, x: str, atom_key: Callable[[str], object] | None = None
) -> bool:
    """Verify that one ordering of the atoms of [bottom, x], and the orderings
    it induces, form a recursive atom ordering (Björner, Posets, regular CW
    complexes and Bruhat order, 1984).  Raises SizeCap on an interval with
    more than MAX_ATOMS atoms or a recursion deeper than MAX_DEPTH.

    The atoms of [bottom, x] are sorted by ``atom_key`` (default: the
    multidegree), ties broken by label.  The atoms of each upper interval
    [a_j, x] are ordered by the induced rule: those above an earlier atom
    a_i (i < j) first, then the rest, each block sorted the same way.  So
    the first block is always a prefix, and the check is of condition (ii)
    at every level of the recursion.
    """
    cx, labels, index = poset.cx, poset.elements, poset.index
    upper, down, up = poset.upper, poset.down, poset.up
    if atom_key is None:
        atom_key = lambda label: cx.mdeg(label).sort_key()

    def ordered(mask: int) -> list[int]:
        return sorted(members(mask), key=lambda k: (atom_key(labels[k]), labels[k]))

    def rank(k: int) -> int:
        return cx.degree_of(labels[k])

    def check(bottom: int, top: int, ordering: list[int], depth: int) -> bool:
        if rank(top) - rank(bottom) <= 1:
            return True
        if depth > MAX_DEPTH:
            raise SizeCap(f"recursive atom ordering deeper than {MAX_DEPTH}")
        if len(ordering) > MAX_ATOMS:
            raise SizeCap(f"interval with more than {MAX_ATOMS} atoms")
        # above[j]: the elements above one of the first j atoms.
        above = [0]
        for a in ordering:
            above.append(above[-1] | up[a])
        # (ii) for i < j and y >= a_i, a_j there must be k < j and a cover z
        #      of a_j with z <= y and a_k <= z.
        for j, aj in enumerate(ordering):
            witnesses = upper[aj] & above[j]
            for y in members(up[aj] & above[j] & down[top]):
                if not down[y] & witnesses:
                    return False
        # (i) recurse into [a_j, top] with the induced ordering.
        for j, aj in enumerate(ordering):
            if rank(top) - rank(aj) <= 1:
                continue
            sub_atoms = upper[aj] & down[top]
            first = sub_atoms & above[j]
            induced = ordered(first) + ordered(sub_atoms & ~first)
            if not check(aj, top, induced, depth + 1):
                return False
        return True

    bottom, top = index[poset.bottom], index[x]
    return check(bottom, top, ordered(upper[bottom] & down[top]), 1)


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

    Raises SizeCap before any other work when a closed lower interval has
    more than MAX_ATOMS atoms, since its atom orderings would not be checked.
    """
    upper, down = poset.upper, poset.down
    for k, x in enumerate(poset.elements):
        atoms = (upper[0] & down[k]).bit_count()
        if atoms > MAX_ATOMS:
            raise SizeCap(
                f"interval with more than {MAX_ATOMS} atoms: [bottom, {x}] has {atoms}"
            )
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
    orderings = True
    for x in poset.elements[1:]:
        hom = open_interval_homology(poset, poset.bottom, x, p)
        if hom != {poset.rank(x) - 2: 1}:
            spheres = False
            failures.append(f"sphere homology of (bottom, {x})")
            break
    if atom_key is not None:
        # every interval's orderings sort by the same keys: take each once
        atom_key = {x: atom_key(x) for x in poset.elements}.__getitem__
    for x in poset.elements[1:]:
        if not recursive_atom_ordering_check(poset, x, atom_key=atom_key):
            orderings = False
            failures.append(f"recursive atom ordering of [bottom, {x}]")
            break
    return CWCertificate(has_least, nontrivial, thin, spheres, orderings, failures)


def export_poset(poset: FacePoset) -> str:
    """The face poset in Graphviz DOT: covers as edges from the lower element,
    dashed where the incidence sign is -1, drawn bottom to top.  Nodes come
    in (rank, label) order and covers sorted by their ends."""
    cx = poset.cx
    nodes = sorted(poset.elements, key=lambda x: (cx.degree_of(x), x))
    covers = sorted(
        (lo, hi, sign) for hi in poset.elements for lo, sign in cx.out_entries(hi)
    )
    lines = ["digraph face_poset {", "  rankdir=BT;"]
    for x in nodes:
        lines.append(f'  "{x}" [label="{x}\\nrank {cx.degree_of(x)}"];')
    for lo, hi, sign in covers:
        style = "" if sign > 0 else " [style=dashed]"
        lines.append(f'  "{lo}" -> "{hi}"{style};')
    lines.append("}")
    return "\n".join(lines)
