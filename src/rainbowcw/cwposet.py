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

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .complexes import BasedComplex
from .errors import SizeCap
from .gfp import DEFAULT_PRIME, VectorComplex
from .monomials import Monomial, format_monomial

BOTTOM = "0"
# The most atoms a closed lower interval may have for its atom orderings to
# be checked; a larger interval is refused with SizeCap before any work.
MAX_ATOMS = 12


@dataclass
class FacePoset:
    bottom: str
    ranks: dict[str, int]
    mdegs: dict[str, Monomial]
    covers_down: dict[str, tuple[str, ...]]
    covers_up: dict[str, tuple[str, ...]]
    signs: dict[tuple[str, str], int]  # (lower, upper) -> incidence sign
    _down: dict[str, frozenset] = field(default_factory=dict, repr=False)

    @property
    def elements(self) -> list[str]:
        return sorted(self.ranks, key=lambda x: (self.ranks[x], x))

    def __len__(self) -> int:
        return len(self.ranks)

    def rank(self, x: str) -> int:
        return self.ranks[x]

    def down_set(self, x: str) -> frozenset:
        """All elements <= x."""
        cached = self._down.get(x)
        if cached is not None:
            return cached
        acc: set[str] = {x}
        for y in self.covers_down[x]:
            acc |= self.down_set(y)
        out = frozenset(acc)
        self._down[x] = out
        return out

    def le(self, x: str, y: str) -> bool:
        return x in self.down_set(y)

    def open_interval(self, x: str, y: str) -> list[str]:
        below_y = self.down_set(y)
        return sorted(
            (z for z in below_y if z != y and z != x and x in self.down_set(z)),
            key=lambda z: (self.ranks[z], z),
        )

    def closed_interval(self, x: str, y: str) -> list[str]:
        if not self.le(x, y):
            return []
        return sorted(
            set(self.open_interval(x, y)) | {x, y}, key=lambda z: (self.ranks[z], z)
        )

    def atoms(self, x: str, y: str) -> list[str]:
        """Elements covering x that lie below y."""
        return [z for z in self.covers_up[x] if self.le(z, y)]

    def vertices(self) -> list[str]:
        return [x for x, r in self.ranks.items() if r == 1]

    def maximal_elements(self) -> list[str]:
        return sorted(x for x, ups in self.covers_up.items() if not ups)

    def facets_containing(self, x: str) -> list[str]:
        return [f for f in self.maximal_elements() if self.le(x, f)]


def face_poset(cx: BasedComplex) -> FacePoset:
    """Build the face poset of a based complex.  The unique degree-0 element
    is the least element; if the complex has no degree-0 piece, a formal
    bottom is added below all degree-1 elements with incidence sign +1."""
    ranks: dict[str, int] = {}
    mdegs: dict[str, Monomial] = {}
    covers_down: dict[str, list[str]] = {}
    signs: dict[tuple[str, str], int] = {}

    zero = cx.labels(0)
    if len(zero) == 1:
        bottom = zero[0]
        shift = 0
    elif len(zero) == 0:
        bottom = BOTTOM
        shift = 1
    else:
        raise ValueError("face poset needs a unique degree-0 element")
    ranks[bottom] = 0
    mdegs[bottom] = Monomial.one()
    covers_down[bottom] = []

    for i in cx.degrees():
        if i == 0:
            continue
        for label in cx.labels(i):
            ranks[label] = i + shift
            mdegs[label] = cx.mdeg(label)
            lowers = []
            for tgt, sign in cx.out_entries(label):
                lowers.append(tgt)
                signs[(tgt, label)] = sign
            if i == 1 and shift == 1:
                lowers = [bottom]
                signs[(bottom, label)] = 1
            covers_down[label] = lowers

    covers_up: dict[str, list[str]] = {x: [] for x in ranks}
    for upper, lowers in covers_down.items():
        for lower in lowers:
            covers_up[lower].append(upper)
    return FacePoset(
        bottom=bottom,
        ranks=ranks,
        mdegs=mdegs,
        covers_down={k: tuple(v) for k, v in covers_down.items()},
        covers_up={k: tuple(sorted(v)) for k, v in covers_up.items()},
        signs=signs,
    )


def is_thin(poset: FacePoset) -> bool:
    """Every closed interval of length two has exactly four elements."""
    for y in poset.ranks:
        mids = poset.covers_down[y]
        grands = {x for z in mids for x in poset.covers_down[z]}
        for x in grands:
            middles = sum(1 for z in mids if x in poset.covers_down[z])
            if middles != 2:
                return False
    return True


def _chains(elements: Sequence[str], le: Callable[[str, str], bool]) -> list[tuple[str, ...]]:
    """All nonempty chains of the induced subposet, as tuples sorted by rank."""
    out: list[tuple[str, ...]] = []

    def extend(chain: tuple[str, ...], rest: Sequence[str]) -> None:
        for k, z in enumerate(rest):
            new = chain + (z,)
            out.append(new)
            extend(new, [w for w in rest[k + 1 :] if le(z, w)])

    extend((), list(elements))
    return out


def order_complex_reduced_homology(
    elements: Sequence[str], le: Callable[[str, str], bool], p: int = DEFAULT_PRIME
) -> dict[int, int]:
    """Reduced simplicial homology ranks of the order complex of a finite
    poset (given by its elements and order relation), over GF(p).  The empty
    complex reports the (-1)-sphere convention: rank 1 in degree -1."""
    chains = _chains(elements, le)
    by_dim: dict[int, dict[tuple[str, ...], int]] = {-1: {(): 0}}
    for c in chains:
        layer = by_dim.setdefault(len(c) - 1, {})
        layer[c] = len(layer)
    top = max(by_dim)
    dims = [len(by_dim.get(d, {})) for d in range(-1, top + 1)]
    diffs: list[dict[tuple[int, int], int]] = [dict() for _ in dims]
    for d in range(0, top + 1):
        entries: dict[tuple[int, int], int] = {}
        lower = by_dim.get(d - 1, {})
        for c, col in by_dim.get(d, {}).items():
            for k in range(len(c)):
                face = c[:k] + c[k + 1 :]
                row = lower.get(face)
                if row is not None:
                    entries[(row, col)] = (-1) ** k
        diffs[d + 1] = entries
    hom = VectorComplex(dims, diffs).homology_ranks(p)
    return {d - 1: hom[d] for d in range(len(hom)) if hom[d]}


def open_interval_homology(
    poset: FacePoset, x: str, y: str, p: int = DEFAULT_PRIME
) -> dict[int, int]:
    """Reduced homology of the order complex of the open interval (x, y)."""
    elements = poset.open_interval(x, y)
    return order_complex_reduced_homology(elements, poset.le, p)


def _is_sphere(hom: dict[int, int], dim: int) -> bool:
    return hom == {dim: 1}


def recursive_atom_ordering_check(
    poset: FacePoset,
    x: str,
    atom_order: Sequence[str] | None = None,
    atom_key: Callable[[str], object] | None = None,
    scramble: Callable[[str, list[str]], list[str]] | None = None,
    max_atoms: int = MAX_ATOMS,
    max_depth: int = 8,
) -> bool:
    """Verify that the given ordering of the atoms of [bottom, x] is a
    recursive atom ordering.

    Upper intervals are ordered by the induced rule: atoms lying above an
    earlier sibling first, then the rest, both sorted by ``atom_key``
    (default: the multidegree).  The ``scramble`` hook, applied to each
    induced ordering, exists so tests can violate the first-block rule; the
    check verifies the first-block prefix property of whatever ordering is
    actually used.
    """
    if atom_key is None:
        atom_key = lambda label: poset.mdegs[label].sort_key()

    def check(bottom: str, top: str, ordering: list[str], depth: int) -> bool:
        if poset.rank(top) - poset.rank(bottom) <= 1:
            return True
        if depth > max_depth:
            raise SizeCap(f"recursive atom ordering deeper than {max_depth}")
        if len(ordering) > max_atoms:
            raise SizeCap(f"interval with more than {max_atoms} atoms")
        interval = poset.closed_interval(bottom, top)
        # (ii) for i < j and y >= a_i, a_j there must be k < j and a cover z
        #      of a_j with z <= y and a_k <= z.
        for j, aj in enumerate(ordering):
            earlier = ordering[:j]
            covers_aj = [z for z in poset.covers_up[aj] if poset.le(z, top)]
            for ai in earlier:
                for y in interval:
                    if not (poset.le(ai, y) and poset.le(aj, y)):
                        continue
                    if not any(
                        poset.le(z, y) and any(poset.le(ak, z) for ak in earlier)
                        for z in covers_aj
                    ):
                        return False
        # (i) recurse into [a_j, top] with the induced ordering.
        for j, aj in enumerate(ordering):
            if poset.rank(top) - poset.rank(aj) <= 1:
                continue
            earlier = ordering[:j]
            sub_atoms = poset.atoms(aj, top)
            first = [z for z in sub_atoms if any(poset.le(ai, z) for ai in earlier)]
            rest = [z for z in sub_atoms if z not in first]
            induced = sorted(first, key=atom_key) + sorted(rest, key=atom_key)
            if scramble is not None:
                induced = scramble(aj, list(induced))
            first_set = set(first)
            flags = [z in first_set for z in induced]
            if any(flags[k] and not all(flags[: k + 1]) for k in range(len(flags))):
                return False  # first-block atoms are not a prefix
            if not check(aj, top, induced, depth + 1):
                return False
        return True

    top_atoms = poset.atoms(poset.bottom, x)
    if atom_order is None:
        ordering = sorted(top_atoms, key=atom_key)
    else:
        ordering = list(atom_order)
        if sorted(ordering) != sorted(top_atoms):
            raise ValueError("atom_order must enumerate the atoms of the interval")
    return check(poset.bottom, x, ordering, 1)


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
    ordering of every closed lower interval.

    Raises SizeCap before any other work when a closed lower interval has
    more than MAX_ATOMS atoms, since its atom orderings would not be checked.
    """
    for x in poset.ranks:
        atoms = len(poset.atoms(poset.bottom, x))
        if atoms > MAX_ATOMS:
            raise SizeCap(
                f"interval with more than {MAX_ATOMS} atoms: [bottom, {x}] has {atoms}"
            )
    failures: list[str] = []
    has_least = poset.bottom in poset.ranks and all(
        poset.le(poset.bottom, x) for x in poset.ranks
    )
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
    for x in poset.ranks:
        if x == poset.bottom:
            continue
        hom = open_interval_homology(poset, poset.bottom, x, p)
        if not _is_sphere(hom, poset.rank(x) - 2):
            spheres = False
            failures.append(f"sphere homology of (bottom, {x})")
            break
    for x in poset.ranks:
        if x == poset.bottom:
            continue
        if not recursive_atom_ordering_check(poset, x, atom_key=atom_key):
            orderings = False
            failures.append(f"recursive atom ordering of [bottom, {x}]")
            break
    return CWCertificate(has_least, nontrivial, thin, spheres, orderings, failures)


def upper_semimodularity_check(poset: FacePoset, mu: str, nu: str) -> bool:
    """Every pair of interval elements covering a common interval element is
    covered by a common interval element."""
    interval = set(poset.closed_interval(mu, nu))
    for x in interval:
        ups = [u for u in poset.covers_up[x] if u in interval]
        for a in range(len(ups)):
            for b in range(a + 1, len(ups)):
                u, v = ups[a], ups[b]
                if not any(
                    z in interval and v in poset.covers_down[z]
                    for z in poset.covers_up[u]
                ):
                    return False
    return True


def export_poset(poset: FacePoset, fmt: str = "JSON") -> str:
    """Serialize as DOT (covers as edges, bottom at the bottom) or JSON."""
    if fmt.upper() == "JSON":
        return json.dumps(
            {
                "nodes": [
                    {
                        "id": x,
                        "rank": poset.ranks[x],
                        "mdeg": format_monomial(poset.mdegs[x]),
                    }
                    for x in poset.elements
                ],
                "covers": [
                    {"lo": lo, "hi": hi, "sign": sign}
                    for (lo, hi), sign in sorted(poset.signs.items())
                ],
            },
            indent=2,
            sort_keys=True,
        )
    if fmt.upper() == "DOT":
        lines = ["digraph face_poset {", "  rankdir=BT;"]
        for x in poset.elements:
            lines.append(f'  "{x}" [label="{x}\\nrank {poset.ranks[x]}"];')
        for (lo, hi), sign in sorted(poset.signs.items()):
            style = "" if sign > 0 else " [style=dashed]"
            lines.append(f'  "{lo}" -> "{hi}"{style};')
        lines.append("}")
        return "\n".join(lines)
    raise ValueError(f"unknown export format {fmt!r}")
