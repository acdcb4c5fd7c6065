"""Support chains, the comparison morphism to a Koszul complex, and linear
strands of subideals by restriction.

For a vertex v of a complex supported on a regular CW complex, every face
containing v admits a unique descending chain to v that drops the smallest
remaining neighbor of v at each step; the product of incidence signs along
the chain defines a degree-lowering morphism to the Koszul complex on the
edge labels at v.  Its kernel is spanned by the faces avoiding v, which
identifies the linear strand of the ideal with v's generator removed as the
induced subcomplex on the remaining vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import BasedComplex
from .determinantal import PureComplex, initial_minor
from .eagon_northcott import sparse_eagon_northcott
from .errors import AmbiguousEdges, NotChainMap, NotLinear, NotSupported, RainbowError
from .monomials import Monomial, format_monomial
from .termorders import TermOrder


@dataclass
class VertexContext:
    """A vertex with its neighbors in the graph of linear syzygies, the
    single-variable edge labels, and the order the labels induce."""

    vertex: str
    neighbors: tuple[str, ...]  # sorted ascending by the induced order
    labels: dict[str, Monomial]  # neighbor -> variable m_{v,v'} / m_v


def _edge_support(cx: BasedComplex, edge: str) -> tuple[str, ...]:
    return tuple(t for t, _ in cx.out_entries(edge))


def neighbors(cx: BasedComplex, v: str, order: TermOrder | None = None) -> VertexContext:
    """Neighbors of a vertex: endpoints of the degree-2 elements whose
    boundary contains v, labeled by the quotient variables."""
    if cx.degree_of(v) != 1:
        raise ValueError(f"{v!r} is not a degree-1 basis element")
    m_v = cx.mdeg(v)
    labels: dict[str, Monomial] = {}
    for edge in cx.labels(2):
        supp = _edge_support(cx, edge)
        if v not in supp:
            continue
        label = cx.mdeg(edge) / m_v
        if label.degree != 1:
            raise NotLinear(f"edge {edge} has nonlinear coefficient {label} at {v}")
        for w in supp:
            if w == v:
                continue
            if w in labels and labels[w] != label:
                raise AmbiguousEdges(f"vertices {v}, {w} joined by edges with different labels")
            labels[w] = label
    if order is not None:
        ordered = sorted(labels, key=lambda w: order.sort_key(labels[w]))
    else:
        ordered = sorted(labels, key=lambda w: labels[w].sort_key())
    return VertexContext(v, tuple(ordered), labels)


@dataclass
class SupportChain:
    """Descending chain P = P_k > P_{k-1} > ... > P_0 = v of codimension-one
    faces, dropping the smallest remaining neighbor of v at each step."""

    vertex: str
    faces: tuple[str, ...]  # from the top face down to the vertex

    @property
    def length(self) -> int:
        return len(self.faces) - 1


def support_chain(
    cx: BasedComplex,
    face: str,
    v: str,
    order: TermOrder | None = None,
    *,
    context: VertexContext | None = None,
) -> SupportChain:
    """The support chain of ``face`` at ``v``.  A caller that already holds
    ``neighbors(cx, v, order)`` passes it as ``context``; a context for
    another vertex raises ValueError."""
    ctx = neighbors(cx, v, order) if context is None else context
    if ctx.vertex != v:
        raise ValueError(f"context is for vertex {ctx.vertex!r}, not {v!r}")
    if v not in cx.vertex_support(face):
        raise NotSupported(f"vertex {v} does not lie on {face}")
    dim = cx.degree_of(face) - 1
    met = [w for w in ctx.neighbors if w in cx.vertex_support(face)]
    if len(met) != dim:
        raise RainbowError(
            f"face {face} of dimension {dim} meets {len(met)} neighbors of {v}"
        )
    chain = [face]
    current = face
    remaining = list(met)
    while remaining:
        remaining.pop(0)  # the smallest remaining neighbor leaves the chain
        want = set(remaining)
        candidates = [
            q
            for q in cx.support(current)
            if v in cx.vertex_support(q)
            and {w for w in ctx.neighbors if w in cx.vertex_support(q)} == want
        ]
        if len(candidates) != 1:
            raise RainbowError(
                f"face {current}: {len(candidates)} codimension-1 faces meet the neighbors of {v} in {sorted(want)}"
            )
        current = candidates[0]
        chain.append(current)
    if current != v:
        raise RainbowError(f"support chain of {face} ended at {current}, not {v}")
    return SupportChain(v, tuple(chain))


def chain_sign(cx: BasedComplex, chain: SupportChain) -> int:
    sign = 1
    for upper, lower in zip(chain.faces, chain.faces[1:]):
        sign *= cx.sign(upper, lower)
    return sign


@dataclass
class QMorphism:
    """The degree-lowering comparison morphism: a face P containing v maps to
    c(P) times the Koszul generator on V(P) & N_v; faces avoiding v map to 0."""

    context: VertexContext
    images: dict[str, tuple[int, tuple[str, ...]]]  # face -> (c(P), neighbor subset)

    def image(self, face: str) -> tuple[int, tuple[str, ...]] | None:
        return self.images.get(face)


def q_morphism(cx: BasedComplex, v: str, order: TermOrder | None = None) -> QMorphism:
    """Build the comparison morphism and verify the commuting square in every
    homological degree >= 2; a mismatch raises NotChainMap."""
    ctx = neighbors(cx, v, order)
    pos_of = {w: k for k, w in enumerate(ctx.neighbors)}

    images: dict[str, tuple[int, tuple[str, ...]]] = {}
    for i in range(1, cx.top_degree + 1):
        for face in cx.labels(i):
            vsupp = cx.vertex_support(face)
            if v not in vsupp:
                continue
            if i == 1:
                images[face] = (1, ())
                continue
            chain = support_chain(cx, face, v, order, context=ctx)
            subset = tuple(sorted((w for w in ctx.neighbors if w in vsupp), key=pos_of.get))
            images[face] = (chain_sign(cx, chain), subset)

    # commutativity: Q_{i-2} d_i = d^K_{i-1} Q_{i-1} on every degree-i face
    for i in range(2, cx.top_degree + 1):
        for face in cx.labels(i):
            clockwise: dict[tuple[str, ...], dict[Monomial, int]] = {}
            for tgt, sign in cx.out_entries(face):
                img = images.get(tgt)
                if img is None:
                    continue
                c_q, subset = img
                coeff = cx.coefficient(face, tgt)
                bucket = clockwise.setdefault(subset, {})
                bucket[coeff] = bucket.get(coeff, 0) + sign * c_q
            counter: dict[tuple[str, ...], dict[Monomial, int]] = {}
            img = images.get(face)
            if img is not None:
                c_p, subset = img
                for k, w in enumerate(subset):
                    rest = subset[:k] + subset[k + 1 :]
                    bucket = counter.setdefault(rest, {})
                    var = ctx.labels[w]
                    bucket[var] = bucket.get(var, 0) + c_p * (-1) ** k
            if _clean(clockwise) != _clean(counter):
                raise NotChainMap(
                    f"comparison square fails at {face}: {clockwise} != {counter}"
                )
    return QMorphism(ctx, images)


def _clean(
    table: dict[tuple[str, ...], dict[Monomial, int]]
) -> dict[tuple[str, ...], tuple[tuple[tuple, int], ...]]:
    out = {}
    for subset, bucket in table.items():
        entries = tuple(
            sorted((m.sort_key(), c) for m, c in bucket.items() if c != 0)
        )
        if entries:
            out[subset] = entries
    return out


def induced_subcomplex(cx: BasedComplex, vertex_set) -> BasedComplex:
    """Restrict to the faces whose vertex support lies inside ``vertex_set``;
    requires the degree-2 elements to have pairwise distinct multidegrees."""
    edges = cx.labels(2)
    if len({cx.mdeg(e) for e in edges}) != len(edges):
        raise AmbiguousEdges("two 1-faces share a multidegree")
    wanted = set(vertex_set)
    keep = [
        label
        for i in cx.degrees()
        for label in cx.labels(i)
        if cx.vertex_support(label) <= wanted
    ]
    return cx.restrict(keep)


def strand_via_kernel(cx: BasedComplex, v: str, order: TermOrder | None = None) -> BasedComplex:
    """Kernel of the comparison morphism at v, restricted degree by degree.

    Each face containing v maps to +-1 times one Koszul generator, the one
    on its neighbor subset, so the kernel is coordinate exactly when no two
    faces of a degree share a subset; the spanning sublist is then the faces
    avoiding v, and the complex they span is returned.  A non-coordinate
    kernel aborts rather than inventing a basis."""
    q = q_morphism(cx, v, order)
    for i in range(2, cx.top_degree + 1):
        subsets = [q.images[f][1] for f in cx.labels(i) if f in q.images]
        if len(set(subsets)) != len(subsets):
            raise RainbowError(
                f"kernel of the comparison map is not coordinate in degree {i}"
            )
    keep = [
        label
        for i in cx.degrees()
        for label in cx.labels(i)
        if label not in q.images
    ]
    return cx.restrict(keep)


def is_linearly_connected(cx: BasedComplex, v: str, order: TermOrder | None = None) -> bool:
    """Every pair of neighbors of v whose monomials have a linear syzygy must
    span an edge of the complex."""
    try:
        ctx = neighbors(cx, v, order)
    except NotLinear:
        return False
    edge_supports = {frozenset(_edge_support(cx, e)) for e in cx.labels(2)}
    for w1, w2 in combinations(ctx.neighbors, 2):
        m1, m2 = cx.mdeg(w1), cx.mdeg(w2)
        if m1.degree == m2.degree and m1.lcm(m2).degree == m1.degree + 1:
            if frozenset({w1, w2}) not in edge_supports:
                return False
    return True


def rainbow_linear_strand(
    delta: PureComplex, order: TermOrder, cx: BasedComplex | None = None
) -> BasedComplex:
    """Linear strand of the rainbow DFI of delta: the induced subcomplex of
    the sparse Eagon-Northcott complex on the vertices indexed by the facets
    of delta."""
    if cx is None:
        cx = sparse_eagon_northcott(order)
    vertices = {vertex_label(order, facet) for facet in delta.facets}
    return induced_subcomplex(cx, vertices)


def vertex_label(order: TermOrder, facet) -> str:
    """The sparse Eagon-Northcott vertex label of a facet: its initial minor,
    formatted."""
    return format_monomial(initial_minor(order, facet))
