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


def neighbors(cx: BasedComplex, v: str, order: TermOrder | None = None) -> VertexContext:
    """Neighbors of a vertex: endpoints of the degree-2 elements whose
    boundary contains v, labeled by the quotient variables."""
    if cx.degree_of(v) != 1:
        raise ValueError(f"{v!r} is not a degree-1 basis element")
    m_v = cx.mdeg(v)
    labels: dict[str, Monomial] = {}
    for edge in cx.labels(2):
        supp = cx.support(edge)
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
    key = Monomial.sort_key if order is None else order.sort_key
    return VertexContext(v, tuple(sorted(labels, key=lambda w: key(labels[w]))), labels)


@dataclass
class SupportChain:
    """Descending chain P = P_k > P_{k-1} > ... > P_0 = v of codimension-one
    faces, dropping the smallest remaining neighbor of v at each step."""

    vertex: str
    faces: tuple[str, ...]  # from the top face down to the vertex


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

    def met(q: str) -> list[str]:  # the neighbors of v on q, in ctx.neighbors order
        vsupp = cx.vertex_support(q)
        return [w for w in ctx.neighbors if w in vsupp]

    dim = cx.degree_of(face) - 1
    remaining = met(face)
    if len(remaining) != dim:
        raise RainbowError(f"face {face} of dimension {dim} meets {len(remaining)} neighbors of {v}")
    chain = [face]
    while remaining:
        remaining = remaining[1:]  # the smallest remaining neighbor leaves the chain
        candidates = [
            q for q in cx.support(chain[-1]) if v in cx.vertex_support(q) and met(q) == remaining
        ]
        if len(candidates) != 1:
            raise RainbowError(
                f"face {chain[-1]}: {len(candidates)} codimension-1 faces meet the neighbors of {v} in {sorted(remaining)}"
            )
        chain.append(candidates[0])
    if chain[-1] != v:
        raise RainbowError(f"support chain of {face} ended at {chain[-1]}, not {v}")
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


def q_morphism(cx: BasedComplex, v: str, order: TermOrder | None = None) -> QMorphism:
    """Build the comparison morphism and verify the commuting square in every
    homological degree >= 2; a mismatch raises NotChainMap."""
    ctx = neighbors(cx, v, order)
    images: dict[str, tuple[int, tuple[str, ...]]] = {}
    for face in cx.all_labels():
        vsupp = cx.vertex_support(face)
        if v not in vsupp:
            continue
        if face == v:
            images[face] = (1, ())
        else:
            chain = support_chain(cx, face, v, order, context=ctx)
            images[face] = (chain_sign(cx, chain), tuple(w for w in ctx.neighbors if w in vsupp))

    # commutativity: Q_{i-2} d_i = d^K_{i-1} Q_{i-1} on every degree-i face,
    # as one table of Q d - d^K Q keyed by (neighbor subset, coefficient)
    for i in range(2, cx.top_degree + 1):
        for face in cx.labels(i):
            table: dict[tuple[tuple[str, ...], Monomial], int] = {}
            for tgt, sign in cx.out_entries(face):
                if tgt in images:
                    c_q, subset = images[tgt]
                    key = (subset, cx.coefficient(face, tgt))
                    table[key] = table.get(key, 0) + sign * c_q
            if face in images:
                c_p, subset = images[face]
                for k, w in enumerate(subset):
                    key = (subset[:k] + subset[k + 1 :], ctx.labels[w])
                    table[key] = table.get(key, 0) - c_p * (-1) ** k
            wrong = {key: c for key, c in table.items() if c}
            if wrong:
                raise NotChainMap(f"comparison square fails at {face}: Q d - d^K Q = {wrong}")
    return QMorphism(ctx, images)


def induced_subcomplex(cx: BasedComplex, vertex_set) -> BasedComplex:
    """Restrict to the faces whose vertex support lies inside ``vertex_set``;
    requires the degree-2 elements to have pairwise distinct multidegrees."""
    edges = cx.labels(2)
    if len({cx.mdeg(e) for e in edges}) != len(edges):
        raise AmbiguousEdges("two 1-faces share a multidegree")
    wanted = set(vertex_set)
    return cx.restrict(l for l in cx.all_labels() if cx.vertex_support(l) <= wanted)


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
            raise RainbowError(f"kernel of the comparison map is not coordinate in degree {i}")
    return cx.restrict(l for l in cx.all_labels() if l not in q.images)


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
