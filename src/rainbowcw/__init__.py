"""Sparse Eagon-Northcott complexes for arbitrary term orders, certified CW
face posets, linear strands of rainbow determinantal facet ideals, and
polarizations of Artinian monomial ideals, with independent homological
oracles over a prime field."""

__version__ = "0.1.0"

from .complexes import (
    BasedComplex,
    BettiTable,
    is_linear_strand_of_module,
    koszul_betti,
    taylor_complex,
)
from .cwposet import (
    CWCertificate,
    FacePoset,
    export_poset,
    face_poset,
    is_cw_poset,
    is_thin,
    open_interval_homology,
    recursive_atom_ordering_check,
)
from .determinantal import (
    PureComplex,
    alexander_dual_complex,
    initial_ideal_maximal_minors,
    initial_minor,
    initial_term,
    overlap_condition,
    rainbow_dfi,
    random_term_order,
)
from .eagon_northcott import (
    sparse_eagon_northcott,
    valid_multidegrees,
    verify_differential_formula,
    verify_multidegree_bijection,
)
from .gfp import DEFAULT_PRIME
from .ideals import MonomialIdeal, alexander_dual, codimension, colon, complementary_ideal
from .monomials import Monomial, format_monomial, parse_monomial
from .polarization import (
    FreeSequenceReport,
    PolarizationReport,
    betti_table_formula,
    certify_polarization,
    find_free_sequence,
    free_vertices,
    hilbert_profile,
    linearity_criterion,
    specialize,
)
from .strands import (
    chain_sign,
    induced_subcomplex,
    neighbors,
    q_morphism,
    rainbow_linear_strand,
    strand_via_kernel,
    support_chain,
    vertex_label,
)
from .termorders import TermOrder, diagonal_order, weight_order
