"""Structured errors raised by the library.

Every error names the violated precondition or the degenerate input that
triggered it, so CLI callers can map failures to nonzero exit codes with a
meaningful diagnostic.
"""


class RainbowError(Exception):
    """Base class for all library errors."""


class ParseError(RainbowError):
    """Malformed monomial string or input file."""


class UnitIdeal(RainbowError):
    """Operation undefined for the unit ideal."""


class NotEquigenerated(RainbowError):
    """Ideal is not generated in a single degree."""


class NotSquarefree(RainbowError):
    """Squarefree input required."""


class GradingViolation(RainbowError):
    """Differential entry incompatible with the multigrading."""


class NotHomogeneous(RainbowError):
    """Inhomogeneous generator passed to a graded computation."""


class DegenerateOrder(RainbowError):
    """Distinct minors produced equal initial terms; invalid weight choice."""


class NotLinear(RainbowError):
    """Edge coefficient is not a single variable."""


class NotSupported(RainbowError):
    """Vertex does not lie on the given face."""


class NotChainMap(RainbowError):
    """Square of the comparison morphism fails to commute."""


class AmbiguousEdges(RainbowError):
    """Two edges share a multidegree; induced restriction is ill-defined."""


class SetupViolated(RainbowError):
    """Facet-overlap hypothesis fails; the criterion is not applicable."""


class SizeCap(RainbowError):
    """Requested size exceeds the configured desk-scale caps."""
