"""Exception types shared across the package."""


class ItermemError(Exception):
    """Base class for all library errors."""


class DuplicateColorInFacet(ItermemError):
    """A facet carries two vertices of the same color."""


class FacetContainment(ItermemError):
    """A listed facet is contained in another listed facet."""


class DanglingVertexReference(ItermemError):
    """A facet references a vid that is not in the vertex table."""


class SimplexNotInComplex(ItermemError):
    """A simplex argument is not a face of the complex."""


class VertexNotInComplex(ItermemError):
    """A vid argument is not a vertex of the complex."""


class IncompatibleVertexSpaces(ItermemError):
    """Two complexes disagree on the color or label of a shared vid."""


class NotAFacet(ItermemError):
    """A simplex argument is a face but not a maximal one."""


class ResourceLimit(ItermemError):
    """A construction exceeded the configured facet or size budget."""


class AmbiguousDecode(ItermemError):
    """A register value matches more than one candidate state."""


class InvalidParameters(ItermemError):
    """Numeric or structural parameters outside the supported range."""


class UnsupportedFormat(ItermemError):
    """An export or import format that this package does not provide."""
