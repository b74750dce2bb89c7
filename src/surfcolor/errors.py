"""Exception types shared across the package."""


class SurfcolorError(ValueError):
    """Base class for all errors raised by this package."""


class NotInvolution(SurfcolorError):
    pass


class DanglingHalfEdge(SurfcolorError):
    pass


class Disconnected(SurfcolorError):
    pass


class OddEulerGenus(SurfcolorError):
    pass


class SurfMapFormatError(SurfcolorError):
    pass


class EvenModulus(SurfcolorError):
    pass


class ModulusTooSmall(SurfcolorError):
    pass


class MapMismatch(SurfcolorError):
    pass


class NotACocycle(SurfcolorError):
    pass


class NotAZeroBoundary(SurfcolorError):
    pass


class BudgetExceeded(SurfcolorError):
    pass


class NotAHomomorphism(SurfcolorError):
    pass


class DivisibilityViolation(SurfcolorError):
    pass


class BadDimensions(SurfcolorError):
    pass
