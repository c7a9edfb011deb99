"""Exception types shared across the library.

Every error that a caller is expected to branch on gets its own class so the
CLI can map failures onto its exit-code contract (2 for config/format
problems, 3 for numeric failures).
"""


class AradonError(Exception):
    """Base class for all library errors."""


class ConfigError(AradonError):
    """Invalid configuration or file format (CLI exit code 2)."""


class NonConvex(AradonError):
    """Boundary curvature violates the strictly positive lower bound."""


class TooFewNodes(AradonError):
    """Boundary discretization below the minimum node count."""


class OutsideDomain(AradonError):
    """A point expected inside the closed domain lies outside it."""


class GridTooCoarse(AradonError):
    """Angular grid too coarse for the requested mode count (M < 2N+2)."""


class UnknownPhantom(AradonError):
    """Phantom name not in the shipped catalogue."""


class SupportViolation(AradonError):
    """Phantom support leaks outside the domain."""


class TooCloseToBoundary(AradonError):
    """Interior evaluation point violates the margin; use the trace formula."""


class GridMismatch(AradonError):
    """Operands built on different boundary or angular grids."""


class FactorBuildError(AradonError):
    """Integrating factor failed its analyticity self-checks."""
