"""Exception hierarchy shared across the package.

Exit-status mapping for the CLI lives in cli.py; library code only raises.
"""


class Bdie2dError(Exception):
    """Base class for all package errors."""


class GeometryError(Bdie2dError):
    """Degenerate parametrization, bad truncation radius, point on the wrong side."""


class DiscretizationError(Bdie2dError):
    """Invalid grid/mesh parameters (odd N, tiny N, nonpositive spacing)."""


class SingularEvaluationError(Bdie2dError):
    """Kernel evaluated at a coincident source/target pair."""


class CoefficientError(Bdie2dError):
    """Coefficient positivity violated or inconsistent derivative data."""


class CompatibilityError(Bdie2dError):
    """Right-hand side fails the discrete mean-zero compatibility requirement."""


class AssemblyError(Bdie2dError):
    """Incompatible grids or block dimensions during system assembly."""


class SolverSingularError(Bdie2dError):
    """System matrix singular to working tolerance, or not finite."""


class VerificationError(Bdie2dError):
    """Manufactured-case consistency or study precondition failed."""


class ConfigError(Bdie2dError):
    """Run configuration failed to parse or validate."""


class UnknownCatalogError(Bdie2dError):
    """Requested curve/coefficient/case name not in the catalog."""
