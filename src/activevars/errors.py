"""Exception types shared across the package: one per kind of decision."""


class ActiveVarsError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(ActiveVarsError, ValueError):
    """An argument violates a documented precondition: a value out of its
    range, a malformed kernel or cost parameter, functions and plans of
    different dimensions, or a grid with no point to price."""


class InvalidConfigurationError(ActiveVarsError, ValueError):
    """A kernel/operation combination is not meaningful (e.g. eigenfunctions
    of a custom spectrum, which carries none)."""


class DivergenceError(ActiveVarsError, ValueError):
    """A series does not converge for the requested exponent."""


class TailCertificateError(ActiveVarsError, RuntimeError):
    """A truncated spectrum cannot certify enumeration below its tail threshold."""


class EnumerationCapError(ActiveVarsError, RuntimeError):
    """An enumeration would visit more labels than fit in memory (the cap)."""


class UnsupportedScaleError(ActiveVarsError, ValueError):
    """A run exceeds a fixed scale limit: the Monte Carlo work budget, or a
    value outside double range (a cost ``$(k)`` or ``ln $(k)``, a term
    budget or bound, an eigenvalue that underflows)."""


class CertificationError(ActiveVarsError, RuntimeError):
    """An internal certificate (exact value <= proven bound) failed to hold."""
