"""Exception types shared across the package."""


class ActiveVarsError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(ActiveVarsError, ValueError):
    """An argument violates a documented precondition."""


class InvalidSpectrumError(ActiveVarsError, ValueError):
    """A custom eigenvalue sequence is not positive and nonincreasing."""


class DivergenceError(ActiveVarsError, ValueError):
    """A series does not converge for the requested exponent."""


class UnsupportedOperationError(ActiveVarsError, RuntimeError):
    """The operation needs data the object does not carry (e.g. eigenfunctions)."""


class InvalidConfigurationError(ActiveVarsError, ValueError):
    """A kernel/flag combination is not meaningful."""


class DimensionMismatchError(ActiveVarsError, ValueError):
    """Objects built for different ambient dimensions were combined."""


class TailCertificateError(ActiveVarsError, RuntimeError):
    """A truncated spectrum cannot certify enumeration below its tail threshold."""


class EnumerationCapError(ActiveVarsError, RuntimeError):
    """An enumeration would visit more labels than fit in memory (the cap)."""


class InvalidModelError(ActiveVarsError, ValueError):
    """A cost-model parameterization violates $(0) >= 1 or monotonicity."""


class InsufficientDataError(ActiveVarsError, ValueError):
    """A fit was requested on a degenerate grid."""


class UnsupportedScaleError(ActiveVarsError, ValueError):
    """A run exceeds a fixed scale limit: the Monte Carlo work budget, or a
    value outside double range (a cost ``$(k)`` or ``ln $(k)``, a term
    budget or bound, an eigenvalue that underflows)."""


class CertificationError(ActiveVarsError, RuntimeError):
    """An internal certificate (exact value <= proven bound) failed to hold."""
