"""Error and warning taxonomy shared across the package.

Every numerical failure mode gets its own type so callers (and the CLI exit
code mapping) can tell configuration mistakes from genuine numerical
breakdowns.
"""


class DomainError(ValueError):
    """Inputs are outside the mathematical domain of the requested quantity.

    Raised e.g. when a normal-phase closed form is evaluated beyond the
    critical coupling, or a closed-form displacement below its threshold.
    """


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance within budget."""


class InstabilityError(RuntimeError):
    """Dynamical matrix has complex eigenvalues: expansion point unstable.

    Signals that fluctuations were expanded around a stationary point that
    is not a local minimum (wrong phase branch).
    """


class CriticalPointError(RuntimeError):
    """A zero excitation mode makes the Bogoliubov normalization singular.

    Raised exactly at a phase boundary; sweeps must straddle the critical
    coupling, never evaluate on it.
    """


class FitRejected(RuntimeError):
    """Power-law fit quality below the acceptance threshold."""


class ResourceError(RuntimeError):
    """Requested computation exceeds the configured size cap."""


class TruncationWarning(UserWarning):
    """Population at the Fock-space truncation edge is non-negligible."""
