"""Exception types shared across the package.

The CLI maps these onto process exit codes, so solver and fitting code
should raise these rather than bare RuntimeErrors.
"""


class ConfigError(ValueError):
    """Configuration file is malformed, fails schema validation, or
    violates a physics invariant at load time."""


class NonPhysicalCoherence(ValueError):
    """Coherence times imply a negative pure-dephasing rate (T2* > 2*T1)."""


class SingularLiouvillian(ArithmeticError):
    """The trace-constrained steady-state system is rank deficient, i.e.
    the steady state is not unique (typically: no dissipation)."""


class NonPhysicalResult(ArithmeticError):
    """A computed state violates density-matrix invariants (Hermiticity,
    unit trace, or positivity beyond the documented floors)."""


class StepTooLarge(ValueError):
    """Requested integration step exceeds the stability/accuracy bound."""


class DegenerateData(ValueError):
    """Input data hold nothing to fit: flat, or best fitted by a negative peak."""


class NoConvergence(RuntimeError):
    """A fit that the caller requires to converge did not converge."""
