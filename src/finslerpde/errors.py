"""Exception types shared across the package."""


class AdmissibilityError(ValueError):
    """An input (norm, profile, source) violates one of the documented
    model hypotheses (i)-(viii).  The message names the hypothesis and,
    where available, the witnessing sample."""


class ConfigError(ValueError):
    """A run configuration failed validation.  Message is single-line so
    the CLI can print it verbatim."""


class FitError(ValueError):
    """A parameter does not fit the geometry of a computed result (a Hopf
    ball too large for the solved domain).  Only the run can find this, so
    it is the one input rejection raised after compute has started."""


class NumericError(RuntimeError):
    """A numerical routine failed (bracket exhausted, quadrature blew up,
    linear solve stalled)."""


class NonconvergenceError(NumericError):
    """The nonlinear solve did not reach tolerance.  Carries the last
    iterate and the partial report so callers can keep the artifacts."""

    def __init__(self, message, last_iterate=None, report=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.report = report
