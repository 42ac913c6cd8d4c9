"""Exception hierarchy for the avgtrack package, and `located` for config errors."""


class AvgTrackError(Exception):
    """Base class for all avgtrack errors."""


class ConfigError(AvgTrackError):
    """Scenario/config validation failure (bad keys, inconsistent dimensions)."""


class NotConnected(AvgTrackError):
    """Operation requires a connected graph."""


class NotSymmetric(AvgTrackError):
    """Matrix expected to be symmetric is not, within tolerance."""


class NotStabilizable(AvgTrackError):
    """The pair (A, B) fails the PBH stabilizability test."""


class SingularSystem(AvgTrackError):
    """Linear system rank-deficient beyond tolerance."""


class NoConvergence(AvgTrackError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class NonFinite(AvgTrackError):
    """A computation produced NaN/Inf.

    For simulation runs, `time` carries the first offending time stamp and
    `block` the first block of a batched run (sim.run_blocks) that holds a
    non-finite value at that time.
    """

    def __init__(self, message: str, time: float | None = None, block: int | None = None):
        super().__init__(message)
        self.time = time
        self.block = block


class RhoExceedsGamma(AvgTrackError):
    """The ultimate bound is vacuous: max{mu*theta, nu*chi} >= gamma."""


# what converting a value of the wrong type or shape raises
MALFORMED = (TypeError, ValueError, IndexError, OverflowError)


def located(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with `where` put at the front of the message
    of an error it raises for a bad value."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except MALFORMED as exc:
        raise ConfigError(f"{where}: malformed value: {exc}") from exc
