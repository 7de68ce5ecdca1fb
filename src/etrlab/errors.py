"""Exception hierarchy shared across the lab."""


class EtrLabError(Exception):
    """Base class for all errors raised by this package."""


class RankDeficient(EtrLabError):
    pass


class UnsupportedDimension(EtrLabError):
    pass


class DimensionMismatch(EtrLabError):
    pass


class NotOrthonormal(EtrLabError):
    pass


class NotNormalized(EtrLabError):
    pass


class ZeroSignal(EtrLabError):
    pass


class EnumerationTooLarge(EtrLabError):
    pass


class InvalidSparsity(EtrLabError):
    pass


class InvalidSetting(EtrLabError):
    """A setting that is not a sparsity or support size: a seed, a noise level, a
    solver name or cap, a regime threshold, a gamma value or a trial count."""


class DegenerateGamma(EtrLabError):
    pass


class NonFiniteMatrix(EtrLabError):
    pass


class NoFeasibleSolution(EtrLabError):
    pass


class Stalled(EtrLabError):
    pass


class InsufficientEvidence(EtrLabError):
    pass


class SuiteFailure(EtrLabError):
    """A verification suite found violating instances.

    Carries the list of violation descriptions (with reproduction seeds)
    so callers can render them before exiting with status 2.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"{len(self.violations)} violation(s) found")


class IoFailure(EtrLabError):
    pass


class ConfigError(EtrLabError):
    pass
