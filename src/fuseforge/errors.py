"""Exception taxonomy shared across the package."""


class FuseForgeError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FuseForgeError):
    """Malformed process terms: duplicate binders, unguarded recursion, etc."""


class ReductionError(FuseForgeError):
    """Arity mismatch or other failure while firing a communication."""


class OracleConfigError(FuseForgeError):
    """A compute method id has no registered host function."""


class ResourceLimitError(FuseForgeError):
    """State-space exploration exceeded the configured node limit.

    Carries the partial exploration result in ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class WrongCaseError(FuseForgeError):
    """Recursive equation passed to the non-recursive translation or vice versa."""


class ContractError(FuseForgeError):
    """Message value does not match the contract's declared type tag."""


class ParameterError(FuseForgeError):
    """Generator or partitioner parameter out of range."""


class DanglingReferenceError(FuseForgeError):
    """An equation references an agent that does not exist."""


class PipelineOrderError(FuseForgeError):
    """Optimizer passes applied out of dependency order."""


class AlgebraicPreconditionError(FuseForgeError):
    """Aggregation pushdown requested for a non assoc+comm compute method."""


class CoverageError(FuseForgeError):
    """Partition plans do not cover every agent exactly once."""


class UsageError(FuseForgeError):
    """Invalid CLI arguments or config values."""


class UnsupportedThreadsError(FuseForgeError):
    """A thread count other than 1 was requested; the engine runs on one thread."""
