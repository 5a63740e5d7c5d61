"""Exception types shared across the package."""


class HybridlmError(Exception):
    """Base class for all package errors."""


class ShapeError(HybridlmError, ValueError):
    """Operand shapes are incompatible."""


class NumericInputError(HybridlmError, ValueError):
    """An operation received a non-finite input it cannot accept."""


class ContractError(HybridlmError, RuntimeError):
    """A caller violated an operation's contract (wrong state, non-scalar loss, ...)."""


class ConfigError(HybridlmError, ValueError):
    """Invalid configuration value or combination."""


class PatternParseError(HybridlmError, ValueError):
    """Layer-pattern string contains an illegal character."""


class TokenIndexError(HybridlmError, IndexError):
    """An index, such as a token id, is outside the axis it selects from."""


class CheckpointError(HybridlmError, RuntimeError):
    """Checkpoint file is malformed, truncated, or version-incompatible."""


class KernelBuildError(HybridlmError, RuntimeError):
    """The C kernels cannot be built or loaded: no working compiler, no Python.h or no usable cache directory."""
