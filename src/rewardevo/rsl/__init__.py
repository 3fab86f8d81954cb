"""Sandboxed reward scripting language: deterministic, pure, bounded."""

from .errors import (
    RslBudgetError,
    RslError,
    RslMissingKeyError,
    RslNumericError,
    RslParseError,
    RslRuntimeError,
    RslTypeError,
    RslValidationError,
    RslValueError,
)
from .interp import BUILTINS
from .program import (
    DEFAULT_LIMITS,
    EvalLimits,
    RewardOutput,
    RewardProgram,
    evaluate,
    format_reward_file,
    parse,
    read_reward_file,
    schema_errors,
    validate,
    write_reward_file,
)

__all__ = [
    "BUILTINS",
    "DEFAULT_LIMITS",
    "EvalLimits",
    "RewardOutput",
    "RewardProgram",
    "evaluate",
    "format_reward_file",
    "parse",
    "read_reward_file",
    "schema_errors",
    "validate",
    "write_reward_file",
    "RslBudgetError",
    "RslError",
    "RslMissingKeyError",
    "RslNumericError",
    "RslParseError",
    "RslRuntimeError",
    "RslTypeError",
    "RslValidationError",
    "RslValueError",
]
