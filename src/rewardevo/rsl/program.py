"""Public surface of the reward scripting language: parse, validate,
evaluate, hash, and the on-disk reward-file format."""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import RslParseError, RslRuntimeError, RslValidationError
from .interp import compile_program, run_compiled
from .parser import dump, parse_source

MAX_SOURCE_BYTES = 64 * 1024

_HEADER_RE = re.compile(r"^#!\s*rsl\s+v1(?:\s+task=(?P<task>[A-Za-z0-9_-]+))?\s*$")


@dataclass(frozen=True)
class EvalLimits:
    """Hard execution limits; all strictly positive."""

    max_interpreter_steps: int = 1_000_000
    max_collection_length: int = 100_000

    def __post_init__(self):
        if self.max_interpreter_steps <= 0 or self.max_collection_length <= 0:
            raise ValueError("evaluation limits must be strictly positive")


DEFAULT_LIMITS = EvalLimits()


@dataclass(frozen=True)
class RewardOutput:
    """A finite total plus named finite components."""

    total: float
    components: dict[str, float]


@dataclass(eq=False)
class RewardProgram:
    source_text: str
    parsed_ast: tuple = field(repr=False)
    referenced_fields: frozenset[str]
    content_hash: str  # sha256 of the AST: blind to whitespace and comments
    task_hint: str | None = None
    _compiled: object = field(default=None, repr=False, compare=False)

    def compiled(self):
        if self._compiled is None:
            self._compiled = compile_program(self.parsed_ast)
        return self._compiled


def parse(source: str) -> RewardProgram:
    """Parse source into a program; raises RslParseError on any defect."""
    if not isinstance(source, str):
        raise RslParseError("source must be text")
    if len(source.encode("utf-8", errors="replace")) > MAX_SOURCE_BYTES:
        raise RslParseError(f"source exceeds {MAX_SOURCE_BYTES} bytes")
    task_hint = None
    first_line = source.split("\n", 1)[0]
    header = _HEADER_RE.match(first_line.strip())
    if header:
        task_hint = header.group("task")
    try:
        ast, fields = parse_source(source)
        canonical = dump(ast)
    except RslParseError:
        raise
    except RecursionError:
        raise RslParseError("nesting too deep")
    except Exception as exc:  # totality: tokenizer/parser never crash outward
        raise RslParseError(f"internal parse error: {type(exc).__name__}: {exc}")
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return RewardProgram(
        source_text=source,
        parsed_ast=ast,
        referenced_fields=fields,
        content_hash=digest,
        task_hint=task_hint,
    )


def validate(program: RewardProgram, schema_fields) -> None:
    """Every referenced field must exist in the schema (required or optional).

    ``schema_fields`` is any collection of field names (a dict works).
    Raises RslValidationError listing the offending fields.
    """
    known = set(schema_fields)
    unknown = set(program.referenced_fields) - known
    if unknown:
        raise RslValidationError(unknown)


def schema_errors(program: RewardProgram, schema_fields) -> set[str]:
    """Non-raising form of validate(); returns the unknown-field set."""
    return set(program.referenced_fields) - set(schema_fields)


def evaluate(
    program: RewardProgram,
    context: dict,
    limits: EvalLimits = DEFAULT_LIMITS,
) -> RewardOutput:
    """Pure, bounded evaluation; raises RslRuntimeError subclasses."""
    total, components = run_compiled(
        program.compiled(),
        context,
        limits.max_interpreter_steps,
        limits.max_collection_length,
    )
    return RewardOutput(total=total, components=components)


# -- reward-file format ----------------------------------------------------


def format_reward_file(source: str, task_id: str) -> str:
    """Normalize to the on-disk format: header line + source."""
    body = source
    first = source.split("\n", 1)[0]
    if _HEADER_RE.match(first.strip()):
        body = source.split("\n", 1)[1] if "\n" in source else ""
    return f"#! rsl v1 task={task_id}\n{body.rstrip()}\n"


def write_reward_file(
    path: str | Path,
    source: str,
    task_id: str,
    thought: str = "",
    fitness: float | None = None,
) -> RewardProgram:
    """Write ``<path>`` plus its JSON sidecar ``<path>.json``."""
    path = Path(path)
    text = format_reward_file(source, task_id)
    program = parse(text)
    path.write_text(text, encoding="utf-8")
    sidecar = {
        "thought": thought,
        "content_hash": program.content_hash,
        "fitness": fitness,
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return program


def read_reward_file(path: str | Path) -> tuple[RewardProgram, dict]:
    """Read a reward file and its sidecar (empty dict when absent)."""
    path = Path(path)
    program = parse(path.read_text(encoding="utf-8"))
    sidecar_path = Path(str(path) + ".json")
    sidecar = {}
    if sidecar_path.exists():
        try:
            sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            sidecar = {}
    return program, sidecar


__all__ = [
    "EvalLimits",
    "DEFAULT_LIMITS",
    "RewardOutput",
    "RewardProgram",
    "parse",
    "validate",
    "schema_errors",
    "evaluate",
    "format_reward_file",
    "write_reward_file",
    "read_reward_file",
    "RslParseError",
    "RslRuntimeError",
    "RslValidationError",
]
