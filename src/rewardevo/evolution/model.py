"""Search-state data model: individuals, niches, the global archive, and
transfer records. Everything serializes to plain dicts for run-directory
snapshots and resumability."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .. import rsl
from ..envs import Metadata

@dataclass
class Individual:
    id: str
    task_id: str
    thought: str
    source: str
    fitness: float  # +inf sentinel when invalid
    per_instance_medians: list[float] | None
    generation_born: int
    parent_ids: tuple[str, ...]
    operator: str
    status: str  # alive | eliminated | invalid
    content_hash: str
    reflection: str = ""
    _program: rsl.RewardProgram | None = field(default=None, repr=False)

    @property
    def valid(self) -> bool:
        return math.isfinite(self.fitness)

    def program(self) -> rsl.RewardProgram:
        if self._program is None:
            self._program = rsl.parse(self.source)
        return self._program

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "task_id": self.task_id,
            "thought": self.thought,
            "source": self.source,
            "fitness": None if not math.isfinite(self.fitness) else self.fitness,
            "per_instance_medians": self.per_instance_medians,
            "generation_born": self.generation_born,
            "parent_ids": list(self.parent_ids),
            "operator": self.operator,
            "status": self.status,
            "content_hash": self.content_hash,
            "reflection": self.reflection,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Individual":
        return cls(
            id=d["id"],
            task_id=d["task_id"],
            thought=d["thought"],
            source=d["source"],
            fitness=math.inf if d["fitness"] is None else float(d["fitness"]),
            per_instance_medians=d["per_instance_medians"],
            generation_born=int(d["generation_born"]),
            parent_ids=tuple(d["parent_ids"]),
            operator=d["operator"],
            status=d["status"],
            content_hash=d["content_hash"],
            reflection=d.get("reflection", ""),
        )


@dataclass
class Niche:
    task_id: str
    metadata: Metadata
    members: list[Individual] = field(default_factory=list)
    init_fallback: bool = False
    best_ever_id: str | None = None
    best_ever_fitness: float = math.inf

    def best_member(self) -> Individual:
        return min(self.members, key=lambda m: (m.fitness, m.id))

    def worst_member(self) -> Individual:
        return max(self.members, key=lambda m: (m.fitness, m.id))

    def note_best(self, individual: Individual) -> None:
        if individual.valid and individual.fitness < self.best_ever_fitness:
            self.best_ever_fitness = individual.fitness
            self.best_ever_id = individual.id


class Archive:
    """Global FIFO pool of eliminated individuals from all niches, with a
    per-generation cached summary for the global-reflection operator."""

    def __init__(self, cap: int = 200):
        self.cap = int(cap)
        self.entries: list[Individual] = []
        self.summary_text: str | None = None
        self.summary_generation: int = -1

    def add(self, individual: Individual) -> None:
        self.entries.append(individual)
        if len(self.entries) > self.cap:
            del self.entries[0 : len(self.entries) - self.cap]

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class TransferRecord:
    generation: int
    source_task: str
    target_task: str
    rationale: str
    strategy: str
    status: str  # applied | failed
    transplant_id: str | None = None
    replaced_id: str | None = None
    transplant_fitness: float | None = None
    replaced_fitness: float | None = None
    failure_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "source_task": self.source_task,
            "target_task": self.target_task,
            "rationale": self.rationale,
            "strategy": self.strategy,
            "status": self.status,
            "transplant_id": self.transplant_id,
            "replaced_id": self.replaced_id,
            "transplant_fitness": self.transplant_fitness,
            "replaced_fitness": self.replaced_fitness,
            "failure_reason": self.failure_reason,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransferRecord":
        return cls(**d)


class IdAllocator:
    """Monotone ids; never reused, deterministic across runs."""

    def __init__(self, start: int = 0):
        self.counter = int(start)

    def new(self) -> str:
        self.counter += 1
        return f"ind-{self.counter:06d}"
