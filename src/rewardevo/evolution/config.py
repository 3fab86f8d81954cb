"""Run configuration: validated before any side effect, echoed into the run
directory (minus the output path itself)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..envs.schema import TASK_IDS

_OPERATOR_SLOTS = ("m1", "m2", "m3", "c1", "c2")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    tasks: list[str] = field(default_factory=lambda: list(TASK_IDS))
    dimension: int = 10
    suite_seed: int = 0
    instances_per_family: int = 1
    niche_size: int = 5
    g_max: int = 7
    history_window: int = 5
    k_failure: int = 3
    difference_rate: int = 95
    archive_cap: int = 200
    kt_pathways: int | None = None  # default: one per niche
    disable_kt: bool = False
    replace_ops: dict = field(default_factory=dict)  # e.g. {"m1": "m0"}
    gamma: int = 3
    fe_budget: int = 5000
    train_episodes: int = 20
    seed: int = 0
    workers: int = 1
    max_init_attempts: int | None = None  # default: 5 * (N - 1)

    def validate(self) -> None:
        if not self.tasks:
            raise ConfigError("at least one task must be configured")
        unknown = [t for t in self.tasks if t not in TASK_IDS]
        if unknown:
            raise ConfigError(f"unknown tasks: {unknown}")
        if len(set(self.tasks)) != len(self.tasks):
            raise ConfigError("duplicate tasks")
        if self.g_max < 1:
            raise ConfigError("g_max must be >= 1")
        if self.niche_size < 1:
            raise ConfigError("niche_size must be >= 1")
        if self.dimension < 2:
            raise ConfigError("dimension must be >= 2")
        if self.gamma < 1:
            raise ConfigError("gamma must be >= 1")
        if self.fe_budget < 200:
            raise ConfigError("fe_budget must cover at least two populations")
        if self.history_window < 1:
            raise ConfigError("history_window must be >= 1")
        if self.k_failure < 1:
            raise ConfigError("k_failure must be >= 1")
        if self.archive_cap < 1:
            raise ConfigError("archive_cap must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.kt_pathways is not None and self.kt_pathways < 1:
            raise ConfigError("kt_pathways must be >= 1")
        for slot, repl in self.replace_ops.items():
            if slot not in _OPERATOR_SLOTS:
                raise ConfigError(f"cannot replace unknown operator {slot!r}")
            if repl != "m0":
                raise ConfigError(f"operators can only be replaced by m0, got {repl!r}")

    @property
    def init_attempts(self) -> int:
        if self.max_init_attempts is not None:
            return self.max_init_attempts
        return 5 * max(self.niche_size - 1, 1)

    @property
    def pathway_count(self) -> int:
        return self.kt_pathways if self.kt_pathways is not None else len(self.tasks)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**d)
        cfg.validate()
        return cfg
