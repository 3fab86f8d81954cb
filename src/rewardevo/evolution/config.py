"""Run configuration: validated before any side effect, echoed into the run
directory.

``RunConfig.from_dict`` checks the JSON type of every key, and ``validate``
the run's shape: tasks, niches, generations, selection, knowledge transfer
and workers. The evaluation settings are checked where they are used, by
``problems.make_instance`` (dimension >= 2), ``problems.make_suite``
(instances_per_family >= 1), ``fitness.EvalBudget`` (gamma >= 1,
fe_budget >= 1, train_episodes >= 0) and ``envs.make_task`` (an fe_budget of
at least two of the task's populations). ``rewardevo discover`` builds all
of them before it builds the provider or the run directory.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..envs.schema import TASK_IDS
from ..fitness import SEARCH_BUDGET
from .operators import OPERATOR_ORDER


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Each field annotation's test of a JSON value, and its name in messages.
_ADMITS = {
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "dict": (lambda v: isinstance(v, dict), "an object"),
    "list[str]": (
        lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
        "a list of strings",
    ),
}


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
    gamma: int = SEARCH_BUDGET.gamma
    fe_budget: int = SEARCH_BUDGET.fe_budget
    train_episodes: int = SEARCH_BUDGET.train_episodes
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
            if slot not in OPERATOR_ORDER:
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
        for key, value in d.items():
            admits, expected = _ADMITS[cls.__dataclass_fields__[key].type]
            if not admits(value):
                raise ConfigError(f"{key} must be {expected}, got {value!r}")
        cfg = cls(**d)
        cfg.validate()
        return cfg
