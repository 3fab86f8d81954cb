"""The three trainable MetaBBO environments, their meta-policies, and the
per-task reward-context schemas."""

from .episode import CountingProblem, EpisodeLog, InvalidRewardError, StepRecord
from .policies import (
    LinearGainPolicy,
    QTablePolicy,
    RandomPolicy,
    policy_digest,
    state_index,
)
from .schema import (
    PSO_GROUPS,
    PSO_ACTION_SIZE,
    SCHEMA_VERSION,
    TASK_IDS,
    FieldSpec,
    Schema,
    SchemaViolation,
    get_schema,
    random_context,
    validate_context,
)
from .tasks import (
    Metadata,
    MetaTask,
    discovered_reward,
    handcrafted_reward,
    load_task_metadata,
    make_policy,
    make_task,
    run_episode,
    train_policy,
)

__all__ = [
    "CountingProblem",
    "EpisodeLog",
    "InvalidRewardError",
    "StepRecord",
    "LinearGainPolicy",
    "QTablePolicy",
    "RandomPolicy",
    "policy_digest",
    "state_index",
    "PSO_GROUPS",
    "PSO_ACTION_SIZE",
    "SCHEMA_VERSION",
    "TASK_IDS",
    "FieldSpec",
    "Schema",
    "SchemaViolation",
    "get_schema",
    "random_context",
    "validate_context",
    "Metadata",
    "MetaTask",
    "discovered_reward",
    "handcrafted_reward",
    "load_task_metadata",
    "make_policy",
    "make_task",
    "run_episode",
    "train_policy",
]
