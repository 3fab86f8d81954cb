"""Multitask niche-based reward-program evolution."""

from .config import ConfigError, RunConfig
from .loop import (
    DiscoveryAborted,
    RunResult,
    initialize_niche,
    knowledge_transfer,
    reproduce,
    run_discovery,
)
from .model import Archive, IdAllocator, Individual, Niche, TransferRecord
from .operators import (
    NO_ARCHIVE_MARKER,
    NO_HISTORY_MARKER,
    OPERATOR_ORDER,
    Candidate,
    adapt_reward,
    format_metadata,
    op_c1,
    op_c2,
    op_m0,
    op_m1,
    op_m2,
    op_m3,
    request_individual,
    summarize_archive,
)
from .rundir import REPORT_COLUMNS, RunDir
from .selection import first_draw_distribution, rank_weights, select_survivors

__all__ = [
    "ConfigError",
    "RunConfig",
    "DiscoveryAborted",
    "RunResult",
    "initialize_niche",
    "knowledge_transfer",
    "reproduce",
    "run_discovery",
    "Archive",
    "IdAllocator",
    "Individual",
    "Niche",
    "TransferRecord",
    "NO_ARCHIVE_MARKER",
    "NO_HISTORY_MARKER",
    "OPERATOR_ORDER",
    "Candidate",
    "adapt_reward",
    "format_metadata",
    "op_c1",
    "op_c2",
    "op_m0",
    "op_m1",
    "op_m2",
    "op_m3",
    "request_individual",
    "summarize_archive",
    "REPORT_COLUMNS",
    "RunDir",
    "first_draw_distribution",
    "rank_weights",
    "select_survivors",
]
