"""Concurrent evaluation scheduling with a content-addressed result cache.

Jobs are pure, so results are independent of worker count and completion
order; the scheduler returns reports in request order, deduplicates identical
jobs within a batch, and retries a crashed job once before surfacing the
failure.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .. import rsl
from ..envs import SCHEMA_VERSION, MetaTask, make_task
from ..problems import ProblemSuite
from .core import EvalBudget, FitnessReport, evaluate_fitness

logger = logging.getLogger(__name__)

def job_key(reward_hash: str, task_id: str, seed: int, budget: EvalBudget) -> str:
    payload = json.dumps(
        {
            "reward": reward_hash,
            "task": task_id,
            "seed": seed,
            "budget": budget.key_parts(),
            "schema_version": SCHEMA_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class FitnessCache:
    """In-memory map with optional on-disk persistence (one JSON per key).

    Concurrent readers are safe; insertion is single-writer per key.
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else None
        if self.directory:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._mem: dict[str, FitnessReport] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> FitnessReport | None:
        with self._lock:
            if key in self._mem:
                return self._mem[key]
        if self.directory:
            path = self.directory / f"{key}.json"
            if path.exists():
                try:
                    report = FitnessReport.from_dict(
                        json.loads(path.read_text(encoding="utf-8"))
                    )
                except (OSError, json.JSONDecodeError, KeyError):
                    return None
                with self._lock:
                    self._mem[key] = report
                return report
        return None

    def put(self, key: str, report: FitnessReport) -> None:
        with self._lock:
            self._mem[key] = report
        if self.directory:
            path = self.directory / f"{key}.json"
            fd, tmp = tempfile.mkstemp(prefix=key, suffix=".tmp", dir=self.directory)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report.to_dict(), sort_keys=True))
            os.replace(tmp, path)


class EvaluationScheduler:
    """Scores ``(reward, task_id)`` pairs under one suite, budget and seed,
    cache-first, on a bounded worker pool: the evaluator that the CLI and the
    discovery loop share."""

    def __init__(
        self,
        suite: ProblemSuite,
        budget: EvalBudget,
        seed: int,
        cache: FitnessCache | None = None,
        worker_count: int = 1,
    ):
        self.suite = suite
        self.budget = budget
        self.seed = int(seed)
        self.cache = cache or FitnessCache()
        self.worker_count = max(1, worker_count)
        self._tasks: dict[str, MetaTask] = {}

    def _evaluate_with_retry(
        self, reward: rsl.RewardProgram, task: MetaTask
    ) -> FitnessReport:
        try:
            return evaluate_fitness(reward, task, self.suite, self.budget, self.seed)
        except Exception:
            logger.warning("evaluation job crashed; retrying once", exc_info=True)
            return evaluate_fitness(reward, task, self.suite, self.budget, self.seed)

    def run(self, pairs: list[tuple[rsl.RewardProgram, str]]) -> list[FitnessReport]:
        """Reports in request order; duplicate pairs share one execution."""
        keys = [
            job_key(reward.content_hash, task_id, self.seed, self.budget)
            for reward, task_id in pairs
        ]
        results: dict[str, FitnessReport] = {}
        pending: dict[str, tuple[rsl.RewardProgram, MetaTask]] = {}
        for key, (reward, task_id) in zip(keys, pairs):
            if key in results or key in pending:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[key] = cached
                continue
            # Built on first use: a task whose population does not fit the
            # budget fails only when it is asked for.
            if task_id not in self._tasks:
                self._tasks[task_id] = make_task(
                    task_id, self.suite, max_fes=self.budget.fe_budget
                )
            pending[key] = (reward, self._tasks[task_id])

        if pending:
            if self.worker_count == 1:
                for key, job in pending.items():
                    report = self._evaluate_with_retry(*job)
                    self.cache.put(key, report)
                    results[key] = report
            else:
                with ThreadPoolExecutor(max_workers=self.worker_count) as pool:
                    futures = {
                        key: pool.submit(self._evaluate_with_retry, *job)
                        for key, job in pending.items()
                    }
                    for key, fut in futures.items():
                        report = fut.result()
                        self.cache.put(key, report)
                        results[key] = report
        return [results[key] for key in keys]
