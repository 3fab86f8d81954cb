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
from dataclasses import dataclass
from pathlib import Path

from .. import rsl
from ..envs import SCHEMA_VERSION, MetaTask
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


@dataclass(frozen=True)
class EvalJob:
    reward: rsl.RewardProgram
    task_id: str
    seed: int


class EvaluationScheduler:
    """Runs evaluation jobs on a bounded worker pool, cache-first."""

    def __init__(
        self,
        tasks: dict[str, MetaTask],
        suite: ProblemSuite,
        budget: EvalBudget,
        cache: FitnessCache | None = None,
        worker_count: int = 1,
    ):
        self.tasks = tasks
        self.suite = suite
        self.budget = budget
        self.cache = cache or FitnessCache()
        self.worker_count = max(1, worker_count)

    def _run_job(self, job: EvalJob) -> FitnessReport:
        task = self.tasks[job.task_id]
        return evaluate_fitness(job.reward, task, self.suite, self.budget, job.seed)

    def _run_with_retry(self, job: EvalJob) -> FitnessReport:
        try:
            return self._run_job(job)
        except Exception:
            logger.warning("evaluation job crashed; retrying once", exc_info=True)
            return self._run_job(job)

    def run(self, jobs: list[EvalJob]) -> list[FitnessReport]:
        """Reports in request order; duplicate jobs share one execution."""
        keys = [
            job_key(job.reward.content_hash, job.task_id, job.seed, self.budget)
            for job in jobs
        ]
        results: dict[str, FitnessReport] = {}
        pending: dict[str, EvalJob] = {}
        for key, job in zip(keys, jobs):
            if key in results or key in pending:
                continue
            cached = self.cache.get(key)
            if cached is not None:
                results[key] = cached
            else:
                pending[key] = job

        if pending:
            if self.worker_count == 1:
                for key, job in pending.items():
                    report = self._run_with_retry(job)
                    self.cache.put(key, report)
                    results[key] = report
            else:
                with ThreadPoolExecutor(max_workers=self.worker_count) as pool:
                    futures = {
                        key: pool.submit(self._run_with_retry, job)
                        for key, job in pending.items()
                    }
                    for key, fut in futures.items():
                        report = fut.result()
                        self.cache.put(key, report)
                        results[key] = report
        return [results[key] for key in keys]

    def evaluate(self, reward: rsl.RewardProgram, task_id: str, seed: int) -> FitnessReport:
        return self.run([EvalJob(reward, task_id, seed)])[0]


class SchedulerEvaluator:
    """The evaluator protocol the discovery loop consumes, bound to one
    scheduler and one base seed (all candidates measured under equal seeds)."""

    def __init__(self, scheduler: EvaluationScheduler, seed: int):
        self.scheduler = scheduler
        self.seed = int(seed)

    def evaluate(self, reward: rsl.RewardProgram, task_id: str) -> FitnessReport:
        return self.scheduler.evaluate(reward, task_id, self.seed)

    def evaluate_batch(self, pairs) -> list[FitnessReport]:
        jobs = [EvalJob(reward, task_id, self.seed) for reward, task_id in pairs]
        return self.scheduler.run(jobs)
