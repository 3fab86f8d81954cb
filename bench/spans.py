"""Spans recorded from outside the program.

The tracer replaces public functions at the names their callers look them up
by (``rewardevo.envs.episode.rsl_evaluate``, ``rewardevo.fitness.scheduler.
evaluate_fitness``, ...) with wrappers that time each call. A span's self
time is its duration minus the part its child spans cover on the same
thread. Nothing inside ``src/`` changes; ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict


def _task_of(index: int):
    """Tag a span with the task id of positional argument ``index``."""

    def tag(args, kwargs, result):
        return args[index].task_id

    return tag


def _points(args, kwargs, result):
    return args[1].shape[0]


def _batch(args, kwargs, result):
    return (len(args[1]), args[0].worker_count)


def _cache_hit(args, kwargs, result):
    return result is not None


def _patch_table(provider_cls) -> list[tuple]:
    """(owner, attribute, span name, tag) for every traced public function."""
    from rewardevo import cli, fitness, llm, problems, rsl
    from rewardevo.envs import episode, tasks
    from rewardevo.evolution import loop
    from rewardevo.evolution.rundir import RunDir
    from rewardevo.fitness import core, scheduler

    table = [
        (cli, "main", "cli.main", None),
        (cli, "run_discovery", "evolution.run_discovery", None),
        (loop, "initialize_niche", "evolution.initialize_niche", None),
        (loop, "reproduce", "evolution.reproduce", None),
        (loop, "select_survivors", "evolution.select", None),
        (loop, "knowledge_transfer", "evolution.kt", None),
        (provider_cls, "complete", "llm.call", None),
        (llm, "render_prompt", "llm.render", None),
        (scheduler.EvaluationScheduler, "run", "fitness.batch", _batch),
        (scheduler.FitnessCache, "get", "fitness.cache_get", _cache_hit),
        (scheduler.FitnessCache, "put", "fitness.cache_put", None),
        (scheduler, "evaluate_fitness", "fitness.evaluate", _task_of(1)),
        (fitness, "evaluate_fitness", "fitness.evaluate", _task_of(1)),
        (core, "train_policy", "fitness.train", None),
        (core, "run_episode", "envs.test_episode", _task_of(0)),
        (tasks, "run_episode", "envs.train_episode", _task_of(0)),
        (episode, "rsl_evaluate", "rsl.evaluate", None),
        (rsl, "parse", "rsl.parse", None),
        (problems, "evaluate", "problems.evaluate", None),
        (problems, "evaluate_many", "problems.evaluate_many", _points),
    ]
    for method in (
        "write_config",
        "write_individual",
        "append_archive",
        "append_transfers",
        "append_report_rows",
        "write_snapshot",
        "write_best",
    ):
        table.append((RunDir, method, "evolution.rundir_write", None))
    return table


class Tracer:
    """Records (name, tag, parent, duration_ns, self_ns) per call while
    installed. Records stay in memory until ``metrics`` aggregates them."""

    def __init__(self, provider_cls):
        self.records: list[tuple] = []
        self._local = threading.local()
        self._table = _patch_table(provider_cls)
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, tag):
        records = self.records
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [name, 0]  # span name, child nanoseconds
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                label = tag(args, kwargs, result) if tag else None
                records.append((name, label, parent, duration, duration - frame[1]))

        return wrapper

    def install(self) -> None:
        for owner, attr, name, tag in self._table:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, tag))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, ops: int, llm_failures: int, parse_rejections: int) -> dict:
        """Per-layer metrics, per traced operation (counts and times are
        divided by ``ops``; percentiles are over every span)."""
        from rewardevo.envs import TASK_IDS

        count = defaultdict(int)
        total = defaultdict(int)
        own = defaultdict(int)
        durations = defaultdict(list)
        tagged = defaultdict(list)
        for name, label, _parent, duration, self_ns in self.records:
            count[name] += 1
            total[name] += duration
            own[name] += self_ns
            durations[name].append(duration)
            if isinstance(label, str):
                tagged[(name, label)].append(duration)

        def per_op(value):
            return value / ops

        def p50(values, scale):
            return statistics.median(values) / scale if values else 0.0

        episodes = ("envs.train_episode", "envs.test_episode")
        batch_spans = [r for r in self.records if r[0] == "fitness.batch"]
        batches = [r[1] for r in batch_spans]
        # Worker-seconds the scheduler held: workers x batch wall time.
        batch_capacity = sum(r[1][1] * r[3] for r in batch_spans)
        hits = sum(1 for r in self.records if r[0] == "fitness.cache_get" and r[1])
        m = {
            "rsl.evaluate_calls": (per_op(count["rsl.evaluate"]), "count"),
            "rsl.evaluate_us_p50": (p50(durations["rsl.evaluate"], 1e3), "us"),
            "rsl.evaluate_self_s": (per_op(own["rsl.evaluate"]) / 1e9, "s"),
            "rsl.parse_calls": (per_op(count["rsl.parse"]), "count"),
            "rsl.parse_self_s": (per_op(own["rsl.parse"]) / 1e9, "s"),
            "envs.train_episodes": (per_op(count["envs.train_episode"]), "count"),
            "envs.test_episodes": (per_op(count["envs.test_episode"]), "count"),
        }
        for task in TASK_IDS:
            values = tagged[(episodes[0], task)] + tagged[(episodes[1], task)]
            m[f"envs.episode_ms_p50.{task}"] = (p50(values, 1e6), "ms")
        m["envs.episode_self_s"] = (per_op(own[episodes[0]] + own[episodes[1]]) / 1e9, "s")
        m["problems.fes"] = (
            per_op(
                count["problems.evaluate"]
                + sum(r[1] for r in self.records if r[0] == "problems.evaluate_many")
            ),
            "count",
        )
        m["problems.self_s"] = (
            per_op(own["problems.evaluate"] + own["problems.evaluate_many"]) / 1e9,
            "s",
        )
        m["fitness.evaluate_calls"] = (per_op(count["fitness.evaluate"]), "count")
        for task in TASK_IDS:
            m[f"fitness.evaluate_s_p50.{task}"] = (
                p50(tagged[("fitness.evaluate", task)], 1e9),
                "s",
            )
        m["fitness.train_s"] = (per_op(total["fitness.train"]) / 1e9, "s")
        m["fitness.test_s"] = (per_op(total["envs.test_episode"]) / 1e9, "s")
        m["fitness.batches"] = (per_op(len(batches)), "count")
        m["fitness.batch_size_mean"] = (
            statistics.mean(size for size, _ in batches) if batches else 0.0,
            "count",
        )
        m["fitness.parallel_efficiency"] = (
            total["fitness.evaluate"] / batch_capacity if batch_capacity else 0.0,
            "ratio",
        )
        m["fitness.cache_hits"] = (per_op(hits), "count")
        m["fitness.cache_misses"] = (per_op(count["fitness.cache_get"] - hits), "count")
        m["fitness.cache_io_ms"] = (
            per_op(total["fitness.cache_get"] + total["fitness.cache_put"]) / 1e6,
            "ms",
        )
        m["llm.calls"] = (per_op(count["llm.call"]), "count")
        m["llm.call_failures"] = (per_op(llm_failures), "count")
        m["llm.parse_rejections"] = (per_op(parse_rejections), "count")
        m["llm.render_ms"] = (per_op(total["llm.render"]) / 1e6, "ms")
        m["evolution.select_calls"] = (per_op(count["evolution.select"]), "count")
        m["evolution.select_us_p50"] = (p50(durations["evolution.select"], 1e3), "us")
        loop_spans = (
            "evolution.run_discovery",
            "evolution.initialize_niche",
            "evolution.reproduce",
        )
        m["evolution.loop_self_s"] = (per_op(sum(own[n] for n in loop_spans)) / 1e9, "s")
        m["evolution.kt_self_s"] = (per_op(own["evolution.kt"]) / 1e9, "s")
        m["evolution.rundir_write_ms"] = (per_op(total["evolution.rundir_write"]) / 1e6, "ms")
        m["cli.calls"] = (per_op(count["cli.main"]), "count")
        m["cli.self_s"] = (per_op(own["cli.main"]) / 1e9, "s")
        return m

    def span_summary(self) -> dict:
        """Per span name: calls, total and self seconds, median microseconds."""
        grouped = defaultdict(list)
        for name, _label, _parent, duration, self_ns in self.records:
            grouped[name].append((duration, self_ns))
        return {
            name: {
                "calls": len(rows),
                "total_s": sum(d for d, _ in rows) / 1e9,
                "self_s": sum(s for _, s in rows) / 1e9,
                "p50_us": statistics.median(d for d, _ in rows) / 1e3,
            }
            for name, rows in sorted(grouped.items())
        }
