import threading

import pytest

from rewardevo import rsl
from rewardevo.fitness import (
    EvalBudget,
    EvaluationScheduler,
    FitnessCache,
    evaluate_fitness,
    job_key,
)


@pytest.fixture()
def scheduler_parts(suite_d2):
    budget = EvalBudget(gamma=1, fe_budget=600, train_episodes=0)
    return suite_d2, budget


def make_scheduler(parts, workers=1, cache=None):
    suite, budget = parts
    return EvaluationScheduler(
        suite, budget, 3, cache=cache or FitnessCache(), worker_count=workers
    )


def some_jobs(n):
    rewards = [
        rsl.parse(f"return clip(ctx.gbest_improve * {k + 1}.0, 0.0, 1.0), {{}}")
        for k in range(n)
    ]
    return [
        (rewards[i], ("pso-parameter-control", "algorithm-selection")[i % 2])
        for i in range(n)
    ]


class TestScheduler:
    def test_results_in_request_order(self, scheduler_parts):
        jobs = some_jobs(4)
        sched = make_scheduler(scheduler_parts, workers=3)
        reports = sched.run(jobs)
        assert len(reports) == 4
        solo = make_scheduler(scheduler_parts, workers=1)
        expected = [solo.run([j])[0] for j in jobs]
        for got, want in zip(reports, expected):
            assert got.to_dict() == want.to_dict()

    def test_worker_count_invariance(self, scheduler_parts):
        jobs = some_jobs(6)
        r1 = make_scheduler(scheduler_parts, workers=1).run(jobs)
        r8 = make_scheduler(scheduler_parts, workers=8).run(jobs)
        assert [r.to_dict() for r in r1] == [r.to_dict() for r in r8]

    def test_duplicate_jobs_share_one_execution(self, scheduler_parts, monkeypatch):
        calls = []
        real = evaluate_fitness

        def counting(reward, task, s, b, seed):
            calls.append(reward.content_hash)
            return real(reward, task, s, b, seed)

        monkeypatch.setattr("rewardevo.fitness.scheduler.evaluate_fitness", counting)
        sched = make_scheduler(scheduler_parts)
        job = some_jobs(1)[0]
        reports = sched.run([job, job, job])
        assert len(reports) == 3
        assert len(calls) == 1
        assert reports[0].to_dict() == reports[1].to_dict() == reports[2].to_dict()

    def test_cache_hit_matches_recomputation(self, scheduler_parts, tmp_path):
        cache = FitnessCache(tmp_path / "cache")
        sched = make_scheduler(scheduler_parts, cache=cache)
        job = some_jobs(1)[0]
        first = sched.run([job])[0]
        # Fresh scheduler, same persistent cache: served from disk.
        sched2 = make_scheduler(scheduler_parts, cache=FitnessCache(tmp_path / "cache"))
        again = sched2.run([job])[0]
        assert again.to_dict() == first.to_dict()
        # Bypass audit: recomputation from scratch is bit-identical.
        fresh = make_scheduler(scheduler_parts).run([job])[0]
        assert fresh.to_dict() == first.to_dict()

    def test_crashed_job_retried_once_then_surfaced(self, scheduler_parts, monkeypatch):
        attempts = []

        def flaky(reward, task, s, b, seed):
            attempts.append(1)
            raise OSError("worker died")

        monkeypatch.setattr("rewardevo.fitness.scheduler.evaluate_fitness", flaky)
        sched = make_scheduler(scheduler_parts)
        with pytest.raises(OSError):
            sched.run([some_jobs(1)[0]])
        assert len(attempts) == 2

    def test_transient_crash_recovers(self, scheduler_parts, monkeypatch):
        real = evaluate_fitness
        state = {"failed": False}

        def once_flaky(reward, task, s, b, seed):
            if not state["failed"]:
                state["failed"] = True
                raise OSError("transient")
            return real(reward, task, s, b, seed)

        monkeypatch.setattr("rewardevo.fitness.scheduler.evaluate_fitness", once_flaky)
        report = make_scheduler(scheduler_parts).run([some_jobs(1)[0]])[0]
        assert not report.invalid_flag

    def test_task_built_only_when_asked_for(self, suite_d2):
        # 150 FEs cover DE's population of 50 twice but not PSO's of 100.
        sched = EvaluationScheduler(suite_d2, EvalBudget(1, 150, 0), 3)
        reward = rsl.parse("return 0.0, {}")
        assert not sched.run([(reward, "de-operator-selection")])[0].invalid_flag
        with pytest.raises(ValueError, match="NP"):
            sched.run([(reward, "pso-parameter-control")])

    def test_key_includes_budget_and_seed(self, scheduler_parts):
        _, budget = scheduler_parts
        other = EvalBudget(gamma=2, fe_budget=600, train_episodes=0)
        r = rsl.parse("return 0.0, {}")
        k1 = job_key(r.content_hash, "pso-parameter-control", 1, budget)
        assert k1 != job_key(r.content_hash, "pso-parameter-control", 2, budget)
        assert k1 != job_key(r.content_hash, "pso-parameter-control", 1, other)
        assert k1 != job_key(r.content_hash, "algorithm-selection", 1, budget)


class TestCacheConcurrency:
    def test_concurrent_reads_and_single_writer(self, tmp_path):
        from rewardevo.fitness import FitnessReport

        cache = FitnessCache(tmp_path)
        report = FitnessReport(fitness=0.5)
        errors = []

        def writer():
            try:
                for i in range(50):
                    cache.put(f"k{i % 5}", report)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for i in range(50):
                    cache.get(f"k{i % 5}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.get("k0").fitness == 0.5
