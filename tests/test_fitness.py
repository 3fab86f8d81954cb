import math
import statistics

import numpy as np
import pytest

from rewardevo import rsl
from rewardevo.envs import handcrafted_reward, make_task
from rewardevo.fitness import (
    EvalBudget,
    aggregate_scores,
    compute_sne,
    evaluate_fitness,
    normalized_score,
)


class TestNormalizedScore:
    def test_no_improvement_is_one(self):
        assert normalized_score(10.0, 10.0, 0.0) == 1.0

    def test_optimum_reached_is_zero(self):
        assert normalized_score(10.0, 0.0, 0.0) == 0.0

    def test_direct_ratio(self):
        assert normalized_score(10.0, 1.0, 0.0) == pytest.approx(0.1)

    def test_degenerate_start_at_optimum(self):
        assert normalized_score(5.0, 5.0, 5.0) == 0.0

    def test_never_negative(self):
        assert normalized_score(10.0, -1e-9, 0.0) == 0.0


class TestAggregation:
    def test_brute_force_oracle(self):
        """Independent oracle: statistics.median_low per row, plain mean."""
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n_inst = int(rng.integers(1, 20))
            gamma = int(rng.integers(1, 9))
            matrix = rng.uniform(0, 2, size=(n_inst, gamma)).tolist()
            fitness, medians = aggregate_scores(matrix)
            oracle_medians = [statistics.median_low(row) for row in matrix]
            oracle = sum(oracle_medians) / len(oracle_medians)
            assert medians == oracle_medians
            assert abs(fitness - oracle) <= 1e-12

    def test_gamma_one_reduces_to_single_score(self):
        fitness, medians = aggregate_scores([[0.3], [0.7]])
        assert medians == [0.3, 0.7]
        assert fitness == pytest.approx(0.5)

    def test_even_gamma_uses_lower_middle(self):
        fitness, medians = aggregate_scores([[0.1, 0.9]])
        assert medians == [0.1]

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            aggregate_scores([])


@pytest.fixture(scope="module")
def micro(suite_d2):
    task = make_task("pso-parameter-control", suite_d2, max_fes=600)
    budget = EvalBudget(gamma=2, fe_budget=600, train_episodes=0)
    return task, budget


class TestEvaluateFitness:

    def test_report_shape_and_recomputability(self, micro, suite_d2):
        task, budget = micro
        report = evaluate_fitness(
            handcrafted_reward(task.task_id), task, suite_d2, budget, seed=4
        )
        assert not report.invalid_flag
        assert len(report.score_matrix) == len(suite_d2.test_instances)
        assert all(len(row) == budget.gamma for row in report.score_matrix)
        refit, remed = aggregate_scores(report.score_matrix)
        assert abs(refit - report.fitness) <= 1e-12
        assert remed == report.per_instance_medians
        assert all(s >= 0.0 for row in report.score_matrix for s in row)

    def test_determinism(self, micro, suite_d2):
        task, budget = micro
        a = evaluate_fitness(handcrafted_reward(task.task_id), task, suite_d2, budget, seed=4)
        b = evaluate_fitness(handcrafted_reward(task.task_id), task, suite_d2, budget, seed=4)
        assert a.to_dict() == b.to_dict()

    def test_invalid_reward_yields_sentinel(self, micro, suite_d2):
        task, budget = micro
        bad = rsl.parse("return 1.0 / (ctx.pre_gbest - ctx.pre_gbest), {}")
        report = evaluate_fitness(bad, task, suite_d2, budget, seed=4)
        assert report.invalid_flag
        assert math.isinf(report.fitness)
        assert report.score_matrix is None

    def test_schema_violation_yields_invalid(self, micro, suite_d2):
        task, budget = micro
        foreign = rsl.parse("return ctx.gbest_cost, {}")  # a DE field, not PSO
        report = evaluate_fitness(foreign, task, suite_d2, budget, seed=4)
        assert report.invalid_flag
        assert "schema" in report.failure_reason

    def test_report_roundtrip(self, micro, suite_d2):
        from rewardevo.fitness import FitnessReport

        task, budget = micro
        report = evaluate_fitness(
            handcrafted_reward(task.task_id), task, suite_d2, budget, seed=4
        )
        clone = FitnessReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()


class TestSne:
    def test_parity_is_exactly_one(self):
        assert compute_sne([0.3, 0.2, 0.9], [0.3, 0.2, 0.9]) == 1.0

    def test_halved_baseline(self):
        halved = [0.2, 0.4, 0.6]
        baseline = [0.4, 0.8, 1.2]
        assert abs(compute_sne(halved, baseline) - 0.5) <= 1e-12

    def test_single_task_reduces_to_ratio(self):
        assert compute_sne([0.3], [0.6]) == pytest.approx(0.5)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            compute_sne([0.3], [0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            compute_sne([math.inf], [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            compute_sne([1.0], [1.0, 2.0])


def test_budget_validation():
    with pytest.raises(ValueError):
        EvalBudget(gamma=0)
    with pytest.raises(ValueError):
        EvalBudget(fe_budget=0)
