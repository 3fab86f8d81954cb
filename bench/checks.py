"""Output checks of the benchmark, computed apart from the program.

Every function returns a list of error strings; an empty list means the
output passed. Reports are the ``FitnessReport.to_dict()`` form, as the
fitness cache stores them.
"""

from __future__ import annotations

import math
import statistics

OFFSPRING_OPERATORS = ("m1", "m2", "m3", "c1", "c2")


def report_errors(
    report: dict, gamma: int, fe_budget: int, train_episodes: int, n_test: int
) -> list[str]:
    """Score range, aggregation and FE accounting of one valid report."""
    errors: list[str] = []
    matrix = report["score_matrix"] or []
    if len(matrix) != n_test or any(len(row) != gamma for row in matrix):
        return [f"score matrix is not {n_test} x {gamma}"]
    # All three environments keep an elitist best, so the final best never
    # exceeds the initial one: every normalized score lies in [0, 1].
    for row in matrix:
        for score in row:
            if not (math.isfinite(score) and 0.0 <= score <= 1.0):
                errors.append(f"normalized score {score!r} outside [0, 1]")
    medians = [statistics.median_low(row) for row in matrix]
    if report["per_instance_medians"] != medians:
        errors.append("per-instance medians differ from median_low of the rows")
    expected = sum(medians) / len(medians)
    if report["fitness"] != expected:
        errors.append(
            f"fitness {report['fitness']!r} is not the mean of the medians {expected!r}"
        )
    test_fes = report["budget_used"] - train_episodes * fe_budget
    if not 0 < test_fes <= gamma * n_test * fe_budget:
        errors.append(
            f"budget_used {report['budget_used']} leaves {test_fes} test FEs, "
            f"outside (0, {gamma * n_test * fe_budget}]"
        )
    return errors


def discovery_errors(
    individuals: list[dict],
    transfers: list[dict],
    kt_plans: int,
    tasks: list[str],
    niche_size: int,
    g_max: int,
    pathways: int,
) -> list[str]:
    """Every niche has 5N offspring per generation, and one KT pass (one
    plan, one transfer record per pathway) runs per generation."""
    errors: list[str] = []
    for task in tasks:
        for g in range(1, g_max + 1):
            born = sum(
                1
                for ind in individuals
                if ind["task_id"] == task
                and ind["generation_born"] == g
                and ind["operator"] in OFFSPRING_OPERATORS
            )
            expected = len(OFFSPRING_OPERATORS) * niche_size
            if born != expected:
                errors.append(f"{task} generation {g}: {born} offspring, expected {expected}")
    if kt_plans != g_max:
        errors.append(f"{kt_plans} KT plans for {g_max} generations")
    for g in range(1, g_max + 1):
        records = sum(1 for t in transfers if t["generation"] == g)
        if records != pathways:
            errors.append(f"generation {g}: {records} transfer records, expected {pathways}")
    return errors


def recompute_errors(label: str, recorded: dict | None, fresh: dict) -> list[str]:
    """A direct re-evaluation must reproduce the recorded report exactly."""
    if recorded is None:
        return [f"{label}: no recorded report"]
    diff = sorted(k for k in set(recorded) | set(fresh) if recorded.get(k) != fresh.get(k))
    return [f"{label}: recomputed report differs in {diff}"] if diff else []
