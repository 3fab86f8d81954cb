"""Every output check of the benchmark rejects a corrupted input.

    python3 -m pytest bench/test_checks.py -q
"""

import copy
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

GAMMA, FE, TRAIN, N_TEST = 3, 100, 2, 4


def good_report() -> dict:
    matrix = [[0.5, 0.25, 0.75], [0.1, 0.9, 0.3], [1.0, 0.0, 0.5], [0.2, 0.2, 0.4]]
    medians = [statistics.median_low(row) for row in matrix]
    return {
        "fitness": sum(medians) / len(medians),
        "score_matrix": matrix,
        "per_instance_medians": medians,
        "policy_digest": "d",
        "budget_used": TRAIN * FE + GAMMA * N_TEST * FE,
        "invalid_flag": False,
        "failure_reason": None,
        "version": 1,
    }


def report_errors(report):
    return checks.report_errors(report, GAMMA, FE, TRAIN, N_TEST)


def test_good_report_passes():
    assert report_errors(good_report()) == []


def test_score_above_one_rejected():
    report = good_report()
    report["score_matrix"][0][1] = 1.0000001
    assert any("outside [0, 1]" in e for e in report_errors(report))


def test_fitness_one_ulp_off_rejected():
    report = good_report()
    report["fitness"] = math.nextafter(report["fitness"], math.inf)
    assert any("not the mean of the medians" in e for e in report_errors(report))


def test_budget_without_test_fes_rejected():
    report = good_report()
    report["budget_used"] = TRAIN * FE
    assert any("test FEs" in e for e in report_errors(report))


def discovery(individuals, transfers=None, plans=1):
    transfers = transfers if transfers is not None else [{"generation": 1}] * 2
    return checks.discovery_errors(individuals, transfers, plans, ["a", "b"], 2, 1, 2)


def full_generation() -> list[dict]:
    return [
        {"task_id": task, "generation_born": 1, "operator": op}
        for task in ("a", "b")
        for _parent in range(2)
        for op in checks.OFFSPRING_OPERATORS
    ] + [{"task_id": "a", "generation_born": 0, "operator": "expert"}]


def test_full_generation_passes():
    assert discovery(full_generation()) == []


def test_missing_offspring_rejected():
    individuals = full_generation()
    del individuals[3]
    assert any("offspring" in e for e in discovery(individuals))


def test_missing_kt_pass_rejected():
    assert any("KT plans" in e for e in discovery(full_generation(), plans=0))
    assert any("transfer records" in e for e in discovery(full_generation(), transfers=[]))


def test_identical_recomputation_passes():
    assert checks.recompute_errors("x", good_report(), good_report()) == []


def test_differing_recomputation_rejected():
    fresh = copy.deepcopy(good_report())
    fresh["score_matrix"][2][0] = 0.999
    errors = checks.recompute_errors("x", good_report(), fresh)
    assert errors and "score_matrix" in errors[0]
    assert checks.recompute_errors("x", None, fresh)
