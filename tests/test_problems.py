import json

import numpy as np
import pytest

from conftest import golden_check
from rewardevo import problems
from rewardevo.problems import (
    FUNCTION_IDS,
    TEST_FAMILIES,
    TRAIN_FAMILIES,
    ContractViolation,
    evaluate,
    evaluate_many,
    make_instance,
    make_suite,
)


@pytest.mark.parametrize("function_id", FUNCTION_IDS)
@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_optimum_identity(function_id, seed):
    inst = make_instance(function_id, dimension=5, instance_seed=seed)
    assert abs(evaluate(inst, inst.optimum_point) - inst.optimum_value) < 1e-9


@pytest.mark.parametrize("function_id", FUNCTION_IDS)
def test_evaluation_deterministic_and_finite(function_id):
    inst = make_instance(function_id, dimension=5, instance_seed=11)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-5, 5, size=(64, 5))
    v1 = evaluate_many(inst, pts)
    v2 = evaluate_many(inst, pts)
    assert np.array_equal(v1, v2)  # bit-identical
    assert np.all(np.isfinite(v1))
    assert np.all(v1 >= inst.optimum_value - 1e-9)
    # single-point path agrees with the batch path (BLAS blocking may move
    # the last ulps, so the comparison is relative)
    for i in range(0, 64, 16):
        assert evaluate(inst, pts[i]) == pytest.approx(v1[i], rel=1e-9, abs=1e-9)


def test_dimension_mismatch_is_contract_error():
    inst = make_instance("sphere", dimension=5, instance_seed=1)
    with pytest.raises(ContractViolation):
        evaluate(inst, np.zeros(4))
    with pytest.raises(ContractViolation):
        evaluate_many(inst, np.zeros((3, 4)))


def test_sphere_zero_shift_is_squared_distance():
    # Measured from the optimum, sphere is the squared distance to it.
    inst = make_instance("sphere", dimension=4, instance_seed=1)
    pt = inst.optimum_point + np.array([0.3, -0.4, 0.0, 0.0])  # distance 0.5
    assert evaluate(inst, pt) - inst.optimum_value == pytest.approx(0.25, abs=1e-12)


def test_sphere_translation_property():
    d = np.array([0.3, -1.2, 0.8])
    vals = []
    for seed in (1, 2, 3, 4):
        inst = make_instance("sphere", dimension=3, instance_seed=seed)
        vals.append(evaluate(inst, inst.optimum_point + d) - inst.optimum_value)
    assert max(vals) - min(vals) < 1e-9


def test_discus_closed_form_oracle():
    """Independent single-point formula evaluation for the discus family."""
    inst = make_instance("discus", dimension=3, instance_seed=42)
    pt = inst.optimum_point + np.array([1.0, 0.0, 0.0])
    # Recompute from the instance parameters, independently of _raw():
    z = inst.params["R"] @ (pt - inst.optimum_point)

    def osz_scalar(t):
        if t == 0.0:
            return 0.0
        c1, c2 = (10.0, 7.9) if t > 0 else (5.5, 3.1)
        x = np.log(abs(t))
        return np.sign(t) * np.exp(x + 0.049 * (np.sin(c1 * x) + np.sin(c2 * x)))

    z = np.array([osz_scalar(t) for t in z])
    expected = 1e6 * z[0] ** 2 + z[1] ** 2 + z[2] ** 2 + inst.optimum_value
    assert evaluate(inst, pt) == pytest.approx(expected, rel=1e-12)


def test_optimum_accessor_and_distinct_seeds():
    inst = make_instance("rastrigin_separable", dimension=5, instance_seed=9)
    again = make_instance("rastrigin_separable", dimension=5, instance_seed=9)
    assert np.array_equal(inst.optimum_point, again.optimum_point)
    assert inst.optimum_value == again.optimum_value
    assert evaluate(inst, inst.optimum_point) == pytest.approx(inst.optimum_value, abs=1e-9)
    # 100 seed pairs give distinct optima
    points = [
        make_instance("sphere", 5, instance_seed=s).optimum_point for s in range(100)
    ]
    for i in range(99):
        assert not np.array_equal(points[i], points[i + 1])


@pytest.mark.parametrize(
    "function_id",
    [
        "bueche_rastrigin",
        "step_ellipsoidal",
        "weierstrass",
        "schaffers_f7",
        "schwefel",
        "katsuura",
        "lunacek_bi_rastrigin",
        "gallagher_101_peaks",
    ],
)
def test_monotone_boundary_penalty(function_id):
    inst = make_instance(function_id, dimension=4, instance_seed=5)
    rng = np.random.default_rng(1)
    outside = rng.uniform(5.5, 9.0, size=(50, 4)) * rng.choice([-1, 1], size=(50, 4))
    vals = evaluate_many(inst, outside)
    assert np.all(vals >= inst.optimum_value - 1e-7)


class TestSuite:
    def test_split_sizes_and_disjoint(self):
        suite = make_suite(dimension=10, seed=7)
        assert len(suite.train_instances) == 8
        assert len(suite.test_instances) == 16
        train = {p.function_id for p in suite.train_instances}
        test = {p.function_id for p in suite.test_instances}
        assert not (train & test)
        assert train == set(TRAIN_FAMILIES)
        assert test == set(TEST_FAMILIES)

    def test_step_ellipsoidal_in_test_set(self):
        suite = make_suite(dimension=10, seed=123)
        names = [p.name for p in suite.test_instances]
        assert "Step Ellipsoidal" in names

    def test_determinism(self):
        a = make_suite(dimension=10, seed=7)
        b = make_suite(dimension=10, seed=7)
        assert a.manifest() == b.manifest()
        c = make_suite(dimension=10, seed=8)
        assert a.manifest() != c.manifest()

    def test_instances_per_family(self):
        suite = make_suite(dimension=5, seed=1, instances_per_family=2)
        assert len(suite.train_instances) == 16
        assert len(suite.test_instances) == 32

    def test_manifest_schema(self):
        suite = make_suite(dimension=5, seed=1)
        doc = suite.manifest()
        for row in doc["train"] + doc["test"]:
            assert set(row) == {
                "function_id",
                "dimension",
                "instance_seed",
                "optimum_value",
            }

    def test_suite_split_golden(self, golden_dir, regen_golden):
        suite = make_suite(dimension=10, seed=7)
        golden_check(
            golden_dir / "suite_manifest_d10_seed7.json",
            json.dumps(suite.manifest(), indent=2, sort_keys=True) + "\n",
            regen_golden,
        )


def test_rejects_bad_construction():
    with pytest.raises(ContractViolation):
        make_instance("sphere", dimension=1)
    with pytest.raises(ContractViolation):
        make_instance("not_a_family", dimension=5)
    with pytest.raises(ContractViolation):
        make_suite(dimension=1)


def test_mix64_is_stable():
    # Seeding scheme is part of the contract; pin a few values.
    assert problems.mix64(0, 0) == problems.mix64(0, 0)
    assert problems.mix64(1, 2) != problems.mix64(2, 1)
    assert problems.mix64(7, 3) < 2**64
