import math
import threading
import time

import numpy as np
import pytest

from conftest import golden_check
from rewardevo import rsl
from rewardevo.rsl import (
    EvalLimits,
    RslBudgetError,
    RslMissingKeyError,
    RslNumericError,
    RslParseError,
    RslTypeError,
    RslValidationError,
    RslValueError,
)


def run(src, ctx=None, limits=rsl.DEFAULT_LIMITS):
    return rsl.evaluate(rsl.parse(src), ctx or {}, limits)


class TestParse:
    def test_minimal_program(self):
        p = rsl.parse("return 0.0, {}")
        assert p.referenced_fields == frozenset()

    def test_single_field_read(self):
        p = rsl.parse("return tanh(ctx.gbest_improve), {}")
        assert p.referenced_fields == {"gbest_improve"}

    def test_ctx_get_collects_field(self):
        p = rsl.parse('return ctx.get("q_span", 0.0) + ctx.FEs, {}')
        assert p.referenced_fields == {"q_span", "FEs"}

    def test_header_task_hint(self):
        p = rsl.parse("#! rsl v1 task=algorithm-selection\nreturn 0.0, {}")
        assert p.task_hint == "algorithm-selection"

    def test_syntax_error_has_position(self):
        with pytest.raises(RslParseError) as err:
            rsl.parse("x = (1.0\nreturn x, {}")
        assert err.value.line >= 1

    @pytest.mark.parametrize(
        "src",
        [
            "def f():\n    y = 1.0\nreturn 0.0, {}",
            "while True:\n    y = 1.0\nreturn 0.0, {}",
            "import os\nreturn 0.0, {}",
            "x = lambda: 1\nreturn 0.0, {}",
        ],
    )
    def test_rejects_foreign_constructs(self, src):
        with pytest.raises(RslParseError):
            rsl.parse(src)

    def test_rejects_unknown_builtin(self):
        with pytest.raises(RslParseError) as err:
            rsl.parse("return zeros(3), {}")
        assert "unknown builtin" in str(err.value)

    def test_rejects_missing_return(self):
        with pytest.raises(RslParseError):
            rsl.parse("x = 1.0")

    def test_rejects_code_after_return(self):
        with pytest.raises(RslParseError):
            rsl.parse("return 0.0, {}\nx = 1.0")

    def test_rejects_return_in_block(self):
        with pytest.raises(RslParseError):
            rsl.parse("if 1 > 0:\n    return 0.0, {}\nreturn 1.0, {}")

    def test_rejects_comparison_chain(self):
        with pytest.raises(RslParseError):
            rsl.parse("return 1.0 if 0 < 1 < 2 else 0.0, {}")

    def test_rejects_reserved_assignment(self):
        with pytest.raises(RslParseError):
            rsl.parse("ctx = 1.0\nreturn 0.0, {}")
        with pytest.raises(RslParseError):
            rsl.parse("mean = 1.0\nreturn 0.0, {}")

    def test_rejects_oversized_source(self):
        src = "x = 1.0\n" * 10_000 + "return x, {}"
        with pytest.raises(RslParseError):
            rsl.parse(src)

    def test_rejects_deep_nesting(self):
        src = "return " + "(" * 500 + "1.0" + ")" * 500 + ", {}"
        with pytest.raises(RslParseError):
            rsl.parse(src)

    def test_rejects_deep_block_nesting(self):
        lines = ["    " * k + "if 1 > 0:" for k in range(100)]
        src = "\n".join(lines + ["    " * 100 + "x = 1.0", "return 0.0, {}"])
        with pytest.raises(RslParseError, match="nesting too deep"):
            rsl.parse(src)

    def test_bracket_continuation(self):
        p = rsl.parse("x = (1.0 +\n     2.0)\nreturn x, {}")
        assert rsl.evaluate(p, {}).total == 3.0


class TestHash:
    def test_whitespace_and_comment_invariance(self):
        a = rsl.parse("x = 1.0\nreturn x, {}")
        b = rsl.parse("# different text\nx   =   1.0\n\n\nreturn x,{}")
        assert a.content_hash == b.content_hash

    def test_distinct_programs_distinct_digests(self):
        a = rsl.parse("return 1.0, {}")
        b = rsl.parse("return 2.0, {}")
        assert a.content_hash != b.content_hash

    def test_digest_stable_across_processes(self, golden_dir, regen_golden):
        src = 'v = [1.0, 2.0, 3.0]\nreturn mean(v) * ctx.progress, {"m": 1.0}'
        golden_check(
            golden_dir / "canonical_hash.txt",
            rsl.parse(src).content_hash + "\n",
            regen_golden,
        )


class TestEvaluate:
    def test_clip_forced_total(self):
        assert run("return clip(tanh(5.0), -1.0, 0.5), {}").total == 0.5

    def test_mean_and_components(self):
        out = run('return mean([1.0, 2.0, 3.0]), {"m": 2.0}')
        assert out.total == 2.0
        assert out.components == {"m": 2.0}

    def test_control_flow(self):
        src = """
total = 0.0
for i in range(5):
    if i % 2 == 0:
        total = total + i
    else:
        total = total - 0.5
return total, {"sum": total}
"""
        out = run(src)
        assert out.total == pytest.approx(6.0 - 1.0)

    def test_record_setitem(self):
        src = """
comps = {}
comps["a"] = 1.0
comps["b"] = 2
return comps["a"] + comps["b"], comps
"""
        out = run(src)
        assert out.total == 3.0
        assert out.components == {"a": 1.0, "b": 2.0}

    def test_vectors_and_matrices(self):
        src = """
m = [[1.0, 2.0], [3.0, 4.0]]
col = mean_axis(m, 0)
row = mean_axis(m, 1)
return col[0] + col[1] + row[0] + row[1], {}
"""
        assert run(src).total == pytest.approx(2.0 + 3.0 + 1.5 + 3.5)

    def test_builtins(self):
        cases = {
            "return abs(-2.5), {}": 2.5,
            "return min([3.0, 1.0, 2.0]), {}": 1.0,
            "return max(1.0, 2.0, 1.5), {}": 2.0,
            "return sum([1.0, 2.0]), {}": 3.0,
            "return std([1.0, 1.0]), {}": 0.0,
            "return median([1.0, 9.0, 2.0]), {}": 2.0,
            "return quantile([0.0, 1.0], 0.5), {}": 0.5,
            "return ptp([2.0, 5.0]), {}": 3.0,
            "return log1p(0.0), {}": 0.0,
            "return sqrt(9.0), {}": 3.0,
            "return sign(-3.0), {}": -1.0,
            "return norm([3.0, 4.0]), {}": 5.0,
            "return len([1.0, 2.0, 3.0]), {}": 3.0,
            "return dot([1.0, 2.0], [3.0, 4.0]), {}": 11.0,
            "return sort([3.0, 1.0])[0], {}": 1.0,
            "return argsort([3.0, 1.0])[0], {}": 1.0,
            "return roll([1.0, 2.0, 3.0], 1)[0], {}": 3.0,
        }
        for src, expected in cases.items():
            assert run(src).total == pytest.approx(expected), src

    def test_corr_pearson_and_zero_variance(self):
        src = "return corr([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]), {}"
        assert run(src).total == pytest.approx(1.0)
        src = "return corr([1.0, 1.0, 1.0], [2.0, 4.0, 6.0]), {}"
        assert run(src).total == 0.0

    def test_ctx_get_default_and_absent_null(self):
        p = rsl.parse('return ctx.get("maybe", 7.0), {}')
        assert rsl.evaluate(p, {}).total == 7.0
        assert rsl.evaluate(p, {"maybe": None}).total == 7.0
        assert rsl.evaluate(p, {"maybe": 1.5}).total == 1.5

    def test_missing_key_is_structured_error(self):
        with pytest.raises(RslMissingKeyError):
            run("return ctx.nope, {}")

    def test_array_comparison_yields_indicator(self):
        src = "return sum([1.0, 5.0, 3.0] > 2.0), {}"
        assert run(src).total == 2.0

    def test_numeric_guards(self):
        for src in [
            "return 1.0 / 0.0, {}",
            "return log(-1.0), {}",
            "return exp(10000.0), {}",
            "return sqrt(-1.0), {}",
            "return (-2.0) ** 0.5, {}",
            "return 1e308 * 1e308, {}",
        ]:
            with pytest.raises(RslNumericError):
                run(src)

    @pytest.mark.parametrize(
        "call",
        [
            "max(BIG, 1)",
            "min(BIG, 1.0)",
            "max(BIG)",
            "clip(BIG, 0.0, 1.0)",
            "clip(0.5, 0.0, BIG)",
            "sum(BIG)",
            "mean(BIG)",
            "median(BIG)",
            "norm(BIG)",
            "quantile([1.0, 2.0], BIG)",
        ],
    )
    def test_int_beyond_float_range_is_numeric_error(self, call):
        # An integer literal too large for a float is a numeric error named
        # after the builtin, as tanh() reports it.
        big = "1" + "0" * 400
        name = call.split("(")[0]
        with pytest.raises(RslNumericError, match=rf"^{name}\(\): .*too large"):
            run(f"return {call.replace('BIG', big)}, {{}}")

    def test_type_errors(self):
        with pytest.raises(RslTypeError):
            run("return [1.0, 2.0] and 1.0, {}")
        with pytest.raises(RslTypeError):
            run('x = {"a": 1.0}\nreturn x + 1.0, {}')
        with pytest.raises(RslTypeError):
            run('return [1.0, [2.0, 3.0]], {}')

    def test_value_errors(self):
        with pytest.raises(RslValueError):
            run("v = [1.0, 2.0]\nreturn v[5], {}")
        with pytest.raises(RslValueError):
            run("return quantile([1.0], 2.0), {}")

    def test_record_values_must_be_scalars(self):
        with pytest.raises(RslTypeError):
            run('return 0.0, {"v": [1.0, 2.0]}')

    def test_total_must_be_scalar(self):
        with pytest.raises(RslTypeError):
            run("return [1.0], {}")

    def test_loop_count_must_be_integer(self):
        with pytest.raises(RslTypeError):
            run("s = 0.0\nfor i in range(1.5):\n    s = s + i\nreturn s, {}")

    def test_integral_float_loop_count_allowed(self):
        assert run("s = 0.0\nfor i in range(4.0 / 2):\n    s = s + 1.0\nreturn s, {}").total == 2.0

    def test_bool_array_math_is_float64(self):
        # numpy computes a bool array in float16; the builtins compute it as
        # the float64 array of its 0s and 1s.
        ctx = {"bv": np.array([True, False])}
        assert run("return exp(ctx.bv)[0], {}", ctx).total == math.e
        assert run("return tanh(ctx.bv)[0], {}", ctx).total == math.tanh(1.0)
        assert run("return log1p(ctx.bv)[0], {}", ctx).total == math.log1p(1.0)


class TestLimits:
    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            EvalLimits(max_interpreter_steps=0)

    def test_step_budget_exceeded(self):
        src = "s = 0.0\nfor i in range(1000000):\n    s = s + 1.0\nreturn s, {}"
        with pytest.raises(RslBudgetError):
            run(src, limits=EvalLimits(max_interpreter_steps=10_000))

    def test_hostile_triple_loop_terminates_fast(self):
        hostile = """
n = 100000
acc = 0.0
for i in range(n):
    for j in range(n):
        for k in range(n):
            acc = acc + 1.0
return acc, {}
"""
        program = rsl.parse(hostile)
        start = time.perf_counter()
        with pytest.raises(RslBudgetError):
            rsl.evaluate(program, {})
        assert time.perf_counter() - start < 1.0

    def test_collection_length_cap(self):
        with pytest.raises(RslValueError):
            run(
                "return sum([1.0, 2.0, 3.0]), {}",
                limits=EvalLimits(max_collection_length=2),
            )


def _deepest(make, start: int) -> tuple[int, str]:
    """The most deeply nested program of a family that still parses here."""
    n = start
    while True:
        try:
            rsl.parse(make(n + 1))
        except RslParseError:
            return n, make(n)
        n += 1


class TestCompile:
    def test_generated_source_holds_no_program_text(self):
        src = """
zeta_name = ctx.omega_field + 123.456
x² = ctx.get("psi_field", 7.25)
rec = {"kappa_key": zeta_name, "q\\"uote": x²}
rec["__import__('os')"] = 9.5
if zeta_name > 31.5 and x² < 1e999:
    rec["lambda_key"] = 86.75
return zeta_name, rec
"""
        program = rsl.parse(src)
        compiled = program.compiled()
        for text in ["zeta", "omega", "psi", "kappa", "lambda", "import", "uote",
                     "x²", "123", "456", "7.25", "31.5", "9.5", "86", "1e999", "inf"]:
            assert text not in compiled.source, text
        assert compiled.entry.__globals__["__builtins__"] == {}
        out = rsl.evaluate(program, {"omega_field": 1.0})
        assert out.total == 124.456 and out.components["lambda_key"] == 86.75

    def test_generated_code_cannot_reach_builtins(self):
        compiled = rsl.parse("return 0.0, {}").compiled()
        with pytest.raises(NameError):
            exec("open", compiled.entry.__globals__)

    @pytest.mark.parametrize(
        "make,start,total",
        [
            (lambda n: "s = 0.0\n" + "\n".join(
                "    " * k + "if s < 1.0:" for k in range(n)
            ) + "\n" + "    " * n + "s = s + 1.0\nreturn s, {}", 40, lambda n: 1.0),
            (lambda n: "s = 0.0\n" + "\n".join(
                "    " * k + f"for i{k} in range(1):" for k in range(n)
            ) + "\n" + "    " * n + "s = s + 1.0\nreturn s, {}", 40, lambda n: 1.0),
            (lambda n: "return " + "-" * n + "1.0, {}", 200, lambda n: (-1.0) ** n),
            (lambda n: "return " + " or ".join(["0.0"] * n) + ", {}", 200, lambda n: 0.0),
            (lambda n: "return " + "(1.0 + " * n + "1.0" + ")" * n + ", {}", 40,
             lambda n: n + 1.0),
        ],
        ids=["if", "for", "negation", "or-chain", "parentheses"],
    )
    def test_deepest_parsable_program_compiles_and_runs(self, make, start, total):
        n, src = _deepest(make, start)
        assert rsl.evaluate(rsl.parse(src), {}).total == total(n)

    def test_completing_program_uses_the_same_steps_at_any_budget(self):
        src = "s = 0.0\nfor i in range(50):\n    s = s + ctx.get(\"w\", 1.0)\nreturn s, {}"
        program = rsl.parse(src)
        steps = 2 + 2 + 50 * 6 + 1 + 1  # assign, for head, iterations, return
        assert rsl.evaluate(program, {}, EvalLimits(max_interpreter_steps=steps)).total == 50.0
        with pytest.raises(RslBudgetError):
            rsl.evaluate(program, {}, EvalLimits(max_interpreter_steps=steps - 1))


class TestPurity:
    def test_referential_transparency(self):
        src = """
v = ctx.costs
s = std(v) + mean(v) * ctx.progress
return tanh(s), {"s": s}
"""
        program = rsl.parse(src)
        ctx = {"costs": np.array([1.0, 2.0, 5.0]), "progress": 0.25}
        a = rsl.evaluate(program, ctx)
        b = rsl.evaluate(program, ctx)
        assert a.total == b.total and a.components == b.components

    def test_context_arrays_not_mutated(self):
        src = "v = sort(ctx.costs)\nreturn v[0], {}"
        ctx = {"costs": np.array([3.0, 1.0, 2.0])}
        rsl.evaluate(rsl.parse(src), ctx)
        assert list(ctx["costs"]) == [3.0, 1.0, 2.0]

    def test_thread_safety(self):
        program = rsl.parse(
            "s = 0.0\nfor i in range(100):\n    s = s + ctx.x\nreturn s, {}"
        )
        results = {}

        def worker(tag, x):
            acc = [rsl.evaluate(program, {"x": x}).total for _ in range(50)]
            results[tag] = acc

        threads = [
            threading.Thread(target=worker, args=(t, float(t + 1))) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tag, acc in results.items():
            assert all(v == (tag + 1) * 100.0 for v in acc)


class TestValidate:
    def test_ok_within_schema(self):
        p = rsl.parse("return ctx.gbest_improve, {}")
        rsl.validate(p, {"gbest_improve", "FEs"})

    def test_unknown_field_listed(self):
        p = rsl.parse("return ctx.gbest_improve + ctx.nonexistent_field, {}")
        with pytest.raises(RslValidationError) as err:
            rsl.validate(p, {"gbest_improve"})
        assert err.value.unknown_fields == frozenset({"nonexistent_field"})

    def test_schema_errors_nonraising(self):
        p = rsl.parse("return ctx.a + ctx.b, {}")
        assert rsl.schema_errors(p, {"a"}) == {"b"}


class TestRewardFiles:
    def test_roundtrip_with_sidecar(self, tmp_path):
        path = tmp_path / "r.rsl"
        rsl.write_reward_file(
            path, "return 0.25, {}", "de-operator-selection", thought="t", fitness=0.25
        )
        program, sidecar = rsl.read_reward_file(path)
        assert program.task_hint == "de-operator-selection"
        assert sidecar["thought"] == "t"
        assert sidecar["fitness"] == 0.25
        assert sidecar["content_hash"] == program.content_hash

    def test_header_normalized_not_duplicated(self, tmp_path):
        path = tmp_path / "r.rsl"
        rsl.write_reward_file(
            path,
            "#! rsl v1 task=old-task\nreturn 0.0, {}",
            "pso-parameter-control",
        )
        text = path.read_text()
        assert text.count("#!") == 1
        assert "task=pso-parameter-control" in text
