"""Golden outcomes of the evaluator: values bit for bit, errors by class and
message.

``golden/rsl_outcomes.json`` holds, for every bundled reward, a sha256 over
its outcomes on 200 seeded ``random_context`` draws, and the full outcome of
each edge program below. The edge programs sit where an evaluator is most
likely to drift: nesting deeper than Python's own compiler accepts, literals
and keys that are not valid Python, signed zeros, integer overflow and the
exact step budget. One more edge per row of ``BUILTIN_CALLS`` pins each
builtin's values and each of its error messages. Regenerate with
``REWARDEVO_REGEN_GOLDEN=1`` only when an outcome is meant to change.
"""

import hashlib
import itertools
import json

import numpy as np

from conftest import golden_check
from rewardevo import envs, rsl

DRAWS = 200


def outcome(program, ctx, limits=rsl.DEFAULT_LIMITS) -> dict:
    try:
        out = rsl.evaluate(program, ctx, limits)
    except rsl.RslRuntimeError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {
        "total": float.hex(out.total),
        "components": {k: float.hex(v) for k, v in out.components.items()},
    }


def _nest(header: str, depth: int, body: str) -> list[str]:
    lines = ["    " * k + header.format(k=k) for k in range(depth)]
    return lines + ["    " * depth + body]


def _for_nest(depth: int) -> str:
    lines = ["s = 0.0", *_nest("for i{k} in range(1):", depth, "s = s + 1.0")]
    return "\n".join(lines + ['return s, {"s": s}'])


def _if_nest(depth: int) -> str:
    lines = ["s = 0.0", *_nest("if s < 1.0:", depth, "s = s + 1.0")]
    return "\n".join(lines + ["return s, {}"])


def _paren_nest(depth: int) -> str:
    return "return " + "(1.0 + " * depth + "ctx.a" + ")" * depth + ", {}"


SUM_300 = "return " + " + ".join(f"{k}.5" for k in range(300)) + ", {}"

KEYS = r"""r = {"q\"uote": 1.0, 'it\'s': 2.0, "back\\slash": 3.0, "a\nb": 4.0}
r["__import__('os')"] = 5.0
r["\"); import os; (\""] = 6.0
return r["a\nb"] + r['it\'s'], r"""

SIGNED_ZEROS = """z = 0.0
n = -0.0
return z, {
    "min_zn": min(z, n), "min_nz": min(n, z), "max_zn": max(z, n),
    "max_nz": max(n, z), "min3": min(z, n, z), "min_vec": min([z, n]),
    "clip_n": clip(n, z, 1.0), "clip_lo_n": clip(z, n, 1.0),
    "clip_hi": clip(n, -1.0, n), "neg": -z, "sub": n - z, "mul": n * 1.0,
    "abs": abs(n), "tanh": tanh(n), "sign": sign(n), "mod": n % 1.0,
}"""

INT_OVERFLOW = """x = 1
for i in range(100):
    x = x * 1000
return 0.0, {}"""

INT_AT_CAP = """x = 1
for i in range(25):
    x = x * 1000
y = x - (0 - x) + 7 % 3
return y / x, {"big": x, "div": x / 3, "cmp": x > 1.5}"""

BUDGET_PROGRAM = """s = 0.0
for i in range(4):
    if i % 2 == 0 and ctx.get("w", 1.0) > 0.0:
        s = s + ctx.get("w", 1.0)
    elif i == 1 or s > 100.0:
        s = s - 0.5
    else:
        s = s * 2.0
r = {"s": s}
r["t"] = s + 1
return s, r"""

MIXED = """v = ctx.v
m = [[1.0, 2.0], [3.0, 4.0]]
b = True
a = [
    v[1.0], v[-1], m[1][0], len(m), b + b, -b, b * 2.5, 3 / 2, 2 ** 3,
    2 ** -1, 7 % 3, -7 % 3, 7.5 % -2.0, 2 ** 0.5, 1 == 1.0, 0.1 + 0.2,
    not 0.0, 1.0 and 0.0, 0 or 2, ctx.get("none", 4.0), ctx.get("a", 9.0),
    sum(v > 1.5), max(v), min(v), mean(v), norm(v), dot(v, v), ptp(v),
    std(m), quantile(v, 0.25), median(v), sum(roll(v, 1) * v),
    sum(norm_axis(m, 1)), sum(mean_axis(m, 0)), argsort(v)[0], sort(v)[2],
    log(2.0), log1p(1.0), exp(1.0), sqrt(2.0), tanh(1.0), abs(-3),
    corr(v, v * 2.0), clip(5, 0, 3), min(2, 1), max(1, 2.0),
]
s = 0.0
for i in range(len(a)):
    s = s + a[i]
return s, {"s": s, "n": len(a)}"""

HUGE = "1" + "0" * 400  # an int literal beyond float range

SPECIAL_CONTEXT = {
    "nan": float("nan"),
    "inf": float("inf"),
    "iv": np.array([1, 2, 3]),
    "bv": np.array([True, False, True]),
    "fv": np.array([1.0, 2.0, 3.0]),
}

SPECIAL = """c = {"nan_lt": ctx.nan < 1.0, "nan_ne": ctx.nan != ctx.nan, "inf_gt": ctx.inf > 1e308}
c["iv"] = sum(ctx.iv - ctx.iv * 2)
c["iv_f"] = sum(ctx.iv * ctx.fv)
c["bv"] = sum(ctx.bv + ctx.bv)
c["iv_idx"] = ctx.iv[1.0]
c["norm_iv"] = norm(ctx.iv)
return c["iv"], c"""

ERRORS = {
    "huge_int_add": f"return {HUGE} + 1.0, {{}}",
    "huge_int_div": f"return {HUGE} / 3, {{}}",
    "huge_int_neg": f"return -{HUGE}, {{}}",
    "nan_min": "return min(ctx.nan, 1.0), {}",
    "nan_min_right": "return min(1.0, ctx.nan), {}",
    "nan_clip": "return clip(ctx.nan, 0.0, 1.0), {}",
    "nan_tanh": "return tanh(ctx.nan), {}",
    "nan_neg": "return -ctx.nan, {}",
    "inf_sub": "return ctx.inf - ctx.inf, {}",
    "inf_norm": "return norm([1e200, 1e200]), {}",
    "bool_array_sub": "return sum(ctx.bv - ctx.bv), {}",
    "div_zero": "return 1.0 / 0.0, {}",
    "div_zero_int": "return 1 / 0, {}",
    "mod_zero": "return 5.0 % 0.0, {}",
    "overflow": "return 1e308 * 10.0, {}",
    "pow_domain": "return (-8.0) ** (1.0 / 3.0), {}",
    "vec_truth": "return [1.0] and 1.0, {}",
    "not_vec": "return not [1.0], {}",
    "missing": "return ctx.missing, {}",
    "range_neg": "for i in range(-1):\n    x = 1.0\nreturn 0.0, {}",
    "range_frac": "for i in range(1.5):\n    x = 1.0\nreturn 0.0, {}",
    "index_range": "v = [1.0]\nreturn v[1], {}",
    "index_frac": "v = [1.0]\nreturn v[0.5], {}",
    "index_scalar": "return 1.0[0], {}",
    "record_int_key": 'r = {"a": 1.0}\nreturn r[0], {}',
    "record_no_key": 'r = {"a": 1.0}\nreturn r["b"], {}',
    "string_arith": 'return "a" + 1.0, {}',
    "string_cmp": 'return 1.0 < "a", {}',
    "record_vec_value": 'return 0.0, {"v": [1.0]}',
    "setitem_vec": 'r = {}\nr["v"] = [1.0]\nreturn 0.0, r',
    "setitem_not_record": 'r = 1.0\nr["a"] = 1.0\nreturn 0.0, {}',
    "setitem_undefined": 'r["a"] = 1.0\nreturn 0.0, {}',
    "setitem_int_key": "r = {}\nr[1] = 1.0\nreturn 0.0, r",
    "total_vec": "return [1.0], {}",
    "components_scalar": "return 0.0, 1.0",
    "ragged": "return [[1.0], [1.0, 2.0]], {}",
    "vec_of_records": "return [{}], {}",
    "shape": "return [1.0, 2.0] + [1.0, 2.0, 3.0], {}",
    "clip_bounds": "return clip(1.0, 2.0, 1.0), {}",
    "builtin_arity": "return tanh(1.0, 2.0), {}",
    "inf_total": "return ctx.a * 1e999, {}",
    "undefined": "return y + 1.0, {}",
    "undefined_late": "if ctx.a > 100.0:\n    y = 1.0\nreturn y, {}",
    "undefined_before_missing": "return y + ctx.missing, {}",
}

V3, M23 = (3,), (2, 3)  # result shapes of the builtin calls below

# One call per row: each builtin on the scalar, vector and matrix inputs it
# accepts, and each of its error branches (argument count, kind, empty
# collection, axis, bounds, an int beyond float range).
BUILTIN_CALLS = [
    *(
        call
        for fn in ("abs", "tanh", "exp", "log", "log1p", "sqrt", "sign")
        for call in (
            f"{fn}(ctx.x)", f"{fn}(ctx.p)", f"{fn}(ctx.i)", f"{fn}(ctx.b)",
            f"{fn}(ctx.z)", f"{fn}(ctx.nz)", f"{fn}(1.5)", (f"{fn}(ctx.v)", V3),
            (f"{fn}(ctx.m)", M23), (f"{fn}(ctx.iv)", V3), (f"{fn}(ctx.bv)", V3),
            f"{fn}([])", f"{fn}()",
            f"{fn}(ctx.x, ctx.x)", f"{fn}(ctx.r)", f'{fn}("s")', f"{fn}({HUGE})",
            f"{fn}(ctx.nan)", f"{fn}(ctx.inf)", f"{fn}(-1.0)", f"{fn}(1000.0)",
        )
    ),
    *(
        call
        for fn in ("min", "max")
        for call in (
            f"{fn}()", f"{fn}(ctx.x)", f"{fn}(ctx.i)", f"{fn}(ctx.b)", f"{fn}(ctx.v)",
            f"{fn}(ctx.m)", f"{fn}(ctx.iv)", f"{fn}([])", f"{fn}(ctx.r)", f'{fn}("s")',
            f"{fn}({HUGE})", f"{fn}(ctx.x, ctx.i)", f"{fn}(ctx.i, ctx.b)",
            f"{fn}(ctx.x, ctx.p, ctx.z)", (f"{fn}(ctx.v, 0.0)", V3),
            (f"{fn}(ctx.v, ctx.w)", V3), (f"{fn}(ctx.m, ctx.v)", M23),
            (f"{fn}(0.0, ctx.v, ctx.w)", V3), f"{fn}(ctx.v, [1.0, 2.0])",
            f'{fn}(ctx.x, "s")', f"{fn}(ctx.r, 1.0)", f"{fn}({HUGE}, 1.0)",
            f"{fn}(ctx.nan, ctx.nan)",
        )
    ),
    *(
        call
        for fn in ("sum", "mean", "std", "median", "ptp")
        for call in (
            f"{fn}(ctx.x)", f"{fn}(ctx.i)", f"{fn}(ctx.b)", f"{fn}(ctx.v)",
            f"{fn}(ctx.m)", f"{fn}(ctx.iv)", f"{fn}(ctx.im)", f"{fn}(ctx.bv)",
            f"{fn}([])", f"{fn}(ctx.em)", f"{fn}(ctx.r)", f'{fn}("s")', f"{fn}()",
            f"{fn}(ctx.v, ctx.v)", f"{fn}({HUGE})", f"{fn}(ctx.hv)",
        )
    ),
    "quantile(ctx.v, 0.25)", "quantile(ctx.v, 0)", "quantile(ctx.v, 1)",
    "quantile(ctx.v, ctx.b)", "quantile(ctx.m, 0.5)", "quantile(ctx.iv, 0.5)",
    "quantile(ctx.bv, 0.5)",
    "quantile(ctx.v, 1.5)", "quantile(ctx.v, -0.1)", "quantile(ctx.v, ctx.nan)",
    "quantile(ctx.v, ctx.v)", "quantile(ctx.v, ctx.r)", "quantile([], 0.5)",
    "quantile(ctx.x, 0.5)", "quantile(ctx.r, 0.5)", "quantile(ctx.v)",
    "quantile(ctx.v, 0.5, 0.5)", f"quantile(ctx.v, {HUGE})",
    "clip(ctx.x, -1.0, 1.0)", "clip(ctx.i, 0, 2)", "clip(ctx.b, 0, 1)",
    "clip(ctx.x, ctx.z, ctx.z)", ("clip(ctx.v, -1.0, 1.0)", V3),
    ("clip(ctx.m, 0, 1)", M23), ("clip(ctx.iv, ctx.b, 2)", V3),
    "clip(ctx.x, 1.0, -1.0)", "clip(ctx.v, ctx.v, 1.0)", "clip(ctx.x, 0.0, ctx.v)",
    'clip(ctx.x, "a", 1.0)', "clip(ctx.r, 0.0, 1.0)", 'clip("s", 0.0, 1.0)',
    "clip([], 0.0, 1.0)", "clip(ctx.x, 0.0)", "clip(ctx.x, 0.0, 1.0, 2.0)",
    f"clip({HUGE}, 0.0, 1.0)", f"clip(ctx.x, 0.0, {HUGE})",
    "clip(ctx.nan, 0.0, 1.0)", "clip(ctx.x, ctx.nan, 1.0)",
    "norm(ctx.x)", "norm(ctx.i)", "norm(ctx.b)", "norm(ctx.v)", "norm(ctx.m)",
    "norm(ctx.iv)", "norm([])", "norm(ctx.r)", 'norm("s")', "norm()",
    f"norm({HUGE})", "norm(ctx.hv)", ("norm(ctx.m, 0)", V3), ("norm(ctx.m, 1)", (2,)),
    "norm(ctx.v, 0)", "norm(ctx.m, 2)", "norm(ctx.m, 0.5)", "norm(ctx.em, 0)",
    "norm(ctx.m, 0, 1)",
    *(
        call
        for fn in ("mean_axis", "std_axis", "min_axis", "max_axis", "norm_axis")
        for call in (
            (f"{fn}(ctx.m, 0)", V3), (f"{fn}(ctx.m, 1)", (2,)),
            (f"{fn}(ctx.m, 1.0)", (2,)), (f"{fn}(ctx.m, ctx.b)", (2,)),
            (f"{fn}(ctx.im, 0)", V3), (f"{fn}(ctx.im, 1)", (2,)),
            f"{fn}(ctx.m, 2)", f"{fn}(ctx.m, -1)", f"{fn}(ctx.m, 0.5)",
            f"{fn}(ctx.m, ctx.v)", f"{fn}(ctx.m, {HUGE})", f"{fn}(ctx.v, 0)",
            f"{fn}(ctx.x, 0)", f"{fn}(ctx.r, 0)", f"{fn}(ctx.em, 0)",
            f"{fn}(ctx.m)", f"{fn}(ctx.m, 0, 1)",
        )
    ),
    *(
        call
        for fn in ("argsort", "sort")
        for call in (
            (f"{fn}(ctx.v)", V3), (f"{fn}(ctx.iv)", V3), (f"{fn}([1.0, 1.0, 0.5])", V3),
            f"{fn}(ctx.m)", f"{fn}([])", f"{fn}(ctx.x)", f"{fn}(ctx.r)", f'{fn}("s")',
            f"{fn}()", f"{fn}(ctx.v, ctx.v)",
        )
    ),
    "len(ctx.v)", "len(ctx.m)", "len(ctx.r)", "len([])", "len(ctx.em)", "len(ctx.x)",
    "len(ctx.b)", 'len("s")', "len()", "len(ctx.v, ctx.v)",
    "dot(ctx.v, ctx.w)", "dot(ctx.iv, ctx.v)", ("dot(ctx.m, ctx.v)", (2,)),
    ("dot(ctx.m, ctx.mt)", (2, 2)), "dot([], [])", "dot(ctx.v, ctx.m)",
    "dot(ctx.x, ctx.v)", "dot(ctx.v, ctx.x)", "dot(ctx.r, ctx.v)", "dot(ctx.v)",
    "dot(ctx.v, ctx.v, ctx.v)", "dot(ctx.hv, ctx.hv)",
    "corr(ctx.v, ctx.w)", "corr(ctx.v, ctx.v)", "corr(ctx.iv, ctx.v)",
    "corr([1.0], [2.0])", "corr([], [])", "corr(ctx.v, [1.0, 1.0, 1.0])",
    "corr(ctx.hv, ctx.v)", "corr(ctx.m, ctx.v)", "corr(ctx.v, ctx.m)",
    "corr(ctx.v, ctx.x)", "corr(ctx.x, ctx.v)", "corr(ctx.v, [1.0, 2.0])",
    "corr(ctx.v)", "corr(ctx.v, ctx.v, ctx.v)",
    ("roll(ctx.v, 1)", V3), ("roll(ctx.v, -1.0)", V3), ("roll(ctx.v, ctx.b)", V3),
    ("roll(ctx.v, 4)", V3), ("roll(ctx.m, 1)", M23), (f"roll(ctx.v, {HUGE})", V3),
    "roll(ctx.v, 0.5)", "roll(ctx.v, ctx.v)", "roll(ctx.v, ctx.r)", "roll(ctx.x, 1)",
    "roll([], 1)", "roll(ctx.r, 1)", "roll(ctx.v)", "roll(ctx.v, 1, 1)",
]

BUILTIN_CONTEXT = {
    "x": -1.25, "p": 0.75, "i": 3, "b": True, "z": 0.0, "nz": -0.0,
    "nan": float("nan"), "inf": float("inf"),
    "v": np.array([0.5, -2.0, 1.5]), "w": np.array([1.0, 4.0, -3.0]),
    "iv": np.array([2, -1, 3]), "bv": np.array([True, False, True]),
    "hv": np.array([1e200, -1e200, 0.0]),
    "m": np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]]),
    "mt": np.array([[1.0, 0.0], [2.0, -1.0], [0.5, 4.0]]),
    "im": np.array([[1, 2, 3], [4, 5, 7]]), "em": np.zeros((0, 3)),
    "r": {"a": 1.0},
}


def _builtin_program(call: str, shape: tuple = ()) -> str:
    """``y = <call>``, read out element by element into the components."""
    cells = ["".join(f"[{i}]" for i in at) for at in itertools.product(*map(range, shape))]
    reads = ", ".join(f'"y{c}": y{c}' for c in cells)
    return f"y = {call}\nreturn 0.0, {{{reads}}}"


EDGES = {
    "for_nest_60": (_for_nest(60), {}),
    "if_nest_75": (_if_nest(75), {}),
    "paren_nest_75": (_paren_nest(75), {"a": 0.25}),
    "neg_chain_300": ("return " + "-" * 300 + "ctx.a, {}", {"a": 0.25}),
    "sum_300": (SUM_300, {}),
    "literal_1e999": ('x = 1e999\nreturn clip(x, 0.0, 1.0), {"lt": -1.0 < x}', {}),
    "literal_1e999_neg": ("x = 1e999\nreturn -x < 0.0, {}", {}),
    "name_superscript": ("x² = 1.0\nreturn x² * 3.0, {\"x²\": x²}", {}),
    "record_keys": (KEYS, {}),
    "signed_zeros": (SIGNED_ZEROS, {}),
    "int_overflow": (INT_OVERFLOW, {}),
    "int_at_cap": (INT_AT_CAP, {}),
    "mixed": (MIXED, {"v": np.array([1.0, 2.0, 0.5]), "a": 1.0, "none": None}),
    "huge_int": (f"x = {HUGE}\nreturn 0.0, {{\"lt\": x > 1.5, \"mul\": x * 0}}", {}),
    "special_values": (SPECIAL, SPECIAL_CONTEXT),
    **{f"error_{k}": (src, {"a": 1.0, **SPECIAL_CONTEXT}) for k, src in ERRORS.items()},
    **{
        f"builtin {call.replace(HUGE, '<10**400>')}": (
            _builtin_program(call, *shape), BUILTIN_CONTEXT
        )
        for call, *shape in (c if isinstance(c, tuple) else (c,) for c in BUILTIN_CALLS)
    },
}

# Steps a completing run of each program uses: it must complete at exactly
# this budget and run out one step short of it.
EXACT_BUDGETS = {
    "minimal": ("return 1.0, {}", 2),
    "control_flow": (BUDGET_PROGRAM, 83),
}


def _digest(rows: list) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def collect_outcomes() -> dict:
    rewards = {}
    for task in envs.TASK_IDS:
        for kind, load in (
            ("anchor", envs.handcrafted_reward),
            ("discovered", envs.discovered_reward),
        ):
            program = load(task)
            rng = np.random.default_rng(2024)
            rows = [
                outcome(program, envs.random_context(task, rng)) for _ in range(DRAWS)
            ]
            rewards[f"{task}/{kind}"] = _digest(rows)
    edges = {
        name: outcome(rsl.parse(src), ctx) for name, (src, ctx) in EDGES.items()
    }
    for name, (src, steps) in EXACT_BUDGETS.items():
        program = rsl.parse(src)
        for budget in (steps, steps - 1):
            limits = rsl.EvalLimits(max_interpreter_steps=budget)
            edges[f"budget_{name}_{budget}"] = outcome(program, {}, limits)
    return {"rewards": rewards, "edges": edges}


def test_outcomes_match_golden(golden_dir, regen_golden):
    golden_check(
        golden_dir / "rsl_outcomes.json",
        json.dumps(collect_outcomes(), indent=1, sort_keys=True) + "\n",
        regen_golden,
    )
