"""Property-based checks: totality of errors under fuzz and of every builtin,
purity, and conformance of the bundled discovered rewards."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rewardevo import envs, rsl

_VALID_SNIPPETS = [
    "return 0.0, {}",
    "x = ctx.a + 1.0\nreturn tanh(x), {}",
    "if ctx.a > 0:\n    y = 1.0\nelse:\n    y = -1.0\nreturn y, {}",
    's = 0.0\nfor i in range(3):\n    s = s + i\nreturn s, {"s": s}',
    "v = [1.0, 2.0]\nreturn mean(v) * ctx.a, {}",
]


@given(st.text(max_size=400))
@settings(max_examples=300, deadline=None)
def test_parse_never_crashes(source):
    try:
        rsl.parse(source)
    except rsl.RslParseError:
        pass


@given(
    st.sampled_from(_VALID_SNIPPETS),
    st.integers(min_value=0, max_value=len("return 0.0, {}")),
    st.text(max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_mutated_programs_never_crash(base, pos, junk):
    source = base[:pos] + junk + base[pos:]
    try:
        program = rsl.parse(source)
    except rsl.RslParseError:
        return
    try:
        rsl.evaluate(program, {"a": 1.5})
    except rsl.RslRuntimeError:
        pass


@given(
    st.sampled_from(_VALID_SNIPPETS),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
@settings(max_examples=200, deadline=None)
def test_evaluation_pure(base, a):
    program = rsl.parse(base)
    ctx = {"a": float(a)}
    try:
        first = rsl.evaluate(program, ctx)
    except rsl.RslRuntimeError as exc:
        with pytest.raises(type(exc)):
            rsl.evaluate(program, ctx)
        return
    second = rsl.evaluate(program, ctx)
    assert first.total == second.total
    assert first.components == second.components


@pytest.mark.parametrize(
    "task_id,lo,hi",
    [
        ("de-operator-selection", -1.0, 2.0),
        ("algorithm-selection", -1.0, 1.5),
        ("pso-parameter-control", -1.0, 1.0),
    ],
)
def test_discovered_rewards_conform(task_id, lo, hi):
    """The bundled discovered rewards parse, validate against their schema,
    and stay within their stated clip range on randomized valid contexts."""
    program = envs.discovered_reward(task_id)
    schema = envs.get_schema(task_id)
    rsl.validate(program, schema.names())
    assert program.referenced_fields <= schema.names()
    rng = np.random.default_rng(7)
    for _ in range(250):
        ctx = envs.random_context(task_id, rng)
        out = rsl.evaluate(program, ctx)
        assert lo <= out.total <= hi
        assert all(np.isfinite(v) for v in out.components.values())


def _arrays(shape):
    return st.one_of(
        hnp.arrays(np.float64, shape, elements=st.floats(width=64)),
        hnp.arrays(np.int64, shape, elements=st.integers(-(2**40), 2**40)),
        hnp.arrays(np.bool_, shape),
    )


# Values a context argument can hold: scalars of each kind (nan, inf and
# an int beyond float range included), empty, 1-D and 2-D arrays, a record,
# a string and None (a field that reads as absent).
_ARGUMENTS = st.one_of(
    st.booleans(),
    st.integers(-(10**400), 10**400) | st.integers(-3, 3),
    st.floats(),
    _arrays(st.sampled_from([(0,), (0, 2), (2, 0)])),
    _arrays(hnp.array_shapes(min_dims=1, max_dims=1, max_side=4)),
    _arrays(hnp.array_shapes(min_dims=2, max_dims=2, max_side=3)),
    st.dictionaries(st.text(max_size=2), st.floats(), max_size=2),
    st.text(max_size=3),
    st.none(),
)


@given(st.sampled_from(sorted(rsl.BUILTINS)), st.lists(_ARGUMENTS, max_size=3))
@settings(max_examples=1500, deadline=None)
def test_every_builtin_is_total(name, args):
    """A builtin call returns, or fails with a structured error of its own;
    never with a raw exception that only the evaluator's last-resort
    handler turns into an internal error."""
    fields = [f"a{k}" for k in range(len(args))]
    call = f"{name}({', '.join(f'ctx.{f}' for f in fields)})"
    program = rsl.parse(f"y = {call}\nreturn 0.0, {{}}")
    try:
        rsl.evaluate(program, dict(zip(fields, args)))
    except rsl.RslRuntimeError as exc:
        assert not str(exc).startswith("internal evaluation error"), (call, args, exc)
