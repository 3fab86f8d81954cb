"""Bounded evaluator: an AST compiles once into Python source, then runs per
context.

Each builtin is declared once, in ``_BUILTINS``: the argument counts it
accepts, the wording of its arity error, its checked implementation and, for
some, an inline path for exact float operands. The parser admits exactly the
table's names (``BUILTINS``); generated code calls an entry's slow path
directly, with no dispatch on the name at run time.

The generator emits one function per rsl block (per eight statements of a
long block, and per ``elif`` chain, short-circuit operand and ``ctx.get``
default), with expressions as three-address temporaries, so nesting never
reaches Python's own limits and each function compiles in little memory.
Exact ``int``/``float`` operands take inlined fast paths; every other case
calls the checked helpers below, which own the error messages.

Safety properties enforced here:
  - the step budget counts one step per AST node visit and per loop
    iteration, as a tree walker would; each statement charges its nodes
    from a static count when it starts (a conditionally evaluated operand
    when it runs), so loops cannot run away and a completing program uses
    exactly its node-visit count
  - program text never enters the generated source: variables are slot
    numbers, literals, field names, keys and builtins are constants
    ``k<i>``, and the code runs with empty ``__builtins__``
  - any non-finite intermediate aborts with a numeric error
  - context values are never mutated (no vector/matrix assignment exists)
  - all failures are RslRuntimeError subclasses
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    RslBudgetError,
    RslMissingKeyError,
    RslNumericError,
    RslRuntimeError,
    RslTypeError,
    RslValueError,
)

_SCALARS = (bool, int, float)
_INT_BITS_CAP = 256
_MAG = 2.0**_INT_BITS_CAP  # ints below it have at most _INT_BITS_CAP bits
_UNSET = object()  # the value of a variable slot before its first assignment
_F64 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)
# The ufunc reductions behind np.sum/np.min/np.max, without their wrappers.
_SUM, _MIN, _MAX = np.add.reduce, np.minimum.reduce, np.maximum.reduce


class _State:
    __slots__ = ("left", "budget", "max_len")

    def __init__(self, budget: int, max_len: int):
        self.left = budget
        self.budget = budget
        self.max_len = max_len


def _kind(v) -> str:
    if isinstance(v, np.ndarray):
        return "matrix" if v.ndim == 2 else "vector"
    if isinstance(v, bool):
        return "boolean"
    if isinstance(v, (int, float)):
        return "scalar"
    if isinstance(v, dict):
        return "record"
    if isinstance(v, str):
        return "string"
    return type(v).__name__


def _guard_scalar(v: float):
    if not math.isfinite(v):
        raise RslNumericError("non-finite intermediate value")
    return v


def _guard(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            raise RslNumericError("non-finite intermediate value")
        return v
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        if v.bit_length() > _INT_BITS_CAP:
            raise RslNumericError("integer magnitude out of range")
        return v
    if isinstance(v, np.ndarray):
        # A finite sum proves every element finite; only a non-finite (or
        # huge) sum pays for the element-wise test.
        if v.dtype is _F64 and -_MAG < _SUM(v, None) < _MAG:
            return v
        if not np.isfinite(v).all():
            raise RslNumericError("non-finite intermediate value")
        return v
    raise RslTypeError(f"cannot operate on {_kind(v)} values")


def _num_only(v, what: str):
    if isinstance(v, _SCALARS) or isinstance(v, np.ndarray):
        return v
    raise RslTypeError(f"{what} expects numeric operands, got {_kind(v)}")


_ARITH = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,
}
_BY_ZERO = {"/": "division by zero", "%": "modulo by zero"}
_COMPARE = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


def _binop(op: str, a, b):
    _num_only(a, f"operator {op!r}")
    _num_only(b, f"operator {op!r}")
    both_scalar = isinstance(a, _SCALARS) and isinstance(b, _SCALARS)
    try:
        if op != "**":
            if both_scalar and op in _BY_ZERO and b == 0:
                raise RslNumericError(_BY_ZERO[op])
            r = _ARITH[op](a, b)
        elif both_scalar:
            try:
                r = math.pow(float(a), float(b))
            except (ValueError, OverflowError) as exc:
                raise RslNumericError(f"power domain error: {exc}")
            # Keep int semantics for small non-negative integer powers.
            if (
                isinstance(a, int)
                and isinstance(b, int)
                and not isinstance(a, bool)
                and 0 <= b <= 64
                and abs(r) < 2**53
            ):
                r = a**b
        else:
            r = np.power(a, b)
    except RslRuntimeError:
        raise
    except (TypeError, ValueError) as exc:
        raise RslTypeError(f"operator {op!r}: {exc}")
    except (ZeroDivisionError, OverflowError) as exc:
        raise RslNumericError(f"operator {op!r}: {exc}")
    return _guard(r)


def _compare(op: str, a, b):
    _num_only(a, f"comparison {op!r}")
    _num_only(b, f"comparison {op!r}")
    try:
        r = _COMPARE[op](a, b)
    except (TypeError, ValueError) as exc:
        raise RslTypeError(f"comparison {op!r}: {exc}")
    if isinstance(r, np.ndarray):
        return r.astype(float)
    return bool(r)


def _truth(v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, float)):
        return v != 0
    if isinstance(v, np.ndarray):
        raise RslTypeError("truth value of a vector/matrix is ambiguous")
    raise RslTypeError(f"cannot use {_kind(v)} as a condition")


def _vec_arg(x, fn: str) -> np.ndarray:
    if isinstance(x, np.ndarray):
        if x.size == 0:
            raise RslValueError(f"{fn}() of an empty collection")
        return x
    raise RslTypeError(f"{fn}() expects a vector or matrix, got {_kind(x)}")


def _int_arg(x, fn: str) -> int:
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise RslTypeError(f"{fn} expects an integer, got {_kind(x)}")


# -- builtins ----------------------------------------------------------------
# An implementation takes the builtin's name, for its messages, and then the
# call's arguments, whose count the slow path has already checked.


class _Builtin(NamedTuple):
    fn: Callable
    arity: range  # the argument counts it accepts
    usage: str  # follows the name in the arity error
    inline: Callable | None = None  # inline(gen, t, args) -> (tests, lines) | None
    call: Callable | None = None  # the slow path; _declare binds it


def _fixed(n: int, fn, params: str = "", inline=None) -> _Builtin:
    """A builtin of exactly ``n`` arguments; the arity error names them as
    ``params`` (a single argument goes unnamed)."""
    usage = f"({params}) takes exactly {n} argument{'s' * (n > 1)}"
    return _Builtin(fn, range(n, n + 1), usage, inline)


def _finite(t: str) -> str:
    return f"if not -MAG < {t} < MAG: {t} = G({t})"


def _unary(scalar, array, domain: str = "") -> _Builtin:
    """An elementwise one-argument builtin. ``domain``, a test on the float
    ``{a}``, is where ``scalar`` neither raises nor leaves the finite range;
    there the generated code calls it inline."""

    def fn(name, x):
        if isinstance(x, _SCALARS):
            try:
                return scalar(float(x))
            except ValueError as exc:  # math domain error
                raise RslNumericError(f"{name}(): {exc}")
        if isinstance(x, np.ndarray):
            # numpy would compute a bool array in its smallest float, float16.
            return array(x.astype(_F64) if x.dtype is _BOOL else x)
        raise RslTypeError(f"{name}() expects numeric input, got {_kind(x)}")

    def inline(gen, t, args):
        if len(args) != 1:
            return None
        (a,) = args
        return gen.is_float(a) + [domain.format(a=a)], [f"{t} = {gen.const(scalar)}({a})"]

    return _fixed(1, fn, inline=inline if domain else None)


def _reduction(array, scalar=float) -> _Builtin:
    """A one-argument reduction; a scalar counts as one-element data."""

    def fn(name, x):
        if isinstance(x, _SCALARS):
            return scalar(x)
        return float(array(_vec_arg(x, name)))

    return _fixed(1, fn)


def _mean(v):
    return float(_SUM(v, None)) / v.size if v.dtype is _F64 else np.mean(v)


def _extreme(pairwise, reduce, op: str) -> _Builtin:
    """min or max: of one collection, or elementwise over its arguments."""

    def fn(name, first, *rest):
        if not rest:
            if isinstance(first, _SCALARS):
                return float(first)
            return float(reduce(_vec_arg(first, name), None))
        out = _num_only(first, name)
        for nxt in rest:
            _num_only(nxt, name)
            try:
                out = pairwise(out, nxt)
            except ValueError as exc:
                raise RslValueError(f"{name}(): {exc}")
        return out if isinstance(out, np.ndarray) else float(out)

    def inline(gen, t, args):
        # numpy's minimum/maximum of two floats: the second operand on ties
        # (signed zeros), NaN from either side.
        if len(args) != 2:
            return None
        a, b = args
        first = f"{a} if {a} {op} {b} or {a} != {a} else {b}"
        return gen.is_float(a, b), [f"{t} = {first}", _finite(t)]

    return _Builtin(fn, range(1, sys.maxsize), "() needs at least 1 argument", inline)


def _along(reduce):
    """A reduction of a non-empty matrix along axis 0 or 1."""

    def fn(name, m, axis):
        if not (isinstance(m, np.ndarray) and m.ndim == 2):
            raise RslTypeError(f"{name}() expects a matrix, got {_kind(m)}")
        if m.size == 0:
            raise RslValueError(f"{name}() of an empty matrix")
        axis = _int_arg(axis, name)
        if axis not in (0, 1):
            raise RslValueError(f"{name}() axis must be 0 or 1")
        return reduce(m, axis)

    return fn


def _mean_along(m, axis):
    if m.dtype is _F64:  # what np.mean computes, without its wrapper
        return _SUM(m, axis) / m.shape[axis]
    return np.mean(m, axis=axis)


_norm_along = _along(lambda m, axis: np.sqrt(_SUM(m * m, axis)))


def _norm(name, x, *axis):
    if axis:
        return _norm_along("norm_axis", x, *axis)
    if isinstance(x, _SCALARS):
        return abs(float(x))
    return float(np.sqrt(_SUM(_vec_arg(x, name) ** 2, None)))


def _inline_norm(gen, t, args):
    if len(args) != 1:
        return None
    (a,) = args
    test = f"type({a}) is ND and {a}.dtype is F64 and {a}.size"
    return [test], [f"{t} = SQRT(SUM({a} * {a}, None))", _finite(t)]


def _of_vector(op):
    def fn(name, x):
        v = _vec_arg(x, name)
        if v.ndim != 1:
            raise RslTypeError(f"{name}() expects a vector")
        return op(v)

    return fn


def _quantile(name, v, q):
    v = _vec_arg(v, name)
    if not isinstance(q, _SCALARS) or not 0.0 <= float(q) <= 1.0:
        raise RslValueError(f"{name}() q must be a scalar in [0, 1]")
    return float(np.quantile(v, float(q)))


def _clip(name, x, lo, hi):
    if not isinstance(lo, _SCALARS) or not isinstance(hi, _SCALARS):
        raise RslTypeError(f"{name}() bounds must be scalars")
    lo, hi = float(lo), float(hi)
    if lo > hi:
        raise RslValueError(f"{name}() requires lo <= hi")
    if isinstance(x, _SCALARS):
        return float(min(max(float(x), lo), hi))
    if isinstance(x, np.ndarray):
        return np.clip(x, lo, hi)
    raise RslTypeError(f"{name}() expects numeric input, got {_kind(x)}")


def _inline_clip(gen, t, args):
    # Python's max(x, lo) then min(., hi), as the scalar clip does.
    if len(args) != 3:
        return None
    x, lo, hi = args
    tests = gen.is_float(x, lo, hi)
    lo_v, hi_v = gen.known(lo), gen.known(hi)
    if not (type(lo_v) is float is type(hi_v) and lo_v <= hi_v):
        tests.append(f"{lo} <= {hi}")
    lines = [f"{t} = {lo} if {lo} > {x} else {x}", f"{t} = {hi} if {hi} < {t} else {t}"]
    return tests, lines + [_finite(t)]


def _len(name, x):
    if isinstance(x, np.ndarray):
        return int(x.shape[0])
    if isinstance(x, dict):
        return len(x)
    raise RslTypeError(f"{name}() of {_kind(x)}")


def _dot(name, a, b):
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        raise RslTypeError(f"{name}() expects vectors or matrices")
    try:
        r = np.dot(a, b)
    except ValueError as exc:
        raise RslValueError(f"{name}(): {exc}")
    return float(r) if r.ndim == 0 else r


def _corr(name, a, b):
    if not all(isinstance(v, np.ndarray) and v.ndim == 1 for v in (a, b)):
        raise RslTypeError(f"{name}() expects vectors")
    if a.shape != b.shape:
        raise RslValueError(f"{name}() vectors must have equal length")
    if a.size < 2:
        return 0.0
    sa = float(np.std(a))
    sb = float(np.std(b))
    if sa == 0.0 or sb == 0.0:
        return 0.0  # zero-variance convention
    c = float(np.mean((a - np.mean(a)) * (b - np.mean(b))) / (sa * sb))
    return c if math.isfinite(c) else 0.0


def _roll(name, x, k):
    return np.roll(_vec_arg(x, name), _int_arg(k, f"{name}()"))


def _slow_path(name: str, b: _Builtin):
    """The call the generated code makes: the arity check, then the
    implementation. An int argument beyond float range is a numeric error;
    an array whose dtype numpy cannot handle there (bool) is a type error."""
    fn, arity, usage = b.fn, b.arity, name + b.usage

    def call(*args):
        if len(args) not in arity:
            raise RslValueError(usage)
        try:
            return fn(name, *args)
        except OverflowError as exc:
            raise RslNumericError(f"{name}(): {exc}")
        except TypeError as exc:  # numpy has no loop for the operand dtype
            raise RslTypeError(f"{name}(): {exc}")

    return call


def _declare(table: dict) -> dict:
    return {name: b._replace(call=_slow_path(name, b)) for name, b in table.items()}


# The builtins: each one's arity, implementation and inline fast path.
_BUILTINS = _declare({
    "abs": _unary(abs, np.abs, "-MAG < {a} < MAG"),
    "tanh": _unary(math.tanh, np.tanh, "-MAG < {a} < MAG"),
    "exp": _unary(math.exp, np.exp, "{a} < 709.0"),
    "log": _unary(math.log, np.log, "0.0 < {a} < MAG"),
    "log1p": _unary(math.log1p, np.log1p, "-1.0 < {a} < MAG"),
    "sqrt": _unary(math.sqrt, np.sqrt, "0.0 <= {a} < MAG"),
    "sign": _unary(lambda v: float(np.sign(v)), np.sign),
    "min": _extreme(np.minimum, _MIN, "<"),
    "max": _extreme(np.maximum, _MAX, ">"),
    "sum": _reduction(lambda v: _SUM(v, None)),
    "mean": _reduction(_mean),
    "std": _reduction(np.std, lambda x: 0.0),
    "median": _reduction(np.median),
    "ptp": _reduction(lambda v: _MAX(v, None) - _MIN(v, None), lambda x: 0.0),
    "quantile": _fixed(2, _quantile, "v, q"),
    "clip": _fixed(3, _clip, "x, lo, hi", _inline_clip),
    "norm": _Builtin(
        _norm, range(1, 3), "() takes 1 argument (or norm_axis(m, axis))", _inline_norm
    ),
    "mean_axis": _fixed(2, _along(_mean_along), "matrix, axis"),
    "std_axis": _fixed(2, _along(lambda m, axis: np.std(m, axis=axis)), "matrix, axis"),
    "min_axis": _fixed(2, _along(_MIN), "matrix, axis"),
    "max_axis": _fixed(2, _along(_MAX), "matrix, axis"),
    "norm_axis": _fixed(2, _norm_along, "matrix, axis"),
    "argsort": _fixed(1, _of_vector(lambda v: np.argsort(v, kind="stable").astype(float))),
    "sort": _fixed(1, _of_vector(np.sort)),
    "len": _fixed(1, _len),
    "dot": _fixed(2, _dot, "a, b"),
    "corr": _fixed(2, _corr, "a, b"),
    "roll": _fixed(2, _roll, "x, k"),
})

BUILTINS = frozenset(_BUILTINS)


# -- helpers the generated code calls ---------------------------------------


def _over_budget(state: _State):
    raise RslBudgetError(f"step budget exceeded ({state.budget} interpreter steps)")


def _undefined(name: str):
    raise RslTypeError(f"name {name!r} is not defined")


def _missing(field: str):
    raise RslMissingKeyError(
        f"context field {field!r} is absent; optional fields must be read "
        f"with ctx.get({field!r}, default)"
    )


def _index(obj, key):
    if isinstance(obj, np.ndarray):
        if type(key) is float and key.is_integer():
            idx = int(key)
        else:
            idx = _int_arg(key, "index")
        n = obj.shape[0]
        if not -n <= idx < n:
            raise RslValueError(f"index {idx} out of range for length {n}")
        v = obj[idx]
        return v if isinstance(v, np.ndarray) else float(v)
    if isinstance(obj, dict):
        if not isinstance(key, str):
            raise RslTypeError("record index must be a string")
        try:
            return obj[key]
        except KeyError:
            raise RslValueError(f"record has no key {key!r}")
    raise RslTypeError(f"cannot index a {_kind(obj)}")


def _vector(state: _State, vals: list):
    if len(vals) > state.max_len:
        raise RslValueError("collection literal too long")
    if all(isinstance(v, _SCALARS) for v in vals):
        return _guard(np.array(vals, dtype=float))
    if vals and all(isinstance(v, np.ndarray) and v.ndim == 1 for v in vals):
        if len({v.shape[0] for v in vals}) != 1:
            raise RslValueError("matrix rows must have equal length")
        return _guard(np.array(vals, dtype=float))
    raise RslTypeError(
        "vector literals hold scalars; matrix literals hold equal-length vectors"
    )


def _record_value(v, key: str) -> float:
    if not isinstance(v, _SCALARS):
        raise RslTypeError(f"record values must be scalars, got {_kind(v)} for {key!r}")
    return _guard_scalar(float(v))


def _setitem_target(obj, name: str) -> dict:
    if obj is _UNSET:
        _undefined(name)
    if not isinstance(obj, dict):
        raise RslTypeError(
            f"subscript assignment needs a record, {name!r} is {_kind(obj)}"
        )
    return obj


def _setitem_key(k):
    if not isinstance(k, str):
        raise RslTypeError("record key must be a string")


def _store(state: _State, obj: dict, k: str, v):
    if not isinstance(v, _SCALARS):
        raise RslTypeError(f"record values must be scalars, got {_kind(v)}")
    if len(obj) >= state.max_len and k not in obj:
        raise RslValueError("record too large")
    obj[k] = _guard_scalar(float(v))


def _loop_range(count) -> range:
    n = _int_arg(count, "range()")
    if n < 0:
        raise RslValueError("range() count must be >= 0")
    return range(n)


def _result(total, rec):
    if not isinstance(total, _SCALARS):
        raise RslTypeError(f"reward total must be a scalar, got {_kind(total)}")
    if not isinstance(rec, dict):
        raise RslTypeError(f"reward components must be a record, got {_kind(rec)}")
    out = {}
    for k, v in rec.items():
        if not isinstance(v, _SCALARS):
            raise RslTypeError(f"component {k!r} must be a scalar, got {_kind(v)}")
        out[k] = _guard_scalar(float(v))
    return _guard_scalar(float(total)), out


_CHUNK = 8  # statements per generated function

# Operand subtrees of each node, in evaluation order.
_OPERANDS = {
    "un": lambda n: n[2:3],
    "bin": lambda n: n[2:4],
    "cmp": lambda n: n[2:4],
    "boolop": lambda n: n[2:3],  # the right operand runs only when needed
    "call": lambda n: n[2],
    "idx": lambda n: n[1:3],
    "vec": lambda n: n[1],
}

# Globals of every generated module; its builtins stay empty.
_RUNTIME = {
    "__builtins__": {},
    "type": type, "float": float, "int": int, "MAG": _MAG, "U": _UNSET,
    "ND": np.ndarray, "F64": _F64, "SUM": _SUM,
    "O": _over_budget, "N": _undefined, "M": _missing, "T": _truth, "G": _guard,
    "B": _binop, "C": _compare, "NUM": _num_only, "IDX": _index, "VEC": _vector,
    "RV": _record_value, "SI": _setitem_target, "SK": _setitem_key, "ST": _store,
    "R": _loop_range, "SQRT": math.sqrt,
}


# -- code generation -------------------------------------------------------


class _Fn:
    """One generated function: its lines, temporaries and the count of AST
    nodes its current statement visits unconditionally."""

    __slots__ = ("lines", "temps", "nodes")

    def __init__(self):
        self.lines: list[str] = []
        self.temps = 0
        self.nodes = 0

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def begin(self, nodes: int) -> int:
        """Open a charged unit; ``charge`` fills in its step count."""
        self.nodes = nodes
        self.lines.append("")
        return len(self.lines) - 1

    def charge(self, at: int):
        self.lines[at] = f"S.left -= {self.nodes}\nif S.left < 0: O(S)"


class _Generator:
    """Turns a parsed program into Python source, one function per block.

    Generation recurses through fewer frames per nesting level than the
    parser and ``parser.dump`` need for the same level, so whatever parses
    also compiles.
    """

    def __init__(self):
        self.consts: dict = {}
        self.values: list = []
        self.slots: dict = {}
        self.defined: set = set()  # slots assigned on every path to here
        self.defs: list[str] = []
        self.namespace = dict(_RUNTIME)

    def const(self, v) -> str:
        i = self.consts.setdefault((type(v), repr(v)), len(self.values))
        if i == len(self.values):
            self.values.append(v)
            self.namespace[f"k{i}"] = v
        return f"k{i}"

    def known(self, operand: str):
        """The value of a constant operand, None for a runtime value."""
        return self.values[int(operand[1:])] if operand[0] == "k" else None

    def slot(self, name: str) -> int:
        return self.slots.setdefault(name, len(self.slots))

    def finish(self, fn: _Fn) -> str:
        """Compile ``fn`` on its own: the compiler's memory then grows with
        the largest function, not with the whole program."""
        name = f"f{len(self.defs)}"
        body = "\n".join(fn.lines).replace("\n", "\n    ")
        self.defs.append(f"def {name}(S, V, X):\n    {body}\n")
        exec(compile(self.defs[-1], "<rsl>", "exec"), self.namespace)
        return name

    # -- statements --------------------------------------------------------

    def block(self, stmts, extra: int = 0) -> tuple[str, set]:
        """A function running ``stmts``, with ``extra`` steps charged on the
        first; returns its name and the slots defined after it.

        A long block runs its statements in chunks of ``_CHUNK``, one
        function each, to keep every compiled function small.
        """
        before = self.defined
        self.defined = set(before)
        fn = _Fn()
        for start in range(0, len(stmts), _CHUNK):
            part = fn if len(stmts) <= _CHUNK else _Fn()
            for k, stmt in enumerate(stmts[start : start + _CHUNK], start):
                self.stmt(part, stmt, extra if k == 0 else 0)
            if part is not fn:
                fn.lines.append(f"{self.finish(part)}(S, V, X)")
        after, self.defined = self.defined, before
        return self.finish(fn), after

    def stmt(self, fn: _Fn, node, extra: int):
        at = fn.begin(extra + 1)
        emit = fn.lines.append
        tag = node[0]
        if tag == "assign":
            a = self.expr(fn, node[2])
            slot = self.slot(node[1])
            emit(f"V[{slot}] = {a}")
            self.defined.add(slot)
        elif tag == "setitem":
            obj = fn.temp()
            emit(f"{obj} = SI(V[{self.slot(node[1])}], {self.const(node[1])})")
            k = self.expr(fn, node[2])
            if not isinstance(self.known(k), str):
                emit(f"SK({k})")
            v = self.expr(fn, node[3])
            emit(f"ST(S, {obj}, {k}, {v})")
        elif tag == "if":
            self.branch(fn, node[1], node[2])
        else:  # for
            count = self.expr(fn, node[2])
            slot, i, outer = self.slot(node[1]), fn.temp(), self.defined
            self.defined = outer | {slot}
            body, _ = self.block(node[3], extra=1)
            self.defined = outer
            emit(f"for {i} in R({count}):")
            emit(f"    V[{slot}] = {i}")
            emit(f"    {body}(S, V, X)")
        fn.charge(at)

    def branch(self, fn: _Fn, arms, else_block):
        """The first test runs in ``fn``; later ``elif`` tests share one
        function, each charged when it is reached."""
        before, defined = self.defined, None
        chain = fn
        for k, (cond, then) in enumerate(arms):
            if k == 1:
                chain = _Fn()
            at = chain.begin(0) if k else None
            c = self.expr(chain, cond)
            if k:
                chain.charge(at)
            then_fn, out = self.block(then)
            defined = out if defined is None else defined & out
            done = "return " if k else ""
            chain.lines.append(f"if {self.truth(c)}: {done}{then_fn}(S, V, X)")
        if else_block is not None:
            else_fn, out = self.block(else_block)
            self.defined = defined & out
            chain.lines.append(f"{'' if len(arms) > 1 else 'else: '}{else_fn}(S, V, X)")
        else:
            self.defined = before
        if chain is not fn:
            fn.lines.append(f"else: {self.finish(chain)}(S, V, X)")

    # -- expressions -------------------------------------------------------

    def truth(self, a: str) -> str:
        return f"({a} is True or {a} is not False and T({a}))"

    def numeric(self, *operands: str, bounded: bool = True) -> list[str]:
        """Runtime tests that ``operands`` are exact floats, or exact ints
        that convert to float when ``bounded``."""
        tests = []
        for a in operands:
            v = self.known(a)
            if type(v) is float or type(v) is int and -_MAG < v < _MAG:
                continue
            bound = f" and -MAG < {a} < MAG" if bounded else ""
            tests.append(f"(type({a}) is float or type({a}) is int{bound})")
        return tests

    def is_float(self, *operands: str) -> list[str]:
        known = [type(self.known(a)) is float for a in operands]
        return [f"type({a}) is float" for a, k in zip(operands, known) if not k]

    def value_fn(self, node) -> str:
        """A function returning the value of ``node``, charged when called."""
        fn = _Fn()
        at = fn.begin(0)
        fn.lines.append(f"return {self.expr(fn, node)}")
        fn.charge(at)
        return self.finish(fn)

    def expr(self, fn: _Fn, node) -> str:
        fn.nodes += 1
        tag = node[0]
        if tag in ("num", "bool", "str"):
            return self.const(node[1])
        if tag == "un" and node[1] == "-" and node[2][0] == "num":
            # A negated literal is a constant when its guard would pass.
            if -_MAG < node[2][1] < _MAG:
                fn.nodes += 1
                return self.const(-node[2][1])
        args = []  # evaluated left to right; a loop keeps one frame per level
        for sub in _OPERANDS.get(tag, lambda n: ())(node):
            args.append(self.expr(fn, sub))
        if tag == "call":
            return self.call(fn, node[1], args)
        t = fn.temp()
        emit = fn.lines.append
        if tag == "idx":
            emit(f"{t} = IDX({args[0]}, {args[1]})")
        elif tag == "vec":
            emit(f"{t} = VEC(S, [{', '.join(args)}])")
        elif tag == "rec":
            emit(f"{t} = {{}}")
            for key, value in node[1]:
                v, k = self.expr(fn, value), self.const(key)
                emit(f"{t}[{k}] = RV({v}, {k})")
        elif tag == "un" and node[1] == "not":
            emit(f"{t} = not {self.truth(args[0])}")
        elif tag == "un":
            a = args[0]
            tests = self.numeric(a, bounded=False) + [f"-MAG < {a} < MAG"]
            slow = f"G(-NUM({a}, {self.const('unary -')}))"
            emit(f"{t} = -{a} if {' and '.join(tests)} else {slow}")
        elif tag == "boolop":
            right = self.value_fn(node[3])
            emit(f"{t} = {self.truth(args[0])} {node[1]} T({right}(S, V, X))")
        elif tag in ("bin", "cmp"):
            self.arith(fn, t, node[1], *args, tag == "cmp")
        elif tag == "name":
            slot = self.slot(node[1])
            emit(f"{t} = V[{slot}]")
            if slot not in self.defined:
                emit(f"if {t} is U: N({self.const(node[1])})")
        elif tag == "ctx":
            k = self.const(node[1])
            emit(f"{t} = X.get({k})")
            emit(f"if {t} is None: M({k})")
        else:  # ctxget
            k = self.const(node[1])
            emit(f"{t} = X.get({k})")
            emit(f"if {t} is None: {t} = {self.value_fn(node[2])}(S, V, X)")
        return t

    def arith(self, fn: _Fn, t: str, op: str, a: str, b: str, compare: bool):
        emit = fn.lines.append
        k = self.const(op)
        if compare:  # any two ints or floats compare without raising
            tests = " and ".join(self.numeric(a, b, bounded=False))
            slow = f" if {tests} else C({k}, {a}, {b})" if tests else ""
            emit(f"{t} = {a} {op} {b}{slow}")
            return
        if op == "**":
            emit(f"{t} = B({k}, {a}, {b})")
            return
        tests = self.numeric(a, b)
        divisor = self.known(b)
        if op in "/%" and not (type(divisor) in (float, int) and divisor):
            tests.append(b)  # a zero divisor takes the checked path
        emit(f"if {' and '.join(tests) or 'True'}:")
        emit(f"    {t} = {a} {op} {b}")
        emit(f"    if not -MAG < {t} < MAG: {t} = G({t})")
        emit(f"else: {t} = B({k}, {a}, {b})")

    def call(self, fn: _Fn, name: str, args: list[str]) -> str:
        """The builtin's inline path where it has one for these operands,
        else its slow path."""
        b = _BUILTINS[name]
        t = fn.temp()
        slow = f"G({self.const(b.call)}({', '.join(args)}))"
        fast = b.inline(self, t, args) if b.inline else None
        if fast is None:
            fn.lines.append(f"{t} = {slow}")
            return t
        tests, lines = fast
        fn.lines.append(f"if {' and '.join(tests) or 'True'}:")
        fn.lines.extend(f"    {line}" for line in lines)
        fn.lines.append(f"else: {t} = {slow}")
        return t


class CompiledProgram(NamedTuple):
    entry: object
    slots: int
    source: str


def compile_program(ast) -> CompiledProgram:
    """Generate and compile the Python source of ("program", stmts)."""
    gen = _Generator()
    *stmts, (_, total, rec) = ast[1]
    fn = _Fn()
    if stmts:
        body, gen.defined = gen.block(stmts)
        fn.lines.append(f"{body}(S, V, X)")
    at = fn.begin(0)
    t, r = gen.expr(fn, total), gen.expr(fn, rec)
    fn.lines.append(f"return {t}, {r}")
    fn.charge(at)
    entry = gen.finish(fn)
    return CompiledProgram(gen.namespace[entry], len(gen.slots), "".join(gen.defs))


def run_compiled(compiled: CompiledProgram, context: dict, budget: int, max_len: int):
    """Execute with guards; returns (total, components)."""
    state = _State(budget, max_len)
    try:
        with np.errstate(all="ignore"):  # half the cost of a seterr pair
            return _result(*compiled.entry(state, [_UNSET] * compiled.slots, context))
    except RslRuntimeError:
        raise
    except RecursionError:
        raise RslRuntimeError("evaluation nesting too deep")
    except MemoryError:
        raise RslValueError("evaluation exceeded memory limits")
    except Exception as exc:  # totality: never leak a raw exception
        raise RslRuntimeError(f"internal evaluation error: {type(exc).__name__}: {exc}")
