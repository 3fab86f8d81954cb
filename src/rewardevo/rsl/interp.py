"""Bounded evaluator: an AST compiles once into Python source, then runs per
context.

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
    numbers, literals, field names and keys are constants ``k<i>``, and
    the code runs with empty ``__builtins__``
  - any non-finite intermediate aborts with a numeric error
  - context values are never mutated (no vector/matrix assignment exists)
  - all failures are RslRuntimeError subclasses
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


def _binop(op: str, a, b):
    _num_only(a, f"operator {op!r}")
    _num_only(b, f"operator {op!r}")
    both_scalar = isinstance(a, _SCALARS) and isinstance(b, _SCALARS)
    try:
        if op == "+":
            r = a + b
        elif op == "-":
            r = a - b
        elif op == "*":
            r = a * b
        elif op == "/":
            if both_scalar:
                if b == 0:
                    raise RslNumericError("division by zero")
                r = a / b
            else:
                r = a / b
        elif op == "%":
            if both_scalar:
                if b == 0:
                    raise RslNumericError("modulo by zero")
                r = a % b
            else:
                r = a % b
        elif op == "**":
            if both_scalar:
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
        else:  # pragma: no cover - parser admits no other ops
            raise RslTypeError(f"unknown operator {op!r}")
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
        if op == "<":
            r = a < b
        elif op == "<=":
            r = a <= b
        elif op == ">":
            r = a > b
        elif op == ">=":
            r = a >= b
        elif op == "==":
            r = a == b
        else:
            r = a != b
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


def _reduce_arg(x, fn: str):
    """Reductions are lenient on scalars (treated as 1-element data)."""
    if isinstance(x, _SCALARS):
        return None
    return _vec_arg(x, fn)


def _int_arg(x, fn: str) -> int:
    if isinstance(x, bool):
        return int(x)
    if isinstance(x, int):
        return x
    if isinstance(x, float) and x.is_integer():
        return int(x)
    raise RslTypeError(f"{fn} expects an integer, got {_kind(x)}")


def _axis_args(args, fn: str):
    if len(args) != 2:
        raise RslValueError(f"{fn}(matrix, axis) takes exactly 2 arguments")
    m = args[0]
    if not (isinstance(m, np.ndarray) and m.ndim == 2):
        raise RslTypeError(f"{fn}() expects a matrix, got {_kind(m)}")
    if m.size == 0:
        raise RslValueError(f"{fn}() of an empty matrix")
    axis = _int_arg(args[1], fn)
    if axis not in (0, 1):
        raise RslValueError(f"{fn}() axis must be 0 or 1")
    return m, axis


def _unary_math(args, fn: str, scalar_fn, array_fn):
    if len(args) != 1:
        raise RslValueError(f"{fn}() takes exactly 1 argument")
    x = args[0]
    if isinstance(x, _SCALARS):
        try:
            return scalar_fn(float(x))
        except (ValueError, OverflowError) as exc:
            raise RslNumericError(f"{fn}(): {exc}")
    if isinstance(x, np.ndarray):
        return array_fn(x)
    raise RslTypeError(f"{fn}() expects numeric input, got {_kind(x)}")


def _b_minmax(args, fn: str):
    npfn = np.minimum if fn == "min" else np.maximum
    redfn = _MIN if fn == "min" else _MAX
    if len(args) == 0:
        raise RslValueError(f"{fn}() needs at least 1 argument")
    if len(args) == 1:
        x = args[0]
        if isinstance(x, _SCALARS):
            return float(x)
        return float(redfn(_vec_arg(x, fn), None))
    out = args[0]
    _num_only(out, fn)
    for nxt in args[1:]:
        _num_only(nxt, fn)
        try:
            out = npfn(out, nxt)
        except ValueError as exc:
            raise RslValueError(f"{fn}(): {exc}")
    if isinstance(out, np.ndarray):
        return out
    return float(out)


def _b_corr(args):
    if len(args) != 2:
        raise RslValueError("corr(a, b) takes exactly 2 arguments")
    a, b = args
    if not (isinstance(a, np.ndarray) and a.ndim == 1):
        raise RslTypeError("corr() expects vectors")
    if not (isinstance(b, np.ndarray) and b.ndim == 1):
        raise RslTypeError("corr() expects vectors")
    if a.shape != b.shape:
        raise RslValueError("corr() vectors must have equal length")
    if a.size < 2:
        return 0.0
    sa = float(np.std(a))
    sb = float(np.std(b))
    if sa == 0.0 or sb == 0.0:
        return 0.0  # zero-variance convention
    c = float(np.mean((a - np.mean(a)) * (b - np.mean(b))) / (sa * sb))
    if not math.isfinite(c):
        return 0.0
    return c


def _call_builtin(name: str, args: list):
    try:
        return _builtin(name, args)
    except OverflowError as exc:  # an int argument beyond float range
        raise RslNumericError(f"{name}(): {exc}")


def _builtin(name: str, args: list):
    if name == "abs":
        return _unary_math(args, "abs", abs, np.abs)
    if name in ("min", "max"):
        return _b_minmax(args, name)
    if name == "sum":
        if len(args) != 1:
            raise RslValueError("sum() takes exactly 1 argument")
        x = _reduce_arg(args[0], "sum")
        return float(args[0]) if x is None else float(_SUM(x, None))
    if name == "mean":
        if len(args) != 1:
            raise RslValueError("mean() takes exactly 1 argument")
        x = _reduce_arg(args[0], "mean")
        if x is None:
            return float(args[0])
        return float(_SUM(x, None)) / x.size if x.dtype is _F64 else float(np.mean(x))
    if name == "std":
        if len(args) != 1:
            raise RslValueError("std() takes exactly 1 argument")
        x = _reduce_arg(args[0], "std")
        return 0.0 if x is None else float(np.std(x))
    if name == "median":
        if len(args) != 1:
            raise RslValueError("median() takes exactly 1 argument")
        x = _reduce_arg(args[0], "median")
        return float(args[0]) if x is None else float(np.median(x))
    if name == "quantile":
        if len(args) != 2:
            raise RslValueError("quantile(v, q) takes exactly 2 arguments")
        v = _vec_arg(args[0], "quantile")
        q = args[1]
        if not isinstance(q, _SCALARS) or not 0.0 <= float(q) <= 1.0:
            raise RslValueError("quantile() q must be a scalar in [0, 1]")
        return float(np.quantile(v, float(q)))
    if name == "ptp":
        if len(args) != 1:
            raise RslValueError("ptp() takes exactly 1 argument")
        x = _reduce_arg(args[0], "ptp")
        return 0.0 if x is None else float(_MAX(x, None) - _MIN(x, None))
    if name == "clip":
        if len(args) != 3:
            raise RslValueError("clip(x, lo, hi) takes exactly 3 arguments")
        x, lo, hi = args
        if not isinstance(lo, _SCALARS) or not isinstance(hi, _SCALARS):
            raise RslTypeError("clip() bounds must be scalars")
        if float(lo) > float(hi):
            raise RslValueError("clip() requires lo <= hi")
        if isinstance(x, _SCALARS):
            return float(min(max(float(x), float(lo)), float(hi)))
        if isinstance(x, np.ndarray):
            return np.clip(x, float(lo), float(hi))
        raise RslTypeError(f"clip() expects numeric input, got {_kind(x)}")
    if name == "tanh":
        return _unary_math(args, "tanh", math.tanh, np.tanh)
    if name == "exp":
        return _unary_math(args, "exp", math.exp, np.exp)
    if name == "log":
        return _unary_math(args, "log", math.log, np.log)
    if name == "log1p":
        return _unary_math(args, "log1p", math.log1p, np.log1p)
    if name == "sqrt":
        return _unary_math(args, "sqrt", math.sqrt, np.sqrt)
    if name == "sign":
        return _unary_math(
            args, "sign", lambda v: float(np.sign(v)), np.sign
        )
    if name == "norm":
        if len(args) == 2:
            m, axis = _axis_args(args, "norm_axis")
            return np.sqrt(_SUM(m * m, axis))
        if len(args) != 1:
            raise RslValueError("norm() takes 1 argument (or norm_axis(m, axis))")
        x = args[0]
        if isinstance(x, _SCALARS):
            return abs(float(x))
        return float(np.sqrt(_SUM(_vec_arg(x, "norm") ** 2, None)))
    if name in ("mean_axis", "std_axis", "min_axis", "max_axis", "norm_axis"):
        m, axis = _axis_args(args, name)
        if name == "mean_axis":
            if m.dtype is _F64:  # what np.mean computes, without its wrapper
                return _SUM(m, axis) / m.shape[axis]
            return np.mean(m, axis=axis)
        if name == "std_axis":
            return np.std(m, axis=axis)
        if name == "min_axis":
            return _MIN(m, axis)
        if name == "max_axis":
            return _MAX(m, axis)
        return np.sqrt(_SUM(m * m, axis))
    if name == "argsort":
        if len(args) != 1:
            raise RslValueError("argsort() takes exactly 1 argument")
        v = _vec_arg(args[0], "argsort")
        if v.ndim != 1:
            raise RslTypeError("argsort() expects a vector")
        return np.argsort(v, kind="stable").astype(float)
    if name == "sort":
        if len(args) != 1:
            raise RslValueError("sort() takes exactly 1 argument")
        v = _vec_arg(args[0], "sort")
        if v.ndim != 1:
            raise RslTypeError("sort() expects a vector")
        return np.sort(v)
    if name == "len":
        if len(args) != 1:
            raise RslValueError("len() takes exactly 1 argument")
        x = args[0]
        if isinstance(x, np.ndarray):
            return int(x.shape[0])
        if isinstance(x, dict):
            return len(x)
        raise RslTypeError(f"len() of {_kind(x)}")
    if name == "dot":
        if len(args) != 2:
            raise RslValueError("dot(a, b) takes exactly 2 arguments")
        a, b = args
        if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
            raise RslTypeError("dot() expects vectors or matrices")
        try:
            r = np.dot(a, b)
        except ValueError as exc:
            raise RslValueError(f"dot(): {exc}")
        if r.ndim == 0:
            return float(r)
        return r
    if name == "corr":
        return _b_corr(args)
    if name == "roll":
        if len(args) != 2:
            raise RslValueError("roll(x, k) takes exactly 2 arguments")
        x = _vec_arg(args[0], "roll")
        k = _int_arg(args[1], "roll()")
        return np.roll(x, k)
    raise RslTypeError(f"unknown builtin {name!r}")  # pragma: no cover


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
    "B": _binop, "C": _compare, "NUM": _num_only, "CALL": _call_builtin,
    "IDX": _index, "VEC": _vector, "RV": _record_value, "SI": _setitem_target,
    "SK": _setitem_key, "ST": _store, "R": _loop_range,
    "ABS": abs, "TANH": math.tanh, "EXP": math.exp, "LOG": math.log,
    "LOG1P": math.log1p, "SQRT": math.sqrt,
}

# One-argument builtins inlined for finite floats inside the domain where the
# math function neither raises nor leaves the finite range.
_UNARY_FAST = {
    "abs": ("ABS", "-MAG < {a} < MAG"),
    "tanh": ("TANH", "-MAG < {a} < MAG"),
    "exp": ("EXP", "{a} < 709.0"),
    "log": ("LOG", "0.0 < {a} < MAG"),
    "log1p": ("LOG1P", "-1.0 < {a} < MAG"),
    "sqrt": ("SQRT", "0.0 <= {a} < MAG"),
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
        t = fn.temp()
        slow = f"G(CALL({self.const(name)}, [{', '.join(args)}]))"
        emit = fn.lines.append
        if name in _UNARY_FAST and len(args) == 1:
            f, domain = _UNARY_FAST[name]
            a = args[0]
            tests = " and ".join(self.is_float(a) + [domain.format(a=a)])
            emit(f"{t} = {f}({a}) if {tests} else {slow}")
            return t
        if name == "norm" and len(args) == 1:
            a = args[0]
            emit(f"if type({a}) is ND and {a}.dtype is F64 and {a}.size:")
            emit(f"    {t} = SQRT(SUM({a} * {a}, None))")
        elif name in ("min", "max") and len(args) == 2:
            # numpy's minimum/maximum: the second operand on ties (signed
            # zeros), NaN from either side.
            a, b = args
            emit(f"if {' and '.join(self.is_float(a, b)) or 'True'}:")
            first = f"{a} {'<>'[name == 'max']} {b} or {a} != {a}"
            emit(f"    {t} = {a} if {first} else {b}")
        elif name == "clip" and len(args) == 3:
            # Python's max(x, lo) then min(., hi), as the scalar clip does.
            x, lo, hi = args
            tests = self.is_float(x, lo, hi)
            lo_v, hi_v = self.known(lo), self.known(hi)
            if not (type(lo_v) is float is type(hi_v) and lo_v <= hi_v):
                tests.append(f"{lo} <= {hi}")
            emit(f"if {' and '.join(tests) or 'True'}:")
            emit(f"    {t} = {lo} if {lo} > {x} else {x}")
            emit(f"    {t} = {hi} if {hi} < {t} else {t}")
        else:
            emit(f"{t} = {slow}")
            return t
        emit(f"    if not -MAG < {t} < MAG: {t} = G({t})")
        emit(f"else: {t} = {slow}")
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
