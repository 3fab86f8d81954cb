"""Recursive-descent parser producing a tuple-encoded AST.

Node shapes:
  ("num", v) ("bool", b) ("str", s) ("name", n) ("ctx", field)
  ("ctxget", field, default) ("un", op, e) ("bin", op, l, r)
  ("cmp", op, l, r) ("boolop", op, l, r) ("call", fn, args)
  ("idx", base, sub) ("vec", elems) ("rec", [(key, value), ...])
  ("assign", name, e) ("setitem", name, key, e)
  ("if", [(cond, block), ...], else_block|None) ("for", var, count, block)
  ("return", total, components)

The grammar is closed: only ``range(...)`` loops, only the builtins that
``interp`` declares, no function definitions, no attribute access except
``ctx.<field>`` and ``ctx.get(...)``. Comparison chains are rejected.
"""

from __future__ import annotations

from .errors import RslParseError
from .interp import BUILTINS
from .lexer import Token, tokenize

_REJECTED_CONSTRUCTS = {
    "def": "function definitions are not allowed",
    "lambda": "lambdas are not allowed",
    "while": "while loops are not allowed; use for ... in range(...)",
    "import": "imports are not allowed",
    "from": "imports are not allowed",
    "class": "class definitions are not allowed",
    "del": "del is not allowed",
    "global": "global is not allowed",
    "yield": "yield is not allowed",
}

_RESERVED_NAMES = BUILTINS | {"ctx", "range", "get"} | set(_REJECTED_CONSTRUCTS)

_MAX_DEPTH = 200

_COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.fields: set[str] = set()

    # -- token helpers -----------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def check(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        tok = self.peek()
        if not self.check(kind, value):
            want = value if value is not None else kind
            raise RslParseError(
                f"expected {want!r}, got {tok.value or tok.kind!r}", tok.line, tok.col
            )
        return self.advance()

    def error(self, msg: str) -> RslParseError:
        tok = self.peek()
        return RslParseError(msg, tok.line, tok.col)

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.error("expression nesting too deep")

    def _leave(self):
        self.depth -= 1

    # -- program -----------------------------------------------------------
    def parse_program(self) -> tuple:
        stmts: list[tuple] = []
        saw_return = False
        while not self.check("EOF"):
            if self.check("NEWLINE"):
                self.advance()
                continue
            if saw_return:
                raise self.error("code after the final return")
            if self.check("KEYWORD", "return"):
                stmts.append(self.parse_return())
                saw_return = True
                continue
            stmts.append(self.parse_stmt())
        if not saw_return:
            tok = self.peek()
            raise RslParseError(
                "program must end with 'return <total>, <components>'",
                tok.line,
                tok.col,
            )
        return ("program", tuple(stmts))

    def parse_return(self) -> tuple:
        self.expect("KEYWORD", "return")
        total = self.parse_expr()
        self.expect("OP", ",")
        rec = self.parse_expr()
        if not self.check("EOF"):
            self.expect("NEWLINE")
        return ("return", total, rec)

    # -- statements ----------------------------------------------------------
    def parse_stmt(self) -> tuple:
        tok = self.peek()
        if tok.kind == "NAME" and tok.value in _REJECTED_CONSTRUCTS:
            raise self.error(_REJECTED_CONSTRUCTS[tok.value])
        if tok.kind == "KEYWORD" and tok.value == "if":
            return self.parse_if()
        if tok.kind == "KEYWORD" and tok.value == "for":
            return self.parse_for()
        if tok.kind == "NAME":
            return self.parse_assign()
        raise self.error(f"unexpected {tok.value or tok.kind!r}")

    def parse_assign(self) -> tuple:
        name = self.advance()
        if name.value in _RESERVED_NAMES:
            raise RslParseError(
                f"cannot assign to reserved name {name.value!r}", name.line, name.col
            )
        if self.check("OP", "["):
            self.advance()
            key = self.parse_expr()
            self.expect("OP", "]")
            self.expect("OP", "=")
            value = self.parse_expr()
            self.expect("NEWLINE")
            return ("setitem", name.value, key, value)
        self.expect("OP", "=")
        value = self.parse_expr()
        self.expect("NEWLINE")
        return ("assign", name.value, value)

    def parse_if(self) -> tuple:
        arms: list[tuple] = []
        self.expect("KEYWORD", "if")
        cond = self.parse_expr()
        self.expect("OP", ":")
        arms.append((cond, self.parse_block()))
        else_block = None
        while True:
            if self.check("KEYWORD", "elif"):
                self.advance()
                cond = self.parse_expr()
                self.expect("OP", ":")
                arms.append((cond, self.parse_block()))
                continue
            if self.check("KEYWORD", "else"):
                self.advance()
                self.expect("OP", ":")
                else_block = self.parse_block()
            break
        return ("if", tuple(arms), else_block)

    def parse_for(self) -> tuple:
        self.expect("KEYWORD", "for")
        var = self.expect("NAME")
        if var.value in _RESERVED_NAMES:
            raise RslParseError(
                f"cannot assign to reserved name {var.value!r}", var.line, var.col
            )
        self.expect("KEYWORD", "in")
        fn = self.expect("NAME")
        if fn.value != "range":
            raise RslParseError(
                "only 'for ... in range(<count>)' loops are supported",
                fn.line,
                fn.col,
            )
        self.expect("OP", "(")
        count = self.parse_expr()
        self.expect("OP", ")")
        self.expect("OP", ":")
        return ("for", var.value, count, self.parse_block())

    def parse_block(self) -> tuple:
        self.expect("NEWLINE")
        self.expect("INDENT")
        stmts: list[tuple] = []
        while not self.check("DEDENT"):
            if self.check("NEWLINE"):
                self.advance()
                continue
            if self.check("KEYWORD", "return"):
                raise self.error("return is only allowed at the top level")
            if self.check("EOF"):
                raise self.error("unexpected end of input inside a block")
            stmts.append(self.parse_stmt())
        self.expect("DEDENT")
        if not stmts:
            raise self.error("empty block")
        return tuple(stmts)

    # -- expressions ---------------------------------------------------------
    def parse_expr(self) -> tuple:
        self._enter()
        try:
            return self.parse_or()
        finally:
            self._leave()

    def parse_or(self) -> tuple:
        node = self.parse_and()
        while self.check("KEYWORD", "or"):
            self.advance()
            node = ("boolop", "or", node, self.parse_and())
        return node

    def parse_and(self) -> tuple:
        node = self.parse_not()
        while self.check("KEYWORD", "and"):
            self.advance()
            node = ("boolop", "and", node, self.parse_not())
        return node

    def parse_not(self) -> tuple:
        if self.check("KEYWORD", "not"):
            self.advance()
            return ("un", "not", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> tuple:
        node = self.parse_arith()
        tok = self.peek()
        if tok.kind == "OP" and tok.value in _COMPARE_OPS:
            self.advance()
            right = self.parse_arith()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.value in _COMPARE_OPS:
                raise self.error("comparison chains are not supported")
            return ("cmp", tok.value, node, right)
        return node

    def parse_arith(self) -> tuple:
        node = self.parse_term()
        while self.check("OP", "+") or self.check("OP", "-"):
            op = self.advance().value
            node = ("bin", op, node, self.parse_term())
        return node

    def parse_term(self) -> tuple:
        node = self.parse_factor()
        while (
            self.check("OP", "*") or self.check("OP", "/") or self.check("OP", "%")
        ):
            op = self.advance().value
            node = ("bin", op, node, self.parse_factor())
        return node

    def parse_factor(self) -> tuple:
        if self.check("OP", "-"):
            self.advance()
            return ("un", "-", self.parse_factor())
        if self.check("OP", "+"):
            self.advance()
            return self.parse_factor()
        return self.parse_power()

    def parse_power(self) -> tuple:
        node = self.parse_postfix()
        if self.check("OP", "**"):
            self.advance()
            return ("bin", "**", node, self.parse_factor())
        return node

    def parse_postfix(self) -> tuple:
        node = self.parse_atom()
        while self.check("OP", "["):
            self._enter()
            try:
                self.advance()
                sub = self.parse_expr()
                self.expect("OP", "]")
                node = ("idx", node, sub)
            finally:
                self._leave()
        return node

    def parse_atom(self) -> tuple:
        self._enter()
        try:
            return self._parse_atom_inner()
        finally:
            self._leave()

    def _parse_atom_inner(self) -> tuple:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            text = tok.value
            if "." in text or "e" in text or "E" in text:
                return ("num", float(text))
            return ("num", int(text))
        if tok.kind == "STRING":
            self.advance()
            return ("str", tok.value)
        if tok.kind == "KEYWORD" and tok.value in ("True", "False"):
            self.advance()
            return ("bool", tok.value == "True")
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            node = self.parse_expr()
            self.expect("OP", ")")
            return node
        if tok.kind == "OP" and tok.value == "[":
            self.advance()
            elems: list[tuple] = []
            if not self.check("OP", "]"):
                elems.append(self.parse_expr())
                while self.check("OP", ","):
                    self.advance()
                    if self.check("OP", "]"):
                        break
                    elems.append(self.parse_expr())
            self.expect("OP", "]")
            return ("vec", tuple(elems))
        if tok.kind == "OP" and tok.value == "{":
            self.advance()
            items: list[tuple] = []
            if not self.check("OP", "}"):
                items.append(self._parse_rec_item())
                while self.check("OP", ","):
                    self.advance()
                    if self.check("OP", "}"):
                        break
                    items.append(self._parse_rec_item())
            self.expect("OP", "}")
            return ("rec", tuple(items))
        if tok.kind == "NAME" and tok.value == "ctx":
            return self._parse_ctx()
        if tok.kind == "NAME":
            self.advance()
            if self.check("OP", "("):
                if tok.value not in BUILTINS:
                    raise RslParseError(
                        f"unknown builtin {tok.value!r}", tok.line, tok.col
                    )
                return ("call", tok.value, self._parse_args())
            if self.check("OP", "."):
                raise RslParseError(
                    "attribute access is only allowed on ctx", tok.line, tok.col
                )
            if tok.value in _REJECTED_CONSTRUCTS:
                raise RslParseError(
                    _REJECTED_CONSTRUCTS[tok.value], tok.line, tok.col
                )
            return ("name", tok.value)
        raise self.error(f"unexpected {tok.value or tok.kind!r}")

    def _parse_rec_item(self) -> tuple:
        key = self.expect("STRING")
        self.expect("OP", ":")
        return (key.value, self.parse_expr())

    def _parse_ctx(self) -> tuple:
        tok = self.advance()  # 'ctx'
        if not self.check("OP", "."):
            raise RslParseError(
                "ctx must be followed by '.<field>' or '.get(...)'",
                tok.line,
                tok.col,
            )
        self.advance()
        field = self.expect("NAME")
        if field.value == "get":
            self.expect("OP", "(")
            name_tok = self.expect("STRING")
            self.expect("OP", ",")
            default = self.parse_expr()
            self.expect("OP", ")")
            self.fields.add(name_tok.value)
            return ("ctxget", name_tok.value, default)
        self.fields.add(field.value)
        return ("ctx", field.value)

    def _parse_args(self) -> tuple:
        self.expect("OP", "(")
        args: list[tuple] = []
        if not self.check("OP", ")"):
            args.append(self.parse_expr())
            while self.check("OP", ","):
                self.advance()
                args.append(self.parse_expr())
        self.expect("OP", ")")
        return tuple(args)


def parse_source(source: str) -> tuple[tuple, frozenset[str]]:
    """Parse to (ast, referenced context fields)."""
    parser = _Parser(tokenize(source))
    ast = parser.parse_program()
    return ast, frozenset(parser.fields)


def dump(node) -> str:
    """Canonical, whitespace-free serialization of an AST (hashing basis)."""
    if isinstance(node, tuple):
        return "(" + " ".join(dump(x) for x in node) + ")"
    if isinstance(node, bool):
        return "#t" if node else "#f"
    if isinstance(node, float):
        return repr(node)
    if isinstance(node, int):
        return repr(node)
    if isinstance(node, str):
        return '"' + node.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if node is None:
        return "#n"
    raise TypeError(f"unexpected AST element {node!r}")
