"""Recursive-descent parser for the C fragment (see docs/grammar.md).

It reads the `(kind, text, line, col)` tuples of `lexer.scan`; a
`ParseError` carries the line and column of the token it stopped at.
Binary operators are parsed by precedence climbing over `nodes.BINARY_PREC`,
the table the printer reads; `!` and `->` bind tighter than any of them, and
assignment is a (right-associative) expression that binds loosest. Local
declarations must precede statements in a function body. A single-statement
brace block is unwrapped to the statement itself.
"""

from __future__ import annotations

from .lexer import scan
from . import nodes as N


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=None):
        super().__init__(f"{message} at {line}:{col}")
        self.line = line
        self.col = col
        self.expected = expected or []


class _Parser:
    # Tokens are `lexer.scan` tuples (kind, text, line, col). Two extra eof
    # entries pad the end, so a look-ahead of up to two never runs past it.
    # A keyword or punctuation token is tested by its text alone: no other
    # kind of token is spelled `if` or `{`.
    def __init__(self, toks: list[tuple]):
        self.toks = toks + toks[-1:] * 2
        self.pos = 0

    # -- token helpers --

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.toks[self.pos + ahead][1] == text

    def take(self) -> tuple:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> tuple:
        t = self.toks[self.pos]
        if t[0] != kind or (text is not None and t[1] != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, found {t[1] or t[0]!r}", t[2], t[3], [want])
        self.pos += 1
        return t

    # -- top level --

    def program(self) -> N.Program:
        structs, functions = [], []
        while self.peek()[0] != "eof":
            if self.at("struct") and self.at("{", ahead=2):
                structs.append(self.struct_def())
            else:
                functions.append(self.function_def())
        return N.Program(structs, functions)

    def struct_def(self) -> N.StructDef:
        self.expect("kw", "struct")
        name = self.expect("ident")[1]
        self.expect("punct", "{")
        fields = []
        while not self.at("}"):
            ftype = self.type_name(allow_void=False)
            fname = self.expect("ident")[1]
            self.expect("punct", ";")
            fields.append((fname, ftype))
        if not fields:
            t = self.peek()
            raise ParseError(f"struct {name} must declare at least one field", t[2], t[3])
        self.expect("punct", "}")
        self.expect("punct", ";")
        return N.StructDef(name, fields)

    def type_name(self, allow_void: bool) -> N.CType:
        t = self.peek()
        text = t[1]
        if text == "int":
            self.take()
            return N.INT
        if text == "void":
            self.take()
            if self.at("*"):
                self.take()
                return N.VOIDPTR
            if allow_void:
                return N.VOID
            raise ParseError("plain void is only a return type", t[2], t[3])
        if text == "struct":
            self.take()
            sname = self.expect("ident")[1]
            self.expect("punct", "*")
            return N.structptr(sname)
        raise ParseError(f"expected a type, found {t[1]!r}", t[2], t[3], ["int", "void", "struct"])

    def function_def(self) -> N.FunctionDef:
        rtype = self.type_name(allow_void=True)
        name = self.expect("ident")[1]
        self.expect("punct", "(")
        params = []
        if not self.at(")"):
            while True:
                ptype = self.type_name(allow_void=False)
                pname = self.expect("ident")[1]
                params.append((pname, ptype))
                if self.at(","):
                    self.take()
                    continue
                break
        self.expect("punct", ")")
        self.expect("punct", "{")
        locals_ = []
        while self.peek()[1] in ("int", "void") or (
            self.at("struct") and not self.at("{", ahead=2)
        ):
            ltype = self.type_name(allow_void=False)
            lname = self.expect("ident")[1]
            self.expect("punct", ";")
            locals_.append((lname, ltype))
        body = []
        while not self.at("}"):
            body.append(self.statement())
        self.expect("punct", "}")
        return N.FunctionDef(name, rtype, params, locals_, body)

    # -- statements --

    def statement(self) -> N.Stmt:
        text = self.peek()[1]
        if text == "{":
            self.take()
            stmts = []
            while not self.at("}"):
                stmts.append(self.statement())
            self.expect("punct", "}")
            if len(stmts) == 1:
                return stmts[0]
            return N.Block(stmts)
        if text == "if":
            self.take()
            self.expect("punct", "(")
            cond = self.expression()
            self.expect("punct", ")")
            then = self.statement()
            els = None
            if self.at("else"):
                self.take()
                els = self.statement()
            return N.If(cond, then, els)
        if text == "while":
            self.take()
            self.expect("punct", "(")
            cond = self.expression()
            self.expect("punct", ")")
            body = self.statement()
            return N.While(cond, body)
        if text == "return":
            self.take()
            if self.at(";"):
                self.take()
                return N.Return(None)
            value = self.expression()
            self.expect("punct", ";")
            return N.Return(value)
        e = self.expression()
        self.expect("punct", ";")
        return N.ExprStmt(e)

    # -- expressions --

    def expression(self) -> N.Expr:
        left = self.binary(1)
        if self.at("="):
            t = self.take()
            if not isinstance(left, (N.Var, N.FieldAccess)):
                raise ParseError("assignment target must be a variable or field", t[2], t[3])
            return N.Assign(left, self.expression())
        return left

    def binary(self, min_prec: int) -> N.Expr:
        # precedence climbing: the right operand binds only tighter operators,
        # so operators of one level nest to the left
        e = self.unary()
        while (prec := N.BINARY_PREC.get(self.peek()[1], 0)) >= min_prec:
            op = self.take()[1]
            e = N.Binary(op, e, self.binary(prec + 1))
        return e

    def unary(self) -> N.Expr:
        if self.at("!"):
            self.take()
            return N.Unary("!", self.unary())
        e = self.primary()
        while self.at("->"):
            self.take()
            e = N.FieldAccess(e, self.expect("ident")[1])
        return e

    def primary(self) -> N.Expr:
        t = self.peek()
        kind, text = t[0], t[1]
        if kind == "int":
            self.take()
            try:
                return N.IntLit(int(text))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ParseError("integer literal too long", t[2], t[3]) from None
        if text == "NULL":
            self.take()
            return N.NullLit()
        if text == "(":
            # "(struct S*) malloc(sizeof(struct S))" — cast parsed, discarded
            if self.at("struct", ahead=1):
                self.take()
                self.expect("kw", "struct")
                cast_struct = self.expect("ident")[1]
                self.expect("punct", "*")
                self.expect("punct", ")")
                m = self.malloc_expr()
                if m.struct != cast_struct:
                    raise ParseError(
                        f"malloc cast (struct {cast_struct}*) does not match sizeof(struct {m.struct})",
                        t[2], t[3],
                    )
                return m
            self.take()
            e = self.expression()
            self.expect("punct", ")")
            return e
        if kind == "ident":
            if text == "malloc":
                return self.malloc_expr()
            if self.at("(", ahead=1):
                self.take()
                self.take()
                args = []
                if not self.at(")"):
                    while True:
                        args.append(self.expression())
                        if self.at(","):
                            self.take()
                            continue
                        break
                self.expect("punct", ")")
                return N.Call(text, args)
            self.take()
            return N.Var(text)
        raise ParseError(f"unexpected token {t[1] or t[0]!r}", t[2], t[3])

    def malloc_expr(self) -> N.Malloc:
        self.expect("ident", "malloc")
        self.expect("punct", "(")
        tok = self.expect("ident")
        if tok[1] != "sizeof":
            raise ParseError("malloc argument must be sizeof(struct S)", tok[2], tok[3])
        self.expect("punct", "(")
        self.expect("kw", "struct")
        sname = self.expect("ident")[1]
        self.expect("punct", ")")
        self.expect("punct", ")")
        return N.Malloc(sname)


def parse(src: str) -> N.Program:
    return _Parser(scan(src)).program()
