"""AST node types plus the pretty-printer used for the round-trip check.

Type annotations added by the resolver live in `ctype` (and, on a field
access, `struct_name`) attributes that each node's equality key leaves
out, so two independent parses of the same source compare equal, whether
or not the resolver has annotated them.
"""

from __future__ import annotations

from ..record import Frozen, Record, setfield

# ---- types ----


class CType(Frozen):
    __slots__ = ("kind", "struct")

    def __init__(self, kind: str, struct: str | None = None):
        setfield(self, "kind", kind)  # "int" | "void" | "voidptr" | "structptr" | "nullptr"
        setfield(self, "struct", struct)

    def _key(self):
        return (self.kind, self.struct)

    def render(self) -> str:
        if self.kind == "int":
            return "int"
        if self.kind == "void":
            return "void"
        if self.kind == "voidptr":
            return "void*"
        if self.kind == "nullptr":
            return "NULL"
        return f"struct {self.struct}*"

    @property
    def is_pointer(self) -> bool:
        return self.kind in ("voidptr", "structptr")


INT = CType("int")
VOID = CType("void")
VOIDPTR = CType("voidptr")


def structptr(name: str) -> CType:
    return CType("structptr", name)


# ---- expressions ----


class Expr(Record):
    # the resolver's annotation: the expression's C type
    ctype: CType | None = None


class IntLit(Expr):
    def __init__(self, value: int):
        self.value = value

    def _key(self):
        return (self.value,)


class NullLit(Expr):
    def _key(self):
        return ()


class Var(Expr):
    def __init__(self, name: str):
        self.name = name

    def _key(self):
        return (self.name,)


class FieldAccess(Expr):
    struct_name: str | None = None  # the resolver's annotation: the base's struct

    def __init__(self, base: Expr, fieldname: str):
        self.base = base
        self.fieldname = fieldname

    def _key(self):
        return (self.base, self.fieldname)


class Unary(Expr):
    def __init__(self, op: str, operand: Expr):
        self.op = op  # "!"
        self.operand = operand

    def _key(self):
        return (self.op, self.operand)


class Binary(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op  # == != < <= > >= + - && ||
        self.left = left
        self.right = right

    def _key(self):
        return (self.op, self.left, self.right)


class Assign(Expr):
    def __init__(self, target: Expr, value: Expr):
        self.target = target  # Var or FieldAccess
        self.value = value

    def _key(self):
        return (self.target, self.value)


class Call(Expr):
    def __init__(self, fname: str, args: list[Expr]):
        self.fname = fname
        self.args = args

    def _key(self):
        return (self.fname, self.args)


class Malloc(Expr):
    def __init__(self, struct: str):
        self.struct = struct  # malloc(sizeof(struct S)); any (struct S*) cast is discarded

    def _key(self):
        return (self.struct,)


# ---- statements ----


class Stmt(Record):
    pass


class ExprStmt(Stmt):
    def __init__(self, expr: Expr):
        self.expr = expr

    def _key(self):
        return (self.expr,)


class If(Stmt):
    def __init__(self, cond: Expr, then: Stmt, els: Stmt | None):
        self.cond = cond
        self.then = then
        self.els = els

    def _key(self):
        return (self.cond, self.then, self.els)


class While(Stmt):
    def __init__(self, cond: Expr, body: Stmt):
        self.cond = cond
        self.body = body

    def _key(self):
        return (self.cond, self.body)


class Return(Stmt):
    def __init__(self, value: Expr | None):
        self.value = value

    def _key(self):
        return (self.value,)


class Block(Stmt):
    def __init__(self, stmts: list[Stmt]):
        self.stmts = stmts

    def _key(self):
        return (self.stmts,)


# ---- top level ----


class StructDef(Record):
    def __init__(self, name: str, fields: list[tuple[str, CType]]):
        self.name = name
        self.fields = fields

    def _key(self):
        return (self.name, self.fields)


class FunctionDef(Record):
    def __init__(self, name: str, return_type: CType, params: list[tuple[str, CType]],
                 locals: list[tuple[str, CType]], body: list[Stmt]):
        self.name = name
        self.return_type = return_type
        self.params = params
        self.locals = locals
        self.body = body

    def _key(self):
        return (self.name, self.return_type, self.params, self.locals, self.body)


class Program(Record):
    def __init__(self, structs: list[StructDef], functions: list[FunctionDef]):
        self.structs = structs
        self.functions = functions

    def _key(self):
        return (self.structs, self.functions)


# ---- pretty printer ----

# binding strength of each binary operator, loosest first; the parser climbs
# the same table, so it is the one record of precedence
BINARY_PREC = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3, "+": 4, "-": 4}


def render_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, NullLit):
        return "NULL"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, FieldAccess):
        return f"{render_expr(e.base, 6)}->{e.fieldname}"
    if isinstance(e, Unary):
        s = f"!{render_expr(e.operand, 5)}"
        return f"({s})" if prec > 5 else s
    if isinstance(e, Binary):
        p = BINARY_PREC[e.op]
        s = f"{render_expr(e.left, p)} {e.op} {render_expr(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(e, Assign):
        s = f"{render_expr(e.target, 6)} = {render_expr(e.value, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, Call):
        return f"{e.fname}({', '.join(render_expr(a) for a in e.args)})"
    if isinstance(e, Malloc):
        return f"malloc(sizeof(struct {e.struct}))"
    raise TypeError(f"unknown expression node {e!r}")


def render_stmt(s: Stmt, indent: int = 1) -> str:
    pad = "  " * indent
    if isinstance(s, ExprStmt):
        return f"{pad}{render_expr(s.expr)};"
    if isinstance(s, If):
        if s.els is not None:
            # brace the then-branch so a dangling else cannot rebind on re-parse
            out = f"{pad}if ({render_expr(s.cond)})\n{_render_braced(s.then, indent)}"
            out += f"\n{pad}else\n{render_stmt(s.els, indent + 1)}"
        else:
            out = f"{pad}if ({render_expr(s.cond)})\n{render_stmt(s.then, indent + 1)}"
        return out
    if isinstance(s, While):
        return f"{pad}while ({render_expr(s.cond)})\n{render_stmt(s.body, indent + 1)}"
    if isinstance(s, Return):
        if s.value is None:
            return f"{pad}return;"
        return f"{pad}return {render_expr(s.value)};"
    if isinstance(s, Block):
        inner = "\n".join(render_stmt(x, indent + 1) for x in s.stmts)
        if not inner:
            return f"{pad}{{\n{pad}}}"
        return f"{pad}{{\n{inner}\n{pad}}}"
    raise TypeError(f"unknown statement node {s!r}")


def _render_braced(s: Stmt, indent: int) -> str:
    """Render a statement inside braces (the parser unwraps single-statement
    blocks, so the extra braces do not change the re-parsed tree)."""
    if isinstance(s, Block):
        return render_stmt(s, indent)
    pad = "  " * indent
    return f"{pad}{{\n{render_stmt(s, indent + 1)}\n{pad}}}"


def render_program(prog: Program) -> str:
    parts = []
    for sd in prog.structs:
        lines = [f"struct {sd.name} {{"]
        for fname, ftype in sd.fields:
            lines.append(f"  {ftype.render()} {fname};")
        lines.append("};")
        parts.append("\n".join(lines))
    for fd in prog.functions:
        ps = ", ".join(f"{t.render()} {n}" for n, t in fd.params)
        lines = [f"{fd.return_type.render()} {fd.name}({ps}) {{"]
        for n, t in fd.locals:
            lines.append(f"  {t.render()} {n};")
        for st in fd.body:
            lines.append(render_stmt(st, 1))
        lines.append("}")
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"
