"""Name resolution and type checking; builds the ProgramIndex.

Observers are the functions whose return type is not void; every function
counts as a modifier. One implicit conversion is sanctioned, with a warning:
void* <-> struct pointers (the corpus's `last` returns a void* as a struct
pointer). Everything else must match exactly; NULL is compatible with any
pointer type.
"""

from __future__ import annotations

from . import nodes as N


class ResolveError(Exception):
    pass


class UnknownIdentifier(ResolveError):
    pass


class UnknownField(ResolveError):
    pass


class TypeMismatch(ResolveError):
    pass


class DuplicateDefinition(ResolveError):
    pass


class ProgramIndex:
    def __init__(self, structs: dict[str, N.StructDef], functions: dict[str, N.FunctionDef],
                 observers: set[str]):
        self.structs = structs
        self.functions = functions
        self.observers = observers
        self.warnings: list[str] = []

    def struct_fields(self, sname: str) -> dict[str, N.CType]:
        return dict(self.structs[sname].fields)


def _compatible(expected: N.CType, actual: N.CType, warnings: list[str], where: str) -> bool:
    if expected == actual:
        return True
    if actual.kind == "nullptr":  # NULL literal fits any pointer
        return expected.is_pointer
    if expected.is_pointer and actual.is_pointer:
        # exactly one sanctioned implicit conversion: void* <-> struct S*
        if expected.kind == "voidptr" or actual.kind == "voidptr":
            warnings.append(
                f"implicit pointer conversion {actual.render()} -> {expected.render()} in {where}"
            )
            return True
    return False


_NULLPTR = N.CType("nullptr")


class _Checker:
    def __init__(self, index: ProgramIndex):
        self.index = index
        self.scope: dict[str, N.CType] = {}
        self.fn: N.FunctionDef | None = None

    def check_function(self, fn: N.FunctionDef):
        self.fn = fn
        self.scope = {}
        for name, ctype in list(fn.params) + list(fn.locals):
            if name in self.scope:
                raise DuplicateDefinition(f"duplicate declaration of {name!r} in {fn.name}")
            if ctype.kind == "structptr" and ctype.struct not in self.index.structs:
                raise UnknownIdentifier(f"unknown struct {ctype.struct!r} in {fn.name}")
            self.scope[name] = ctype
        for st in fn.body:
            self.stmt(st)

    def stmt(self, s: N.Stmt):
        if isinstance(s, N.ExprStmt):
            self.expr(s.expr)
        elif isinstance(s, N.If):
            self.condition(s.cond)
            self.stmt(s.then)
            if s.els is not None:
                self.stmt(s.els)
        elif isinstance(s, N.While):
            self.condition(s.cond)
            self.stmt(s.body)
        elif isinstance(s, N.Return):
            rt = self.fn.return_type
            if s.value is None:
                if rt.kind != "void":
                    raise TypeMismatch(f"{self.fn.name}: bare return in non-void function")
            else:
                vt = self.expr(s.value)
                if rt.kind == "void":
                    raise TypeMismatch(f"{self.fn.name}: returning a value from a void function")
                if not _compatible(rt, vt, self.index.warnings, f"return of {self.fn.name}"):
                    raise TypeMismatch(
                        f"{self.fn.name}: cannot return {vt.render()} as {rt.render()}"
                    )
        elif isinstance(s, N.Block):
            for x in s.stmts:
                self.stmt(x)
        else:
            raise TypeError(f"unknown statement {s!r}")

    def condition(self, e: N.Expr):
        t = self.expr(e)
        if t.kind != "int":
            raise TypeMismatch(f"{self.fn.name}: condition must be int, got {t.render()}")

    def expr(self, e: N.Expr) -> N.CType:
        t = self._expr(e)
        e.ctype = t
        return t

    def _expr(self, e: N.Expr) -> N.CType:
        if isinstance(e, N.IntLit):
            return N.INT
        if isinstance(e, N.NullLit):
            return _NULLPTR
        if isinstance(e, N.Var):
            if e.name not in self.scope:
                raise UnknownIdentifier(f"{self.fn.name}: unknown identifier {e.name!r}")
            return self.scope[e.name]
        if isinstance(e, N.FieldAccess):
            bt = self.expr(e.base)
            if bt.kind != "structptr":
                raise TypeMismatch(
                    f"{self.fn.name}: -> applied to {bt.render()}, not a struct pointer"
                )
            fields = self.index.struct_fields(bt.struct)
            if e.fieldname not in fields:
                raise UnknownField(
                    f"{self.fn.name}: struct {bt.struct} has no field {e.fieldname!r}"
                )
            return fields[e.fieldname]
        if isinstance(e, N.Unary):
            ot = self.expr(e.operand)
            if ot.kind != "int":
                raise TypeMismatch(f"{self.fn.name}: ! needs an int operand, got {ot.render()}")
            return N.INT
        if isinstance(e, N.Binary):
            lt = self.expr(e.left)
            rt = self.expr(e.right)
            if e.op not in ("==", "!="):
                if lt.kind != "int" or rt.kind != "int":
                    raise TypeMismatch(f"{self.fn.name}: {e.op} needs int operands")
                return N.INT
            # == / != : both int, or both pointer-ish
            if lt.kind == "int" and rt.kind == "int":
                return N.INT
            lptr = lt.is_pointer or lt.kind == "nullptr"
            rptr = rt.is_pointer or rt.kind == "nullptr"
            if lptr and rptr:
                if lt.kind == "structptr" and rt.kind == "structptr" and lt.struct != rt.struct:
                    raise TypeMismatch(
                        f"{self.fn.name}: comparing {lt.render()} with {rt.render()}"
                    )
                return N.INT
            raise TypeMismatch(f"{self.fn.name}: cannot compare {lt.render()} with {rt.render()}")
        if isinstance(e, N.Assign):
            tt = self.expr(e.target)
            vt = self.expr(e.value)
            if not _compatible(tt, vt, self.index.warnings, f"assignment in {self.fn.name}"):
                raise TypeMismatch(
                    f"{self.fn.name}: cannot assign {vt.render()} to {tt.render()}"
                )
            return tt
        if isinstance(e, N.Call):
            if e.fname not in self.index.functions:
                raise UnknownIdentifier(f"{self.fn.name}: call to unknown function {e.fname!r}")
            callee = self.index.functions[e.fname]
            if len(e.args) != len(callee.params):
                raise TypeMismatch(
                    f"{self.fn.name}: {e.fname} expects {len(callee.params)} args, got {len(e.args)}"
                )
            for arg, (pname, ptype) in zip(e.args, callee.params):
                at = self.expr(arg)
                if not _compatible(ptype, at, self.index.warnings,
                                   f"argument {pname} of {e.fname} (called from {self.fn.name})"):
                    raise TypeMismatch(
                        f"{self.fn.name}: argument {pname} of {e.fname} wants "
                        f"{ptype.render()}, got {at.render()}"
                    )
            return callee.return_type
        if isinstance(e, N.Malloc):
            if e.struct not in self.index.structs:
                raise UnknownIdentifier(f"{self.fn.name}: malloc of unknown struct {e.struct!r}")
            return N.structptr(e.struct)
        raise TypeError(f"unknown expression {e!r}")


def resolve(program: N.Program) -> ProgramIndex:
    structs: dict[str, N.StructDef] = {}
    for sd in program.structs:
        if sd.name in structs:
            raise DuplicateDefinition(f"duplicate struct {sd.name!r}")
        seen = set()
        for fname, ftype in sd.fields:
            if fname in seen:
                raise DuplicateDefinition(f"duplicate field {fname!r} in struct {sd.name}")
            seen.add(fname)
        structs[sd.name] = sd
    functions: dict[str, N.FunctionDef] = {}
    for fd in program.functions:
        if fd.name in functions:
            raise DuplicateDefinition(f"duplicate function {fd.name!r}")
        functions[fd.name] = fd
    for sd in structs.values():
        for fname, ftype in sd.fields:
            if ftype.kind == "structptr" and ftype.struct not in structs:
                raise UnknownIdentifier(f"struct {sd.name}: field {fname} names unknown struct {ftype.struct!r}")

    index = ProgramIndex(
        structs=structs,
        functions=functions,
        observers={f.name for f in functions.values() if f.return_type.kind != "void"},
    )
    checker = _Checker(index)
    for fd in functions.values():
        checker.check_function(fd)
    return index


def load_program(src: str) -> ProgramIndex:
    from .parser import parse

    return resolve(parse(src))
