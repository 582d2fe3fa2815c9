"""Symbolic execution of one function call, producing result patterns.

The machine is a small-step interpreter over a continuation stack (`k`) and
an expression value stack, exploring branches depth-first with the true
branch first (the false one first in an all-or-nothing run, see `se`).
Three mechanisms matter beyond plain evaluation:

* Guard decisions. Branches and dereferences fork in one place,
  `_Engine._decide`. An atom the current conditions do not already decide
  clones the pattern, one successor per polarity, and records the atom or
  its negation — in the memory condition cell when it tests an address
  against NULL (heap shape discovery), in the ordinary path condition
  otherwise. A decision the conditions already entail takes a single
  successor and records nothing; when they record the atom or its
  negation, that decides it with one solver question. A branch pushes the
  outcome as 1 or 0; a dereference turns the NULL outcome into an error
  leaf. An int is true when it is not 0. The solver's answers come from a
  `SatCache` the caller may share between runs (`infer_spec` shares one
  between the modifier run and every observer replay).

* Lazy heaps. The input heap starts unknown. Dereferencing an address the
  conditions allow to be non-null conjures an empty object for it; reading
  a field never seen before conjures a fresh value of the field's type.
  Both discoveries are mirrored into the pattern's entry heap, which ends
  up describing exactly the slice of the input this branch depends on.
  With `lazy_aliasing`, a newly discovered object may also be one of the
  already-discovered input objects, one extra successor per candidate.

* Loop budgets. Every loop-guard evaluation that required a genuine split
  since the last check marks the iteration as a real decision; only those
  iterations count against the unroll bound. Iterations whose guard was
  entailed are free, so post-state walks over already-discovered heaps do
  not burn budget. Paths cut at the bound are tallied, not emitted. A run
  is out of its pattern budget only when a leaf it would keep does not fit.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import constraints as C
from .constraints import Atom, IntConst, NullRef, SatResult, SymAddrRef
from .frontend import nodes
from .symstate import (
    FINAL,
    ERROR,
    MISSING,
    NULL_ADDR,
    UNDEF,
    Addr,
    Allocator,
    CallPattern,
    Frame,
    HeapObject,
    Pattern,
    SymAddress,
    TypedValue,
    bind_frame,
    make_call_pattern,
)

# ---------------------------------------------------------------- limits

@dataclass
class Limits:
    unroll_bound: int = 1
    max_patterns: int = 4096
    max_steps: int = 100000


@dataclass
class SEResult:
    patterns: list  # terminal patterns in emission order
    truncated_paths: int
    budget_error: bool
    split_log: list  # [(Constraint, Constraint)] per genuine split
    # the run stopped early: `reject` held for its last pattern, or a path
    # was cut at the unroll bound
    rejected: bool = False

    @property
    def final_patterns(self) -> list:
        return [p for p in self.patterns if p.status == FINAL]

    @property
    def error_patterns(self) -> list:
        return [p for p in self.patterns if p.status == ERROR]


# ---------------------------------------------------------------- k items

@dataclass(frozen=True)
class KStmt:
    stmt: object


@dataclass(frozen=True)
class KPop:
    pass


@dataclass(frozen=True)
class KExpr:
    expr: object
    hint: str = ""


@dataclass(frozen=True)
class KBranch:
    then: object
    els: object


@dataclass(frozen=True)
class KLoopCheck:
    node: object


@dataclass(frozen=True)
class KLoopDecide:
    node: object


@dataclass(frozen=True)
class KCompare:
    op: str


@dataclass(frozen=True)
class KArith:
    op: str


@dataclass(frozen=True)
class KTruth:
    pass


@dataclass(frozen=True)
class KNot:
    pass


@dataclass(frozen=True)
class KAndRight:
    expr: object


@dataclass(frozen=True)
class KOrRight:
    expr: object


@dataclass(frozen=True)
class KField:
    fname: str
    struct_name: str


@dataclass(frozen=True)
class KAssignVar:
    name: str


@dataclass(frozen=True)
class KWriteField:
    fname: str
    struct_name: str


@dataclass(frozen=True)
class KInvoke:
    fname: str
    argc: int
    site: int


@dataclass(frozen=True)
class KCallBoundary:
    pass


@dataclass(frozen=True)
class KReturn:
    has_value: bool


_CMP_TO_ATOM = {"==": C.EQ, "!=": C.NEQ, "<": C.LT, "<=": C.LE, ">": C.GT, ">=": C.GE}


def _body(f) -> list:
    """The continuation that runs `f`'s body up to its return."""
    return [KStmt(x) for x in f.body] + [KCallBoundary()]


# ---------------------------------------------------------------- engine

class _Engine:
    def __init__(self, index, limits: Limits, alloc: Allocator, lazy_aliasing: bool,
                 sat: C.SatCache):
        self.index = index
        self.limits = limits
        self.alloc = alloc
        self.lazy_aliasing = lazy_aliasing
        self.truncated = 0
        self.budget_error = False
        self.split_log: list = []
        # satisfiability of "path condition plus one atom"; the caller may
        # share it with other runs
        self.sat = sat

    # -------------------------------------------------- main loop

    def run(self, start: Pattern, reject=None) -> SEResult:
        out: list[Pattern] = []
        finals = errors = 0
        rejected = False
        stack = [start]
        while stack:
            p = stack.pop()
            if p.status != "running":
                if p.status == FINAL:
                    p.provenance_id = f"p{finals}"
                    finals += 1
                else:
                    p.provenance_id = f"e{errors}"
                    errors += 1
                if reject is not None and reject(p):
                    out.append(p)
                    rejected = True
                    break
                # out of budget only when a leaf the run keeps does not fit;
                # work left that is cut at the bound loses nothing
                if len(out) >= self.limits.max_patterns:
                    self.budget_error = True
                    break
                out.append(p)
                continue
            succs = self.step(p)
            if reject is not None and self.truncated:
                rejected = True
                break
            # Without `reject`, the first successor (true branch, object)
            # is explored first, which fixes the pN numbering. With it, the
            # last one (loop exit, NULL error) is: shallow leaves that rule
            # the run out show up before the deep walk to the bound.
            stack.extend(succs if reject is not None else reversed(succs))
        return SEResult(out, self.truncated, self.budget_error, self.split_log,
                        rejected)

    # -------------------------------------------------- helpers

    def _error(self, p: Pattern, reason: str) -> Pattern:
        p.status = ERROR
        p.error_reason = reason
        p.k = []
        return p

    def _materialize(self, p: Pattern, a: SymAddress, struct_name: str) -> None:
        if a in p.heap:
            return
        p.heap[a] = HeapObject(struct_name, {}, lazy=True)
        p.entry_heap[a] = HeapObject(struct_name, {}, lazy=True)
        for m in sorted(p.malloced, key=lambda x: (x.display, x.sid)):
            p.add_alloc_atom(Atom(C.NEQ, a.ref, m.ref))

    def _fill(self, p: Pattern, a: SymAddress, fname: str, ftype: nodes.CType):
        display = f"{a.display}.{fname}"
        if ftype.kind == "structptr":
            v = Addr(self.alloc.derived_addr(display))
        elif ftype.kind == "voidptr":
            v = TypedValue(ftype, self.alloc.derived_data(display))
        elif ftype.kind == "int":
            v = TypedValue(ftype, self.alloc.derived_int(display))
        else:
            v = UNDEF
        obj = p.heap[a]
        obj.fields[fname] = v
        entry = p.entry_heap.get(a)
        if isinstance(entry, HeapObject) and fname not in entry.fields:
            entry.fields[fname] = v
        return v

    def _decide(self, p: Pattern, atom: Atom) -> list[tuple[Pattern, bool]]:
        """Decide `atom` on `p`: one (successor, whether `atom` holds) pair
        per polarity the conditions allow, the holding one first. An
        entailed polarity keeps `p` and records nothing; a genuine split
        clones `p`, records the atom on one side and its negation on the
        other, and logs the split. A side that rests on an Unknown verdict
        is marked `approx`. When the conditions record the atom or its
        negation, only their own verdict is asked: Unsat leaves no
        successor, anything else keeps `p` on the recorded side."""
        neg = C.negate_atom(atom)
        base = p.combined_condition()
        for recorded, holds in ((atom, True), (neg, False)):
            if recorded in base.atoms:
                verdict = self.sat.check(base, recorded)
                if verdict == SatResult.UNSAT:
                    return []
                if verdict == SatResult.UNKNOWN:
                    p.approx = True
                return [(p, holds)]
        st = self.sat.check(base, atom)
        sf = self.sat.check(base, neg)
        if st == SatResult.UNSAT and sf == SatResult.UNSAT:
            return []
        if SatResult.UNSAT in (st, sf):
            holds = sf == SatResult.UNSAT
            if (st if holds else sf) == SatResult.UNKNOWN:
                p.approx = True
            return [(p, holds)]
        q = p.clone()
        mem = {type(atom.lhs), type(atom.rhs)} == {SymAddrRef, NullRef}
        for r, a, verdict in ((p, atom, st), (q, neg, sf)):
            if mem:
                r.add_mem_atom(a)
            else:
                r.add_path_atom(a)
            if verdict == SatResult.UNKNOWN:
                r.approx = True
            r.guard_split = True
        self.split_log.append((p.combined_condition(), q.combined_condition()))
        return [(p, True), (q, False)]

    def _binary_split(self, p: Pattern, atom: Atom) -> list[Pattern]:
        """Decide `atom`; each successor gets its outcome, 1 or 0, pushed
        on its value stack."""
        out = []
        for q, holds in self._decide(p, atom):
            q.vals.append(TypedValue(nodes.INT, 1 if holds else 0))
            out.append(q)
        return out

    def _deref(self, p: Pattern, value, struct_name: str, then):
        """Dereference a pointer value; `then(pattern, address)` continues
        the work on each successor that reached an object. Successors come
        as [object, aliases..., NULL error]."""
        if value is UNDEF:
            return [self._error(p, "read of undefined value")]
        if value is NULL_ADDR:
            return [self._error(p, "NULL dereference")]
        if not isinstance(value, Addr):
            return [self._error(p, "dereference of a non-address value")]
        target = p.resolve(value.target)
        outcomes = self._decide(p, Atom(C.NEQ, target.ref, NullRef()))
        succs = []
        for q, is_object in outcomes:
            if not is_object:
                succs.append(self._error(q, "NULL dereference"))
                continue
            worlds = [(q, target)]
            if len(outcomes) == 2 and self.lazy_aliasing and target not in q.heap:
                worlds += self._alias_worlds(q, target, struct_name)
            self._materialize(q, target, struct_name)
            for w, obj in worlds:
                then(w, obj)
                succs.append(w)
        return succs

    def _alias_worlds(self, ok: Pattern, target: SymAddress, struct_name: str):
        """With `target` newly found non-null on `ok`: one (pattern,
        object) per already-discovered object it may be. `ok` itself is
        told that `target` is none of them."""
        cands = sorted(
            (a for a, o in ok.heap.items()
             if isinstance(o, HeapObject) and o.lazy
             and o.struct_name == struct_name and a != target),
            key=lambda a: (a.display, a.sid),
        )
        if not cands:
            return []
        base = ok.combined_condition()
        worlds = []
        for cand in cands:
            alias = Atom(C.EQ, target.ref, cand.ref)
            if self.sat.check(base, alias) != SatResult.UNSAT:
                al = ok.clone()
                al.add_mem_atom(alias)
                al.aliases[target] = cand
                worlds.append((al, cand))
        for cand in cands:
            ok.add_mem_atom(Atom(C.NEQ, target.ref, cand.ref))
        return worlds

    @staticmethod
    def _value_term(v):
        if v is NULL_ADDR:
            return NullRef()
        if isinstance(v, Addr):
            return v.target.ref
        if isinstance(v, TypedValue):
            if isinstance(v.payload, int):
                return IntConst(v.payload)
            return v.payload
        return None

    def _push_truth(self, p: Pattern, v):
        """Reduce an int value (the resolver admits no other condition) to
        concrete 0/1 on each successor."""
        if v is UNDEF:
            return [self._error(p, "read of undefined value")]
        if isinstance(v.payload, int):
            p.vals.append(TypedValue(nodes.INT, 1 if v.payload != 0 else 0))
            return [p]
        return self._binary_split(p, Atom(C.NEQ, v.payload, IntConst(0)))

    # -------------------------------------------------- stepping

    def step(self, p: Pattern) -> list[Pattern]:
        p.steps += 1
        if p.steps > self.limits.max_steps:
            self.budget_error = True
            return [self._error(p, "step budget exceeded")]
        item = p.k.pop(0)

        if isinstance(item, KStmt):
            return self._step_stmt(p, item.stmt)
        if isinstance(item, KPop):
            p.vals.pop()
            return [p]
        if isinstance(item, KExpr):
            return self._step_expr(p, item.expr, item.hint)
        if isinstance(item, KBranch):
            v = p.vals.pop()
            taken = item.then if v.payload != 0 else item.els
            if taken is not None:
                p.k.insert(0, KStmt(taken))
            return [p]
        if isinstance(item, KLoopCheck):
            p.guard_split = False
            p.k[:0] = [KExpr(item.node.cond), KTruth(), KLoopDecide(item.node)]
            return [p]
        if isinstance(item, KLoopDecide):
            v = p.vals.pop()
            if v.payload == 0:
                return [p]
            key = id(item.node)
            if p.guard_split:
                count = p.loop_counts.get(key, 0) + 1
                if count > self.limits.unroll_bound:
                    self.truncated += 1
                    return []
                p.loop_counts[key] = count
            p.k[:0] = [KStmt(item.node.body), KLoopCheck(item.node)]
            return [p]
        if isinstance(item, KCompare):
            return self._step_compare(p, item.op)
        if isinstance(item, KArith):
            r = p.vals.pop()
            l = p.vals.pop()
            if not (isinstance(l, TypedValue) and isinstance(r, TypedValue)):
                return [self._error(p, "arithmetic on a non-integer value")]
            if isinstance(l.payload, int) and isinstance(r.payload, int):
                n = l.payload + r.payload if item.op == "+" else l.payload - r.payload
                p.vals.append(TypedValue(nodes.INT, n))
                return [p]
            lt, rt = self._value_term(l), self._value_term(r)
            s = self.alloc.fresh_int(f"i{self.alloc._next}")
            expr = C.Add(lt, rt) if item.op == "+" else C.Sub(lt, rt)
            p.add_path_atom(Atom(C.EQ, s, expr))
            p.vals.append(TypedValue(nodes.INT, s))
            return [p]
        if isinstance(item, KTruth):
            return self._push_truth(p, p.vals.pop())
        if isinstance(item, KNot):
            v = p.vals.pop()
            p.vals.append(TypedValue(nodes.INT, 0 if v.payload != 0 else 1))
            return [p]
        if isinstance(item, KAndRight):
            v = p.vals.pop()
            if v.payload == 0:
                p.vals.append(TypedValue(nodes.INT, 0))
            else:
                p.k[:0] = [KExpr(item.expr), KTruth()]
            return [p]
        if isinstance(item, KOrRight):
            v = p.vals.pop()
            if v.payload != 0:
                p.vals.append(TypedValue(nodes.INT, 1))
            else:
                p.k[:0] = [KExpr(item.expr), KTruth()]
            return [p]
        if isinstance(item, KField):
            base = p.vals.pop()

            def read(q: Pattern, addr: SymAddress):
                obj = q.heap[addr]
                v = obj.fields.get(item.fname, MISSING)
                if v is MISSING:
                    if obj.lazy:
                        ftype = dict(self.index.structs[item.struct_name].fields)[item.fname]
                        v = self._fill(q, addr, item.fname, ftype)
                    else:
                        self._error(q, f"read of uninitialized field '{item.fname}'")
                        return
                q.vals.append(v)

            return self._deref(p, base, item.struct_name, read)
        if isinstance(item, KAssignVar):
            v = p.vals[-1]
            cell = p.env[item.name]
            p.heap[cell] = v
            return [p]
        if isinstance(item, KWriteField):
            base = p.vals.pop()
            val = p.vals.pop()

            def write(q: Pattern, addr: SymAddress):
                q.heap[addr].fields[item.fname] = val
                q.vals.append(val)

            return self._deref(p, base, item.struct_name, write)
        if isinstance(item, KInvoke):
            return self._step_invoke(p, item)
        if isinstance(item, KCallBoundary):
            return self._do_return(p, UNDEF, boundary_consumed=True)
        if isinstance(item, KReturn):
            rv = p.vals.pop() if item.has_value else UNDEF
            return self._do_return(p, rv, boundary_consumed=False)
        raise TypeError(f"unknown continuation item {item!r}")

    # -------------------------------------------------- statements

    def _step_stmt(self, p: Pattern, s) -> list[Pattern]:
        if isinstance(s, nodes.Block):
            p.k[:0] = [KStmt(x) for x in s.stmts]
            return [p]
        if isinstance(s, nodes.ExprStmt):
            p.k[:0] = [KExpr(s.expr), KPop()]
            return [p]
        if isinstance(s, nodes.If):
            p.k[:0] = [KExpr(s.cond), KTruth(), KBranch(s.then, s.els)]
            return [p]
        if isinstance(s, nodes.While):
            p.k.insert(0, KLoopCheck(s))
            return [p]
        if isinstance(s, nodes.Return):
            if s.value is not None:
                p.k[:0] = [KExpr(s.value), KReturn(True)]
            else:
                p.k.insert(0, KReturn(False))
            return [p]
        raise TypeError(f"unknown statement {s!r}")

    # -------------------------------------------------- expressions

    def _step_expr(self, p: Pattern, e, hint: str) -> list[Pattern]:
        if isinstance(e, nodes.IntLit):
            p.vals.append(TypedValue(nodes.INT, e.value))
            return [p]
        if isinstance(e, nodes.NullLit):
            p.vals.append(NULL_ADDR)
            return [p]
        if isinstance(e, nodes.Var):
            cell = p.env.get(e.name)
            if cell is None:
                return [self._error(p, f"unbound variable '{e.name}'")]
            v = p.heap.get(cell, UNDEF)
            if v is UNDEF:
                return [self._error(p, f"read of undefined variable '{e.name}'")]
            p.vals.append(v)
            return [p]
        if isinstance(e, nodes.FieldAccess):
            p.k[:0] = [KExpr(e.base), KField(e.fieldname, e.struct_name)]
            return [p]
        if isinstance(e, nodes.Unary):
            p.k[:0] = [KExpr(e.operand), KTruth(), KNot()]
            return [p]
        if isinstance(e, nodes.Binary):
            if e.op == "&&":
                p.k[:0] = [KExpr(e.left), KTruth(), KAndRight(e.right)]
            elif e.op == "||":
                p.k[:0] = [KExpr(e.left), KTruth(), KOrRight(e.right)]
            elif e.op in ("+", "-"):
                p.k[:0] = [KExpr(e.left), KExpr(e.right), KArith(e.op)]
            else:
                p.k[:0] = [KExpr(e.left), KExpr(e.right), KCompare(e.op)]
            return [p]
        if isinstance(e, nodes.Assign):
            t = e.target
            if isinstance(t, nodes.Var):
                p.k[:0] = [KExpr(e.value, hint=t.name), KAssignVar(t.name)]
            else:
                p.k[:0] = [KExpr(e.value), KExpr(t.base),
                           KWriteField(t.fieldname, t.struct_name)]
            return [p]
        if isinstance(e, nodes.Malloc):
            name = hint or "obj"
            m = self.alloc.fresh_addr(name)
            for a, o in list(p.heap.items()):
                if isinstance(o, HeapObject):
                    p.add_alloc_atom(Atom(C.NEQ, m.ref, a.ref))
            p.add_alloc_atom(Atom(C.NEQ, m.ref, NullRef()))
            p.heap[m] = HeapObject(e.struct, {}, lazy=False)
            p.malloced = p.malloced | {m}
            p.vals.append(Addr(m))
            return [p]
        if isinstance(e, nodes.Call):
            items = [KExpr(a) for a in e.args]
            items.append(KInvoke(e.fname, len(e.args), id(e)))
            p.k[:0] = items
            return [p]
        raise TypeError(f"unknown expression {e!r}")

    # -------------------------------------------------- comparison

    def _step_compare(self, p: Pattern, op: str) -> list[Pattern]:
        r = p.vals.pop()
        l = p.vals.pop()
        if l is UNDEF or r is UNDEF:
            return [self._error(p, "read of undefined value")]
        # concrete integer comparison
        if (isinstance(l, TypedValue) and isinstance(r, TypedValue)
                and isinstance(l.payload, int) and isinstance(r.payload, int)):
            res = {
                "==": l.payload == r.payload, "!=": l.payload != r.payload,
                "<": l.payload < r.payload, "<=": l.payload <= r.payload,
                ">": l.payload > r.payload, ">=": l.payload >= r.payload,
            }[op]
            p.vals.append(TypedValue(nodes.INT, 1 if res else 0))
            return [p]
        # NULL == NULL and same-address fast paths
        if l is NULL_ADDR and r is NULL_ADDR:
            res = op in ("==", "<=", ">=")
            p.vals.append(TypedValue(nodes.INT, 1 if res else 0))
            return [p]
        if isinstance(l, Addr):
            l = Addr(p.resolve(l.target))
        if isinstance(r, Addr):
            r = Addr(p.resolve(r.target))
        if isinstance(l, Addr) and isinstance(r, Addr) and l.target == r.target:
            res = op in ("==", "<=", ">=")
            p.vals.append(TypedValue(nodes.INT, 1 if res else 0))
            return [p]
        lt = self._value_term(l)
        rt = self._value_term(r)
        if lt is None or rt is None:
            return [self._error(p, "comparison of incomparable values")]
        return self._binary_split(p, Atom(_CMP_TO_ATOM[op], lt, rt))

    # -------------------------------------------------- calls

    def _step_invoke(self, p: Pattern, item: KInvoke) -> list[Pattern]:
        f = self.index.functions.get(item.fname)
        if f is None:
            return [self._error(p, f"call to unknown function '{item.fname}'")]
        args = [p.vals.pop() for _ in range(item.argc)][::-1]
        if len(f.params) != len(args):
            return [self._error(p, f"arity mismatch calling '{item.fname}'")]
        active = sum(1 for fr in p.call_stack if fr.call_site == item.site)
        if active >= self.limits.unroll_bound:
            self.truncated += 1
            return []
        p.call_stack.append(Frame(item.fname, item.site, p.env, p.loop_counts))
        p.env = bind_frame(f, args, p.heap, self.alloc)
        p.loop_counts = {}
        p.k[:0] = _body(f)
        return [p]

    def _do_return(self, p: Pattern, rv, boundary_consumed: bool) -> list[Pattern]:
        if not boundary_consumed:
            while p.k:
                top = p.k.pop(0)
                if isinstance(top, KCallBoundary):
                    break
        if p.call_stack:
            frame = p.call_stack.pop()
            p.env = frame.saved_env
            p.loop_counts = frame.loop_counts
            p.vals.append(rv)
            return [p]
        p.status = FINAL
        p.return_value = rv
        p.k = []
        return [p]


# ---------------------------------------------------------------- API

def se(
    index,
    call_pattern: CallPattern,
    limits: Limits | None = None,
    alloc: Allocator | None = None,
    lazy_aliasing: bool = False,
    reject=None,
    sat: C.SatCache | None = None,
) -> SEResult:
    """Execute `call_pattern` symbolically and return every terminal
    pattern (finals and errors), the count of bound-cut paths, and the log
    of genuine guard splits. `budget_error` is set when a terminal pattern
    the run would keep finds `limits.max_patterns` already kept, or when a
    path runs out of steps.

    `reject` is an optional predicate over terminal patterns. With it, the
    run is all-or-nothing: it stops at the first terminal pattern `reject`
    holds for, or at the first path cut at the unroll bound, and sets
    `rejected`. Exploration then takes the last successor of each split
    first, so the patterns come in another order than without it.

    `sat` answers the run's solver questions. Runs may share it; a run
    without one gets a fresh cache."""
    limits = limits or Limits()
    alloc = alloc or Allocator()
    eng = _Engine(index, limits, alloc, lazy_aliasing,
                  C.SatCache() if sat is None else sat)
    f = index.functions.get(call_pattern.fname)
    if f is None:
        raise KeyError(f"unknown function '{call_pattern.fname}'")
    p = make_call_pattern(index, call_pattern, alloc)
    p.k = _body(f)
    return eng.run(p, reject)
