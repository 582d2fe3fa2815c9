"""Symbolic execution of one function call, producing result patterns.

The machine is a small-step interpreter over a continuation stack (`k`) and
an expression value stack, exploring branches depth-first with the true
branch first (the false one first in an all-or-nothing run, see `se`).

Every continuation frame is a `(handler, data)` pair, top last. The data
is the AST node that pushed the frame, and the handler reads what it needs
from it (an operator, a field name, the branches of an `if`). A statement or
expression is pushed with the handler `_HANDLERS` gives its node class;
that handler pushes the frames for its operands and for the work after
them. One step pops and runs one frame, so `Limits.max_steps` counts
frames.

The continuation is the only record of pending calls. A call pushes a
return frame under the callee's body; its data is the call node plus the
caller's env and loop counts, which the frame restores when the callee
returns. The entry call's body sits on its exit frame instead, whose data
is the function and which ends the path. A `return` drops the frames down
to the nearest return or exit frame, and running off the end of a body
reaches that frame too. The recursion depth of a call is the number of
return frames for its call node.

A value is its own condition term (see `symstate`), so a comparison puts
its operands into the atom it decides as they are, and symbolic `+`/`-`
records `s = l + r` for a fresh int `s` over the operands themselves.

Three mechanisms matter beyond plain evaluation:

* Guard decisions. Branches and dereferences fork in one place,
  `_Engine._decide`. An atom the current conditions do not already decide
  clones the pattern, one successor per polarity, and records the atom or
  its negation — in the memory condition cell when it tests an address
  against NULL (heap shape discovery), in the ordinary path condition
  otherwise. A decision the conditions already entail takes a single
  successor and records nothing; when they record the atom or its
  negation, that decides it with one solver question. The conditions are
  the pattern's stored conjunction (`Pattern.condition`), and
  the negation is built only when the atom itself is not recorded. A
  branch pushes the outcome as the shared 1 or 0; a dereference turns the
  NULL outcome into an error leaf. An int is true when it is not 0. The
  solver's answers come from a `SatCache` the caller may share between
  runs (`infer_spec` shares one between the modifier run and every
  observer replay).

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

import operator

from . import constraints as C
from .constraints import Atom, IntConst, NullRef, SatResult, SymAddrRef
from .frontend import nodes
from .record import Record
from .symstate import (
    FINAL,
    ERROR,
    MISSING,
    UNDEF,
    Allocator,
    CallPattern,
    HeapObject,
    Pattern,
    bind_frame,
    fresh_value,
    make_call_pattern,
)

# ---------------------------------------------------------------- limits

class Limits(Record):
    def __init__(self, unroll_bound: int = 1, max_patterns: int = 4096,
                 max_steps: int = 100000):
        self.unroll_bound = unroll_bound
        self.max_patterns = max_patterns
        self.max_steps = max_steps

    def _key(self):
        return (self.unroll_bound, self.max_patterns, self.max_steps)


class SEResult:
    def __init__(self, patterns: list, truncated_paths: int, budget_error: bool,
                 split_log: list, rejected: bool):
        self.patterns = patterns  # terminal patterns in emission order
        self.truncated_paths = truncated_paths
        self.budget_error = budget_error
        self.split_log = split_log  # [(Constraint, Constraint)] per genuine split
        # the run stopped early: `reject` held for its last pattern, or a path
        # was cut at the unroll bound
        self.rejected = rejected

    @property
    def final_patterns(self) -> list:
        return [p for p in self.patterns if p.status == FINAL]

    @property
    def error_patterns(self) -> list:
        return [p for p in self.patterns if p.status == ERROR]


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

    def _materialize(self, p: Pattern, a: SymAddrRef, struct_name: str) -> None:
        if a in p.heap:
            return
        p.heap[a] = HeapObject(struct_name, {}, lazy=True)
        p.entry_heap[a] = HeapObject(struct_name, {}, lazy=True)
        for m in sorted(p.malloced, key=lambda x: (x.display, x.sid)):
            p.add_alloc_atom(Atom(C.NEQ, a, m))

    def _fill(self, p: Pattern, a: SymAddrRef, fname: str, ftype: nodes.CType):
        # the display derives from `a`'s, which already carries any label
        v = fresh_value(self.alloc, ftype, f"{a.display}.{fname}")
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
        base = p.condition
        # the negation is only built when the atom itself is not recorded
        neg = None if atom in base.atoms else C.negate_atom(atom)
        if neg is None or neg in base.atoms:
            verdict = self.sat.check(base, atom if neg is None else neg)
            if verdict == SatResult.UNSAT:
                return []
            if verdict == SatResult.UNKNOWN:
                p.approx = True
            return [(p, neg is None)]
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
        self.split_log.append((p.condition, q.condition))
        return [(p, True), (q, False)]

    def _binary_split(self, p: Pattern, atom: Atom) -> list[Pattern]:
        """Decide `atom`; each successor gets its outcome, 1 or 0, pushed
        on its value stack."""
        out = []
        for q, holds in self._decide(p, atom):
            q.vals.append(_ONE if holds else _ZERO)
            out.append(q)
        return out

    def _deref(self, p: Pattern, value, struct_name: str, then):
        """Dereference a pointer value; `then(pattern, address)` continues
        the work on each successor that reached an object. Successors come
        as [object, aliases..., NULL error]."""
        if value is UNDEF:
            return [self._error(p, "read of undefined value")]
        if value is C.NULL:
            return [self._error(p, "NULL dereference")]
        if not isinstance(value, SymAddrRef):
            return [self._error(p, "dereference of a non-address value")]
        target = p.resolve(value)
        outcomes = self._decide(p, Atom(C.NEQ, target, C.NULL))
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

    def _alias_worlds(self, ok: Pattern, target: SymAddrRef, struct_name: str):
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
        base = ok.condition
        worlds = []
        for cand in cands:
            alias = Atom(C.EQ, target, cand)
            if self.sat.check(base, alias) != SatResult.UNSAT:
                al = ok.clone()
                al.add_mem_atom(alias)
                al.aliases = {**al.aliases, target: cand}
                worlds.append((al, cand))
        for cand in cands:
            ok.add_mem_atom(Atom(C.NEQ, target, cand))
        return worlds

    def _truth(self, p: Pattern, node) -> list[Pattern]:
        """Reduce an int value (the resolver admits no other condition) to
        concrete 0/1 on each successor."""
        v = p.vals.pop()
        if v is UNDEF:
            return [self._error(p, "read of undefined value")]
        if isinstance(v, IntConst):
            p.vals.append(_ONE if v.value != 0 else _ZERO)
            return [p]
        return self._binary_split(p, Atom(C.NEQ, v, _ZERO))

    # -------------------------------------------------- stepping

    def step(self, p: Pattern) -> list[Pattern]:
        p.steps += 1
        if p.steps > self.limits.max_steps:
            self.budget_error = True
            return [self._error(p, "step budget exceeded")]
        handler, node = p.k.pop()
        return handler(self, p, node)

    # -------------------------------------------------- statements

    def _block(self, p: Pattern, s) -> list[Pattern]:
        p.k += [_frame(x) for x in reversed(s.stmts)]
        return [p]

    def _expr_stmt(self, p: Pattern, s) -> list[Pattern]:
        p.k += [(_Engine._pop, s), _frame(s.expr)]
        return [p]

    def _pop(self, p: Pattern, s) -> list[Pattern]:
        p.vals.pop()
        return [p]

    def _if(self, p: Pattern, s) -> list[Pattern]:
        p.k += [(_Engine._branch, s), (_Engine._truth, s), _frame(s.cond)]
        return [p]

    def _branch(self, p: Pattern, s) -> list[Pattern]:
        taken = s.then if p.vals.pop().value != 0 else s.els
        if taken is not None:
            p.k.append(_frame(taken))
        return [p]

    def _while(self, p: Pattern, s) -> list[Pattern]:
        p.k.append((_Engine._loop_check, s))
        return [p]

    def _loop_check(self, p: Pattern, s) -> list[Pattern]:
        p.guard_split = False
        p.k += [(_Engine._loop_decide, s), (_Engine._truth, s), _frame(s.cond)]
        return [p]

    def _loop_decide(self, p: Pattern, s) -> list[Pattern]:
        if p.vals.pop().value == 0:
            return [p]
        if p.guard_split:
            count = p.loop_counts.get(id(s), 0) + 1
            if count > self.limits.unroll_bound:
                self.truncated += 1
                return []
            p.loop_counts = {**p.loop_counts, id(s): count}
        p.k += [(_Engine._loop_check, s), _frame(s.body)]
        return [p]

    def _return(self, p: Pattern, s) -> list[Pattern]:
        p.k.append((_Engine._leave, s))
        if s.value is not None:
            p.k.append(_frame(s.value))
        return [p]

    def _leave(self, p: Pattern, s) -> list[Pattern]:
        """Finish a `return`: the frames down to the nearest return or
        exit frame are dropped unrun."""
        rv = p.vals.pop() if s.value is not None else UNDEF
        while True:
            handler, data = p.k.pop()
            if handler is _Engine._resume or handler is _Engine._exit:
                return handler(self, p, data, rv)

    def _resume(self, p: Pattern, saved, rv=UNDEF) -> list[Pattern]:
        """Return `rv` from a call (UNDEF off the end of its body) to the
        caller whose env and loop counts `saved` holds."""
        _call, p.env, p.loop_counts = saved
        p.vals.append(rv)
        return [p]

    def _exit(self, p: Pattern, f, rv=UNDEF) -> list[Pattern]:
        """End the path with the entry call's return value `rv`."""
        p.status = FINAL
        p.return_value = rv
        p.k = []
        return [p]

    # -------------------------------------------------- expressions

    def _int_lit(self, p: Pattern, e) -> list[Pattern]:
        p.vals.append(IntConst(e.value))
        return [p]

    def _null_lit(self, p: Pattern, e) -> list[Pattern]:
        p.vals.append(C.NULL)
        return [p]

    def _var(self, p: Pattern, e) -> list[Pattern]:
        v = p.heap[p.env[e.name]]
        if v is UNDEF:
            return [self._error(p, f"read of undefined variable '{e.name}'")]
        p.vals.append(v)
        return [p]

    def _field_access(self, p: Pattern, e) -> list[Pattern]:
        p.k += [(_Engine._read_field, e), _frame(e.base)]
        return [p]

    def _read_field(self, p: Pattern, e) -> list[Pattern]:
        def read(q: Pattern, addr: SymAddrRef):
            obj = q.heap[addr]
            v = obj.fields.get(e.fieldname, MISSING)
            if v is MISSING:
                if not obj.lazy:
                    self._error(q, f"read of uninitialized field '{e.fieldname}'")
                    return
                ftype = self.index.struct_fields(e.struct_name)[e.fieldname]
                v = self._fill(q, addr, e.fieldname, ftype)
            q.vals.append(v)

        return self._deref(p, p.vals.pop(), e.struct_name, read)

    def _unary(self, p: Pattern, e) -> list[Pattern]:
        p.k += [(_Engine._not, e), (_Engine._truth, e), _frame(e.operand)]
        return [p]

    def _not(self, p: Pattern, e) -> list[Pattern]:
        p.vals.append(_ZERO if p.vals.pop().value != 0 else _ONE)
        return [p]

    def _binary(self, p: Pattern, e) -> list[Pattern]:
        if e.op in ("&&", "||"):
            p.k += [(_Engine._short_circuit, e), (_Engine._truth, e), _frame(e.left)]
        else:
            then = _Engine._arith if e.op in ("+", "-") else _Engine._compare
            p.k += [(then, e), _frame(e.right), _frame(e.left)]
        return [p]

    def _short_circuit(self, p: Pattern, e) -> list[Pattern]:
        """The left operand's 0/1 is on the value stack: it is the result
        unless it is 1 under `&&` or 0 under `||`."""
        if (p.vals[-1].value != 0) == (e.op == "&&"):
            p.vals.pop()
            p.k += [(_Engine._truth, e), _frame(e.right)]
        return [p]

    def _arith(self, p: Pattern, e) -> list[Pattern]:
        r = p.vals.pop()
        l = p.vals.pop()
        if l is UNDEF or r is UNDEF:
            return [self._error(p, "arithmetic on a non-integer value")]
        if isinstance(l, IntConst) and isinstance(r, IntConst):
            p.vals.append(IntConst(l.value + r.value if e.op == "+" else l.value - r.value))
            return [p]
        s = self.alloc.fresh_int(f"i{self.alloc._next}")
        p.add_path_atom(Atom(C.EQ, s, C.Add(l, r) if e.op == "+" else C.Sub(l, r)))
        p.vals.append(s)
        return [p]

    def _compare(self, p: Pattern, e) -> list[Pattern]:
        r = p.vals.pop()
        l = p.vals.pop()
        if l is UNDEF or r is UNDEF:
            return [self._error(p, "read of undefined value")]
        # concrete integer comparison
        if isinstance(l, IntConst) and isinstance(r, IntConst):
            res = _CONCRETE_CMP[e.op](l.value, r.value)
            p.vals.append(_ONE if res else _ZERO)
            return [p]
        if isinstance(l, SymAddrRef):
            l = p.resolve(l)
        if isinstance(r, SymAddrRef):
            r = p.resolve(r)
        # NULL == NULL and same-address fast paths
        if (l is C.NULL or isinstance(l, SymAddrRef)) and l == r:
            p.vals.append(_ONE if e.op in ("==", "<=", ">=") else _ZERO)
            return [p]
        return self._binary_split(p, Atom(_CMP_TO_ATOM[e.op], l, r))

    def _assign(self, p: Pattern, e) -> list[Pattern]:
        if isinstance(e.target, nodes.Var):
            p.k += [(_Engine._assign_var, e), _frame(e.value)]
        else:
            p.k += [(_Engine._write_field, e), _frame(e.target.base), _frame(e.value)]
        return [p]

    def _assign_var(self, p: Pattern, e) -> list[Pattern]:
        p.heap[p.env[e.target.name]] = p.vals[-1]
        return [p]

    def _write_field(self, p: Pattern, e) -> list[Pattern]:
        base = p.vals.pop()
        val = p.vals.pop()

        def write(q: Pattern, addr: SymAddrRef):
            q.heap[addr].fields[e.target.fieldname] = val
            q.vals.append(val)

        return self._deref(p, base, e.target.struct_name, write)

    def _malloc(self, p: Pattern, e) -> list[Pattern]:
        # `x = malloc(...)` names the object after `x`
        handler, below = p.k[-1]
        name = below.target.name if handler is _Engine._assign_var else "obj"
        m = self.alloc.fresh_addr(name)
        for a, o in p.heap.items():
            if isinstance(o, HeapObject):
                p.add_alloc_atom(Atom(C.NEQ, m, a))
        p.add_alloc_atom(Atom(C.NEQ, m, C.NULL))
        p.heap[m] = HeapObject(e.struct, {}, lazy=False)
        p.malloced = p.malloced | {m}
        p.vals.append(m)
        return [p]

    def _call(self, p: Pattern, e) -> list[Pattern]:
        p.k.append((_Engine._invoke, e))
        p.k += [_frame(a) for a in reversed(e.args)]
        return [p]

    def _invoke(self, p: Pattern, e) -> list[Pattern]:
        active = sum(1 for h, data in p.k if h is _Engine._resume and data[0] is e)
        if active >= self.limits.unroll_bound:
            self.truncated += 1
            return []
        f = self.index.functions[e.fname]
        args = [p.vals.pop() for _ in e.args][::-1]
        p.k.append((_Engine._resume, (e, p.env, p.loop_counts)))
        p.k += [_frame(s) for s in reversed(f.body)]
        p.env = bind_frame(f, args, p.heap, self.alloc)
        p.loop_counts = {}
        return [p]


# the 0/1 that tests and comparisons push
_ZERO = IntConst(0)
_ONE = IntConst(1)

_CMP_TO_ATOM = {"==": C.EQ, "!=": C.NEQ, "<": C.LT, "<=": C.LE, ">": C.GT, ">=": C.GE}
_CONCRETE_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                 "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# the step that evaluates a statement or expression, by node class
_HANDLERS = {
    nodes.Block: _Engine._block,
    nodes.ExprStmt: _Engine._expr_stmt,
    nodes.If: _Engine._if,
    nodes.While: _Engine._while,
    nodes.Return: _Engine._return,
    nodes.IntLit: _Engine._int_lit,
    nodes.NullLit: _Engine._null_lit,
    nodes.Var: _Engine._var,
    nodes.FieldAccess: _Engine._field_access,
    nodes.Unary: _Engine._unary,
    nodes.Binary: _Engine._binary,
    nodes.Assign: _Engine._assign,
    nodes.Malloc: _Engine._malloc,
    nodes.Call: _Engine._call,
}


def _frame(node) -> tuple:
    """The frame that evaluates `node`."""
    return (_HANDLERS[type(node)], node)


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
    p.k = [(_Engine._exit, f)] + [_frame(s) for s in reversed(f.body)]
    return eng.run(p, reject)
