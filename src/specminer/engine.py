"""Symbolic execution of one function call, producing result patterns.

The machine is a small-step interpreter over a continuation stack (`k`) and
an expression value stack, exploring branches depth-first with the true
branch first (the false one first in an all-or-nothing run, see `se`).

Every continuation frame is a `(handler, data)` pair, top last. The data
is the AST node the frame works for, and the handler reads what it needs
from it (an operator, a field name, the branches of an `if`); a loop's
check and decide frames pair the loop with its record. A statement
or expression is pushed as the whole sequence of frames that evaluates it:
its operands' frames, then the frames for the work after them. Frames are
built once per program, not per step: `_build_frames` runs when the first
engine for a `ProgramIndex` is built, and stores on every node of the
function bodies that sequence (`push`), and on every function its body's
frames. The frames a step builds are a call's return frame, which holds
the caller's env, and a loop's check and decide frames, which hold its
record.

A step is one frame run: `Limits.max_steps` bounds the frames each path
runs. `_Engine.run` steps one pattern until it forks or ends: it pops a
frame, counts its step, checks the budget and runs the handler. A handler
that keeps its pattern returns None, and any other returns the successors
(none when the path is dropped), which go on the work stack.

The continuation is the only record of pending calls. A call pushes a
return frame under the callee's body; its data is the call node and the
caller's env, which the frame restores when the callee returns. The entry
call's body sits on its exit frame instead, whose data is the function and
which ends the path. A `return` drops the frames down to the nearest return
or exit frame, and running off the end of a body reaches that frame too.
The recursion depth of a call is the number of return frames for its call
node.

A variable holds its value in the pattern's env, and the heap holds only
struct objects (see `symstate`). The env is shared between clones and with
the return frames that saved it, so an assignment replaces it with a copy
and never writes it in place.

A value is its own condition term, so a comparison puts
its operands into the atom it decides as they are, and symbolic `+`/`-`
records `s = l + r` for a fresh int `s` over the operands themselves.
Every atom comes from the run's `SatCache` (`atom`, `negation`), which
hands out one object per `(op, lhs, rhs)`. An atom recorded without a
question — `s = l + r`, the separate alias world's disequalities — still
goes through the cache (`_Engine._record`), so every closure a path needs
is built by extending the one before it.

Three mechanisms matter beyond plain evaluation:

* Guard decisions. Branches and dereferences fork in one place,
  `_Engine._decide`. An atom the current conditions do not already decide
  clones the pattern, one successor per polarity, and records the atom or
  its negation in its condition, and in its path condition too unless it
  tests an address against NULL. The memory cell, the condition's atoms
  outside the path condition, thus holds the NULL tests and the alias
  decisions made while discovering the heap. A decision the conditions
  already entail takes a single successor and records nothing; when they
  record the atom or its negation, that decides it with one solver
  question. The conditions are the pattern's stored conjunction
  (`Pattern.condition`), and the negation is built only when the atom
  itself is not recorded. A
  dereference of a heap key, or its comparison with NULL, asks no
  question at all: the conditions entail that an input object's heap key
  is not NULL (see `se`), and malloc'd storage is not NULL by
  construction, so `_on_heap` reads their own verdict instead. Nor does
  a comparison of a malloc'd address with any other address: no input
  pointer can point to fresh storage, so they differ, and no atom says
  so (lazy initialization takes a fresh object to be distinct from every
  input object the same way). A branch pushes the outcome as the shared
  1 or 0; a dereference turns the NULL outcome into an error leaf. An int
  is true when it is not 0. The solver's answers come from a `SatCache`
  the caller may share between runs (`infer_spec` shares one between the
  modifier run and every observer replay).

* Lazy heaps. The input heap starts unknown. Dereferencing an address the
  conditions allow to be non-null conjures an empty object for it; reading
  a field never seen before conjures a fresh value of the field's type.
  Both discoveries are mirrored into the pattern's entry heap, which ends
  up describing exactly the slice of the input this branch depends on.
  With `lazy_aliasing`, a newly discovered object may also be one of the
  already-discovered input objects, one extra successor per candidate.

* Loop budgets. An iteration counts against the unroll bound when its
  guard added an atom to the path's condition (a genuine split, or the
  `s = l + r` of symbolic arithmetic, in the guard or in a function it
  called), or when the memory cell grew since the loop's last guard
  check, in the body or in a function it called; the memory cell (the
  condition's atoms outside the path condition) grows only on a genuine
  NULL-test split and the alias atoms that come with one. Each execution
  of a loop carries its own record in its check and decide frames, so a
  nested or called loop starts its own count and
  cannot hide a split from the loop around it. An iteration whose body
  dereferences the pointer that the next guard tests thus still counts
  when the dereference discovered an object. Other iterations are free, so
  post-state walks over already-discovered heaps do not burn budget.
  Paths cut at the bound are tallied, not emitted. A run is out of its
  pattern budget only when a leaf it would keep does not fit.
"""

from __future__ import annotations

import operator
import sys

from . import constraints as C
from .constraints import Atom, IntConst, NullRef, SatResult, SymAddrRef
from .frontend import nodes
from .record import Record
from .symstate import (
    FINAL,
    ERROR,
    RUNNING,
    UNDEF,
    Allocator,
    HeapObject,
    Pattern,
    bind_frame,
    fresh_value,
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


class ConstantTooLong(Exception):
    """A constant fold gave an int with more decimal digits than
    `sys.get_int_max_str_digits()`, the limit the parser puts on a
    literal, so literals and folds share one magnitude bound."""

    def __init__(self):
        super().__init__("integer constant too long")


class SEResult:
    def __init__(self, patterns: list, truncated_paths: int, budget_error: bool,
                 split_log: list, rejected: bool):
        self.patterns = patterns  # terminal patterns in emission order
        self.truncated_paths = truncated_paths
        self.budget_error = budget_error
        self.split_log = split_log  # [(condition, condition)] per genuine split
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
        # the literal limit (0: none, as before CPython 3.10.7, which
        # lacks the function); a fold of at most `fold_bits` bits has
        # fewer digits than it, since 2**(3 * d) < 10**d
        self.fold_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        self.fold_bits = 3 * self.fold_digits if self.fold_digits else float("inf")
        if not getattr(index, "frames_built", False):
            _build_frames(index)

    # -------------------------------------------------- main loop

    def run(self, start: Pattern, reject=None) -> SEResult:
        out: list[Pattern] = []
        finals = errors = 0
        rejected = False
        max_steps = self.limits.max_steps
        stack = [start]
        while stack:
            p = stack.pop()
            # Step `p` until it forks or ends. Each turn pops one frame,
            # counts its step and runs it; a handler that keeps `p` returns
            # None, any other its successors (none when the path is
            # dropped). A handler may clone `p`, so the steps are stored
            # before it runs.
            succs = None
            steps = p.steps
            while succs is None and p.status is RUNNING:
                handler, node = p.k.pop()
                p.steps = steps = steps + 1
                if steps > max_steps:
                    self.budget_error = True
                    self._error(p, "step budget exceeded")
                    break
                succs = handler(self, p, node)
            if succs is not None:
                if reject is not None and self.truncated:
                    rejected = True
                    break
                # Without `reject`, the first successor (true branch,
                # object) is explored first, which fixes the pN numbering.
                # With it, the last one (loop exit, NULL error) is: shallow
                # leaves that rule the run out show up before the deep walk
                # to the bound.
                stack.extend(succs if reject is not None else reversed(succs))
                continue
            if p.status is FINAL:
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
        return SEResult(out, self.truncated, self.budget_error, self.split_log,
                        rejected)

    # -------------------------------------------------- helpers

    def _error(self, p: Pattern, reason: str) -> Pattern:
        p.status = ERROR
        p.error_reason = reason
        p.k = []
        return p

    def _record(self, p: Pattern, add, atom: Atom) -> None:
        """Record `atom`, which no question decided, on `p` with `add`,
        `p.add_path_atom` or `p.add_mem_atom`. The cache extends the closure
        of `p`'s conditions by it, as it does for a decided atom."""
        self.sat.extend(p.condition, atom)
        add(atom)

    def _fill(self, p: Pattern, a: SymAddrRef, fname: str, ftype: nodes.CType):
        """Give the object at `a` a fresh value for its missing field
        `fname`, in the heap and in the entry heap."""
        # the display derives from `a`'s, which already carries any label
        v = fresh_value(self.alloc, ftype, f"{a.display}.{fname}")
        obj = p.heap[a]
        p.heap[a] = filled = obj.with_field(fname, v)
        entry = p.entry_heap.get(a)
        if entry is obj:
            p.entry_heap[a] = filled
        elif entry is not None and fname not in entry.fields:
            p.entry_heap[a] = entry.with_field(fname, v)
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
        # the negation is only looked up when the atom itself is not recorded
        neg = None if atom in base else self.sat.negation(atom)
        if neg is None or neg in base:
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
        self.split_log.append((p.condition, q.condition))
        return [(p, True), (q, False)]

    def _binary_split(self, p: Pattern, atom: Atom) -> list[Pattern] | None:
        """Decide `atom`; each successor gets its outcome, 1 or 0, pushed
        on its value stack. None when `p` is the only one."""
        outcomes = self._decide(p, atom)
        for q, holds in outcomes:
            q.vals.append(_ONE if holds else _ZERO)
        if len(outcomes) == 1:
            return None
        return [q for q, _holds in outcomes]

    def _deref(self, p: Pattern, value, struct_name: str, then, e) -> list[Pattern] | None:
        """Dereference a pointer value for node `e`; `then(self, pattern,
        address, e)` continues the work on each successor that reached an
        object. Successors come as [object, aliases..., NULL error], or
        None when `p` is the only one."""
        if value is UNDEF:
            self._error(p, "read of undefined value")
            return None
        if value is C.NULL:
            self._error(p, "NULL dereference")
            return None
        if not isinstance(value, SymAddrRef):
            self._error(p, "dereference of a non-address value")
            return None
        target = p.resolve(value)
        if target in p.heap:
            if not self._on_heap(p):
                return []
            then(self, p, target, e)
            return None
        outcomes = self._decide(p, self.sat.atom(C.NEQ, target, C.NULL))
        succs = []
        for q, is_object in outcomes:
            if not is_object:
                succs.append(self._error(q, "NULL dereference"))
                continue
            worlds = [(q, target)]
            if len(outcomes) == 2 and self.lazy_aliasing:
                worlds += self._alias_worlds(q, target, struct_name)
            # both heaps hold the one new object until a write replaces it
            q.heap[target] = q.entry_heap[target] = HeapObject(struct_name, {})
            for w, obj in worlds:
                then(self, w, obj, e)
                succs.append(w)
        # one outcome is `p` on its own side, with no alias worlds
        return None if len(outcomes) == 1 else succs

    def _on_heap(self, p: Pattern) -> bool:
        """Decide, as `_decide` would, that two pointers differ where `p`
        knows it without a question: a key of `p.heap` and NULL, or a
        malloc'd object and another address. The conditions entail that an
        input object's key is not NULL (see `se`), and malloc'd storage
        differs from NULL and every input object by construction, so adding
        the fact or refuting its negation leaves their verdict as it is:
        False when it is Unsat (the path is dropped), and `p` is approx
        when it is Unknown."""
        verdict = self.sat.verdict(p.condition)
        if verdict is SatResult.UNKNOWN:
            p.approx = True
        return verdict is not SatResult.UNSAT

    def _alias_worlds(self, ok: Pattern, target: SymAddrRef, struct_name: str):
        """With `target` newly found non-null on `ok`: one (pattern,
        object) per already-discovered object it may be. `ok` itself is
        told that `target` is none of them."""
        cands = sorted(
            (a for a, o in ok.heap.items()
             if a not in ok.malloced and o.struct_name == struct_name and a != target),
            key=lambda a: (a.display, a.sid),
        )
        if not cands:
            return []
        base = ok.condition
        worlds = []
        for cand in cands:
            alias = self.sat.atom(C.EQ, target, cand)
            if self.sat.check(base, alias) != SatResult.UNSAT:
                al = ok.clone()
                al.add_mem_atom(alias)
                al.aliases = {**al.aliases, target: cand}
                worlds.append((al, cand))
        for cand in cands:
            self._record(ok, ok.add_mem_atom, self.sat.atom(C.NEQ, target, cand))
        return worlds

    def _truth(self, p: Pattern, node) -> list[Pattern] | None:
        """Reduce an int value (the resolver admits no other condition) to
        concrete 0/1 on each successor."""
        v = p.vals.pop()
        if v is UNDEF:
            self._error(p, "read of undefined value")
            return None
        if isinstance(v, IntConst):
            p.vals.append(_ONE if v.value != 0 else _ZERO)
            return None
        return self._binary_split(p, self.sat.atom(C.NEQ, v, _ZERO))

    # -------------------------------------------------- statements

    def _pop(self, p: Pattern, s) -> list[Pattern] | None:
        p.vals.pop()

    def _branch(self, p: Pattern, s) -> list[Pattern] | None:
        taken = s.then if p.vals.pop().value != 0 else s.els
        if taken is not None:
            p.k += taken.push

    def _loop_check(self, p: Pattern, data) -> list[Pattern] | None:
        """Evaluate the guard of loop `s` next. `data` is `s` and its
        record: None at the loop's entry, else the iterations counted and
        the size of the memory cell at the last check. The decide frame
        under the guard carries the record on, with the sizes of the
        memory cell and the condition at this check."""
        s, rec = data
        mem = len(p.condition) - len(p.path_condition)
        count, last = rec or (0, mem)
        p.k.append((_Engine._loop_decide, (s, count, last, mem, len(p.condition))))
        p.k += s.test

    def _loop_decide(self, p: Pattern, data) -> list[Pattern] | None:
        """Start the next iteration of loop `s` when its guard held. The
        iteration counts against the unroll bound when the guard added an
        atom to the path's condition, or when the memory cell grew between
        the loop's last check and this one, in its body or in a function
        it called."""
        if p.vals.pop().value == 0:
            return None
        s, count, last, mem, cond = data
        if mem > last or len(p.condition) > cond:
            if count >= self.limits.unroll_bound:
                self.truncated += 1
                return []
            count += 1
        p.k.append((_Engine._loop_check, (s, (count, mem))))
        p.k += s.body.push

    def _leave(self, p: Pattern, s) -> list[Pattern] | None:
        """Finish a `return`: the frames down to the nearest return or
        exit frame are dropped unrun."""
        rv = p.vals.pop() if s.value is not None else UNDEF
        while True:
            handler, data = p.k.pop()
            if handler is _Engine._resume or handler is _Engine._exit:
                return handler(self, p, data, rv)

    def _resume(self, p: Pattern, saved, rv=UNDEF) -> list[Pattern] | None:
        """Return `rv` from a call (UNDEF off the end of its body) to the
        caller whose env `saved` holds."""
        _call, p.env = saved
        p.vals.append(rv)

    def _exit(self, p: Pattern, f, rv=UNDEF) -> list[Pattern] | None:
        """End the path with the entry call's return value `rv`."""
        p.status = FINAL
        p.return_value = rv
        p.k = []

    # -------------------------------------------------- expressions

    def _int_lit(self, p: Pattern, e) -> list[Pattern] | None:
        p.vals.append(IntConst(e.value))

    def _null_lit(self, p: Pattern, e) -> list[Pattern] | None:
        p.vals.append(C.NULL)

    def _var(self, p: Pattern, e) -> list[Pattern] | None:
        v = p.env[e.name]
        if v is UNDEF:
            self._error(p, f"read of undefined variable '{e.name}'")
            return
        p.vals.append(v)

    def _read_field(self, p: Pattern, e) -> list[Pattern] | None:
        return self._deref(p, p.vals.pop(), e.struct_name, _Engine._read, e)

    def _read(self, q: Pattern, addr: SymAddrRef, e) -> None:
        """Push field `e.fieldname` of the object at `addr`. A field it
        lacks is an error on malloc'd memory; an input object gets a fresh
        value of the field's type for it."""
        obj = q.heap[addr]
        v = obj.fields.get(e.fieldname)
        if v is None:
            if addr in q.malloced:
                self._error(q, f"read of uninitialized field '{e.fieldname}'")
                return
            v = self._fill(q, addr, e.fieldname, e.ctype)
        q.vals.append(v)

    def _not(self, p: Pattern, e) -> list[Pattern] | None:
        p.vals.append(_ZERO if p.vals.pop().value != 0 else _ONE)

    def _short_circuit(self, p: Pattern, e) -> list[Pattern] | None:
        """The left operand's 0/1 is on the value stack: it is the result
        unless it is 1 under `&&` or 0 under `||`."""
        if (p.vals[-1].value != 0) == (e.op == "&&"):
            p.vals.pop()
            p.k += e.rest

    def _arith(self, p: Pattern, e) -> list[Pattern] | None:
        r = p.vals.pop()
        l = p.vals.pop()
        if l is UNDEF or r is UNDEF:
            self._error(p, "read of undefined value")
            return
        if isinstance(l, IntConst) and isinstance(r, IntConst):
            v = l.value + r.value if e.op == "+" else l.value - r.value
            if v.bit_length() > self.fold_bits and abs(v) >= 10 ** self.fold_digits:
                raise ConstantTooLong()
            p.vals.append(IntConst(v))
            return
        s = self.alloc.fresh_int(f"i{self.alloc._next}")
        self._record(p, p.add_path_atom,
                     self.sat.atom(C.EQ, s, C.Add(l, r) if e.op == "+" else C.Sub(l, r)))
        p.vals.append(s)

    def _compare(self, p: Pattern, e) -> list[Pattern] | None:
        r = p.vals.pop()
        l = p.vals.pop()
        if l is UNDEF or r is UNDEF:
            self._error(p, "read of undefined value")
            return None
        # concrete integer comparison
        if isinstance(l, IntConst) and isinstance(r, IntConst):
            res = _CONCRETE_CMP[e.op](l.value, r.value)
            p.vals.append(_ONE if res else _ZERO)
            return None
        if isinstance(l, SymAddrRef):
            l = p.resolve(l)
        if isinstance(r, SymAddrRef):
            r = p.resolve(r)
        # NULL == NULL and same-address fast paths, by identity: an
        # allocator never hands out a sid twice, `resolve` returns heap keys
        # and NULL is a singleton
        if (l is C.NULL or isinstance(l, SymAddrRef)) and l is r:
            p.vals.append(_ONE if e.op in ("==", "<=", ">=") else _ZERO)
            return None
        # two different objects, compared with `==` or `!=` (the resolver
        # admits no other pointer comparison): a heap key and NULL, or a
        # malloc'd object and any other address, since no input pointer
        # can point to fresh storage
        if l is C.NULL:
            apart = type(r) is SymAddrRef and r in p.heap
        elif r is C.NULL:
            apart = type(l) is SymAddrRef and l in p.heap
        else:
            apart = type(l) is SymAddrRef and (l in p.malloced or r in p.malloced)
        if apart:
            if not self._on_heap(p):
                return []
            p.vals.append(_ONE if e.op == "!=" else _ZERO)
            return None
        return self._binary_split(p, self.sat.atom(_CMP_TO_ATOM[e.op], l, r))

    def _assign_var(self, p: Pattern, e) -> list[Pattern] | None:
        p.env = {**p.env, e.target.name: p.vals[-1]}

    def _write_field(self, p: Pattern, e) -> list[Pattern] | None:
        # the assigned value stays on the stack as the assignment's result
        return self._deref(p, p.vals.pop(), e.target.struct_name, _Engine._write, e)

    def _write(self, q: Pattern, addr: SymAddrRef, e) -> None:
        q.heap[addr] = q.heap[addr].with_field(e.target.fieldname, q.vals[-1])

    def _malloc(self, p: Pattern, e) -> list[Pattern] | None:
        # `x = malloc(...)` names the object after `x`
        handler, below = p.k[-1]
        name = below.target.name if handler is _Engine._assign_var else "obj"
        m = self.alloc.fresh_addr(name)
        p.heap[m] = HeapObject(e.struct, {})
        p.malloced = p.malloced | {m}
        p.vals.append(m)

    def _invoke(self, p: Pattern, e) -> list[Pattern] | None:
        active = sum(1 for h, data in p.k if h is _Engine._resume and data[0] is e)
        if active >= self.limits.unroll_bound:
            self.truncated += 1
            return []
        f = self.index.functions[e.fname]
        args = [p.vals.pop() for _ in e.args][::-1]
        p.k.append((_Engine._resume, (e, p.env)))
        p.k += f.push
        p.env = bind_frame(f, args)


# the 0/1 that tests and comparisons push
_ZERO = IntConst(0)
_ONE = IntConst(1)

_CMP_TO_ATOM = {"==": C.EQ, "!=": C.NEQ, "<": C.LT, "<=": C.LE, ">": C.GT, ">=": C.GE}
_CONCRETE_CMP = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                 "<=": operator.le, ">": operator.gt, ">=": operator.ge}

# the frame of a leaf, by node class; `_build` gives every other node the
# frames of its parts and of the work after them
_HANDLERS = {
    nodes.IntLit: _Engine._int_lit,
    nodes.NullLit: _Engine._null_lit,
    nodes.Var: _Engine._var,
    nodes.Malloc: _Engine._malloc,
}


def _build_frames(index) -> None:
    """Store on each function of `index` its exit frame (`frame`) and its
    body's frames, top last (`push`), and on every node of its body the
    frames `_build` gives it. Runs once per program, before its first
    engine runs; the frames live as long as the nodes."""
    for f in index.functions.values():
        f.frame = (_Engine._exit, f)
        f.push = _seq(f.body)
    index.frames_built = True


def _seq(ns) -> tuple:
    """The frames of the nodes `ns`, which run in order, top last."""
    return tuple(fr for n in reversed(ns) for fr in _build(n))


def _build(n) -> tuple:
    """Store on node `n` and the nodes below it the frames that evaluate
    them, top last: `push`, and a loop's `test` or a `&&`/`||`'s `rest`
    for the frames a handler pushes later. Returns `n.push`. A frame is
    `(handler, node)`, and a step is one frame run; a loop's entry frame
    holds `(loop, None)` instead, as the loop has no record yet. An empty
    block has no frames."""
    E = _Engine
    t = type(n)
    if t is nodes.Block:
        frames = _seq(n.stmts)
    elif t is nodes.ExprStmt:
        frames = ((E._pop, n), *_build(n.expr))
    elif t is nodes.If:
        _build(n.then)
        if n.els is not None:
            _build(n.els)
        frames = ((E._branch, n), (E._truth, n), *_build(n.cond))
    elif t is nodes.While:
        frames = ((E._loop_check, (n, None)),)
        n.test = ((E._truth, n), *_build(n.cond))
        _build(n.body)
    elif t is nodes.Return:
        frames = ((E._leave, n),)
        if n.value is not None:
            frames += _build(n.value)
    elif t is nodes.FieldAccess:
        frames = ((E._read_field, n), *_build(n.base))
    elif t is nodes.Unary:
        frames = ((E._not, n), (E._truth, n), *_build(n.operand))
    elif t is nodes.Binary:
        if n.op in ("&&", "||"):
            frames = ((E._short_circuit, n), (E._truth, n), *_build(n.left))
            n.rest = ((E._truth, n), *_build(n.right))
        else:
            then = E._arith if n.op in ("+", "-") else E._compare
            frames = ((then, n), *_build(n.right), *_build(n.left))
    elif t is nodes.Assign:
        _build(n.target)
        if type(n.target) is nodes.Var:
            frames = ((E._assign_var, n), *_build(n.value))
        else:
            frames = ((E._write_field, n), *n.target.base.push, *_build(n.value))
    elif t is nodes.Call:
        frames = ((E._invoke, n), *_seq(n.args))
    else:
        frames = ((_HANDLERS[t], n),)
    n.push = frames
    return frames


# ---------------------------------------------------------------- API

def se(
    index,
    fname: str,
    args: list,
    limits: Limits | None = None,
    alloc: Allocator | None = None,
    lazy_aliasing: bool = False,
    reject=None,
    sat: C.SatCache | None = None,
    *,
    heap: dict | None = None,
    condition: frozenset = C.TRUE,
    malloced: frozenset = frozenset(),
) -> SEResult:
    """Execute `fname` on the values `args` symbolically and return every
    terminal pattern (finals and errors), the count of bound-cut paths, and
    the log of genuine guard splits. The run starts from `heap`, under
    `condition`, with the objects in `malloced` known to be malloc'd (a
    replay starts from the run it observes).

    Every key `a` of `heap` that is not malloc'd must be non-null under
    `condition`: the solver refutes `condition` plus `a = NULL`. The run
    keeps this for the keys it adds, since it materializes an input
    object only once `a = NULL` is refuted or split off, and a malloc'd
    key is non-null by construction; so the heap and condition of any
    pattern it returns may start another run. The engine decides
    `a != NULL` for a heap key from the condition's verdict alone (see
    `_Engine._on_heap`).

    `budget_error` is set when a terminal pattern the run would keep
    finds `limits.max_patterns` already kept, or when a path runs out of
    steps.

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
    f = index.functions.get(fname)
    if f is None:
        raise KeyError(f"unknown function '{fname}'")
    if len(f.params) != len(args):
        raise TypeError(f"{fname} expects {len(f.params)} args, got {len(args)}")
    heap = {} if heap is None else heap
    p = Pattern(k=[f.frame, *f.push], env=bind_frame(f, args), heap=dict(heap),
                entry_heap=dict(heap), path_condition=condition, malloced=malloced)
    return eng.run(p, reject)
