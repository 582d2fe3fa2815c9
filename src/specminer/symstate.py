"""Symbolic program states: values, heaps, and patterns.

A value is its own condition term: a pointer is a `SymAddrRef` or `NULL`,
an int an `IntConst` or a `SymIntRef`, a void* payload a `SymDataRef`.
Atoms take values as they are, and `render_value` is `render_term` plus a
`name#sid` tag for heap objects that share a display. `UNDEF` marks a cell
that holds no value yet.

A pattern is one branch of the symbolic execution: a continuation stack of
engine frames (top last), an environment mapping variables to heap cells,
the heap itself, and the two condition cells (one for ordinary branch
facts, one for decisions taken while materializing unexplored parts of the
heap on demand). The pattern also keeps `condition`, the conjunction of the
two cells and of the undisplayed distinctness facts for fresh storage,
which every solver question starts from. Pending calls live only in the
continuation: a call's frame holds the caller's env and loop counts.

`Pattern.clone` copies only the containers that are written in place: the
continuation `k`, the value stack `vals`, and the two heaps with their
objects. Every other container (`env`, `loop_counts`, `aliases`, and the
envs and loop counts that call frames saved) is shared between the clones
and must only ever be replaced, never written in place; that is what makes
sharing it safe.

A symbolic address is a `constraints.SymAddrRef`, so a heap key is its own
condition term. The heap maps addresses either to a plain value cell (used
for parameters and locals, one level of indirection like a C lvalue) or to
a whole struct object. Reads of fields that were never written come back as
`MISSING`, letting the engine decide whether to conjure the field's value.
"""
from __future__ import annotations

from collections import Counter

from .constraints import (
    TRUE,
    Atom,
    Constraint,
    IntConst,
    SymAddrRef,
    SymDataRef,
    SymIntRef,
    conjoin,
    render_constraint,
    render_term,
)
from .frontend import nodes

# ---------------------------------------------------------------- values

class _Undef:
    def __repr__(self):
        return "UNDEF"


UNDEF = _Undef()


Value = object  # SymAddrRef | NULL | IntConst | SymIntRef | SymDataRef | UNDEF


def render_value(v: Value, tagged=frozenset()) -> str:
    """`v` as text; a pointer to an address in `tagged` gets its sid,
    `name#sid`."""
    if v is UNDEF:
        return "undef"
    text = render_term(v)
    return f"{text}#{v.sid}" if v in tagged else text


def render_tv(v: Value, tagged=frozenset()) -> str:
    """Typed rendering used in result patterns, e.g. tv(int, 1). Ints and
    data tokens are the only typed values: plain `void` is only a return
    type."""
    if isinstance(v, (IntConst, SymIntRef)):
        return f"tv(int, {render_value(v)})"
    if isinstance(v, SymDataRef):
        return f"tv(void*, {render_value(v)})"
    return render_value(v, tagged)


# ---------------------------------------------------------------- heap

class HeapObject:
    __slots__ = ("struct_name", "fields", "lazy")

    def __init__(self, struct_name: str, fields: dict[str, Value], lazy: bool = False):
        self.struct_name = struct_name
        self.fields = fields
        # lazily discovered input objects answer missing fields with fresh
        # symbols; freshly malloc'd memory answers with an undefined-read error
        self.lazy = lazy


class MissingField:
    def __repr__(self):
        return "MISSING"


MISSING = MissingField()


Heap = dict  # SymAddrRef -> Value (cell) | HeapObject


# ---------------------------------------------------------------- allocator

class Allocator:
    """Monotone source of fresh symbolic identities: addresses
    (`SymAddrRef`), ints (`SymIntRef`) and data tokens (`SymDataRef`).
    Each gets the next sid, so no two symbols of one allocator share a sid
    and a symbol's hash, its sid, is unique too. Sharing one allocator
    across an entire run keeps every emitted name unique and the output
    deterministic."""

    def __init__(self, seed_label: str = ""):
        self._next = 0
        self._prefix = f"{seed_label}:" if seed_label else ""

    def symbol(self, cls, display: str):
        """A fresh symbol of class `cls` shown as `display`, taken as is."""
        sid = self._next
        self._next += 1
        return cls(sid, display)

    def label(self, display: str) -> str:
        """`display` with the run's seed label, if any, in front."""
        return self._prefix + display

    def fresh_addr(self, display: str) -> SymAddrRef:
        return self.symbol(SymAddrRef, self.label(display))

    def fresh_int(self, display: str) -> SymIntRef:
        return self.symbol(SymIntRef, self.label(display))

    def fresh_data(self, display: str) -> SymDataRef:
        return self.symbol(SymDataRef, self.label(display))


_SYMBOL_OF_KIND = {"int": SymIntRef, "voidptr": SymDataRef, "structptr": SymAddrRef}


def fresh_value(alloc: Allocator, ctype: nodes.CType, display: str) -> Value:
    """A fresh symbol for a value of C type `ctype` (int, void* or a
    struct pointer) shown as `display`, taken as is."""
    return alloc.symbol(_SYMBOL_OF_KIND[ctype.kind], display)


# ---------------------------------------------------------------- patterns

RUNNING = "running"
FINAL = "final"
ERROR = "error"


class Pattern:
    def __init__(self, k: list, env: dict[str, SymAddrRef], heap: Heap, entry_heap: Heap,
                 path_condition: Constraint = TRUE, mem_path_condition: Constraint = TRUE,
                 condition: Constraint | None = None,
                 status: str = RUNNING, error_reason: str = "", return_value: Value = UNDEF,
                 malloced: frozenset = frozenset(), aliases: dict | None = None,
                 vals: list | None = None, loop_counts: dict | None = None,
                 approx: bool = False, guard_split: bool = False, steps: int = 0,
                 provenance_id: str = ""):
        self.k = k  # continuation stack of engine frames, top last
        self.env = env
        self.heap = heap
        self.entry_heap = entry_heap  # the input heap as discovered: materializations + fills
        self.path_condition = path_condition
        self.mem_path_condition = mem_path_condition
        # the conjunction of the two cells above and of the distinctness
        # facts for fresh storage (malloc results, materialized input
        # objects), which only it holds; kept by the add_*_atom methods,
        # built from the two cells when not given
        self.condition = (conjoin(path_condition, mem_path_condition)
                          if condition is None else condition)
        self.status = status
        self.error_reason = error_reason
        self.return_value = return_value
        self.malloced = malloced
        self.aliases = {} if aliases is None else aliases
        self.vals = [] if vals is None else vals  # expression value stack
        self.loop_counts = {} if loop_counts is None else loop_counts
        self.approx = approx
        self.guard_split = guard_split
        self.steps = steps
        self.provenance_id = provenance_id

    def clone(self) -> "Pattern":
        return Pattern(
            k=list(self.k),
            env=self.env,
            heap=_copy_heap(self.heap),
            entry_heap=_copy_heap(self.entry_heap),
            path_condition=self.path_condition,
            mem_path_condition=self.mem_path_condition,
            condition=self.condition,
            status=self.status,
            error_reason=self.error_reason,
            return_value=self.return_value,
            malloced=self.malloced,
            aliases=self.aliases,
            vals=list(self.vals),
            loop_counts=self.loop_counts,
            approx=self.approx,
            guard_split=self.guard_split,
            steps=self.steps,
            provenance_id=self.provenance_id,
        )

    def resolve(self, a: SymAddrRef) -> SymAddrRef:
        """The object `a` stands for once aliasing decisions are applied.
        An alias maps an unmaterialized address to a lazy heap key, and heap
        keys are never aliased, so the chain is at most one step long."""
        aliases = self.aliases
        if aliases:
            while a in aliases:
                a = aliases[a]
        return a

    def add_path_atom(self, a: Atom) -> None:
        self.path_condition = self.path_condition.with_atom(a)
        self.condition = self.condition.with_atom(a)

    def add_mem_atom(self, a: Atom) -> None:
        self.mem_path_condition = self.mem_path_condition.with_atom(a)
        self.condition = self.condition.with_atom(a)

    def add_alloc_atom(self, a: Atom) -> None:
        """Record a distinctness fact for fresh storage: every solver
        question sees it, the dump does not."""
        self.condition = self.condition.with_atom(a)


def _copy_heap(h: Heap) -> Heap:
    out: Heap = {}
    for k, v in h.items():
        if isinstance(v, HeapObject):
            out[k] = HeapObject(v.struct_name, dict(v.fields), v.lazy)
        else:
            out[k] = v
    return out


# ---------------------------------------------------------------- call shape

class ArityMismatch(Exception):
    pass


class CallPattern:
    """Entry point description: run `fname` on `args` against `initial_heap`
    under `initial_constraint`."""

    def __init__(self, fname: str, args: list, initial_constraint: Constraint = TRUE,
                 initial_heap: Heap | None = None, initial_malloced: frozenset = frozenset()):
        self.fname = fname
        self.args = args  # list[Value]
        self.initial_constraint = initial_constraint
        self.initial_heap = {} if initial_heap is None else initial_heap
        # addresses already known to be freshly allocated (kept distinct from
        # any input object discovered later in this run)
        self.initial_malloced = initial_malloced


def bind_frame(f, args: list, heap: Heap, alloc: Allocator) -> dict[str, SymAddrRef]:
    """Bind `f`'s parameters to fresh cells in `heap` holding `args`, and
    its locals to fresh cells, initially undefined; return the new env."""
    env: dict[str, SymAddrRef] = {}
    for (pname, _ptype), v in zip(f.params, args):
        cell = alloc.fresh_addr(f"cell_{pname}")
        heap[cell] = v
        env[pname] = cell
    for lname, _ltype in f.locals:
        cell = alloc.fresh_addr(f"cell_{lname}")
        heap[cell] = UNDEF
        env[lname] = cell
    return env


def make_call_pattern(index, cp: CallPattern, alloc: Allocator) -> Pattern:
    """The entry pattern of `cp`: its heap, with the callee's frame bound
    by `bind_frame`."""
    f = index.functions[cp.fname]
    if len(f.params) != len(cp.args):
        raise ArityMismatch(f"{cp.fname} expects {len(f.params)} args, got {len(cp.args)}")
    heap = _copy_heap(cp.initial_heap)
    env = bind_frame(f, cp.args, heap, alloc)
    return Pattern(
        k=[],
        env=env,
        heap=heap,
        entry_heap=_copy_heap(cp.initial_heap),
        path_condition=cp.initial_constraint,
        mem_path_condition=TRUE,
        malloced=cp.initial_malloced,
    )


# ---------------------------------------------------------------- rendering

def render_pattern(p: Pattern) -> str:
    """Human-oriented dump: one cell per line. The env collapses the cell
    indirection so `x |-> v` shows the value, not the cell address. Heap
    objects that share a display are told apart by their sid,
    `display#sid`, both as heap keys and as the values that point at
    them."""
    objs = sorted(((a, o) for a, o in p.heap.items() if isinstance(o, HeapObject)),
                  key=lambda kv: (kv[0].display, kv[0].sid))
    shared = Counter(a.display for a, _o in objs)
    tagged = frozenset(a for a, _o in objs if shared[a.display] > 1)
    lines = []
    if p.status == ERROR:
        lines.append(f"<k> Error: {p.error_reason} </k>")
    elif p.status == FINAL:
        lines.append(f"<k> return {render_tv(p.return_value)} </k>")
    else:
        lines.append(f"<k> ({len(p.k)} pending) </k>")
    for name in sorted(p.env):
        cell = p.env[name]
        v = p.heap.get(cell, UNDEF)
        if isinstance(v, HeapObject):
            v_str = v.struct_name
        else:
            v_str = render_tv(v, tagged)
        lines.append(f"<env> {name} |-> {v_str} </env>")
    for a, o in objs:
        inner = ", ".join(f"{f} |-> {render_value(v, tagged)}"
                          for f, v in sorted(o.fields.items()))
        key = f"{a.display}#{a.sid}" if a in tagged else a.display
        lines.append(f"<heap> {key} |-> ({inner}) </heap>")
    lines.append(f"<cond> {render_constraint(p.path_condition)} </cond>")
    lines.append(f"<memcond> {render_constraint(p.mem_path_condition)} </memcond>")
    return "\n".join(lines)
