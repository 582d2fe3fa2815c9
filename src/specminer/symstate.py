"""Symbolic program states: values, heaps, and patterns.

A value is its own condition term: a pointer is a `SymAddrRef` or `NULL`,
an int an `IntConst` or a `SymIntRef`, a void* payload a `SymDataRef`.
Atoms take values as they are, and `render_value` is `render_term` plus a
`name#sid` tag for heap objects that share a display. `UNDEF` marks a
variable or field that holds no value yet.

A pattern is one branch of the symbolic execution: a continuation stack of
engine frames (top last), an environment mapping each variable of the
running call straight to its value, the heap, and two conditions:
`condition`, every atom of the path, which every solver question starts
from, and `path_condition`, its ordinary branch facts. A condition is the
frozenset of its atoms (see `constraints`), and recording an atom replaces
a condition with a larger set. The memory cell is not stored: it is the
atoms of `condition` outside the path condition, the NULL tests and alias
decisions made while discovering the heap. No atom says that malloc'd
storage differs from NULL and from every input object: the engine knows
it by construction (see `engine._Engine._compare`). Pending calls
and loops live only in the continuation: a call's frame holds the
caller's env, and a loop's frames hold its record.

`Pattern.clone` copies only the containers that are written in place: the
continuation `k`, the value stack `vals`, and the two heap dicts. Every
other container (`env`, `aliases`, the envs that call frames saved, and
the heap objects themselves) is shared between the clones and must only
ever be replaced, never written in place; that is what makes sharing it
safe. An assignment to a variable replaces the env with a copy that holds
the new value, and a field write stores a new `HeapObject` in the writing
pattern's own heap (`HeapObject.with_field`), so an entry pattern built
from another pattern's heap shares its objects too.

The heap maps a symbolic address, a `constraints.SymAddrRef` and so its own
condition term, to a struct object, and holds nothing else: the fragment
has no `&`, so no value points at a variable and a variable needs no
storage of its own. A field that was never written is absent from its
object's `fields`; the engine decides whether to conjure its value.
"""
from __future__ import annotations

from collections import Counter

from .constraints import (
    TRUE,
    Atom,
    IntConst,
    SymAddrRef,
    SymDataRef,
    SymIntRef,
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
    """A struct object. Heaps of several patterns may hold one object, so
    it is never written in place: a write stores `with_field`'s new object
    in the writing pattern's own heap."""
    __slots__ = ("struct_name", "fields")

    def __init__(self, struct_name: str, fields: dict[str, Value]):
        self.struct_name = struct_name
        self.fields = fields

    def with_field(self, name: str, v: Value) -> "HeapObject":
        """This object with field `name` holding `v`."""
        return HeapObject(self.struct_name, {**self.fields, name: v})


Heap = dict  # SymAddrRef -> HeapObject


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
    def __init__(self, k: list, env: dict[str, Value], heap: Heap, entry_heap: Heap,
                 path_condition: frozenset = TRUE, condition: frozenset | None = None,
                 malloced: frozenset = frozenset(), aliases: dict | None = None,
                 vals: list | None = None, approx: bool = False, steps: int = 0):
        self.k = k  # continuation stack of engine frames, top last
        self.env = env
        self.heap = heap
        self.entry_heap = entry_heap  # the input heap as discovered: materializations + fills
        self.path_condition = path_condition
        # every atom of the path: the path condition and the memory cell
        self.condition = path_condition if condition is None else condition
        # only an ending path sets these
        self.status = RUNNING
        self.error_reason = ""
        self.return_value = UNDEF
        self.provenance_id = ""
        # the malloc'd heap objects, of this run or of the run a replay
        # starts from; every other heap object is a discovered input object
        self.malloced = malloced
        self.aliases = {} if aliases is None else aliases
        self.vals = [] if vals is None else vals  # expression value stack
        self.approx = approx
        self.steps = steps

    def clone(self) -> "Pattern":
        return Pattern(
            k=list(self.k),
            env=self.env,
            heap=dict(self.heap),
            entry_heap=dict(self.entry_heap),
            path_condition=self.path_condition,
            condition=self.condition,
            malloced=self.malloced,
            aliases=self.aliases,
            vals=list(self.vals),
            approx=self.approx,
            steps=self.steps,
        )

    @property
    def mem_path_condition(self) -> frozenset:
        """The memory cell: the atoms of `condition` outside the path
        condition."""
        return self.condition - self.path_condition

    def resolve(self, a: SymAddrRef) -> SymAddrRef:
        """The object `a` stands for once aliasing decisions are applied.
        An alias maps an unmaterialized address to an input object's heap
        key, and heap keys are never aliased, so one lookup resolves it."""
        return self.aliases.get(a, a)

    def add_path_atom(self, a: Atom) -> None:
        self.path_condition = self.path_condition | {a}
        self.condition = self.condition | {a}

    def add_mem_atom(self, a: Atom) -> None:
        self.condition = self.condition | {a}


# ---------------------------------------------------------------- frames

def bind_frame(f, args: list) -> dict[str, Value]:
    """The env `f` starts with: each parameter holds its argument, each
    local is undefined."""
    env = {pname: v for (pname, _ptype), v in zip(f.params, args)}
    for lname, _ltype in f.locals:
        env[lname] = UNDEF
    return env


# ---------------------------------------------------------------- rendering

def render_pattern(p: Pattern) -> str:
    """Human-oriented dump: one cell per line, `x |-> v` for a variable
    and its value. Heap objects that share a display are told apart by
    their sid, `display#sid`, both as heap keys and as the values that
    point at them."""
    objs = sorted(p.heap.items(), key=lambda kv: (kv[0].display, kv[0].sid))
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
        lines.append(f"<env> {name} |-> {render_tv(p.env[name], tagged)} </env>")
    for a, o in objs:
        inner = ", ".join(f"{f} |-> {render_value(v, tagged)}"
                          for f, v in sorted(o.fields.items()))
        key = f"{a.display}#{a.sid}" if a in tagged else a.display
        lines.append(f"<heap> {key} |-> ({inner}) </heap>")
    lines.append(f"<cond> {render_constraint(p.path_condition)} </cond>")
    lines.append(f"<memcond> {render_constraint(p.mem_path_condition)} </memcond>")
    return "\n".join(lines)
