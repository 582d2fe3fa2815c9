"""Inferring pre/post specifications expressed through observer calls.

Given a modifier function, execute it symbolically once per branch of
behavior. For each resulting pattern, run every type-compatible observer
call twice: against the entry heap that branch discovered (pre) and
against the final heap (post), both under the branch's accumulated
conditions. An observer call earns an equation only when every one of its
own branches finishes normally with the same value, and that value is
expressible in the caller's vocabulary: a literal, NULL, an input
argument, or the updated structure root. So a replay stops at its first leaf
that rules the call out (see `explain`). The surviving equations become
one axiom per branch. Two axioms with the same conclusion merge when one
premise contains the other, keeping the weaker premise; axioms with
different conclusions stay apart, since each describes its own paths.
The axioms are then canonically ordered.
"""

from __future__ import annotations

from itertools import permutations

from . import constraints as C
from .constraints import IntConst, SatCache, SatResult, SymAddrRef, SymDataRef, SymIntRef
from .engine import Limits, se
from .record import Frozen, setfield
from .symstate import FINAL, Allocator, Pattern, fresh_value


class UnknownFunction(Exception):
    def __init__(self, name: str):
        super().__init__(f"no function named {name!r} in the program")
        self.name = name


class NotAnObserver(Exception):
    pass


# ---------------------------------------------------------------- rhs

class Rhs(Frozen):
    """The right-hand side of an equation, one of the JSON kinds: `int`
    holds the integer, `arg` and `postRoot` the name, and `null` and
    `void` no value."""
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value=None):
        setfield(self, "kind", kind)
        setfield(self, "value", value)

    def _key(self):
        return (self.kind, self.value)

    def render(self) -> str:
        return _FIXED_RENDER.get(self.kind) or str(self.value)

    def to_json(self) -> dict:
        if self.value is None:
            return {"kind": self.kind}
        return {"kind": self.kind, "value": self.value}


_FIXED_RENDER = {"null": "NULL", "void": "void"}


RET = "ret"


class Equation(Frozen):
    """observer(args...) = rhs, or ret = rhs when observer is RET. `approx`
    takes no part in equality or hashing."""
    __slots__ = ("observer", "args", "rhs", "approx")

    def __init__(self, observer: str, args: tuple, rhs, approx: bool = False):
        setfield(self, "observer", observer)
        setfield(self, "args", args)
        setfield(self, "rhs", rhs)
        setfield(self, "approx", approx)

    def _key(self):
        return (self.observer, self.args, self.rhs)

    def render(self) -> str:
        if self.observer == RET:
            return f"ret = {self.rhs.render()}"
        return f"{self.observer}({', '.join(self.args)}) = {self.rhs.render()}"

    def to_json(self) -> dict:
        lhs = RET if self.observer == RET else {"observer": self.observer,
                                                "args": list(self.args)}
        return {"lhs": lhs, "rhs": self.rhs.to_json(), "rendered": self.render()}


class Axiom:
    def __init__(self, pre: tuple, post: tuple, ret: Equation | None, provenance: str,
                 approx: bool = False):
        self.pre = pre  # tuple[Equation]
        self.post = post  # tuple[Equation]
        self.ret = ret
        self.provenance = provenance
        self.approx = approx


class SpecSet:
    def __init__(self, modifier: str, axioms: list, limits: Limits, patterns: list,
                 stats: dict, diagnostics: list, split_log: list, budget_error: bool):
        self.modifier = modifier
        self.axioms = axioms
        self.limits = limits
        self.patterns = patterns  # the modifier's terminal patterns the axioms came from
        self.stats = stats
        self.diagnostics = diagnostics
        self.split_log = split_log
        self.budget_error = budget_error


# ---------------------------------------------------------------- universe

def call_shapes(index, observer_names, args):
    """All well-typed observer calls over permutations of subsets of the
    modifier's arguments. `args` is [(display, value, ctype)], of which
    only the displays and types count; returns [(observer, positions)],
    each position an index into `args`, sorted by observer then by the
    displays of the arguments."""
    calls = []
    for oname in sorted(observer_names):
        f = index.functions[oname]
        for combo in permutations(range(len(args)), len(f.params)):
            if all(args[i][2] == pt for i, (_pn, pt) in zip(combo, f.params)):
                calls.append((oname, combo))
    calls.sort(key=lambda call: (call[0], tuple(args[i][0] for i in call[1])))
    return calls


# ---------------------------------------------------------------- explain

_SYMBOLS = (SymAddrRef, SymIntRef, SymDataRef)


def _sym_id_map(args, post_root):
    """Map symbol ids appearing in argument values to their rhs form."""
    m: dict[int, object] = {}
    for display, value, _t in args:
        if isinstance(value, _SYMBOLS):
            m.setdefault(value.sid, Rhs("arg", display))
    if post_root is not None:
        sid, name = post_root
        m[sid] = Rhs("postRoot", name)
    return m


def _normalize_return(leaf: Pattern, sym_map: dict, sat: SatCache):
    """The leaf's return value as an expressible rhs, or None."""
    v = leaf.return_value
    if v is C.NULL:
        return Rhs("null")
    if isinstance(v, IntConst):
        return Rhs("int", v.value)
    if isinstance(v, SymAddrRef):
        v = leaf.resolve(v)
        # a provably-null address is NULL first, whatever else it matches
        if sat.check(leaf.condition, sat.atom(C.NEQ, v, C.NULL)) == SatResult.UNSAT:
            return Rhs("null")
    return sym_map.get(v.sid) if isinstance(v, _SYMBOLS) else None


def explain(
    index,
    heap,
    condition: frozenset,
    args,
    limits: Limits,
    alloc: Allocator,
    calls,
    *,
    sat: SatCache,
    malloced=frozenset(),
    post_root=None,
    lazy_aliasing: bool = False,
    diagnostics: list | None = None,
    context: str = "",
):
    """Equations observed to hold on `heap` under `condition`.

    `args` is [(display, value, ctype)] — the vocabulary; `calls` are the
    observer calls to replay over it, as `call_shapes` gives them;
    `post_root` optionally names (sid, display) for the updated-structure
    root. `sat` answers every solver question of the replays and may be
    shared with other runs. The replays are one phase: the atoms and
    closures they add to `sat` are released when it returns, since no
    condition they build outlives them; the conditions the caller holds
    keep theirs.

    A call's replay rejects a leaf that is not final, whose value the
    caller cannot name, or whose value differs from the first leaf's, and
    stops there: no equation can come from it. A replay whose budget ran
    out first gets a diagnostic instead."""
    diagnostics = diagnostics if diagnostics is not None else []
    sym_map = _sym_id_map(args, post_root)
    equations = []
    budget_hit = False
    mark = sat.mark()
    for oname, positions in calls:
        call_args = [args[i] for i in positions]
        values = []  # the nameable value of each accepted leaf, all equal

        def reject(leaf: Pattern) -> bool:
            v = _normalize_return(leaf, sym_map, sat) if leaf.status == FINAL else None
            if v is None or (values and v != values[0]):
                return True
            values.append(v)
            return False

        res = se(index, oname, [v for _d, v, _t in call_args], limits, alloc,
                 lazy_aliasing, reject, sat=sat,
                 heap=heap, condition=condition, malloced=malloced)
        if res.budget_error:
            budget_hit = True
            names = ", ".join(d for d, _v, _t in call_args)
            diagnostics.append(
                f"{context}: observer run {oname}({names}) exhausted its "
                f"budget; inconclusive")
            continue
        if res.rejected or not values:
            continue
        approx = any(leaf.approx for leaf in res.patterns)
        equations.append(Equation(oname, tuple(d for d, _v, _t in call_args),
                                  values[0], approx))
    sat.release(mark)
    return equations, budget_hit


# ---------------------------------------------------------------- inference

def _seed_args(f, alloc: Allocator):
    return [(pname, fresh_value(alloc, ptype, alloc.label(pname)), ptype)
            for pname, ptype in f.params]


def infer_spec(
    index,
    modifier: str,
    limits: Limits | None = None,
    observers_override=None,
    lazy_aliasing: bool = False,
    seed_label: str = "",
) -> SpecSet:
    limits = limits or Limits()
    f = index.functions.get(modifier)
    if f is None:
        raise UnknownFunction(modifier)
    if observers_override is not None:
        for name in observers_override:
            if name not in index.functions:
                raise UnknownFunction(name)
            if name not in index.observers:
                raise NotAnObserver(f"{name} returns void")
    observer_names = set(index.observers if observers_override is None
                         else observers_override) - {modifier}
    diagnostics: list[str] = []
    if observers_override is not None and modifier in observers_override:
        diagnostics.append(f"{modifier}: --observers names the modifier itself; "
                           f"it is not replayed")

    alloc = Allocator(seed_label)
    # one solver cache for every run below: replays start from the path
    # conditions whose closures the modifier run already built, and each
    # replay phase releases what it added
    sat = SatCache()
    seeded = _seed_args(f, alloc)
    res = se(index, modifier, [v for _n, v, _t in seeded],
             limits, alloc, lazy_aliasing, sat=sat)

    split_log = list(res.split_log)
    budget_error = res.budget_error
    if res.budget_error:
        diagnostics.append(f"{modifier}: exploration budget exhausted; "
                           f"results cover only the explored branches")
    elif not res.final_patterns and res.error_patterns and not res.truncated_paths:
        reasons = "; ".join(sorted({p.error_reason for p in res.error_patterns}))
        diagnostics.append(f"{modifier}: every path ends in an error ({reasons}); "
                           f"no axiom can be inferred")
    elif not res.final_patterns and res.truncated_paths:
        why = f"{res.truncated_paths} cut at the bound"
        if res.error_patterns:
            reasons = ", ".join(sorted({p.error_reason for p in res.error_patterns}))
            why += f"; errors: {reasons}"
        diagnostics.append(f"{modifier}: no path ends normally at this bound ({why}); "
                           f"a larger --unroll may find one")

    root_param = next((pname for pname, pt in f.params if pt.kind == "structptr"),
                      None)
    if root_param is None:
        diagnostics.append(f"{modifier}: no pointer argument; post-state "
                           f"equations use unprimed names")

    # the calls a phase replays depend only on the names and types of its
    # arguments, the same on every path and in both phases (no identifier
    # character sorts before the prime of the post root's name)
    calls = call_shapes(index, observer_names, seeded)
    axioms = []
    for p in res.patterns:
        if p.status != "final":
            continue
        cond = p.condition
        pre_eqs, hit = explain(
            index, p.entry_heap, cond, seeded, limits, alloc, calls,
            sat=sat, malloced=p.malloced, lazy_aliasing=lazy_aliasing,
            diagnostics=diagnostics, context=f"{modifier}/{p.provenance_id} pre")
        budget_error = budget_error or hit

        ret_v = p.return_value
        post_args = []
        post_root = None
        for pname, seed_v, ptype in seeded:
            if pname == root_param:
                root_v = ret_v if isinstance(ret_v, SymAddrRef) or ret_v is C.NULL \
                    else p.env[pname]
                display = pname + "'"
                post_args.append((display, root_v, ptype))
                if isinstance(root_v, SymAddrRef):
                    post_root = (p.resolve(root_v).sid, display)
            else:
                # C passes arguments by value: the caller's argument is the
                # seeded value whatever the callee later stored in it
                post_args.append((pname, seed_v, ptype))
        post_eqs, hit = explain(
            index, p.heap, cond, post_args, limits, alloc, calls,
            sat=sat, malloced=p.malloced, post_root=post_root,
            lazy_aliasing=lazy_aliasing,
            diagnostics=diagnostics, context=f"{modifier}/{p.provenance_id} post")
        budget_error = budget_error or hit

        if f.return_type.kind == "void":
            ret_eq = Equation(RET, (), Rhs("void"))
        else:
            rhs = _normalize_return(p, _sym_id_map(post_args, post_root), sat)
            ret_eq = Equation(RET, (), rhs) if rhs is not None else None

        approx = p.approx or any(e.approx for e in pre_eqs + post_eqs)
        axioms.append(Axiom(tuple(pre_eqs), tuple(post_eqs), ret_eq,
                            p.provenance_id, approx))

    axioms = simplify_spec(axioms)
    stats = {
        "finalPatterns": len(res.final_patterns),
        "errorPatterns": len(res.error_patterns),
        "truncatedPaths": res.truncated_paths,
    }
    return SpecSet(modifier, axioms, limits, res.patterns, stats,
                   diagnostics, split_log, budget_error)


# ---------------------------------------------------------------- simplify

def _canonical(eqs) -> tuple:
    return tuple(sorted(eqs, key=lambda e: (e.observer, e.args)))


def _same_conclusion(a: Axiom, b: Axiom):
    """Same conclusion: keep the weaker premise. Only merge when one
    premise set contains the other — then the intersection really is
    their disjunction; intersecting incomparable premises would promise
    the conclusion on inputs neither branch covered."""
    pa, pb = set(a.pre), set(b.pre)
    if a.post == b.post and a.ret == b.ret and (pa <= pb or pb <= pa):
        return _canonical(pa & pb), a.post
    return None


def _merge_first(axioms: list) -> list | None:
    """`axioms` with the first pair `_same_conclusion` merges replaced by
    their merge at the end; None when it merges no pair."""
    for i, a in enumerate(axioms):
        for j in range(i + 1, len(axioms)):
            b = axioms[j]
            merged = _same_conclusion(a, b)
            if merged is not None:
                rest = [x for k, x in enumerate(axioms) if k not in (i, j)]
                return rest + [Axiom(*merged, a.ret, a.provenance + "+" + b.provenance,
                                     a.approx or b.approx)]
    return None


def simplify_spec(axioms: list) -> list:
    """Merge same-conclusion pairs until none is left, then order the
    axioms. Axioms whose conclusions differ are never joined: the union
    of two paths' posts describes neither path."""
    axioms = [Axiom(_canonical(a.pre), _canonical(a.post), a.ret,
                    a.provenance, a.approx) for a in axioms]
    while merged := _merge_first(axioms):
        axioms = merged

    def size(a: Axiom) -> tuple:
        parts = [e.render() for e in a.pre + a.post]
        if a.ret is not None:
            parts.append(a.ret.render())
        text = " ".join(parts)
        return (len(a.pre), len(text), text)

    axioms.sort(key=size)
    return axioms
