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
one axiom per branch; axioms are then merged (same conclusion — intersect
premises; same premises — union conclusions) and canonically ordered.
"""

from __future__ import annotations

from itertools import permutations

from . import constraints as C
from .constraints import (Atom, Constraint, IntConst, SatCache, SatResult, SymAddrRef,
                          SymDataRef, SymIntRef)
from .engine import Limits, se
from .record import Frozen, setfield
from .symstate import (
    FINAL,
    UNDEF,
    Allocator,
    CallPattern,
    Pattern,
    fresh_value,
)


class UnknownFunction(Exception):
    def __init__(self, name: str):
        super().__init__(f"no function named {name!r} in the program")
        self.name = name


class NotAnObserver(Exception):
    pass


# ---------------------------------------------------------------- rhs

class RInt(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: int):
        setfield(self, "value", value)

    def _key(self):
        return (self.value,)

    def render(self) -> str:
        return str(self.value)

    def to_json(self) -> dict:
        return {"kind": "int", "value": self.value}


class RNull(Frozen):
    __slots__ = ()

    def _key(self):
        return ()

    def render(self) -> str:
        return "NULL"

    def to_json(self) -> dict:
        return {"kind": "null"}


class RArg(Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)

    def _key(self):
        return (self.name,)

    def render(self) -> str:
        return self.name

    def to_json(self) -> dict:
        return {"kind": "arg", "value": self.name}


class RPostRoot(RArg):
    __slots__ = ()

    def to_json(self) -> dict:
        return {"kind": "postRoot", "value": self.name}


class RVoid(Frozen):
    __slots__ = ()

    def _key(self):
        return ()

    def render(self) -> str:
        return "void"

    def to_json(self) -> dict:
        return {"kind": "void"}


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

def build_universe(index, observer_names, args):
    """All well-typed observer calls over permutations of subsets of the
    modifier's arguments. `args` is [(display, value, ctype)]; returns
    [(observer, ((display, value), ...))] sorted by observer then args."""
    calls = []
    indexed = list(enumerate(args))
    for oname in sorted(observer_names):
        f = index.functions[oname]
        k = len(f.params)
        for combo in permutations(indexed, k):
            if all(a[1][2] == pt for a, (_pn, pt) in zip(combo, f.params)):
                calls.append((oname, tuple((d, v) for _i, (d, v, _t) in combo)))
    calls.sort(key=lambda cv: (cv[0], tuple(d for d, _v in cv[1])))
    return calls


# ---------------------------------------------------------------- explain

_SYMBOLS = (SymAddrRef, SymIntRef, SymDataRef)


def _sym_id_map(args, post_root):
    """Map symbol ids appearing in argument values to their rhs form."""
    m: dict[int, object] = {}
    for display, value, _t in args:
        if isinstance(value, _SYMBOLS):
            m.setdefault(value.sid, RArg(display))
    if post_root is not None:
        sid, name = post_root
        m[sid] = RPostRoot(name)
    return m


def _normalize_return(leaf: Pattern, sym_map: dict, sat: SatCache):
    """The leaf's return value as an expressible rhs, or None."""
    v = leaf.return_value
    if v is C.NULL:
        return RNull()
    if isinstance(v, IntConst):
        return RInt(v.value)
    if isinstance(v, SymAddrRef):
        v = leaf.resolve(v)
        # a provably-null address is NULL first, whatever else it matches
        if sat.check(leaf.condition, Atom(C.NEQ, v, C.NULL)) == SatResult.UNSAT:
            return RNull()
    return sym_map.get(v.sid) if isinstance(v, _SYMBOLS) else None


def explain(
    index,
    heap,
    condition: Constraint,
    args,
    limits: Limits,
    alloc: Allocator,
    observer_names,
    *,
    sat: SatCache,
    malloced=frozenset(),
    post_root=None,
    lazy_aliasing: bool = False,
    diagnostics: list | None = None,
    context: str = "",
):
    """Equations observed to hold on `heap` under `condition`.

    `args` is [(display, value, ctype)] — the vocabulary; `post_root`
    optionally names (sid, display) for the updated-structure root. `sat`
    answers every solver question of the replays and may be shared with
    other runs.

    A call's replay rejects a leaf that is not final, whose value the
    caller cannot name, or whose value differs from the first leaf's, and
    stops there: no equation can come from it. A replay whose budget ran
    out first gets a diagnostic instead."""
    diagnostics = diagnostics if diagnostics is not None else []
    sym_map = _sym_id_map(args, post_root)
    equations = []
    budget_hit = False
    for oname, call_args in build_universe(index, observer_names, args):
        values = []  # the nameable value of each accepted leaf, all equal

        def reject(leaf: Pattern) -> bool:
            v = _normalize_return(leaf, sym_map, sat) if leaf.status == FINAL else None
            if v is None or (values and v != values[0]):
                return True
            values.append(v)
            return False

        res = se(
            index,
            CallPattern(oname, [v for _d, v in call_args],
                        initial_constraint=condition,
                        initial_heap=heap,
                        initial_malloced=malloced),
            limits,
            alloc,
            lazy_aliasing,
            reject,
            sat=sat,
        )
        if res.budget_error:
            budget_hit = True
            names = ", ".join(d for d, _v in call_args)
            diagnostics.append(
                f"{context}: observer run {oname}({names}) exhausted its "
                f"budget; inconclusive")
            continue
        if res.rejected or not values:
            continue
        approx = any(leaf.approx for leaf in res.patterns)
        equations.append(Equation(oname, tuple(d for d, _v in call_args),
                                  values[0], approx))
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
            g = index.functions.get(name)
            if g is None:
                raise UnknownFunction(name)
            if g.return_type.kind == "void":
                raise NotAnObserver(f"{name} returns void")
    observer_names = set(index.observers if observers_override is None
                         else observers_override) - {modifier}

    alloc = Allocator(seed_label)
    # one solver cache for every run below: replays start from the path
    # conditions whose closures the modifier run already built
    sat = SatCache()
    seeded = _seed_args(f, alloc)
    res = se(index, CallPattern(modifier, [v for _n, v, _t in seeded]),
             limits, alloc, lazy_aliasing, sat=sat)

    diagnostics: list[str] = []
    split_log = list(res.split_log)
    budget_error = res.budget_error
    if res.budget_error:
        diagnostics.append(f"{modifier}: exploration budget exhausted; "
                           f"results cover only the explored branches")

    root_param = next((pname for pname, pt in f.params if pt.kind == "structptr"),
                      None)
    if root_param is None:
        diagnostics.append(f"{modifier}: no pointer argument; post-state "
                           f"equations use unprimed names")

    axioms = []
    for p in res.patterns:
        if p.status != "final":
            continue
        cond = p.condition
        pre_eqs, hit = explain(
            index, p.entry_heap, cond, seeded, limits, alloc, observer_names,
            sat=sat, malloced=p.malloced, lazy_aliasing=lazy_aliasing,
            diagnostics=diagnostics, context=f"{modifier}/{p.provenance_id} pre")
        budget_error = budget_error or hit

        ret_v = p.return_value
        post_args = []
        post_root = None
        for pname, seed_v, ptype in seeded:
            if pname == root_param:
                cell_v = p.heap.get(p.env[pname], UNDEF)
                root_v = ret_v if isinstance(ret_v, SymAddrRef) or ret_v is C.NULL \
                    else cell_v
                display = pname + "'"
                post_args.append((display, root_v, ptype))
                if isinstance(root_v, SymAddrRef):
                    post_root = (p.resolve(root_v).sid, display)
            else:
                post_args.append((pname, p.heap.get(p.env[pname], UNDEF), ptype))
        post_eqs, hit = explain(
            index, p.heap, cond, post_args, limits, alloc, observer_names,
            sat=sat, malloced=p.malloced, post_root=post_root,
            lazy_aliasing=lazy_aliasing,
            diagnostics=diagnostics, context=f"{modifier}/{p.provenance_id} post")
        budget_error = budget_error or hit

        if f.return_type.kind == "void":
            ret_eq = Equation(RET, (), RVoid())
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
    return tuple(sorted(eqs, key=lambda e: (e.observer, e.args, e.render())))


def simplify_spec(axioms: list) -> list:
    axioms = [Axiom(_canonical(a.pre), _canonical(a.post), a.ret,
                    a.provenance, a.approx) for a in axioms]
    changed = True
    while changed:
        changed = False
        # Same conclusion: keep the weaker premise. Only merge when one
        # premise set contains the other — then the intersection really is
        # their disjunction; intersecting incomparable premises would
        # promise the conclusion on inputs neither branch covered.
        for i in range(len(axioms)):
            for j in range(i + 1, len(axioms)):
                a, b = axioms[i], axioms[j]
                pa, pb = set(a.pre), set(b.pre)
                if (a.post == b.post and a.ret == b.ret
                        and (pa <= pb or pb <= pa)):
                    merged = Axiom(
                        _canonical(pa & pb), a.post, a.ret,
                        a.provenance + "+" + b.provenance, a.approx or b.approx)
                    axioms = [x for k, x in enumerate(axioms) if k not in (i, j)]
                    axioms.append(merged)
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        # same premise: conclusions can be joined
        for i in range(len(axioms)):
            for j in range(i + 1, len(axioms)):
                a, b = axioms[i], axioms[j]
                if a.pre == b.pre and a.ret == b.ret:
                    merged = Axiom(
                        a.pre, _canonical(set(a.post) | set(b.post)), a.ret,
                        a.provenance + "+" + b.provenance, a.approx or b.approx)
                    axioms = [x for k, x in enumerate(axioms) if k not in (i, j)]
                    axioms.append(merged)
                    changed = True
                    break
            if changed:
                break

    def size(a: Axiom) -> tuple:
        parts = [e.render() for e in a.pre + a.post]
        if a.ret is not None:
            parts.append(a.ret.render())
        text = " ".join(parts)
        return (len(a.pre), len(text), text)

    axioms.sort(key=size)
    return axioms
