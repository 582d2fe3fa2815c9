"""Constraint language for the two condition cells, with a built-in decision
procedure (no external solver).

Terms cover symbolic addresses, NULL, field paths, integer constants and
symbols, opaque data tokens, and +/- over integers. A Constraint is a set of
atoms (conjunction); the empty set is True.

Five of the terms are also the engine's values: a pointer is a
`SymAddrRef` or `NULL`, an int an `IntConst` or a `SymIntRef`, a void*
payload a `SymDataRef`. Atoms take values as they are; field paths and
`+`/`-` only occur inside atoms. A heap address is a `SymAddrRef`: the
`symstate.Allocator` hands it out, and the heap is keyed by it. Terms are
frozen value objects (`record.Frozen`) with structural, class-aware
equality. The three symbol classes hash by their `sid`, which one
allocator never hands out twice, and `NULL` by a constant, so the sets and
dicts that hold them hash no strings.

Satisfiability is decided by
  (i)  congruence closure over the equality atoms of the address/data
       universe, with field paths treated as uninterpreted function
       applications and NULL as a distinguished constant, refuted by any
       disequality collapsing into one class; and
  (ii) integer reasoning: each arithmetic atom is normalized to
       "unit-coefficient linear term >= constant" and intervals are
       propagated between single-variable and multi-variable terms until
       fixpoint; crossing bounds refute.
Anything outside that fragment makes the verdict Unknown rather than wrong:
Unsat is only ever returned with an actual refutation in hand.

Both parts live in one `Closure` object, and `check_sat` is its verdict.
The engine asks a narrower question at every branch and dereference: "is
this path condition plus one atom satisfiable?". One `SatCache` answers it
for a whole inference invocation (the modifier run and every observer
replay, which start from the modifier's path conditions), keeping the
closure of every atom set it has seen. A question extends the path
condition's closure by one atom (a copied union-find re-closed over field
paths, or a re-run of the interval check on the integer atoms) and keeps
the result, where the path's next question starts. Its answers are
`check_sat`'s, so the one-sided Unsat contract holds for them too.
"""

from __future__ import annotations

import enum

from .record import Frozen, setfield

# ---------------------------------------------------------------- terms

class Term(Frozen):
    __slots__ = ()


class _Symbol(Term):
    """A symbol: `sid`, which one allocator never hands out twice, is its
    hash; its class and `display` also take part in equality."""
    __slots__ = ("sid", "display")

    def __init__(self, sid: int, display: str):
        setfield(self, "sid", sid)
        setfield(self, "display", display)

    def _key(self):
        return (self.sid, self.display)

    def __hash__(self):
        return self.sid


class SymAddrRef(_Symbol):
    """A heap address: a pointer argument, a materialized input object, a
    malloc result or a variable's cell. It is also the heap key."""
    __slots__ = ()


class SymIntRef(_Symbol):
    __slots__ = ()


class SymDataRef(_Symbol):
    __slots__ = ()


class NullRef(Term):
    __slots__ = ()

    def _key(self):
        return ()

    def __hash__(self):
        return -3  # a constant no sid takes: sids count up from 0


NULL = NullRef()


class FieldPath(Term):
    __slots__ = ("base", "fields")

    def __init__(self, base: SymAddrRef, fields: tuple[str, ...]):
        setfield(self, "base", base)
        setfield(self, "fields", fields)

    def _key(self):
        return (self.base, self.fields)


class IntConst(Term):
    __slots__ = ("value",)

    def __init__(self, value: int):
        setfield(self, "value", value)

    def _key(self):
        return (self.value,)


class _Arith(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        setfield(self, "left", left)
        setfield(self, "right", right)

    def _key(self):
        return (self.left, self.right)


class Add(_Arith):
    __slots__ = ()


class Sub(_Arith):
    __slots__ = ()


EQ, NEQ, LT, LE, GT, GE = "=", "!=", "<", "<=", ">", ">="
_NEGATION = {EQ: NEQ, NEQ: EQ, LT: GE, GE: LT, LE: GT, GT: LE}


class Atom(Frozen):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Term, rhs: Term):
        setfield(self, "op", op)
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)

    def _key(self):
        return (self.op, self.lhs, self.rhs)


def negate_atom(a: Atom) -> Atom:
    return Atom(_NEGATION[a.op], a.lhs, a.rhs)


class Constraint(Frozen):
    __slots__ = ("atoms",)

    def __init__(self, atoms: frozenset[Atom]):
        setfield(self, "atoms", atoms)

    def _key(self):
        return (self.atoms,)

    @property
    def is_true(self) -> bool:
        return not self.atoms

    def with_atom(self, a: Atom) -> "Constraint":
        return Constraint(self.atoms | {a})


TRUE = Constraint(frozenset())


def constraint(*atoms: Atom) -> Constraint:
    return Constraint(frozenset(atoms))


def conjoin(a: Constraint, b: Constraint) -> Constraint:
    return Constraint(a.atoms | b.atoms)


class SatResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------- rendering

def render_term(t: Term) -> str:
    if isinstance(t, SymAddrRef):
        return t.display.replace(".", "->")
    if isinstance(t, NullRef):
        return "NULL"
    if isinstance(t, FieldPath):
        return "->".join([t.base.display.replace(".", "->"), *t.fields])
    if isinstance(t, IntConst):
        return str(t.value)
    if isinstance(t, SymIntRef):
        return "?" + t.display.replace(".", "->")
    if isinstance(t, SymDataRef):
        return "?" + t.display.replace(".", "->")
    if isinstance(t, Add):
        return f"{render_term(t.left)} + {render_term(t.right)}"
    if isinstance(t, Sub):
        return f"{render_term(t.left)} - {render_term(t.right)}"
    raise TypeError(f"unknown term {t!r}")


def render_atom(a: Atom) -> str:
    return f"{render_term(a.lhs)} {a.op} {render_term(a.rhs)}"


def render_constraint(c: Constraint) -> str:
    if c.is_true:
        return "true"
    return " /\\ ".join(sorted(render_atom(a) for a in c.atoms))


# ---------------------------------------------------------------- sorts

def is_int_term(t: Term) -> bool:
    return isinstance(t, (IntConst, SymIntRef, Add, Sub))


def _is_int_atom(a: Atom) -> bool:
    if a.op in (LT, LE, GT, GE):
        return True
    return is_int_term(a.lhs) or is_int_term(a.rhs)


# ---------------------------------------------------------------- congruence

class _UnionFind:
    """Union-find over terms. `register` makes a term its own root; after
    that, `find` returns the one stored object for every term equal to it,
    so roots are compared by identity. Copying `parent` copies the
    partition."""

    def __init__(self, parent: dict | None = None):
        self.parent: dict = {} if parent is None else parent

    def register(self, terms) -> None:
        for t in terms:
            self.parent.setdefault(t, t)

    def find(self, x):
        parent = self.parent
        while True:
            p = parent.get(x, x)
            if p is x:
                return x
            g = parent.get(p, p)
            if g is not p:
                parent[x] = g  # path halving; the partition is unchanged
            x = g

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return False
        self.parent[ra] = rb
        return True


def _atom_terms(a: Atom):
    """The atom's two sides, plus the base of each side that is a field path."""
    for t in (a.lhs, a.rhs):
        yield t
        if isinstance(t, FieldPath):
            yield t.base


def _close(uf: _UnionFind, paths) -> None:
    """Close `uf` under field-path congruence: paths with the same field
    chain over unified bases collapse into one class."""
    changed = True
    while changed:
        changed = False
        first: dict = {}
        for p in paths:
            q = first.setdefault((p.fields, uf.find(p.base)), p)
            if q is not p and uf.union(p, q):
                changed = True


def _congruence_classes(atoms) -> tuple[_UnionFind, list[Atom], set[Term]]:
    """Union-find over the non-integer terms, closed under field-path
    congruence (equal bases and equal field chains collapse)."""
    uf = _UnionFind()
    terms: set[Term] = set()
    eqs, neqs = [], []
    for a in atoms:
        terms.update(_atom_terms(a))
        if a.op == EQ:
            eqs.append(a)
        elif a.op == NEQ:
            neqs.append(a)
    uf.register(terms)
    for a in eqs:
        uf.union(a.lhs, a.rhs)
    _close(uf, [t for t in terms if isinstance(t, FieldPath)])
    return uf, neqs, terms


# ---------------------------------------------------------------- integers

def _linearize(t: Term):
    """Return (coeffs: {SymIntRef: int}, const: int) or None if non-linear
    scaffolding shows up (it cannot, with only Add/Sub)."""
    if isinstance(t, IntConst):
        return {}, t.value
    if isinstance(t, SymIntRef):
        return {t: 1}, 0
    if isinstance(t, (Add, Sub)):
        l = _linearize(t.left)
        r = _linearize(t.right)
        if l is None or r is None:
            return None
        sign = 1 if isinstance(t, Add) else -1
        coeffs = dict(l[0])
        for k, v in r[0].items():
            coeffs[k] = coeffs.get(k, 0) + sign * v
        return {k: v for k, v in coeffs.items() if v != 0}, l[1] + sign * r[1]
    return None


def _norm_int_atom(a: Atom):
    """Normalize to a list of (key, lo, hi) interval facts over canonical
    linear-term keys, or None when the atom leaves the supported fragment.

    key: tuple of (SymIntRef, coeff) sorted by display, sign-normalized so
    the first coefficient is positive; every |coeff| must be 1.
    """
    l = _linearize(a.lhs)
    r = _linearize(a.rhs)
    if l is None or r is None:
        return None
    coeffs = dict(l[0])
    for k, v in r[0].items():
        coeffs[k] = coeffs.get(k, 0) - v
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    const = l[1] - r[1]  # atom is: sum(coeffs) + const  <op>  0
    if any(abs(v) != 1 for v in coeffs.values()):
        return None
    if not coeffs:
        holds = {
            EQ: const == 0, NEQ: const != 0,
            LT: const < 0, LE: const <= 0, GT: const > 0, GE: const >= 0,
        }[a.op]
        return [] if holds else [("contradiction", 0, -1)]
    items = sorted(coeffs.items(), key=lambda kv: (kv[0].display, kv[0].sid))
    flip = items[0][1] < 0
    if flip:
        items = [(k, -v) for k, v in items]
        const = -const
        op = {EQ: EQ, NEQ: NEQ, LT: GT, GT: LT, LE: GE, GE: LE}[a.op]
    else:
        op = a.op
    key = tuple(items)
    # facts constrain: term := sum(items); term + const <op> 0  =>  term <op> -const
    b = -const
    inf = None
    if op == EQ:
        return [(key, b, b)]
    if op == NEQ:
        return [(key, ("neq", b), ("neq", b))]  # handled separately
    if op == LE:
        return [(key, inf, b)]
    if op == LT:
        return [(key, inf, b - 1)]
    if op == GE:
        return [(key, b, inf)]
    if op == GT:
        return [(key, b + 1, inf)]
    raise AssertionError(op)


def _scaled(c: int, lo, hi):
    """The interval of c*x for x in [lo, hi], c being 1 or -1."""
    if c == 1:
        return lo, hi
    return (None if hi is None else -hi), (None if lo is None else -lo)


def _int_sat(atoms) -> SatResult:
    """Interval propagation over canonical linear keys. Returns UNSAT only on
    a genuine crossing; SAT when every atom was representable; UNKNOWN
    otherwise."""
    unknown = False
    bounds: dict[tuple, list] = {}  # key -> [lo, hi] (None = unbounded)
    neqs: list[tuple[tuple, int]] = []

    def tighten(key, lo, hi) -> bool:
        """Narrow `key`'s interval by [lo, hi] (None: no bound); whether
        it changed."""
        b = bounds.setdefault(key, [None, None])
        changed = False
        if lo is not None and (b[0] is None or lo > b[0]):
            b[0] = lo
            changed = True
        if hi is not None and (b[1] is None or hi < b[1]):
            b[1] = hi
            changed = True
        return changed

    def span(items):
        """The interval of sum(c * v) over `items` (each c is 1 or -1)
        from the variables' own intervals; None where one is unbounded."""
        lo = hi = 0
        for v, c in items:
            vlo, vhi = _scaled(c, *bounds.get(((v, 1),), (None, None)))
            lo = None if lo is None or vlo is None else lo + vlo
            hi = None if hi is None or vhi is None else hi + vhi
        return lo, hi

    for a in atoms:
        facts = _norm_int_atom(a)
        if facts is None:
            unknown = True
            continue
        for key, lo, hi in facts:
            if key == "contradiction":
                return SatResult.UNSAT
            if isinstance(lo, tuple) and lo[0] == "neq":
                neqs.append((key, lo[1]))
                continue
            tighten(key, lo, hi)

    # propagate between multi-variable terms and their variables: derive
    # a bound for each variable from the term and the other variables,
    # then tighten each term from its variables
    multi = [key for key in bounds if len(key) > 1]
    for _ in range(64):
        changed = False
        for key in multi:
            lo, hi = bounds[key]
            for i, (v, c) in enumerate(key):
                rlo, rhi = span(key[:i] + key[i + 1:])
                # c*v = term - rest
                vlo = None if lo is None or rhi is None else lo - rhi
                vhi = None if hi is None or rlo is None else hi - rlo
                changed |= tighten(((v, 1),), *_scaled(c, vlo, vhi))
        for key in multi:
            changed |= tighten(key, *span(key))
        if not changed:
            break

    for key, (lo, hi) in bounds.items():
        if lo is not None and hi is not None and lo > hi:
            return SatResult.UNSAT
    for key, forbidden in neqs:
        b = bounds.get(key)
        if b and b[0] is not None and b[0] == b[1] == forbidden:
            return SatResult.UNSAT
    return SatResult.UNKNOWN if unknown else SatResult.SAT


# ---------------------------------------------------------------- checkSat

def _addrish(t: Term) -> bool:
    return isinstance(t, (SymAddrRef, NullRef, FieldPath, SymDataRef))


def _refuted(uf: _UnionFind, neqs) -> bool:
    """Whether some disequality has both sides in one class."""
    return any(uf.find(a.lhs) is uf.find(a.rhs) for a in neqs)


def _verdict(eq_refuted: bool, int_verdict: SatResult | None, bad_sorts: bool) -> SatResult:
    if eq_refuted or int_verdict == SatResult.UNSAT:
        return SatResult.UNSAT
    if bad_sorts or int_verdict == SatResult.UNKNOWN:
        return SatResult.UNKNOWN
    return SatResult.SAT


class Closure:
    """The closed state of one conjunction: union-find parents over its
    non-integer terms, its field paths and disequalities, its integer atoms
    with their interval verdict, and whether an equality mixes sorts.

    `Closure.of(atoms)` builds it; `extended(atom)` returns the closure of
    the conjunction plus one atom without rebuilding it. An extension that
    leaves the partition as it is shares the parent map, which later
    lookups only ever change in ways that keep the partition.
    """

    def __init__(self, parent: dict, paths: set, neqs: list, int_atoms: list,
                 bad_sorts: bool, eq_refuted: bool, int_verdict: SatResult | None):
        self.parent = parent
        self.paths = paths
        self.neqs = neqs
        self.int_atoms = int_atoms
        self.bad_sorts = bad_sorts
        self.eq_refuted = eq_refuted
        self.int_verdict = int_verdict
        self.verdict = _verdict(eq_refuted, int_verdict, bad_sorts)

    @classmethod
    def of(cls, atoms) -> "Closure":
        int_atoms, eq_atoms = [], []
        for a in atoms:
            (int_atoms if _is_int_atom(a) else eq_atoms).append(a)
        uf, neqs, terms = _congruence_classes(eq_atoms)
        eq_refuted = _refuted(uf, neqs)
        return cls(
            uf.parent, {t for t in terms if isinstance(t, FieldPath)}, neqs, int_atoms,
            not all(_addrish(t) for a in eq_atoms for t in (a.lhs, a.rhs)),
            eq_refuted,
            # the integer side is only consulted once the equalities stand
            None if eq_refuted else _int_sat(int_atoms),
        )

    def extended(self, atom: Atom) -> "Closure":
        if self.eq_refuted:
            return self  # no atom undoes a refutation of the equalities
        if _is_int_atom(atom):
            int_atoms = self.int_atoms + [atom]
            return Closure(self.parent, self.paths, self.neqs, int_atoms,
                           self.bad_sorts, False, _int_sat(int_atoms))
        bad_sorts = self.bad_sorts or not (_addrish(atom.lhs) and _addrish(atom.rhs))
        neqs = self.neqs + [atom] if atom.op == NEQ else self.neqs
        new_paths = {t for t in (atom.lhs, atom.rhs)
                     if isinstance(t, FieldPath) and t not in self.paths}
        uf = _UnionFind(self.parent)
        if new_paths or (atom.op == EQ and uf.find(atom.lhs) is not uf.find(atom.rhs)):
            # the partition changes: close a copy
            uf = _UnionFind(dict(self.parent))
            uf.register(_atom_terms(atom))
            if atom.op == EQ:
                uf.union(atom.lhs, atom.rhs)
            paths = self.paths | new_paths
            _close(uf, paths)
            refuted = _refuted(uf, neqs)
        else:
            # only new singleton classes, which the shared map may hold
            uf.register(_atom_terms(atom))
            paths = self.paths
            refuted = atom.op == NEQ and uf.find(atom.lhs) is uf.find(atom.rhs)
        return Closure(uf.parent, paths, neqs, self.int_atoms, bad_sorts,
                       refuted, self.int_verdict)


def check_sat(c: Constraint) -> SatResult:
    return Closure.of(c.atoms).verdict


class SatCache:
    """Memo for the questions one inference invocation asks: "is `base`
    plus one atom satisfiable?". It maps atom sets to their closures. A
    question extends the closure of `base` by the atom and keeps the
    result, which is the base of the next question on that path. Answers
    equal `check_sat` on the conjunction, which depends on the atom set
    alone, so runs may share one cache."""

    def __init__(self):
        self.closures: dict[frozenset, Closure] = {}

    def _closure(self, atoms: frozenset) -> Closure:
        closure = self.closures.get(atoms)
        if closure is None:
            closure = self.closures[atoms] = Closure.of(atoms)
        return closure

    def check(self, base: Constraint, atom: Atom) -> SatResult:
        if atom in base.atoms:
            return self._closure(base.atoms).verdict
        key = base.atoms | {atom}
        closure = self.closures.get(key)
        if closure is None:
            closure = self.closures[key] = self._closure(base.atoms).extended(atom)
        return closure.verdict


class Entailment(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def entails(c: Constraint, a: Atom) -> Entailment:
    r = check_sat(conjoin(c, constraint(negate_atom(a))))
    if r == SatResult.UNSAT:
        return Entailment.YES
    if r == SatResult.SAT:
        return Entailment.NO
    return Entailment.UNKNOWN
