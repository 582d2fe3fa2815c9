"""The language of the two condition cells, with a built-in decision
procedure (no external solver).

Terms cover symbolic addresses, NULL, field paths, integer constants and
symbols, opaque data tokens, and +/- over integers. A condition is the
`frozenset` of its atoms, read as their conjunction, and the empty set,
`TRUE`, is true.

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
closure of every atom set it has seen, up to the end of the replay phase
that added it: `mark` and `release` drop what one `explain` call added,
since no condition of a replay outlives it. A question extends the path
condition's closure by one atom (an equality merges two classes of a
copied union-find and rechecks only the disequalities of the merged one;
an integer atom re-runs the interval check on the stored normal forms
plus its own) and keeps the result, where the path's next question
starts. An atom a path records without asking gets its closure the same
way, so `Closure.of` runs once per invocation, on the empty condition,
when the cache is made. The engine never builds a field path; a
condition that holds one is closed from scratch by `Closure.of`.
Its answers are `check_sat`'s, so the one-sided Unsat contract holds for
them too.

The cache also interns the invocation's atoms: one `Atom` object per
`(op, lhs, rhs)`. Each atom stores its hash, so the conditions that key
the closures, and the membership tests on them, match atoms by identity
instead of comparing their terms.
"""

from __future__ import annotations

import enum
import operator

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
    """A heap address: a pointer argument, a materialized input object or
    a malloc result. It is also the heap key."""
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
    """`lhs op rhs`. Its hash, that of `(op, lhs, rhs)`, is stored when it
    is built. Atoms compare by structure, but the engine's atoms come from
    a `SatCache`, which hands out one object per structure, so sets of them
    match by identity."""
    __slots__ = ("op", "lhs", "rhs", "_hash")

    def __init__(self, op: str, lhs: Term, rhs: Term):
        setfield(self, "op", op)
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)
        setfield(self, "_hash", hash((op, lhs, rhs)))

    def _key(self):
        return (self.op, self.lhs, self.rhs)

    def __hash__(self):
        return self._hash


def negate_atom(a: Atom) -> Atom:
    return Atom(_NEGATION[a.op], a.lhs, a.rhs)


TRUE = frozenset()  # the empty condition


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


def render_constraint(c: frozenset[Atom]) -> str:
    if not c:
        return "true"
    return " /\\ ".join(sorted(render_atom(a) for a in c))


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


def _has_path(a: Atom) -> bool:
    return isinstance(a.lhs, FieldPath) or isinstance(a.rhs, FieldPath)


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


# ---------------------------------------------------------------- integers

def _linearize(t: Term):
    """Return (coeffs: {SymIntRef: int}, const: int), or None when `t` has
    a non-integer term in it. That is how an atom that mixes sorts, such
    as `x = q` for an int `x` and a pointer `q`, leaves the fragment and
    makes the verdict Unknown."""
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


_MIRROR = {EQ: EQ, NEQ: NEQ, LT: GT, GT: LT, LE: GE, GE: LE}


def _norm_int_atom(a: Atom):
    """`a` as `(key, op, bound)`, stating `sum(c * v) op bound` over the
    `(v, c)` of `key`, or None when the atom leaves the supported fragment.

    key: tuple of (SymIntRef, coeff) sorted by display, sign-normalized so
    the first coefficient is positive; every |coeff| must be 1. A constant
    atom has the key `()`.
    """
    lin = _linearize(Sub(a.lhs, a.rhs))
    if lin is None:
        return None
    coeffs, const = lin  # the atom is: sum(coeffs) + const <op> 0
    if any(abs(v) != 1 for v in coeffs.values()):
        return None
    items = sorted(coeffs.items(), key=lambda kv: (kv[0].display, kv[0].sid))
    if items and items[0][1] < 0:
        return tuple((k, -v) for k, v in items), _MIRROR[a.op], const
    return tuple(items), a.op, -const


# whether `0 op bound` holds, for a constant atom
_HOLDS = {EQ: operator.eq, NEQ: operator.ne, LT: operator.lt, LE: operator.le,
          GT: operator.gt, GE: operator.ge}
# the interval `term op bound` confines the term to, as offsets from the
# bound (None: unbounded); `!=` confines it to no interval
_INTERVAL = {EQ: (0, 0), LE: (None, 0), LT: (None, -1), GE: (0, None), GT: (1, None)}


def _scaled(c: int, lo, hi):
    """The interval of c*x for x in [lo, hi], c being 1 or -1."""
    if c == 1:
        return lo, hi
    return (None if hi is None else -hi), (None if lo is None else -lo)


def _int_sat(forms) -> SatResult:
    """Interval propagation over the normal forms of integer atoms
    (`_norm_int_atom`, None for an atom outside the fragment). Returns
    UNSAT only on a genuine crossing; SAT when every atom was
    representable; UNKNOWN otherwise."""
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

    for norm in forms:
        if norm is None:
            unknown = True
            continue
        key, op, b = norm
        if not key:
            if not _HOLDS[op](0, b):
                return SatResult.UNSAT
        elif op == NEQ:
            neqs.append((key, b))
        else:
            lo, hi = _INTERVAL[op]
            tighten(key, None if lo is None else b + lo, None if hi is None else b + hi)

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

def _refuted(uf: _UnionFind, neqs) -> bool:
    """Whether some disequality has both sides in one class."""
    return any(uf.find(a.lhs) is uf.find(a.rhs) for a in neqs)


def _by_class(uf: _UnionFind, neqs) -> dict:
    """Each disequality under the root of each of its sides."""
    index: dict = {}
    for a in neqs:
        for t in (a.lhs, a.rhs):
            r = uf.find(t)
            index[r] = index.get(r, ()) + (a,)
    return index


class Closure:
    """What decides the verdict of one conjunction: union-find parents
    over its non-integer terms, its field paths, its disequalities indexed
    by class, and the normal form of each integer atom (None outside the
    fragment).

    `verdict` is Unsat when congruence closure refutes a disequality, and
    otherwise the interval verdict over the normal forms. Only an integer
    atom can leave the fragment: a non-integer one equates or separates
    addresses, NULL, data tokens and field paths, and an atom that mixes
    an int with one of those is an integer atom (see `_linearize`).

    `diseqs` maps the root of each class to the disequalities with a side
    in it, so each one is listed under both of its sides' roots.

    `Closure.of(atoms)` builds it, closing the partition under field-path
    congruence. `extended(atom)` returns the closure of the conjunction
    plus one atom without rebuilding it, normalizing only that atom. It
    takes only path-free cases (`SatCache.extend` builds the others with
    `of`), where a merge of one class into another can only refute a
    disequality between the two, so it rechecks those listed at the merged
    root and moves them to the root that stays. An extension that leaves
    the partition as it is shares the parent map, which later lookups only
    ever change in ways that keep the partition. Closures share the index
    and its tuples, so an extension that changes it copies the map.
    """

    def __init__(self, parent: dict, paths: set, diseqs: dict, int_forms: list,
                 verdict: SatResult):
        self.parent = parent
        self.paths = paths
        self.diseqs = diseqs
        self.int_forms = int_forms
        self.verdict = verdict

    @classmethod
    def of(cls, atoms) -> "Closure":
        uf = _UnionFind()
        paths, neqs, int_forms = set(), [], []
        for a in atoms:
            if _is_int_atom(a):
                int_forms.append(_norm_int_atom(a))
                continue
            uf.register(_atom_terms(a))
            paths.update(t for t in (a.lhs, a.rhs) if isinstance(t, FieldPath))
            if a.op == EQ:
                uf.union(a.lhs, a.rhs)
            else:
                neqs.append(a)
        _close(uf, paths)
        # the integer side is only consulted once the equalities stand
        verdict = SatResult.UNSAT if _refuted(uf, neqs) else _int_sat(int_forms)
        return cls(uf.parent, paths, _by_class(uf, neqs), int_forms, verdict)

    def extended(self, atom: Atom) -> "Closure":
        if self.verdict is SatResult.UNSAT:
            return self  # no atom undoes a refutation
        if _is_int_atom(atom):
            int_forms = self.int_forms + [_norm_int_atom(atom)]
            return Closure(self.parent, self.paths, self.diseqs, int_forms,
                           _int_sat(int_forms))
        uf = _UnionFind(self.parent)
        ra, rb = uf.find(atom.lhs), uf.find(atom.rhs)
        if atom.op == EQ and ra is not rb:
            # `ra` joins `rb`: only a disequality listed at `ra` can now
            # have both sides in one class
            uf = _UnionFind(dict(self.parent))
            uf.register(_atom_terms(atom))
            uf.parent[ra] = rb
            diseqs = dict(self.diseqs)
            moved = diseqs.pop(ra, ())
            refuted = any(uf.find(a.lhs) is uf.find(a.rhs) for a in moved)
            if moved:
                diseqs[rb] = diseqs.get(rb, ()) + moved
        else:
            # only new singleton classes, which the shared map may hold
            uf.register(_atom_terms(atom))
            diseqs = self.diseqs
            refuted = atom.op == NEQ and ra is rb
            if atom.op == NEQ and not refuted:
                diseqs = {**diseqs, ra: diseqs.get(ra, ()) + (atom,),
                          rb: diseqs.get(rb, ()) + (atom,)}
        return Closure(uf.parent, self.paths, diseqs, self.int_forms,
                       SatResult.UNSAT if refuted else self.verdict)


def check_sat(c: frozenset[Atom]) -> SatResult:
    return Closure.of(c).verdict


class SatCache:
    """Memo for one inference invocation: its atoms and the closures of
    the atom sets its runs hold.

    `atom` hands out one `Atom` object per `(op, lhs, rhs)`, and
    `negation` that of an atom's negation, so the sets that hold them,
    and the closure table keyed by those sets, match atoms by identity.

    `extend(base, atom)` is the closure of `base` plus one atom: it
    extends the closure of `base` by the atom and keeps the result, which
    is where the path's next question starts. When `base` or the atom has
    a field path, it builds the closure with `Closure.of` instead, since
    `extended` takes only path-free cases. Every atom a run records
    goes through it, whether or not a question decided it, so only the
    closure a run starts from may need building from scratch; every later
    one of its paths is an extension. `check` is its verdict. Answers
    equal `check_sat` on the conjunction, which depends on the atom set
    alone, so runs may share one cache.

    `mark()` notes the sizes of both tables, and `release(mark)` drops,
    newest first, every atom and closure added since. A condition built
    before the mark holds only atoms interned before it, so its closure
    stays and its atoms stay the cache's own; a condition built after the
    mark must not outlive the release. `explain` releases what its
    replays added when it returns. The closure of the empty condition is
    built here, before any mark, so a released closure is only ever
    rebuilt as an extension."""

    def __init__(self):
        self.interned: dict[tuple, Atom] = {}
        self.closures: dict[frozenset, Closure] = {TRUE: Closure.of(TRUE)}

    def mark(self) -> tuple[int, int]:
        return len(self.interned), len(self.closures)

    def release(self, mark: tuple[int, int]) -> None:
        # a dict pops its newest entry first, and the tables only grow
        n_interned, n_closures = mark
        while len(self.closures) > n_closures:
            self.closures.popitem()
        while len(self.interned) > n_interned:
            self.interned.popitem()

    def atom(self, op: str, lhs: Term, rhs: Term) -> Atom:
        key = (op, lhs, rhs)
        a = self.interned.get(key)
        if a is None:
            a = self.interned[key] = Atom(op, lhs, rhs)
        return a

    def negation(self, a: Atom) -> Atom:
        return self.atom(_NEGATION[a.op], a.lhs, a.rhs)

    def _closure(self, atoms: frozenset) -> Closure:
        closure = self.closures.get(atoms)
        if closure is None:
            closure = self.closures[atoms] = Closure.of(atoms)
        return closure

    def extend(self, base: frozenset[Atom], atom: Atom) -> Closure:
        if atom in base:
            return self._closure(base)
        key = base | {atom}
        closure = self.closures.get(key)
        if closure is None:
            start = self._closure(base)
            closure = self.closures[key] = (
                Closure.of(key) if start.paths or _has_path(atom)
                else start.extended(atom))
        return closure

    def check(self, base: frozenset[Atom], atom: Atom) -> SatResult:
        return self.extend(base, atom).verdict

    def verdict(self, base: frozenset[Atom]) -> SatResult:
        """The verdict of `base` itself."""
        return self._closure(base).verdict


class Entailment(enum.Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def entails(c: frozenset[Atom], a: Atom) -> Entailment:
    r = check_sat(c | {negate_atom(a)})
    if r == SatResult.UNSAT:
        return Entailment.YES
    if r == SatResult.SAT:
        return Entailment.NO
    return Entailment.UNKNOWN
