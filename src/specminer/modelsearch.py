"""Brute-force model enumeration over small finite universes.

This is the reference oracle the decision procedure in `constraints` is
tested against: a conjunction is satisfiable over the finite universe iff
this module finds an assignment. It is exponential per connected component
and only suitable for tests and for entailment counterexamples.

Universe per sort:
  addresses  a0..a{n-1} plus NULL
  integers   [int_lo, int_hi]
  data       d0..d{m-1}

Atoms are grouped into connected components by shared variables and each
component is enumerated independently, so disjoint address and integer
sub-problems do not multiply. Field paths are interpreted against
per-field-chain lookup tables that are themselves enumerated; a path rooted
at NULL makes its atom false.
"""

from __future__ import annotations

import itertools

from .constraints import (
    Add,
    Atom,
    FieldPath,
    IntConst,
    NullRef,
    Sub,
    SymAddrRef,
    SymDataRef,
    SymIntRef,
    Term,
    is_int_term,
)

_ADDR, _INT, _DATA = "addr", "int", "data"
_NULL_DEREF = object()


def _term_vars(t: Term) -> set:
    if isinstance(t, (SymAddrRef, SymIntRef, SymDataRef)):
        return {t}
    if isinstance(t, FieldPath):
        return {t.base}
    if isinstance(t, (Add, Sub)):
        return _term_vars(t.left) | _term_vars(t.right)
    return set()


def _atom_vars(a: Atom) -> set:
    return _term_vars(a.lhs) | _term_vars(a.rhs)


def _infer_sorts(atoms) -> tuple[dict, dict]:
    """(variable -> sort, field chain -> result sort)."""
    var_sort: dict = {}
    field_sort: dict = {}

    def mark(t: Term, sort: str):
        if isinstance(t, SymIntRef):
            var_sort[t] = _INT
        elif isinstance(t, SymDataRef):
            var_sort[t] = _DATA
        elif isinstance(t, SymAddrRef):
            var_sort.setdefault(t, _ADDR)
        elif isinstance(t, FieldPath):
            var_sort.setdefault(t.base, _ADDR)
            field_sort[t.fields] = sort
        elif isinstance(t, (Add, Sub)):
            mark(t.left, _INT)
            mark(t.right, _INT)

    for a in atoms:
        if a.op in ("<", "<=", ">", ">=") or is_int_term(a.lhs) or is_int_term(a.rhs):
            sort = _INT
        elif isinstance(a.lhs, SymDataRef) or isinstance(a.rhs, SymDataRef):
            sort = _DATA
        else:
            sort = _ADDR
        mark(a.lhs, sort)
        mark(a.rhs, sort)
    return var_sort, field_sort


def _components(atoms: list[Atom]) -> list[list[Atom]]:
    """Group atoms sharing variables (or any field path, since field tables
    are global) into connected components."""
    parent: dict = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for i, a in enumerate(atoms):
        keys = set(_atom_vars(a))
        for t in (a.lhs, a.rhs):
            if isinstance(t, FieldPath):
                keys.add(("chain", t.fields))
        keys.add(("atom", i))
        ks = sorted(keys, key=repr)
        for k in ks[1:]:
            union(ks[0], k)

    groups: dict = {}
    for i, a in enumerate(atoms):
        groups.setdefault(find(("atom", i)), []).append(a)
    return list(groups.values())


def _eval_term(t: Term, env, tables):
    if isinstance(t, IntConst):
        return t.value
    if isinstance(t, NullRef):
        return None
    if isinstance(t, (SymAddrRef, SymIntRef, SymDataRef)):
        return env[t]
    if isinstance(t, FieldPath):
        base = env.get(t.base)
        if base is None:
            return _NULL_DEREF
        return tables[t.fields][base]
    if isinstance(t, Add):
        return _eval_term(t.left, env, tables) + _eval_term(t.right, env, tables)
    if isinstance(t, Sub):
        return _eval_term(t.left, env, tables) - _eval_term(t.right, env, tables)
    raise TypeError(t)


def _holds(a: Atom, env, tables) -> bool:
    l = _eval_term(a.lhs, env, tables)
    r = _eval_term(a.rhs, env, tables)
    if l is _NULL_DEREF or r is _NULL_DEREF:
        return False
    if a.op == "=":
        return l == r
    if a.op == "!=":
        return l != r
    if a.op == "<":
        return l < r
    if a.op == "<=":
        return l <= r
    if a.op == ">":
        return l > r
    return l >= r


def find_model(
    c: frozenset[Atom],
    addr_pool: int = 4,
    int_lo: int = -8,
    int_hi: int = 8,
    data_pool: int = 3,
) -> dict | None:
    """Return {term: concrete value} satisfying every atom, or None.

    Addresses come out as strings "a0".., NULL as None, data as "d0"..;
    field tables appear under keys ("table", chain).
    """
    addr_vals = [f"a{i}" for i in range(addr_pool)] + [None]
    int_vals = list(range(int_lo, int_hi + 1))
    data_vals = [f"d{i}" for i in range(data_pool)]
    nonnull = [a for a in addr_vals if a is not None]

    model: dict = {}
    for comp in _components(sorted(c, key=repr)):
        var_sort, field_sort = _infer_sorts(comp)
        variables = sorted(var_sort, key=lambda v: (v.display, v.sid))
        domains = []
        for v in variables:
            s = var_sort[v]
            domains.append(int_vals if s == _INT else data_vals if s == _DATA else addr_vals)
        chains = sorted({t.fields for a in comp for t in (a.lhs, a.rhs)
                         if isinstance(t, FieldPath)})
        chain_domains = []
        for ch in chains:
            s = field_sort.get(ch, _ADDR)
            rng = int_vals if s == _INT else data_vals if s == _DATA else addr_vals
            chain_domains.append([dict(zip(nonnull, combo))
                                  for combo in itertools.product(rng, repeat=len(nonnull))])

        found = None
        for assign in itertools.product(*domains):
            env = dict(zip(variables, assign))
            for table_combo in (itertools.product(*chain_domains) if chain_domains else [()]):
                tables = dict(zip(chains, table_combo))
                if all(_holds(a, env, tables) for a in comp):
                    found = (env, tables)
                    break
            if found:
                break
        if found is None:
            return None
        env, tables = found
        model.update(env)
        for ch, tb in tables.items():
            model[("table", ch)] = tb
    return model
