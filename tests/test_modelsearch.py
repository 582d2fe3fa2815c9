"""Brute-force model search: the finite-universe oracle for check_sat.

The tests re-evaluate every model with their own evaluator so a bug in
find_model cannot silently certify itself.
"""
import random

import pytest

from specminer.constraints import (
    EQ, GE, GT, LE, LT, NEQ,
    Atom, FieldPath, IntConst, NullRef, SatResult, SymAddrRef, SymIntRef,
    check_sat,
)
from specminer.modelsearch import find_model

X = SymIntRef(1, "x")
Y = SymIntRef(2, "y")
Z = SymIntRef(3, "z")
A = SymAddrRef(10, "list")
B = SymAddrRef(11, "b")
C = SymAddrRef(12, "c")
D = SymAddrRef(13, "e")
A_NEXT = FieldPath(A, ("next",))


def _value(term, model):
    if isinstance(term, IntConst):
        return term.value
    if isinstance(term, NullRef):
        return None
    if isinstance(term, FieldPath):
        base = model[term.base]
        if base is None:
            raise ZeroDivisionError  # stands in for "no such value"
        return model[("table", term.fields)][base]
    return model[term]


def _check(model, atoms):
    """Independent evaluation of a model returned by find_model."""
    ops = {
        EQ: lambda l, r: l == r, NEQ: lambda l, r: l != r,
        LT: lambda l, r: l < r, LE: lambda l, r: l <= r,
        GT: lambda l, r: l > r, GE: lambda l, r: l >= r,
    }
    for a in atoms:
        try:
            l, r = _value(a.lhs, model), _value(a.rhs, model)
        except ZeroDivisionError:
            return False
        if not ops[a.op](l, r):
            return False
    return True


def test_simple_sat_model():
    c = frozenset({Atom(GT, X, Y), Atom(EQ, A, NullRef())})
    m = find_model(c)
    assert m is not None
    assert _check(m, c)
    assert m[X] > m[Y] and m[A] is None


def test_unsat_gives_none():
    assert find_model(frozenset({Atom(LT, X, Y), Atom(LT, Y, X)})) is None
    assert find_model(frozenset({Atom(EQ, A, B), Atom(NEQ, A, B)})) is None


def test_null_rooted_field_path_has_no_model():
    # a field read through NULL falsifies its atom in every model
    c = frozenset({Atom(EQ, A, NullRef()), Atom(EQ, A_NEXT, NullRef())})
    assert find_model(c) is None


def test_field_path_with_live_root():
    c = frozenset({Atom(NEQ, A, NullRef()), Atom(EQ, A_NEXT, NullRef())})
    m = find_model(c)
    assert m is not None and _check(m, c)


def test_countermodel_for_open_next_pointer():
    """The witness behind entails({list != NULL}, list->next = NULL) == NO:
    a one-node world whose next pointer is some other live cell."""
    c = frozenset({Atom(NEQ, A, NullRef()), Atom(NEQ, A_NEXT, NullRef())})
    m = find_model(c)
    assert m is not None and _check(m, c)
    assert m[("table", ("next",))][m[A]] is not None


def test_components_enumerated_independently():
    # 4 address variables and 3 integer variables in one conjunction; joint
    # enumeration would be ~5^4 * 17^3 states, decomposition keeps it trivial
    c = frozenset({
        Atom(NEQ, A, B), Atom(NEQ, B, C), Atom(NEQ, C, D), Atom(NEQ, A, NullRef()),
        Atom(LT, X, Y), Atom(LT, Y, Z), Atom(GT, Z, IntConst(3)),
    })
    m = find_model(c)
    assert m is not None and _check(m, c)


def _random_conjunction(rng):
    ints = [X, Y, Z]
    addrs = [A, B, C, D]
    atoms = []
    for _ in range(rng.randrange(2, 7)):
        if rng.random() < 0.5:
            op = rng.choice([EQ, NEQ, LT, LE, GT, GE])
            lhs = rng.choice(ints)
            rhs = rng.choice(ints + [IntConst(rng.randrange(-3, 4))])
            atoms.append(Atom(op, lhs, rhs))
        else:
            op = rng.choice([EQ, NEQ])
            base = rng.choice(addrs)
            lhs = FieldPath(base, ("next",)) if rng.random() < 0.3 else base
            rhs = rng.choice(addrs + [NullRef()])
            atoms.append(Atom(op, lhs, rhs))
    return frozenset(atoms)


def test_randomized_no_false_unsat():
    """Mini version of the acceptance sweep: whenever the decision procedure
    answers UNSAT, the brute-force search must come up empty."""
    rng = random.Random(99)
    unsat_seen = model_seen = 0
    for _ in range(60):
        c = _random_conjunction(rng)
        verdict = check_sat(c)
        m = find_model(c)
        if m is not None:
            model_seen += 1
            assert _check(m, c)
            assert verdict != SatResult.UNSAT, c
        if verdict == SatResult.UNSAT:
            unsat_seen += 1
            assert m is None, c
    assert unsat_seen >= 5 and model_seen >= 20


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
