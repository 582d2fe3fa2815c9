"""Tests for the condition language and its decision procedure.

The solver is deliberately incomplete in one direction only: it may answer
SAT (or UNKNOWN) for an unsatisfiable conjunction, but an UNSAT answer must
always be right. Several tests pin that contract.
"""
import dataclasses
import itertools
import operator
import random

import pytest

from specminer.constraints import (
    EQ, GE, GT, LE, LT, NEQ,
    Add, Atom, Closure, Entailment, FieldPath, IntConst, NullRef, SatCache,
    SatResult, Sub, SymAddrRef, SymDataRef, SymIntRef, TRUE,
    check_sat, entails,
    render_atom, render_constraint,
)
from specminer.modelsearch import find_model

X = SymIntRef(1, "x")
Y = SymIntRef(2, "y")
Z = SymIntRef(3, "z")
A = SymAddrRef(10, "list")
B = SymAddrRef(11, "p")
A_NEXT = FieldPath(A, ("next",))


# ---------------------------------------------------------------- value objects

def _build() -> list:
    """One object of each term class, atoms and a constraint, built afresh."""
    a = SymAddrRef(10, "list")
    i = SymIntRef(1, "x")
    return [a, NullRef(), FieldPath(a, ("next",)), IntConst(3), i,
            SymDataRef(4, "d"), Add(i, IntConst(1)), Sub(i, IntConst(1)),
            Atom(NEQ, a, NullRef()), Atom(EQ, Add(i, IntConst(1)), IntConst(3)),
            frozenset({Atom(NEQ, a, NullRef())})]


def test_terms_built_twice_are_equal_and_hash_equal():
    for x, y in zip(_build(), _build()):
        assert x is not y
        assert x == y and hash(x) == hash(y)


def test_symbols_with_one_sid_and_display_are_pairwise_unequal():
    syms = [SymAddrRef(7, "v"), SymIntRef(7, "v"), SymDataRef(7, "v")]
    for i, x in enumerate(syms):
        for y in syms[i + 1:]:
            assert x != y
    assert len(set(syms)) == 3


def test_value_objects_are_frozen():
    for obj, name in ((SymAddrRef(1, "a"), "sid"), (SymIntRef(1, "x"), "display"),
                      (IntConst(1), "value"), (Atom(EQ, X, Y), "op"),
                      (FieldPath(A, ("next",)), "base")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    # a condition is a frozenset, immutable by its type
    assert type(TRUE) is frozenset


# ---------------------------------------------------------------- rendering

def test_render_atoms():
    assert render_atom(Atom(GT, X, Y)) == "?x > ?y"
    assert render_atom(Atom(EQ, A_NEXT, NullRef())) == "list->next = NULL"
    assert render_atom(Atom(NEQ, A, B)) == "list != p"
    assert render_atom(Atom(EQ, SymDataRef(5, "d"), SymDataRef(6, "e"))) == "?d = ?e"


def test_render_constraint_sorted_and_true():
    c = frozenset({Atom(GT, X, IntConst(0)), Atom(EQ, A, NullRef())})
    assert render_constraint(c) == "?x > 0 /\\ list = NULL"
    assert render_constraint(TRUE) == "true"
    assert TRUE == frozenset()


def test_negation_is_an_involution():
    sat = SatCache()
    for op in (EQ, NEQ, LT, LE, GT, GE):
        at = sat.atom(op, X, Y)
        assert sat.negation(sat.negation(at)) is at
    assert sat.negation(sat.atom(GT, X, Y)) == Atom(LE, X, Y)
    assert sat.negation(sat.atom(EQ, A, NullRef())) == Atom(NEQ, A, NullRef())


def test_condition_union_dedupes():
    """Atoms equal by structure are one member of a condition, so a union
    with a condition's own atoms, even ones built afresh, gives it back."""
    c1 = frozenset({Atom(GT, X, Y)})
    c2 = frozenset({Atom(GT, X, Y), Atom(EQ, A, NullRef())})
    assert c1 | c2 == c2
    assert c2 | {Atom(EQ, A, NullRef())} == c2


# ---------------------------------------------------------------- check_sat

def test_true_is_sat():
    assert check_sat(TRUE) == SatResult.SAT


def test_strict_cycle_is_unsat():
    assert check_sat(frozenset({Atom(LT, X, Y), Atom(LT, Y, X)})) == SatResult.UNSAT


def test_equality_chain_contradiction():
    c = frozenset({Atom(EQ, A, B), Atom(NEQ, B, A)})
    assert check_sat(c) == SatResult.UNSAT


def test_field_congruence():
    # list = p forces list->next = p->next; pinning one to NULL and the
    # other away from it is contradictory
    c = frozenset({
        Atom(EQ, A, B),
        Atom(EQ, FieldPath(A, ("next",)), NullRef()),
        Atom(NEQ, FieldPath(B, ("next",)), NullRef()),
    })
    assert check_sat(c) == SatResult.UNSAT


def test_integer_tightening():
    # over the integers, y < x < y + 1 has no solution
    c = frozenset({Atom(GT, X, Y), Atom(LT, X, Add(Y, IntConst(1)))})
    assert check_sat(c) == SatResult.UNSAT


def test_pinned_disequality():
    c = frozenset({Atom(LE, X, Y), Atom(GE, X, Y), Atom(NEQ, X, Y)})
    assert check_sat(c) == SatResult.UNSAT


def test_difference_terms():
    c = frozenset({Atom(EQ, Sub(X, Y), IntConst(3)), Atom(LT, X, Y)})
    assert check_sat(c) == SatResult.UNSAT


_PY_CMP = {EQ: operator.eq, NEQ: operator.ne, LT: operator.lt, LE: operator.le,
           GT: operator.gt, GE: operator.ge}


@pytest.mark.parametrize("op", sorted(_PY_CMP))
def test_constant_atoms_get_the_exact_verdict(op):
    # inside its fragment the integer procedure is exact in both
    # directions: never a false SAT, never UNKNOWN
    for l, r in itertools.product((-1, 0, 1), repeat=2):
        want = SatResult.SAT if _PY_CMP[op](l, r) else SatResult.UNSAT
        assert check_sat(frozenset({Atom(op, IntConst(l), IntConst(r))})) == want, (l, op, r)


def test_a_negative_leading_coefficient_gets_the_exact_verdict():
    # 0 - x >= -2 is x <= 2; y - x >= 1 is x - y <= -1 (x sorts first)
    x_le_2 = Atom(GE, Sub(IntConst(0), X), IntConst(-2))
    assert check_sat(frozenset({x_le_2, Atom(EQ, X, IntConst(3))})) == SatResult.UNSAT
    assert check_sat(frozenset({x_le_2, Atom(EQ, X, IntConst(2))})) == SatResult.SAT
    y_gt_x = Atom(GE, Sub(Y, X), IntConst(1))
    pinned = [Atom(EQ, X, IntConst(3)), Atom(EQ, Y, IntConst(3))]
    assert check_sat(frozenset({y_gt_x, *pinned})) == SatResult.UNSAT
    pinned[1] = Atom(EQ, Y, IntConst(4))
    assert check_sat(frozenset({y_gt_x, *pinned})) == SatResult.SAT


def test_mixed_sorts_give_unknown_not_a_crash():
    assert check_sat(frozenset({Atom(EQ, X, A)})) == SatResult.UNKNOWN


Q = SymAddrRef(12, "q")


@pytest.mark.parametrize("mixed", [
    Atom(EQ, X, Q),
    Atom(NEQ, FieldPath(Q, ("next",)), IntConst(0)),
    Atom(EQ, SymDataRef(4, "d"), IntConst(1)),
], ids=["int-addr", "field-int", "data-int"])
def test_a_mixed_sort_atom_is_unknown_never_unsat(mixed):
    """An atom that sets an int against an address, field path or data
    token is an integer atom outside the fragment: Unknown, alone and
    after any extension that refutes nothing, and through the cache as
    through `check_sat`."""
    assert check_sat(frozenset({mixed})) == SatResult.UNKNOWN
    cache = SatCache()
    base = TRUE
    for a in (Atom(NEQ, A, NullRef()), Atom(GT, Y, IntConst(0)), mixed,
              Atom(NEQ, Q, NullRef()), Atom(EQ, Y, IntConst(2))):
        a = cache.atom(a.op, a.lhs, a.rhs)
        want = SatResult.SAT if mixed not in base | {a} else SatResult.UNKNOWN
        assert check_sat(base | {a}) == cache.check(base, a) == want, render_atom(a)
        base = base | {a}


def test_a_mixed_sort_atom_does_not_hide_a_refutation():
    """Refuted equalities make the conjunction Unsat, whatever a mixed-sort
    atom leaves Unknown."""
    refuted = [Atom(EQ, X, Q), Atom(EQ, Q, NullRef()), Atom(NEQ, Q, NullRef())]
    assert check_sat(frozenset(refuted)) == SatResult.UNSAT
    cache = SatCache()
    base = TRUE
    for a in refuted:
        a = cache.atom(a.op, a.lhs, a.rhs)
        verdict = cache.check(base, a)
        base = base | {a}
    assert verdict == SatResult.UNSAT


def test_incompleteness_is_one_sided():
    # x in [0,1] with both endpoints excluded is unsatisfiable over the
    # integers, but needs a case split this solver does not do. SAT or
    # UNKNOWN are both acceptable here; UNSAT would also be fine — what the
    # contract forbids is UNSAT on a satisfiable input (see the randomized
    # cross-check in test_modelsearch.py).
    c = frozenset({
        Atom(NEQ, X, IntConst(0)), Atom(GE, X, IntConst(0)),
        Atom(LE, X, IntConst(1)), Atom(NEQ, X, IntConst(1)),
    })
    assert check_sat(c) in (SatResult.SAT, SatResult.UNKNOWN, SatResult.UNSAT)


# ---------------------------------------------------------------- entails

def test_entails_yes():
    assert entails(frozenset({Atom(EQ, X, IntConst(1))}), Atom(GE, X, IntConst(1))) == Entailment.YES


def test_entails_no_on_open_field():
    # a non-null list says nothing about its next pointer
    assert entails(frozenset({Atom(NEQ, A, NullRef())}), Atom(EQ, A_NEXT, NullRef())) == Entailment.NO


def test_entails_unknown_on_mixed_sorts():
    assert entails(frozenset({Atom(EQ, X, A)}), Atom(GT, Y, IntConst(0))) == Entailment.UNKNOWN


# ---------------------------------------------------------------- SatCache

def test_sat_cache_agrees_with_check_sat():
    """Differential: the engine's cache extends a base closure by one atom;
    its verdict must be exactly what check_sat says about the conjunction,
    on the first ask and from the memo, and an UNSAT must have no model."""
    rng = random.Random(20261017)
    ints = [SymIntRef(i, n) for i, n in enumerate(("x", "y", "z"))]
    addrs = [SymAddrRef(100 + i, f"q{i}") for i in range(4)]

    def int_term():
        r = rng.random()
        if r < 0.15:
            v = rng.choice(ints)
            return Add(v, v)  # coefficient 2: outside the fragment
        if r < 0.3:
            return Add(rng.choice(ints), IntConst(rng.randrange(-3, 4)))
        return rng.choice(ints)

    def random_atom():
        # shaped like acceptance criterion 6, plus non-unit coefficients
        if rng.random() < 0.5:
            op = rng.choice([EQ, NEQ, LT, LE, GT, GE])
            rhs = rng.choice([int_term(), IntConst(rng.randrange(-3, 4))])
            return Atom(op, int_term(), rhs)
        op = rng.choice([EQ, NEQ])
        base = rng.choice(addrs)
        lhs = FieldPath(base, ("next",)) if rng.random() < 0.3 else base
        rhs = rng.choice(addrs + [NullRef(), FieldPath(rng.choice(addrs), ("next",))])
        return Atom(op, lhs, rhs)

    def near_atom(base):
        # an address question over what the base already constrains, so
        # that new equalities merge classes with field paths on them
        found = {t.base if isinstance(t, FieldPath) else t
                 for a in base for t in (a.lhs, a.rhs)}
        pool = [q for q in addrs if q in found] or addrs
        terms = pool + [FieldPath(q, ("next",)) for q in pool]
        return Atom(rng.choice([EQ, NEQ]), rng.choice(terms),
                    rng.choice(terms + [NullRef()]))

    refuted = []  # atom sets shown to have no model

    def assert_no_model(c):
        # a conjunction containing one without a model has none either
        if not any(r <= c for r in refuted):
            assert find_model(c, addr_pool=4) is None, render_constraint(c)
            refuted.append(c)

    cache = SatCache()
    verdicts = {r: 0 for r in SatResult}
    for _ in range(40):
        base = frozenset(random_atom() for _ in range(rng.randrange(2, 6)))
        for i in range(6):
            base_unsat = check_sat(base) == SatResult.UNSAT
            if base_unsat:
                assert_no_model(base)
            atom = near_atom(base) if i % 2 else random_atom()
            both = base | {atom}
            expected = check_sat(both)
            assert cache.check(base, atom) == expected, render_constraint(both)
            assert both in cache.closures
            assert cache.check(base, atom) == expected, render_constraint(both)
            verdicts[expected] += 1
            if expected == SatResult.UNSAT and not base_unsat:
                assert_no_model(both)
            if i % 3 == 1:
                base = both  # the path takes the branch it asked about
    # the generator must reach every verdict
    assert all(n > 10 for n in verdicts.values()), verdicts


def test_a_closure_extended_atom_by_atom_agrees_with_check_sat(monkeypatch):
    """Differential for the disequality index: chains of address `=`/`!=`
    atoms, extended one at a time from the empty condition through a
    `SatCache`, get `check_sat`'s verdict on every prefix. A merge without
    field paths rechecks only the disequalities at the merged class; one
    in three chains uses field paths, and the cache builds each of their
    closures with `Closure.of` instead of `Closure.extended`."""
    rng = random.Random(20261019)
    addrs = [SymAddrRef(200 + i, f"a{i}") for i in range(6)]
    verdicts = {r: 0 for r in SatResult}
    merges = {False: 0, True: 0}  # merges of two classes, by whether paths were on
    real_of, real_extended = Closure.of.__func__, Closure.extended
    built = []  # how each closure the cache lacked was made: "of" or "extended"

    def of(cls, atoms):
        built.append("of")
        return real_of(cls, atoms)

    def extended(self, atom):
        built.append("extended")
        return real_extended(self, atom)

    def term(paths):
        q = rng.choice(addrs)
        return FieldPath(q, ("next",)) if paths and rng.random() < 0.3 else q

    cache = SatCache()
    monkeypatch.setattr(Closure, "of", classmethod(of))
    monkeypatch.setattr(Closure, "extended", extended)
    for chain in range(300):
        paths = chain % 3 == 0
        atoms = TRUE
        closure = cache.closures[atoms]
        for _ in range(rng.randrange(1, 14)):
            op = EQ if rng.random() < 0.4 else NEQ
            atom = Atom(op, term(paths), rng.choice([term(paths), NullRef()]))
            # `lhs = rhs` merges two classes when `lhs != rhs` is not refuted
            apart = check_sat(atoms | {Atom(NEQ, atom.lhs, atom.rhs)})
            if op == EQ and apart != SatResult.UNSAT:
                merges[bool(closure.paths)] += 1
            new = atom not in atoms and atoms | {atom} not in cache.closures
            with_paths = bool(closure.paths) or any(
                isinstance(t, FieldPath) for t in (atom.lhs, atom.rhs))
            built.clear()
            closure = cache.extend(atoms, atom)
            assert built == (["of" if with_paths else "extended"] if new else [])
            atoms = atoms | {atom}
            expected = check_sat(atoms)
            assert closure.verdict == expected, render_constraint(atoms)
            verdicts[expected] += 1
    assert verdicts[SatResult.SAT] > 100 and verdicts[SatResult.UNSAT] > 100, verdicts
    assert verdicts[SatResult.UNKNOWN] == 0  # no integer atom
    assert min(merges.values()) > 50, merges


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
