"""Symbolic execution engine tests: path enumeration, loop bounding, lazy
initialization, aliasing, budgets, and agreement with the concrete
interpreter on closed inputs."""
import random

import pytest

from specminer.concrete import build_dll, concrete_run
from specminer.constraints import (
    GT, NULL, Atom, IntConst, NullRef, SatCache, SatResult, SymAddrRef, SymDataRef, SymIntRef,
    check_sat, conjoin, constraint, negate_atom, render_constraint,
)
from specminer.engine import _HANDLERS, Limits, _Engine, se
from specminer.frontend import load_program, nodes as N
from specminer.symstate import (
    Allocator,
    CallPattern,
    HeapObject,
    Pattern,
    UNDEF,
    fresh_value,
    make_call_pattern,
    render_pattern,
    render_tv,
)


def _sym_append_call(alloc):
    return CallPattern("append", [alloc.fresh_addr("list"), alloc.fresh_data("d")])


def _sym_int_call(fname, names, alloc):
    return CallPattern(fname, [alloc.fresh_int(n) for n in names])


# ---------------------------------------------------------------- branch

def test_branch_has_exactly_two_patterns(branch_index):
    alloc = Allocator()
    res = se(branch_index, _sym_int_call("branch", ["x", "y"], alloc), Limits(), alloc)
    assert len(res.patterns) == 2
    assert res.truncated_paths == 0 and not res.budget_error
    got = [(render_tv(p.return_value), render_constraint(p.path_condition))
           for p in res.final_patterns]
    assert got == [("tv(int, 1)", "?x > ?y"), ("tv(int, 0)", "?x <= ?y")]
    assert [p.provenance_id for p in res.patterns] == ["p0", "p1"]


@pytest.mark.parametrize("verdict", [None, SatResult.UNKNOWN, SatResult.UNSAT])
@pytest.mark.parametrize("holds", [True, False])
def test_a_recorded_atom_decides_its_branch_with_one_question(
        branch_index, monkeypatch, holds, verdict):
    """When the path records `x > y` (or its negation), deciding `x > y`
    keeps the pattern on that side, clones nothing and asks the cache only
    for the path's own verdict: Unknown marks it approx, Unsat drops it.
    `verdict` stubs that answer; None keeps the real (Sat) one."""
    alloc = Allocator()
    x, y = alloc.fresh_int("x"), alloc.fresh_int("y")
    atom = Atom(GT, x, y)
    recorded = atom if holds else negate_atom(atom)
    p = make_call_pattern(branch_index, CallPattern(
        "branch", [x, y],
        initial_constraint=constraint(recorded)), alloc)
    base = p.condition
    asked = []
    real_check = SatCache.check

    def check(self, b, a):
        asked.append((b, a))
        return verdict or real_check(self, b, a)

    def clone(self):
        raise AssertionError("a recorded atom must not fork the pattern")

    monkeypatch.setattr(SatCache, "check", check)
    monkeypatch.setattr(Pattern, "clone", clone)
    eng = _Engine(branch_index, Limits(), alloc, False, SatCache())
    out = eng._decide(p, atom)
    assert asked == [(base, recorded)]
    assert p.condition == base and eng.split_log == []
    if verdict == SatResult.UNSAT:
        assert out == []
    else:
        assert out == [(p, holds)]
        assert p.approx == (verdict == SatResult.UNKNOWN)


# ---------------------------------------------------------------- append

def test_append_path_census_by_unroll(dll_index):
    # one extra reachable input length per extra unrolling, plus the
    # empty-list path; the once-more iteration is cut, not an error
    for n in (1, 2, 3):
        alloc = Allocator()
        res = se(dll_index, _sym_append_call(alloc), Limits(unroll_bound=n), alloc)
        assert len(res.final_patterns) == n + 2, f"unroll {n}"
        assert len(res.error_patterns) == 0
        assert res.truncated_paths == 1


def test_append_one_node_pattern_dump(dll_index):
    """The one-node final is the canonical worked example: its displayed
    memory condition is exactly the two facts the walk discovered."""
    alloc = Allocator()
    res = se(dll_index, _sym_append_call(alloc), Limits(unroll_bound=1), alloc)
    p1 = res.final_patterns[1]
    dump = render_pattern(p1)
    assert "<k> return list </k>" in dump
    assert "<heap> list |-> (next |-> new_node) </heap>" in dump
    assert "<heap> new_node |-> (data |-> ?d, next |-> NULL, prev |-> list) </heap>" in dump
    assert "<cond> true </cond>" in dump
    assert "<memcond> list != NULL /\\ list->next = NULL </memcond>" in dump


def test_append_emission_order_is_depth_first_true_first(dll_index):
    alloc = Allocator()
    res = se(dll_index, _sym_append_call(alloc), Limits(unroll_bound=1), alloc)
    # p0: two-node walk; p1: one-node; p2: empty input
    mems = [render_constraint(p.mem_path_condition) for p in res.patterns]
    assert mems == [
        "list != NULL /\\ list->next != NULL /\\ list->next->next = NULL",
        "list != NULL /\\ list->next = NULL",
        "list = NULL",
    ]
    # fresh-node facts stay out of the displayed conditions but are part of
    # what entailment sees
    p2 = res.patterns[2]
    assert p2.condition.atoms - conjoin(p2.path_condition, p2.mem_path_condition).atoms
    assert len(p2.condition.atoms) > len(p2.mem_path_condition.atoms)


def test_split_log_pairs_are_mutually_unsat(dll_index):
    alloc = Allocator()
    res = se(dll_index, _sym_append_call(alloc), Limits(unroll_bound=2), alloc)
    assert res.split_log
    for left, right in res.split_log:
        assert check_sat(conjoin(left, right)) == SatResult.UNSAT


def test_engine_is_deterministic(dll_index):
    def run():
        alloc = Allocator()
        res = se(dll_index, _sym_append_call(alloc), Limits(unroll_bound=2), alloc)
        return [render_pattern(p) for p in res.patterns]
    assert run() == run()


def test_all_or_nothing_run_stops_at_the_shallow_rejected_leaf(dll_index):
    """With `reject`, the loop-exit branch is explored before the walk, and
    the run ends at the first leaf `reject` holds for."""
    def run(reject):
        alloc = Allocator()
        res = se(dll_index, CallPattern("length", [alloc.fresh_addr("list")]),
                 Limits(), alloc, reject=reject)
        return res, [(render_tv(p.return_value), render_constraint(p.mem_path_condition))
                     for p in res.patterns]

    res, leaves = run(lambda p: True)
    assert leaves == [("tv(int, 0)", "list = NULL")]
    assert res.rejected and res.truncated_paths == 0

    res, leaves = run(None)
    assert leaves == [("tv(int, 1)", "list != NULL /\\ list->next = NULL"),
                      ("tv(int, 0)", "list = NULL")]
    assert not res.rejected and res.truncated_paths == 1


# ---------------------------------------------------------------- aliasing

ALIAS_SRC = """
struct Node { int v; struct Node* nxt; };
int touch(struct Node* a, struct Node* b) {
  a->v = 1;
  b->v = 2;
  return a->v;
}
"""


def test_lazy_aliasing_adds_the_overlap_world():
    idx = load_program(ALIAS_SRC)

    def run(flag):
        alloc = Allocator()
        cp = CallPattern("touch", [alloc.fresh_addr("a"), alloc.fresh_addr("b")])
        return se(idx, cp, Limits(), alloc, lazy_aliasing=flag)

    plain = run(False)
    assert len(plain.patterns) == 3  # one final, two NULL-deref worlds
    assert [render_tv(p.return_value) for p in plain.final_patterns] == ["tv(int, 1)"]
    assert len(plain.error_patterns) == 2

    aliased = run(True)
    assert len(aliased.patterns) == 4
    rets = sorted(render_tv(p.return_value) for p in aliased.final_patterns)
    # when b resolves to a, the second write clobbers the first
    assert rets == ["tv(int, 1)", "tv(int, 2)"]


def test_alias_worlds_inherit_an_unknown_non_null_verdict(monkeypatch):
    # the alias world also rests on `b != NULL`; when the solver cannot
    # decide that atom, the world must be marked approx like the separate one
    check = SatCache.check

    def unknown_b_non_null(self, base, atom):
        if atom.op == "!=" and atom.rhs == NULL and atom.lhs.display == "b":
            return SatResult.UNKNOWN
        return check(self, base, atom)

    monkeypatch.setattr(SatCache, "check", unknown_b_non_null)
    alloc = Allocator()
    cp = CallPattern("touch", [alloc.fresh_addr("a"), alloc.fresh_addr("b")])
    res = se(load_program(ALIAS_SRC), cp, Limits(), alloc, lazy_aliasing=True)
    assert sorted(render_tv(p.return_value) for p in res.final_patterns) == \
        ["tv(int, 1)", "tv(int, 2)"]
    assert all(p.approx for p in res.final_patterns)


def test_aliases_map_undiscovered_addresses_to_lazy_objects(dll_index):
    """The invariant behind `Pattern.resolve` following a single step: an
    aliased address never became a heap key, and it stands for an input
    object already discovered, so no alias chain is longer than one."""
    runs = [(load_program(ALIAS_SRC), "touch")]
    runs += [(dll_index, f) for f in ("append", "reverse", "init", "length", "last")]
    aliases = 0
    for index, fname in runs:
        alloc = Allocator()
        args = [alloc.fresh_addr(pname) if ptype.kind == "structptr"
                else alloc.fresh_data(pname)
                for pname, ptype in index.functions[fname].params]
        res = se(index, CallPattern(fname, args), Limits(), alloc, lazy_aliasing=True)
        for p in res.patterns:
            for target, cand in p.aliases.items():
                aliases += 1
                assert target not in p.heap, (fname, p.provenance_id)
                obj = p.heap.get(cand)
                assert isinstance(obj, HeapObject) and obj.lazy, (fname, p.provenance_id)
    assert aliases > 0


# ---------------------------------------------------------------- recursion

def test_recursion_is_cut_at_the_unroll_bound():
    idx = load_program("int rec(int n) { if (n > 0) return rec(n - 1); return n; }")
    for bound, finals in ((1, 2), (2, 3)):
        alloc = Allocator()
        res = se(idx, _sym_int_call("rec", ["n"], alloc), Limits(unroll_bound=bound), alloc)
        assert len(res.final_patterns) == finals
        assert res.truncated_paths == 1


# `upto` has its own loop and `sum` calls it from inside its loop
NESTED_LOOPS_SRC = """
struct N { int v; struct N* next; };
int upto(int k) { int c; c = 0; while (c < k) c = c + 1; return c; }
int sum(struct N* n) { int t; t = 0; while (n != NULL) { t = t + upto(n->v); n = n->next; } return t; }
"""


@pytest.mark.parametrize("bound, returns", [
    # lists of up to `bound` nodes, each node's `v` counted up to `bound`
    (1, [0, 0, 1]),
    (2, [0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4]),
])
def test_each_call_counts_its_own_loop_and_restores_the_callers(bound, returns):
    """A call starts its loops from zero and gives the caller back its own
    counts, on every path: one path's iterations never use up another's."""
    idx = load_program(NESTED_LOOPS_SRC)
    alloc = Allocator()
    res = se(idx, CallPattern("sum", [alloc.fresh_addr("n")]),
             Limits(unroll_bound=bound), alloc)
    assert sorted(p.return_value.value for p in res.final_patterns) == returns
    # every path that would take one more counted iteration is cut
    assert res.truncated_paths == len(returns)
    assert res.error_patterns == []


def test_clones_share_only_what_is_replaced_on_write():
    """`Pattern.clone` shares `loop_counts` and `aliases` with the original,
    so the engine replaces them and never writes them in place."""
    idx = load_program(NESTED_LOOPS_SRC)
    alloc = Allocator()
    eng = _Engine(idx, Limits(unroll_bound=2), alloc, True, SatCache())
    p = make_call_pattern(idx, CallPattern("upto", [alloc.fresh_int("k")]),
                          alloc)
    loop = idx.functions["upto"].body[1]
    q = p.clone()
    q.vals.append(IntConst(1))
    q.guard_split = True
    assert eng._loop_decide(q, loop) == [q]
    assert q.loop_counts == {id(loop): 1}
    assert p.loop_counts == {}

    a, b = alloc.fresh_addr("a"), alloc.fresh_addr("b")
    ok = make_call_pattern(idx, CallPattern("sum", [b], initial_heap={
        a: HeapObject("N", {}, lazy=True)}), alloc)
    worlds = eng._alias_worlds(ok, b, "N")
    assert [(w.aliases, obj) for w, obj in worlds] == [({b: a}, a)]
    assert ok.aliases == {}
    assert ok.resolve(b) == b


def test_concrete_guards_do_not_consume_the_loop_budget():
    # a fully determined loop runs to completion even at unroll 1
    idx = load_program(
        "int summ(int n) { int s; s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }")
    res = se(idx, CallPattern("summ", [IntConst(5)]), Limits(unroll_bound=1))
    assert res.truncated_paths == 0
    assert [render_tv(p.return_value) for p in res.final_patterns] == ["tv(int, 15)"]


# ---------------------------------------------------------------- budgets

def test_pattern_budget(branch_index):
    alloc = Allocator()
    res = se(branch_index, _sym_int_call("branch", ["x", "y"], alloc),
             Limits(max_patterns=1), alloc)
    assert res.budget_error
    assert len(res.patterns) == 1


def test_step_budget_catches_divergence():
    idx = load_program("int spin(int x) { while (0 < 1) x = x + 1; return x; }")
    res = se(idx, CallPattern("spin", [IntConst(9)]), Limits(max_steps=500))
    assert res.budget_error
    assert [p.error_reason for p in res.error_patterns] == ["step budget exceeded"]


# One step per frame. Counted by hand for `spin_once` below, where `x > 0`
# splits. The path into the loop: `while` (1), loop check (2), `x > 0` (3),
# `x` (4), `0` (5), the comparison that splits (6), truth (7), loop decide
# (8), `x = one(0);` (9), the assignment (10), `one(0)` (11), `0` (12), the
# invoke (13), `return a;` (14), `a` (15), its return (16), the variable
# write (17), the statement's pop (18); the second check is concrete: loop
# check (19), `x > 0` (20), `x` (21), `0` (22), the comparison (23), truth
# (24), loop decide (25); then `return x;` (26), `x` (27), its return (28).
# The path that skips the loop shares steps 1-6, then truth (7), loop decide
# (8), `return x;` (9), `x` (10), its return (11).
STEP_SRC = ("int one(int a) { return a; }\n"
            "int spin_once(int x) { while (x > 0) x = one(0); return x; }\n")


def test_each_frame_costs_one_step():
    idx = load_program(STEP_SRC)

    def run(max_steps):
        alloc = Allocator()
        return se(idx, _sym_int_call("spin_once", ["x"], alloc), Limits(max_steps=max_steps),
                  alloc)

    res = run(28)
    assert not res.budget_error
    assert [(p.status, p.steps, render_tv(p.return_value)) for p in res.patterns] == \
        [("final", 28, "tv(int, 0)"), ("final", 11, "tv(int, ?x)")]
    res = run(27)
    assert res.budget_error
    assert [(p.status, p.error_reason) for p in res.patterns] == \
        [("error", "step budget exceeded"), ("final", "")]


def test_every_statement_and_expression_class_has_a_handler():
    def concrete(base):
        for sub in base.__subclasses__():
            yield sub
            yield from concrete(sub)

    classes = [*concrete(N.Stmt), *concrete(N.Expr)]
    assert len(classes) >= 14
    assert [c.__name__ for c in classes if c not in _HANDLERS] == []


@pytest.mark.parametrize("lazy_aliasing", [False, True])
def test_a_value_is_undef_or_its_own_term(dll_index, lazy_aliasing):
    """Every env cell, object field and return value of every dll.c
    modifier's terminal patterns is UNDEF or one of the five value terms,
    never a compound term such as `Add`, `Sub` or `FieldPath`."""
    value_terms = (SymAddrRef, NullRef, IntConst, SymIntRef, SymDataRef)
    seen = set()
    for fname in sorted(dll_index.modifiers):
        alloc = Allocator()
        args = [fresh_value(alloc, ptype, pname)
                for pname, ptype in dll_index.functions[fname].params]
        res = se(dll_index, CallPattern(fname, args), Limits(unroll_bound=1), alloc,
                 lazy_aliasing)
        for p in res.patterns:
            values = [p.return_value, *(p.heap[cell] for cell in p.env.values())]
            for heap in (p.heap, p.entry_heap):
                for obj in heap.values():
                    if isinstance(obj, HeapObject):
                        values += obj.fields.values()
            for v in values:
                assert v is UNDEF or type(v) in value_terms, (fname, p.provenance_id, v)
                seen.add(type(v))
    # dll.c has no int field or parameter, so no symbolic int shows up
    assert seen == {type(UNDEF), SymAddrRef, NullRef, IntConst, SymDataRef}


def test_arithmetic_on_an_undefined_call_result_is_an_error_leaf():
    # `g` runs off its end when `a <= 0`, and `f` adds to what it returns
    idx = load_program("int g(int a) { if (a > 0) return 1; }\n"
                       "int f(int x) { return g(x) + 1; }\n")
    alloc = Allocator()
    res = se(idx, _sym_int_call("f", ["x"], alloc), Limits(), alloc)
    assert [(p.status, p.error_reason or render_tv(p.return_value)) for p in res.patterns] == \
        [("final", "tv(int, 2)"), ("error", "arithmetic on a non-integer value")]


def test_undefined_variable_read_is_an_error_leaf():
    idx = load_program("int f(int a) { int t; return t; }")
    res = se(idx, CallPattern("f", [IntConst(1)]))
    assert [(p.status, p.error_reason) for p in res.patterns] == \
        [("error", "read of undefined variable 't'")]


# ---------------------------------------------------------------- differential

def test_engine_agrees_with_concrete_interpreter_on_closed_int_programs():
    """On fully concrete inputs the engine must follow the single real path:
    same return value, no splits, no truncation."""
    srcs = {
        "branch": "int branch(int x, int y) { if (x > y) return 1; else return 0; }",
        "summ": "int summ(int n) { int s; s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }",
        "parity": ("int parity(int n) { int p; p = 0; "
                   "while (n > 0) { p = 1 - p; n = n - 1; } return p; }"),
    }
    rng = random.Random(4242)
    for name, src in srcs.items():
        idx = load_program(src)
        f = idx.functions[name]
        for _ in range(25):
            args = [rng.randrange(0, 12) for _ in f.params]
            want, _h = concrete_run(idx, name, {}, list(args))
            res = se(idx, CallPattern(name, [IntConst(a) for a in args]))
            assert res.truncated_paths == 0 and not res.split_log
            [p] = res.final_patterns
            assert p.return_value.value == want, (name, args)


def test_engine_agrees_with_concrete_append_via_pattern_selection(dll_index):
    """For each concrete input length, exactly one final pattern's memory
    condition describes it, and that pattern's post heap has the same spine
    as the concrete run: one node longer, the fresh node at the end."""
    for values in ([], ["a"], ["a", "b"]):
        head, heap = build_dll(list(values))
        want_ret, want_heap = concrete_run(dll_index, "append", heap, [head, "z"])
        want_spine = _concrete_spine_len(want_ret, want_heap)

        alloc = Allocator()
        res = se(dll_index, _sym_append_call(alloc), Limits(unroll_bound=3), alloc)
        matches = [p for p in res.final_patterns
                   if _covers_concrete_list(p, len(values))]
        assert len(matches) == 1, values
        spine = _symbolic_spine(matches[0])
        assert len(spine) == want_spine == len(values) + 1, values
        # the appended cell carries the fresh data symbol and sits last
        last = matches[0].heap[spine[-1]]
        assert isinstance(last.fields["data"], SymDataRef)
        assert last.fields["next"] is NULL


def _concrete_spine_len(head, heap):
    n = 0
    while head is not None:
        n += 1
        head = heap[head].fields["next"]
    return n


def _covers_concrete_list(p, n):
    """Does this final pattern describe exactly the length-n input?"""
    mem = render_constraint(p.mem_path_condition)
    if n == 0:
        return mem == "list = NULL"
    parts = [f"list{'->next' * i} != NULL" for i in range(n)]
    parts.append(f"list{'->next' * n} = NULL")
    return mem == " /\\ ".join(parts)


def _symbolic_spine(p):
    ret = p.return_value
    addr = ret if isinstance(ret, SymAddrRef) else None
    spine = []
    while addr is not None:
        spine.append(addr)
        assert len(spine) < 10, "cycle"
        nxt = p.heap[addr].fields.get("next")
        addr = nxt if isinstance(nxt, SymAddrRef) else None
    return spine


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
