"""Symbolic execution engine tests: path enumeration, loop bounding, lazy
initialization, aliasing, budgets, and agreement with the concrete
interpreter on closed inputs."""
import random

import pytest

from specminer import inference
from specminer.concrete import build_dll, concrete_run
from specminer.constraints import (
    EQ, GT, LT, NEQ, NULL, TRUE, Add, Atom, IntConst, NullRef, SatCache, SatResult,
    SymAddrRef, SymDataRef, SymIntRef, check_sat, negate_atom, render_constraint,
)
from specminer.engine import _HANDLERS, Limits, _Engine, _build, se
from specminer.frontend import load_program, nodes as N
from specminer.symstate import (
    Allocator,
    HeapObject,
    Pattern,
    UNDEF,
    fresh_value,
    render_pattern,
    render_tv,
)


def _append_args(alloc):
    return [alloc.fresh_addr("list"), fresh_value(alloc, N.VOIDPTR, "d")]


def _sym_ints(names, alloc):
    return [alloc.fresh_int(n) for n in names]


# ---------------------------------------------------------------- branch

def test_branch_has_exactly_two_patterns(branch_index):
    alloc = Allocator()
    res = se(branch_index, "branch", _sym_ints(["x", "y"], alloc), Limits(), alloc)
    assert len(res.patterns) == 2
    assert res.truncated_paths == 0 and not res.budget_error
    got = [(render_tv(p.return_value), render_constraint(p.path_condition))
           for p in res.final_patterns]
    assert got == [("tv(int, 1)", "?x > ?y"), ("tv(int, 0)", "?x <= ?y")]
    assert [p.provenance_id for p in res.patterns] == ["p0", "p1"]


@pytest.mark.parametrize("verdict", [None, SatResult.UNKNOWN, SatResult.UNSAT])
@pytest.mark.parametrize("holds", [True, False])
def test_a_recorded_atom_decides_its_branch_with_one_question(
        branch_index, entry_pattern, monkeypatch, holds, verdict):
    """When the path records `x > y` (or its negation), deciding `x > y`
    keeps the pattern on that side, clones nothing and asks the cache only
    for the path's own verdict: Unknown marks it approx, Unsat drops it.
    `verdict` stubs that answer; None keeps the real (Sat) one."""
    alloc = Allocator()
    x, y = alloc.fresh_int("x"), alloc.fresh_int("y")
    atom = Atom(GT, x, y)
    recorded = atom if holds else negate_atom(atom)
    p = entry_pattern(branch_index, "branch", [x, y], condition=frozenset({recorded}))
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
        res = se(dll_index, "append", _append_args(alloc), Limits(unroll_bound=n), alloc)
        assert len(res.final_patterns) == n + 2, f"unroll {n}"
        assert len(res.error_patterns) == 0
        assert res.truncated_paths == 1


def test_append_one_node_pattern_dump(dll_index):
    """The one-node final is the canonical worked example: its displayed
    memory condition is exactly the two facts the walk discovered."""
    alloc = Allocator()
    res = se(dll_index, "append", _append_args(alloc), Limits(unroll_bound=1), alloc)
    p1 = res.final_patterns[1]
    dump = render_pattern(p1)
    assert "<k> return list </k>" in dump
    assert "<heap> list |-> (next |-> new_node) </heap>" in dump
    assert "<heap> new_node |-> (data |-> ?d, next |-> NULL, prev |-> list) </heap>" in dump
    assert "<cond> true </cond>" in dump
    assert "<memcond> list != NULL /\\ list->next = NULL </memcond>" in dump


def test_append_emission_order_is_depth_first_true_first(dll_index):
    alloc = Allocator()
    res = se(dll_index, "append", _append_args(alloc), Limits(unroll_bound=1), alloc)
    # p0: two-node walk; p1: one-node; p2: empty input
    mems = [render_constraint(p.mem_path_condition) for p in res.patterns]
    assert mems == [
        "list != NULL /\\ list->next != NULL /\\ list->next->next = NULL",
        "list != NULL /\\ list->next = NULL",
        "list = NULL",
    ]
    # the solver sees exactly the displayed conditions: a malloc'd node is
    # distinct from NULL and from the input objects by construction
    for p in res.patterns:
        assert p.condition == p.path_condition | p.mem_path_condition, p.provenance_id


CMP_HEAP_SRC = """
struct N { int v; struct N* next; };
int cmpheap(struct N* a, struct N* b) { int t; t = b->v; if (a->next == b) return 1; return a->next->v; }
"""


def test_an_atom_recorded_in_both_cells_shows_under_cond_only():
    """`b` is a heap key when `a->next != b` is decided, so the separate
    alias world of `a->next` records that atom again as its alias
    decision. The memory cell is the condition's atoms outside the path
    condition, so the dump shows the atom once, under <cond>."""
    alloc = Allocator()
    res = se(load_program(CMP_HEAP_SRC), "cmpheap",
             [alloc.fresh_addr("a"), alloc.fresh_addr("b")], Limits(), alloc,
             lazy_aliasing=True)
    p1 = res.patterns[1]
    dump = render_pattern(p1)
    assert "<cond> a->next != b </cond>" in dump
    assert ("<memcond> a != NULL /\\ a != b /\\ a->next != NULL /\\ a->next != a"
            " /\\ b != NULL </memcond>") in dump
    assert p1.condition == p1.path_condition | p1.mem_path_condition


def test_split_log_pairs_are_mutually_unsat(dll_index):
    alloc = Allocator()
    res = se(dll_index, "append", _append_args(alloc), Limits(unroll_bound=2), alloc)
    assert res.split_log
    for left, right in res.split_log:
        assert check_sat(left | right) == SatResult.UNSAT


@pytest.mark.parametrize("lazy_aliasing", [False, True])
@pytest.mark.parametrize("fname", ["append", "find", "head", "init", "last", "length",
                                   "reverse"])
def test_a_condition_is_the_set_of_the_caches_atoms(dll_index, fname, lazy_aliasing):
    """Each condition cell of a terminal pattern is a frozenset of the
    run's interned atoms, and the stored conjunction holds both displayed
    cells."""
    alloc = Allocator()
    sat = SatCache()
    args = [fresh_value(alloc, ptype, pname)
            for pname, ptype in dll_index.functions[fname].params]
    # the step cap keeps init's divergent --lazy-aliasing run short
    res = se(dll_index, fname, args, Limits(unroll_bound=1, max_steps=2000), alloc,
             lazy_aliasing, sat=sat)
    assert res.patterns
    for p in res.patterns:
        cells = (p.condition, p.path_condition, p.mem_path_condition)
        assert all(type(c) is frozenset for c in cells), p.provenance_id
        assert p.path_condition <= p.condition and p.mem_path_condition <= p.condition
        for c in cells:
            for a in c:
                assert sat.interned[(a.op, a.lhs, a.rhs)] is a, (p.provenance_id, a)


def test_engine_is_deterministic(dll_index):
    def run():
        alloc = Allocator()
        res = se(dll_index, "append", _append_args(alloc), Limits(unroll_bound=2), alloc)
        return [render_pattern(p) for p in res.patterns]
    assert run() == run()


def test_all_or_nothing_run_stops_at_the_shallow_rejected_leaf(dll_index):
    """With `reject`, the loop-exit branch is explored before the walk, and
    the run ends at the first leaf `reject` holds for."""
    def run(reject):
        alloc = Allocator()
        res = se(dll_index, "length", [alloc.fresh_addr("list")],
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
        args = [alloc.fresh_addr("a"), alloc.fresh_addr("b")]
        return se(idx, "touch", args, Limits(), alloc, lazy_aliasing=flag)

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
    args = [alloc.fresh_addr("a"), alloc.fresh_addr("b")]
    res = se(load_program(ALIAS_SRC), "touch", args, Limits(), alloc, lazy_aliasing=True)
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
                else fresh_value(alloc, N.VOIDPTR, pname)
                for pname, ptype in index.functions[fname].params]
        res = se(index, fname, args, Limits(), alloc, lazy_aliasing=True)
        for p in res.patterns:
            for target, cand in p.aliases.items():
                aliases += 1
                assert target not in p.heap, (fname, p.provenance_id)
                obj = p.heap.get(cand)
                assert isinstance(obj, HeapObject) and cand not in p.malloced, (fname, p.provenance_id)
    assert aliases > 0


# ---------------------------------------------------------------- recursion

def test_recursion_is_cut_at_the_unroll_bound():
    idx = load_program("int rec(int n) { if (n > 0) return rec(n - 1); return n; }")
    for bound, finals in ((1, 2), (2, 3)):
        alloc = Allocator()
        res = se(idx, "rec", _sym_ints(["n"], alloc), Limits(unroll_bound=bound), alloc)
        assert len(res.final_patterns) == finals
        assert res.truncated_paths == 1


# `upto` has its own loop and `sum` calls it from inside its loop; `sumin`
# runs the same inner loop in its own body
NESTED_LOOPS_SRC = """
struct N { int v; struct N* next; };
int upto(int k) { int c; c = 0; while (c < k) c = c + 1; return c; }
int sum(struct N* n) { int t; t = 0; while (n != NULL) { t = t + upto(n->v); n = n->next; } return t; }
int sumin(struct N* n) { int t; int c; t = 0; while (n != NULL) { c = 0; while (c < n->v) c = c + 1; t = t + c; n = n->next; } return t; }
"""


@pytest.mark.parametrize("bound, returns", [
    # lists of up to `bound` nodes, each node's `v` counted up to `bound`
    (1, [0, 0, 1]),
    (2, [0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4]),
])
def test_each_call_counts_its_own_loop_and_restores_the_callers(bound, returns):
    """Each execution of a loop starts its own count, whether it sits in
    a callee (`sum`) or in the body of the loop around it (`sumin`), and
    the outer loop keeps its own count, on every path: one path's
    iterations never use up another's."""
    idx = load_program(NESTED_LOOPS_SRC)
    for fname in ("sum", "sumin"):
        alloc = Allocator()
        res = se(idx, fname, [alloc.fresh_addr("n")],
                 Limits(unroll_bound=bound), alloc)
        assert sorted(p.return_value.value for p in res.final_patterns) == returns, fname
        # every path that would take one more counted iteration is cut
        assert res.truncated_paths == len(returns), fname
        assert res.error_patterns == [], fname


# walks over an ever longer input list: the dereference of `n->next` in the
# body decides the next guard, so no guard splits after the first
WALK_SRC = """
struct N { int v; struct N* next; };
int upto(int k) { int c; c = 0; while (c < k) c = c + 1; return c; }
int poke(struct N* m) { m->v = 1; return 0; }
int walk(struct N* n) { while (n != NULL) { n->next->v = 1; n = n->next; } return 0; }
int walkup(struct N* n) { while (n != NULL) { upto(n->next->v); n = n->next; } return 0; }
int walkpoke(struct N* n) { while (n != NULL) { poke(n->next); n = n->next; } return 0; }
"""


_WALKS = ("walk", "walkup", "walkpoke")


@pytest.mark.parametrize("fname, bound, lazy_aliasing", [
    *(pytest.param(fname, bound, False, id=f"{fname}-{bound}")
      for fname in _WALKS for bound in (1, 2)),
    *(pytest.param(fname, 1, True, id=f"{fname}-1-lazy") for fname in _WALKS),
    # with lazy aliasing, bound 2 lets the walk find a cyclic list, which
    # no iteration counts on: ROADMAP item 5, step 2
    *(pytest.param(fname, 2, True, id=f"{fname}-2-lazy", marks=pytest.mark.xfail(
        strict=True, reason="a walk over a cyclic discovered list runs to the step "
                            "cap (ROADMAP item 5, step 2)"))
      for fname in _WALKS),
])
def test_an_iteration_that_discovers_heap_counts(fname, bound, lazy_aliasing):
    """A NULL test that splits in a loop's body, or in a function the body
    calls (`poke`), counts the loop's next iteration against the bound,
    and a callee's own loop (`upto`) does not hide it: the bound, not the
    step cap, ends the walk."""
    idx = load_program(WALK_SRC)
    alloc = Allocator()
    res = se(idx, fname, [alloc.fresh_addr("n")],
             Limits(unroll_bound=bound, max_steps=2000), alloc, lazy_aliasing)
    assert not res.budget_error
    assert res.truncated_paths
    assert {p.error_reason for p in res.error_patterns} == {"NULL dereference"}
    assert [p.return_value for p in res.final_patterns] == [IntConst(0)]


GUARD_ATOMS_SRC = """
int upto(int k) { int c; c = 0; while (c < k) c = c + 1; return c; }
int clob(int x) { while (x > 0 && upto(2) > 0) { x = x - 1; } return x; }
int ag(int x) { while (x + 1 > x) { x = x - 1; } return x; }
"""


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("fname", ["clob", "ag"])
def test_a_guard_that_adds_an_atom_counts(fname, bound):
    """An iteration whose guard adds an atom to the path's condition
    counts against the bound: a split that a looping callee in the guard
    (`upto`) runs after, or the `s = x + 1` that `ag`'s guard records
    before its entailed comparison. The bound, not the step cap, ends the
    loop."""
    idx = load_program(GUARD_ATOMS_SRC)
    alloc = Allocator()
    res = se(idx, fname, [alloc.fresh_int("x")],
             Limits(unroll_bound=bound, max_steps=2000), alloc)
    assert not res.budget_error
    assert res.truncated_paths > 0


def test_clones_share_only_what_is_replaced_on_write(entry_pattern):
    """A loop's record rides in its check and decide frames, which
    `Pattern.clone` copies with `k`, so a clone's iterations never touch
    the original's. `aliases` is shared with the original, so the engine
    replaces it and never writes it in place. A handler that keeps its
    pattern returns None."""
    idx = load_program(NESTED_LOOPS_SRC)
    alloc = Allocator()
    eng = _Engine(idx, Limits(unroll_bound=2), alloc, True, SatCache())
    k = alloc.fresh_int("k")
    p = entry_pattern(idx, "upto", [k])
    loop = idx.functions["upto"].body[1]
    q = p.clone()
    assert eng._loop_check(q, (loop, None)) is None
    # at the loop's entry nothing is counted and the cells are empty
    assert q.k == [(_Engine._loop_decide, (loop, 0, 0, 0, 0)), *loop.test]
    del q.k[1:]
    _handler, data = q.k.pop()
    # the guard `c < k` splits, and the held side records its atom
    eng._record(q, q.add_path_atom, eng.sat.atom(LT, IntConst(0), k))
    q.vals.append(IntConst(1))
    assert eng._loop_decide(q, data) is None
    assert q.k == [(_Engine._loop_check, (loop, (1, 0))), *loop.body.push]
    del q.k[1:]
    _handler, data = q.k.pop()
    # the body grew the memory cell; the next check carries the count on,
    # with the last check's size and its own
    eng._record(q, q.add_mem_atom, eng.sat.atom(NEQ, alloc.fresh_addr("m"), NULL))
    assert eng._loop_check(q, data) is None
    assert q.k == [(_Engine._loop_decide, (loop, 1, 0, 1, 2)), *loop.test]
    del q.k[1:]
    _handler, data = q.k.pop()
    q.vals.append(IntConst(1))
    assert eng._loop_decide(q, data) is None
    assert q.k == [(_Engine._loop_check, (loop, (2, 1))), *loop.body.push]
    assert p.k == [] and p.condition == TRUE

    a, b = alloc.fresh_addr("a"), alloc.fresh_addr("b")
    ok = entry_pattern(idx, "sum", [b], heap={a: HeapObject("N", {})})
    worlds = eng._alias_worlds(ok, b, "N")
    assert [(w.aliases, obj) for w, obj in worlds] == [({b: a}, a)]
    assert ok.aliases == {}
    assert ok.resolve(b) == b


def test_concrete_guards_do_not_consume_the_loop_budget():
    # a fully determined loop runs to completion even at unroll 1
    idx = load_program(
        "int summ(int n) { int s; s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }")
    res = se(idx, "summ", [IntConst(5)], Limits(unroll_bound=1))
    assert res.truncated_paths == 0
    assert [render_tv(p.return_value) for p in res.final_patterns] == ["tv(int, 15)"]


# ---------------------------------------------------------------- budgets

def test_pattern_budget(branch_index):
    alloc = Allocator()
    res = se(branch_index, "branch", _sym_ints(["x", "y"], alloc),
             Limits(max_patterns=1), alloc)
    assert res.budget_error
    assert len(res.patterns) == 1


def test_step_budget_catches_divergence():
    idx = load_program("int spin(int x) { while (0 < 1) x = x + 1; return x; }")
    res = se(idx, "spin", [IntConst(9)], Limits(max_steps=500))
    assert res.budget_error
    assert [p.error_reason for p in res.error_patterns] == ["step budget exceeded"]


# (genuine splits, paths cut at the bound, steps summed over the terminal
# patterns) of each dll.c modifier's run at --unroll 8; the splits and cuts
# as measured before the run loop stepped a pattern until it forks
EXPLORATION_AT_UNROLL_8 = {
    "append": (10, 1, 790),
    "find": (17, 1, 1829),
    "head": (10, 1, 538),
    "init": (12, 1, 735),
    "last": (9, 1, 1080),
    "length": (9, 1, 639),
    "reverse": (9, 1, 891),
}


@pytest.mark.parametrize("fname", sorted(EXPLORATION_AT_UNROLL_8))
def test_exploration_of_each_dll_modifier_is_pinned(dll_index, fname):
    """A change to how the run loop steps, forks or orders its work must not
    change what it explores."""
    alloc = Allocator()
    args = [fresh_value(alloc, ptype, pname)
            for pname, ptype in dll_index.functions[fname].params]
    res = se(dll_index, fname, args, Limits(unroll_bound=8), alloc)
    assert (len(res.split_log), res.truncated_paths,
            sum(p.steps for p in res.patterns)) == EXPLORATION_AT_UNROLL_8[fname]


# One step per frame run. Counted by hand for `spin_once` below, where
# `x > 0` splits. The path into the loop: loop check (1), `x` (2), `0` (3),
# the comparison that splits (4), truth (5), loop decide (6), `0` (7), the
# invoke (8), `a` (9), its return (10), the variable write (11), the
# statement's pop (12); the second check is concrete: loop check (13), `x`
# (14), `0` (15), the comparison (16), truth (17), loop decide (18); then
# `x` (19), its return (20). The path that skips the loop shares steps 1-4,
# then truth (5), loop decide (6), `x` (7), its return (8).
STEP_SRC = ("int one(int a) { return a; }\n"
            "int spin_once(int x) { while (x > 0) x = one(0); return x; }\n")


def test_each_frame_costs_one_step():
    idx = load_program(STEP_SRC)

    def run(max_steps):
        alloc = Allocator()
        return se(idx, "spin_once", _sym_ints(["x"], alloc), Limits(max_steps=max_steps),
                  alloc)

    res = run(20)
    assert not res.budget_error
    assert [(p.status, p.steps, render_tv(p.return_value)) for p in res.patterns] == \
        [("final", 20, "tv(int, 0)"), ("final", 8, "tv(int, ?x)")]
    res = run(19)
    assert res.budget_error
    assert [(p.status, p.error_reason) for p in res.patterns] == \
        [("error", "step budget exceeded"), ("final", "")]


def test_an_empty_block_adds_no_step():
    """An empty block has no frames, so it takes no step. By hand, as
    above: `x` (1), `0` (2), the comparison that splits (3), truth (4),
    branch (5), `x` (6), its return (7); the path that skips the block
    takes the same 7 steps."""
    idx = load_program("int f(int x) { if (x > 0) { } return x; }")

    def run(max_steps):
        alloc = Allocator()
        return se(idx, "f", _sym_ints(["x"], alloc), Limits(max_steps=max_steps), alloc)

    res = run(7)
    assert not res.budget_error
    assert [(p.status, p.steps) for p in res.patterns] == [("final", 7), ("final", 7)]
    res = run(6)
    assert res.budget_error
    assert [(p.status, p.error_reason) for p in res.patterns] == \
        [("error", "step budget exceeded"), ("error", "step budget exceeded")]


def _node_of(frame):
    """The node a static frame works for: its data, but the loop of a
    loop's entry frame, whose data is `(While node, None)`. None for any
    other data."""
    data = frame[1]
    if type(data) is not tuple:
        return data
    if len(data) == 2 and type(data[0]) is N.While and data[1] is None:
        return data[0]
    return None


def test_every_statement_and_expression_class_has_a_handler(corpus_dir, ast_nodes):
    """Every statement and expression class occurs in the corpus, and each
    occurrence but a block gets a frame of its own: a leaf's handler from
    `_HANDLERS`, any other node the frames `_build` gives it. A class
    `_build` does not know raises when its frames are built."""
    def concrete(base):
        for sub in base.__subclasses__():
            yield sub
            yield from concrete(sub)

    classes = [*concrete(N.Stmt), *concrete(N.Expr)]
    assert len(classes) >= 14
    own = {c: False for c in classes if c is not N.Block}
    for path in sorted(corpus_dir.glob("*.c")):
        idx = load_program(path.read_text())
        _Engine(idx, Limits(), Allocator(), False, SatCache())
        for f in idx.functions.values():
            for n in ast_nodes(f.body):
                if type(n) in own:
                    own[type(n)] = any(_node_of(fr) is n for fr in n.push)
                    assert own[type(n)], (path.name, f.name, n)
    assert [c.__name__ for c, seen in own.items() if not seen] == []

    class Stray:
        pass

    with pytest.raises(KeyError):
        _build(Stray())


_LEAVES = (N.IntLit, N.NullLit, N.Var, N.Malloc)


def test_every_corpus_node_carries_its_frame(corpus_dir, ast_nodes):
    """The first engine built for a program stores on every function its
    exit frame and its body's frames, which are its statements' frames
    concatenated, and on every statement and expression node the frames
    that evaluate it (`push`). Each frame is a `(handler, node)` pair, but
    a loop's entry frame, `(_loop_check, (loop, None))`: the loop has no
    record yet. A leaf is its one frame with its class's handler, a block
    is its statements' frames, none when it is empty, and a loop's guard
    frames (`test`) are its truth frame and its condition's frames."""
    assert set(_HANDLERS) == set(_LEAVES)
    for path in sorted(corpus_dir.glob("*.c")):
        idx = load_program(path.read_text())
        _Engine(idx, Limits(), Allocator(), False, SatCache())
        for f in idx.functions.values():
            assert f.frame == (_Engine._exit, f)
            assert f.push == tuple(fr for s in reversed(f.body) for fr in s.push)
            for n in ast_nodes(f.body):
                where = (path.name, f.name, n)
                for frame in n.push:
                    assert type(frame) is tuple and len(frame) == 2, where
                    handler, data = frame
                    assert handler in vars(_Engine).values(), where
                    assert isinstance(_node_of(frame), (N.Stmt, N.Expr)), where
                    assert (type(data) is tuple) == (handler is _Engine._loop_check), where
                if isinstance(n, _LEAVES):
                    assert n.push == ((_HANDLERS[type(n)], n),), where
                elif isinstance(n, N.Block):
                    assert n.push == tuple(fr for s in reversed(n.stmts) for fr in s.push), \
                        where
                elif isinstance(n, N.While):
                    assert n.push == ((_Engine._loop_check, (n, None)),), where
                    assert n.test == ((_Engine._truth, n), *n.cond.push), where


SAME_SRC = ("struct N { int v; };\n"
            "int same(struct N* a, struct N* b) { if (a == b) return 1; return 0; }\n")


def test_comparing_an_address_with_itself_asks_the_solver_nothing(monkeypatch):
    """`_compare` decides `a == a` by its fast path, without a question."""
    idx = load_program(SAME_SRC)
    asked = []
    real_check = SatCache.check

    def check(self, base, atom):
        asked.append(atom)
        return real_check(self, base, atom)

    monkeypatch.setattr(SatCache, "check", check)
    alloc = Allocator()
    a, b = alloc.fresh_addr("a"), alloc.fresh_addr("b")
    res = se(idx, "same", [a, a], Limits(), alloc)
    assert asked == []
    assert [render_tv(p.return_value) for p in res.patterns] == ["tv(int, 1)"]
    # two distinct addresses may or may not be equal: the solver is asked
    res = se(idx, "same", [a, b], Limits(), alloc)
    assert asked
    assert [render_tv(p.return_value) for p in res.patterns] == ["tv(int, 1)", "tv(int, 0)"]


def test_a_walk_over_a_seeded_heap_asks_the_solver_nothing(dll_index, monkeypatch):
    """Dereferencing a heap key, or comparing it with NULL, reads the
    verdict of the path's conditions instead of asking a question: the
    conditions already entail that the key is not NULL."""
    asked = []
    real_check = SatCache.check

    def check(self, base, atom):
        asked.append(atom)
        return real_check(self, base, atom)

    monkeypatch.setattr(SatCache, "check", check)
    alloc = Allocator()
    nodes = [alloc.fresh_addr(f"n{i}") for i in range(3)]
    succ = nodes[1:] + [NULL]
    heap = {a: HeapObject("List", {"next": b}) for a, b in zip(nodes, succ)}
    sat = SatCache()
    condition = frozenset(sat.atom(NEQ, a, NULL) for a in nodes)
    res = se(dll_index, "length", [nodes[0]], Limits(unroll_bound=8), alloc, sat=sat,
             heap=heap, condition=condition)
    assert asked == []
    assert [render_tv(p.return_value) for p in res.patterns] == ["tv(int, 3)"]
    assert not res.split_log and not res.patterns[0].approx


@pytest.mark.parametrize("extra", ["none", "unknown", "unsat"])
@pytest.mark.parametrize("entailed", ["recorded", "through an equality"])
def test_a_heap_key_is_decided_as_decide_would(branch_index, entry_pattern, extra,
                                               entailed):
    """`_on_heap` keeps exactly the effects of `_decide` on `a != NULL`
    for a heap key `a`: no successor when the conditions are Unsat, and
    `approx` when they are Unknown. Here `a`'s non-nullness is recorded,
    or follows from `a = b` and `b != NULL`."""
    alloc = Allocator()
    a, b, x = alloc.fresh_addr("a"), alloc.fresh_addr("b"), alloc.fresh_int("x")
    sat = SatCache()
    facts = ([sat.atom(NEQ, a, NULL)] if entailed == "recorded"
             else [sat.atom(EQ, a, b), sat.atom(NEQ, b, NULL)])
    facts += {"none": [],
              "unknown": [sat.atom(EQ, Add(x, x), IntConst(1))],  # outside the fragment
              "unsat": [sat.atom(GT, x, IntConst(0)), sat.atom(LT, x, IntConst(0))],
              }[extra]
    p = entry_pattern(branch_index, "branch", [x, x], heap={a: HeapObject("List", {})},
                      condition=frozenset(facts))
    eng = _Engine(branch_index, Limits(), alloc, False, sat)
    q = p.clone()
    want = eng._decide(q, sat.atom(NEQ, a, NULL))
    assert want in ([], [(q, True)])
    assert eng._on_heap(p) == bool(want)
    assert p.approx == q.approx == (extra == "unknown")
    assert eng.split_log == []


@pytest.mark.parametrize("lazy_aliasing", [False, True])
@pytest.mark.parametrize("unroll", [1, 2])
def test_every_heap_key_is_non_null_under_its_condition(corpus_dir, monkeypatch, unroll,
                                                        lazy_aliasing):
    """What `_on_heap` rests on: in every run of an invocation, the
    modifier's and each replay's, every final pattern's conditions refute
    `a = NULL` for each key `a` of its heap and of its entry heap that is
    not malloc'd. The from-scratch `check_sat` decides it. A malloc'd
    object is not NULL by construction, and no entry heap holds one but
    those the run starts from: the modifier run's entry heaps, which the
    pre replays start from, hold none."""
    real_se = inference.se
    checked = []

    def spy(*args, **kwargs):
        res = real_se(*args, **kwargs)
        start = kwargs.get("heap") or {}
        for p in res.final_patterns:
            assert not (p.malloced & p.entry_heap.keys()) - start.keys(), \
                (args[1], p.provenance_id)
            for a in {**p.entry_heap, **p.heap}.keys() - p.malloced:
                assert check_sat(p.condition | {Atom(EQ, a, NULL)}) == SatResult.UNSAT, \
                    (args[1], p.provenance_id, a)
                checked.append(a)
        return res

    monkeypatch.setattr(inference, "se", spy)
    for path in sorted(corpus_dir.glob("*.c")):
        idx = load_program(path.read_text())
        for fname in sorted(idx.functions):
            # the step cap keeps init's divergent --lazy-aliasing run short
            inference.infer_spec(idx, fname, Limits(unroll_bound=unroll, max_steps=2000),
                                 lazy_aliasing=lazy_aliasing)
    assert checked


@pytest.mark.parametrize("lazy_aliasing", [False, True])
def test_a_value_is_undef_or_its_own_term(dll_index, lazy_aliasing):
    """Every variable, object field and return value of every dll.c
    modifier's terminal patterns is UNDEF or one of the five value terms,
    never a compound term such as `Add`, `Sub` or `FieldPath`; both heaps
    hold struct objects and nothing else."""
    value_terms = (SymAddrRef, NullRef, IntConst, SymIntRef, SymDataRef)
    seen = set()
    for fname in sorted(dll_index.functions):
        alloc = Allocator()
        args = [fresh_value(alloc, ptype, pname)
                for pname, ptype in dll_index.functions[fname].params]
        res = se(dll_index, fname, args, Limits(unroll_bound=1), alloc,
                 lazy_aliasing)
        for p in res.patterns:
            values = [p.return_value, *p.env.values()]
            for heap in (p.heap, p.entry_heap):
                for obj in heap.values():
                    assert isinstance(obj, HeapObject), (fname, p.provenance_id, obj)
                    values += obj.fields.values()
            for v in values:
                assert v is UNDEF or type(v) in value_terms, (fname, p.provenance_id, v)
                seen.add(type(v))
    # dll.c has no int field or parameter, so no symbolic int shows up
    assert seen == {type(UNDEF), SymAddrRef, NullRef, IntConst, SymDataRef}


def test_arithmetic_on_an_undefined_call_result_is_an_error_leaf():
    # `g` runs off its end when `a <= 0`; `f` adds to what it returns and
    # `h` compares it, and both name the fault the same way
    idx = load_program("int g(int a) { if (a > 0) return 1; }\n"
                       "int f(int x) { return g(x) + 1; }\n"
                       "int h(int x) { return g(x) < 1; }\n")
    for fname, value in (("f", "tv(int, 2)"), ("h", "tv(int, 0)")):
        alloc = Allocator()
        res = se(idx, fname, _sym_ints(["x"], alloc), Limits(), alloc)
        assert [(p.status, p.error_reason or render_tv(p.return_value))
                for p in res.patterns] == \
            [("final", value), ("error", "read of undefined value")], fname


def test_undefined_variable_read_is_an_error_leaf():
    idx = load_program("int f(int a) { int t; return t; }")
    res = se(idx, "f", [IntConst(1)])
    assert [(p.status, p.error_reason) for p in res.patterns] == \
        [("error", "read of undefined variable 't'")]


def test_se_checks_arity_and_the_function_name(dll_index):
    with pytest.raises(TypeError):
        se(dll_index, "append", [])
    with pytest.raises(KeyError):
        se(dll_index, "nosuch", [])


# ---------------------------------------------------------------- env

# `g` assigns a parameter and a local that share their names with `f`'s;
# each call of `r` sets its own `t` before the call below it does
FRAMES_SRC = """
int g(int x) { int t; t = x + 1; x = 7; return t; }
int f(int x) { int t; t = 5; x = g(x); return t + x; }
int r(int n) { int t; int s; t = n; if (n > 0) s = r(n - 1); return t; }
"""


@pytest.mark.parametrize("arg", [IntConst(1), "symbolic"])
def test_a_callee_never_assigns_the_callers_variables(arg):
    idx = load_program(FRAMES_SRC)
    alloc = Allocator()
    x = alloc.fresh_int("x") if arg == "symbolic" else arg
    [p] = se(idx, "f", [x], Limits(), alloc).patterns
    assert p.status == "final"
    # f's t is still 5, and f's x holds what g returned, g's t
    t = p.env["t"]
    assert t == IntConst(5)
    if arg == "symbolic":
        assert p.env["x"] != x and isinstance(p.env["x"], SymIntRef)
        assert render_tv(p.return_value).startswith("tv(int, ?i")
    else:
        assert p.env == {"x": IntConst(2), "t": IntConst(5)}
        assert p.return_value == IntConst(7)


def test_each_recursive_call_keeps_its_own_locals():
    idx = load_program(FRAMES_SRC)
    res = se(idx, "r", [IntConst(2)], Limits(unroll_bound=3))
    [p] = res.patterns
    assert (p.status, p.return_value) == ("final", IntConst(2))
    assert p.env == {"n": IntConst(2), "t": IntConst(2), "s": IntConst(1)}


def test_an_assignment_after_a_split_leaves_the_other_successor_alone():
    """The successors of a split share the env until one assigns a
    variable; the true side runs first, and its `t = 1` must not reach the
    false side."""
    idx = load_program("int f(int x) { int t; t = 0; if (x > 0) t = 1; return t; }")
    alloc = Allocator()
    res = se(idx, "f", _sym_ints(["x"], alloc), Limits(), alloc)
    assert [(render_tv(p.return_value), render_tv(p.env["t"])) for p in res.patterns] == \
        [("tv(int, 1)", "tv(int, 1)"), ("tv(int, 0)", "tv(int, 0)")]


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
            res = se(idx, name, [IntConst(a) for a in args])
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
        res = se(dll_index, "append", _append_args(alloc), Limits(unroll_bound=3), alloc)
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
