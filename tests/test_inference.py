"""Axiom inference tests.

The append/init/reverse expectations below were hand-traced from the list
semantics before the inference module existed and are frozen here as
goldens; the acceptance sweep cross-checks them against the concrete
interpreter on real heaps. Axiom comparisons are order-agnostic (sets),
with the canonical output order pinned separately.
"""
import pathlib
import re
import tracemalloc

import pytest

from specminer import constraints, engine, inference
from specminer.concrete import CAddr, CObject, concrete_run
from specminer.constraints import (
    Closure, SatCache, check_sat, render_constraint,
)
from specminer.engine import Limits, se
from specminer.frontend import load_program, nodes as N
from specminer.inference import (
    Equation,
    Axiom,
    NotAnObserver,
    RET,
    Rhs,
    UnknownFunction,
    call_shapes,
    infer_spec,
    simplify_spec,
)


def _shape(spec):
    """Order-agnostic digest: set of (pre, post, ret) rendered triples."""
    return {
        (frozenset(e.render() for e in ax.pre),
         frozenset(e.render() for e in ax.post),
         ax.ret.render() if ax.ret else None)
        for ax in spec.axioms
    }


def _triple(pre, post, ret):
    return (frozenset(pre), frozenset(post), ret)


# ---------------------------------------------------------------- goldens

APPEND_1 = {
    _triple(
        {"length(list) = 2"},
        {"find(list', d) = 1", "init(list') = list'", "last(list') = d",
         "length(list') = 3"},
        "ret = list'"),
    _triple(
        {"init(list) = NULL", "length(list) = 1", "reverse(list) = list"},
        {"find(list', d) = 1", "last(list') = d", "length(list') = 2"},
        "ret = list'"),
    _triple(
        {"find(list, d) = 0", "init(list) = NULL", "length(list) = 0",
         "reverse(list) = NULL"},
        {"find(list', d) = 1", "head(list') = d", "init(list') = NULL",
         "last(list') = d", "length(list') = 1", "reverse(list') = list'"},
        "ret = list'"),
}

INIT_1 = {
    _triple({"length(list) = 3"}, {"length(list') = 2"}, "ret = list'"),
    _triple({"length(list) = 4"}, {"length(list') = 3"}, "ret = list'"),
    _triple({"length(list) = 0", "reverse(list) = NULL"},
            {"length(list') = 0", "reverse(list') = NULL"}, "ret = NULL"),
    _triple({"length(list) = 1", "reverse(list) = list"},
            {"length(list') = 0", "reverse(list') = NULL"}, "ret = NULL"),
}

REVERSE_1 = {
    _triple({"init(list) = NULL", "length(list) = 1"}, set(), "ret = list'"),
    _triple({"init(list) = NULL", "length(list) = 0"},
            {"init(list') = NULL", "length(list') = 0"}, "ret = NULL"),
}


def test_append_unroll1_axioms(dll_index):
    spec = infer_spec(dll_index, "append", Limits(unroll_bound=1))
    assert len(spec.axioms) == 3
    assert _shape(spec) == APPEND_1
    assert spec.stats == {"finalPatterns": 3, "errorPatterns": 0, "truncatedPaths": 1}
    assert not spec.budget_error and not spec.diagnostics
    assert not any(ax.approx for ax in spec.axioms)


def test_init_unroll1_axioms(dll_index):
    spec = infer_spec(dll_index, "init", Limits(unroll_bound=1))
    assert _shape(spec) == INIT_1
    # the two-node input crashes on aux->next->next: one error pattern,
    # and error patterns never become axioms
    assert spec.stats["errorPatterns"] == 1


def test_reverse_unroll1_axioms(dll_index):
    spec = infer_spec(dll_index, "reverse", Limits(unroll_bound=1))
    assert _shape(spec) == REVERSE_1


def test_append_unroll2_adds_the_three_node_class(dll_index):
    spec = infer_spec(dll_index, "append", Limits(unroll_bound=2))
    assert len(spec.axioms) == 4
    assert _triple(
        {"init(list) = list", "length(list) = 3"},
        {"find(list', d) = 1", "init(list') = list'", "last(list') = d",
         "length(list') = 4"},
        "ret = list'") in _shape(spec)
    assert APPEND_1 < _shape(spec)


def test_branch_axioms(branch_index):
    spec = infer_spec(branch_index, "branch")
    assert _shape(spec) == {
        _triple(set(), set(), "ret = 0"),
        _triple(set(), set(), "ret = 1"),
    }
    # no pointer argument means there is no primed post-state root; the run
    # should say so instead of silently reusing the unprimed names
    assert any("no pointer argument" in d for d in spec.diagnostics)


def test_pointer_modifiers_get_no_unprimed_warning(dll_index):
    spec = infer_spec(dll_index, "append", Limits(unroll_bound=1))
    assert not any("no pointer argument" in d for d in spec.diagnostics)


def test_void_modifier_gets_a_void_return_equation(setter_index):
    spec = infer_spec(setter_index, "set_val")
    assert _shape(spec) == {_triple(set(), set(), "ret = void")}


def test_axiom_output_order_is_canonical(dll_index):
    # smallest pre first, ties broken textually; stable across runs
    spec = infer_spec(dll_index, "init", Limits(unroll_bound=1))
    pres = [[e.render() for e in ax.pre] for ax in spec.axioms]
    assert pres == [
        ["length(list) = 3"],
        ["length(list) = 4"],
        ["length(list) = 0", "reverse(list) = NULL"],
        ["length(list) = 1", "reverse(list) = list"],
    ]
    again = infer_spec(dll_index, "init", Limits(unroll_bound=1))
    assert _render_all(again) == _render_all(spec)


def _render_all(spec):
    return [([e.render() for e in ax.pre], [e.render() for e in ax.post],
             ax.ret.render() if ax.ret else None) for ax in spec.axioms]


# ---------------------------------------------------------------- universe

def _displays(args, calls):
    """Each call of `call_shapes` with its positions named by display."""
    return [(o, tuple(args[i][0] for i in positions)) for o, positions in calls]


def test_append_observer_universe(dll_index):
    args = [("list", object(), N.structptr("List")), ("d", object(), N.VOIDPTR)]
    observers = dll_index.observers - {"append"}
    calls = call_shapes(dll_index, observers, args)
    assert _displays(args, calls) == [
        ("find", ("list", "d")),
        ("head", ("list",)),
        ("init", ("list",)),
        ("last", ("list",)),
        ("length", ("list",)),
        ("reverse", ("list",)),
    ]


def test_universe_enumerates_typed_permutations():
    idx = load_program(
        "int g(void* a, void* b) { if (a == b) return 1; return 0; }\n"
        "void m(void* d, void* e) { }")
    args = [("d", object(), N.VOIDPTR), ("e", object(), N.VOIDPTR)]
    calls = call_shapes(idx, {"g"}, args)
    assert _displays(args, calls) == [
        ("g", ("d", "e")),
        ("g", ("e", "d")),
    ]


def test_universe_excludes_ill_typed_calls(dll_index):
    # length wants a struct List*, never the data argument
    args = [("d", object(), N.VOIDPTR)]
    assert call_shapes(dll_index, {"length"}, args) == []


PREFIX_SRC = """
struct S { int key; struct S* next; };
int cmp(struct S* l, struct S* lo) { if (l == lo) return 1; return 0; }
int join(struct S* l, struct S* lo) { l->next = lo; return 0; }
"""


def test_both_phases_replay_the_same_calls(corpus_dir):
    """Priming the root's display keeps the order of the calls, so the pre
    and the post phase of `infer_spec` replay one list. In `PREFIX_SRC`
    the root's name is a prefix of another argument's."""
    sources = [path.read_text() for path in sorted(corpus_dir.glob("*.c"))]
    for src in sources + [PREFIX_SRC]:
        idx = load_program(src)
        for fn, f in sorted(idx.functions.items()):
            root = next((pname for pname, pt in f.params if pt.kind == "structptr"), None)
            seeded = [(pname, object(), pt) for pname, pt in f.params]
            post = [(d + "'" if d == root else d, v, t) for d, v, t in seeded]
            observers = idx.observers - {fn}
            assert call_shapes(idx, observers, seeded) == \
                call_shapes(idx, observers, post), fn


def test_inference_ignores_declaration_order(dll_src):
    pat = re.compile(r"(?:struct \w+\*|int|void\*?|\bvoid\b) (\w+)\([^)]*\) \{.*?\n\}", re.S)
    blocks = {m.group(1): m.group(0) for m in pat.finditer(dll_src)}
    assert len(blocks) == 7
    struct_part = dll_src[:dll_src.index("struct List* append")]
    shuffled = struct_part + "\n\n".join(
        blocks[n] for n in ["last", "find", "init", "append", "length", "reverse", "head"])
    spec_a = infer_spec(load_program(dll_src), "append")
    spec_b = infer_spec(load_program(shuffled + "\n"), "append")
    assert _render_all(spec_a) == _render_all(spec_b)


# ---------------------------------------------------------------- state scoping

def test_pre_equations_never_mention_the_post_state(dll_index):
    for modifier in ("append", "init", "reverse"):
        spec = infer_spec(dll_index, modifier, Limits(unroll_bound=2))
        for ax in spec.axioms:
            for eq in ax.pre:
                assert "'" not in eq.render(), (modifier, eq.render())


def test_post_equations_use_only_the_primed_root(dll_index):
    for modifier in ("append", "init", "reverse"):
        spec = infer_spec(dll_index, modifier, Limits(unroll_bound=2))
        for ax in spec.axioms:
            for eq in ax.post:
                assert "list" not in eq.args or "list'" in eq.args, eq.render()
                assert "list'" in eq.args, eq.render()


BY_VALUE_SRC = """
struct N { int v; struct N* next; };
int getv(struct N* a) { return a->v; }
int upto(int k) { int c; c = 0; while (c < k) c = c + 1; return c; }
int clob(int x) { while (x > 0 && upto(2) > 0) { x = x - 1; } return x; }
int adv(struct N* a, struct N* b) { b = b->next; b->v = 3; return 0; }
"""


def test_post_equations_name_the_callers_arguments():
    """C passes arguments by value, so in a post equation an unprimed
    argument name is the caller's argument, not the callee's final local:
    `clob` counts its `x` down and `adv` moves its `b` along the list, yet
    the caller's `x` and `b` stay as they were."""
    idx = load_program(BY_VALUE_SRC)
    n1, n2 = CAddr(1), CAddr(2)
    heap = {n1: CObject("N", {"v": 0, "next": n2}), n2: CObject("N", {"v": 0, "next": None})}
    # concrete runs: clob(1) returns 0, and adv writes the node after the
    # caller's b, not b itself
    assert concrete_run(idx, "clob", {}, [1])[0] == 0
    _ret, post = concrete_run(idx, "adv", heap, [n2, n1])
    assert concrete_run(idx, "getv", post, [n1])[0] == 0

    spec = infer_spec(idx, "clob", Limits(unroll_bound=2))
    assert spec.axioms
    for ax in spec.axioms:
        # the caller's x is unchanged, so upto(x) reads as before the call
        assert [e for e in ax.post if e.args == ("x",)] == \
            [e for e in ax.pre if e.args == ("x",)], ax
    spec = infer_spec(idx, "adv", Limits(unroll_bound=2))
    assert spec.axioms
    posts = {e.render() for ax in spec.axioms for e in ax.post}
    assert "getv(b) = 3" not in posts


# ---------------------------------------------------------------- simplify

def _eq(observer, args, rhs):
    return Equation(observer, tuple(args), rhs)


def _ax(pre, post, ret):
    return Axiom(tuple(pre), tuple(post), ret, provenance="t")


def test_approx_takes_no_part_in_equation_equality():
    exact, approx = _eq("length", ["l"], Rhs("int", 1)), Equation("length", ("l",), Rhs("int", 1), True)
    assert exact == approx and hash(exact) == hash(approx)
    assert len({exact, approx}) == 1


def test_simplify_merges_subset_pres_with_equal_posts():
    post = (_eq("length", ["l'"], Rhs("int", 1)),)
    ret = Equation(RET, (), Rhs("null"))
    a = _ax([_eq("length", ["l"], Rhs("int", 0)), _eq("find", ["l", "d"], Rhs("int", 0))], post, ret)
    b = _ax([_eq("length", ["l"], Rhs("int", 0))], post, ret)
    merged = simplify_spec([a, b])
    assert len(merged) == 1
    assert [e.render() for e in merged[0].pre] == ["length(l) = 0"]


def test_simplify_keeps_incomparable_pres_apart():
    # merging these would claim `true => length' = 0`, which longer lists
    # refute; intersection only applies when one pre contains the other
    post = (_eq("length", ["l'"], Rhs("int", 0)),)
    ret = Equation(RET, (), Rhs("null"))
    a = _ax([_eq("length", ["l"], Rhs("int", 0)), _eq("reverse", ["l"], Rhs("null"))], post, ret)
    b = _ax([_eq("length", ["l"], Rhs("int", 1)), _eq("reverse", ["l"], Rhs("int", 7))], post, ret)
    out = simplify_spec([a, b])
    assert len(out) == 2


def test_simplify_keeps_equal_pres_with_different_posts_apart():
    # each axiom describes its own paths; the union of their posts would
    # describe neither
    pre = (_eq("length", ["l"], Rhs("int", 2)),)
    ret = Equation(RET, (), Rhs("null"))
    a = _ax(pre, [_eq("length", ["l'"], Rhs("int", 3))], ret)
    b = _ax(pre, [_eq("find", ["l'", "d"], Rhs("int", 1))], ret)
    out = simplify_spec([a, b])
    assert sorted([e.render() for e in ax.post] for ax in out) == \
        [["find(l', d) = 1"], ["length(l') = 3"]]


def test_subsumption_merges_chain_and_name_their_first_axiom_first():
    # p0 and p1 merge into pre {L0}, which goes last and then absorbs p2's
    # stronger premise; a merge names its first axiom first
    l0, f0 = _eq("length", ["l"], Rhs("int", 0)), _eq("find", ["l", "d"], Rhs("int", 0))
    g0 = _eq("last", ["l"], Rhs("null"))
    x = _eq("length", ["l'"], Rhs("int", 1))
    ret = Equation(RET, (), Rhs("null"))
    [ax] = simplify_spec([Axiom((l0, f0), (x,), ret, "p0"), Axiom((l0,), (x,), ret, "p1"),
                          Axiom((l0, f0, g0), (x,), ret, "p2")])
    assert ax.pre == (l0,) and ax.post == (x,)
    assert ax.provenance == "p2+p0+p1"


# ---------------------------------------------------------------- rhs

RHS_CASES = [
    (Rhs("int", 0), "0", {"kind": "int", "value": 0}),
    (Rhs("null"), "NULL", {"kind": "null"}),
    (Rhs("arg", "d"), "d", {"kind": "arg", "value": "d"}),
    (Rhs("postRoot", "list'"), "list'", {"kind": "postRoot", "value": "list'"}),
    (Rhs("void"), "void", {"kind": "void"}),
]


def test_the_rhs_kinds_are_those_of_the_spec_format():
    doc = (pathlib.Path(__file__).parents[1] / "docs" / "spec-format.md").read_text()
    listed = re.search(r"`rhs\.kind` is one of ([^.]*)\.", doc).group(1)
    assert re.findall(r"`(\w+)`", listed) == [rhs.kind for rhs, _t, _j in RHS_CASES]


def test_merged_provenance_is_that_of_the_spec_format(dll_index):
    doc = (pathlib.Path(__file__).parents[1] / "docs" / "spec-format.md").read_text()
    documented = re.search(
        r"For `head` of\s+`tests/corpus/dll.c`, bound 1 gives the provenance `([\w+]+)` and "
        r"bound 2\s+gives `([\w+]+)`", doc).groups()
    got = [[ax.provenance for ax in infer_spec(dll_index, "head", Limits(unroll_bound=u)).axioms]
           for u in (1, 2)]
    assert got == [[documented[0]], [documented[1]]]


@pytest.mark.parametrize("rhs, text, doc", RHS_CASES)
def test_each_rhs_kind_renders_and_serializes_as_documented(rhs, text, doc):
    assert rhs.render() == text
    assert rhs.to_json() == doc


def test_an_argument_and_the_post_root_of_one_name_differ():
    assert Rhs("arg", "list'") != Rhs("postRoot", "list'")


def test_simplify_spec_is_idempotent_on_real_specs(dll_index, branch_index):
    for idx, fn in ((dll_index, "append"), (dll_index, "init"),
                    (dll_index, "reverse"), (branch_index, "branch")):
        spec = infer_spec(idx, fn, Limits(unroll_bound=1))
        once = simplify_spec(list(spec.axioms))
        twice = simplify_spec(list(once))
        assert [a.pre for a in twice] == [a.pre for a in once]
        assert [a.post for a in twice] == [a.post for a in once]


# ---------------------------------------------------------------- edge cases

def test_observer_budget_is_reported_not_fatal():
    src = (
        "struct S { struct S* n; };\n"
        "int obs(struct S* s) { int i; i = 0; while (0 < 1) i = i + 1; return i; }\n"
        "struct S* mod(struct S* s) { return s; }\n")
    idx = load_program(src)
    spec = infer_spec(idx, "mod", Limits(unroll_bound=1, max_steps=400))
    assert _shape(spec) == {_triple(set(), set(), "ret = s'")}
    assert spec.budget_error  # surfaced for the exit code
    assert any("exhausted its budget" in d for d in spec.diagnostics)


def _ruled_out(res, sym_map, sat):
    """Does a complete replay have a leaf that rules its call out? A
    step-budget leaf is the budget running out, not a ruling."""
    values = {inference._normalize_return(p, sym_map, sat) for p in res.final_patterns}
    return (res.truncated_paths > 0 or None in values or len(values) > 1
            or any(p.error_reason != "step budget exceeded"
                   for p in res.error_patterns))


def _exhaustive_explain(index, heap, condition, args, limits, alloc,
                        observer_names, *, sat, malloced=frozenset(), post_root=None,
                        lazy_aliasing=False, context="", fills=None):
    """The acceptance rule applied after complete replays, as it was before
    replays stopped early. Returns the equations, the budget diagnostics,
    and the budget diagnostics of calls no leaf rules out. It is an
    independent oracle: it ignores the invocation's solver cache `sat` and
    the path's map of input-field values `fills`, so each replay reads
    fresh values and, like each return-value test, gets a fresh cache."""
    sym_map = inference._sym_id_map(args, post_root)
    own_sat = SatCache()
    equations, diagnostics, unruled = [], [], []
    for oname, positions in call_shapes(index, observer_names, args):
        call_args = [args[i] for i in positions]

        def replay(limits):
            return se(index, oname, [v for _d, v, _t in call_args], limits, alloc,
                      lazy_aliasing, heap=heap, condition=condition, malloced=malloced)

        res = replay(limits)
        if res.budget_error:
            names = ", ".join(d for d, _v, _t in call_args)
            note = (f"{context}: observer run {oname}({names}) exhausted its "
                    f"budget; inconclusive")
            diagnostics.append(note)
            # a pattern budget hides leaves; judge the call on all of them
            if not _ruled_out(replay(Limits(limits.unroll_bound, 10**6, limits.max_steps)), sym_map,
                              own_sat):
                unruled.append(note)
            continue
        if res.error_patterns or res.truncated_paths:
            continue
        leaves = res.final_patterns
        if not leaves:
            continue
        values = [inference._normalize_return(leaf, sym_map, own_sat)
                  for leaf in leaves]
        if any(v is None for v in values):
            continue
        if any(v != values[0] for v in values[1:]):
            continue
        equations.append(Equation(oname, tuple(d for d, _v, _t in call_args),
                                  values[0], any(p.approx for p in leaves)))
    return equations, diagnostics, unruled


# 200 steps cut some replays that no leaf rules out, so the diagnostic
# check has cases; 2000 steps let every non-divergent replay complete; a
# budget of 3 patterns cuts replays with many leaves
@pytest.mark.parametrize("budget", [dict(max_steps=200), dict(max_steps=2000),
                                    dict(max_steps=2000, max_patterns=3)])
@pytest.mark.parametrize("lazy_aliasing", [False, True])
@pytest.mark.parametrize("unroll", [1, 2, 3])
@pytest.mark.parametrize("modifier", ["append", "reverse", "init", "find", "head"])
def test_early_rejection_never_changes_an_equation(
        dll_index, monkeypatch, modifier, unroll, lazy_aliasing, budget):
    """`explain` stops each replay at its first rejecting leaf. On every pre
    and post replay it must give the equations (and `approx` flags) of the
    complete replay, keep the diagnostic of every run whose budget ran out
    with no leaf ruling it out, and add no diagnostic."""
    real_explain = inference.explain
    replays = []
    # the oracle builds its own universe from the invocation's observers
    observer_names = dll_index.observers - {modifier}

    def checked(index, heap, condition, args, limits, alloc, calls,
                *, diagnostics, context, **kw):
        want, want_notes, unruled = _exhaustive_explain(
            index, heap, condition, args, limits, alloc, observer_names,
            context=context, **kw)
        notes = []
        got, hit = real_explain(index, heap, condition, args, limits, alloc,
                                calls, diagnostics=notes,
                                context=context, **kw)
        assert [(e, e.approx) for e in got] == [(e, e.approx) for e in want], context
        assert set(unruled) <= set(notes) <= set(want_notes), context
        assert hit == bool(notes)
        replays.append(context)
        diagnostics.extend(notes)
        return got, hit

    monkeypatch.setattr(inference, "explain", checked)
    # the step budgets keep the complete replays of divergent
    # --lazy-aliasing walks short; each is the same for both rules
    infer_spec(dll_index, modifier, Limits(unroll_bound=unroll, **budget),
               lazy_aliasing=lazy_aliasing)
    assert replays


def test_one_invocation_asks_one_solver_cache(dll_index, branch_index, setter_index,
                                             monkeypatch):
    """`infer_spec` hands one `SatCache` to the modifier run, to every
    replay and to the return-value test. Each answer must equal `check_sat`
    on the conjunction, and no two invocations may share a cache."""
    real_check = SatCache.check
    asked = []  # (cache, base, atom, verdict), current invocation only

    def checked(self, base, atom):
        verdict = real_check(self, base, atom)
        asked.append((self, base, atom, verdict))
        return verdict

    monkeypatch.setattr(SatCache, "check", checked)
    cases = [(dll_index, m) for m in
             ("append", "length", "reverse", "head", "last", "find", "init")]
    cases += [(branch_index, "branch"), (setter_index, "set_val")]
    caches = []  # kept alive, so their ids stay distinct
    for index, modifier in cases:
        for unroll in (1, 2):
            for lazy_aliasing in (False, True):
                asked.clear()
                # the step cap keeps init's divergent --lazy-aliasing run short
                infer_spec(index, modifier,
                           Limits(unroll_bound=unroll, max_steps=2000),
                           lazy_aliasing=lazy_aliasing)
                case = (modifier, unroll, lazy_aliasing)
                assert len({id(c) for c, *_ in asked}) == 1, case
                caches.append(asked[0][0])
                want: dict = {}
                for _c, base, atom, verdict in asked:
                    key = (base, atom)
                    if key not in want:
                        want[key] = check_sat(base | {atom})
                    assert verdict == want[key], (case, base, atom)
    assert len({id(c) for c in caches}) == len(caches)


DLL_MODIFIERS = ("append", "length", "reverse", "head", "last", "find", "init")


def _heap_objects(patterns):
    """(pattern, heap, address, object, copy of its fields) for every
    object in the heap and the entry heap of each pattern."""
    return [(p.provenance_id, name, a, o, dict(o.fields))
            for p in patterns for name in ("heap", "entry_heap")
            for a, o in getattr(p, name).items()]


def _spy_runs(monkeypatch) -> list:
    """The `se` runs `infer_spec` makes, the modifier run first, each as
    (result, its cache, `_heap_objects` of its patterns as it returned)."""
    real_se = inference.se
    runs = []

    def spy(*args, **kwargs):
        res = real_se(*args, **kwargs)
        runs.append((res, kwargs["sat"], _heap_objects(res.patterns)))
        return res

    monkeypatch.setattr(inference, "se", spy)
    return runs


@pytest.mark.parametrize("modifier", DLL_MODIFIERS)
def test_observer_replays_leave_the_modifier_heaps_alone(dll_index, monkeypatch, modifier):
    """Replays start from heaps that share their objects with the
    modifier's terminal patterns, and clones share objects too. Every
    write must store a new object in the writer's own heap: after all
    replays, each heap still holds the very objects it held when the
    modifier run ended, with the same fields."""
    runs = _spy_runs(monkeypatch)
    spec = infer_spec(dll_index, modifier, Limits(unroll_bound=2))
    assert len(runs) > 1  # the modifier run and at least one replay
    # HeapObject compares by identity, so == checks identity and fields
    assert _heap_objects(spec.patterns) == runs[0][2]


def _assert_atoms_are_the_caches_own(res, sat, case):
    for p in res.patterns:
        for a in p.condition:
            assert sat.atom(a.op, a.lhs, a.rhs) is a, (case, p.provenance_id, a)


@pytest.mark.parametrize("modifier", DLL_MODIFIERS)
def test_every_recorded_atom_is_the_caches_own(dll_index, monkeypatch, modifier):
    """Each atom on a terminal pattern's conditions, in the modifier run
    and in every replay, is the object the invocation's cache hands out
    for its (op, lhs, rhs). A path's replays release their atoms when its
    post phase ends, so each run is checked as it returns; the modifier's
    patterns outlive every path's replays, so theirs are checked again at
    the end."""
    real_se = inference.se
    runs = []

    def spy(*args, **kwargs):
        res = real_se(*args, **kwargs)
        _assert_atoms_are_the_caches_own(res, kwargs["sat"], (modifier, len(runs)))
        runs.append((res, kwargs["sat"]))
        return res

    monkeypatch.setattr(inference, "se", spy)
    infer_spec(dll_index, modifier, Limits(unroll_bound=2))
    assert len(runs) > 1
    _assert_atoms_are_the_caches_own(*runs[0], (modifier, "after"))


@pytest.mark.parametrize("lazy_aliasing", (False, True))
@pytest.mark.parametrize("modifier", DLL_MODIFIERS)
def test_a_paths_replays_leave_the_solver_cache_as_they_found_it(dll_index, monkeypatch,
                                                                 modifier, lazy_aliasing):
    """No condition a replay builds outlives its path's pre and post
    `explain` calls, so `infer_spec` releases every atom and closure those
    replays added right after the post call: the cache's tables then hold
    the same keys, in the same order, as before the pre call."""
    real_explain = inference.explain
    real_release = SatCache.release
    phases, released = [], []
    before = {}  # the path whose replays run -> the tables before its pre call

    def tables(sat):
        return list(sat.closures), list(sat.interned)

    def explain(*args, sat, **kwargs):
        path, phase = kwargs["context"].rsplit(" ", 1)
        if phase == "pre":
            assert not before, kwargs["context"]
            before[path] = tables(sat)
        out = real_explain(*args, sat=sat, **kwargs)
        phases.append(kwargs["context"])
        return out

    def release(self, mark):
        real_release(self, mark)
        (path, tables_before), = before.items()
        assert phases[-1] == f"{path} post"
        assert tables(self) == tables_before, path
        before.clear()
        released.append(path)

    monkeypatch.setattr(inference, "explain", explain)
    monkeypatch.setattr(SatCache, "release", release)
    # the step cap keeps init's divergent --lazy-aliasing run short
    infer_spec(dll_index, modifier, Limits(unroll_bound=2, max_steps=2000),
               lazy_aliasing=lazy_aliasing)
    assert released
    assert phases == [f"{path} {phase}" for path in released for phase in ("pre", "post")]


def test_a_paths_replays_read_one_value_per_input_field(corpus_dir, monkeypatch):
    """Every replay of a path, pre and post, reads one value for each field
    of an input object that its starting heap lacks: over the entry heaps
    of all the replays' leaves, each (heap key, field) pair the starting
    heap lacked holds one value per path. The replays leave the modifier's
    patterns (heap, entry heap, condition) as the modifier run returned
    them."""
    real_se, real_explain = inference.se, inference.explain
    path = []  # the context of the path whose replays run; empty: the modifier run
    modifier_runs = []
    values: dict = {}  # (case, path, key, field) -> {value: replays that read it}

    def explain(*args, context, **kwargs):
        path[:] = [context.rsplit(" ", 1)[0]]
        return real_explain(*args, context=context, **kwargs)

    def snapshot(patterns):
        return _heap_objects(patterns), [p.condition for p in patterns]

    def spy(*args, heap=None, **kwargs):
        res = real_se(*args, heap=heap, **kwargs)
        if not path:
            modifier_runs.append(snapshot(res.patterns))
            return res
        start = heap or {}
        run = object()
        for leaf in res.patterns:
            for key, obj in leaf.entry_heap.items():
                had = start[key].fields.keys() if key in start else ()
                for field, v in obj.fields.items():
                    if field not in had:
                        values.setdefault((case, path[0], key, field), {}) \
                            .setdefault(v, set()).add(run)
        return res

    monkeypatch.setattr(inference, "explain", explain)
    monkeypatch.setattr(inference, "se", spy)
    for source in sorted(corpus_dir.glob("*.c")):
        idx = load_program(source.read_text())
        for fname in sorted(idx.functions):
            for unroll in (1, 2):
                for lazy_aliasing in (False, True):
                    case = (source.name, fname, unroll, lazy_aliasing)
                    path.clear()
                    modifier_runs.clear()
                    # the step cap keeps init's divergent --lazy-aliasing run short
                    spec = infer_spec(idx, fname, Limits(unroll_bound=unroll, max_steps=2000),
                                      lazy_aliasing=lazy_aliasing)
                    assert modifier_runs == [snapshot(spec.patterns)], case
    for where, by_value in values.items():
        assert len(by_value) == 1, (where, sorted(map(repr, by_value)))
    # not vacuous: many fields are read by more than one replay
    assert sum(len(runs) > 1 for by_value in values.values()
               for runs in by_value.values()) > 100


@pytest.mark.parametrize("modifier", DLL_MODIFIERS)
def test_one_closure_is_built_from_scratch_per_invocation(dll_index, monkeypatch, modifier):
    """Every closure an invocation needs is an extension of another, so
    `Closure.of` runs at most once, on the empty condition."""
    real_of = Closure.of.__func__
    built = []

    def counted(cls, atoms):
        built.append(atoms)
        return real_of(cls, atoms)

    monkeypatch.setattr(Closure, "of", classmethod(counted))
    infer_spec(dll_index, modifier, Limits(unroll_bound=2))
    assert built == [frozenset()]


@pytest.mark.parametrize("unroll, limit_kib", [(8, 1024), (12, 1536)])
def test_memory_per_invocation(dll_index, unroll, limit_kib):
    """The replays of each path release their solver-cache entries, so an
    invocation's traced peak stays near that of one path's replays.
    Keeping every replay phase's entries to the end read 2.0 and 4.8 MiB
    here (CPython 3.11)."""
    tracemalloc.start()
    try:
        infer_spec(dll_index, "find", Limits(unroll_bound=unroll))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_kib * 1024, f"{peak / 1024:.0f} KiB"


def test_a_cache_builds_the_empty_closure_before_any_replay_phase(monkeypatch):
    """A modifier that records no atom leaves the empty condition to its
    replays. Its closure is built with the cache, not among a path's
    replays that would release it, so `Closure.of` still runs once."""
    real_of = Closure.of.__func__
    built = []

    def counted(cls, atoms):
        built.append(atoms)
        return real_of(cls, atoms)

    monkeypatch.setattr(Closure, "of", classmethod(counted))
    index = load_program("int pos(int y) { if (y > 0) return 1; return 0; }\n"
                         "int f(int x) { return x; }\n")
    spec = infer_spec(index, "f", Limits())
    assert [p.condition for p in spec.patterns] == [frozenset()]
    assert built == [frozenset()]


def test_one_normalization_per_integer_extension(monkeypatch):
    """A closure keeps the normal form of each integer atom, so extending
    it by an integer atom normalizes that atom alone."""
    real_norm = constraints._norm_int_atom
    real_extended = Closure.extended
    normalized, int_extensions = [], []

    def norm(a):
        normalized.append(a)
        return real_norm(a)

    def extended(self, atom):
        if constraints._is_int_atom(atom):
            int_extensions.append(atom)
        return real_extended(self, atom)

    monkeypatch.setattr(constraints, "_norm_int_atom", norm)
    monkeypatch.setattr(Closure, "extended", extended)
    index = load_program(
        "struct N { int v; struct N* next; };\n"
        "int sum(struct N* n) { if (n == NULL) return 0; return n->v + sum(n->next); }\n")
    infer_spec(index, "sum", Limits(unroll_bound=8))
    assert len(normalized) == len(int_extensions) == 36


def test_frames_are_built_once_per_program(dll_src, monkeypatch):
    """The first engine built for a program builds its frames. The other
    runs of the invocation (the replays) and a second invocation over the
    same program reuse them."""
    real_build = engine._build_frames
    built = []

    def counted(index):
        built.append(index)
        real_build(index)

    monkeypatch.setattr(engine, "_build_frames", counted)
    runs = _spy_runs(monkeypatch)
    index = load_program(dll_src)
    infer_spec(index, "append", Limits(unroll_bound=2))
    assert len(runs) > 1  # the modifier run and at least one replay
    assert built == [index]
    infer_spec(index, "find", Limits(unroll_bound=2))
    assert built == [index]


def test_unknown_modifier_and_observer_names(dll_index, setter_index):
    with pytest.raises(UnknownFunction):
        infer_spec(dll_index, "nope")
    with pytest.raises(UnknownFunction):
        infer_spec(dll_index, "append", observers_override=["nope"])
    with pytest.raises(NotAnObserver):
        infer_spec(setter_index, "set_val", observers_override=["set_val"])


PICK_SRC = """
struct Node { int v; struct Node* nxt; };
struct Node* pick(struct Node* a, struct Node* b) { b->v = 2; a->v = 1; return a; }
int getv(struct Node* n) { return n->v; }
"""


F_SRC = """
struct N { int v; struct N* next; };
int getv(struct N* n) { return n->v; }
int f(struct N* a, int x) { if (x > 0) { a->v = 1; } else { a->v = 2; } return 0; }
"""


def test_lazy_aliasing_never_gives_one_observer_call_two_values():
    """No axiom's post gives one call two values. The aliased and the
    separate world of `pick` share the premise `true`, as do the two
    branches of `f` (no observer sees `x`); their posts stay apart."""
    specs = [infer_spec(load_program(PICK_SRC), "pick", lazy_aliasing=True),
             infer_spec(load_program(F_SRC), "f")]
    for spec in specs:
        for ax in spec.axioms:
            rhs = {}
            for e in ax.post:
                assert rhs.setdefault((e.observer, e.args), e.rhs) == e.rhs, e.render()


@pytest.mark.xfail(strict=True, reason=(
    "premises are only the observer equations on the pre-state; when they "
    "do not separate two paths, both axioms claim their posts on the same "
    "inputs (the separation check of ROADMAP item 4)"))
@pytest.mark.parametrize("src, fn, lazy_aliasing", [
    ((pathlib.Path(__file__).parent / "corpus" / "branch.c").read_text(), "branch", False),
    (F_SRC, "f", False),
    (PICK_SRC, "pick", True),
], ids=["branch", "f", "pick-lazy-aliasing"])
def test_axioms_with_equal_premises_agree_on_every_call(src, fn, lazy_aliasing):
    """No two printed axioms with equal premises give one observer call,
    or `ret`, different values."""
    spec = infer_spec(load_program(src), fn, lazy_aliasing=lazy_aliasing)
    for i, a in enumerate(spec.axioms):
        for b in spec.axioms[i + 1:]:
            if set(a.pre) != set(b.pre):
                continue
            values = {(e.observer, e.args): e.rhs for e in a.post + (a.ret,) if e is not None}
            for e in b.post + (b.ret,):
                if e is not None:
                    assert values.get((e.observer, e.args), e.rhs) == e.rhs, \
                        (a.provenance, b.provenance, e.render())


TOUCH_NEXT_SRC = """
struct N { int v; struct N* next; };
int getv(struct N* n) { return n->v; }
int touch(struct N* a) {
  if (a->next != NULL) { a->next->v = 1; a->v = 2; return a->next->v; }
  return 0;
}
"""


@pytest.mark.xfail(strict=True, reason=(
    "alias worlds are forked only where the NULL test splits at the "
    "dereference; `a->next` is decided non-null by the comparison before "
    "it, so `a->next == a` is never considered"))
def test_lazy_aliasing_forks_a_pointer_decided_non_null_earlier():
    idx = load_program(TOUCH_NEXT_SRC)
    a = CAddr(1)
    got, _heap = concrete_run(idx, "touch", {a: CObject("N", {"v": 0, "next": a})}, [a])
    assert got == 2  # a one-node cyclic list
    spec = infer_spec(idx, "touch", lazy_aliasing=True)
    assert Equation(RET, (), Rhs("int", got)) in [ax.ret for ax in spec.axioms]


def test_an_int_tested_for_truth_is_compared_with_zero():
    # `if (x)` must decide the same atom as `if (x != 0)`; comparing an int
    # with NULL is a sort error the solver answers Unknown
    idx = load_program("int f(int x) { if (x) return 1; return 0; }\n"
                       "int g(int x) { if (x != 0) return 1; return 0; }\n")
    spec = infer_spec(idx, "f")
    assert [render_constraint(p.path_condition) for p in spec.patterns] == \
        ["?x != 0", "?x = 0"]
    assert not any(ax.approx for ax in spec.axioms)
    assert _shape(spec) == {
        _triple({"g(x) = 1"}, {"g(x) = 1"}, "ret = 1"),
        _triple({"g(x) = 0"}, {"g(x) = 0"}, "ret = 0"),
    }


def test_observers_override_narrows_the_universe(dll_index):
    spec = infer_spec(dll_index, "append", Limits(unroll_bound=1),
                      observers_override=["length"])
    assert _shape(spec) == {
        _triple({"length(list) = 2"}, {"length(list') = 3"}, "ret = list'"),
        _triple({"length(list) = 1"}, {"length(list') = 2"}, "ret = list'"),
        _triple({"length(list) = 0"}, {"length(list') = 1"}, "ret = list'"),
    }


# ---------------------------------------------------------------- malloc

MALLOC_SRC = (
    "struct N { int v; struct N* next; };\n"
    "int getv(struct N* n) { return n->v; }\n"
    "int fresh(struct N* a) { struct N* m; m = malloc(sizeof(struct N));\n"
    "  m->next = a; return m->v; }\n"
    "struct N* push(struct N* a) { struct N* m; m = malloc(sizeof(struct N));\n"
    "  m->next = a; return m; }\n"
    "int link(struct N* a, struct N* b) { struct N* m; m = malloc(sizeof(struct N));\n"
    "  m->next = a; m->v = 1; a->next = b; return b->v; }\n")
UNINIT_V = "read of uninitialized field 'v'"


def test_a_field_malloc_never_set_is_an_error_not_an_input():
    spec = infer_spec(load_program(MALLOC_SRC), "fresh", observers_override=["getv"])
    assert spec.patterns and spec.stats["finalPatterns"] == 0
    assert {p.error_reason for p in spec.patterns} == {UNINIT_V}
    assert spec.axioms == []


def test_a_returned_malloc_gets_no_observation_of_its_unset_field(monkeypatch):
    runs = _spy_runs(monkeypatch)
    spec = infer_spec(load_program(MALLOC_SRC), "push", observers_override=["getv"])
    assert _shape(spec) == {_triple(set(), set(), "ret = a'")}
    # the getv(a') replay reads the malloc'd object and stops there
    assert any(p.error_reason == UNINIT_V for res, _sat, _objs in runs[1:]
               for p in res.patterns)


def test_lazy_aliasing_never_aliases_an_input_with_a_malloc(monkeypatch):
    runs = _spy_runs(monkeypatch)
    infer_spec(load_program(MALLOC_SRC), "link", observers_override=["getv"],
               lazy_aliasing=True)
    aliased = [(p, cand) for res, _sat, _objs in runs for p in res.patterns
               for cand in p.aliases.values()]
    assert aliased  # `b` may be `a`, so the check below is not vacuous
    assert all(cand not in p.malloced for p, cand in aliased)


FRESH_SRC = """
struct N { int v; struct N* next; };
int getv(struct N* a) { return a->v; }
int mnext(struct N* a) { struct N* m; m = (struct N*) malloc(sizeof(struct N));
  m->v = 0; if (a->next == m) return 1; return 0; }
int margs(struct N* a, struct N* b) { struct N* m; m = (struct N*) malloc(sizeof(struct N));
  m->next = NULL; if (b == m) return 1; if (a == m) return 2; return 0; }
int same(struct N* a, struct N* b) { a->v = 1; b->v = 2; if (a == b) return a->v; return 0; }
"""


@pytest.mark.parametrize("lazy_aliasing", [False, True])
@pytest.mark.parametrize("fn", ["mnext", "margs"])
def test_fresh_storage_is_no_input_pointer(fn, lazy_aliasing):
    """No input pointer can point to malloc'd storage, whether or not it
    is a heap key yet, so every comparison with it is false and every
    axiom returns 0."""
    for unroll in (1, 2):
        spec = infer_spec(load_program(FRESH_SRC), fn, Limits(unroll_bound=unroll),
                          lazy_aliasing=lazy_aliasing)
        assert spec.axioms
        assert {ax.ret.render() for ax in spec.axioms} == {"ret = 0"}, unroll


@pytest.mark.xfail(strict=True, reason=(
    "without --lazy-aliasing the engine splits on `a = b` but keeps two "
    "objects, so the equal side reads the `v` written through `a`; whether "
    "two input heap keys differ is the non-aliasing contract's decision "
    "(ROADMAP items 6 and 14)"))
def test_two_input_objects_compared_equal_are_one_object():
    """No axiom of `same` claims `ret = 1` without aliasing: a concrete
    run returns 2 when `a == b` and 0 otherwise."""
    idx = load_program(FRESH_SRC)
    a, b = CAddr(1), CAddr(2)
    one = {a: CObject("N", {"v": 0, "next": None})}
    assert concrete_run(idx, "same", one, [a, a])[0] == 2
    two = {**one, b: CObject("N", {"v": 0, "next": None})}
    assert concrete_run(idx, "same", two, [a, b])[0] == 0
    spec = infer_spec(idx, "same", observers_override=["getv"])
    assert "ret = 1" not in {ax.ret.render() for ax in spec.axioms}


def _concrete_rhs(rhs, binding):
    """The concrete value an equation's right-hand side names."""
    if rhs.kind == "int":
        return rhs.value
    if rhs.kind == "null":
        return None
    return binding[rhs.value]


@pytest.mark.xfail(strict=True, reason=(
    "premises are only the observer equations on the pre-state; `true` "
    "does not separate the path that puts `k` in front from the path that "
    "walks past the first key, so `min(l') = k` is claimed for both "
    "(ROADMAP item 4)"))
def test_the_true_premise_axioms_of_insert_hold_on_a_one_key_list(corpus_dir):
    """Inserting 5 into the list [1] returns [1, 5]. Every conclusion of
    each axiom of `insert` at bound 1 whose premise is `true` must hold
    there, with `l'` the returned list."""
    idx = load_program((corpus_dir / "sorted.c").read_text())
    l = CAddr(1)
    ret, post = concrete_run(idx, "insert", {l: CObject("S", {"key": 1, "next": None})},
                             [l, 5])
    assert ret == l and concrete_run(idx, "size", post, [l])[0] == 2
    binding = {"l": l, "k": 5, "l'": ret}
    spec = infer_spec(idx, "insert", Limits(unroll_bound=1))
    axioms = [ax for ax in spec.axioms if not ax.pre]
    assert axioms
    for ax in axioms:
        for e in ax.post:
            got, _heap = concrete_run(idx, e.observer, post, [binding[a] for a in e.args])
            assert got == _concrete_rhs(e.rhs, binding), (ax.provenance, e.render())
        if ax.ret is not None:
            assert ret == _concrete_rhs(ax.ret.rhs, binding), (ax.provenance, ax.ret.render())


ALIAS_REPLAY_SRC = """
struct N { int v; struct N* next; };
int g(struct N* a) { a->next->v = 1; return a->v; }
int f(struct N* a) { a->next->v = 5; a->v = 7; return 0; }
"""


@pytest.mark.xfail(strict=True, reason=(
    "`explain` starts each replay from the path's heap, condition and "
    "malloc'd objects but not its alias decisions, so a replay that "
    "reaches an aliased address builds a second object for it (ROADMAP "
    "item 5, step 2)"))
def test_a_replay_keeps_its_paths_alias_decisions():
    """On the path where `a->next` is `a`, `f` leaves the one-node cyclic
    list, and `g` on it writes 1 through `a->next` before it reads
    `a->v`, so the axiom of that path states `g(a') = 1`."""
    idx = load_program(ALIAS_REPLAY_SRC)
    a = CAddr(1)
    _got, heap = concrete_run(idx, "f", {a: CObject("N", {"v": 0, "next": a})}, [a])
    assert concrete_run(idx, "g", heap, [a])[0] == 1
    spec = infer_spec(idx, "f", observers_override=["g"], lazy_aliasing=True)
    [aliased] = [p for p in spec.patterns if p.status == "final" and p.aliases]
    [ax] = [ax for ax in spec.axioms
            if aliased.provenance_id in ax.provenance.split("+")]
    assert Equation("g", ("a'",), Rhs("int", 1)) in ax.post, [e.render() for e in ax.post]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
