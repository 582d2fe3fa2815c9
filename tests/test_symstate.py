"""Symbolic state model: values, heap, allocator, call patterns."""
import dataclasses

import pytest

from specminer.constraints import (
    EQ, NEQ, NULL, Atom, IntConst, SymAddrRef, conjoin, constraint)
from specminer.frontend import nodes as N
from specminer.symstate import (
    Addr,
    Allocator,
    ArityMismatch,
    CallPattern,
    HeapObject,
    NULL_ADDR,
    TypedValue,
    UNDEF,
    make_call_pattern,
    render_pattern,
    render_tv,
    render_value,
)


def test_render_typed_values():
    assert render_tv(TypedValue(N.INT, 1)) == "tv(int, 1)"
    alloc = Allocator()
    assert render_tv(TypedValue(N.VOIDPTR, alloc.fresh_data("d"))) == "tv(void*, ?d)"
    assert render_value(NULL_ADDR) == "NULL"
    assert render_value(UNDEF) == "undef"


def test_render_address_uses_arrow_for_path_names():
    alloc = Allocator()
    a = alloc.fresh_addr("list.next")
    assert render_value(Addr(a)) == "list->next"


def test_allocator_is_monotone_and_label_scoped():
    alloc = Allocator()
    a = alloc.fresh_addr("x")
    b = alloc.fresh_addr("x")
    i = alloc.fresh_int("n")
    assert a.sid < b.sid < i.sid
    assert a != b  # same display, distinct identity
    # an address is a condition term as it is
    assert isinstance(a, SymAddrRef)
    assert Atom(NEQ, a, NULL) == Atom(NEQ, SymAddrRef(a.sid, "x"), NULL)
    labeled = Allocator("run1").fresh_addr("x")
    assert labeled.display == "run1:x"


def test_make_call_pattern_binds_params_and_locals(dll_index):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    cp = CallPattern("append", [Addr(root), TypedValue(N.VOIDPTR, alloc.fresh_data("d"))])
    p = make_call_pattern(dll_index, cp, alloc)
    assert sorted(p.env) == ["d", "final", "list", "new_node"]
    assert p.heap[p.env["list"]] == Addr(root)
    assert p.heap[p.env["final"]] is UNDEF
    assert p.status == "running"


def test_make_call_pattern_checks_arity(dll_index):
    with pytest.raises(ArityMismatch):
        make_call_pattern(dll_index, CallPattern("append", []), Allocator())


def test_clone_isolates_heap_env_and_conditions(dll_index):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    obj = HeapObject("List", {"data": NULL_ADDR}, lazy=True)
    cp = CallPattern("length", [Addr(root)], initial_heap={root: obj})
    p = make_call_pattern(dll_index, cp, alloc)
    q = p.clone()
    q.heap[root].fields["data"] = TypedValue(N.INT, 9)
    q.heap[q.env["len"]] = TypedValue(N.INT, 3)
    assert p.heap[root].fields["data"] is NULL_ADDR
    assert p.heap[p.env["len"]] is UNDEF
    # lazy flag must survive copying — it drives field materialization
    assert q.heap[root].lazy


def test_typed_values_are_frozen():
    for obj, name in ((Addr(Allocator().fresh_addr("x")), "target"),
                      (TypedValue(N.INT, 1), "payload")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


def _union(p):
    return conjoin(conjoin(p.path_condition, p.mem_path_condition), p.alloc_condition)


def test_stored_conjunction_follows_every_cell(dll_index):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    n = alloc.fresh_int("n")
    cp = CallPattern("length", [Addr(root)],
                     initial_constraint=constraint(Atom(EQ, n, IntConst(1))))
    p = make_call_pattern(dll_index, cp, alloc)
    assert p.combined_condition() == _union(p) and not p.combined_condition().is_true
    q = p.clone()
    assert q.combined_condition() == _union(q) == _union(p)
    q.add_path_atom(Atom(NEQ, n, IntConst(0)))
    assert q.combined_condition() == _union(q)
    q.add_mem_atom(Atom(NEQ, root, NULL))
    assert q.combined_condition() == _union(q)
    q.add_alloc_atom(Atom(NEQ, alloc.fresh_addr("m"), NULL))
    assert q.combined_condition() == _union(q)
    # an atom already in the conjunction through another cell
    q.add_path_atom(Atom(NEQ, root, NULL))
    assert q.combined_condition() == _union(q)
    assert len(q.combined_condition().atoms) == 4
    # the clone's updates leave the original alone
    assert p.combined_condition() == _union(p)
    assert len(p.combined_condition().atoms) == 1


def test_render_pattern_shape(dll_index):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    cp = CallPattern("length", [Addr(root)])
    p = make_call_pattern(dll_index, cp, alloc)
    dump = render_pattern(p)
    assert "<env> list |-> list </env>" in dump
    assert "<cond> true </cond>" in dump
    assert "<memcond> true </memcond>" in dump


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
