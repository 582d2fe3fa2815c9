"""Symbolic state model: values, heap, allocator, call patterns."""
import dataclasses

import pytest

from specminer.constraints import (
    EQ, NEQ, NULL, Atom, IntConst, SymAddrRef, SymDataRef, SymIntRef, conjoin, constraint)
from specminer.frontend import nodes as N
from specminer.symstate import (
    Allocator,
    ArityMismatch,
    CallPattern,
    HeapObject,
    UNDEF,
    fresh_value,
    make_call_pattern,
    render_pattern,
    render_tv,
    render_value,
)


def test_render_typed_values():
    assert render_tv(IntConst(1)) == "tv(int, 1)"
    alloc = Allocator()
    assert render_tv(alloc.fresh_data("d")) == "tv(void*, ?d)"
    assert render_value(NULL) == "NULL"
    assert render_value(UNDEF) == "undef"


def test_fresh_values_are_symbols_of_their_c_kind():
    alloc = Allocator()
    for ctype, cls in ((N.INT, SymIntRef), (N.VOIDPTR, SymDataRef),
                       (N.structptr("List"), SymAddrRef)):
        v = fresh_value(alloc, ctype, "v")
        assert type(v) is cls and v.display == "v"


def test_render_address_uses_arrow_for_path_names():
    alloc = Allocator()
    a = alloc.fresh_addr("list.next")
    assert render_value(a) == "list->next"


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
    cp = CallPattern("append", [root, alloc.fresh_data("d")])
    p = make_call_pattern(dll_index, cp, alloc)
    assert sorted(p.env) == ["d", "final", "list", "new_node"]
    assert p.heap[p.env["list"]] == root
    assert p.heap[p.env["final"]] is UNDEF
    assert p.status == "running"


def test_make_call_pattern_checks_arity(dll_index):
    with pytest.raises(ArityMismatch):
        make_call_pattern(dll_index, CallPattern("append", []), Allocator())


def test_clone_isolates_heap_env_and_conditions(dll_index):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    obj = HeapObject("List", {"data": NULL}, lazy=True)
    cp = CallPattern("length", [root], initial_heap={root: obj})
    p = make_call_pattern(dll_index, cp, alloc)
    q = p.clone()
    q.heap[root].fields["data"] = IntConst(9)
    q.heap[q.env["len"]] = IntConst(3)
    assert p.heap[root].fields["data"] is NULL
    assert p.heap[p.env["len"]] is UNDEF
    # lazy flag must survive copying — it drives field materialization
    assert q.heap[root].lazy


def test_typed_values_are_frozen():
    alloc = Allocator()
    for obj, name in ((alloc.fresh_addr("x"), "sid"), (alloc.fresh_int("n"), "sid"),
                      (alloc.fresh_data("d"), "display"), (IntConst(1), "value")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


def _union(p, *alloc_atoms):
    """The two displayed cells plus the distinctness facts `alloc_atoms`."""
    return conjoin(conjoin(p.path_condition, p.mem_path_condition), constraint(*alloc_atoms))


def test_stored_conjunction_follows_every_cell(dll_index):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    n = alloc.fresh_int("n")
    cp = CallPattern("length", [root],
                     initial_constraint=constraint(Atom(EQ, n, IntConst(1))))
    p = make_call_pattern(dll_index, cp, alloc)
    assert p.condition == _union(p) and not p.condition.is_true
    q = p.clone()
    assert q.condition == _union(q) == _union(p)
    q.add_path_atom(Atom(NEQ, n, IntConst(0)))
    assert q.condition == _union(q)
    q.add_mem_atom(Atom(NEQ, root, NULL))
    assert q.condition == _union(q)
    fresh = Atom(NEQ, alloc.fresh_addr("m"), NULL)
    q.add_alloc_atom(fresh)
    assert q.condition == _union(q, fresh)
    # a distinctness fact stays out of both displayed cells
    assert fresh not in _union(q).atoms
    # an atom already in the conjunction through another cell
    q.add_path_atom(Atom(NEQ, root, NULL))
    assert q.condition == _union(q, fresh)
    assert len(q.condition.atoms) == 4
    # the clone's updates leave the original alone
    assert p.condition == _union(p)
    assert len(p.condition.atoms) == 1


def test_render_pattern_shape(dll_index):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    cp = CallPattern("length", [root])
    p = make_call_pattern(dll_index, cp, alloc)
    dump = render_pattern(p)
    assert "<env> list |-> list </env>" in dump
    assert "<cond> true </cond>" in dump
    assert "<memcond> true </memcond>" in dump


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
