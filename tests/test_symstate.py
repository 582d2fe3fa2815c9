"""Symbolic state model: values, heap, allocator, frames and patterns."""
import dataclasses

import pytest

from specminer.constraints import (
    EQ, NEQ, NULL, Atom, IntConst, SymAddrRef, SymDataRef, SymIntRef)
from specminer.frontend import nodes as N
from specminer.symstate import (
    Allocator,
    HeapObject,
    UNDEF,
    fresh_value,
    render_pattern,
    render_tv,
    render_value,
)


def test_render_typed_values():
    assert render_tv(IntConst(1)) == "tv(int, 1)"
    alloc = Allocator()
    assert render_tv(fresh_value(alloc, N.VOIDPTR, "d")) == "tv(void*, ?d)"
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


def test_bind_frame_binds_params_and_locals(dll_index, entry_pattern):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    d = fresh_value(alloc, N.VOIDPTR, "d")
    p = entry_pattern(dll_index, "append", [root, d])
    assert sorted(p.env) == ["d", "final", "list", "new_node"]
    assert p.env["list"] is root and p.env["d"] is d
    assert p.env["final"] is UNDEF
    assert p.status == "running"
    # a variable is no heap object: binding a frame allocates nothing
    assert p.heap == {}
    assert alloc.fresh_addr("x").sid == d.sid + 1


def test_clone_isolates_heap_env_and_conditions(dll_index, entry_pattern):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    obj = HeapObject("List", {"data": NULL})
    p = entry_pattern(dll_index, "length", [root], heap={root: obj})
    q = p.clone()
    # the clones share the object; a field write replaces it in q's heap
    q.heap[root] = q.heap[root].with_field("data", IntConst(9))
    # and they share the env, which an assignment replaces
    assert q.env is p.env
    q.env = {**q.env, "len": IntConst(3)}
    assert p.heap[root].fields["data"] is NULL
    assert p.env["len"] is UNDEF
    # the written object is still an input object, which drives field
    # materialization
    assert root not in q.malloced


def test_typed_values_are_frozen():
    alloc = Allocator()
    for obj, name in ((alloc.fresh_addr("x"), "sid"), (alloc.fresh_int("n"), "sid"),
                      (fresh_value(alloc, N.VOIDPTR, "d"), "display"), (IntConst(1), "value")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)


def _union(p):
    """The two displayed cells."""
    return p.path_condition | p.mem_path_condition


def test_stored_conjunction_follows_every_cell(dll_index, entry_pattern):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    n = alloc.fresh_int("n")
    p = entry_pattern(dll_index, "length", [root],
                      condition=frozenset({Atom(EQ, n, IntConst(1))}))
    assert p.condition == _union(p) and p.condition
    q = p.clone()
    assert q.condition == _union(q) == _union(p)
    q.add_path_atom(Atom(NEQ, n, IntConst(0)))
    assert q.condition == _union(q)
    q.add_mem_atom(Atom(NEQ, root, NULL))
    assert q.condition == _union(q)
    # an atom already in the conjunction through another cell
    q.add_path_atom(Atom(NEQ, root, NULL))
    assert q.condition == _union(q)
    assert len(q.condition) == 3
    # the clone's updates leave the original alone
    assert p.condition == _union(p)
    assert len(p.condition) == 1


def test_render_pattern_shape(dll_index, entry_pattern):
    alloc = Allocator()
    root = alloc.fresh_addr("list")
    p = entry_pattern(dll_index, "length", [root])
    dump = render_pattern(p)
    assert "<env> list |-> list </env>" in dump
    assert "<env> len |-> undef </env>" in dump
    assert "<cond> true </cond>" in dump
    assert "<memcond> true </memcond>" in dump


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
