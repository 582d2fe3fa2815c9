"""Acceptance gate: eight checks, one PASS/FAIL line each.

Lines are written to the real stdout so they survive pytest's capture and
show up in piped logs. Each check re-derives its expectation from first
principles (hand-counts, the concrete interpreter, brute-force model
search, subprocess byte comparison) rather than trusting the module under
test.
"""
import itertools
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

from specminer.concrete import (
    NonTermination,
    NullDeref,
    UndefRead,
    all_dlls,
    concrete_run,
)
from specminer.constraints import (
    EQ, GE, GT, LE, LT, NEQ,
    Atom, FieldPath, IntConst, NullRef, SatResult, SymAddrRef, SymIntRef,
    check_sat,
)
from specminer.engine import Limits, se
from specminer.frontend import load_program
from specminer.frontend.nodes import VOIDPTR
from specminer.inference import RET, infer_spec
from specminer.modelsearch import find_model
from specminer.symstate import Allocator, fresh_value, render_tv
from specminer.constraints import render_constraint

CORPUS = pathlib.Path(__file__).parent / "corpus"
TOKENS = ["t0", "t1", "t2"]


def _line(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)


def _append_args(alloc):
    return [alloc.fresh_addr("list"), fresh_value(alloc, VOIDPTR, "d")]


# ------------------------------------------------------------ criterion 1

def test_criterion_1_append_path_count(dll_index, capsys):
    t0 = time.perf_counter()
    alloc = Allocator()
    res = se(dll_index, "append", _append_args(alloc), Limits(unroll_bound=1), alloc)
    dt = time.perf_counter() - t0
    ok = (len(res.final_patterns) == 3
          and len(res.error_patterns) == 0
          and dt < 5.0)
    _line(capsys, 1, ok, f"append@1: {len(res.final_patterns)} final / "
                 f"{len(res.error_patterns)} error patterns in {dt:.3f}s")
    assert ok


# ------------------------------------------------------------ criterion 2

def test_criterion_2_append_axioms(dll_index, capsys):
    t0 = time.perf_counter()
    spec = infer_spec(dll_index, "append", Limits(unroll_bound=1))
    dt = time.perf_counter() - t0

    problems = []
    if len(spec.axioms) != 3:
        problems.append(f"expected 3 axioms, got {len(spec.axioms)}")

    by_len = {}
    for ax in spec.axioms:
        pre = {e.render() for e in ax.pre}
        post = {e.render() for e in ax.post}
        for k in (0, 1, 2):
            if f"length(list) = {k}" in pre:
                by_len[k] = (pre, post, ax.ret.render() if ax.ret else None)
    for k in (0, 1, 2):
        if k not in by_len:
            problems.append(f"no axiom with length(list) = {k} in its pre")
            continue
        pre, post, ret = by_len[k]
        if f"length(list') = {k + 1}" not in post:
            problems.append(f"len-{k} axiom lacks length(list') = {k + 1}")
        if "find(list', d) = 1" not in post:
            problems.append(f"len-{k} axiom lacks find(list', d) = 1")
        if "last(list') = d" not in post:
            problems.append(f"len-{k} axiom lacks last(list') = d")
        if ret != "ret = list'":
            problems.append(f"len-{k} axiom ret is {ret!r}")
    if 0 in by_len:
        want = {"reverse(list) = NULL", "find(list, d) = 0", "init(list) = NULL"}
        missing = want - by_len[0][0]
        if missing:
            problems.append(f"empty-list pre lacks {sorted(missing)}")
    if dt >= 30.0:
        problems.append(f"took {dt:.1f}s")

    ok = not problems
    _line(capsys, 2, ok, f"append@1 axiom contents in {dt:.3f}s"
                 + ("" if ok else f": {'; '.join(problems)}"))
    assert ok, problems


# ------------------------------------------------------------ criterion 3

def test_criterion_3_branch_patterns(branch_index, capsys):
    alloc = Allocator()
    res = se(branch_index, "branch", [alloc.fresh_int("x"), alloc.fresh_int("y")],
             Limits(), alloc)
    got = [(render_tv(p.return_value), render_constraint(p.path_condition))
           for p in res.final_patterns]
    want = [("tv(int, 1)", "?x > ?y"), ("tv(int, 0)", "?x <= ?y")]
    ok = got == want and len(res.patterns) == 2
    _line(capsys, 3, ok, f"branch patterns {got}")
    assert ok, got


# ------------------------------------------------------------ criterion 4

def _rhs_value(rhs, binding):
    kind = rhs.to_json()["kind"]
    if kind == "int":
        return rhs.value
    if kind == "null":
        return None
    if kind in ("arg", "postRoot"):
        return binding[rhs.value]
    raise AssertionError(f"unexpected rhs {rhs!r}")


def _eq_holds(idx, eq, heap, binding):
    """Evaluate one equation on a concrete heap; a crash means it does not
    hold (the observation has no value)."""
    if eq.observer == RET:
        return binding["__ret__"] == _rhs_value(eq.rhs, binding)
    try:
        got, _h = concrete_run(idx, eq.observer,
                               heap, [binding[a] for a in eq.args])
    except (NullDeref, UndefRead, NonTermination):
        return False
    return got == _rhs_value(eq.rhs, binding)


def test_criterion_4_soundness_sweep(dll_index, capsys):
    t0 = time.perf_counter()
    violations = []
    hits = 0
    worlds = all_dlls(3, TOKENS)
    for modifier in ("append", "init", "reverse"):
        d_pool = TOKENS + ["t9"] if modifier == "append" else [None]
        for bound in (1, 2):
            spec = infer_spec(dll_index, modifier, Limits(unroll_bound=bound))
            axioms = [ax for ax in spec.axioms if not ax.approx]
            for ax, (head, heap), d in itertools.product(axioms, worlds, d_pool):
                binding = {"list": head}
                if modifier == "append":
                    binding["d"] = d
                if not all(_eq_holds(dll_index, e, heap, binding) for e in ax.pre):
                    continue
                hits += 1
                args = [head, d] if modifier == "append" else [head]
                where = (modifier, bound, ax.provenance, len(_walk(head, heap)), d)
                try:
                    ret, post_heap = concrete_run(dll_index, modifier, heap, args)
                except (NullDeref, UndefRead, NonTermination) as e:
                    violations.append((*where, f"modifier crashed: {e!r}"))
                    continue
                binding["list'"] = ret
                binding["__ret__"] = ret
                for e in list(ax.post) + ([ax.ret] if ax.ret else []):
                    if not _eq_holds(dll_index, e, post_heap, binding):
                        violations.append((*where, e.render()))
    dt = time.perf_counter() - t0
    ok = not violations and hits > 0 and dt < 120.0
    _line(capsys, 4, ok, f"{hits} matched axiom instances over {len(worlds)} lists, "
                 f"{len(violations)} violations in {dt:.1f}s")
    assert ok, violations[:10]


def _walk(head, heap):
    out = []
    while head is not None:
        out.append(heap[head].fields["data"])
        head = heap[head].fields["next"]
    return out


# ------------------------------------------------------------ criterion 5

def test_criterion_5_pattern_census_scales(dll_index, capsys):
    got = {}
    for n in (1, 2, 3):
        alloc = Allocator()
        res = se(dll_index, "append", _append_args(alloc), Limits(unroll_bound=n), alloc)
        got[n] = len(res.final_patterns)
    ok = all(got[n] == n + 2 for n in (1, 2, 3))
    _line(capsys, 5, ok, f"append final patterns by unroll: {got} (want N+2)")
    assert ok, got


# ------------------------------------------------------------ criterion 6

def test_criterion_6_no_false_unsat(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20260816)
    ints = [SymIntRef(i, n) for i, n in enumerate(("x", "y", "z"))]
    addrs = [SymAddrRef(100 + i, f"q{i}") for i in range(4)]

    def random_conjunction():
        atoms = []
        for _ in range(rng.randrange(3, 8)):
            if rng.random() < 0.5:
                op = rng.choice([EQ, NEQ, LT, LE, GT, GE])
                lhs = rng.choice(ints)
                rhs = rng.choice(ints + [IntConst(rng.randrange(-3, 4))])
                atoms.append(Atom(op, lhs, rhs))
            else:
                op = rng.choice([EQ, NEQ])
                base = rng.choice(addrs)
                lhs = FieldPath(base, ("next",)) if rng.random() < 0.3 else base
                atoms.append(Atom(op, lhs, rng.choice(addrs + [NullRef()])))
        return frozenset(atoms)

    false_unsat = []
    unsat_count = 0
    for i in range(200):
        c = random_conjunction()
        verdict = check_sat(c)
        if verdict != SatResult.UNSAT:
            continue
        unsat_count += 1
        if find_model(c, addr_pool=4) is not None:
            false_unsat.append(c)
    dt = time.perf_counter() - t0
    ok = not false_unsat and dt < 30.0 and unsat_count > 0
    _line(capsys, 6, ok, f"200 conjunctions, {unsat_count} UNSAT verdicts, "
                 f"{len(false_unsat)} refuted by brute force in {dt:.1f}s")
    assert ok, false_unsat[:3]


# ------------------------------------------------------------ criterion 7

def test_criterion_7_guard_splits_mutually_unsat(capsys):
    bad = []
    total = 0
    for path in ("dll.c", "branch.c", "setter.c", "sorted.c"):
        idx = load_program((CORPUS / path).read_text())
        for fn in sorted(idx.functions):
            spec = infer_spec(idx, fn, Limits(unroll_bound=1))
            for left, right in spec.split_log:
                total += 1
                if check_sat(left | right) != SatResult.UNSAT:
                    bad.append((path, fn, render_constraint(left),
                                render_constraint(right)))
    ok = not bad and total > 0
    _line(capsys, 7, ok, f"{total} recorded guard splits, {len(bad)} overlapping")
    assert ok, bad


# ------------------------------------------------------------ criterion 8

def test_criterion_8_byte_identical_runs(capsys):
    def full_corpus_run(hashseed):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        out = {}
        for path in ("dll.c", "branch.c", "setter.c", "sorted.c"):
            idx = load_program((CORPUS / path).read_text())
            for fn in sorted(idx.functions):
                proc = subprocess.run(
                    [sys.executable, "-m", "specminer.cli",
                     str(CORPUS / path), "-f", fn, "--format", "json",
                     "--dump-patterns"],
                    capture_output=True, env=env)
                assert proc.returncode == 0, (path, fn, proc.stderr)
                out[(path, fn)] = proc.stdout
        return out

    a = full_corpus_run("0")
    b = full_corpus_run("42")
    diffs = [k for k in a if a[k] != b[k]]
    ok = not diffs and len(a) == 14
    _line(capsys, 8, ok, f"{len(a)} modifier runs compared across hash seeds, "
                 f"{len(diffs)} differing")
    assert ok, diffs


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
