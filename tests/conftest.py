"""Shared fixtures: the little C corpus, parsed once per session."""
import pathlib

import pytest

from specminer.constraints import TRUE
from specminer.frontend import load_program, nodes as N
from specminer.symstate import Pattern, bind_frame

CORPUS = pathlib.Path(__file__).parent / "corpus"


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def dll_src():
    return (CORPUS / "dll.c").read_text()


@pytest.fixture(scope="session")
def dll_index(dll_src):
    return load_program(dll_src)


@pytest.fixture(scope="session")
def branch_index():
    return load_program((CORPUS / "branch.c").read_text())


@pytest.fixture(scope="session")
def setter_index():
    return load_program((CORPUS / "setter.c").read_text())


def _ast_nodes(x):
    """Every statement and expression node in `x` (a node, or a list of
    them) and below it, found through each node's equality key."""
    if isinstance(x, list):
        for y in x:
            yield from _ast_nodes(y)
    elif isinstance(x, (N.Stmt, N.Expr)):
        yield x
        for y in x._key():
            yield from _ast_nodes(y)


@pytest.fixture(scope="session")
def ast_nodes():
    return _ast_nodes


def _entry_pattern(index, fname, args, heap=None, condition=TRUE):
    """The pattern `se` starts `fname` on `args` from, before its first
    step."""
    heap = heap or {}
    return Pattern([], bind_frame(index.functions[fname], args), dict(heap), dict(heap),
                   path_condition=condition)


@pytest.fixture(scope="session")
def entry_pattern():
    return _entry_pattern
