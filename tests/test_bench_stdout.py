"""Byte-identical stdout on the benchmark's gated cells.

Each cell of the `deep-unroll` and `corpus-json` workloads runs in-process
through `cli.main`, on the benchmark's own inputs, and its stdout SHA-256
must equal the `stdout_sha256` that `perfbench/golden.json` records for it.
The benchmark itself only counts a differing hash as drift; here it fails.
"""
import hashlib
import json
import pathlib

import pytest

from specminer.cli import EXIT_OK, MAX_PATTERNS_ENV, main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))

DLL_MODIFIERS = ("append", "length", "reverse", "head", "last", "find", "init")
CELLS = (
    # deep-unroll: every dll.c modifier at --unroll 8
    [(f"{f}@8", "dll.c", f, ["--unroll", "8"]) for f in DLL_MODIFIERS]
    # corpus-json: every corpus function at --unroll 1, JSON with patterns
    + [(f"{f}@1+json", src, f,
        ["--unroll", "1", "--format", "json", "--dump-patterns"])
       for src, fs in (("dll.c", DLL_MODIFIERS), ("branch.c", ("branch",)),
                       ("setter.c", ("set_val",)))
       for f in fs])


@pytest.mark.parametrize("cell, source, fname, flags", CELLS, ids=[c[0] for c in CELLS])
def test_stdout_matches_the_benchmark_reference(capsys, monkeypatch, cell, source,
                                                fname, flags):
    monkeypatch.delenv(MAX_PATTERNS_ENV, raising=False)
    ref = GOLDEN[cell]
    code = main([str(PERFBENCH / "inputs" / source), "-f", fname, *flags])
    out = capsys.readouterr().out
    assert code == ref["exit"] == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ref["stdout_sha256"]
