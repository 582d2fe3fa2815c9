"""Command-line interface tests: flags, formats, exit codes.

Everything here drives main() in-process, except one hash-seed check; the
corpus-wide byte-identity check across real subprocesses lives in the
acceptance suite.
"""
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from specminer.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_SOURCE,
    EXIT_USAGE,
    MAX_PATTERNS_ENV,
    main,
)
from specminer.engine import Limits, se
from specminer.frontend import load_program
from specminer.symstate import Allocator, fresh_value, render_pattern

CORPUS = pathlib.Path(__file__).parent / "corpus"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
DLL = str(CORPUS / "dll.c")
BRANCH = str(CORPUS / "branch.c")

TOUCH_SRC = (
    "struct Node { int v; struct Node* nxt; };\n"
    "int touch(struct Node* a, struct Node* b) {\n"
    "  a->v = 1;\n  b->v = 2;\n  return a->v;\n}\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- success

def test_text_output(capsys):
    code, out, err = run(capsys, DLL, "-f", "append")
    assert code == EXIT_OK
    assert "length(list) = 2" in out
    assert "ret = list'" in out
    assert re.search(r"elapsed: \d+\.\d{3}s", err)


def test_elapsed_goes_to_stderr_even_for_json(capsys):
    code, out, err = run(capsys, DLL, "-f", "append", "--format", "json")
    assert code == EXIT_OK
    assert "elapsed" not in out
    assert re.search(r"elapsed: \d+\.\d{3}s", err)


def test_json_document_shape(capsys):
    code, out, _err = run(capsys, DLL, "-f", "append", "--format", "json")
    doc = json.loads(out)
    assert doc["tool"] == "specminer"
    assert doc["modifier"] == "append"
    assert doc["limits"]["unroll"] == 1
    assert doc["stats"] == {"finalPatterns": 3, "errorPatterns": 0,
                            "truncatedPaths": 1}
    assert len(doc["axioms"]) == 3
    first = doc["axioms"][0]
    assert first["pre"][0]["rendered"] == "length(list) = 2"
    assert first["ret"]["rendered"] == "ret = list'"
    assert first["approx"] is False


def test_text_and_json_agree_on_equations(capsys):
    _c, text_out, _e = run(capsys, DLL, "-f", "init")
    _c, json_out, _e = run(capsys, DLL, "-f", "init", "--format", "json")
    doc = json.loads(json_out)
    for ax in doc["axioms"]:
        for eq in ax["pre"] + ax["post"] + ([ax["ret"]] if ax["ret"] else []):
            assert eq["rendered"] in text_out


def test_repeat_runs_are_identical(capsys):
    _c, out1, _e = run(capsys, DLL, "-f", "reverse", "--format", "json")
    _c, out2, _e = run(capsys, DLL, "-f", "reverse", "--format", "json")
    assert out1 == out2


def test_unroll_flag(capsys):
    code, out, _err = run(capsys, DLL, "-f", "append", "--unroll", "2")
    assert code == EXIT_OK
    assert "length(list) = 3" in out  # the unroll-2-only input class


def test_dump_patterns_text(capsys):
    code, out, _err = run(capsys, DLL, "-f", "append", "--dump-patterns")
    assert code == EXIT_OK
    assert "-- pattern p0" in out
    assert "<memcond> list != NULL /\\ list->next = NULL </memcond>" in out
    assert out.index("-- pattern") < out.index("length(list) = 2")


def test_dump_patterns_json(capsys):
    _c, out, _e = run(capsys, DLL, "-f", "append", "--dump-patterns",
                      "--format", "json")
    doc = json.loads(out)
    assert [p["id"] for p in doc["patterns"]] == ["p0", "p1", "p2"]
    assert doc["patterns"][0]["rendered"].startswith("<k>")


# value kinds the corpus lacks: a void* tested against NULL, a void* field
# returned, and symbolic + and -
KINDS_SRC = (
    "struct N { void* d; int v; struct N* next; };\n"
    "int isnull(void* d) { if (d == NULL) return 1; return 0; }\n"
    "void* getd(struct N* n) { return n->d; }\n"
    "int addv(struct N* n, int k) { return n->v + k; }\n"
    "int subv(struct N* n, int k) { return n->v - k; }\n")

KINDS_DUMPS = {
    "addv": (
        "-- pattern p0\n"
        "<k> return tv(int, ?i3) </k>\n"
        "<env> k |-> tv(int, ?k) </env>\n"
        "<env> n |-> n </env>\n"
        "<heap> n |-> (v |-> ?n->v) </heap>\n"
        "<cond> ?i3 = ?n->v + ?k </cond>\n"
        "<memcond> n != NULL </memcond>\n"
        "\n"
        "-- pattern e0\n"
        "<k> Error: NULL dereference </k>\n"
        "<env> k |-> tv(int, ?k) </env>\n"
        "<env> n |-> n </env>\n"
        "<cond> true </cond>\n"
        "<memcond> n = NULL </memcond>\n"
        "\n"
        "true => (\n"
        "  true\n"
        ")\n"),
    "getd": (
        "-- pattern p0\n"
        "<k> return tv(void*, ?n->d) </k>\n"
        "<env> n |-> n </env>\n"
        "<heap> n |-> (d |-> ?n->d) </heap>\n"
        "<cond> true </cond>\n"
        "<memcond> n != NULL </memcond>\n"
        "\n"
        "-- pattern e0\n"
        "<k> Error: NULL dereference </k>\n"
        "<env> n |-> n </env>\n"
        "<cond> true </cond>\n"
        "<memcond> n = NULL </memcond>\n"
        "\n"
        "true => (\n"
        "  true\n"
        ")\n"),
    "isnull": (
        "-- pattern p0\n"
        "<k> return tv(int, 1) </k>\n"
        "<env> d |-> tv(void*, ?d) </env>\n"
        "<cond> ?d = NULL </cond>\n"
        "<memcond> true </memcond>\n"
        "\n"
        "-- pattern p1\n"
        "<k> return tv(int, 0) </k>\n"
        "<env> d |-> tv(void*, ?d) </env>\n"
        "<cond> ?d != NULL </cond>\n"
        "<memcond> true </memcond>\n"
        "\n"
        "true => (\n"
        "  ret = 0\n"
        ")\n"
        "\n"
        "true => (\n"
        "  ret = 1\n"
        ")\n"),
    "subv": (
        "-- pattern p0\n"
        "<k> return tv(int, ?i3) </k>\n"
        "<env> k |-> tv(int, ?k) </env>\n"
        "<env> n |-> n </env>\n"
        "<heap> n |-> (v |-> ?n->v) </heap>\n"
        "<cond> ?i3 = ?n->v - ?k </cond>\n"
        "<memcond> n != NULL </memcond>\n"
        "\n"
        "-- pattern e0\n"
        "<k> Error: NULL dereference </k>\n"
        "<env> k |-> tv(int, ?k) </env>\n"
        "<env> n |-> n </env>\n"
        "<cond> true </cond>\n"
        "<memcond> n = NULL </memcond>\n"
        "\n"
        "true => (\n"
        "  true\n"
        ")\n"),
}


@pytest.mark.parametrize("fname", sorted(KINDS_DUMPS))
def test_dump_patterns_of_value_kinds_the_corpus_lacks(capsys, tmp_path, fname):
    src = tmp_path / "kinds.c"
    src.write_text(KINDS_SRC)
    code, out, _err = run(capsys, str(src), "-f", fname, "--dump-patterns")
    assert code == EXIT_OK
    assert out == KINDS_DUMPS[fname]


def _standalone_patterns(source, fname, unroll, lazy_aliasing, seed_label):
    """The modifier's terminal patterns from its own `se` run, seeded as
    inference seeds it: one fresh symbol per parameter, in order."""
    index = load_program(source)
    alloc = Allocator(seed_label)
    args = [fresh_value(alloc, ptype, alloc.label(pname))
            for pname, ptype in index.functions[fname].params]
    return se(index, fname, args, Limits(unroll_bound=unroll),
              alloc, lazy_aliasing).patterns


@pytest.mark.parametrize("case", ["append-unroll2", "touch-lazy", *sorted(KINDS_DUMPS)])
def test_dumped_patterns_are_the_ones_the_axioms_came_from(capsys, tmp_path, case):
    if case == "append-unroll2":
        path, fname, unroll, flags = DLL, "append", 2, ["--unroll", "2"]
    elif case == "touch-lazy":
        path, fname, unroll, flags = tmp_path / "touch.c", "touch", 1, ["--lazy-aliasing"]
        path.write_text(TOUCH_SRC)
    else:
        path, fname, unroll, flags = tmp_path / "kinds.c", case, 1, []
        path.write_text(KINDS_SRC)
    argv = [str(path), "-f", fname, "--seed-label", "run1", *flags]
    code, dumped, _err = run(capsys, *argv, "--dump-patterns")
    assert code == EXIT_OK
    _code, plain, _err = run(capsys, *argv)
    patterns = _standalone_patterns(pathlib.Path(path).read_text(), fname, unroll,
                                    "--lazy-aliasing" in flags, "run1")
    blocks = "".join(f"-- pattern {p.provenance_id}\n{render_pattern(p)}\n\n"
                     for p in patterns)
    assert dumped == blocks + plain


def test_observers_whitelist(capsys):
    code, out, _err = run(capsys, DLL, "-f", "append", "--observers", "length")
    assert code == EXIT_OK
    assert "length(list) = 0" in out
    assert "find(" not in out and "reverse(" not in out


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_a_repeated_observer_name_counts_once(capsys, fmt):
    once = run(capsys, DLL, "-f", "append", "--observers", "length", *fmt)
    twice = run(capsys, DLL, "-f", "append", "--observers", "length,length", *fmt)
    assert once[0] == twice[0] == EXIT_OK
    assert twice[1] == once[1]


NOT_REPLAYED = "append: --observers names the modifier itself; it is not replayed"


def test_naming_the_modifier_as_an_observer_is_noted(capsys):
    # the modifier is never replayed on its own states; naming it alone
    # leaves no observer, which the note says instead of staying silent
    code, out, err = run(capsys, DLL, "-f", "append", "--observers", "append")
    assert code == EXIT_OK
    assert out == "true => (\n  ret = list'\n)\n"
    assert f"note: {NOT_REPLAYED}\n" in err
    code, out, err = run(capsys, DLL, "-f", "append", "--observers", "length,append",
                         "--format", "json")
    assert code == EXIT_OK
    assert NOT_REPLAYED in json.loads(out)["diagnostics"]
    assert "note:" not in err
    # without --observers the modifier is left out silently, as documented
    _code, _out, err = run(capsys, DLL, "-f", "append")
    assert "not replayed" not in err


def test_seed_label_prefixes_symbols_once(capsys):
    code, out, _err = run(capsys, DLL, "-f", "append", "--dump-patterns",
                          "--seed-label", "run1")
    assert code == EXIT_OK
    assert "run1:list->next != NULL" in out
    assert "run1:run1" not in out
    # equation arguments are parameter names, not symbol displays
    assert "length(list) = 2" in out


def test_seed_label_may_use_letters_digits_underscore_and_dash(capsys):
    code, out, _err = run(capsys, DLL, "-f", "append", "--dump-patterns",
                          "--seed-label", "Run_1-b")
    assert code == EXIT_OK
    assert "<heap> Run_1-b:list |-> " in out


@pytest.mark.parametrize("label", ["v1.2", "a b", "x:y", "é"])
def test_seed_label_with_another_character_exits_64(capsys, label):
    # a '.' rendered as '->' in conditions and env but not as a heap key
    code, out, err = run(capsys, DLL, "-f", "append", "--dump-patterns",
                         "--seed-label", label)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("usage: specminer")
    assert "specminer: error: argument --seed-label: " in err


@pytest.mark.parametrize("fmt", [[], ["--format", "json"]])
def test_resolver_warnings_go_to_stderr(capsys, fmt):
    code, out, err = run(capsys, DLL, "-f", "append", *fmt)
    assert code == EXIT_OK
    assert (f"specminer: {DLL}: warning: implicit pointer conversion "
            f"void* -> struct List* in return of last\n") in err.splitlines(True)
    assert "warning" not in out
    _code, _out, err = run(capsys, BRANCH, "-f", "branch", *fmt)
    assert "warning" not in err


def test_lazy_aliasing_flag_runs(capsys, tmp_path):
    src = tmp_path / "touch.c"
    src.write_text(TOUCH_SRC)
    code, out, _err = run(capsys, str(src), "-f", "touch", "--lazy-aliasing")
    assert code == EXIT_OK
    # the aliased world surfaces as a second return class
    assert "ret = 1" in out and "ret = 2" in out


MALLOC_SRC = (
    "struct N { int v; struct N* next; };\n"
    "int getv(struct N* a) { return a->v; }\n"
    "int take(struct N* a, struct N* b) { return 0; }\n"
    "int chain(struct N* a) { struct N* x; struct N* y;\n"
    "  x = y = malloc(sizeof(struct N)); return 0; }\n"
    "int through_field(struct N* a) { struct N* z;\n"
    "  z = a->next = malloc(sizeof(struct N)); return 0; }\n"
    "int as_argument(struct N* a) { return take(a, malloc(sizeof(struct N))); }\n")


@pytest.mark.parametrize("fname, name", [
    ("chain", "y"), ("through_field", "obj"), ("as_argument", "obj")])
def test_malloc_is_named_after_the_variable_it_is_assigned_to(capsys, tmp_path, fname, name):
    # only a malloc assigned straight to a variable takes its name
    src = tmp_path / "malloc.c"
    src.write_text(MALLOC_SRC)
    code, out, _err = run(capsys, str(src), "-f", fname, "--dump-patterns",
                          "--observers", "getv")
    assert code == EXIT_OK
    assert set(re.findall(r"^<heap> (\S+) \|->", out, re.M)) - {"a"} == {name}


TWO_OBJ_SRC = (
    "struct N { int v; struct N* next; };\n"
    "int take(struct N* a, struct N* b) { return 0; }\n"
    "int f(struct N* a) { struct N* z;\n"
    "  z = a->next = malloc(sizeof(struct N));\n"
    "  take(a, malloc(sizeof(struct N))); return 0; }\n")


def _two_obj_keys(block: str) -> list:
    """The `obj` heap keys of one dumped pattern, checked to name two
    objects, the first of them reached from `z` and `a->next`."""
    keys = re.findall(r"^<heap> (obj\S*) \|-> \(\) </heap>$", block, re.M)
    assert len(keys) == 2 and keys[0] != keys[1]
    assert all(re.fullmatch(r"obj#\d+", k) for k in keys)
    assert f"<env> z |-> {keys[0]} </env>" in block
    assert f"<heap> a |-> (next |-> {keys[0]}) </heap>" in block
    return keys


def test_dump_tells_apart_two_objects_that_share_a_display(capsys, tmp_path):
    # both mallocs are named `obj`; each prints as obj#sid, also where the
    # env and a field point at it, while unique displays print as before
    src = tmp_path / "two.c"
    src.write_text(TWO_OBJ_SRC)
    code, out, _err = run(capsys, str(src), "-f", "f", "--dump-patterns")
    assert code == EXIT_OK
    p0 = out.split("-- pattern p0\n")[1].split("\n\n")[0]
    keys = _two_obj_keys(p0)
    assert "<heap> obj |-> () </heap>" in out  # e0 holds one object only
    code, out, _err = run(capsys, str(src), "-f", "f", "--dump-patterns",
                          "--format", "json")
    assert code == EXIT_OK
    rendered = {pat["id"]: pat["rendered"] for pat in json.loads(out)["patterns"]}
    assert _two_obj_keys(rendered["p0"]) == keys
    assert "<heap> obj |-> () </heap>" in rendered["e0"]


PICK_SRC = (
    "struct N { int v; struct N* next; };\n"
    "int getv(struct N* n) { return n->v; }\n"
    "int diff(struct N* a, struct N* b) { return a->v - b->v; }\n"
    "struct N* pick(struct N* a, struct N* b) { b->v = 2; a->v = 1; return a; }\n")


def test_one_call_with_two_values_prints_the_same_under_any_hash_seed(tmp_path):
    # the aliased and the separate world of `pick` give getv(b) the values 1
    # and 2 under one premise; their axioms must still print in a fixed order
    src = tmp_path / "pick.c"
    src.write_text(PICK_SRC)
    outs = set()
    for seed in ("0", "5", "7", "42"):
        proc = subprocess.run(
            [sys.executable, "-m", "specminer.cli", str(src), "-f", "pick",
             "--lazy-aliasing"],
            capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == EXIT_OK, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    out = outs.pop().decode()
    assert out.index("getv(b) = 1") < out.index("getv(b) = 2")


def test_unknown_verdict_marks_every_axiom_approx(capsys, tmp_path):
    # `x + x` has a coefficient the solver does not handle, so the engine's
    # cache answers UNKNOWN for both sides of the branch; each axiom must
    # still be marked as approximate
    src = tmp_path / "dbl.c"
    src.write_text(
        "int dbl(int x, int y) { if (x + x > y) return 1; return 0; }\n"
        "int other(int x, int y) { return x; }\n")
    code, out, _err = run(capsys, str(src), "-f", "dbl")
    assert code == EXIT_OK
    ends = [line for line in out.splitlines()
            if line.startswith(")") and "=>" not in line]
    assert len(ends) == 2
    assert all(line.endswith(" [approx]") for line in ends)


ALL_ERRORS_SRC = (
    "struct N { int v; struct N* next; };\n"
    "int getv(struct N* a) { return a->v; }\n"
    "int fresh(struct N* a) { struct N* m; m = malloc(sizeof(struct N));\n"
    "  m->next = a; return m->v; }\n"
    "int walk(struct N* a) { while (a != NULL) a = a->next; return a->v; }\n")

ALL_ERRORS = ("fresh: every path ends in an error (read of uninitialized field 'v'); "
              "no axiom can be inferred")
ALL_CUT = ("walk: no path ends normally at this bound (1 cut at the bound; "
           "errors: NULL dereference); a larger --unroll may find one")


def test_a_modifier_whose_every_path_ends_in_an_error_is_noted(capsys, tmp_path):
    src = tmp_path / "fresh.c"
    src.write_text(ALL_ERRORS_SRC)
    code, out, err = run(capsys, str(src), "-f", "fresh")
    assert code == EXIT_OK
    assert out == "no axioms inferable at this bound\n"
    assert f"note: {ALL_ERRORS}\n" in err
    code, out, err = run(capsys, str(src), "-f", "fresh", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["diagnostics"] == [ALL_ERRORS]
    assert doc["stats"]["finalPatterns"] == 0 and doc["stats"]["errorPatterns"] == 1
    assert "note:" not in err
    # paths cut at the bound might end normally at a larger one, so a run
    # with no final pattern but cut paths is not said to end in errors:
    # it gets its own note, which names the cuts and the errors
    code, out, err = run(capsys, str(src), "-f", "walk")
    assert (code, out) == (EXIT_OK, "no axioms inferable at this bound\n")
    assert f"note: {ALL_CUT}\n" in err
    code, out, _err = run(capsys, str(src), "-f", "walk", "--format", "json")
    doc = json.loads(out)
    assert doc["stats"]["finalPatterns"] == 0 and doc["stats"]["truncatedPaths"] > 0
    assert doc["diagnostics"] == [ALL_CUT]
    # a modifier with a final pattern gets no such note
    code, out, err = run(capsys, DLL, "-f", "append")
    assert "every path ends in an error" not in err


def test_no_axioms_message(capsys, tmp_path):
    # a modifier with untraceable effects and no observers to phrase them
    src = tmp_path / "v.c"
    src.write_text("void nop(int a) { }\n")
    code, out, _err = run(capsys, str(src), "-f", "nop")
    assert code == EXIT_OK
    assert "ret = void" in out


# ---------------------------------------------------------------- arguments

@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_and_flags(capsys, flag):
    code, out, err = run(capsys, DLL, flag)
    assert code == EXIT_OK
    assert err == ""
    assert out.startswith("usage: specminer")
    for option in ("-h, --help", "-f NAME, --function NAME", "--unroll N",
                   "--format {text,json}", "--lazy-aliasing", "--dump-patterns",
                   "--observers NAMES", "--seed-label PREFIX"):
        assert option in out


@pytest.mark.parametrize("argv, same_as", [
    ([DLL, "-f", "append", "--unroll=2"], [DLL, "-f", "append", "--unroll", "2"]),
    ([DLL, "--function", "append"], [DLL, "-f", "append"]),
    ([DLL, "-f", "append", "--unroll"], None),
    ([DLL, "-f", "append", "--unroll", "x"], None),
    ([DLL, "-f", "append", "--format", "xml"], None),
    ([DLL, BRANCH, "-f", "append"], None),
    ([DLL, "-f", "append", "--nope"], None),
])
def test_argument_contract(capsys, argv, same_as):
    # `same_as` is an equivalent spelling; None marks a usage error
    code, out, err = run(capsys, *argv)
    if same_as is None:
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines()[0].startswith("usage: specminer")
    else:
        assert code == EXIT_OK
        assert (code, out) == run(capsys, *same_as)[:2]


def test_flags_are_not_abbreviated(capsys):
    code, _out, err = run(capsys, DLL, "-f", "append", "--unr", "2")
    assert code == EXIT_USAGE
    assert "unrecognized arguments: --unr" in err


def test_import_loads_no_code_generating_or_locale_modules():
    # start-up cost: each of these takes milliseconds to import, and
    # dataclasses pulls in inspect; `-S` keeps site hooks out of the count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import specminer.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}"
            " & set(sys.modules)))")
    # `-I` ignores PYTHONDONTWRITEBYTECODE; `-B` keeps bytecode out of src/
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


def test_import_leaves_json_unloaded():
    # only JSON output needs the json package, which takes about 2.5 ms to
    # import without a bytecode cache
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import specminer.cli; "
            "print('json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]


# ---------------------------------------------------------------- exit 2

def test_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int f( {\n")
    code, _out, err = run(capsys, str(bad), "-f", "f")
    assert code == EXIT_SOURCE
    assert str(bad) in err


def test_lex_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int f(int a) { return a $ 1; }\n")
    assert run(capsys, str(bad), "-f", "f")[0] == EXIT_SOURCE


@pytest.mark.parametrize("source, where", [
    ("int f(int a) { return ²; }\n", "'²' at 1:23"),  # a digit to str.isdigit
    ("int f(int é) { return é; }\n", "'é' at 1:11"),
    ("int f(int a) { return a; # junk\n}\n", "'#' at 1:26"),
], ids=["superscript-digit", "non-ascii-ident", "mid-line-hash"])
def test_non_grammar_characters_exit_2(capsys, tmp_path, source, where):
    bad = tmp_path / "bad.c"
    bad.write_text(source, encoding="utf-8")
    code, out, err = run(capsys, str(bad), "-f", "f")
    assert (code, out) == (EXIT_SOURCE, "")
    assert err == f"specminer: {bad}: illegal character {where}\n"


def test_resolve_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("int f(int a) { return b; }\n")
    assert run(capsys, str(bad), "-f", "f")[0] == EXIT_SOURCE


def test_integer_literal_too_long_exits_2(capsys, tmp_path):
    bad = tmp_path / "f.c"
    bad.write_text("int f(int x) { return " + "1" * 5000 + "; }\n")
    code, out, err = run(capsys, str(bad), "-f", "f")
    assert (code, out) == (EXIT_SOURCE, "")
    assert err == f"specminer: {bad}: integer literal too long at 1:23\n"


@pytest.mark.parametrize("digits, fits", [(4300, False), (4299, True)])
def test_a_constant_fold_shares_the_literal_limit(capsys, tmp_path, digits, fits):
    # two literals of at most 4,300 digits parse; their sum has one digit
    # more, which passes the limit only when they are shorter
    src = tmp_path / "f.c"
    src.write_text(f"int f(int x) {{ return {'9' * digits} + {'9' * digits}; }}\n")
    code, out, err = run(capsys, str(src), "-f", "f")
    if fits:
        assert code == EXIT_OK
        assert f"ret = 1{'9' * (digits - 1)}8" in out
    else:
        assert (code, out) == (EXIT_SOURCE, "")
        assert err == f"specminer: {src}: integer constant too long\n"


@pytest.mark.parametrize("body, message", [
    ("return x == NULL;", "cannot compare int with NULL"),
    ("return NULL;", "cannot return NULL as int"),
    ("if (NULL) return 1; return 0;", "condition must be int, got NULL"),
    ("x = NULL; return x;", "cannot assign NULL to int"),
], ids=["compare", "return", "condition", "assign"])
def test_null_is_named_null_in_type_errors(capsys, tmp_path, body, message):
    bad = tmp_path / "f.c"
    bad.write_text(f"int f(int x) {{ {body} }}\n")
    code, out, err = run(capsys, str(bad), "-f", "f")
    assert (code, out) == (EXIT_SOURCE, "")
    assert err == f"specminer: {bad}: f: {message}\n"


# shape -> (source nested n deep, a depth past Python's recursion limit)
DEEP = {
    "parens": (lambda n: "int f(int x) { return " + "(" * n + "x" + ")" * n + "; }\n", 3000),
    "ifs": (lambda n: "int f(int x) { " + "if (x) " * n + "return 1; return 0; }\n", 3000),
    "nots": (lambda n: "int f(int x) { return " + "!" * n + "x; }\n", 3000),
    "sum": (lambda n: "int f(int x) { return " + " + ".join(["x"] * n) + "; }\n", 5000),
    # the front end accepts this one; the engine's `_build` recurses deeper
    "blocks": (lambda n: "int f(int x) { " + "if (x) { x = 1; " * n + "}" * n
               + " return x; }\n", 330),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_input_nested_too_deeply_exits_2(capsys, tmp_path, shape):
    source, deep = DEEP[shape]
    src = tmp_path / "deep.c"
    src.write_text(source(deep))
    code, out, err = run(capsys, str(src), "-f", "f")
    assert (code, out, err) == (EXIT_SOURCE, "", f"specminer: {src}: input nested too deeply\n")
    if shape == "blocks":
        load_program(source(deep))  # so the engine is what gives up
    src.write_text(source(50))
    assert run(capsys, str(src), "-f", "f")[0] == EXIT_OK


def test_150_nested_parentheses_exit_0(capsys, tmp_path):
    src = tmp_path / "deep.c"
    src.write_text(DEEP["parens"][0](150))
    assert run(capsys, str(src), "-f", "f")[0] == EXIT_OK


# ---------------------------------------------------------------- exit 64

def test_missing_file_exits_64(capsys):
    assert run(capsys, "/nonexistent.c", "-f", "f")[0] == EXIT_USAGE


def test_undecodable_file_exits_64(capsys, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_bytes(b"int f(int x) { return x; }\n\xff\n")
    code, out, err = run(capsys, str(bad), "-f", "f")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"specminer: error: cannot read {bad}: ")


def test_unknown_function_exits_64(capsys):
    code, _out, err = run(capsys, DLL, "-f", "nope")
    assert code == EXIT_USAGE
    assert "nope" in err


def test_unknown_observer_exits_64(capsys):
    assert run(capsys, DLL, "-f", "append", "--observers", "nope")[0] == EXIT_USAGE


def test_bad_unroll_exits_64(capsys):
    code, _out, err = run(capsys, DLL, "-f", "append", "--unroll", "0")
    assert code == EXIT_USAGE
    assert err.startswith("usage: specminer")  # synopsis precedes the error
    assert "--unroll must be at least 1" in err


def test_empty_observers_exits_64(capsys):
    assert run(capsys, DLL, "-f", "append", "--observers", " , ")[0] == EXIT_USAGE


def test_unknown_flag_exits_64(capsys):
    assert run(capsys, DLL, "-f", "append", "--nope")[0] == EXIT_USAGE


def test_missing_function_flag_exits_64(capsys):
    assert run(capsys, DLL)[0] == EXIT_USAGE


def test_bad_env_budget_exits_64(capsys, monkeypatch):
    monkeypatch.setenv(MAX_PATTERNS_ENV, "abc")
    assert run(capsys, BRANCH, "-f", "branch")[0] == EXIT_USAGE
    monkeypatch.setenv(MAX_PATTERNS_ENV, "0")
    assert run(capsys, BRANCH, "-f", "branch")[0] == EXIT_USAGE


# ---------------------------------------------------------------- exit 3

def test_pattern_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setenv(MAX_PATTERNS_ENV, "1")
    code, _out, err = run(capsys, BRANCH, "-f", "branch")
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_exhausted_budget_alone_marks_nothing_approx(capsys, monkeypatch):
    # `[approx]` reports an Unknown solver verdict, not a cut exploration;
    # exit 3 and the notes report the cut
    monkeypatch.setenv(MAX_PATTERNS_ENV, "2")
    code, out, err = run(capsys, DLL, "-f", "append")
    assert code == EXIT_BUDGET
    assert "[approx]" not in out
    assert "append: exploration budget exhausted" in err


def test_replay_ruled_out_before_its_budget_is_no_budget_error(capsys, monkeypatch):
    # explored to completion, the init(list') replays on reverse's p0 and
    # p1 outgrow a three-pattern budget, but a leaf within it already rules
    # the call out, so the budget loses nothing
    code, out, _err = run(capsys, DLL, "-f", "reverse", "--unroll", "2",
                          "--format", "json")
    assert code == EXIT_OK
    monkeypatch.setenv(MAX_PATTERNS_ENV, "3")
    code, budget_out, _err = run(capsys, DLL, "-f", "reverse", "--unroll", "2",
                                 "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(budget_out)
    assert doc["diagnostics"] == []
    assert doc["axioms"] == json.loads(out)["axioms"]


def test_budget_that_loses_no_leaf_is_no_budget_error(capsys, monkeypatch, tmp_path):
    # r keeps one leaf; its other path recurses and is cut at the bound, so
    # a one-pattern budget loses nothing
    src = tmp_path / "r.c"
    src.write_text("int r(int x) { if (x > 0) return 1; return r(x); }\n")
    outputs = []
    for budget in (None, "1"):
        if budget:
            monkeypatch.setenv(MAX_PATTERNS_ENV, budget)
        code, out, err = run(capsys, str(src), "-f", "r")
        assert code == EXIT_OK
        assert "budget" not in err
        code, doc, _err = run(capsys, str(src), "-f", "r", "--format", "json")
        doc = json.loads(doc)
        del doc["limits"]
        outputs.append((out, doc))
    assert outputs[1] == outputs[0]


def test_lazy_aliasing_find_needs_no_step_budget(capsys):
    # the observer walks that run on forever over a cyclic discovered heap
    # are ruled out by an earlier leaf before they reach the step cap
    code, _out, err = run(capsys, DLL, "-f", "find", "--lazy-aliasing")
    assert code == EXIT_OK
    assert "note:" not in err


def test_lazy_aliasing_init_ends_at_the_bound(capsys):
    # each walk over the discovered list dereferences the node the next
    # guard tests, so only the NULL splits in its body count the iterations
    code, _out, err = run(capsys, DLL, "-f", "init", "--unroll", "1", "--lazy-aliasing")
    assert code == EXIT_OK
    assert "note:" not in err


def test_generous_env_budget_is_fine(capsys, monkeypatch):
    monkeypatch.setenv(MAX_PATTERNS_ENV, "4096")
    assert run(capsys, BRANCH, "-f", "branch")[0] == EXIT_OK


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
