"""Lexer / parser / resolver tests for the C fragment frontend."""
import random
import re

import pytest

from specminer.frontend import (
    DuplicateDefinition,
    IllegalCharacter,
    ParseError,
    TypeMismatch,
    UnknownField,
    UnknownIdentifier,
    load_program,
    nodes as N,
    parse,
    resolve,
)
from specminer.frontend.lexer import scan


# ---------------------------------------------------------------- lexer

def test_struct_keyword_count_in_append_matches_scan(dll_src):
    """Oracle written against the raw bytes: the `append` function uses the
    `struct` keyword exactly 6 times (return type, param, two locals, cast,
    sizeof). An independent regex scan pins the number; the lexer must agree.
    """
    snippet = dll_src[dll_src.index("struct List* append"):dll_src.index("int length")]
    scanned = len(re.findall(r"\bstruct\b", snippet))
    assert scanned == 6  # frozen by hand-count
    lexed = [t for t in scan(snippet) if t[:2] == ("kw", "struct")]
    assert len(lexed) == scanned


def test_token_kinds_and_arrow():
    toks = scan("while (x->next != NULL) x = x->next;")
    kinds = [(kind, text) for kind, text, _line, _col in toks if kind != "eof"]
    assert ("kw", "while") in kinds
    assert ("kw", "NULL") in kinds
    assert ("ident", "x") in kinds
    assert ("punct", "->") in kinds
    assert ("punct", "!=") in kinds


def test_comments_and_preprocessor_lines_are_skipped():
    src = "#include <stdlib.h>\n// line comment\nint /* inline */ x\n"
    toks = scan(src)
    texts = [text for kind, text, _line, _col in toks if kind != "eof"]
    assert texts == ["int", "x"]


def test_number_then_ident_lexes_without_error():
    # "3x" is two tokens for the lexer; rejecting it is the parser's job
    toks = scan("3x")
    assert [(kind, text) for kind, text, _line, _col in toks[:2]] == \
        [("int", "3"), ("ident", "x")]
    with pytest.raises(ParseError):
        parse("int f(int a) { return 3x; }")


def test_illegal_character():
    with pytest.raises(IllegalCharacter) as ei:
        scan("int $;")
    assert ei.value.ch == "$"


def _positions(src):
    return [(text, line, col) for _kind, text, line, col in scan(src)]


@pytest.mark.parametrize("src, want", [
    # a block comment over two lines
    ("/* one\n   two */ int x", [("int", 2, 11), ("x", 2, 15), ("", 2, 16)]),
    ("#include <stdlib.h>\nint x", [("int", 2, 1), ("x", 2, 5), ("", 2, 6)]),
    # a tab is one column
    ("int\tx;\t\ty", [("int", 1, 1), ("x", 1, 5), (";", 1, 6), ("y", 1, 9), ("", 1, 10)]),
    # CR is one more column before its LF
    ("int x;\r\nint y;\r\n",
     [("int", 1, 1), ("x", 1, 5), (";", 1, 6),
      ("int", 2, 1), ("y", 2, 5), (";", 2, 6), ("", 3, 1)]),
    # an unterminated block comment runs to the end of the file
    ("int x /* never closed\n\n", [("int", 1, 1), ("x", 1, 5), ("", 3, 1)]),
    ("int x\n  /* never\n closed", [("int", 1, 1), ("x", 1, 5), ("", 3, 8)]),
])
def test_token_positions(src, want):
    assert _positions(src) == want


@pytest.mark.parametrize("src, error, where", [
    ("int f(int a) {\r\n\treturn a $ 1;\r\n}", IllegalCharacter, "'$' at 2:11"),
    ("int f(int a) {\n\treturn a\t@;\n}", IllegalCharacter, "'@' at 2:11"),
    ("int f(int a) {\n  return a\n}\n", ParseError, "expected ';', found '}' at 3:1"),
    ("/* one\n   two */ int x", ParseError, "found 'eof' at 2:16"),
    ("int x\n  /* never\n closed", ParseError, "found 'eof' at 3:8"),
])
def test_error_positions(src, error, where):
    with pytest.raises(error) as ei:
        parse(src)
    assert str(ei.value).endswith(where)


@pytest.mark.parametrize("src, ch, where", [
    # str.isdigit accepts "²", int() does not
    ("int f(int a) { return ²; }", "²", (1, 23)),
    ("int f(int a) { return 3²; }", "²", (1, 24)),
    # identifiers are ASCII
    ("int f(int é) { return é; }", "é", (1, 11)),
    # "#" is skipped only where it leads its line
    ("int f(int a) { return a; # junk\n}", "#", (1, 26)),
    ("/* a\n */ #x\n", "#", (2, 5)),
    # whitespace is space, tab, CR and LF only
    ("int\fx;", "\f", (1, 4)),
    ("int\vx;", "\v", (1, 4)),
], ids=["superscript-digit", "digits-then-superscript", "non-ascii-ident", "mid-line-hash",
        "hash-after-comment", "form-feed", "vertical-tab"])
def test_characters_outside_the_grammar_are_illegal(src, ch, where):
    with pytest.raises(IllegalCharacter) as ei:
        load_program(src)
    assert (ei.value.ch, ei.value.line, ei.value.col) == (ch, *where)


def test_indented_preprocessor_lines_are_skipped():
    src = "int x;\n  #include <a.h>\n\t#define Y 1\nint y;"
    assert _positions(src)[3:] == [("int", 4, 1), ("y", 4, 5), (";", 4, 6), ("", 4, 7)]
    assert _positions("  #include <a.h>\nint")[0] == ("int", 2, 1)


def test_corpus_token_counts_and_ends(corpus_dir):
    want = {
        "branch.c": (25, "kw(int)@1:1", "punct(})@4:1", "eof()@5:1"),
        "dll.c": (430, "kw(struct)@3:1", "punct(})@101:1", "eof()@102:1"),
        "setter.c": (33, "kw(struct)@1:1", "punct(})@8:1", "eof()@9:1"),
        "sorted.c": (309, "kw(struct)@1:1", "punct(})@52:1", "eof()@53:1"),
    }
    assert sorted(p.name for p in corpus_dir.glob("*.c")) == sorted(want)
    for name, (count, first, last, eof) in want.items():
        toks = [f"{kind}({text})@{line}:{col}"
                for kind, text, line, col in scan((corpus_dir / name).read_text())]
        got = (len(toks), toks[0], toks[-2], toks[-1])
        assert got == (count, first, last, eof), name


def test_local_declarations_must_lead_the_body():
    with pytest.raises(ParseError):
        parse("int f(int a) { a = a + 1; int t; return a; }")
    with pytest.raises(ParseError):  # and only at function level
        parse("int f(int a) { if (a > 0) { int t; } return a; }")
    with pytest.raises(ParseError):  # no initializer form; declare, then assign
        parse("int f(int a) { int t = 3; return t; }")


# ---------------------------------------------------------------- parser

def test_append_signature(dll_index):
    f = dll_index.functions["append"]
    assert f.return_type == N.structptr("List")
    assert f.params == [("list", N.structptr("List")), ("d", N.VOIDPTR)]
    assert [n for n, _t in f.locals] == ["new_node", "final"]


def test_list_struct_fields(dll_index):
    sd = dll_index.structs["List"]
    assert sd.fields == [
        ("data", N.VOIDPTR),
        ("next", N.structptr("List")),
        ("prev", N.structptr("List")),
    ]
    assert dll_index.struct_fields("List")["next"] == N.structptr("List")


def test_operator_precedence_via_rerender():
    """|| binds loosest, then &&, then comparisons, then + -, then unary !.
    Re-rendering drops only redundant parentheses, so the canonical string
    exposes the parse shape."""
    src = "int f(int a, int b, int c) { return a + b < c && !(a == b) || c > 0; }"
    prog = parse(src)
    ret = prog.functions[0].body[0]
    assert isinstance(ret, N.Return)
    assert isinstance(ret.value, N.Binary) and ret.value.op == "||"
    assert ret.value.left.op == "&&"
    assert N.render_expr(ret.value) == "a + b < c && !(a == b) || c > 0"


def _returned(expr: str) -> N.Expr:
    return parse(f"int f() {{ return {expr}; }}").functions[0].body[0].value


def test_every_operator_pair_nests_by_the_precedence_table():
    """`a op1 b op2 c` nests to the left exactly when op1 binds at least as
    loosely as op2, for all 100 ordered pairs of binary operators."""
    a, b, c = N.Var("a"), N.Var("b"), N.Var("c")
    wrong = []
    for op1 in N.BINARY_PREC:
        for op2 in N.BINARY_PREC:
            if N.BINARY_PREC[op1] >= N.BINARY_PREC[op2]:
                want = N.Binary(op2, N.Binary(op1, a, b), c)
            else:
                want = N.Binary(op1, a, N.Binary(op2, b, c))
            if _returned(f"a {op1} b {op2} c") != want:
                wrong.append((op1, op2))
    assert len(N.BINARY_PREC) == 10
    assert wrong == []


def test_assignment_is_right_associative():
    a, b, c = N.Var("a"), N.Var("b"), N.Var("c")
    assert _returned("a = b = c") == N.Assign(a, N.Assign(b, c))


@pytest.mark.parametrize("op", sorted(N.BINARY_PREC))
def test_not_and_arrow_bind_tighter_than_any_binary_operator(op):
    a, b, p = N.Var("a"), N.Var("b"), N.Var("p")
    assert _returned(f"!a {op} !b") == N.Binary(op, N.Unary("!", a), N.Unary("!", b))
    assert _returned(f"p->v {op} p->w") == N.Binary(
        op, N.FieldAccess(p, "v"), N.FieldAccess(p, "w"))


def test_printer_brackets_a_negation_under_an_arrow():
    p = N.Var("p")
    assert _returned("!p->v") == N.Unary("!", N.FieldAccess(p, "v"))
    e = N.FieldAccess(N.Unary("!", p), "v")
    assert N.render_expr(e) == "(!p)->v"
    assert _returned(N.render_expr(e)) == e


def test_integer_literal_too_long_is_a_parse_error():
    assert _returned("9" * 4300) == N.IntLit(int("9" * 4300))
    with pytest.raises(ParseError) as ei:
        parse("int f(int x) { return " + "1" * 5000 + "; }")
    assert (str(ei.value), ei.value.line, ei.value.col) == (
        "integer literal too long at 1:23", 1, 23)


def test_malloc_with_cast_round_trips():
    src = ("struct S { int a; };\n"
           "struct S* f() { struct S* p; p = (struct S*) malloc(sizeof(struct S)); return p; }")
    prog = parse(src)
    assign = prog.functions[0].body[0].expr
    assert isinstance(assign.value, N.Malloc) and assign.value.struct == "S"
    assert parse(N.render_program(prog)) == prog


def test_corpus_round_trips(corpus_dir):
    for name in ("dll.c", "branch.c", "setter.c"):
        src = (corpus_dir / name).read_text()
        prog = parse(src)
        again = parse(N.render_program(prog))
        assert again == prog, name


def test_resolver_annotations_take_no_part_in_equality():
    src = "struct S { int a; };\nint f(struct S* p) { return p->a + 1; }\n"
    resolved = parse(src)
    resolve(resolved)
    access = resolved.functions[0].body[0].value.left
    assert access.ctype == N.INT and access.base.ctype == N.structptr("S")
    assert resolved == parse(src)


def test_every_field_access_carries_its_fields_declared_type(corpus_dir, ast_nodes):
    """The engine gives a lazy object's unseen field a fresh value of the
    `ctype` the resolver stored on the access, assignment targets included."""
    seen = 0
    for path in sorted(corpus_dir.glob("*.c")):
        idx = load_program(path.read_text())
        for f in idx.functions.values():
            for e in ast_nodes(f.body):
                if isinstance(e, N.FieldAccess):
                    declared = idx.struct_fields(e.base.ctype.struct)[e.fieldname]
                    assert e.ctype == declared, (path.name, f.name, N.render_expr(e))
                    seen += 1
    assert seen > 0


def _rand_expr(rng, depth):
    names = ["a", "b", "t"]
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return N.IntLit(rng.randrange(0, 10))
        return N.Var(rng.choice(names))
    roll = rng.random()
    if roll < 0.15:
        return N.Unary("!", _rand_expr(rng, depth - 1))
    if roll < 0.25:
        return N.Call("g", [_rand_expr(rng, depth - 1)])
    if roll < 0.32:
        target = N.Var(rng.choice(names)) if rng.random() < 0.5 else _rand_field(rng, depth)
        return N.Assign(target, _rand_expr(rng, depth - 1))
    if roll < 0.39:
        return _rand_field(rng, depth)
    op = rng.choice(["+", "-", "<", "<=", ">", ">=", "==", "!=", "&&", "||"])
    return N.Binary(op, _rand_expr(rng, depth - 1), _rand_expr(rng, depth - 1))


def _rand_field(rng, depth):
    return N.FieldAccess(_rand_expr(rng, depth - 1), rng.choice(["v", "next"]))


def _rand_stmt(rng, depth):
    roll = rng.random()
    if roll < 0.35 or depth <= 0:
        return N.ExprStmt(N.Assign(N.Var("t"), _rand_expr(rng, 2)))
    if roll < 0.55:
        els = _rand_stmt(rng, depth - 1) if rng.random() < 0.5 else None
        return N.If(_rand_expr(rng, 2), _rand_stmt(rng, depth - 1), els)
    if roll < 0.7:
        return N.While(_rand_expr(rng, 2), _rand_stmt(rng, depth - 1))
    if roll < 0.85:
        # parser unwraps one-statement blocks, so always emit two
        return N.Block([_rand_stmt(rng, 0), _rand_stmt(rng, 0)])
    return N.Return(_rand_expr(rng, 2))


def test_random_ast_round_trips():
    rng = random.Random(1337)
    for i in range(40):
        body = [_rand_stmt(rng, 3) for _ in range(rng.randrange(1, 4))]
        body.append(N.Return(N.Var("t")))
        prog = N.Program(
            structs=[],
            functions=[N.FunctionDef("f", N.INT,
                                     [("a", N.INT), ("b", N.INT)],
                                     [("t", N.INT)], body)],
        )
        text = N.render_program(prog)
        assert parse(text) == prog, f"iteration {i}:\n{text}"


# ---------------------------------------------------------------- resolver

def test_observer_and_modifier_sets(dll_index, branch_index, setter_index):
    # every non-void function can be used as an observer; every function is
    # a potential modifier
    assert dll_index.observers == {"append", "find", "head", "init",
                                   "last", "length", "reverse"}
    assert set(dll_index.functions) == dll_index.observers
    assert branch_index.observers == {"branch"}
    assert setter_index.observers == set()
    assert set(setter_index.functions) == {"set_val"}


def test_pointer_conversion_warning(dll_index):
    # `last` funnels head's void* result into a struct List* return slot
    assert any("last" in w and "void*" in w for w in dll_index.warnings)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        load_program("int f(int a) { return b; }")


def test_unknown_field():
    with pytest.raises(UnknownField):
        load_program("struct S { int a; };\nint f(struct S* s) { return s->b; }")


def test_arrow_on_int_is_a_type_error():
    with pytest.raises(TypeMismatch):
        load_program("int f(int a) { if (a->x > 0) return 1; return 0; }")


def test_call_arity_checked():
    with pytest.raises(TypeMismatch):
        load_program("int g(int a) { return a; }\nint f(int a) { return g(a, a); }")


def test_duplicate_function():
    with pytest.raises(DuplicateDefinition):
        load_program("int f(int a) { return a; }\nint f(int b) { return b; }")


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
