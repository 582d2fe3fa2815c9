"""Tokenizer for the C fragment accepted by the tool.

Comments (// and /* */) and preprocessor lines (#...) are skipped; every
token keeps its 1-based line/column for diagnostics.
"""

from ..record import Frozen, setfield

KEYWORDS = {"int", "void", "struct", "if", "else", "while", "return", "NULL"}

# longest-match first
PUNCTS = [
    "->", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", ";", ",", "*", "=", "<", ">", "+", "-", "!",
]


class IllegalCharacter(Exception):
    def __init__(self, ch: str, line: int, col: int):
        super().__init__(f"illegal character {ch!r} at {line}:{col}")
        self.ch = ch
        self.line = line
        self.col = col


class Token(Frozen):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        setfield(self, "kind", kind)  # "ident" | "int" | "kw" | "punct" | "eof"
        setfield(self, "text", text)
        setfield(self, "line", line)
        setfield(self, "col", col)

    def _key(self):
        return (self.kind, self.text, self.line, self.col)

    def __repr__(self):
        return f"{self.kind}({self.text})@{self.line}:{self.col}"


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if src[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = src[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if c == "#":  # preprocessor line, e.g. #include — ignored wholesale
            while i < n and src[i] != "\n":
                advance(1)
            continue
        if src.startswith("//", i):
            while i < n and src[i] != "\n":
                advance(1)
            continue
        if src.startswith("/*", i):
            advance(2)
            while i < n and not src.startswith("*/", i):
                advance(1)
            if i < n:
                advance(2)
            continue
        if c.isdigit():
            l0, c0 = line, col
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(Token("int", src[i:j], l0, c0))
            advance(j - i)
            continue
        if c.isalpha() or c == "_":
            l0, c0 = line, col
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            kind = "kw" if text in KEYWORDS else "ident"
            toks.append(Token(kind, text, l0, c0))
            advance(j - i)
            continue
        for p in PUNCTS:
            if src.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                advance(len(p))
                break
        else:
            raise IllegalCharacter(c, line, col)
    toks.append(Token("eof", "", line, col))
    return toks
