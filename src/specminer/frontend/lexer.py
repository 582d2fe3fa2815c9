"""Tokenizer for the C fragment accepted by the tool (see docs/grammar.md).

One compiled regex scans the source. Whitespace is space, tab, CR and LF.
Comments (`//` to end of line, `/* */`, which runs to end of file when
unterminated) and preprocessor lines (first non-whitespace character `#`)
are skipped. Identifiers, integer literals and punctuation are ASCII only;
any other character raises `IllegalCharacter`.

`scan` gives each token as a plain `(kind, text, line, col)` tuple, which
the parser reads. The position is 1-based, and a column is one character
(a tab counts as 1).
"""

import re

KEYWORDS = ("int", "void", "struct", "if", "else", "while", "return", "NULL")

# Each match skips blanks, `//` comments and a preprocessor line at the
# start of the file, none of which holds a newline, then takes one
# alternative. A newline also takes the indentation after it and the
# preprocessor line that it starts, so `#` is skipped only where it leads
# its line. The group that matched says what it was; at end of input none
# does.
_SCAN = re.compile(r"""
    (?: \A[ \t\r]*\#[^\n]* | [ \t\r]+ | //[^\n]* )*
    (?: ((?:%s)(?![A-Za-z0-9_]))              # 1 keyword
      | ([A-Za-z_][A-Za-z0-9_]*)              # 2 identifier
      | ([0-9]+)                              # 3 integer literal
      | (->|==|!=|<=|>=|&&|\|\||[(){};,*=<>+\-!])   # 4 punctuation, longest first
      | (\n[ \t\r]*(?:\#[^\n]*)?)             # 5 newline
      | (/\*(?s:.*?)(?:\*/|\Z))               # 6 block comment
      | \Z
      | (.)                                   # 7 illegal character
    )""" % "|".join(KEYWORDS), re.X)

_KINDS = (None, "kw", "ident", "int", "punct")


class IllegalCharacter(Exception):
    def __init__(self, ch: str, line: int, col: int):
        super().__init__(f"illegal character {ch!r} at {line}:{col}")
        self.ch = ch
        self.line = line
        self.col = col


def scan(src: str) -> list[tuple]:
    """The tokens of `src` as `(kind, text, line, col)` tuples, ending with
    one `("eof", "", line, col)` at the end of the input."""
    toks = []
    append = toks.append
    line = 1
    base = -1  # offset of the last newline: a token at offset i is in column i - base
    for m in _SCAN.finditer(src):
        g = m.lastindex
        if g is None:
            break
        if g < 5:
            append((_KINDS[g], m.group(g), line, m.start(g) - base))
        elif g == 5:
            line += 1
            base = m.start(5)
        elif g == 6:
            text = m.group(6)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                base = m.start(6) + text.rindex("\n")
        else:
            raise IllegalCharacter(m.group(7), line, m.start(7) - base)
    append(("eof", "", line, len(src) - base))
    return toks
