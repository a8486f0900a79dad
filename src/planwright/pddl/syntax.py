"""S-expression reading with source spans, in one pass over the text.

`read_forms` matches lexemes with a single regular expression and builds
`Symbol` and `SList` nodes as it goes; there is no separate token list.
Identifiers are case-insensitive and normalized to lower case. Every node
records its line and column so downstream diagnostics can point at the
offending construct; reading never crashes on arbitrary text, it raises
`PddlError`. Lists nest at most `MAX_DEPTH` deep, so the recursive walkers
downstream (parsing, rendering, normal forms, validation) never come near
the interpreter's recursion limit.
"""
from __future__ import annotations

import re
from typing import Optional, Union

from ..values import Value, set_field

LEXICAL_ERROR = "lexical-error"
UNBALANCED = "unbalanced-parentheses"
SYNTAX_ERROR = "syntax-error"
UNKNOWN_REQUIREMENT = "unknown-requirement"
UNSUPPORTED_FEATURE = "unsupported-feature"
UNDECLARED = "undeclared-name"
INVALID_MODEL = "invalid-model"
MALFORMED_STEP = "malformed-step"
TOO_DEEP = "too-deep"

# Far above the nesting of any shipped file (5) and far below the depth at
# which a recursive walker fails (about 330 nested `Not`s in `str()`).
MAX_DEPTH = 64


class PddlError(ValueError):
    """A diagnostic with a source span, rendered as file:line:col: code: message."""

    def __init__(self, code: str, message: str, line: int = 1, col: int = 1, filename: str = "<pddl>"):
        self.code = code
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(self.render())

    def render(self) -> str:
        return f"{self.filename}:{self.line}:{self.col}: {self.code}: {self.message}"


# Reading builds a node per lexeme, so the nodes write out the `__init__`
# that `Value` would run generically.


class Symbol(Value):
    text: str
    line: int
    col: int

    def __init__(self, text: str, line: int, col: int):
        set_field(self, "text", text)
        set_field(self, "line", line)
        set_field(self, "col", col)

    def __str__(self) -> str:
        return self.text


class SList(Value):
    items: tuple["SExpr", ...]
    line: int
    col: int

    def __init__(self, items: tuple["SExpr", ...], line: int, col: int):
        set_field(self, "items", items)
        set_field(self, "line", line)
        set_field(self, "col", col)


SExpr = Union[Symbol, SList]

# One lexeme per match: a parenthesis, a name, a comment or a line break.
# Whitespace is spelled out rather than written \s, which would also take
# \x1c-\x1f, \x85 and \xa0 out of names instead of reporting them.
_LEXEME = re.compile(r"[()]|[^ \t\r\n\f\v();]+|;[^\n]*|\n")


def read_forms(text: str, filename: str = "<pddl>") -> list[SExpr]:
    """Read every top-level s-expression, enforcing balanced parentheses.

    A lexical error anywhere in the text wins over a structural one, so the
    first unmatched ')' or '(' opening a list deeper than `MAX_DEPTH` is only
    reported once the whole text is read, and an unclosed '(' after that.
    """
    stack: list[tuple[list[SExpr], int, int]] = []
    current: list[SExpr] = []
    structural: Optional[tuple[str, str, int, int]] = None
    line, line_start = 1, 0
    for match in _LEXEME.finditer(text):
        lexeme = match.group()
        col = match.start() - line_start + 1
        if lexeme == "(":
            if len(stack) == MAX_DEPTH and structural is None:
                structural = (TOO_DEEP, f"lists nest more than {MAX_DEPTH} deep", line, col)
            stack.append((current, line, col))
            current = []
        elif lexeme == ")":
            if stack:
                parent, open_line, open_col = stack.pop()
                parent.append(SList(tuple(current), open_line, open_col))
                current = parent
            elif structural is None:
                structural = (UNBALANCED, "unmatched ')'", line, col)
        elif lexeme == "\n":
            line += 1
            line_start = match.end()
        elif lexeme[0] != ";":
            if not lexeme.isprintable():
                at = next(i for i, ch in enumerate(lexeme) if not ch.isprintable())
                raise PddlError(LEXICAL_ERROR, f"unprintable byte {lexeme[at]!r}", line, col + at, filename)
            current.append(Symbol(lexeme.lower(), line, col))
    if structural is not None:
        raise PddlError(*structural, filename)
    if stack:
        _, line, col = stack[-1]
        raise PddlError(UNBALANCED, "unclosed '('", line, col, filename)
    return current


def expect_list(expr: SExpr, what: str, filename: str) -> SList:
    if not isinstance(expr, SList):
        raise PddlError(SYNTAX_ERROR, f"expected {what}, got symbol {expr.text!r}", expr.line, expr.col, filename)
    return expr


def expect_symbol(expr: SExpr, what: str, filename: str) -> Symbol:
    if not isinstance(expr, Symbol):
        raise PddlError(SYNTAX_ERROR, f"expected {what}, got a list", expr.line, expr.col, filename)
    return expr
