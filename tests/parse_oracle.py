"""The formula parser that one-pass parsing replaced: a tokenizer pass into
token objects, each with its kind and column, then a parser object.

A reference implementation for ``ordindep.parsing.parse_formula``, which
climbs precedences over the token texts of one ``findall`` and works out
columns only for an error.  ``_TOKEN_RE``, ``_Token``, ``_tokenize``,
``_BINARY`` and ``_FormulaParser`` are kept here unchanged, so a test can
require both parsers to build equal formulas with the same shared leaves,
or to raise the same message at the same line and column, on any input.
"""

from __future__ import annotations

import re

from ordindep.logic import ATOMS, FALSE, TRUE, Formula, Not, And, Or, Vocabulary, iff, implies
from ordindep.parsing import MAX_FORMULA_DEPTH, MAX_FORMULA_SIZE, ParseError


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<iff><->)"
    r"|(?P<implies>->)"
    r"|(?P<not>!)"
    r"|(?P<and>&)"
    r"|(?P<or>\|)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<bad>.)",  # any other character, a newline included
    re.DOTALL,
)


class _Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind: str, text: str, column: int):
        self.kind = kind
        self.text = text
        self.column = column


def _tokenize(text: str, line: int, col_offset: int) -> list[_Token]:
    # the last group matches any one character, so the matches tile the text
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col_offset + m.start() + 1)
        tokens.append(_Token(kind, m.group(), col_offset + m.start() + 1))
    return tokens


# Binary operators, loosest first.  Each row is: precedence, constructor,
# the height the built tree adds over its left and its right operand, and
# its node count as base + mult * (left size + right size); `<->` and `->`
# expand into And/Or/Not trees, so their rows count those nodes.
_BINARY = {
    "iff": (1, iff, 3, 3, 5, 2),
    "implies": (2, implies, 2, 1, 2, 1),
    "or": (3, Or, 1, 1, 1, 1),
    "and": (4, And, 1, 1, 1, 1),
}


class _FormulaParser:
    """Precedence climbing over ``_BINARY``, recursive descent for `!` and
    parentheses.  After each parse_* call, ``height`` and ``size`` hold the
    height and node count of the formula it returned: 0 and 1 for an atom
    or a constant."""

    def __init__(self, tokens: list[_Token], vocab: Vocabulary, line: int, end_column: int):
        self.tokens = tokens
        self.vocab = vocab
        self.line = line
        self.end_column = end_column
        self.pos = 0
        self.nesting = 0
        self.height = 0
        self.size = 1

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of formula", self.line, self.end_column)
        self.pos += 1
        return tok

    def too_deep(self, tok: _Token) -> ParseError:
        return ParseError(
            f"formula nested more than {MAX_FORMULA_DEPTH} levels deep", self.line, tok.column
        )

    def descend(self, tok: _Token) -> None:
        """Enter one level of parser recursion opened by tok."""
        self.nesting += 1
        if self.nesting > MAX_FORMULA_DEPTH:
            raise self.too_deep(tok)

    def grow(self, height: int, size: int, tok: _Token) -> None:
        if height > MAX_FORMULA_DEPTH:
            raise self.too_deep(tok)
        if size > MAX_FORMULA_SIZE:
            raise ParseError(
                f"formula expands to more than {MAX_FORMULA_SIZE} nodes", self.line, tok.column
            )
        self.height = height
        self.size = size

    def parse(self) -> Formula:
        f = self.parse_binary(1)
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected token {tok.text!r}", self.line, tok.column)
        return f

    def parse_binary(self, min_prec: int) -> Formula:
        """An operand, then every operator binding at least as tightly as
        min_prec: tighter operators on the right are folded in first."""
        left = self.parse_unary()
        while (tok := self.peek()) is not None and tok.kind in _BINARY:
            prec, build, left_height, right_height, base, mult = _BINARY[tok.kind]
            if prec < min_prec:
                break
            self.take()
            h, n = self.height, self.size
            if tok.kind == "implies":
                # right associative: the right operand takes further `->`s
                self.descend(tok)
                right = self.parse_binary(prec)
                self.nesting -= 1
            else:
                right = self.parse_binary(prec + 1)
            self.grow(
                max(h + left_height, self.height + right_height), base + mult * (n + self.size), tok
            )
            left = build(left, right)
        return left

    def parse_unary(self) -> Formula:
        tok = self.take()
        if tok.kind == "not":
            self.descend(tok)
            child = self.parse_unary()
            self.nesting -= 1
            self.grow(self.height + 1, self.size + 1, tok)
            return Not(child)
        if tok.kind == "lparen":
            self.descend(tok)
            inner = self.parse_binary(1)
            self.nesting -= 1
            closing = self.take()
            if closing.kind != "rparen":
                raise ParseError(
                    f"expected ')', got {closing.text!r}", self.line, closing.column
                )
            return inner
        self.height, self.size = 0, 1
        if tok.kind == "name":
            lowered = tok.text.lower()
            if lowered == "true":
                return TRUE
            if lowered == "false":
                return FALSE
            if lowered in ("wrt", "given"):
                raise ParseError(
                    f"reserved word {tok.text!r} cannot appear in a formula",
                    self.line,
                    tok.column,
                )
            try:
                return ATOMS[self.vocab.index(tok.text)]
            except KeyError:
                raise ParseError(f"unknown atom: {tok.text}", self.line, tok.column) from None
        raise ParseError(f"unexpected token {tok.text!r}", self.line, tok.column)


def parse_formula(
    text: str, vocab: Vocabulary, line: int = 0, col_offset: int = 0
) -> Formula:
    tokens = _tokenize(text, line, col_offset)
    end_column = col_offset + len(text) + 1
    return _FormulaParser(tokens, vocab, line, end_column).parse()
