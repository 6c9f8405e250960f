"""Text formats: formulas, rule bases, and distribution files.

Formula grammar, loosest to tightest: `<->`, `->` (right associative),
`|`, `&`, `!`, parentheses.  `true` and `false` are constants; `wrt` and
`given` are reserved for indep directives and rejected inside formulas.

A rule base file holds one `atoms:` line, then `rule:` and `indep:` lines
in any order; `#` starts a comment.  A distribution file holds `atoms:`,
`top:`, then one line per world.  World keys are either a bitstring read
as a binary number (bit i of the value is atom i, so the leftmost digit
is the last atom) or a pattern of literals naming every atom once, like
`a !c`.  Unlisted worlds sit at level 0.

A parsed formula's atom leaves are the shared ``logic.ATOMS`` nodes, so a
parse builds only the operator nodes above them.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .logic import ATOMS, FALSE, TRUE, Formula, Not, And, Or, Record, Vocabulary, format_formula, iff, implies
from .measures import Dist
from .ranking import Rule, RuleBase, inject_independence

RULE_SEPARATOR = "|~"


class ParseError(ValueError):
    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        if self.line:
            return f"line {self.line}, column {self.column}: {self.message}"
        return self.message


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


# Parentheses, negations and right-nested implications make the parser
# recurse, and every operator adds a level to the tree that the recursive
# walks downstream (masks, formatting, equality) descend; both are held at
# this depth so that deep input ends in a ParseError, not a RecursionError.
MAX_FORMULA_DEPTH = 100

# `<->` repeats both operands in the tree it builds, so each one doubles
# the work of every walk downstream; the tree's node count is held here.
MAX_FORMULA_SIZE = 10_000


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


# -- rule base files -----------------------------------------------------


class IndepDirective(Record):
    """One `indep: <conclusion> wrt <extra> given <context>` line."""

    conclusion: Formula
    extra: Formula
    context: Formula


class ParsedDocument(Record):
    vocab: Vocabulary
    rules: tuple[Rule, ...]
    directives: tuple[IndepDirective, ...]

    def base(self) -> RuleBase:
        return RuleBase(self.vocab, self.rules)

    def injected_base(self) -> RuleBase:
        """The rule base with every indep directive turned into a rule."""
        kb = self.base()
        for d in self.directives:
            kb = inject_independence(kb, d.context, d.extra, d.conclusion)
        return kb


def _directives(text: str) -> Iterator[tuple[int, str, str, int]]:
    """``(line, head, rest, rest_offset)`` for each line of a `.kb` or
    `.dist` file that is not blank once its `#` comment is cut off: head is
    the stripped text before the first `:`, rest the text after it, which
    starts at column rest_offset + 1."""
    for line, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        head, sep, rest = stripped.partition(":")
        if not sep:
            raise ParseError(f"expected ':' in {stripped.strip()!r}", line, 1)
        yield line, head.strip(), rest, len(head) + len(sep)


def _parse_atoms(rest: str, vocab: Vocabulary | None, line: int, rest_offset: int) -> Vocabulary:
    """The vocabulary an `atoms:` line declares; vocab is the one declared
    by an earlier line, if any."""
    if vocab is not None:
        raise ParseError("duplicate atoms line", line, 1)
    names = rest.split()
    if not names:
        raise ParseError("atoms line names no atoms", line, rest_offset + 1)
    try:
        return Vocabulary(tuple(names))
    except ValueError as e:
        raise ParseError(str(e), line, rest_offset + 1) from None


def parse_kb(text: str) -> ParsedDocument:
    vocab: Vocabulary | None = None
    rules: list[Rule] = []
    directives: list[IndepDirective] = []
    for line, head, rest, rest_offset in _directives(text):
        if head == "atoms":
            vocab = _parse_atoms(rest, vocab, line, rest_offset)
        elif head == "rule":
            if vocab is None:
                raise ParseError("rule appears before the atoms line", line, 1)
            if rest.count(RULE_SEPARATOR) != 1:
                raise ParseError(
                    f"a rule needs exactly one {RULE_SEPARATOR!r}", line, rest_offset + 1
                )
            split_at = rest.index(RULE_SEPARATOR)
            antecedent = parse_formula(rest[:split_at], vocab, line, rest_offset)
            consequent = parse_formula(
                rest[split_at + len(RULE_SEPARATOR) :],
                vocab,
                line,
                rest_offset + split_at + len(RULE_SEPARATOR),
            )
            rules.append(Rule(antecedent, consequent))
        elif head == "indep":
            if vocab is None:
                raise ParseError("indep appears before the atoms line", line, 1)
            wrt_hits = list(re.finditer(r"\bwrt\b", rest))
            given_hits = list(re.finditer(r"\bgiven\b", rest))
            if len(wrt_hits) != 1 or len(given_hits) != 1:
                raise ParseError(
                    "an indep directive is '<conclusion> wrt <extra> given <context>'",
                    line,
                    rest_offset + 1,
                )
            wrt_m, given_m = wrt_hits[0], given_hits[0]
            if wrt_m.start() > given_m.start():
                raise ParseError("'wrt' must come before 'given'", line, rest_offset + wrt_m.start() + 1)
            conclusion = parse_formula(rest[: wrt_m.start()], vocab, line, rest_offset)
            extra = parse_formula(
                rest[wrt_m.end() : given_m.start()], vocab, line, rest_offset + wrt_m.end()
            )
            context = parse_formula(rest[given_m.end() :], vocab, line, rest_offset + given_m.end())
            directives.append(IndepDirective(conclusion, extra, context))
        else:
            raise ParseError(f"unknown directive: {head!r}", line, 1)
    if vocab is None:
        raise ParseError("missing atoms line", 0, 0)
    if not rules:
        raise ParseError("the file declares no rules", 0, 0)
    return ParsedDocument(vocab, tuple(rules), tuple(directives))


def format_rule(rule: Rule, vocab: Vocabulary) -> str:
    return (
        f"{format_formula(rule.antecedent, vocab)} {RULE_SEPARATOR} "
        f"{format_formula(rule.consequent, vocab)}"
    )


# -- distribution files ---------------------------------------------------


def _world_from_key(key: str, vocab: Vocabulary, line: int) -> int:
    key = key.strip()
    if re.fullmatch(r"[01]+", key):
        if len(key) != vocab.n:
            raise ParseError(
                f"bitstring {key!r} has {len(key)} digits, expected {vocab.n}", line, 1
            )
        return int(key, 2)
    world = 0
    seen = set()
    for tok in key.split():
        name = tok[1:] if tok.startswith("!") else tok
        try:
            i = vocab.index(name)
        except KeyError:
            raise ParseError(f"unknown atom: {name}", line, 1) from None
        if i in seen:
            raise ParseError(f"atom {name!r} appears twice in world pattern", line, 1)
        seen.add(i)
        if not tok.startswith("!"):
            world |= 1 << i
    if len(seen) != vocab.n:
        raise ParseError(
            f"world pattern {key!r} must mention every atom exactly once", line, 1
        )
    return world


def parse_dist(text: str) -> Dist:
    vocab: Vocabulary | None = None
    top: int | None = None
    top_line = 0
    levels: dict[int, int] = {}
    for line, head, rest, rest_offset in _directives(text):
        if head == "atoms":
            vocab = _parse_atoms(rest, vocab, line, rest_offset)
        elif head == "top":
            if top is not None:
                raise ParseError("duplicate top line", line, 1)
            try:
                top = int(rest.strip())
            except ValueError:
                raise ParseError(f"top must be an integer, got {rest.strip()!r}", line, rest_offset + 1) from None
            if top < 1:
                raise ParseError("top must be at least 1", line, rest_offset + 1)
            top_line = line
        else:
            if vocab is None:
                raise ParseError("world line appears before the atoms line", line, 1)
            if top is None:
                raise ParseError("world line appears before the top line", line, 1)
            world = _world_from_key(head, vocab, line)
            if world in levels:
                raise ParseError(f"duplicate world {head!r}", line, 1)
            try:
                level = int(rest.strip())
            except ValueError:
                raise ParseError(
                    f"level must be an integer, got {rest.strip()!r}", line, rest_offset + 1
                ) from None
            if not (0 <= level <= top):
                raise ParseError(f"level {level} out of range 0..{top}", line, rest_offset + 1)
            levels[world] = level
    if vocab is None:
        raise ParseError("missing atoms line", 0, 0)
    if top is None:
        raise ParseError("missing top line", 0, 0)
    filled = tuple(levels.get(w, 0) for w in range(vocab.world_count))
    if max(filled) != top:
        raise ParseError("distribution has no world at the top level", top_line, 1)
    return Dist(vocab, top, filled)


def format_dist(d: Dist) -> str:
    lines = [f"atoms: {' '.join(d.vocab.atoms)}", f"top: {d.top}"]
    for w in range(d.vocab.world_count):
        lines.append(f"{d.vocab.format_world(w)}: {d.levels[w]}")
    return "\n".join(lines) + "\n"
