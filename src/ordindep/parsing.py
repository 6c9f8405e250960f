"""Text formats: formulas, rule bases, and distribution files.

This module reads and writes all of the package's formula text.  The
printer, ``format_formula``, takes its operators' precedences from the
parser's table, and the tokenizer reads names with ``logic.ATOM_NAME``,
the pattern ``Vocabulary`` checks atom names against.

Formula grammar, loosest to tightest: `<->`, `->` (right associative),
`|`, `&`, `!`, parentheses.  `true` and `false` are constants, in any
case; `wrt` and `given` are reserved for indep directives and rejected
inside formulas.  ``Vocabulary`` refuses all four as atom names in any
case, so a name in a formula is never both an atom and a reserved word.

A rule base file holds one `atoms:` line, then `rule:` and `indep:` lines
in any order; `#` starts a comment.  A distribution file holds `atoms:`,
`top:`, then one line per world.  World keys are either a bitstring read
as a binary number (bit i of the value is atom i, so the leftmost digit
is the last atom) or a pattern of literals naming every atom once, like
`a !c`.  `top` and the levels are ASCII decimals, ``-?[0-9]+``.
Unlisted worlds sit at level 0.

A formula is read in one pass: one ``findall`` splits it into token
texts, and precedence climbing builds the tree from them.  Columns are
worked out only when a parse fails, for its error.  A parsed formula's
atom leaves are the shared ``logic.ATOMS`` nodes, so a parse builds only
the operator nodes above them.

``parse_formula`` answers a repeated query from a memo: the texts parsed
over a vocabulary's atoms, in a table ``vocab._parsed`` that equal
vocabularies share, so a hit is one probe of that table with the text,
which builds no object; the atom names are neither hashed nor compared.
It returns the very formula the first successful parse built, along with
the masks already memoized on its nodes.  The memo holds at most
``MEMO_NODES`` (2,048) formula nodes, counted as the parser counts them
and summed over every vocabulary's table, and drops the oldest texts,
whichever table holds them, to stay within that; a formula larger than
the whole bound is not stored.  So the masks it can pin come to at most
2,048 * 2**n / 8 bytes for n atoms: 4 MB at 14 atoms, 16 MB at 16.  A
failed parse is never stored, so every error is raised afresh.
``parse_kb`` and ``parse_dist`` neither read nor fill the memo: each
call parses its document once, a text that repeats in it included, and
storing a document's texts would evict the query texts the memo serves.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterator

from .logic import (
    ATOM_NAME, ATOMS, FALSE, RESERVED_WORDS, TRUE, Atom, Formula, Not, And, Or, Record, Vocabulary, iff, implies,
)
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


# One token per match: an operator, a parenthesis, a name, or any other
# non-space character, which is always an error.  Whitespace between
# tokens is skipped by the scan, so a token's text is its kind.
_TOKEN_RE = re.compile(rf"<->|->|[()!&|]|{ATOM_NAME.pattern}|\S")

_PUNCTUATION = frozenset(("<->", "->", "(", ")", "!", "&", "|"))
_CONSTANTS = {"true": TRUE, "false": FALSE}

# Parentheses, negations and right-nested implications make the parser
# recurse, and every operator adds a level to the tree that the recursive
# walks downstream (masks, formatting, equality) descend; both are held at
# this depth so that deep input ends in a ParseError, not a RecursionError.
MAX_FORMULA_DEPTH = 100

# `<->` repeats both operands in the tree it builds, so each one doubles
# the work of every walk downstream; the tree's node count is held here.
MAX_FORMULA_SIZE = 10_000

_END = "unexpected end of formula"
_TOO_DEEP = f"formula nested more than {MAX_FORMULA_DEPTH} levels deep"
_TOO_BIG = f"formula expands to more than {MAX_FORMULA_SIZE} nodes"

# Binary operators, loosest first.  Each row is: precedence, constructor,
# the height the built tree adds over its left and its right operand, and
# its node count as base + mult * (left size + right size); `<->` and `->`
# expand into And/Or/Not trees, so their rows count those nodes.
_BINARY = {
    "<->": (1, iff, 3, 3, 5, 2),
    "->": (2, implies, 2, 1, 2, 1),
    "|": (3, Or, 1, 1, 1, 1),
    "&": (4, And, 1, 1, 1, 1),
}


class _Fail(Exception):
    """A parse error as (message, index of the token it is reported at);
    the index is the token count for the end of the formula."""


def _climb(
    tokens: list[str], i: int, min_prec: int, nesting: int, atom_index: dict[str, int]
) -> tuple[Formula, int, int, int]:
    """Precedence climbing from tokens[i]: an operand (any `!`s, then a
    parenthesized formula, an atom or a constant), then every operator
    binding at least as tightly as min_prec, tighter operators on the right
    folded in first.  nesting counts the enclosing `(`, `!` and `->` levels;
    atom_index maps each atom name to its index.
    Returns the formula, the index after it, and its height and node count:
    0 and 1 for an atom or a constant."""
    start, depth = i, nesting
    try:
        tok = tokens[i]
        while tok == "!":
            depth += 1
            if depth > MAX_FORMULA_DEPTH:
                raise _Fail(_TOO_DEEP, i)
            i += 1
            tok = tokens[i]
    except IndexError:
        raise _Fail(_END, i) from None
    first = i
    if tok == "(":
        if depth >= MAX_FORMULA_DEPTH:
            raise _Fail(_TOO_DEEP, i)
        formula, i, height, size = _climb(tokens, i + 1, 1, depth + 1, atom_index)
        if i == len(tokens):
            raise _Fail(_END, i)
        if tokens[i] != ")":
            raise _Fail(f"expected ')', got {tokens[i]!r}", i)
    else:
        # no atom name is a reserved word in any case, so atoms come first
        atom = atom_index.get(tok)
        if atom is not None:
            formula = ATOMS[atom]
        else:
            lowered = tok.lower()
            formula = _CONSTANTS.get(lowered)
            if formula is None:
                if lowered in RESERVED_WORDS:
                    raise _Fail(f"reserved word {tok!r} cannot appear in a formula", i)
                if ATOM_NAME.match(tok):
                    raise _Fail(f"unknown atom: {tok}", i)
                raise _Fail(f"unexpected token {tok!r}", i)
        height, size = 0, 1
    i += 1
    while first > start:  # the `!`s, innermost first
        first -= 1
        height += 1
        size += 1
        if height > MAX_FORMULA_DEPTH:
            raise _Fail(_TOO_DEEP, first)
        if size > MAX_FORMULA_SIZE:
            raise _Fail(_TOO_BIG, first)
        formula = Not(formula)
    end = len(tokens)
    while i < end:
        row = _BINARY.get(tokens[i])
        if row is None or row[0] < min_prec:
            break
        prec, build, left_height, right_height, base, mult = row
        if build is implies:
            # right associative: the right operand takes further `->`s
            if nesting >= MAX_FORMULA_DEPTH:
                raise _Fail(_TOO_DEEP, i)
            right, after, h, n = _climb(tokens, i + 1, prec, nesting + 1, atom_index)
        else:
            right, after, h, n = _climb(tokens, i + 1, prec + 1, nesting, atom_index)
        height = max(height + left_height, h + right_height)
        size = base + mult * (size + n)
        if height > MAX_FORMULA_DEPTH:
            raise _Fail(_TOO_DEEP, i)
        if size > MAX_FORMULA_SIZE:
            raise _Fail(_TOO_BIG, i)
        formula = build(formula, right)
        i = after
    return formula, i, height, size


# The printer reads the parser's tables: its binary operators take their
# precedences from _BINARY, `!` binds one level tighter than the tightest of
# them, and a constant is written as the word _CONSTANTS reads.
_INFIX = {Or: "|", And: "&"}
_NOT_PREC = max(row[0] for row in _BINARY.values()) + 1
_WORDS = {constant: word for word, constant in _CONSTANTS.items()}


def _fmt(formula: Formula, vocab: Vocabulary, prec: int) -> str:
    op = _INFIX.get(type(formula))
    if op is not None:
        own = _BINARY[op][0]
        # right side one level tighter so a reparse rebuilds the same tree
        text = f"{_fmt(formula.left, vocab, own)} {op} {_fmt(formula.right, vocab, own + 1)}"
        return f"({text})" if prec > own else text
    if isinstance(formula, Not):
        return "!" + _fmt(formula.child, vocab, _NOT_PREC)
    if isinstance(formula, Atom):
        if formula.index >= vocab.n:
            raise ValueError(f"atom index {formula.index} out of range for {vocab.n} atoms")
        return vocab.atoms[formula.index]
    word = _WORDS.get(formula)
    if word is None:
        raise TypeError(f"not a formula: {formula!r}")
    return word


def format_formula(formula: Formula, vocab: Vocabulary) -> str:
    """Concrete syntax; reparsing yields a structurally equal formula."""
    return _fmt(formula, vocab, 0)


def _located(text: str, line: int, col_offset: int) -> list[tuple[str, int]]:
    """Each token of text with its column; raises the ParseError for the
    first character that starts no token."""
    located = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        column = col_offset + m.start() + 1
        if tok not in _PUNCTUATION and not ATOM_NAME.match(tok):
            raise ParseError(f"unexpected character {tok!r}", line, column)
        located.append((tok, column))
    return located


def _parse(text: str, vocab: Vocabulary, line: int, col_offset: int) -> tuple[Formula, int]:
    """The formula text denotes over vocab, built afresh, and its node
    count; a failure raises the ParseError for it at the given line, with
    columns counted from col_offset."""
    tokens = _TOKEN_RE.findall(text)
    try:
        # the name -> index dict behind vocab.index, where a miss is no error
        formula, at, _, size = _climb(tokens, 0, 1, 0, vocab._index)
        if at == len(tokens):
            return formula, size
        message = f"unexpected token {tokens[at]!r}"
    except _Fail as e:
        message, at = e.args
    # A parse that succeeds has read every token as an operator, a
    # parenthesis or a name, so only a failed one needs the columns and the
    # check for unexpected characters, which are reported first.
    located = _located(text, line, col_offset)
    column = located[at][1] if at < len(located) else col_offset + len(text) + 1
    raise ParseError(message, line, column)


# The memo's bound, in formula nodes (see the module docstring).  Queries
# over one rule base ask a few hundred distinct texts, a few nodes each.
MEMO_NODES = 2_048

# (vocabulary table, text, node count) for every held formula, oldest first
_memo: deque[tuple[dict[str, Formula], str, int]] = deque()
_memo_nodes = 0  # the node counts in _memo, summed


def parse_formula(text: str, vocab: Vocabulary) -> Formula:
    """The formula text denotes over vocab, from the memo when the same
    text was parsed over the same atom names before."""
    global _memo_nodes
    table = vocab._parsed
    formula = table.get(text)
    if formula is not None:
        return formula
    formula, size = _parse(text, vocab, 0, 0)
    if size <= MEMO_NODES:
        _memo_nodes += size
        while _memo_nodes > MEMO_NODES:
            old_table, old_text, old_size = _memo.popleft()
            _memo_nodes -= old_size
            old_table.pop(old_text, None)  # None: threads parsing one text at once each queue it
        table[text] = formula
        _memo.append((table, text, size))
    return formula


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
        return Vocabulary(names)
    except ValueError as e:
        raise ParseError(str(e), line, rest_offset + 1) from None


def _parse_parts(rest: str, cuts: tuple, vocab: Vocabulary, line: int, rest_offset: int) -> list[Formula]:
    """The formula between each ``(start, end)`` cut of a line's rest, in
    order; an error is reported at its column in the line."""
    return [_parse(rest[start:end], vocab, line, rest_offset + start)[0] for start, end in cuts]


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
            cuts = ((0, split_at), (split_at + len(RULE_SEPARATOR), len(rest)))
            rules.append(Rule(*_parse_parts(rest, cuts, vocab, line, rest_offset)))
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
            cuts = ((0, wrt_m.start()), (wrt_m.end(), given_m.start()), (given_m.end(), len(rest)))
            directives.append(IndepDirective(*_parse_parts(rest, cuts, vocab, line, rest_offset)))
        else:
            raise ParseError(f"unknown directive: {head!r}", line, 1)
    if vocab is None:
        raise ParseError("missing atoms line", 0, 0)
    if not rules:
        raise ParseError("the file declares no rules", 0, 0)
    return ParsedDocument(vocab, rules, directives)


def format_rule(rule: Rule, vocab: Vocabulary) -> str:
    return f"{format_formula(rule.antecedent, vocab)} {RULE_SEPARATOR} {format_formula(rule.consequent, vocab)}"


def format_directive(d: IndepDirective, vocab: Vocabulary) -> str:
    """``C wrt E given X``, the text after `indep:` that reads back as d."""
    conclusion, extra, context = (format_formula(f, vocab) for f in (d.conclusion, d.extra, d.context))
    return f"{conclusion} wrt {extra} given {context}"


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


def _integer(rest: str, what: str, line: int, column: int) -> int:
    """The integer the stripped rest spells in ASCII decimal, ``-?[0-9]+``;
    ``int()`` alone would also take ``+2``, ``1_0`` and the digits of other
    scripts."""
    text = rest.strip()
    try:
        if re.fullmatch(r"-?[0-9]+", text):
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise ParseError(f"{what} must be an integer, got {text!r}", line, column)


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
            top = _integer(rest, "top", line, rest_offset + 1)
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
            level = _integer(rest, "level", line, rest_offset + 1)
            if not (0 <= level <= top):
                raise ParseError(f"level {level} out of range 0..{top}", line, rest_offset + 1)
            levels[world] = level
    if vocab is None:
        raise ParseError("missing atoms line", 0, 0)
    if top is None:
        raise ParseError("missing top line", 0, 0)
    filled = [levels.get(w, 0) for w in range(vocab.world_count)]
    if max(filled) != top:
        raise ParseError("distribution has no world at the top level", top_line, 1)
    return Dist(vocab, top, filled)


def format_dist(d: Dist) -> str:
    lines = [f"atoms: {' '.join(d.vocab.atoms)}", f"top: {d.top}"]
    for w, level in enumerate(d.levels):
        lines.append(f"{d.vocab.format_world(w)}: {level}")
    return "\n".join(lines) + "\n"
