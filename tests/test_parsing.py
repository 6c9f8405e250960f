import copy
import pickle
from functools import reduce

import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ordindep import (
    FALSE,
    TRUE,
    And,
    Atom,
    Dist,
    Not,
    Or,
    ParseError,
    Vocabulary,
    format_directive,
    format_dist,
    format_formula,
    format_rule,
    iff,
    implies,
    parse_dist,
    parse_formula,
    parse_kb,
)
from ordindep.logic import ATOMS, model_mask
from ordindep import logic, parsing
from ordindep.parsing import (
    MAX_FORMULA_DEPTH, MAX_FORMULA_SIZE, MEMO_NODES, _TOKEN_RE, _climb, _located, _parse, world_keys,
)
from ordindep.ranking import Rule, RuleOrigin

import parse_oracle
from strategies import dists

PBFL = Vocabulary(("p", "b", "f", "l"))
AB = Vocabulary(("a", "b"))
A, B = Atom(0), Atom(1)


class TestFormulaGrammar:
    def test_precedence_not_over_and_over_or(self):
        v = Vocabulary(("p", "q", "r"))
        f = parse_formula("p & !q | r", v)
        assert f == Or(And(Atom(0), Not(Atom(1))), Atom(2))

    def test_parens(self):
        v = Vocabulary(("p", "q", "r"))
        f = parse_formula("p & !(q | r)", v)
        assert f == And(Atom(0), Not(Or(Atom(1), Atom(2))))

    def test_implies_right_associative(self):
        v = Vocabulary(("a", "b", "c"))
        f = parse_formula("a -> b -> c", v)
        assert f == implies(Atom(0), implies(Atom(1), Atom(2)))

    def test_iff_binds_loosest(self):
        v = Vocabulary(("a", "b", "c"))
        f = parse_formula("a -> b <-> c", v)
        assert f == iff(implies(Atom(0), Atom(1)), Atom(2))

    def test_constants_case_insensitive(self):
        f = parse_formula("TRUE & False", AB)
        assert format_formula(f, AB) == "true & false"

    def test_double_negation(self):
        assert parse_formula("!!a", AB) == Not(Not(A))

    def test_unknown_atom_position(self):
        with pytest.raises(ParseError) as ei:
            _parse("a & zz", AB, 4, 0)
        assert "unknown atom: zz" in str(ei.value)
        assert ei.value.line == 4
        assert ei.value.column == 5

    def test_reserved_word_rejected(self):
        with pytest.raises(ParseError, match="reserved word"):
            parse_formula("wrt", AB)
        with pytest.raises(ParseError, match="unexpected token"):
            parse_formula("a wrt b", AB)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_formula("a % b", AB)

    def test_unexpected_end(self):
        with pytest.raises(ParseError, match="unexpected end"):
            parse_formula("a &", AB)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="unexpected end"):
            parse_formula("(a | b", AB)
        with pytest.raises(ParseError, match="expected '\\)'"):
            parse_formula("(a b)", AB)

    def test_trailing_junk(self):
        with pytest.raises(ParseError, match="unexpected token"):
            parse_formula("a b", AB)


class TestPrinter:
    def test_an_atom_outside_the_vocabulary_is_named(self):
        message = "atom index 3 out of range for 1 atoms"
        with pytest.raises(ValueError) as masked:
            model_mask(Atom(3), 1)
        assert str(masked.value) == message
        for write in (
            lambda v: format_formula(Atom(3), v),
            lambda v: format_formula(Or(Atom(0), Not(Atom(3))), v),
            lambda v: format_rule(Rule(Atom(0), Atom(3)), v),
        ):
            with pytest.raises(ValueError) as ei:
                write(Vocabulary(("a",)))
            assert str(ei.value) == message

    def test_directive_reads_back(self, data_dir):
        doc = parse_kb((data_dir / "nolegs.kb").read_text())
        texts = [format_directive(d, doc.vocab) for d in doc.directives]
        assert texts == ["l wrt p given b", "f wrt n given b"]
        d = parsing.IndepDirective(Or(A, B), implies(A, B), Not(And(A, B)))
        text = format_directive(d, AB)
        assert text == "a | b wrt !a | b given !(a & b)"
        assert parse_kb(f"atoms: a b\nrule: a |~ b\nindep: {text}\n").directives == (d,)


class TestNestingLimit:
    # deep input must end in ParseError, never in a RecursionError from the
    # parser or from the recursive mask, format and equality walks after it
    @pytest.mark.parametrize(
        "text,column",
        [
            ("(" * 300 + "a" + ")" * 300, 101),
            ("!" * 2000 + "a", 101),
            ("a" + "&a" * 2000, 202),
            ("a" + "->a" * 1200, 302),
            ("(" * 60 + "!" * 60 + "a" + ")" * 60, 101),
        ],
    )
    def test_too_deep_is_a_parse_error(self, text, column):
        with pytest.raises(ParseError, match="nested more than 100 levels deep") as ei:
            _parse(text, AB, 3, 5)
        assert ei.value.line == 3
        assert ei.value.column == 5 + column

    def test_limit_itself_parses(self):
        assert MAX_FORMULA_DEPTH == 100
        assert parse_formula("(" * 100 + "a" + ")" * 100, AB) == A
        f = parse_formula("!" * 100 + "a", AB)
        assert model_mask(f, 2) == model_mask(A, 2)
        assert parse_formula(format_formula(f, AB), AB) == f
        chain = parse_formula("a" + " | b" * 100, AB)
        assert model_mask(chain, 2) == model_mask(Or(A, B), 2)

    def test_kb_reports_line_and_column(self):
        text = "atoms: a\nrule: a |~ " + "!" * 150 + "a\n"
        with pytest.raises(ParseError) as ei:
            parse_kb(text)
        assert str(ei.value) == "line 2, column 112: formula nested more than 100 levels deep"



def _nodes(f) -> int:
    if isinstance(f, Not):
        return 1 + _nodes(f.child)
    if isinstance(f, (And, Or)):
        return 1 + _nodes(f.left) + _nodes(f.right)
    return 1


class TestSizeLimit:
    # `<->` repeats both operands, so `a` and k more `<-> a` make a tree of
    # 8 * 2**k - 7 nodes: 8185 for ten operators, 32761 for twelve
    def test_iff_chain(self):
        assert MAX_FORMULA_SIZE == 10_000
        assert _nodes(parse_formula("a" + " <-> a" * 10, AB)) == 8185
        with pytest.raises(ParseError, match="formula expands to more than 10000 nodes") as ei:
            _parse("a" + " <-> a" * 12, AB, 3, 5)
        # the eleventh operator is the first past the limit
        assert ei.value.line == 3
        assert ei.value.column == 5 + len("a" + " <-> a" * 10) + 2

    def test_limit_itself_parses(self):
        def chain(k):
            return "(a" + " <-> a" * k + ")"

        # 8185 + 1017 + 505 + 249 + 25 + 9 + 4 nodes joined by six `&`
        text = " & ".join([chain(10), chain(7), chain(6), chain(5), chain(2), chain(1), "!!!a"])
        assert _nodes(parse_formula(text, AB)) == MAX_FORMULA_SIZE
        with pytest.raises(ParseError, match="more than 10000 nodes"):
            parse_formula(text.replace("!!!a", "!!!!a"), AB)

    def test_kb_reports_line_and_column(self):
        rule = "rule: b |~ a" + " <-> a" * 12
        with pytest.raises(ParseError) as ei:
            parse_kb("atoms: a b\n" + rule + "\n")
        column = len("rule: b |~ a" + " <-> a" * 10) + 2
        assert str(ei.value) == f"line 2, column {column}: formula expands to more than 10000 nodes"


def _height(f) -> int:
    if isinstance(f, Not):
        return 1 + _height(f.child)
    if isinstance(f, (And, Or)):
        return 1 + max(_height(f.left), _height(f.right))
    return 0


# Syntax trees as tuples: (name,) for an atom or a constant, ("!", child),
# or (op, left, right).  Precedences as the parsing module documents them,
# loosest first; `->` is right associative, the other operators left.
_PREC = {"<->": 1, "->": 2, "|": 3, "&": 4}
_UNARY_PREC = 5
_BUILD = {"<->": iff, "->": implies, "|": Or, "&": And}
ABC = Vocabulary(("a", "b", "c"))


@st.composite
def _syntax_trees(draw, depth: int = 5):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return (draw(st.sampled_from(["a", "b", "c", "true", "false", "TRUE"])),)
    op = draw(st.sampled_from(["!", *_PREC]))
    kids = 1 if op == "!" else 2
    return (op, *(draw(_syntax_trees(depth - 1)) for _ in range(kids)))


def _print(tree, context_prec: int = 0) -> str:
    """Concrete syntax with only the parentheses the precedences need."""
    if len(tree) == 1:
        return tree[0]
    if tree[0] == "!":
        return "!" + _print(tree[1], _UNARY_PREC)
    op, left, right = tree
    prec = _PREC[op]
    left_prec, right_prec = (prec + 1, prec) if op == "->" else (prec, prec + 1)
    text = f"{_print(left, left_prec)} {op} {_print(right, right_prec)}"
    return f"({text})" if prec < context_prec else text


def _build(tree):
    if len(tree) == 1:
        constants = {"true": TRUE, "false": FALSE}
        name = tree[0].lower()
        return constants[name] if name in constants else Atom(ABC.index(name))
    if tree[0] == "!":
        return Not(_build(tree[1]))
    return _BUILD[tree[0]](_build(tree[1]), _build(tree[2]))


class TestGrammarDifferential:
    """The parser against a reference printer and a plain tree walk."""

    @given(_syntax_trees())
    @example(("->", ("->", ("a",), ("b",)), ("->", ("b",), ("c",))))
    @example(("&", ("a",), ("|", ("b",), ("<->", ("c",), ("a",)))))
    @example(("|", ("a",), ("&", ("b",), ("!", ("c",)))))
    @example(("<->", ("<->", ("a",), ("b",)), ("!", ("->", ("a",), ("b",)))))
    @example(reduce(lambda t, _: ("<->", t, ("a",)), range(11), ("a",)))
    @example(reduce(lambda t, _: ("!", t), range(101), ("a",)))
    def test_tree_height_and_size(self, tree):
        text = _print(tree)
        want = _build(tree)
        height, size = _height(want), _nodes(want)
        if height > MAX_FORMULA_DEPTH or size > MAX_FORMULA_SIZE:
            with pytest.raises(ParseError):
                parse_formula(text, ABC)
            return
        assert parse_formula(text, ABC) == want, text
        _, _, parsed_height, parsed_size = _climb(_TOKEN_RE.findall(text), 0, 1, 0, ABC._index)
        assert (parsed_height, parsed_size) == (height, size), text


# The tokenizer as first written: one anchored match per token, with no
# catch-all group, and an error wherever no token matches.
_ORACLE_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<iff><->)"
    r"|(?P<implies>->)"
    r"|(?P<not>!)"
    r"|(?P<and>&)"
    r"|(?P<or>\|)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
)


def _oracle_tokenize(text: str, line: int, col_offset: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col_offset + pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), col_offset + m.start() + 1))
        pos = m.end()
    return tokens


_KINDS = {"(": "lparen", ")": "rparen", "<->": "iff", "->": "implies", "!": "not", "&": "and", "|": "or"}


def _token_triples(text: str, line: int, col_offset: int) -> list[tuple[str, str, int]]:
    located = _located(text, line, col_offset)
    assert [tok for tok, _ in located] == _TOKEN_RE.findall(text), text
    return [(_KINDS.get(tok, "name"), tok, column) for tok, column in located]


def _outcome(tokenize, text: str, line: int, col_offset: int):
    """The (kind, text, column) list, or the error's message, line and column."""
    try:
        return tokenize(text, line, col_offset)
    except ParseError as e:
        return (e.message, e.line, e.column)


class TestTokenizerDifferential:
    """The one-pass tokenizer against the match loop it replaced."""

    @given(
        st.text(alphabet="abxAZ019_()!&|<->~ \t\n\u00e9", max_size=30),
        st.integers(0, 3),
        st.integers(0, 20),
    )
    @example("a <-> b -> c", 0, 0)
    @example("a < b", 2, 7)
    @example("a -\n> b", 1, 0)
    @example("\u00e9", 0, 0)
    @example("a ~ b", 0, 0)
    @example("  \t", 0, 0)
    @example("", 0, 0)
    def test_same_tokens_or_same_error(self, text, line, col_offset):
        want = _outcome(_oracle_tokenize, text, line, col_offset)
        assert _outcome(_token_triples, text, line, col_offset) == want, text


# Vocabularies of 1, 3, 14 and 16 atoms, with names that differ only in
# case, that contain a reserved word, and that a reserved word contains.
V1 = Vocabulary(("a",))
V3 = Vocabulary(("a", "B", "Truth"))
V14 = Vocabulary(tuple(f"x{i:02d}" for i in range(14)))
V16 = Vocabulary(
    ("a", "A", "b", "given_x", "wrt2", "Truth", "_u", "x00", "x13", "Ab", "aB", "tru", "F", "x_1", "c", "ca")
)
_PIECES = (
    *sorted(set(V1.atoms + V3.atoms + V14.atoms + V16.atoms)),
    "b", "X00", "truth", "GIVEN_X", "zz", "q9",  # names most vocabularies lack, some a case away from known ones
    "true", "True", "TRUE", "false", "False", "wrt", "Wrt", "WRT", "given", "Given", "GIVEN",
    "<->", "->", "!", "&", "|", "(", ")", "<-", "-", "<", ">", "1", "9x", "\u00e9", "%", "~",
)
_SPACES = ("", "", " ", "  ", "\t", "\n")


@st.composite
def _token_texts(draw):
    """Text made mostly of tokens, joined by no space or some whitespace."""
    parts = draw(st.lists(st.tuples(st.sampled_from(_SPACES), st.sampled_from(_PIECES)), max_size=14))
    return "".join(space + piece for space, piece in parts) + draw(st.sampled_from(_SPACES))


@st.composite
def _formula_texts(draw, names: tuple[str, ...], depth: int = 4):
    """Well-formed text over names, with random spacing around operators."""
    kind = draw(st.integers(0, 3)) if depth else 0
    if kind == 0:
        return draw(st.sampled_from(names))
    if kind == 1:
        return "!" + draw(_formula_texts(names, depth - 1))
    if kind == 2:
        return "(" + draw(_formula_texts(names, depth - 1)) + ")"
    op = draw(st.sampled_from(["<->", "->", "|", "&"]))
    space = draw(st.sampled_from(_SPACES))
    return draw(_formula_texts(names, depth - 1)) + space + op + space + draw(_formula_texts(names, depth - 1))


def _cases(vocab: Vocabulary):
    """(vocab, text): token-biased text, or a formula over vocab's atoms."""
    names = vocab.atoms + ("true", "False", "TRUE")
    return st.tuples(st.just(vocab), st.one_of(_token_texts(), _formula_texts(names)))


def _leaves(f) -> list:
    if isinstance(f, Not):
        return _leaves(f.child)
    if isinstance(f, (And, Or)):
        return _leaves(f.left) + _leaves(f.right)
    return [f]


def _parsed(parse, *args):
    """The formula, or the error's message, line and column."""
    try:
        return parse(*args)
    except ParseError as e:
        return (e.message, e.line, e.column)


def _formula_at(text: str, vocab: Vocabulary, line: int, col_offset: int):
    return _parse(text, vocab, line, col_offset)[0]


def _chain(k: int) -> str:
    return "(a" + " <-> a" * k + ")"


_AT_SIZE_LIMIT = " & ".join([_chain(10), _chain(7), _chain(6), _chain(5), _chain(2), _chain(1), "!!!a"])


class TestOracleDifferential:
    """parse_formula and _parse against the tokenizer pass and parser
    object they replaced."""

    @given(st.sampled_from([V1, V3, V14, V16]).flatmap(_cases), st.integers(0, 5), st.integers(0, 40))
    @example((V3, "(" * 300 + "a" + ")" * 300), 3, 5)
    @example((V3, "!" * 2000 + "a"), 3, 5)
    @example((V16, "a" + "&a" * 2000), 3, 5)
    @example((V16, "a" + "->a" * 1200), 3, 5)
    @example((V1, "(" * 60 + "!" * 60 + "a" + ")" * 60), 3, 5)
    @example((V1, "(" * 100 + "a" + ")" * 100), 0, 0)
    @example((V1, "!" * 100 + "a"), 0, 0)
    @example((V16, "a" + " | b" * 100), 0, 0)
    @example((V1, "a" + " <-> a" * 10), 0, 0)
    @example((V1, "a" + " <-> a" * 12), 3, 5)
    @example((V1, _AT_SIZE_LIMIT), 0, 0)
    @example((V1, _AT_SIZE_LIMIT.replace("!!!a", "!!!!a")), 0, 0)
    @example((V1, "!(" + _AT_SIZE_LIMIT + ")"), 0, 0)
    @example((V1, "(" * 300 + "a" + ")" * 300 + " \u00e9"), 1, 2)
    @example((V1, "a" + " <-> a" * 12 + " %"), 0, 0)
    @example((V14, "x03 & !x07"), 0, 0)
    def test_same_formula_or_same_error(self, case, line, col_offset):
        # _parse at the drawn position; then parse_formula, whose errors
        # count columns from 1 on line 0, twice: a miss on the emptied memo,
        # then a hit
        vocab, text = case
        runs = [(_formula_at, (line, col_offset))] + [(parse_formula, ())] * 2
        _clear_memo()
        for parse, position in runs:
            want = _parsed(parse_oracle.parse_formula, text, vocab, *position)
            got = _parsed(parse, text, vocab, *position)
            assert got == want, text
            if not isinstance(want, tuple):
                assert [id(leaf) for leaf in _leaves(got)] == [id(leaf) for leaf in _leaves(want)], text


def _clear_memo() -> None:
    for table, _, _ in parsing._memo:
        table.clear()
    parsing._memo.clear()
    parsing._memo_nodes = 0


def _memo_consistent() -> bool:
    """Every held entry's count is its tree's node count, every formula a
    table holds has one entry, and the running total is their sum,
    within the bound."""
    held = parsing._memo
    tables = {id(table): table for table, _, _ in held}
    return (
        all(size == _nodes(table[text]) for table, text, size in held)
        and sum(map(len, tables.values())) == len(held)
        and parsing._memo_nodes == sum(size for _, _, size in held) <= MEMO_NODES
    )


def _held_texts(vocab: Vocabulary) -> list[str]:
    """The texts the memo holds a formula for over vocab, oldest first."""
    return [text for table, text, _ in parsing._memo if table is vocab._parsed]


class TestFormulaMemo:
    def test_repeat_under_an_equal_vocabulary_is_the_same_object(self):
        text = "a & !b | a"
        first = parse_formula(text, AB)
        assert parse_formula(text, Vocabulary(("a", "b"))) is first
        assert first == _parse(text, AB, 0, 0)[0]
        assert _memo_consistent()

    def test_other_atom_order_is_another_tree(self):
        text = "a & !b"
        ab = parse_formula(text, AB)
        ba = parse_formula(text, Vocabulary(("b", "a")))
        assert ab != ba
        assert ba == _parse(text, Vocabulary(("b", "a")), 0, 0)[0] == And(Atom(1), Not(Atom(0)))
        assert parse_formula(text, AB) is ab
        assert parse_formula(text, Vocabulary(["b", "a"])) is ba

    @pytest.mark.parametrize("copier", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_a_copied_vocabulary_hits_the_originals_entries(self, copier):
        text = "b | !a & b"
        first = parse_formula(text, AB)
        twin = copier(AB)
        assert twin == AB and twin._parsed is AB._parsed
        assert parse_formula(text, twin) is first

    def test_parses_stay_right_past_the_key_cache(self):
        # more distinct atom tuples than _vocab_table remembers, so ("a", "b")
        # drops out and its next vocabulary gets a new table; every parse,
        # memo hit or miss, stays equal to a fresh one over its own order
        _clear_memo()
        text = "a & !b | x0"
        names = [("a", "b", "x0"), ("b", "a", "x0")]
        names += [("a", "b", "x0", f"y{i}") for i in range(logic._VOCAB_KEYS + 1)]
        tables = {}
        for _ in range(2):
            for atoms in names:
                vocab = Vocabulary(atoms)
                tables.setdefault(atoms, []).append(vocab._parsed)
                assert parse_formula(text, vocab) == _parse(text, vocab, 0, 0)[0], atoms
                assert _memo_consistent()
        assert tables[names[0]][0] is not tables[names[0]][1]
        assert len({id(table) for atoms in names for table in tables[atoms]}) == 2 * len(names)

    @pytest.mark.parametrize("text", ["a & zz", "a %", "(a", "a b", "!" * 150 + "a", "a" + " <-> a" * 12])
    def test_errors_are_raised_afresh_and_never_stored(self, text):
        want = _parsed(parse_oracle.parse_formula, text, AB)
        assert isinstance(want, tuple)
        for _ in range(3):
            assert _parsed(parse_formula, text, AB) == want
            assert text not in _held_texts(AB)

    def test_kb_and_dist_parsing_leave_the_memo_alone(self, data_dir):
        _clear_memo()
        docs = [
            parse_kb((data_dir / "penguin_fixed.kb").read_text()),
            parse_kb("atoms: a b\nrule: a & !b |~ b\nindep: a wrt b given a | b\n"),
            parse_dist((data_dir / "sample.dist").read_text()),
        ]
        assert not parsing._memo and parsing._memo_nodes == 0
        assert all(doc.vocab._parsed == {} for doc in docs)
        parse_formula("a & !b", AB)
        assert len(parsing._memo) == 1 and parsing._memo_nodes == 4
        assert list(AB._parsed) == ["a & !b"]

    def test_node_bound(self):
        # distinct texts of the same 4-node tree, 4000 nodes in all
        _clear_memo()
        texts = ["a &" + " " * k + "!b" for k in range(1000)]
        first = [parse_formula(text, AB) for text in texts]
        assert _memo_consistent()
        held = MEMO_NODES // 4
        assert [(id(table), text) for table, text, _ in parsing._memo] == [
            (id(AB._parsed), text) for text in texts[-held:]
        ]
        again = parse_formula(texts[0], AB)  # evicted; re-parsed, it evicts the oldest
        assert again is not first[0] and again == first[0]
        assert parse_formula(texts[0], AB) is again
        assert _held_texts(AB) == texts[-held + 1:] + texts[:1]
        assert _memo_consistent() and len(parsing._memo) == held

    def test_node_bound_spans_the_vocabulary_tables(self):
        # the same 4-node texts over ("a", "b") and ("b", "a") in turn, 2,400
        # nodes in all: one bound over both tables keeps the last 512 parses,
        # in order, where one bound per table would keep all 600
        _clear_memo()
        ba = Vocabulary(("b", "a"))
        parses = [(text, vocab) for text in ("a &" + " " * k + "!b" for k in range(300)) for vocab in (AB, ba)]
        for i, (text, vocab) in enumerate(parses):
            parse_formula(text, vocab)
            assert _memo_consistent()
            # the oldest entry went first, whichever table held it
            start = max(0, i + 1 - MEMO_NODES // 4)
            assert [(id(table), text) for table, text, _ in parsing._memo] == [
                (id(v._parsed), t) for t, v in parses[start:i + 1]
            ]
        assert len(parsing._memo) == MEMO_NODES // 4 == 512
        assert len(AB._parsed) == len(ba._parsed) == 256
        assert _held_texts(AB) == _held_texts(ba) == [text for text, _ in parses[-512::2]]

    def test_formula_larger_than_the_bound_is_not_stored(self):
        text = "a" + " <-> a" * 9  # 8 * 2**9 - 7 = 4089 nodes
        f = parse_formula(text, AB)
        assert _nodes(f) > MEMO_NODES
        assert text not in _held_texts(AB)
        assert parse_formula(text, AB) == f
        assert _memo_consistent()


class TestSharedAtomLeaves:
    def test_parsed_atoms_are_the_shared_leaves(self):
        f = parse_formula("a & !b | a", AB)
        assert f.left.left is ATOMS[0]
        assert f.left.right.child is ATOMS[1]
        assert f.right is ATOMS[0]
        assert parse_formula("b", AB) is ATOMS[1]
        assert AB.atom(1) is ATOMS[1]

    def test_equality_and_repr_unchanged(self):
        f = parse_formula("a & !b | a", AB)
        want = Or(And(Atom(0), Not(Atom(1))), Atom(0))
        assert f == want
        assert hash(f) == hash(want)
        assert repr(f) == repr(want) == "Or(And(Atom(0), Not(Atom(1))), Atom(0))"

    def test_atom_constructor_builds_a_new_equal_node(self):
        fresh = Atom(0)
        assert fresh is not ATOMS[0]
        assert fresh == ATOMS[0] and hash(fresh) == hash(ATOMS[0])
        assert model_mask(fresh, 2) == model_mask(ATOMS[0], 2)
        assert all(leaf.index == i for i, leaf in enumerate(ATOMS))


class TestKbParsing:
    def test_penguin_corpus(self, data_dir):
        doc = parse_kb((data_dir / "penguin.kb").read_text())
        assert doc.vocab.atoms == ("p", "b", "f", "l")
        rendered = [format_rule(r, doc.vocab) for r in doc.rules]
        assert rendered == ["p |~ !f", "b |~ f", "p |~ b", "b |~ l"]
        assert doc.directives == ()

    def test_directive_fields(self, data_dir):
        doc = parse_kb((data_dir / "penguin_fixed.kb").read_text())
        (d,) = doc.directives
        assert format_formula(d.conclusion, doc.vocab) == "l"
        assert format_formula(d.extra, doc.vocab) == "p"
        assert format_formula(d.context, doc.vocab) == "b"

    def test_injected_base(self, data_dir):
        doc = parse_kb((data_dir / "penguin_fixed.kb").read_text())
        base = doc.injected_base()
        assert len(base.rules) == len(doc.rules) + 1
        injected = base.rules[-1]
        assert injected.origin is RuleOrigin.INDEPENDENCE
        # antecedent is context & extra, in that order
        assert format_rule(injected, doc.vocab) == "b & p |~ l"

    def test_comments_and_blank_lines(self):
        doc = parse_kb("# header\natoms: a b  # inline\n\nrule: a |~ b # tail\n")
        assert doc.vocab.atoms == ("a", "b")
        assert doc.rules == (Rule(A, B),)

    def test_complex_rule_formulas(self):
        doc = parse_kb("atoms: a b\nrule: a & !b | b |~ a -> b\n")
        (rule,) = doc.rules
        assert rule.antecedent == Or(And(A, Not(B)), B)
        assert rule.consequent == implies(A, B)

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("atoms: a\natoms: a\nrule: a |~ a\n", "duplicate atoms line", 2),
            ("rule: a |~ a\n", "rule appears before the atoms line", 1),
            ("indep: a wrt a given a\n", "indep appears before the atoms line", 1),
            ("atoms:\nrule: a |~ a\n", "atoms line names no atoms", 1),
            ("atoms: a 2b\nrule: a |~ a\n", "bad atom name", 1),
            ("atoms: a\nrule: a |~ a |~ a\n", "exactly one", 2),
            ("atoms: a\nrule: a\n", "exactly one", 2),
            ("atoms: a\nfoo: bar\nrule: a |~ a\n", "unknown directive", 2),
            ("atoms: a\nrule: a |~ a\nindep: a given a\n", "indep directive", 3),
            ("atoms: a\nrule: a |~ a\nindep: a given a wrt a\n", "'wrt' must come before", 3),
            ("atoms: a\njust some text\n", "expected ':'", 2),
            ("# nothing\n", "missing atoms line", 0),
            ("atoms: a\n", "declares no rules", 0),
        ],
    )
    def test_kb_errors(self, text, fragment, line):
        with pytest.raises(ParseError) as ei:
            parse_kb(text)
        assert fragment in str(ei.value)
        assert ei.value.line == line

    # an error in each part of a rule or indep line, at its column in the line
    @pytest.mark.parametrize(
        "third_line,error",
        [
            ("rule: zz |~ a", "line 3, column 7: unknown atom: zz"),
            ("rule: a |~ zz", "line 3, column 12: unknown atom: zz"),
            ("rule: a |~ (a", "line 3, column 14: unexpected end of formula"),
            ("indep: zz wrt a given b", "line 3, column 8: unknown atom: zz"),
            ("indep: a wrt zz given b", "line 3, column 14: unknown atom: zz"),
            ("indep: a wrt b given zz", "line 3, column 22: unknown atom: zz"),
            ("indep: a wrt b given b &", "line 3, column 25: unexpected end of formula"),
            ("indep: a wrt b % given b", "line 3, column 16: unexpected character '%'"),
        ],
    )
    def test_kb_error_columns(self, third_line, error):
        with pytest.raises(ParseError) as ei:
            parse_kb(f"atoms: a b\nrule: a |~ b\n{third_line}\n")
        assert str(ei.value) == error

    @pytest.mark.parametrize("word", ["true", "false", "wrt", "given"])
    @pytest.mark.parametrize("casing", [str.lower, str.capitalize, str.upper])
    def test_reserved_atom_name_in_any_case(self, word, casing):
        name = casing(word)
        with pytest.raises(ParseError) as ei:
            parse_kb(f"atoms: b {name}\nrule: b |~ b\n")
        assert str(ei.value) == f"line 1, column 7: atom name {name!r} is a reserved word"

    def test_formula_error_carries_kb_line(self):
        with pytest.raises(ParseError) as ei:
            parse_kb("atoms: a b\nrule: a |~ zz\n")
        assert ei.value.line == 2
        assert "unknown atom" in str(ei.value)


key_vocabs = st.integers(1, 6).map(lambda n: Vocabulary(("a", "b", "c", "d", "e", "f")[:n]))


def _world_levels(vocab: Vocabulary, key: str) -> tuple[int, ...]:
    """The levels of a .dist file over vocab that lists only key, at 1."""
    return parse_dist(f"atoms: {' '.join(vocab.atoms)}\ntop: 1\n{key}: 1\n").levels


class TestDistParsing:
    def test_sample_corpus(self, data_dir):
        d = parse_dist((data_dir / "sample.dist").read_text())
        assert d.vocab.atoms == ("a", "c")
        assert d.top == 3
        assert d.levels == (1, 1, 2, 3)

    def test_bitstring_keys(self):
        # leftmost bit char is the last atom; rightmost is atom 0
        d = parse_dist("atoms: a c\ntop: 2\n10: 2\n01: 1\n")
        assert d.levels == (0, 1, 2, 0)

    def test_literal_keys_any_order(self):
        d = parse_dist("atoms: a c\ntop: 1\n!c a: 1\nc a: 1\n")
        assert d.levels == (0, 1, 0, 1)

    def test_missing_worlds_default_to_zero(self):
        d = parse_dist("atoms: a\ntop: 5\na: 5\n")
        assert d.levels == (0, 5)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("atoms: a\ntop: 1\na: 1\na: 1\n", "duplicate world"),
            ("atoms: a\ntop: 1\n!a a: 1\n", "appears twice"),
            ("atoms: a b\ntop: 1\na: 1\n", "must mention every atom"),
            ("atoms: a\ntop: 1\nzz: 1\n", "unknown atom"),
            ("atoms: a\ntop: 1\na: 2\n", "out of range"),
            ("atoms: a\ntop: 1\na: x\n", "must be an integer"),
            ("atoms: a\ntop: zero\na: 1\n", "top must be an integer"),
            # ASCII decimals only, though int() takes all three
            ("atoms: a\ntop: +2\na: 2\n", "top must be an integer, got '+2'"),
            ("atoms: a\ntop: 1\na: 1_0\n", "level must be an integer, got '1_0'"),
            ("atoms: a\ntop: 1\na: \u0661\n", "level must be an integer, got '\u0661'"),
            ("atoms: a\ntop: 0\na: 0\n", "top must be at least 1"),
            ("atoms: a\ntop: 1\ntop: 1\na: 1\n", "duplicate top line"),
            ("top: 1\n", "world line appears before the atoms"),
            ("atoms: a\na: 1\n", "world line appears before the top"),
            ("atoms: a\n", "missing top line"),
            ("atoms: a\ntop: 2\na: 1\n", "no world at the top level"),
        ],
    )
    def test_dist_errors(self, text, fragment):
        if text == "top: 1\n":
            text = "top: 1\na: 1\n"
        with pytest.raises(ParseError) as ei:
            parse_dist(text)
        assert fragment in str(ei.value)

    # when a key has more than one fault, the first literal at fault wins
    @pytest.mark.parametrize(
        "key,message",
        [
            ("!zz b", "unknown atom: zz"),
            ("! a b", "unknown atom: "),
            ("!!a b", "unknown atom: !a"),
            ("a !a", "atom 'a' appears twice in world pattern"),
            ("a a zz", "atom 'a' appears twice in world pattern"),
            ("b", "world pattern 'b' must mention every atom exactly once"),
            ("1", "bitstring '1' has 1 digits, expected 2"),
        ],
    )
    def test_world_key_errors(self, key, message):
        with pytest.raises(ParseError) as ei:
            parse_dist(f"atoms: a b\ntop: 1\n{key}: 1\n")
        assert str(ei.value) == f"line 3, column 1: {message}"

    @given(st.data())
    def test_shuffled_spaced_literals_read_back_as_their_world(self, data):
        vocab = data.draw(key_vocabs)
        world = data.draw(st.integers(0, vocab.world_count - 1))
        literals = [name if world >> i & 1 else "!" + name for i, name in enumerate(vocab.atoms)]
        literals = data.draw(st.permutations(literals))
        gaps = st.sampled_from((" ", "  ", "\t", " \t "))
        spacing = data.draw(st.lists(gaps, min_size=vocab.n - 1, max_size=vocab.n - 1))
        ends = data.draw(st.tuples(st.sampled_from(("", " ", "\t")), st.sampled_from(("", " ", "\t"))))
        key = ends[0] + literals[0] + "".join(gap + lit for gap, lit in zip(spacing, literals[1:])) + ends[1]
        assert _world_levels(vocab, key) == tuple(int(w == world) for w in range(vocab.world_count))

    @given(st.data())
    def test_world_keys_read_back_as_their_world(self, data):
        vocab = data.draw(key_vocabs)
        world = data.draw(st.integers(0, vocab.world_count - 1))
        key = list(world_keys(vocab))[world]
        assert _world_levels(vocab, key) == tuple(int(w == world) for w in range(vocab.world_count))

    def test_world_keys(self):
        # atom 0 varies fastest, as bit 0 of the world does
        assert list(world_keys(AB)) == ["!a !b", "a !b", "!a b", "a b"]
        assert list(world_keys(Vocabulary(("a",)))) == ["!a", "a"]

    def test_top_violation_reports_top_line(self):
        with pytest.raises(ParseError) as ei:
            parse_dist("atoms: a\ntop: 2\na: 1\n")
        assert ei.value.line == 2

    def test_format_sample(self, data_dir):
        d = parse_dist((data_dir / "sample.dist").read_text())
        assert format_dist(d) == (
            "atoms: a c\ntop: 3\n!a !c: 1\na !c: 1\n!a c: 2\na c: 3\n"
        )

    @given(dists(Vocabulary(("a", "b", "c")), max_top=3))
    def test_format_parse_round_trip(self, d):
        assert parse_dist(format_dist(d)) == d


class TestRuleFormatting:
    def test_format_rule(self):
        rule = Rule(A, Not(B))
        assert format_rule(rule, AB) == "a |~ !b"
