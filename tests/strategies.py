"""Shared hypothesis strategies: vocabularies, formulas, distributions."""

from __future__ import annotations

from functools import reduce

from hypothesis import assume
from hypothesis import strategies as st

from ordindep import FALSE, TRUE, And, Atom, Dist, Not, Or, TriState, Vocabulary, entails
from ordindep.ranking import Rule, RuleBase

ATOM_POOL = ("a", "b", "c", "d")


@st.composite
def vocabs(draw, min_atoms: int = 1, max_atoms: int = 3) -> Vocabulary:
    n = draw(st.integers(min_atoms, max_atoms))
    return Vocabulary(ATOM_POOL[:n])


def formulas(vocab: Vocabulary, max_depth: int = 4):
    base = st.one_of(
        st.integers(0, len(vocab.atoms) - 1).map(Atom),
        st.just(TRUE),
        st.just(FALSE),
    )

    def extend(children):
        return st.one_of(
            children.map(Not),
            st.tuples(children, children).map(lambda t: And(*t)),
            st.tuples(children, children).map(lambda t: Or(*t)),
        )

    return st.recursive(base, extend, max_leaves=2 ** max_depth)


@st.composite
def dists(draw, vocab: Vocabulary, max_top: int = 3) -> Dist:
    top = draw(st.integers(1, max_top))
    size = 1 << len(vocab.atoms)
    levels = list(draw(st.lists(st.integers(0, top), min_size=size, max_size=size)))
    if max(levels) < top:
        # force normalization: some world must sit at the top level
        levels[draw(st.integers(0, size - 1))] = top
    return Dist(vocab, top, tuple(levels))


@st.composite
def dist_with_formulas(draw, count: int = 2, max_atoms: int = 3, max_top: int = 3):
    vocab = draw(vocabs(max_atoms=max_atoms))
    d = draw(dists(vocab, max_top=max_top))
    fs = tuple(draw(formulas(vocab)) for _ in range(count))
    return (d, *fs)


@st.composite
def rule_bases(draw, min_atoms: int = 2, max_atoms: int = 3, max_rules: int = 6) -> RuleBase:
    """Default-rule bases: each side is a conjunction of literals (an
    antecedent may be empty, i.e. true) or an arbitrary small formula."""
    vocab = draw(vocabs(min_atoms=min_atoms, max_atoms=max_atoms))
    atoms = st.integers(0, vocab.n - 1).map(Atom)
    literals = atoms | atoms.map(Not)
    conjunctions = st.lists(literals, max_size=vocab.n).map(lambda ls: reduce(And, ls) if ls else TRUE)
    small = formulas(vocab, max_depth=2)
    count = draw(st.integers(1, max_rules))
    return RuleBase(vocab, tuple(Rule(draw(conjunctions | small), draw(literals | small)) for _ in range(count)))


@st.composite
def consistent_rule_bases(draw, min_atoms: int = 2, max_atoms: int = 3, max_rules: int = 6) -> RuleBase:
    """A rule_bases draw made consistent by a drawn distribution: it keeps
    each rule the distribution accepts, flips the consequent of each rule
    it rejects and drops the rules it ignores, so it accepts every rule
    left.  A consistent base comes out unchanged when the distribution is
    its own pi* (whose top is at most the rule count)."""
    kb = draw(rule_bases(min_atoms, max_atoms, max_rules))
    d = draw(dists(kb.vocab, max_top=len(kb.rules)))
    rules = []
    for r in kb.rules:
        verdict = entails(d, r.antecedent, r.consequent)
        if verdict is TriState.ACCEPTED:
            rules.append(r)
        elif verdict is TriState.REJECTED:
            rules.append(Rule(r.antecedent, Not(r.consequent)))
    assume(rules)
    return RuleBase(kb.vocab, tuple(rules))
