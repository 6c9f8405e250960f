import copy
import itertools
import pickle

import pytest
from hypothesis import assume, example, given, target
from hypothesis import strategies as st

from ordindep import (
    TRUE,
    And,
    Atom,
    ConsistencyError,
    Dist,
    Not,
    Or,
    TriState,
    Vocabulary,
    compute_pi_star,
    cond_weak_indep,
    entails,
    logic,
    models,
    parse_formula,
    parse_kb,
    priority_necessities,
    query,
    stratify,
)
from ordindep import ranking as ranking_module
from ordindep.ranking import Rule, RuleBase, RuleOrigin, inject_independence, tolerates

import stratify_oracle
from checks import constraints_satisfied, raisable_worlds
from strategies import consistent_rule_bases, dist_with_formulas, formulas, rule_bases


def load(data_dir, name, injected=False):
    doc = parse_kb((data_dir / name).read_text())
    return doc, (doc.injected_base() if injected else doc.base())


class TestTolerance:
    def test_single_rule_tolerates_itself(self):
        v = Vocabulary(("a", "b"))
        rule = Rule(Atom(0), Atom(1))
        assert tolerates((rule,), rule, v)

    def test_contradictory_pair(self):
        v = Vocabulary(("a", "b"))
        r1 = Rule(Atom(0), Atom(1))
        r2 = Rule(Atom(0), Not(Atom(1)))
        assert not tolerates((r1, r2), r1, v)
        assert not tolerates((r1, r2), r2, v)

    def test_specific_rule_not_tolerated_by_general(self):
        doc = parse_kb("atoms: p b f\nrule: p |~ !f\nrule: b |~ f\nrule: p |~ b\n")
        rules = doc.rules
        # the penguin rule requires a world p & !f & (b -> f) & (p -> b): none exists
        assert not tolerates(rules, rules[0], doc.vocab)
        assert tolerates(rules, rules[1], doc.vocab)


class TestStratification:
    def test_penguin_strata(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        assert stratify(base) == (frozenset({1, 3}), frozenset({0, 2}))

    def test_nolegs_strata(self, data_dir):
        doc, base = load(data_dir, "nolegs.kb", injected=True)
        assert stratify(base) == (frozenset({1, 3}), frozenset({0, 2, 4, 5, 6, 7}))

    def test_single_rule(self):
        doc = parse_kb("atoms: a b\nrule: a |~ b\n")
        assert stratify(doc.base()) == (frozenset({0}),)

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError, match="no rules"):
            stratify(RuleBase(Vocabulary(("a",)), ()))

    def test_contradictory_base(self, data_dir):
        doc, base = load(data_dir, "contradictory.kb")
        with pytest.raises(ConsistencyError) as ei:
            stratify(base)
        assert len(ei.value.residual) == 2
        assert ei.value.vocab is doc.vocab
        assert "2 rule(s) tolerate no order" in str(ei.value)

    def test_order_insensitive(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        reference = {
            frozenset((r.antecedent, r.consequent) for r in (base.rules[i] for i in s))
            for s in stratify(base)
        }
        for perm in itertools.permutations(range(4)):
            shuffled = RuleBase(base.vocab, tuple(base.rules[i] for i in perm))
            got = {
                frozenset(
                    (r.antecedent, r.consequent)
                    for r in (shuffled.rules[i] for i in s)
                )
                for s in stratify(shuffled)
            }
            assert got == reference


class TestPiStar:
    def test_penguin_levels(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        assert ranking.pi_star.top == 2
        assert ranking.pi_star.levels == (2, 0, 1, 1, 2, 0, 1, 0, 2, 0, 1, 1, 2, 0, 2, 0)
        assert ranking.priorities == (2, 1, 2, 1)

    def test_penguin_fixed_levels(self, data_dir):
        doc, base = load(data_dir, "penguin_fixed.kb", injected=True)
        ranking = compute_pi_star(base)
        assert ranking.pi_star.levels == (2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 1, 2, 0, 2, 0)
        assert ranking.priorities == (2, 1, 2, 1, 2)
        origins = [r.origin for r in ranking.rules]
        assert origins == [RuleOrigin.USER] * 4 + [RuleOrigin.INDEPENDENCE]

    def test_single_rule_levels(self):
        doc = parse_kb("atoms: a b\nrule: a |~ b\n")
        ranking = compute_pi_star(doc.base())
        assert ranking.pi_star.top == 1
        assert ranking.pi_star.levels == (1, 0, 1, 1)

    def test_duplicate_rules_collapse(self):
        doc = parse_kb("atoms: a b\nrule: a |~ b\nrule: a |~ b\n")
        ranking = compute_pi_star(doc.base())
        assert len(ranking.rules) == 1

    def test_every_rule_accepted(self, data_dir):
        for name, injected in [
            ("penguin.kb", False),
            ("penguin_fixed.kb", True),
            ("nolegs.kb", True),
        ]:
            doc, base = load(data_dir, name, injected)
            ranking = compute_pi_star(base)
            for rule in ranking.rules:
                assert ranking.query(rule.antecedent, rule.consequent) is TriState.ACCEPTED

    def test_constraints_and_maximality(self, data_dir):
        for name, injected in [
            ("penguin.kb", False),
            ("penguin_fixed.kb", True),
            ("nolegs.kb", True),
        ]:
            doc, base = load(data_dir, name, injected)
            ranking = compute_pi_star(base)
            assert constraints_satisfied(ranking.pi_star, ranking.rules)
            assert raisable_worlds(ranking) == []

    def test_pointwise_max_over_feasible_dists(self):
        # small enough to enumerate every normalized distribution directly
        for text in (
            "atoms: a b\nrule: a |~ b\n",
            "atoms: a b\nrule: a |~ b\nrule: true |~ a\n",
        ):
            doc = parse_kb(text)
            ranking = compute_pi_star(doc.base())
            top = ranking.pi_star.top
            best = [0] * 4
            for levels in itertools.product(range(top + 1), repeat=4):
                if max(levels) != top:
                    continue
                d = Dist(doc.vocab, top, levels)
                if constraints_satisfied(d, ranking.rules):
                    best = [max(b, lv) for b, lv in zip(best, levels)]
            assert tuple(best) == ranking.pi_star.levels


def _ranking_or_none(kb):
    try:
        return compute_pi_star(kb)
    except ConsistencyError:
        return None


def _accepting_levels(vocab, rules, top):
    """Every normalized level tuple at this top that accepts every rule."""
    cells = [
        (models(And(r.antecedent, r.consequent), vocab), models(And(r.antecedent, Not(r.consequent)), vocab))
        for r in rules
    ]
    for levels in itertools.product(range(top + 1), repeat=vocab.world_count):
        if top in levels and all(
            max((levels[w] for w in keep), default=0) > max((levels[w] for w in drop), default=0)
            for keep, drop in cells
        ):
            yield levels


PENGUIN_3 = "atoms: p b f\nrule: b |~ f\nrule: p |~ b\nrule: p |~ !f\n"
THREE_STRATA = "atoms: a b c\nrule: true |~ !a\nrule: a |~ !b\nrule: a & b |~ !c\n"


class TestPiStarDifferential:
    """pi* against brute force over every distribution of small bases."""

    @given(consistent_rule_bases())
    @example(parse_kb(PENGUIN_3).base())
    @example(parse_kb(THREE_STRATA).base())
    def test_pointwise_max_over_every_feasible_dist(self, kb):
        ranking = compute_pi_star(kb)
        top = ranking.pi_star.top
        assume((top + 1) ** kb.vocab.world_count <= 200_000)
        target(float(top))
        best = [0] * kb.vocab.world_count
        for levels in _accepting_levels(kb.vocab, ranking.rules, top):
            best = [max(b, lv) for b, lv in zip(best, levels)]
        assert tuple(best) == ranking.pi_star.levels

    @given(rule_bases(max_atoms=2))
    @example(parse_kb("atoms: a b\nrule: a |~ b\nrule: a |~ !b\n").base())
    def test_inconsistent_base_has_no_model(self, kb):
        assume(_ranking_or_none(kb) is None)
        assert next(_accepting_levels(kb.vocab, kb.rules, len(kb.rules)), None) is None


def _strata_or_residual(stratify_fn, kb):
    """The strata, or the residual rules (by identity, in order) of the
    ConsistencyError the stratification raises."""
    try:
        return stratify_fn(kb)
    except ConsistencyError as e:
        assert e.vocab is kb.vocab
        return [id(r) for r in e.residual]


class TestStratifyOracle:
    """stratify against the per-rule tolerates loop it replaced."""

    @given(rule_bases() | consistent_rule_bases())
    @example(parse_kb(PENGUIN_3).base())
    @example(parse_kb(THREE_STRATA).base())
    @example(parse_kb("atoms: a b\nrule: a |~ b\nrule: true |~ a\nrule: a |~ !b\n").base())
    def test_matches_oracle(self, kb):
        assert _strata_or_residual(stratify, kb) == _strata_or_residual(stratify_oracle.stratify, kb)

    @pytest.mark.parametrize("name", ["penguin.kb", "penguin_fixed.kb", "nolegs.kb", "contradictory.kb"])
    @pytest.mark.parametrize("injected", [False, True])
    def test_matches_oracle_on_corpus(self, data_dir, name, injected):
        _, base = load(data_dir, name, injected)
        assert _strata_or_residual(stratify, base) == _strata_or_residual(stratify_oracle.stratify, base)

    def test_mask_builds_linear_in_rules(self, data_dir, monkeypatch):
        # the per-rule tolerates loop built 91 violation masks here
        _, base = load(data_dir, "nolegs.kb", injected=True)
        built = []
        viol_mask = ranking_module._viol_mask
        monkeypatch.setattr(ranking_module, "_viol_mask", lambda rule, n: built.append(rule) or viol_mask(rule, n))
        ranking = compute_pi_star(base)
        assert (len(ranking.rules), len(ranking.strata)) == (8, 2)
        assert len(built) <= 2 * len(ranking.rules)


class TestQueries:
    def test_penguin_verdicts(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        cases = {
            ("p", "b"): TriState.ACCEPTED,
            ("p", "f"): TriState.REJECTED,
            ("p", "l"): TriState.IGNORED,
            ("b", "f"): TriState.ACCEPTED,
        }
        for (ev, cl), expected in cases.items():
            e = parse_formula(ev, doc.vocab)
            c = parse_formula(cl, doc.vocab)
            assert ranking.query(e, c) is expected, (ev, cl)

    def test_repair_flips_blocked_query(self, data_dir):
        doc, base = load(data_dir, "penguin_fixed.kb")
        vocab = doc.vocab
        p = parse_formula("p", vocab)
        leg = parse_formula("l", vocab)
        b = parse_formula("b", vocab)
        before = compute_pi_star(base)
        assert before.query(p, leg) is TriState.IGNORED
        assert not cond_weak_indep(before.pi_star, leg, b, p)
        after = compute_pi_star(doc.injected_base())
        assert after.query(p, leg) is TriState.ACCEPTED
        assert cond_weak_indep(after.pi_star, leg, b, p)

    def test_nolegs_verdicts(self, data_dir):
        doc, base = load(data_dir, "nolegs.kb", injected=True)
        ranking = compute_pi_star(base)
        cases = {
            ("n", "b"): TriState.ACCEPTED,
            ("n", "l"): TriState.REJECTED,
            ("n", "f"): TriState.ACCEPTED,
            ("p", "l"): TriState.ACCEPTED,
        }
        for (ev, cl), expected in cases.items():
            e = parse_formula(ev, doc.vocab)
            c = parse_formula(cl, doc.vocab)
            assert ranking.query(e, c) is expected, (ev, cl)

    def test_one_shot_query_matches(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        p = parse_formula("p", doc.vocab)
        b = parse_formula("b", doc.vocab)
        assert query(base, p, b) is TriState.ACCEPTED

    def test_pickle_and_copies_answer_the_same(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        pairs = [(parse_formula(e, doc.vocab), parse_formula(c, doc.vocab))
                 for e, c in itertools.product(("p", "b", "p & !f", "true"), ("b", "f", "l", "!f | l"))]
        verdicts = [ranking.query(e, c) for e, c in pairs]
        for twin in (pickle.loads(pickle.dumps(ranking)), copy.copy(ranking), copy.deepcopy(ranking)):
            assert twin == ranking and hash(twin) == hash(ranking)
            assert [twin.query(e, c) for e, c in pairs] == verdicts
            assert [twin.query(*pickle.loads(pickle.dumps(pair))) for pair in pairs] == verdicts
        fresh = pickle.loads(pickle.dumps(compute_pi_star(base)))
        assert [fresh.query(e, c) for e, c in pairs] == verdicts

    @pytest.mark.parametrize("copier", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_a_copy_has_its_own_empty_memo(self, data_dir, copier):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        p, f = parse_formula("p", doc.vocab), parse_formula("f", doc.vocab)
        ranking.query(p, f)
        twin = copier(ranking)
        assert twin._answers is not ranking._answers and _held(twin) == []
        assert twin.query(f, p) is TriState.REJECTED
        assert _held(twin) == [(f, p, TriState.REJECTED)]
        assert _held(ranking) == [(p, f, TriState.REJECTED)]


def _held(ranking) -> list[tuple]:
    """The (evidence, conclusion, verdict) triples a ranking's memo holds,
    oldest first."""
    return list(ranking._answers.values())


class TestQueryMemo:
    """A ranking answers a repeated (evidence, conclusion) from its memo."""

    @given(st.data())
    def test_matches_entails_when_asked_twice(self, data):
        ranking = compute_pi_star(data.draw(consistent_rule_bases()))
        for _ in range(data.draw(st.integers(1, 6))):
            e = data.draw(formulas(ranking.vocab, max_depth=3))
            c = data.draw(formulas(ranking.vocab, max_depth=3))
            want = entails(ranking.pi_star, e, c)
            # a structurally equal pair of distinct nodes, then the same one
            twin = (eval(repr(e), vars(logic)), eval(repr(c), vars(logic)))
            for pair in ((e, c), twin, (e, c)):
                assert ranking.query(*pair) is want
            assert (e, c, want) in _held(ranking)

    def test_a_repeat_does_not_call_entails(self, data_dir, monkeypatch):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        calls = []

        def counted(*args):
            calls.append(args)
            return entails(*args)

        monkeypatch.setattr(ranking_module, "entails", counted)
        p, f = parse_formula("p", doc.vocab), parse_formula("f", doc.vocab)
        for _ in range(3):
            assert ranking.query(p, f) is TriState.REJECTED
        assert ranking.query(Atom(0), Atom(2)) is TriState.REJECTED  # equal, not identical
        assert len(calls) == 1
        # a pair built by the constructors, then an equal pair built again
        e, c = And(Atom(0), Not(Atom(3))), Or(Not(Atom(2)), Atom(3))
        verdict = ranking.query(e, c)
        assert len(calls) == 2
        assert ranking.query(And(Atom(0), Not(Atom(3))), Or(Not(Atom(2)), Atom(3))) is verdict
        assert len(calls) == 2
        assert ranking.query(f, p) is TriState.REJECTED  # flyers are normally no penguins
        assert len(calls) == 3
        # another ranking keeps a memo of its own
        assert compute_pi_star(base).query(p, f) is TriState.REJECTED
        assert len(calls) == 4

    def test_holds_the_latest_256_answers(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        lits = [parse_formula(t, doc.vocab) for t in ("p", "!p", "b", "!b", "f", "!f", "l", "!l")]
        evidence = [And(x, y) for x, y in itertools.product(lits, lits)]  # 64 distinct conjunctions
        pairs = [(e, c) for c in lits[:5] for e in evidence][:300]
        assert len(set(pairs)) == 300
        for e, c in pairs:
            assert ranking.query(e, c) is entails(ranking.pi_star, e, c)
        assert len(ranking._answers) == ranking_module._ANSWERS == 256
        held = _held(ranking)
        assert [(e, c) for e, c, _ in held] == pairs[44:]
        assert all(e is pe and c is pc for (e, c, _), (pe, pc) in zip(held, pairs[44:]))
        for e, c in pairs:
            assert ranking.query(e, c) is entails(ranking.pi_star, e, c)
        assert len(ranking._answers) == 256

    def test_an_error_is_never_stored(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        p = parse_formula("p", doc.vocab)
        ranking.query(p, p)
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                ranking.query(Atom(9), p)
        assert _held(ranking) == [(p, p, TriState.ACCEPTED)]

    def test_a_planted_entry_under_the_same_hashes_is_not_used(self, data_dir):
        # the memo is keyed by the two hash ints; a held pair that is not
        # the one asked (a hash collision) is answered afresh and replaced
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        p, f, b = (parse_formula(t, doc.vocab) for t in ("p", "f", "b"))
        want = entails(ranking.pi_star, p, f)
        assert want is TriState.REJECTED
        for planted in ((b, f, TriState.ACCEPTED), (p, b, TriState.ACCEPTED), (b, b, TriState.IGNORED)):
            ranking._answers[p._hash, f._hash] = planted
            assert ranking.query(p, f) is want
            assert ranking._answers[p._hash, f._hash] == (p, f, want)


class TestPriorities:
    def test_necessities_match_for_violable_rules(self, data_dir):
        for name in ("penguin.kb", "penguin_fixed.kb", "nolegs.kb"):
            doc = parse_kb((data_dir / name).read_text())
            ranking = compute_pi_star(doc.injected_base())
            assert priority_necessities(ranking) == ranking.priorities

    def test_vacuous_rule_pins_at_top(self):
        text = (
            "atoms: p b f l a\nrule: p |~ !f\nrule: b |~ f\n"
            "rule: p |~ b\nrule: b |~ l\nrule: a |~ a\n"
        )
        ranking = compute_pi_star(parse_kb(text).base())
        assert stratify(RuleBase(ranking.vocab, ranking.rules)) == (
            frozenset({1, 3, 4}),
            frozenset({0, 2}),
        )
        assert ranking.priorities == (2, 1, 2, 1, 1)
        # the unviolable rule reports material necessity = top, not its stratum
        assert priority_necessities(ranking) == (2, 1, 2, 1, 2)


class TestInjection:
    def test_antecedent_order(self):
        v = Vocabulary(("b", "p", "l"))
        base = RuleBase(v, (Rule(Atom(0), Atom(2)),))
        out = inject_independence(base, Atom(0), Atom(1), Atom(2))
        injected = out.rules[-1]
        assert injected.antecedent == And(Atom(0), Atom(1))
        assert injected.consequent == Atom(2)
        assert injected.origin is RuleOrigin.INDEPENDENCE

    def test_rules_list_is_copied(self):
        v = Vocabulary(("b", "p", "l"))
        rules = [Rule(Atom(0), Atom(2))]
        base = RuleBase(v, rules)
        rules.append(Rule(Atom(1), Not(Atom(2))))
        assert base.rules == (Rule(Atom(0), Atom(2)),)
        out = inject_independence(base, Atom(0), Atom(1), Atom(2))
        assert out.rules[:1] == base.rules and len(out.rules) == 2
        assert hash(base) == hash(RuleBase(v, tuple(base.rules)))


class TestRationalMonotony:
    # the law lab's compiled statement, on one Dist at a time
    @staticmethod
    def holds(d, a, b, c):
        from ordindep.lawlab import ScalarOps, law_by_id

        return law_by_id("rational-monotony").predicate(ScalarOps(d), a, b, c)

    def test_worked_case(self):
        d = Dist(Vocabulary(("a", "c")), 3, (1, 1, 2, 3))
        assert self.holds(d, Atom(1), TRUE, Atom(0))

    @given(dist_with_formulas(count=3))
    def test_holds_universally(self, dfabc):
        d, a, b, c = dfabc
        assert self.holds(d, a, b, c)
