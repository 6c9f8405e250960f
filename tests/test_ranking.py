import copy
import itertools
import pickle
import random
import sys
import threading

import pytest
from hypothesis import assume, example, given, target
from hypothesis import strategies as st

from ordindep import (
    FALSE,
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
    implies,
    logic,
    nec,
    parse_formula,
    parse_kb,
    poss,
    stratify,
)
from ordindep import ranking as ranking_module
from ordindep.logic import mask_worlds, model_mask
from ordindep.ranking import Rule, RuleBase, RuleOrigin, inject_independence

import stratify_oracle
from stratify_oracle import tolerates
from checks import bench_module, constraints_satisfied, event_formula, raisable_worlds
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
    def worlds(f):
        return mask_worlds(model_mask(f, vocab.n))

    cells = [(worlds(And(r.antecedent, r.consequent)), worlds(And(r.antecedent, Not(r.consequent)))) for r in rules]
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

    def test_every_two_atom_base_of_one_or_two_rules(self):
        # a rule reads the worlds only through its two events, so the rules
        # over the 16 events of two atoms are every rule there, and their
        # 256 + 32,896 bases of one or two rules (a rule may repeat) are
        # every such base.  Acceptance only compares levels and 4 worlds
        # use at most 4 positive ones, so an inconsistent base that no
        # distribution accepts up to top 4 has none at any top.
        import numpy as np

        from ordindep.lawlab import DistEnsemble

        vocab = Vocabulary(("a", "b"))
        events = [event_formula(mask, 2) for mask in range(16)]
        pairs = list(itertools.product(range(16), repeat=2))
        rules = [Rule(events[x], events[y]) for x, y in pairs]
        ensembles = {top: DistEnsemble(2, top) for top in range(1, 5)}
        # accepts[top][i, k]: the ensemble's row k accepts rule i, read off its event table
        accepts = {top: np.array([ens.P[x & y] > ens.P[x & ~y] for x, y in pairs]) for top, ens in ensembles.items()}
        bases = itertools.chain(((i,) for i in range(len(rules))), itertools.combinations_with_replacement(range(len(rules)), 2))
        consistent = inconsistent = 0
        for base in bases:
            ranking = _ranking_or_none(RuleBase(vocab, tuple(rules[i] for i in base)))
            if ranking is None:
                inconsistent += 1
                for top, accepted in accepts.items():
                    assert not accepted[list(base)].all(axis=0).any(), (base, top)
                continue
            consistent += 1
            top = ranking.pi_star.top
            rows = accepts[top][list(base)].all(axis=0)
            assert tuple(ensembles[top].levels[rows].max(axis=0).tolist()) == ranking.pi_star.levels, base
        assert (consistent, inconsistent) == (14_974, 18_178)


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
        # the per-rule tolerates loop built 91 violation masks here, and a
        # build that stratified, then built the masks again, built 16
        _, base = load(data_dir, "nolegs.kb", injected=True)
        base = base.extended(base.rules[0])  # a repeat, which dedup drops
        built = []
        rule_masks = ranking_module._rule_masks
        monkeypatch.setattr(ranking_module, "_rule_masks", lambda rule, n: built.append(rule) or rule_masks(rule, n))
        ranking = compute_pi_star(base)
        assert (len(base.rules), len(ranking.rules), len(ranking.strata)) == (9, 8, 2)
        assert built == list(ranking.rules)


def _oracle_case(data_dir, case: str) -> RuleBase:
    """The base a case id names: ``<corpus file>[+indep]``, ``rank/<seed>/<k>``
    (the k-th of ``gen.rank_cases(seed)``) or ``scaling/<seed>/<atoms>``."""
    kind, _, rest = case.partition("/")
    if kind == "corpus":
        name, _, injected = rest.partition("+")
        return load(data_dir, name, injected == "indep")[1]
    gen = bench_module("gen")
    seed, k = map(int, rest.split("/"))
    text = gen.rank_cases(seed)[k].base.text if kind == "rank" else gen.scaling_base(seed, k).text
    return parse_kb(text).injected_base()


_ORACLE_CASES = [
    *(f"corpus/{name}{suffix}" for name in ("penguin.kb", "penguin_fixed.kb", "nolegs.kb", "contradictory.kb")
      for suffix in ("", "+indep")),
    *(f"rank/{seed}/{k}" for seed in (1, 2) for k in range(bench_module("gen").RANK_CASES)),
    *(f"scaling/{seed}/{n}" for seed in (1, 2, 3) for n in (8, 12, 16)),
]


class TestPiStarOracle:
    """compute_pi_star's band-built pi* against the world-by-world one it replaced."""

    @pytest.mark.parametrize("case", _ORACLE_CASES)
    def test_matches_oracle(self, data_dir, case):
        kb = _oracle_case(data_dir, case)
        try:
            strata, want, priorities = stratify_oracle.pi_star(kb)
        except ConsistencyError:
            with pytest.raises(ConsistencyError):
                compute_pi_star(kb)
            return
        ranking = compute_pi_star(kb)
        got = ranking.pi_star
        assert (got.top, got._ranked) == (want.top, want._ranked)
        # in hex, since Python prints no int of over 4,300 decimal digits (a mask over 14 atoms)
        got_planes, want_planes = ([(bit, hex(plane)) for bit, plane in d._planes] for d in (got, want))
        assert got_planes == want_planes
        assert got.levels == want.levels
        assert got == want and hash(got) == hash(want)
        assert (ranking.strata, ranking.priorities) == (strata, priorities)


class TestAcceptanceCheck:
    """compute_pi_star checks that the pi* it built accepts every rule."""

    @pytest.mark.parametrize("case", ["corpus/penguin.kb", "rank/1/0"])
    def test_a_band_one_level_off_raises(self, data_dir, case, monkeypatch):
        kb = _oracle_case(data_dir, case)
        assert len(compute_pi_star(kb).strata) >= 2
        from_bands = ranking_module.dist_from_bands

        def lowest_band_raised(vocab, top, bands):
            (level, mask), *rest = sorted(bands, key=lambda band: band[0])
            assert level == 0 and mask
            return from_bands(vocab, top, [(1, mask), *rest])

        monkeypatch.setattr(ranking_module, "dist_from_bands", lowest_band_raised)
        with pytest.raises(RuntimeError, match=r"^ranking failed to accept rule \d+; stratification is broken$"):
            compute_pi_star(kb)


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
        assert twin._answers is not ranking._answers and twin._asked is not ranking._asked
        assert _held(twin) == []
        assert twin.query(f, p) is TriState.REJECTED
        assert _held(twin) == [(f, p, TriState.REJECTED)]
        assert _held(ranking) == [(p, f, TriState.REJECTED)]


def _held(ranking) -> list[tuple]:
    """The (evidence, conclusion, verdict) triples a ranking's memo holds,
    oldest first; each held verdict has one slot in the order, and no
    row is left empty."""
    rows = ranking._answers
    assert all(rows.values()) and sum(map(len, rows.values())) == len(ranking._asked)
    return [rows[e_hash][c_hash] for e_hash, c_hash in ranking._asked]


def _plant(ranking, e, c, entry) -> None:
    """Hold entry where the verdict of (e, c) goes, as if (e, c) had been
    asked and had been answered with it."""
    row = ranking._answers.setdefault(e._hash, {})
    if c._hash not in row:
        ranking._asked.append((e._hash, c._hash))
    row[c._hash] = entry


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
        # both built before entails is counted, since each build asks it once per rule
        ranking, other = compute_pi_star(base), compute_pi_star(base)
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
        assert other.query(p, f) is TriState.REJECTED
        assert len(calls) == 4

    def test_holds_the_latest_256_answers(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        pairs = _distinct_pairs(doc.vocab)
        for e, c in pairs:
            assert ranking.query(e, c) is entails(ranking.pi_star, e, c)
        held = _held(ranking)
        assert len(held) == ranking_module._ANSWERS == 256
        assert [(e, c) for e, c, _ in held] == pairs[44:]
        assert all(e is pe and c is pc for (e, c, _), (pe, pc) in zip(held, pairs[44:]))
        for e, c in pairs:
            assert ranking.query(e, c) is entails(ranking.pi_star, e, c)
        assert len(_held(ranking)) == 256

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
        # the one asked (a hash collision) is answered afresh and replaced,
        # in the slot it held
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        p, f, b = (parse_formula(t, doc.vocab) for t in ("p", "f", "b"))
        want = entails(ranking.pi_star, p, f)
        assert want is TriState.REJECTED
        for planted in ((b, f, TriState.ACCEPTED), (p, b, TriState.ACCEPTED), (b, b, TriState.IGNORED)):
            _plant(ranking, p, f, planted)
            assert ranking.query(p, f) is want
            assert ranking._answers[p._hash][f._hash] == (p, f, want)
            assert _held(ranking) == [(p, f, want)]

    def test_a_replaced_collision_keeps_one_slot(self, data_dir):
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        p, f, b = (parse_formula(t, doc.vocab) for t in ("p", "f", "b"))
        _plant(ranking, p, f, (b, f, TriState.ACCEPTED))
        assert ranking.query(p, f) is TriState.REJECTED
        for e, c in _distinct_pairs(doc.vocab):
            assert ranking.query(e, c) is entails(ranking.pi_star, e, c)
        assert sum(map(len, ranking._answers.values())) == 256
        assert len(_held(ranking)) == 256

    def test_threads_sharing_a_ranking(self, data_dir):
        # four threads ask the same 300 pairs, more than the memo holds, each
        # in its own order 100 times, switching as often as the interpreter lets
        doc, base = load(data_dir, "penguin.kb")
        ranking = compute_pi_star(base)
        pairs = _distinct_pairs(doc.vocab)
        want = {pair: entails(ranking.pi_star, *pair) for pair in pairs}
        wrong, raised = [], []

        def ask(seed):
            order = random.Random(seed).sample(pairs, len(pairs))
            try:
                for _ in range(100):
                    for e, c in order:
                        if ranking.query(e, c) is not want[e, c]:
                            wrong.append((e, c))
            except Exception as exc:
                raised.append(exc)

        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and raised == []
        held = [entry for row in ranking._answers.values() for entry in row.values()]
        assert len(held) <= ranking_module._ANSWERS == 256
        assert all(verdict is want[e, c] for e, c, verdict in held)


def _distinct_pairs(vocab) -> list[tuple]:
    """300 distinct (evidence, conclusion) pairs over penguin.kb's atoms."""
    lits = [parse_formula(t, vocab) for t in ("p", "!p", "b", "!b", "f", "!f", "l", "!l")]
    evidence = [And(x, y) for x, y in itertools.product(lits, lits)]  # 64 distinct conjunctions
    pairs = [(e, c) for c in lits[:5] for e in evidence][:300]
    assert len(set(pairs)) == 300
    return pairs


def _material_necessities(ranking):
    """Necessity under pi* of each rule's material form, !antecedent | consequent."""
    return tuple(nec(ranking.pi_star, implies(r.antecedent, r.consequent)) for r in ranking.rules)


class TestPriorities:
    def test_necessities_match_for_violable_rules(self, data_dir):
        for name in ("penguin.kb", "penguin_fixed.kb", "nolegs.kb"):
            doc = parse_kb((data_dir / name).read_text())
            ranking = compute_pi_star(doc.injected_base())
            assert _material_necessities(ranking) == ranking.priorities

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
        assert _material_necessities(ranking) == (2, 1, 2, 1, 2)


def _proof_verdict(base: RuleBase, evidence, conclusion) -> TriState:
    """A query's verdict as a possibilistic-logic proof, read off the
    weighted base Sigma = {(!A_i | B_i, p_i)} alone, never off pi*: with m
    strata and Sigma_{>k} the rules of priority above k, L = m - (the least
    k for which e & Sigma_{>k} has a model).  With L > 0 the conclusion is
    accepted when every such model satisfies it and rejected when none
    does; it is ignored otherwise, when L = 0, or when e has no model."""
    base = base.deduped()
    strata = stratify(base)
    m, n = len(strata), base.vocab.n
    material = [model_mask(TRUE, n)] * (m + 1)  # [p]: where every rule of priority p holds
    for s, members in enumerate(strata):
        for i in members:
            rule = base.rules[i]
            material[s + 1] &= model_mask(implies(rule.antecedent, rule.consequent), n)
    models = model_mask(evidence, n)  # of e & Sigma_{>k}, from k = m down
    if not models:
        return TriState.IGNORED
    k = m
    while k > 0 and models & material[k]:
        models &= material[k]
        k -= 1
    if k == m:  # L = m - k = 0
        return TriState.IGNORED
    proved = models & model_mask(conclusion, n)
    if proved == models:
        return TriState.ACCEPTED
    return TriState.REJECTED if not proved else TriState.IGNORED


class TestProofVerdicts:
    """StratifiedRanking.query against possibilistic logic: pi* is the
    distribution of the weighted base, so every verdict is a proof from
    the rules of priority above a cut (Benferhat, Dubois and Prade 1992)."""

    @staticmethod
    def _query_formula(rng, vocab):
        def literal():
            x = vocab.atom(rng.randrange(vocab.n))
            return Not(x) if rng.random() < 0.5 else x

        shape = rng.randrange(3)
        return literal() if shape == 0 else (And if shape == 1 else Or)(literal(), literal())

    def test_penguin_proofs(self, data_dir):
        # blocked inheritance, then its repair, as the README tells it
        for name, verdict in (("penguin", TriState.IGNORED), ("penguin_fixed", TriState.ACCEPTED)):
            doc = parse_kb((data_dir / f"{name}.kb").read_text())
            p, leg = parse_formula("p", doc.vocab), parse_formula("l", doc.vocab)
            assert _proof_verdict(doc.injected_base(), p, leg) is verdict

    def test_random_queries_agree(self, data_dir):
        # the consistent corpus bases and the rank-synthetic bases of seeds
        # 1 and 2, each with its indep: rules, as the query command builds it
        docs = [parse_kb((data_dir / f"{name}.kb").read_text()) for name in ("penguin", "penguin_fixed", "nolegs")]
        docs += [parse_kb(case.base.text) for seed in (1, 2) for case in bench_module("gen").rank_cases(seed)]
        assert len(docs) == 3 + 16
        rng = random.Random(0)
        seen = set()
        for base in (doc.injected_base() for doc in docs):
            ranking = compute_pi_star(base)
            for _ in range(400):
                e, c = (self._query_formula(rng, base.vocab) for _ in range(2))
                want = _proof_verdict(base, e, c)
                assert ranking.query(e, c) is want, (base.vocab.atoms, e, c)
                seen.add(want)
        assert seen == set(TriState)


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

    def test_every_literal_directive_on_every_two_atom_rule(self):
        # a directive `C wrt E given X` on a base whose pi* accepts X |~ C:
        # either the injected base keeps X |~ C and makes C weakly
        # independent of E given X, or it is inconsistent, and then X & E
        # was impossible, so the old pi* ignored X & E |~ !C.  The scope is
        # every one-rule base over the 16 events of two atoms, and every
        # directive whose three parts are false, true or a literal.
        vocab = Vocabulary(("a", "b"))
        events = [event_formula(mask, 2) for mask in range(16)]
        a, b = Atom(0), Atom(1)
        parts = (FALSE, TRUE, a, Not(a), b, Not(b))
        inconsistent = cases = accepted = kept = conflicting = 0
        for x, y in itertools.product(range(16), repeat=2):
            kb = RuleBase(vocab, (Rule(events[x], events[y]),))
            ranking = _ranking_or_none(kb)
            if ranking is None:
                inconsistent += 1
                continue
            for conclusion, extra, context in itertools.product(parts, repeat=3):
                cases += 1
                if ranking.query(context, conclusion) is not TriState.ACCEPTED:
                    continue
                accepted += 1
                injected = _ranking_or_none(inject_independence(kb, context, extra, conclusion))
                if injected is None:
                    conflicting += 1
                    assert poss(ranking.pi_star, And(context, extra)) == 0
                    assert ranking.query(And(context, extra), Not(conclusion)) is TriState.IGNORED
                else:
                    kept += 1
                    assert injected.query(context, conclusion) is TriState.ACCEPTED
                    assert cond_weak_indep(injected.pi_star, conclusion, context, extra)
        assert (inconsistent, cases, accepted) == (81, 37_800, 10_722)
        assert (kept, conflicting) == (7_083, 3_639)


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
