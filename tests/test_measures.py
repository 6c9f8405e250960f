import copy
import functools
import pickle
import random
import re
import sys
import threading
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given

from ordindep import (
    FALSE,
    TRUE,
    And,
    Atom,
    Dist,
    Formula,
    Not,
    Or,
    TriState,
    Vocabulary,
    compute_pi_star,
    cond_nec,
    cond_poss,
    cond_weak_indep,
    entails,
    nec,
    parse_formula,
    parse_kb,
    poss,
)
from ordindep import measures
from ordindep.lawlab import enumerate_dists
from ordindep.logic import evaluate, full_mask, mask_worlds, model_mask
from ordindep.measures import dist_from_bands

import stratify_oracle
from checks import bench_module, event_formula
from strategies import dist_with_formulas, dists, vocabs

AC = Vocabulary(("a", "c"))
A, C = Atom(0), Atom(1)

# worked example used across the suite: worlds !a!c, a!c, !ac, ac
WORKED = Dist(AC, 3, (1, 1, 2, 3))


class TestDistValidation:
    def test_levels_are_copied_into_a_tuple(self):
        levels = [3, 1]
        d = Dist(Vocabulary(("a",)), 3, levels)
        levels[0] = 0  # no world at the top any more, had the list been kept
        assert d.levels == (3, 1)
        assert poss(d, TRUE) == 3 and poss(d, Atom(0)) == 1
        assert d == Dist(Vocabulary(("a",)), 3, (3, 1))
        assert hash(d) == hash(Dist(Vocabulary(("a",)), 3, (3, 1)))
        # an int64 array is read as its values, not as its 8-byte buffer
        d = Dist(Vocabulary(("a",)), 3, np.array([3, 1]))
        assert d.levels == (3, 1) and poss(d, Atom(0)) == 1

    def test_top_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            Dist(AC, 0, (0, 0, 0, 0))

    def test_level_vector_length(self):
        with pytest.raises(ValueError, match="levels"):
            Dist(AC, 1, (1, 0))

    def test_level_range(self):
        with pytest.raises(ValueError, match="outside"):
            Dist(AC, 1, (0, 0, 2, 1))
        with pytest.raises(ValueError, match="outside"):
            Dist(AC, 1, (0, 0, -1, 1))

    def test_normalization_required(self):
        with pytest.raises(ValueError, match="not normalized"):
            Dist(AC, 2, (0, 1, 1, 0))

    def test_is_total_order(self):
        assert Dist(Vocabulary(("a",)), 1, (0, 1)).is_total_order()
        assert not WORKED.is_total_order()
        four = Dist(AC, 3, (0, 1, 2, 3))
        assert four.is_total_order()

    def test_non_integer_levels_and_tops(self):
        with pytest.raises(ValueError, match=r"^level 1\.5 at world 0 is not an integer$"):
            Dist(AC, 3, (1.5, 1, 2, 3))
        with pytest.raises(ValueError, match=r"^level 'x' at world 2 is not an integer$"):
            Dist(AC, 3, (0, 1, "x", 3))
        with pytest.raises(ValueError, match=r"^level \[1\] at world 1 is not an integer$"):
            Dist(AC, 3, (0, [1], 2, 3))
        with pytest.raises(ValueError, match=r"^level 3\.0 at world 3 is not an integer$"):
            Dist(AC, 3, (0, 1, 2, 3.0))
        with pytest.raises(ValueError, match=r"^top level must be an integer, got 2\.5$"):
            Dist(AC, 2.5, (0, 1, 2, 2.5))
        with pytest.raises(ValueError, match=r"^top level must be an integer, got '3'$"):
            Dist(AC, "3", (0, 1, 2, 3))
        # the first bad world is named, whether its level is no integer or out of range
        with pytest.raises(ValueError, match=r"^level 7 at world 0 outside 0\.\.3$"):
            Dist(AC, 3, (7, "x", 2, 3))
        with pytest.raises(ValueError, match=r"^level 'x' at world 1 is not an integer$"):
            Dist(AC, 3, (0, "x", 700, 3))
        # length before range before normalization
        with pytest.raises(ValueError, match="need 4 levels"):
            Dist(AC, 3, (0.5, 1))
        with pytest.raises(ValueError, match="outside"):
            Dist(AC, 300, (0, 1, 2, 301))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_levels_build_the_int_dist(self, n):
        # bools, numpy integers and any other operator.index value are
        # integers, and build the Dist their plain ints build
        class Level:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        vocab = Vocabulary(tuple("abc"[:n]))
        rng = random.Random(n)
        for top in (1, 3, 120, 300):
            ints = [top] + [rng.randint(0, top) for _ in range(1, 1 << n)]
            want = Dist(vocab, top, ints)
            same = [np.array(ints, dtype=np.int8), np.array(ints, dtype=np.uint8)] if top < 128 else []
            if top == 1:
                same.append([bool(lv) for lv in ints])
            for levels in same:
                d = Dist(vocab, top, levels)
                assert d == want and hash(d) == hash(want), levels
                assert d._ranked == want._ranked and d._planes == want._planes, levels
            # no __eq__ or __hash__ of its own: only the derived fields match
            d = Dist(vocab, top, [Level(lv) for lv in ints])
            assert d._ranked == want._ranked and d._planes == want._planes, top
        floats = np.array(ints, dtype=np.float64)
        with pytest.raises(ValueError, match=f"^{re.escape(f'level {floats[0]!r} at world 0')} is not an integer$"):
            Dist(vocab, top, floats)

    def test_all_distinct_levels_build_one_row_at_a_time(self):
        # 2**16 levels and 0 rank into 65,537 codes, 17 bit-planes of 8 KB
        # each, built from one 64 KB digit row at a time; a mask per level
        # would hold about 256 MB
        n = 16
        count = 1 << n
        levels = list(range(1, count + 1))
        random.Random(n).shuffle(levels)
        levels = tuple(levels)
        vocab = Vocabulary(tuple(f"x{i}" for i in range(n)))
        tracemalloc.start()
        try:
            d = Dist(vocab, count, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak
        assert d._ranked == tuple(range(count + 1))
        want = {1 << j: int("".join("1" if lv >> j & 1 else "0" for lv in reversed(levels)), 2) for j in range(17)}
        assert [bit for bit, _ in d._planes] == sorted(want, reverse=True)
        assert [bit for bit, plane in d._planes if plane != want[bit]] == []
        assert d.is_total_order()
        rng = random.Random(16)
        for k in range(50):
            worlds = rng.sample(range(count), int(2 ** rng.uniform(0, 12)))
            assert d.poss_mask(sum(1 << w for w in worlds)) == _oracle_poss(levels, worlds), k


def _oracle_poss(levels, worlds) -> int:
    return max((levels[w] for w in worlds), default=0)


def _chain_base(n: int) -> str:
    """Penguin-shaped chain: x_i |~ x_{i+1}, x_i & x_{i+1} |~ +-x_{i+2}."""
    xs = [f"x{i}" for i in range(n)]
    lines = [f"atoms: {' '.join(xs)}"]
    lines += [f"rule: {xs[i]} |~ {xs[i + 1]}" for i in range(n - 1)]
    lines += [f"rule: {xs[i]} & {xs[i + 1]} |~ {'!' * (i % 2)}{xs[i + 2]}" for i in range(n - 2)]
    return "\n".join(lines) + "\n"


class TestPossibilityOracle:
    """poss_mask reads the bit-planes; the oracle reads the levels."""

    @given(vocabs(max_atoms=3).flatmap(lambda v: dists(v, max_top=4)))
    def test_every_mask(self, d):
        for mask in range(1 << d.vocab.world_count):
            worlds = [w for w in range(d.vocab.world_count) if (mask >> w) & 1]
            assert d.poss_mask(mask) == _oracle_poss(d.levels, worlds), mask

    def test_seeded_masks_on_14_atom_pi_star(self):
        d = compute_pi_star(parse_kb(_chain_base(14)).base()).pi_star
        count = d.vocab.world_count
        below_top = [w for w, lv in enumerate(d.levels) if lv < d.top]
        assert len(set(d.levels)) > 2 and below_top
        rng = random.Random(14)
        for k in range(200):
            pool = below_top if k % 2 else range(count)
            worlds = rng.sample(pool, min(len(pool), int(2 ** rng.uniform(0, 14)) - 1))
            mask = sum(1 << w for w in worlds)
            assert d.poss_mask(mask) == _oracle_poss(d.levels, worlds), k

    def test_equality_and_hash_ignore_planes(self):
        twin = Dist(AC, 3, (1, 1, 2, 3))
        object.__setattr__(twin, "_ranked", ())
        object.__setattr__(twin, "_planes", ())
        assert twin == WORKED
        assert hash(twin) == hash(WORKED)
        assert "_ranked" not in repr(WORKED) and "_planes" not in repr(WORKED)
        assert Dist(AC, 3, (1, 2, 1, 3)) != WORKED


def _banded_worked() -> Dist:
    """WORKED built from its bands: !a!c and a!c at 1, !ac at 2, ac at the top."""
    return dist_from_bands(AC, 3, [(1, 0b0011), (2, 0b0100)])


class TestBandBuiltDist:
    """The record contract of a Dist that dist_from_bands builds."""

    def test_equals_hashes_and_prints_like_its_levels(self):
        d = _banded_worked()
        assert "levels" not in vars(d)
        assert d == WORKED and WORKED == _banded_worked()
        assert hash(_banded_worked()) == hash(WORKED)
        assert repr(_banded_worked()) == repr(WORKED)
        assert (d._ranked, d._planes) == (WORKED._ranked, WORKED._planes)
        assert _banded_worked() != Dist(AC, 3, (1, 2, 1, 3))

    @pytest.mark.parametrize("copier", [lambda d: pickle.loads(pickle.dumps(d)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copies_rebuild_an_equal_dist(self, copier):
        d = _banded_worked()
        twin = copier(d)
        assert type(twin) is Dist and twin == d and hash(twin) == hash(d)
        assert (twin._ranked, twin._planes) == (d._ranked, d._planes)
        assert "_bands" not in vars(twin)  # rebuilt from its levels by the constructor

    def test_nothing_can_be_set_or_deleted(self):
        d = _banded_worked()
        for name in ("_ranked", "_planes", "_bands", "levels", "top"):
            with pytest.raises(AttributeError):
                setattr(d, name, None)
            with pytest.raises(AttributeError):
                delattr(d, name)
        assert "levels" not in vars(d) and d == WORKED

    def test_a_miss_is_an_attribute_error(self):
        d = _banded_worked()
        assert not hasattr(d, "bogus") and not hasattr(WORKED, "_bands")
        with pytest.raises(AttributeError, match="'Dist' object has no attribute 'bogus'"):
            d.bogus

    def test_a_ranking_answers_without_deriving_levels(self, data_dir, monkeypatch):
        def refuse(mask):
            raise AssertionError("levels derived")

        doc = parse_kb((data_dir / "penguin_fixed.kb").read_text())
        twin = stratify_oracle.pi_star(doc.injected_base())[1]
        monkeypatch.setattr(measures, "mask_worlds", refuse)
        ranking = compute_pi_star(doc.injected_base())
        d = ranking.pi_star
        p, b, l = (parse_formula(t, doc.vocab) for t in ("p", "b", "l"))
        assert ranking.query(p, l) is TriState.ACCEPTED and ranking.query(p, l) is TriState.ACCEPTED
        assert entails(d, And(p, b), l) is entails(twin, And(p, b), l)
        for measure in (cond_poss, cond_nec):
            assert measure(d, l, p) == measure(twin, l, p) and measure(d, Not(l), b) == measure(twin, Not(l), b)
        assert [poss(d, f) for f in (p, b, l)] == [poss(twin, f) for f in (p, b, l)]
        assert [nec(d, f) for f in (p, b, l)] == [nec(twin, f) for f in (p, b, l)]
        assert doc.directives and all(cond_weak_indep(d, x.conclusion, x.context, x.extra) for x in doc.directives)
        assert "levels" not in vars(d)

    def test_a_first_read_derives_levels_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(measures, "mask_worlds", lambda mask: calls.append(mask) or mask_worlds(mask))
        d = _banded_worked()
        first = d.levels
        assert first == (1, 1, 2, 3) and calls == [0b0011, 0b0100]
        assert d.levels is first and vars(d)["levels"] is first
        assert d == WORKED and hash(d) == hash(WORKED) and d.is_total_order() is False
        assert calls == [0b0011, 0b0100]

    def test_racing_first_reads_see_one_tuple(self):
        kb = parse_kb(_chain_base(12)).base()
        want = stratify_oracle.pi_star(kb)[1].levels
        d = compute_pi_star(kb).pi_star
        barrier = threading.Barrier(4)
        seen = []

        def read():
            barrier.wait()
            seen.append(d.levels)

        threads = [threading.Thread(target=read) for _ in range(4)]
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
        assert len(seen) == 4 and all(levels is d.levels for levels in seen) and d.levels == want

    def test_bands_may_repeat_a_level_or_be_empty(self):
        d = dist_from_bands(AC, 3, [(1, 0b0001), (2, 0), (1, 0b0010), (2, 0b0100)])
        assert d == WORKED and (d._ranked, d._planes) == (WORKED._ranked, WORKED._planes)
        flat = dist_from_bands(AC, 2, [])
        assert flat == Dist(AC, 2, (2, 2, 2, 2)) and flat._planes == Dist(AC, 2, (2,) * 4)._planes
        low = dist_from_bands(AC, 5, [(0, 0b1000), (0, 0b0001)])
        assert low == Dist(AC, 5, (0, 5, 5, 0)) and low._ranked == (0, 5)

    def test_bad_bands(self):
        with pytest.raises(ValueError, match="top level must be at least 1, got 0"):
            dist_from_bands(AC, 0, [])
        with pytest.raises(ValueError, match="band level 3 outside 0..2"):
            dist_from_bands(AC, 3, [(3, 0b0001)])
        with pytest.raises(ValueError, match="band level -1 outside 0..2"):
            dist_from_bands(AC, 3, [(-1, 0b0001)])
        with pytest.raises(ValueError, match="not normalized"):
            dist_from_bands(AC, 3, [(1, 0b0011), (2, 0b1100)])


def _levels_using(values, n: int, rng: random.Random) -> tuple:
    """One level per world over n atoms, each of values used at least once."""
    values = list(values)
    levels = values + [rng.choice(values) for _ in range((1 << n) - len(values))]
    rng.shuffle(levels)
    return tuple(levels)


@functools.cache
def _query_pool(n: int) -> tuple:
    """Seeded evidence and conclusion formulas over n atoms, each with its
    truth value at every world, by logic.evaluate."""
    rng = random.Random(n)

    def literals(k):
        return [Atom(i) if rng.random() < 0.5 else Not(Atom(i)) for i in rng.sample(range(n), k)]

    evidence = [reduce(And, literals(rng.randint(1, n))) for _ in range(16)]
    conclusions = [reduce(Or, literals(rng.randint(1, 3))) for _ in range(3)] + [Atom(0)]
    table = {f: [evaluate(w, f) for w in range(1 << n)] for f in evidence + conclusions}
    return evidence, conclusions, table


def _oracle_verdict(levels, e_truth, c_truth) -> TriState:
    keep = _oracle_poss(levels, [w for w, (e, c) in enumerate(zip(e_truth, c_truth)) if e and c])
    drop = _oracle_poss(levels, [w for w, (e, c) in enumerate(zip(e_truth, c_truth)) if e and not c])
    if keep == drop:
        return TriState.IGNORED
    return TriState.ACCEPTED if keep > drop else TriState.REJECTED


class TestPlanesDifferential:
    """poss_mask and entails against the levels, where a level code crosses
    a byte: 1, 2, 255, 256 and 257 distinct levels in use over 9 atoms,
    dense from 0 or 1 or spread below tops of 250, 300, 70,000 and 2**70."""

    N = 9

    @pytest.mark.parametrize(
        "distinct, zero, top",
        [
            (d, z, top)
            for top in (None, 250, 300, 70_000, 2**70)
            for d in (1, 2, 255, 256, 257)
            for z in (False, True)
            if (d > 1 or not z) and (top is None or d <= top + z)
        ],
    )
    def test_against_levels(self, distinct, zero, top):
        n = self.N
        count = 1 << n
        rng = random.Random(f"{distinct} {zero} {top}")
        if top is None:
            top = distinct - zero
            values = set(range(top + 1 - distinct, top + 1))
        else:
            values = {top, *([0] if zero else [])}
            while len(values) < distinct:
                values.add(rng.randrange(1, top))
        levels = _levels_using(sorted(values), n, rng)
        d = Dist(Vocabulary(tuple(f"x{i}" for i in range(n))), top, levels)
        assert len(d._planes) == (len(values | {0}) - 1).bit_length()

        assert d.poss_mask(0) == 0
        assert d.poss_mask(full_mask(n)) == top
        for w in range(count):
            assert d.poss_mask(1 << w) == levels[w], w
        for k in range(100):
            worlds = rng.sample(range(count), int(2 ** rng.uniform(0, n)))
            assert d.poss_mask(sum(1 << w for w in worlds)) == _oracle_poss(levels, worlds), k

        evidence, conclusions, table = _query_pool(n)
        for e in evidence:
            for c in conclusions:
                assert entails(d, e, c) is _oracle_verdict(levels, table[e], table[c]), (e, c)
        zeros = [w for w in range(count) if levels[w] == 0]
        assert bool(zeros) == zero
        if zeros:
            # evidence whose worlds all sit at level 0: both cells at 0
            e = event_formula(sum(1 << w for w in zeros[:3]), n)
            for c in (Atom(0), Not(Atom(0)), TRUE):
                assert entails(d, e, c) is TriState.IGNORED


class TestMeasureOracle:
    """nec, cond_poss and cond_nec against the levels of the worlds that
    logic.evaluate picks out, with no mask and no Not node."""

    @given(dist_with_formulas(count=2, max_top=4))
    def test_against_levels(self, dfg):
        d, c, a = dfg

        def level(keep) -> int:
            return _oracle_poss(d.levels, [w for w in range(d.vocab.world_count) if keep(w)])

        pa = level(lambda w: evaluate(w, a))
        pac = level(lambda w: evaluate(w, a) and evaluate(w, c))
        pa_nc = level(lambda w: evaluate(w, a) and not evaluate(w, c))
        assert nec(d, c) == d.top - level(lambda w: not evaluate(w, c))
        assert cond_poss(d, c, a) == (d.top if pac == pa else pac)
        assert cond_nec(d, c, a) == d.top - (d.top if pa_nc == pa else pa_nc)


class TestUnconditionalMeasures:
    def test_worked_poss(self):
        assert poss(WORKED, A) == 3
        assert poss(WORKED, Not(C)) == 1
        assert poss(WORKED, TRUE) == 3
        assert poss(WORKED, FALSE) == 0

    def test_worked_nec(self):
        assert nec(WORKED, C) == 2
        assert nec(WORKED, A) == 1
        assert nec(WORKED, TRUE) == 3
        assert nec(WORKED, FALSE) == 0

    @given(dist_with_formulas(count=2))
    def test_duality(self, dfg):
        d, f, _ = dfg
        assert nec(d, f) == d.top - poss(d, Not(f))

    @given(dist_with_formulas(count=2))
    def test_maxitivity(self, dfg):
        d, f, g = dfg
        assert poss(d, Or(f, g)) == max(poss(d, f), poss(d, g))

    @given(dist_with_formulas(count=2))
    def test_necessity_min_on_conjunction(self, dfg):
        d, f, g = dfg
        assert nec(d, And(f, g)) == min(nec(d, f), nec(d, g))


class TestConditionalMeasures:
    def test_promoted_to_top(self):
        # poss(a & c) = 3 = poss(a), so conditioning promotes to top
        assert cond_poss(WORKED, C, A) == 3

    def test_unpromoted(self):
        # poss(a & !c) = 1 < poss(a) = 3, so the raw level survives
        assert cond_poss(WORKED, Not(C), A) == 1

    def test_impossible_evidence(self):
        assert cond_poss(WORKED, C, FALSE) == 3
        assert cond_poss(WORKED, Not(C), FALSE) == 3

    def test_worked_cond_nec(self):
        assert cond_nec(WORKED, C, A) == 2
        assert cond_nec(WORKED, C, TRUE) == 2

    @given(dist_with_formulas(count=2))
    def test_cond_poss_case_split(self, dfg):
        d, c, a = dfg
        joint = poss(d, And(a, c))
        expected = d.top if joint == poss(d, a) else joint
        assert cond_poss(d, c, a) == expected

    @given(dist_with_formulas(count=2))
    def test_cond_duality(self, dfg):
        d, c, a = dfg
        assert cond_nec(d, c, a) == d.top - cond_poss(d, Not(c), a)

    @given(dist_with_formulas(count=1))
    def test_conditioning_on_true_is_unconditional(self, df):
        d, c = df
        assert cond_poss(d, c, TRUE) == poss(d, c)
        assert cond_nec(d, c, TRUE) == nec(d, c)


class TestEntailment:
    def test_worked_verdicts(self):
        assert entails(WORKED, A, C) is TriState.ACCEPTED
        assert entails(WORKED, TRUE, C) is TriState.ACCEPTED
        assert entails(WORKED, Not(C), A) is TriState.IGNORED

    def test_rejected(self):
        evidence = Or(And(Not(A), Not(C)), And(A, Not(C)))
        assert entails(WORKED, evidence, C) is TriState.REJECTED

    def test_impossible_evidence_ignored(self):
        assert entails(WORKED, FALSE, C) is TriState.IGNORED

    def test_tristate_str(self):
        assert str(TriState.ACCEPTED) == "Accepted"
        assert str(TriState.REJECTED) == "Rejected"
        assert str(TriState.IGNORED) == "Ignored"

    @given(dist_with_formulas(count=2))
    def test_verdict_matches_cell_comparison(self, dfg):
        d, e, c = dfg
        keep = poss(d, And(e, c))
        drop = poss(d, And(e, Not(c)))
        verdict = entails(d, e, c)
        if keep > drop:
            assert verdict is TriState.ACCEPTED
        elif drop > keep:
            assert verdict is TriState.REJECTED
        else:
            assert verdict is TriState.IGNORED

    @given(dist_with_formulas(count=2))
    def test_accepted_iff_positive_conditional_necessity(self, dfg):
        d, e, c = dfg
        assert (entails(d, e, c) is TriState.ACCEPTED) == (cond_nec(d, c, e) > 0)


def _two_cell_verdict(d: Dist, e: Formula, c: Formula) -> TriState:
    """Acceptance as defined: the possibility of e & c against that of e & !c."""
    n = d.vocab.n
    e_mask, c_mask = model_mask(e, n), model_mask(c, n)
    keep = d.poss_mask(e_mask & c_mask)
    drop = d.poss_mask(e_mask & (full_mask(n) ^ c_mask))
    if keep > drop:
        return TriState.ACCEPTED
    if keep < drop:
        return TriState.REJECTED
    return TriState.IGNORED


class TestEntailmentDifferential:
    """entails, which reads one descent of the bit-planes, against the
    two-cell definition."""

    def test_every_dist_and_event_pair_at_2_3(self):
        events = [event_formula(mask, 2) for mask in range(16)]
        assert [model_mask(e, 2) for e in events] == list(range(16))
        seen = set()
        for d in enumerate_dists(2, 3):
            for e in events:
                for c in events:
                    want = _two_cell_verdict(d, e, c)
                    assert entails(d, e, c) is want, (d.levels, model_mask(e, 2), model_mask(c, 2))
                    seen.add(want)
        assert seen == set(TriState)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pool_queries_on_rank_case_pi_star(self, seed):
        for case in bench_module("gen").rank_cases(seed):
            doc = parse_kb(case.base.text)
            d = compute_pi_star(doc.injected_base()).pi_star
            vocab = doc.vocab
            # one world at level 0 and one at the top, as full conjunctions
            # of literals: evidence at level 0 only, and at the top only
            minterms = [
                " & ".join(name if (w >> i) & 1 else "!" + name for i, name in enumerate(vocab.atoms))
                for w in (d.levels.index(0), d.levels.index(d.top))
            ]
            first = vocab.atoms[0]
            edge_evidence = [*minterms, f"{first} & !{first}", "false", "true"]
            conclusions = sorted({c for _, c in case.pool})
            queries = [*case.pool, *((e, c) for e in edge_evidence for c in conclusions)]
            verdicts = set()
            for etext, ctext in queries:
                e, c = parse_formula(etext, vocab), parse_formula(ctext, vocab)
                want = _two_cell_verdict(d, e, c)
                assert entails(d, e, c) is want, (case.base.signs, etext, ctext)
                verdicts.add(want)
            assert TriState.IGNORED in verdicts
