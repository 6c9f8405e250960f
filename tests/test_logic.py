import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordindep import (
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    Not,
    Or,
    Vocabulary,
    format_formula,
    iff,
    implies,
    model_mask,
    parse_formula,
)
from ordindep import (
    Dist,
    IndepDirective,
    IndepReport,
    ParsedDocument,
    Rule,
    RuleBase,
    RuleOrigin,
    StratifiedRanking,
    TriState,
    logic,
)
from ordindep.lawlab import Counterexample, Law, LawReport, ProbeReport
from ordindep.logic import MAX_ATOMS, Record, _atom_pattern, evaluate, full_mask, mask_worlds

from strategies import formulas, vocabs

AB = Vocabulary(("a", "b"))
A, B = Atom(0), Atom(1)


class TestVocabulary:
    def test_basic(self):
        v = Vocabulary(("p", "b", "f"))
        assert v.n == 3
        assert v.world_count == 8
        assert v.index("f") == 2
        assert v.atom(1) == Atom(1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Vocabulary(())

    def test_atoms_list_is_copied(self):
        names = ["a", "b"]
        v = Vocabulary(names)
        names.append("c")
        assert v.atoms == ("a", "b") and v.n == 2
        with pytest.raises(KeyError):
            v.index("c")
        assert v == Vocabulary(("a", "b")) and hash(v) == hash(Vocabulary(("a", "b")))

    def test_rejects_too_many(self):
        names = tuple(f"x{i}" for i in range(MAX_ATOMS + 1))
        with pytest.raises(ValueError):
            Vocabulary(names)

    def test_max_atoms_ok(self):
        v = Vocabulary(tuple(f"x{i}" for i in range(MAX_ATOMS)))
        assert v.world_count == 1 << MAX_ATOMS

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(("a", "a"))

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError, match="bad atom name"):
            Vocabulary(("2x",))

    @pytest.mark.parametrize(
        "word",
        ["true", "false", "wrt", "given", "True", "False", "Wrt", "Given", "TRUE", "FALSE", "WRT", "GIVEN"],
    )
    def test_rejects_reserved(self, word):
        with pytest.raises(ValueError, match="reserved"):
            Vocabulary((word,))

    @pytest.mark.parametrize("name", ["Truth", "given_x", "wrt2", "falsey", "TRUE_"])
    def test_names_that_only_contain_a_reserved_word(self, name):
        v = Vocabulary((name, "b"))
        text = format_formula(And(v.atom(0), Not(v.atom(1))), v)
        assert text == f"{name} & !b"
        assert parse_formula(text, v) == And(Atom(0), Not(Atom(1)))

    def test_unknown_atom(self):
        with pytest.raises(KeyError):
            AB.index("z")

    def test_atom_index_range(self):
        with pytest.raises(IndexError):
            AB.atom(2)

    def test_format_world(self):
        assert AB.format_world(0) == "!a !b"
        assert AB.format_world(1) == "a !b"
        assert AB.format_world(2) == "!a b"
        assert AB.format_world(3) == "a b"


class TestMasks:
    # bit w of a mask is world w; worlds over (a, b) are 0=!a!b .. 3=ab
    def test_atom_masks(self):
        assert model_mask(A, 2) == 0b1010
        assert model_mask(B, 2) == 0b1100

    def test_constants(self):
        assert model_mask(TRUE, 2) == 0b1111
        assert model_mask(FALSE, 2) == 0

    def test_connectives(self):
        assert model_mask(Not(A), 2) == 0b0101
        assert model_mask(And(A, B), 2) == 0b1000
        assert model_mask(Or(A, B), 2) == 0b1110
        assert model_mask(Not(Or(A, B)), 2) == 0b0001

    def test_model_worlds(self):
        assert mask_worlds(model_mask(And(A, B), 2)) == [3]
        assert mask_worlds(model_mask(Or(A, Not(A)), 2)) == [0, 1, 2, 3]
        assert mask_worlds(model_mask(FALSE, 2)) == []

    def test_atom_stripes_match_brute_force(self):
        for n in range(1, 13):
            for i in range(n):
                stripe = sum(1 << w for w in range(1 << n) if (w >> i) & 1)
                assert _atom_pattern(i, n) == stripe, (i, n)

    def test_full_mask_is_every_world(self):
        for n in range(1, MAX_ATOMS + 1):
            every = 0
            for w in range(1 << n):
                every |= 1 << w
            assert full_mask(n) == model_mask(TRUE, n) == every, n

    @given(st.integers(0, 1 << 70))
    def test_mask_worlds(self, mask):
        assert mask_worlds(mask) == [w for w in range(mask.bit_length()) if (mask >> w) & 1]

    def test_atom_out_of_vocab(self):
        with pytest.raises(ValueError):
            model_mask(Atom(5), 2)

    def test_implies_iff_masks(self):
        assert model_mask(implies(A, B), 2) == 0b1101
        assert model_mask(iff(A, B), 2) == 0b1001

    @given(vocabs(), formulas(Vocabulary(("a", "b", "c"))))
    def test_mask_matches_pointwise_evaluation(self, vocab, formula):
        # formulas drawn over 3 atoms; only keep those inside the vocab
        mask = None
        try:
            mask = model_mask(formula, vocab.n)
        except ValueError:
            return
        for w in range(vocab.world_count):
            assert bool((mask >> w) & 1) == evaluate(w, formula)


class TestFormulaStructure:
    def test_structural_equality(self):
        assert And(A, B) == And(A, B)
        assert And(A, B) != And(B, A)
        assert Not(Not(A)) != A
        assert hash(And(A, B)) == hash(And(A, B))

    def test_constants_are_singleton_like(self):
        assert TRUE == TRUE
        assert FALSE != TRUE

    def test_different_node_types_with_equal_parts_differ(self):
        assert And(A, B) != Or(A, B)
        assert Not(A) != A
        assert And(A, B) != (A, B)

    @given(formulas(Vocabulary(("a", "b", "c"))))
    def test_repr_round_trip(self, formula):
        rebuilt = eval(repr(formula), vars(logic))
        assert rebuilt == formula
        assert hash(rebuilt) == hash(formula)

    def test_constant_reprs(self):
        assert repr(TRUE) == "TrueFormula()"
        assert repr(FALSE) == "FalseFormula()"
        assert repr(And(A, Not(B))) == "And(Atom(0), Not(Atom(1)))"

    def test_immutability(self):
        for f in (A, Not(A), And(A, B), Or(A, B), TRUE, FALSE):
            for name in ("left", "right", "child", "index", "_hash", "_masks"):
                with pytest.raises(AttributeError):
                    setattr(f, name, 3)

    def test_operator_sugar(self):
        assert (A & B) == And(A, B)
        assert (A | B) == Or(A, B)
        assert ~A == Not(A)

    def test_atom_index_validation(self):
        with pytest.raises(ValueError):
            Atom(-1)
        with pytest.raises(ValueError):
            Atom(MAX_ATOMS)

    def test_formulas_usable_as_dict_keys(self):
        table = {And(A, B): 1, Or(A, B): 2}
        assert table[And(A, B)] == 1

    @pytest.mark.parametrize("copier", [lambda f: pickle.loads(pickle.dumps(f)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_rebuild_through_the_constructor(self, copier):
        for f in (Atom(1), Not(A), And(A, Not(B)), Or(TRUE, B), TRUE, FALSE):
            model_mask(f, 2)
            rebuilt = copier(f)
            assert type(rebuilt) is type(f)
            assert rebuilt == f and hash(rebuilt) == hash(f) and repr(rebuilt) == repr(f)
            assert model_mask(rebuilt, 2) == model_mask(f, 2)
        assert copier(Atom(1)) is logic.ATOMS[1]
        assert copier(TRUE) is TRUE and copier(FALSE) is FALSE
        # a shallow copy keeps the children; the others rebuild them too
        assert copier(Not(A)).child is (A if copier is copy.copy else logic.ATOMS[0])


class TestFormatting:
    def test_precedence_flat(self):
        f = Or(And(A, Not(B)), B)
        assert format_formula(f, AB) == "a & !b | b"

    def test_parens_when_needed(self):
        f = And(Or(A, B), B)
        assert format_formula(f, AB) == "(a | b) & b"

    def test_right_nesting_preserved(self):
        f = And(A, And(B, B))
        assert format_formula(f, AB) == "a & (b & b)"

    def test_vocab_required(self):
        with pytest.raises(TypeError):
            format_formula(And(A, Not(B)))

    def test_constants(self):
        assert format_formula(Or(TRUE, FALSE), AB) == "true | false"

    @given(formulas(Vocabulary(("a", "b", "c"))))
    def test_round_trip(self, formula):
        vocab = Vocabulary(("a", "b", "c"))
        text = format_formula(formula, vocab)
        assert parse_formula(text, vocab) == formula


AC = Vocabulary(("a", "c"))
RULE = Rule(A, B)
DIST = Dist(AC, 3, (1, 1, 2, 3))

# one valid instance of every record class, as its fields by keyword in
# field order, plus another value for its last field
RECORDS = {
    Vocabulary: ({"atoms": ("a", "c")}, ("a", "b")),
    Dist: ({"vocab": AC, "top": 3, "levels": (1, 1, 2, 3)}, (3, 1, 2, 3)),
    IndepReport: (
        {"unrelated_z": True, "weak": True, "strong": True,
         "poss_ac": 3, "poss_a_nc": 1, "poss_na_c": 2, "poss_na_nc": 1},
        0,
    ),
    Rule: ({"antecedent": A, "consequent": B, "origin": RuleOrigin.INDEPENDENCE}, RuleOrigin.USER),
    RuleBase: ({"vocab": AB, "rules": (RULE,)}, ()),
    StratifiedRanking: (
        {"vocab": AB, "rules": (RULE,), "strata": (frozenset({0}),), "pi_star": DIST, "priorities": (1,)},
        (2,),
    ),
    IndepDirective: ({"conclusion": A, "extra": B, "context": TRUE}, FALSE),
    ParsedDocument: ({"vocab": AB, "rules": (RULE,), "directives": ()}, (IndepDirective(A, B, TRUE),)),
    Law: ({"law_id": "x", "arity": 1, "note": "", "predicate": len}, abs),
    Counterexample: ({"dist": DIST, "formulas": (A,)}, (B,)),
    LawReport: (
        {"law_id": "x", "atoms": 2, "top": 3, "evaluations": 10, "holds": False,
         "counterexample": Counterexample(DIST, (A,))},
        None,
    ),
    ProbeReport: ({"atoms": 1, "candidates": 64, "satisfying": 20, "realized": 5, "unrealized": ()}, (7,)),
}


def test_every_record_class_is_covered():
    assert set(RECORDS) == set(Record.__subclasses__())


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
class TestRecord:
    def test_equal_fields_give_equal_records_and_hashes(self, cls):
        fields, _ = RECORDS[cls]
        values = tuple(fields.values())
        rec = cls(*values)
        assert rec == cls(*values) and not (rec != cls(*values))
        assert hash(rec) == hash(cls(*values)) == hash(values)
        assert {rec: 1}[cls(*values)] == 1

    def test_a_different_field_gives_a_different_record(self, cls):
        fields, other = RECORDS[cls]
        values = tuple(fields.values())
        assert cls(*values) != cls(*values[:-1], other)

    def test_not_equal_to_a_tuple_or_another_class(self, cls):
        fields, _ = RECORDS[cls]
        values = tuple(fields.values())
        rec = cls(*values)
        assert rec != values
        twin = type("Twin", (cls,), {})
        assert twin(*values) != rec and rec != twin(*values)
        with pytest.raises(TypeError):
            len(rec)

    def test_keyword_construction(self, cls):
        fields, _ = RECORDS[cls]
        rec = cls(**fields)
        assert rec == cls(*fields.values())
        assert rec == cls(*list(fields.values())[:1], **dict(list(fields.items())[1:]))
        for name, value in fields.items():
            assert getattr(rec, name) is value

    def test_immutable(self, cls):
        fields, _ = RECORDS[cls]
        rec = cls(**fields)
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(rec, name, 1)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert rec == cls(**fields)

    def test_bad_arguments(self, cls):
        fields, _ = RECORDS[cls]
        values = tuple(fields.values())
        with pytest.raises(TypeError, match="takes"):
            cls(*values, 0)
        with pytest.raises(TypeError, match="missing"):
            cls(**dict(list(fields.items())[1:]))
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(*values, bogus=0)
        with pytest.raises(TypeError, match="multiple values"):
            cls(*values, **{next(iter(fields)): values[0]})

    def test_pickle_and_copies_are_equal(self, cls):
        fields, _ = RECORDS[cls]
        rec = cls(**fields)
        for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
            assert type(twin) is cls and twin == rec and hash(twin) == hash(rec)

    def test_repr_names_every_field(self, cls):
        fields, _ = RECORDS[cls]
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


def tuple_fields(cls) -> list[str]:
    return [name for name, kind in cls.__dict__.get("__annotations__", {}).items() if kind.startswith("tuple[")]


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if tuple_fields(cls)], ids=lambda cls: cls.__name__)
def test_a_callers_lists_stay_theirs(cls):
    # every tuple field may come in as a list; the record keeps a tuple
    fields, _ = RECORDS[cls]
    lists = {name: list(fields[name]) for name in tuple_fields(cls)}
    rec = cls(**{**fields, **lists})
    assert rec == cls(**fields) and hash(rec) == hash(cls(**fields))
    for name, value in lists.items():
        assert type(getattr(rec, name)) is tuple
        value.append(value[0] if value else None)
    assert rec == cls(**fields) and hash(rec) == hash(cls(**fields))


def test_list_taking_records():
    assert {cls for cls in RECORDS if tuple_fields(cls)} == {
        Vocabulary, Dist, RuleBase, StratifiedRanking, ParsedDocument, Counterexample, ProbeReport
    }


@pytest.mark.parametrize(
    "cls,name",
    [(cls, name) for cls in RECORDS for name in tuple_fields(cls)],
    ids=lambda x: x if isinstance(x, str) else x.__name__,
)
def test_a_str_for_a_tuple_field_is_refused(cls, name):
    # tuple("ab") would quietly be ("a", "b")
    fields, _ = RECORDS[cls]
    with pytest.raises(TypeError, match=rf"{cls.__name__}\(\) field '{name}' .* not the str 'ab'"):
        cls(**{**fields, name: "ab"})


def test_a_subclass_stores_its_own_and_inherited_tuple_fields():
    class Tagged(RuleBase):
        extra: tuple[int, ...] = ()

    rules, extra = [RULE], [1, 2]
    rec = Tagged(AB, rules, extra)
    rules.append(RULE)
    extra.append(3)
    assert (rec.rules, rec.extra) == ((RULE,), (1, 2))
    assert Tagged(AB, [RULE]).extra == () and hash(rec) == hash((AB, (RULE,), (1, 2)))
    with pytest.raises(TypeError, match="'extra'"):
        Tagged(AB, [RULE], "12")


def test_only_validating_records_define_post_init():
    # the tuple rule lives in Record; a __post_init__ validates or derives
    assert {cls for cls in RECORDS if "__post_init__" in cls.__dict__} == {Vocabulary, Dist, StratifiedRanking}


class TestRecordDetails:
    def test_rule_origin_defaults_to_user(self):
        assert RULE.origin is RuleOrigin.USER
        assert RULE == Rule(A, B, RuleOrigin.USER) == Rule(consequent=B, antecedent=A)
        assert Rule(A, B) != Rule(A, B, RuleOrigin.INDEPENDENCE)

    def test_same_fields_in_another_class_differ(self):
        assert Rule(A, B, TRUE) != IndepDirective(A, B, TRUE)
        assert IndepDirective(A, B, TRUE) != Rule(A, B, TRUE)

    def test_reprs_as_before(self):
        assert repr(AC) == "Vocabulary(atoms=('a', 'c'))"
        assert repr(RULE) == "Rule(antecedent=Atom(0), consequent=Atom(1), origin=<RuleOrigin.USER: 'user'>)"
        assert repr(DIST) == "Dist(vocab=Vocabulary(atoms=('a', 'c')), top=3, levels=(1, 1, 2, 3))"
        assert repr(IndepReport(True, True, True, 3, 1, 2, 1)) == (
            "IndepReport(unrelated_z=True, weak=True, strong=True, poss_ac=3, poss_a_nc=1, poss_na_c=2, poss_na_nc=1)"
        )

    def test_derived_attributes_are_not_fields(self):
        # levels 1, 1, 2, 3 rank as codes 1, 1, 2, 3 among 0..3: worlds 2
        # and 3 have bit 1 set, worlds 0, 1 and 3 bit 0
        assert DIST._ranked == (0, 1, 2, 3)
        assert DIST._planes == ((2, 0b1100), (1, 0b1011))
        assert AC._index == {"a": 0, "c": 1}
        # fresh vocabularies: tests elsewhere push more atom tuples through
        # the table cache than it keeps, so AC's own table may be an old one
        ac = Vocabulary(("a", "c"))
        assert ac._parsed is Vocabulary(["a", "c"])._parsed is not Vocabulary(("c", "a"))._parsed
        fields, _ = RECORDS[StratifiedRanking]
        ranking = StratifiedRanking(**fields)
        assert ranking.query(A, B) is TriState.ACCEPTED
        assert ranking._answers == {A._hash: {B._hash: (A, B, TriState.ACCEPTED)}}
        assert list(ranking._asked) == [(A._hash, B._hash)]
        assert ranking == StratifiedRanking(**fields) and hash(ranking) == hash(StratifiedRanking(**fields))
        derived = (
            (DIST, "_ranked"), (DIST, "_planes"), (AC, "_index"), (AC, "_parsed"), (ranking, "_answers"),
            (ranking, "_asked"),
        )
        for rec, name in derived:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            assert name not in repr(rec)

    def test_pickle_and_copies_derive_afresh(self):
        # built through the constructor, so __post_init__ derives them anew
        for twin in (pickle.loads(pickle.dumps(AC)), copy.copy(AC), copy.deepcopy(AC)):
            assert twin._index == AC._index and twin._index is not AC._index
        for twin in (pickle.loads(pickle.dumps(DIST)), copy.copy(DIST), copy.deepcopy(DIST)):
            assert twin._planes == DIST._planes and twin._ranked == DIST._ranked
            assert twin._ranked is not DIST._ranked

    def test_post_init_validates_keyword_construction(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(atoms=("a", "a"))
        with pytest.raises(ValueError, match="not normalized"):
            Dist(levels=(0, 0, 1, 1), top=2, vocab=AC)

    def test_subclass_extends_the_fields(self):
        class Tagged(Rule):
            tag: str = "t"

        rec = Tagged(A, B)
        assert (rec.origin, rec.tag) == (RuleOrigin.USER, "t")
        fields = f"antecedent=Atom(0), consequent=Atom(1), origin={RuleOrigin.USER!r}, tag='t'"
        assert repr(rec) == f"{Tagged.__qualname__}({fields})"
        assert rec != RULE
