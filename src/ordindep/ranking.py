"""Exception-tolerant default rules and the ranking they induce.

A rule "A |~ B" reads "if A, normally B".  A rule is tolerated by a set
of rules when some world verifies it (satisfies A and B) outside the
union of the set's violations (the worlds satisfying some antecedent and
not its consequent).  Repeatedly peeling off the tolerated rules splits a
consistent base into strata of increasing specificity; a base where the
peeling gets stuck is inconsistent.  Each rule's verification and
violation masks are built once per stratification, and each round takes
one union of the remaining rules' violations.

The induced distribution puts every world as high as the strata allow:
top for worlds violating nothing, and one step below the top stratum it
violates otherwise.  Each rule then holds with necessity equal to its
stratum index plus one, which is reported as the rule's priority.

A ranking is asked many queries of its one distribution, and answers a
repeated pair from its own memo: a dict keyed by the two hash ints cached
on the (evidence, conclusion) nodes, holding the pair it was asked with
and the verdict.  A held verdict is used only when both held formulas
are the ones asked, or equal to them, so a hit costs one lookup of two
ints and two identity checks, and a hash collision costs a fresh
``entails``, never a wrong verdict.  The memo holds at most ``_ANSWERS``
(256) verdicts and drops the oldest first, so besides the verdicts it
pins at most 256 pairs of the caller's formulas with the masks memoized
on their nodes.  A failed query is never stored.  The memo is derived,
so it takes no part in equality, hashing or repr; a copy or an unpickled
ranking starts with an empty one of its own, and the memo lives exactly
as long as the ranking whose distribution its answers come from.
"""

from __future__ import annotations

import enum
from collections import OrderedDict

from .logic import And, Formula, Not, Or, Record, Vocabulary, full_mask, mask_worlds, model_mask
from .measures import Dist, TriState, entails, nec


class RuleOrigin(enum.Enum):
    USER = "user"
    INDEPENDENCE = "independence"


class Rule(Record):
    """Default rule: antecedent normally brings about the consequent."""

    antecedent: Formula
    consequent: Formula
    origin: RuleOrigin = RuleOrigin.USER

    def material(self) -> Formula:
        """Material counterpart, satisfied unless the rule is violated."""
        return Or(Not(self.antecedent), self.consequent)


class RuleBase(Record):
    vocab: Vocabulary
    rules: tuple[Rule, ...]

    def deduped(self) -> "RuleBase":
        """Drop structural repeats of (antecedent, consequent), keeping the first."""
        seen = set()
        kept = []
        for r in self.rules:
            key = (r.antecedent, r.consequent)
            if key not in seen:
                seen.add(key)
                kept.append(r)
        return RuleBase(self.vocab, kept)

    def extended(self, rule: Rule) -> "RuleBase":
        return RuleBase(self.vocab, self.rules + (rule,))


class ConsistencyError(Exception):
    """Raised when no remaining rule is tolerated by the rest."""

    def __init__(self, residual: tuple[Rule, ...], vocab: Vocabulary):
        self.residual = residual
        self.vocab = vocab
        super().__init__(f"inconsistent rule base: {len(residual)} rule(s) tolerate no order")


def _verif_mask(rule: Rule, n: int) -> int:
    return model_mask(rule.antecedent, n) & model_mask(rule.consequent, n)


def _viol_mask(rule: Rule, n: int) -> int:
    return model_mask(rule.antecedent, n) & (full_mask(n) ^ model_mask(rule.consequent, n))


def tolerates(others: tuple[Rule, ...], rule: Rule, vocab: Vocabulary) -> bool:
    """Some world verifies the rule outside the union of the others' violations.

    Including the rule itself among the others changes nothing, since a
    verifying world never violates its own rule.
    """
    n = vocab.n
    broken = 0
    for other in others:
        broken |= _viol_mask(other, n)
    return _verif_mask(rule, n) & ~broken != 0


def stratify(kb: RuleBase) -> tuple[frozenset[int], ...]:
    """Partition rule indices into tolerance strata, most general first.

    A round's stratum is every remaining rule that verifies outside the
    union of the remaining rules' violations; each rule's masks are built
    once, so a round costs one union and one AND per remaining rule.
    Works on the base as given (callers wanting dedup do it beforehand).
    Raises ConsistencyError when the remaining rules tolerate none of
    their own, and ValueError on an empty base.
    """
    if not kb.rules:
        raise ValueError("rule base has no rules")
    n = kb.vocab.n
    verif = [_verif_mask(r, n) for r in kb.rules]
    viol = [_viol_mask(r, n) for r in kb.rules]
    remaining = list(range(len(kb.rules)))
    strata: list[frozenset[int]] = []
    while remaining:
        broken = 0
        for i in remaining:
            broken |= viol[i]
        tolerated = [i for i in remaining if verif[i] & ~broken]
        if not tolerated:
            raise ConsistencyError(tuple(kb.rules[i] for i in remaining), kb.vocab)
        stratum = frozenset(tolerated)
        strata.append(stratum)
        remaining = [i for i in remaining if i not in stratum]
    return tuple(strata)


# The most verdicts a ranking's memo holds (see the module docstring).
_ANSWERS = 256


class StratifiedRanking(Record):
    """Stratification result plus the induced distribution.

    ``rules`` is the deduped rule tuple the strata and priorities refer
    to; ``priorities[i]`` is one plus the stratum of ``rules[i]``.
    """

    vocab: Vocabulary
    rules: tuple[Rule, ...]
    strata: tuple[frozenset[int], ...]
    pi_star: Dist
    priorities: tuple[int, ...]

    def __post_init__(self):
        # (evidence hash, conclusion hash) -> (evidence, conclusion, verdict), oldest first
        object.__setattr__(self, "_answers", OrderedDict())

    def query(self, evidence: Formula, conclusion: Formula) -> TriState:
        """Whether the evidence makes the conclusion accepted under pi*.

        A pair asked before is answered from the ranking's memo of its
        last ``_ANSWERS`` verdicts; an error is raised afresh every time.
        """
        answers = self._answers
        key = (evidence._hash, conclusion._hash)
        held = answers.get(key)
        if held is not None:
            e, c, verdict = held
            if (e is evidence or e == evidence) and (c is conclusion or c == conclusion):
                return verdict
        verdict = entails(self.pi_star, evidence, conclusion)
        answers[key] = evidence, conclusion, verdict
        if len(answers) > _ANSWERS:
            answers.popitem(last=False)  # one atomic step, so threads may share a ranking
        return verdict


def compute_pi_star(kb: RuleBase) -> StratifiedRanking:
    """Stratify the base and build its maximally compact distribution.

    With m strata, every world sits at the top level m unless it violates
    a rule, in which case it sits at level m - 1 - s, where s is the
    highest stratum (counted from 0) holding a rule it violates.  The
    result is checked to actually accept every rule; a failure there
    means the construction itself is broken.
    """
    base = kb.deduped()
    strata = stratify(base)
    vocab = base.vocab
    n = vocab.n
    m = len(strata)
    verif = [_verif_mask(r, n) for r in base.rules]
    viol = [_viol_mask(r, n) for r in base.rules]

    priorities = [0] * len(base.rules)
    levels = [m] * vocab.world_count
    for s, members in enumerate(strata):
        violated = 0
        for i in members:
            priorities[i] = s + 1
            violated |= viol[i]
        for w in mask_worlds(violated):  # later strata overwrite earlier ones
            levels[w] = m - 1 - s
    pi_star = Dist(vocab, m, levels)

    for i in range(len(base.rules)):
        if pi_star.poss_mask(verif[i]) <= pi_star.poss_mask(viol[i]):
            raise RuntimeError(f"ranking failed to accept rule {i}; stratification is broken")
    return StratifiedRanking(vocab, base.rules, strata, pi_star, priorities)


def priority_necessities(ranking: StratifiedRanking) -> tuple[int, ...]:
    """Necessity of each rule's material form under the induced distribution.

    For rules whose violation is satisfiable this matches the reported
    priority; a rule that cannot be violated pins at the top instead.
    """
    return tuple(nec(ranking.pi_star, r.material()) for r in ranking.rules)


def query(kb: RuleBase, evidence: Formula, conclusion: Formula) -> TriState:
    """One-shot: rank the base, then test the conclusion on the evidence."""
    return compute_pi_star(kb).query(evidence, conclusion)


def inject_independence(kb: RuleBase, context: Formula, extra: Formula, conclusion: Formula) -> RuleBase:
    """Append the rule "context and extra normally keep the conclusion".

    This is how an independence judgment enters the base: the extra fact
    must not disturb the conclusion inside the context.
    """
    return kb.extended(Rule(And(context, extra), conclusion, RuleOrigin.INDEPENDENCE))

