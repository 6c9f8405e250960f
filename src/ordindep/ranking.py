"""Exception-tolerant default rules and the ranking they induce.

A rule "A |~ B" reads "if A, normally B".  A rule is tolerated by a set
of rules when some world verifies it (satisfies A and B) outside the
union of the set's violations (the worlds satisfying some antecedent and
not its consequent).  Repeatedly peeling off the tolerated rules splits a
consistent base into strata of increasing specificity; a base where the
peeling gets stuck is inconsistent.  One peel serves both ``stratify``
and ``compute_pi_star``: it builds each rule's verification and
violation masks once, and each round takes one union of the remaining
rules' violations.

The induced distribution puts every world as high as the strata allow:
top for worlds violating nothing, and one step below the top stratum it
violates otherwise.  Each rule then holds with necessity equal to its
stratum index plus one, which is reported as the rule's priority.  The
distribution is built from one band of worlds per stratum, the
difference of two consecutive rounds' unions, straight into the
bit-planes that queries read; its per-world levels are written only
when something reads them, such as ``rank``'s listing of every world.

A ranking is asked many queries of its one distribution, and answers a
repeated pair from its own memo: rows keyed by the hash int cached on
the evidence node, each a dict keyed by the conclusion's hash int that
holds the pair it was asked with and the verdict.  A held verdict is
used only when both held formulas are the ones asked, or equal to them,
so a hit costs two dict probes and two identity checks and builds no
object, and a hash collision costs a fresh ``entails``, never a wrong
verdict; the fresh verdict replaces the held one.  The memo holds at
most ``_ANSWERS`` (256) verdicts and drops the oldest first, so besides
the verdicts it pins at most 256 pairs of the caller's formulas with the
masks memoized on their nodes.  A failed query is never stored.  Threads
may share a ranking: a race at worst drops a verdict early, to be asked
afresh, and never raises or gives a wrong verdict.  The memo is derived,
so it takes no part in equality, hashing or repr; a copy or an unpickled
ranking starts with an empty one of its own, and the memo lives exactly
as long as the ranking whose distribution its answers come from.
"""

from __future__ import annotations

import enum
from collections import deque

from .logic import And, Formula, Record, Vocabulary, full_mask, model_mask
from .measures import Dist, TriState, dist_from_bands, entails


class RuleOrigin(enum.Enum):
    USER = "user"
    INDEPENDENCE = "independence"


class Rule(Record):
    """Default rule: antecedent normally brings about the consequent."""

    antecedent: Formula
    consequent: Formula
    origin: RuleOrigin = RuleOrigin.USER


class RuleBase(Record):
    vocab: Vocabulary
    rules: tuple[Rule, ...]

    def deduped(self) -> "RuleBase":
        """Drop structural repeats of (antecedent, consequent), keeping the first."""
        kept = {}
        for r in self.rules:
            kept.setdefault((r.antecedent, r.consequent), r)
        return RuleBase(self.vocab, kept.values())

    def extended(self, rule: Rule) -> "RuleBase":
        return RuleBase(self.vocab, self.rules + (rule,))


class ConsistencyError(Exception):
    """Raised when no remaining rule is tolerated by the rest."""

    def __init__(self, residual: tuple[Rule, ...], vocab: Vocabulary):
        self.residual = residual
        self.vocab = vocab
        super().__init__(f"inconsistent rule base: {len(residual)} rule(s) tolerate no order")


def _rule_masks(rule: Rule, n: int) -> tuple[int, int]:
    """The rule's verification mask, and its violation mask: the antecedent's other worlds."""
    antecedent = model_mask(rule.antecedent, n)
    verif = antecedent & model_mask(rule.consequent, n)
    return verif, antecedent ^ verif


def _peel(kb: RuleBase) -> tuple[list[frozenset[int]], list[int]]:
    """``stratify``'s strata, and each round's union of the remaining rules' violations.

    A round's stratum is every remaining rule that verifies outside that
    union.  Each rule's masks are built once, so a round costs one union
    and its complement, then one AND per remaining rule.  The rules
    remaining at round s are strata s and later, so the union is theirs.
    """
    if not kb.rules:
        raise ValueError("rule base has no rules")
    n = kb.vocab.n
    verif, viol = zip(*[_rule_masks(r, n) for r in kb.rules])
    remaining = list(range(len(kb.rules)))
    strata: list[frozenset[int]] = []
    unions: list[int] = []
    while remaining:
        broken = 0
        for i in remaining:
            broken |= viol[i]
        unbroken = full_mask(n) ^ broken
        tolerated = [i for i in remaining if verif[i] & unbroken]
        if not tolerated:
            raise ConsistencyError(tuple(kb.rules[i] for i in remaining), kb.vocab)
        stratum = frozenset(tolerated)
        strata.append(stratum)
        unions.append(broken)
        remaining = [i for i in remaining if i not in stratum]
    return strata, unions


def stratify(kb: RuleBase) -> tuple[frozenset[int], ...]:
    """Partition rule indices into tolerance strata, most general first.

    Works on the base as given (callers wanting dedup do it beforehand).
    Raises ConsistencyError when the remaining rules tolerate none of
    their own, and ValueError on an empty base.
    """
    return tuple(_peel(kb)[0])


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
        # evidence hash -> {conclusion hash -> (evidence, conclusion, verdict)}
        object.__setattr__(self, "_answers", {})
        # the (evidence hash, conclusion hash) of every held verdict, oldest first
        object.__setattr__(self, "_asked", deque())

    def query(self, evidence: Formula, conclusion: Formula) -> TriState:
        """Whether the evidence makes the conclusion accepted under pi*.

        A pair asked before is answered from the ranking's memo of its
        last ``_ANSWERS`` verdicts; an error is raised afresh every time.
        """
        answers = self._answers
        row = answers.get(evidence._hash)
        held = None if row is None else row.get(conclusion._hash)
        if held is not None:
            e, c, verdict = held
            if (e is evidence or e == evidence) and (c is conclusion or c == conclusion):
                return verdict
        verdict = entails(self.pi_star, evidence, conclusion)
        if row is None:
            row = answers.setdefault(evidence._hash, {})
        row[conclusion._hash] = evidence, conclusion, verdict
        if held is None:  # a collision reuses the held pair's slot
            # queued after it is stored, so whoever pops a slot of the pair drops it
            asked = self._asked
            asked.append((evidence._hash, conclusion._hash))
            while len(asked) > _ANSWERS:
                try:
                    e_hash, c_hash = asked.popleft()
                    oldest = answers[e_hash]
                    del oldest[c_hash]
                    if not oldest:
                        del answers[e_hash]
                except KeyError:  # another thread dropped it first
                    pass
        return verdict


def compute_pi_star(kb: RuleBase) -> StratifiedRanking:
    """Stratify the base and build its maximally compact distribution.

    With m strata, every world sits at the top level m unless it violates
    a rule, in which case it sits at level m - 1 - s, where s is the
    highest stratum (counted from 0) holding a rule it violates.  So
    stratum s's band is the peel's round-s union of violations minus its
    round-s + 1 union, and ``dist_from_bands`` ORs the bands into the
    bit-planes with no per-world pass; the per-world ``levels`` wait for a
    first read.  One ``entails`` per rule checks that the result accepts
    it; a failure there means the construction itself is broken.
    """
    base = kb.deduped()
    strata, unions = _peel(base)
    m = len(strata)
    unions.append(0)
    pi_star = dist_from_bands(base.vocab, m, [(m - 1 - s, unions[s] ^ unions[s + 1]) for s in range(m)])
    priorities = [0] * len(base.rules)
    for s, members in enumerate(strata):
        for i in members:
            priorities[i] = s + 1
    for i, r in enumerate(base.rules):
        if entails(pi_star, r.antecedent, r.consequent) is not TriState.ACCEPTED:
            raise RuntimeError(f"ranking failed to accept rule {i}; stratification is broken")
    return StratifiedRanking(base.vocab, base.rules, tuple(strata), pi_star, priorities)


def inject_independence(kb: RuleBase, context: Formula, extra: Formula, conclusion: Formula) -> RuleBase:
    """Append the rule "context and extra normally keep the conclusion".

    This is how an independence judgment enters the base: the extra fact
    must not disturb the conclusion inside the context.
    """
    return kb.extended(Rule(And(context, extra), conclusion, RuleOrigin.INDEPENDENCE))

