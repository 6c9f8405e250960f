"""The tolerance stratification that one violation union per round replaced:
each round asks ``tolerates(pool, rule)`` of every remaining rule, and each
call narrows the rule's verification mask by the complement of every pool
rule's violation mask, built afresh.

A reference implementation for ``ordindep.ranking.stratify``, which builds
each rule's masks once and tests every remaining rule against one union of
the remaining violations per round.  ``tolerates`` and ``stratify`` are
kept here unchanged, so a test can require both to give equal strata, or
to raise ConsistencyError with the same residual rules in the same order.
The library has no ``tolerates`` of its own; the tests of tolerance ask
this one.
"""

from __future__ import annotations

from ordindep.logic import Vocabulary
from ordindep.ranking import ConsistencyError, Rule, RuleBase, _verif_mask, _viol_mask


def tolerates(others: tuple[Rule, ...], rule: Rule, vocab: Vocabulary) -> bool:
    """Some world verifies the rule while breaking none of the others.

    Including the rule itself among the others changes nothing, since a
    verifying world always satisfies the rule's own material form.
    """
    n = vocab.n
    mask = _verif_mask(rule, n)
    for other in others:
        if not mask:
            return False
        mask &= ~_viol_mask(other, n)
    return mask != 0


def stratify(kb: RuleBase) -> tuple[frozenset[int], ...]:
    """Partition rule indices into tolerance strata, most general first.

    Works on the base as given (callers wanting dedup do it beforehand).
    Raises ConsistencyError when the remaining rules tolerate none of
    their own, and ValueError on an empty base.
    """
    if not kb.rules:
        raise ValueError("rule base has no rules")
    remaining = list(range(len(kb.rules)))
    strata: list[frozenset[int]] = []
    while remaining:
        pool = tuple(kb.rules[j] for j in remaining)
        tolerated = [i for i in remaining if tolerates(pool, kb.rules[i], kb.vocab)]
        if not tolerated:
            raise ConsistencyError(tuple(kb.rules[i] for i in remaining), kb.vocab)
        stratum = frozenset(tolerated)
        strata.append(stratum)
        remaining = [i for i in remaining if i not in stratum]
    return tuple(strata)
