"""The tolerance stratification that one violation union per round replaced,
and the world-by-world pi* that level bands replaced.

``stratify``: each round asks ``tolerates(pool, rule)`` of every remaining
rule, and each call narrows the rule's verification mask by the complement
of every pool rule's violation mask, built afresh.  It is a reference
implementation for ``ordindep.ranking.stratify``, which builds each rule's
masks once and tests every remaining rule against one union of the
remaining violations per round.  ``tolerates`` and ``stratify`` are kept
here unchanged, so a test can require both to give equal strata, or to
raise ConsistencyError with the same residual rules in the same order.
The library has no ``tolerates`` of its own; the tests of tolerance ask
this one.  The oracle builds its verification and violation masks with
its own ``_verif_mask`` and ``_viol_mask`` from ``model_mask``, so a
wrong mask in the library cannot agree with it by sharing the code.

``pi_star``: the strata from this ``stratify``, and one level per world,
written stratum by stratum through ``mask_worlds`` so that a later stratum
overwrites an earlier one, then handed to ``Dist(vocab, m, levels)``.  It
is a reference for ``ordindep.ranking.compute_pi_star``, which ORs one
band per stratum into the distribution's bit-planes.
"""

from __future__ import annotations

from ordindep.logic import Vocabulary, mask_worlds, model_mask
from ordindep.measures import Dist
from ordindep.ranking import ConsistencyError, Rule, RuleBase


def _verif_mask(rule: Rule, n: int) -> int:
    """The worlds satisfying the rule's antecedent and its consequent."""
    return model_mask(rule.antecedent, n) & model_mask(rule.consequent, n)


def _viol_mask(rule: Rule, n: int) -> int:
    """The worlds satisfying the rule's antecedent and not its consequent."""
    return model_mask(rule.antecedent, n) & ~model_mask(rule.consequent, n)


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


def pi_star(kb: RuleBase) -> tuple[tuple[frozenset[int], ...], Dist, tuple[int, ...]]:
    """Strata, pi* and priorities of the deduped base, pi* built world by world.

    Raises ConsistencyError and ValueError as ``stratify`` does.
    """
    base = kb.deduped()
    strata = stratify(base)
    vocab = base.vocab
    n = vocab.n
    m = len(strata)
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
    return strata, Dist(vocab, m, levels), tuple(priorities)
