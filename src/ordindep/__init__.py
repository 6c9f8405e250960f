"""Ordinal possibility distributions, qualitative independence relations,
and exception-tolerant ranking of default-rule bases."""

from types import ModuleType as _ModuleType

from .logic import (
    FALSE,
    TRUE,
    And,
    Atom,
    Formula,
    Not,
    Or,
    Vocabulary,
    iff,
    implies,
    model_mask,
)
from .measures import (
    Dist,
    TriState,
    cond_nec,
    cond_poss,
    entails,
    nec,
    poss,
)
from .independence import (
    IndepReport,
    classify,
    cond_weak_indep,
    related_z,
    strong_indep,
    strong_indep_direct,
    weak_indep,
    weak_indep_direct,
)
from .ranking import (
    ConsistencyError,
    Rule,
    RuleBase,
    RuleOrigin,
    StratifiedRanking,
    compute_pi_star,
    inject_independence,
    stratify,
)
from .parsing import (
    IndepDirective,
    ParseError,
    ParsedDocument,
    format_directive,
    format_dist,
    format_formula,
    format_rule,
    parse_dist,
    parse_formula,
    parse_kb,
)

# The law lab needs numpy; its names load on first access (PEP 562), so
# that importing the package for ranking and queries does not pay for it.
_LAWLAB_NAMES = (
    "CATALOG",
    "CELLS",
    "DEFAULT_BUDGET",
    "BudgetError",
    "Counterexample",
    "DistEnsemble",
    "Law",
    "LawReport",
    "ProbeReport",
    "check_law",
    "completeness_probe_exact",
    "completeness_probe_neighbors",
    "count_dists",
    "criteria_table",
    "enumerate_dists",
    "generator_formulas",
    "lab_vocabulary",
    "law_by_id",
    "realized_relations",
    "relation_axioms_hold",
    "run_catalog",
)


def __getattr__(name):
    if name in _LAWLAB_NAMES:
        from . import lawlab

        return getattr(lawlab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

# every public name imported above (the submodules excepted), then the lab's
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__ += _LAWLAB_NAMES
