"""Command line frontend.

Subcommands: rank, query, dist, indep, check, table.  Exit status is 0 on
success, 1 when a rule base is inconsistent, and 2 on any other error: a
parse or usage error, an unreadable file, a lab grid out of scope or a
sweep over its budget.  A reader that closes stdout early, as ``head``
does, ends any command quietly: it writes nothing more and exits 0.
All output is deterministic for fixed inputs and flags.

A well-formed rank, query, dist or indep command is read without argparse,
whose import and parser build cost a few milliseconds per command; argparse
reads every other argv and so writes all usage, help and error text.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .independence import classify, cond_weak_indep
from .logic import Vocabulary
from .parsing import (
    ParseError,
    ParsedDocument,
    format_directive,
    format_dist,
    format_formula,
    format_rule,
    format_worlds,
    parse_dist,
    parse_formula,
    parse_kb,
)
from .ranking import ConsistencyError, Rule, RuleOrigin, StratifiedRanking, compute_pi_star


def _read(path: str) -> str:
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is not text
        return fh.read()


def _load_ranking(path: str) -> tuple[ParsedDocument, StratifiedRanking]:
    doc = parse_kb(_read(path))
    return doc, compute_pi_star(doc.injected_base())


def _rule_line(rule: Rule, vocab: Vocabulary) -> str:
    """A listed rule, tagged when an ``indep:`` line put it in the base."""
    tag = "  [indep]" if rule.origin is RuleOrigin.INDEPENDENCE else ""
    return f"  {format_rule(rule, vocab)}{tag}"


def _print_ranking(doc: ParsedDocument, ranking: StratifiedRanking) -> None:
    vocab = ranking.vocab
    for level, stratum in enumerate(ranking.strata):
        print(f"stratum {level} (priority {level + 1}):")
        for i in sorted(stratum):
            print(_rule_line(ranking.rules[i], vocab))
    print()
    print(f"pi* (top = {ranking.pi_star.top}):")
    sys.stdout.write(format_worlds(ranking.pi_star))
    for d in doc.directives:
        ok = cond_weak_indep(ranking.pi_star, d.conclusion, d.context, d.extra)
        print(f"indep {format_directive(d, vocab)}: {'satisfied' if ok else 'NOT satisfied'}")
    if ranking.pi_star.is_total_order():
        print(
            "warning: pi* totally orders the worlds; stop adding independence assumptions",
            file=sys.stderr,
        )


def _cmd_rank(args) -> int:
    doc, ranking = _load_ranking(args.kb)
    _print_ranking(doc, ranking)
    return 0


def _cmd_query(args) -> int:
    doc, ranking = _load_ranking(args.kb)
    evidence = parse_formula(args.evidence, ranking.vocab)
    conclusion = parse_formula(args.conclusion, ranking.vocab)
    print(ranking.query(evidence, conclusion))
    return 0


def _cmd_dist(args) -> int:
    _, ranking = _load_ranking(args.kb)
    sys.stdout.write(format_dist(ranking.pi_star))
    return 0


def _cmd_indep(args) -> int:
    d = parse_dist(_read(args.dist))
    vocab = d.vocab
    a = parse_formula(args.antecedent, vocab)
    c = parse_formula(args.conclusion, vocab)
    report = classify(d, a, c)
    fa, fc = format_formula(a, vocab), format_formula(c, vocab)
    print(f"poss({fa} & {fc}) = {report.poss_ac}")
    print(f"poss({fa} & !({fc})) = {report.poss_a_nc}")
    print(f"poss(!({fa}) & {fc}) = {report.poss_na_c}")
    print(f"poss(!({fa}) & !({fc})) = {report.poss_na_nc}")
    print(f"zadeh unrelated: {'yes' if report.unrelated_z else 'no'}")
    print(f"weak independence: {'yes' if report.weak else 'no'}")
    print(f"strong independence: {'yes' if report.strong else 'no'}")
    return 0


# name: (help, positional, required (short, long) options, handler). The
# argparse parser and the argparse-free reader are both built from this; an
# option's value goes to its long name without the dashes, as in argparse.
COMMANDS = {
    "rank": ("stratify a rule base and print pi*", "kb", (), _cmd_rank),
    "query": ("query a rule base", "kb", (("-e", "--evidence"), ("-c", "--conclusion")), _cmd_query),
    "dist": ("dump pi* of a rule base as a distribution file", "kb", (), _cmd_dist),
    "indep": (
        "classify a pair of formulas on a distribution",
        "dist",
        (("-a", "--antecedent"), ("-c", "--conclusion")),
        _cmd_indep,
    ),
}


def _cmd_lab(args) -> int:
    from .lawlab import run_command  # the law lab and numpy load only here

    return run_command(args)


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="ordindep",
        description="Ordinal independence relations and default-rule ranking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, positional, options, fn) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument(positional)
        for short, long in options:
            p.add_argument(short, long, required=True)
        p.set_defaults(fn=fn)

    lab = {"check": "run the law catalog at desk scale", "table": "print the composition criteria table"}
    for name, text in lab.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--atoms", type=int, required=True)
        p.add_argument("--top", type=int, required=True)
        p.add_argument("--budget", type=int)
        if name == "check":
            p.add_argument("--jsonl", help="also write line-delimited records here")
        p.set_defaults(fn=_cmd_lab)
    return parser


def _read_args(argv: list[str]):
    """The parsed arguments of ``COMMAND POSITIONAL`` plus each of the
    command's options once, as ``-x VALUE`` or ``--long VALUE``, where no
    other token starts with ``-``; ``None`` for any other argv, which
    argparse reads instead (and so alone writes usage, help and errors)."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, positional, options, fn = COMMANDS[argv[0]]
    dests = {flag: long[2:] for short, long in options for flag in (short, long)}
    args = {"command": argv[0], "fn": fn}
    tokens = iter(argv[1:])
    for token in tokens:
        dest = dests.get(token, positional)
        value = next(tokens, "-") if token in dests else token
        if dest in args or value.startswith("-"):
            return None
        args[dest] = value
    if len(args) != 3 + len(options):
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        for rule in e.residual:
            print(_rule_line(rule, e.vocab), file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:  # ValueError includes the law lab's BudgetError
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
