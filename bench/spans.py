"""In-memory span tracing around calls into ordindep's public callables.

The tracer replaces a callable at every module binding that holds it (so
``model_mask`` is caught whether logic, measures, ranking or lawlab calls
it), records one span per call, and puts every original back on
``restore``.  It never edits the package's files.

A span is (name, start, end, parent).  Spans live in flat arrays while the
run goes on and are written out once, when it ends.  A span's self time
is its duration minus the durations of its direct children; since the
program is single-threaded, children never overlap each other.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

MODULES = (
    "ordindep",
    "ordindep.logic",
    "ordindep.measures",
    "ordindep.independence",
    "ordindep.ranking",
    "ordindep.parsing",
    "ordindep.lawlab",
    "ordindep.cli",
)

# (defining module, function name): every binding of these is wrapped
FUNCTIONS = (
    ("ordindep.logic", "model_mask"),
    ("ordindep.parsing", "parse_kb"),
    ("ordindep.parsing", "parse_formula"),
    ("ordindep.parsing", "parse_dist"),
    ("ordindep.measures", "entails"),
    ("ordindep.independence", "classify"),
    ("ordindep.independence", "cond_weak_indep"),
    ("ordindep.ranking", "stratify"),
    ("ordindep.ranking", "compute_pi_star"),
    ("ordindep.lawlab", "check_law"),
    ("ordindep.lawlab", "DistEnsemble"),
    ("ordindep.lawlab", "ScalarOps"),
    ("ordindep.cli", "main"),
)

# ScalarOps methods: time spent inside them is the scalar re-verification
SCALAR_METHODS = (
    "poss",
    "nec",
    "cond_poss",
    "cond_nec",
    "related_z",
    "strong_indep",
    "strong_indep_direct",
    "weak_indep",
    "weak_indep_direct",
    "entails_classically",
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records spans for wrapped callables until ``restore`` is called."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.law_of: dict[int, str] = {}  # check_law span -> law id
        self.evaluations = 0
        self.laws_failed = 0
        self.mask_seen: dict[int, tuple[object, set]] = {}  # id(Dist) -> (Dist, mask hashes)
        self.poss_mask_calls = 0
        self.poss_mask_repeats = 0  # calls on a mask already seen for that Dist

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _traced(self, fn, name: str, before=None, after=None):
        nid = self._id(name)
        clock = time.perf_counter
        name_of, start, end, parent, stack = self.name_of, self.start, self.end, self.parent, self._stack

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            if before is not None:
                before(args)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(i, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every listed callable at every module binding that holds it."""
        import importlib

        mods = [importlib.import_module(m) for m in MODULES]
        for home, attr in FUNCTIONS:
            original = getattr(importlib.import_module(home), attr)
            after = self._after_check_law if attr == "check_law" else None
            wrapped = self._traced(original, span_name(home, attr), after=after)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapped)
        lawlab = importlib.import_module("ordindep.lawlab")
        measures = importlib.import_module("ordindep.measures")
        scalar = lawlab.ScalarOps.__wrapped__
        for meth in SCALAR_METHODS:
            self._replace(scalar, meth, self._traced(scalar.__dict__[meth], "lawlab.ScalarOps." + meth))
        dist = measures.Dist
        self._replace(dist, "poss_mask", self._traced(dist.__dict__["poss_mask"], "measures.poss_mask", self._before_poss_mask))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _after_check_law(self, i, args, report) -> None:
        self.law_of[i] = args[0].law_id
        self.evaluations += report.evaluations
        if not report.holds:
            self.laws_failed += 1

    def _before_poss_mask(self, args) -> None:
        d, mask = args
        entry = self.mask_seen.get(id(d))
        if entry is None:
            entry = self.mask_seen[id(d)] = (d, set())
        key = hash(mask)
        self.poss_mask_calls += 1
        if key in entry[1]:
            self.poss_mask_repeats += 1
        else:
            entry[1].add(key)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, outer time (recursion counted once), self time."""
        n = len(self.start)
        names, name_of, start, end, parent = self.names, self.name_of, self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(names)
        outer = [0.0] * len(names)
        self_s = [0.0] * len(names)
        for i in range(n):
            nid = name_of[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            p = parent[i]
            if p < 0 or name_of[p] != nid:
                outer[nid] += dur
        laws = defaultdict(float)
        for i, law_id in self.law_of.items():
            laws[law_id] += end[i] - start[i]
        return {
            "spans": {
                name: {"calls": calls[k], "outer_s": outer[k], "self_s": self_s[k]}
                for k, name in enumerate(names)
            },
            "law_s": dict(laws),
            "evaluations": self.evaluations,
            "laws_failed": self.laws_failed,
            "poss_mask_calls": self.poss_mask_calls,
            "poss_mask_repeats": self.poss_mask_repeats,
        }

    def write(self, path: Path) -> None:
        """Dump the raw spans: names as JSON, then the four arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            head = json.dumps({"names": self.names, "spans": len(self.start)}).encode()
            fh.write(len(head).to_bytes(4, "little") + head)
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)
