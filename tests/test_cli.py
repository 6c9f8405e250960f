import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ordindep import parse_dist
from ordindep.cli import COMMANDS, _build_parser, _read_args, main

RANK_FIXED_EXPECTED = """\
stratum 0 (priority 1):
  b |~ f
  b |~ l
stratum 1 (priority 2):
  p |~ !f
  p |~ b
  b & p |~ l  [indep]

pi* (top = 2):
!p !b !f !l: 2
p !b !f !l: 0
!p b !f !l: 1
p b !f !l: 0
!p !b f !l: 2
p !b f !l: 0
!p b f !l: 1
p b f !l: 0
!p !b !f l: 2
p !b !f l: 0
!p b !f l: 1
p b !f l: 1
!p !b f l: 2
p !b f l: 0
!p b f l: 2
p b f l: 0
indep l wrt p given b: satisfied
"""

INDEP_EXPECTED = """\
poss(a & c) = 3
poss(a & !(c)) = 1
poss(!(a) & c) = 2
poss(!(a) & !(c)) = 1
zadeh unrelated: yes
weak independence: yes
strong independence: yes
"""

TABLE_1_1_EXPECTED_HEAD = """\
criterion   Zadeh  Strong    Weak
CCD           yes     yes     yes
CCI           yes      no      no
CCD-r         yes     yes     yes
CCI-r         yes     yes     yes
DCI           yes     yes     yes
DCI-r         yes     yes     yes
DCD           yes     yes     yes
DCD-r         yes      no      no
"""


def _chain_16(tmp_path) -> str:
    """A 16-atom (MAX_ATOMS) chain base: x_i |~ x_{i+1}, with one exception."""
    lines = ["atoms: " + " ".join(f"x{i:02d}" for i in range(16))]
    lines += [f"rule: x{i:02d} |~ x{i + 1:02d}" for i in range(15)]
    lines.append("rule: x00 & x01 |~ !x02")
    path = tmp_path / "chain16.kb"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestRank:
    def test_penguin_fixed_exact(self, data_dir, capsys):
        assert main(["rank", str(data_dir / "penguin_fixed.kb")]) == 0
        out = capsys.readouterr()
        assert out.out == RANK_FIXED_EXPECTED
        assert out.err == ""

    def test_unsatisfied_directive_is_reported(self, tmp_path, capsys):
        # injection only guarantees acceptance under context & extra; when
        # the bare context rejects the conclusion the directive stays unmet
        kb = "atoms: c q e\nrule: c |~ !q\nindep: q wrt e given c\n"
        path = tmp_path / "x.kb"
        path.write_text(kb)
        assert main(["rank", str(path)]) == 0
        out = capsys.readouterr().out
        assert "indep q wrt e given c: NOT satisfied" in out

    def test_total_order_warning_on_stderr(self, tmp_path, capsys):
        path = tmp_path / "t.kb"
        path.write_text("atoms: a\nrule: true |~ a\n")
        assert main(["rank", str(path)]) == 0
        out = capsys.readouterr()
        assert "totally orders the worlds" in out.err
        assert "!a: 0\na: 1\n" in out.out

    def test_16_atoms(self, tmp_path, capsys):
        assert main(["rank", _chain_16(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        worlds = out[out.index("pi* (top = 2):") + 1 :]
        assert len(worlds) == len(set(worlds)) == 1 << 16
        assert worlds[0] == " ".join(f"!x{i:02d}" for i in range(16)) + ": 2"
        assert out[: out.index("")] == ["stratum 0 (priority 1):"] + [
            f"  x{i:02d} |~ x{i + 1:02d}" for i in range(1, 15)
        ] + ["stratum 1 (priority 2):", "  x00 |~ x01", "  x00 & x01 |~ !x02"]


class TestQuery:
    @pytest.mark.parametrize(
        "ev,cl,verdict",
        [("p", "b", "Accepted"), ("p", "f", "Rejected"), ("p", "l", "Ignored")],
    )
    def test_penguin(self, data_dir, capsys, ev, cl, verdict):
        rc = main(["query", str(data_dir / "penguin.kb"), "-e", ev, "-c", cl])
        assert rc == 0
        assert capsys.readouterr().out == verdict + "\n"

    def test_fixed_flips(self, data_dir, capsys):
        rc = main(["query", str(data_dir / "penguin_fixed.kb"), "-e", "p", "-c", "l"])
        assert rc == 0
        assert capsys.readouterr().out == "Accepted\n"

    @pytest.mark.parametrize("ev,cl,verdict", [("x00", "x01", "Accepted"), ("x00 & x01", "x02", "Rejected")])
    def test_16_atoms(self, tmp_path, capsys, ev, cl, verdict):
        assert main(["query", _chain_16(tmp_path), "-e", ev, "-c", cl]) == 0
        assert capsys.readouterr().out == verdict + "\n"


class TestDist:
    def test_round_trips_through_parser(self, data_dir, capsys):
        assert main(["dist", str(data_dir / "penguin.kb")]) == 0
        text = capsys.readouterr().out
        d = parse_dist(text)
        assert d.top == 2
        assert d.levels == (2, 0, 1, 1, 2, 0, 1, 0, 2, 0, 1, 1, 2, 0, 2, 0)


class TestIndep:
    def test_sample_dist(self, data_dir, capsys):
        rc = main(["indep", str(data_dir / "sample.dist"), "-a", "a", "-c", "c"])
        assert rc == 0
        assert capsys.readouterr().out == INDEP_EXPECTED

    def test_negative_case(self, tmp_path, capsys):
        path = tmp_path / "d.dist"
        path.write_text("atoms: a c\ntop: 3\n!a !c: 1\na !c: 3\n!a c: 2\na c: 0\n")
        assert main(["indep", str(path), "-a", "a", "-c", "c"]) == 0
        out = capsys.readouterr().out
        assert "zadeh unrelated: no" in out
        assert "strong independence: no" in out

    def test_16_atom_total_order(self, tmp_path, capsys):
        # every world at its own level, as bitstring keys (x0 last)
        n = 16
        levels = [w * 48271 % (1 << n) + 1 for w in range(1 << n)]
        lines = ["atoms: " + " ".join(f"x{i}" for i in range(n)), f"top: {1 << n}"]
        lines += [f"{w:0{n}b}: {lv}" for w, lv in enumerate(levels)]
        path = tmp_path / "total.dist"
        path.write_text("\n".join(lines) + "\n")
        assert main(["indep", str(path), "-a", "x0", "-c", "x15"]) == 0
        cells = capsys.readouterr().out.splitlines()[:4]

        def oracle(a: int, c: int) -> int:
            return max(lv for w, lv in enumerate(levels) if (w & 1) == a and (w >> 15) == c)

        assert cells == [
            f"poss(x0 & x15) = {oracle(1, 1)}",
            f"poss(x0 & !(x15)) = {oracle(1, 0)}",
            f"poss(!(x0) & x15) = {oracle(0, 1)}",
            f"poss(!(x0) & !(x15)) = {oracle(0, 0)}",
        ]


class TestCheck:
    def test_tiny_grid(self, capsys, tmp_path):
        jsonl = tmp_path / "laws.jsonl"
        rc = main(["check", "--atoms", "1", "--top", "1", "--jsonl", str(jsonl)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "68 of 72 laws hold" in out
        assert "FAIL strong-symmetric" in out
        assert "ok   poss-disjunction-max (48 evaluations)" in out
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(records) == 72
        assert sum(1 for r in records if not r["holds"]) == 4
        failing = {r["law"] for r in records if not r["holds"]}
        assert failing == {
            "strong-symmetric",
            "strong-negation-transparent",
            "weak-or-conjunction-printed",
            "weak-disjunction-iff",
        }

    def test_budget_exceeded(self, capsys):
        rc = main(["check", "--atoms", "2", "--top", "3", "--budget", "100"])
        assert rc == 2
        assert "exceeds budget" in capsys.readouterr().err

    def test_zero_budget(self, capsys):
        rc = main(["check", "--atoms", "1", "--top", "1", "--budget", "0"])
        assert rc == 2
        assert "exceeds budget 0" in capsys.readouterr().err


class TestTable:
    def test_tiny_grid(self, capsys):
        rc = main(["table", "--atoms", "1", "--top", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith(TABLE_1_1_EXPECTED_HEAD)
        assert "counterexample for Strong CCI:" in out


REPO = Path(__file__).resolve().parent.parent

# captured `check` and `table` runs and corpus commands, read here and
# never written
LAWLAB_TRANSCRIPTS = REPO / "bench" / "expected" / "lawlab.json"
CORPUS_TRANSCRIPTS = REPO / "bench" / "expected" / "corpus.json"


@pytest.mark.parametrize(
    "command, atoms, top",
    [("check", 2, 3), ("table", 2, 3), ("check", 3, 2), ("table", 3, 2)],
    ids=["check", "table", "check_3x2", "table_3x2"],
)
def test_lawlab_output_matches_transcript(capsys, command, atoms, top):
    expected = json.loads(LAWLAB_TRANSCRIPTS.read_text(encoding="utf-8"))[f"{command}_{atoms}x{top}"]
    rc = main([command, "--atoms", str(atoms), "--top", str(top), "--budget", "2000000000"])
    assert rc == expected["code"]
    assert capsys.readouterr().out == expected["stdout"]


def test_corpus_output_matches_transcripts(capsys, monkeypatch):
    # each key is a command's argv joined by tabs; its files are named
    # relative to the repository root
    monkeypatch.chdir(REPO)
    transcripts = json.loads(CORPUS_TRANSCRIPTS.read_text(encoding="utf-8"))
    assert transcripts
    mismatched = []
    for key, expected in transcripts.items():
        rc = main(key.split("\t"))
        out, err = capsys.readouterr()
        if (rc, out, err) != (expected["code"], expected["stdout"], expected["stderr"]):
            mismatched.append(key)
    assert not mismatched, f"{len(mismatched)} of {len(transcripts)} differ, first {mismatched[:3]}"


USAGE = "usage: ordindep [-h] {rank,query,dist,indep,check,table} ...\n"

HELP = USAGE + """
Ordinal independence relations and default-rule ranking.

positional arguments:
  {rank,query,dist,indep,check,table}
    rank                stratify a rule base and print pi*
    query               query a rule base
    dist                dump pi* of a rule base as a distribution file
    indep               classify a pair of formulas on a distribution
    check               run the law catalog at desk scale
    table               print the composition criteria table

options:
  -h, --help            show this help message and exit
"""

# older Python releases quote the choices in this message, newer ones list them bare
BOGUS = {
    USAGE + f"ordindep: error: argument command: invalid choice: 'bogus' (choose from {choices})\n"
    for choices in ("'rank', 'query', 'dist', 'indep', 'check', 'table'", "rank, query, dist, indep, check, table")
}


def _outcome(argv: list[str], capsys) -> tuple:
    """Exit status, stdout and stderr of one command, whether main returns or argparse exits."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return (code, *capsys.readouterr())


class TestArgparseText:
    # usage, help and error text as argparse wrote it before the file
    # commands got their own reader, which must leave every byte alone
    @pytest.fixture(autouse=True)
    def _width(self, monkeypatch):  # argparse wraps help at the terminal width
        monkeypatch.setenv("COLUMNS", "80")

    def test_no_command(self, capsys):
        want = USAGE + "ordindep: error: the following arguments are required: command\n"
        assert _outcome([], capsys) == (2, "", want)

    def test_help(self, capsys):
        assert _outcome(["--help"], capsys) == (0, HELP, "")

    def test_unknown_command(self, capsys):
        code, out, err = _outcome(["bogus"], capsys)
        assert (code, out) == (2, "") and err in BOGUS

    def test_missing_positional(self, capsys):
        want = "usage: ordindep rank [-h] kb\nordindep rank: error: the following arguments are required: kb\n"
        assert _outcome(["rank"], capsys) == (2, "", want)

    def test_missing_option(self, data_dir, capsys):
        want = (
            "usage: ordindep query [-h] -e EVIDENCE -c CONCLUSION kb\n"
            "ordindep query: error: the following arguments are required: -c/--conclusion\n"
        )
        assert _outcome(["query", str(data_dir / "penguin.kb"), "-e", "p"], capsys) == (2, "", want)

    def test_abbreviated_option(self, data_dir, capsys):
        argv = ["query", str(data_dir / "penguin.kb"), "--evid", "p", "-c", "l"]
        assert _read_args(argv) is None
        assert _outcome(argv, capsys) == (0, "Ignored\n", "")


FLAGS = ("-e", "--evidence", "-c", "--conclusion", "-a", "--antecedent", "--atoms", "--top")
ODD = ("--evid", "-e=p", "--", "-h", "-1")
VALUES = ("", "!a", "a | c", "p", "1", "data/penguin.kb", "data/sample.dist")
NAMES = ("rank", "query", "dist", "indep", "check", "table")


@st.composite
def near_commands(draw) -> list[str]:
    """A command with its positional and required options in any order and
    spelling, then up to two tokens inserted, replaced or dropped."""
    name = draw(st.sampled_from(NAMES))
    options = COMMANDS[name][2] if name in COMMANDS else ()
    words = [[draw(st.sampled_from(VALUES))]]
    words += [[draw(st.sampled_from(pair)), draw(st.sampled_from(VALUES))] for pair in options]
    tokens = [name] + [token for word in draw(st.permutations(words)) for token in word]
    pool = st.sampled_from(NAMES + FLAGS + ODD + VALUES)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("insert", "replace", "drop")))
        if edit == "drop":
            del tokens[i]
        else:
            tokens[i : i + (edit == "replace")] = [draw(pool)]
    return tokens


@given(st.one_of(near_commands(), st.lists(st.sampled_from(NAMES + FLAGS + ODD + VALUES), max_size=7)))
@example(["query", "data/penguin.kb", "-e", "p", "-c", "l"])
@example(["indep", "-c", "", "--antecedent", "a | c", "data/sample.dist"])
@example(["query", "data/penguin.kb", "-e", "-1", "-c", "l"])
@example(["query", "data/penguin.kb", "-e", "p", "-e", "p", "-c", "l"])
@example(["dist", "--", "data/penguin.kb"])
def test_reader_agrees_with_argparse(argv):
    fast = _read_args(argv)
    try:
        slow = _build_parser().parse_args(argv)
    except SystemExit:
        assert fast is None, argv
    else:
        assert fast is None or vars(fast) == vars(slow), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "data/penguin.kb"],
        ["query", "--conclusion", "l", "data/penguin.kb", "-e", "p"],
        ["dist", "data/penguin.kb"],
        ["indep", "data/sample.dist", "-a", "a", "--conclusion", "c"],
    ],
)
def test_reader_takes_well_formed_file_commands(argv):
    assert vars(_read_args(argv)) == vars(_build_parser().parse_args(argv))


class TestErrorPaths:
    def test_inconsistent_base(self, data_dir, capsys):
        rc = main(["rank", str(data_dir / "contradictory.kb")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error: inconsistent rule base: 2 rule(s) tolerate no order" in err
        assert "a |~ b" in err
        assert "a |~ !b" in err

    def test_inconsistent_base_tags_injected_rules(self, tmp_path, capsys):
        # the residual lists the rule an indep: line added as rank lists it
        path = tmp_path / "indep_contradiction.kb"
        path.write_text("atoms: a b\nrule: a |~ b\nindep: b wrt a given !a & a\n")
        rc = main(["rank", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: inconsistent rule base: 1 rule(s) tolerate no order",
            "  !a & a & a |~ b  [indep]",
        ]

    def test_missing_file(self, capsys):
        rc = main(["rank", "/nonexistent/x.kb"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.kb"
        path.write_text("atoms: a\nrule: a ~ a\n")
        rc = main(["query", str(path), "-e", "a", "-c", "a"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "parse error: line 2" in err

    @pytest.mark.parametrize("word", ["true", "false", "wrt", "given"])
    @pytest.mark.parametrize("casing", [str.lower, str.capitalize, str.upper])
    def test_reserved_atom_name(self, tmp_path, capsys, word, casing):
        name = casing(word)
        path = tmp_path / "reserved.kb"
        path.write_text(f"atoms: {name} b\nrule: b |~ {name}\n")
        assert main(["rank", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: line 1, column 7: atom name {name!r} is a reserved word\n"

    @pytest.mark.parametrize("formula", ["(" * 300 + "a" + ")" * 300, "!" * 2000 + "a"])
    def test_deep_nesting(self, data_dir, capsys, formula):
        rc = main(["indep", str(data_dir / "sample.dist"), "-a", formula, "-c", "a"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "parse error: formula nested more than 100 levels deep\n"

    def test_iff_chain_size_limit(self, data_dir, capsys):
        dist = str(data_dir / "sample.dist")
        assert main(["indep", dist, "-a", "a" + " <-> a" * 10, "-c", "a"]) == 0
        capsys.readouterr()
        rc = main(["indep", dist, "-a", "a" + " <-> a" * 12, "-c", "a"])
        assert rc == 2
        assert capsys.readouterr().err == "parse error: formula expands to more than 10000 nodes\n"

    def test_bad_query_formula(self, data_dir, capsys):
        rc = main(["query", str(data_dir / "penguin.kb"), "-e", "zz", "-c", "b"])
        assert rc == 2
        assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, extra",
    [("rank", "penguin.kb", []), ("rank", "penguin_fixed.kb", []), ("indep", "sample.dist", ["-a", "a", "-c", "c"])],
    ids=["rank", "rank_fixed", "indep"],
)
def test_byte_order_mark_is_not_text(data_dir, tmp_path, capsys, command, name, extra):
    # an editor may save UTF-8 with a leading BOM; the file reads as without it
    plain = data_dir / name
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want = main([command, str(plain), *extra]), capsys.readouterr()
    assert want[0] == 0 and want[1].out
    assert (main([command, str(marked), *extra]), capsys.readouterr()) == want


def _src_env() -> dict:
    """The environment with the sources in this checkout first on the path."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter on the sources in this checkout, from its root."""
    return subprocess.run([sys.executable, *args], cwd=REPO, env=_src_env(), capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", ["rank", "dist"])
def test_closed_stdout_ends_quietly(tmp_path, command):
    # `ordindep rank base.kb | head -n 1`: the reader closes the pipe while
    # most of the 16,384 world lines are still to come
    kb = tmp_path / "chain14.kb"
    lines = ["atoms: " + " ".join(f"x{i:02d}" for i in range(14))]
    lines += [f"rule: x{i:02d} |~ x{i + 1:02d}" for i in range(13)]
    kb.write_text("\n".join(lines) + "\n")
    argv = [sys.executable, "-m", "ordindep", command, str(kb)]
    with subprocess.Popen(argv, cwd=REPO, env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""


NO_NUMPY = """
import sys
import ordindep
from ordindep import cli
for argv in (["rank", "data/penguin.kb"], ["query", "data/penguin.kb", "-e", "p", "-c", "b"],
             ["dist", "data/penguin.kb"], ["indep", "data/sample.dist", "-a", "a", "-c", "c"]):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
assert ordindep.run_catalog is not None and "numpy" in sys.modules
"""


def test_rank_query_dist_indep_leave_numpy_unloaded():
    proc = _python("-c", NO_NUMPY)
    assert proc.returncode == 0, proc.stderr


# compared with the modules loaded before the import, so that the check
# holds where site already loads some of them
NOTHING_HEAVY = """
import sys
before = set(sys.modules)
from ordindep import cli
for argv in (["rank", "data/penguin.kb"], ["query", "data/penguin.kb", "-e", "p", "-c", "b"],
             ["dist", "data/penguin.kb"], ["indep", "data/sample.dist", "-a", "a", "-c", "c"]):
    assert cli.main(argv) == 0, argv
heavy = {"argparse", "dataclasses", "inspect", "json", "pathlib", "numpy", "ast"} & (set(sys.modules) - before)
assert not heavy, sorted(heavy)
"""


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_rank_query_dist_indep_load_nothing_heavy(flags):
    proc = _python(*flags, "-c", NOTHING_HEAVY)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_dataclasses():
    for path in sorted((REPO / "src" / "ordindep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, path.name


def _spells_full_mask(node: ast.AST) -> bool:
    """The all-worlds mask written out: `(1 << (1 << n)) - 1` or `(1 << x.world_count) - 1`."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    shift, one = node.left, node.right
    if not (isinstance(one, ast.Constant) and one.value == 1):
        return False
    if not (isinstance(shift, ast.BinOp) and isinstance(shift.op, ast.LShift)):
        return False
    width = shift.right
    if isinstance(width, ast.BinOp) and isinstance(width.op, ast.LShift):
        return True
    return ast.unparse(width).endswith("world_count")


def test_only_logic_builds_the_full_mask_and_no_private_imports():
    for path in sorted((REPO / "src" / "ordindep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name != "logic.py":
                assert not _spells_full_mask(node), (path.name, node.lineno, ast.unparse(node))
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ordindep")):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (path.name, node.lineno, private)


def test_measures_and_relations_take_formulas_not_masks():
    # each measure and relation is one function of formulas; event arrays
    # come in as formula leaves, never as mask parameters
    for name in ("measures.py", "independence.py"):
        tree = ast.parse((REPO / "src" / "ordindep" / name).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                params = [arg.arg for arg in node.args.args + node.args.kwonlyargs]
                assert not [p for p in params if p.endswith("_mask")], (name, node.name, params)


def test_penguin_walkthrough_runs():
    proc = _python("scripts/penguin_walkthrough.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_axiom_probe_runs():
    proc = _python("scripts/axiom_probe.py")
    assert proc.returncode == 0, proc.stderr
    # the one-atom counts that tests/test_lawlab.py pins
    assert "printed: 65536 candidate relations, 60 satisfy the axioms, 5 realized" in proc.stdout
    assert "schema: 65536 candidate relations, 20 satisfy the axioms, 5 realized" in proc.stdout
    # the two-atom counts over every relation one pair from a realized one
    assert "printed: 38144 neighbor relations, 14514 satisfy the axioms, 0 realized" in proc.stdout
    assert "schema: 38144 neighbor relations, 8360 satisfy the axioms, 0 realized" in proc.stdout


def test_readme_quick_start_runs():
    # README's Quick start block, run from the repository root with each
    # commented result asserted
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Quick start\n\n```python\n(.*?)^```$", text, re.S | re.M)[1]
    lines = block.splitlines()
    want = []
    for i, line in enumerate(lines):
        m = re.match(r"([^#\s].*?)\s+#\s*(\([^()]*\)|'[^']*')", line)
        if m:
            want.append(m[2])
            lines[i] = f"assert ({m[1]}) == {m[2]}, {m[1]!r}"
    assert want == ["(True, True, True)", "(3, 1)", "'Ignored'", "'Accepted'"]
    proc = _python("-c", "\n".join(lines))
    assert proc.returncode == 0, proc.stderr
