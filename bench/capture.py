"""Capture the expected outputs the benchmark checks against.

Run from the repository root at the commit whose behaviour is the
reference:  PYTHONPATH=src python3 bench/capture.py

Writes bench/expected/corpus.json (every command a cli-corpus round can
issue) and bench/expected/lawlab.json (the four sweep commands).  Each
entry holds the exit code, stdout and stderr of ``ordindep.cli.main``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import gen

from ordindep import cli

OUT = Path(__file__).resolve().parent / "expected"


def transcript(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    atoms_of = {name: gen.kb_atoms(Path(gen.kb_path(name)).read_text()) for name in gen.CORPUS_KBS}
    corpus = {gen.command_key(argv): transcript(argv) for argv in gen.corpus_commands(atoms_of)}
    lawlab = {gen.sweep_case(*case): transcript(gen.sweep_argv(*case)) for case in gen.SWEEP}
    OUT.mkdir(exist_ok=True)
    for name, data in (("corpus", corpus), ("lawlab", lawlab)):
        (OUT / f"{name}.json").write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(data)} transcripts", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
