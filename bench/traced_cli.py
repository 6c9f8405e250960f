"""Run one ``ordindep`` CLI command with span tracing on.

Usage: python bench/traced_cli.py SUMMARY.json SPANS.bin -- <ordindep args>

Stdout, stderr and the exit status are the command's own, so the output
checks apply unchanged; the span summary and the raw spans go to the two
files.  The package must be importable (PYTHONPATH=src).
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    summary_path, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY.json SPANS.bin -- <ordindep args>")
    import ordindep.cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = ordindep.cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.restore()
    Path(summary_path).write_text(json.dumps(tracer.summary()))
    tracer.write(Path(spans_path))
    return code


if __name__ == "__main__":
    sys.exit(main())
