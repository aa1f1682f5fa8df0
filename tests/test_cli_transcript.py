"""Transcript guard: a fixed set of CLI commands must keep printing the
same bytes on stdout and stderr and returning the same exit code.

The expected transcript is ``golden/cli_transcript.txt``.  After a change
that is meant to alter the output, review the difference and regenerate it:

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/golden/cli_transcript.txt
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from qtcatalan.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.txt"

COMMANDS = (
    ("poly3", "--k", "1,2,1"),
    ("poly3", "--k", "1,2,1", "--format", "json"),
    ("poly3", "--k", "1,2,1", "--format", "latex"),
    ("poly-lambda", "--lambda", "2,1,1"),
    ("poly4", "--k", "2", "--format", "json"),
    ("table", "--what", "stats3", "--k", "1,2,1"),
    ("table", "--what", "stats4", "--k", "1", "--format", "json"),
    ("verify", "--suite", "symmetry3", "--max", "3"),
    ("verify", "--suite", "symmetry4", "--max", "3"),
    ("verify", "--suite", "involution", "--max", "4"),
    ("verify", "--suite", "gf", "--truncate", "0"),
    ("verify", "--suite", "gf", "--truncate", "4"),
)


def transcript() -> str:
    """Stdout, stderr and exit code of every command, in order."""
    blocks = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        blocks.append(f"$ qtcatalan {' '.join(argv)}\n--- stdout\n{out.getvalue()}"
                      f"--- stderr\n{err.getvalue()}--- exit {code}\n")
    return "".join(blocks)


def test_cli_transcript_is_unchanged():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(transcript())
