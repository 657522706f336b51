"""Rewrite the golden outputs of the README commands in this directory:
verify.json and oracle.json (what the README `verify` and `oracle` commands
print) and wavefunction.sha256 (the sha256 of the README `wavefunction`
CSV).

tests/test_cli.py::TestReadme::test_numeric_commands_match_golden compares
the commands with these files byte for byte.  Run this script only for an
output change that CHANGES.md lists and explains, and read the diff of the
rewritten files before committing them:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

from dkradial.cli import main

GOLDEN = Path(__file__).resolve().parent
README = GOLDEN.parents[1] / "README.md"


def readme_commands() -> dict:
    """The argv of each `dkradial` line of the README "Command line" block,
    keyed by its command."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    return {argv[0]: argv for argv in (shlex.split(line)[1:] for line in block.splitlines()) if argv}


def run(argv: list) -> str:
    """What `dkradial argv` prints; exits if the command fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        sys.exit(f"dkradial {shlex.join(argv)} exited {code}; nothing rewritten after it")
    return out.getvalue()


def regenerate() -> None:
    commands = readme_commands()
    for name in ("verify", "oracle"):
        (GOLDEN / f"{name}.json").write_bytes(run(commands[name]).encode("utf-8"))
    argv = commands["wavefunction"]
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "wf.csv"
        argv[argv.index("--out") + 1] = str(csv)
        run(argv)
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    (GOLDEN / "wavefunction.sha256").write_text(digest + "\n")


if __name__ == "__main__":
    regenerate()
