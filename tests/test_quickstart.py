"""The README's CLI quickstart, run from the README text itself.

Every ``memalign …`` line of the first ``sh`` block under the README's
CLI heading (``\\`` continuations joined) runs through ``cli.main`` in a
fresh directory at the default config, in order, and must exit 0.  The
``verify`` line names placeholder files and is skipped.  At the
quickstart's 200 instances the run takes about 5 s on a 2-core host.
"""
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from memalign.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SKIPPED = {"verify"}


def quickstart_commands(text: str) -> list[list[str]]:
    """The argv of each ``memalign`` line in the CLI section's first block."""
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = re.sub(r"\\\n\s*", " ", block).splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("memalign ")]


@pytest.mark.slow
def test_the_readme_quickstart_runs(tmp_path, monkeypatch):
    commands = quickstart_commands(README.read_text(encoding="utf-8"))
    stages = [argv[0] for argv in commands]
    assert stages == [
        "gen-data", "train-retriever", "train-align", "train-align",
        "retrieve", "fuse-retrieve", "eval", "verify",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] in SKIPPED:
            continue
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0, f"memalign {shlex.join(argv)}: {err.getvalue()}"
