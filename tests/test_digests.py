"""The calls of tools/cli_digests.py against the digests committed in
tools/cli_digests.txt, all but the slowest: every artifact, report and exit
code of those calls stays the same bit for bit unless that file changes."""

import importlib.util
import shlex
from pathlib import Path

from twofold import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("cli_digests", TOOLS / "cli_digests.py")
cli_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digests)

# the perturbed example-i start on the sliding runaway, 45-53 s to its step floor
RUNAWAY = (*cli_digests.STEP_FLOOR_RUNS[2], *cli_digests.RUN_OUT)


def test_every_call_but_the_runaway_matches_its_committed_digest(tmp_path):
    committed = (TOOLS / "cli_digests.txt").read_text(encoding="utf-8").splitlines()
    jobs = cli_digests.jobs()
    assert len(jobs) == len(committed)
    checked, moved = 0, []
    for i, ((files, argv), line) in enumerate(zip(jobs, committed)):
        if argv == RUNAWAY:
            continue
        workdir = tmp_path / f"call{i:03d}"
        workdir.mkdir()
        if cli_digests.line(cli.main, files, argv, str(workdir)) != line:
            moved.append(shlex.join(argv))
        checked += 1
    assert checked == len(committed) - 1
    # the argv of every call whose line differs from its committed one
    assert moved == []
