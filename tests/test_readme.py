"""The README's examples, run as written: the library block, the CLI
examples against the complete example workspace, and that workspace
written back by serialize_workspace."""

import re
import shlex
from pathlib import Path

from test_workspace_cli import assert_round_trip
from tricomplete.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(after: str, lang: str = "") -> str:
    """The first fenced block (```lang) after the line containing `after`."""
    start = README.index(after)
    match = re.compile(r"^```%s\n(.*?)^```$" % lang, re.S | re.M).search(README, start)
    return match.group(1)


def test_library_example_runs():
    exec(compile(_block("## Library", "python"), "README.md", "exec"), {})


def test_cli_examples_against_the_complete_example(tmp_path, capsys):
    ws = tmp_path / "ws.txt"
    ws.write_text(_block("A complete example:"))
    commands = [line.split("#", 1)[0] for line in
                _block("Examples (against the workspace below):", "sh").splitlines()]
    codes, outs = [], []
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "tricomplete"
        codes.append(main([str(ws) if a == "ws.txt" else a for a in argv[1:]]))
        outs.append(capsys.readouterr().out)
    assert codes == [0, 0, 0, 1]
    assert "length: 1/5" in outs[0].splitlines()


def test_complete_example_round_trips_through_the_writer():
    # so the documented format and the writer cannot drift apart
    assert_round_trip(_block("A complete example:"))
