"""The README's examples, run as written: the library block, the CLI
examples against the complete example workspace, and that workspace
written back by serialize_workspace; and the public surface the Library
section describes."""

import re
import shlex
import types
from pathlib import Path

import tricomplete
from test_workspace_cli import assert_round_trip
from tricomplete import cauchy, complexes, metric, rmodule
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


def test_public_surface_is_the_literal_all():
    # __all__ names what the CLI, the bench and README's features use,
    # and nothing else: no submodule, and none of the operations that only
    # the tests perform (tests/reference.py holds those)
    public = tricomplete.__all__
    assert len(set(public)) == len(public)
    assert not [name for name in public if isinstance(getattr(tricomplete, name), types.ModuleType)]
    star = {}
    exec("from tricomplete import *", star)
    assert set(star) - {"__builtins__"} == set(public)
    library = re.search(r"from tricomplete import \((.*?)\)", _block("## Library", "python"), re.S)
    assert {name.strip() for name in library.group(1).split(",")} <= set(public)
    gone = [(tricomplete, "direct_sum_complex"), (tricomplete, "shifted_family"),
            (complexes, "direct_sum_complex"), (metric, "shifted_family"),
            (complexes.ChainMap, "__add__"), (complexes.ChainMap, "__neg__"),
            (rmodule.RModuleMap, "__add__"), (rmodule.RModuleMap, "__neg__"),
            (complexes.Complex, "amplitude"), (cauchy.Tower, "composite"),
            (metric.EquivalenceReport, "separating_complexes"), (metric.VanishingSpec, "negated"),
            (cauchy.TruncationTail, "map_at"), (cauchy.ConstantTail, "map_at"),
            (cauchy.TruncationTail, "free"), (tricomplete, "cohomology_map"),
            (complexes, "cohomology_map"), (rmodule, "quotient_canonicalize"),
            (tricomplete, "homotopy_pushout"), (complexes, "homotopy_pushout"),
            (metric, "homotopy_pushout")]
    assert [(owner.__name__, name) for owner, name in gone if hasattr(owner, name)] == []
    tower = cauchy.truncation_tower(rmodule.RModule(rmodule.Ring(2, 2), (1,)))
    assert tower.complex_at(3) is not tower.complex_at(3)  # no stage cache
