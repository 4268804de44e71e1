import json

import pytest

from tricomplete.cli import main
from tricomplete.metric import standard_metric
from tricomplete.workspace import (
    WorkspaceError,
    parse_linear,
    parse_workspace_text,
    serialize_workspace,
)

FIXTURE = """
# basic workspace over F_2[x]/(x^2)
RING 2 2

MODULE K 1
MODULE RR 2
MODULE Z

COMPLEX zero
END

COMPLEX k0
  AT 0 K
END

COMPLEX km5
  AT -5 K
END

COMPLEX rstalk
  AT 0 RR
END

COMPLEX xR
  AT -1 RR
  AT 0 RR
  DIFF -1 0 0 1 0
END

MAP f zero km5
END

MAP idk k0 k0
  AT 0 1
END

TOWER towerK
  TAIL truncation K
END

TOWER towerConst
  TAIL constant rstalk
END

METRIC myi
  PIECE ray-above -n
END

METRIC myii
  PIECE ray-below n
END
"""


@pytest.fixture
def ws_path(tmp_path):
    path = tmp_path / "ws.txt"
    path.write_text(FIXTURE)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- parsing and validation -----------------------------------------------------


def test_parse_linear_forms():
    assert parse_linear("-n")(4) == -4
    assert parse_linear("n+1")(4) == 5
    assert parse_linear("2*n-3")(4) == 5
    assert parse_linear("7")(4) == 7
    assert parse_linear("-2*n")(3) == -6
    with pytest.raises(WorkspaceError):
        parse_linear("n*n")


def test_parse_workspace_objects():
    ws = parse_workspace_text(FIXTURE)
    assert ws.ring.p == 2 and ws.ring.n == 2
    assert ws.modules["K"].blocks == (1,)
    assert ws.modules["Z"].is_zero()
    assert ws.complexes["xR"].degrees == [-1, 0]
    assert ws.complexes["zero"].is_zero()
    assert "towerK" in ws.towers
    assert ws.metrics["myi"].pieces[0][0] == "above"


def test_d_squared_violation_names_degrees():
    bad = """
RING 2 2
MODULE RR 2
COMPLEX c
  AT 0 RR
  AT 1 RR
  AT 2 RR
  DIFF 0 1 0 0 1
  DIFF 1 1 0 0 1
END
"""
    with pytest.raises(WorkspaceError) as exc:
        parse_workspace_text(bad)
    assert "d^2" in str(exc.value)
    assert "0" in str(exc.value) and "2" in str(exc.value)


def test_non_linear_matrix_rejected():
    bad = """
RING 2 2
MODULE RR 2
COMPLEX c
  AT 0 RR
  AT 1 RR
  DIFF 0 0 1 0 0
END
"""
    with pytest.raises(WorkspaceError) as exc:
        parse_workspace_text(bad)
    assert "R-linear" in str(exc.value)


def test_duplicate_names_rejected():
    bad = "RING 2 2\nMODULE K 1\nMODULE K 2\n"
    with pytest.raises(WorkspaceError):
        parse_workspace_text(bad)


def test_tower_prefix_must_match_tail():
    bad = """
RING 2 2
MODULE K 1
COMPLEX k0
  AT 0 K
END
TOWER t
  PREFIX k0
  TAIL truncation K
END
"""
    with pytest.raises(WorkspaceError):
        parse_workspace_text(bad)


def test_round_trip_serialization():
    ws = parse_workspace_text(FIXTURE + "METRIC mixed\n  DUAL\n  PIECE ray-above -n\n"
                              "  PIECE ray-below 2*n+1\n  PIECE interval -3*n n-2\nEND\n")
    text = serialize_workspace(ws)
    ws2 = parse_workspace_text(text)
    assert ws2.ring == ws.ring
    assert set(ws2.modules) >= set(ws.modules)
    for name in ws.modules:
        assert ws2.modules[name] == ws.modules[name]
    for name in ws.complexes:
        assert ws2.complexes[name] == ws.complexes[name]
    for name in ws.maps:
        assert ws2.maps[name].source == ws.maps[name].source
        assert ws2.maps[name] == ws.maps[name]
    assert set(ws2.towers) == set(ws.towers)
    for name in ("myi", "myii", "mixed", "mixed:dual"):
        m, m2 = ws.metric(name), ws2.metric(name)
        assert (m2.name, m2.pieces, m2.dual) == (m.name, m.pieces, m.dual)
    assert [p[0] for p in ws.metric("mixed").pieces] == ["above", "below", "interval"]
    assert ws.metric("mixed").dual and not ws.metric("mixed:dual").dual
    # serialization is idempotent
    assert serialize_workspace(ws2) == text


# -- CLI ------------------------------------------------------------------------


def test_cli_length(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "length", "f", "--metric", "i"])
    assert code == 0
    assert "1/5" in out


def test_cli_length_structured(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured",
                                "length", "f", "--metric", "i"])
    assert code == 0
    data = json.loads(out)
    assert data["length"] == "1/5"


def test_cli_ball_exit_codes(ws_path, capsys):
    code, _, _ = run(capsys, ["-w", ws_path, "ball", "k0", "1", "--metric", "i"])
    assert code == 0
    code, _, _ = run(capsys, ["-w", ws_path, "ball", "k0", "2", "--metric", "i"])
    assert code == 1


def test_cli_cauchy_check(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured", "cauchy-check",
                                "towerK", "--metric", "i", "--horizon", "20", "--levels", "10"])
    assert code == 0
    data = json.loads(out)
    cert = data["certificate"]
    assert cert["verdict"] == "cauchy"
    assert all(cert["thresholds"][str(n)] == n for n in range(1, 11))
    assert cert["sup-lengths"]["3"] == "1/4"


def test_cli_cauchy_check_negative(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "cauchy-check", "towerK", "--metric", "ii"])
    assert code == 1


def test_cli_colimit(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured", "colimit",
                                "towerK", "--metric", "i", "--window=-3..2"])
    assert code == 0
    data = json.loads(out)
    assert data["table"]["support"] == [0]
    assert data["table"]["entries"]["0"]["module"] == "[1]"


def test_cli_in_s(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "in-s", "towerK", "--metric", "i"])
    assert code == 0
    assert "yes" in out
    code, _, _ = run(capsys, ["-w", ws_path, "in-s", "towerConst", "--metric", "i"])
    assert code == 0


def test_cli_perfect_and_inj_bounded(ws_path, capsys):
    assert run(capsys, ["-w", ws_path, "is-perfect", "rstalk"])[0] == 0
    assert run(capsys, ["-w", ws_path, "is-perfect", "k0"])[0] == 1
    assert run(capsys, ["-w", ws_path, "inj-bounded", "rstalk"])[0] == 0
    assert run(capsys, ["-w", ws_path, "inj-bounded", "k0"])[0] == 1
    # acyclic complex is perfect
    assert run(capsys, ["-w", ws_path, "is-perfect", "zero"])[0] == 0


def test_cli_sing_class_and_hom(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured", "sing-class", "k0"])
    assert code == 0
    data = json.loads(out)
    assert data["module"] == "[1]" and data["shift"] == -1
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured",
                                "sing-hom", "k0", "k0"])
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def test_cli_metric_equiv(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured",
                                "metric-equiv", "i", "ii"])
    assert code == 1
    data = json.loads(out)
    assert not data["equivalent"]
    assert data["separating-family"]
    code, out, _ = run(capsys, ["metric-equiv", "i", "i", "--format", "structured"])
    assert code == 0


def test_cli_custom_metric_equivalent_to_builtin(ws_path, capsys):
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured",
                                "metric-equiv", "myi", "i"])
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"]
    assert data["witness"]["5"] == 5


def test_cli_metric_equiv_decides_past_bound_and_levels(tmp_path, capsys):
    # B(a1)_(5n) lies in B(a5)_n: the witness at level 41 is 205, past the
    # default --bound of 200, which only sizes the separating probes
    path = tmp_path / "ws.txt"
    path.write_text("RING 2 2\nMETRIC a1\n  PIECE ray-above -n\nEND\n"
                    "METRIC a5\n  PIECE ray-above -5*n\nEND\n")
    code, out, _ = run(capsys, ["-w", str(path), "--format", "structured",
                                "metric-equiv", "a1", "a5", "--levels", "50"])
    assert code == 0
    witness = json.loads(out)["witness"]
    assert witness["1"] == 1 and witness["41"] == 205
    assert all(witness[str(n)] == 5 * n for n in range(2, 51))
    # --levels only sets the table length: i and ii part at level 2 anyway
    for levels in ("0", "1"):
        code, out, _ = run(capsys, ["--format", "structured", "metric-equiv", "i", "ii",
                                    "--levels", levels])
        assert code == 1
        data = json.loads(out)
        assert not data["equivalent"] and data["fail-level"] == 2


def test_cli_metric_equiv_refuses_a_bound_below_1_and_negative_levels(ws_path, capsys):
    # equivalent (i, i) and failing (i, ii) pairs alike: the arguments are
    # checked before either metric is read; the certificates and the axiom
    # fuzz refuse a negative --levels and a --horizon below 2 the same way
    table = [(["metric-equiv", *pair, flag, value], message)
             for pair in (("i", "i"), ("i", "ii"))
             for flag, value, message in (
                 ("--bound", "0", "search_bound (--bound) must be >= 1, got 0"),
                 ("--levels", "-3", "levels (--levels) must be >= 0, got -3"))]
    table += [(["-w", ws_path, command, "towerK", "--metric", "i", flag, value], message)
              for command in ("cauchy-check", "colimit", "in-s")
              for flag, value, message in (
                  ("--levels", "-2", "levels (--levels) must be >= 0, got -2"),
                  ("--horizon", "1", "horizon (--horizon) must be >= 2, got 1"))]
    table += [(["axioms-fuzz", "i", "--seed", "1", "--levels", "-1"],
               "levels (--levels) must be >= 0, got -1")]
    for argv, message in table:
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert err == "error: %s\n" % message


def test_cli_fuzz_refuses_negative_sample_counts(capsys):
    # like a negative --levels: exit 3 naming the flag, in both formats
    table = [(["strong-triangle-fuzz", "i", "--seed", "1", "--samples", "-3",
               "--cartesian-samples", "-2"], "samples (--samples) must be >= 0, got -3"),
             (["strong-triangle-fuzz", "i", "--seed", "1", "--samples", "2",
               "--cartesian-samples", "-2"],
              "cartesian samples (--cartesian-samples) must be >= 0, got -2"),
             (["axioms-fuzz", "i", "--seed", "1", "--samples", "-5"],
              "samples (--samples) must be >= 0, got -5")]
    for argv, message in table:
        code, out, err = run(capsys, argv)
        assert code == 3 and out == "" and err == "error: %s\n" % message, argv
        code, out, err = run(capsys, ["--format", "structured"] + argv)
        assert code == 3 and err == "error: %s\n" % message
        assert json.loads(out) == {"command": argv[0],
                                   "error": {"kind": "usage", "message": message}}


def test_cli_length_reads_every_ball_of_a_family_that_is_not_nested(tmp_path, capsys):
    # grow cuts out B_n by the degrees above n: k at 3 leaves B_2 only, so
    # it lies in B_n for every n >= 3 and the length of 0 -> k at 3 is 0
    path = tmp_path / "ws.txt"
    path.write_text("RING 2 2\nMODULE K 1\nCOMPLEX zero\nEND\nCOMPLEX k3\n  AT 3 K\nEND\n"
                    "MAP f zero k3\nEND\nMETRIC grow\n  PIECE ray-above n\nEND\n")
    for level, inside in ((1, True), (2, False), (3, True), (50, True)):
        code, out, _ = run(capsys, ["-w", str(path), "ball", "k3", str(level), "--metric", "grow"])
        assert ("in-ball: %s" % inside) in out.splitlines() and code == (0 if inside else 1)
    code, out, _ = run(capsys, ["-w", str(path), "length", "f", "--metric", "grow"])
    assert code == 0 and "length: 0" in out.splitlines()


def test_cli_metric_equiv_refuses_a_metric_that_is_not_good(tmp_path, capsys):
    path = tmp_path / "ws.txt"
    path.write_text(FIXTURE + "METRIC flat\n  PIECE ray-above 0\nEND\n"
                    "METRIC late2\n  PIECE ray-above -n\n  PIECE interval -3*n -2*n+100\nEND\n")
    for pair, bad, level in ((("flat", "i"), "flat", 2), (("i", "late2"), "late2", 99)):
        code, out, err = run(capsys, ["-w", str(path), "metric-equiv", *pair])
        assert code == 3 and out == ""
        assert err.startswith("error: metric %s is not good: at level %d," % (bad, level))


def test_cli_custom_metric_full_pipeline(ws_path, capsys):
    # custom families run through the scan-based level resolution
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured", "cauchy-check",
                                "towerK", "--metric", "myi", "--horizon", "10",
                                "--levels", "5"])
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["verdict"] == "cauchy"
    assert all(data["certificate"]["thresholds"][str(n)] == n for n in range(1, 6))
    code, out, _ = run(capsys, ["-w", ws_path, "cauchy-check", "towerK",
                                "--metric", "myii"])
    assert code == 1  # ray-below family: lengths bounded below by 1
    code, out, _ = run(capsys, ["-w", ws_path, "length", "f", "--metric", "myi"])
    assert code == 0 and "1/5" in out
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured",
                                "metric-equiv", "myi:dual", "myii"])
    assert code == 0 and json.loads(out)["equivalent"]


def test_cli_axioms_fuzz(capsys):
    code, out, _ = run(capsys, ["axioms-fuzz", "iii", "--seed", "7", "--samples", "25",
                                "--levels", "30"])
    assert code == 0
    assert "ok" in out


def test_cli_strong_triangle_fuzz(capsys):
    code, out, _ = run(capsys, ["strong-triangle-fuzz", "i", "--seed", "3",
                                "--samples", "15", "--cartesian-samples", "5"])
    assert code == 0


def test_cli_reports_byte_stable(capsys):
    argv = ["axioms-fuzz", "i", "--seed", "11", "--samples", "20", "--format", "structured"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_unknown_name_exit_3(ws_path, capsys):
    code, _, err = run(capsys, ["-w", ws_path, "length", "nosuch", "--metric", "i"])
    assert code == 3
    assert "nosuch" in err
    code, _, err = run(capsys, ["-w", ws_path, "is-perfect", "nosuch"])
    assert code == 3
    assert "unknown complex 'nosuch'" in err


def test_unknown_metric_names_full_spec():
    # custom names and the standard families resolve through one path
    ws = parse_workspace_text(FIXTURE)
    assert ws.metric("myi:dual").dual and ws.metric("iii:dual").dual
    for resolve in (ws.metric, standard_metric):
        with pytest.raises(ValueError, match="unknown metric 'iv:dual'"):
            resolve("iv:dual")


# every parser error, after the five lines RING, MODULE k, COMPLEX a .. END;
# an unterminated block names the last line of the file
@pytest.mark.parametrize("body,line,message", [
    ("MAP m a a\n  AT\nEND\n", 7, "AT expects: AT degree entries..."),
    ("MAP m a a\n  AT 0 1\n  AT 0 1\nEND\n", 8, "duplicate component at degree 0"),
    ("MODULE RR 2\nCOMPLEX b\n  AT 0 RR\nEND\nMAP m b b\n  AT 0 1 1 0 0\nEND\n", 11,
     "map 'm' component at 0: matrix does not commute with the x-actions (not R-linear)"),
    ("COMPLEX c\n  AT 0 k\n  AT 1 k\n  DIFF 0 1\nEND\nMAP m c c\n  AT 0 1\nEND\n", 13,
     "map 'm': square at degrees (0, 1) does not commute"),
    ("RING 2 2\n", 6, "RING may only be declared once"),
    ("MODULE\n", 6, "MODULE expects a name"),
    ("COMPLEX a\nEND\n", 6, "duplicate name 'a'"),
    ("FOO x\n", 6, "unknown declaration 'FOO'"),
    ("COMPLEX c\n  AT 0 k\n", 7, "unterminated COMPLEX 'c'"),
    ("MAP m a a\n  AT 0 1\n", 7, "unterminated MAP 'm'"),
    ("TOWER t\n  PREFIX a\n", 7, "unterminated TOWER 't'"),
    ("METRIC e\n  DUAL\n", 7, "unterminated METRIC 'e'"),
    ("COMPLEX c d\nEND\n", 6, "COMPLEX expects a name"),
    ("MAP m a\nEND\n", 6, "MAP expects: MAP name source target"),
    ("TOWER\nEND\n", 6, "TOWER expects a name"),
    ("METRIC e f\nEND\n", 6, "METRIC expects a name"),
    ("COMPLEX c\n  AT 0\nEND\n", 7, "AT expects: AT degree modulename"),
    ("COMPLEX c\n  AT x k\nEND\n", 7, "bad degree 'x'"),
    ("COMPLEX c\n  AT 0 q\nEND\n", 7, "unknown module 'q'"),
    ("COMPLEX c\n  DIFF\nEND\n", 7, "DIFF expects: DIFF degree entries..."),
    ("MAP m q a\nEND\n", 6, "unknown complex 'q'"),
    ("MAP m a q\nEND\n", 6, "unknown complex 'q'"),
    ("TOWER t\n  PREFIX a q\nEND\n", 7, "unknown complex 'q'"),
    ("TOWER t\n  CONNECT q\nEND\n", 7, "unknown map 'q'"),
    ("TOWER t\n  TAIL truncation q\nEND\n", 7, "unknown module 'q'"),
    ("TOWER t\n  TAIL constant q\nEND\n", 7, "unknown complex 'q'"),
    ("TOWER t\n  TAIL constant\nEND\n", 7, "TAIL expects: TAIL truncation|constant name"),
    ("TOWER t\n  TAIL wedge a\nEND\n", 7, "unknown tail kind 'wedge'"),
    ("TOWER t\n  TAIL truncation k\n  TAIL constant a\nEND\n", 8,
     "tower 't' takes at most one TAIL"),
    ("METRIC e\n  PIECE ray-above\nEND\n", 7, "PIECE expects a kind and bounds"),
    ("METRIC e\n  PIECE wedge n\nEND\n", 7, "metric 'e': unknown piece kind 'wedge'"),
    ("METRIC e\n  PIECE ray-above n 1\nEND\n", 7, "metric 'e': PIECE ray-above expects one bound"),
    ("METRIC e\n  PIECE interval n\nEND\n", 7, "metric 'e': PIECE interval expects two bounds"),
    ("METRIC e\n  PIECE ray-below n*n\nEND\n", 7,
     "metric 'e': cannot parse linear expression 'n*n'"),
    ("COMPLEX c\n  CONNECT m\nEND\n", 7, "unexpected 'CONNECT' inside COMPLEX"),
    ("MAP m a a\n  DIFF 0 1\nEND\n", 7, "unexpected 'DIFF' inside MAP"),
    ("TOWER t\n  AT 0 k\nEND\n", 7, "unexpected 'AT' inside TOWER"),
    ("METRIC e\n  at 0\nEND\n", 7, "unexpected 'at' inside METRIC"),
])
def test_cli_malformed_map_exit_3(tmp_path, capsys, body, line, message):
    bad = tmp_path / "bad.txt"
    bad.write_text("RING 2 2\nMODULE k 1\nCOMPLEX a\n  AT 0 k\nEND\n" + body)
    code, _, err = run(capsys, ["-w", str(bad), "is-perfect", "a"])
    assert code == 3
    assert err == "error: line %d: %s\n" % (line, message)


def test_cli_repeated_differential_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("RING 2 2\nMODULE RR 2\nCOMPLEX c\n  AT 0 RR\n  AT 1 RR\n"
                   "  DIFF 0 0 0 1 0\n  DIFF 0 0 0 0 0\nEND\n")
    code, _, err = run(capsys, ["-w", str(bad), "is-perfect", "c"])
    assert code == 3
    assert "line 7: duplicate differential at degree 0" in err


def test_cli_missing_workspace_exit_3(capsys):
    code, _, err = run(capsys, ["length", "f", "--metric", "i"])
    assert code == 3


def test_cli_validation_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("RING 2 2\nMODULE RR 2\nCOMPLEX c\n  AT 0 RR\n  AT 1 RR\n"
                   "  DIFF 0 1 0 0 1\n  AT 2 RR\n  DIFF 1 1 0 0 1\nEND\n")
    code, _, err = run(capsys, ["-w", str(bad), "is-perfect", "c"])
    assert code == 3
    assert "d^2" in err


def test_cli_usage_error_exit_3(capsys):
    code, _, _ = run(capsys, ["length"])  # missing required args
    assert code == 3


def test_cli_non_good_metric_exit_3(tmp_path, capsys):
    # the balls of ray-above 0 never shrink, and those of late2 stop
    # shrinking at level 99: neither is a good metric
    path = tmp_path / "ws.txt"
    path.write_text(FIXTURE + "METRIC flat\n  PIECE ray-above 0\nEND\n"
                    "METRIC late2\n  PIECE ray-above -n\n  PIECE interval -3*n -2*n+100\nEND\n")
    for command in ("cauchy-check", "colimit", "in-s"):
        for metric, level in (("flat", 2), ("late2", 99)):
            code, _, err = run(capsys, ["-w", str(path), command, "towerK", "--metric", metric,
                                        "--horizon", "40", "--levels", "8"])
            assert code == 3
            assert err.startswith("error:")
            assert "at level %d," % level in err


def test_cli_internal_error_exit_3(ws_path, capsys, monkeypatch):
    def boom(ctx, args):
        raise RuntimeError("boom")

    monkeypatch.setattr("tricomplete.cli.cmd_length", boom)
    code, _, err = run(capsys, ["-w", ws_path, "length", "f", "--metric", "i"])
    assert code == 3
    assert err == "error: internal error: RuntimeError: boom\n"


def test_cli_prefix_tower_without_connecting_maps_exit_3(tmp_path, capsys):
    path = tmp_path / "ws.txt"
    path.write_text(FIXTURE + "TOWER pre\n  PREFIX k0 k0 k0\nEND\n")
    for command in ("cauchy-check", "colimit"):
        code, _, err = run(capsys, ["-w", str(path), command, "pre", "--metric", "i"])
        assert code == 3
        assert err.startswith("error: line ")
        assert "tower 'pre': need exactly one connecting map" in err


def test_cli_tower_prefix_map_disagreeing_with_the_tail_exit_3(tmp_path, capsys):
    path = tmp_path / "ws.txt"
    good = "TOWER good\n  PREFIX k0 k0\n  CONNECT idk\n  TAIL constant k0\nEND\n"
    path.write_text(FIXTURE + good + "MAP zk k0 k0\nEND\n"
                    "TOWER bad\n  PREFIX k0 k0\n  CONNECT zk\n  TAIL constant k0\nEND\n")
    for command in ("cauchy-check", "colimit"):
        code, out, err = run(capsys, ["-w", str(path), command, "bad", "--metric", "i"])
        assert code == 3 and out == ""
        assert err.startswith("error: line ")
        assert "tower 'bad': connecting map 1 disagrees with the tail rule" in err
    path.write_text(FIXTURE + good)
    code, out, _ = run(capsys, ["-w", str(path), "colimit", "good", "--metric", "i"])
    assert code == 0 and "conclusive: True" in out and "support:\n    - 0\n" in out


def test_cli_parser_built_once_and_calls_share_no_state(ws_path, tmp_path, capsys):
    from tricomplete import cli

    other = tmp_path / "other.txt"
    other.write_text("RING 2 2\nMODULE RR 2\nCOMPLEX k0\n  AT 0 RR\nEND\n")
    code, out, _ = run(capsys, ["-w", ws_path, "--format", "structured", "is-perfect", "k0"])
    assert code == 1 and json.loads(out)["perfect"] is False
    parser = cli._parser()
    # -w and --format after the subcommand, then neither: nothing carries over
    code, out, _ = run(capsys, ["is-perfect", "k0", "-w", str(other)])
    assert code == 0 and "perfect: True" in out.splitlines()
    code, out, _ = run(capsys, ["is-perfect", "k0", "--format", "structured", "-w", ws_path])
    assert code == 1 and json.loads(out)["perfect"] is False
    code, out, err = run(capsys, ["length", "f", "--metric", "i"])
    assert code == 3 and out == ""
    assert cli._parser() is parser


# each command that can exit 1, with the report field holding its verdict
# and that field's negative value
NEGATIVE_VERDICTS = {
    "ball": (("in-ball",), False),
    "cauchy-check": (("certificate", "verdict"), "not_cauchy"),
    "in-s": (("in-s",), "no"),
    "is-perfect": (("perfect",), False),
    "inj-bounded": (("bounded-injective-resolution",), False),
    "metric-equiv": (("equivalent",), False),
    "axioms-fuzz": (("ok",), False),
    "strong-triangle-fuzz": (("ok",), False),
}

EVERY_COMMAND = [
    ["length", "f", "--metric", "i"],
    ["ball", "km5", "6", "--metric", "i"],
    ["ball", "km5", "5", "--metric", "i"],
    ["cauchy-check", "towerK", "--metric", "i"],
    ["cauchy-check", "towerK", "--metric", "ii"],
    ["colimit", "towerK", "--metric", "i"],
    ["in-s", "towerK", "--metric", "i"],
    ["in-s", "towerK", "--metric", "ii"],
    ["is-perfect", "k0"],
    ["is-perfect", "rstalk"],
    ["inj-bounded", "k0"],
    ["inj-bounded", "rstalk"],
    ["sing-class", "k0"],
    ["sing-hom", "k0", "km5"],
    ["metric-equiv", "i", "ii"],
    ["metric-equiv", "myi", "i"],
    ["metric-equiv", "myi", "nosuch"],
    ["axioms-fuzz", "i", "--seed", "1", "--samples", "4", "--levels", "5"],
    ["axioms-fuzz", "flat", "--seed", "1", "--samples", "4", "--levels", "5"],
    ["strong-triangle-fuzz", "i", "--seed", "1", "--samples", "4", "--cartesian-samples", "2"],
    ["strong-triangle-fuzz", "flat", "--seed", "1", "--samples", "4", "--cartesian-samples", "2"],
    ["length", "nosuch", "--metric", "i"],
]


def test_cli_no_command_exits_1_without_a_verdict(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ws.txt"
    path.write_text(FIXTURE + "METRIC flat\n  PIECE ray-above 0\nEND\n")
    seen = set()
    for argv in EVERY_COMMAND:
        for fmt in ("structured", "text"):
            code, out, err = run(capsys, ["-w", str(path), "--format", fmt] + argv)
            seen.add((argv[0], code))
            assert code in (0, 1, 2, 3), argv
            if code == 1:
                keys, negative = NEGATIVE_VERDICTS[argv[0]]
                if fmt == "text":
                    assert "%s: %s" % (keys[-1], negative) in out, argv
                    continue
                report = json.loads(out)
                for key in keys:
                    report = report[key]
                assert report == negative, argv
            elif code == 3:
                assert err.startswith("error: "), argv
    assert {code for _, code in seen} == {0, 1, 3}
    # in-s and strong-triangle-fuzz have no negative verdict on this workspace
    negative = {name for name, code in seen if code == 1}
    assert negative == set(NEGATIVE_VERDICTS) - {"in-s", "strong-triangle-fuzz"}
    # a crash inside any command is exit 3, never a negative verdict
    for name in ("need", "metric"):
        monkeypatch.setattr(f"tricomplete.cli._Ctx.{name}", lambda *a: 1 / 0)
    for argv in EVERY_COMMAND:
        code, out, err = run(capsys, ["-w", str(path), "--format", "structured"] + argv)
        assert code == 3 and json.loads(out)["error"]["kind"] == "internal", argv


def test_cli_structured_error_is_a_json_report(ws_path, capsys, monkeypatch):
    argv = ["-w", ws_path, "--format", "structured", "metric-equiv", "myi", "nosuch"]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert err == "error: unknown metric 'nosuch'\n"
    assert json.loads(out) == {"command": "metric-equiv",
                               "error": {"kind": "usage", "message": "unknown metric 'nosuch'"}}
    code, out, err = run(capsys, argv[:2] + argv[4:])  # text: the error line only
    assert code == 3 and out == "" and err == "error: unknown metric 'nosuch'\n"
    monkeypatch.setattr("tricomplete.cli.cmd_length", lambda ctx, args: 1 / 0)
    code, out, err = run(capsys, ["-w", ws_path, "length", "f", "--metric", "i",
                                  "--format", "structured"])
    message = "internal error: ZeroDivisionError: division by zero"
    assert code == 3
    assert json.loads(out)["error"] == {"kind": "internal", "message": message}
    assert err == "error: %s\n" % message
    # argparse's own usage errors come before --format is read: its message only
    code, out, err = run(capsys, ["--format", "structured", "length"])
    assert code == 3 and out == "" and "usage:" in err


def test_cli_fuzz_hit_on_a_good_metric_is_an_internal_error(tmp_path, capsys, rebind):
    # what the fuzz commands sample are theorems on a good metric, so a hit
    # there can only be a library fault: exit 3, kind internal, the sample
    # named.  On a metric that is not good a hit stays a finding (exit 1).
    from tricomplete import complexes

    path = tmp_path / "ws.txt"
    path.write_text(FIXTURE + "METRIC flat\n  PIECE ray-above 0\nEND\n")
    real = complexes.cone_support
    fault = {"add": False}

    def faulty(f):
        # drop the top degree; dropping only shrinks a support, so it cannot
        # break extension closure, and the axioms fuzz gets one added above
        supp = real(f)
        if not supp:
            return supp
        return (supp - {max(supp)}) | ({max(supp) + 1} if fault["add"] else set())

    rebind(real, faulty)
    triangle = ["--samples", "20", "--cartesian-samples", "6"]
    axioms = ["--seed", "1", "--samples", "12", "--levels", "5"]
    for add, argv, key in ((False, ["strong-triangle-fuzz", "i", "--seed", "3"] + triangle, 13),
                           (False, ["strong-triangle-fuzz", "flat", "--seed", "1"] + triangle,
                            "triangle-violations"),
                           (True, ["axioms-fuzz", "i"] + axioms, 4),
                           (True, ["axioms-fuzz", "flat"] + axioms, "extension-violations")):
        fault["add"] = add
        code, out, err = run(capsys, ["-w", str(path), "--format", "structured"] + argv)
        report = json.loads(out)
        if argv[1] == "i":
            assert code == 3 and report["error"]["kind"] == "internal", argv
            assert "TheoremViolation" in err and "at sample %d on good metric i" % key in err
        else:
            assert code == 1 and not report["ok"] and report[key], argv
