import argparse
import json

import pytest

from fanoweb import cli, jsonio
from fanoweb.cli import main
from fanoweb.genset import from_polytope, mori_fibers
from fanoweb.jsonio import certificate_from_json
from fanoweb.links import Constituent, _link_table, _table_link_of, enumerate_links
from fanoweb.polytopes import hull
from fanoweb.web import verify_certificate


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _quad2_json():
    return {"dim": 2, "points": [[1, 0], [0, 1], [-1, 0], [-2, -1]]}


def test_classify_subcommand(tmp_path, capsys):
    path = _write(tmp_path, "p.json", _quad2_json())
    assert main(["classify", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flags"]["canonical"] is True
    assert out["flags"]["terminal"] is False


def test_points_and_dual_subcommands(tmp_path, capsys):
    path = _write(tmp_path, "p.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    assert main(["points", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [0, 0] in out["lattice"]
    assert out["interior"] == [[0, 0]]
    assert main(["dual", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [[2, 1], [-1, 1]] in out["polar"]["vertices"]


def test_reduce_fibers_mmp(tmp_path, capsys):
    path = _write(
        tmp_path, "p.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, 0], [-1, -1]]}
    )
    assert main(["reduce", path]) == 0
    out = json.loads(capsys.readouterr().out)
    valid = [r for r in out["reductions"] if r["valid"]]
    assert len(valid) == 1 and valid[0]["vertex"] == [-1, 0]
    assert main(["fibers", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert any(fs["mori"] for fs in out["structures"])
    assert main(["mmp", path, "--class", "terminal"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["chain"] == []


def test_connect_verify_render_roundtrip(tmp_path, capsys):
    tri = {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]}
    s_tri = {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]}
    a = _write(tmp_path, "a.json", tri)
    b = _write(tmp_path, "b.json", s_tri)
    cert_path = str(tmp_path / "cert.json")
    assert main(["connect", a, b, "--class", "terminal", "--out", cert_path]) == 0
    cert = json.loads(open(cert_path).read())
    assert len(cert["chain"]) == 8
    assert main(["verify", cert_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    svg_path = str(tmp_path / "cert.svg")
    assert main(["render", cert_path, "--out", svg_path]) == 0
    svg = open(svg_path).read()
    assert svg.count("<polygon") == 8
    assert svg.count("Mfp") == 5
    # byte-identical rerun
    svg_path2 = str(tmp_path / "cert2.svg")
    assert main(["render", cert_path, "--out", svg_path2]) == 0
    assert open(svg_path2).read() == svg


def test_verify_flags_tampering(tmp_path, capsys):
    tri = {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]}
    s_tri = {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]}
    a = _write(tmp_path, "a.json", tri)
    b = _write(tmp_path, "b.json", s_tri)
    cert_path = str(tmp_path / "cert.json")
    assert main(["connect", a, b, "--class", "terminal", "--out", cert_path]) == 0
    cert = json.loads(open(cert_path).read())
    cert["chain"][3]["points"][0] = [2, 1]
    bad_path = _write(tmp_path, "bad.json", cert)
    assert main(["verify", bad_path]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False and out["failures"]


def test_verify_set_mode_step_exit_3(tmp_path, capsys):
    # the README certificate with its first link in set mode, which skips the
    # purity checks: connect emits polytope-mode links only
    a = _write(tmp_path, "tri.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    b = _write(tmp_path, "tri90.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    cert_path = str(tmp_path / "cert.json")
    assert main(["connect", a, b, "--class", "terminal", "--out", cert_path]) == 0
    cert = json.loads(open(cert_path).read())
    cert["sequence"]["steps"][0]["mode"] = "set"
    assert main(["verify", _write(tmp_path, "set.json", cert)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": False, "failures": [[0, "sequence: link mode set is not polytope"]]}


def test_verify_empty_fiber_exit_3(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    b = _write(tmp_path, "b.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    cert_path = str(tmp_path / "cert.json")
    assert main(["connect", a, b, "--class", "terminal", "--out", cert_path]) == 0
    cert = json.loads(open(cert_path).read())
    step = next(s for s in cert["sequence"]["steps"] if s["kind"] == "II_ni")
    step["right"]["fiber"] = []
    assert main(["verify", _write(tmp_path, "bad.json", cert)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    assert "right fiber structure; right Mori; fibers equal" in out["failures"][0][1]


def test_connect_verification_failure_exit_3(tmp_path, capsys, monkeypatch):
    from fanoweb import web

    planted = web.VerifyReport(False, ((2, "planted failure"),))
    monkeypatch.setattr(web, "verify_certificate", lambda cert: planted)
    a = _write(tmp_path, "a.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    b = _write(tmp_path, "b.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    for argv in (["connect", a, b], ["bfs", a, b, "--box", "2"]):
        assert main(argv + ["--class", "terminal"]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out == {"error": {"type": "verification", "failures": [[2, "planted failure"]]}}


def test_non_integer_coordinates_exit_1(tmp_path, capsys):
    for points in ([[1.5, 0], [0, 1], [-1, -1]], [[True, 0], [0, 1], [-1, -1]]):
        path = _write(tmp_path, "p.json", {"dim": 2, "points": points})
        assert main(["classify", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["type"] == "ValueError"
    quad = _write(tmp_path, "q.json", _quad2_json())
    assert main(["links", quad, "--fiber", "[[1.5, 0], [-1, 0]]"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "ValueError"


def test_links_subcommand(tmp_path, capsys):
    quad = _write(tmp_path, "q.json", _quad2_json())
    assert main(["links", quad, "--class", "canonical", "--box", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    a = from_polytope(hull([tuple(p) for p in _quad2_json()["points"]]))
    start = Constituent(a, min(mori_fibers(a)))
    want = [jsonio.link_to_json(link) for link in enumerate_links(start, "canonical", 3)]
    assert len(want) == 2
    assert out == json.loads(jsonio.dumps({"links": want}))
    # the hexagon has no Mori fiber structure to start from
    hexagon = _write(tmp_path, "hex.json", {"dim": 2, "points": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]})
    assert main(["links", hexagon, "--class", "canonical", "--box", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "message": "polytope has no Mori fiber structure",
        "type": "ValueError",
    }


def test_links_malformed_fiber_exit_1(tmp_path, capsys):
    quad = _write(tmp_path, "q.json", _quad2_json())
    for fiber in ("5", "[5]", "null", '{"a":1}'):
        assert main(["links", quad, "--fiber", fiber]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError"
        assert "list" in err["message"]


def test_malformed_point_lists_exit_1(tmp_path, capsys):
    for points in ([[1, 0, 0], [0, 1], [-1, -1]], 5, [5, [0, 1], [-1, -1]]):
        path = _write(tmp_path, "p.json", {"dim": 2, "points": points})
        assert main(["classify", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["error"]["type"] == "ValueError"


def test_bfs_subcommand(tmp_path, capsys):
    square = _write(tmp_path, "sq.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]})
    quad = _write(tmp_path, "q.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, 0], [-1, -1]]})
    assert main(["bfs", square, quad, "--class", "terminal", "--box", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["sequence"]["steps"]) == 1


def test_enumerate_subcommand(capsys):
    assert main(["enumerate", "--class", "terminal", "--box", "2", "--mfp"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 3


def test_example37_subcommand(capsys):
    assert main(["example37"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert "error" in out
    degenerate = _write(tmp_path, "deg.json", {"dim": 2, "points": [[0, 0], [1, 1], [2, 2]]})
    assert main(["classify", degenerate]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"]["type"] == "DegenerateHullError"


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_quad2_json())))
    assert main(["classify", "-"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["flags"]["reflexive"] is True


def test_bfs_not_found_exit_2(tmp_path, capsys):
    square = _write(tmp_path, "sq.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]})
    sheared = _write(tmp_path, "t2.json", {"dim": 2, "points": [[1, 0], [2, 1], [-1, 0], [-2, -1]]})
    assert main(["bfs", square, sheared, "--class", "canonical", "--box", "1"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is False
    assert main(["bfs", square, sheared, "--class", "canonical", "--box", "2"]) == 0
    capsys.readouterr()


def test_bfs_answers_an_out_of_reach_target_at_once(tmp_path, capsys):
    tri = _write(tmp_path, "tri.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    far = _write(tmp_path, "far.json", {"dim": 2, "points": [[1, 0], [300, 1], [-301, -1]]})
    assert main(["bfs", tri, far, "--class", "terminal", "--box", "80"]) == 2
    assert capsys.readouterr().out.strip() == '{"box":80,"found":false}'


def test_mmp_of_the_hexagon_is_pinned(tmp_path, capsys):
    hexagon = _write(tmp_path, "hex.json", {"dim": 2, "points": [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]})
    assert main(["mmp", hexagon, "--class", "terminal"]) == 0
    assert capsys.readouterr().out.strip() == (
        '{"chain":[{"polytope":{"dim":2,"points":[[-1,0],[0,-1],[1,0],[1,1],[0,1]]},"removed":[-1,-1]},'
        '{"polytope":{"dim":2,"points":[[-1,0],[0,-1],[1,0],[1,1]]},"removed":[0,1]}],'
        '"fiber":[[-1,0],[1,0]],"result":{"dim":2,"points":[[-1,0],[0,-1],[1,0],[1,1]]}}'
    )


def test_verify_malformed_certificate_exit_1(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    b = _write(tmp_path, "b.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    cert_path = str(tmp_path / "cert.json")
    assert main(["connect", a, b, "--class", "terminal", "--out", cert_path]) == 0
    good = json.loads(open(cert_path).read())
    bad = [{**good, "chain": 5}, {**good, "class": "bogus"}, {**good, "relations": [{"rel": "equal"}]}, 5]
    for payload in bad:
        for command in ("verify", "render"):
            assert main([command, _write(tmp_path, "bad.json", payload)]) == 1
            out = json.loads(capsys.readouterr().out)
            assert out["error"]["type"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--class", "fano"], ["enumerate", "--box", "x"], ["bfs", "only-one.json"], []],
)
def test_usage_errors_exit_1_with_json(argv, capsys):
    # argparse alone exits 2, the code reserved for "not found within the box"
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["type"] == "usage"
    assert captured.err == ""


def test_seed_is_no_option(tmp_path, capsys):
    # no command uses randomness, so none takes a seed
    path = _write(tmp_path, "p.json", _quad2_json())
    assert main(["classify", path, "--seed", "7"]) == 1
    assert capsys.readouterr().out == (
        '{"error":{"message":"fanoweb: unrecognized arguments: --seed 7","type":"usage"}}\n'
    )


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--help"])
    assert exc.value.code == 0
    assert "--mfp" in capsys.readouterr().out


# one command line per command, each parsed by its own parser
ONE_ARGV_PER_COMMAND = [
    ["classify", "p.json", "--out", "c.json"],
    ["dual", "-", "--out", "d.json"],
    ["points", "p.json"],
    ["reduce", "p.json"],
    ["fibers", "p.json"],
    ["links", "p.json", "--class", "terminal", "--box", "2", "--fiber", "[[1,0],[-1,0]]"],
    ["mmp", "p.json", "--class", "terminal"],
    ["connect", "p.json", "q.json", "--class", "terminal"],
    ["bfs", "p.json", "q.json", "--box", "2"],
    ["verify", "cert.json"],
    ["enumerate", "--class", "canonical", "--box", "2", "--mfp"],
    ["render", "cert.json", "--cell-size", "10"],
    ["example37"],
]


def test_one_argv_per_command_covers_every_command():
    assert sorted(a[0] for a in ONE_ARGV_PER_COMMAND) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv", ONE_ARGV_PER_COMMAND, ids=lambda a: a[0])
def test_a_command_builds_only_its_own_parser(argv):
    parser = cli.build_parser(argv)
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == [argv[0]]
    assert parser.parse_args(argv) == cli.build_parser().parse_args(argv)


@pytest.mark.parametrize(
    "argv",
    [["bogus", "p.json"], ["connect", "p.json"], ["connect", "p.json", "q.json", "--class", "fano"],
     ["bfs", "p.json", "q.json", "--box", "two"], ["--box", "2"], []],
)
def test_usage_errors_match_the_full_parser(argv, capsys, monkeypatch):
    assert main(argv) == 1
    own = capsys.readouterr()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=(): full())
    assert main(argv) == 1
    assert capsys.readouterr() == own


@pytest.mark.parametrize(
    "argv, message",
    [
        (["connect", "p.json"], "fanoweb connect: the following arguments are required: second"),
        (["bfs", "a", "b", "--box", "x"], "fanoweb bfs: argument --box: invalid int value: 'x'"),
        (["bogus"], "fanoweb: argument command: invalid choice: 'bogus' (choose from "
         + ", ".join(map(repr, cli._COMMANDS)) + ")"),
    ],
)
def test_a_usage_error_is_prefixed_once_by_the_parser_that_refused(argv, message, capsys):
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {"error": {"type": "usage", "message": message}}


def test_negative_box_exit_1(tmp_path, capsys):
    tri = _write(tmp_path, "tri.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    tri90 = _write(tmp_path, "tri90.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    for argv in (
        ["enumerate", "--box", "-1"],
        ["links", tri, "--box", "-3"],
        ["bfs", tri, tri90, "--class", "terminal", "--box", "-1"],
        ["bfs", tri, tri, "--box", "-1"],
    ):
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError" and "nonnegative" in err["message"]


def test_render_cell_size_not_positive_exit_1(tmp_path, capsys):
    a = _write(tmp_path, "a.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    b = _write(tmp_path, "b.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    cert_path = str(tmp_path / "cert.json")
    assert main(["connect", a, b, "--class", "terminal", "--out", cert_path]) == 0
    for size in ("0", "-5"):
        assert main(["render", cert_path, "--cell-size", size]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "ValueError" and "cell size" in err["message"]
    assert main(["render", cert_path, "--cell-size", "1"]) == 0
    assert capsys.readouterr().out.startswith("<?xml")


def test_render_of_a_column_that_is_not_planar_exit_1(tmp_path, capsys):
    # the README certificate with a one-dimensional first column: a typed
    # error from render and from verify, and nothing on stderr
    a = _write(tmp_path, "a.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    b = _write(tmp_path, "b.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    cert_path = str(tmp_path / "cert.json")
    assert main(["connect", a, b, "--class", "terminal", "--out", cert_path]) == 0
    cert = json.loads(open(cert_path).read())
    cert["sequence"]["steps"][0]["left"] = {"dim": 1, "points": [[1], [-1]], "fiber": [[1], [-1]]}
    line = _write(tmp_path, "line.json", cert)
    # an empty origin, which a certificate built in code may carry, is refused on reading
    cert["sequence"]["steps"][0]["left"] = json.loads(open(cert_path).read())["sequence"]["steps"][0]["left"]
    cert["relations"][0]["origin"] = []
    empty = _write(tmp_path, "empty.json", cert)
    capsys.readouterr()
    for command, path, message in (
        ("render", line, "rendering supports two-dimensional chains only"),
        ("verify", line, "ambient dimension 1 is not supported"),
        ("render", empty, 'expected the origin ["reduction"] or ["link", step], got []'),
    ):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == {"message": message, "type": "ValueError"}
        assert captured.err == ""


_LEAN_SCRIPT = """
import json, sys
before = set(sys.modules)
from fanoweb import cli
tri, tri90, cert, verdict, heavy = sys.argv[1:6]
rcs = [cli.main(["connect", tri, tri90, "--class", "terminal", "--out", cert]),
       cli.main(["verify", cert, "--out", verdict]),
       cli.main(["classify", tri, "--out", verdict])]
heavy = heavy.split(",")
loaded = sorted(m for m in heavy if m in set(sys.modules) - before)
rcs.append(cli.main(["dual", tri, "--out", cert + ".dual"]))
print(json.dumps({"rcs": rcs, "loaded": loaded, "dual_loads_fractions": "fractions" in sys.modules}))
"""


def test_connect_and_verify_stay_off_dataclasses_and_fractions(tmp_path):
    """A fresh interpreter runs connect, verify and classify without
    importing dataclasses (and its inspect) or fractions (and its decimal
    and numbers): compared against the modules it held before importing
    fanoweb, so a site that preloads some of them cannot hide or fake a
    load.  dual, which does need fractions, is the positive control."""
    import os
    import subprocess
    import sys

    import fanoweb

    tri = _write(tmp_path, "tri.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    tri90 = _write(tmp_path, "tri90.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    src = os.path.dirname(os.path.dirname(fanoweb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    heavy = "dataclasses,inspect,fractions,decimal,numbers"
    argv = [tri, tri90, str(tmp_path / "cert.json"), str(tmp_path / "out.json"), heavy]
    proc = subprocess.run(
        [sys.executable, "-c", _LEAN_SCRIPT, *argv], env=env, capture_output=True, text=True, check=True
    )
    got = json.loads(proc.stdout)
    assert got == {"rcs": [0, 0, 0, 0], "loaded": [], "dual_loads_fractions": True}
    assert json.loads((tmp_path / "out.json").read_text())["flags"]["terminal"] is True


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--class", "terminal", "--box", "2"], ["classify", "-"]],
    ids=["output", "error report"],
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    """Writing to a pipe whose reader has gone fails the command quietly,
    whether it fails on the output or on the report of a malformed input."""
    import os
    import subprocess
    import sys

    import fanoweb

    src = os.path.dirname(os.path.dirname(fanoweb.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fanoweb.cli", *argv],
            env=env, stdin=subprocess.DEVNULL, stdout=w, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(w)
    # a failed flush at exit prints "Exception ignored ... BrokenPipeError" with no traceback
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
    assert proc.returncode == 1


def _move_middle_point(middle):
    middle["points"][middle["points"].index([0, -1])] = [1, -1]


# Edits of step 1 of the README certificate (tri.json to tri90.json, terminal),
# a link of the canonical table out of the standard F1 pair, and the reports
# that checking every link directly gives.  No edited link is an image of a
# table link, so each is checked directly.
MALFORMED_STEPS = {
    "spatial middle": (
        lambda step: step.update(middle={
            "dim": 3,
            "points": [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]],
            "fiber": [[0, 0, -1], [0, 0, 1]],
        }),
        [[1, "sequence: link invalid: left enlargement; right reduction; fibers equal; bases equal"],
         [3, "panel does not match the chain"]],
    ),
    "empty right fiber": (
        lambda step: step["right"].update(fiber=[]),
        [[1, "sequence: link invalid: right fiber structure; right Mori; fibers equal"],
         [1, "sequence: joint mismatch between consecutive steps"]],
    ),
    # a left fiber of three of the four points has no frame
    "left column without a frame": (
        lambda step: step["left"].update(fiber=[[-1, 0], [0, 1], [1, 0]]),
        [[0, "sequence: joint mismatch between consecutive steps"],
         [1, "sequence: link invalid: left fiber structure; left Mori; fibers equal"]],
    ),
    "moved middle point": (
        lambda step: _move_middle_point(step["middle"]),
        [[1, "sequence: link invalid: right reduction; middle set purity"],
         [1, "sequence: middle constituent leaves class terminal"],
         [3, "panel does not match the chain"]],
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_STEPS))
def test_verify_reports_of_malformed_links(tmp_path, capsys, name):
    edit, failures = MALFORMED_STEPS[name]
    a = _write(tmp_path, "tri.json", {"dim": 2, "points": [[1, 0], [0, 1], [-1, -1]]})
    b = _write(tmp_path, "tri90.json", {"dim": 2, "points": [[0, 1], [-1, 0], [1, -1]]})
    cert_path = str(tmp_path / "cert.json")
    assert main(["connect", a, b, "--class", "terminal", "--out", cert_path]) == 0
    capsys.readouterr()
    cert = json.loads(open(cert_path).read())
    assert certificate_from_json(cert).sequence.steps[1] in _link_table("canonical")["F1"]
    edit(cert["sequence"]["steps"][1])
    parsed = certificate_from_json(cert)
    assert _table_link_of(parsed.sequence.steps[1]) is None
    rep = verify_certificate(parsed)
    assert [list(f) for f in rep.failures] == failures and not rep.ok
    assert main(["verify", _write(tmp_path, "bad.json", cert)]) == 3
    assert json.loads(capsys.readouterr().out) == {"ok": False, "failures": failures}
