"""Command line interface.

Subcommands read polytope JSON ({"dim": d, "points": [[...], ...]}, hull
taken on load) from a file argument or stdin ("-"), and write JSON (SVG for
render) to stdout or --out.  Exit codes: 0 success, 1 malformed input, bad
usage or error, 2 certificate not found within the box, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from . import jsonio
from .genset import fiber_structure_for, fiber_structures, from_polytope, mori_fibers, polytope_reduction
from .links import Constituent, enumerate_links
from .obstruction import run_suite
from .polytopes import CLASS_NAMES, classify, lattice_points, interior_lattice_points, mavlyutov_dual, polar_dual, primitive_points
from .render import render_svg
from .web import (
    CertificateVerificationError,
    bfs_connect,
    connect,
    enumerate_fano,
    mmp_reduce,
    verify_certificate,
)


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(args, payload):
    _emit(args, jsonio.dumps(payload))


def _load_polytope(args, attr="polytope"):
    return jsonio.polytope_from_json(_read_json(getattr(args, attr)))


def cmd_classify(args):
    p = _load_polytope(args)
    flags = classify(p)
    flags = {name: flags.get(name) for name in CLASS_NAMES[1:]}
    _emit_json(args, {"polytope": jsonio.polytope_to_json(p), "flags": flags})
    return 0


def cmd_dual(args):
    p = _load_polytope(args)
    d = polar_dual(p)
    md = mavlyutov_dual(p)
    payload = {
        "polar": jsonio.rational_polytope_to_json(d),
        "lattice_hull": {
            "dim": md.dim,
            "points": [list(x) for x in md.points],
            "polytope": None if md.polytope is None else jsonio.polytope_to_json(md.polytope),
        },
    }
    _emit_json(args, payload)
    return 0


def cmd_points(args):
    p = _load_polytope(args)
    payload = {
        "lattice": [list(x) for x in lattice_points(p)],
        "interior": [list(x) for x in interior_lattice_points(p)],
    }
    try:
        payload["primitive"] = [list(x) for x in primitive_points(p)]
    except ValueError:
        payload["primitive"] = None
    _emit_json(args, payload)
    return 0


def cmd_reduce(args):
    p = _load_polytope(args)
    out = []
    for v in sorted(p.vertices):
        res = polytope_reduction(p, v)
        entry = {"vertex": list(v), "valid": res.valid}
        if res.valid:
            entry["polytope"] = jsonio.polytope_to_json(res.polytope)
        else:
            entry["reason"] = res.reason
        out.append(entry)
    _emit_json(args, {"reductions": out})
    return 0


def cmd_fibers(args):
    p = _load_polytope(args)
    a = from_polytope(p)
    payload = {
        "structures": [jsonio.fiber_structure_to_json(fs) for fs in fiber_structures(a)]
    }
    _emit_json(args, payload)
    return 0


def cmd_links(args):
    p = _load_polytope(args)
    a = from_polytope(p)
    if args.fiber:
        fiber = fiber_structure_for(a, jsonio._points(json.loads(args.fiber), p.dim)).fiber
    else:
        fibers = mori_fibers(a)
        if not fibers:
            raise ValueError("polytope has no Mori fiber structure")
        fiber = min(fibers)
    start = Constituent(a, fiber)
    links = enumerate_links(start, args.cls, args.box, "polytope")
    _emit_json(args, {"links": [jsonio.link_to_json(l) for l in links]})
    return 0


def cmd_mmp(args):
    p = _load_polytope(args)
    r = mmp_reduce(p, args.cls)
    payload = {
        "result": jsonio.polytope_to_json(r.polytope),
        "fiber": [list(v) for v in r.fiber],
        "chain": [
            {"removed": list(v), "polytope": jsonio.polytope_to_json(poly)}
            for v, poly in r.chain
        ],
    }
    _emit_json(args, payload)
    return 0


def cmd_connect(args):
    p = _load_polytope(args, "first")
    q = _load_polytope(args, "second")
    cert = connect(p, q, args.cls)
    _emit_json(args, jsonio.certificate_to_json(cert))
    return 0


def cmd_bfs(args):
    p = _load_polytope(args, "first")
    q = _load_polytope(args, "second")
    cert = bfs_connect(p, q, args.cls, args.box)
    if cert is None:
        _emit_json(args, {"found": False, "box": args.box})
        return 2
    _emit_json(args, jsonio.certificate_to_json(cert))
    return 0


def cmd_verify(args):
    cert = jsonio.certificate_from_json(_read_json(args.certificate))
    rep = verify_certificate(cert)
    payload = {"ok": rep.ok, "failures": [[i, msg] for i, msg in rep.failures]}
    _emit_json(args, payload)
    return 0 if rep.ok else 3


def cmd_enumerate(args):
    classes = enumerate_fano(args.box, args.cls, mfp_only=args.mfp)
    payload = {
        "box": args.box,
        "class": args.cls,
        "mfp_only": args.mfp,
        "count": len(classes),
        "classes": [
            {"normal_form": jsonio.polytope_to_json(nf), "representatives": c}
            for nf, c in classes
        ],
    }
    _emit_json(args, payload)
    return 0


def cmd_render(args):
    data = _read_json(args.input)
    if isinstance(data, dict) and "chain" in data:
        obj = jsonio.certificate_from_json(data)
    else:
        obj = jsonio.sequence_from_json(data)
    svg = render_svg(obj, args.cell_size)
    _emit(args, svg)
    return 0


def cmd_example37(args):
    rep = run_suite()
    _emit_json(args, rep)
    return 0 if rep["ok"] else 1


def _add_io(sub, *, polytope=True):
    if polytope:
        sub.add_argument("polytope", help="polytope JSON file, or - for stdin")
    sub.add_argument("--out", help="write output to this file instead of stdout")


# the classes a certificate or an enumeration can be constrained to
_CLASSES = ["terminal", "canonical", "reflexive"]


class _UsageError(Exception):
    """Raised past argparse, whose parsers would prefix its message again."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # not argparse's exit 2, the code of "not found"
        raise _UsageError(f"{self.prog}: {message}")


def _add_links(s):
    _add_io(s)
    s.add_argument("--class", dest="cls", default="none", choices=["none"] + _CLASSES)
    s.add_argument("--box", type=int, default=4)
    s.add_argument("--fiber", help="fiber points as JSON, e.g. [[1,0],[-1,0]]")


def _add_mmp(s):
    _add_io(s)
    s.add_argument("--class", dest="cls", default="canonical", choices=_CLASSES)


def _add_connect(s):
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--class", dest="cls", default="canonical", choices=_CLASSES)
    _add_io(s, polytope=False)


def _add_bfs(s):
    s.add_argument("first")
    s.add_argument("second")
    s.add_argument("--class", dest="cls", default="canonical", choices=_CLASSES)
    s.add_argument("--box", type=int, default=4)
    _add_io(s, polytope=False)


def _add_verify(s):
    s.add_argument("certificate")
    _add_io(s, polytope=False)


def _add_enumerate(s):
    s.add_argument("--class", dest="cls", default="reflexive", choices=_CLASSES)
    s.add_argument("--box", type=int, default=3)
    s.add_argument("--mfp", action="store_true", help="keep Mori fiber polygons only")
    _add_io(s, polytope=False)


def _add_render(s):
    s.add_argument("input", help="certificate or sequence JSON file, or - for stdin")
    s.add_argument("--cell-size", type=int, default=24)
    _add_io(s, polytope=False)


# name -> (help, function, adds the arguments), in the order of the usage text
_COMMANDS = {
    "classify": ("classification flags of a polytope", cmd_classify, _add_io),
    "dual": ("polar dual and the hull of its lattice points", cmd_dual, _add_io),
    "points": ("lattice, interior, and primitive points", cmd_points, _add_io),
    "reduce": ("all single-vertex reductions", cmd_reduce, _add_io),
    "fibers": ("all fiber structures of the primitive point set", cmd_fibers, _add_io),
    "links": ("enumerate links from a Mori fiber structure", cmd_links, _add_links),
    "mmp": ("reduce to a Mori fiber polytope", cmd_mmp, _add_mmp),
    "connect": ("certificate joining two polygons", cmd_connect, _add_connect),
    "bfs": ("shortest certificate within a box", cmd_bfs, _add_bfs),
    "verify": ("re-check a certificate from scratch", cmd_verify, _add_verify),
    "enumerate": ("class polygons in a box, up to unimodular maps", cmd_enumerate, _add_enumerate),
    "render": ("SVG diagram of a sequence or certificate", cmd_render, _add_render),
    "example37": ("run the three-dimensional fixture suite", cmd_example37, partial(_add_io, polytope=False)),
}


def build_parser(argv=()):
    """The parser of a command line argv.  When argv's first word names a
    command, only that command's subparser is built; otherwise (help, an
    unknown or missing command) all of them are, so that every usage text
    and error lists them all."""
    ap = _Parser(prog="fanoweb", description=__doc__)
    sp = ap.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        help_text, func, add = _COMMANDS[name]
        s = sp.add_parser(name, help=help_text)
        add(s)
        s.set_defaults(func=func)
    return ap


def _error(payload, code=1):
    sys.stdout.write(jsonio.dumps({"error": payload}) + "\n")
    return code


def main(argv=None):
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, so no report can reach it; pointing the
        # descriptor at devnull keeps the flush at exit from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(argv):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        return _error({"type": "usage", "message": str(e)})
    except CertificateVerificationError as e:
        return _error({"type": "verification", "failures": [[i, msg] for i, msg in e.failures]}, 3)
    except (ValueError, KeyError) as e:
        return _error({"type": type(e).__name__, "message": str(e)})
    except BrokenPipeError:
        raise
    except OSError as e:
        return _error({"type": "io", "message": str(e)})


if __name__ == "__main__":
    sys.exit(main())
