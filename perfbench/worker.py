"""Child processes of the benchmark; run.py starts every one of them.

    python3 perfbench/worker.py ref
    python3 perfbench/worker.py round WORKLOAD INPUTS OUT TRACE PROGRAM_JSON STRIDE
    python3 perfbench/worker.py enumerate BOX CLASS MFP OUT TRACE
    python3 perfbench/worker.py cli TRACE_OUT ARGV...
    python3 perfbench/worker.py cliverify CERTS WORKDIR

src/ must be on PYTHONPATH. A process starts from a fresh interpreter, so
fanoweb's module-level memo tables start empty in each one. The top-level
imports are stdlib only, so that the `cli` mode costs what the `fanoweb`
console script costs.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from time import perf_counter_ns, process_time_ns, thread_time_ns


def _import(module):
    t0 = process_time_ns()
    mod = __import__(module, fromlist=["_"])
    import_ms = (process_time_ns() - t0) / 1e6
    src = os.environ["FANOWEB_BENCH_SRC"]
    if not os.path.abspath(mod.__file__).startswith(src):
        raise SystemExit(f"fanoweb was imported from {mod.__file__}, not from {src}")
    return mod, import_ms


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def peak_rss_kb():
    """High-water resident set of this process since it started its program.

    getrusage() would also count the parent's pages inherited before exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _tracer(enabled):
    if not enabled:
        return None
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    return tr


def encode(cert):
    """The certificate fields the checker reads, from fanoweb's objects."""
    return {
        "class": cert.class_constraint,
        "chain": [{"dim": p.dim, "points": p.vertices} for p in cert.chain],
        "relations": [{"rel": r.rel, "witness": r.witness} for r in cert.relations],
        "kinds": [s.kind for s in cert.sequence.steps],
    }


def setup_done():
    """CPU time of this process at its first timed operation. With
    FANOWEB_BENCH_SETUP_ONLY set, print it and exit there instead: run.py
    starts such processes when a run has too few workload processes for a
    steady median of their set-up times."""
    ns = process_time_ns()
    if os.environ.get("FANOWEB_BENCH_SETUP_ONLY"):
        print(json.dumps({"setup_ns": ns}))
        sys.exit(0)
    return ns


def reference_process():
    """A fixed cold process for calibrating cold processes: the stdlib
    imports fanoweb makes, a table like a memo table and a fixed amount of
    interpreter work; prints its CPU time since the interpreter started."""
    import argparse  # noqa: F401
    import dataclasses  # noqa: F401
    import fractions  # noqa: F401
    import itertools  # noqa: F401

    import calib

    table = {(i, i * 7 % 101): (i, -i) for i in range(20_000)}
    for _ in range(10):
        calib.kernel()
    print(json.dumps({"cpu_ns": process_time_ns(), "size": len(table)}))


def run_round(workload, inputs, out, trace, program_json, stride):
    """One round of sweep or bfs queries, timed per operation.

    Every stride-th certificate is also written in fanoweb's own JSON to
    program_json ("-" for none), for `fanoweb verify`.
    """
    fanoweb, import_ms = _import("fanoweb")
    from fanoweb import jsonio

    from calib import Sampler

    queries = [(fanoweb.hull(p), fanoweb.hull(q), cls, box) for p, q, cls, box, *_ in _load(inputs)]
    setup_ns = setup_done()
    tr = _tracer(trace)
    if workload == "sweep":
        connect, verify = fanoweb.connect, fanoweb.verify_certificate

        def op(p, q, cls, box):
            cert = connect(p, q, cls)
            return cert, verify(cert).ok
    else:
        bfs = fanoweb.bfs_connect

        def op(p, q, cls, box):
            return bfs(p, q, cls, box), True

    times, spans = [], []
    prog_file = open(program_json, "w") if program_json != "-" else contextlib.nullcontext()
    with open(out, "w") as fh, prog_file as prog:
        with Sampler() as sampler:
            for i, query in enumerate(queries):
                w0, t0 = perf_counter_ns(), thread_time_ns()
                try:
                    cert, ok = op(*query)
                except Exception as e:  # one failed operation must not end the round
                    times.append(thread_time_ns() - t0)
                    spans.append((w0, perf_counter_ns()))
                    fh.write(json.dumps({"i": i, "error": f"{type(e).__name__}: {e}"}) + "\n")
                    continue
                times.append(thread_time_ns() - t0)
                spans.append((w0, perf_counter_ns()))
                line = {"i": i, "verified": ok, "cert": None if cert is None else encode(cert)}
                fh.write(json.dumps(line) + "\n")
                if prog is not None and cert is not None and i % stride == 0:
                    prog.write(jsonio.dumps(jsonio.certificate_to_json(cert)) + "\n")
        summary = {
            "ns": times,
            "factor": [sampler.factor(*span) for span in spans],
            "setup_ns": setup_ns,
            "import_ms": import_ms,
            "trace": tr.snapshot() if tr else None,
            "peak_rss_kb": peak_rss_kb(),
        }
        fh.write(json.dumps({"summary": summary}) + "\n")


def run_enumerate(box, cls, mfp, out, trace):
    """One cold enumerate_fano call, calibrated by samples taken while it
    runs; then, untimed, the results of all four variants for the checks.
    If the timed call raises, the result holds the error instead."""
    fanoweb, import_ms = _import("fanoweb")
    from calib import Sampler

    setup_ns = setup_done()
    tr = _tracer(trace)
    enumerate_fano = fanoweb.enumerate_fano
    error = None
    with Sampler() as sampler:
        w0, t0 = perf_counter_ns(), thread_time_ns()
        try:
            enumerate_fano(box, cls, mfp_only=mfp)
        except Exception as e:  # a failed operation is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        dt = thread_time_ns() - t0
        span = (w0, perf_counter_ns())
    res = {
        "ns": dt,
        "factor": sampler.factor(*span),
        "setup_ns": setup_ns,
        "import_ms": import_ms,
        "trace": tr.snapshot() if tr else None,
        "peak_rss_kb": peak_rss_kb(),
    }
    if error is not None:
        res["error"] = error
    else:
        # untimed and mostly memo hits now: every variant, for the checks
        res["variants"] = [[c, m, [[nf.vertices, n] for nf, n in enumerate_fano(box, c, mfp_only=m)]]
                           for c in ("canonical", "terminal") for m in (False, True)]
        res["polygons"] = {c: [p.vertices for p in fanoweb.enumerate_class_polygons(box, c)]
                           for c in ("canonical", "terminal")}
    with open(out, "w") as fh:
        json.dump(res, fh)


def run_cli(trace_out, argv):
    """The `fanoweb` console script, optionally traced. The last stderr line
    holds its CPU time before `main` was called and at its end, and its peak
    memory."""
    cli, import_ms = _import("fanoweb.cli")
    setup_ns = setup_done()
    tr = _tracer(trace_out != "-")
    rc = cli.main(argv)
    timing = {"cpu_ns": process_time_ns(), "setup_ns": setup_ns}
    if tr:
        with open(trace_out, "w") as fh:
            json.dump({"import_ms": import_ms, "trace": tr.snapshot()}, fh)
    timing["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(timing), file=sys.stderr)
    return rc


def cli_verify(certs, workdir):
    """`fanoweb verify` on each certificate line of a file; prints failures."""
    cli, _ = _import("fanoweb.cli")
    path = os.path.join(workdir, "cert.json")
    report = os.path.join(workdir, "verify.json")
    failures = []
    n = 0
    with open(certs) as fh:
        for n, line in enumerate(fh, 1):
            with open(path, "w") as out:
                out.write(line)
            rc = cli.main(["verify", path, "--out", report])
            with open(report) as rep:
                ok = json.load(rep).get("ok")
            if rc != 0 or ok is not True:
                failures.append(f"certificate {n}: fanoweb verify exit {rc}")
    print(json.dumps({"checked": n, "failures": failures}))


def main(argv):
    mode, args = argv[0], argv[1:]
    if mode == "ref":
        reference_process()
    elif mode == "round":
        run_round(args[0], args[1], args[2], args[3] == "1", args[4], int(args[5]))
    elif mode == "enumerate":
        run_enumerate(int(args[0]), args[1], args[2] == "1", args[3], args[4] == "1")
    elif mode == "cli":
        return run_cli(args[0], args[1:])
    elif mode == "cliverify":
        cli_verify(*args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
