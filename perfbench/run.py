"""fanoweb benchmark: run one workload and print one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; fanoweb is imported from ./src. Workloads:

    sweep      connect + verify_certificate over seeded box-2 pairs
    enumerate  cold enumerate_fano(3, ...) in fresh interpreters
    bfs        bfs_connect in box 2, found and not-found queries
    cli        cold `fanoweb connect` + `fanoweb verify` processes

A round runs a workload's whole input list in fresh processes, so memo
tables start empty in every round and every round does the same work.
Rounds repeat until --seconds have passed. Times are calibrated CPU times
(calib.py), and medians are reported. With --trace 1 untraced and traced
rounds alternate, and the result holds per-layer figures and the tracing
overhead.
The last stdout line is the JSON result; the lines above it are a readable
report, and perfbench/out/ keeps a full BENCH_*.json of each run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calib
import reference as R
from checker import Checker, self_test
from tracer import FUNCTIONS, NAMES

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("sweep", "enumerate", "bfs", "cli")
CHILD_TIMEOUT = 150
# set-up time is the median of at least this many processes per run
SETUP_SAMPLES = 7
ENUM_BOX = 3
# Every n-th certificate of a first round also goes through `fanoweb verify`.
CLI_VERIFY_STRIDE = {"sweep": 10, "bfs": 1}
KINDS = ("I_d", "I_m", "II_irr", "II_ni", "III_d", "III_m", "IV_m", "IV_s")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{n}.calls": "count" for n in NAMES},
    **{f"{n}.self_ms": "ms" for n in NAMES},
    **{f"{layer}.self_ms": "ms" for layer in FUNCTIONS},
    "links.validate_link.ok_ratio": "ratio",
    "polytopes.lattice_points.cells": "count",
    **{f"web.cert.steps.{k}": "steps" for k in KINDS},
    "cli.import_ms": "ms",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # class and kind strings sit inside memo keys
    env["PYTHONHASHSEED"] = "0"
    env["FANOWEB_BENCH_SRC"] = os.path.join(SRC, "fanoweb")
    # cold processes load bytecode, as from an installed package (see compile_sources)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_sources(env):
    """Write the bytecode of fanoweb and of the benchmark's own modules, so
    that no measured process compiles them from source."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "fanoweb"), BENCH],
                   env=env, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT)


def run_child(env, args, stdout=subprocess.DEVNULL):
    """Run worker.py in a fresh interpreter; returns (wall ns, exit code, stdout, stderr)."""
    t0 = time.perf_counter_ns()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], env=env, stdout=stdout,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT, text=True,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker {args[0]} timed out after {CHILD_TIMEOUT} s") from e
    wall = time.perf_counter_ns() - t0
    # the CLI's own exit codes are 0 to 3; any other worker must exit 0
    if proc.returncode not in (0, 1, 2, 3) or (args[0] != "cli" and proc.returncode):
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.returncode, proc.stdout, proc.stderr


def tail(values):
    """(name, value) of the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 40:
        return None
    s = sorted(values)
    for name, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9), ("p75", 0.75)):
        if n * (1 - q) >= 10:
            return name, s[min(n - 1, int(q * n))]
    return None


class Run:
    """One benchmark run: inputs, rounds, checks and the figures they give."""

    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.env = child_env()
        self.checker = Checker()
        self.failures = []  # wrong outputs; the result is then not correct
        self.attempted = 0
        self.failed = 0  # operations that raised or exited with an error
        self.ops = {False: [], True: []}  # traced? -> [(CPU ns, calibration factor)]
        self.certs = []  # (steps, chain length, step kinds) per certificate produced
        self.traces = []  # (snapshot, import ms, calibration factor) per traced process
        self.peak_kb = 0
        self.setup_ns = []  # CPU time of each workload process before its first timed operation
        self.refs = []  # CPU time of each reference cold process (see calib.py)
        self.first_args = None  # worker arguments of the run's first workload process
        self.cli_wall_ns = []  # wall time of each CLI process, for the report
        self.rounds = 0
        self.traced_rounds = 0
        self.first_digests = None
        self.program_json = None
        self.make_inputs()

    def child(self, args, stdout=subprocess.DEVNULL):
        if self.first_args is None and args[0] in ("round", "enumerate", "cli"):
            self.first_args = args
        return run_child(self.env, args, stdout)

    # -- inputs -------------------------------------------------------------

    def make_inputs(self):
        w, seed = self.workload, self.seed
        if w == "sweep":
            self.queries = R.sweep_queries(seed)
        elif w == "bfs":
            self.queries = R.bfs_queries(seed)
        elif w == "cli":
            self.queries = []
            for i, (p, q, cls) in enumerate(R.cli_queries(seed)):
                paths = []
                for name, v in (("p", p), ("q", q)):
                    path = os.path.join(self.tmp, f"{name}{i}.json")
                    with open(path, "w") as fh:
                        json.dump({"dim": 2, "points": [list(x) for x in v]}, fh)
                    paths.append(path)
                self.queries.append([*paths, cls, p, q])
        else:
            # the two cold enumerations; the other two variants are checked untimed
            ops = [("canonical", False), ("terminal", True)]
            random.Random(seed).shuffle(ops)
            self.queries = ops
            self.orbit = R.orbit_polygons(ENUM_BOX)
        self.inputs = os.path.join(self.tmp, "inputs.json")
        with open(self.inputs, "w") as fh:
            json.dump(self.queries, fh)

    # -- set-up time --------------------------------------------------------

    def cold_ref_ns(self):
        """CPU time of one reference cold process (see calib.py)."""
        ns = json.loads(self.child(["ref"], stdout=subprocess.PIPE)[2])["cpu_ns"]
        self.refs.append(ns)
        return ns

    def top_up_setup(self):
        """Set-up samples from repeats of the run's first workload process
        that stop at their first timed operation, up to SETUP_SAMPLES."""
        env = {**self.env, "FANOWEB_BENCH_SETUP_ONLY": "1"}
        while len(self.setup_ns) < SETUP_SAMPLES:
            out = run_child(env, self.first_args, stdout=subprocess.PIPE)[2]
            self.setup_ns.append(json.loads(out)["setup_ns"])
            self.cold_ref_ns()

    def setup_s(self):
        """Median calibrated and raw CPU seconds from interpreter start to
        the first timed operation, over the run's workload processes."""
        raw = statistics.median(self.setup_ns) / 1e9
        return raw * calib.COLD_NOMINAL_MS * 1e6 / statistics.median(self.refs), raw

    # -- rounds -------------------------------------------------------------

    def round(self, traced):
        if self.workload in ("sweep", "bfs"):
            self.round_inproc(traced)
        elif self.workload == "enumerate":
            self.round_enumerate(traced)
        else:
            self.round_cli(traced)
        self.rounds += 1
        self.traced_rounds += traced

    def round_inproc(self, traced):
        out = os.path.join(self.tmp, "round.jsonl")
        first = self.first_digests is None
        prog = os.path.join(self.tmp, "program_certs.jsonl") if first else "-"
        self.child(["round", self.workload, self.inputs, out, "1" if traced else "0", prog,
                    str(CLI_VERIFY_STRIDE[self.workload])])
        digests = []
        with open(out) as fh:
            for line in fh:
                if line.startswith('{"summary"'):
                    summary = json.loads(line)["summary"]
                    break
                # rounds are deterministic: a line equal to the first round's
                # was checked there already
                digest = hashlib.sha1(line.encode()).digest()
                rec = json.loads(line)
                i = rec["i"]
                self.attempted += 1
                if "error" in rec:
                    self.failed += 1
                    self.note(f"query {i}: {rec['error']}")
                elif first or digest != self.first_digests[i]:
                    self.check_inproc(i, rec)
                else:
                    self.count_cert(rec["cert"])
                digests.append(digest)
        if first:
            self.first_digests = digests
            self.program_json = prog
        self.ops[traced].extend(zip(summary["ns"], summary["factor"]))
        self.peak_kb = max(self.peak_kb, summary["peak_rss_kb"])
        self.setup_ns.append(summary["setup_ns"])
        self.cold_ref_ns()
        if traced:
            self.traces.append((summary["trace"], summary["import_ms"], statistics.mean(summary["factor"])))

    def check_inproc(self, i, rec):
        p, q, cls = self.queries[i][:3]
        cert = rec["cert"]
        if not rec["verified"]:
            self.failures.append(f"query {i}: verify_certificate rejected the certificate")
        if self.workload == "bfs" and not self.queries[i][4]:
            if cert is not None:
                self.failures.append(f"query {i}: a certificate to a target outside the box")
            return
        if cert is None:
            self.failures.append(f"query {i}: no certificate")
            return
        self.check_cert(i, cert, p, q, cls)

    def check_cert(self, i, cert, p, q, cls):
        p, q = tuple(map(tuple, p)), tuple(map(tuple, q))
        self.failures.extend(f"query {i}: {f}" for f in self.checker.certificate(cert, p, q, cls))
        self.count_cert(cert)

    def count_cert(self, cert):
        if cert is None:
            return
        kinds = cert["kinds"] if "kinds" in cert else [s["kind"] for s in cert["sequence"]["steps"]]
        self.certs.append((len(kinds), len(cert["chain"]), kinds))

    def check_program_json(self):
        """`fanoweb verify` on the sampled certificates of the first round."""
        if self.program_json is None:
            return
        out = self.child(["cliverify", self.program_json, self.tmp], stdout=subprocess.PIPE)[2]
        rep = json.loads(out.strip().splitlines()[-1])
        self.failures.extend(rep["failures"])
        if not rep["checked"] and self.certs:
            self.failures.append("no certificate went through fanoweb verify")

    def round_enumerate(self, traced):
        out = os.path.join(self.tmp, "enum.json")
        for cls, mfp in self.queries:
            self.child(["enumerate", str(ENUM_BOX), cls, "1" if mfp else "0", out, "1" if traced else "0"])
            with open(out) as fh:
                res = json.load(fh)
            self.cold_ref_ns()
            self.attempted += 1
            self.ops[traced].append((res["ns"], res["factor"]))
            self.peak_kb = max(self.peak_kb, res["peak_rss_kb"])
            self.setup_ns.append(res["setup_ns"])
            if traced:
                self.traces.append((res["trace"], res["import_ms"], res["factor"]))
            if "error" in res:
                self.failed += 1
                self.note(f"enumerate_fano({ENUM_BOX}, {cls}, mfp_only={mfp}): {res['error']}")
                continue
            for c, m, classes in res["variants"]:
                result = {"classes": classes, "polygons": res["polygons"][c]}
                for f in self.checker.enumeration(result, c, m, self.orbit):
                    self.failures.append(f"enumerate_fano({ENUM_BOX}, {c}, mfp_only={m}): {f}")

    def cli(self, trace_path, argv):
        """One `fanoweb` process; returns (exit code, CPU ns)."""
        wall, rc, _, err = self.child(["cli", trace_path, *argv])
        timing = json.loads(err.strip().splitlines()[-1])
        self.peak_kb = max(self.peak_kb, timing["peak_rss_kb"])
        self.setup_ns.append(timing["setup_ns"])
        self.cli_wall_ns.append(wall)
        return rc, timing["cpu_ns"]

    def round_cli(self, traced):
        ops, traces, refs = [], [], []  # refs: reference CPU ns of this round
        for i, (pp, qp, cls, p, q) in enumerate(self.queries):
            cert_path = os.path.join(self.tmp, f"cert{i}.json")
            verdict_path = os.path.join(self.tmp, f"verify{i}.json")
            t_conn = os.path.join(self.tmp, f"trace_c{i}.json") if traced else "-"
            t_ver = os.path.join(self.tmp, f"trace_v{i}.json") if traced else "-"
            self.attempted += 1
            rc1, cpu1 = self.cli(t_conn, ["connect", pp, qp, "--class", cls, "--out", cert_path])
            refs.append(self.cold_ref_ns())
            if rc1 != 0:
                # a failed operation's time is counted, as in the other workloads
                ops.append(cpu1)
                self.failed += 1
                self.note(f"query {i}: fanoweb connect exit {rc1}")
                continue
            rc2, cpu2 = self.cli(t_ver, ["verify", cert_path, "--out", verdict_path])
            ops.append(cpu1 + cpu2)
            if rc2 != 0:
                self.failures.append(f"query {i}: fanoweb verify exit {rc2}")
            else:
                with open(verdict_path) as fh:
                    if json.load(fh).get("ok") is not True:
                        self.failures.append(f"query {i}: fanoweb verify did not report ok")
            with open(cert_path) as fh:
                self.check_cert(i, json.load(fh), p, q, cls)
            if traced:
                for path in (t_conn, t_ver):
                    with open(path) as fh:
                        t = json.load(fh)
                    traces.append((t["trace"], t["import_ms"]))
        factor = calib.COLD_NOMINAL_MS * 1e6 / statistics.median(refs)
        self.ops[traced].extend((ns, factor) for ns in ops)
        self.traces.extend((snap, import_ms, factor) for snap, import_ms in traces)

    def note(self, msg):
        if self.failed <= 20:
            print(f"# failed: {msg}")

    # -- figures ------------------------------------------------------------

    def figures(self, traced):
        """Calibrated and raw end-to-end figures of the untraced or traced rounds."""
        ops = self.ops[traced]
        cal_ms = [ns / 1e6 * f for ns, f in ops]
        raw_ms = [ns / 1e6 for ns, _ in ops]
        return {
            "ops": len(ops),
            "ops_per_s": len(ops) / (sum(cal_ms) / 1e3),
            "op_ms_p50": statistics.median(cal_ms),
            "op_ms_tail": tail(cal_ms),
            "raw_ops_per_s": len(ops) / (sum(raw_ms) / 1e3),
            "raw_op_ms_p50": statistics.median(raw_ms),
            "mean_factor": statistics.mean(f for _, f in ops),
        }

    def per_layer(self):
        """Per-round layer figures of the traced rounds, the full function
        table, and the listed functions the program does not have."""
        rounds = self.traced_rounds
        calls = dict.fromkeys(NAMES, 0)
        self_ms = dict.fromkeys(NAMES, 0.0)
        absent = set()
        valid = cells = 0
        for snap, _, factor in self.traces:
            for n in NAMES:
                calls[n] += snap["calls"][n]
                self_ms[n] += snap["self_ns"][n] / 1e6 * factor
            absent.update(snap["absent"])
            valid += snap["valid_links"]
            cells += snap["lattice_cells"]
        m = {f"{n}.calls": calls[n] / rounds for n in NAMES}
        m.update({f"{n}.self_ms": self_ms[n] / rounds for n in NAMES})
        for layer in FUNCTIONS:
            m[f"{layer}.self_ms"] = sum(self_ms[f"{layer}.{f}"] for f in FUNCTIONS[layer]) / rounds
        attempts = calls["links.validate_link"]
        m["links.validate_link.ok_ratio"] = valid / attempts if attempts else 0.0
        m["polytopes.lattice_points.cells"] = cells / rounds
        n_certs = len(self.certs)
        for k in KINDS:
            m[f"web.cert.steps.{k}"] = sum(c[2].count(k) for c in self.certs) / n_certs if n_certs else 0.0
        m["cli.import_ms"] = statistics.median(t[1] for t in self.traces) if self.traces else 0.0
        untraced, traced = self.figures(False), self.figures(True)
        m["trace.overhead_pct"] = (untraced["ops_per_s"] / traced["ops_per_s"] - 1) * 100
        table = {n: {"calls": calls[n] / rounds, "self_ms": self_ms[n] / rounds} for n in NAMES}
        return m, table, sorted(absent)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fanoweb", "__init__.py")):
        raise BenchError(f"no fanoweb sources under {SRC}; run from the root of a checkout")
    failures = R.self_check() + self_test()
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run = Run(args.workload, args.seed, tmp)
        run.failures.extend(failures)
        compile_sources(run.env)
        traced = False
        t0 = time.monotonic()
        while True:
            run.round(traced)
            if time.monotonic() - t0 >= args.seconds and (not args.trace or run.traced_rounds):
                break
            traced = bool(args.trace) and not traced
        run.check_program_json()
        run.top_up_setup()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(args, run, run.setup_s())


def report(args, run, setup):
    fig = run.figures(False)
    peak_mb = run.peak_kb / 1024
    e2e = {"setup_s": setup[0], "ops_per_s": fig["ops_per_s"], "op_ms_p50": fig["op_ms_p50"],
           "peak_rss_mb": peak_mb}
    raw = {"setup_s": setup[1], "ops_per_s": fig["raw_ops_per_s"], "op_ms_p50": fig["raw_op_ms_p50"],
           "peak_rss_mb": peak_mb}
    print(f"# workload {args.workload}, seed {args.seed}, {run.rounds} rounds, "
          f"{fig['ops']} untraced operations, mean calibration factor {fig['mean_factor']:.3f}")
    for name, value in e2e.items():
        print(f"# {name:<16} {value:12.4f} {END_TO_END[name]:<5} (raw {raw[name]:.4f})")
    extra = {}
    if run.cli_wall_ns:
        print(f"# cli process wall time p50 {statistics.median(run.cli_wall_ns) / 1e6:.1f} ms "
              f"over {len(run.cli_wall_ns)} processes")
    if fig["op_ms_tail"]:
        name, value = fig["op_ms_tail"]
        extra["op_ms_tail"] = {"value": value, "unit": "ms", "percentile": name}
        print(f"# {'op_ms_tail':<16} {value:12.4f} ms    ({name} of {fig['ops']})")
    if run.certs:
        extra["cert_steps_mean"] = {"value": statistics.mean(c[0] for c in run.certs), "unit": "steps"}
        extra["cert_chain_mean"] = {"value": statistics.mean(c[1] for c in run.certs), "unit": "members"}
        for name in ("cert_steps_mean", "cert_chain_mean"):
            print(f"# {name:<16} {extra[name]['value']:12.4f} {extra[name]['unit']}")
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": run.rounds, "end_to_end": e2e, "raw": raw,
              "extra": extra, "failures": run.failures[:50]}
    if args.trace:
        metrics, table, absent = run.per_layer()
        result.update(per_layer=metrics, functions=table, absent=absent,
                      traced_figures=run.figures(True))
        print(f"# tracing overhead {metrics['trace.overhead_pct']:.1f} % of untraced ops_per_s; "
              f"layer figures are per round")
        for n, row in table.items():
            if row["calls"]:
                print(f"#   {n:<36} {row['calls']:>12.1f} calls {row['self_ms']:>12.2f} ms self")
        if absent:
            print(f"# absent from the program: {', '.join(absent)}")
        out_metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}
    else:
        out_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    for f in run.failures[:20]:
        print(f"# wrong: {f}")
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": out_metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(1)
