"""Benchmark of piord: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload {verify,query,spawn} --seed N \
        --seconds S --trace {0,1} [--toy]

Run it from the repository root.  Each session of a workload runs in a
fresh child process (child.py), so every memo table starts empty.  A run
holds a fixed number of sessions, about --seconds of work at the host's
usual speed and at least three, so that one seed always gives the same
operations and the same answers.  This process judges every answer itself,
from the census written by a separate `piord enumerate` process and from
the reference counts in reference.json.

Every end-to-end time is given at the host's reference speed: each
operation's time is scaled by speed.REF_S over the mean time of the speed
probes (speed.py) run around and during its chunk of operations, and each
session's set-up time by REF_S over the mean of all its probes, because
the shared host's own speed drifts more than a regression worth catching.
The unscaled medians are printed on the lines before the result.

Workloads (why each was chosen is in BENCHMARK.json):
  verify  one `piord props --size-cap 10` per session, in-process
  query   closed loop, one client: 3000 in-process `piord.cli.main` calls
          per session, drawn by plan.py
  spawn   closed loop, one client: 40 `python -m piord.cli` processes per
          session, drawn from the same stream

With --trace 0 it prints the end-to-end metrics.  With --trace 1 it runs
one untraced and one traced session of the same operations, writes the
span files under .perfbench/trace-WORKLOAD/, and prints the per-layer
metrics (layertrace.py).  --toy shrinks every workload for the self-test.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import plan
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
CHILD = os.path.join(HERE, "child.py")

# ops per session, the usual wall time of a session in seconds, the
# percentile reported as latency_ms.tail (the highest with at least ten
# samples beyond it in a run), and the toy size
WORKLOADS = {
    "verify": {"count": 1, "session_s": 4.0, "tail": 90, "toy": 1},
    "query": {"count": 3000, "session_s": 5.0, "tail": 99, "toy": 50},
    "spawn": {"count": 40, "session_s": 4.0, "tail": 90, "toy": 3},
}
VERIFY_CAP, TOY_VERIFY_CAP = 10, 6
MIN_SESSIONS = 3
RUN_BUDGET_S = 170    # a run must end within 180 s, whatever a session does


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"    # the same seed runs the same way
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_session(ctx, name, start, trace):
    """Launch one child session and return its result, with `launched`."""
    sdir = os.path.join(ctx["dir"], name)
    os.makedirs(sdir)
    cfg = {"workload": ctx["workload"], "seed": ctx["seed"], "start": start,
           "count": ctx["count"], "dir": sdir, "verify_cap": ctx["cap"],
           "trace": os.path.join(sdir, "trace") if trace else None}
    cfg_path = os.path.join(sdir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, cfg_path], env=ctx["env"],
                            stdout=sys.stderr, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(0, ctx["deadline"] - launched))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if rc != 0:
        raise BenchError("session %s exited with %d" % (name, rc))
    with open(os.path.join(sdir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    result["launched"] = launched
    result["dir"] = sdir
    result["start"] = start
    return result


# -- judging ------------------------------------------------------------


def judge_verify(ctx, session):
    """Checks of one `props` run: every expected proposition, by name and
    count, must be reported ok, and no other.  Returns (attempted, failed,
    wrong); every failed check is a wrong result."""
    expected = ctx["reference"]["verify_checks"][str(ctx["cap"])]
    _dt, rc, out, _err = session["ops"][0]
    got = {}
    if rc is not None:
        for line in out.splitlines():
            rec = json.loads(line)
            if rec["kind"] == "prop":
                got[rec["name"]] = (rec["checked"], rec["ok"])
    failed = sum(got.get(name) != (checked, True)
                 for name, checked in expected.items())
    failed += len(set(got) - set(expected))
    return len(expected), failed, failed


def judge_ops(ctx, session):
    """Checks of a query or spawn session against its census positions and
    deep-operand depths.  Returns (attempted, failed, wrong, deep_failed,
    deep_ops)."""
    census = plan.read_census(os.path.join(session["dir"], "census.txt"))
    if len(census) != ctx["reference"]["census_terms"]:
        raise BenchError("census has %d terms, expected %d"
                         % (len(census), ctx["reference"]["census_terms"]))
    stream = plan.operations(ctx["seed"], census)
    for _ in range(session["start"]):
        next(stream)
    failed = wrong = deep_failed = deep_ops = 0
    for got in session["ops"]:
        op = next(stream)
        verdict = plan.judge(op, got[1], got[2])
        deep_ops += op["deep"]
        if verdict != "ok":
            failed += 1
            deep_failed += op["deep"]
            # a failure of a deep operand is the known depth defect; any
            # other failure, and any wrong answer, is an incorrect result
            if verdict == "wrong" or not op["deep"]:
                wrong += 1
                print("incorrect: %s -> rc=%s out=%r err=%r"
                      % (op["argv"], got[1], got[2][:80], got[3]),
                      file=sys.stderr)
    return len(session["ops"]), failed, wrong, deep_failed, deep_ops


def judge(ctx, sessions):
    totals = [0, 0, 0, 0, 0]
    for s in sessions:
        if ctx["workload"] == "verify":
            part = judge_verify(ctx, s) + (0, 0)
        else:
            part = judge_ops(ctx, s)
        totals = [a + b for a, b in zip(totals, part)]
    return dict(zip(("attempted", "failed", "wrong", "deep_failed",
                     "deep_ops"), totals))


# -- metrics ------------------------------------------------------------


def percentile(values, pct):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def scales(session):
    """Factor from measured to reference-speed time, per operation: REF_S
    over the mean of the probes taken around and during its chunk."""
    out = []
    for count, probes in session["chunks"]:
        out += [speed.REF_S / statistics.fmean(probes)] * count
    assert len(out) == len(session["ops"])
    return out


def scaled_times(sessions):
    return [op[0] * k for s in sessions for op, k in zip(s["ops"], scales(s))]


def end_to_end(ctx, sessions, verdict):
    lat = scaled_times(sessions)
    raw = [op[0] for s in sessions for op in s["ops"]]
    if ctx["workload"] == "spawn":
        rss_kb = max(op[4] for s in sessions for op in s["ops"])
    else:
        rss_kb = statistics.median(s["maxrss_kb"] for s in sessions)
    tail = WORKLOADS[ctx["workload"]]["tail"]
    attempted = verdict["attempted"]
    setup = [(s["ready"] - s["launched"]) * speed.REF_S / statistics.fmean(
        p for _count, probes in s["chunks"] for p in probes) for s in sessions]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "latency_ms.p50": (statistics.median(lat) * 1e3, "ms"),
        "latency_ms.tail": (percentile(lat, tail) * 1e3, "ms"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_rate": ((attempted - verdict["failed"]) / attempted, "ratio"),
    }, {"sessions": len(sessions), "samples": len(lat), "tail_pct": tail,
        "unscaled_latency_ms.p50": statistics.median(raw) * 1e3,
        "unscaled_setup_s": statistics.median(s["ready"] - s["launched"]
                                              for s in sessions),
        "host_slowdown": sum(raw) / sum(lat)}


def merge_summaries(session):
    """Sum the per-process trace summaries of one traced session."""
    total = {"calls": {}, "group_calls": {}, "group_ns": {},
             "group_self_ns": {}, "enum_checks": [0, 0], "axioms_rss_mb": 0}
    paths = glob.glob(os.path.join(session["dir"], "trace-*.json"))
    if not paths:
        raise BenchError("traced session wrote no span summary")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        for key in ("calls", "group_calls", "group_ns", "group_self_ns"):
            for k, v in part[key].items():
                total[key][k] = total[key].get(k, 0) + v
        total["enum_checks"] = [a + b for a, b in
                                zip(total["enum_checks"], part["enum_checks"])]
        total["axioms_rss_mb"] = max(total["axioms_rss_mb"],
                                     part["axioms_rss_mb"] or 0)
    return total


def startup_ms(env, repeats=7):
    """Median wall time of a bare interpreter and of importing piord.cli."""
    def timed(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        return (time.perf_counter() - t0) * 1e3
    bare, imported = [], []
    for _ in range(repeats):
        bare.append(timed("pass"))
        imported.append(timed("import piord.cli"))
    return statistics.median(bare), statistics.median(imported)


def per_layer(ctx, plain, traced, verdict):
    s = merge_summaries(traced)
    ns, calls = s["group_ns"], s["group_calls"]
    interp, imported = startup_ms(ctx["env"])
    attempts, ok = s["enum_checks"]

    def sec(group):
        return ns[group] / 1e9

    plain_s = sum(scaled_times([plain]))
    traced_s = sum(scaled_times([traced]))
    metrics = {
        "oracle.enumerate_s": (sec("oracle.enumerate"), "s"),
        "oracle.axioms_s": (sec("oracle.axioms"), "s"),
        "oracle.props_s": (sec("oracle.props"), "s"),
        "oracle.sd_cross_s": (sec("oracle.sd_cross"), "s"),
        "oracle.axioms.rss_mb": (s["axioms_rss_mb"], "MB"),
        "order.cmp_calls": (calls["order.cmp"], "count"),
        "order.cmp_s": (sec("order.cmp"), "s"),
        "order.kdelta_s": (sec("order.kdelta"), "s"),
        "validate.check_calls": (calls["validate.check"], "count"),
        "validate.check_s": (sec("validate.check"), "s"),
        "validate.ok_ratio": (ok / attempts if attempts else 0.0, "ratio"),
        "terms.mk_calls": (calls["terms.mk"], "count"),
        "terms.mk_s": (sec("terms.mk"), "s"),
        "sd.in_sd_calls": (calls["sd.in_sd"], "count"),
        "sd.in_sd_s": (sec("sd.in_sd"), "s"),
        "cnf.calls": (calls["cnf"], "count"),
        "cnf.s": (sec("cnf"), "s"),
        "cli.self_s": (s["group_self_ns"]["cli.main"] / 1e9, "s"),
        "syntax.parse_s": (sec("syntax.parse"), "s"),
        "syntax.print_s": (sec("syntax.print"), "s"),
        "arith.bound_s": (sec("arith.bound"), "s"),
        "query.deep_ops": (verdict["deep_ops"], "count"),
        "query.deep_failed": (verdict["deep_failed"], "count"),
        "spawn.interp_ms": (interp, "ms"),
        "spawn.import_ms": (imported - interp, "ms"),
        "trace.overhead": (traced_s / plain_s, "ratio"),
    }
    oracle_s = sum(sec(g) for g in ("oracle.enumerate", "oracle.axioms",
                                    "oracle.props", "oracle.sd_cross"))
    return metrics, {"spans": sum(s["calls"].values()),
                     "traced_s": traced_s, "untraced_s": plain_s,
                     "oracle_share_of_main": oracle_s / sec("cli.main")}


# -- running ------------------------------------------------------------


def run(args):
    if not os.path.isfile(os.path.join(SRC, "piord", "cli.py")):
        raise BenchError("no piord sources under %s; run from the repository"
                         " root" % SRC)
    spec = WORKLOADS[args.workload]
    ctx = {"workload": args.workload, "seed": args.seed,
           "deadline": time.monotonic() + RUN_BUDGET_S,
           "count": spec["toy"] if args.toy else spec["count"],
           "cap": TOY_VERIFY_CAP if args.toy else VERIFY_CAP,
           "reference": load_reference(), "env": child_env(),
           "dir": os.path.join(OUT, "run-%s-%d" % (args.workload,
                                                   os.getpid()))}
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(SRC, "piord")], check=True,
                   stdout=subprocess.DEVNULL)
    os.makedirs(ctx["dir"])
    try:
        if args.trace:
            plain = run_session(ctx, "plain", 0, trace=False)
            traced = run_session(ctx, "traced", 0, trace=True)
            verdict = judge(ctx, [plain, traced])
            metrics, notes = per_layer(ctx, plain, traced, verdict)
            keep = os.path.join(OUT, "trace-" + args.workload)
            shutil.rmtree(keep, ignore_errors=True)
            os.rename(traced["dir"], keep)
            notes["span_files"] = os.path.relpath(keep, ROOT)
        else:
            n = 1 if args.toy else max(
                MIN_SESSIONS, round(args.seconds / spec["session_s"]))
            sessions = [run_session(ctx, "s%d" % i, i * ctx["count"],
                                    trace=False) for i in range(n)]
            verdict = judge(ctx, sessions)
            metrics, notes = end_to_end(ctx, sessions, verdict)
    finally:
        shutil.rmtree(ctx["dir"], ignore_errors=True)
    return metrics, notes, verdict


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes: verify at cap 6, 50 queries, 3 spawns")
    args = p.parse_args(argv)
    try:
        metrics, notes, verdict = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print("benchmark error: %s" % (exc,), file=sys.stderr)
        return 1
    print("workload %s seed %d: %s" % (args.workload, args.seed,
                                       json.dumps(notes)))
    for name, (value, unit) in metrics.items():
        print("  %-22s %14.6g %s" % (name, value, unit))
    print("  attempted %d, failed %d (deep operands %d of %d), wrong %d"
          % (verdict["attempted"], verdict["failed"], verdict["deep_failed"],
             verdict["deep_ops"], verdict["wrong"]))
    print(json.dumps({
        "correct": verdict["wrong"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
