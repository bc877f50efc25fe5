"""One benchmark session in a fresh process: set up, then run the timed
operations, and write what each returned.  It judges nothing.

    python perfbench/child.py CONFIG.json

CONFIG names the workload, the seed, the slice of the operation stream to
run (`start`, `count`), the session directory, the size cap of `verify`,
and `trace`: a path prefix for span files, or null for an untraced session.
The result records `ready`, the CLOCK_MONOTONIC time at which set-up ended,
and `chunks`: the operations in runs of PROBE_EVERY, each as [number of
operations, probe times], where the probe times (speed.py) are those taken
just before the chunk, during it, and just after it.  Only the long `props`
call of verify is probed during itself, from a timer signal every
PROBE_PERIOD seconds; the probes' time is taken out of the call's.  A
traced session probes five times less often, because its spans cannot
leave the probes out: they add under 1% to the spans of verify.
"""

import io
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import time

import plan
import speed

# operations between speed probes: about 0.3 s of work on query and spawn
PROBE_EVERY = {"verify": 1, "query": 200, "spawn": 4}
PROBE_PERIOD = 0.2
HERE = os.path.dirname(os.path.abspath(__file__))
LAYERTRACE = os.path.join(HERE, "layertrace.py")


def cli_command(cfg, argv, tag):
    """Command line of one `piord` process, traced when the session is."""
    if cfg["trace"]:
        return [sys.executable, LAYERTRACE,
                "%s-%s" % (cfg["trace"], tag)] + argv
    return [sys.executable, "-m", "piord.cli"] + argv


def load_main(cfg):
    """piord.cli.main, wrapped by a tracer in a traced session."""
    tracer = None
    if cfg["trace"]:
        import layertrace
        tracer = layertrace.Tracer(layertrace.load_layers())
        tracer.install()
    import piord.cli
    return piord.cli.main, tracer


def call(main, argv, probes=None, period=PROBE_PERIOD):
    """Run main in-process; an exception is a failed operation, not fatal.
    With a list `probes`, run a speed probe every `period` seconds during
    the call, append its time, and leave its time out of the call's."""
    out, err = io.StringIO(), io.StringIO()
    spent = [0.0]

    def on_timer(_signum, _frame):
        t0 = time.perf_counter()
        probes.append(speed.probe())
        spent[0] += time.perf_counter() - t0

    if probes is not None:
        signal.signal(signal.SIGALRM, on_timer)
        signal.setitimer(signal.ITIMER_REAL, period, period)
    t0 = time.perf_counter()
    try:
        rc, error = main(argv, out, err), None
    except Exception as exc:  # the checker counts it as a failure
        rc, error = None, type(exc).__name__
    dt = time.perf_counter() - t0
    if probes is not None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    return [dt - spent[0], rc, out.getvalue(), error or err.getvalue()[-200:]]


def spawn(cmd, err_path):
    """Run one process: its wall time, exit code, output and peak RSS."""
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        tail = err.read().decode(errors="replace").strip().splitlines()[-1:]
    return [dt, proc.returncode, out.decode(errors="replace"),
            "".join(tail), usage.ru_maxrss]


def session_ops(cfg):
    """Write the census in a separate process, then slice the op stream."""
    path = os.path.join(cfg["dir"], "census.txt")
    cmd = cli_command(cfg, ["enumerate", "--size-cap", str(plan.CENSUS_CAP),
                            "--out", path], "census")
    subprocess.run(cmd, check=True)
    census = plan.read_census(path)
    ops = plan.operations(cfg["seed"], census)
    stop = cfg["start"] + cfg["count"]
    return list(itertools.islice(ops, cfg["start"], stop))


def run(cfg):
    workload = cfg["workload"]
    tracer = None
    if workload == "verify":
        main, tracer = load_main(cfg)
        argvs = [["--big-n", "4", "--format", "json-lines", "props",
                  "--size-cap", str(cfg["verify_cap"]),
                  "--triples", "100000", "--seed", str(cfg["seed"])]]
    else:
        ops = session_ops(cfg)
        if workload == "query":
            main, tracer = load_main(cfg)
        argvs = [op["argv"] for op in ops]
    ready = time.monotonic()
    every = PROBE_EVERY[workload]
    inner = workload == "verify"
    period = PROBE_PERIOD * (5 if cfg["trace"] else 1)
    results, chunks, last = [], [], speed.probe()
    for start in range(0, len(argvs), every):
        part, probes = argvs[start:start + every], [last]
        for i, argv in enumerate(part, start):
            if workload == "spawn":
                results.append(spawn(cli_command(cfg, argv, "spawn%d" % i),
                                     os.path.join(cfg["dir"], "stderr.txt")))
            else:
                results.append(call(main, argv, probes if inner else None,
                                    period))
        last = speed.probe()
        chunks.append([len(part), probes + [last]])
    if tracer:
        tracer.write(cfg["trace"] + "-session")
    return {"ready": ready, "ops": results, "chunks": chunks,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        config = json.load(fh)
    result = run(config)
    with open(os.path.join(config["dir"], "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)
