"""Toy-size self-test of the benchmark: verify at cap 6, 50 queries and 3
spawns per session, each untraced and traced.

    python3 perfbench/selftest.py

Run it from the repository root.  It checks that every metric named in
BENCHMARK.json is printed with its unit, that the answers were judged
correct, that the traced query run's span file accounts for all time in
`main`, that the oracle spans cover the traced verify run, and that the
benchmark refuses to run where there are no piord sources.
"""

import json
import os
import shutil
import subprocess
import sys

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload, trace, expected):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected, (workload, trace, units)
    notes = json.loads(lines[0].split(": ", 1)[1])
    print("ok  %-6s trace=%d  %s" % (workload, trace, notes))
    return notes


def check_main_spans():
    """cli.self_s plus the direct children of main equals the time in main."""
    names, spans = layertrace.read_spans(
        os.path.join(ROOT, ".perfbench", "trace-query", "trace-session.spans"))
    main = names.index("piord.cli.main")
    mains = {i for i, s in enumerate(spans) if s[0] == main}
    total = sum(spans[i][3] - spans[i][2] for i in mains)
    own = sum(spans[i][3] - spans[i][2] - spans[i][4] for i in mains)
    children = sum(s[3] - s[2] for s in spans if s[1] in mains)
    assert abs(own + children - total) <= 0.01 * total, (own, children, total)
    print("ok  query main = self + children over %d calls" % len(mains))


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench("query", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  exits %d without printing a result where there are no"
          " sources" % proc.returncode)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            notes = check_result(workload, trace, expected)
            if trace and workload == "verify":
                assert notes["oracle_share_of_main"] >= 0.9, notes
    check_main_spans()
    check_refuses_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
