"""Speed probe of the host, to express measured times at a fixed speed.

The benchmark runs on a few cores of a shared host whose speed drifts: this
probe switches between about 2.2 and 3.9 ms within seconds, CPU time
tracking wall time, and the same workload runs up to 1.8 times slower from
one minute to the next.  Sessions therefore run this probe around and
between their timed operations, and run.py scales each measured time by
REF_S over the mean probe time around it.  The probe uses no piord code and
runs with the garbage collector off, so its time does not depend on the
program's heap; a slower program reads slower after scaling, while a slower
host does not.

    python3 perfbench/speed.py    # prints ten probe times, in ms
"""

import gc
import statistics
import time

# about the probe time on a 2-vCPU shared host with Python 3.11.7 in its
# faster state; it sets only the scale of the reported times
REF_S = 0.0025
REPS = 3


def _fib(n):
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def _tree(n):
    return ("w",) if n == 0 else (_tree(n - 1), str(n), _tree(n // 2))


def _size(t, memo):
    if isinstance(t, str):
        return len(t)
    size = memo.get(t)
    if size is None:
        size = memo[t] = sum(_size(x, memo) for x in t) + 1
    return size


def _work():
    """Calls, tuples, dict look-ups and strings: the interpreter's usual mix."""
    total = _fib(18)
    for i in range(40):
        total += _size(_tree(12), {}) + len("%s-%d" % ("x" * (i % 7), i))
    return total


def probe():
    """Median wall time of REPS runs of the fixed work, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


if __name__ == "__main__":
    for _ in range(10):
        print("%.4f" % (probe() * 1e3))
