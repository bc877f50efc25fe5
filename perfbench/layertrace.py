"""Layer tracing for the benchmark's traced runs, from outside the program.

No source file of piord is edited. Each function named in `layers.json` is
wrapped under its name in every other piord module that binds it at module
level (for instance `piord.oracle.cmp_ord`), so a call that crosses a module
boundary records a span while recursion inside a module stays untraced.
Spans (name, parent, start, end, time in child spans) and per-name call
counts are kept in memory as flat arrays and written out at the end:

    PREFIX.spans   one JSON header line, then the raw arrays in header order
    PREFIX.json    the per-group summary that run.py turns into metrics

Run as a script, this executes one traced CLI call in a fresh process:

    python perfbench/layertrace.py PREFIX ARG...
"""

import array
import functools
import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = os.path.join(HERE, "layers.json")

# Group whose calls count toward validate.ok_ratio, and group whose memory
# growth is reported as oracle.axioms.rss_mb.
ENUMERATE = "oracle.enumerate"
AXIOMS = "oracle.axioms"
CHECK_OT = "piord.validate.check_ot"

SPAN_FIELDS = (("name", "H"), ("parent", "i"), ("start", "q"), ("end", "q"),
               ("child", "q"))
SPAN_BYTES = sum(array.array(code).itemsize for _, code in SPAN_FIELDS)


class MissingBinding(Exception):
    """A layer function or call site named in layers.json no longer exists."""


def load_layers(path=LAYERS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _resolve(qualname):
    module, _, attr = qualname.rpartition(".")
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError) as exc:
        raise MissingBinding("layer function %s: %s" % (qualname, exc))


def _rss_bytes():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """Wraps the layer functions of the imported piord modules and records
    one span per wrapped call."""

    def __init__(self, layers):
        self.layers = layers
        self.bindings = []          # name id -> "module.attr" of the call site
        self.calls = []             # name id -> calls
        self.name_group = []        # name id -> group id
        self.groups = [g for layer in layers["layers"].values() for g in layer]
        self.group_ns = [0] * len(self.groups)       # outermost span time
        self.group_self_ns = [0] * len(self.groups)  # minus child spans
        self.active = [0] * len(self.groups)         # open spans
        self.spans = {f: array.array(code) for f, code in SPAN_FIELDS}
        self.stack = [-1]
        self.enum_checks = [0, 0]   # check_ot calls under enumeration, ok
        self.axioms_rss_mb = None
        self.clock_origin = time.perf_counter_ns()

    # -- installing -----------------------------------------------------

    def install(self):
        """Wrap every call site; raise MissingBinding if one has gone."""
        import piord.cli  # noqa: F401  (loads every piord module)
        found = set()
        for layer in self.layers["layers"].values():
            fns = {q: _resolve(q) for funcs in layer.values() for q in funcs}
            owners = {q.rpartition(".")[0] for q in fns}
            owners |= {fn.__module__ for fn in fns.values()}
            for group, funcs in layer.items():
                gid = self.groups.index(group)
                for qualname in funcs:
                    for site in self._call_sites(fns[qualname], owners,
                                                 qualname):
                        self._patch(site, fns[qualname], gid, qualname)
                        found.add(site)
        missing = [s for s in self.layers["call_sites"] if s not in found]
        if missing:
            raise MissingBinding("call sites gone: " + ", ".join(missing))
        return sorted(found)

    def _call_sites(self, fn, owners, qualname):
        if qualname in self.layers["entry"]:
            return [qualname]
        sites = []
        for modname, mod in sorted(sys.modules.items()):
            if not modname.startswith("piord.") or modname in owners:
                continue
            for attr, value in sorted(vars(mod).items()):
                if value is fn:
                    sites.append("%s.%s" % (modname, attr))
        return sites

    def _patch(self, site, fn, gid, qualname):
        module, _, attr = site.rpartition(".")
        nid = len(self.bindings)
        self.bindings.append(site)
        self.calls.append(0)
        self.name_group.append(gid)
        if qualname == CHECK_OT:
            hook = self._check_hook()
        elif self.groups[gid] == AXIOMS:
            hook = self._rss_hook()
        else:
            hook = None
        setattr(sys.modules[module], attr, self._wrap(fn, nid, gid, hook))

    def _check_hook(self):
        enum_gid = self.groups.index(ENUMERATE)
        active, counts = self.active, self.enum_checks

        def after(result, _state):
            if active[enum_gid]:
                counts[0] += 1
                counts[1] += bool(result.ok)
        return None, after

    def _rss_hook(self):
        start = self.spans["start"]

        def before():
            return _rss_bytes(), len(start)

        def after(_result, state):
            rss0, n0 = state
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            buffers = (len(start) - n0) * SPAN_BYTES
            self.axioms_rss_mb = max(0, peak - rss0 - buffers) / 2 ** 20
        return before, after

    def _wrap(self, fn, nid, gid, hook):
        s = self.spans
        name, parent, start, end, child = (s[f] for f, _ in SPAN_FIELDS)
        stack, active, calls = self.stack, self.active, self.calls
        group_ns, group_self_ns = self.group_ns, self.group_self_ns
        clock = time.perf_counter_ns
        before, after = hook or (None, None)

        def traced(*args, **kwargs):
            i = len(start)
            p = stack[-1]
            name.append(nid)
            parent.append(p)
            start.append(0)
            end.append(0)
            child.append(0)
            stack.append(i)
            active[gid] += 1
            calls[nid] += 1
            state = before() if before else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[gid] -= 1
                dt = t1 - t0
                start[i] = t0
                end[i] = t1
                if p >= 0:
                    child[p] += dt
                if not active[gid]:
                    group_ns[gid] += dt
                group_self_ns[gid] += dt - child[i]
            if after:
                after(result, state)
            return result

        return functools.wraps(fn)(traced)

    # -- output ---------------------------------------------------------

    def summary(self):
        group_calls = dict.fromkeys(self.groups, 0)
        for gid, n in zip(self.name_group, self.calls):
            group_calls[self.groups[gid]] += n
        return {
            "calls": dict(zip(self.bindings, self.calls)),
            "group_calls": group_calls,
            "group_ns": dict(zip(self.groups, self.group_ns)),
            "group_self_ns": dict(zip(self.groups, self.group_self_ns)),
            "enum_checks": list(self.enum_checks),
            "axioms_rss_mb": self.axioms_rss_mb,
            "spans": len(self.spans["start"]),
        }

    def write(self, prefix):
        header = {"names": self.bindings, "origin_ns": self.clock_origin,
                  "count": len(self.spans["start"]),
                  "fields": [[f, code] for f, code in SPAN_FIELDS],
                  "byteorder": sys.byteorder}
        with open(prefix + ".spans", "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f, _ in SPAN_FIELDS:
                self.spans[f].tofile(fh)
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def read_spans(path):
    """Load a .spans file as (names, [(name, parent, start, end, child)])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = []
        for _f, code in header["fields"]:
            a = array.array(code)
            a.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                a.byteswap()
            cols.append(a)
    return header["names"], list(zip(*cols))


def traced_cli(prefix, argv):
    """One traced `piord` CLI call; spans are written even if it raises."""
    tracer = Tracer(load_layers())
    tracer.install()
    import piord.cli
    try:
        return piord.cli.main(argv)
    finally:
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(traced_cli(sys.argv[1], sys.argv[2:]))
