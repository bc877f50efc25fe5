"""The layer map of the benchmark's traced run still matches the code.

Every function and call site named in `perfbench/layers.json` must exist,
and each call site must be bound to one of the layer functions, so that a
rename fails here rather than only in a traced benchmark run.  Every name a
piord module exports in `__all__` must exist as well, and every name it
imports must be used.  Every module-level function is entered by some
command, and every error class is named by code.  The tests' reference
order imports nothing from piord but piord.terms.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import piord
from piord import errors

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.json"


def _resolve(qualname):
    module, _, attr = qualname.rpartition(".")
    return getattr(importlib.import_module(module), attr)


def _layer_functions():
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))
    names = [q for layer in layers["layers"].values()
             for funcs in layer.values() for q in funcs]
    return layers, names


def test_every_layer_function_resolves():
    _, names = _layer_functions()
    for qualname in names:
        assert callable(_resolve(qualname)), qualname


def test_every_call_site_is_bound_to_a_layer_function():
    layers, names = _layer_functions()
    functions = {id(_resolve(q)) for q in names}
    for site in layers["call_sites"]:
        assert id(_resolve(site)) in functions, site


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(piord.__path__):
        module = importlib.import_module("piord." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), "piord.%s.%s" % (info.name, name)


def _unused_imports():
    """The qualified names of the module-level imports of each piord module
    that the module neither uses nor re-exports in its __all__; the package
    __init__ is the public surface and imports names only to export them."""
    for info in pkgutil.iter_modules(piord.__path__):
        qualname = "piord." + info.name
        module = importlib.import_module(qualname)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        kept = used | set(getattr(module, "__all__", ()))
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in kept:
                    yield "%s.%s" % (qualname, name)


def test_every_imported_name_is_used():
    # an import that its module does not use is bound as a call site of
    # the layer map
    layers, _ = _layer_functions()
    sites = set(layers["call_sites"])
    for name in _unused_imports():
        assert name in sites, "%s is imported and never used" % name


def test_map_only_bindings_are_listed():
    # the imports kept only so that the layer map finds its call sites; a
    # new one must be added here, and one the code uses again removed
    assert set(_unused_imports()) == {
        "piord.arith.mk_sum",
        "piord.validate.k_delta",
        "piord.validate.k_delta_exp",
    }


def _function_level_imports():
    """'function imports name' for each import of a piord module (the
    package imports its own modules relatively) inside a function body."""
    for info in pkgutil.iter_modules(piord.__path__):
        qualname = "piord." + info.name
        module = importlib.import_module(qualname)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level:
                    for alias in node.names:
                        yield "%s.%s imports piord.%s.%s" % (
                            qualname, fn.name, node.module, alias.name)


def test_function_level_imports():
    # an import inside a function hides a dependency from the module's
    # header and runs on every call; the one kept here closes a cycle:
    # the comparator and the vector order are mutually recursive
    assert set(_function_level_imports()) == {
        "piord.order._psi_lt_by imports piord.cnf.lx_lt",
    }


def test_every_error_class_is_used():
    # an error class is used when code names it beyond its import: to
    # raise it, catch it, subclass it, or hand it to a function that
    # raises it (as the term parser's error method takes ArityError); one
    # that nothing names is dead code that callers may still catch
    used = set()
    for info in pkgutil.iter_modules(piord.__path__):
        module = importlib.import_module("piord." + info.name)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        used |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)}
    classes = [name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.PiordError)]
    assert len(classes) > 1
    assert [name for name in classes if name not in used] == []


# The module-level functions of piord that no command enters, each with the
# reason it stays.  Any other function that no command enters is dead code:
# give it a caller or delete it.
UNREACHED = {
    "piord.order.k_delta_exp":
        "named by the benchmark's layer map, perfbench/layers.json "
        "(ROADMAP item 4)",
    "piord.order.memo": "runs at import, when each memo table is made",
    "piord.order.clear_caches": "a public hook for library callers and tests",
    "piord.cli.console_main":
        "the console-script and `python -m piord.cli` entry around main",
}

# Every command in both formats, at caps small enough for a test: props at
# N=3, 4 and 5 and at a higher rank, enumerate with and without --below
# and once at its default cap, check on a valid and an invalid term.
_ARGVS = [["--help"]] + [["--format", fmt] + argv for fmt in (
    "text", "json-lines") for argv in (
    ["--big-n", "3", "props", "--size-cap", "6"],
    ["--big-n", "4", "props", "--size-cap", "6"],
    ["--big-n", "5", "props", "--size-cap", "5"],
    ["--big-n", "8", "props", "--size-cap", "3"],
    ["--big-n", "5", "enumerate"],
    ["enumerate", "--size-cap", "5", "--below", "psi(K; 0)"],
    ["check", "psi(K; [0,1]; 1)"],
    ["check", "phi(K,0)"],
    ["cmp", "psi(K; 0)", "Om(1)"],
    ["kset", "0", "psi(K; [0,K]; K)"],
    ["mvec", "psi(K; [0,1]; 1)"],
    ["mvec", "K"],
    ["sd", "[L^(2)*(1),1]"],
    ["sd", "[1,0]"],
    ["descend", "psi(K; K)", "--size-cap", "5", "--steps", "20"],
    ["bound", "--n", "2"],
)]

# Run in a fresh process, so that no memo or intern table filled by an
# earlier test answers a call before its function is entered.
_TRACE = """
import importlib, inspect, io, json, pkgutil, sys
import piord
from piord import cli
functions = {}
for info in pkgutil.iter_modules(piord.__path__):
    module = importlib.import_module("piord." + info.name)
    for name, obj in vars(module).items():
        fn = inspect.unwrap(obj)  # a memo table wraps its function
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            functions[fn.__code__] = module.__name__ + "." + name
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(profile)
codes = [cli.main(argv, io.StringIO(), io.StringIO())
         for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes, "unreached": sorted(
    name for code, name in functions.items() if code not in entered)}))
"""


def test_every_function_is_entered_by_a_command():
    out = subprocess.run(
        [sys.executable, "-c", _TRACE, json.dumps(_ARGVS)],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out)
    # exit 2 is a usage error or an error line: that argv covered less
    assert 2 not in result["codes"], list(zip(_ARGVS, result["codes"]))
    assert result["unreached"] == sorted(UNREACHED)


def test_reference_imports_only_terms_and_the_standard_library():
    # tests/reference.py decides the order on its own: it may share no
    # code with piord's order, cnf, oracle or validate
    path = Path(__file__).resolve().parent / "reference.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    assert {m for m in modules if m.partition(".")[0]
            not in sys.stdlib_module_names} == {"piord.terms"}
