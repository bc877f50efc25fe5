"""The layer map of the benchmark's traced run still matches the code.

Every function and call site named in `perfbench/layers.json` must exist,
and each call site must be bound to one of the layer functions, so that a
rename fails here rather than only in a traced benchmark run.  Every name a
piord module exports in `__all__` must exist as well, and every name it
imports must be used.
"""

import ast
import importlib
import json
import pkgutil
from pathlib import Path

import piord

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
