"""What the benchmark relies on: every radlearn name its workloads and child
reach exists, every function and method it wraps in a span exists, and
``extract_all`` reaches each texture builder through the names it wraps, so the
per-family spans measure real work."""

import ast
import importlib
import importlib.util
import os

from radlearn.features import extract as extract_mod
from radlearn.volume import PhantomSpec, generate_phantom

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILDERS = ("glcm", "glrlm", "glszm", "ngtdm", "gldm")


def _bench_child():
    spec = importlib.util.spec_from_file_location(
        "bench_child", os.path.join(ROOT, "bench", "child.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _radlearn_references(path):
    """(module, attribute) for every radlearn name a file reaches: the names it
    imports from a radlearn module and the attributes it takes of a radlearn
    module it imports, each import read within its top-level statement."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    refs = set()
    for scope in tree.body:
        aliases = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "radlearn":
                refs.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] != "radlearn":
                        continue
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:  # ``import radlearn.cli`` binds the package's name
                        aliases["radlearn"] = "radlearn"
        refs.update((aliases[node.value.id], node.attr) for node in ast.walk(scope)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases)
    return refs


def _resolves(modname, attr):
    return (hasattr(importlib.import_module(modname), attr)
            or importlib.util.find_spec(f"{modname}.{attr}") is not None)


def test_bench_calls_into_radlearn_resolve():
    refs = set()
    for name in ("workloads.py", "child.py"):
        refs |= _radlearn_references(os.path.join(ROOT, "bench", name))
    # names of each kind of reference, so a walk that finds nothing fails
    assert {("radlearn.nn", "save_trace"), ("radlearn.diagnostics", "save_report"),
            ("radlearn.volume", "roi_slice_index"), ("radlearn.forest", "forest_to_json"),
            ("radlearn.config", "load_config"), ("radlearn.cli", "main"),
            ("radlearn", "__file__")} <= refs
    missing = [f"{modname}.{attr}" for modname, attr in sorted(refs)
               if not _resolves(modname, attr)]
    assert not missing, f"bench reaches radlearn names that do not exist: {missing}"


def test_span_functions_resolve_to_callables():
    for modname, attr, _, _ in _bench_child().SPAN_FUNCTIONS:
        target = getattr(importlib.import_module(modname), attr, None)
        assert callable(target), f"{modname}.{attr} is not a callable"


def test_span_methods_resolve_to_callables():
    for modname, clsname, method, _ in _bench_child().SPAN_METHODS:
        cls = getattr(importlib.import_module(modname), clsname, None)
        target = getattr(cls, method, None)
        assert callable(target), f"{modname}.{clsname}.{method} is not a callable"


def test_extract_all_calls_each_texture_builder_once(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in BUILDERS:
        monkeypatch.setattr(extract_mod, name, counted(name, getattr(extract_mod, name)))
    volume, mask, _ = generate_phantom(PhantomSpec(n_samples_per_class=1, dims=(8, 8, 8)))[0]
    extract_mod.extract_all(volume, mask, n_bins=8)
    assert sorted(calls) == sorted(BUILDERS)
