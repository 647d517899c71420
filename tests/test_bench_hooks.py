"""What the benchmark's tracing relies on: every function and method it wraps
in a span exists, and ``extract_all`` reaches each texture builder through the
names it wraps, so the per-family spans measure real work."""

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
