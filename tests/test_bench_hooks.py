"""The benchmark's layer hooks name attributes that exist.

``bench/tracing.py`` wraps the names in its ``HOOKS`` table; a name that a
refactor removed would only show up as ``trace.hooks_missing`` in a traced
benchmark run, so this test resolves every entry.  The benchmark file is
loaded, not changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves(monkeypatch):
    hooks = load_tracing(monkeypatch).HOOKS
    assert hooks
    for module_name, attr_path, _ in hooks:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            assert hasattr(owner, part), f"{module_name}.{attr_path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attr_path} is not callable"
