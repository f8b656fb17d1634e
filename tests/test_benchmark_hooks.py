"""The benchmark's tracer wraps program functions by name. Installing it once
resolves every name it lists, so a deleted or renamed function fails here and
not only in a traced benchmark run."""
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).parents[1] / "benchmarks" / "tracing.py"


def load_tracing(monkeypatch):
    """benchmarks/tracing.py as a fresh module, loaded by path without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_restored(monkeypatch):
    tracing = load_tracing(monkeypatch)
    before = {(m, n): getattr(m, n) for m, names in tracing.TRACED.items() for n in names}
    with tracing.Tracer().installed():
        assert all(getattr(m, n) is not fn for (m, n), fn in before.items())
    assert all(getattr(m, n) is fn for (m, n), fn in before.items())
