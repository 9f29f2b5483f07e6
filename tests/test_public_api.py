"""The exported names: a sorted, resolvable ``__all__`` that covers the benchmark.

The benchmark's tracer times layers by rebinding names that ``ptmoments``
exports and reports a missing export as an absent layer, not as an error.
These tests turn dropping such a name into a failure.
"""

import ast
import re
from pathlib import Path

import ptmoments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def tracer_layers():
    """The ``LAYERS`` dict literal of ``perfbench/tracer.py``, read without importing it."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if any(getattr(t, "id", None) == "LAYERS" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_all_is_sorted_unique_and_resolves():
    names = ptmoments.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(ptmoments, name), name


def test_all_holds_only_names_the_submodules_define():
    for name in ptmoments.__all__:
        assert getattr(ptmoments, name).__module__.startswith("ptmoments."), name


def test_every_traced_layer_is_exported():
    layers = tracer_layers()
    assert layers
    missing = sorted(set(layers.values()) - set(ptmoments.__all__))
    assert not missing


def test_every_name_the_benchmark_calls_is_exported():
    called = set()
    for path in PERFBENCH.glob("*.py"):
        called |= set(re.findall(r"\bptm\.([A-Za-z_]\w*)", path.read_text()))
    assert called
    assert not sorted(called - set(ptmoments.__all__))
