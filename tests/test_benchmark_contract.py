"""The traced benchmark run still reports every per-layer metric it declares.

``perfbench/tracer.py`` times layers from outside, by rebinding names the
package exports, and ``tracer.summarize`` silently leaves out a layer whose
spans never occur.  These tests run the three kinds of traced unit a CLI
workload uses (the layer probe, the cold build and one replayed ``certify``),
each in a fresh process as ``perfbench/run.py`` does, and check that their
summary holds exactly the per-layer metrics of ``BENCHMARK.json``, all
finite.  ``run.py`` prints its result as the last line of stdout, which it
shares with the fresh-import timing children, so importing must print
nothing.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TIMEOUT = 150
STATE = {"alphas": [0.3] * 4, "nbars": [0.0] * 4}
CERTIFY = ["certify", "--state", "wstate", "--alpha", "0.3", "--modes", "4"]


def python(*argv):
    """Run the interpreter on ``argv`` with the package on the path; returns the process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True,
                          timeout=TIMEOUT)


def timed(*argv) -> float:
    t0 = time.perf_counter()
    python(*argv)
    return time.perf_counter() - t0


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced_units(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    base = {"state": STATE, "modes": 4, "order": 2}
    specs = [dict(base, kind="probe", table_path=str(out / "probe-table.json")),
             dict(base, kind="build_cold"),
             {"kind": "cli", "name": "certify", "argv": CERTIFY, "replay": True}]
    units = []
    for i, spec in enumerate(specs):
        path = out / f"unit-{i}.json"
        python(str(PERFBENCH / "tracer.py"), json.dumps(spec), str(path))
        units.append((spec, json.loads(path.read_text())))
    return units


def test_units_trace_every_layer_without_errors(traced_units):
    for spec, result in traced_units:
        assert result["absent"] == {}, spec["kind"]
        assert result.get("errors", []) == [], spec["kind"]
    assert traced_units[-1][1]["rc"] == 0


def test_summary_holds_exactly_the_declared_layers(traced_units):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    startup = [timed("-c", "import ptmoments.cli")]
    untraced = timed("-m", "ptmoments.cli", *CERTIFY)
    metrics = load_tracer().summarize(traced_units, startup, untraced)
    assert sorted(metrics) == sorted(layer["name"] for layer in declared)
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_importing_prints_nothing():
    assert python("-c", "import ptmoments, ptmoments.cli").stdout == b""
