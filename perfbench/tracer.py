"""Traced run of one unit of a workload, in a fresh process.

Usage: python3 tracer.py UNIT_JSON OUT_PATH

A unit is one of:

* ``probe``: times each layer on its own through the exported functions, in
  this order: unranking and ranking every key of weight <= 2*order (first in
  the process), entry compilation over every entry of every cut (cold, then
  again warm), moments on a fresh provider, the table write and read paths,
  warm ``build_matrix`` per cut and ``eigh`` of each scan matrix; it ends with
  one traced in-process ``ptmoments scan --strategy named-minors`` call;
* ``build_cold``: ``build_matrix`` per cut as the first work of the process;
* ``cli``: one traced in-process ``ptmoments.cli.main(argv)`` call;
* ``grid``: the grid_scan set-up, one untraced round and one traced round.

Spans (name, start, end, parent) are recorded by this file around calls to
names that ``ptmoments`` exports; nothing inside the package is changed
except that those names are rebound to timing wrappers.  A name the package
no longer exports is reported absent with the reason, and its layer is left
out.  The unit writes its spans, counts and outputs to OUT_PATH as JSON.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import statistics
import sys
import time

# span name -> name exported by ptmoments
LAYERS = {
    "certify.certify_full": "certify_full",
    "certify.test_bipartition": "test_bipartition",
    "certify.sweep": "sweep",
    "matrix.eigen_negativity_scan": "eigen_negativity_scan",
    "matrix.build_matrix": "build_matrix",
    "matrix.principal_minor": "principal_minor",
    "matrix.named_minor": "named_minor",
    "transpositions.all_decompositions": "all_decompositions",
    "transpositions.bipartitions_coarsening": "bipartitions_coarsening",
    "moments.load_moment_table": "load_moment_table",
    "moments.table_from_provider": "table_from_provider",
    "moments.moment_table_to_json": "moment_table_to_json",
}


class Tracer:
    """Spans and counts kept in memory and written out when the unit ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.absent: dict[str, str] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return traced

    def have(self, ptm, layer: str, *exports) -> bool:
        """True when ptmoments exports every name; else record the layer absent."""
        missing = [name for name in exports if not hasattr(ptm, name)]
        if missing:
            self.absent[layer] = f"ptmoments no longer exports {', '.join(missing)}"
        return not missing


def install(tracer: Tracer) -> None:
    """Rebind each traced export, wherever a ptmoments module holds it, to a wrapper."""
    import numpy
    import ptmoments
    import ptmoments.cli

    modules = [m for name, m in sys.modules.items()
               if name == "ptmoments" or name.startswith("ptmoments.")]

    def rebind(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    hooks = {"eigen_negativity_scan": _scan_hook(tracer, ptmoments),
             "all_decompositions": lambda result, a, k: tracer.count(
                 "transpositions.decompositions", len(result))}
    for layer, export in LAYERS.items():
        if tracer.have(ptmoments, layer, export):
            original = getattr(ptmoments, export)
            rebind(original, tracer.wrap(layer, original, hooks.get(export)))
    if hasattr(ptmoments.cli, "main"):
        rebind(ptmoments.cli.main, tracer.wrap("cli.main", ptmoments.cli.main))
    else:
        tracer.absent["cli.main"] = "ptmoments.cli no longer defines main"
    numpy.linalg.eigh = tracer.wrap("matrix.eigh", numpy.linalg.eigh)


def _scan_hook(tracer, ptm):
    """Count scans below -tol (witness attempts) and those that returned a witness."""
    if not hasattr(ptm, "eigen_negativity_scan"):
        return None
    signature = inspect.signature(ptm.eigen_negativity_scan)

    def hook(result, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if result.min_eigenvalue < -bound.arguments.get("tol", 0.0):
            tracer.count("matrix.witness_attempts")
            if result.witness is not None:
                tracer.count("matrix.witnesses_found")
    return hook


def make_provider(ptm, state: dict):
    return ptm.WStateMoments(ptm.WStateParams(
        tuple(state["alphas"]), tuple(state["nbars"])))


def probe(tracer: Tracer, unit: dict) -> dict:
    import numpy as np
    import ptmoments as ptm
    import ptmoments.cli

    n, order = unit["modes"], unit["order"]
    keys = ptm.count_up_to_weight(2 * n, 2 * order)
    size = ptm.count_up_to_weight(2 * n, order)
    cuts = ptm.canonical_bipartitions(n)
    errors = []
    monomials = None
    if tracer.have(ptm, "multiindex", "monomial_at", "position_of"):
        tracer.count("multiindex.keys", keys)
        with tracer.span("multiindex.unrank"):
            monomials = [ptm.monomial_at(n, p) for p in range(1, keys + 1)]
        with tracer.span("multiindex.rank"):
            positions = [ptm.position_of(m) for m in monomials]
        if positions != list(range(1, keys + 1)):
            errors.append("position_of does not invert monomial_at")
    if monomials is not None and tracer.have(ptm, "operator_algebra", "entry_expression_pt"):
        scan = monomials[:size]
        for phase in ("operator_algebra.compile_cold", "operator_algebra.compile_warm"):
            with tracer.span(phase):
                for cut in cuts:
                    for row in scan:
                        for col in scan:
                            ptm.entry_expression_pt(row, col, cut)
        tracer.count("operator_algebra.entries", len(cuts) * size * size)
    provider = make_provider(ptm, unit["state"])
    if monomials is not None:
        with tracer.span("moments.provider"):
            for m in monomials:
                provider.moment(m)
        tracer.count("moments.moments", keys)
    text = None
    if tracer.have(ptm, "moments.tabulate", "table_from_provider", "moment_table_to_json"):
        with tracer.span("moments.tabulate"):
            text = ptm.moment_table_to_json(
                ptm.table_from_provider(make_provider(ptm, unit["state"]), 2 * order))
        if tracer.have(ptm, "moments.load_table", "load_moment_table"):
            with tracer.span("moments.load_table"):
                ptm.load_moment_table(text)
    selection = ptm.Selection.up_to_weight(n, order)
    with tracer.span("matrix.build_warm"):
        matrices = [ptm.build_matrix(provider, cut, selection) for cut in cuts]
    with tracer.span("matrix.eigh"):
        for matrix in matrices:
            np.linalg.eigh(matrix.values)
    if text is not None:
        with open(unit["table_path"], "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        install(tracer)
        with contextlib.redirect_stdout(io.StringIO()):
            ptmoments.cli.main(["scan", "--moments", unit["table_path"],
                                "--strategy", "named-minors"])
    return {"errors": errors}


def build_cold(tracer: Tracer, unit: dict) -> dict:
    import ptmoments as ptm

    provider = make_provider(ptm, unit["state"])
    selection = ptm.Selection.up_to_weight(unit["modes"], unit["order"])
    with tracer.span("matrix.build_cold"):
        for cut in ptm.canonical_bipartitions(unit["modes"]):
            ptm.build_matrix(provider, cut, selection)
    return {}


def cli(tracer: Tracer, unit: dict) -> dict:
    import ptmoments.cli

    install(tracer)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = ptmoments.cli.main(unit["argv"])
    return {"rc": rc, "stdout": buffer.getvalue()}


def grid(tracer: Tracer, unit: dict) -> dict:
    import ptmoments as ptm
    from grid_worker import WARMUP, run_point

    run_point(ptm, *WARMUP)
    untraced = []
    for alpha, nbar in unit["points"]:
        t0 = time.perf_counter()
        run_point(ptm, alpha, nbar)
        untraced.append(time.perf_counter() - t0)
    install(tracer)
    outputs = []
    for alpha, nbar in unit["points"]:
        with tracer.span("op"):
            outputs.append(run_point(ptm, alpha, nbar))
    return {"outputs": outputs, "untraced": untraced}


KINDS = {"probe": probe, "build_cold": build_cold, "cli": cli, "grid": grid}


def main() -> int:
    unit = json.loads(sys.argv[1])
    tracer = Tracer()
    result = KINDS[unit["kind"]](tracer, unit)
    result.update(kind=unit["kind"], spans=tracer.spans, counts=tracer.counts,
                  absent=tracer.absent)
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# --- summary, used by run.py -------------------------------------------------


# span name -> per-layer metric summing the durations of those spans
SUMMED = {
    "multiindex.unrank": "multiindex.unrank_s",
    "multiindex.rank": "multiindex.rank_s",
    "operator_algebra.compile_cold": "operator_algebra.compile_cold_s",
    "operator_algebra.compile_warm": "operator_algebra.compile_warm_s",
    "moments.provider": "moments.provider_s",
    "moments.tabulate": "moments.tabulate_s",
    "moments.load_table": "moments.load_table_s",
    "matrix.build_cold": "matrix.build_cold_s",
    "matrix.build_warm": "matrix.build_warm_s",
    "matrix.eigh": "matrix.eigh_s",
    "matrix.named_minor": "matrix.named_minor_s",
    "transpositions.all_decompositions": "transpositions.exclusion_s",
    "transpositions.bipartitions_coarsening": "transpositions.exclusion_s",
}
# span name -> per-layer metric summing the self time of those spans
SELF = {"certify.certify_full": "certify.self_s", "cli.main": "cli.main_s"}
COUNTED = ("multiindex.keys", "operator_algebra.entries", "moments.moments",
           "matrix.named_minors", "transpositions.decompositions")


def summarize(units: list, startup: list, untraced_seconds: float) -> dict:
    """Per-layer metrics from the unit results of one traced run.

    ``units`` are (spec, result) pairs; ``startup`` the fresh-import times of
    ``ptmoments.cli``; ``untraced_seconds`` the summed untraced time of the
    replayed operations, for the coverage ratio.
    """
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    covered = 0.0
    startup_s = statistics.median(startup)

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for spec, result in units:
        for name, n in result["counts"].items():
            add(counts, name, n)
        spans = result["spans"]
        kids = [[] for _ in spans]
        for index, span in enumerate(spans):
            if span[3] >= 0:
                kids[span[3]].append(index)
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            children = [(spans[c][0], spans[c][2] - spans[c][1]) for c in kids[index]]
            # eigh spans inside a scan belong to the scan; the probe's stand alone
            if name in SUMMED and not (name == "matrix.eigh" and parent >= 0):
                add(seconds, SUMMED[name], duration)
            elif name in SELF:
                add(seconds, SELF[name], duration - sum(d for _, d in children))
            elif name == "matrix.eigen_negativity_scan":
                add(seconds, "matrix.witness_s", duration - sum(
                    d for n, d in children if n in ("matrix.build_matrix", "matrix.eigh")))
            if name == "matrix.named_minor":
                add(counts, "matrix.named_minors", 1)
            if spec.get("replay") and (parent < 0 and name != "op"
                                       or parent >= 0 and spans[parent][0] == "op"):
                covered += duration
        if spec.get("replay") and spec["kind"] == "cli":
            covered += startup_s

    metrics = {name: (value, "s") for name, value in seconds.items()}
    metrics.update({name: (counts[name], "count") for name in COUNTED if name in counts})
    if "matrix.witness_s" in seconds:
        attempts = counts.get("matrix.witness_attempts", 0)
        found = counts.get("matrix.witnesses_found", 0)
        metrics["matrix.witness_attempts"] = (attempts, "count")
        metrics["matrix.witnesses_found"] = (found, "count")
        # with no attempt there is no wasted search
        metrics["matrix.witness_yield"] = (found / attempts if attempts else 1.0, "ratio")
    metrics["cli.startup_s"] = (startup_s, "s")
    metrics["trace.coverage"] = (covered / untraced_seconds, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
