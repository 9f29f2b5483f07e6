"""From a table of measured moments to an entanglement verdict.

Real experiments do not hand over a quantum state; they hand over numbers —
a finite table of normally ordered moments with some stated tolerance.  This
demo plays both sides: it first tabulates the moments an experiment on a
two-mode squeezed vacuum would report, serializes them to JSON, then throws
the state away and works from the file alone.  The scan finds the negative
minor, the witness is rebuilt from the same table as an independent check,
and asking for more than the table contains fails loudly with the exact
list of missing entries rather than silently extrapolating.

Run:  python demos/06_measured_table_workflow.py
"""

import json
import tempfile
from pathlib import Path

from ptmoments import (
    SearchBudget,
    Selection,
    TmsvMoments,
    UnresolvedMomentsError,
    canonical_bipartitions,
    load_moment_table,
    moment_table_to_json,
    principal_minor,
    table_from_provider,
)
from ptmoments import test_bipartition as probe_bipartition


def main():
    with tempfile.TemporaryDirectory() as directory:
        run(Path(directory) / "measured.json")


def run(path):
    # --- the "experiment": tabulate moments up to fourth order -------------
    source = TmsvMoments(0.6)
    table = table_from_provider(source, 4)
    text = moment_table_to_json(table)
    path.write_text(text)
    doc = json.loads(text)
    print(f"Tabulated {len(doc['entries'])} moments for {doc['modes']} modes")
    print(f"  file: {path.name}")
    photon = next(e for e in doc["entries"] if e["k"] == [1, 0] and e["l"] == [1, 0])
    anomalous = next(e for e in doc["entries"] if e["k"] == [1, 1] and e["l"] == [0, 0])
    print(f"  photon number entry:    {photon}")
    print(f"  pair-correlation entry: {anomalous}")

    # --- the "analysis": everything below sees only the file ---------------
    measured = load_moment_table(path.read_text())
    budget = SearchBudget()
    print()
    print("Scanning each bipartition of the tabulated data:")
    for cut in canonical_bipartitions(measured.modes):
        outcome = probe_bipartition(measured, cut, budget)
        minor = outcome.minor
        print(f"  cut {str(cut):>6}: {outcome.verdict}"
              f"  witness positions {minor.selection.positions}"
              f"  det {minor.determinant:.6f}")

        rebuilt = principal_minor(measured, cut, minor.selection)
        print(f"           rebuilt from the table alone: det"
              f" {rebuilt.determinant:.6f} ({rebuilt.verdict})")

    # --- honesty about coverage --------------------------------------------
    print()
    print("A selection reaching beyond the tabulated order is refused:")
    try:
        principal_minor(measured, (1,), Selection.up_to_weight(2, 3))
    except UnresolvedMomentsError as exc:
        missing = ", ".join(str(k) for k in exc.missing[:5])
        print(f"  UnresolvedMomentsError: {len(exc.missing)} keys missing,"
              f" starting with {missing}, ...")

    print()
    print("The command line covers the same loop:")
    print(f"  ptmoments moments-gen --state tmsv --r 0.6 --order 4 --out {path.name}")
    print(f"  ptmoments scan --moments {path.name}")
    print(f"  ptmoments certify --moments {path.name}")


if __name__ == "__main__":
    main()
