"""Long-lived grid_scan process: set up once, then certify grid points in whole rounds.

Usage: python3 grid_worker.py CONFIG_JSON

CONFIG_JSON holds ``points`` (a list of [|alpha|, nbar]), ``seconds`` and
``setup_only``.  The worker imports ptmoments, certifies a warm-up state and
prints one line ``{"ready": ...}``.  Unless ``setup_only`` is set it then
repeats whole rounds over the points until ``seconds`` have passed and prints
one JSON line with every operation's time and output.
"""

from __future__ import annotations

import json
import sys
import time

WARMUP = (0.3, 0.0)


def run_point(ptm, alpha: float, nbar: float) -> dict:
    """One grid operation: certify_full plus the seven four-mode pair minors."""
    provider = ptm.WStateMoments(ptm.WStateParams.symmetric(4, alpha, nbar))
    report = ptm.certify_full(provider)
    group1, group2 = ptm.four_mode_pair_groups()
    minors = [
        dict(ptm.named_minor(provider, transposed, pairs).as_dict(), name=name,
             pairs=[list(p) for p in pairs])
        for name, transposed, pairs in group1 + group2
    ]
    return {"alpha": alpha, "nbar": nbar, "report": report.as_dict(), "minors": minors}


def main() -> int:
    config = json.loads(sys.argv[1])
    import ptmoments as ptm

    warmup = run_point(ptm, *WARMUP)
    print(json.dumps({"ready": True, "warmup": warmup}), flush=True)
    if config["setup_only"]:
        return 0
    points = [tuple(p) for p in config["points"]]
    ops = []
    start = time.perf_counter()
    while True:
        for alpha, nbar in points:
            t0 = time.perf_counter()
            try:
                out = run_point(ptm, alpha, nbar)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = {"alpha": alpha, "nbar": nbar, "error": repr(exc)}
            out["seconds"] = time.perf_counter() - t0
            ops.append(out)
        elapsed = time.perf_counter() - start
        if elapsed >= config["seconds"]:
            break
    print(json.dumps({"elapsed": elapsed, "ops": ops}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
