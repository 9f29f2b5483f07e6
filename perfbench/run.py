"""ptmoments benchmark: three closed-loop workloads with independent output checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {cli_tables,grid_scan,large_cuts}
                             [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it measures the end-to-end metrics; with ``--trace 1`` it
makes the traced run of the same workload and reports per-layer metrics.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

import os

# Every process under test runs with one BLAS/OpenMP thread; set before numpy
# loads here and inherited by every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import oracle  # noqa: E402
import tracer  # noqa: E402
from oracle import CheckError, require  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PY = sys.executable
OP_TIMEOUT = 150
# Set-up samples taken before and again after the timed loop, so that their
# median sees the machine as the operations do.
SETUP_SAMPLES = 5
WORKLOADS = ("cli_tables", "grid_scan", "large_cuts")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Op:
    """One timed CLI operation: its name, wall time, exit code and stdout."""

    name: str
    seconds: float
    rc: int | None
    stdout: bytes


def run_cli(argv, timeout=OP_TIMEOUT):
    """Run one fresh ``ptmoments`` CLI process; returns (seconds, rc, stdout)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([PY, "-m", "ptmoments.cli", *argv], env=child_env(),
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, None, b""
    seconds = time.perf_counter() - t0
    if proc.returncode not in (0, 10, 11):
        sys.stderr.write(f"ptmoments {' '.join(argv)} exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-500:]}\n")
    return seconds, proc.returncode, proc.stdout


def fresh_import_seconds(module: str = "ptmoments") -> float:
    t0 = time.perf_counter()
    subprocess.run([PY, "-c", f"import {module}"], env=child_env(), check=True,
                   timeout=OP_TIMEOUT)
    return time.perf_counter() - t0


def children_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def closed_loop(ops, seconds):
    """Run whole rounds of ``ops`` (name, argv) until ``seconds`` have passed."""
    results = []
    start = time.perf_counter()
    while True:
        for name, argv in ops:
            results.append(Op(name, *run_cli(argv)))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return results, elapsed


# --- checks -------------------------------------------------------------------

# what a malformed output raises while it is being checked
CHECK_ERRORS = (CheckError, ValueError, KeyError, TypeError, IndexError)


def check_certify(report: dict, make_oracle, modes: int, where: str) -> None:
    """Every NPT witness rebuilds; the certificate and exclusions are consistent."""
    cuts = report["bipartitions"]
    require(report["modes"] == modes and len(cuts) == 2 ** (modes - 1) - 1,
            f"{where}: expected {2 ** (modes - 1) - 1} cuts of {modes} modes")
    order = report["budget"]["max_order"]
    orc = make_oracle(max(order, 2))
    npt = 0
    for cut in cuts:
        if cut["verdict"] == "NPT":
            require(cut["minor"]["I"] == cut["I"], f"{where}: witness on the wrong cut")
            oracle.check_witness(orc, cut["minor"], max(order, 2), where)
            npt += 1
    require(report["certificate"] == (npt == len(cuts)), f"{where}: certificate inconsistent")
    if report["certificate"]:
        require(len(report["excluded_decompositions"]) == oracle.bell_number(modes) - 1,
                f"{where}: a certificate must exclude every decomposition")


def check_scan(report: dict, make_oracle, where: str) -> None:
    order = report["budget"]["max_order"]
    orc = make_oracle(max(order, 2))
    for minor in report["findings"]:
        oracle.check_witness(orc, minor, max(order, 2), where)


def check_pair_minors(minors: list, orc, where: str) -> None:
    for minor in minors:
        expected = oracle.pair_minor(orc, minor["I"], minor["pairs"])
        require(oracle.close(minor["det"], expected),
                f"{where}: pair minor {minor['name']} I={minor['I']} reported "
                f"{minor['det']!r}, oracle {expected!r}")
        require(minor["verdict"] != "negative" or expected < 0,
                f"{where}: pair minor {minor['name']} I={minor['I']} called negative")


def check_figure1(text: str, where: str) -> None:
    """Rows match the oracle's 2x2 pair minors; each family coincides at a grid point."""
    rows = list(csv.DictReader(io.StringIO(text)))
    require(len(rows) == 21 * 3 * 7, f"{where}: expected 441 rows, got {len(rows)}")
    oracles, families = {}, {}
    for row in rows:
        alpha, nbar = float(row["param"]), float(row["nbar"])
        members = [int(x) for x in row["I"].split("+")]
        if row["minor"] == "d1":
            pairs = ((1, 2), (3, 4))
        else:
            pairs = (tuple(members), tuple(m for m in (1, 2, 3, 4) if m not in members))
        orc = oracles.get((alpha, nbar))
        if orc is None:
            orc = oracles[(alpha, nbar)] = oracle.wstate_oracle([alpha] * 4, [nbar] * 4, 2)
        expected = oracle.pair_minor(orc, members, pairs)
        require(oracle.close(float(row["value"]), expected),
                f"{where}: row {row} differs from the oracle's {expected!r}")
        families.setdefault((alpha, nbar, row["minor"]), []).append(float(row["value"]))
    for key, values in families.items():
        require(all(oracle.close(v, values[0], 1e-7, 1e-12) for v in values),
                f"{where}: family {key} does not coincide: {values}")


def check_table(text: bytes, name: str, state) -> None:
    """Every moments-gen entry against the oracle, plus closed forms."""
    doc = json.loads(text)
    modes = doc["modes"]
    keys = oracle.gralex_keys(modes, 4)
    require(len(doc["entries"]) == len(keys), f"table {name}: expected every key of weight <= 4")
    orc = state.make_oracle(4)
    values = {}
    for key, item in zip(keys, doc["entries"]):
        require(key == tuple(zip(item["k"], item["l"])), f"table {name}: entry out of order")
        values[key] = value = complex(item["re"], item["im"])
        expected = orc.moment(key)
        require(abs(value - expected) <= 1e-10 * (1 + abs(expected)),
                f"table {name}: <{key}> = {value!r}, oracle {expected!r}")
    for key, expected in state.closed_forms:
        require(abs(values[key] - expected) <= 1e-10 * (1 + abs(expected)),
                f"table {name}: <{key}> = {values[key]!r}, closed form {expected!r}")


def check_grid_op(op: dict, where: str) -> None:
    alpha, nbar = op["alpha"], op["nbar"]
    require("error" not in op, f"{where}: {op.get('error')}")

    def make(order):
        return oracle.wstate_oracle([alpha] * 4, [nbar] * 4, order)

    check_certify(op["report"], make, 4, where)
    check_pair_minors(op["minors"], make(2), where)
    if (alpha, nbar) == (0.3, 0.0):
        require(op["report"]["certificate"], f"{where}: the |alpha|=0.3 W state must be certified")


def check_ops(workload, ops) -> tuple:
    """Check each operation; a repeat must print exactly what its first run printed."""
    first, failed, errors = {}, 0, []
    for op in ops:
        if op.rc not in workload.allowed_rc(op.name):
            failed += 1
            continue
        try:
            if op.name in first:
                require((op.rc, op.stdout) == (first[op.name].rc, first[op.name].stdout),
                        f"{op.name}: output differs from its first run")
            else:
                first[op.name] = op
                workload.check(op.name, op.rc, op.stdout)
        except CHECK_ERRORS as exc:
            errors.append(f"{op.name}: {exc!r}")
    return failed, errors


# --- workloads ----------------------------------------------------------------


def fmt_complex(z: complex) -> str:
    return f"{z.real:.3f}{z.imag:+.3f}i"


@dataclass
class TableState:
    """moments-gen flags of one input table, its oracle and closed-form moments."""

    flags: list
    modes: int
    make_oracle: Callable
    closed_forms: list = field(default_factory=list)


class CliTables:
    """Fresh CLI processes on order-4 JSON tables, one table write and figure1."""

    setup_samples = 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        alpha, nbar = round(rng.uniform(0.25, 0.35), 4), round(rng.uniform(0.005, 0.02), 4)
        gammas = [complex(round(rng.uniform(-0.6, 0.6), 3), round(rng.uniform(-0.6, 0.6), 3))
                  for _ in range(4)]
        r = round(rng.uniform(0.4, 0.9), 4)
        s = math.sinh(r)
        g = gammas
        self.states = {
            "w_pure": TableState(["--state", "wstate", "--alpha", "0.3", "--modes", "4"], 4,
                                 lambda order: oracle.wstate_ket([0.3] * 4, order)),
            "w_noisy": TableState(["--state", "wstate", "--alpha", str(alpha), "--modes", "4",
                                   "--nbar", str(nbar)], 4,
                                  lambda order: oracle.NoisyWOracle([alpha] * 4, [nbar] * 4)),
            "coherent": TableState(
                ["--state", "coherent", "--gamma=" + ",".join(map(fmt_complex, g))], 4,
                lambda order: oracle.coherent_ket(g, order),
                [(((0, 1), (0, 0), (0, 0), (0, 0)), g[0]),
                 (((1, 0), (0, 1), (0, 0), (0, 0)), g[0].conjugate() * g[1]),
                 (((0, 0), (0, 0), (1, 1), (0, 2)), abs(g[2]) ** 2 * g[3] ** 2)]),
            "tmsv": TableState(
                ["--state", "tmsv", "--r", str(r)], 2,
                lambda order: oracle.tmsv_ket(r, order),
                [(((0, 1), (0, 1)), s * math.cosh(r)),
                 (((1, 1), (0, 0)), s * s),
                 (((1, 1), (1, 1)), 2 * s ** 4 + s * s)]),
        }
        self.dir = OUT / "cli_tables"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.paths = {name: self.dir / f"{name}.json" for name in self.states}
        self.tables: dict[str, bytes] = {}

    def setup(self) -> float:
        """Write the four input tables with moments-gen; returns the wall time."""
        t0 = time.perf_counter()
        for name, state in self.states.items():
            _, rc, _ = run_cli(["moments-gen", *state.flags, "--order", "4",
                                "--out", str(self.paths[name])])
            if rc != 0:
                raise RuntimeError(f"moments-gen for the {name} table exited {rc}")
        seconds = time.perf_counter() - t0
        for name, path in self.paths.items():
            text = path.read_bytes()
            if self.tables.setdefault(name, text) != text:
                raise RuntimeError(f"moments-gen wrote a different {name} table on a repeat")
        return seconds

    def check_setup(self) -> list:
        errors = []
        for name, state in self.states.items():
            try:
                check_table(self.tables[name], name, state)
            except CHECK_ERRORS as exc:
                errors.append(f"table {name}: {exc!r}")
        return errors

    def ops(self) -> list:
        out = []
        for command in ("certify", "scan"):
            out += [(f"{command}:{name}", [command, "--moments", str(path)])
                    for name, path in self.paths.items()]
        out.append(("moments-gen:w_noisy",
                    ["moments-gen", *self.states["w_noisy"].flags, "--order", "4"]))
        out.append(("figure1", ["figure1"]))
        return out

    @staticmethod
    def allowed_rc(name: str) -> tuple:
        return {"certify": (0, 11), "scan": (0, 10)}.get(name.split(":")[0], (0,))

    def check(self, name: str, rc: int, stdout: bytes) -> None:
        command, _, table = name.partition(":")
        if command == "moments-gen":
            require(stdout == self.tables[table], f"{name}: differs from the set-up table")
            return
        if command == "figure1":
            check_figure1(stdout.decode(), name)
            return
        state = self.states[table]
        report = json.loads(stdout)
        if command == "certify":
            check_certify(report, state.make_oracle, state.modes, name)
            require(rc == (0 if report["certificate"] else 11), f"{name}: exit code {rc}")
            npt = [cut for cut in report["bipartitions"] if cut["verdict"] == "NPT"]
            if table == "w_pure":
                require(report["certificate"], f"{name}: the |alpha|=0.3 W state must be certified")
        else:
            check_scan(report, state.make_oracle, name)
            require(rc == (0 if report["findings"] else 10), f"{name}: exit code {rc}")
            npt = report["findings"]
        if table == "coherent":
            require(not npt, f"{name}: NPT reported on a separable coherent product")

    def probe(self) -> tuple:
        return {"alphas": [0.3] * 4, "nbars": [0.0] * 4}, 4, 2


class LargeCuts:
    """Fresh CLI certify processes at 4 modes order 3, 5 modes noisy and 6 modes."""

    setup_samples = SETUP_SAMPLES

    def __init__(self, seed: int):
        self.alpha = alpha = round(random.Random(seed).uniform(0.29, 0.31), 4)
        a = str(alpha)
        self.cases = {
            "certify:4x3": (["certify", "--state", "wstate", "--alpha", a, "--modes", "4",
                             "--order", "3"], 4,
                            lambda order: oracle.wstate_ket([alpha] * 4, order)),
            "certify:5x2-noisy": (["certify", "--state", "wstate", "--alpha", a, "--modes", "5",
                                   "--nbar", "0.01"], 5,
                                  lambda order: oracle.NoisyWOracle([alpha] * 5, [0.01] * 5)),
            "certify:6x2": (["certify", "--state", "wstate", "--alpha", a, "--modes", "6"], 6,
                            lambda order: oracle.wstate_ket([alpha] * 6, order)),
        }

    @staticmethod
    def setup() -> float:
        return fresh_import_seconds("ptmoments")

    @staticmethod
    def check_setup() -> list:
        return []

    def ops(self) -> list:
        return [(name, case[0]) for name, case in self.cases.items()]

    @staticmethod
    def allowed_rc(name: str) -> tuple:
        return (0, 11)

    def check(self, name: str, rc: int, stdout: bytes) -> None:
        _, modes, make_oracle = self.cases[name]
        report = json.loads(stdout)
        check_certify(report, make_oracle, modes, name)
        require(rc == (0 if report["certificate"] else 11), f"{name}: exit code {rc}")

    def probe(self) -> tuple:
        return {"alphas": [self.alpha] * 6, "nbars": [0.0] * 6}, 6, 2


def grid_points(seed: int) -> list:
    """Eight 4-mode W-state points at order 2: six granted, one refused with no
    negative eigenvalue, one where every cut has a negative eigenvalue but no
    witness of size <= 6 exists, so the combinatorial fallback runs in full.

    Granted points are the majority so that the median operation falls inside
    one group of similar cost rather than on the edge between two groups,
    where it would jump with small changes in speed.
    """
    rng = random.Random(seed)

    def draw(alphas, nbars):
        return [round(rng.uniform(*alphas), 4), round(rng.uniform(*nbars), 4)]

    granted = [[0.3, 0.0]] + [draw((0.2, 0.8), (0.0, 0.02)) for _ in range(5)]
    clean = [draw((0.05, 0.8), (0.15, 0.25))]
    fallback = [draw((0.095, 0.105), (0.03, 0.04))]
    return granted + clean + fallback


def start_grid_worker(points, seconds, setup_only):
    """Start one grid worker; returns (seconds to ready, warm-up op, final output)."""
    config = json.dumps({"points": points, "seconds": seconds, "setup_only": setup_only})
    t0 = time.perf_counter()
    with subprocess.Popen([PY, str(BENCH / "grid_worker.py"), config], env=child_env(),
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=seconds + OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"grid worker exited {proc.returncode}")
    return setup, json.loads(ready)["warmup"], rest


def dedupe_check(ops, key, check) -> list:
    """Check the first op of each key fully; repeats must equal their first output."""
    first, errors = {}, []
    for op in ops:
        k = key(op)
        body = json.dumps({x: op[x] for x in op if x != "seconds"}, sort_keys=True)
        try:
            if k in first:
                require(body == first[k], f"{k}: output differs from its first run")
            else:
                first[k] = body
                check(op, k)
        except CHECK_ERRORS as exc:
            errors.append(f"{k}: {exc!r}")
    return errors


def point_key(op) -> str:
    return f"grid alpha={op['alpha']} nbar={op['nbar']}"


def grid_scan(seed: int, seconds: float) -> dict:
    points = grid_points(seed)
    setups, warmups = [], []
    # two set-up-only workers, the worker that runs the loop, two more after it
    for rep in range(5):
        setup, warmup, rest = start_grid_worker(points, seconds, setup_only=rep != 2)
        setups.append(setup)
        warmups.append(dict(warmup, seconds=0.0))
        if rep == 2:
            result = json.loads(rest.strip().splitlines()[-1])
    peak = children_peak_rss_mib()
    ops = result["ops"]
    failed = sum(1 for op in ops if "error" in op)
    errors = dedupe_check(warmups + [op for op in ops if "error" not in op], point_key,
                          check_grid_op)
    return finish(errors, len(ops), failed, setups, [op["seconds"] for op in ops],
                  result["elapsed"], peak)


def cli_workload(workload, seconds: float) -> dict:
    setups = [workload.setup() for _ in range(workload.setup_samples)]
    ops, elapsed = closed_loop(workload.ops(), seconds)
    setups += [workload.setup() for _ in range(workload.setup_samples)]
    peak = children_peak_rss_mib()
    failed, errors = check_ops(workload, ops)
    errors += workload.check_setup()
    return finish(errors, len(ops), failed, setups, [op.seconds for op in ops], elapsed, peak)


def finish(errors, attempted, failed, setups, times, elapsed, peak) -> dict:
    for error in errors:
        sys.stderr.write(f"check failed: {error}\n")
    info = {"samples": len(times), "attempted": attempted, "failed": failed,
            "elapsed_s": elapsed, "setup_samples_s": setups,
            "verdict_p50_s": statistics.median(times)}
    if len(times) >= 40:
        # the highest percentile with at least ten samples beyond it
        pct = int(100 * (1 - 10 / len(times)))
        info[f"verdict_p{pct}_s"] = statistics.quantiles(times, n=100)[pct - 1]
    print(json.dumps(info))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdicts_per_s": ((attempted - failed) / elapsed, "1/s"),
        "peak_rss_mib": (peak, "MiB"),
    }
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# --- traced run ----------------------------------------------------------------


def run_unit(spec: dict, path: Path) -> dict:
    proc = subprocess.run([PY, str(BENCH / "tracer.py"), json.dumps(spec), str(path)],
                          env=child_env(), capture_output=True, timeout=OP_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"traced unit {spec['kind']} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-800:]}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def traced(name: str, seed: int) -> dict:
    out = OUT / name / f"trace-units-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    if name == "grid_scan":
        workload = None
        points = grid_points(seed)
        state, modes, order = {"alphas": [points[-1][0]] * 4, "nbars": [points[-1][1]] * 4}, 4, 2
        replay = [{"kind": "grid", "points": points, "replay": True}]
    else:
        workload = CliTables(seed) if name == "cli_tables" else LargeCuts(seed)
        workload.setup()
        state, modes, order = workload.probe()
        replay = [{"kind": "cli", "name": op, "argv": argv, "replay": True}
                  for op, argv in workload.ops()]
    startup = [fresh_import_seconds("ptmoments.cli") for _ in range(SETUP_SAMPLES)]
    base = {"state": state, "modes": modes, "order": order}
    specs = [dict(base, kind="probe", table_path=str(out / "probe-table.json")),
             dict(base, kind="build_cold")] + replay
    units = [(spec, run_unit(spec, out / f"unit-{i}.json")) for i, spec in enumerate(specs)]

    attempted, failed, untraced, errors, ops = 0, 0, 0.0, [], []
    for spec, result in units:
        errors += result.get("errors", [])
        for layer, reason in result["absent"].items():
            sys.stderr.write(f"layer {layer} absent: {reason}\n")
        if spec["kind"] == "grid":
            untraced += sum(result["untraced"])
            attempted += len(result["outputs"])
            errors += dedupe_check(result["outputs"], point_key, check_grid_op)
        elif spec["kind"] == "cli":
            seconds, rc, stdout = run_cli(spec["argv"])
            untraced += seconds
            ops.append(Op(spec["name"], seconds, result["rc"], result["stdout"].encode()))
            if (rc, stdout) != (result["rc"], ops[-1].stdout):
                errors.append(f"{spec['name']}: traced output differs from the untraced run")
    if ops:
        attempted += len(ops)
        failed, more = check_ops(workload, ops)
        errors += more
    metrics = tracer.summarize(units, startup, untraced)
    with open(OUT / name / f"trace-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "untraced_s": untraced, "startup_s": startup,
                   "metrics": metrics, "units": [{"spec": s, **r} for s, r in units]}, handle)
    for error in errors:
        sys.stderr.write(f"check failed: {error}\n")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ptmoments" / "__init__.py").is_file():
        sys.stderr.write(f"no ptmoments sources under {SRC}; run from a checkout of the repo\n")
        return 2
    if args.trace:
        result = traced(args.workload, args.seed)
    elif args.workload == "grid_scan":
        result = grid_scan(args.seed, args.seconds)
    else:
        workload = CliTables(args.seed) if args.workload == "cli_tables" else LargeCuts(args.seed)
        result = cli_workload(workload, args.seconds)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
