"""Digest every recorded output of a ptmoments checkout, one line per record.

Usage (from any directory):

    python3 tools/output_digest.py CHECKOUT [--jobs N] > digest.txt

Each line holds a record's name, its exit code and the SHA-256 of its stdout
and of its stderr, with the record's temporary directory masked as ``<tmp>``.
Run it on two checkouts, for instance a parent commit and a change, and
``diff`` the two digests: a refactor that keeps every output byte-identical
prints the same lines.  The records are:

* for seeds 1-3, the four ``cli_tables`` input tables of the benchmark (noiseless
  and noisy W states, a coherent product and a two-mode squeezed vacuum, all
  of order 4, drawn from the same seeded ranges), and ``certify`` and ``scan``
  on each under the default and every ``--strategy``; the noiseless W table
  draws nothing from the seed, so it is written for seed 1 only;
* each of those W tables again written with ``--tol 1e-3``, where the
  table's uncertainty weighs on the verdicts, with the same ``certify`` and
  ``scan`` records;
* for seeds 1-3, the three ``large_cuts`` commands (W states at 4 modes order
  3, 5 modes with noise, 6 modes);
* the default ``figure1``, and ``certify --state tmsv`` at r = 5, 10, 15, 20;
* ``moments-gen`` at order 4 and ``certify`` on a noisy 4-mode W state with
  unequal complex amplitudes;
* refusals: overflowing amplitudes, ``--max-minor-size 0``, a missing table
  file and NaN in parameters and in a table;
* ``index nth`` and ``index of``, a position past 10^20 included, ``--help`` of
  every command, ``--config`` files (used, overridden and refused),
  ``moments-gen --out`` (the file it writes is hashed with stdout), a missing
  or unread ``--state`` and ``--state fock-file`` on a small normalized ket
  and density matrix;
* the six demos;
* in this process, ``certify_full`` plus the ``four_mode_pair_groups`` minors
  on a fixed grid of 4-mode W states.

Every process runs with one BLAS/OpenMP thread, so its floating-point
reductions do not depend on the machine's core count.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (1, 2, 3)
STRATEGIES = ("eigen-scan", "named-minors", "both")
#: the in-process (|alpha|, nbar) grid: certified, noisy, refused and fallback points
GRID_ALPHAS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0)
GRID_NBARS = (0.0, 0.005, 0.01, 0.02, 0.035, 0.05, 0.1, 0.2)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.3f}{z.imag:+.3f}i"


def table_flags(seed: int) -> dict:
    """``moments-gen`` flags of the four order-4 tables drawn for ``seed``."""
    rng = random.Random(seed)
    alpha, nbar = round(rng.uniform(0.25, 0.35), 4), round(rng.uniform(0.005, 0.02), 4)
    gammas = [complex(round(rng.uniform(-0.6, 0.6), 3), round(rng.uniform(-0.6, 0.6), 3))
              for _ in range(4)]
    r = round(rng.uniform(0.4, 0.9), 4)
    return {
        "w_pure": ["--state", "wstate", "--alpha", "0.3", "--modes", "4"],
        "w_noisy": ["--state", "wstate", "--alpha", str(alpha), "--modes", "4",
                    "--nbar", str(nbar)],
        "coherent": ["--state", "coherent", "--gamma=" + ",".join(map(_fmt_complex, gammas))],
        "tmsv": ["--state", "tmsv", "--r", str(r)],
    }


def large_cuts(seed: int) -> dict:
    """The three ``certify`` commands drawn for ``seed``."""
    a = str(round(random.Random(seed).uniform(0.29, 0.31), 4))
    wstate = ["certify", "--state", "wstate", "--alpha", a]
    return {
        "4x3": wstate + ["--modes", "4", "--order", "3"],
        "5x2-noisy": wstate + ["--modes", "5", "--nbar", "0.01"],
        "6x2": wstate + ["--modes", "6"],
    }


def record_line(name: str, result: tuple[int, bytes, bytes]) -> str:
    rc, out, err = result
    return f"{name} {rc} {hashlib.sha256(out).hexdigest()} {hashlib.sha256(err).hexdigest()}"


class Runner:
    """Runs commands against one checkout inside one temporary directory."""

    def __init__(self, checkout: Path, tmp: Path):
        self.tmp = tmp
        # A fixed width keeps argparse's help from following the caller's terminal.
        self.env = dict(os.environ, PYTHONPATH=str(checkout / "src"), TMPDIR=str(tmp),
                        COLUMNS="80")

    def run(self, argv: list) -> tuple[int, bytes, bytes]:
        """Exit code, stdout and stderr of ``python argv``, the temporary directory masked."""
        proc = subprocess.run([sys.executable, *argv], env=self.env, cwd=self.tmp,
                              capture_output=True, timeout=600)
        out, err = (stream.replace(str(self.tmp).encode(), b"<tmp>")
                    for stream in (proc.stdout, proc.stderr))
        return proc.returncode, out, err

    def cli(self, argv: list) -> tuple[int, bytes, bytes]:
        return self.run(["-m", "ptmoments.cli", *argv])

    def cli_out(self, argv: list, path: Path) -> tuple[int, bytes, bytes]:
        """:meth:`cli` with ``--out path``, the bytes written there appended to stdout."""
        rc, out, err = self.cli([*argv, "--out", str(path)])
        return rc, out + (path.read_bytes() if path.exists() else b""), err


def process_records(runner: Runner, checkout: Path) -> list:
    """(name, call) of every record run in a process; writes the input tables first."""
    records = []
    for seed in SEEDS:
        tables = table_flags(seed)
        if seed != SEEDS[0]:
            del tables["w_pure"]
        tables.update({f"{table}:tol=1e-3": [*tables[table], "--tol", "1e-3"]
                       for table in ("w_pure", "w_noisy") if table in tables})
        for table, flags in tables.items():
            name = f"seed{seed}:{table}"
            gen = ["moments-gen", *flags, "--order", "4"]
            result = runner.cli(gen)
            if result[0] != 0:
                raise RuntimeError(f"{' '.join(gen)} exited {result[0]}")
            path = runner.tmp / f"{name.replace(':', '-')}.json"
            path.write_bytes(result[1])
            records.append((f"moments-gen:{name}", partial(tuple, result)))
            for command in ("certify", "scan"):
                for strategy in (None, *STRATEGIES):
                    argv = [command, "--moments", str(path)]
                    argv += [] if strategy is None else ["--strategy", strategy]
                    records.append((f"{command}:{name}:{strategy or 'default'}",
                                    partial(runner.cli, argv)))
        records += [(f"large_cuts:seed{seed}:{case}", partial(runner.cli, argv))
                    for case, argv in large_cuts(seed).items()]
    records.append(("figure1", partial(runner.cli, ["figure1"])))
    records += [(f"certify:tmsv:r={r}",
                 partial(runner.cli, ["certify", "--state", "tmsv", "--r", str(r)]))
                for r in (5, 10, 15, 20)]
    w_complex = ["--state", "wstate", "--alpha=0.3+0.2i,-0.1+0.4i,0.5,0.2-0.3i",
                 "--nbar", "0,0.02,0.01,0"]
    records += [
        ("moments-gen:w_complex", partial(runner.cli, ["moments-gen", *w_complex, "--order", "4"])),
        ("certify:w_complex", partial(runner.cli, ["certify", *w_complex])),
    ]

    nan_table = runner.tmp / "nan.json"
    doc = json.loads((runner.tmp / "seed1-tmsv.json").read_text(encoding="utf-8"))
    doc["entries"][1]["re"] = math.nan
    nan_table.write_text(json.dumps(doc), encoding="utf-8")
    refusals = [
        ("refuse:overflow-coherent",
         ["certify", "--state", "coherent", "--gamma=1e100,1e100,1e100,1e100"]),
        ("refuse:overflow-tmsv", ["certify", "--state", "tmsv", "--r", "400"]),
        ("refuse:max-minor-size-0",
         ["certify", "--state", "wstate", "--alpha", "0.3", "--modes", "4",
          "--max-minor-size", "0"]),
        ("refuse:missing-file", ["certify", "--moments", str(runner.tmp / "absent.json")]),
        ("refuse:nan-alpha", ["certify", "--state", "wstate", "--alpha", "nan", "--modes", "2"]),
        ("refuse:nan-table", ["scan", "--moments", str(nan_table)]),
    ]
    records += [(name, partial(runner.cli, argv)) for name, argv in refusals]
    records += surface_records(runner)
    records += [(f"demo:{path.name}", partial(runner.run, [str(path)]))
                for path in sorted((checkout / "demos").glob("*.py"))]
    return records


def surface_records(runner: Runner) -> list:
    """(name, call) of the index, help, config, ``--out`` and fock-file records; writes their inputs."""
    import numpy as np

    tmp = runner.tmp
    # Two modes, cutoffs 5 and 5: a squeezed-like ket and a W-like pair mixed with vacuum.
    ket = np.diag(0.4j ** np.arange(5)).ravel()
    np.save(tmp / "ket.npy", ket / np.linalg.norm(ket))
    w = np.zeros(25)
    w[1] = w[5] = 2 ** -0.5
    rho = 0.8 * np.outer(w, w)
    rho[0, 0] += 0.2
    np.save(tmp / "rho.npy", rho)
    configs = {
        "wstate": {"state": "wstate", "alpha": [0.3], "modes": 4, "nbar": 0.01},
        "unknown-key": {"state": "tmsv", "r": 0.5, "sigma": 1},
        "bool": {"state": "tmsv", "r": True},
    }
    for name, config in configs.items():
        (tmp / f"config-{name}.json").write_text(json.dumps(config), encoding="utf-8")
    (tmp / "config-bad.json").write_text("{", encoding="utf-8")
    config = [f"--config={tmp / 'config-wstate.json'}"]
    fock_ket = ["--state", "fock-file", f"--fock-file={tmp / 'ket.npy'}", "--cutoffs", "5,5"]
    fock_rho = ["--state", "fock-file", f"--fock-file={tmp / 'rho.npy'}", "--cutoffs", "5,5"]
    commands = [
        ("index:nth:identity", ["index", "nth", "4", "1"]),
        ("index:nth:pair", ["index", "nth", "8", "13"]),
        ("index:nth:odd", ["index", "nth", "3", "20"]),
        ("index:nth:past-1e20", ["index", "nth", "8", str(10 ** 21 + 7)]),
        ("index:nth:zero", ["index", "nth", "4", "0"]),
        ("index:of:pair", ["index", "of", "a1 a2", "--modes", "2"]),
        ("index:of:past-1e20", ["index", "of", "ad1^239 ad2^118 ad3^240 ad4^471 a1^274 a2^28 "
                                "a3^212 a4", "--modes", "4"]),
        ("index:of:out-of-range", ["index", "of", "a5", "--modes", "3"]),
        ("help", ["--help"]),
        *[(f"help:{':'.join(sub)}", [*sub, "--help"])
          for sub in (["moments-gen"], ["scan"], ["certify"], ["figure1"], ["index"],
                      ["index", "nth"], ["index", "of"])],
        ("config:certify", ["certify", *config]),
        ("config:overridden", ["certify", *config, "--modes", "3", "--nbar", "0"]),
        ("config:moments-gen", ["moments-gen", *config, "--order", "2"]),
        *[(f"config:refuse:{name}", ["certify", f"--config={tmp / f'config-{name}.json'}"])
          for name in ("unknown-key", "bool", "bad", "absent")],
        ("state:required", ["moments-gen"]),
        ("state:unread-flags", ["certify", "--state", "tmsv", "--r", "0.5", "--modes", "4"]),
        ("fock-file:ket", ["certify", *fock_ket]),
        ("fock-file:ket:moments-gen", ["moments-gen", *fock_ket, "--order", "2"]),
        ("fock-file:density", ["certify", *fock_rho]),
    ]
    records = [(name, partial(runner.cli, argv)) for name, argv in commands]
    outs = [
        ("out:moments-gen",
         ["moments-gen", "--state", "coherent", "--gamma=0.5,0.3-0.2i", "--order", "3"],
         tmp / "out-coherent.json"),
        ("out:moments-gen:fock-file", ["moments-gen", *fock_rho, "--order", "2"],
         tmp / "out-fock.json"),
        ("out:refuse:no-directory", ["moments-gen", "--state", "tmsv", "--r", "0.5"],
         tmp / "absent" / "out.json"),
    ]
    records += [(name, partial(runner.cli_out, argv, path)) for name, argv, path in outs]
    return records


def grid_lines(checkout: Path) -> list[str]:
    """``certify_full`` and the pair minors per grid point, run in this process."""
    sys.path.insert(0, str(checkout / "src"))
    import ptmoments as ptm

    lines = []
    for alpha in GRID_ALPHAS:
        for nbar in GRID_NBARS:
            name = f"grid:alpha={alpha}:nbar={nbar}"
            try:
                provider = ptm.WStateMoments(ptm.WStateParams.symmetric(4, alpha, nbar))
                report = ptm.certify_full(provider).as_dict()
                minors = [
                    dict(ptm.named_minor(provider, transposed, pairs).as_dict(), name=label)
                    for group in ptm.four_mode_pair_groups()
                    for label, transposed, pairs in group
                ]
                rc, text = 0, json.dumps({"report": report, "minors": minors}, sort_keys=True)
            except Exception as exc:  # an error is a record too
                rc, text = 1, repr(exc)
            lines.append(record_line(name, (rc, text.encode(), b"")))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("checkout", type=Path, help="root of a ptmoments checkout")
    parser.add_argument("--jobs", type=int, default=2, help="CLI processes run at once")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "ptmoments" / "__init__.py").is_file():
        parser.error(f"no ptmoments sources under {checkout / 'src'}")
    with tempfile.TemporaryDirectory() as directory:
        runner = Runner(checkout, Path(directory))
        records = process_records(runner, checkout)
        with ThreadPoolExecutor(max(1, args.jobs)) as pool:
            results = pool.map(lambda record: record[1](), records)
            for (name, _), result in zip(records, results):
                print(record_line(name, result), flush=True)
    for line in grid_lines(checkout):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
