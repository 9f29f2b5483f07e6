"""Run the hand-written mutants of ptmoments against the tests named to kill them.

Usage (from any directory):

    python3 tools/mutants.py [CHECKOUT] [--only NAME ...]

CHECKOUT defaults to the checkout holding this script.  Each mutant is one
edit: a file under the checkout, a text that must occur in it exactly once,
and the text that replaces it.  For each mutant the checkout is copied to a
temporary directory, the edit applied there (the checkout itself is never
touched), and the mutant's tests run with pytest.  A mutant is killed when a
test fails and survives when all pass.  A mutant either names the tests
expected to kill it or gives the argument that it is equivalent, and is then
expected to survive the tests it names.  One line per mutant reports the
result; the exit code is 1 when a result differs from the expectation or an
edit no longer applies.

Run it on changes to ``matrix.py``, ``certify.py``, ``transpositions.py``,
``cli.py`` or a provider.  Each mutant runs in a fresh process with one BLAS
thread; the whole list takes a few minutes, so it is not part of CI.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    #: pytest node ids run against the mutant
    tests: tuple[str, ...]
    #: why no test can kill it, when that is the expectation
    equivalent: str | None = None


MATRIX = "src/ptmoments/matrix.py"

MUTANTS = (
    Mutant(
        "no-greedy-shrink", MATRIX,
        "            return _greedy_shrink(matrix, candidate, minor)",
        "            return minor",
        ("tests/test_certify.py::TestBipartition::test_witnesses_are_one_minimal",),
    ),
    Mutant(
        "no-hermitization", MATRIX,
        "    values = (values + values.conj().T) / 2.0",
        "    values = values",
        ("tests/test_matrix.py::TestBuildMatrix::"
         "test_partners_within_tolerance_give_a_hermitian_matrix",),
    ),
    Mutant(
        "no-schur-sign-guard", MATRIX,
        "        if low < 0.0 and (minor := determinant(matrix.block(candidate))).negative:",
        "        if (minor := determinant(matrix.block(candidate))).negative:",
        ("tests/test_matrix.py::TestEigenScan", "tests/test_certify.py::TestBipartition"),
        equivalent="argued, not proven: a candidate's determinant is its prefix's times the "
                   "Schur minimum, so with a nonnegative minimum it is negative only where the "
                   "prefix is, and a prefix turns negative only past candidates judged within "
                   "their threshold of 0; no recorded output has moved, and the guard saves "
                   "determinant calls",
    ),
    Mutant(
        "w-sign-swap", "src/ptmoments/moments.py",
        "sign = (-1) ** (pairs[j - 1][0] + pairs[i - 1][1])",
        "sign = (-1) ** (pairs[i - 1][0] + pairs[j - 1][1])",
        ("tests/test_moments.py::TestWStateNoiseless", "tests/test_moments.py::TestWStateNoisy",
         "tests/test_moments.py::TestWStateFiftyDigits"),
        equivalent="the product of mode factors is symmetric in (i, j), so the swapped sign "
                   "relabels the n^2 cross terms (i, j) as (j, i) and leaves their exact sum",
    ),
    Mutant(
        "absolute-hermiticity-allowance", MATRIX,
        "    allowed = float(uncertainty.max()) + HERMITICITY_ULPS",
        "    allowed = 1e-6 + float(uncertainty.max()) + HERMITICITY_ULPS",
        ("tests/test_matrix.py::TestBuildMatrix::test_exact_data_has_no_absolute_allowance",
         "tests/test_certify.py::TestCertifyFull::test_shifted_moment_refused_not_certified"),
    ),
    Mutant(
        "absolute-imaginary-allowance", MATRIX,
        "max(1e-6 * abs(det.real), threshold)",
        "max(1e-6 * max(1.0, abs(det.real)), threshold)",
        ("tests/test_matrix.py::TestDeterminant::"
         "test_imaginary_part_judged_relative_to_the_determinant",),
    ),
    Mutant(
        "threshold-ignores-uncertainty", MATRIX,
        "        threshold += float(np.prod(norms + np.linalg.norm(uncertainty, axis=1))"
        " - np.prod(norms))",
        "        threshold += 0.0",
        ("tests/test_matrix.py::TestDeterminant::test_threshold_weighs_the_uncertainty",),
    ),
    Mutant(
        "positive-determinant-called-negative", MATRIX,
        'verdict="negative" if det.real < -threshold else "nonnegative"',
        'verdict="negative" if det.real < threshold else "nonnegative"',
        ("tests/test_cli.py::TestWitnessesVerifyExactly",),
    ),
    Mutant(
        "no-cut-cap", "src/ptmoments/transpositions.py",
        '    _enumeration(2 ** (n - 1) - 1, "cuts")\n    out = []',
        "    out = []",
        ("tests/test_transpositions.py::TestEnumerationCap::test_cut_count_at_the_cap",),
    ),
    Mutant(
        "no-decomposition-precheck", "src/ptmoments/cli.py",
        "    _refuse_decompositions_above_cap(provider.modes)\n",
        "",
        ("tests/test_cli.py::TestCertify::"
         "test_enumerations_above_the_cap_refused_before_the_first_cut",),
    ),
    Mutant(
        "no-moment-cap", "src/ptmoments/moments.py",
        '    count = _enumeration(count_up_to_weight(2 * provider.modes, order), "moments")',
        "    count = count_up_to_weight(2 * provider.modes, order)",
        ("tests/test_moments.py::TestMomentTable::"
         "test_table_from_provider_refuses_moments_above_the_cap",),
    ),
)


def run_mutant(checkout: Path, mutant: Mutant) -> str:
    """``killed``, ``survived``, or why the mutant could not be run."""
    with tempfile.TemporaryDirectory() as directory:
        copy = Path(directory) / "checkout"
        shutil.copytree(checkout, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info", "out"))
        target = copy / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"stale: the old text occurs {text.count(mutant.old)} times"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    # pytest exits 1 when a test failed; 2-5 mean it could not run the named tests.
    return {0: "survived", 1: "killed"}.get(done.returncode,
                                           f"error: pytest exited {done.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parent.parent,
                        help="root of a ptmoments checkout (default: this script's)")
    parser.add_argument("--only", nargs="+", choices=[m.name for m in MUTANTS],
                        help="run only these mutants")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "ptmoments" / "__init__.py").is_file():
        parser.error(f"no ptmoments sources under {checkout / 'src'}")
    failures = 0
    for mutant in MUTANTS:
        if args.only and mutant.name not in args.only:
            continue
        start = time.perf_counter()
        result = run_mutant(checkout, mutant)
        expected = "survived" if mutant.equivalent else "killed"
        failures += result != expected
        mark = "ok" if result == expected else "UNEXPECTED"
        print(f"{mutant.name:38} {mark:10} {result} (expected {expected}, "
              f"{time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
