"""End-to-end tests for the command-line interface.

Every test drives :func:`ptmoments.cli.main` with an explicit argv vector and
inspects the exit code together with captured stdout/stderr, exactly as a
shell invocation would.  Moment tables are written to per-test temporary
directories and read back through the same CLI, so the JSON round trip is
exercised as a whole rather than through internal helpers.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import random

import numpy as np
import pytest

from conftest import OVERLONG_INT, exact_witness_margin, int_conversion_error
from ptmoments import all_decompositions, load_moment_table
from ptmoments.certify import STRATEGIES
from ptmoments.cli import (
    EXIT_IO,
    EXIT_MISSING_MOMENTS,
    EXIT_NO_CERTIFICATE,
    EXIT_NO_NEGATIVITY,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
    parse_complex,
)


def invoke(argv):
    """Run the CLI entry point and capture (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def command_parsers(parser, path=()):
    """(argv prefix, parser) for every subcommand below ``parser``, nested ones too."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), sub
                yield from command_parsers(sub, path + (name,))


# Every long flag whose type or choices can refuse a value, with its command.
CHECKED_FLAGS = [
    (path, option, "--config" in sub._option_string_actions)
    for path, sub in command_parsers(build_parser())
    for action in sub._actions
    if action.type not in (None, str) or action.choices
    for option in action.option_strings
    if option.startswith("--")
]


def write_table(tmp_path, name, argv):
    """Generate a moment table via the CLI and return its path."""
    path = tmp_path / name
    code, out, err = invoke(argv + ["--out", str(path)])
    assert code == EXIT_OK, err
    assert out == ""
    return path


def assert_one_error_line(err):
    """Refused cleanly: one ``error:`` line on stderr and no traceback."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def tmsv_ket_file(tmp_path):
    """The r = 0.5 two-mode squeezed vacuum at 16 levels per mode, as a ket .npy."""
    cutoff = 16
    amplitudes = np.zeros((cutoff, cutoff))
    ratio = math.tanh(0.5)
    for n in range(cutoff):
        amplitudes[n, n] = ratio**n / math.cosh(0.5)
    path = tmp_path / "state.npy"
    np.save(path, amplitudes.reshape(-1))
    return path


def diagonal_table(path, value):
    """2-mode order-4 table: identity 1, every other key with k = l set to ``value``, the rest 0."""
    entries = []
    for k1, l1, k2, l2 in itertools.product(range(5), repeat=4):
        if 0 < k1 + l1 + k2 + l2 <= 4:
            re = value if (k1, k2) == (l1, l2) else 0.0
            entries.append({"k": [k1, k2], "l": [l1, l2], "re": re, "im": 0.0})
    entries.append({"k": [0, 0], "l": [0, 0], "re": 1.0, "im": 0.0})
    path.write_text(json.dumps({"modes": 2, "entries": entries}))
    return path


class TestParseComplex:
    def test_pure_real(self):
        assert parse_complex("0.5") == 0.5 + 0j

    def test_interior_whitespace_stripped(self):
        assert parse_complex(" 1 + 2i ") == 1 + 2j

    def test_uppercase_imaginary_unit(self):
        assert parse_complex("-2I") == -2j

    def test_engineering_j_suffix(self):
        assert parse_complex("3-4j") == 3 - 4j

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("zebra")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("")

    @pytest.mark.parametrize(
        "text,value",
        [("inf", complex(math.inf, 0)), ("Infinity", complex(math.inf, 0)),
         ("1e3i", 1000j), ("-i", -1j)],
    )
    def test_python_number_grammar(self, text, value):
        assert parse_complex(text) == value


class TestIndexNth:
    def test_identity_position(self):
        code, out, err = invoke(["index", "nth", "2", "1"])
        assert code == EXIT_OK
        assert out == "(0,0)  1\n"

    def test_single_mode_annihilator(self):
        code, out, err = invoke(["index", "nth", "2", "2"])
        assert code == EXIT_OK
        assert out == "(1,0)  a1\n"

    def test_four_mode_pair_position(self):
        code, out, err = invoke(["index", "nth", "8", "13"])
        assert code == EXIT_OK
        assert out == "(1,0,1,0,0,0,0,0)  a1 a2\n"

    def test_odd_dimension_prints_tuple_only(self):
        code, out, err = invoke(["index", "nth", "3", "2"])
        assert code == EXIT_OK
        assert out == "(1,0,0)\n"

    def test_position_zero_rejected(self):
        code, out, err = invoke(["index", "nth", "2", "0"])
        assert code == EXIT_USAGE
        assert "position" in err

    def test_position_past_a_machine_word_unranks(self):
        # The weight of position 10^41 is past 2^63, more than a range() may hold.
        code, out, err = invoke(["index", "nth", "2", str(10 ** 41)])
        assert (code, err) == (EXIT_OK, "")
        assert out == ("(297516113301978307403,149697482197979631878)"
                       "  ad1^149697482197979631878 a1^297516113301978307403\n")
        code, out, err = invoke(["index", "of", out.split("  ")[1].strip(), "--modes", "1"])
        assert (code, out, err) == (EXIT_OK, f"{10 ** 41}\n", "")


class TestIndexOf:
    def test_two_mode_pair(self):
        code, out, err = invoke(["index", "of", "a1 a2", "--modes", "2"])
        assert code == EXIT_OK
        assert out == "9\n"

    def test_four_mode_pairs(self):
        expected = {"a1 a2": "13", "a3 a4": "35", "a1 a4": "31"}
        for monomial, position in expected.items():
            code, out, err = invoke(["index", "of", monomial, "--modes", "4"])
            assert code == EXIT_OK
            assert out == position + "\n"

    def test_huge_exponent_returns(self):
        # Below weight w lie C(w + 3, 4) indices; of weight w, those with a
        # smaller a2 exponent number w (w + 1) / 2 + w.
        w = 30_000_000
        code, out, err = invoke(["index", "of", f"a2^{w}", "--modes", "2"])
        assert code == EXIT_OK
        assert out == f"{math.comb(w + 3, 4) + w * (w + 1) // 2 + w + 1}\n"

    def test_modes_flag_required(self):
        code, out, err = invoke(["index", "of", "a1 a2"])
        assert code == EXIT_USAGE

    def test_mode_out_of_range(self):
        code, out, err = invoke(["index", "of", "a5 a2", "--modes", "2"])
        assert code == EXIT_USAGE
        assert "mode 5" in err

    @pytest.mark.parametrize("modes", ["0", "-1"])
    def test_mode_count_below_one_refused(self, modes):
        code, out, err = invoke(["index", "of", "a1", "--modes", modes])
        assert (code, out, err) == (EXIT_USAGE, "", "error: mode count must be >= 1\n")


class TestMomentsGen:
    def test_coherent_table_on_stdout(self):
        code, out, err = invoke(
            ["moments-gen", "--state", "coherent", "--gamma", "0.5", "--order", "2"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["modes"] == 1
        assert doc["tolerance"] == pytest.approx(1e-9)
        photon = [e for e in doc["entries"] if e["k"] == [1] and e["l"] == [1]]
        assert len(photon) == 1
        assert photon[0]["re"] == pytest.approx(0.25)
        assert photon[0]["im"] == 0.0

    def test_tmsv_anomalous_moment(self, tmp_path):
        path = write_table(
            tmp_path,
            "tmsv.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "2"],
        )
        doc = json.loads(path.read_text())
        assert doc["modes"] == 2
        pair = [e for e in doc["entries"] if e["k"] == [1, 1] and e["l"] == [0, 0]]
        assert pair[0]["re"] == pytest.approx(math.sinh(0.6) * math.cosh(0.6), rel=1e-11)

    def test_every_entry_within_declared_order(self):
        code, out, err = invoke(
            ["moments-gen", "--state", "coherent", "--gamma", "0.2,0.1", "--order", "3"]
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        weights = {sum(e["k"]) + sum(e["l"]) for e in doc["entries"]}
        assert max(weights) == 3
        assert min(weights) == 0

    def test_overflowing_amplitudes_are_a_data_error(self):
        code, out, err = invoke(
            ["moments-gen", "--state", "coherent", "--gamma=1e200,1", "--order", "4"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "coherent(1e+200,1)" in err

    def test_order_too_large_to_allocate_refused(self):
        # The enumeration cap refuses the 35.5 PiB position array before numpy is asked for it.
        code, out, err = invoke(
            ["moments-gen", "--state", "coherent", "--gamma", "0.5", "--order", "100000000"]
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: would enumerate 5000000150000001 moments, above the cap 200000\n"

    def test_order_above_the_enumeration_cap_refused(self, monkeypatch):
        def made(*args, **kwargs):
            raise AssertionError("a position array was made before the refusal")
        monkeypatch.setattr(np, "arange", made)
        code, out, err = invoke(["moments-gen", "--state", "wstate", "--alpha", "0.3",
                                 "--modes", "4", "--order", "40"])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: would enumerate 377348994 moments, above the cap 200000\n"

    def test_allocation_failure_is_a_usage_error(self, monkeypatch):
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 35.5 PiB for an array")
        monkeypatch.setattr("ptmoments.cli.table_from_provider", allocate)
        code, out, err = invoke(["moments-gen", "--state", "coherent", "--gamma", "0.5"])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: Unable to allocate 35.5 PiB for an array\n"

    def test_negative_order_refused(self):
        # Below order 0 not even the identity entry a table needs would be written.
        code, out, err = invoke(
            ["moments-gen", "--state", "wstate", "--alpha", "0.3", "--modes", "2", "--order", "-2"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err)
        assert "order must be >= 0" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_the_loader_rejects_is_refused(self, tol):
        code, out, err = invoke(
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "2", f"--tol={tol}"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: 'tolerance' must be a finite nonnegative number\n"

    def test_state_required_lists_every_state(self):
        code, out, err = invoke(["moments-gen"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --state is required (coherent, tmsv, wstate or fock-file)\n"

    def test_output_is_deterministic(self):
        argv = ["moments-gen", "--state", "wstate", "--alpha", "0.3", "--modes", "3", "--order", "2"]
        first = invoke(argv)
        second = invoke(argv)
        assert first == second
        assert first[0] == EXIT_OK


class TestBuiltInStates:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--state", "coherent", "--gamma", "0.3,0.2-0.1i"],
            ["--state", "tmsv", "--r", "0.6"],
            ["--state", "tmsv", "--r", "5"],
            ["--state", "tmsv", "--r", "20"],
            ["--state", "wstate", "--alpha", "0.3", "--modes", "4"],
            ["--state", "wstate", "--alpha", "0.3", "--modes", "4", "--nbar", "0.01"],
        ],
        ids=["coherent", "tmsv-0.6", "tmsv-5", "tmsv-20", "wstate", "wstate-noisy"],
    )
    def test_order_four_table_round_trip(self, tmp_path, flags):
        path = write_table(tmp_path, "table.json", ["moments-gen", *flags, "--order", "4"])
        table = load_moment_table(path.read_text())
        assert table.max_order == 4
        code, out, err = invoke(["certify", "--moments", str(path)])
        assert code in (EXIT_OK, EXIT_NO_CERTIFICATE), err
        assert json.loads(out)["certificate"] is (code == EXIT_OK)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["moments-gen", "--state", "tmsv", "--r", "nan", "--order", "1"],
             "squeezing parameter r must be finite"),
            (["moments-gen", "--state", "coherent", "--gamma=nan,0.1", "--order", "0"],
             "coherent amplitudes gamma must be finite"),
            (["certify", "--state", "wstate", "--alpha", "0.3", "--modes", "3", "--nbar", "nan"],
             "mean thermal photon numbers nbar must be finite"),
            (["certify", "--state", "wstate", "--alpha", "inf", "--modes", "2"],
             "amplitudes alpha must be finite"),
            (["certify", "--state", "wstate", "--alpha", "1+infi", "--modes", "2"],
             "amplitudes alpha must be finite"),
            (["certify", "--state", "coherent", "--gamma=1,infinity"],
             "coherent amplitudes gamma must be finite"),
            (["certify", "--state", "wstate", "--alpha", "nan", "--modes", "2"],
             "amplitudes alpha must be finite"),
        ],
        ids=["tmsv-r", "coherent-gamma", "wstate-nbar", "wstate-alpha-inf",
             "wstate-alpha-infi", "coherent-gamma-infinity", "wstate-alpha-nan"],
    )
    def test_non_finite_state_parameter_refused(self, argv, message):
        code, out, err = invoke(argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err)
        assert err.startswith(f"error: {message}")

    def test_strong_squeezing_certified(self):
        code, out, err = invoke(["certify", "--state", "tmsv", "--r", "5"])
        assert code == EXIT_OK, err
        assert json.loads(out)["certificate"] is True

    def test_strong_squeezing_table_scans(self, tmp_path):
        path = write_table(tmp_path, "tmsv.json",
                           ["moments-gen", "--state", "tmsv", "--r", "20", "--order", "2"])
        assert json.loads(path.read_text())["entries"][0]["re"] == 1.0
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code in (EXIT_OK, EXIT_NO_NEGATIVITY), err

    @pytest.mark.parametrize(
        "flags,label",
        [
            (["--state", "tmsv", "--r", "400"], "tmsv(r=400)"),
            (["--state", "wstate", "--alpha", "1e100", "--modes", "2"],
             "wstate(n=2, alpha=1e+100, nbar=0)"),
        ],
        ids=["tmsv", "wstate"],
    )
    @pytest.mark.parametrize("command", [["certify"], ["moments-gen", "--order", "4"]],
                             ids=["certify", "moments-gen"])
    def test_overflow_names_the_state(self, flags, label, command):
        code, out, err = invoke(command + flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: moment ") and err.count("\n") == 1
        assert err.endswith(f" of {label} overflows\n")


class TestScan:
    def test_entangled_table_yields_findings(self, tmp_path):
        path = write_table(
            tmp_path,
            "tmsv4.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "4"],
        )
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code == EXIT_OK
        report = json.loads(out)
        assert sorted(report.keys()) == ["budget", "findings", "inconclusive", "modes", "note"]
        assert report["modes"] == 2
        assert report["findings"], "two-mode squeezing must produce a negative minor"
        first = report["findings"][0]
        assert first["verdict"] == "negative"
        assert first["det"] < -1e-6
        assert first["I"] == [1]
        assert all(isinstance(p, int) for p in first["R"])

    def test_separable_table_exits_without_negativity(self, tmp_path):
        path = write_table(
            tmp_path,
            "coh.json",
            ["moments-gen", "--state", "coherent", "--gamma", "0.2,0.3", "--order", "4"],
        )
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code == EXIT_NO_NEGATIVITY
        report = json.loads(out)
        assert report["findings"] == []
        assert report["inconclusive"] == [[1]]

    def test_single_mode_table_has_no_cuts(self, tmp_path):
        path = write_table(
            tmp_path,
            "coh1.json",
            ["moments-gen", "--state", "coherent", "--gamma", "0.4", "--order", "4"],
        )
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code == EXIT_NO_NEGATIVITY
        assert json.loads(out)["findings"] == []

    def test_order_exceeding_table_reports_missing_keys(self, tmp_path):
        path = write_table(
            tmp_path,
            "tmsv2.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "2"],
        )
        code, out, err = invoke(["scan", "--moments", str(path), "--order", "2"])
        assert code == EXIT_MISSING_MOMENTS
        assert "moments unresolved" in err
        assert "a1^3" in err and "ad2^4" in err

    def test_default_order_clamps_to_table(self, tmp_path):
        path = write_table(
            tmp_path,
            "tmsv2.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "2"],
        )
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code == EXIT_OK
        finding = json.loads(out)["findings"][0]
        assert finding["R"] == [2, 4]
        assert finding["det"] == pytest.approx(-math.sinh(0.6) ** 2, rel=1e-10)

    @pytest.mark.parametrize("order", ["2", "3"])
    def test_default_order_clamps_four_mode_table(self, tmp_path, order):
        # The clamped order-1 budget must not ask for the weight-4 pair-minor moments.
        path = write_table(
            tmp_path,
            "coh4.json",
            ["moments-gen", "--state", "coherent", "--gamma=0.5,0.3,0.2,0.1", "--order", order],
        )
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code == EXIT_NO_NEGATIVITY, err
        report = json.loads(out)
        assert report["budget"]["max_order"] == 1
        assert report["findings"] == []
        assert len(report["inconclusive"]) == 7
        code, out, err = invoke(["certify", "--moments", str(path)])
        assert code == EXIT_NO_CERTIFICATE, err
        assert json.loads(out)["certificate"] is False

    def test_order_one_table_lacks_the_weight_two_moments(self, tmp_path):
        # The smallest scan (order 1) needs weight-2 moments, which an
        # order-1 table does not hold.
        path = write_table(
            tmp_path,
            "coh1.json",
            ["moments-gen", "--state", "coherent", "--gamma=0.5,0.3", "--order", "1"],
        )
        missing = "a1^2, ad1 a1, ad1^2, a1 a2, ad1 a2, a2^2, ad2 a1, ad1 ad2, ad2 a2, ad2^2"
        for command in ("scan", "certify"):
            code, out, err = invoke([command, "--moments", str(path)])
            assert code == EXIT_MISSING_MOMENTS
            assert out == ""
            assert err == f"error: moments unresolved for keys: {missing}\n"

    def test_scan_computes_no_exclusions(self, tmp_path, monkeypatch):
        # scan prints findings and inconclusive cuts only, so it never
        # enumerates the decompositions that certify reports as excluded.
        calls = []
        monkeypatch.setattr("ptmoments.certify.all_decompositions",
                            lambda modes: calls.append(modes) or all_decompositions(modes))
        path = write_table(
            tmp_path,
            "w4.json",
            ["moments-gen", "--state", "wstate", "--alpha", "0.3", "--modes", "4",
             "--order", "4"],
        )
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code == EXIT_OK, err
        assert len(json.loads(out)["findings"]) == 7
        assert calls == []
        code, out, err = invoke(["certify", "--moments", str(path)])
        assert code == EXIT_OK, err
        assert len(json.loads(out)["excluded_decompositions"]) == 14
        assert calls == [4]

    @pytest.mark.parametrize("modes, code, message", [
        # 262,143 cuts are refused before the first; 11 modes have 1,023 cuts,
        # under the cap, and scan lists no decompositions, so it reaches the missing keys.
        (19, EXIT_USAGE, "error: would enumerate 262143 cuts, above the cap 200000\n"),
        (11, EXIT_MISSING_MOMENTS, "error: moments unresolved for keys: "),
    ])
    def test_cut_count_gated_not_decompositions(self, tmp_path, modes, code, message):
        path = tmp_path / "identity.json"
        path.write_text(json.dumps({"modes": modes, "entries": [
            {"k": [0] * modes, "l": [0] * modes, "re": 1.0}]}))
        got, out, err = invoke(["scan", "--moments", str(path)])
        assert (got, out) == (code, "")
        assert err.startswith(message)

    def test_report_written_to_file(self, tmp_path):
        table = write_table(
            tmp_path,
            "tmsv4.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "4"],
        )
        out_path = tmp_path / "report.json"
        code, out, err = invoke(["scan", "--moments", str(table), "--out", str(out_path)])
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(out_path.read_text())["findings"]


class TestCertify:
    def test_wstate_full_certificate(self):
        code, out, err = invoke(
            ["certify", "--state", "wstate", "--alpha", "0.3", "--modes", "4"]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert sorted(report.keys()) == [
            "bipartitions",
            "budget",
            "certificate",
            "excluded_decompositions",
            "modes",
            "note",
        ]
        assert report["certificate"] is True
        assert report["modes"] == 4
        assert len(report["bipartitions"]) == 7
        assert all(entry["verdict"] == "NPT" for entry in report["bipartitions"])
        assert len(report["excluded_decompositions"]) == 14
        first = report["bipartitions"][0]
        assert first["I"] == [1]
        assert first["minor"]["R"] == [2, 22]
        assert first["minor"]["det"] == pytest.approx(-1.592126931410287e-4, rel=1e-9)

    def test_separable_state_refused(self):
        code, out, err = invoke(["certify", "--state", "coherent", "--gamma", "0.1,0.1"])
        assert code == EXIT_NO_CERTIFICATE
        report = json.loads(out)
        assert report["certificate"] is False
        assert report["excluded_decompositions"] == []
        assert "separability" in report["note"]

    @pytest.mark.parametrize("gamma", ["25+5i,20,-18i,22", "29+7i,-21+3i,12-26i,30"])
    def test_bright_separable_state_refused(self, gamma):
        # Pair minors with entries near |gamma|^4 carry rounding in the
        # determinant's imaginary part; it must not abort the verdict.
        code, out, err = invoke(["certify", "--state", "coherent", f"--gamma={gamma}"])
        assert code == EXIT_NO_CERTIFICATE, err
        report = json.loads(out)
        assert [b["verdict"] for b in report["bipartitions"]] == ["inconclusive"] * 7

    @pytest.mark.parametrize("extra", [[], ["--strategy", "named-minors"]])
    def test_overflowing_amplitudes_are_a_data_error(self, extra):
        code, out, err = invoke(
            ["certify", "--state", "coherent", "--gamma=1e100,1e100,1e100,1e100"] + extra
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "coherent(1e+" in err

    def test_moments_file_input(self, tmp_path):
        path = write_table(
            tmp_path,
            "tmsv4.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "4"],
        )
        code, out, err = invoke(["certify", "--moments", str(path)])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["certificate"] is True
        assert report["excluded_decompositions"] == ["{1|2}"]

    def test_fock_file_input(self, tmp_path):
        path = tmsv_ket_file(tmp_path)
        code, out, err = invoke(
            [
                "certify",
                "--state",
                "fock-file",
                "--fock-file",
                str(path),
                "--cutoffs",
                "16,16",
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["certificate"] is True
        assert report["excluded_decompositions"] == ["{1|2}"]

    def test_fock_file_density_matrix_certified_like_the_ket(self, tmp_path):
        # The truncated ket's norm misses 1 by ~1e-11.  A ket is divided by its
        # norm and a density matrix by its trace, so its raw outer product and
        # the normalised ket's outer product both give the ket's report.
        ket_path = tmsv_ket_file(tmp_path)
        ket = np.load(ket_path)
        argv = ["certify", "--state", "fock-file", "--cutoffs", "16,16", "--fock-file"]
        code, out, err = invoke(argv + [str(ket_path)])
        assert code == EXIT_OK, err
        for name, vector in (("raw", ket), ("normalised", ket / np.linalg.norm(ket))):
            rho_path = tmp_path / f"{name}.npy"
            np.save(rho_path, np.outer(vector, vector.conj()))
            assert invoke(argv + [str(rho_path)]) == (code, out, err), name

    @pytest.mark.parametrize("density", [False, True], ids=["ket", "density-matrix"])
    def test_fock_file_non_finite_state_refused(self, tmp_path, density):
        ket = np.load(tmsv_ket_file(tmp_path))
        ket[3] = math.nan
        path = tmp_path / "nan.npy"
        np.save(path, np.outer(ket, ket.conj()) if density else ket)
        code, out, err = invoke(
            ["certify", "--state", "fock-file", "--fock-file", str(path), "--cutoffs", "16,16"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: state entries of fock:{path} must be finite\n"

    def test_fock_file_zero_ket_norm_printed_as_a_number(self, tmp_path):
        path = tmp_path / "zero.npy"
        np.save(path, np.zeros(4))
        code, out, err = invoke(
            ["certify", "--state", "fock-file", "--fock-file", str(path), "--cutoffs", "2,2"]
        )
        assert code == EXIT_USAGE == 2
        assert out == ""
        assert err == "error: state vector norm 0.0 is not 1 within 1e-10\n"

    def test_fock_file_cutoffs_must_match_the_state(self, tmp_path):
        path = tmsv_ket_file(tmp_path)
        code, out, err = invoke(
            ["certify", "--state", "fock-file", "--fock-file", str(path), "--cutoffs", "16,15"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err)
        assert "does not match cutoffs (16, 15)" in err

    @pytest.mark.parametrize(
        "flags,needed",
        [
            (["--state", "coherent"], "--gamma"),
            (["--state", "tmsv"], "--r"),
            (["--state", "wstate", "--modes", "3"], "--alpha"),
            (["--state", "fock-file", "--cutoffs", "2"], "--fock-file and --cutoffs"),
            (["--state", "fock-file", "--fock-file", "state.npy"], "--fock-file and --cutoffs"),
        ],
        ids=["coherent", "tmsv", "wstate", "fock-file", "cutoffs"],
    )
    def test_missing_state_parameter_named(self, flags, needed):
        code, out, err = invoke(["certify", *flags])
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err)
        assert err.startswith(f"error: {needed} ")

    def test_non_finite_table_entry_named(self, tmp_path):
        path = write_table(
            tmp_path,
            "tmsv4.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "4"],
        )
        doc = json.loads(path.read_text())
        assert doc["entries"][0]["k"] == [0, 0] and doc["entries"][0]["l"] == [0, 0]
        doc["entries"][0]["re"] = math.nan
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["certify", "--moments", str(path)])
        assert code == EXIT_USAGE
        assert out == ""
        assert "k=[0, 0], l=[0, 0] is not finite" in err
        assert "Traceback" not in err

    @staticmethod
    def defective_table(tmp_path, state_flags):
        # <ad1> raised 1e-4 off its partner <a1>, which a 1e-3 tolerance allows.
        path = write_table(tmp_path, "defect.json", ["moments-gen", *state_flags, "--order", "4"])
        doc = json.loads(path.read_text())
        doc["tolerance"] = 1e-3
        (entry,) = [e for e in doc["entries"] if (e["k"], e["l"]) == ([1, 0], [0, 0])]
        entry["re"] += 1e-4
        path.write_text(json.dumps(doc))
        load_moment_table(path.read_text())
        return path

    @pytest.mark.parametrize("strategy", ["eigen-scan", "named-minors", "both"])
    def test_defect_within_the_table_tolerance_certifies_nothing(self, tmp_path, strategy):
        # The coherent product is separable; the defect alone makes minors
        # such as R = [3, 7] negative, by less than the tolerance can explain.
        path = self.defective_table(tmp_path, ["--state", "coherent", "--gamma=0.5,0.3"])
        code, out, err = invoke(["certify", "--moments", str(path), "--strategy", strategy])
        assert (code, err) == (EXIT_NO_CERTIFICATE, "")
        assert {cut["verdict"] for cut in json.loads(out)["bipartitions"]} == {"inconclusive"}
        code, out, err = invoke(["scan", "--moments", str(path), "--strategy", strategy])
        assert (code, err) == (EXIT_NO_NEGATIVITY, "")
        assert json.loads(out)["findings"] == []

    def test_defect_within_the_table_tolerance_keeps_a_clear_witness(self, tmp_path):
        path = self.defective_table(tmp_path, ["--state", "tmsv", "--r", "0.6"])
        code, out, err = invoke(["certify", "--moments", str(path)])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["certificate"] is True

    @pytest.mark.parametrize("command", ["certify", "scan"])
    @pytest.mark.parametrize("value, what", [(1e200, "a minor"), (1e308, "matrix entries")])
    def test_overflow_refused_by_name(self, tmp_path, command, value, what):
        # At 1e200 the entries are finite but 2x2 minors reach -1e400; at
        # 1e308 the entries themselves overflow.  Neither may print a verdict.
        path = diagonal_table(tmp_path / "huge.json", value)
        code, out, err = invoke([command, "--moments", str(path)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {what} of table:{path} overflow")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, where, value",
        [
            ("'re'", 1, None),
            ("'re'", 1, [0.5]),
            ("'re'", 1, "0.5"),
            ("'re'", 1, True),
            ("'im'", 1, None),
            ("'tolerance'", None, math.nan),
            ("'tolerance'", None, math.inf),
            ("'tolerance'", None, True),
            ("'modes'", None, True),
            ("'k' and 'l'", 0, [False, 0]),
        ],
        ids=["re-null", "re-list", "re-string", "re-bool", "im-null", "tolerance-nan",
             "tolerance-infinity", "tolerance-bool", "modes-bool", "k-bool"],
    )
    def test_malformed_table_field_named(self, tmp_path, field, where, value):
        path = write_table(
            tmp_path,
            "tmsv4.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "4"],
        )
        doc = json.loads(path.read_text())
        name = field.split()[0].strip("'")
        if where is None:
            doc[name] = value
        else:
            doc["entries"][where][name] = value
        # A non-finite tolerance must not let a broken normalization through.
        doc["entries"][0]["re"] = 5.0 if name == "tolerance" else 1.0
        path.write_text(json.dumps(doc))
        for command in ("scan", "certify"):
            code, out, err = invoke([command, "--moments", str(path)])
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith(f"error: {field}")
            assert "Traceback" not in err

    def test_moments_and_state_mutually_exclusive(self, tmp_path):
        path = write_table(
            tmp_path,
            "tmsv2.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "2"],
        )
        code, out, err = invoke(
            ["certify", "--state", "wstate", "--alpha", "0.3", "--moments", str(path)]
        )
        assert code == EXIT_USAGE
        assert "exactly one" in err

    def test_state_flags_the_state_does_not_read_refused(self):
        code, out, err = invoke(
            ["certify", "--state", "tmsv", "--r", "0.5", "--modes", "4", "--nbar", "0.3",
             "--alpha", "0.2"]
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --state tmsv does not read --modes, --alpha, --nbar\n"

    def test_state_flags_refused_with_a_table(self, tmp_path):
        path = write_table(
            tmp_path,
            "tmsv2.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "2"],
        )
        code, out, err = invoke(["certify", "--moments", str(path), "--gamma=1,2", "--r", "3"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --moments does not read --gamma, --r\n"

    def test_source_required(self):
        code, out, err = invoke(["certify"])
        assert code == EXIT_USAGE
        assert "exactly one" in err

    def test_alpha_list_must_match_modes(self):
        code, out, err = invoke(
            ["certify", "--state", "wstate", "--alpha", "0.3,0.2", "--modes", "4"]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["certify", "moments-gen"])
    @pytest.mark.parametrize("modes", ["0", "-2"])
    def test_mode_count_below_one_refused(self, command, modes):
        code, out, err = invoke(
            [command, "--state", "wstate", "--alpha", "0.3", "--modes", modes]
        )
        assert (code, out, err) == (EXIT_USAGE, "", "error: --modes must be >= 1\n")

    @pytest.mark.parametrize("modes, count", [
        (11, "678569 decompositions"),
        (12, "4213596 decompositions"),
        (30, "536870911 cuts"),
    ])
    def test_enumerations_above_the_cap_refused_before_the_first_cut(self, monkeypatch,
                                                                     modes, count):
        # The report would list every excluded decomposition: too many are refused up front.
        def certify_full(*args):
            raise AssertionError("a cut was tested before the refusal")
        monkeypatch.setattr("ptmoments.cli.certify_full", certify_full)
        code, out, err = invoke(["certify", "--state", "wstate", "--alpha", "0.3",
                                 "--modes", str(modes)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: would enumerate {count}, above the cap 200000\n"

    @pytest.mark.parametrize("command", ["certify", "moments-gen"])
    @pytest.mark.parametrize("amplitudes", [
        ["--alpha", "0.3,0.3", "--nbar", "0,0"],
        ["--alpha", "0.3"],
    ], ids=["lists", "broadcast"])
    def test_mode_count_above_the_cap_refused_before_lists_are_built(self, command,
                                                                     amplitudes):
        # Lists of 10^12 amplitudes cannot be allocated; the "lists" form would
        # fail on their lengths, so it shows the gate without allocating.
        code, out, err = invoke([command, "--state", "wstate", *amplitudes,
                                 "--modes", "1000000000000"])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: would enumerate 1000000000000 modes, above the cap 200000\n"

    def test_scan_matrix_too_long_to_print_refused_by_its_bound(self):
        code, out, err = invoke(["certify", "--state", "coherent", "--gamma", "0.5,0.5",
                                 "--order", "1" + "0" * 3000])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: would enumerate more than 2^64 scan matrix rows, above the cap 2000\n"

    def test_alpha_broadcast_matches_explicit_list(self):
        single = invoke(["certify", "--state", "wstate", "--alpha", "0.3", "--modes", "4"])
        explicit = invoke(
            ["certify", "--state", "wstate", "--alpha", "0.3,0.3,0.3,0.3", "--modes", "4"]
        )
        assert single == explicit

    def test_output_is_deterministic(self):
        argv = ["certify", "--state", "wstate", "--alpha", "0.3", "--modes", "4"]
        assert invoke(argv) == invoke(argv)


class TestFigure1:
    def test_single_point_rows(self):
        code, out, err = invoke(["figure1", "--alphas", "0.3", "--nbars", "0"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "param,nbar,minor,I,value"
        assert len(lines) == 1 + 7
        labels = [tuple(line.split(",")[2:4]) for line in lines[1:]]
        assert labels == [
            ("d1", "1"),
            ("d1", "2"),
            ("d1", "3"),
            ("d1", "1+2+3"),
            ("d2", "1+2"),
            ("d2", "1+3"),
            ("d2", "2+3"),
        ]
        values = [float(line.split(",")[4]) for line in lines[1:]]
        assert all(v < 0 for v in values), "symmetric four-mode state shows negativity"

    def test_grid_size_and_vacuum_point(self):
        code, out, err = invoke(["figure1", "--alphas", "0,0.3", "--nbars", "0,0.01"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 1 + 2 * 2 * 7
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"]
        assert float(first[4]) == 0.0

    def test_csv_written_to_file(self, tmp_path):
        path = tmp_path / "fig.csv"
        code, out, err = invoke(
            ["figure1", "--alphas", "0.3", "--nbars", "0", "--out", str(path)]
        )
        assert code == EXIT_OK
        assert out == ""
        text = path.read_text()
        assert text.startswith("param,nbar,minor,I,value\n")
        assert text.endswith("\n")

    def test_default_grid_is_21_points_from_0_to_1(self):
        code, out, err = invoke(["figure1", "--nbars", "0"])
        assert code == EXIT_OK
        params = [line.split(",")[0] for line in out.splitlines()[1::7]]
        assert params == [f"{0.05 * i:.12g}" for i in range(21)]

    def test_empty_alpha_grid_rejected(self):
        code, out, err = invoke(["figure1", "--alphas", "", "--nbars", "0"])
        assert code == EXIT_USAGE
        assert "alpha" in err

    def test_empty_noise_list_rejected(self):
        code, out, err = invoke(["figure1", "--alphas", "0.3", "--nbars", ""])
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err)
        assert err == "error: empty noise-level list\n"


class TestConfigFile:
    def test_config_supplies_missing_arguments(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": "tmsv", "r": 0.6, "order": 2}))
        code, out, err = invoke(["moments-gen", "--config", str(cfg)])
        assert code == EXIT_OK
        doc = json.loads(out)
        pair = [e for e in doc["entries"] if e["k"] == [1, 1] and e["l"] == [0, 0]]
        assert pair[0]["re"] == pytest.approx(math.sinh(0.6) * math.cosh(0.6), rel=1e-11)

    def test_command_line_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": "tmsv", "r": 0.6, "order": 2}))
        code, out, err = invoke(["moments-gen", "--config", str(cfg), "--r", "0.9"])
        assert code == EXIT_OK
        doc = json.loads(out)
        pair = [e for e in doc["entries"] if e["k"] == [1, 1] and e["l"] == [0, 0]]
        assert pair[0]["re"] == pytest.approx(math.sinh(0.9) * math.cosh(0.9), rel=1e-11)

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": "tmsv", "r": 0.6, "bogus": 1}))
        code, out, err = invoke(["moments-gen", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "bogus" in err

    @pytest.mark.parametrize("command", ["moments-gen", "scan", "certify", "figure1"])
    def test_every_long_flag_is_a_config_key(self, tmp_path, command):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        keys = [
            option[2:]
            for action in commands.choices[command]._actions
            for option in action.option_strings
            if option.startswith("--") and option not in ("--help", "--config")
        ]
        assert "out" in keys
        cfg = tmp_path / "cfg.json"
        # Null leaves an option unset, so the command runs as if bare.
        cfg.write_text(json.dumps(dict.fromkeys(keys)))
        assert invoke([command, "--config", str(cfg)]) == invoke([command])
        cfg.write_text(json.dumps({"config": str(cfg)}))
        code, out, err = invoke([command, "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "unknown config keys: ['config']" in err

    @pytest.mark.parametrize(
        "path, flag, has_config", CHECKED_FLAGS,
        ids=[" ".join(path) + " " + flag for path, flag, _ in CHECKED_FLAGS],
    )
    def test_value_a_flag_refuses_exits_2(self, tmp_path, path, flag, has_config):
        code, out, err = invoke([*path, f"{flag}=zebra"])
        assert code == EXIT_USAGE
        assert f"argument {flag}: " in err
        assert "Traceback" not in err
        if has_config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: "zebra"}))
            assert invoke([*path, "--config", str(cfg)]) == (code, out, err)

    @pytest.mark.parametrize(
        "config",
        [{"order": [1, 2]}, {"max_minor_size": {"a": 1}}, {"order": True}],
        ids=["list-for-int", "object", "bool"],
    )
    def test_wrong_typed_value_exits_2(self, tmp_path, config):
        table = write_table(
            tmp_path,
            "tmsv2.json",
            ["moments-gen", "--state", "tmsv", "--r", "0.6", "--order", "2"],
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = invoke(["scan", "--moments", str(table), "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert out == ""
        assert "Traceback" not in err
        assert ("order" if "order" in config else "max") in err

    def test_integer_path_is_a_file_name(self, tmp_path, monkeypatch):
        # {"moments": 0} names the file "0", never file descriptor 0 (stdin).
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"moments": 0}))
        code, out, err = invoke(["certify", "--config", str(cfg)])
        assert code == EXIT_IO
        assert "No such file or directory: '0'" in err

    def test_lists_fill_comma_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alphas": [0, 0.3], "nbars": [0.01]}))
        from_config = invoke(["figure1", "--config", str(cfg)])
        assert from_config == invoke(["figure1", "--alphas", "0,0.3", "--nbars", "0.01"])
        assert from_config[0] == EXIT_OK

    @pytest.mark.parametrize("command", ["scan", "certify"])
    def test_scan_tolerance_is_not_an_option(self, tmp_path, command):
        code, out, err = invoke([command, "--tol", "1e-6"])
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --tol" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-6}))
        code, out, err = invoke([command, "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "unknown config keys: ['tol']" in err

    def test_non_object_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, out, err = invoke(["moments-gen", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "JSON object" in err

    def test_invalid_json_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, out, err = invoke(["moments-gen", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err)
        assert err.startswith("error: config is not valid JSON: ")

    def test_deeply_nested_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[" * 100_000)
        code, out, err = invoke(["certify", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err)
        assert err.startswith("error: config is not valid JSON: ")

    def test_missing_config_file_is_io_error(self, tmp_path):
        code, out, err = invoke(
            ["moments-gen", "--config", str(tmp_path / "nope.json")]
        )
        assert code == EXIT_IO


class TestTopLevelErrors:
    def test_help_exits_cleanly(self):
        code, out, err = invoke(["--help"])
        assert code == EXIT_OK
        assert "usage" in out.lower()

    def test_unknown_subcommand(self):
        code, out, err = invoke(["bogus-subcommand"])
        assert code == EXIT_USAGE

    def test_no_arguments(self):
        code, out, err = invoke([])
        assert code == EXIT_USAGE

    def test_missing_moment_table_is_io_error(self):
        code, out, err = invoke(["scan", "--moments", "no_such_file.json"])
        assert code == EXIT_IO
        assert "No such file" in err

    def test_corrupt_moment_table_is_data_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code == EXIT_USAGE
        assert "JSON" in err

    @pytest.mark.parametrize("source, what", [
        (["scan", "--moments"], "moment table"),
        (["moments-gen", "--config"], "config"),
    ], ids=["table", "config"])
    def test_integer_too_long_to_convert_is_a_data_error(self, tmp_path, source, what):
        path = tmp_path / "long.json"
        path.write_text('{"modes": ' + OVERLONG_INT + "}")
        code, out, err = invoke([*source, str(path)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: {what} is not valid JSON: {int_conversion_error()}\n"

    def test_deeply_nested_moment_table_is_data_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = invoke(["scan", "--moments", str(path)])
        assert code == EXIT_USAGE
        assert out == ""
        assert_one_error_line(err)
        assert err.startswith("error: moment table is not valid JSON: ")


def _seeded_table_states(seed=301):
    """moments-gen flags of the four benchmark table states: W pure and noisy,
    a coherent product and a two-mode squeezed vacuum, drawn from ``seed``."""
    rng = random.Random(seed)
    alpha, nbar = round(rng.uniform(0.25, 0.35), 4), round(rng.uniform(0.005, 0.02), 4)
    gammas = [f"{rng.uniform(-0.6, 0.6):.3f}{rng.uniform(-0.6, 0.6):+.3f}i" for _ in range(4)]
    r = round(rng.uniform(0.4, 0.9), 4)
    return {
        "w_pure": ["--state", "wstate", "--alpha", "0.3", "--modes", "4"],
        "w_noisy": ["--state", "wstate", "--alpha", str(alpha), "--modes", "4",
                    "--nbar", str(nbar)],
        "coherent": ["--state", "coherent", "--gamma=" + ",".join(gammas)],
        "tmsv": ["--state", "tmsv", "--r", str(r)],
    }


class TestWitnessesVerifyExactly:
    """Every NPT witness ``certify`` and ``scan`` print holds for every state the table admits.

    The witness block is rebuilt from the table's JSON in exact arithmetic and
    judged with the table's tolerance box (``conftest.exact_witness_margin``),
    independently of the package's algebra and of LAPACK.
    """

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("tol", ["1e-9", "1e-3"])
    @pytest.mark.parametrize("state", ["w_pure", "w_noisy", "coherent", "tmsv"])
    def test_every_npt_witness_verifies(self, tmp_path, state, tol, order):
        path = write_table(tmp_path, "table.json", [
            "moments-gen", *_seeded_table_states()[state], "--order", str(2 * order),
            "--tol", tol])
        doc = json.loads(path.read_text())
        witnesses = set()
        for strategy in STRATEGIES:
            budget = ["--moments", str(path), "--order", str(order), "--strategy", strategy]
            code, out, err = invoke(["certify", *budget])
            assert code in (EXIT_OK, EXIT_NO_CERTIFICATE), err
            found = [cut["minor"] for cut in json.loads(out)["bipartitions"] if cut["minor"]]
            code, out, err = invoke(["scan", *budget])
            assert code in (EXIT_OK, EXIT_NO_NEGATIVITY), err
            assert json.loads(out)["findings"] == found
            witnesses |= {(tuple(minor["I"]), tuple(minor["R"]), minor["det"]) for minor in found}
        for members, positions, printed in sorted(witnesses):
            det, bound = exact_witness_margin(doc, members, positions)
            assert det + bound < 0, (members, positions, float(det), float(bound))
            assert float(det) == pytest.approx(printed, rel=1e-9)
            # Untransposed, the same rows are a state's own minor: never refuted.
            det, bound = exact_witness_margin(doc, (), positions)
            assert det + bound >= 0, (positions, float(det), float(bound))
        if state in ("w_pure", "tmsv"):
            assert witnesses
