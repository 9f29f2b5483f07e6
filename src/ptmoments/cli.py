"""Command-line front end.

Subcommands: ``moments-gen`` (tabulate moments of a built-in state),
``scan`` (search a moment table for negative minors across bipartitions),
``certify`` (full-entanglement certificate), ``figure1`` (noise sweep of
the four-mode pair minors as CSV) and ``index`` (monomial ordering
utilities).

Exit codes: 0 success / certificate granted, 2 usage or input-data error,
3 I/O failure, 4 unresolvable moments, 10 scan found no negativity,
11 certificate refused.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .certify import (
    STRATEGIES,
    SearchBudget,
    certify_full,
    four_mode_pair_groups,
    sweep,
    sweep_to_csv,
)
from .errors import MomentDataError, ResourceLimitError, UnresolvedMomentsError
from .moments import (
    TABLE_TOLERANCE,
    CoherentProductMoments,
    FockStateMoments,
    TmsvMoments,
    WStateMoments,
    WStateParams,
    _json_object,
    load_moment_table,
    moment_table_to_json,
    table_from_provider,
)
from .multiindex import MonomialIndex, _enumeration, _index, nth_multiindex, position_of
from .transpositions import _refuse_decompositions_above_cap

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MISSING_MOMENTS = 4
EXIT_NO_NEGATIVITY = 10
EXIT_NO_CERTIFICATE = 11


def parse_complex(text: str) -> complex:
    """Parse a Python complex literal, with a trailing ``i`` or ``I`` as the imaginary unit."""
    compact = text.strip().replace(" ", "")
    if compact[-1:] in ("i", "I"):
        compact = compact[:-1] + "j"
    try:
        return complex(compact)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r} (expected a+bi)") from None


def _list_of(parse):
    """Argparse type for a comma-separated list of ``parse`` values."""
    def parse_list(text: str) -> list:
        try:
            return [parse(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse_list


_complex_list = _list_of(parse_complex)
_float_list = _list_of(float)
_int_list = _list_of(int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptmoments",
        description="entanglement tests from normally ordered moments of "
                    "partially transposed states",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("moments-gen", help="tabulate moments of a built-in state")
    _add_state_options(gen)
    gen.add_argument("--order", type=int, default=2,
                     help="tabulate all moments of weight up to this order (default %(default)s)")
    gen.add_argument("--tol", type=float, default=TABLE_TOLERANCE,
                     help="tolerance recorded in the table (default %(default)s)")
    _add_common_options(gen)
    gen.set_defaults(func=_cmd_moments_gen)

    scan = commands.add_parser("scan", help="search a moment table for negative minors")
    scan.add_argument("--moments", default=None, help="moment table JSON path")
    _add_budget_options(scan)
    _add_common_options(scan)
    scan.set_defaults(func=_cmd_scan)

    cert = commands.add_parser("certify", help="full-entanglement certificate")
    cert.add_argument("--moments", default=None, help="moment table JSON path")
    _add_state_options(cert)
    _add_budget_options(cert)
    _add_common_options(cert)
    cert.set_defaults(func=_cmd_certify)

    fig = commands.add_parser("figure1", help="noise sweep of the four-mode pair minors")
    fig.add_argument("--alphas", type=_float_list, default=list(np.linspace(0.0, 1.0, 21)),
                     help="comma-separated |alpha| grid (default: 21 points from 0 to 1)")
    fig.add_argument("--nbars", type=_float_list, default="0,0.01,0.05",
                     help="comma-separated noise levels (default %(default)s)")
    _add_common_options(fig)
    fig.set_defaults(func=_cmd_figure1)

    index = commands.add_parser("index", help="monomial ordering utilities")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    nth = index_sub.add_parser("nth", help="n-th multiindex in the graded order")
    nth.add_argument("dimension", type=int)
    nth.add_argument("position", type=int)
    nth.set_defaults(func=_cmd_index_nth)
    of = index_sub.add_parser("of", help="position of a monomial such as 'a1 a2'")
    of.add_argument("monomial", type=str)
    of.add_argument("--modes", type=int, required=True)
    of.set_defaults(func=_cmd_index_of)

    return parser


def _add_state_options(parser):
    parser.add_argument("--state", choices=list(_STATES), default=None)
    parser.add_argument("--gamma", type=_complex_list, default=None,
                        help="coherent amplitudes, comma-separated a+bi")
    parser.add_argument("--modes", type=int, default=None)
    parser.add_argument("--alpha", type=_complex_list, default=None,
                        help="superposition amplitudes, comma-separated a+bi")
    parser.add_argument("--nbar", type=_float_list, default=None,
                        help="mean thermal photons, comma-separated (default 0)")
    parser.add_argument("--r", type=float, default=None, help="squeezing parameter")
    parser.add_argument("--fock-file", type=str, default=None,
                        help=".npy file with a ket vector or density matrix")
    parser.add_argument("--cutoffs", type=_int_list, default=None,
                        help="comma-separated Fock cutoffs for --fock-file")


def _add_budget_options(parser):
    parser.add_argument("--order", type=int, default=None,
                        help="monomial weight cap of the scan matrix (default: half a "
                             f"table's weight clamped to 1..2, or {SearchBudget.max_order} "
                             "for --state)")
    parser.add_argument("--max-minor-size", type=int, default=SearchBudget.max_minor_size,
                        help="largest witness minor reported (default %(default)s)")
    parser.add_argument("--strategy", choices=STRATEGIES,
                        default=SearchBudget.strategy,
                        help="witness search: eigenvalue scan, pair minors or both "
                             "(default %(default)s)")


def _add_common_options(parser):
    parser.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file whose keys mirror the long flags; "
                             "the command line wins")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _config_flags(args) -> list[str]:
    """The --config file's keys as ``--key=value`` flags, for argparse to check.

    A list is joined with commas and null leaves the option unset; a bool
    or an object has no flag form and is refused.
    """
    with open(args.config, "r", encoding="utf-8") as handle:
        config = _json_object(handle.read(), "config")
    allowed = set(vars(args)) - {"command", "func", "config"}
    unknown = {key for key in config if key.replace("-", "_") not in allowed}
    if unknown:
        raise MomentDataError(f"unknown config keys: {sorted(unknown)}")
    flags = []
    for key, value in config.items():
        if value is None:
            continue
        if isinstance(value, (bool, dict)):
            raise MomentDataError(f"config key {key!r} must be a string, number or list")
        if isinstance(value, list):
            value = ",".join(str(item) for item in value)
        flags.append(f"{_flag(key)}={value}")
    return flags


def _budget_from_args(args, table=None) -> SearchBudget:
    """Search budget from the flags.

    Without --order, a table sets half its weight, clamped to 1..2.  A scan
    of order k needs moments of weight 2k, so a table must reach
    weight 2 for any scan; an order-1 table still exits 4 naming the keys.
    """
    order = args.order
    if order is None:
        order = SearchBudget.max_order if table is None else max(1, min(2, table.max_order // 2))
    return SearchBudget(order, args.max_minor_size, args.strategy)


def _wstate_provider(args):
    alphas, nbars = args.alpha, [0.0] if args.nbar is None else args.nbar
    modes = args.modes if args.modes is not None else max(len(alphas), len(nbars), 2)
    modes = _enumeration(_index(modes, "--modes", 1), "modes")
    if len(alphas) == 1:
        alphas = alphas * modes
    if len(nbars) == 1:
        nbars = nbars * modes
    if len(alphas) != modes or len(nbars) != modes:
        raise ValueError("--alpha/--nbar lists must match --modes")
    return WStateMoments(WStateParams(tuple(alphas), tuple(nbars)))


# Each --state: the flags it reads, in the order errors list them, the flags it
# needs, and how its provider is built.  A state flag the source does not read is refused.
_STATES = {
    "coherent": (("gamma",), ("gamma",), lambda args: CoherentProductMoments(args.gamma)),
    "tmsv": (("r",), ("r",), lambda args: TmsvMoments(args.r)),
    "wstate": (("modes", "alpha", "nbar"), ("alpha",), _wstate_provider),
    "fock-file": (
        ("fock_file", "cutoffs"),
        ("fock_file", "cutoffs"),
        lambda args: FockStateMoments(np.load(args.fock_file), args.cutoffs,
                                      label=f"fock:{args.fock_file}"),
    ),
}


def _refuse_unread_state_flags(args, source: str, reads=()) -> None:
    unread = [
        _flag(dest)
        for state_reads, _, _ in _STATES.values()
        for dest in state_reads
        if dest not in reads and getattr(args, dest) is not None
    ]
    if unread:
        raise ValueError(f"{source} does not read {', '.join(unread)}")


def _provider_from_args(args):
    if args.state is None:
        *others, last = _STATES
        raise ValueError(f"--state is required ({', '.join(others)} or {last})")
    reads, needs, build = _STATES[args.state]
    _refuse_unread_state_flags(args, f"--state {args.state}", reads)
    if any(getattr(args, dest) is None for dest in needs):
        needed = " and ".join(map(_flag, needs))
        raise ValueError(f"{needed} must be given for --state {args.state}")
    return build(args)


def _table_provider(args):
    with open(args.moments, "r", encoding="utf-8") as handle:
        table = load_moment_table(handle)
    table.label = f"table:{args.moments}"
    return table


def _write_out(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_moments_gen(args) -> int:
    provider = _provider_from_args(args)
    table = table_from_provider(provider, args.order, tolerance=args.tol)
    _write_out(args, moment_table_to_json(table) + "\n")
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.moments is None:
        raise ValueError("--moments is required for scan")
    table = _table_provider(args)
    budget = _budget_from_args(args, table)
    outcomes = certify_full(table, budget).outcomes if table.modes >= 2 else ()
    findings = [o.minor.as_dict() for o in outcomes if o.npt]
    report = {
        "modes": table.modes,
        "budget": budget.as_dict(),
        "findings": findings,
        "inconclusive": [sorted(o.transposition.members) for o in outcomes if not o.npt],
        "note": "inconclusive sets mean no negativity within this budget, "
                "not separability",
    }
    _write_out(args, json.dumps(report, indent=2) + "\n")
    return EXIT_OK if findings else EXIT_NO_NEGATIVITY


def _cmd_certify(args) -> int:
    if (args.moments is None) == (args.state is None):
        raise ValueError("provide exactly one of --moments or --state")
    if args.moments is not None:
        _refuse_unread_state_flags(args, "--moments")
        table = provider = _table_provider(args)
    else:
        table, provider = None, _provider_from_args(args)
    # The report lists every excluded decomposition, so too many are refused before the first cut.
    _refuse_decompositions_above_cap(provider.modes)
    report = certify_full(provider, _budget_from_args(args, table))
    _write_out(args, json.dumps(report.as_dict(), indent=2) + "\n")
    return EXIT_OK if report.certificate else EXIT_NO_CERTIFICATE


def _cmd_figure1(args) -> int:
    if not args.alphas:
        raise ValueError("empty |alpha| grid")
    if not args.nbars:
        raise ValueError("empty noise-level list")
    group1, group2 = four_mode_pair_groups()

    def factory(alpha, nbar):
        return WStateMoments(WStateParams.symmetric(4, alpha, nbar))

    rows = sweep(factory, args.alphas, args.nbars, group1 + group2)
    _write_out(args, sweep_to_csv(rows))
    return EXIT_OK


def _cmd_index_nth(args) -> int:
    u = nth_multiindex(args.dimension, args.position)
    text = "(" + ",".join(str(x) for x in u) + ")"
    if args.dimension % 2 == 0:
        text += "  " + str(MonomialIndex.unpack(u))
    sys.stdout.write(text + "\n")
    return EXIT_OK


def _cmd_index_of(args) -> int:
    monomial = MonomialIndex.parse(args.monomial, args.modes)
    sys.stdout.write(f"{position_of(monomial)}\n")
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # Config flags go first so the command line's own values win.
            args = parser.parse_args(argv[:1] + _config_flags(args) + argv[1:])
        return args.func(args)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except UnresolvedMomentsError as exc:
        missing = ", ".join(str(key) for key in exc.missing)
        print(f"error: moments unresolved for keys: {missing}", file=sys.stderr)
        return EXIT_MISSING_MOMENTS
    except (ValueError, ArithmeticError, ResourceLimitError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
