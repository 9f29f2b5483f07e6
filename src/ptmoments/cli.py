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
    SearchBudget,
    certify_full,
    four_mode_pair_groups,
    sweep,
    sweep_to_csv,
)
from .errors import (
    MomentDataError,
    ResourceLimitError,
    TruncationError,
    UnresolvedMomentsError,
)
from .moments import (
    CoherentProductMoments,
    FockStateMoments,
    TableMoments,
    TmsvMoments,
    WStateMoments,
    WStateParams,
    load_moment_table,
    moment_table_to_json,
    table_from_provider,
)
from .multiindex import MonomialIndex, nth_multiindex, position_of

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MISSING_MOMENTS = 4
EXIT_NO_NEGATIVITY = 10
EXIT_NO_CERTIFICATE = 11


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` with optional real or imaginary part."""
    compact = str(text).strip().replace(" ", "")
    if not compact:
        raise ValueError("empty complex literal")
    normalized = compact.replace("I", "i").replace("i", "j")
    try:
        if normalized.endswith("j"):
            return complex(normalized)
        return complex(float(normalized), 0.0)
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r} (expected a+bi)") from None


def _complex_list(text: str) -> list[complex]:
    return [parse_complex(part) for part in str(text).split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in str(text).split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in str(text).split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptmoments",
        description="entanglement tests from normally ordered moments of "
                    "partially transposed states",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("moments-gen", help="tabulate moments of a built-in state")
    _add_state_options(gen)
    gen.add_argument("--order", type=int, default=None,
                     help="tabulate all moments of weight up to this order (default 2)")
    gen.add_argument("--tol", type=float, default=None,
                     help="tolerance recorded in the table (default 1e-9)")
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
    fig.add_argument("--alpha-max", type=float, default=None,
                     help="sweep |alpha| from 0 to this value (default 1.0)")
    fig.add_argument("--alpha-steps", type=int, default=None,
                     help="number of grid points (default 21)")
    fig.add_argument("--alphas", type=str, default=None,
                     help="explicit comma-separated |alpha| grid (overrides range flags)")
    fig.add_argument("--nbars", type=str, default=None,
                     help="comma-separated noise levels (default 0,0.01,0.05)")
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
    parser.add_argument("--state", choices=["coherent", "tmsv", "wstate", "fock-file"],
                        default=None)
    parser.add_argument("--gamma", type=str, default=None,
                        help="coherent amplitudes, comma-separated a+bi")
    parser.add_argument("--modes", type=int, default=None)
    parser.add_argument("--alpha", type=str, default=None,
                        help="superposition amplitudes, comma-separated a+bi")
    parser.add_argument("--nbar", type=str, default=None,
                        help="mean thermal photons, comma-separated (default 0)")
    parser.add_argument("--r", type=float, default=None, help="squeezing parameter")
    parser.add_argument("--fock-file", type=str, default=None,
                        help=".npy file with a ket vector or density matrix")
    parser.add_argument("--cutoffs", type=str, default=None,
                        help="comma-separated Fock cutoffs for --fock-file")


def _add_budget_options(parser):
    parser.add_argument("--order", type=int, default=None,
                        help="monomial weight cap of the scan matrix (default 2)")
    parser.add_argument("--max-minor-size", type=int, default=None,
                        help="largest witness minor reported (default 6)")
    parser.add_argument("--strategy", choices=["eigen-scan", "named-minors", "both"],
                        default=None)
    parser.add_argument("--tol", type=float, default=None,
                        help="negativity tolerance (default 1e-9)")


def _add_common_options(parser):
    parser.add_argument("--out", type=str, default=None,
                        help="output path (default: stdout)")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file whose keys mirror the long flags")


def _apply_config(args) -> None:
    """Fill unset options from --config; reject keys the command lacks."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, "r", encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as exc:
            raise MomentDataError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise MomentDataError("config must be a JSON object")
    allowed = set(vars(args)) - {"command", "func", "config"}
    unknown = {key for key in config if key.replace("-", "_") not in allowed}
    if unknown:
        raise MomentDataError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        dest = key.replace("-", "_")
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _get(args, name, default):
    value = getattr(args, name, None)
    return default if value is None else value


def _budget_from_args(args, default_order: int = 2) -> SearchBudget:
    return SearchBudget(
        max_order=int(_get(args, "order", default_order)),
        max_minor_size=int(_get(args, "max_minor_size", 6)),
        strategy=str(_get(args, "strategy", "both")),
    )


def _provider_from_args(args):
    state = _get(args, "state", None)
    if state is None:
        raise ValueError("--state is required (coherent, tmsv, wstate or fock-file)")
    if state == "coherent":
        gamma = _get(args, "gamma", None)
        if gamma is None:
            raise ValueError("--gamma is required for the coherent state")
        return CoherentProductMoments(_complex_list(gamma))
    if state == "tmsv":
        r = _get(args, "r", None)
        if r is None:
            raise ValueError("--r is required for the two-mode squeezed state")
        return TmsvMoments(float(r))
    if state == "wstate":
        alpha = _get(args, "alpha", None)
        if alpha is None:
            raise ValueError("--alpha is required for the wstate superposition")
        alphas = _complex_list(alpha)
        nbars = _float_list(str(_get(args, "nbar", "0")))
        modes = _get(args, "modes", None)
        modes = int(modes) if modes is not None else max(len(alphas), len(nbars), 2)
        if len(alphas) == 1:
            alphas = alphas * modes
        if len(nbars) == 1:
            nbars = nbars * modes
        if len(alphas) != modes or len(nbars) != modes:
            raise ValueError("--alpha/--nbar lists must match --modes")
        return WStateMoments(WStateParams(tuple(alphas), tuple(nbars)))
    if state == "fock-file":
        path = _get(args, "fock_file", None)
        cutoffs = _get(args, "cutoffs", None)
        if path is None or cutoffs is None:
            raise ValueError("--fock-file and --cutoffs are required")
        cutoffs = cutoffs if isinstance(cutoffs, list) else _int_list(cutoffs)
        return FockStateMoments(np.load(path), cutoffs, label=f"fock:{path}")
    raise ValueError(f"unknown state {state!r}")


def _table_provider(args):
    path = _get(args, "moments", None)
    with open(path, "r", encoding="utf-8") as handle:
        table = load_moment_table(handle)
    return table, TableMoments(table, label=f"table:{path}")


def _write_out(args, text: str) -> None:
    path = _get(args, "out", None)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_moments_gen(args) -> int:
    provider = _provider_from_args(args)
    order = int(_get(args, "order", 2))
    tolerance = float(_get(args, "tol", 1e-9))
    table = table_from_provider(provider, order, tolerance=tolerance)
    _write_out(args, moment_table_to_json(table) + "\n")
    return EXIT_OK


def _clamped_order(args, table) -> int:
    """Default scan order, lowered so a valid table never raises missing keys."""
    if _get(args, "order", None) is not None:
        return int(args.order)
    return max(1, min(2, table.max_order // 2))


def _cmd_scan(args) -> int:
    if _get(args, "moments", None) is None:
        raise ValueError("--moments is required for scan")
    table, provider = _table_provider(args)
    budget = _budget_from_args(args, default_order=_clamped_order(args, table))
    tol = float(_get(args, "tol", 1e-9))
    outcomes = certify_full(provider, budget, tol=tol).outcomes if table.modes >= 2 else ()
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
    has_table = _get(args, "moments", None) is not None
    has_state = _get(args, "state", None) is not None
    if has_table == has_state:
        raise ValueError("provide exactly one of --moments or --state")
    if has_table:
        table, provider = _table_provider(args)
        budget = _budget_from_args(args, default_order=_clamped_order(args, table))
    else:
        provider = _provider_from_args(args)
        budget = _budget_from_args(args)
    report = certify_full(provider, budget, tol=float(_get(args, "tol", 1e-9)))
    _write_out(args, json.dumps(report.as_dict(), indent=2) + "\n")
    return EXIT_OK if report.certificate else EXIT_NO_CERTIFICATE


def _cmd_figure1(args) -> int:
    if _get(args, "alphas", None) is not None:
        raw = args.alphas
        alphas = raw if isinstance(raw, list) else _float_list(raw)
    else:
        alpha_max = float(_get(args, "alpha_max", 1.0))
        steps = int(_get(args, "alpha_steps", 21))
        if steps < 1 or alpha_max < 0:
            raise ValueError("need at least one grid point and a nonnegative range")
        alphas = list(np.linspace(0.0, alpha_max, steps))
    if not alphas:
        raise ValueError("empty |alpha| grid")
    raw_nbars = _get(args, "nbars", None)
    if raw_nbars is None:
        nbars = [0.0, 0.01, 0.05]
    else:
        nbars = raw_nbars if isinstance(raw_nbars, list) else _float_list(raw_nbars)
    if not nbars:
        raise ValueError("empty noise-level list")
    group1, group2 = four_mode_pair_groups()

    def factory(alpha, nbar):
        return WStateMoments(WStateParams.symmetric(4, alpha, nbar))

    rows = sweep(factory, alphas, nbars, group1 + group2)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _apply_config(args)
        return args.func(args)
    except UnresolvedMomentsError as exc:
        missing = ", ".join(str(key) for key in exc.missing)
        print(f"error: moments unresolved for keys: {missing}", file=sys.stderr)
        return EXIT_MISSING_MOMENTS
    except (MomentDataError, TruncationError, ResourceLimitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
