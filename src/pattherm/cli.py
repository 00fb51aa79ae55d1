"""Command-line front end.

Subcommands: analyze, costs, sweep, simulate, minimize. Exit codes are
stable API: 0 success, 2 parse/validation failure, 3 prescience
violation, 4 block budget or memory exceeded, 5 unifilarity required.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .causal_structure import (
    SYNC_TOL,
    as_causal,
    causal_memory,
    load_memory_file,
    synchronization_profile,
)
from .cycle_sim import SimConfig, run_cycle
from .errors import (
    BlockTooLargeError,
    DistributionError,
    KernelError,
    MachineSpecError,
    PatthermError,
    PrescienceViolationError,
    UnifilarRequiredError,
)
from .info_measures import entropy_rate, excess_entropy
from .process_model import (
    load_machine_file,
    save_machine_file,
    validate_machine,
)
from .thermo_costs import CSV_COLUMNS, Units, cycle_report, cycle_reports, format_work

EXIT_VALIDATION = 2
EXIT_PRESCIENCE = 3
EXIT_BLOCK_BUDGET = 4
EXIT_UNIFILAR = 5

# first match wins; every other PatthermError exits 1
EXIT_CODES = (
    (PrescienceViolationError, EXIT_PRESCIENCE),
    ((BlockTooLargeError, MemoryError), EXIT_BLOCK_BUDGET),
    (UnifilarRequiredError, EXIT_UNIFILAR),
    ((MachineSpecError, KernelError, DistributionError, OSError), EXIT_VALIDATION),
    (PatthermError, 1),
)


def _units_from(args) -> Units:
    if args.units == "kT":
        if args.temperature is None:
            raise MachineSpecError("--units=kT requires --temperature")
        return Units(mode="physical", temperature=args.temperature)
    return Units()


def _load(args):
    return validate_machine(load_machine_file(args.machine))


def _memory_for(machine, selector: str):
    causal = as_causal(machine)
    if selector == "causal":
        return causal_memory(causal)
    return load_memory_file(selector, causal)


def positive_int(text: str) -> int:
    """argparse type for counts and lengths: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type for seeds: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """argparse type for temperatures and tolerances: a finite float > 0."""
    value = float(text)
    if not (0.0 < value < float("inf")):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text}")
    return value


def _add_units_flags(p):
    p.add_argument("--units", choices=("bits", "kT"), default="bits",
                   help="output units: bits, or joules at temperature T")
    p.add_argument("--temperature", type=positive_float, default=None,
                   help="temperature in kelvin (required with --units=kT)")


def _add_memory_flag(p):
    p.add_argument("--memory", default="causal",
                   help="'causal' or path to a kernel/memory JSON file")


def _parse_k_range(text: str) -> range:
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise MachineSpecError(f"bad k range {text!r}: expected K or LOW:HIGH") from None
    if hi < lo or lo < 1:
        raise MachineSpecError(f"bad k range {text!r}: need 1 <= low <= high")
    return range(lo, hi + 1)


def cmd_analyze(args) -> int:
    machine = _load(args)
    causal = as_causal(machine)
    c = causal.complexity
    h = entropy_rate(causal)
    e = excess_entropy(causal.machine, L_max=args.emax, tol=args.etol)
    mem = causal_memory(causal)
    profile = synchronization_profile(mem, args.sync_depth)
    print(f"machine: {machine.n_states} states, "
          f"{len(machine.alphabet)} symbols, "
          f"{'unifilar' if machine.unifilar else 'non-unifilar'}")
    print(f"causal states: {causal.machine.n_states}")
    print(f"statistical complexity C = {c:.9f} bits")
    print(f"entropy rate h = {h:.9f} bits/symbol")
    flag = (f"converged at L={e.converged_at}" if e.converged
            else f"NOT converged by L={e.stopped_at}")
    print(f"excess entropy E = {e.value:.9f} bits ({flag})")
    if profile.sync_at is not None:
        print(f"synchronization: residual < {SYNC_TOL:g} at L={profile.sync_at}")
    else:
        print(f"synchronization: unsynchronized at L={args.sync_depth}")
    for L, residual in profile.entries:
        print(f"  L={L}  residual {residual:.9f} bits")
    return 0


def cmd_costs(args) -> int:
    machine = _load(args)
    mem = _memory_for(machine, args.memory)
    units = _units_from(args)
    report = cycle_report(mem, args.k)
    if args.csv:
        print(",".join(CSV_COLUMNS))
        print(",".join(report.csv_row(units)))
        return 0
    u = units.label
    fmt = lambda v: format_work(v, units)  # noqa: E731
    print(f"k = {report.k}, memory = {report.memory_id}"
          f"{' (causal minimum)' if report.minimal else ' (non-minimal)'}")
    print(f"W_tape        = {fmt(report.w_tape)} {u}")
    print(f"W_diss (eq2)  = {fmt(report.w_diss_eq2)} {u}")
    print(f"W_diss (eq3)  = {fmt(report.w_diss_eq3)} {u}")
    print(f"W_diss (eq5)  = {fmt(report.w_diss_eq5)} {u}")
    print(f"W_out         = {fmt(report.w_out)} {u}")
    print(f"W_diss limit  = {fmt(report.w_diss_limit)} {u} (H(R) - E)")
    print(f"net cycle cost = {fmt(report.net)} {u}")
    return 0


def cmd_sweep(args) -> int:
    machine = _load(args)
    mem = _memory_for(machine, args.memory)
    units = _units_from(args)
    rows = cycle_reports(mem, _parse_k_range(args.k_range))
    lines = [",".join(CSV_COLUMNS)]
    for report in rows:
        lines.append(",".join(report.csv_row(units)))
    limit = format_work(rows[-1].w_diss_limit, units)
    lines.append(f"limit,,,,,,{limit},{units.label},{rows[-1].memory_id}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_simulate(args) -> int:
    machine = _load(args)
    mem = _memory_for(machine, args.memory)
    cfg = SimConfig(memory=mem, k=args.k, n_blocks=args.blocks, seed=args.seed)
    trace, ledger = run_cycle(cfg)
    h_cond, n_sym = ledger.empirical_conditional_entropy()
    h_sym, _ = ledger.empirical_symbol_entropy()
    print(f"blocks = {ledger.block_count}, k = {args.k}, seed = {args.seed}")
    print(f"analytic per block: W_tape {ledger.w_tape_per_block:.9f}  "
          f"W_diss {ledger.w_diss_per_block:.9f}  W_out {ledger.w_out_per_block:.9f} bits")
    print(f"battery balance = {ledger.battery_balance():.9f} bits "
          f"(net cost {ledger.cumulative_net():.9f})")
    h_analytic = entropy_rate(mem.base)
    print(f"empirical H(X|R) = {h_cond:.9f} bits over {n_sym} symbols "
          f"(analytic {h_analytic:.9f})")
    print(f"empirical H(X) = {h_sym:.9f} bits")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            trace.to_csv(fh)
    else:
        trace.to_csv(sys.stdout)
    return 0


def cmd_minimize(args) -> int:
    machine = _load(args)
    causal = as_causal(machine)
    save_machine_file(causal.machine, args.output)
    print(f"minimized {machine.n_states} -> {causal.machine.n_states} states "
          f"({args.output})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pattherm",
        description="Thermodynamic work costs of generating and extracting "
                    "patterns with predictive memories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="statistical complexity, entropy rate, "
                                       "excess entropy, synchronization")
    p.add_argument("machine", help="machine JSON file")
    p.add_argument("--emax", type=positive_int, default=12,
                   help="max block length for excess-entropy convergence")
    p.add_argument("--etol", type=positive_float, default=1e-9,
                   help="excess-entropy convergence tolerance")
    p.add_argument("--sync-depth", type=positive_int, default=6,
                   help="synchronization profile depth")
    p.set_defaults(func=cmd_analyze)

    cost_columns = "CSV columns: " + ",".join(CSV_COLUMNS)
    p = sub.add_parser("costs", help="cost report for one stride k",
                       epilog=cost_columns)
    p.add_argument("machine")
    _add_memory_flag(p)
    p.add_argument("-k", type=positive_int, required=True, help="block stride")
    p.add_argument("--csv", action="store_true", help="emit the CSV row")
    _add_units_flags(p)
    p.set_defaults(func=cmd_costs)

    p = sub.add_parser("sweep", help="cost CSV over a range of strides",
                       epilog=cost_columns + "; the final row is labelled "
                       "'limit' and carries the analytic H(R) - E")
    p.add_argument("machine")
    _add_memory_flag(p)
    p.add_argument("--k-range", required=True,
                   help="stride range low:high (inclusive) or a single k")
    p.add_argument("-o", "--output", default=None, help="output CSV path")
    _add_units_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo cycle with work ledger",
                       epilog="trace CSV columns: "
                       "block_index,symbols,gen_state_before,gen_state_after,"
                       "ext_state_before,ext_state_after,battery_balance_bits")
    p.add_argument("machine")
    _add_memory_flag(p)
    p.add_argument("-k", type=positive_int, required=True)
    p.add_argument("-n", "--blocks", type=positive_int, required=True)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("-o", "--output", default=None, help="trace CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("minimize", help="write the minimal causal presentation")
    p.add_argument("machine")
    p.add_argument("-o", "--output", required=True, help="output machine file")
    p.set_defaults(func=cmd_minimize)
    return parser


PARSER = build_parser()  # parse_args keeps no state, so every main call shares it


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    with warnings.catch_warnings():
        # one stderr line per warning, without the source location
        warnings.showwarning = lambda message, *_: print(
            f"warning: {message}", file=sys.stderr
        )
        try:
            return args.func(args)
        except (PatthermError, OSError, MemoryError) as exc:
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
