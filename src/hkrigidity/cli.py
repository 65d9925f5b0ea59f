"""Command line entry point.

Subcommands: rigidity (per-character certification sweep), invariants
(closed-form surface invariants), checks (consistency battery), cb (iterated
line-configuration census).  Report bodies are deterministic; timings are
printed to stderr only.  Exit codes: 0 success / rigid, 1 obstruction or
failed check, 2 unresolved problems, 3 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import cb_arrangements as cb
from . import replay as replay_mod
from . import reports
from .characters import classify_logset
from .invariants import (
    closed_form,
    euler_by_stratification,
    histogram_chi_sum,
    problem_histogram,
    rigidity_report,
)
from .picard import verify_dependencies
from .registry import RegistryFormatError, default_registry, load_path

# Largest exponent rigidity accepts.  Time grows as n^5, for the survivor
# filter in orbit mode (it reads the codes of about one 3-digit prefix in
# twenty) and for the problem keys of every character with --full; both
# sweep fixed-size blocks of characters, so the peak RSS stays below 80 MB.
# On a 2-vCPU machine n = 40 takes about 2.6 s in orbit mode (53 MB peak
# RSS) and 52 s with --full, so a larger n is refused before any work
# starts.
MAX_EXPONENT = 40

# Largest number of characters, the sum of n^5 over its exponents, that one
# rigidity command accepts: twice the work of n = MAX_EXPONENT in either
# mode.  A range beyond it, such as 2..40 (about 7.3e8 characters), is
# refused before any work starts.
MAX_CHARACTERS = 2 * MAX_EXPONENT ** 5

# Largest exponent checks accepts.  It keys all n^5 characters once, in numpy
# blocks, and its replay proves each distinct problem once.  On a 2-vCPU
# machine 8..8 takes about 0.45 s (49 MB peak RSS), and n = 16 about 1.4 s in
# process, 0.65 s of it the sweep.  The bound stays 8, so the refusal tests
# and CI keep their 4..9 input.
MAX_CHECKS_EXPONENT = 8

# Largest level cb accepts.  One arrangement grows through the levels, so a
# command crosses each pair of the top level's lines once, reads every
# level's census flags as it passes, and sorts the points of printed levels
# only: on a 2-vCPU machine level 32 takes about 0.025 s and level 64 about
# 0.10 s (40 MB peak RSS) in process.  The propositions are checked once per
# level along the same walk, so a range costs its top level plus the reports
# it prints: 0..64 takes about 0.35 s.
MAX_CB_LEVEL = 64

# Largest exponent invariants accepts.  Each exponent of a range is computed
# and its report kept until the end; 2..10000 takes about a second.
MAX_INVARIANT_EXPONENT = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse signals usage errors with exit code 2; remap to 3 so code 2
    stays reserved for unresolved problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _parse_range(text: str):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"expected A..B, got {text!r}")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _check_bounds(parser, ns, minimum, maximum):
    if ns[0] < minimum:
        parser.error(f"exponent must be at least {minimum}")
    if ns[-1] > maximum:
        parser.error(f"exponent must be at most {maximum}")


def _resolve_ns(parser, args, maximum, minimum=2):
    if args.n is not None and args.n_range is not None:
        parser.error("--n and --n-range are mutually exclusive")
    if args.n is not None:
        ns = [args.n]
    elif args.n_range is not None:
        try:
            ns = _parse_range(args.n_range)
        except ValueError as exc:
            parser.error(str(exc))
    else:
        parser.error("one of --n or --n-range is required")
    _check_bounds(parser, ns, minimum, maximum)
    return ns


def _add_n_args(sub):
    sub.add_argument("--n", type=int, default=None, help="single exponent")
    sub.add_argument(
        "--n-range", default=None, metavar="A..B", help="inclusive exponent range"
    )
    sub.add_argument("--json", action="store_true", help="emit JSON to stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="hkrigidity")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    rig = subs.add_parser("rigidity", help="certify all characters at exponent n")
    _add_n_args(rig)
    rig.add_argument(
        "--full",
        action="store_true",
        help="key every character, not one per symmetry orbit; the same report",
    )
    # --jobs has no effect: full mode runs in one process.  It still parses,
    # with its positivity check, so existing command lines keep working.
    rig.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    rig.add_argument(
        "--registry", default=None, metavar="PATH", help="alternate axiom registry"
    )
    rig.add_argument("--csv", action="store_true", help="emit the tally as CSV")

    inv = subs.add_parser("invariants", help="closed-form surface invariants")
    _add_n_args(inv)

    chk = subs.add_parser("checks", help="consistency battery")
    chk.add_argument(
        "--n-range", default="4..6", metavar="A..B", help="exponent range to sweep"
    )
    chk.add_argument("--json", action="store_true", help="emit JSON to stdout")
    chk.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    cbp = subs.add_parser("cb", help="iterated line-configuration census")
    _add_n_args(cbp)
    cbp.add_argument(
        "--emit-svg", default=None, metavar="PATH", help="write a picture of level n"
    )

    return parser


def _write_body(args, payloads, texts) -> None:
    """Write the report: with --json one payload, or a list of them for a
    range; otherwise the texts one after another."""
    if args.json:
        body = payloads[0] if len(payloads) == 1 else payloads
        sys.stdout.write(reports.to_json(body))
    else:
        sys.stdout.write("".join(texts))


def _cmd_rigidity(parser, args) -> int:
    if args.csv and args.json:
        parser.error("--csv and --json are mutually exclusive")
    ns = _resolve_ns(parser, args, MAX_EXPONENT)
    if sum(n ** 5 for n in ns) > MAX_CHARACTERS:
        parser.error(f"--n-range sweeps more than {MAX_CHARACTERS} characters")
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    if args.registry is not None:
        try:
            registry = load_path(args.registry)
        except (OSError, UnicodeDecodeError, RegistryFormatError) as exc:
            parser.error(f"--registry {args.registry}: {exc}")
    else:
        registry = default_registry()

    outs = []
    for n in ns:
        t0 = time.perf_counter()
        outs.append(rigidity_report(n, registry, orbit_mode=not args.full))
        print(
            f"rigidity n={n}: {time.perf_counter() - t0:.2f}s", file=sys.stderr
        )
    if args.csv:
        sys.stdout.write(reports.rigidity_csv(outs))
    else:
        _write_body(args, [reports.rigidity_payload(r) for r in outs],
                    [reports.rigidity_text(r) for r in outs])
    # obstruction outranks unresolved outranks rigid
    return max((report.exit_code for report in outs), key=(0, 2, 1).index)


def _cmd_invariants(parser, args) -> int:
    ns = _resolve_ns(parser, args, MAX_INVARIANT_EXPONENT)
    payloads, texts = [], []
    for n in ns:
        inv = closed_form(n)
        strat = euler_by_stratification(n)
        payloads.append(reports.invariants_payload(inv, strat))
        texts.append(reports.invariants_text(inv, strat))
    _write_body(args, payloads, texts)
    return 0 if all(p["stratification_ok"] for p in payloads) else 1


# A rank exception depends only on the log-pole set and n, and its prediction
# only on the twist, so each distinct problem counts for all of its characters
# and each distinct log-pole set is classified once per call.  The zero
# character's log-pole set, all ten lines, has full rank.
def _rank_exception_sweep(n: int, hist: dict) -> tuple:
    checked = failures = 0
    classified = {}
    for prob, (count, _, _) in hist.items():
        if prob.logset not in classified:
            classified[prob.logset] = classify_logset(prob.logset, n)
        exc = classified[prob.logset]
        if exc is None:
            continue
        checked += count
        if exc.predicted_twists is not None and prob.twist not in exc.predicted_twists:
            failures += count
    return checked, failures


def _cmd_checks(parser, args) -> int:
    try:
        ns = _parse_range(args.n_range)
    except ValueError as exc:
        parser.error(str(exc))
    _check_bounds(parser, ns, 3, MAX_CHECKS_EXPONENT)

    results = []

    t0 = time.perf_counter()
    table = replay_mod.build_table()
    if args.inject_fault:
        table[min(table)] += 1
    ok = replay_mod.validate_table(table)
    detail = "100 products recomputed" if ok else "table entry mismatch"
    results.append(("intersection_table", ok, detail))

    dep = verify_dependencies()
    results.append(
        (
            "dependency_census",
            dep.passed and not dep.counterexamples,
            f"{dep.checked} subsets, {len(dep.counterexamples)} counterexamples",
        )
    )

    # One full-mode histogram per exponent feeds the rank, invariant and chi
    # rows: block_geometry checks every per-character invariant while it keys
    # (see character_invariant_suite), and chi is summed over all n^5
    # characters.  Each histogram is dropped before the next is built.
    deficient = mismatches = keyed = 0
    chi_ok = True
    for n in ns:
        hist = problem_histogram(n, orbits=False)
        checked, failed = _rank_exception_sweep(n, hist)
        deficient, mismatches = deficient + checked, mismatches + failed
        keyed += sum(count for count, _, _ in hist.values())
        chi_ok = chi_ok and histogram_chi_sum(hist) == closed_form(n).chi_theta
        del hist
    results.append(("rank_exceptions", mismatches == 0,
                    f"{deficient} deficient characters, {mismatches} mismatches"))
    bad = abs(sum(n ** 5 for n in ns) - keyed)
    results.append(
        ("character_invariants", bad == 0, f"{keyed} characters, {bad} failures")
    )

    results.append(("chi_character_sum", chi_ok, f"n in {ns[0]}..{ns[-1]}"))

    # closed_form raises unless 12 divides K^2 + e, so this checks Noether too.
    ok = all(euler_by_stratification(n) == closed_form(n).euler
             for n in range(2, 21))
    results.append(("euler_and_noether", ok, "n in 2..20"))

    # The certificates rigidity_report proved at min(ns) are replayed, each
    # distinct problem once, counting for all of its orbit representatives.
    registry = default_registry()
    replayed = failed = 0
    for prob, keyed, cert in rigidity_report(min(ns), registry).records:
        if cert.kind == "unresolved":
            continue
        replayed += keyed
        if not replay_mod.replay(prob, cert, registry=registry).ok:
            failed += keyed
    results.append(
        ("certificate_replay", failed == 0, f"{replayed} replayed, {failed} failed")
    )
    print(f"checks: {time.perf_counter() - t0:.2f}s", file=sys.stderr)

    if args.json:
        sys.stdout.write(reports.to_json(reports.checks_payload(results)))
    else:
        sys.stdout.write(reports.checks_text(results))
    return 0 if all(ok for _, ok, _ in results) else 1


def _cmd_cb(parser, args) -> int:
    ns = _resolve_ns(parser, args, MAX_CB_LEVEL, minimum=0)
    if args.emit_svg is not None and len(ns) != 1:
        parser.error("--emit-svg needs a single --n")
    # One arrangement grows through levels 0..max(n, 1), crossing each pair
    # of lines once, and one proposition tracker checks each level as it
    # passes; a printed level's full report is built at that level.  The
    # propositions need every level up to max(n, 1), so level 0's report
    # waits for level 1 and is written out before level 1's is built.
    payloads, texts, picture = [], [], None
    t0 = time.perf_counter()

    def emit(report, verification):
        nonlocal t0
        print(f"cb n={report.n}: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        t0 = time.perf_counter()
        payloads.append(reports.cb_payload(report, verification))
        texts.append(reports.cb_text(report, verification))

    propositions, waiting = cb._Propositions(), None
    for m, arrangement in cb.walk(max(ns[-1], 1)):
        verification = propositions.advance(arrangement)
        if m in ns and args.emit_svg is not None:
            picture = arrangement.svg()
        if m == 0:
            waiting = arrangement.report(0) if 0 in ns else None
            continue
        if waiting is not None:
            emit(waiting, verification)
            waiting = None
        if m in ns:
            emit(arrangement.report(m), verification)
    if picture is not None:
        try:
            with open(args.emit_svg, "w", encoding="utf-8") as handle:
                handle.write(picture)
        except OSError as exc:
            parser.error(f"--emit-svg {args.emit_svg}: {exc}")
    _write_body(args, payloads, texts)
    # A level's propositions include the census of every level up to it.
    return 0 if all(p["propositions_ok"] for p in payloads) else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rigidity":
        return _cmd_rigidity(parser, args)
    if args.command == "invariants":
        return _cmd_invariants(parser, args)
    if args.command == "checks":
        return _cmd_checks(parser, args)
    if args.command == "cb":
        return _cmd_cb(parser, args)
    parser.error(f"unknown command {args.command!r}")
    return 3


if __name__ == "__main__":
    sys.exit(main())
