"""Command-line front end.

Subcommands: bound, table, gaps, genus, mult, compare, selftest.  JSON is the
default output format; text output is rendered from the same JSON document so
content never diverges; `table` additionally speaks CSV.  All randomness is
seeded (default seed printed with the output), and identical argv produces
byte-identical output.  JSON replies (error replies included) and emitted
tensors come from one emitter, `jsonout.dumps`, byte-identical to
`json.dumps(doc, indent=2)`.  Each `main` call builds its own argument
parser, and of the subcommand parsers only the one its argv names (see
`_build_parser`).

Exit codes: 0 success, 1 usage error, 2 infeasible input or failed
precondition (structured report on stdout), 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import operator
import re
import shutil
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Callable, Sequence

from . import bounds, curves, jsonout, multiplier, primes
from .bounds import InfeasiblePipelineError
from .multiplier import DEFAULT_SEED, InfeasiblePlanError, VerificationError
from .primes import DEFAULT_SIEVE_LIMIT
from .selftest import run_selftest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3

CSV_HEADER = [
    "p", "n", "field", "method", "value_real", "value_int", "valid",
    "policy", "l_k", "l_k1", "genus", "caveats",
]


def _parse_int(text: str) -> int:
    """int(text), also past int()'s limit on the digits it converts from text
    (4300 by default).  int() itself checks the text with each run of digits
    cut to one digit, so exactly its texts pass; Decimal reads the value."""
    int(re.sub(r"\d+", "0", text))
    return int(Decimal(text.strip().replace("_", "")))


def _parse_alpha(text: str) -> Fraction:
    """Fraction(text), also past int()'s limit on the digits it converts from
    text.  As in _parse_int, Fraction checks the text with each run of digits
    cut to one digit, so exactly its texts pass; the value is read from the
    integers of C/D, or through Decimal."""
    try:
        Fraction(re.sub(r"\d+", "1", text))
        num, slash, den = text.partition("/")
        if slash:
            return Fraction(_parse_int(num), _parse_int(den))
        return Fraction(Decimal(text.strip().replace("_", "")))
    except (ValueError, ZeroDivisionError, InvalidOperation) as exc:
        raise ValueError(f"cannot parse alpha {text!r}: expected C/D") from exc


def _policy_builder(args) -> Callable[[], primes.GapPolicy]:
    """Check the policy arguments and return the policy's builder.  The
    empirical policy's gap scan is the costly step of a bound request, so a
    caller builds it only after its own argument checks have passed."""
    name = args.policy
    if name == "dudek":
        if args.alpha is not None:
            raise ValueError("alpha is fixed at 2/3 by the dudek policy")
        return primes.GapPolicy.dudek
    if name == "bhp":
        if args.alpha is not None:
            raise ValueError("alpha is fixed at 21/40 by the bhp policy")
        return primes.GapPolicy.bhp
    alpha = _parse_alpha(args.alpha) if args.alpha else Fraction(2, 3)
    primes.check_gap_scan(args.sieve_limit, alpha)
    return functools.partial(bounds.empirical_policy, alpha, args.sieve_limit)


def _render_text(doc, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key, val in doc.items():
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
        return "\n".join(lines)
    if isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(val, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(val)}")
        return "\n".join(lines)
    return f"{pad}{json.dumps(doc)}"


def _emit(doc, fmt: str) -> str:
    if fmt == "json":
        return jsonout.dumps(doc) + "\n"
    if fmt == "text":
        return _render_text(doc) + "\n"
    raise ValueError(f"format {fmt!r} not supported for this command")


def _row(**values) -> dict:
    """A table row: every CSV_HEADER key in header order, empty unless given."""
    row = dict.fromkeys(CSV_HEADER, "")
    row.update(values)
    return row


def _report_row(report: bounds.BoundReport, policy: str) -> dict:
    row = _row(
        p=report.p, n=report.n, field=report.field, method=report.method,
        value_real=report.value_real, value_int=report.value_int,
        valid=report.valid_unconditional, policy=policy, caveats="; ".join(report.caveats),
    )
    if report.witnesses is not None:
        row["l_k"] = report.witnesses.pair.l_k
        row["l_k1"] = report.witnesses.pair.l_k1
        row["genus"] = report.witnesses.curve.genus
    return row


def _cmd_bound(args) -> tuple[str, int]:
    build_policy = _policy_builder(args)
    bounds.check_cell(args.p, args.n, args.method)
    policy = build_policy()
    if args.method == "closed":
        closed = bounds.closed_form_quadratic if args.field == "p2" else bounds.closed_form_prime
        return _emit(closed(args.p, args.n, policy).to_json_dict(), args.format), EXIT_OK
    if args.method == "constructive":
        report = bounds.constructive_bound(args.p, args.n, args.field, policy)
        return _emit(report.to_json_dict(), args.format), EXIT_OK
    # method == "all": the closed form plus the constructive route, which may
    # legitimately be infeasible at small n and is then reported in place
    cell = bounds.evaluate_cell(args.p, args.n, args.field, policy)
    doc = {"p": args.p, "n": args.n, "field": args.field, "reports": [r.to_json_dict() for r in cell]}
    return _emit(doc, args.format), EXIT_OK


def _table_rows(args) -> list[dict]:
    build_policy = _policy_builder(args)
    for p in args.p_set:
        primes.check_characteristic(p)
    primes.check_gap_scan(args.sieve_limit, Fraction(2, 3))  # constructive rows' label; never scanned
    lo, hi, step = args.n_range
    bounds.check_cell(args.p_set[0], lo)  # the first cell to fail, if any does
    bounds.check_cell(args.p_set[0], hi - (hi - lo) % step)  # the last n of the range
    policy = build_policy()
    rows = []
    for p in args.p_set:
        for n in range(lo, hi + 1, step):
            for field, variants in bounds.COMPARATORS.items():
                for variant in variants:
                    pb = bounds.prior_bound(variant, p, n)
                    rows.append(_row(
                        p=p, n=n, field=field, method=f"prior_{variant}", value_real=pb.value_real,
                        value_int=math.floor(pb.value_real), valid=True,
                    ))
                # the constructive bound does not depend on the policy
                closed, constructive = bounds.evaluate_cell(p, n, field, policy)
                rows.append(_report_row(closed, policy.name))
                if isinstance(constructive, InfeasiblePipelineError):
                    rows.append(_row(
                        p=p, n=n, field=field, method="constructive", valid=False,
                        policy="empirical", caveats=f"infeasible: {constructive.failed_check}",
                    ))
                else:
                    rows.append(_report_row(constructive, "empirical"))
    return rows


def _cmd_table(args) -> tuple[str, int]:
    rows = _table_rows(args)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(map(operator.itemgetter(*CSV_HEADER), rows))  # _row gives every key
        return buf.getvalue(), EXIT_OK
    return _emit({"rows": rows}, args.format), EXIT_OK


def _cmd_gaps(args) -> tuple[str, int]:
    alpha = _parse_alpha(args.alpha)
    scan = primes.verify_gaps(args.limit, alpha)
    return _emit(scan.to_json_dict(include_timing=args.timing), args.format), EXIT_OK


def _cmd_genus(args) -> tuple[str, int]:
    if args.N is not None:
        if args.family is not None or args.l is not None or args.p is not None:
            raise ValueError("--N and --family/--l/--p are mutually exclusive")
        return _emit(curves.genus_X0(args.N).to_json_dict(), args.format), EXIT_OK
    if args.family is None or args.l is None or args.p is None:
        raise ValueError("family mode requires --family, --l and --p")
    data = curves.family_data(args.p, args.l)
    if data.family != args.family:
        raise ValueError(
            f"family {args.family} is inconsistent with p={args.p}; "
            f"characteristic {args.p} pairs with the {data.family} family"
        )
    return _emit(data.to_json_dict(), args.format), EXIT_OK


def _parse_verify_mode(text: str) -> tuple[str, int]:
    if text in ("auto", "exhaustive"):
        return text, multiplier.DEFAULT_TRIALS
    if text.startswith("random"):
        if text == "random":
            return "random", multiplier.DEFAULT_TRIALS
        head, _, count = text.partition(":")
        if head == "random" and count.isdigit() and int(count) > 0:
            return "random", int(count)
    raise ValueError(f"bad verify mode {text!r}: expected exhaustive, random:N or auto")


def _cmd_mult(args) -> tuple[str, int]:
    mode, trials = _parse_verify_mode(args.verify)
    algo = multiplier.build_algorithm(args.q, args.n, multiplier.plan_evaluation(args.q, args.n, args.allow_deg2))
    report = multiplier.verify(algo, mode, trials, args.seed)
    doc = {
        "q": args.q,
        "n": args.n,
        "modulus": list(algo.ext.modulus),
        "plan": algo.plan.to_json_dict(),
        "rank": algo.rank,
        "envelope": {"case": algo.plan.case, "value": algo.envelope()},
        "verification": report.to_json_dict(),
    }
    if args.emit_tensor:
        with open(args.emit_tensor, "w") as fh:
            fh.write(multiplier.emit_tensor(algo))
        doc["tensor_path"] = args.emit_tensor
    return _emit(doc, args.format), EXIT_OK


def _cmd_compare(args) -> tuple[str, int]:
    return _emit(bounds.compare_all(args.p, args.n), args.format), EXIT_OK


def _cmd_selftest(args) -> tuple[str, int]:
    buf = io.StringIO()
    code = run_selftest(buf.write, sys.stderr.write if args.timing else None)
    return buf.getvalue(), code


def _parse_p_set(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad p set {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty p set")
    return values


def _parse_n_range(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 2:
            lo, hi, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            lo, hi, step = (int(x) for x in parts)
        else:
            raise ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad n range {text!r}: expected A:B or A:B:STEP") from exc
    if lo > hi or step < 1:
        raise argparse.ArgumentTypeError(f"bad n range {text!r}")
    return lo, hi, step


_POLICY = ("--policy", {"choices": ("dudek", "bhp", "empirical"), "default": "dudek"})
_SIEVE_LIMIT = ("--sieve-limit", {"type": int, "default": DEFAULT_SIEVE_LIMIT})
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})

# Every subcommand, in the order of the usage line: its help line, its
# handler and its arguments as (flag, add_argument keywords).
_COMMANDS = {
    "bound": ("closed-form or constructive rank bound", _cmd_bound, (
        ("--p", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--field", {"choices": ("p", "p2"), "default": "p2"}),
        ("--method", {"choices": ("closed", "constructive", "all"), "default": "all"}),
        _POLICY,
        ("--alpha", {"help": "gap exponent C/D (empirical policy only)"}),
        _SIEVE_LIMIT,
        _FORMAT,
    )),
    "table": ("bound table over a (p, n) grid", _cmd_table, (
        ("--p-set", {"type": _parse_p_set, "required": True, "dest": "p_set"}),
        ("--n-range", {"type": _parse_n_range, "required": True, "dest": "n_range"}),
        _POLICY,
        ("--alpha", {}),
        _SIEVE_LIMIT,
        ("--format", {"choices": ("json", "text", "csv"), "default": "json"}),
    )),
    "gaps": ("scan successor gaps against l**alpha", _cmd_gaps, (
        ("--limit", {"type": int, "required": True}),
        ("--alpha", {"default": "2/3"}),
        ("--timing", {"action": "store_true", "help": "include runtime_ms (non-reproducible)"}),
        _FORMAT,
    )),
    "genus": ("genus of X0(N) or curve-family data", _cmd_genus, (
        ("--N", {"type": int}),
        ("--family", {"choices": ("11l", "23l")}),
        ("--l", {"type": int}),
        ("--p", {"type": int}),
        _FORMAT,
    )),
    "mult": ("build and verify a multiplication algorithm", _cmd_mult, (
        ("--q", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--allow-deg2", {"action": "store_true"}),
        ("--verify", {"default": "auto", "help": "exhaustive | random:N | auto"}),
        ("--seed", {"type": int, "default": DEFAULT_SEED}),
        ("--emit-tensor", {"metavar": "PATH"}),
        _FORMAT,
    )),
    "compare": ("rank every applicable bound method", _cmd_compare, (
        ("--p", {"type": int, "required": True}),
        ("--n", {"type": int, "required": True}),
        _FORMAT,
    )),
    "selftest": ("run the invariant suites", _cmd_selftest, (
        ("--timing", {"action": "store_true", "help": "per-suite milliseconds to stderr (non-reproducible)"}),
    )),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """A fresh argument parser for `argv`; `main` builds one per call.

    Once `argv[0]` names a subcommand, argparse hands every later token to
    that subcommand's parser, so only that one is built: 0.21 ms against
    0.85 ms for all seven (min of repeated builds, 2-core x86-64 VM,
    Python 3.11).  Any other `argv` builds all seven: none at all, `--help`
    or one of its abbreviations, an unknown command or a leading option.
    The names left unbuilt keep their place among the subparsers' `choices`,
    because the top-level usage line of an `unrecognized arguments` error
    lists every command.

    A parser shared by the calls of a process would save the build, but a
    warm `bound` call would then take about 0.3 ms, and refilling the CPU
    caches that other work evicts between calls can cost as much again, so
    timings of repeated in-process calls would follow machine load more than
    the work (2-core x86-64 VM, Python 3.11).
    """
    # argparse makes a HelpFormatter for every argument it adds, and each
    # asks for the terminal size unless given a width; ask once per parser
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="symrank",
        formatter_class=formatter,
        description="Symmetric multiplication algorithms and tensor-rank bounds "
        "for finite field extensions",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (help_line, handler, arguments) in _COMMANDS.items():
        if named not in (None, name):
            subs.choices[name] = None  # listed in usage lines, never parsed
            continue
        sub = subs.add_parser(name, help=help_line, formatter_class=formatter)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        output, code = args.fn(args)
    except (InfeasiblePipelineError, InfeasiblePlanError) as exc:
        sys.stdout.write(_emit(exc.to_json_dict(), "json"))
        return EXIT_INFEASIBLE
    except VerificationError as exc:
        sys.stdout.write(_emit(exc.to_json_dict(), "json"))
        return EXIT_VERIFICATION
    except (ValueError, OSError) as exc:
        sys.stdout.write(_emit({"error": "usage", "reason": str(exc)}, "json"))
        return EXIT_USAGE
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
