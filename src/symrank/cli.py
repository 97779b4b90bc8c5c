"""Command-line front end.

Subcommands: bound, table, gaps, genus, mult, compare, selftest.  JSON is the
default output format; text output is rendered from the same JSON document so
content never diverges; `table` additionally speaks CSV.  Nothing is drawn
at random (`mult --seed` only labels a random-mode report, which prints
it), and every argv produces byte-identical stdout each time it runs: the
`--timing` flags of `gaps` and `selftest` write their milliseconds to
stderr.  JSON replies (error replies included) and emitted tensors come
from one emitter, `jsonout.dumps`, byte-identical to
`json.dumps(doc, indent=2)`.  A well-formed argv is read straight from the
`_COMMANDS` table (`_parse_well_formed`); argparse reads every other one, so
help and usage errors are argparse's own (`_build_parser`).

Every call is a fresh process, so this module and the package import only
what a request uses: `selftest` is imported by its own command, `argparse`
and `shutil` only for an argv argparse reads, and the value types are
`record.Record` classes, not dataclasses.

Exit codes: 0 success, 1 usage error, 2 infeasible input or failed
precondition (structured report on stdout), 3 verification failure.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import os
import re
import sys
import time
import types
from collections.abc import Callable, Sequence
from decimal import Decimal, InvalidOperation
from fractions import Fraction

from . import bounds, curves, jsonout, multiplier, primes
from .bounds import InfeasiblePipelineError
from .multiplier import DEFAULT_SEED, InfeasiblePlanError, VerificationError
from .primes import DEFAULT_SIEVE_LIMIT

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3

# alpha is echoed exactly in every reply that uses it, so its terms are
# capped: 10**100000 is answered in well under a second, and the cost grows
# faster than the digits
ALPHA_DIGIT_CAP = 100_000

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
    integers of C/D, or through Decimal.

    Terms of more than ALPHA_DIGIT_CAP digits are refused before any is
    built: C and D count their significant digits, and a decimal with
    digits m and exponent e counts len(m) + |e|, which bounds the digits of
    both terms of its fraction."""
    try:
        Fraction(re.sub(r"\d+", "1", text))
        num, slash, den = text.partition("/")
        if slash:
            digits = max(len(re.sub(r"\D", "", term).lstrip("0")) for term in (num, den))
        else:
            decimal = Decimal(text.strip().replace("_", ""))
            _, mantissa, exponent = decimal.as_tuple()
            digits = len(mantissa) + abs(exponent)
        if digits <= ALPHA_DIGIT_CAP:
            return Fraction(_parse_int(num), _parse_int(den)) if slash else Fraction(decimal)
    except (ValueError, ZeroDivisionError, InvalidOperation) as exc:
        raise ValueError(f"cannot parse alpha {text!r}: expected C/D") from exc
    raise ValueError(f"alpha term of {digits} digits exceeds digit cap {ALPHA_DIGIT_CAP}")


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
    start = time.perf_counter()
    scan = primes.verify_gaps(args.limit, alpha)
    if args.timing:
        sys.stderr.write(f"gaps: scan {(time.perf_counter() - start) * 1000:.1f} ms\n")
    return _emit(scan.to_json_dict(), args.format), EXIT_OK


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
        try:
            trials = int(count) if head == "random" and count.isdecimal() else 0
        except ValueError:  # past int()'s limit on the digits it converts
            trials = 0
        if trials > 0:
            return "random", trials
    raise ValueError(f"bad verify mode {text!r}: expected exhaustive, random:N or auto")


def _write_in_place(path: str, data: bytes) -> None:
    """Write `data` as the whole content of `path`, over its old bytes.

    `open(path, "w")` truncates an existing file to zero first; rewriting
    6 KB that way took 98 us against 4 us in place (median of 300 writes,
    ext4, 2-core x86-64 VM), likely because ext4 starts writeback when a
    file truncated to zero is closed (`auto_da_alloc`).  This overwrites the
    old bytes and cuts only a longer tail.  Like `open(path, "w")` it is not
    atomic.  Special files (/dev/null, FIFOs) report size 0 and are never
    truncated."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        longer = os.fstat(fd).st_size > len(data)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if longer:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
    if args.emit_tensor is not None:
        # the tensor is ASCII (jsonout escapes the rest), so these are the
        # bytes open(path, "w") wrote
        _write_in_place(args.emit_tensor, multiplier.emit_tensor(algo).encode())
        doc["tensor_path"] = args.emit_tensor
    return _emit(doc, args.format), EXIT_OK


def _cmd_compare(args) -> tuple[str, int]:
    return _emit(bounds.compare_all(args.p, args.n), args.format), EXIT_OK


def _cmd_selftest(args) -> tuple[str, int]:
    # imported here: no other command uses the suites, and every process
    # would otherwise pay for importing them at start-up
    from .selftest import run_selftest

    buf = io.StringIO()
    code = run_selftest(buf.write, sys.stderr.write if args.timing else None)
    return buf.getvalue(), code


def _argument_type_error(message: str) -> Exception:
    # imported here: only a value argparse rejects needs it
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _parse_p_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise _argument_type_error(f"bad p set {text!r}") from exc


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
        raise _argument_type_error(f"bad n range {text!r}: expected A:B or A:B:STEP") from exc
    if lo > hi or step < 1:
        raise _argument_type_error(f"bad n range {text!r}")
    return lo, hi, step


_POLICY = ("--policy", {"choices": ("dudek", "bhp", "empirical"), "default": "dudek"})
_SIEVE_LIMIT = ("--sieve-limit", {"type": int, "default": DEFAULT_SIEVE_LIMIT})
_FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})

# Every subcommand, in the order of the usage line: its help line, its
# handler and its arguments as (flag, add_argument keywords), which both
# `_parse_well_formed` and `_build_parser` read.
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
        ("--timing", {"action": "store_true", "help": "scan milliseconds to stderr (non-reproducible)"}),
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


def _parse_well_formed(argv: Sequence[str]) -> types.SimpleNamespace | None:
    """The namespace argparse gives for `argv`, read from `_COMMANDS` with no
    parser built; None for any argv outside the shape of a well-formed call.

    That shape is a subcommand followed by exact long flags of it, each flag
    that takes a value followed by one token that does not start with "-"
    and passes the flag's type and choices, with every required flag given.
    Repeated flags keep the last value, as in argparse.  Everything else
    (help, abbreviations, --opt=value, --, values that start with "-", and
    every usage error) is declined and left to argparse, which prints the
    help or the error.  A type that raises declines too: argparse calls it
    again and reports the error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    options = dict(arguments)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value declines too
        if text.startswith("-"):
            return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except Exception:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    values = {"command": argv[0]}
    for flag, spec in arguments:
        if flag not in given and spec.get("required"):
            return None
        default = spec.get("default", False if spec.get("action") == "store_true" else None)
        values[spec.get("dest", flag.lstrip("-").replace("-", "_"))] = given.get(flag, default)
    values["fn"] = handler
    return types.SimpleNamespace(**values)


def _build_parser() -> argparse.ArgumentParser:
    """A new argument parser with all seven subcommands.  `main` builds one
    only for an argv that `_parse_well_formed` declines, so argparse runs
    for help, for the spellings it accepts beyond exact flags and for every
    usage error, and prints what it prints for them.
    """
    # imported here: a well-formed call builds no parser
    import argparse
    import shutil

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
    for name, (help_line, handler, arguments) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_line, formatter_class=formatter)
        for flag, options in arguments:
            sub.add_argument(flag, **options)
        sub.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_well_formed(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
