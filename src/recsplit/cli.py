"""Command-line front end.

Subcommands: run a scheme in any of the three modes, dump the compiled
producer IR, run the reversibility + equivalence check suite, or sweep
user-specified ranges. Exit codes: 0 success, 1 check failure, 2 usage
error, 3 deadlock, 141 standard output closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
from itertools import islice

from . import harness
from .producer import compile_producer, run_sequential
from .revir import RevirError, dump
from .scheme import (
    RecursionScheme,
    SchemeError,
    check_input,
    eval_recursive,
    make_scheme,
    parse_scheme_text,
    scheme_from_fields,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEADLOCK = 3
EXIT_BROKEN_PIPE = 128 + 13   # as a shell reports a process killed by SIGPIPE

DEFAULT_PAIRS = (("x", "x+y"), ("x+1", "x*y+1"))
DEFAULT_DELTAS = range(-5, 0)


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # admit range values like -5:-1 as option arguments
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)


def _add_scheme_arguments(parser):
    parser.add_argument("--scheme", metavar="FILE", help="scheme file (key = value lines)")
    parser.add_argument("--delta", type=int, help="predecessor displacement, <= -1")
    parser.add_argument("--base", help="base expression over x")
    parser.add_argument("--step", help="step expression over x and y")


def _timeout(text: str) -> float:
    try:
        return harness.check_timeout(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser():
    parser = _ArgumentParser(
        prog="recsplit",
        description="Split a recursion scheme into a reversible producer and a "
        "classical consumer, and run or check the pieces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compute y for one input")
    _add_scheme_arguments(run_parser)
    run_parser.add_argument("--input", type=int, required=True, help="input x0, >= 0")
    run_parser.add_argument(
        "--mode",
        choices=("recursive", "sequential", "split"),
        default="split",
        help="evaluation route (default: split)",
    )
    run_parser.add_argument("--trace", metavar="PATH", help="write the channel trace of a split run as JSONL")
    run_parser.add_argument("--verbose", action="store_true", help="also print residuals")
    run_parser.set_defaults(func=_cmd_run)

    ir_parser = sub.add_parser("emit-ir", help="dump the compiled producer program")
    _add_scheme_arguments(ir_parser)
    ir_parser.set_defaults(func=_cmd_emit_ir)

    check_parser = sub.add_parser("check", help="reversibility checks plus a default sweep")
    _add_scheme_arguments(check_parser)
    check_parser.add_argument("--x-max", type=int, default=50, help="sweep inputs 0..x-max")
    check_parser.add_argument("--preloads", type=int, default=100, help="random preloads per program")
    check_parser.add_argument("--seed", type=int, default=0)
    check_parser.set_defaults(func=_cmd_check)

    sweep_parser = sub.add_parser("sweep", help="sweep ranges of inputs and displacements")
    _add_scheme_arguments(sweep_parser)
    sweep_parser.add_argument("--x-range", default="0:50", metavar="LO:HI", help="inclusive input range")
    sweep_parser.add_argument("--delta-range", metavar="LO:HI",
                              help="inclusive displacement range (default: -5:-1, or the delta given)")
    sweep_parser.set_defaults(func=_cmd_sweep)
    for command_parser in (run_parser, check_parser, sweep_parser):
        command_parser.add_argument(
            "--timeout", type=_timeout, default=harness.DEFAULT_TIMEOUT, metavar="SECONDS",
            help="cap on each timed wait of the deadlock watchdog's backstop (default: %(default)s)",
        )
    return parser


@contextlib.contextmanager
def _usage_errors(errors=SchemeError, prefix=""):
    """Report a rejection of what the user typed, or of a file they named, as a usage error."""
    try:
        yield
    except errors as exc:
        raise UsageError(f"{prefix}{exc}") from None


def _scheme_fields(args) -> dict:
    fields = {}
    if args.scheme:
        with _usage_errors((OSError, UnicodeDecodeError), "cannot read scheme file: "):
            # utf-8-sig: a byte-order mark some editors write is not part of the first key
            with open(args.scheme, encoding="utf-8-sig") as handle:
                text = handle.read()
        with _usage_errors():
            fields = parse_scheme_text(text)
    if args.delta is not None:
        fields["delta"] = str(args.delta)
    if args.base is not None:
        fields["base"] = args.base
    if args.step is not None:
        fields["step"] = args.step
    return fields


def _resolve_scheme(args) -> RecursionScheme:
    with _usage_errors():
        return scheme_from_fields(_scheme_fields(args))


def _resolve_schemes(args, deltas):
    """For check/sweep: (pairs, deltas) in sweep order, the deltas as ints.

    An explicit base/step pair narrows the default pairs, and an explicit
    delta narrows deltas, an ascending range, to itself. A base without a
    step, or the reverse, is a usage error, and so is the first scheme in
    sweep order that fails to build.
    """
    fields = _scheme_fields(args)
    if "base" in fields and "step" in fields:
        pairs = [(fields["base"], fields["step"])]
    elif "base" in fields or "step" in fields:
        raise UsageError("give base and step together, or neither for the default pairs")
    else:
        pairs = list(DEFAULT_PAIRS)
    deltas = [fields["delta"]] if "delta" in fields else deltas
    with _usage_errors():
        for base, step in pairs:
            first = scheme_from_fields({"delta": deltas[0], "base": base, "step": step}).pred.delta
            # the deltas ascend, so once the first builds, the first that cannot is 0
            if 0 in deltas:
                scheme_from_fields({"delta": 0, "base": base, "step": step})
    return pairs, [first] if "delta" in fields else deltas


def _bounded(value: int, least: int, too_few: str, too_many: str):
    """Refuse value unless least <= value < sys.maxsize, with the message of the
    bound it breaks: len() and list() of a range of more values overflow."""
    if value < least:
        raise UsageError(too_few)
    if value >= sys.maxsize:
        raise UsageError(too_many)


def _parse_span(text, name) -> range:
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(f"{name} must look like LO:HI, got {text!r}") from None
    _bounded(hi - lo, 0, f"{name}: {lo} > {hi}", f"{name} spans more than {sys.maxsize} values")
    return range(lo, hi + 1)


def _cmd_run(args) -> int:
    scheme = _resolve_scheme(args)
    with _usage_errors():
        check_input(args.input)
    trace = None
    if args.trace:
        if args.mode != "split":
            raise UsageError(f"--trace needs --mode split, the only mode with channels, not {args.mode}")
        with _usage_errors(OSError, "cannot write trace file: "):
            trace = open(args.trace, "w", encoding="utf-8")   # refuse a bad path before the run
    with trace or contextlib.nullcontext():
        residuals = None
        if args.mode == "recursive":
            y = eval_recursive(scheme, args.input)
        elif args.mode == "sequential":
            y, residuals = run_sequential(scheme, args.input)
        else:
            report = harness.run_split(scheme, args.input, timeout=args.timeout)
            y = report.y
            residuals = report.residuals
            if trace is not None:
                with _usage_errors(OSError, "cannot write trace file: "):
                    harness.write_trace_jsonl(report.channel_log, trace)
                    trace.close()   # a full disk may only show when the buffer is flushed
            failed = harness.case_failures(scheme, args.input, report)[0]
            if failed:
                for check, problems in failed.items():
                    for problem in problems:
                        print(f"error: {check}: {problem}", file=sys.stderr)
                return EXIT_CHECK_FAILED
    print(f"y = {y}")
    if args.verbose and residuals is not None:
        print(_residual_text(residuals))
    return EXIT_OK


def _residual_text(residuals: dict) -> str:
    """One `name = value` line per residual, a bool shown as yes or no."""
    # by identity, not by value: 1 == True, and predDivX = 1 is a count
    return "\n".join(f"{name} = {'yes' if value is True else 'no' if value is False else value}"
                     for name, value in residuals.items())


def _cmd_emit_ir(args) -> int:
    scheme = _resolve_scheme(args)
    print(dump(compile_producer(scheme)))
    return EXIT_OK


def _tally(cases):
    """How many cases there were, and the failing ones: all that check keeps."""
    count, failures = 0, []
    for count, case in enumerate(cases, 1):
        if not case.ok:
            failures.append(case)
    return count, failures


def _cmd_check(args) -> int:
    pairs, deltas = _resolve_schemes(args, DEFAULT_DELTAS)
    for option, value, least, floor in (("--x-max", args.x_max, 0, "non-negative"),
                                        ("--preloads", args.preloads, 1, "at least 1")):
        _bounded(value, least, f"{option} must be {floor}, got {value}",
                 f"{option} must be below {sys.maxsize}, got {value}")
    failed = False
    # the producer depends only on the displacement: one suite per delta
    for delta in deltas:
        program = compile_producer(make_scheme(delta, *pairs[0]))
        preloads = islice(harness.preload_stream(program, seed=args.seed + delta), args.preloads)
        count, failures = _tally(harness.reversibility_cases(program, preloads))
        status = "FAILED" if failures else "ok"
        print(f"reversibility delta={delta}: "
              f"{count - len(failures)}/{count} preloads restored [{status}]")
        for case in failures:
            print(f"  {case.label}: {case.problem}")
        failed = failed or bool(failures)
    count, failures = _tally(harness.sweep_cases(range(0, args.x_max + 1), deltas, pairs, timeout=args.timeout))
    print(f"sweep: {table_summary(count, len(failures))}")
    for case in failures:
        print(f"  delta={case.delta} x0={case.x0} base={case.base} step={case.step}: {case.detail}")
    return EXIT_CHECK_FAILED if failed or failures else EXIT_OK


def _cmd_sweep(args) -> int:
    span = DEFAULT_DELTAS if args.delta_range is None else _parse_span(args.delta_range, "--delta-range")
    pairs, deltas = _resolve_schemes(args, span)
    if args.delta_range is not None and deltas[0] not in span:
        raise UsageError(f"delta {deltas[0]} lies outside --delta-range {args.delta_range}")
    x_span = _parse_span(args.x_range, "--x-range")
    if x_span.start < 0:
        raise UsageError("--x-range must be non-negative")
    print(TABLE_HEADER, flush=True)
    count = failures = 0
    for count, case in enumerate(harness.sweep_cases(x_span, deltas, pairs, timeout=args.timeout), 1):
        print(table_row(case), flush=True)
        failures += not case.ok
    print(table_summary(count, failures))
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# --- the sweep table ---------------------------------------------------------------

_COLUMNS = f"{'base':<12} {'step':<12} {'delta':>5} {'x0':>4} {'ok':<4} detail"
TABLE_HEADER = f"{_COLUMNS}\n{'-' * len(_COLUMNS)}"


def table_row(case: harness.SweepCase) -> str:
    """A sweep case's line in a sweep table, under TABLE_HEADER."""
    detail = f"y = {harness.show_int(case.split_y)}" if case.ok else case.detail
    return (f"{case.base:<12} {case.step:<12} {case.delta:>5} {case.x0:>4} "
            f"{'yes' if case.ok else 'NO':<4} {detail}")


def table_summary(count: int, failures: int) -> str:
    """The one line that closes a sweep table of count cases."""
    return f"{count} cases, {failures} failures"


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift CPython's int/str digit limit (3.11, 3.10.7+) for one command:
    y has as many digits as the recursion gives it, and literals may too."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    parser = _build_parser()
    # argparse converts --delta and --input with int, so it parses unlimited too
    with _unlimited_int_digits():
        try:
            args = parser.parse_args(argv)
            status = args.func(args)
            sys.stdout.flush()   # a reader that left shows here, not at exit
            return status
        except SystemExit as exc:  # argparse --help
            return int(exc.code or 0)
        except BrokenPipeError:
            # point stdout at devnull so that the flush at exit stays quiet too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_BROKEN_PIPE
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except harness.DeadlockTimeout as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DEADLOCK
        except (harness.HarnessError, RevirError, SchemeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
