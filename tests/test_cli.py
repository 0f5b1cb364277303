import builtins
import gc
import hashlib
import json
import os
import select
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

import recsplit
from recsplit import cli, harness
from recsplit.cli import main
from recsplit.revir import AddConst
from recsplit.scheme import MAX_EXPR_DEPTH, eval_recursive, make_scheme

import faults

SCHEME_FLAGS = ["--delta", "-1", "--base", "x", "--step", "x+y"]


def test_run_split_prints_result(capsys):
    assert main(["run", *SCHEME_FLAGS, "--input", "3", "--mode", "split"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "y = 6"


def test_run_recursive_two_wide(capsys):
    code = main(["run", "--delta", "-2", "--base", "x", "--step", "x+y",
                 "--input", "3", "--mode", "recursive"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "y = 3"


def test_modes_agree(capsys):
    outputs = []
    for mode in ("recursive", "sequential", "split"):
        assert main(["run", "--delta", "-3", "--base", "x+1", "--step", "x*y+1",
                     "--input", "8", "--mode", mode]) == 0
        outputs.append(capsys.readouterr().out.splitlines()[0])
    assert len(set(outputs)) == 1


def test_import_loads_no_dataclasses_or_inspect():
    # every command starts a fresh interpreter, so the package imports only
    # light standard modules
    src = os.path.dirname(os.path.dirname(recsplit.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import recsplit.cli, recsplit.harness; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _decimal(value):
    """str(value), past the interpreter's int/str digit limit if it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_huge_results_print(capsys):
    # y = 3000 * y(2999) + 1 has more than 9000 digits, past CPython's 4300
    flags = ["--delta", "-1", "--base", "x", "--step", "x*y+1"]
    want = "y = " + _decimal(eval_recursive(make_scheme(-1, "x", "x*y+1"), 3000))
    assert len(want) > 4300
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    for mode in ("recursive", "sequential", "split"):
        assert main(["run", *flags, "--input", "3000", "--mode", mode]) == 0, mode
        assert capsys.readouterr().out.splitlines()[0] == want, mode
    assert main(["sweep", *flags, "--x-range", "3000:3000", "--delta-range", "-1:-1"]) == 0
    assert "1 cases, 0 failures" in capsys.readouterr().out
    if limit is not None:   # the limit is lifted for the command only
        assert sys.get_int_max_str_digits() == limit


VERBOSE_BLOCKS = {
    # divisible: the registers come back clean and the input goes out
    ("-1", "split"): """\
y = 6
s = 0
e = 0
g = 0
w = 0
x = 0
predDivX = 1
predNotDivX = 0
divisible = yes
t0 = 0
t1 = 0
t2 = 0
inject = 3
""",
    ("-2", "split"): """\
y = 3
s = 0
e = 0
g = -1
w = -2
x = 0
predDivX = 0
predNotDivX = 1
divisible = no
t0 = 0
t1 = 0
t2 = 0
inject = 5
""",
    # the classical executor keeps x and z, and has no temps or cell
    ("-2", "sequential"): """\
y = 3
s = 0
e = 0
g = -1
w = -2
x = 5
predDivX = 0
predNotDivX = 1
divisible = no
z = 0
""",
}


def test_run_verbose_prints_residuals(capsys):
    for (delta, mode), block in VERBOSE_BLOCKS.items():
        flags = ["--delta", delta, "--base", "x", "--step", "x+y", "--input", "3", "--mode", mode]
        assert main(["run", *flags, "--verbose"]) == 0
        assert capsys.readouterr() == (block, ""), (delta, mode)


def test_run_negative_input_is_usage_error(capsys):
    assert main(["run", *SCHEME_FLAGS, "--input", "-1"]) == 2
    assert "non-negative" in capsys.readouterr().err


def test_missing_scheme_fields_is_usage_error(capsys):
    assert main(["run", "--delta", "-1", "--input", "3"]) == 2
    assert "missing scheme field" in capsys.readouterr().err


def test_bad_expression_is_usage_error(capsys):
    for command in (["run", "--delta", "-1", "--input", "3"], ["check"], ["sweep"]):
        assert main([*command, "--base", "x+", "--step", "x+y"]) == 2, command
        assert "unexpected end of expression" in capsys.readouterr().err


def test_deep_expression_is_usage_error(capsys):
    base = "(" * 2000 + "x" + ")" * 2000
    assert main(["run", "--delta", "-1", "--base", base, "--step", "x+y",
                 "--input", "3"]) == 2
    assert f"column {MAX_EXPR_DEPTH}" in capsys.readouterr().err


def test_bad_delta_is_usage_error(capsys):
    assert main(["run", "--delta", "0", "--base", "x", "--step", "x+y",
                 "--input", "3"]) == 2


def test_scheme_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "scheme.txt"
    path.write_text("# demo scheme\ndelta = -1\nbase = x\nstep = x + y\n")
    assert main(["run", "--scheme", str(path), "--input", "3", "--mode", "recursive"]) == 0
    assert capsys.readouterr().out.strip() == "y = 6"
    # the flag wins over the file's delta
    assert main(["run", "--scheme", str(path), "--delta", "-2",
                 "--input", "3", "--mode", "recursive"]) == 0
    assert capsys.readouterr().out.strip() == "y = 3"


def test_lone_base_or_step_is_usage_error(tmp_path, capsys):
    path = tmp_path / "scheme.txt"
    path.write_text("delta = -1\nbase = x\n")
    for command in (["check", "--x-max", "0", "--preloads", "1"],
                    ["sweep", "--x-range", "0:1", "--delta-range", "-1:-1"]):
        for fields in (["--base", "zz"], ["--step", "x+y"], ["--scheme", str(path)]):
            assert main([*command, *fields]) == 2, (command, fields)
            captured = capsys.readouterr()
            assert "give base and step together" in captured.err
            assert captured.out == ""


def test_missing_scheme_file_is_usage_error(capsys):
    assert main(["run", "--scheme", "/no/such/file", "--input", "1"]) == 2


def test_non_utf8_scheme_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "scheme.txt"
    path.write_bytes(b"delta = -1\nbase = x\xff\nstep = x + y\n")
    assert main(["run", "--scheme", str(path), "--input", "1"]) == 2
    assert "cannot read scheme file" in capsys.readouterr().err


def test_scheme_file_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "scheme.txt"
    path.write_text("delta = -2\nbase = x\nstep = x+y\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert main(["run", "--scheme", str(path), "--input", "3"]) == 0
    assert capsys.readouterr().out == "y = 3\n"


def test_huge_delta_flag_reads_as_its_scheme_file(tmp_path, capsys):
    # 5000 digits, past the interpreter's int/str limit of 4300, which argparse meets first
    delta = "-" + "9" * 5000
    path = tmp_path / "scheme.txt"
    path.write_text(f"delta = {delta}\nbase = x\nstep = x+y\n")
    assert main(["run", "--scheme", str(path), "--input", "3", "--mode", "recursive"]) == 0
    from_file = capsys.readouterr().out
    assert main(["run", "--delta", delta, "--base", "x", "--step", "x+y",
                 "--input", "3", "--mode", "recursive"]) == 0
    assert capsys.readouterr().out == from_file
    assert len(from_file) > 5000


def test_emit_ir_dumps_program(capsys):
    assert main(["emit-ir", *SCHEME_FLAGS]) == 0
    out = capsys.readouterr().out
    assert out.count("emit probe, g") == 2
    assert "swapcell inject, x" in out
    assert "for t0 {" in out


def test_trace_file_is_jsonl(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    assert main(["run", *SCHEME_FLAGS, "--input", "2", "--trace", str(path)]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {"seq", "agent", "op", "value"} <= set(records[0])
    assert records[0]["op"] == "inject.put"


def test_trace_to_missing_directory_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "trace.jsonl"
    assert main(["run", *SCHEME_FLAGS, "--input", "2", "--trace", str(path)]) == 2
    captured = capsys.readouterr()
    assert "cannot write trace file" in captured.err
    assert "No such file or directory" in captured.err
    assert captured.out == ""     # refused before the run


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_trace_write_failure_is_usage_error(capsys):
    # /dev/full opens, but every write to it fails with ENOSPC
    assert main(["run", *SCHEME_FLAGS, "--input", "2", "--trace", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert "cannot write trace file" in captured.err
    assert captured.out == ""


def test_trace_needs_split_mode(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    for mode in ("recursive", "sequential"):
        assert main(["run", *SCHEME_FLAGS, "--input", "2", "--mode", mode,
                     "--trace", str(path)]) == 2
        assert "--trace needs --mode split" in capsys.readouterr().err
    assert not path.exists()


def test_sweep_subcommand(capsys):
    code = main(["sweep", "--x-range", "0:6", "--delta-range", "-2:-1",
                 "--base", "x", "--step", "x+y"])
    assert code == 0
    out = capsys.readouterr().out
    assert "14 cases, 0 failures" in out
    # a delta inside the range narrows the sweep to itself
    assert main(["sweep", "--x-range", "0:6", "--delta-range", "-2:-1", *SCHEME_FLAGS]) == 0
    rows = capsys.readouterr().out.splitlines()[2:-1]
    assert [row.split()[2] for row in rows] == ["-1"] * 7


def test_sweep_rejects_negative_inputs(capsys):
    assert main(["sweep", "--x-range", "-3:6", "--base", "x", "--step", "x+y"]) == 2
    assert main(["sweep", "--x-range", "0:6", "--delta-range", "-1:0",
                 "--base", "x", "--step", "x+y"]) == 2


def test_inverted_x_range_is_usage_error(capsys):
    assert main(["sweep", "--x-range", "3:1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: --x-range: 3 > 1\n"
    assert captured.out == ""


def test_negative_x_max_is_usage_error(capsys):
    assert main(["check", *SCHEME_FLAGS, "--x-max", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "usage error: --x-max must be non-negative, got -1\n"
    assert captured.out == ""


def test_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: recsplit run")


def test_split_result_off_the_recursion_exits_1(monkeypatch, capsys):
    # the recursion says one more than the consumer produced
    recursive = harness.eval_recursive
    monkeypatch.setattr(harness, "eval_recursive", lambda scheme, x0: recursive(scheme, x0) + 1)
    assert main(["run", *SCHEME_FLAGS, "--input", "3", "--mode", "split"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: consumer produced 6, recursion says 7\n"
    assert captured.out == ""


@pytest.mark.parametrize("fault", list(faults.FAULTS), ids=lambda fault: fault.__name__)
def test_split_run_names_each_failed_check(fault, monkeypatch, capsys):
    # the same checker as the sweep: one stderr line per problem, in CASE_CHECKS order
    fault(monkeypatch)
    assert main(["run", *SCHEME_FLAGS, "--input", "3", "--mode", "split"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    keys = [line.split(": ")[1] for line in captured.err.splitlines()]
    assert list(dict.fromkeys(keys)) == faults.FAULTS[fault]
    (case,) = harness.sweep_cases([3], [-1], [("x", "x+y")])
    assert captured.err == "".join(f"error: {check}: {problem}\n"
                                   for check, problems in case.failed.items() for problem in problems)


def test_check_subcommand(capsys):
    code = main(["check", "--delta", "-2", "--x-max", "8", "--preloads", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert "reversibility delta=-2" in out
    assert "0 failures" in out


def test_check_runs_one_reversibility_suite_per_delta(capsys):
    # every default pair compiles to one producer per delta
    assert main(["check", "--x-max", "0", "--preloads", "1"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("reversibility")]
    assert lines == [f"reversibility delta={delta}: 1/1 preloads restored [ok]"
                     for delta in cli.DEFAULT_DELTAS]


def test_bad_timeout_is_usage_error(capsys):
    commands = (
        ["run", *SCHEME_FLAGS, "--input", "3"],
        ["check", "--delta", "-1", "--x-max", "0", "--preloads", "1"],
        ["sweep", "--x-range", "0:0", "--delta-range", "-1:-1"],
    )
    for command in commands:
        for value in ("0", "-1", "nan", "inf"):
            assert main([*command, "--timeout", value]) == 2
            captured = capsys.readouterr()
            assert "timeout must be in (0, " in captured.err
            assert captured.out == ""     # refused before any run


def test_check_prints_each_preload_it_does_not_restore(monkeypatch, capsys):
    # an inverter that keeps each AddConst's sign: the sweep, which inverts
    # nothing, still passes
    monkeypatch.setattr(AddConst, "_inverse", lambda self: self)
    assert main(["check", *SCHEME_FLAGS, "--x-max", "0", "--preloads", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "reversibility delta=-1: 0/2 preloads restored [FAILED]"
    assert [line.split(": store ")[0] for line in lines[1:3]] == ["  preload[0]", "  preload[1]"]
    assert lines[3:] == ["sweep: 1 cases, 0 failures"]


def test_check_rejects_too_few_preloads(capsys):
    for value in ("0", "-3"):
        assert main(["check", "--delta", "-1", "--x-max", "0", "--preloads", value]) == 2
        captured = capsys.readouterr()
        assert "--preloads must be at least 1" in captured.err
        assert captured.out == ""


HUGE = str(10 ** 20)


@pytest.mark.parametrize(
    "command, option",
    [
        (["sweep", "--x-range", f"0:{HUGE}", "--delta-range", "-1:-1"], "--x-range"),
        (["sweep", "--x-range", "0:0", "--delta-range", f"-{HUGE}:-1"], "--delta-range"),
        (["sweep", "--x-range", f"0:{sys.maxsize}", "--delta-range", "-1:-1"], "--x-range"),
        (["check", "--x-max", HUGE, "--preloads", "1", "--delta", "-1"], "--x-max"),
        (["check", "--x-max", str(sys.maxsize), "--preloads", "1", "--delta", "-1"], "--x-max"),
        (["check", "--x-max", "0", "--preloads", HUGE, "--delta", "-1"], "--preloads"),
        (["check", "--x-max", "0", "--preloads", str(sys.maxsize), "--delta", "-1"], "--preloads"),
    ],
)
def test_huge_ranges_are_usage_errors(command, option, capsys):
    # more values than sys.maxsize: len() and list() of such a range overflow
    assert main([*command, "--base", "x", "--step", "x+y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""     # refused before any output
    assert option in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--delta-range", "-3:2"], "predecessor displacement must be <= -1, got 0"),
        (["--delta-range", "1:3"], "predecessor displacement must be <= -1, got 1"),
        (["--delta-range", "-3:2", "--base", "x+", "--step", "x"], "unexpected end of expression (column 2)"),
    ],
)
def test_first_bad_scheme_in_sweep_order_is_the_usage_error(flags, error, capsys):
    assert main(["sweep", "--x-range", "0:2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {error}\n"


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--delta", "-2", "--delta-range", "garbage"], "--delta-range must look like LO:HI, got 'garbage'"),
        (["--delta", "-2", "--delta-range", "-5:-3"], "delta -2 lies outside --delta-range -5:-3"),
        (["--scheme", "FILE", "--delta-range", "-4:-3"], "delta -2 lies outside --delta-range -4:-3"),
    ],
    ids=["malformed", "excludes-flag-delta", "excludes-file-delta"],
)
def test_explicit_delta_range_is_checked_against_the_delta(flags, error, tmp_path, capsys):
    path = tmp_path / "scheme.txt"
    path.write_text("delta = -2\n")
    flags = [str(path) if flag == "FILE" else flag for flag in flags]
    assert main(["sweep", "--x-range", "0:1", "--base", "x", "--step", "x+y", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {error}\n"


class _Stop(Exception):
    pass


def test_huge_delta_range_builds_schemes_as_its_blocks_start(monkeypatch, capsys):
    built = []

    def counted(build):
        def wrapper(*args):
            built.append(args)
            if len(built) > 8:
                raise _Stop("a scheme per delta")
            return build(*args)
        return wrapper

    def first_run(*args, **kwargs):
        raise _Stop("first run")

    monkeypatch.setattr(cli, "scheme_from_fields", counted(cli.scheme_from_fields))
    monkeypatch.setattr(harness, "make_scheme", counted(harness.make_scheme))
    monkeypatch.setattr(harness._SplitRunner, "split", first_run)
    with pytest.raises(_Stop, match="first run"):
        main(["sweep", "--x-range", "0:0", "--delta-range", f"-{10 ** 18}:-1"])
    assert len(built) <= 2 * len(cli.DEFAULT_PAIRS)
    assert capsys.readouterr().out == cli.TABLE_HEADER + "\n"


def test_sweep_prints_the_table_of_harness_sweep(capsys):
    assert main(["sweep", "--x-range", "0:6", "--delta-range", "-3:-1"]) == 0
    report = harness.sweep(range(0, 7), range(-3, 0), cli.DEFAULT_PAIRS)
    rows = [cli.table_row(case) for case in report.cases]
    summary = cli.table_summary(len(report.cases), len(report.failures))
    assert capsys.readouterr().out == "\n".join([cli.TABLE_HEADER, *rows, summary]) + "\n"


def test_sweep_table_format():
    report = harness.sweep(range(0, 3), [-1], [("x", "x+y")])
    assert cli.TABLE_HEADER.splitlines()[0].split() == ["base", "step", "delta", "x0", "ok", "detail"]
    assert [cli.table_row(case).split() for case in report.cases] == [
        ["x", "x+y", "-1", str(x0), "yes", "y", "=", str(y)] for x0, y in ((0, 0), (1, 1), (2, 3))
    ]
    assert cli.table_summary(len(report.cases), len(report.failures)) == "3 cases, 0 failures"


def test_sweep_table_shows_huge_y_as_its_digit_count():
    # str() of the last two would pass the interpreter's 4300-digit limit
    widest = 10 ** 4300
    cases = [harness.SweepCase(base="x", step="x*y+1", delta=-1, x0=0, split_y=y)
             for y in (widest - 1, widest, -widest * 10 ** 700)]
    details = [cli.table_row(case).split("yes  ")[1] for case in cases]
    assert details == ["y = " + "9" * 29 + "...", "y = <4301 digits>", "y = -<5001 digits>"]


def test_sweep_table_shows_a_failing_case_detail():
    failing = harness.SweepCase(base="x", step="x+y", delta=-1, x0=2, failed={"split": ["boom"]})
    assert cli.table_row(failing).endswith(" NO   boom")
    two = harness.SweepCase(base="x", step="x+y", delta=-1, x0=3,
                            failed={"residuals": ["a"], "protocol": ["b"]})
    assert cli.table_row(two).endswith(" NO   a; b")


@pytest.mark.parametrize("argv, digest", [
    (["sweep", "--x-range", "0:20", "--delta-range", "-4:-1"],
     "a7df8623d2225f3b0d1800b813816f69c5c90c58f4e54be1e90d8e2c6d3e81ba"),
    (["check", "--x-max", "12"],
     "4aec4bb1fe09bfe529e2adb93c485ed402f31e8445d0fa1077c2f1eacff85968"),
])
def test_sweep_and_check_print_pinned_output(argv, digest, capsys):
    # the sha256 of the whole standard output, the same on Python 3.10 to 3.13
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_sweep_prints_each_row_as_its_case_ends():
    src = str(Path(recsplit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "recsplit.cli", "sweep", *SCHEME_FLAGS,
               "--x-range", "0:1000000000000", "--delta-range", "-1:-1"]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": path}) as done:
        try:
            lines = []
            while len(lines) < 3 and select.select([done.stdout], [], [], 30)[0]:
                lines.append(done.stdout.readline())
            done.stdout.close()   # the reader leaves while the sweep goes on
            assert done.wait(timeout=30) == 141
        finally:
            done.kill()
        assert done.stderr.read() == b""
    assert lines[2].split() == [b"x", b"x+y", b"-1", b"0", b"yes", b"y", b"=", b"0"]


def test_check_keeps_only_failing_sweep_cases(monkeypatch, capsys):
    cases = []   # a weak reference to each SweepCase: records are not hashable
    kept = []
    real_init, real_split = harness.SweepCase.__init__, harness._SplitRunner.split

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        cases.append(weakref.ref(self))

    def split(runner, scheme, x0, *args):
        if x0 == 3:
            raise harness.DeadlockTimeout("stalled")
        return real_split(runner, scheme, x0, *args)

    def print_(*args, **kwargs):
        if str(args[0]).startswith("sweep:"):
            gc.collect()
            kept.append(sum(case() is not None for case in cases))
        builtins.print(*args, **kwargs)

    monkeypatch.setattr(harness.SweepCase, "__init__", init)
    monkeypatch.setattr(harness._SplitRunner, "split", split)
    monkeypatch.setattr(cli, "print", print_, raising=False)
    assert main(["check", *SCHEME_FLAGS, "--x-max", "7", "--preloads", "1"]) == 1
    assert kept == [1]
    assert "sweep: 8 cases, 1 failures\n  delta=-1 x0=3" in capsys.readouterr().out


# less than the peak of check --x-max 0 grew per 100 preloads while check kept
# every preload and case (about 59 KiB on CPython 3.11)
KEPT_PER_100_PRELOADS = 48 * 1024


def test_check_memory_does_not_grow_with_preloads(monkeypatch, capsys):
    # zero preloads keep each IR run short; what a preload and its case hold
    # does not depend on the values
    monkeypatch.setattr(harness, "PRELOAD_RANGE", (0, 0))

    def peak(preloads):
        tracemalloc.start()
        try:
            assert main(["check", *SCHEME_FLAGS, "--x-max", "0", "--preloads", str(preloads)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)   # first-use allocations
    assert abs(peak(2000) - peak(200)) < KEPT_PER_100_PRELOADS
    assert "2000/2000 preloads restored" in capsys.readouterr().out


def test_negative_x_range_is_refused_without_walking_it(capsys):
    started = time.perf_counter()
    assert main(["sweep", *SCHEME_FLAGS, "--x-range", "-1:1000000000"]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--x-range must be non-negative" in captured.err


def test_deadlock_maps_to_exit_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise harness.DeadlockTimeout("stalled")

    monkeypatch.setattr(harness, "run_split", boom)
    assert main(["run", *SCHEME_FLAGS, "--input", "3", "--mode", "split"]) == 3
    assert "stalled" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_reader_closing_early_exits_141_quietly():
    # the reader has gone before the first line is written
    src = str(Path(recsplit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "recsplit.cli", "check", "--x-max", "3", "--preloads", "2"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert done.stderr == b""
    assert done.returncode == 141
