"""The table parser against the argparse parser it replaced.

``cli.parse_args`` reads every command line from ``cli.COMMANDS``;
``oracles.build_parser`` is the argparse parser that read them before.
Every valid argv gives both the same namespace (the handler compared by
name), and each kind of malformed argv is refused by both.  The
deliberate differences are pinned on their own: abbreviated option names
and the ``--`` separator are refused, and help is built from the table.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from gclab.cli import COMMANDS, REQUIRED, UsageError, main, parse_args
from oracles import build_parser
from test_golden import GOLDEN

ORACLE = build_parser()


def namespace(args) -> dict:
    return {**vars(args), "func": args.func.__name__}


def oracle_parse(argv):
    """argparse's namespace for ``argv``, or its exit code when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return namespace(ORACLE.parse_args(argv))
        except SystemExit as exc:
            return exc.code


def assert_same_namespace(argv):
    assert namespace(parse_args(argv)) == oracle_parse(argv), argv


@pytest.mark.parametrize("argv", list(GOLDEN), ids=[str(i) for i in range(len(GOLDEN))])
def test_golden_commands_parse_alike(argv):
    assert_same_namespace(list(argv))


# Values as the shell hands them on: plain words, negative numbers, the
# lone "-", and the empty string.  Ones that start with "-" and are no
# number can only follow "=".
WORDS = st.one_of(st.text("ab01._/", max_size=6), st.sampled_from(["-", "-3", "-0.5"]))
DASHED = st.sampled_from(["-x", "--y", "-h"])


def value(kind):
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    if kind is int:
        return st.integers(-10**6, 10**6).map(str)
    if kind is not str:  # nonnegative_int
        return st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["+7", "007"]))
    return WORDS


@st.composite
def valid_argv(draw):
    command = draw(st.sampled_from(list(COMMANDS)))
    spec = COMMANDS[command][2]
    positionals, options = [], []
    for name, (kind, default) in spec.items():
        if default is not REQUIRED and not draw(st.booleans()):
            continue
        if not name.startswith("--"):
            positionals.append(draw(value(kind)))
            continue
        # a repeated option: argparse and the table both keep the last value
        for _ in range(draw(st.integers(1, 2))):
            if draw(st.booleans()):
                text = draw(st.one_of(value(kind), DASHED) if kind is str else value(kind))
                options.append([f"{name}={text}"])
            else:
                options.append([name, draw(value(kind))])
    # options in any order, with the positionals as one block among them
    options = draw(st.permutations(options))
    at = draw(st.integers(0, len(options)))
    blocks = options[:at] + [positionals] + options[at:]
    return [command] + [token for block in blocks for token in block]


@settings(max_examples=400, deadline=None)
@given(valid_argv())
def test_drawn_commands_parse_alike(argv):
    assert_same_namespace(argv)


TM = ["tm", "run", "m.json", "0"]
DENSITY = ["density", "--ensemble", "e.json", "--subset", "s.json", "--n-max", "3"]
CONTROL = ["control-seq", "--machine", "m.json", "--ensemble", "e.json", "--poly", "n",
           "--n-max", "3"]


@pytest.mark.parametrize("argv", [
    [],
    ["frob"],
    ["--n-max", "2", "verify", "nu-sums"],
    # a missing required option or positional
    DENSITY[:3] + DENSITY[5:],
    CONTROL[:-2],
    ["verify", "nu-sums"],
    TM[:3],
    ["reduce"],
    # an unknown option
    TM + ["--bogus", "1"],
    TM + ["-b", "1"],
    # an option with no value
    ["verify", "nu-sums", "--n-max"],
    TM + ["--budget", "--out", "o.json"],
    TM + ["--out", "-x"],
    # a bad choice
    ["tm", "walk", "m.json", "0"],
    ["reduce", "bogus", "b.json"],
    ["verify", "xx", "--n-max", "2"],
    DENSITY + ["--format", "png"],
    # a value that is not an integer
    CONTROL + ["--sample", "ten", "--seed", "1"],
    CONTROL + ["--sample", "10", "--seed", "1.5"],
    TM + ["--budget", ""],
    TM + ["--budget=x"],
    # a negative horizon or budget
    ["verify", "nu-sums", "--n-max", "-1"],
    TM + ["--budget=-5"],
    # an extra positional
    TM + ["extra"],
    ["verify", "cs", "f.json", "g.json", "--n-max", "2"],
    DENSITY + ["extra"],
])
def test_malformed_argv_is_refused_by_both(argv, capsys):
    assert oracle_parse(argv) == 2
    with pytest.raises(UsageError):
        parse_args(argv)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("gclab: ") and err.count("\n") == 1


def test_a_negative_horizon_names_the_option(capsys):
    assert main(["verify", "nu-sums", "--n-max", "-1"]) == 2
    assert capsys.readouterr().err == "gclab: argument --n-max: -1 is negative\n"


def test_abbreviations_and_the_separator_are_refused():
    """argparse completed a unique prefix and read everything after "--"
    as positionals; the table takes only exact option names."""
    for argv in (CONTROL[:-2] + ["--n", "3"], TM + ["--bud", "5"],
                 TM + ["--"], ["verify", "--n-max", "2", "--", "cs", "f.json"]):
        assert isinstance(oracle_parse(argv), dict), argv
        with pytest.raises(UsageError):
            parse_args(argv)


def test_a_fixture_may_follow_the_options():
    args = parse_args(["verify", "cs", "--n-max", "4", "f.json"])
    assert (args.check, args.fixture, args.n_max) == ("cs", "f.json", 4)


@pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [
    [command, *at] for command in COMMANDS for at in (["-h"], ["--out=o.json", "--help"])
])
def test_help_lists_the_table(argv, capsys):
    assert oracle_parse(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: gclab ")
    names = list(COMMANDS)
    if argv[0] in COMMANDS:
        names = [argv[0]] + [name for name in COMMANDS[argv[0]][2] if name[:2] == "--"]
    assert all(name in out for name in names), out


def test_main_reads_the_process_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["gclab", "verify", "nu-sums", "--n-max=2"])
    assert main() == 0
    assert '"passed": true' in capsys.readouterr().out
