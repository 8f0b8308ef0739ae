"""cli._read_argv against argparse, over argv drawn from cli.COMMANDS.

Each argv starts well-formed: the command, its positionals, and its options
in a shuffled order with valid values.  Up to three mutations then make it
one that argparse must read: an abbreviated option, ``--opt=value``, a
repeat, a negative number or other value that starts with "-", ``--``,
``-h``, an empty string, an unknown, missing or extra token, a bad type or
choice, an int of over 4,300 digits, or a positional moved after the
options.  Wherever the table's read accepts, it must give argparse's
arguments; and on every argv, ``main`` must end, print and exit as it does
with argparse alone."""

import contextlib
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmatail import cli

ALL_FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag in options})
# values that some item refuses: bad types, other items' choices, "-" first
BAD_VALUES = ["x", "1.5", "", "bogus", "1" * 4301, "-1", "-2.5", "-0", "-inf", "-x", "--",
              *sorted({c for _, _, options in cli.COMMANDS.values()
                       for spec in options.values() for c in spec.get("choices", ())})]
ODD_TOKENS = ["-h", "--help", "-", "nan", "--bogus", *BAD_VALUES, *ALL_FLAGS]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "s.csv"
    rows = [f"2000-01-{d:02d},{(-1) ** d * 0.01 * d}" for d in range(1, 32)]
    path.write_text("date,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def _valid(name: str, spec: dict, csv: str):
    """Text that the item's type and choices take, never starting with "-"."""
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec.get("type") is int:
        return st.integers(0, 400).map(str)
    if spec.get("type") is float:
        return st.one_of(st.floats(0.0, 60.0).map(repr), st.integers(0, 10**7).map(str),
                         st.sampled_from(["inf", "nan", "1e5", " 7 ", "1_0"]))
    if name == "file":
        return st.just(csv)
    if name == "--ks":
        return st.lists(st.integers(0, 40).map(str), min_size=1, max_size=4).map(",".join)
    return st.sampled_from(["1e-5", "3.057e-138", "1e5", "0.5", "abc", "1e999999"])


@st.composite
def well_formed(draw, csv: str):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, positionals, options = cli.COMMANDS[command]
    argv = [command]
    for name, spec in positionals.items():
        if spec.get("nargs") != "?" or draw(st.booleans()):
            argv.append(draw(_valid(name, spec, csv)))
    for flag in draw(st.permutations(list(options))):
        spec = options[flag]
        if spec.get("required") or draw(st.booleans()):
            argv.append(flag)
            if spec.get("action") != "store_true":
                argv.append(draw(_valid(flag, spec, csv)))
    return argv


@st.composite
def mutated(draw, argv: list, csv: str):
    """argv with one token inserted, deleted, replaced or moved to the end,
    or one option dropped with its value, given a bad value, abbreviated,
    joined to its value by "=" or given again with another value."""
    odd = st.one_of(st.sampled_from(ODD_TOKENS), st.text(max_size=4))
    flags = [i for i, token in enumerate(argv) if token.startswith("--") and len(token) > 2]
    kind = draw(st.sampled_from(["insert", "delete", "replace", "to-end", "drop", "bad-value",
                                 "abbreviate", "equals", "repeat"] if flags else
                                ["insert", "delete", "replace", "to-end"]))
    if kind in ("insert", "delete", "replace", "to-end"):
        at = draw(st.integers(0, len(argv)))
        head, token, rest = argv[:at], argv[at:at + 1], argv[at + 1:]
        if kind == "insert":
            return head + [draw(odd)] + token + rest
        if kind == "delete":
            return head + rest
        if kind == "replace":
            return head + [draw(odd)] + rest
        return head + rest + token
    options = cli.COMMANDS.get(argv[0], (None, None, {}))[2]
    checked = [i for i in flags if {"choices", "type"} & options.get(argv[i], {}).keys()]
    at = draw(st.sampled_from(checked if kind == "bad-value" and checked else flags))
    flag, value, rest = argv[at], argv[at + 1:at + 2], argv[at + 2:]
    if kind == "drop":
        return argv[:at] + rest
    if kind == "bad-value":
        return argv[:at + 1] + [draw(st.sampled_from(BAD_VALUES))] + rest
    if kind == "abbreviate":
        return argv[:at] + [flag[:draw(st.integers(2, len(flag) - 1))], *value] + rest
    if kind == "equals":
        return argv[:at] + [f"{flag}={''.join(value)}"] + rest
    spec = options.get(flag, {})
    again = [] if spec.get("action") == "store_true" else [draw(_valid(flag, spec, csv))]
    return argv + [flag, *again]


@st.composite
def argvs(draw, csv: str):
    """(argv, whether it was mutated)."""
    argv = draw(well_formed(csv))
    n = draw(st.integers(0, 3))
    for _ in range(n):
        argv = draw(mutated(argv, csv))
    return argv, n > 0


def _arguments(namespace) -> dict:
    # by repr, so that nan equals nan and -0.0 differs from 0.0
    return {name: repr(value) for name, value in vars(namespace).items()}


def _ended(argv) -> tuple:
    """main's (exit code, stdout, stderr), argparse's own writes included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv, out, err)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1500, deadline=None)
@given(data=st.data())
def test_read_agrees_with_argparse(data, csv_path):
    argv, was_mutated = data.draw(argvs(csv_path))
    read = cli._read_argv(argv)
    if not was_mutated:
        assert read is not None, argv
    if read is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = cli.build_parser().parse_args(argv)
        assert _arguments(read) == _arguments(parsed), argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_main_ends_as_with_argparse_alone(data, csv_path):
    argv, _ = data.draw(argvs(csv_path))
    got = _ended(argv)
    with mock.patch.object(cli, "_read_argv", lambda argv: None):
        assert _ended(argv) == got, argv

