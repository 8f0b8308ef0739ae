"""argparse's own help and usage-error text, pinned byte for byte.

Every ``-h`` and every malformed argv is argparse's to answer: its text on
stdout (help, exit 0) or stderr (usage errors, exit 2).  argparse wraps
both to the terminal's width, which it reads from COLUMNS, so the tests fix
that at 80.  The wording is argparse's on the Python these tests run on; a
newer argparse words some of it differently."""

import io

import pytest

from sigmatail import cli

HELP_GOLDEN = {
    "": """\
usage: sigmatail [-h]
                 {prob,table,occurrence,streak,lottery,invert,context,ttail,audit}
                 ...

Extreme-tail probabilities of k-sigma events, occurrence periods, streak odds
and series audits.

positional arguments:
  {prob,table,occurrence,streak,lottery,invert,context,ttail,audit}
    prob                tail probability and occurrence period for one k
    table               one row per k: percent, occurrence days/years
    occurrence          expected-occurrence period for k or a probability
    streak              odds of m consecutive k-sigma days
    lottery             bracket a probability between consecutive-win streaks
    invert              sigma level whose occurrence period matches --years
    context             reference-scale comparisons for a k-sigma event
    ttail               Student-t upper tail and gap vs the Gaussian
    audit               sigma-score a date,value CSV and test the event count

options:
  -h, --help            show this help message and exit
""",
    "prob": """\
usage: sigmatail prob [-h] [--mode {exact,asymptotic,paper_appendix,auto}]
                      [--digits DIGITS] [--dpy DPY]
                      k

positional arguments:
  k

options:
  -h, --help            show this help message and exit
  --mode {exact,asymptotic,paper_appendix,auto}
  --digits DIGITS       significant digits for printed values (1-15, default
                        4)
  --dpy DPY             trading days per year (default 250)
""",
    "table": """\
usage: sigmatail table [-h] --ks KS [--format {text,csv,md,json}]
                       [--digits DIGITS] [--dpy DPY]

options:
  -h, --help            show this help message and exit
  --ks KS               comma-separated sigma levels, e.g. 3,4,5,6,7
  --format {text,csv,md,json}
  --digits DIGITS       significant digits for printed values (1-15, default
                        4)
  --dpy DPY             trading days per year (default 250)
""",
    "occurrence": """\
usage: sigmatail occurrence [-h] [--p P] [--digits DIGITS] [--dpy DPY] [k]

positional arguments:
  k

options:
  -h, --help       show this help message and exit
  --p P            probability in scientific or decimal text form
  --digits DIGITS  significant digits for printed values (1-15, default 4)
  --dpy DPY        trading days per year (default 250)
""",
    "streak": """\
usage: sigmatail streak [-h] --days DAYS [--digits DIGITS] k

positional arguments:
  k

options:
  -h, --help       show this help message and exit
  --days DAYS
  --digits DIGITS  significant digits for printed values (1-15, default 4)
""",
    "lottery": """\
usage: sigmatail lottery [-h] --p P [--win-prob WIN_PROB]

options:
  -h, --help           show this help message and exit
  --p P
  --win-prob WIN_PROB  single-ticket win probability (default 4e-7)
""",
    "invert": """\
usage: sigmatail invert [-h] --years YEARS [--dpy DPY]

options:
  -h, --help     show this help message and exit
  --years YEARS
  --dpy DPY      trading days per year (default 250)
""",
    "context": """\
usage: sigmatail context [-h] [--refs REFS] [--baseline-years BASELINE_YEARS]
                         [--digits DIGITS] [--dpy DPY]
                         k

positional arguments:
  k

options:
  -h, --help            show this help message and exit
  --refs REFS           file of name,kind,low,high reference scales
  --baseline-years BASELINE_YEARS
                        also print the order gap vs this period
  --digits DIGITS       significant digits for printed values (1-15, default
                        4)
  --dpy DPY             trading days per year (default 250)
""",
    "ttail": """\
usage: sigmatail ttail [-h] --nu NU [--standardized] [--digits DIGITS] k

positional arguments:
  k

options:
  -h, --help       show this help message and exit
  --nu NU
  --standardized   rescale to unit variance (sigma units)
  --digits DIGITS  significant digits for printed values (1-15, default 4)
""",
    "audit": """\
usage: sigmatail audit [-h] [--window WINDOW] [--threshold THRESHOLD]
                       [--side {loss,both}] [--format {text,json}]
                       [--digits DIGITS] [--dpy DPY]
                       file

positional arguments:
  file

options:
  -h, --help            show this help message and exit
  --window WINDOW
  --threshold THRESHOLD
  --side {loss,both}
  --format {text,json}
  --digits DIGITS       significant digits for printed values (1-15, default
                        4)
  --dpy DPY             trading days per year (default 250)
""",
}


USAGE_GOLDEN = {
    "no-command": ([],
        """\
usage: sigmatail [-h]
                 {prob,table,occurrence,streak,lottery,invert,context,ttail,audit}
                 ...
sigmatail: error: the following arguments are required: command
"""),
    "unknown-command": (["bogus"],
        """\
usage: sigmatail [-h]
                 {prob,table,occurrence,streak,lottery,invert,context,ttail,audit}
                 ...
sigmatail: error: argument command: invalid choice: 'bogus' (choose from 'prob', 'table', 'occurrence', 'streak', 'lottery', 'invert', 'context', 'ttail', 'audit')
"""),
    "missing-days": (["streak", "5"],
        """\
usage: sigmatail streak [-h] --days DAYS [--digits DIGITS] k
sigmatail streak: error: the following arguments are required: --days
"""),
    "missing-nu": (["ttail", "3"],
        """\
usage: sigmatail ttail [-h] --nu NU [--standardized] [--digits DIGITS] k
sigmatail ttail: error: the following arguments are required: --nu
"""),
    "missing-k": (["prob"],
        """\
usage: sigmatail prob [-h] [--mode {exact,asymptotic,paper_appendix,auto}]
                      [--digits DIGITS] [--dpy DPY]
                      k
sigmatail prob: error: the following arguments are required: k
"""),
    "bad-mode": (["prob", "2", "--mode", "bogus"],
        """\
usage: sigmatail prob [-h] [--mode {exact,asymptotic,paper_appendix,auto}]
                      [--digits DIGITS] [--dpy DPY]
                      k
sigmatail prob: error: argument --mode: invalid choice: 'bogus' (choose from 'exact', 'asymptotic', 'paper_appendix', 'auto')
"""),
    "bad-side": (["audit", "f.csv", "--side", "gain"],
        """\
usage: sigmatail audit [-h] [--window WINDOW] [--threshold THRESHOLD]
                       [--side {loss,both}] [--format {text,json}]
                       [--digits DIGITS] [--dpy DPY]
                       file
sigmatail audit: error: argument --side: invalid choice: 'gain' (choose from 'loss', 'both')
"""),
    "unknown-option": (["invert", "--years", "1e5", "--dig", "5"],
        """\
usage: sigmatail [-h]
                 {prob,table,occurrence,streak,lottery,invert,context,ttail,audit}
                 ...
sigmatail: error: unrecognized arguments: --dig 5
"""),
    "ambiguous-prefix": (["prob", "2", "--d", "5"],
        """\
usage: sigmatail prob [-h] [--mode {exact,asymptotic,paper_appendix,auto}]
                      [--digits DIGITS] [--dpy DPY]
                      k
sigmatail prob: error: ambiguous option: --d could match --digits, --dpy
"""),
    "bad-float": (["prob", "x"],
        """\
usage: sigmatail prob [-h] [--mode {exact,asymptotic,paper_appendix,auto}]
                      [--digits DIGITS] [--dpy DPY]
                      k
sigmatail prob: error: argument k: invalid float value: 'x'
"""),
    "bad-int": (["prob", "2", "--digits", "x"],
        """\
usage: sigmatail prob [-h] [--mode {exact,asymptotic,paper_appendix,auto}]
                      [--digits DIGITS] [--dpy DPY]
                      k
sigmatail prob: error: argument --digits: invalid int value: 'x'
"""),
    "extra-positional": (["prob", "2", "3"],
        """\
usage: sigmatail [-h]
                 {prob,table,occurrence,streak,lottery,invert,context,ttail,audit}
                 ...
sigmatail: error: unrecognized arguments: 3
"""),
    "streak-dpy": (["streak", "5", "--days", "2", "--dpy", "250"],
        """\
usage: sigmatail [-h]
                 {prob,table,occurrence,streak,lottery,invert,context,ttail,audit}
                 ...
sigmatail: error: unrecognized arguments: --dpy 250
"""),
    "missing-value": (["table", "--ks"],
        """\
usage: sigmatail table [-h] --ks KS [--format {text,csv,md,json}]
                       [--digits DIGITS] [--dpy DPY]
sigmatail table: error: argument --ks: expected one argument
"""),
    "dash-value": (["lottery", "--p", "-x"],
        """\
usage: sigmatail lottery [-h] --p P [--win-prob WIN_PROB]
sigmatail lottery: error: argument --p: expected one argument
"""),
}


@pytest.fixture(autouse=True)
def _columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _exit(argv, capsys):
    """(exit code, stdout, stderr) of a main call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv, io.StringIO(), io.StringIO())
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("command", HELP_GOLDEN)
def test_help(command, capsys):
    argv = [command, "-h"] if command else ["-h"]
    assert _exit(argv, capsys) == (0, HELP_GOLDEN[command], "")


@pytest.mark.parametrize("case", USAGE_GOLDEN)
def test_usage_error(case, capsys):
    argv, message = USAGE_GOLDEN[case]
    assert _exit(argv, capsys) == (2, "", message)
