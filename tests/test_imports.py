"""numpy loads only for the command that uses it, not for the binomial tail
that the audit calls, and scipy for none; a bare ``import sigmatail`` loads
none of its submodules, and the CLI neither decimal nor json, each of which
has one rare user, nor ``scales`` outside the three commands that use it,
nor the dataclasses, inspect or typing that plain named tuples do not need,
nor argparse for a well-formed command.  A library user's math loads
neither re, enum nor functools.  The math commands and the binomial tail
give the same bits on every CPython >= 3.10 installed beside this one.

Each check runs in a fresh interpreter, since this test process has
imported numpy already.  The package's public names resolve, and so do the
ones the benchmark harness hooks by name."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import sigmatail

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _loaded_after(code: str, roots=("numpy", "scipy"), flags=()) -> str:
    """The modules under ``roots`` that ``code`` leaves loaded, printed."""
    report = f"import sys; print(sorted(m for m in sys.modules if m.partition('.')[0] in {roots!r}))"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", f"{code}\n{report}"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _cli(argv) -> str:
    return f"import io; from sigmatail import cli; assert cli.main({argv!r}, io.StringIO(), io.StringIO()) == 0"


def test_import_cli_loads_no_numpy_or_scipy():
    assert _loaded_after("import sigmatail.cli") == "[]"


BINOMIAL_CALL = "sigmatail.binomial_tail_at_least(250, 2, sigmatail.from_real(1e-3))"


@pytest.mark.parametrize("call", ["sigmatail.gauss_tail(25)", BINOMIAL_CALL],
                         ids=["gauss_tail", "binomial_tail_at_least"])
def test_gauss_tail_loads_no_numpy_or_scipy(call):
    assert _loaded_after(f"import sigmatail; {call}") == "[]"


MATH_COMMANDS = [
    ["prob", "2"],
    ["prob", "25", "--digits", "15"],
    ["prob", "1e5", "--digits", "15"],
    ["table", "--ks", "3,6,25", "--format", "json"],
    ["occurrence", "25"],
    ["streak", "5", "--days", "3"],
    ["lottery", "--p", "1e-100"],
    ["invert", "--years", "1e5"],
    ["context", "25", "--baseline-years", "1e5"],
    ["ttail", "25", "--nu", "3"],
]


def _command_id(argv) -> str:
    # the command's name, and the whole argv for the runs that pin 15 digits
    return " ".join(argv) if "--digits" in argv else argv[0]


@pytest.mark.parametrize("argv", MATH_COMMANDS, ids=_command_id)
def test_math_only_commands_load_no_numpy_or_scipy(argv):
    assert _loaded_after(_cli(argv)) == "[]"


@pytest.mark.parametrize("code", ["import sigmatail.cli", *map(_cli, MATH_COMMANDS)],
                         ids=["import", *map(_command_id, MATH_COMMANDS)])
def test_math_commands_load_no_dataclasses_inspect_or_typing(code):
    # -S: no site .pth file may load these first and hide an import of ours
    loaded = _loaded_after(code, ("dataclasses", "inspect", "typing"), flags=("-S",))
    assert loaded == "[]"


@pytest.mark.parametrize("argv", [*MATH_COMMANDS, ["audit"]],
                         ids=[*map(_command_id, MATH_COMMANDS), "audit"])
def test_well_formed_commands_load_no_argparse(argv, tmp_path):
    # argparse reads only help requests and usage errors.  -S, as above; the
    # audit finds numpy by a path added by hand, which loads no .pth file
    if argv == ["audit"]:
        numpy_dir = Path(importlib.util.find_spec("numpy").origin).parents[1]
        code = f"import sys; sys.path.append({str(numpy_dir)!r})\n" + _cli(
            ["audit", _audit_csv(tmp_path), "--window", "20", "--format", "json"])
    else:
        code = _cli(argv)
    assert _loaded_after(code, ("argparse",), flags=("-S",)) == "[]"


def _math_command_outputs(python) -> list[tuple[int, str, str]]:
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    runs = [subprocess.run([str(python), "-S", "-m", "sigmatail", *argv],
                           capture_output=True, text=True, env=env) for argv in MATH_COMMANDS]
    return [(run.returncode, run.stdout, run.stderr) for run in runs]


def _sibling_pythons() -> list[Path]:
    """Every other CPython >= 3.10 installed beside this one, as pyenv keeps
    them: the floor that pyproject.toml states and up."""
    here = Path(sys.base_prefix).resolve()
    probe = "import sys; print(sys.version_info >= (3, 10) and sys.implementation.name == 'cpython')"
    found = []
    for prefix in sorted(here.parent.iterdir()):
        python = prefix / "bin" / "python3"
        if prefix.resolve() == here or not python.is_file():
            continue
        run = subprocess.run([str(python), "-S", "-c", probe], capture_output=True, text=True,
                             env={"PATH": "/usr/bin:/bin"})
        if run.stdout.strip() == "True":
            found.append(python)
    return found


def test_math_commands_agree_on_every_python():
    # the printed digits must not depend on the interpreter's float
    # formatting or math library
    siblings = _sibling_pythons()
    if not siblings:
        pytest.skip("no other CPython >= 3.10 beside this one")
    want = _math_command_outputs(sys.executable)
    assert [code for code, *_ in want] == [0] * len(MATH_COMMANDS)
    for python in siblings:
        assert _math_command_outputs(python) == want, python


# (n, m, log10 p) from the mpmath sweep of tests/test_audit.py: the direct
# sum, the head as the upper tail of n - X, j = n, and ln(1 - p) at p = 2e-10
BINOMIAL_QUERIES = [(250, 2, -8.0), (250, 125, -0.3), (10_000, 98, -2.0),
                    (400_000, 400_000, -400.0), (10_000_000, 5_112_111, -0.3),
                    (10 ** 10, 2, -9.698970004336019)]


def _binomial_reprs(python) -> tuple[int, str, str]:
    code = ("from sigmatail import Magnitude, binomial_tail_at_least\n"
            f"for n, m, log10_p in {BINOMIAL_QUERIES!r}:\n"
            "    print(repr(binomial_tail_at_least(n, m, Magnitude(log10_p)).log10_value))")
    run = subprocess.run([str(python), "-S", "-c", code], capture_output=True, text=True,
                         env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC),
                              "PYTHONDONTWRITEBYTECODE": "1"})
    return run.returncode, run.stdout, run.stderr


def test_binomial_tail_agrees_on_every_python():
    # it loads no numpy, so every sibling runs it
    siblings = _sibling_pythons()
    if not siblings:
        pytest.skip("no other CPython >= 3.10 beside this one")
    want = _binomial_reprs(sys.executable)
    assert want[0] == 0 and len(want[1].split()) == len(BINOMIAL_QUERIES), want
    for python in siblings:
        assert _binomial_reprs(python) == want, python


def test_every_module_compiles_on_every_python():
    # audit.py and _kernels.py import numpy, which another interpreter may
    # lack, so no run there would meet syntax it does not read; compile()
    # reads every module and writes no bytecode
    siblings = _sibling_pythons()
    if not siblings:
        pytest.skip("no other CPython >= 3.10 beside this one")
    code = ("import pathlib, sys\n"
            "for path in sorted(pathlib.Path(sys.argv[1]).glob('*.py')):\n"
            "    compile(path.read_text(encoding='utf-8'), str(path), 'exec')")
    for python in siblings:
        run = subprocess.run([str(python), "-S", "-c", code, str(SRC / "sigmatail")],
                             capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"})
        assert (run.returncode, run.stderr) == (0, ""), python


def test_library_math_loads_no_re_enum_or_functools():
    # a parse, two tails and a >= (Python's reflected <=) run without them
    code = ("import sigmatail, sigmatail.gauss, sigmatail.scales, sigmatail.studentt\n"
            "from sigmatail.magnitude import ONE, ZERO, parse\n"
            "sigmatail.gauss.gauss_tail(25); parse('3.057e-138'); assert ONE >= ZERO\n"
            + BINOMIAL_CALL)
    assert _loaded_after(code, ("re", "enum", "functools"), flags=("-S",)) == "[]"


def _audit_csv(tmp_path) -> str:
    path = tmp_path / "s.csv"
    rows = [f"2000-01-{d:02d},{(-1) ** d * 0.01 * d}" for d in range(1, 32)]
    path.write_text("date,value\n" + "\n".join(rows) + "\n")
    return str(path)


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import sigmatail", ("sigmatail",)) == "['sigmatail']"


def test_import_cli_loads_no_decimal_or_json():
    assert _loaded_after("import sigmatail.cli", ("decimal", "json")) == "[]"


@pytest.mark.parametrize("code", ["import sigmatail.cli", _cli(["prob", "2"])],
                         ids=["import", "prob"])
def test_cli_loads_scales_only_for_its_commands(code):
    loaded = _loaded_after(code, ("sigmatail",))
    assert "sigmatail.gauss" in loaded
    assert "sigmatail.scales" not in loaded


def test_audit_loads_numpy(tmp_path):
    # the control: the probe does see numpy once a command needs it
    loaded = _loaded_after(_cli(["audit", _audit_csv(tmp_path), "--threshold", "1"]))
    assert "'numpy'" in loaded


def test_no_command_loads_scipy(tmp_path):
    commands = [["prob", "2"], ["table", "--ks", "3,25"], ["occurrence", "25"],
                ["streak", "5", "--days", "3"], ["lottery", "--p", "1e-100"],
                ["invert", "--years", "1e5"], ["context", "25"], ["ttail", "25", "--nu", "3"],
                ["audit", _audit_csv(tmp_path), "--threshold", "1", "--format", "json"]]
    loaded = _loaded_after("\n".join(_cli(argv) for argv in commands))
    assert "numpy" in loaded  # the audit ran
    assert "scipy" not in loaded


def test_every_exported_name_resolves():
    namespace = {}
    exec("from sigmatail import *", namespace)
    for name in sigmatail.__all__:
        assert namespace[name] is getattr(sigmatail, name)


def test_lazy_names_come_from_their_modules():
    from sigmatail import audit, studentt

    assert sigmatail.Series is audit.Series
    assert sigmatail.student_t_tail is studentt.student_t_tail


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sigmatail.no_such_name  # noqa: B018


def test_benchmark_hooks_resolve():
    # perfbench/tracer.py wraps these attributes by name, and perfbench/run.py
    # reads _kernels.kernel_choice; a rename here would break the traced
    # benchmark while every other test passes
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = tracer.package_modules()
    missing = [f"{mod}.{attr}" for mod, attr, *_ in tracer.TARGETS
               if not callable(getattr(modules[mod], attr, None))]
    assert missing == []
    assert callable(modules["_kernels"].kernel_choice)


def test_benchmark_info_hooks_read_real_results(tmp_path):
    # each info hook in perfbench/tracer.py reads fields of its target's
    # result (terms_used, log10_value, len, scored, observed_count): call it
    # on a real one, so a renamed or dropped field fails here
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = tracer.package_modules()
    path = _audit_csv(tmp_path)
    series = modules["audit"].load_series(path)
    calls = {
        "gauss.gauss_tail": (25.0,),
        "studentt.student_t_tail": (25.0, modules["studentt"].TDistSpec(nu=3.0)),
        "audit.load_series": (path,),
        "audit.estimate_moments": (series,),
        "audit.build_report": (series,),
        "kernels.rolling_moments": (series.values, 20),
    }
    kwargs = {"audit.build_report": {"threshold_k": 1.0}}
    hooked = {name: (mod, attr, info) for mod, attr, name, info in tracer.TARGETS
              if info is not None}
    assert hooked.keys() == calls.keys()
    for name, (mod, attr, info) in hooked.items():
        args = calls[name]
        result = getattr(modules[mod], attr)(*args, **kwargs.get(name, {}))
        counts = info(args, result)
        assert counts and all(isinstance(v, int) for v in counts.values()), name
