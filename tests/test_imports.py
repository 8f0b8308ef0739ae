"""numpy loads only for the command that uses it, and scipy for none; a
bare ``import sigmatail`` loads none of its submodules, and the CLI neither
decimal nor json, each of which has one rare user, nor the dataclasses,
inspect or typing that plain named tuples do not need.

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
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _cli(argv) -> str:
    return f"import io; from sigmatail import cli; assert cli.main({argv!r}, io.StringIO(), io.StringIO()) == 0"


def test_import_cli_loads_no_numpy_or_scipy():
    assert _loaded_after("import sigmatail.cli") == "[]"


def test_gauss_tail_loads_no_numpy_or_scipy():
    assert _loaded_after("import sigmatail; sigmatail.gauss_tail(25)") == "[]"


MATH_COMMANDS = [
    ["prob", "2"],
    ["table", "--ks", "3,6,25", "--format", "json"],
    ["occurrence", "25"],
    ["streak", "5", "--days", "3"],
    ["lottery", "--p", "1e-100"],
    ["invert", "--years", "1e5"],
    ["context", "25", "--baseline-years", "1e5"],
    ["ttail", "25", "--nu", "3"],
]


@pytest.mark.parametrize("argv", MATH_COMMANDS, ids=lambda argv: argv[0])
def test_math_only_commands_load_no_numpy_or_scipy(argv):
    assert _loaded_after(_cli(argv)) == "[]"


@pytest.mark.parametrize("code", ["import sigmatail.cli", *map(_cli, MATH_COMMANDS)],
                         ids=["import", *(argv[0] for argv in MATH_COMMANDS)])
def test_math_commands_load_no_dataclasses_inspect_or_typing(code):
    # -S: no site .pth file may load these first and hide an import of ours
    loaded = _loaded_after(code, ("dataclasses", "inspect", "typing"), flags=("-S",))
    assert loaded == "[]"


def _audit_csv(tmp_path) -> str:
    path = tmp_path / "s.csv"
    rows = [f"2000-01-{d:02d},{(-1) ** d * 0.01 * d}" for d in range(1, 32)]
    path.write_text("date,value\n" + "\n".join(rows) + "\n")
    return str(path)


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import sigmatail", ("sigmatail",)) == "['sigmatail']"


def test_import_cli_loads_no_decimal_or_json():
    assert _loaded_after("import sigmatail.cli", ("decimal", "json")) == "[]"


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
