"""The package and the CLI load only the modules a command runs.

Each check runs in a fresh interpreter, since this test process has long
loaded every module.
"""

import subprocess
import sys

import pytest

from conftest import DATA_DIR

SUM_SPEC_FILE = str(DATA_DIR / "sum.iospec")

# Only `test` needs the harness and the subprocess runner; only commands
# that run a spec need the interpreters.
NOT_FOR_ANY_SPEC_RUN = {"iospec.runner", "iospec.harness", "subprocess"}
# Tree nodes, tokens, trace steps and run outcomes are `_Record`s, not
# dataclasses: parsing loads neither `dataclasses` nor the `inspect` it
# imports, and neither do the trace and runner modules.
NO_DATACLASSES = {"dataclasses", "inspect"}
NOT_FOR_PARSING = NOT_FOR_ANY_SPEC_RUN | {
    "iospec.semantics", "iospec.traces", "selectors", *NO_DATACLASSES,
}


def run_fresh(code: str, *argv: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# Runs the CLI on its arguments, if any, then prints the loaded modules as
# its last line.
LOADED_AFTER_MAIN = """\
import sys
from iospec.cli import main
if sys.argv[1:]:
    assert main(sys.argv[1:]) == 0
print(" ".join(sys.modules))
"""


@pytest.mark.parametrize("argv, absent, present", [
    ([], NOT_FOR_PARSING, {"iospec.parser"}),
    (["check", SUM_SPEC_FILE], NOT_FOR_PARSING, {"iospec.parser"}),
    (["accept", SUM_SPEC_FILE, "--trace", "?1 !1 ?5 !5 stop"],
     NOT_FOR_ANY_SPEC_RUN, {"iospec.semantics"}),
    (["interpret", SUM_SPEC_FILE, "--inputs", "2,3,7"],
     NOT_FOR_ANY_SPEC_RUN, {"iospec.semantics"}),
    (["sample", SUM_SPEC_FILE, "--count", "2"],
     NOT_FOR_ANY_SPEC_RUN, {"iospec.semantics"}),
], ids=["import", "check", "accept", "interpret", "sample"])
def test_command_loads_only_what_it_runs(argv, absent, present):
    loaded = set(run_fresh(LOADED_AFTER_MAIN, *argv).splitlines()[-1].split())
    assert not absent & loaded
    assert present <= loaded


@pytest.mark.parametrize("module", ["iospec.traces", "iospec.runner"])
def test_records_load_no_dataclasses(module):
    loaded = set(run_fresh(f"import sys, {module}; print(' '.join(sys.modules))").split())
    assert module in loaded
    assert not NO_DATACLASSES & loaded


def test_every_export_is_the_defining_modules_object():
    code = """\
import importlib
import iospec
for name in iospec.__all__:
    value = getattr(iospec, name)
    module = importlib.import_module("iospec." + iospec._MODULE_OF[name])
    assert value is getattr(module, name), name
    assert getattr(value, "__module__", module.__name__) == module.__name__, name
    assert name in vars(iospec), name  # cached after the first lookup
assert set(iospec.__all__) <= set(dir(iospec))
print(len(iospec.__all__))
"""
    assert int(run_fresh(code)) > 0


def test_star_import_binds_every_export():
    code = """\
from iospec import *
import iospec
missing = [name for name in iospec.__all__ if name not in globals()]
assert not missing, missing
assert normalize_spec is iospec.syntax.normalize_spec
"""
    run_fresh(code)


def test_unknown_attribute_is_an_attribute_error():
    import iospec

    with pytest.raises(AttributeError, match="no_such_name"):
        iospec.no_such_name
    with pytest.raises(ImportError):
        from iospec import no_such_name  # noqa: F401


def test_submodule_is_an_attribute_after_a_bare_import():
    code = """\
import sys
import iospec
assert "iospec.runner" not in sys.modules
assert iospec.runner.ExitKind is iospec.ExitKind
"""
    run_fresh(code)
