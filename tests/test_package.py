import dataclasses
import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import weightbounds
from weightbounds.bounds import BoundVerdict
from weightbounds.codes import CodeParams, LinearCode, WeightSpectrum
from weightbounds.exclusion import AuditViolation, ExclusionReport
from weightbounds.gf import GF
from weightbounds.selfcheck import CheckResult
from weightbounds.tables import CellComparison, RowComparison, TableRow

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_every_exported_name_resolves_and_is_listed_once():
    names = weightbounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(weightbounds, name), name


def test_records_are_named_tuples_and_none_is_a_dataclass():
    # Every record is a NamedTuple; CodeParams and LinearCode check their
    # fields in __new__.  GF is a slotted class.
    for record in (BoundVerdict, ExclusionReport, AuditViolation, WeightSpectrum,
                   CheckResult, TableRow, CellComparison, RowComparison,
                   CodeParams, LinearCode):
        assert issubclass(record, tuple) and record._fields, record
    assert AuditViolation("griesmer", 7, 1) == ("griesmer", 7, 1)
    assert ExclusionReport._fields == ("params", "chen_xie", "singleton", "griesmer", "clamped")
    assert CodeParams._fields == ("n", "k", "d", "q")
    assert isinstance(ExclusionReport.notes, property)
    modules = [importlib.import_module(m.name) for m in
               pkgutil.iter_modules(weightbounds.__path__, "weightbounds.")
               if m.name != "weightbounds.__main__"]  # importing it runs the CLI
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type)}
    assert GF in classes and not any(map(dataclasses.is_dataclass, classes))


def test_the_cli_imports_without_dataclasses_or_inspect():
    # A module set to None in sys.modules fails to import.  The subprocess
    # imports the copy of the package this test imported: a checkout's src/
    # or an installed copy in site-packages.
    code = ("import sys; sys.modules.update(dataclasses=None, inspect=None); "
            "import weightbounds.cli")
    env = {**os.environ, "PYTHONPATH": str(Path(weightbounds.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_a_failing_given_test_fails_without_ending_the_session(pytester):
    # Under this project's pytest settings, where warnings are errors, a
    # failing @given test is reported as one failure and the next test runs.
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(test_given="""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_after():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_given.py")
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
